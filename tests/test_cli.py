"""Model files, archives, observables and the command-line driver."""

import json
import os

import numpy as np
import pytest

from cqf import (StepperConfig, Trajectory, average_symbol, complete,
                 meanfield_derive, qmul)
from cqf.cli import (deserialize, load, parse_model, pretty_print, save,
                     serialize)
from cqf.cli.dsl import ObservableDef
from cqf.cli.main import main
from cqf.cli.observables import mandel_q, occupation_to_kelvin, temperature
from cqf.errors import ArchiveError, DslError, EvaluationError

LASER_FILE = os.path.join(os.path.dirname(__file__), "..", "models",
                          "laser.cqm")

JC_TEXT = """
space cavity fock
space atom nlevel g e

op a   = destroy(cavity)
op sge = transition(atom, g, e)
op seg = transition(atom, e, g)

param Delta
param g
param kappa
param gamma
param nu

hamiltonian Delta*a'*a + g*(a'*sge + a*seg)
jump a rate kappa
jump sge rate gamma
jump seg rate nu
order 2
filter phase
track a'*a
"""


def _sym(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops))


def test_jaynes_cummings_file_reproduces_the_api_model():
    from cqf import (ModelDefinition, create, destroy, fock, nlevel,
                     parameters, product, transition)

    parsed = parse_model(JC_TEXT)
    h = product(fock("cavity"), nlevel("atom", ("g", "e")))
    a = destroy(h, "a")
    sge = transition(h, "sge", "g", "e")
    seg = transition(h, "seg", "e", "g")
    delta, g, kappa, gamma, nu = parameters("Delta g kappa gamma nu")
    H = delta * (a.dag() * a) + g * (a.dag() * sge + a * seg)
    assert parsed.model.space == h
    assert parsed.model.hamiltonian == H
    assert parsed.model.jumps == (a, sge, seg)
    assert parsed.model.rates == (kappa, gamma, nu)
    assert parsed.options.order.uniform == 2
    assert parsed.options.filter_name == "phase"


def test_two_mode_file_requires_explicit_subspaces():
    text = """
space cavity fock
space motion fock
op a = destroy(cavity)
op b = destroy(motion)
param w
hamiltonian w*b'*b + a'*a
jump a rate w
"""
    parsed = parse_model(text)
    ops = dict(parsed.model.operators)
    assert ops["a"].monomial_ops()[0].subspace == 0
    assert ops["b"].monomial_ops()[0].subspace == 1


def test_empty_hamiltonian_is_an_error():
    with pytest.raises(DslError, match="empty hamiltonian"):
        parse_model("space c fock\nop a = destroy(c)\nhamiltonian\n")


def test_missing_hamiltonian_is_an_error():
    with pytest.raises(DslError, match="no hamiltonian"):
        parse_model("space c fock\nop a = destroy(c)\n")


def test_undeclared_identifier_reports_location():
    text = "space c fock\nop a = destroy(c)\nhamiltonian omega*a'*a\n"
    with pytest.raises(DslError) as err:
        parse_model(text)
    assert err.value.line == 3
    assert "omega" in str(err.value)


def test_operator_on_wrong_space_kind():
    text = "space c fock\nop s = transition(c, g, e)\nhamiltonian s\n"
    with pytest.raises(DslError):
        parse_model(text)


def test_rational_and_scientific_literals():
    text = ("space c fock\nop a = destroy(c)\nparam w = 2.5e-3\n"
            "hamiltonian 3/4*a'*a + w*a'*a\njump a rate 1/2\n")
    parsed = parse_model(text)
    assert parsed.options.param_values["w"] == pytest.approx(2.5e-3)
    from fractions import Fraction

    rate = parsed.model.rates[0].constant_value()
    assert rate.re == Fraction(1, 2)


def test_parser_round_trip_through_pretty_print():
    with open(LASER_FILE, encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    text = pretty_print(parsed)
    reparsed = parse_model(text)
    assert reparsed.model == parsed.model
    assert reparsed.options.order == parsed.options.order
    assert reparsed.options.filter_name == parsed.options.filter_name
    assert reparsed.options.initial == parsed.options.initial
    assert reparsed.options.tspan == parsed.options.tspan
    assert pretty_print(reparsed) == text


def test_archive_round_trip_is_byte_identical(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, None))
    blob = serialize(closed)
    restored = deserialize(blob)
    assert serialize(restored) == blob
    assert restored.equations == closed.equations
    assert restored.order == closed.order
    assert restored.archived


def test_archived_sets_refuse_rederivation(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, None))
    restored = deserialize(serialize(closed))
    from cqf import build_correlation_system, complete as complete_fn
    from cqf.errors import AlgebraError

    with pytest.raises(AlgebraError):
        complete_fn(restored, order=4)
    with pytest.raises(AlgebraError):
        build_correlation_system(laser.ad, laser.a, restored)


def test_bad_archive_payload():
    with pytest.raises(ArchiveError):
        deserialize("{not json")
    with pytest.raises(ArchiveError):
        deserialize(json.dumps({"format": "other"}))


# -- observables --------------------------------------------------------------


def _fake_trajectory(laser, columns):
    layout = tuple(columns)
    states = np.column_stack([np.asarray(v, dtype=complex)
                              for v in columns.values()])
    return Trajectory(np.arange(states.shape[0], dtype=float), states, layout)


def test_expr_observable_matches_row_by_row_evaluation(laser):
    from cqf import FILTER_PHASE, average, expand_scalar, state_mapping
    from cqf.cli import evaluate_observables

    n_sym = _sym(laser.ad, laser.a)
    coh_sym = _sym(laser.ad, laser.sge)
    traj = _fake_trajectory(laser, {
        n_sym: np.array([0.5, 2.0, 3.25]),
        coh_sym: np.array([0.1 + 0.2j, -0.3j, 1.5 - 0.25j]),
    })
    # g<a' sge> + <a seg> + <a a'>: a parameter, the conjugated occurrence
    # of <a' sge>, and <a'a> + 1 after normal ordering
    expr = laser.g * qmul(laser.ad, laser.sge) + qmul(laser.a, laser.seg) \
        + qmul(laser.a, laser.ad)
    obs = ObservableDef("x", "expr", expr=expr)
    series = evaluate_observables([obs], traj, 2, FILTER_PHASE,
                                  laser.params)["x"]
    expanded = expand_scalar(average(expr), 2, FILTER_PHASE)
    assert any(params for _, params, _ in expanded.terms)
    assert any(s.conjugated for s in expanded.averages())
    assert any(not params and not avgs for _, params, avgs in expanded.terms)
    expected = [expanded.evaluate(laser.params,
                                  state_mapping(traj.layout, row))
                for row in traj.states]
    assert series.dtype == np.complex128
    assert np.allclose(series, expected, rtol=1e-14, atol=0)


def test_mandel_q_poissonian_and_number_state(laser):
    n_sym = _sym(laser.ad, laser.a)
    n4_sym = _sym(laser.ad, laser.ad, laser.a, laser.a)
    n = np.array([2.0, 3.0])
    poisson = _fake_trajectory(laser, {n_sym: n, n4_sym: n**2})
    assert np.allclose(mandel_q(laser.a, poisson), 0.0)
    number = _fake_trajectory(laser, {n_sym: n, n4_sym: n * (n - 1)})
    assert np.allclose(mandel_q(laser.a, number), -1.0)


def test_mandel_q_requires_fourth_order(laser):
    n_sym = _sym(laser.ad, laser.a)
    traj = _fake_trajectory(laser, {n_sym: np.array([1.0])})
    with pytest.raises(EvaluationError, match="order >= 4"):
        mandel_q(laser.a, traj)


def test_temperature_conversion_matches_room_temperature(laser):
    assert occupation_to_kelvin(4e6, 1e7) == pytest.approx(305.5, abs=1.0)
    nb_sym = _sym(laser.ad, laser.a)
    traj = _fake_trajectory(laser, {nb_sym: np.array([4e6])})
    t = temperature(laser.a, 1e7, traj)
    assert abs(t[0] - 300.0) < 10.0


# -- command-line driver -------------------------------------------------------


@pytest.fixture()
def laser_file(tmp_path):
    with open(LASER_FILE, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("tspan 0 20", "tspan 0 5")
    path = tmp_path / "laser.cqm"
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_derive_writes_archive_and_dump(laser_file, capsys):
    assert main(["derive", laser_file]) == 0
    out = capsys.readouterr().out
    assert "derived 3 equations" in out
    archive_path = laser_file + ".eqs.json"
    assert os.path.exists(archive_path)
    eqs = load(archive_path)
    assert len(eqs) == 3
    dump = open(laser_file + ".txt", encoding="utf-8").read()
    assert dump.count("d⟨") == 3


def test_derive_latex_dump(laser_file):
    assert main(["derive", laser_file, "--format", "latex",
                 "--out", laser_file + ".tex"]) == 0
    tex = open(laser_file + ".tex", encoding="utf-8").read()
    assert "\\begin{align}" in tex
    assert "\\langle" in tex


def test_solve_writes_deterministic_csv(laser_file):
    out1 = laser_file + ".run1.csv"
    out2 = laser_file + ".run2.csv"
    assert main(["solve", laser_file, "--out", out1]) == 0
    assert main(["solve", laser_file, "--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    header = b1.decode().splitlines()[0].split(",")
    assert header[0] == "t"
    assert "Re⟨a'*a⟩" in header
    assert "Im⟨a'*a⟩" in header
    assert header[-1] == "n"
    # conjugate averages never appear as their own columns
    assert not any("a*σeg" in h for h in header)


def test_solve_from_archive_matches_direct_solve(laser_file):
    assert main(["derive", laser_file]) == 0
    direct = laser_file + ".direct.csv"
    archived = laser_file + ".archived.csv"
    assert main(["solve", laser_file, "--out", direct]) == 0
    assert main(["solve", laser_file, "--archive",
                 laser_file + ".eqs.json", "--out", archived]) == 0
    assert open(direct).read() == open(archived).read()


def test_solve_with_oracle_columns(laser_file, capsys):
    out = laser_file + ".oracle.csv"
    assert main(["solve", laser_file, "--out", out,
                 "--cutoff", "cavity=8"]) == 0
    assert main(["solve", laser_file, "--oracle", "--out", out,
                 "--cutoff", "cavity=8"]) == 0
    text = capsys.readouterr().out
    assert "oracle max deviation" in text
    header = open(out).read().splitlines()[0]
    assert "ME:Re⟨a'*a⟩" in header


def test_spectrum_default_grid(laser_file):
    out = laser_file + ".spec.csv"
    assert main(["spectrum", laser_file, "--out", out]) == 0
    rows = open(out).read().splitlines()
    assert rows[0] == "omega,S"
    assert len(rows) == 302
    omegas = np.array([float(r.split(",")[0]) for r in rows[1:]])
    assert omegas[0] == pytest.approx(-np.pi)
    assert omegas[-1] == pytest.approx(np.pi)


def test_correlate_csv(laser_file):
    out = laser_file + ".corr.csv"
    assert main(["correlate", laser_file, "--out", out,
                 "--tau-max", "10", "--tau-points", "101"]) == 0
    rows = open(out).read().splitlines()
    assert rows[0] == "tau,ReC,ImC"
    assert len(rows) == 102


def test_spectrum_with_oracle_column(laser_file, capsys):
    out = laser_file + ".spec_me.csv"
    assert main(["spectrum", laser_file, "--oracle", "--out", out,
                 "--cutoff", "cavity=8", "--tau-max", "40",
                 "--omega=-3:3:101"]) == 0
    text = capsys.readouterr().out
    assert "oracle max relative deviation" in text
    rows = open(out).read().splitlines()
    assert rows[0] == "omega,S,ME:S"
    assert len(rows) == 102


def test_spectrum_non_steady_matches_steady_after_relaxation(laser_file, tmp_path):
    """Co-evolving the delay averages from a relaxed state gives the same
    spectrum as the steady-state resolvent."""
    text = open(laser_file).read().replace("tspan 0 5", "tspan 0 60")
    path = tmp_path / "l.cqm"
    path.write_text(text, encoding="utf-8")
    out_s = str(tmp_path / "steady.csv")
    out_n = str(tmp_path / "nonsteady.csv")
    assert main(["spectrum", str(path), "--out", out_s]) == 0
    assert main(["spectrum", str(path), "--no-steady", "--tau-max", "40",
                 "--tau-points", "4001", "--out", out_n]) == 0
    s = np.loadtxt(out_s, delimiter=",", skiprows=1)
    n = np.loadtxt(out_n, delimiter=",", skiprows=1)
    assert np.max(np.abs(s[:, 1] - n[:, 1])) < 2e-2 * s[:, 1].max()


def test_order_flag_overrides_model_file(laser_file, capsys):
    assert main(["derive", laser_file, "--order", "4",
                 "--archive", laser_file + ".o4.json",
                 "--out", laser_file + ".o4.txt"]) == 0
    assert "derived 6 equations" in capsys.readouterr().out


def test_mixed_order_line_parses():
    text = ("space c fock\nspace atom nlevel g e\nop a = destroy(c)\n"
            "op s = transition(atom, g, e)\nparam w\n"
            "hamiltonian w*a'*a\njump a rate w\norder 2,1\n")
    parsed = parse_model(text)
    assert parsed.options.order.per_subspace == (2, 1)
    assert parsed.options.order.reducer == "max"


def test_cli_reports_dsl_errors(tmp_path, capsys):
    bad = tmp_path / "bad.cqm"
    bad.write_text("space c fock\nhamiltonian oops\n", encoding="utf-8")
    assert main(["derive", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "2:" in err
    assert "oops" in err


def test_cli_requires_parameter_values(laser_file, tmp_path, capsys):
    text = open(laser_file).read().replace("param nu = 4", "param nu")
    path = tmp_path / "nop.cqm"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "nu" in capsys.readouterr().err
    assert main(["solve", str(path), "--set", "nu=4",
                 "--out", str(tmp_path / "ok.csv")]) == 0
