"""Model files, archives, observables and the command-line driver."""

import json
import os
import time

import numpy as np
import pytest

from cqf import (FilterFunction, StepperConfig, Trajectory, average_symbol,
                 complete, meanfield_derive, qmul)
from cqf.cli import (deserialize, load, parse_model, pretty_print, save,
                     serialize)
from cqf.cli.dsl import ObservableDef
from cqf.cli import main as main_mod
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


@pytest.mark.parametrize("name", ["atom", "cavty"])
def test_cutoff_must_name_a_fock_space(name):
    with open(LASER_FILE, encoding="utf-8") as fh:
        text = fh.read()
    line = len(text.splitlines()) + 1
    with pytest.raises(DslError) as err:
        parse_model(text + f"cutoff {name} 3\n")
    assert err.value.line == line
    assert str(err.value).endswith(
        "cutoff expects SPACE N with SPACE one of the model's Fock spaces "
        f"(cavity), got '{name} 3': no Fock space {name!r}")


def test_non_positive_model_file_tolerance_is_an_error(laser_file, capsys,
                                                       monkeypatch):
    with open(laser_file, "a", encoding="utf-8") as fh:
        fh.write("solver rk45\nrtol 0\n")

    def derive(*args):
        raise AssertionError("derivation ran before the tolerance was checked")

    monkeypatch.setattr(main_mod, "meanfield_derive", derive)
    assert main(["solve", laser_file]) == 1
    assert "tolerances must be positive" in capsys.readouterr().err


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


def test_only_preset_filter_objects_are_archivable(laser):
    """A custom filter named like a preset must not reload as the preset."""
    lookalike = FilterFunction("phase", lambda sym: True)
    eqs = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                                    lookalike))
    with pytest.raises(ArchiveError, match="only preset filters are archivable"):
        serialize(eqs)


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


@pytest.mark.parametrize("command, stepped", [
    ("correlate", {"steady_state", "correlation_trajectory"}),
    ("spectrum", {"steady_state"}),
])
def test_steady_correlation_integrates_at_the_resolved_tolerances(
        laser_file, monkeypatch, command, stepped):
    """The steady state is a Newton root and gets no stepper config; the
    delay trajectory of ``correlate`` runs rk45 at the flag's tolerance,
    else the model file's, whatever the file's solver line."""
    with open(laser_file, "a", encoding="utf-8") as fh:
        fh.write("rtol 1e-9\natol 1e-11\n")
    calls = {}

    def spy(name):
        real = getattr(main_mod, name)

        def wrapped(*args, **kwargs):
            calls[name] = (args, kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(main_mod, name, wrapped)

    spy("steady_state")
    spy("correlation_trajectory")
    assert main([command, laser_file, "--atol", "1e-12", "--tau-max", "5",
                 "--tau-points", "11", "--out", laser_file + ".out"]) == 0
    assert set(calls) == stepped
    args, kwargs = calls["steady_state"]
    assert len(args) == 2 and not kwargs        # the bound program and u0
    if "correlation_trajectory" in calls:
        cfg = calls["correlation_trajectory"][0][3]
        assert (cfg.method, cfg.rtol, cfg.atol) == ("rk45", 1e-9, 1e-12)


def test_loose_tolerances_give_the_same_steady_spectrum(laser_file):
    """The steady state is a Newton root whatever the stepper tolerances."""
    out_default = laser_file + ".default.csv"
    out_loose = laser_file + ".loose.csv"
    assert main(["spectrum", laser_file, "--out", out_default]) == 0
    assert main(["spectrum", laser_file, "--rtol", "1e-5", "--atol", "1e-6",
                 "--out", out_loose]) == 0
    s = np.loadtxt(out_default, delimiter=",", skiprows=1)
    loose = np.loadtxt(out_loose, delimiter=",", skiprows=1)
    assert np.max(np.abs(s[:, 1] - loose[:, 1])) <= 1e-9 * s[:, 1].max()


def test_optomech_steady_spectrum_takes_seconds(tmp_path):
    """The phonons relax over ~1e4 time units; the Newton steady state does
    not integrate through that."""
    with open(os.path.join(os.path.dirname(LASER_FILE), "optomech.cqm"),
              encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "optomech.cqm"
    path.write_text(text + "correlation a', a\n", encoding="utf-8")
    out = str(tmp_path / "spectrum.csv")
    start = time.perf_counter()
    assert main(["spectrum", str(path), "--out", out]) == 0
    assert time.perf_counter() - start < 20.0
    s = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(s) == 301 and np.all(np.isfinite(s[:, 1]))


@pytest.mark.parametrize("command", ["correlate", "spectrum"])
@pytest.mark.parametrize("flags", [["--dt", "0.1"], ["--method", "rk4"]])
def test_steady_correlation_refuses_fixed_step_flags(laser_file, capsys,
                                                     monkeypatch, command,
                                                     flags):
    def derive(*args):
        raise AssertionError("derivation ran before the flags were checked")

    monkeypatch.setattr(main_mod, "meanfield_derive", derive)
    assert main([command, laser_file, *flags]) == 1
    named = flags[0] if flags[0] == "--dt" else " ".join(flags)
    assert capsys.readouterr().err.startswith(f"error: {named} does not apply")


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


@pytest.mark.parametrize("line", [
    "param nu = 4 + im",
    "initial <a'*a> = 1 + im",
    "observable T = temperature(a, a)",
    "observable T = temperature(a, kappa)",
])
def test_number_errors_carry_their_line(tmp_path, capsys, line):
    """A directive that needs a real number reports where it is."""
    bad = tmp_path / "bad.cqm"
    bad.write_text("space c fock\nop a = destroy(c)\nparam kappa = 1\n"
                   f"hamiltonian a'*a\n{line}\n", encoding="utf-8")
    assert main(["derive", str(bad)]) == 1
    assert capsys.readouterr().err == f"{bad}:5:1: expected a real number\n"


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--set", "g=abc"]),
    ("solve", ["--set", "g"]),
    ("derive", ["--order", "2,x"]),
    ("spectrum", ["--omega", "1:2:x"]),
    ("spectrum", ["--omega", "1:2"]),
    ("spectrum", ["--omega", "1:2:0"]),
    ("solve", ["--oracle", "--cutoff", "cavity=x"]),
    ("solve", ["--oracle", "--cutoff", "cavty=3"]),
    ("spectrum", ["--oracle", "--cutoff", "atom=3"]),
    ("solve", ["--rtol", "0"]),
    ("correlate", ["--no-steady", "--method", "rk45", "--atol", "-1"]),
    ("correlate", ["--tau-points", "-3"]),
    ("correlate", ["--tau-points", "0"]),
    ("spectrum", ["--no-steady", "--tau-points", "1"]),
    ("spectrum", ["--oracle", "--tau-points", "0"]),
])
def test_malformed_flag_values_are_reported(laser_file, capsys, monkeypatch,
                                            command, flags):
    """Every flag is checked before any equation is derived."""
    def derive(*args):
        raise AssertionError("derivation ran before the flags were checked")

    monkeypatch.setattr(main_mod, "meanfield_derive", derive)
    assert main([command, laser_file, *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[-2]} expects ")
    assert repr(flags[-1]) in err
    if "=3" in flags[-1]:
        assert f"no Fock space {flags[-1].split('=')[0]!r}" in err


def test_cli_requires_parameter_values(laser_file, tmp_path, capsys):
    text = open(laser_file).read().replace("param nu = 4", "param nu")
    path = tmp_path / "nop.cqm"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 1
    assert "nu" in capsys.readouterr().err
    assert main(["solve", str(path), "--set", "nu=4",
                 "--out", str(tmp_path / "ok.csv")]) == 0
