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
from cqf.cli.dsl import MAX_NESTING, ObservableDef
from cqf.cli import main as main_mod
from cqf.cli.main import main
from cqf import correlation as correlation_mod
from cqf import oracle as oracle_mod
from cqf.oracle import TruncationSpec, ground_state, me_evolve
from cqf.cli.observables import mandel_q, occupation_to_kelvin, temperature
from cqf.errors import AlgebraError, ArchiveError, CqfError, DslError, EvaluationError

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


_PRELUDE = "space c fock\nspace atom nlevel g e\n"
_BODY = ("op a = destroy(c)\nop s = transition(atom, g, e)\nparam k = 1\n"
         "hamiltonian a'*a\n")

# Each line follows the body, as line 7; a space line precedes it, as line 3.
MALFORMED_LINES = [
    ('@', "7:1: unexpected character '@'"),
    ('param x = 1 ! 2', "7:13: unexpected character '!'"),
    ('3 a', '7:1: a directive keyword must start the line'),
    ('frobnicate a', "7:1: unknown directive 'frobnicate'"),
    ('param x = 1.2.3', "7:11: bad number '1.2.3'"),
    ("track (a'*a", "7:12: expected ')', found 'end of line'"),
    ("track 2'", '7:8: dagger applies to operators'),
    ('param x = 3/a', "7:13: expected a number after '/'"),
    ('param x = 3/0', '7:13: division by zero'),
    ('track a*)', "7:9: unexpected ')'"),
    ('track a*', "7:9: unexpected 'end of line'"),
    ('track b', "7:7: undeclared identifier 'b'"),
    ('space q', "3:8: expected a name, found 'end of line'"),
    ('space q qubit', "3:1: unknown space kind 'qubit' (fock or nlevel)"),
    ('space q nlevel g (', '3:18: expected a level label'),
    ('space q fock x', "3:14: unexpected 'x' at end of directive"),
    ('space q nlevel g e ground g x', "3:29: unexpected 'x' at end of directive"),
    ('space q nlevel g', "3:1: nlevel space 'q' needs at least two levels"),
    ('space q nlevel g g', "3:1: nlevel space 'q' has duplicate level labels"),
    ('space q nlevel g e ground f', "3:1: ground level 'f' is not a level of 'q'"),
    ('space c nlevel g e', '3:1: factor names must be unique within a product space'),
    ('space q nlevel 1', "3:1: nlevel space 'q' needs at least two levels"),
    ('space q nlevel', "3:1: nlevel space 'q' needs at least two levels"),
    ('space q nlevel 0', "3:1: nlevel space 'q' needs at least two levels"),
    ('space q nlevel ²', "3:1: nlevel space 'q' needs at least two levels"),
    ('op b destroy(c)', "7:6: expected '=', found 'destroy'"),
    ('op b = 3', "7:8: expected a name, found '3'"),
    ('op b = destroy c', "7:16: expected '(', found 'c'"),
    ('op b = annihilate(c)', "7:1: unknown operator constructor 'annihilate' "
                             "(destroy, create or transition)"),
    ('op b = destroy(q)', "7:1: no factor named 'q' in this product space"),
    ('op b = destroy(atom)', '7:1: subspace 1 is not a bosonic mode'),
    ('op b = transition(c, g, e)', '7:1: subspace 0 is not a discrete-level system'),
    ('op b = transition(atom, g, f)',
     "7:1: space 'atom' has no level 'f' (levels: g, e)"),
    ('op b = transition(atom, g e)', "7:27: expected ',', found 'e'"),
    ('op b = destroy(c) x', "7:19: unexpected 'x' at end of directive"),
    ('op a = destroy(c)', "7:1: operator 'a' declared twice"),
    ('op k = destroy(c)', "7:1: operator 'k' clashes with parameter 'k'"),
    ('op b = create(q) x', "7:1: no factor named 'q' in this product space"),
    ('op s = transition(atom, e, g)', "7:1: operator 's' declared twice"),
    ('param k', "7:1: parameter 'k' declared twice"),
    ('param x = a', '7:1: parameter values must be numbers'),
    ('param x = 4 + im', '7:1: expected a real number'),
    ('param x 4', "7:9: unexpected '4' at end of directive"),
    ('param a', "7:1: parameter 'a' clashes with operator 'a'"),
    ('param s = 2', "7:1: parameter 's' clashes with operator 's'"),
    ('param im = 2', "7:1: parameter 'im' clashes with the imaginary unit 'im'"),
    ('op im = destroy(c)', "7:1: operator 'im' clashes with the imaginary unit 'im'"),
    ('param a = b', "7:1: parameter 'a' clashes with operator 'a'"),
    ('op a = destroy(q)', "7:1: no factor named 'q' in this product space"),
    ('hamiltonian', '7:1: empty hamiltonian'),
    ('hamiltonian k', '7:1: the hamiltonian must be an operator expression'),
    ("hamiltonian a'*a", '7:1: hamiltonian given twice'),
    ("hamiltonian a'*a x", "7:18: unexpected 'x' at end of directive"),
    ('hamiltonian 2 junk', "7:15: unexpected 'junk' at end of directive"),
    ('jump a', "7:7: expected a name, found 'end of line'"),
    ('jump a speed k', "7:1: expected 'rate' after the jump operator"),
    ('jump k rate k', '7:1: jump must be an operator expression'),
    ('jump a rate a', '7:1: rates are c-number expressions'),
    ('jump a rate k x', "7:15: unexpected 'x' at end of directive"),
    ('jump k rate k x', "7:15: unexpected 'x' at end of directive"),
    ('jump k speed k', "7:1: expected 'rate' after the jump operator"),
    ('order', "7:6: expected a number, found 'end of line'"),
    ('order x', "7:7: expected a number, found 'x'"),
    ('order 2,x', "7:9: expected a number, found 'x'"),
    ('order 2 3', "7:9: unexpected '3' at end of directive"),
    ('order 0', "7:7: expected a positive integer, found '0'"),
    ('order 2.5', "7:7: expected a positive integer, found '2.5'"),
    ('order -1', "7:7: expected a number, found '-'"),
    ('order 2,0', "7:9: expected a positive integer, found '0'"),
    ('order 2,', "7:9: expected a number, found 'end of line'"),
    ('filter foo', "7:1: unknown filter preset 'foo'"),
    ('filter phase x', "7:14: unexpected 'x' at end of directive"),
    ('filter', "7:7: expected a name, found 'end of line'"),
    ('track k', '7:1: track entries must be operator products'),
    ('track a, k', '7:1: track entries must be operator products'),
    ('track a a', "7:9: unexpected 'a' at end of directive"),
    ('track a,', "7:9: unexpected 'end of line'"),
    ('track k x', '7:1: track entries must be operator products'),
    ("observable n a'*a", "7:14: expected '=', found 'a'"),
    ('observable n = k', '7:1: observables are operator expressions or builtin calls'),
    ('observable q = mandel_q(k)', '7:16: expected a mode operator'),
    ('observable q = mandel_q(a', "7:26: expected ')', found 'end of line'"),
    ('observable T = temperature(a)', "7:29: expected ',', found ')'"),
    ('observable T = temperature(a, a)', '7:1: expected a real number'),
    ("observable n = a'*a x", "7:21: unexpected 'x' at end of directive"),
    ('observable n = k x', "7:18: unexpected 'x' at end of directive"),
    ('observable q = mandel_q(k x)', '7:16: expected a mode operator'),
    ("initial a'*a = 1", "7:9: expected '<', found 'a'"),
    ("initial <a'*a = 1", "7:15: expected '>', found '='"),
    ("initial <a'*a> 1", "7:16: expected '=', found '1'"),
    ('initial <k> = 1', '7:1: initial values address operator averages'),
    ("initial <a + a'> = 1", "7:1: expected a single operator product, not a sum; "
                             "derive each monomial separately"),
    ("initial <a'*a> = a", '7:1: expected a real number'),
    ("initial <a'*a> = 1 x", "7:20: unexpected 'x' at end of directive"),
    ('initial <k> = 1 x', "7:17: unexpected 'x' at end of directive"),
    ("initial <a + a'> = x", "7:20: undeclared identifier 'x'"),
    ('tspan 0', "7:8: expected a number, found 'end of line'"),
    ('tspan 0 x', "7:9: expected a number, found 'x'"),
    ('tspan 5 1', '7:1: tspan must satisfy t0 < t1'),
    ('tspan 1 1', '7:1: tspan must satisfy t0 < t1'),
    ('tspan 0 1 2', "7:11: unexpected '2' at end of directive"),
    ('solver euler', "7:1: unknown method 'euler'"),
    ('solver', "7:7: expected a name, found 'end of line'"),
    ('solver rk4 x', "7:12: unexpected 'x' at end of directive"),
    ('dt x', "7:4: expected a number, found 'x'"),
    ('rtol 1 2', "7:8: unexpected '2' at end of directive"),
    ('atol', "7:5: expected a number, found 'end of line'"),
    ('saveat x', "7:8: expected a number, found 'x'"),
    ('saveat 0', "7:8: expected a positive integer, found '0'"),
    ('saveat 2.5', "7:8: expected a positive integer, found '2.5'"),
    ('saveat 10 x', "7:11: unexpected 'x' at end of directive"),
    ('saveat -3', "7:8: expected a number, found '-'"),
    ('correlation a', "7:14: expected ',', found 'end of line'"),
    ('correlation a, k', '7:1: correlation takes two operator products'),
    ('correlation a, a x', "7:18: unexpected 'x' at end of directive"),
    ('correlation k, a x', "7:18: unexpected 'x' at end of directive"),
    ('cutoff atom 3', "7:1: cutoff expects SPACE N with SPACE one of the model's "
                      "Fock spaces (c), got 'atom 3': no Fock space 'atom'"),
    ('cutoff c', "7:9: expected a number, found 'end of line'"),
    ('cutoff c 0', "7:10: expected a positive integer, found '0'"),
    ('cutoff c 2.5', "7:10: expected a positive integer, found '2.5'"),
    ('cutoff 3 c', "7:8: expected a name, found '3'"),
    ('cutoff q 0', "7:1: cutoff expects SPACE N with SPACE one of the model's "
                   "Fock spaces (c), got 'q 0': no Fock space 'q'"),
    ('cutoff c 3 x', "7:12: unexpected 'x' at end of directive"),
    ('oracle_state atom', '7:18: expected a level label or occupation number'),
    ('oracle_state atom (', '7:19: expected a level label or occupation number'),
    ('oracle_state atom e x', "7:21: unexpected 'x' at end of directive"),
    ('oracle_state 3 e', "7:14: expected a name, found '3'"),
    ('oracle_state q 3', "7:1: oracle_state expects SPACE STATE with SPACE one "
                         "of the model's spaces (c, atom), got 'q 3': no space "
                         "'q'"),
    ('oracle_state c e', "7:16: expected a non-negative integer, found 'e'"),
    ('oracle_state c 2.5', "7:16: expected a non-negative integer, found '2.5'"),
    ('oracle_state atom 1', "7:1: space 'atom' has no level '1' (levels: g, e)"),
    ('param x = 1e999', "7:11: number '1e999' is beyond float range"),
    ('param x = -2*1e999', "7:14: number '1e999' is beyond float range"),
    ('param x = 1e300*1e300', '7:1: expected a real number within float range'),
    ('tspan 0 1e999', "7:9: number '1e999' is beyond float range"),
    ('tspan -1e999 0', "7:8: number '1e999' is beyond float range"),
    ('dt 1e999', "7:4: number '1e999' is beyond float range"),
    ('rtol 1e999', "7:6: number '1e999' is beyond float range"),
    ('atol 1e999', "7:6: number '1e999' is beyond float range"),
    ("initial <a'*a> = 1e999", "7:18: number '1e999' is beyond float range"),
    ('observable T = temperature(a, 1e999)',
     "7:31: number '1e999' is beyond float range"),
    ('param x = 1e-1000000', "7:11: number '1e-1000000' is below float range"),
    ('param x = 2*1e-400', "7:13: number '1e-400' is below float range"),
    ('tspan 0 1e-400', "7:9: number '1e-400' is below float range"),
    ("initial <a'*a> = 1e-400", "7:18: number '1e-400' is below float range"),
]


@pytest.mark.parametrize("line, expected", MALFORMED_LINES,
                         ids=[line for line, _ in MALFORMED_LINES])
def test_malformed_model_lines_are_located(line, expected):
    """Every error names the line and column of what is wrong: a syntax
    error its token, anything the algebra refuses the directive keyword."""
    text = (_PRELUDE + line + "\n" + _BODY if line.startswith("space")
            else _PRELUDE + _BODY + line + "\n")
    with pytest.raises(DslError) as err:
        parse_model(text)
    assert str(err.value) == expected


@pytest.mark.parametrize("text, expected", [
    ("op a = destroy(c)\n", "1:1: declare at least one space first"),
    ("hamiltonian 1\n", "1:1: declare at least one space first"),
    ("space c fock\nhamiltonian 1\n",
     "2:1: the hamiltonian must be an operator expression"),
    ("space c fock\nop a = destroy(c)\n", "3:1: model has no hamiltonian"),
])
def test_model_level_errors_are_located(text, expected):
    with pytest.raises(DslError) as err:
        parse_model(text)
    assert str(err.value) == expected


def test_expressions_may_start_with_a_scalar():
    head = "space c fock\nop a = destroy(c)\nparam w = 2\n"
    parsed = parse_model(head + "hamiltonian w - a'*a\njump a rate 1\n")
    direct = parse_model(head + "hamiltonian -a'*a + w\njump a rate 1\n")
    assert parsed.model == direct.model
    constant = parse_model(head + "hamiltonian 2 + a'*a\n")
    # the constant term prints first, and the printout reads back
    text = pretty_print(constant)
    assert "hamiltonian 2*1 + a'*a\n" in text
    assert parse_model(text).model == constant.model


def test_parser_round_trip_through_pretty_print():
    with open(LASER_FILE, encoding="utf-8") as fh:
        laser = fh.read()
    # a declared ground projector is 1 - σee: it must print as its own
    # declaration and must not name σee
    projector = laser.replace(
        "op see", "op sgg = transition(atom, g, g)\nop see", 1) \
        + "observable pg = sgg\n"
    for source in (laser, projector):
        parsed = parse_model(source)
        text = pretty_print(parsed)
        reparsed = parse_model(text)
        assert reparsed.model == parsed.model
        assert reparsed.options.order == parsed.options.order
        assert reparsed.options.filter_name == parsed.options.filter_name
        assert reparsed.options.initial == parsed.options.initial
        assert reparsed.options.tspan == parsed.options.tspan
        assert reparsed.options.observables == parsed.options.observables
        assert pretty_print(reparsed) == text
    assert "op sgg = transition(atom, g, g)\n" in text
    assert "observable pg = 1 - see\n" in text


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
        complete_fn(restored)
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
    with pytest.raises(ArchiveError, match="unsupported archive format None"):
        deserialize("[]")


def test_malformed_archive_documents_raise_archive_errors(laser):
    with pytest.raises(ArchiveError, match="malformed archive: no field 'spaces'"):
        deserialize(json.dumps({"format": "cqf-equations-1"}))
    doc = json.loads(serialize(complete(meanfield_derive(
        [qmul(laser.ad, laser.a)], laser.model, 2))))
    doc["spaces"] = []
    with pytest.raises(ArchiveError, match="malformed archive: product space "
                                           "needs at least one factor"):
        deserialize(json.dumps(doc))


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


def test_built_in_observables_are_their_functions(three_level):
    """``evaluate_observables`` gives ``mandel_q`` and ``temperature`` of the
    trajectory it is handed, and refuses a kind it does not know."""
    from cqf import initial_state, integrate, lower
    from cqf.cli import evaluate_observables

    seeds = [qmul(three_level.ad, three_level.a), three_level.s(3, 3),
             three_level.s(2, 2)]
    closed = complete(meanfield_derive(seeds, three_level.model, 4, None))
    prog = lower(closed)
    traj = integrate(prog.bind(three_level.params), initial_state(prog.layout),
                     (0.0, 2.0), StepperConfig.rk4(0.01),
                     saveat=np.linspace(0.0, 2.0, 21))
    defs = [ObservableDef("Q", "mandel_q", mode=three_level.a),
            ObservableDef("T", "temperature", mode=three_level.a, omega=1e7)]
    out = evaluate_observables(defs, traj, closed.order, closed.filter,
                               three_level.params)
    q = mandel_q(three_level.a, traj)
    assert not np.isnan(q).all()
    assert np.array_equal(out["Q"], q, equal_nan=True)
    assert np.array_equal(out["T"], temperature(three_level.a, 1e7, traj))
    assert np.any(out["T"] > 0)
    with pytest.raises(EvaluationError, match="unknown observable kind 'bogus'"):
        evaluate_observables([ObservableDef("x", "bogus")], traj,
                             closed.order, closed.filter)


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


def test_spectrum_grid_may_start_below_zero(laser_file, capsys):
    """A negative MIN needs the --omega=MIN:MAX:COUNT spelling; apart from
    it, argparse reads -1:1:21 as a flag."""
    out = laser_file + ".spec.csv"
    assert main(["spectrum", laser_file, "--omega=-1:1:21", "--out", out]) == 0
    rows = open(out).read().splitlines()
    assert len(rows) == 22
    assert float(rows[1].split(",")[0]) == -1.0


@pytest.mark.parametrize("command, flags", [
    ("correlate", ["--archive", "in.json"]),
    ("spectrum", ["--archive", "in.json"]),
    ("derive", ["--set", "g=1"]),
])
def test_flags_that_cannot_act_are_refused_at_parse_time(laser_file, capsys,
                                                        command, flags):
    with pytest.raises(SystemExit) as exit_:
        main([command, laser_file, *flags])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_solve_loads_an_archive_without_deriving(laser_file, capsys,
                                                 monkeypatch):
    assert main(["derive", laser_file]) == 0

    def derive(*args):
        raise AssertionError("solve derived instead of loading the archive")

    monkeypatch.setattr(main_mod, "meanfield_derive", derive)
    archive = laser_file + ".eqs.json"
    assert main(["solve", laser_file, "--archive", archive,
                 "--out", laser_file + ".csv"]) == 0
    assert f"loaded 3 equations from {archive}" in capsys.readouterr().out


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


def test_correlate_oracle_transforms_nothing(laser_file, monkeypatch):
    """The oracle's C(tau) for ``correlate`` is computed on the command's own
    tau grid; no spectrum is computed and thrown away."""
    def transform(*args):
        raise AssertionError("a Fourier transform ran")

    monkeypatch.setattr(main_mod, "spectrum_fourier", transform)
    monkeypatch.setattr(correlation_mod, "fourier_spectrum", transform)
    monkeypatch.setattr(oracle_mod, "fourier_spectrum", transform)
    out = laser_file + ".corr_me.csv"
    assert main(["correlate", laser_file, "--oracle", "--cutoff", "cavity=8",
                 "--tau-max", "10", "--tau-points", "101", "--out", out]) == 0
    rows = open(out).read().splitlines()
    assert rows[0] == "tau,ReC,ImC,ME:ReC,ME:ImC"
    assert len(rows) == 102


@pytest.mark.parametrize("command, bound", [("correlate", 0.05),
                                            ("spectrum", 0.5)])
def test_co_evolved_oracle_starts_from_the_oracle_state(tmp_path, capsys,
                                                        command, bound):
    """With ``--no-steady`` the oracle's reference state is its initial
    state evolved over ``tspan``, as the cumulant side's, not its steady
    state.  Short of steady state the order-2 closure is off by 0.022 in
    C(t, tau) and 0.18 of the peak in S; against the oracle's steady state
    the deviations read 0.71 and 2.7."""
    text = open(LASER_FILE, encoding="utf-8").read()
    path = tmp_path / "laser.cqm"
    path.write_text(text.replace("tspan 0 20", "tspan 0 0.5"), encoding="utf-8")
    out = str(tmp_path / "out.csv")
    assert main([command, str(path), "--no-steady", "--oracle", "--cutoff",
                 "cavity=10", "--tau-max", "10", "--out", out]) == 0
    deviation = float(capsys.readouterr().out.split("deviation: ")[1].split()[0])
    assert deviation < bound
    if command == "correlate":
        # C(t, 0) is the oracle's <a'a> at the end of tspan
        parsed = parse_model(path.read_text(encoding="utf-8"))
        trunc = TruncationSpec(((0, 10),))
        me = me_evolve(parsed.model, trunc, ground_state(parsed.model.space, trunc),
                       (0.0, 0.5), dict(parsed.options.param_values))
        n = me.expect(qmul(*parsed.options.correlation))[-1].real
        first = open(out).read().splitlines()[1].split(",")
        assert abs(float(first[3]) - n) < 1e-9


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


@pytest.mark.parametrize("command, flags, stepped", [
    pytest.param("correlate", [], {"steady_state", "correlation_trajectory"},
                 id="correlate-stepped0"),
    pytest.param("spectrum", [], {"steady_state"}, id="spectrum-stepped1"),
    pytest.param("correlate", ["--no-steady"],
                 {"integrate", "correlation_trajectory"},
                 id="correlate-no-steady"),
])
def test_steady_correlation_integrates_at_the_resolved_tolerances(
        laser_file, monkeypatch, command, flags, stepped):
    """The steady state is a Newton root and the steady delay is solved
    exactly: neither gets a stepper config.  Co-evolved, the delay
    trajectory of ``correlate`` runs rk45 at the flag's tolerance, else the
    model file's, whatever the file's solver line."""
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
    spy("integrate")
    spy("correlation_trajectory")
    assert main([command, laser_file, "--atol", "1e-12", "--tau-max", "5",
                 "--tau-points", "11", *flags,
                 "--out", laser_file + ".out"]) == 0
    assert set(calls) == stepped
    if "steady_state" in calls:
        args, kwargs = calls["steady_state"]
        assert len(args) == 2 and not kwargs    # the bound program and u0
    if "correlation_trajectory" in calls:
        cfg = calls["correlation_trajectory"][0][3]
        if "steady_state" in calls:
            assert cfg is None
        else:
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


_TWO_FACTORS = ("space c fock\nspace atom nlevel g e\nop a = destroy(c)\n"
                "op s = transition(atom, g, e)\nparam w = 1\n"
                "hamiltonian w*a'*a\njump a rate w\ntrack a'*a\n")
_ORDER_COUNTS = "the order vector has 3 entries but the model has 2 factors"


def test_order_vector_must_match_the_factors_in_a_model_file():
    with pytest.raises(DslError) as err:
        parse_model(_TWO_FACTORS + "order 2,1,1\n")
    assert str(err.value) == f"9:1: {_ORDER_COUNTS}"
    # the spaces may follow the order line; the error stays at that line
    with pytest.raises(DslError) as err:
        parse_model("order 2,1,1\n" + _TWO_FACTORS)
    assert str(err.value) == f"1:1: {_ORDER_COUNTS}"


def test_order_vector_must_match_the_factors_in_the_library():
    parsed = parse_model(_TWO_FACTORS)
    seeds = parsed.options.track
    for order, entries in (((2, 1, 1), 3), ((2,), 1)):
        with pytest.raises(AlgebraError) as err:
            meanfield_derive(seeds, parsed.model, order)
        assert str(err.value) == (f"the order vector has {entries} entries "
                                  "but the model has 2 factors")
    assert len(meanfield_derive(seeds, parsed.model, (2, 1))) == 1


def test_order_vector_must_match_the_factors_on_the_command_line(tmp_path,
                                                                 capsys):
    path = tmp_path / "two.cqm"
    path.write_text(_TWO_FACTORS, encoding="utf-8")
    assert main(["derive", str(path), "--order", "2,1,1"]) == 1
    assert capsys.readouterr().err == f"error: {_ORDER_COUNTS}\n"


def test_archive_refuses_an_order_vector_of_the_wrong_length(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       (2, 2), None))
    doc = json.loads(serialize(closed))
    assert deserialize(json.dumps(doc)).order == closed.order
    doc["order"]["per_subspace"] = [2, 1, 1]
    with pytest.raises(ArchiveError, match=_ORDER_COUNTS):
        deserialize(json.dumps(doc))


def test_parentheses_nest_up_to_the_bound():
    head = "space c fock\nop a = destroy(c)\nhamiltonian "
    plain = parse_model(head + "a'*a\n").model
    n = MAX_NESTING
    assert parse_model(head + "(" * n + "a'*a" + ")" * n + "\n").model == plain
    with pytest.raises(DslError) as err:
        parse_model(head + "(" * (n + 1) + "a'*a" + ")" * (n + 1) + "\n")
    # located at the first parenthesis past the bound
    assert str(err.value) == f"3:{len('hamiltonian ') + n + 1}: parentheses " \
        f"nest deeper than {n}"


def test_many_leading_minus_signs_parse():
    head = "space c fock\nop a = destroy(c)\nhamiltonian "
    plain = parse_model(head + "a'*a\n").model.hamiltonian
    assert parse_model(head + "-" * 5000 + "a'*a\n").model.hamiltonian == plain
    assert parse_model(head + "-" * 5001 + "a'*a\n").model.hamiltonian == -plain


def test_pretty_print_names_an_undeclared_projector():
    """The ground projector prints as 1 - σee, so σee needs a name."""
    text = ("space c fock\nspace atom nlevel g e\nop a = destroy(c)\n"
            "op sgg = transition(atom, g, g)\nhamiltonian a'*a + sgg\n")
    with pytest.raises(CqfError) as err:
        pretty_print(parse_model(text))
    assert str(err.value) == (
        "σee has no name in this model; declare it with "
        "'op NAME = transition(atom, e, e)' to print the model")
    named = parse_model(text.replace("hamiltonian",
                                     "op see = transition(atom, e, e)\n"
                                     "hamiltonian"))
    printed = pretty_print(named)
    assert "hamiltonian 1 - see + a'*a\n" in printed
    assert parse_model(printed).model == named.model


def test_coefficients_beyond_float_range_are_named(laser_file, capsys):
    """Exact coefficients may exceed float range; binding names the
    equation and the coefficient instead of letting an OverflowError out."""
    with open(laser_file, encoding="utf-8") as fh:
        text = fh.read()
    with open(laser_file, "w", encoding="utf-8") as fh:
        fh.write(text.replace("+ g*(", "+ 1e300*1e300*g*("))
    assert main(["solve", laser_file]) == 1
    err = capsys.readouterr().err
    assert err == ("error: in the equation of ⟨a'*a⟩: coefficient "
                   "0-1e+600i is beyond float range\n")


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
    ("correlate", ["--tau-max", "0"]),
    ("correlate", ["--tau-max", "-5"]),
    ("spectrum", ["--oracle", "--tau-max", "0"]),
    ("spectrum", ["--no-steady", "--tau-max", "-1"]),
    ("correlate", ["--no-steady"]),
    ("spectrum", ["--no-steady"]),
    ("solve", ["--cutoff", "cavity=x"]),
    ("correlate", ["--cutoff", "atom=3"]),
    ("solve", ["--archive", "in.json", "--order", "2,x"]),
    ("solve", ["--set", "g=inf"]),
    ("solve", ["--set", "g=nan"]),
    ("solve", ["--dt", "inf"]),
    ("solve", ["--rtol", "nan"]),
    ("solve", ["--method", "rk45", "--atol", "inf"]),
    ("correlate", ["--tau-max", "inf"]),
    ("correlate", ["--tau-max", "nan"]),
    ("spectrum", ["--omega", "0.1:inf:5"]),
    ("spectrum", ["--omega", "nan:1:5"]),
])
def test_malformed_flag_values_are_reported(laser_file, capsys, monkeypatch,
                                            command, flags):
    """Every flag is checked before any equation is derived."""
    def derive(*args):
        raise AssertionError("derivation ran before the flags were checked")

    monkeypatch.setattr(main_mod, "meanfield_derive", derive)
    assert main([command, laser_file, *flags]) == 1
    err = capsys.readouterr().err
    if flags == ["--no-steady"]:
        assert err == "error: co-evolved correlations need --tau-max\n"
        return
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
