"""Cross-checks against closed-form results and extra robustness probes."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqf import (ModelDefinition, StepperConfig, TruncationSpec, adjoint,
                 average_symbol, build_correlation_system, complete, destroy,
                 expand_scalar, fock, identity, initial_state, initial_values,
                 lower, me_spectrum, meanfield_derive, average, parameters,
                 product, qmul, state_mapping, steady_state, transition)
from cqf.algebra import commutator
from conftest import make_three_level
from test_cumulant import brute_expand


def _sym(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops))


# -- oracle versus closed forms ------------------------------------------------


@pytest.fixture(scope="module")
def thermal_mode():
    """A damped mode with incoherent pumping: exactly solvable."""
    h = product(fock("c"))
    a = destroy(h, "a")
    delta, down, up = parameters("Δ κd κu")
    model = ModelDefinition.create(h, delta * (a.dag() * a),
                                   jumps=(a, a.dag()), rates=(down, up))
    params = {"Δ": 0.7, "κd": 1.0, "κu": 1.0 / 3.0}
    return h, a, model, params


def test_thermal_mode_oracle_spectrum_is_the_exact_lorentzian(thermal_mode):
    h, a, model, params = thermal_mode
    n_bar = params["κu"] / (params["κd"] - params["κu"])   # 0.5
    width = params["κd"] - params["κu"]                     # 2/3
    trunc = TruncationSpec.uniform(h, 14)
    omegas = np.linspace(-4, 6, 251)
    _, s_me, corr, taus = me_spectrum(model, trunc, a.dag(), a, omegas,
                                      params=params, tau_max=40.0,
                                      tau_points=4001)
    analytic = n_bar * width / ((omegas - params["Δ"]) ** 2 + width**2 / 4)
    assert np.max(np.abs(s_me - analytic)) < 1e-3 * analytic.max()
    # the correlation itself is an exact damped phasor
    expected_corr = n_bar * np.exp((1j * params["Δ"] - width / 2) * taus)
    assert np.max(np.abs(corr - expected_corr)) < 1e-5


def test_thermal_mode_engine_matches_oracle_spectrum(thermal_mode):
    h, a, model, params = thermal_mode
    closed = complete(meanfield_derive([qmul(a.dag(), a)], model, 2, None))
    prog = lower(closed)
    yss = steady_state(prog.bind(params), initial_state(prog.layout))
    from cqf import linearize_steady, spectrum_laplace

    cs = build_correlation_system(a.dag(), a, closed, steady=True)
    ls = linearize_steady(cs, yss, params)
    omegas = np.linspace(-4, 6, 251)
    s_engine = spectrum_laplace(ls, omegas).values
    trunc = TruncationSpec.uniform(h, 14)
    _, s_me, _, _ = me_spectrum(model, trunc, a.dag(), a, omegas,
                                params=params, tau_max=40.0, tau_points=4001)
    # the thermal mode is Gaussian: second order is exact here
    assert np.max(np.abs(s_engine - s_me)) < 2e-3 * s_me.max()


def test_identity_correlation_smoke(thermal_mode):
    """A = B = 1 gives a window-limited peak at zero frequency."""
    h, a, model, params = thermal_mode
    trunc = TruncationSpec.uniform(h, 6)
    omegas = np.linspace(-2, 2, 81)
    one = identity(h)
    _, s_me, corr, _ = me_spectrum(model, trunc, one, one, omegas,
                                   params=params, tau_max=30.0,
                                   tau_points=1001)
    assert np.allclose(corr, 1.0, atol=1e-8)
    assert omegas[np.argmax(s_me)] == pytest.approx(0.0)


# -- three-level rewrite coverage ----------------------------------------------


@pytest.fixture(scope="module")
def three_alphabet():
    tl = make_three_level()
    return tl, [tl.a, tl.ad, tl.s(1, 3), tl.s(3, 1), tl.s(2, 2), tl.s(3, 2),
                tl.s(2, 1)]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=5),
       st.integers(0, 20))
def test_three_level_canonical_uniqueness(three_alphabet, indices, split):
    tl, alphabet = three_alphabet
    factors = [alphabet[i] for i in indices]
    left = functools.reduce(qmul, factors)
    if len(factors) > 1:
        k = split % (len(factors) - 1) + 1
        head = functools.reduce(qmul, factors[:k])
        tail = functools.reduce(qmul, factors[k:])
        assert qmul(head, tail) == left
    assert adjoint(adjoint(left)) == left
    for ops, _ in left.terms:
        labels = [(op.i_label, op.j_label) for op in ops
                  if op.kind == "transition"]
        assert ("1", "1") not in labels


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=4), st.integers(1, 3))
def test_three_level_expansion_against_brute_force(three_alphabet, indices,
                                                   order):
    from cqf import expand_average

    tl, alphabet = three_alphabet
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    for ops, _ in expr.terms:
        if not ops:
            continue
        assert expand_average(average_symbol(ops), order, None) == \
            brute_expand(ops, order, None)


# -- intensity correlation machinery -------------------------------------------


def test_intensity_correlation_initial_value_expands(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, None))
    prog = lower(closed)
    yss = steady_state(prog.bind(laser.params), initial_state(prog.layout))
    n_op = qmul(laser.ad, laser.a)
    cs = build_correlation_system(n_op, n_op, closed, steady=True)
    y0 = initial_values(cs, yss)
    # C(0) = <a'a a'a> = <a'a'aa> + <a'a>, expanded to second order
    state = state_mapping(prog.layout, yss)
    expected = expand_scalar(average(qmul(n_op, n_op)), 2, None) \
        .evaluate(averages=state)
    assert y0[0] == pytest.approx(expected)


def test_expansion_cache_is_safe_across_models(laser):
    """Same-shaped spaces with different level labels must not share atoms.

    Interleaving expansions from a numerically-labelled model must leave
    the laser system's labels (and hence its archive) untouched.
    """
    from cqf import expand_average
    from cqf.cli import deserialize, serialize

    other = make_three_level()
    mixed = qmul(qmul(other.ad, other.a), other.s(2, 2))
    expand_average(average_symbol(mixed.monomial_ops()), 2, None)

    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, None))
    for eq in closed:
        for sym in eq.rhs.averages():
            for op in sym.ops:
                if op.kind == "transition":
                    assert op.i_label in ("g", "e")
    blob = serialize(closed)
    assert serialize(deserialize(blob)) == blob


# -- CLI dump determinism -------------------------------------------------------


def test_derive_dump_is_deterministic(tmp_path):
    from cqf.cli.main import main

    src = open("models/three_level.cqm", encoding="utf-8").read()
    path = tmp_path / "tl.cqm"
    path.write_text(src, encoding="utf-8")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"dump{run}.txt"
        arch = tmp_path / f"arch{run}.json"
        assert main(["derive", str(path), "--out", str(out),
                     "--archive", str(arch)]) == 0
        outputs.append((out.read_bytes(), arch.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode("utf-8").count("d⟨") == 30
