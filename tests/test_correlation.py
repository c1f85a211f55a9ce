"""Two-time correlations: structure, initial values, spectra."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cqf.correlation as correlation_module
from cqf import (FILTER_PHASE, I_UNIT, CorrelationSystem, EquationSet,
                 ModelDefinition, StepperConfig, average_symbol,
                 build_correlation_system, complete, correlation_symbol,
                 correlation_trajectory, create, decay_time, destroy, fock,
                 initial_values, linearize_steady, identity, lower,
                 initial_state, meanfield_derive, parameters, product, qmul,
                 spectrum_fourier, spectrum_laplace, state_mapping,
                 steady_state)
from cqf.algebra import ScalarExpr
from cqf.correlation import fourier_spectrum
from cqf.errors import AlgebraError, ClosureError, ConsistencyError, EvaluationError
from cqf.meanfield import MeanfieldEquation
from conftest import make_laser


def _sym(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops))


@pytest.fixture(scope="module")
def laser_steady(laser):
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, FILTER_PHASE))
    prog = lower(closed)
    yss = steady_state(prog.bind(laser.params), initial_state(prog.layout))
    return closed, prog, yss


def test_laser_correlation_system_structure(laser, laser_steady):
    """Two variables: <a'(tau) a> and <seg(tau) a>, linear in both."""
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    assert len(cs) == 2
    primary = cs.equations[0]
    assert primary.lhs == correlation_symbol(
        tuple(laser.ad.monomial_ops()), tuple(laser.a.monomial_ops()))
    second = cs.equations[1]
    assert second.lhs == correlation_symbol(
        tuple(laser.seg.monomial_ops()), tuple(laser.a.monomial_ops()))
    # the only steady constant is the excited population
    assert cs.constants == (_sym(laser.see).family,)

    # primary equation: (i Delta - kappa/2) c1 + i g c2
    c1 = ScalarExpr.from_average(primary.lhs)
    c2 = ScalarExpr.from_average(second.lhs)
    expected = (I_UNIT * laser.delta - laser.kappa / 2) * c1 \
        + I_UNIT * laser.g * c2
    assert primary.rhs == expected
    # second equation: i g c1 - (gamma+nu)/2 c2 - 2 i g <see> c1
    see = ScalarExpr.from_average(_sym(laser.see))
    expected2 = I_UNIT * laser.g * c1 \
        - (laser.gamma + laser.nu) / 2 * c2 \
        - 2 * I_UNIT * laser.g * see * c1
    assert second.rhs == expected2


def test_identity_correlation_is_constant_one(laser, laser_steady):
    closed, prog, yss = laser_steady
    one = identity(laser.space)
    cs = build_correlation_system(one, one, closed, steady=True)
    y0 = initial_values(cs, yss)
    assert y0[0] == pytest.approx(1.0)
    traj = correlation_trajectory(cs, yss, (0.0, 5.0), StepperConfig.rk45(),
                                  laser.params)
    assert np.allclose(traj.states[:, 0], 1.0)


def test_non_steady_system_co_evolves_population(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=False)
    families = [eq.lhs for eq in cs.equations]
    assert _sym(laser.see) in families
    assert cs.constants == ()
    # co-evolved from the true steady state, the correlation must match the
    # steady variant
    cs_steady = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    taus = np.linspace(0, 10, 101)
    t1 = correlation_trajectory(cs, yss, (0, 10), StepperConfig.rk45(),
                                laser.params, saveat=taus)
    t2 = correlation_trajectory(cs_steady, yss, (0, 10), StepperConfig.rk45(),
                                laser.params, saveat=taus)
    assert np.max(np.abs(t1.states[:, 0] - t2.states[:, 0])) < 1e-6
    # co-evolved plain averages carry the closed set's own equations
    base = {eq.lhs.family: eq.lhs.orient(eq.rhs) for eq in closed}
    plain = [eq for eq in cs.equations if not eq.lhs.is_correlation]
    assert plain and all(eq.rhs == base[eq.lhs.family] for eq in plain)


def test_co_evolved_average_outside_the_closed_set_is_refused():
    """A cross-Kerr pair tracking <a'a> alone closes on that one average,
    but <b'(t+tau) b(t)> co-evolved needs <a> and <a'> as well."""
    h = product(fock("c1"), fock("c2"))
    a, b = destroy(h, "a", 0), destroy(h, "b", 1)
    ad, bd = create(h, "a", 0), create(h, "b", 1)
    chi, k = parameters("χ k")
    model = ModelDefinition.create(h, chi * (ad * a * bd * b), jumps=(a, b),
                                   rates=(k, k))
    closed = complete(meanfield_derive([qmul(ad, a)], model, 2))
    assert len(closed) == 1
    with pytest.raises(ClosureError, match="co-evolved average ⟨a'?⟩ has no "
                                           "equation in the underlying set"):
        build_correlation_system(bd, b, closed, steady=False)


def test_initial_values_fixtures(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    y0 = initial_values(cs, yss)
    state = state_mapping(prog.layout, yss)
    n_ss = state[_sym(laser.ad, laser.a).family]
    assert y0[0] == pytest.approx(n_ss)
    # <seg(0) a> = <a seg> = conj(<a' sge>)
    coh = state[_sym(laser.ad, laser.sge).family]
    assert y0[1] == pytest.approx(np.conj(coh))


def test_equal_time_expressions_are_expanded_once(laser, laser_steady,
                                                  monkeypatch):
    """A system expands its y(0) on first use; later initial values,
    linearizations and steady trajectories only evaluate it."""
    closed, _, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    calls = []
    expand = correlation_module.expand_scalar

    def counting(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(correlation_module, "expand_scalar", counting)
    y0 = initial_values(cs, yss)
    assert len(calls) == len(cs)
    calls.clear()
    assert np.array_equal(initial_values(cs, yss), y0)
    ls = linearize_steady(cs, yss, laser.params)
    traj = correlation_trajectory(cs, yss, (0.0, 1.0), params=laser.params)
    assert calls == []
    assert np.array_equal(ls.y0, y0)
    assert np.array_equal(traj.states[0], y0)


def test_sum_operators_are_rejected(laser, laser_steady):
    closed, _, _ = laser_steady
    with pytest.raises(AlgebraError):
        build_correlation_system(laser.a + laser.ad, laser.a, closed)


def test_unclosed_base_set_is_rejected(laser):
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    with pytest.raises(ClosureError):
        build_correlation_system(laser.ad, laser.a, eqs)


def test_linearized_matrix_matches_hand_form(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    P = laser.params
    see = state_mapping(prog.layout, yss)[_sym(laser.see).family]
    expected = np.array([
        [1j * P["Δ"] - P["κ"] / 2, 1j * P["g"]],
        [1j * P["g"] * (1 - 2 * see), -(P["γ"] + P["ν"]) / 2],
    ])
    assert np.allclose(ls.matrix, expected)
    assert np.allclose(ls.drive, 0.0)


def test_correlation_matrix_is_stable(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    assert np.all(np.linalg.eigvals(ls.matrix).real < 0)


def test_decoupled_mode_is_a_pure_lorentzian(laser):
    """With g = 0 the field correlation is n exp((i Delta - kappa/2) tau)."""
    params = {**laser.params, "g": 0.0}
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       2, FILTER_PHASE))
    prog = lower(closed)
    # no gain: fake a steady state with one photon to give C(0) = 1
    y = initial_state(prog.layout, {_sym(laser.ad, laser.a): 1.0,
                                    _sym(laser.see): 0.25})
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, y, params)
    omegas = np.linspace(-4, 4, 801)
    S = spectrum_laplace(ls, omegas).values
    P = laser.params
    n_bar = 1.0
    lorentz = n_bar * P["κ"] / ((omegas - P["Δ"]) ** 2 + P["κ"] ** 2 / 4)
    assert np.max(np.abs(S - lorentz)) < 1e-9

    taus = np.linspace(0, 30, 601)
    traj = correlation_trajectory(cs, y, (0, 30), StepperConfig.rk45(),
                                  params, saveat=taus)
    analytic = n_bar * np.exp((1j * P["Δ"] - P["κ"] / 2) * taus)
    assert np.max(np.abs(traj.states[:, 0] - analytic)) < 1e-6


def test_zero_initial_data_gives_zero_spectrum(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    from cqf.correlation import LinearSystem

    silent = LinearSystem(ls.matrix, ls.drive, np.zeros_like(ls.y0))
    S = spectrum_laplace(silent, np.linspace(-2, 2, 41))
    assert np.allclose(S.values, 0.0)


def test_spectrum_is_real_and_matches_matrix_exponential(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    taus = np.linspace(0.0, decay_time(ls), 2001)
    traj = correlation_trajectory(cs, yss, (0.0, taus[-1]),
                                  StepperConfig.rk45(), laser.params,
                                  saveat=taus)
    # against the matrix exponential of the linear system
    evals, vecs = np.linalg.eig(ls.matrix)
    coef = np.linalg.solve(vecs, ls.y0)
    analytic = np.array([vecs @ (coef * np.exp(evals * t)) for t in taus])
    assert np.max(np.abs(traj.states - analytic)) < 1e-6

    omegas = np.linspace(-np.pi, np.pi, 301)
    s_lap = spectrum_laplace(ls, omegas)
    assert s_lap.values.dtype == np.float64
    s_fft = spectrum_fourier(taus, traj.states[:, 0], omegas)
    rel = np.max(np.abs(s_lap.values - s_fft.values)) / np.max(np.abs(s_lap.values))
    assert rel < 1e-2
    assert s_lap.values[np.argmax(s_lap.values)] > 0


def test_steady_trajectory_is_the_exact_propagator(laser, laser_steady,
                                                   monkeypatch):
    """A steady delay system is solved by its matrix exponential, not
    stepped; without ``saveat`` the two ends of the span are returned."""
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)

    def stepped(*args, **kwargs):
        raise AssertionError("a steady delay system was integrated")

    monkeypatch.setattr(correlation_module, "integrate", stepped)
    evals, vecs = np.linalg.eig(ls.matrix)
    coef = np.linalg.solve(vecs, ls.y0)

    def analytic(taus):
        return (vecs @ (coef[:, None] * np.exp(np.outer(evals, taus)))).T

    taus = np.linspace(0.0, 20.0, 2001)
    traj = correlation_trajectory(cs, yss, (0.0, 20.0), params=laser.params,
                                  saveat=taus)
    assert np.array_equal(traj.times, taus)
    assert traj.layout == cs.layout
    want = analytic(taus)
    assert np.max(np.abs(traj.states - want)) < 1e-12 * np.max(np.abs(want))
    ends = correlation_trajectory(cs, yss, (2.0, 7.0), params=laser.params)
    assert ends.times.tolist() == [2.0, 7.0]
    assert np.array_equal(ends.states[0], ls.y0)
    assert np.max(np.abs(ends.states[1] - analytic([5.0])[0])) \
        < 1e-12 * np.max(np.abs(want))
    with pytest.raises(AlgebraError, match="outside the integration span"):
        correlation_trajectory(cs, yss, (0.0, 1.0), params=laser.params,
                               saveat=[0.5, 2.0])


def test_at_zero_delay_correlation_equals_single_time_average(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    traj = correlation_trajectory(cs, yss, (0.0, 1.0), StepperConfig.rk45(),
                                  laser.params, saveat=[0.0, 1.0])
    n_ss = yss[prog.index_of(_sym(laser.ad, laser.a))]
    assert traj.states[0, 0] == pytest.approx(n_ss)


def test_driven_cavity_correlation_has_a_drive_vector(optomech):
    """Coherent driving leaves frozen-only averages: the affine part.

    The first row is checked against hand coefficient collection of
    d<a'(tau) a>/dtau for the radiation-pressure model.
    """
    P = optomech.params
    a, b = optomech.a, optomech.b
    closed = complete(meanfield_derive([qmul(b.dag(), b), qmul(a.dag(), a)],
                                       optomech.model, 2, None))
    prog = lower(closed)
    yss = steady_state(prog.bind(P), initial_state(prog.layout))
    state = state_mapping(prog.layout, yss)

    def val(*exprs):
        sym = _sym(*exprs)
        v = state[sym.family]
        return np.conj(v) if sym.conjugated else v

    cs = build_correlation_system(a.dag(), a, closed, steady=True)
    ls = linearize_steady(cs, yss, P)

    m00 = -1j * P["Δ"] - P["κ"] / 2 + 2j * P["G"] * val(b).real
    assert ls.matrix[0, 0] == pytest.approx(m00, rel=1e-9)
    d0 = 1j * P["E"] * val(a) \
        + 1j * P["G"] * val(a) * (val(a.dag(), b) + val(a.dag(), b.dag())) \
        - 2j * P["G"] * val(a.dag()) * val(a) * (val(b) + np.conj(val(b)))
    assert ls.drive[0] == pytest.approx(d0, rel=1e-9)
    assert np.max(np.abs(ls.drive)) > 1e-3

    with pytest.raises(AlgebraError):
        spectrum_laplace(ls, np.linspace(-1, 1, 21))
    omegas = np.linspace(0.1, 20.0, 120)
    result = spectrum_laplace(ls, omegas)
    assert not result.skipped
    assert np.all(np.isfinite(result.values))


def test_driven_system_refuses_omega_zero(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    from cqf.correlation import LinearSystem

    driven = LinearSystem(ls.matrix, np.array([0.5 + 0j, 0.0]), ls.y0)
    with pytest.raises(AlgebraError):
        spectrum_laplace(driven, np.linspace(-1, 1, 21))
    ok = spectrum_laplace(driven, np.array([0.5, 1.0]))
    assert len(ok.values) == 2


def _assert_one_term_table(cs, state, params):
    """The delay derivative and the linearization agree on random states."""
    ls = linearize_steady(cs, state, params)
    eqs = EquationSet(cs.equations, cs.base.model, cs.base.order,
                      cs.base.filter)
    prog = lower(eqs, external=cs.constants)
    base_layout = tuple(eq.lhs for eq in cs.base.equations)
    f = prog.bind(params, state_mapping(base_layout, state))
    y0 = initial_values(cs, state)
    dyn = [k for k, eq in enumerate(cs.equations) if eq.lhs.ops]
    const = [k for k, eq in enumerate(cs.equations) if not eq.lhs.ops]
    rng = np.random.default_rng(3)
    for _ in range(4):
        y = y0.copy()
        y[dyn] = rng.normal(size=len(dyn)) + 1j * rng.normal(size=len(dyn))
        ydot = f(0.0, y)
        expected = ls.matrix @ y[dyn] + ls.drive
        scale = (np.max(np.abs(ls.matrix)) * np.max(np.abs(y))
                 + np.max(np.abs(ls.drive)))
        assert np.max(np.abs(ydot[dyn] - expected)) < 1e-13 * scale
        assert np.all(ydot[const] == 0)
    return ls, const


def _scattered(cs, state, params):
    """M and d summed term by term from the folded term table."""
    prog = cs.program
    state_map = state_mapping(tuple(eq.lhs for eq in cs.base.equations), state)
    n = prog.size
    M = np.zeros((n, n), dtype=np.complex128)
    d = np.zeros(n, dtype=np.complex128)
    for term, c in zip(prog.terms, prog.coefficients(params, state_map)):
        if term.state_factors:
            M[term.equation, term.state_factors[0][0]] += c
        else:
            d[term.equation] += c
    y0 = initial_values(cs, state_map)
    dyn = [k for k, lhs in enumerate(prog.layout) if lhs.ops]
    const = [k for k, lhs in enumerate(prog.layout) if not lhs.ops]
    return M[np.ix_(dyn, dyn)], d[dyn] + M[np.ix_(dyn, const)] @ y0[const]


def _driven_optomech(optomech):
    a, b = optomech.a, optomech.b
    closed = complete(meanfield_derive([qmul(b.dag(), b), qmul(a.dag(), a)],
                                       optomech.model, 2, None))
    return closed, build_correlation_system(a.dag(), a, closed, steady=True)


@pytest.mark.parametrize("order", [*range(2, 9), "optomech"])
def test_linearization_is_the_scattered_term_table(laser, optomech, order):
    """M and d from the Jacobian agree with a term-by-term scatter."""
    if order == "optomech":
        closed, cs = _driven_optomech(optomech)
        params = optomech.params
    else:
        closed = complete(meanfield_derive([qmul(laser.ad, laser.a)],
                                           laser.model, order, FILTER_PHASE))
        cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
        params = laser.params
    prog = lower(closed)
    yss = steady_state(prog.bind(params), initial_state(prog.layout))
    ls = linearize_steady(cs, yss, params)
    M, drive = _scattered(cs, yss, params)
    assert np.max(np.abs(ls.matrix - M)) <= 1e-15 * np.max(np.abs(M))
    assert np.max(np.abs(ls.drive - drive)) <= 1e-15 * max(1.0, np.max(np.abs(drive)))


def test_nonlinear_delay_equation_is_an_inconsistency(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    first, second = (ScalarExpr.from_average(eq.lhs) for eq in cs.equations[:2])
    broken = CorrelationSystem(
        cs.a_ops, cs.b_ops,
        (MeanfieldEquation(cs.equations[0].lhs, first * second),
         *cs.equations[1:]),
        cs.steady, cs.base, cs.constants)
    with pytest.raises(ConsistencyError):
        linearize_steady(broken, yss, laser.params)


def test_linearization_reports_unbound_inputs(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    with pytest.raises(EvaluationError):
        linearize_steady(cs, yss, {})
    state = state_mapping(prog.layout, yss)
    del state[_sym(laser.see).family]
    with pytest.raises(ClosureError):
        linearize_steady(cs, state, laser.params)


def test_laser_linearization_is_the_lowered_derivative(laser, laser_steady):
    closed, prog, yss = laser_steady
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    _assert_one_term_table(cs, yss, laser.params)


def test_driven_linearization_is_the_lowered_derivative(optomech):
    a, b = optomech.a, optomech.b
    closed = complete(meanfield_derive([qmul(b.dag(), b), qmul(a.dag(), a)],
                                       optomech.model, 2, None))
    # the identity holds for any reference state, steady or not
    rng = np.random.default_rng(11)
    state = rng.normal(size=len(closed)) + 1j * rng.normal(size=len(closed))
    cs = build_correlation_system(a.dag(), a, closed, steady=True)
    ls, const = _assert_one_term_table(cs, state, optomech.params)
    assert const and np.max(np.abs(ls.drive)) > 1e-3


def test_per_average_mappings_read_either_orientation(laser):
    """A steady state keyed by conjugated occurrences reads as the same
    state keyed by families, on the laser with a coherent drive."""
    from cqf import ModelDefinition, parameters

    (eta,) = parameters("η")
    model = ModelDefinition.create(
        laser.space, laser.model.hamiltonian + eta * (laser.a + laser.ad),
        jumps=laser.model.jumps, rates=laser.model.rates)
    params = {**laser.params, "η": 0.7}
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], model, 2))
    prog = lower(closed)
    yss = steady_state(prog.bind(params), initial_state(prog.layout))
    by_family = state_mapping(prog.layout, yss)
    flipped = {fam.conj(): v if fam.self_adjoint else v.conjugate()
               for fam, v in by_family.items()}
    assert any(sym.conjugated for sym in flipped)

    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls, ls_flipped = (linearize_steady(cs, m, params) for m in (by_family, flipped))
    assert np.max(np.abs(ls.drive)) > 1e-3
    for part in ("y0", "drive", "matrix"):
        assert np.array_equal(getattr(ls_flipped, part), getattr(ls, part)), part

    cfg = StepperConfig.rk45()
    traj, traj_flipped = (correlation_trajectory(cs, m, (0.0, 2.0), cfg, params)
                          for m in (by_family, flipped))
    assert np.array_equal(traj_flipped.states, traj.states)

    delay = lower(EquationSet(cs.equations, model, closed.order, closed.filter),
                  external=cs.constants)
    y = np.linspace(0.5, 1.5, delay.size) * (1 - 0.5j)
    assert np.array_equal(delay.bind(params, flipped)(0.0, y),
                          delay.bind(params, by_family)(0.0, y))

    assert np.array_equal(initial_state(prog.layout, flipped), yss)
    assert np.array_equal(initial_state(prog.layout, by_family), yss)


# -- Fourier quadrature ------------------------------------------------------

def _trapezoid_dense(taus, corr, omegas):
    """2 Re sum_k w_k C_k exp(-i w tau_k), one row of phases per frequency."""
    weights = np.empty_like(taus)
    weights[1:-1] = (taus[2:] - taus[:-2]) / 2.0
    weights[0] = (taus[1] - taus[0]) / 2.0
    weights[-1] = (taus[-1] - taus[-2]) / 2.0
    return 2.0 * (np.exp(-1j * np.outer(omegas, taus)) @ (weights * corr)).real


def _decaying(taus, peak, seed):
    """A damped oscillation at frequency ``peak`` and a weaker one elsewhere.

    The first sets the spectrum's peak where the grid holds ``peak``, so
    the peak is comparable to sum |w_k C_k| and 1e-12 of it is a fair bound.
    """
    rng = np.random.default_rng(seed)
    span = taus[-1] - taus[0]
    rates = np.array([3.0, rng.uniform(3.0, 12.0)]) / span
    freqs = np.array([peak, rng.uniform(-2.0, 2.0)])
    amps = np.array([1.0, 0.3 * np.exp(2j * np.pi * rng.uniform())])
    return (np.exp(-np.outer(taus - taus[0], rates))
            * np.exp(1j * np.outer(taus, freqs))) @ amps


@contextmanager
def _chirp_calls():
    """Records the length of each input the chirp-z route is called on."""
    calls = []
    route = correlation_module._chirp_z

    def spy(*args):
        calls.append(len(args[0]))
        return route(*args)

    correlation_module._chirp_z = spy
    try:
        yield calls
    finally:
        correlation_module._chirp_z = route


def _assert_fast_matches_dense(taus, omegas, seed, chirp=True):
    corr = _decaying(taus, omegas[seed % len(omegas)], seed)
    with _chirp_calls() as calls:
        fast = fourier_spectrum(taus, corr, omegas)
    dense = _trapezoid_dense(taus, corr, omegas)
    assert calls == ([len(taus)] if chirp else [])
    assert fast.shape == (len(omegas),)
    assert np.max(np.abs(fast - dense)) <= 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("taus, omegas", [
    (np.linspace(0.0, 7.3, 1235), np.linspace(-2.0, 3.0, 77)),     # odd N, M
    (np.array([0.0, 1.5]), np.array([0.7])),                        # N = 2, M = 1
    (np.linspace(0.0, 10.0, 400), np.linspace(2.0, -2.0, 101)),     # descending
    (np.linspace(2.5, 12.5, 501), np.linspace(-3.0, 3.0, 60)),      # tau_0 != 0
    (np.linspace(0.0, 2000.0, 6001), np.linspace(-np.pi, np.pi, 301)),
], ids=["odd", "two-by-one", "descending-omega", "shifted-tau", "laser-window"])
def test_uniform_grids_take_the_chirp_z_route(taus, omegas):
    _assert_fast_matches_dense(taus, omegas, 0)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 700), m=st.integers(1, 200),
       tau0=st.floats(0.0, 50.0), span=st.floats(0.1, 2000.0),
       w_lo=st.floats(-np.pi, np.pi), w_hi=st.floats(-np.pi, np.pi),
       seed=st.integers(0, 2**16))
@example(n=2, m=13, tau0=0.0, span=1.0, w_lo=2.225073858507e-311, w_hi=0.0,
         seed=0)
def test_chirp_z_matches_the_dense_sum(n, m, tau0, span, w_lo, w_hi, seed):
    """A linspace over a span of a few subnormals is not uniform to 4 ulps;
    such a grid takes the dense product, and its values are checked alike."""
    omegas = np.linspace(w_lo, w_hi, m)
    _assert_fast_matches_dense(
        np.linspace(tau0, tau0 + span, n), omegas, seed,
        chirp=correlation_module._uniform_step(omegas) is not None)


def _nudged(taus):
    taus = taus.copy()
    taus[137] += 1e-9
    return taus


@pytest.mark.parametrize("taus, omegas", [
    (np.geomspace(1e-3, 10.0, 300), np.linspace(-np.pi, np.pi, 41)),
    (_nudged(np.linspace(0.0, 10.0, 300)), np.linspace(-np.pi, np.pi, 41)),
    (np.linspace(0.0, 10.0, 300), np.geomspace(0.1, 3.0, 41)),
    (np.linspace(0.0, 10.0, 300), np.array([])),
], ids=["geomspace-tau", "nudged-tau", "geomspace-omega", "no-omega"])
def test_non_uniform_grids_take_the_dense_product(taus, omegas):
    corr = _decaying(taus, 0.5, 1)
    with _chirp_calls() as calls:
        result = fourier_spectrum(taus, corr, omegas)
    assert calls == []
    assert np.array_equal(result, _trapezoid_dense(taus, corr, omegas))


@pytest.mark.parametrize("taus, corr, sizes", [
    ([0.0], [1.0], "1 tau points and 1 values"),
    ([], [], "0 tau points and 0 values"),
    ([0.0, 1.0, 2.0], [1.0, 0.5], "3 tau points and 2 values"),
    ([0.0, 2.0, 1.0], [1.0, 0.5, 0.2], "the 3 given"),
    ([0.0, 1.0, 1.0], [1.0, 0.5, 0.2], "the 3 given"),
])
def test_fourier_quadrature_rejects_bad_tau_grids(taus, corr, sizes):
    with pytest.raises(EvaluationError, match=sizes):
        fourier_spectrum(taus, corr, np.linspace(-1.0, 1.0, 5))
