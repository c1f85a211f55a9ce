"""Two-time correlations: structure, initial values, spectra."""

import numpy as np
import pytest

from cqf import (FILTER_PHASE, I_UNIT, EquationSet, StepperConfig,
                 average_symbol, build_correlation_system, complete,
                 correlation_symbol, correlation_trajectory, decay_time,
                 initial_values, linearize_steady, identity, lower,
                 initial_state, meanfield_derive, qmul, spectrum_fourier,
                 spectrum_laplace, state_mapping, steady_state)
from cqf.algebra import ScalarExpr
from cqf.errors import AlgebraError, ClosureError, EvaluationError
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
    assert ls.primary == 0


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

    silent = LinearSystem(ls.matrix, ls.drive, np.zeros_like(ls.y0), 0)
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
    # the phonon sector relaxes on a ~1e4 timescale; any reference state is
    # fine for checking the coefficient collection, so integrate past the
    # fast cavity transient only
    from cqf import StepperConfig, integrate

    yss = integrate(prog.bind(P), initial_state(prog.layout), (0.0, 200.0),
                    StepperConfig.rk45(rtol=1e-8, atol=1e-10)).final_state
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

    driven = LinearSystem(ls.matrix, np.array([0.5 + 0j, 0.0]), ls.y0, 0)
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
