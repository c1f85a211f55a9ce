"""Lowering and time integration."""

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from cqf import (FILTER_PHASE, ModelDefinition, StepperConfig, average_symbol,
                 build_correlation_system, complete, destroy, filter_by_name,
                 fock, initial_state, integrate, lower, meanfield_derive,
                 parameters, product, qmul, state_mapping, steady_state)
from cqf.cli import parse_model
from cqf.errors import AlgebraError, ClosureError, EvaluationError, IntegrationError, NonStationaryError
from cqf.numerics import lowering, steppers
from cqf.numerics.lowering import BoundRHS
from cqf.numerics.steppers import (_TABLEAUX, _RealSystem, _hermite, expm,
                                   propagate, sample_times)
from conftest import make_laser, make_tavis

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _sym(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops))


@pytest.fixture(scope="module")
def laser_closed(laser):
    return complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                     2, FILTER_PHASE))


def test_lowered_program_matches_hand_evaluation(laser, laser_closed):
    """Derivatives of the closed photon system at a hand-picked state."""
    prog = lower(laser_closed)
    assert prog.size == 3
    f = prog.bind(laser.params)
    n_idx = prog.index_of(_sym(laser.ad, laser.a))
    c_idx = prog.index_of(_sym(laser.ad, laser.sge))
    p_idx = prog.index_of(_sym(laser.see))
    y = np.zeros(3, dtype=complex)
    y[n_idx] = 0.7
    y[c_idx] = 0.2 + 0.1j
    y[p_idx] = 0.6
    out = f(0.0, y)
    P = laser.params
    n, c, p = 0.7, 0.2 + 0.1j, 0.6
    dn = -1j * P["g"] * c + 1j * P["g"] * np.conj(c) - P["κ"] * n
    dc = (1j * P["Δ"] - (P["γ"] + P["ν"] + P["κ"]) / 2) * c \
        + 1j * P["g"] * (p - n) + 2j * P["g"] * n * p
    dp = -P["γ"] * p + P["ν"] * (1 - p) + 1j * P["g"] * (c - np.conj(c))
    assert out[n_idx] == pytest.approx(dn, rel=1e-12)
    assert out[c_idx] == pytest.approx(dc, rel=1e-12)
    assert out[p_idx] == pytest.approx(dp, rel=1e-12)


def test_zero_rhs_program(laser):
    eqs = meanfield_derive([laser.a], laser.model, 1, FILTER_PHASE)
    # the phase filter kills every term of d<a>/dt
    prog = lower(eqs)
    f = prog.bind(laser.params)
    assert np.allclose(f(0.0, np.array([0.3 + 1j])), 0.0)


def test_first_order_system_from_vacuum_has_only_pump_term(laser):
    eqs = complete(meanfield_derive([laser.a, laser.sge, laser.see],
                                    laser.model, 1, None))
    prog = lower(eqs)
    f = prog.bind(laser.params)
    out = f(0.0, initial_state(prog.layout))
    k = prog.index_of(_sym(laser.see))
    expected = np.zeros(len(out), dtype=complex)
    expected[k] = laser.params["ν"]
    assert np.allclose(out, expected)


def test_unclosed_set_raises_with_symbol_names(laser):
    eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    with pytest.raises(ClosureError, match="σge"):
        lower(eqs)


def test_unbound_parameter_raises(laser, laser_closed):
    prog = lower(laser_closed)
    with pytest.raises(EvaluationError, match="ν"):
        prog.bind({"Δ": 1, "g": 1, "κ": 1, "γ": 1})


def _laser_order(order):
    def build(laser):
        eqs = meanfield_derive([qmul(laser.ad, laser.a)], laser.model, order,
                               FILTER_PHASE)
        return complete(eqs), laser.params
    return build


def _optomech(laser):
    with open(os.path.join(ROOT, "models", "optomech.cqm"), encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    opts = parsed.options
    eqs = meanfield_derive(opts.track, parsed.model, opts.order,
                           filter_by_name(opts.filter_name))
    return complete(eqs), dict(opts.param_values)


def _three_level(_):
    with open(os.path.join(ROOT, "models", "three_level.cqm"), encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    opts = parsed.options
    eqs = meanfield_derive(opts.track, parsed.model, opts.order,
                           filter_by_name(opts.filter_name))
    return complete(eqs), dict(opts.param_values)


def _tavis5(_):
    tavis = make_tavis(5)
    eqs = meanfield_derive([tavis.s(2, 2, k) for k in range(5)], tavis.model,
                           2, FILTER_PHASE)
    return complete(eqs), tavis.params


def _laser_with_zero_row(laser):
    # the phase filter kills every term of d<a>/dt: row 0 is empty
    eqs = meanfield_derive([laser.a, qmul(laser.ad, laser.a)], laser.model, 2,
                           FILTER_PHASE)
    return complete(eqs), laser.params


@pytest.mark.parametrize("build", [_laser_order(2), _laser_order(4), _optomech,
                                   _laser_with_zero_row],
                         ids=["laser-o2", "laser-o4", "optomech", "zero-row"])
def test_program_matches_symbolic_evaluation(laser, build):
    """The bound derivative agrees with direct scalar evaluation."""
    closed, base = build(laser)
    rng = np.random.default_rng(11)
    prog = lower(closed)
    for _ in range(5):
        params = {k: float(rng.uniform(0.1, 3)) for k in base}
        y = rng.normal(size=prog.size) + 1j * rng.normal(size=prog.size)
        out = prog.bind(params)(0.0, y)
        assert out.shape == (prog.size,)
        state_map = state_mapping(prog.layout, y)
        for k, eq in enumerate(closed.equations):
            ref = eq.rhs.evaluate(params, state_map)
            if eq.lhs.conjugated:
                ref = np.conj(ref)
            assert abs(out[k] - ref) <= 1e-12 * max(1.0, abs(ref))


def _correlation_program(laser):
    """The order-4 laser's delay program, bound at a random reference state."""
    closed, params = _laser_order(4)(laser)
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    rng = np.random.default_rng(5)
    constants = {sym: complex(*rng.normal(size=2)) for sym in cs.constants}
    return cs.program.bind(params, constants)


def _bound(build):
    def bind(laser):
        closed, params = build(laser)
        return lower(closed).bind(params)
    return bind


@pytest.mark.parametrize(
    "build", [*(_bound(_laser_order(k)) for k in range(2, 9)), _bound(_optomech),
              _bound(_three_level), _bound(_tavis5), _correlation_program],
    ids=[*(f"laser-o{k}" for k in range(2, 9)), "optomech", "three-level",
         "tavis5", "laser-correlation"])
def test_jacobian_matches_central_differences(laser, build):
    """df/dRe y = J + Jc and df/dIm y = i (J - Jc) for the Wirtinger pair."""
    f = build(laser)
    n = f.size
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(2):
        y = rng.normal(size=n) + 1j * rng.normal(size=n)
        dy, dconj = f.jacobian(y)
        assert dy.shape == dconj.shape == (n, n)
        scale = max(1.0, np.max(np.abs(dy)), np.max(np.abs(dconj)))
        for m in range(n):
            e = np.zeros(n)
            e[m] = h
            d_re = (f(0.0, y + e) - f(0.0, y - e)) / (2 * h)
            d_im = (f(0.0, y + 1j * e) - f(0.0, y - 1j * e)) / (2 * h)
            assert np.max(np.abs(d_re - (dy[:, m] + dconj[:, m]))) < 1e-7 * scale
            assert np.max(np.abs(d_im - 1j * (dy[:, m] - dconj[:, m]))) < 1e-7 * scale


def test_binds_of_one_program_share_its_index_arrays(laser, monkeypatch):
    """``lower`` builds the term table once: every bind reads the program's
    index arrays, the Jacobian's too, and evaluates each fold once."""
    closed, params = _tavis5(laser)
    prog = lower(closed)
    calls = []
    term_value = lowering.term_value
    monkeypatch.setattr(lowering, "term_value",
                        lambda *args: calls.append(args) or term_value(*args))
    f, g = prog.bind(params), prog.bind({**params, "g": 2.0})
    folds = len(prog.folds) + len(prog.orbits.f.folds)   # the orbit program binds too
    assert len(calls) == 2 * folds and len(prog.folds) < len(prog.terms)
    assert f._rows is g._rows and f._starts is g._starts and f._cells is g._cells
    assert not np.array_equal(f._coeffs, g._coeffs)


def _abscissa(f, y):
    system = _RealSystem(f, len(y))
    return float(np.max(np.linalg.eigvals(system.jacobian(f, y)).real))


@pytest.mark.parametrize("order", range(2, 9))
def test_laser_steady_state_is_a_certified_root(laser, order):
    """The Newton root is polished to rounding, stable, and the state a
    tight integration relaxes to."""
    closed, params = _laser_order(order)(laser)
    prog = lower(closed)
    f = prog.bind(params)
    y = steady_state(f, initial_state(prog.layout))
    assert np.max(np.abs(f(0.0, y))) <= 1e-12 * max(1.0, np.max(np.abs(y)))
    assert _abscissa(f, y) < 0
    relaxed = integrate(f, initial_state(prog.layout), (0.0, 400.0),
                        StepperConfig.rk45(rtol=1e-12, atol=1e-14)).final_state
    assert np.max(np.abs(y - relaxed)) <= 1e-10 * np.max(np.abs(relaxed))


def test_optomech_steady_state_is_certified(laser):
    """From 4e6 phonons, the cooled state the phonons reach only after
    ~1e4 time units, in a few pseudo-transient steps."""
    with open(os.path.join(ROOT, "models", "optomech.cqm"), encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    closed, params = _optomech(laser)
    prog = lower(closed)
    f = prog.bind(params)
    y = steady_state(f, initial_state(prog.layout, parsed.options.initial))
    b = dict(parsed.model.operators)["b"]
    phonons = state_mapping(prog.layout, y)[_sym(b.dag(), b)]
    assert phonons == pytest.approx(10.870294, rel=1e-6)
    assert np.max(np.abs(f(0.0, y))) <= 1e-9 * np.max(np.abs(y))
    assert -1e-3 < _abscissa(f, y) < 0


def test_incoherent_gain_without_loss_has_no_steady_state():
    """d<a'a>/dt = nu (<a'a> + 1) has only the unstable root <a'a> = -1."""
    h = product(fock("c"))
    a = destroy(h, "a")
    delta, nu = parameters("Δ ν")
    model = ModelDefinition.create(h, delta * (a.dag() * a), jumps=(a.dag(),),
                                   rates=(nu,))
    prog = lower(complete(meanfield_derive([qmul(a.dag(), a)], model, 2)))
    with pytest.raises(NonStationaryError, match="unstable") as info:
        steady_state(prog.bind({"Δ": 0.7, "ν": 1.0}), initial_state(prog.layout))
    cert = info.value.certificate
    assert cert.abscissa == pytest.approx(1.0)
    assert cert.residual <= 1e-12 and cert.iterations > 0


def test_a_singular_polish_returns_the_root_it_has():
    """Without detuning or loss every state of a cavity is stationary and
    the Jacobian is zero: the polishing Newton solve is singular, and the
    start, already a root, is returned as it is."""
    h = product(fock("c"))
    a = destroy(h, "a")
    delta, = parameters("Δ")
    model = ModelDefinition.create(h, delta * (a.dag() * a))
    prog = lower(complete(meanfield_derive([a], model, 1)))
    y0 = np.array([0.3 + 0.4j])
    assert np.array_equal(steady_state(prog.bind({"Δ": 0.0}), y0), y0)


class _Relax:
    """dy/dt = 1 - y, except that the first trial state reads NaN."""

    calls = 0

    def __call__(self, t, y):
        self.calls += 1
        return np.full_like(y, np.nan) if self.calls == 2 else 1.0 - y

    def jacobian(self, y):
        return -np.eye(len(y)), np.zeros((len(y), len(y)))


class _NoRoot:
    """dy/dt = |y|^2 + 1, at least 1 and at least 2|y| everywhere."""

    def __call__(self, t, y):
        return y * y.conj() + 1

    def jacobian(self, y):
        return np.diag(y.conj()), np.diag(y)


def test_a_non_finite_trial_is_retried_with_a_shorter_step():
    f = _Relax()
    y = steady_state(f, np.array([0j]))
    assert abs(y[0] - 1) <= 1e-12 and f.calls > 3


def test_a_search_without_a_root_stops_after_its_step_budget():
    with pytest.raises(NonStationaryError,
                       match="no steady state after 200 pseudo-transient steps") as info:
        steady_state(_NoRoot(), np.array([0j]))
    assert info.value.certificate.iterations == 200
    assert info.value.certificate.residual >= 1.0


def test_bound_program_is_shared_across_threads(laser):
    """Threads integrating one bound program get the serial trajectory."""
    closed, params = _laser_order(4)(laser)
    prog = lower(closed)
    f = prog.bind(params)

    def run(_):
        return integrate(f, initial_state(prog.layout), (0.0, 5.0),
                         StepperConfig.rk4(0.01)).states

    serial = run(None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = [fut.result(timeout=120)
                       for fut in [pool.submit(run, k) for k in range(4)]]
    finally:
        sys.setswitchinterval(interval)
    for states in results:
        assert np.array_equal(states, serial)


def test_exponential_decay_with_adaptive_steps():
    traj = integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 5.0),
                     StepperConfig.rk45())
    assert abs(traj.final_state[0] - np.exp(-5)) < 1e-6


def test_rk4_is_fourth_order():
    def run(dt):
        traj = integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 1.0),
                         StepperConfig.rk4(dt))
        return abs(traj.final_state[0] - np.exp(-1))

    ratio = run(0.02) / run(0.01)
    assert 12.0 < ratio < 20.0


@pytest.mark.parametrize("method, order", [("rk4", 4), ("rk45", 5)])
def test_tableau_order_conditions(method, order):
    """Rows sum to their nodes, the weights b integrate c^(k-1) exactly up to
    the method's order, and an embedded pair's weights b - e one order less."""
    tab = _TABLEAUX[method]
    for node, row in zip(tab.c, tab.a):
        assert sum(row) == node

    def integrates(weights, k):
        return sum(w * c ** (k - 1) for w, c in zip(weights, tab.c)) == Fraction(1, k)

    b = tab.a[-1]
    assert all(integrates(b, k) for k in range(1, order + 1))
    if tab.e:
        embedded = [bi - ei for bi, ei in zip(b + [0], tab.e)]
        assert all(integrates(embedded, k) for k in range(1, order))
        assert not integrates(embedded, order)


def test_saveat_sampling_hits_requested_times():
    times = np.linspace(0.0, 2.0, 9)
    traj = integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 2.0),
                     StepperConfig.rk45(), saveat=times)
    assert np.allclose(traj.times, times)
    assert np.allclose(traj.states[:, 0], np.exp(-times), atol=1e-7)


def test_saveat_rows_within_a_step_are_the_hermite_interpolant():
    """Many requested times per step: rows at step times are the step
    states, rows between them the cubic Hermite interpolant."""
    def f(t, y):
        return np.array([1j * y[0], -0.5 * y[1]])

    y0 = np.array([1.0 + 0j, 2.0 + 0j])
    cfg = StepperConfig.rk45(rtol=1e-5, atol=1e-7)
    steps = integrate(f, y0, (0.0, 3.0), cfg)
    assert len(steps) > 3
    fine = np.linspace(0.0, 3.0, 601)
    times = np.union1d(fine, steps.times)
    traj = integrate(f, y0, (0.0, 3.0), cfg, saveat=times)
    at_steps = np.searchsorted(times, steps.times)
    assert np.array_equal(traj.states[at_steps], steps.states)
    for k in (1, len(steps) // 2, len(steps) - 1):
        t0, t1 = steps.times[k - 1], steps.times[k]
        y_0, y_1 = steps.states[k - 1], steps.states[k]
        inside = (times > t0) & (times < t1)
        assert inside.sum() > 1
        for t, row in zip(times[inside], traj.states[inside]):
            expected = _hermite(t, t0, y_0, f(t0, y_0), t1, y_1, f(t1, y_1))
            assert np.max(np.abs(row - expected)) < 1e-15


@pytest.mark.parametrize("observe", [np.array([2.0, 1j]),
                                     np.array([[1.0, 0.0], [0.5, -1.0], [0, 3j]])])
@pytest.mark.parametrize("saveat", [None, np.union1d(np.linspace(0.0, 3.0, 601),
                                                     [0.3, 1.2])])
def test_observed_rows_are_the_map_of_the_state_rows(observe, saveat):
    """``observe`` is a linear map: each row, interpolated or at a step, is
    ``observe @ state`` of the unobserved row, to rounding."""
    def f(t, y):
        return np.array([1j * y[0], -0.5 * y[1]])

    y0 = np.array([1.0 + 0j, 2.0 + 0j])
    cfg = StepperConfig.rk45(rtol=1e-5, atol=1e-7)
    states = integrate(f, y0, (0.0, 3.0), cfg, saveat=saveat)
    seen = integrate(f, y0, (0.0, 3.0), cfg, saveat=saveat, observe=observe)
    assert np.array_equal(seen.times, states.times)
    assert seen.states.shape == (len(states),) + observe.shape[:-1]
    expected = states.states @ observe.T
    assert np.max(np.abs(seen.states - expected)) < 1e-14


@pytest.mark.parametrize("saveat, bad", [([-1.0, 0.0, 5.0, 20.0], "-1"),
                                         ([0.0, 5.0, 20.0], "20")])
def test_saveat_outside_span_is_an_error(saveat, bad):
    with pytest.raises(AlgebraError, match=f"saveat time {bad} lies outside"):
        integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 10.0),
                  StepperConfig.rk45(), saveat=saveat)
    # the last time may overshoot t1 by rounding
    traj = integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 10.0),
                     StepperConfig.rk45(), saveat=[0.0, 10.0 + 1e-11])
    assert len(traj) == 2


@pytest.mark.parametrize("saveat, bad", [([0.25, np.nan, 0.75], "nan"),
                                         ([0.25, np.inf], "inf")])
def test_non_finite_saveat_is_an_error(saveat, bad):
    with pytest.raises(AlgebraError, match=f"saveat time {bad} is not finite"):
        integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 1.0),
                  saveat=saveat)
    with pytest.raises(AlgebraError, match=f"saveat time {bad} is not finite"):
        sample_times((0.0, 1.0), saveat)


@pytest.mark.parametrize("tspan, bad", [((0.0, np.inf), "inf"),
                                        ((np.nan, 1.0), "nan"),
                                        ((-np.inf, 0.0), "-inf")])
@pytest.mark.parametrize("saveat", [None, [0.5]])
def test_non_finite_tspan_is_an_error(tspan, bad, saveat):
    with pytest.raises(AlgebraError, match=f"tspan end {bad} is not finite"):
        integrate(lambda t, y: -y, np.array([1.0 + 0j]), tspan, saveat=saveat)
    with pytest.raises(AlgebraError, match=f"tspan end {bad} is not finite"):
        sample_times(tspan, saveat)


def _bound_tavis3():
    t = make_tavis(3)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(3)],
                                       t.model, 2, FILTER_PHASE))
    return lower(closed).bind(t.params)


def _bound_laser():
    laser = make_laser()
    closed = complete(meanfield_derive([laser.ad * laser.a], laser.model, 2,
                                       FILTER_PHASE))
    return lower(closed).bind(laser.params)


@pytest.mark.parametrize("solver", ["integrate", "steady_state"])
@pytest.mark.parametrize("offset", [-1, 1])
@pytest.mark.parametrize("bound", [_bound_tavis3, _bound_laser],
                         ids=["symmetric", "trivial"])
def test_a_start_of_another_size_is_refused(bound, offset, solver, monkeypatch):
    """A bound program refuses a start one entry short or long by naming both
    sizes, before it looks for orbits or starts a Newton search."""
    f = bound()
    assert (f.orbits() is not None) == (bound is _bound_tavis3)

    def forbidden(*args):
        raise AssertionError("the start was used before its size was checked")

    monkeypatch.setattr(BoundRHS, "orbits", forbidden)
    monkeypatch.setattr(steppers, "_newton_steady_state", forbidden)
    u0 = np.zeros(f.size + offset, dtype=complex)
    match = f"initial state has {f.size + offset} entries, but the program has {f.size}"
    with pytest.raises(AlgebraError, match=match):
        if solver == "integrate":
            integrate(f, u0, (0.0, 1.0), StepperConfig.rk4(0.01))
        else:
            steady_state(f, u0)


def test_nan_guard():
    def blower(t, y):
        return y * (1.0 / (0.5 - t) if t < 0.5 else np.nan)

    with pytest.raises(IntegrationError):
        integrate(blower, np.array([1.0 + 0j]), (0.0, 1.0),
                  StepperConfig.rk4(0.01))

    # A NaN error estimate must end the run, not grow the step and retry
    # until the budget is spent.
    def poisoned(t, y):
        return -y if t < 0.5 else y * np.nan

    with pytest.raises(IntegrationError, match="non-finite"):
        integrate(poisoned, np.array([1.0 + 0j]), (0.0, 1.0),
                  StepperConfig.rk45(max_steps=10_000))


def test_step_size_underflow_ends_a_blow_up():
    # rk45 shrinks h towards the pole at t = 0.5 until t + h == t.  That
    # must end the run there (about 21,400 RHS calls), not spin until the
    # step budget is spent (60,001 calls for 10,000 steps).
    calls = []

    def blower(t, y):
        calls.append(t)
        return y / (0.5 - t)

    with pytest.raises(IntegrationError,
                       match=r"step size underflow at t = 0\.5$") as info:
        integrate(blower, np.array([1.0 + 0j]), (0.0, 1.0),
                  StepperConfig.rk45(max_steps=10_000))
    assert 0.5 - 1e-12 < info.value.last_time < 0.5
    assert len(calls) < 30_000


def test_step_budget():
    with pytest.raises(IntegrationError):
        integrate(lambda t, y: -y, np.array([1.0 + 0j]), (0.0, 10.0),
                  StepperConfig.rk4(0.001, max_steps=100))


def test_steady_state_of_linear_decay():
    y = steady_state(lambda t, y: -y, np.array([1.0 + 0j]))
    assert abs(y[0]) < 1e-7


def test_steady_state_nonconvergence():
    with pytest.raises(NonStationaryError):
        steady_state(lambda t, y: 1j * y, np.array([1.0 + 0j]), t_max=50.0)


# -- the exact propagator of constant linear systems ---------------------------


def test_expm_of_a_rotation_generator():
    theta = 0.7
    A = np.array([[0.0, -theta], [theta, 0.0]])
    want = np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])
    got = expm(A)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - want)) < 4e-16


@pytest.mark.parametrize("t", [0.3, 40.0])
def test_expm_of_a_jordan_block(t):
    """exp(t (lam I + N)) = e^(t lam) (I + t N + t^2 N^2 / 2) for the 3 x 3
    nilpotent shift N; at t = 40 the 1-norm, 40 (|lam| + 1) = 122, is past
    theta_13, so the exponential is squared five times."""
    lam = -0.5 + 2.0j
    A = t * (lam * np.eye(3) + np.eye(3, k=1))
    want = np.exp(t * lam) * np.array([[1.0, t, t * t / 2],
                                       [0.0, 1.0, t],
                                       [0.0, 0.0, 1.0]])
    got = expm(A)
    assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))


def test_expm_squares_a_large_rotation():
    """A rotation by 100 rad has a 1-norm of 100: s = 5 squarings, and
    the result stays orthogonal to rounding."""
    theta = 100.0
    got = expm(np.array([[0.0, -theta], [theta, 0.0]]))
    want = np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.max(np.abs(expm(np.zeros((3, 3))) - np.eye(3))) < 1e-15


@pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0])
def test_expm_matches_scipy(scale):
    linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    A = scale * (rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))) / 12
    want = linalg.expm(A)
    assert np.max(np.abs(expm(A) - want)) < 1e-13 * np.max(np.abs(want))


def _damped_system(n=6, seed=4):
    rng = np.random.default_rng(seed)
    M = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) - 2.5 * np.eye(n)
    y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    drive = rng.normal(size=n) + 1j * rng.normal(size=n)
    return M, y0, drive


def _eigen_solution(M, y0, taus, drive=None):
    """y(tau) = V e^(w tau) V^-1 (y0 - y_inf) + y_inf, y_inf = -M^-1 drive."""
    w, V = np.linalg.eig(M)
    rest = np.zeros_like(y0) if drive is None else -np.linalg.solve(M, drive)
    c = np.linalg.solve(V, y0 - rest)
    return (V @ (c[:, None] * np.exp(np.outer(w, taus)))).T + rest


@pytest.mark.parametrize("taus", [
    np.linspace(0.0, 6.0, 1001),        # uniform, four blocks of 256 rows
    np.linspace(0.4, 6.0, 200),         # uniform, not from zero, one block
    np.array([0.0, 0.05, 0.3, 1.0, 2.5, 6.0]),
    np.array([0.7]),
], ids=["uniform", "uniform-offset", "non-uniform", "single"])
@pytest.mark.parametrize("driven", [False, True])
def test_propagate_matches_the_eigen_solution(taus, driven):
    M, y0, drive = _damped_system()
    drive = drive if driven else None
    want = _eigen_solution(M, y0, taus, drive)
    got = propagate(M, y0, taus, drive)
    scale = np.max(np.abs(want))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-12 * scale
    weights = np.arange(1.0, 7.0) - 2j
    observed = propagate(M, y0, taus, drive, observe=weights)
    assert observed.shape == taus.shape
    assert np.max(np.abs(observed - want @ weights)) < 1e-12 * scale * 21
    pair = propagate(M, y0, taus, drive, observe=np.stack([weights, -weights]))
    assert np.max(np.abs(pair[:, 0] - observed)) < 1e-15 * scale * 21
    assert np.array_equal(pair[:, 1], -pair[:, 0])


@pytest.mark.parametrize("taus", [[], [-0.1, 1.0], [0.0, 1.0, 1.0], [1.0, 0.5]])
def test_propagate_refuses_bad_times(taus):
    M, y0, _ = _damped_system()
    with pytest.raises(AlgebraError, match="strictly increasing"):
        propagate(M, y0, taus)


@pytest.mark.parametrize("taus, bad", [([0.0, np.nan, 1.0], "nan"),
                                       ([0.0, 1.0, np.inf], "inf")])
def test_propagate_names_a_non_finite_time(taus, bad):
    M, y0, _ = _damped_system()
    with pytest.raises(AlgebraError, match=f"propagation time {bad} is not finite"):
        propagate(M, y0, taus)


def test_first_order_laser_stays_dark(laser):
    eqs = complete(meanfield_derive([laser.a, laser.sge, laser.see],
                                    laser.model, 1, None))
    prog = lower(eqs)
    f = prog.bind(laser.params)
    traj = integrate(f, initial_state(prog.layout), (0.0, 30.0),
                     StepperConfig.rk4(0.01))
    a_col = traj.column(_sym(laser.a))
    see_col = traj.column(_sym(laser.see))
    assert np.max(np.abs(a_col)) == 0.0
    nu, gamma = laser.params["ν"], laser.params["γ"]
    assert see_col[-1].real == pytest.approx(nu / (gamma + nu), abs=1e-6)


def test_second_order_laser_steady_state(laser, laser_closed):
    prog = lower(laser_closed)
    f = prog.bind(laser.params)
    yss = steady_state(f, initial_state(prog.layout))
    n = yss[prog.index_of(_sym(laser.ad, laser.a))]
    assert n.real > 0.5
    assert abs(n.imag) < 1e-8
    assert np.max(np.abs(f(0.0, yss))) < 1e-7


def test_realness_and_boundedness_along_trajectory(laser, laser_closed):
    prog = lower(laser_closed)
    f = prog.bind(laser.params)
    traj = integrate(f, initial_state(prog.layout), (0.0, 20.0),
                     StepperConfig.rk4(0.005))
    n_col = traj.column(_sym(laser.ad, laser.a))
    p_col = traj.column(_sym(laser.see))
    assert np.max(np.abs(n_col.imag)) < 1e-9
    assert np.max(np.abs(p_col.imag)) < 1e-9
    assert np.all(p_col.real > -1e-6)
    assert np.all(p_col.real < 1 + 1e-6)


def test_initial_state_orientation(laser, laser_closed):
    prog = lower(laser_closed)
    sym = _sym(laser.ad, laser.sge)
    y0 = initial_state(prog.layout, {sym.conj(): 1 + 2j})
    k = prog.index_of(sym)
    stored = y0[k]
    # the conjugated request must land as its conjugate in the stored slot
    assert stored == (1 - 2j if not prog.layout[k].conjugated else 1 + 2j)
    with pytest.raises(ClosureError):
        initial_state(prog.layout, {_sym(laser.a): 1.0})


def test_parameters_bind_at_call_time(laser, laser_closed):
    prog = lower(laser_closed)
    f1 = prog.bind(laser.params)
    f2 = prog.bind({**laser.params, "g": 0.0})
    y = np.array([0.5, 0.1 + 0.2j, 0.3], dtype=complex)
    assert not np.allclose(f1(0.0, y), f2(0.0, y))
