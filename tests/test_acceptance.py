"""Acceptance suite: one test per exit criterion, with printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines
and timings as they happen.  The slow fixtures (the 50-atom completion,
the master-equation references) are session-cached and shared between
criteria.
"""

import time

import numpy as np
import pytest

from cqf import (FILTER_PHASE, StepperConfig, TruncationSpec, average,
                 average_symbol, build_correlation_system, complete,
                 correlation_trajectory, decay_time, expand_average,
                 ground_state, identity, initial_state, integrate,
                 linearize_steady, lower, me_evolve, me_spectrum, me_steady,
                 meanfield_derive, missing_averages, qle_rhs, qmul,
                 spectrum_fourier, spectrum_laplace, state_mapping,
                 steady_state, to_matrix)
from cqf.algebra import I_UNIT, ScalarExpr
from cqf.algebra.render import render_qexpr, render_scalar
from cqf.cli import serialize
from cqf.cli.observables import mandel_q, occupation_to_kelvin
from conftest import make_tavis

from test_cumulant import brute_expand
from test_golden import TAVIS_DIGESTS, archive_digest


def _avg(*exprs) -> ScalarExpr:
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return ScalarExpr.from_average(average_symbol(tuple(ops)))


def _sym(*exprs):
    ops = []
    for e in exprs:
        ops.extend(e.monomial_ops())
    return average_symbol(tuple(ops))


@pytest.fixture(scope="module")
def laser_orders(laser):
    """Closed laser systems at orders 2, 4, 6 plus their steady states."""
    out = {}
    for order in (2, 4, 6):
        closed = complete(meanfield_derive([qmul(laser.ad, laser.a)],
                                           laser.model, order, FILTER_PHASE))
        prog = lower(closed)
        yss = steady_state(prog.bind(laser.params), initial_state(prog.layout))
        out[order] = (closed, prog, yss)
    return out


@pytest.fixture(scope="module")
def me_reference(laser):
    """Master-equation steady photon number at cutoffs 15 and 20."""
    values = {}
    for cutoff in (15, 20):
        trunc = TruncationSpec.uniform(laser.space, cutoff)
        rho = me_steady(laser.model, trunc, params=laser.params)
        n_op = to_matrix(qmul(laser.ad, laser.a), trunc)
        values[cutoff] = float(np.trace(n_op @ rho).real)
    return values


@pytest.fixture(scope="module")
def tavis50():
    """The 50-atom model completed at order 2 (shared by criteria 2 and 6)."""
    tavis = make_tavis(50)
    t0 = time.time()
    seeds = [tavis.s(2, 2, k) for k in range(50)]
    eqs = meanfield_derive(seeds, tavis.model, 2, FILTER_PHASE)
    closed = complete(eqs)
    elapsed = time.time() - t0
    return tavis, closed, elapsed


def test_criterion_1_symbolic_fixtures(laser):
    """Printed operator and moment equations reproduce exactly."""
    t0 = time.time()
    i = I_UNIT

    # operator equations
    eq4a = qle_rhs(laser.a, laser.model)
    want4a = laser.a.scale(-(i * laser.delta + laser.kappa / 2)) \
        - laser.sge.scale(i * laser.g)
    assert eq4a == want4a and render_qexpr(eq4a) == render_qexpr(want4a)

    eq4c = qle_rhs(laser.see, laser.model)
    want4c = laser.see.scale(-laser.gamma) \
        + (identity(laser.space) - laser.see).scale(laser.nu) \
        + (qmul(laser.ad, laser.sge) - qmul(laser.a, laser.seg)).scale(i * laser.g)
    assert eq4c == want4c and render_qexpr(eq4c) == render_qexpr(want4c)

    # averaged, unexpanded equations
    eq5a = average(qle_rhs(laser.a, laser.model))
    want5a = -(i * laser.delta + laser.kappa / 2) * _avg(laser.a) \
        - i * laser.g * _avg(laser.sge)
    assert eq5a == want5a and render_scalar(eq5a) == render_scalar(want5a)

    eq5c = average(qle_rhs(laser.see, laser.model))
    want5c = laser.nu * (1 - _avg(laser.see)) - laser.gamma * _avg(laser.see) \
        + i * laser.g * (_avg(laser.ad, laser.sge) - _avg(laser.a, laser.seg))
    assert eq5c == want5c and render_scalar(eq5c) == render_scalar(want5c)

    # first-order field equation
    eq10a = meanfield_derive([laser.a], laser.model, 1, None).equations[0]
    assert render_scalar(eq10a.rhs) == render_scalar(want5a)

    # second-order photon and population equations
    sys2 = meanfield_derive([qmul(laser.ad, laser.a), laser.see], laser.model,
                            2, FILTER_PHASE)
    want11a = -laser.kappa * _avg(laser.ad, laser.a) \
        - i * laser.g * _avg(laser.ad, laser.sge) \
        + i * laser.g * _avg(laser.a, laser.seg)
    assert sys2.equations[0].rhs == want11a
    assert render_scalar(sys2.equations[0].rhs) == render_scalar(want11a)
    want11c = laser.nu * (1 - _avg(laser.see)) - laser.gamma * _avg(laser.see) \
        + i * laser.g * (_avg(laser.ad, laser.sge) - _avg(laser.a, laser.seg))
    assert sys2.equations[1].rhs == want11c

    # the phase-filtered second-order substitution
    substitution = expand_average(_sym(laser.ad, laser.a, laser.see), 2,
                                  FILTER_PHASE)
    want12 = _avg(laser.see) * _avg(laser.ad, laser.a)
    assert substitution == want12
    assert render_scalar(substitution) == render_scalar(want12)

    elapsed = time.time() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1: PASS - symbolic fixtures exact ({elapsed:.2f}s)")


def test_criterion_2_equation_counts(three_level, tavis50):
    t0 = time.time()
    seeds = [qmul(three_level.ad, three_level.a), three_level.s(3, 3),
             three_level.s(2, 2)]
    closed3 = complete(meanfield_derive(seeds, three_level.model, 4, None))
    assert len(closed3) == 30

    for n_atoms in (2, 3, 5):
        tavis = make_tavis(n_atoms)
        eqs = meanfield_derive([tavis.s(2, 2, k) for k in range(n_atoms)],
                               tavis.model, 2, FILTER_PHASE)
        expected = n_atoms * (n_atoms - 1) // 2 + 2 * n_atoms + 1
        assert len(complete(eqs)) == expected

    small_elapsed = time.time() - t0
    _, closed50, derivation_time = tavis50
    assert len(closed50) == 1326
    assert archive_digest(serialize(closed50)) == TAVIS_DIGESTS[50]
    assert derivation_time <= 600.0, "50-atom derivation exceeded ten minutes"
    print(f"\nACCEPTANCE 2: PASS - 30 / 6 / 10 / 21 / 1326 equations "
          f"(N=50 derivation {derivation_time:.0f}s, small counts "
          f"{small_elapsed:.1f}s)")


def test_criterion_3_order_convergence(laser, laser_orders, me_reference):
    # truncation adequacy gate
    gate = abs(me_reference[20] - me_reference[15])
    assert gate < 1e-6, f"master-equation cutoff not converged ({gate:.2e})"
    n_me = me_reference[20]

    n_sym = _sym(laser.ad, laser.a)
    errors = {}
    for order in (2, 4, 6):
        closed, prog, yss = laser_orders[order]
        errors[order] = abs(float(yss[prog.index_of(n_sym)].real) - n_me)

    tie = 1e-3
    ordered_64 = errors[6] < errors[4] or abs(errors[6] - errors[4]) < tie
    ordered_42 = errors[4] < errors[2] or abs(errors[4] - errors[2]) < tie
    flags = []
    if abs(errors[6] - errors[4]) < tie:
        flags.append("orders 6/4 tie within 1e-3")
    if abs(errors[4] - errors[2]) < tie:
        flags.append("orders 4/2 tie within 1e-3")
    assert ordered_64 and ordered_42, f"convergence ordering violated: {errors}"
    rel2 = errors[2] / n_me
    assert rel2 < 0.25
    note = f" [FLAG: {'; '.join(flags)}]" if flags else ""
    print(f"\nACCEPTANCE 3: PASS - n_ME={n_me:.6f}, errors "
          f"2nd {errors[2]:.4f} > 4th {errors[4]:.4f} > 6th {errors[6]:.4f}, "
          f"rel(2nd) {rel2:.3f} < 0.25{note}")


def test_criterion_4_spectrum_cross_validation(laser, laser_orders):
    """Laplace, transform-of-trajectory, and master-equation spectra.

    The two purely numerical routes must agree tightly.  The cumulant-vs-
    master-equation comparison is asserted at the stated 2% even though the
    cumulant series has not converged that far at any practical order for
    these parameters (measured: 4.3% / 3.5% / 2.9% / 2.5% at orders
    2/4/6/8); a failure here reflects that truncation physics, not a
    numerical defect.  Control experiment: on the exactly-Gaussian thermal
    mode (test_crosschecks) the same spectrum pipeline matches the oracle
    to 2e-3 of peak.
    """
    closed, prog, yss = laser_orders[6]
    omegas = np.linspace(-np.pi, np.pi, 301)
    grid_step = omegas[1] - omegas[0]

    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    ls = linearize_steady(cs, yss, laser.params)
    s_laplace = spectrum_laplace(ls, omegas).values

    tau_max = decay_time(ls)
    taus = np.linspace(0.0, tau_max, 6001)
    traj = correlation_trajectory(cs, yss, (0.0, tau_max), StepperConfig.rk45(),
                                  laser.params, saveat=taus)
    s_fourier = spectrum_fourier(taus, traj.states[:, 0], omegas).values

    trunc = TruncationSpec.uniform(laser.space, 20)
    _, s_me, corr_me, _ = me_spectrum(laser.model, trunc, laser.ad, laser.a,
                                      omegas, params=laser.params,
                                      tau_max=60.0, tau_points=6001)

    def norm(s):
        return s / np.max(np.abs(s))

    pairs = {
        "laplace-vs-fourier": float(np.max(np.abs(norm(s_laplace) - norm(s_fourier)))),
        "laplace-vs-me": float(np.max(np.abs(norm(s_laplace) - norm(s_me)))),
        "fourier-vs-me": float(np.max(np.abs(norm(s_fourier) - norm(s_me)))),
    }
    peaks = {name: omegas[np.argmax(s)] for name, s in
             (("laplace", s_laplace), ("fourier", s_fourier), ("me", s_me))}
    peak_spread = max(peaks.values()) - min(peaks.values())
    assert peak_spread <= grid_step + 1e-12, f"peak positions differ: {peaks}"
    report = ", ".join(f"{k} {v * 100:.2f}%" for k, v in pairs.items())
    failed = {k: v for k, v in pairs.items() if v > 0.02}
    verdict = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE 4: {verdict} - pairwise peak-normalized deviations: "
          f"{report}; peaks within one grid step")
    assert not failed, (
        f"pairwise 2% exceeded: {failed} (truncation physics; see ledger)")


def test_criterion_5_mandel_q(three_level):
    t0 = time.time()
    seeds = [qmul(three_level.ad, three_level.a), three_level.s(3, 3),
             three_level.s(2, 2)]
    closed = complete(meanfield_derive(seeds, three_level.model, 4, None))
    prog = lower(closed)
    f = prog.bind(three_level.params)
    taus = np.linspace(0.0, 6.0, 601)
    traj = integrate(f, initial_state(prog.layout), (0.0, 6.0),
                     StepperConfig.rk4(0.002), saveat=taus)
    q = mandel_q(three_level.a, traj)
    valid = ~np.isnan(q)
    assert valid.any()
    q_min = float(np.nanmin(q))
    q_final = float(q[valid][-1])
    assert q_min < 0.0, "no sub-Poissonian dip during build-up"
    assert abs(q_final) < abs(q_min), "Q does not relax toward zero"
    print(f"\nACCEPTANCE 5: PASS - min Q = {q_min:.3f} < 0, "
          f"|Q(final)| = {abs(q_final):.3f} < {abs(q_min):.3f} "
          f"({time.time() - t0:.1f}s)")


def test_criterion_6_superradiant_pulse(tavis50):
    tavis, closed, derivation_time = tavis50
    t0 = time.time()
    prog = lower(closed)
    f = prog.bind(tavis.params)
    inverted = {_sym(tavis.s(2, 2, k)): 1.0 for k in range(50)}
    u0 = initial_state(prog.layout, inverted)
    times = np.linspace(0.0, 10.0, 1001)
    traj = integrate(f, u0, (0.0, 10.0), StepperConfig.rk4(0.005),
                     saveat=times)
    n = traj.column(_sym(tavis.ad, tavis.a)).real
    solve_time = time.time() - t0
    total = derivation_time + solve_time

    peak = float(n.max())
    k_peak = int(n.argmax())
    assert peak > 10 * abs(n[0]) + 1e-12
    assert peak > 10 * abs(n[-1])
    # at least one secondary maximum after the pulse (photon reabsorption)
    interior = (n[1:-1] > n[:-2]) & (n[1:-1] > n[2:]) \
        & (n[1:-1] > 1e-3 * peak)
    maxima = np.flatnonzero(interior) + 1
    secondary = [k for k in maxima if k != k_peak]
    assert secondary, "no reabsorption oscillation after the pulse"
    assert total <= 900.0, "end-to-end run exceeded fifteen minutes"
    print(f"\nACCEPTANCE 6: PASS - pulse peak {peak:.1f} photons at "
          f"t={times[k_peak]:.2f}, {len(secondary)} secondary maxima, "
          f"end-to-end {total:.0f}s")


def test_criterion_7_optomechanical_cooling(optomech):
    t0 = time.time()
    closed = complete(meanfield_derive(
        [qmul(optomech.b.dag(), optomech.b), qmul(optomech.a.dag(), optomech.a)],
        optomech.model, 2, None))
    assert len(closed) == 8
    prog = lower(closed)
    f = prog.bind(optomech.params)
    nb = _sym(optomech.b.dag(), optomech.b)
    u0 = initial_state(prog.layout, {nb: 4e6})
    traj = integrate(f, u0, (0.0, 60000.0),
                     StepperConfig.rk45(rtol=1e-6, atol=1e-8),
                     saveat=np.linspace(0.0, 60000.0, 601))
    n_final = float(traj.column(nb)[-1].real)
    limit = 1.380649e-23 * 1e-3 / (1.0545718176461565e-34 * 1e7)
    assert n_final < limit, f"final occupation {n_final:.2f} not below {limit:.2f}"
    t_final = occupation_to_kelvin(n_final, 1e7)
    print(f"\nACCEPTANCE 7: PASS - final phonon number {n_final:.2f} < "
          f"{limit:.2f} (T = {t_final * 1e3:.2f} mK < 1 mK) "
          f"({time.time() - t0:.0f}s)")


def test_criterion_8_expansion_against_brute_force(laser):
    import functools
    import random

    rng = random.Random(2024)
    alphabet = [laser.a, laser.ad, laser.sge, laser.seg, laser.see]
    checked = 0
    t0 = time.time()
    while checked < 200:
        length = rng.randint(1, 6)
        word = [alphabet[rng.randrange(5)] for _ in range(length)]
        expr = functools.reduce(qmul, word)
        order = rng.randint(1, 3)
        filt = FILTER_PHASE if rng.random() < 0.5 else None
        for ops, _ in expr.terms:
            if not ops:
                continue
            sym = average_symbol(ops)
            assert expand_average(sym, order, filt) == \
                brute_expand(ops, order, filt), \
                f"expansion mismatch for {sym} at order {order}"
            checked += 1
    print(f"\nACCEPTANCE 8: PASS - {checked} random expansions match the "
          f"independent partition oracle ({time.time() - t0:.1f}s)")


def test_criterion_9_property_summary(laser):
    from cqf.cli import parse_model, pretty_print, serialize, deserialize
    from cqf import set_partitions

    # bell numbers
    for n, bell in ((1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203),
                    (7, 877), (8, 4140)):
        assert len(set_partitions(n)) == bell

    # first-order dark laser
    eqs1 = complete(meanfield_derive([laser.a, laser.sge, laser.see],
                                     laser.model, 1, None))
    prog1 = lower(eqs1)
    traj = integrate(prog1.bind(laser.params), initial_state(prog1.layout),
                     (0.0, 25.0), StepperConfig.rk4(0.01))
    assert np.max(np.abs(traj.column(_sym(laser.a)))) == 0.0

    # filter soundness: trajectories agree with and without the phase filter
    sys_f = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                      2, FILTER_PHASE))
    sys_n = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                      2, None))
    times = np.linspace(0.0, 15.0, 301)
    n_sym = _sym(laser.ad, laser.a)
    cols = []
    for system in (sys_f, sys_n):
        prog = lower(system)
        t = integrate(prog.bind(laser.params), initial_state(prog.layout),
                      (0.0, 15.0), StepperConfig.rk45(), saveat=times)
        cols.append(t.column(n_sym))
    assert np.max(np.abs(cols[0] - cols[1])) < 1e-6

    # hermiticity along the unfiltered trajectory: phase-dependent averages
    # stay zero and populations stay real
    assert np.max(np.abs(cols[1].imag)) < 1e-9

    # trace preservation of the oracle over a short run
    trunc = TruncationSpec.uniform(laser.space, 8)
    res = me_evolve(laser.model, trunc, ground_state(laser.space, trunc),
                    (0.0, 3.0), params=laser.params, saveat=[0.0, 1.5, 3.0])
    for rho in res.rhos:
        assert abs(np.trace(rho) - 1.0) < 1e-8

    # archive and parser round-trips
    blob = serialize(sys_f)
    assert serialize(deserialize(blob)) == blob
    with open("models/laser.cqm", encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    assert parse_model(pretty_print(parsed)).model == parsed.model

    print("\nACCEPTANCE 9: PASS - bell counts, dark first-order laser, "
          "filter soundness, realness, oracle trace, round-trips")
