"""Derivation once per permutation orbit of identical subsystems.

Every equation a derivation relabels must equal, term for term and in its
rendered names, the one ``derive_equation`` gives directly.  Symmetric
models call ``qle_rhs`` once per orbit, counted against a brute-force
enumeration of the permutations; a model whose symmetry is broken derives
every equation itself.  The representatives one call derives are seen by no
other call and no other thread.  Integration from a state that every
permutation leaves unchanged steps only the representatives, and agrees with
stepping every entry; from any other state, and wherever the reduction does
not apply, it steps every entry.
"""

import itertools
import os
import sys
import threading

import numpy as np
import pytest

import cqf.correlation
import cqf.meanfield
from cqf import (FILTER_PHASE, ComplexRational, EquationSet, FilterFunction,
                 ModelDefinition, OrderSpec, QExpr, ScalarExpr, StepperConfig,
                 average_symbol, build_correlation_system, complete, destroy,
                 expand_scalar, fock, initial_state, integrate, lower,
                 meanfield_derive, nlevel, parameters, product, qle_rhs,
                 transition)
from cqf.algebra import FundamentalOp, correlation_symbol
from cqf.cli import deserialize, parse_model, serialize
from cqf.numerics.lowering import BoundRHS
from cqf.meanfield import MeanfieldEquation, derive_equation
from cqf.symmetry import Symmetry
from conftest import make_laser, make_tavis

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


@pytest.fixture
def qle_calls(monkeypatch):
    """Counts the calls of ``qle_rhs`` through both hooked attributes."""
    calls = []

    def counted(O, model):
        calls.append(O)
        return qle_rhs(O, model)

    monkeypatch.setattr(cqf.meanfield, "qle_rhs", counted)
    monkeypatch.setattr(cqf.correlation, "qle_rhs", counted)
    return calls


def _direct(eq, model, order, filt):
    """The equation of ``eq.lhs`` derived on its own, with no orbit."""
    lhs = eq.lhs
    if not lhs.is_correlation:
        return derive_equation(lhs.factors, model, order, filt)
    if not lhs.ops:
        return type(eq)(lhs, ScalarExpr.zero())
    O = QExpr(model.space, ((lhs.ops, ScalarExpr.one()),))
    rhs = ScalarExpr.sum(
        coeff * ScalarExpr.from_average(correlation_symbol(ops, lhs.b_ops))
        for ops, coeff in qle_rhs(O, model).terms)
    return type(eq)(lhs, expand_scalar(rhs, order, filt))


def _assert_direct(equations, model, order, filt):
    for eq in equations:
        direct = _direct(eq, model, order, filt)
        assert eq == direct, eq.render()
        assert eq.render() == direct.render()


def _orbit_count(families, blocks) -> int:
    """Orbits of ``families`` under every permutation of each block."""
    def relabel(ops, perm):
        moved = [FundamentalOp(op.kind, perm.get(op.subspace, op.subspace),
                               op.name, op.i, op.j, op.i_label, op.j_label)
                 for op in ops]
        return tuple(sorted(moved, key=lambda op: op.subspace))

    perms = [{}]
    for block in blocks:
        perms = [{**p, **dict(zip(block, image))} for p in perms
                 for image in itertools.permutations(block)]
    canonical = set()
    for fam in families:
        images = []
        for perm in perms:
            if fam.is_correlation:
                image = correlation_symbol(relabel(fam.ops, perm),
                                           relabel(fam.b_ops, perm))
            else:
                image = average_symbol(relabel(fam.ops, perm)).family
            images.append(image.sort_key)
        canonical.add(min(images))
    return len(canonical)


def _two_cavities():
    """Two identical lossy cavities coupled alike to one atom: an orbit of
    modes."""
    h = product(fock("c1"), fock("c2"), nlevel("atom", 2))
    a1, a2 = destroy(h, "a", "c1"), destroy(h, "b", "c2")

    def s(i, j):
        return transition(h, "σ", str(i), str(j), "atom")

    delta, g, kappa, gamma = parameters("Δ g κ γ")
    H = delta * (a1.dag() * a1 + a2.dag() * a2) \
        + g * (a1.dag() * s(1, 2) + a1 * s(2, 1) + a2.dag() * s(1, 2) + a2 * s(2, 1))
    model = ModelDefinition.create(h, H, (a1, a2, s(1, 2)), (kappa, kappa, gamma))
    return model, [a1.dag() * a1, a2.dag() * a2], [(0, 1)]


def _tavis_case(n):
    t = make_tavis(n)
    return t.model, [t.s(2, 2, k) for k in range(n)], [tuple(range(1, n + 1))]


def _tavis_three_with_its_own_gamma():
    """Atom 3 decays at its own rate: only atoms 1 and 2 stay identical."""
    model, seeds, _ = _tavis_case(3)
    gamma3, = parameters("γ3")
    rates = model.rates[:-1] + (gamma3,)
    model = ModelDefinition.create(model.space, model.hamiltonian, model.jumps,
                                   rates)
    return model, seeds, [(1, 2)]


def _collective(t):
    """The Tavis model with a collective decay jump sum_k σ12_k at rate γ
    beside each atom's own: one jump acts on every atom of the orbit."""
    m = t.model
    collective = sum((t.s(1, 2, k) for k in range(1, t.n_atoms)), t.s(1, 2, 0))
    return ModelDefinition.create(m.space, m.hamiltonian, m.jumps + (collective,),
                                  m.rates + (m.rates[-1],))


def _tavis_collective(n):
    t = make_tavis(n)
    return _collective(t), [t.s(2, 2, k) for k in range(n)], [tuple(range(1, n + 1))]


# name -> (model, seeds that are whole orbits, blocks of identical factors),
# and the filter
SYMMETRIC = {
    **{f"tavis{n}": (lambda n=n: _tavis_case(n), FILTER_PHASE)
       for n in range(2, 7)},
    **{f"tavis{n}-collective": (lambda n=n: _tavis_collective(n), FILTER_PHASE)
       for n in (3, 4)},
    "tavis4-no-filter": (lambda: _tavis_case(4), None),
    "tavis3-atom3-own-gamma": (_tavis_three_with_its_own_gamma, FILTER_PHASE),
    "two-cavities": (_two_cavities, None),
    "two-cavities-phase": (_two_cavities, FILTER_PHASE),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_orbits_give_the_direct_equations_once_per_orbit(name, qle_calls):
    case, filt = SYMMETRIC[name]
    model, seeds, blocks = case()
    closed = complete(meanfield_derive(seeds, model, 2, filt))
    # the seeds are whole orbits, so the two calls derive disjoint orbits
    assert len(qle_calls) == _orbit_count(closed.lhs_families(), blocks)
    assert len(qle_calls) < len(closed)
    _assert_direct(closed, model, OrderSpec.of(2), filt)


def test_a_conjugated_seed_keeps_its_orientation(qle_calls):
    t = make_tavis(3)
    seeds = [t.a * t.s(2, 1, k) for k in range(3)]     # <a σ21_k>: conjugated
    eqs = meanfield_derive(seeds, t.model, 2, FILTER_PHASE)
    assert len(qle_calls) == 1 and len(eqs) == 3
    assert all(eq.lhs.conjugated for eq in eqs)
    _assert_direct(eqs, t.model, OrderSpec.of(2), FILTER_PHASE)


@pytest.mark.parametrize("steady", [True, False], ids=["steady", "coevolved"])
@pytest.mark.parametrize("pair", ["a'a", "σ21_2 σ12_3"])
def test_correlation_systems_give_the_direct_equations(pair, steady, qle_calls):
    t = make_tavis(4)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(4)],
                                       t.model, 2, FILTER_PHASE))
    A, B = (t.ad, t.a) if pair == "a'a" else (t.s(2, 1, 1), t.s(1, 2, 2))
    del qle_calls[:]
    cs = build_correlation_system(A, B, closed, steady=steady)
    derived = [eq for eq in cs.equations if eq.lhs.ops]
    assert 0 < len(qle_calls) < len(derived)
    _assert_direct(cs.equations, t.model, closed.order, closed.filter)


@pytest.mark.parametrize("n", [3, 4])
def test_a_collective_jump_keeps_the_direct_correlation_equations(n, qle_calls):
    """The co-evolved <a'(t+τ) a(t)> under a collective decay: each orbit's
    delay equation is derived once, and every member equals its own
    derivation."""
    t = make_tavis(n)
    model = _collective(t)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(n)], model,
                                       2, FILTER_PHASE))
    del qle_calls[:]
    cs = build_correlation_system(t.ad, t.a, closed, steady=False)
    derived = [eq for eq in cs.equations if eq.lhs.ops]
    assert 0 < len(qle_calls) < len(derived)
    _assert_direct(cs.equations, model, closed.order, closed.filter)


def _model_file(name):
    with open(os.path.join(ROOT, "models", f"{name}.cqm"), encoding="utf-8") as fh:
        parsed = parse_model(fh.read())
    opts = parsed.options
    filt = FILTER_PHASE if opts.filter_name == "phase" else None
    return parsed.model, opts.track, OrderSpec.of(opts.order), filt


def _broken(change):
    """Tavis N=2 at order 2 with the phase filter, changed by ``change``;
    every change leaves the two atoms distinguishable."""
    def case():
        t = make_tavis(2)
        model, order, filt = change(t)
        return model, [t.s(2, 2, k) for k in range(2)], order, filt
    return case


def _own_gamma(t):
    gamma2, = parameters("γ2")
    m = t.model
    return (ModelDefinition.create(m.space, m.hamiltonian, m.jumps,
                                   m.rates[:-1] + (gamma2,)),
            OrderSpec.of(2), FILTER_PHASE)


def _detuned(t):
    delta2, = parameters("δ2")
    m = t.model
    return (ModelDefinition.create(m.space, m.hamiltonian + delta2 * t.s(2, 2, 1),
                                   m.jumps, m.rates),
            OrderSpec.of(2), FILTER_PHASE)


def _unequal_orders(t):
    return t.model, OrderSpec(per_subspace=(2, 2, 3)), FILTER_PHASE


def _custom_filter(t):
    return (t.model, OrderSpec.of(2),
            FilterFunction("phase, by hand", lambda sym: sym.phase() == 0))


def _two_names(t):
    """Atom 2's decay is written with another name than its coupling."""
    m = t.model
    tau = transition(t.space, "τ2", "1", "2", "atom2")
    return (ModelDefinition.create(m.space, m.hamiltonian, m.jumps[:-1] + (tau,),
                                   m.rates),
            OrderSpec.of(2), FILTER_PHASE)


TRIVIAL = {
    **{name: (lambda name=name: _model_file(name))
       for name in ("laser", "three_level", "optomech")},
    "own-gamma": _broken(_own_gamma),
    "detuned": _broken(_detuned),
    "unequal-orders": _broken(_unequal_orders),
    "custom-filter": _broken(_custom_filter),
    "two-names": _broken(_two_names),
}


@pytest.mark.parametrize("name", sorted(TRIVIAL))
def test_without_symmetry_every_equation_is_derived(name, qle_calls):
    model, seeds, order, filt = TRIVIAL[name]()
    closed = complete(meanfield_derive(seeds, model, order, filt))
    assert len(qle_calls) == len(closed)
    _assert_direct(closed, model, order, filt)


def test_representatives_stay_in_their_call_and_thread():
    """Two threads derive Tavis N=4 and the laser at once, with very short
    time slices so that they interleave; each gets its serial result."""
    laser, tavis = make_laser(), make_tavis(4)
    jobs = [lambda: serialize(complete(meanfield_derive(
                [tavis.s(2, 2, k) for k in range(4)], tavis.model, 2,
                FILTER_PHASE))),
            lambda: serialize(complete(meanfield_derive(
                [laser.ad * laser.a], laser.model, 4, FILTER_PHASE)))]
    serial = [job() for job in jobs]
    results = [None] * len(jobs)
    start = threading.Barrier(len(jobs))

    def run(k):
        start.wait(timeout=60)
        results[k] = jobs[k]()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_the_group_is_found_once_per_derivation(monkeypatch):
    """``complete`` and ``build_correlation_system`` read the group that
    ``meanfield_derive`` found instead of finding it again; a set built by
    hand has the trivial group and finds none."""
    calls = []
    find = Symmetry.of

    def counted(*args):
        calls.append(args)
        return find(*args)

    monkeypatch.setattr(Symmetry, "of", staticmethod(counted))
    t = make_tavis(4)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(4)],
                                       t.model, 2, FILTER_PHASE))
    build_correlation_system(t.ad, t.a, closed)
    assert len(calls) == 1 and closed.symmetry.blocks == ((1, 2, 3, 4),)
    by_hand = EquationSet(closed.equations, closed.model, closed.order, closed.filter)
    assert complete(by_hand).equations == closed.equations
    assert len(calls) == 1 and not by_hand.symmetry.blocks


def test_the_orbit_program_lowers_the_representatives():
    """Tavis N=20: the orbit program is the lowering of the representatives'
    equations with every average replaced by its representative's
    occurrence; 4 equations and 18 terms in place of 231 and 1551, whose
    exact coefficients carry the multiplicities N and N - 1."""
    t = make_tavis(20)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(20)],
                                       t.model, 2, FILTER_PHASE))
    prog = lower(closed)
    reduced = prog.orbits.f
    assert (prog.size, len(prog.terms)) == (231, 1551)
    assert (reduced.size, len(reduced.terms)) == (4, 18)
    assert all(type(coeff) is ComplexRational for coeff, _, _ in reduced.folds)
    assert {ComplexRational(0, 19), ComplexRational(0, -20)} \
        <= {coeff for coeff, _, _ in reduced.folds}
    group = closed.symmetry
    mapped = tuple(
        MeanfieldEquation(eq.lhs, eq.rhs.substitute(
            {s: ScalarExpr.from_average(group.representative(s)[1])
             for s in eq.rhs.averages()}))
        for eq in closed if group.representative(eq.lhs)[1].family == eq.lhs.family)
    assert lower(EquationSet(mapped, closed.model, closed.order,
                             closed.filter)) == reduced


def test_lowering_reads_every_representative_from_the_cache(monkeypatch):
    """Representatives are kept by family, so ``lower`` computes none that
    derivation did not: a conjugated occurrence takes its family's
    permutation and the conjugate of its image, as computed directly."""
    t = make_tavis(20)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(20)],
                                       t.model, 2, FILTER_PHASE))
    computed = []
    compute = Symmetry._representative
    monkeypatch.setattr(Symmetry, "_representative",
                        lambda group, sym: computed.append(sym) or compute(group, sym))
    assert lower(closed).orbits is not None and computed == []
    group = closed.symmetry
    reads = {s for eq in closed for s in eq.rhs.averages()}
    assert any(s.conjugated for s in reads)
    assert all(group.representative(s) == compute(group, s) for s in reads)


def _tavis_bound(n=5):
    t = make_tavis(n)
    closed = complete(meanfield_derive([t.s(2, 2, k) for k in range(n)],
                                       t.model, 2, FILTER_PHASE))
    return t, closed, lower(closed).bind(t.params)


def _inverted(t, layout):
    return initial_state(layout, {average_symbol(t.s(2, 2, k).monomial_ops()): 1.0
                                  for k in range(t.n_atoms)})


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The state size of every call of a bound program."""
    sizes = []
    call = BoundRHS.__call__

    def counted(self, t, y):
        sizes.append(y.size)
        return call(self, t, y)

    monkeypatch.setattr(BoundRHS, "__call__", counted)
    return sizes


TIMES = np.linspace(0.0, 4.0, 81)
STEPPERS = {"rk4": StepperConfig.rk4(0.01), "rk45": StepperConfig.rk45()}


@pytest.mark.parametrize("method", sorted(STEPPERS))
def test_representatives_integrate_like_every_entry(method):
    """Tavis N=5 from full inversion: stepping the 4 representatives agrees
    with stepping all 21 entries to 1e-12 of the largest value."""
    t, closed, f = _tavis_bound()
    u0 = _inverted(t, f.program.layout)
    cfg = STEPPERS[method]
    reduced = integrate(f, u0, (0.0, 4.0), cfg, saveat=TIMES)
    full = integrate(lambda tau, y: f(tau, y), u0, (0.0, 4.0), cfg, saveat=TIMES)
    assert f.orbits().f.size == 4 and len(closed) == 21
    assert reduced.layout == f.program.layout
    assert np.array_equal(reduced.times, full.times)
    scale = np.max(np.abs(full.states))
    assert scale > 1.0     # the pulse has built up
    assert np.max(np.abs(reduced.states - full.states)) <= 1e-12 * scale


@pytest.mark.parametrize("n, size", [(3, 13), (4, 21)])
def test_representatives_integrate_like_every_entry_under_a_collective_jump(n, size):
    """Tavis N=3 and N=4 with a collective decay, from full inversion:
    stepping the 5 representatives by rk4 agrees with stepping every
    entry to 1e-12 of the largest value."""
    t = make_tavis(n)
    f = lower(complete(meanfield_derive([t.s(2, 2, k) for k in range(n)],
                                        _collective(t), 2, FILTER_PHASE))).bind(t.params)
    u0 = _inverted(t, f.program.layout)
    cfg = STEPPERS["rk4"]
    reduced = integrate(f, u0, (0.0, 4.0), cfg, saveat=TIMES)
    full = integrate(lambda tau, y: f(tau, y), u0, (0.0, 4.0), cfg, saveat=TIMES)
    assert (f.program.size, f.orbits().f.size) == (size, 5)
    scale = np.max(np.abs(full.states))
    assert np.max(np.abs(reduced.states - full.states)) <= 1e-12 * scale


def test_members_stored_conjugated_read_their_representative_conjugated():
    """Atom 1's <a σ21_1> is a conjugated seed, the other atoms' <a' σ12_k>
    are completed as families, so those entries hold the conjugate of their
    representative's; a complex invariant start integrates like every entry."""
    t = make_tavis(4)
    seeds = [t.a * t.s(2, 1, 0)] + [t.s(2, 2, k) for k in range(4)]
    f = lower(complete(meanfield_derive(seeds, t.model, 2, FILTER_PHASE))).bind(t.params)
    orbits = f.orbits()
    assert orbits.flip.size and orbits.f.size == 4

    def sym(*factors):
        ops = ()
        for factor in factors:
            ops += factor.monomial_ops()
        return average_symbol(ops)

    values = {sym(t.ad, t.a): 1.0}
    for i in range(4):
        values[sym(t.ad, t.s(1, 2, i))] = 0.1 + 0.2j
        values[sym(t.s(2, 2, i))] = 0.5
        for j in range(i + 1, 4):
            values[sym(t.s(1, 2, i), t.s(2, 1, j))] = 0.05
    u0 = initial_state(f.program.layout, values)
    assert orbits.fits(u0)
    cfg = StepperConfig.rk4(0.01)
    reduced = integrate(f, u0, (0.0, 2.0), cfg, saveat=TIMES[:41])
    full = integrate(lambda tau, y: f(tau, y), u0, (0.0, 2.0), cfg, saveat=TIMES[:41])
    scale = np.max(np.abs(full.states))
    assert np.max(np.abs(reduced.states - full.states)) <= 1e-12 * scale


def test_an_invariant_start_never_calls_the_full_kernel(kernel_sizes):
    t, _, f = _tavis_bound()
    integrate(f, _inverted(t, f.program.layout), (0.0, 1.0),
              StepperConfig.rk4(0.01))
    assert kernel_sizes and set(kernel_sizes) == {4}


def test_an_asymmetric_start_steps_every_entry(kernel_sizes):
    """Only atom 1 excited: the trajectory is exactly the full path's."""
    t, _, f = _tavis_bound()
    u0 = initial_state(f.program.layout,
                       {average_symbol(t.s(2, 2, 0).monomial_ops()): 1.0})
    traj = integrate(f, u0, (0.0, 2.0), StepperConfig.rk4(0.01), saveat=TIMES[:41])
    full = integrate(lambda tau, y: f(tau, y), u0, (0.0, 2.0),
                     StepperConfig.rk4(0.01), saveat=TIMES[:41])
    assert np.array_equal(traj.states, full.states)
    assert set(kernel_sizes) == {21}


def test_a_pair_coherence_must_be_real_to_reduce(kernel_sizes):
    """Every atom-pair coherence <σ12_i σ21_j> (i < j) at one complex value
    matches the orbit map entry by entry, but swapping i and j conjugates
    it: the state is not invariant, and the representatives alone would
    evolve it wrongly."""
    t, _, f = _tavis_bound()
    orbits = f.orbits()
    reps = orbits.f.program.layout
    pair, = (n for n in orbits.real if not reps[n].self_adjoint)
    part = np.zeros(len(reps), dtype=complex)
    part[[n for n, lhs in enumerate(reps) if lhs.self_adjoint and len(lhs.ops) == 1]] = 0.5
    part[pair] = 0.1 + 0.2j
    u0 = orbits.expand(part)
    assert np.array_equal(u0[orbits.reps], part) and not orbits.fits(u0)
    span, cfg = (0.0, 2.0), StepperConfig.rk4(0.01)
    traj = integrate(f, u0, span, cfg, saveat=TIMES[:41])
    full = integrate(lambda tau, y: f(tau, y), u0, span, cfg, saveat=TIMES[:41])
    assert np.array_equal(traj.states, full.states)
    assert set(kernel_sizes) == {21}
    wrong = orbits.expand(integrate(orbits.f, part, span, cfg, saveat=TIMES[:41]).states)
    assert np.max(np.abs(wrong - full.states)) > 1e-3


def _with_observe():
    t, _, f = _tavis_bound()
    u0 = _inverted(t, f.program.layout)
    return f, u0, dict(observe=np.eye(len(u0))[:2])


def _archived():
    t, closed, _ = _tavis_bound()
    f = lower(deserialize(serialize(closed))).bind(t.params)
    return f, _inverted(t, f.program.layout), {}


def _trivial_group():
    laser = make_laser()
    closed = complete(meanfield_derive([laser.ad * laser.a], laser.model, 2,
                                       FILTER_PHASE))
    f = lower(closed).bind(laser.params)
    return f, initial_state(f.program.layout), {}


@pytest.mark.parametrize("case", [_with_observe, _archived, _trivial_group],
                         ids=["observe", "archived", "trivial-group"])
def test_where_the_reduction_does_not_apply_every_entry_is_stepped(case, kernel_sizes):
    f, u0, kwargs = case()
    assert kwargs or f.orbits() is None
    traj = integrate(f, u0, (0.0, 1.0), StepperConfig.rk4(0.01), **kwargs)
    assert set(kernel_sizes) == {len(u0)}
    assert len(traj) == 101
