"""Cumulant layer: partitions, the joint cumulant, and moment expansion.

The brute-force reference (`brute_expand`) enumerates set partitions by
direct recursion over the block containing the smallest element and applies
the vanishing-cumulant substitution recursively, with the (b-1)! (-1)^b
weights of the moment-cumulant formula.  It shares nothing with the
engine's recursion over count vectors; its only memo maps a factor tuple to
its closure within one top-level call.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqf import (FILTER_PHASE, FilterFunction, OrderSpec, average,
                 average_symbol, build_correlation_system, complete,
                 expand_average, expand_scalar, joint_cumulant,
                 meanfield_derive, missing_averages, moment_expansion_once,
                 qmul, set_partitions)
from cqf.algebra import ScalarExpr
from cqf.algebra.operators import TRANSITION, FundamentalOp
from cqf.cumulant import MAX_PARTITION_SIZE
from cqf.errors import AlgebraError, CapacityError
from conftest import make_optomech, make_tavis

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


# -- independent reference implementation ------------------------------------


def reference_partitions(items):
    """All set partitions, via the block holding the smallest element."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest) + 1):
        for companions in itertools.combinations(rest, k):
            block = [first, *companions]
            remaining = [x for x in rest if x not in companions]
            for sub in reference_partitions(remaining):
                yield [block, *sub]


def _avg_of(ops) -> ScalarExpr:
    return ScalarExpr.from_average(average_symbol(tuple(ops)))


def brute_expand(ops, order, filt=None, memo=None) -> ScalarExpr:
    """Vanishing-cumulant closure, written independently of the engine.

    ``memo`` maps factor tuples to their closure within one top-level call.
    """
    ops = tuple(ops)
    memo = {} if memo is None else memo
    if ops in memo:
        return memo[ops]
    sym = average_symbol(ops)
    spec = OrderSpec.of(order)
    if filt is not None and not filt.keep(sym.family):
        total = ScalarExpr.zero()
    elif len(ops) <= spec.resolve({op.subspace for op in ops}):
        total = ScalarExpr.from_average(sym)
    else:
        total = ScalarExpr.zero()
        for partition in reference_partitions(range(len(ops))):
            blocks = len(partition)
            if blocks == 1:
                continue
            term = ScalarExpr.number(
                math.factorial(blocks - 1) * (-1) ** blocks)
            for block in partition:
                term = term * brute_expand([ops[i] for i in block], order,
                                           filt, memo)
            total = total + term
    memo[ops] = total
    return total


# -- partitions ---------------------------------------------------------------


def test_partition_counts_are_bell_numbers():
    for n, bell in BELL.items():
        assert len(set_partitions(n)) == bell


def test_partitions_of_three_in_documented_order():
    assert set_partitions(3) == [
        ((0, 1, 2),),
        ((0, 1), (2,)),
        ((0, 2), (1,)),
        ((0,), (1, 2)),
        ((0,), (1,), (2,)),
    ]


def test_partitions_of_one():
    assert set_partitions(1) == [((0,),)]


def test_partition_structure(laser):
    for p in set_partitions(5):
        flat = sorted(i for block in p for i in block)
        assert flat == list(range(5))
        assert all(block == tuple(sorted(block)) for block in p)
        firsts = [block[0] for block in p]
        assert firsts == sorted(firsts)


def test_partition_cap():
    with pytest.raises(CapacityError):
        set_partitions(13)
    with pytest.raises(AlgebraError):
        set_partitions(0)


def test_expansion_has_no_partition_cap(laser):
    """Expansion counts blocks instead of listing partitions, so a product
    longer than the cap of ``set_partitions`` expands: the laser closes at
    order 14, and its delay system builds."""
    ops = _ops(*[laser.ad] * 7, *[laser.a] * 6)
    assert len(ops) == MAX_PARTITION_SIZE + 1
    assert not moment_expansion_once(ops, laser.space).is_zero
    closed = complete(meanfield_derive([qmul(laser.ad, laser.a)], laser.model,
                                       14, FILTER_PHASE))
    assert not missing_averages(closed)
    assert (len(closed), max(len(eq.lhs.ops) for eq in closed.equations)) == (21, 14)
    cs = build_correlation_system(laser.ad, laser.a, closed, steady=True)
    assert len(cs) == 26


# -- joint cumulant -----------------------------------------------------------


def _ops(*exprs):
    out = []
    for e in exprs:
        out.extend(e.monomial_ops())
    return tuple(out)


def test_second_order_cumulant_is_the_covariance(laser):
    factors = _ops(laser.ad, laser.a)
    expected = _avg_of(factors) - _avg_of(factors[:1]) * _avg_of(factors[1:])
    assert joint_cumulant(factors, laser.space) == expected


def test_third_order_cumulant_explicit_form(laser):
    x1, x2, x3 = _ops(laser.ad), _ops(laser.a), _ops(laser.see)
    factors = x1 + x2 + x3
    expected = (
        _avg_of(factors)
        - _avg_of(x1 + x2) * _avg_of(x3)
        - _avg_of(x1 + x3) * _avg_of(x2)
        - _avg_of(x1) * _avg_of(x2 + x3)
        + 2 * _avg_of(x1) * _avg_of(x2) * _avg_of(x3)
    )
    assert joint_cumulant(factors, laser.space) == expected


def test_first_order_cumulant_is_the_average(laser):
    factors = _ops(laser.a)
    assert joint_cumulant(factors, laser.space) == _avg_of(factors)


def test_third_order_expansion_explicit_form(laser):
    x1, x2, x3 = _ops(laser.ad), _ops(laser.a), _ops(laser.see)
    factors = x1 + x2 + x3
    expected = (
        _avg_of(x1 + x2) * _avg_of(x3)
        + _avg_of(x1 + x3) * _avg_of(x2)
        + _avg_of(x1) * _avg_of(x2 + x3)
        - 2 * _avg_of(x1) * _avg_of(x2) * _avg_of(x3)
    )
    assert moment_expansion_once(factors, laser.space) == expected


def test_full_average_enters_the_cumulant_exactly_once(laser):
    factors = _ops(laser.ad, laser.a, laser.see)
    full = average_symbol(factors)
    cumulant = joint_cumulant(factors, laser.space)
    hits = [coeff for coeff, params, avgs in cumulant.terms
            if avgs == ((full, 1),)]
    assert len(hits) == 1
    assert hits[0].to_complex() == 1.0


def test_moment_cumulant_inverse_cancels(laser):
    alphabet = [laser.ad, laser.a, laser.see, laser.sge]
    rng = random.Random(7)
    for n in range(2, 6):
        word = [rng.choice(alphabet) for _ in range(n)]
        factors = functools.reduce(qmul, word)
        if factors.is_zero or len(factors.terms) != 1:
            continue
        ops = factors.terms[0][0]
        if len(ops) < 2:
            continue
        cumulant = joint_cumulant(ops, laser.space)
        expansion = moment_expansion_once(ops, laser.space)
        sym = average_symbol(ops)
        # the substitution map is keyed by representatives: if the word's
        # representative is its adjoint, the family expands to the conjugate
        replacement = expansion.conj() if sym.conjugated else expansion
        residual = cumulant.substitute({sym.family: replacement})
        assert residual.is_zero


def test_vanishing_cumulant_under_statistical_independence(laser):
    """Factorizing assignments must kill the joint cumulant numerically."""
    rng = random.Random(3)
    base = {
        ("destroy", 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        ("transition", "g", "e"): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        ("transition", "e", "e"): rng.uniform(0.1, 0.9),   # self-adjoint: real
    }

    def value_of(op):
        if op.kind == "destroy":
            return base[("destroy", 0)]
        if op.kind == "create":
            return base[("destroy", 0)].conjugate()
        if (op.i_label, op.j_label) == ("g", "e"):
            return base[("transition", "g", "e")]
        if (op.i_label, op.j_label) == ("e", "g"):
            return base[("transition", "g", "e")].conjugate()
        return complex(base[("transition", "e", "e")])

    alphabet = [laser.ad, laser.a, laser.see, laser.sge, laser.seg]
    for n in range(2, 7):
        for _ in range(6):
            word = [rng.choice(alphabet) for _ in range(n)]
            expr = functools.reduce(qmul, word)
            if len(expr.terms) != 1:
                continue
            ops, coeff = expr.terms[0]
            if len(ops) != n or coeff != ScalarExpr.one():
                # Contractions changed the factor count; skip this word.
                continue
            cumulant = joint_cumulant(ops, laser.space)
            bindings = {}
            for occurrence in cumulant.averages():
                fam = occurrence.family
                bindings[fam] = functools.reduce(
                    lambda acc, op: acc * value_of(op), fam.ops, 1.0 + 0j)
            assert abs(cumulant.evaluate(averages=bindings)) < 1e-9


# -- expansion ----------------------------------------------------------------


def test_expansion_identity_below_order(laser):
    sym = average_symbol(_ops(laser.ad, laser.sge))
    assert expand_average(sym, 2, None) == ScalarExpr.from_average(sym)


def test_eq12_style_substitution_with_phase_filter(laser):
    sym = average_symbol(_ops(laser.ad, laser.a, laser.see))
    expanded = expand_average(sym, 2, FILTER_PHASE)
    n_avg = _avg_of(_ops(laser.ad, laser.a))
    p_avg = _avg_of(_ops(laser.see))
    assert expanded == n_avg * p_avg
    assert repr(expanded) == "⟨σee⟩*⟨a'*a⟩"


def test_fourth_order_average_at_order_two_matches_brute_force(laser):
    ops = _ops(laser.ad, laser.ad, laser.a, laser.a)
    assert expand_average(average_symbol(ops), 2, None) == \
        brute_expand(ops, 2, None)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
       st.integers(1, 3), st.booleans())
def test_expansion_matches_brute_force(laser, indices, order, use_filter):
    alphabet = [laser.a, laser.ad, laser.sge, laser.seg, laser.see]
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    filt = FILTER_PHASE if use_filter else None
    for ops, _ in expr.terms:
        if not ops:
            continue
        assert expand_average(average_symbol(ops), order, filt) == \
            brute_expand(ops, order, filt)


def _two_modes():
    om = make_optomech()
    return [om.a, om.a.dag(), om.b, om.b.dag()], 2


def _cavity_and_two_atoms():
    tc = make_tavis(2)
    atoms = [tc.s(i, j, k) for k in range(2) for i, j in ((1, 2), (2, 1), (2, 2))]
    return [tc.a, tc.ad, *atoms], 3


ALPHABETS = {"two modes": _two_modes(),
             "cavity and two atoms": _cavity_and_two_atoms()}


@st.composite
def order_specs(draw, subspaces: int):
    if draw(st.booleans()):
        return OrderSpec(uniform=draw(st.integers(1, 3)))
    orders = draw(st.lists(st.integers(1, 3), min_size=subspaces,
                           max_size=subspaces))
    return OrderSpec(per_subspace=tuple(orders),
                     reducer=draw(st.sampled_from(("max", "min"))))


@pytest.mark.parametrize("name", sorted(ALPHABETS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_expansion_with_repeated_factors_matches_brute_force(name, data):
    """Products of up to 7 factors, where a' and a (and b', b) repeat."""
    alphabet, subspaces = ALPHABETS[name]
    indices = data.draw(st.lists(st.integers(0, len(alphabet) - 1),
                                 min_size=1, max_size=7))
    spec = data.draw(order_specs(subspaces))
    filt = data.draw(st.sampled_from((None, FILTER_PHASE)))
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    for ops, _ in expr.terms:
        if not ops:
            continue
        assert expand_average(average_symbol(ops), spec, filt) == \
            brute_expand(ops, spec, filt)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.integers(1, 3))
def test_expansion_respects_order_bound(laser, indices, order):
    alphabet = [laser.a, laser.ad, laser.sge, laser.seg, laser.see]
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    for ops, _ in expr.terms:
        if not ops:
            continue
        out = expand_average(average_symbol(ops), order, None)
        for occurrence in out.averages():
            assert occurrence.order <= order


def test_mixed_orders_resolve_per_subspace(laser):
    spec = OrderSpec.of((1, 2))
    photon_pair = average_symbol(_ops(laser.ad, laser.a))
    # touches only the first subspace: its order 1 applies, so it expands
    assert expand_average(photon_pair, spec, None) == \
        _avg_of(_ops(laser.ad)) * _avg_of(_ops(laser.a))
    # touches both subspaces: max(1, 2) = 2 keeps it
    mixed = average_symbol(_ops(laser.ad, laser.sge))
    assert expand_average(mixed, spec, None) == ScalarExpr.from_average(mixed)
    spec_min = OrderSpec(per_subspace=(1, 2), reducer="min")
    assert expand_average(mixed, spec_min, None) == \
        _avg_of(_ops(laser.ad)) * _avg_of(_ops(laser.sge))


def test_conjugated_occurrence_expands_to_conjugate(laser):
    sym = average_symbol(_ops(laser.a, laser.a, laser.seg))
    assert sym.conjugated
    plain = expand_average(sym.family, 2, None)
    assert expand_average(sym, 2, None) == plain.conj()


def test_same_named_filters_do_not_share_cached_expansions(laser):
    sym = average_symbol(_ops(laser.ad, laser.a, laser.see))
    keep_all = FilterFunction("mine", lambda s: True)
    drop_order_one = FilterFunction("mine", lambda s: s.order != 1)
    assert not expand_average(sym, 2, keep_all).is_zero
    # every proper partition of three factors has a singleton block
    assert expand_average(sym, 2, drop_order_one).is_zero


def test_cumulants_refuse_non_canonical_products(laser):
    """An unordered product would be normal-ordered as a whole but not in
    its blocks; it is refused instead."""
    for factors in (_ops(laser.a, laser.ad), _ops(laser.see, laser.ad),
                    _ops(laser.sge, laser.seg)):
        with pytest.raises(AlgebraError, match="not a canonical product"):
            joint_cumulant(factors, laser.space)
        with pytest.raises(AlgebraError, match="not a canonical product"):
            moment_expansion_once(factors, laser.space)


def test_cumulants_refuse_ground_projectors(laser):
    """|g><g| never survives the algebra, which rewrites it as 1 - |e><e|,
    so a product holding it has no average in any equation set."""
    see, = _ops(laser.see)
    sgg = FundamentalOp(TRANSITION, see.subspace, see.name, 0, 0, "g", "g")
    assert laser.space.factors[see.subspace].ground_index == 0
    for factors in ((sgg,), _ops(laser.ad) + (sgg,)):
        with pytest.raises(AlgebraError, match="is the ground projector of 'atom'"):
            joint_cumulant(factors, laser.space)
        with pytest.raises(AlgebraError, match="is the ground projector of 'atom'"):
            moment_expansion_once(factors, laser.space)
    assert joint_cumulant((see,), laser.space) == _avg_of((see,))
