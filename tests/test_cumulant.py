"""Cumulant layer: partitions, the joint cumulant, and moment expansion.

The brute-force reference (`brute_expand`) enumerates partitions by direct
recursion over the block containing the smallest element and applies the
vanishing-cumulant substitution recursively, with no memoization and no
sharing with the engine's enumeration order.
"""

import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqf import (FILTER_PHASE, FilterFunction, OrderSpec, average,
                 average_symbol, expand_average, expand_scalar, joint_cumulant,
                 moment_expansion_once, qmul, set_partitions)
from cqf.algebra import ScalarExpr
from cqf.cumulant import clear_expansion_cache
from cqf.errors import AlgebraError, CapacityError

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


def brute_expand(ops, order, filt=None) -> ScalarExpr:
    """Vanishing-cumulant closure, written independently of the engine."""
    sym = average_symbol(tuple(ops))
    if filt is not None and not filt.keep(sym.family):
        return ScalarExpr.zero()
    spec = OrderSpec.of(order)
    if len(ops) <= spec.resolve({op.subspace for op in ops}):
        return ScalarExpr.from_average(sym)
    total = ScalarExpr.zero()
    for partition in reference_partitions(range(len(ops))):
        blocks = len(partition)
        if blocks == 1:
            continue
        term = ScalarExpr.number(math.factorial(blocks - 1) * (-1) ** blocks)
        for block in partition:
            term = term * brute_expand([ops[i] for i in block], order, filt)
        total = total + term
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


# -- joint cumulant -----------------------------------------------------------


def _ops(*exprs):
    out = []
    for e in exprs:
        out.extend(e.monomial_ops())
    return tuple(out)


def test_second_order_cumulant_is_the_covariance(laser):
    factors = _ops(laser.ad, laser.a)
    expected = _avg_of(factors) - _avg_of(factors[:1]) * _avg_of(factors[1:])
    assert joint_cumulant(factors) == expected


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
    assert joint_cumulant(factors) == expected


def test_first_order_cumulant_is_the_average(laser):
    factors = _ops(laser.a)
    assert joint_cumulant(factors) == _avg_of(factors)


def test_third_order_expansion_explicit_form(laser):
    x1, x2, x3 = _ops(laser.ad), _ops(laser.a), _ops(laser.see)
    factors = x1 + x2 + x3
    expected = (
        _avg_of(x1 + x2) * _avg_of(x3)
        + _avg_of(x1 + x3) * _avg_of(x2)
        + _avg_of(x1) * _avg_of(x2 + x3)
        - 2 * _avg_of(x1) * _avg_of(x2) * _avg_of(x3)
    )
    assert moment_expansion_once(factors) == expected


def test_full_average_enters_the_cumulant_exactly_once(laser):
    factors = _ops(laser.ad, laser.a, laser.see)
    full = average_symbol(factors)
    hits = [coeff for coeff, params, avgs in joint_cumulant(factors).terms
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
        cumulant = joint_cumulant(ops)
        expansion = moment_expansion_once(ops)
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
            cumulant = joint_cumulant(ops)
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
    clear_expansion_cache()
    alphabet = [laser.a, laser.ad, laser.sge, laser.seg, laser.see]
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    filt = FILTER_PHASE if use_filter else None
    for ops, _ in expr.terms:
        if not ops:
            continue
        assert expand_average(average_symbol(ops), order, filt) == \
            brute_expand(ops, order, filt)


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
