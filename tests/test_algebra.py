"""Rewrite system: normal ordering, contraction, projector elimination."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqf import (I_UNIT, adjoint, average, commutator, create, destroy, fock,
                 identity, nlevel, parameters, product, qmul, transition, zero)
from cqf.algebra.operators import CREATE, DESTROY, TRANSITION, adjoint_sequence
from cqf.algebra.render import render_qexpr
from cqf.cumulant import expand_scalar
from cqf.errors import AlgebraError, SpaceMismatchError


def test_ladder_commutation(laser):
    assert qmul(laser.a, laser.ad) == qmul(laser.ad, laser.a) + identity(laser.space)
    assert commutator(laser.a, laser.ad) == identity(laser.space)


def test_transition_contraction_eliminates_ground(laser):
    # |g><e| |e><g| = |g><g| -> 1 - |e><e|
    assert qmul(laser.sge, laser.seg) == identity(laser.space) - laser.see


def test_vanishing_transition_product(laser):
    assert qmul(laser.sge, laser.sge).is_zero


def test_disjoint_subspaces_commute(laser):
    lhs = qmul(laser.sge, laser.a)
    rhs = qmul(laser.a, laser.sge)
    assert lhs == rhs
    assert render_qexpr(lhs) == "a*σge"
    assert commutator(laser.a, laser.sge).is_zero


def test_number_operator_commutator(laser):
    n = qmul(laser.ad, laser.a)
    assert commutator(n, laser.a) == -laser.a
    assert commutator(n, laser.ad) == laser.ad


def test_adjoint_examples(laser):
    assert adjoint(laser.a) == laser.ad
    assert adjoint(qmul(laser.ad, laser.sge)) == qmul(laser.a, laser.seg)
    delta, = parameters("Δ")
    assert adjoint(laser.a.scale(I_UNIT * delta)) == \
        laser.ad.scale(-1 * I_UNIT * delta)


def test_scalar_and_operator_add_in_either_order(laser):
    n = qmul(laser.ad, laser.a)
    assert laser.g + n == n + laser.g
    assert laser.g - n == -n + laser.g
    assert n - laser.g == n + (-laser.g)
    assert 2 + n == n + 2


def test_space_mismatch_raises(laser):
    other = product(fock("other"))
    b = destroy(other, "b")
    with pytest.raises(SpaceMismatchError):
        qmul(laser.a, b)
    with pytest.raises(SpaceMismatchError):
        commutator(laser.a, b)


def test_zero_and_identity_degenerate_cases(laser):
    z = zero(laser.space)
    assert qmul(z, laser.a).is_zero
    assert qmul(laser.a, z).is_zero
    assert qmul(identity(laser.space), laser.a) == laser.a


def test_three_level_projector_sum_is_identity():
    h = product(fock("c"), nlevel("atom", 3))
    total = zero(h)
    for m in (1, 2, 3):
        total = total + transition(h, "σ", str(m), str(m))
    assert total == identity(h)


def test_custom_ground_level():
    space = nlevel("atom", ("d", "u"), ground="u")
    h = product(space)
    suu = transition(h, "σ", "u", "u")
    sdd = transition(h, "σ", "d", "d")
    assert suu == identity(h) - sdd


# -- canonical-form uniqueness over random words ----------------------------


def _alphabet(laser):
    return [laser.a, laser.ad, laser.sge, laser.seg, laser.see]


@st.composite
def op_words(draw, max_len=6):
    indices = draw(st.lists(st.integers(0, 4), min_size=1, max_size=max_len))
    return indices


def _multiply_random_association(factors, order):
    """Multiply a word by collapsing at positions chosen by ``order``."""
    work = list(factors)
    for choice in order:
        if len(work) == 1:
            break
        k = choice % (len(work) - 1)
        work[k:k + 2] = [qmul(work[k], work[k + 1])]
    return functools.reduce(qmul, work)


@settings(max_examples=120, deadline=None)
@given(op_words(), st.lists(st.integers(0, 10), min_size=0, max_size=6))
def test_canonical_form_unique_under_association(laser, indices, order):
    alphabet = _alphabet(laser)
    factors = [alphabet[i] for i in indices]
    left = functools.reduce(qmul, factors)
    shuffled = _multiply_random_association(factors, order)
    assert left == shuffled


@settings(max_examples=120, deadline=None)
@given(op_words())
def test_normal_order_invariant(laser, indices):
    alphabet = _alphabet(laser)
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    for ops, _ in expr.terms:
        per_subspace = {}
        for op in ops:
            per_subspace.setdefault(op.subspace, []).append(op)
        for block in per_subspace.values():
            kinds = [op.kind for op in block]
            if TRANSITION in kinds:
                assert kinds == [TRANSITION], "one transition per subspace"
                op = block[0]
                assert not (op.i_label == "g" and op.j_label == "g"), \
                    "ground projector must be eliminated"
            else:
                seen_destroy = False
                for kind in kinds:
                    if kind == DESTROY:
                        seen_destroy = True
                    else:
                        assert not seen_destroy, "creation after annihilation"


@settings(max_examples=100, deadline=None)
@given(op_words())
def test_adjoint_is_an_involution(laser, indices):
    alphabet = _alphabet(laser)
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    assert adjoint(adjoint(expr)) == expr


@settings(max_examples=60, deadline=None)
@given(op_words(max_len=4))
def test_self_commutators_vanish(laser, indices):
    alphabet = _alphabet(laser)
    expr = functools.reduce(qmul, (alphabet[i] for i in indices))
    assert commutator(expr, expr).is_zero
    assert commutator(expr, identity(laser.space)).is_zero


def test_ordering_guard_for_first_order_expansion(laser):
    """<a a'> expanded at first order keeps the +1 of the commutator."""
    product_expr = qmul(laser.a, laser.ad)
    expanded = expand_scalar(average(product_expr), 1, None)
    a_avg = average(laser.a)
    expected = a_avg * a_avg.conj() + 1
    assert expanded == expected
