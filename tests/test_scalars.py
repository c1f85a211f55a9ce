"""Exact scalar expression layer: normalization, arithmetic, evaluation."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cqf import I_UNIT, Parameter, ScalarExpr, parameters
from cqf.algebra.scalars import CR_I, CR_ONE, ComplexRational
from cqf.errors import AlgebraError, EvaluationError


def test_complex_rational_arithmetic():
    a = ComplexRational(Fraction(1, 2), Fraction(1, 3))
    b = ComplexRational(Fraction(-1, 2), Fraction(2, 3))
    assert a + b == ComplexRational(0, 1)
    assert a * CR_I == ComplexRational(Fraction(-1, 3), Fraction(1, 2))
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (-a) + a == ComplexRational(0, 0)
    assert a.to_complex() == complex(0.5, 1 / 3)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)


def _pair(c: ComplexRational) -> tuple:
    return (c.re, c.im)


def _canonical(c: ComplexRational) -> bool:
    return c.d > 0 and gcd(c.x, c.y, c.d) == 1


@settings(max_examples=300, deadline=None)
@given(fractions, fractions, fractions, fractions, fractions)
def test_complex_rational_matches_fraction_pairs(a, b, c, e, q):
    x, y = ComplexRational(a, b), ComplexRational(c, e)
    assert _pair(x) == (a, b)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    results = {
        "+": (x + y, (a + c, b + e)),
        "-": (x - y, (a - c, b - e)),
        "*": (x * y, (a * c - b * e, a * e + b * c)),
        "neg": (-x, (-a, -b)),
        "conjugate": (x.conjugate(), (a, -b)),
        "scale": (x.scale(q), (a * q, b * q)),
        "scale int": (x.scale(q.numerator), (a * q.numerator, b * q.numerator)),
    }
    for op, (got, want) in results.items():
        assert _pair(got) == want, op
        assert _canonical(got), op
        assert got == ComplexRational(*want) and hash(got) == hash(ComplexRational(*want)), op
    assert x.to_complex() == complex(a) + 1j * complex(b)
    assert x.is_zero == (a == 0 and b == 0) == (not x)


@settings(max_examples=200, deadline=None)
@given(fractions, fractions, st.integers(1, 40))
def test_equal_complex_rationals_compare_and_hash_equal(a, b, k):
    x = ComplexRational(a, b)
    built = [ComplexRational(a) + ComplexRational(0, b),
             ComplexRational(a * k, b * k).scale(Fraction(1, k)),
             x * CR_ONE,
             (x * ComplexRational(k, k)) * ComplexRational(Fraction(1, 2 * k), Fraction(-1, 2 * k)),
             -(-x),
             x.conjugate().conjugate()]
    for other in built:
        assert other == x and hash(other) == hash(x)
        assert (other.x, other.y, other.d) == (x.x, x.y, x.d)
    zero = x - x
    assert (zero.x, zero.y, zero.d) == (0, 0, 1)
    assert zero == ComplexRational() == ComplexRational(Fraction(0, 7), 0)
    assert hash(zero) == hash(ComplexRational())
    assert zero.is_zero and not zero


def test_product_of_imaginary_parameters_is_real():
    g, = parameters("g")
    ig = I_UNIT * g
    assert ig * ig.conj() == g * g
    assert repr(g * g) == "g^2"


def test_like_terms_merge_and_zero_drops():
    lam1, lam2, x = parameters("λ1 λ2 x")
    expr = lam1 * x + lam2 * x
    assert expr == (lam1 + lam2) * x
    delta, = parameters("Δ")
    assert (I_UNIT * delta - I_UNIT * delta).is_zero


def test_from_terms_is_idempotent():
    g, k = parameters("g κ")
    expr = 2 * g * k - g * k + g
    assert ScalarExpr.from_terms(expr.terms) == expr
    assert ScalarExpr.from_terms(expr.terms + expr.terms) == 2 * expr


def test_evaluate_detuning_expression():
    delta, kappa = parameters("Δ κ")
    expr = -(I_UNIT * delta + kappa / 2)
    value = expr.evaluate({"Δ": 0.5, "κ": 1.0})
    assert value == pytest.approx(-0.5 - 0.5j)


def test_evaluate_plain_parameter():
    g, = parameters("g")
    assert g.evaluate({"g": 1.5}) == pytest.approx(1.5)


def test_evaluate_average_times_parameter(laser):
    from cqf import average, qmul

    n_expr = average(qmul(laser.ad, laser.a))
    sym = next(iter(n_expr.averages()))
    expr = n_expr * laser.kappa
    value = expr.evaluate({"κ": 1.0}, {sym.family: 2.0})
    assert value == pytest.approx(2.0)


def test_unbound_symbol_is_named():
    g, = parameters("g")
    with pytest.raises(EvaluationError, match="'g'"):
        g.evaluate({})


def test_conjugation_of_complex_parameter():
    p = Parameter("ξ", real=False)
    expr = ScalarExpr.from_parameter(p)
    assert expr.conj() != expr
    assert expr.conj().conj() == expr
    value = expr.conj().evaluate({"ξ": 1 + 2j})
    assert value == pytest.approx(1 - 2j)


def test_division_only_by_exact_rationals():
    g, = parameters("g")
    assert g / 2 == g * Fraction(1, 2)
    with pytest.raises(AlgebraError):
        g / 0.5


def test_floats_are_rejected():
    with pytest.raises(AlgebraError):
        ScalarExpr.number(0.5)


@st.composite
def scalar_exprs(draw):
    names = ["α", "β", "γ"]
    expr = ScalarExpr.zero()
    for _ in range(draw(st.integers(0, 4))):
        coeff = ComplexRational(Fraction(draw(st.integers(-3, 3))),
                                Fraction(draw(st.integers(-3, 3))))
        term = ScalarExpr.number(coeff)
        for name in draw(st.lists(st.sampled_from(names), max_size=3)):
            term = term * parameters(name)[0]
        expr = expr + term
    return expr


@settings(max_examples=60, deadline=None)
@given(scalar_exprs(), scalar_exprs(), scalar_exprs())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@settings(max_examples=60, deadline=None)
@given(scalar_exprs(), scalar_exprs())
def test_conjugation_is_a_ring_morphism(x, y):
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x


@settings(max_examples=60, deadline=None)
@given(st.lists(scalar_exprs(), max_size=5), st.data())
def test_sum_equals_repeated_addition(exprs, data):
    """One normalization of the whole sum gives the left fold of +, terms
    in the same order, whatever the order of the summands."""
    items = data.draw(st.permutations(exprs + exprs[:2]))
    folded = ScalarExpr.zero()
    for x in items:
        folded = folded + x
    assert ScalarExpr.sum(items) == folded
    for x in exprs:
        assert ScalarExpr.sum([x, -x]).is_zero
