"""Commutative scalar expressions with exact complex-rational coefficients.

A scalar expression is a normalized sum of terms; each term multiplies an
exact Gaussian-rational coefficient, a monomial in named parameters, and a
monomial in average symbols.  Two terms never share the same monomial
signature and zero terms are dropped, so equal expressions compare equal
structurally.  Floating point enters only through :meth:`ScalarExpr.evaluate`.

The normal form has one owner.  :func:`collect` adds terms into a map from
monomial to coefficient, merging equal monomials, and
``ScalarExpr._from_dict`` drops the zero coefficients and sorts what is
left; every sum and product here, and every operator sum and product in
:mod:`.qexpr`, goes through the pair.  Other modules build expressions only
through the public API: :meth:`ScalarExpr.sum` adds many expressions and
normalizes once, and :meth:`ScalarExpr.from_terms` normalizes raw terms.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

from ..errors import AlgebraError, EvaluationError
from .averages import AverageSymbol, family_values


class ComplexRational:
    """Exact Gaussian rational (x + y i) / d held as three Python ints.

    Invariants: d > 0 and gcd(x, y, d) = 1, with zero stored as (0, 0, 1).
    Every value has exactly one triple, so equality and hashing are
    structural.  ``re`` and ``im`` give the parts as :class:`Fraction`.
    """

    __slots__ = ("x", "y", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.x, self.y, self.d = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # Over the lcm of two reduced denominators the triple is coprime.
        d = lcm(re.denominator, im.denominator)
        self.x = re.numerator * (d // re.denominator)
        self.y = im.numerator * (d // im.denominator)
        self.d = d

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        d1, d2 = self.d, other.d
        return _reduced(self.x * d2 + other.x * d1, self.y * d2 + other.y * d1,
                        d1 * d2)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return self + (-other)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        return _reduced(x1 * x2 - y1 * y2, x1 * y2 + y1 * x2, self.d * other.d)

    def __neg__(self) -> "ComplexRational":
        return _reduced(-self.x, -self.y, self.d)

    def conjugate(self) -> "ComplexRational":
        return _reduced(self.x, -self.y, self.d)

    def scale(self, q: Fraction) -> "ComplexRational":
        n = q.numerator
        return _reduced(self.x * n, self.y * n, self.d * q.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self.x, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.y, self.d)

    @property
    def is_zero(self) -> bool:
        return not self.x and not self.y

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return (isinstance(other, ComplexRational) and self.x == other.x
                and self.y == other.y and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.x, self.y, self.d))

    def to_complex(self) -> complex:
        try:
            return complex(self.x / self.d, self.y / self.d)
        except OverflowError:
            re, im = ((Decimal(v) / self.d).normalize() for v in (self.x, self.y))
            raise EvaluationError(
                f"coefficient {re:.6g}{im:+.6g}i is beyond float range") from None

    def __repr__(self) -> str:
        return f"ComplexRational({self.re}, {self.im})"


def _reduced(x: int, y: int, d: int) -> ComplexRational:
    """The value (x + y i) / d of any ints with d > 0."""
    g = gcd(x, y, d)
    c = object.__new__(ComplexRational)
    c.x, c.y, c.d = x // g, y // g, d // g
    return c


CR_ZERO = ComplexRational(0, 0)
CR_ONE = ComplexRational(1, 0)
CR_I = ComplexRational(0, 1)


class Parameter:
    """A named c-number model parameter, assumed real unless declared otherwise."""

    __slots__ = ("name", "real", "_hash")

    def __init__(self, name: str, real: bool = True):
        self.name = name
        self.real = real
        self._hash = hash((name, real))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Parameter)
                and self.name == other.name and self.real == other.real)

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return self.name


# Term layout: (coeff, params, avgs)
#   params: tuple of (Parameter, conjugated, power), sorted by (name, conj)
#   avgs:   tuple of (AverageSymbol, power), sorted by symbol key
# The monomial (params, avgs) is the dict key during accumulation.


def collect(acc: dict, terms, weight: ComplexRational | None = None) -> dict:
    """Add ``(coeff, params, avgs)`` terms, each times ``weight`` if given,
    into ``acc``, a map from monomial ``(params, avgs)`` to coefficient."""
    for coeff, params, avgs in terms:
        if weight is not None:
            coeff = coeff * weight
        key = (params, avgs)
        prev = acc.get(key)
        acc[key] = coeff if prev is None else prev + coeff
    return acc


def _term_sort_key(term):
    _, params, avgs = term
    return (len(avgs), tuple((s.sort_key, p) for s, p in avgs),
            len(params), tuple((p.name, c, n) for p, c, n in params))


class ScalarExpr:
    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple = ()):
        self.terms = terms
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _from_dict(d: dict) -> "ScalarExpr":
        """The expression of a :func:`collect` map: zeros dropped, terms sorted."""
        items = [(coeff, params, avgs)
                 for (params, avgs), coeff in d.items() if not coeff.is_zero]
        items.sort(key=_term_sort_key)
        return ScalarExpr(tuple(items))

    @staticmethod
    def from_terms(terms) -> "ScalarExpr":
        """The normalized sum of ``(coeff, params, avgs)`` terms whose factor
        tuples are sorted; monomials may repeat."""
        return ScalarExpr._from_dict(collect({}, terms))

    @staticmethod
    def sum(exprs) -> "ScalarExpr":
        """The sum of scalar expressions, normalized once."""
        acc: dict = {}
        for x in exprs:
            collect(acc, x.terms)
        return ScalarExpr._from_dict(acc)

    @staticmethod
    def zero() -> "ScalarExpr":
        return _ZERO

    @staticmethod
    def one() -> "ScalarExpr":
        return _ONE

    @staticmethod
    def number(value) -> "ScalarExpr":
        if isinstance(value, ScalarExpr):
            return value
        if isinstance(value, ComplexRational):
            c = value
        elif isinstance(value, (int, Fraction)):
            c = ComplexRational(value, 0)
        else:
            raise AlgebraError(
                f"scalar coefficients must stay exact; got {type(value).__name__}"
            )
        if c.is_zero:
            return _ZERO
        return ScalarExpr(((c, (), ()),))

    @staticmethod
    def from_parameter(p: Parameter, conjugated: bool = False) -> "ScalarExpr":
        if p.real:
            conjugated = False
        return ScalarExpr(((CR_ONE, ((p, conjugated, 1),), ()),))

    @staticmethod
    def from_average(sym: AverageSymbol) -> "ScalarExpr":
        return ScalarExpr(((CR_ONE, (), ((sym, 1),)),))

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_number(self) -> bool:
        return all(not params and not avgs for _, params, avgs in self.terms)

    def constant_value(self) -> ComplexRational:
        """The value of a symbol-free expression."""
        acc = CR_ZERO
        for coeff, params, avgs in self.terms:
            if params or avgs:
                raise AlgebraError("expression is not a pure number")
            acc = acc + coeff
        return acc

    def parameters(self) -> set[Parameter]:
        return {p for _, params, _ in self.terms for p, _, _ in params}

    def averages(self) -> set[AverageSymbol]:
        """All average-symbol occurrences (with their conjugation flags)."""
        return {s for _, _, avgs in self.terms for s, _ in avgs}

    def average_families(self) -> set[AverageSymbol]:
        return {s.family for s in self.averages()}

    def __eq__(self, other) -> bool:
        return isinstance(other, ScalarExpr) and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self) -> str:
        from .render import render_scalar

        return render_scalar(self)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "ScalarExpr":
        other = _operand(other)
        if other is None:
            return NotImplemented
        # Every expression is normalized already, so a zero summand is a no-op.
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        d = {(params, avgs): coeff for coeff, params, avgs in self.terms}
        return ScalarExpr._from_dict(collect(d, other.terms))

    __radd__ = __add__

    def __sub__(self, other) -> "ScalarExpr":
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ScalarExpr":
        return ScalarExpr.number(other) + (-self)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(tuple((-c, params, avgs) for c, params, avgs in self.terms))

    def __mul__(self, other) -> "ScalarExpr":
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _ZERO
        if len(self.terms) == 1 == len(other.terms):
            # one term is normalized as it stands: Gaussian rationals have no
            # zero divisors, so its coefficient is nonzero
            (c1, p1, a1), = self.terms
            (c2, p2, a2), = other.terms
            return ScalarExpr(((c1 * c2, _merge_pow(p1, p2, _param_key),
                                _merge_pow(a1, a2, _avg_key)),))
        return ScalarExpr.from_terms([
            (c1 * c2, _merge_pow(p1, p2, _param_key), _merge_pow(a1, a2, _avg_key))
            for c1, p1, a1 in self.terms for c2, p2, a2 in other.terms])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ScalarExpr":
        if isinstance(other, int):
            q = Fraction(1, other)
        elif isinstance(other, Fraction):
            q = 1 / other
        else:
            raise AlgebraError("scalar division is only defined by exact rationals")
        return ScalarExpr(tuple((c.scale(q), params, avgs)
                                for c, params, avgs in self.terms))

    def __pow__(self, n: int) -> "ScalarExpr":
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("scalar powers must be nonnegative integers")
        out = self if n else _ONE
        for _ in range(n - 1):
            out = out * self
        return out

    def conj(self) -> "ScalarExpr":
        return ScalarExpr.from_terms([
            (coeff.conjugate(),
             tuple(sorted(((p, (not c) if not p.real else False, n)
                           for p, c, n in params), key=_param_key)),
             tuple(sorted(((s.conj(), n) for s, n in avgs), key=_avg_key)))
            for coeff, params, avgs in self.terms])

    # the numeric name, so that AverageSymbol.orient conjugates expressions too
    conjugate = conj

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, params: dict | None = None,
                 averages: dict | None = None) -> complex:
        """Fold to a complex float; exact arithmetic is kept per-term until the end.

        ``params`` maps parameter names to values, ``averages`` maps average
        symbols, in either orientation, to values.  Average values may be
        numpy arrays, which evaluates the expression elementwise.
        """
        params = params or {}
        averages = family_values(averages or {})
        total = 0j
        for coeff, pfac, afac in self.terms:
            total += term_value(coeff, pfac, afac, params, averages)
        return total

    def substitute(self, avg_map: dict) -> "ScalarExpr":
        """Replace averages by scalar expressions.

        ``avg_map`` keys may be given in either orientation; every
        occurrence of a mapped family receives the replacement in its own
        orientation.  Unmapped symbols are kept.
        """
        avg_map = family_values({s: ScalarExpr.number(rep)
                                 for s, rep in avg_map.items()})
        parts = []
        for coeff, pfac, afac in self.terms:
            term = ScalarExpr(((coeff, pfac, ()),))
            for s, n in afac:
                rep = avg_map.get(s.family)
                factor = (ScalarExpr.from_average(s) if rep is None
                          else s.orient(rep))
                term = term * factor**n
            parts.append(term)
        return ScalarExpr.sum(parts)


def term_value(coeff: ComplexRational, pfac, afac, params: dict,
               averages: dict):
    """Value of one term: coefficient times parameter and average monomials.

    ``pfac`` holds ``(Parameter, conjugated, power)`` and ``afac`` holds
    ``(AverageSymbol, power)``, the layout of :class:`ScalarExpr` terms.
    ``params`` maps parameter names to numbers; ``averages`` maps average
    families to numbers or numpy arrays, which pass through uncoerced, and
    each occurrence reads its family's value in its own orientation.
    """
    val = coeff.to_complex()
    for p, conjd, n in pfac:
        if p.name not in params:
            raise EvaluationError(f"parameter {p.name!r} is unbound")
        v = complex(params[p.name])
        if conjd:
            v = v.conjugate()
        val *= v**n
    for s, n in afac:
        fam = s.family
        if fam not in averages:
            raise EvaluationError(f"average {fam!r} is unbound")
        val *= s.orient(averages[fam])**n
    return val


def _param_key(entry):
    p, c, _ = entry
    return (p.name, c)


def _avg_key(entry):
    s, _ = entry
    return s.sort_key


def _operand(value) -> ScalarExpr | None:
    """The other operand of scalar arithmetic as a ScalarExpr, or None for an
    operator expression, whose reflected method does the arithmetic."""
    if isinstance(value, ScalarExpr):
        return value
    from .qexpr import QExpr

    return None if isinstance(value, QExpr) else ScalarExpr.number(value)


def _merge_pow(f1, f2, keyfn):
    """Merge two sorted power products, adding exponents of equal atoms."""
    if not f1:
        return f2
    if not f2:
        return f1
    merged: dict = {}
    for entry in f1:
        merged[entry[:-1]] = merged.get(entry[:-1], 0) + entry[-1]
    for entry in f2:
        merged[entry[:-1]] = merged.get(entry[:-1], 0) + entry[-1]
    out = [(*atom, n) for atom, n in merged.items()]
    out.sort(key=keyfn)
    return tuple(out)


_ZERO = ScalarExpr(())
_ONE = ScalarExpr(((CR_ONE, (), ()),))
I_UNIT = ScalarExpr(((CR_I, (), ()),))


def parameters(names: str, real: bool = True) -> tuple[ScalarExpr, ...]:
    """Declare parameters from a whitespace-separated name list."""
    return tuple(ScalarExpr.from_parameter(Parameter(n, real))
                 for n in names.split())
