"""Commutative scalar expressions with exact complex-rational coefficients.

A scalar expression is a normalized sum of terms; each term multiplies an
exact Gaussian-rational coefficient, a monomial in named parameters, and a
monomial in average symbols.  Two terms never share the same monomial
signature and zero terms are dropped, so equal expressions compare equal
structurally.  Floating point enters only through :meth:`ScalarExpr.evaluate`.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import AlgebraError, EvaluationError
from .averages import AverageSymbol


class ComplexRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        return ComplexRational(self.re * other.re - self.im * other.im,
                               self.re * other.im + self.im * other.re)

    def __neg__(self) -> "ComplexRational":
        return ComplexRational(-self.re, -self.im)

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.re, -self.im)

    def scale(self, q: Fraction) -> "ComplexRational":
        return ComplexRational(self.re * q, self.im * q)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        return (isinstance(other, ComplexRational)
                and self.re == other.re and self.im == other.im)

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re}, {self.im})"


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
        items = [(coeff, params, avgs)
                 for (params, avgs), coeff in d.items() if not coeff.is_zero]
        items.sort(key=_term_sort_key)
        return ScalarExpr(tuple(items))

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
        other = ScalarExpr.number(other)
        d = {(params, avgs): coeff for coeff, params, avgs in self.terms}
        for coeff, params, avgs in other.terms:
            key = (params, avgs)
            prev = d.get(key)
            d[key] = coeff if prev is None else prev + coeff
        return ScalarExpr._from_dict(d)

    __radd__ = __add__

    def __sub__(self, other) -> "ScalarExpr":
        return self + (-ScalarExpr.number(other))

    def __rsub__(self, other) -> "ScalarExpr":
        return ScalarExpr.number(other) + (-self)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(tuple((-c, params, avgs) for c, params, avgs in self.terms))

    def __mul__(self, other) -> "ScalarExpr":
        from .qexpr import QExpr

        if isinstance(other, QExpr):
            return NotImplemented
        other = ScalarExpr.number(other)
        if self.is_zero or other.is_zero:
            return _ZERO
        d: dict = {}
        for c1, p1, a1 in self.terms:
            for c2, p2, a2 in other.terms:
                key = (_merge_pow(p1, p2, _param_key), _merge_pow(a1, a2, _avg_key))
                coeff = c1 * c2
                prev = d.get(key)
                d[key] = coeff if prev is None else prev + coeff
        return ScalarExpr._from_dict(d)

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
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    def conj(self) -> "ScalarExpr":
        d: dict = {}
        for coeff, params, avgs in self.terms:
            new_params = tuple(sorted(((p, (not c) if not p.real else False, n)
                                       for p, c, n in params), key=_param_key))
            new_avgs = tuple(sorted(((s.conj(), n) for s, n in avgs), key=_avg_key))
            key = (new_params, new_avgs)
            cc = coeff.conjugate()
            prev = d.get(key)
            d[key] = cc if prev is None else prev + cc
        return ScalarExpr._from_dict(d)

    # -- evaluation and substitution ---------------------------------------

    def evaluate(self, params: dict | None = None,
                 averages: dict | None = None) -> complex:
        """Fold to a complex float; exact arithmetic is kept per-term until the end.

        ``params`` maps parameter names to values, ``averages`` maps average
        *families* (unconjugated symbols) to values.  Average values may be
        numpy arrays, which evaluates the expression elementwise.
        """
        params = params or {}
        averages = averages or {}
        total = 0j
        for coeff, pfac, afac in self.terms:
            total += term_value(coeff, pfac, afac, params, averages)
        return total

    def substitute(self, avg_map: dict) -> "ScalarExpr":
        """Replace average families by scalar expressions.

        Conjugated occurrences of a mapped family receive the conjugate of
        the replacement.  Unmapped symbols are kept.
        """
        out = _ZERO
        for coeff, pfac, afac in self.terms:
            term = ScalarExpr(((coeff, pfac, ()),))
            for s, n in afac:
                rep = avg_map.get(s.family)
                if rep is None:
                    factor = ScalarExpr.from_average(s)
                else:
                    factor = ScalarExpr.number(rep) if not isinstance(rep, ScalarExpr) else rep
                    if s.conjugated:
                        factor = factor.conj()
                term = term * factor**n
            out = out + term
        return out


def term_value(coeff: ComplexRational, pfac, afac, params: dict,
               averages: dict):
    """Value of one term: coefficient times parameter and average monomials.

    ``pfac`` holds ``(Parameter, conjugated, power)`` and ``afac`` holds
    ``(AverageSymbol, power)``, the layout of :class:`ScalarExpr` terms.
    ``params`` maps parameter names to numbers; ``averages`` maps average
    families to numbers or numpy arrays, which pass through uncoerced.
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
        v = averages[fam]
        if s.conjugated:
            v = v.conjugate()
        val *= v**n
    return val


def _param_key(entry):
    p, c, _ = entry
    return (p.name, c)


def _avg_key(entry):
    s, _ = entry
    return s.sort_key


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


def scalar_normalize(x: ScalarExpr) -> ScalarExpr:
    """Re-normalize an expression (idempotent; construction already normalizes)."""
    d: dict = {}
    for coeff, params, avgs in x.terms:
        key = (params, avgs)
        prev = d.get(key)
        d[key] = coeff if prev is None else prev + coeff
    return ScalarExpr._from_dict(d)


def scalar_evaluate(x: ScalarExpr, params: dict | None = None,
                    averages: dict | None = None) -> complex:
    return x.evaluate(params, averages)
