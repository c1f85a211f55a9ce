"""Deterministic text and LaTeX rendering of expressions.

The text form is what fixture tests compare and what the CLI dump prints:
creation is a trailing apostrophe (``a'``), transitions append their level
labels (``σge``), conjugated occurrences print as the adjoint product, and
delayed-time factors of a correlation variable are tagged ``(t+τ)`` / ``(t)``.
"""

from __future__ import annotations

from fractions import Fraction

from .averages import AverageSymbol
from .operators import CREATE, DESTROY
from .scalars import ComplexRational, ScalarExpr


def _frac(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    sign = "-" if q < 0 else ""
    return f"{sign}\\frac{{{abs(q.numerator)}}}{{{q.denominator}}}"


def join_signed(pieces) -> str:
    """Printed terms joined by `` + `` and `` - ``, or 0 for none."""
    if not pieces:
        return "0"
    return pieces[0] + "".join(f" - {piece[1:]}" if piece.startswith("-")
                               else f" + {piece}" for piece in pieces[1:])


def scaled(coeff: str, body: str, sep: str = "*") -> str:
    """A printed coefficient times a printed body: a unit coefficient prints
    as a sign, and an empty body leaves the coefficient."""
    if not body:
        return coeff
    if coeff == "1":
        return body
    if coeff == "-1":
        return "-" + body
    return f"{coeff}{sep}{body}"


def render_coefficient(c: ComplexRational) -> str:
    if not c.im:
        return _frac(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        body = _frac(c.im)
        return f"({body})i" if c.im.denominator != 1 else f"{body}i"
    return f"({_frac(c.re)}{'+' if c.im > 0 else '-'}{_frac(abs(c.im))}i)"


def render_op(op) -> str:
    if op.is_frozen:
        return "*".join(render_op(o) for o in op.ops)
    if op.kind == CREATE:
        return op.name + "'"
    if op.kind == DESTROY:
        return op.name
    return f"{op.name}{op.i_label}{op.j_label}"


def render_ops(ops) -> str:
    return "*".join(render_op(op) for op in ops)


def render_average(sym: AverageSymbol) -> str:
    if sym.is_correlation:
        tau = render_ops(sym.ops) + "(t+τ)*" if sym.ops else ""
        return f"⟨{tau}{render_ops(sym.b_ops)}(t)⟩"
    return f"⟨{render_ops(sym.factors)}⟩"


def _render_term(coeff: ComplexRational, params, avgs) -> str:
    factors = []
    for p, conjd, n in params:
        base = f"conj({p.name})" if conjd else p.name
        factors.append(base if n == 1 else f"{base}^{n}")
    for s, n in avgs:
        base = render_average(s)
        factors.append(base if n == 1 else f"{base}^{n}")
    return scaled(render_coefficient(coeff), "*".join(factors))


def render_scalar(x: ScalarExpr) -> str:
    return join_signed([_render_term(*term) for term in x.terms])


def render_qexpr(x) -> str:
    pieces = []
    for ops, coeff in x.terms:
        c = render_scalar(coeff)
        pieces.append(scaled(c if len(coeff.terms) == 1 else f"({c})",
                             render_ops(ops)))
    return join_signed(pieces)


# -- LaTeX ------------------------------------------------------------------


def latex_op(op) -> str:
    if op.is_frozen:
        return " ".join(latex_op(o) for o in op.ops)
    if op.kind == CREATE:
        return f"{op.name}^\\dagger"
    if op.kind == DESTROY:
        return op.name
    return f"{{{op.name}}}^{{{op.i_label}{op.j_label}}}"


def latex_average(sym: AverageSymbol) -> str:
    if sym.is_correlation:
        tau = " ".join(latex_op(o) for o in sym.ops)
        tagged = f"{tau}(t+\\tau)\\," if sym.ops else ""
        b = " ".join(latex_op(o) for o in sym.b_ops)
        return f"\\langle {tagged}{b}(t) \\rangle"
    return f"\\langle {' '.join(latex_op(o) for o in sym.factors)} \\rangle"


def latex_coefficient(c: ComplexRational) -> str:
    if not c.im:
        return _frac_latex(c.re)
    if not c.re:
        if c.im == 1:
            return "i"
        if c.im == -1:
            return "-i"
        return f"{_frac_latex(c.im)} i"
    return f"\\left({_frac_latex(c.re)} {'+' if c.im > 0 else '-'} {_frac_latex(abs(c.im))} i\\right)"


def latex_scalar(x: ScalarExpr) -> str:
    pieces = []
    for coeff, params, avgs in x.terms:
        factors = []
        for p, conjd, n in params:
            base = f"{p.name}^*" if conjd else p.name
            factors.append(base if n == 1 else f"{base}^{{{n}}}")
        for s, n in avgs:
            base = latex_average(s)
            factors.append(base if n == 1 else f"{base}^{{{n}}}")
        pieces.append(scaled(latex_coefficient(coeff), " ".join(factors), " "))
    return join_signed(pieces)
