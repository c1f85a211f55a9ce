"""Lowering closed equation systems to executable derivative programs.

A lowered program maps (state vector, parameter bindings, time) to the
vector of derivatives.  The state holds one complex entry per equation, in
equation order; conjugated occurrences compile to conjugated reads of the
representative's entry, so conjugate averages never occupy state of their
own.  Parameters bind at call time, not lowering time: one lowering serves
a whole parameter sweep.

Each right-hand side flattens into a term table (coefficient, parameter
monomial, state reads, external constant reads), the only numeric form of a
right-hand side.  :meth:`RHSProgram.coefficients` folds the exact
coefficient, the parameter monomial and the external constants to one
complex number per term (folds are shared between identical coefficient
patterns).  Binding compiles the folded table into a derivative: generated
Python source for small systems, grouped vectorized gathers for large ones.
The steady-state linearization of correlation systems scatters the same
folded table into a matrix and a drive vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..algebra.averages import AverageSymbol
from ..algebra.render import render_average
from ..algebra.scalars import term_value
from ..errors import ClosureError, EvaluationError
from ..meanfield import EquationSet

CODEGEN_TERM_LIMIT = 4000


@dataclass(frozen=True)
class LoweredTerm:
    equation: int
    coeff: object                      # ComplexRational
    param_factors: tuple               # ((Parameter, conjugated, power), ...)
    state_factors: tuple               # ((state index, conjugated, power), ...)
    external_factors: tuple            # ((average symbol, power), ...)


@dataclass(frozen=True)
class RHSProgram:
    layout: tuple[AverageSymbol, ...]
    parameters: tuple[str, ...]
    external: tuple[AverageSymbol, ...]
    terms: tuple[LoweredTerm, ...]

    @property
    def size(self) -> int:
        return len(self.layout)

    def index_of(self, sym: AverageSymbol) -> int:
        fam = sym.family
        for k, lhs in enumerate(self.layout):
            if lhs.family == fam:
                return k
        raise ClosureError(f"symbol {render_average(sym)} is not in the state layout")

    def coefficients(self, params: dict | None = None,
                     constants: dict | None = None) -> np.ndarray:
        """Fold each term's coefficient, parameters and external constants
        to one complex number, in term order."""
        params = dict(params or {})
        missing = [p for p in self.parameters if p not in params]
        if missing:
            raise EvaluationError(
                "unbound parameters: " + ", ".join(sorted(missing))
            )
        constants = {s.family: complex(v) for s, v in (constants or {}).items()}
        missing_c = [s for s in self.external if s not in constants]
        if missing_c:
            raise ClosureError(
                "unbound steady/frozen averages: "
                + ", ".join(render_average(s) for s in missing_c)
            )
        coeffs = np.empty(len(self.terms), dtype=np.complex128)
        fold_cache: dict = {}
        for k, term in enumerate(self.terms):
            key = (term.coeff, term.param_factors, term.external_factors)
            val = fold_cache.get(key)
            if val is None:
                val = fold_cache[key] = term_value(
                    term.coeff, term.param_factors, term.external_factors,
                    params, constants)
            coeffs[k] = val
        return coeffs

    def bind(self, params: dict | None = None,
             constants: dict | None = None) -> "BoundRHS":
        """Fold parameters and external constants into a callable derivative."""
        return BoundRHS(self, self.coefficients(params, constants))


class BoundRHS:
    """A derivative function with parameters folded in.

    Callable as ``f(t, y) -> ydot``; the state and result are complex
    vectors of the program's size.
    """

    def __init__(self, program: RHSProgram, coeffs: np.ndarray):
        self.program = program
        self.size = program.size
        self._coeffs = coeffs
        if len(program.terms) <= CODEGEN_TERM_LIMIT:
            self._call = _compile_source(program, coeffs)
        else:
            self._call = _compile_vector(program, coeffs)

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return self._call(t, y)


def _compile_source(program: RHSProgram, coeffs: np.ndarray):
    # Plain-Python complex arithmetic with literal coefficients beats numpy
    # scalar dispatch by a wide margin at these sizes.
    n = program.size
    exprs = {k: [] for k in range(n)}
    for k, term in enumerate(program.terms):
        factors = [repr(complex(coeffs[k]))]
        for idx, conjd, power in term.state_factors:
            ref = f"w[{idx}]" if conjd else f"v[{idx}]"
            factors.extend([ref] * power)
        exprs[term.equation].append("*".join(factors))
    lines = ["def rhs(t, y, empty=empty):"]
    lines.append("    v = y.tolist()")
    needs_conj = any(conjd for term in program.terms
                     for _, conjd, _ in term.state_factors)
    if needs_conj:
        lines.append("    w = [x.conjugate() for x in v]")
    lines.append(f"    out = empty({n})")
    for k in range(n):
        body = " + ".join(exprs[k]) if exprs[k] else "0j"
        lines.append(f"    out[{k}] = {body}")
    lines.append("    return out")
    source = "\n".join(lines)
    namespace = {"empty": lambda m: np.empty(m, dtype=np.complex128)}
    exec(compile(source, "<lowered-rhs>", "exec"), namespace)
    fn = namespace["rhs"]
    fn.source = source
    return fn


def _compile_vector(program: RHSProgram, coeffs: np.ndarray):
    n = program.size
    groups: dict[int, list] = {}
    for k, term in enumerate(program.terms):
        m = sum(p for _, _, p in term.state_factors)
        groups.setdefault(m, []).append((k, term))
    compiled = []
    for m in sorted(groups):
        entries = groups[m]
        cs = np.array([coeffs[k] for k, _ in entries], dtype=np.complex128)
        eq_idx = np.array([t.equation for _, t in entries], dtype=np.intp)
        # Factor reads index into z = [y, conj(y)]: offset by n when conjugated.
        reads = np.empty((m, len(entries)), dtype=np.intp)
        for col, (_, term) in enumerate(entries):
            flat = []
            for idx, conjd, power in term.state_factors:
                flat.extend([idx + (n if conjd else 0)] * power)
            for row in range(m):
                reads[row, col] = flat[row]
        compiled.append((cs, eq_idx, reads))

    def rhs(t, y):
        z = np.concatenate((y, y.conjugate()))
        out = np.zeros(n, dtype=np.complex128)
        for cs, eq_idx, reads in compiled:
            vals = cs.copy()
            for row in range(reads.shape[0]):
                vals *= z[reads[row]]
            np.add.at(out, eq_idx, vals)
        return out

    return rhs


def lower(eqs: EquationSet, external=()) -> RHSProgram:
    """Flatten a closed equation set into a derivative program.

    ``external`` lists average families supplied as constants at bind time
    (used by steady-state correlation systems); any other unknown symbol on
    a right-hand side is a closure error.
    """
    layout = tuple(eq.lhs for eq in eqs.equations)
    index: dict[AverageSymbol, int] = {}
    for k, lhs in enumerate(layout):
        index[lhs.family] = k
    external = tuple(s.family for s in external)
    external_set = set(external)

    missing: set[str] = set()
    terms: list[LoweredTerm] = []
    param_names: set[str] = set()
    for eq_no, eq in enumerate(eqs.equations):
        # rhs was derived for the stored lhs orientation already, so the
        # equation is used as-is; only factor reads resolve orientations
        for coeff, pfac, afac in eq.rhs.terms:
            state_factors = []
            external_factors = []
            ok = True
            for sym, power in afac:
                fam = sym.family
                k = index.get(fam)
                if k is not None:
                    lhs = layout[k]
                    conj_needed = sym.conjugated != lhs.conjugated
                    state_factors.append((k, conj_needed, power))
                elif fam in external_set:
                    external_factors.append((sym, power))
                else:
                    missing.add(render_average(fam))
                    ok = False
            if not ok:
                continue
            for p, _, _ in pfac:
                param_names.add(p.name)
            terms.append(LoweredTerm(eq_no, coeff, pfac,
                                     tuple(state_factors),
                                     tuple(external_factors)))
    if missing:
        raise ClosureError(
            "equation set is not closed; missing equations for: "
            + ", ".join(sorted(missing))
        )
    return RHSProgram(layout, tuple(sorted(param_names)), external, tuple(terms))


def state_mapping(layout, y) -> dict:
    """Map average families to values given a state vector.

    Stored orientations are resolved: if an equation stores the conjugated
    occurrence of its representative, the family value is the conjugate of
    the state entry.
    """
    out = {}
    for lhs, value in zip(layout, y):
        out[lhs.family] = complex(value).conjugate() if lhs.conjugated else complex(value)
    return out


def initial_state(layout, values: dict | None = None) -> np.ndarray:
    """Zero state with per-average overrides.

    ``values`` maps average symbols (any orientation) to initial values;
    the override is stored in the orientation of the layout entry.
    """
    y0 = np.zeros(len(layout), dtype=np.complex128)
    if not values:
        return y0
    index = {lhs.family: (k, lhs.conjugated) for k, lhs in enumerate(layout)}
    for sym, value in values.items():
        fam = sym.family
        if fam not in index:
            raise ClosureError(
                f"initial value given for {render_average(sym)}, which is not "
                "in the state layout"
            )
        k, stored_conj = index[fam]
        v = complex(value)
        if sym.conjugated != stored_conj:
            v = v.conjugate()
        y0[k] = v
    return y0
