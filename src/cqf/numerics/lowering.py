"""Lowering closed equation systems to executable derivative programs.

A lowered program maps (state vector, parameter bindings, time) to the
vector of derivatives.  The state holds one complex entry per equation, in
equation order; conjugated occurrences compile to conjugated reads of the
representative's entry, so conjugate averages never occupy state of their
own.  Parameters bind at call time, not lowering time: one lowering serves
a whole parameter sweep.

``lower`` flattens every right-hand side into one term table, the only
numeric form of a right-hand side: each term is a fold (exact coefficient,
parameter monomial and external constants, shared by every term of the
same pattern) times its state reads.  Binding evaluates each fold once;
the derivative gathers every term's reads, multiplies them into the
coefficients and sums each equation's terms, with one kernel for every
system size.  The table's index arrays are built once per program and
shared by every bind and the Jacobian, so the Newton steady state and the
steady-state linearization of correlation systems read the same table.
Identical subsystems are also lowered to one equation per orbit
(:class:`Orbits`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..algebra.averages import AverageSymbol, family_values
from ..algebra.render import render_average
from ..algebra.scalars import CR_ZERO, term_value
from ..errors import ClosureError, EvaluationError
from ..meanfield import EquationSet, MeanfieldEquation

_ONE = np.ones(1, dtype=np.complex128)
_ONE.flags.writeable = False


@dataclass(frozen=True)
class RHSProgram:
    """A term table over ``layout``, and the program over one entry per
    orbit of a set's identical subsystems (``orbits``); both bind at once.

    Term k, in equation order, adds ``folds[terms[k]]`` (a distinct
    (exact coefficient, parameter factors, external factors) triple) times
    ``z[reads[r][k]]`` over every row r to equation ``equation[k]``, where
    ``z = [y, conj(y), 1]``: a conjugated read of entry i is ``i + n``, a
    power p is p reads, and rows a term does not fill read the trailing 1.
    An equation without terms gets one zero term.
    """
    layout: tuple[AverageSymbol, ...]
    parameters: tuple[str, ...]
    external: tuple[AverageSymbol, ...]
    folds: tuple[tuple, ...]
    terms: tuple[int, ...]
    equation: tuple[int, ...]
    reads: tuple[tuple[int, ...], ...]
    orbits: Orbits | None = field(default=None, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.layout)

    @cached_property
    def _index(self) -> tuple:
        """The table as arrays, shared by every bind: each term's fold, the
        read rows, each equation's first term, and the flat (equation,
        column) Jacobian cell of every read kept (padding dropped)."""
        n = self.size
        rows = tuple(np.array(row, dtype=np.intp) for row in self.reads)
        equation = np.array(self.equation, dtype=np.intp)
        cells = np.concatenate([equation * 2 * n + row for row in rows])
        keep = np.concatenate(rows) < 2 * n
        return (np.array(self.terms, dtype=np.intp), rows,
                np.searchsorted(equation, np.arange(n)), cells[keep], keep)

    def index_of(self, sym: AverageSymbol) -> int:
        fam = sym.family
        for k, lhs in enumerate(self.layout):
            if lhs.family == fam:
                return k
        raise ClosureError(f"symbol {render_average(sym)} is not in the state layout")

    def coefficients(self, params: dict | None = None,
                     constants: dict | None = None) -> np.ndarray:
        """Each term's coefficient in term order: every fold's exact
        coefficient, parameters and external constants as one complex
        number, evaluated once."""
        params = dict(params or {})
        missing = [p for p in self.parameters if p not in params]
        if missing:
            raise EvaluationError(
                "unbound parameters: " + ", ".join(sorted(missing))
            )
        constants = family_values(constants or {})
        missing_c = [s for s in self.external if s not in constants]
        if missing_c:
            raise ClosureError(
                "unbound steady/frozen averages: "
                + ", ".join(render_average(s) for s in missing_c)
            )
        values = np.empty(len(self.folds), dtype=np.complex128)
        for k, (coeff, pfac, efac) in enumerate(self.folds):
            try:
                values[k] = term_value(coeff, pfac, efac, params, constants)
            except EvaluationError as err:
                lhs = render_average(self.layout[self.equation[self.terms.index(k)]])
                raise EvaluationError(f"in the equation of {lhs}: {err}") from None
        return values[self._index[0]]

    def bind(self, params: dict | None = None,
             constants: dict | None = None) -> "BoundRHS":
        """Fold parameters and external constants into a callable derivative."""
        orbits = self.orbits and self.orbits.bind(params, constants)
        return BoundRHS(self, self.coefficients(params, constants), orbits)


class BoundRHS:
    """A derivative function with parameters folded in.

    Callable as ``f(t, y) -> ydot``; the state and result are complex
    vectors of the program's size.  A call multiplies the coefficients by
    the program's read rows and sums each equation's terms; the index
    arrays are the program's, so a bind holds only its coefficients.  Each
    call allocates its own buffers, so one bound program may be shared
    across threads.  A program lowered from a set with identical
    subsystems is bound with its orbit program, :meth:`orbits`.
    """

    def __init__(self, program: RHSProgram, coeffs: np.ndarray, orbits: Orbits | None):
        self.program = program
        self.size = program.size
        self._coeffs = coeffs
        _, self._rows, self._starts, self._cells, self._keep = program._index
        self._orbits = orbits

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        z = np.concatenate((y, y.conjugate(), _ONE))
        vals = self._coeffs * z[self._rows[0]]
        for row in self._rows[1:]:
            vals *= z[row]
        return np.add.reduceat(vals, self._starts)

    def orbits(self) -> "Orbits | None":
        """The derivative over one entry per orbit of the set's
        :class:`~cqf.symmetry.Symmetry`, bound with this one; None where
        the group is trivial or a representative is not an entry."""
        return self._orbits

    def jacobian(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, cells = self.size, self._cells
        z = np.concatenate((y, y.conjugate(), _ONE))
        reads = [z[row] for row in self._rows]
        # product of every read but the j-th: prefix times suffix products
        before = [self._coeffs]
        for g in reads[:-1]:
            before.append(before[-1] * g)
        after = np.ones_like(self._coeffs)
        parts = [None] * len(reads)
        for j in range(len(reads) - 1, -1, -1):
            parts[j] = before[j] * after
            after = after * reads[j]
        vals = np.concatenate(parts)[self._keep]
        jac = (np.bincount(cells, vals.real, 2 * n * n)
               + 1j * np.bincount(cells, vals.imag, 2 * n * n)).reshape(n, 2 * n)
        return jac[:, :n], jac[:, n:]


class Orbits:
    """A program ``f`` over the orbit representatives of a layout, bound by
    :meth:`bind`, whose entry k is ``f``'s entry ``gather[k]``, conjugated
    where ``flip`` lists k; an invariant state holds ``real`` entries real.
    ``f`` reads each average as its representative: exact where :meth:`fits`.
    """

    def __init__(self, f, reps, gather, flip, real):
        self.f, self.reps, self.gather, self.flip, self.real = f, reps, gather, flip, real

    def bind(self, params, constants) -> "Orbits":
        return Orbits(self.f.bind(params, constants), self.reps, self.gather,
                      self.flip, self.real)

    def expand(self, states: np.ndarray) -> np.ndarray:
        """Full-layout states from representative states (last axis)."""
        full = states[..., self.gather]
        full[..., self.flip] = full[..., self.flip].conj()
        return full

    def fits(self, y: np.ndarray) -> bool:
        """Whether every permutation leaves the full state ``y`` unchanged."""
        part = y[self.reps]
        return np.array_equal(self.expand(part), y) and not part[self.real].imag.any()


def lower(eqs: EquationSet, external=()) -> RHSProgram:
    """Flatten a closed equation set into a derivative program.

    ``external`` lists average families supplied as constants at bind time
    (used by steady-state correlation systems); any other unknown symbol on
    a right-hand side is a closure error.
    """
    layout = tuple(eq.lhs for eq in eqs.equations)
    n = len(layout)
    index = {lhs.family: k for k, lhs in enumerate(layout)}
    external = tuple(s.family for s in external)
    external_set = set(external)
    missing, param_names, folds = set(), set(), {}
    terms, equation, reads = [], [], []
    for eq_no, eq in enumerate(eqs.equations):
        # rhs was derived for the stored lhs orientation already, so the
        # equation is used as-is; only factor reads resolve orientations
        for coeff, pfac, afac in eq.rhs.terms or ((CR_ZERO, (), ()),):
            state_reads, external_factors = [], []
            for sym, power in afac:
                k = index.get(sym.family)
                if k is not None:
                    conjd = sym.conjugated != layout[k].conjugated
                    state_reads += [k + n * conjd] * power
                elif sym.family in external_set:
                    external_factors.append((sym, power))
                else:
                    missing.add(render_average(sym.family))
            for p, _, _ in pfac:
                param_names.add(p.name)
            terms.append(folds.setdefault((coeff, pfac, tuple(external_factors)),
                                          len(folds)))
            equation.append(eq_no)
            reads.append(state_reads)
    if missing:
        raise ClosureError("equation set is not closed; missing equations for: "
                           + ", ".join(sorted(missing)))
    rows = tuple(tuple(r[d] if d < len(r) else 2 * n for r in reads)
                 for d in range(max([1, *map(len, reads)])))
    return RHSProgram(layout, tuple(sorted(param_names)), external, tuple(folds),
                      tuple(terms), tuple(equation), rows,
                      _orbits(eqs, index, external))


def _orbits(eqs: EquationSet, index: dict, external) -> Orbits | None:
    """The representatives' equations, each average read as its
    representative's occurrence, lowered; None where the set's group is
    trivial or some representative has no equation."""
    group, layout = eqs.symmetry, [eq.lhs for eq in eqs.equations]
    moved = [group.representative(lhs)[1] for lhs in layout] if group.blocks else []
    if not moved or any(m.family not in index for m in moved):
        return None
    rep = [index[m.family] for m in moved]
    reps = sorted(set(rep))
    rhs = [eqs.equations[r].rhs for r in reps]
    to_rep = {s: group.representative(s)[1] for x in rhs for s in x.averages()}
    reduced = [MeanfieldEquation(layout[r], group.relabel(x, to_rep, False))
               for r, x in zip(reps, rhs)]
    flip = [m.conjugated != layout[r].conjugated for m, r in zip(moved, rep)]
    real = [group.self_conjugate(layout[r]) for r in reps]
    program = lower(EquationSet(tuple(reduced), eqs.model, eqs.order, eqs.filter), external)
    return Orbits(program, np.array(reps), np.searchsorted(reps, rep),
                  np.flatnonzero(flip), np.flatnonzero(real))


def state_mapping(layout, y) -> dict:
    """Map average families to values given a state vector.

    Each entry holds the value of the layout's occurrence; the mapping
    holds its family's value.
    """
    return family_values({lhs: complex(value) for lhs, value in zip(layout, y)})


def initial_state(layout, values: dict | None = None) -> np.ndarray:
    """Zero state with per-average overrides.

    ``values`` maps average symbols (any orientation) to initial values;
    the override is stored in the orientation of the layout entry.
    """
    y0 = np.zeros(len(layout), dtype=np.complex128)
    index = {lhs.family: k for k, lhs in enumerate(layout)}
    for fam, value in family_values(values or {}).items():
        if fam not in index:
            raise ClosureError(
                f"initial value given for {render_average(fam)}, which is not "
                "in the state layout"
            )
        k = index[fam]
        y0[k] = layout[k].orient(complex(value))
    return y0
