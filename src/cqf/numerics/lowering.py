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
patterns).  Binding turns the folded table into a derivative that gathers
every term's state reads, multiplies them into the coefficients and sums
each equation's terms, with one kernel for every system size.  The
Jacobian reuses the same reads, so the Newton steady state and the
steady-state linearization of correlation systems read the same table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algebra.averages import AverageSymbol, family_values
from ..algebra.render import render_average
from ..algebra.scalars import term_value
from ..errors import ClosureError, EvaluationError
from ..meanfield import EquationSet

_ONE = np.ones(1, dtype=np.complex128)
_ONE.flags.writeable = False


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
    symmetry: object = field(default=None, compare=False, repr=False)

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
        constants = family_values(constants or {})
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
                try:
                    val = fold_cache[key] = term_value(
                        term.coeff, term.param_factors, term.external_factors,
                        params, constants)
                except EvaluationError as err:
                    lhs = render_average(self.layout[term.equation])
                    raise EvaluationError(f"in the equation of {lhs}: {err}") from None
            coeffs[k] = val
        return coeffs

    def bind(self, params: dict | None = None,
             constants: dict | None = None) -> "BoundRHS":
        """Fold parameters and external constants into a callable derivative."""
        return BoundRHS(self, self.coefficients(params, constants))


class BoundRHS:
    """A derivative function with parameters folded in.

    Callable as ``f(t, y) -> ydot``; the state and result are complex
    vectors of the program's size.  Every term reads its state factors from
    ``z = [y, conj(y), 1]``: a conjugated read of entry ``k`` reads
    ``z[k + n]``, a power ``p`` is ``p`` reads, and every term is padded
    with reads of the trailing 1 to the largest degree (at least one read).
    A call multiplies the coefficients by one row of reads per degree and
    sums each equation's contiguous segment of terms; an equation without
    terms gets one zero term, so every segment is non-empty.  Each call
    allocates its own buffers, so one bound program may be shared across
    threads.  A program lowered from a set with identical subsystems also
    has a derivative over one entry per orbit, :meth:`orbits`.
    """

    def __init__(self, program: RHSProgram, coeffs: np.ndarray):
        self.program = program
        self.size = n = program.size
        self._folded = coeffs
        self._orbits = None
        segments = [[] for _ in range(n)]
        for term, coeff in zip(program.terms, coeffs):
            reads = [idx + n * conjd for idx, conjd, power in term.state_factors
                     for _ in range(power)]
            segments[term.equation].append((coeff, reads))
        terms = [term for segment in segments for term in segment or [(0j, [])]]
        degree = max([1, *(len(reads) for _, reads in terms)])
        self._coeffs = np.array([coeff for coeff, _ in terms], dtype=np.complex128)
        self._rows = tuple(
            np.array([reads[r] if r < len(reads) else 2 * n for _, reads in terms],
                     dtype=np.intp)
            for r in range(degree))
        sizes = np.array([max(1, len(segment)) for segment in segments],
                         dtype=np.intp)
        self._starts = np.cumsum(sizes) - sizes
        self._sizes = sizes
        self._scatter = None

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        z = np.concatenate((y, y.conjugate(), _ONE))
        vals = self._coeffs * z[self._rows[0]]
        for row in self._rows[1:]:
            vals *= z[row]
        return np.add.reduceat(vals, self._starts)

    def orbits(self) -> "Orbits | None":
        """The derivative over one entry per orbit of the program's
        :class:`~cqf.symmetry.Symmetry`, built on first use; None where
        the group is trivial or a representative is not an entry."""
        if self._orbits is None:
            self._orbits = Orbits.of(self.program, self._folded) or False
        return self._orbits or None

    def jacobian(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.size
        if self._scatter is None:
            # flat (equation, column) cell of every read, padding reads
            # dropped; built on first use, so that binding never pays for it
            # (concurrent first calls build equal tables)
            equation = np.repeat(np.arange(n), self._sizes)
            cells = np.concatenate([equation * 2 * n + row for row in self._rows])
            keep = np.concatenate(self._rows) < 2 * n
            self._scatter = (cells[keep], keep)
        cells, keep = self._scatter
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
        vals = np.concatenate(parts)[keep]
        jac = (np.bincount(cells, vals.real, 2 * n * n)
               + 1j * np.bincount(cells, vals.imag, 2 * n * n)).reshape(n, 2 * n)
        return jac[:, :n], jac[:, n:]


class Orbits:
    """A bound derivative ``f`` over the orbit representatives of a layout,
    whose entry k is ``f``'s entry ``gather[k]``, conjugated where ``flip``
    lists k.  A representative's equation reads each average as its
    representative's occurrence, equal reads merged: exact where :meth:`fits`.
    """

    def __init__(self, f, reps, gather, flip, real):
        self.f, self.reps, self.gather = f, reps, gather
        self.flip, self.real = np.flatnonzero(flip), real

    @staticmethod
    def of(program: RHSProgram, coeffs) -> "Orbits | None":
        group, layout = program.symmetry, program.layout
        if group is None or not group.blocks:
            return None
        index = {lhs.family: k for k, lhs in enumerate(layout)}
        moved = [group.representative(lhs)[1] for lhs in layout]
        if not moved or any(m.family not in index for m in moved):
            return None
        rep = [index[m.family] for m in moved]
        flip = [m.conjugated != layout[r].conjugated for m, r in zip(moved, rep)]
        reps = sorted(set(rep))
        at = {r: n for n, r in enumerate(reps)}
        merged: dict = {}
        for term, c in zip(program.terms, coeffs):
            if term.equation in at:
                reads = tuple(sorted((at[rep[k]], conj != flip[k], 1) for k, conj, power
                                     in term.state_factors for _ in range(power)))
                key = (at[term.equation], term.param_factors, reads, term.external_factors)
                old = merged.get(key)
                merged[key] = ((term.coeff, c) if old is None
                               else (old[0] + term.coeff, old[1] + c))
        terms = tuple(LoweredTerm(eq, coeff, pfac, sfac, efac) for
                      (eq, pfac, sfac, efac), (coeff, _) in merged.items())
        reduced = RHSProgram(tuple(layout[r] for r in reps), program.parameters,
                             program.external, terms)
        f = BoundRHS(reduced, [value for _, value in merged.values()])
        real = [n for n, r in enumerate(reps) if group.self_conjugate(layout[r])]
        return Orbits(f, np.array(reps), np.array([at[r] for r in rep]), flip, real)

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
    index = {lhs.family: k for k, lhs in enumerate(layout)}
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
                    state_factors.append(
                        (k, sym.conjugated != layout[k].conjugated, power))
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
    return RHSProgram(layout, tuple(sorted(param_names)), external, tuple(terms),
                      eqs.symmetry)


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
