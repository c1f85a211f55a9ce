"""Automatic completion of moment equation systems.

Every average appearing on a right-hand side needs an equation of its own;
completion keeps deriving the missing ones until the system is closed.
Termination is guaranteed because expansion bounds every surviving average
by the maximum order, and only finitely many canonical products of bounded
length exist over a model's operator alphabet.  The same breadth-first loop,
:func:`close`, also closes the delay systems of two-time correlations, with
their own derive step and their own rule for which averages need equations.

Filter functions (:class:`~cqf.cumulant.FilterFunction`) exclude averages
from the completed system (their occurrences are replaced by zero during
expansion); no filter is ``None``.  The phase-invariant preset keeps only
averages with zero net excitation phase, the selection rule of laser-type
models with a U(1) symmetry.
"""

from __future__ import annotations

from typing import Callable

from .algebra.averages import AverageSymbol
from .cumulant import FILTER_PHASE, FilterFunction, expansion_memo
from .errors import AlgebraError, CapacityError
from .meanfield import EquationSet, MeanfieldEquation, by_orbit, derive_equation
from .symmetry import Symmetry

DEFAULT_EQUATION_CAP = 100_000


def filter_by_name(name: str) -> FilterFunction | None:
    """The preset of that name; ``"none"`` (or nothing) is no filter, None."""
    if name in ("none", "", None):
        return None
    if name == "phase":
        return FILTER_PHASE
    raise AlgebraError(f"unknown filter preset {name!r}")


def _without_equation(equations, known, needs) -> set[AverageSymbol]:
    """Families on the right-hand sides that ``needs`` asks an equation for
    and that ``known`` has none for."""
    return {fam for eq in equations for fam in eq.rhs.average_families()
            if fam not in known and needs(fam)}


def _needs_equation(filt) -> Callable[[AverageSymbol], bool]:
    """The moment-equation rule: every kept single-time average."""
    return lambda fam: not fam.is_correlation and (filt is None or filt.keep(fam))


def missing_averages(eqs: EquationSet) -> set[AverageSymbol]:
    """Representatives occurring on some rhs without an equation of their own."""
    return _without_equation(eqs, set(eqs.lhs_families()),
                             _needs_equation(eqs.filter))


def close(equations, derive: Callable[[AverageSymbol], MeanfieldEquation],
          needs: Callable[[AverageSymbol], bool],
          max_equations: int = DEFAULT_EQUATION_CAP,
          progress: Callable[[int], None] | None = None) -> list[MeanfieldEquation]:
    """Append ``derive(family)`` for every family that ``needs`` an equation
    and has none, breadth-first in sorted rounds, until none is missing."""
    equations = list(equations)
    known = {eq.lhs.family for eq in equations}
    queue = sorted(_without_equation(equations, known, needs))
    while queue:
        next_round: set[AverageSymbol] = set()
        for family in queue:
            if len(equations) >= max_equations:
                raise CapacityError(
                    f"completion exceeded {max_equations} equations; "
                    "raise max_equations if this is intended"
                )
            eq = derive(family)
            equations.append(eq)
            known.add(family)
            if progress is not None:
                progress(len(equations))
            next_round |= _without_equation((eq,), known, needs)
        queue = sorted(next_round - known)
    return equations


@expansion_memo()
def complete(eqs: EquationSet, max_equations: int = DEFAULT_EQUATION_CAP,
             progress: Callable[[int], None] | None = None) -> EquationSet:
    """Close an equation set by deriving every missing average, breadth-first,
    at the set's own order and filter; for another order or filter, complete
    a fresh ``meanfield_derive``.  Identical subsystems are derived once per
    orbit (:func:`~cqf.meanfield.by_orbit`), under the set's own group if
    it has one; the closed set keeps that group.
    """
    if eqs.archived:
        raise AlgebraError(
            "this equation set was loaded from an archive and carries no "
            "model; completion needs the original model file"
        )
    group = eqs.symmetry or Symmetry.of(eqs.model, eqs.order, eqs.filter)
    derive = by_orbit(
        lambda family: derive_equation(family.ops, eqs.model, eqs.order, eqs.filter),
        group)
    equations = close(eqs.equations, derive, _needs_equation(eqs.filter),
                      max_equations, progress)
    return EquationSet(tuple(equations), eqs.model, eqs.order, eqs.filter,
                       symmetry=group)
