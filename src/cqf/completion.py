"""Automatic completion of moment equation systems.

Every average appearing on a right-hand side needs an equation of its own;
completion keeps deriving the missing ones until the system is closed.
Termination is guaranteed because expansion bounds every surviving average
by the maximum order, and only finitely many canonical products of bounded
length exist over a model's operator alphabet.

Filter functions exclude averages from the completed system (their
occurrences are replaced by zero during expansion).  The phase-invariant
preset keeps only averages with zero net excitation phase, the selection
rule of laser-type models with a U(1) symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .algebra.averages import AverageSymbol
from .cumulant import OrderSpec
from .errors import AlgebraError, CapacityError
from .meanfield import EquationSet, derive_equation, meanfield_derive

DEFAULT_EQUATION_CAP = 100_000


@dataclass(frozen=True)
class FilterFunction:
    """Predicate deciding whether an average is kept.

    Must be deterministic and conjugation-symmetric: an average and its
    conjugate are kept or dropped together.  Filters compare by name and
    predicate object, which is how expansion results are cached.
    """

    name: str
    predicate: Callable[[AverageSymbol], bool]

    def keep(self, sym: AverageSymbol) -> bool:
        return self.predicate(sym)


FILTER_NONE = FilterFunction("none", lambda sym: True)

FILTER_PHASE = FilterFunction("phase", lambda sym: sym.phase() == 0)


def filter_by_name(name: str) -> FilterFunction:
    if name in ("none", "", None):
        return FILTER_NONE
    if name == "phase":
        return FILTER_PHASE
    raise AlgebraError(f"unknown filter preset {name!r}")


def _kept(filt, family: AverageSymbol) -> bool:
    return True if filt is None else filt.keep(family)


def _rhs_families(eq) -> set[AverageSymbol]:
    return {s.family for s in eq.rhs.averages() if not s.is_correlation}


def missing_averages(eqs: EquationSet) -> set[AverageSymbol]:
    """Representatives occurring on some rhs without an equation of their own."""
    have = set(eqs.lhs_families())
    missing = set()
    for eq in eqs:
        for fam in _rhs_families(eq):
            if fam not in have and _kept(eqs.filter, fam):
                missing.add(fam)
    return missing


def complete(eqs: EquationSet, order=None, filt="inherit",
             max_equations: int = DEFAULT_EQUATION_CAP,
             progress: Callable[[int], None] | None = None) -> EquationSet:
    """Close an equation set by deriving every missing average, breadth-first.

    Passing a different order or filter than the set was derived with
    re-derives the existing equations under the new settings first, so the
    whole system is expanded consistently.
    """
    if eqs.archived:
        raise AlgebraError(
            "this equation set was loaded from an archive and carries no "
            "model; completion needs the original model file"
        )
    spec = eqs.order if order is None else OrderSpec.of(order)
    active_filter = eqs.filter if filt == "inherit" else filt
    if spec != eqs.order or active_filter is not eqs.filter:
        from .algebra.qexpr import QExpr
        from .algebra.scalars import ScalarExpr
        from .meanfield import lhs_operator_sequence

        seeds = [QExpr(eqs.model.space, ((lhs_operator_sequence(eq.lhs),
                                          ScalarExpr.one()),))
                 for eq in eqs]
        eqs = meanfield_derive(seeds, eqs.model, spec, active_filter)

    equations = list(eqs.equations)
    known = set(eqs.lhs_families())
    queue = sorted(missing_averages(eqs))
    while queue:
        next_round: set[AverageSymbol] = set()
        for family in queue:
            if family in known:
                continue
            if len(equations) >= max_equations:
                raise CapacityError(
                    f"completion exceeded {max_equations} equations; "
                    "raise max_equations if this is intended"
                )
            eq = derive_equation(family.ops, eqs.model, spec, active_filter)
            equations.append(eq)
            known.add(family)
            if progress is not None:
                progress(len(equations))
            for fam in _rhs_families(eq):
                if fam not in known and _kept(active_filter, fam):
                    next_round.add(fam)
        queue = sorted(f for f in next_round if f not in known)
    return EquationSet(tuple(equations), eqs.model, spec, active_filter)
