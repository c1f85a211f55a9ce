"""Operator equations of motion, averaging, and moment equation sets.

For a system with Hamiltonian H and decay channels (c_n, rate_n), the
adjoint equation of motion of an operator O reads (hbar = 1, white noise
dropped since it does not contribute to averages):

    dO/dt = i [H, O] + sum_n rate_n/2 (2 c_n' O c_n - c_n'c_n O - O c_n'c_n)

Averaging is linear; the resulting c-number equations are expanded to the
requested cumulant order immediately, so no over-order average ever
persists in a stored equation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra.averages import AverageSymbol, average_symbol
from .algebra.operators import touched_subspaces
from .algebra.qexpr import QExpr, adjoint, qmul
from .algebra.render import latex_average, latex_scalar, render_average, render_scalar
from .algebra.scalars import I_UNIT, Parameter, ScalarExpr
from .algebra.spaces import ProductSpace
from .cumulant import OrderSpec, expand_scalar, expansion_memo
from .errors import AlgebraError, SpaceMismatchError
from .symmetry import Symmetry

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class ModelDefinition:
    """A system: product space, Hamiltonian, decay channels, parameters.

    ``operators`` keeps the user-facing names of the fundamental operators
    (used by the CLI and by rendering); it plays no role in derivations.
    """

    space: ProductSpace
    hamiltonian: QExpr
    jumps: tuple[QExpr, ...] = ()
    rates: tuple[ScalarExpr, ...] = ()
    parameters: tuple[Parameter, ...] = ()
    operators: tuple[tuple[str, QExpr], ...] = ()

    def __post_init__(self):
        if self.hamiltonian.space != self.space:
            raise SpaceMismatchError("hamiltonian lives on a different space")
        for c in self.jumps:
            if c.space != self.space:
                raise SpaceMismatchError("jump operator lives on a different space")
        if len(self.jumps) != len(self.rates):
            raise AlgebraError("need exactly one rate per jump operator")
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise AlgebraError("parameter names must be unique within a model")

    @staticmethod
    def create(space, hamiltonian, jumps=(), rates=(), parameters=None,
               operators=()) -> "ModelDefinition":
        """Build a model; parameters are collected from H and rates if omitted."""
        rates = tuple(r if isinstance(r, ScalarExpr) else ScalarExpr.number(r)
                      for r in rates)
        if parameters is None:
            found: dict[str, Parameter] = {}
            for _, coeff in hamiltonian.terms:
                for p in coeff.parameters():
                    found[p.name] = p
            for r in rates:
                for p in r.parameters():
                    found[p.name] = p
            parameters = tuple(found[k] for k in sorted(found))
        return ModelDefinition(space, hamiltonian, tuple(jumps), rates,
                               tuple(parameters), tuple(operators))


def average(x: QExpr) -> ScalarExpr:
    """Convert an operator expression to a c-number expression, linearly.

    Every monomial becomes its average symbol (see :func:`average_symbol`).
    """
    return ScalarExpr.sum(coeff * ScalarExpr.from_average(average_symbol(ops))
                          if ops else coeff for ops, coeff in x.terms)


def qle_rhs(O: QExpr, model: ModelDefinition) -> QExpr:
    """Right-hand side of the operator equation of motion, in canonical form.

    Only the Hamiltonian terms and the jumps that act on a subspace of O
    enter.  Factors on disjoint subspaces commute (there are no fermions),
    so every dropped h gives i[h, O] = 0 and every dropped c gives
    D[c]O = 0 exactly: the result equals the full formula term for term.
    """
    if O.space != model.space:
        raise SpaceMismatchError("operator lives on a different space than the model")
    if any(ops and ops[-1].is_frozen for ops, _ in O.terms):
        raise AlgebraError("nothing may be multiplied to the right of a frozen factor")
    support = frozenset().union(*(touched_subspaces(ops) for ops, _ in O.terms))

    def touches(ops) -> bool:
        return not support.isdisjoint(touched_subspaces(ops))

    H = QExpr(model.space, tuple(term for term in model.hamiltonian.terms
                                 if touches(term[0])))
    rhs = (qmul(H, O) + qmul(O, H).scale(-1)).scale(I_UNIT)
    for c, rate in zip(model.jumps, model.rates):
        if not any(touches(ops) for ops, _ in c.terms):
            continue
        cd = adjoint(c)
        cdc = qmul(cd, c)
        sandwich = qmul(qmul(cd, O), c)
        anti = (qmul(cdc, O) + qmul(O, cdc)).scale(_HALF)
        rhs = rhs + (sandwich + anti.scale(-1)).scale(rate)
    return rhs


@dataclass(frozen=True)
class MeanfieldEquation:
    """d<lhs>/dt = rhs, with rhs canonical and closed to the set's order."""

    lhs: AverageSymbol
    rhs: ScalarExpr

    def render(self) -> str:
        return f"d{render_average(self.lhs)}/dt = {render_scalar(self.rhs)}"

    def latex(self) -> str:
        return (f"\\frac{{d}}{{dt}} {latex_average(self.lhs)} &= "
                f"{latex_scalar(self.rhs)}")


@dataclass(frozen=True)
class EquationSet:
    """An ordered system of moment equations plus the model that produced it.

    Sets loaded from an archive carry only a space-pinning stub model and
    are flagged ``archived``: they can be lowered and integrated but not
    re-derived.  A derived set keeps the :class:`~cqf.symmetry.Symmetry`
    it was derived under, for lowering to pass on; an archived one has none.
    """

    equations: tuple[MeanfieldEquation, ...]
    model: ModelDefinition
    order: OrderSpec
    filter: object = None
    archived: bool = False
    symmetry: Symmetry | None = field(default=None, compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.equations)

    def __iter__(self):
        return iter(self.equations)

    def lhs_families(self) -> tuple[AverageSymbol, ...]:
        return tuple(eq.lhs.family for eq in self.equations)

    def render(self) -> str:
        return "\n".join(eq.render() for eq in self.equations)

    def latex(self) -> str:
        body = " \\\\\n".join(eq.latex() for eq in self.equations)
        return f"\\begin{{align}}\n{body}\n\\end{{align}}"


def derive_equation(ops: tuple, model: ModelDefinition, order,
                    filt=None) -> MeanfieldEquation:
    """One moment equation: average the operator equation, then expand."""
    op_expr = QExpr(model.space, ((tuple(ops), ScalarExpr.one()),))
    rhs = expand_scalar(average(qle_rhs(op_expr, model)), order, filt)
    return MeanfieldEquation(average_symbol(tuple(ops)), rhs)


def by_orbit(derive, group: Symmetry):
    """``derive``, which takes a family, made to take any occurrence and to
    run once per orbit of ``group``, the model's identical subsystems.

    The returned function derives each orbit's representative (see
    :class:`~cqf.symmetry.Symmetry`) and relabels that equation for every
    other member; it keeps the representatives for its own lifetime, and
    each derivation call makes a fresh one.  When the group is trivial,
    every family is its own representative.
    """
    derived: dict = {}

    def derive_occurrence(sym: AverageSymbol) -> MeanfieldEquation:
        perm, moved = group.representative(sym)
        eq = derived.get(moved.family)
        if eq is None:
            eq = derived[moved.family] = derive(moved.family)
        if not perm and not moved.conjugated:
            return eq
        back = {image: k for k, image in perm.items()}
        return MeanfieldEquation(sym, group.relabel(eq.rhs, back, moved.conjugated))

    return derive_occurrence


@expansion_memo()
def meanfield_derive(ops, model: ModelDefinition, order,
                     filt=None) -> EquationSet:
    """Derive moment equations for the given operators.

    Each entry must be a single canonical operator product with unit
    coefficient (sums must be derived per monomial by linearity).  Operators
    whose averages share a representative with one already derived are
    skipped, keeping left-hand sides pairwise distinct.
    """
    spec = OrderSpec.of(order).for_space(model.space)
    group = Symmetry.of(model, spec, filt)
    derive = by_orbit(lambda family: derive_equation(family.ops, model, spec, filt),
                      group)
    seen: set[AverageSymbol] = set()
    equations = []
    for op in ops:
        if not isinstance(op, QExpr):
            raise AlgebraError("expected operator expressions")
        seq = op.monomial_ops()
        if not seq:
            raise AlgebraError("the identity has trivial dynamics; nothing to derive")
        sym = average_symbol(seq)
        if sym.family in seen:
            continue
        seen.add(sym.family)
        equations.append(derive(sym))
    return EquationSet(tuple(equations), model, spec, filt, symmetry=group)
