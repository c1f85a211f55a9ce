"""Noncommutative operator polynomials in normal-ordered canonical form.

Multiplication applies the fundamental rewrite rules eagerly:

* disjoint-subspace factors commute (sequences sort by ascending subspace),
* within a bosonic mode, ``a a' -> a' a + 1`` until creation precedes
  annihilation,
* transition products contract, ``s_ij s_kl -> delta_jk s_il``,
* the ground-level projector never survives; it is replaced via the
  completeness relation by ``1 - sum of the other projectors``.

Rewriting before any averaging is essential: expanding an unordered product
in cumulants gives wrong closures (the ordering constant would be lost).
"""

from __future__ import annotations

from ..errors import AlgebraError, SpaceMismatchError
from .operators import (CREATE, DESTROY, TRANSITION, FundamentalOp,
                        adjoint_sequence, seq_key)
from .scalars import ComplexRational, ScalarExpr, collect
from .spaces import FOCK, NLEVEL, ProductSpace

_ONE_EXPR = ScalarExpr.one()


def _normalize_fock_block(block) -> list:
    """Normal-order a word of ladder operators of one mode.

    Returns ``[(int coefficient, (n_create, n_destroy))]``: the word expands
    into a sum of a'^c a^d monomials with integer weights.
    """
    states = {(0, 0): 1}
    for op in block:
        new: dict = {}
        if op.kind == CREATE:
            for (c, d), w in states.items():
                # a'^c a^d a' = a'^(c+1) a^d + d * a'^c a^(d-1)
                key = (c + 1, d)
                new[key] = new.get(key, 0) + w
                if d:
                    key = (c, d - 1)
                    new[key] = new.get(key, 0) + w * d
        else:
            for (c, d), w in states.items():
                key = (c, d + 1)
                new[key] = new.get(key, 0) + w
        states = new
    return [(w, cd) for cd, w in sorted(states.items())]


def _normalize_nlevel_block(space_factor, block) -> list:
    """Contract a word of transition operators of one discrete subsystem.

    Returns branch list ``[(int coefficient, ops tuple for this subspace)]``;
    the list is empty when the product vanishes.  The ground projector is
    expanded through the completeness relation.
    """
    first = block[0]
    i, j = first.i, first.j
    for op in block[1:]:
        if j != op.i:
            return []
        j = op.j
    g = space_factor.ground_index
    subspace, name = first.subspace, first.name
    if i == g and j == g:
        branches = [(1, ())]
        for m in range(space_factor.dim):
            if m == g:
                continue
            op = FundamentalOp(TRANSITION, subspace, name, m, m,
                               space_factor.levels[m], space_factor.levels[m])
            branches.append((-1, (op,)))
        return branches
    op = FundamentalOp(TRANSITION, subspace, name, i, j,
                       space_factor.levels[i], space_factor.levels[j])
    return [(1, (op,))]


def normalize_sequence(space: ProductSpace, seq) -> list:
    """Rewrite an arbitrary factor sequence into canonical monomials.

    Returns ``[(ComplexRational, ops tuple)]``.
    """
    blocks: dict[int, list] = {}
    for op in seq:
        blocks.setdefault(op.subspace, []).append(op)

    # Expand each subspace block into its branch list.
    branch_lists = []
    for idx in sorted(blocks):
        block = blocks[idx]
        kinds = {op.kind for op in block}
        if TRANSITION in kinds and kinds != {TRANSITION}:
            raise AlgebraError(
                f"mixed ladder/transition operators on subspace {idx}"
            )
        if kinds == {TRANSITION}:
            factor = space.factors[idx]
            if factor.kind != NLEVEL:
                raise AlgebraError(
                    f"transition operator on non-nlevel subspace {idx}"
                )
            branches = _normalize_nlevel_block(factor, block)
            if not branches:
                return []
            # Guard: projector expansion needs level data only from the ops
            # themselves plus the factor, both available here.
            branch_lists.append(branches)
        else:
            name = block[0].name
            idx_ = block[0].subspace
            branches = []
            for w, (c, d) in _normalize_fock_block(block):
                ops = tuple([FundamentalOp(CREATE, idx_, name)] * c
                            + [FundamentalOp(DESTROY, idx_, name)] * d)
                branches.append((w, ops))
            branch_lists.append(branches)

    # Cartesian combination across subspaces, ascending index order.
    results = [(1, ())]
    for branches in branch_lists:
        results = [(w1 * w2, ops1 + ops2)
                   for w1, ops1 in results for w2, ops2 in branches]
    return [(ComplexRational(w), ops) for w, ops in results]


def mul_sequences(space: ProductSpace, s1, s2) -> list:
    """Canonical product of two factor sequences."""
    return normalize_sequence(space, tuple(s1) + tuple(s2))


class QExpr:
    """Normalized sum of scalar-weighted canonical operator monomials."""

    __slots__ = ("space", "terms", "_hash")

    def __init__(self, space: ProductSpace, terms: tuple = ()):
        self.space = space
        self.terms = terms
        self._hash = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _from_dict(space: ProductSpace, acc: dict) -> "QExpr":
        terms = []
        for ops in sorted(acc, key=seq_key):
            coeff = ScalarExpr._from_dict(acc[ops])
            if not coeff.is_zero:
                terms.append((ops, coeff))
        return QExpr(space, tuple(terms))

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomial_ops(self) -> tuple:
        """The factor tuple of a single plain product with unit coefficient."""
        if len(self.terms) != 1:
            raise AlgebraError(
                "expected a single operator product, not a sum; "
                "derive each monomial separately"
            )
        ops, coeff = self.terms[0]
        if coeff != _ONE_EXPR:
            raise AlgebraError(
                "expected an operator product with coefficient one"
            )
        return ops

    def __eq__(self, other) -> bool:
        return (isinstance(other, QExpr) and self.space == other.space
                and self.terms == other.terms)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.space, self.terms))
        return self._hash

    def __repr__(self) -> str:
        from .render import render_qexpr

        return render_qexpr(self)

    # -- arithmetic -------------------------------------------------------

    def _check_space(self, other: "QExpr"):
        if self.space != other.space:
            raise SpaceMismatchError(
                "operators live on different product spaces"
            )

    def __add__(self, other) -> "QExpr":
        if not isinstance(other, QExpr):
            other = identity(self.space) * other
        self._check_space(other)
        acc: dict = {}
        for ops, coeff in self.terms + other.terms:
            collect(acc.setdefault(ops, {}), coeff.terms)
        return QExpr._from_dict(self.space, acc)

    __radd__ = __add__

    def __sub__(self, other) -> "QExpr":
        return self + (-1) * other if isinstance(other, QExpr) else self + (-other)

    def __rsub__(self, other) -> "QExpr":
        return (-1) * self + other

    def __neg__(self) -> "QExpr":
        return (-1) * self

    def scale(self, scalar) -> "QExpr":
        s = ScalarExpr.number(scalar) if not isinstance(scalar, ScalarExpr) else scalar
        if s.is_zero or self.is_zero:
            return QExpr(self.space, ())
        terms = []
        for ops, coeff in self.terms:
            c = coeff * s
            if not c.is_zero:
                terms.append((ops, c))
        return QExpr(self.space, tuple(terms))

    def __mul__(self, other) -> "QExpr":
        if isinstance(other, QExpr):
            return qmul(self, other)
        return self.scale(other)

    def __rmul__(self, other) -> "QExpr":
        return self.scale(other)

    def dag(self) -> "QExpr":
        return adjoint(self)


def identity(space: ProductSpace) -> QExpr:
    return QExpr(space, (((), _ONE_EXPR),))


def zero(space: ProductSpace) -> QExpr:
    return QExpr(space, ())


def qmul(lhs: QExpr, rhs: QExpr) -> QExpr:
    """Canonical operator product; every rewrite rule is applied."""
    lhs._check_space(rhs)
    space = lhs.space
    acc: dict = {}
    for ops1, c1 in lhs.terms:
        for ops2, c2 in rhs.terms:
            coeff = c1 * c2
            if coeff.is_zero:
                continue
            for w, ops in mul_sequences(space, ops1, ops2):
                collect(acc.setdefault(ops, {}), coeff.terms, w)
    return QExpr._from_dict(space, acc)


def adjoint(x: QExpr) -> QExpr:
    """Hermitian adjoint: conjugate coefficients, dagger-reverse factors."""
    acc: dict = {}
    for ops, coeff in x.terms:
        cc = coeff.conj()
        for w, new_ops in normalize_sequence(x.space, adjoint_sequence(ops)):
            collect(acc.setdefault(new_ops, {}), cc.terms, w)
    return QExpr._from_dict(x.space, acc)


def commutator(x: QExpr, y: QExpr) -> QExpr:
    return qmul(x, y) + qmul(y, x).scale(-1)


# -- fundamental operator constructors -------------------------------------


def destroy(space: ProductSpace, name: str, subspace=None) -> QExpr:
    idx = space.only(FOCK) if subspace is None else space.index(subspace)
    if space.factors[idx].kind != FOCK:
        raise AlgebraError(f"subspace {idx} is not a bosonic mode")
    op = FundamentalOp(DESTROY, idx, name)
    return QExpr(space, (((op,), _ONE_EXPR),))


def create(space: ProductSpace, name: str, subspace=None) -> QExpr:
    idx = space.only(FOCK) if subspace is None else space.index(subspace)
    if space.factors[idx].kind != FOCK:
        raise AlgebraError(f"subspace {idx} is not a bosonic mode")
    op = FundamentalOp(CREATE, idx, name)
    return QExpr(space, (((op,), _ONE_EXPR),))


def transition(space: ProductSpace, name: str, i_label: str, j_label: str,
               subspace=None) -> QExpr:
    """|i><j| on a discrete subsystem.

    The ground projector is rewritten immediately, by the completeness
    relation of :func:`normalize_sequence`: asking for |g><g| returns
    ``1 - sum of the remaining projectors``.
    """
    idx = space.only(NLEVEL) if subspace is None else space.index(subspace)
    factor = space.factors[idx]
    if factor.kind != NLEVEL:
        raise AlgebraError(f"subspace {idx} is not a discrete-level system")
    i = factor.level_index(str(i_label))
    j = factor.level_index(str(j_label))
    op = FundamentalOp(TRANSITION, idx, name, i, j,
                       factor.levels[i], factor.levels[j])
    acc: dict = {}
    for w, ops in normalize_sequence(space, (op,)):
        collect(acc.setdefault(ops, {}), _ONE_EXPR.terms, w)
    return QExpr._from_dict(space, acc)
