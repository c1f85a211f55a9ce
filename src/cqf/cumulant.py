"""Joint cumulants and the moment expansion that closes average hierarchies.

The average of an operator product is the sum, over all set partitions of
its factors, of the products of the blocks' joint cumulants.  Assuming the
cumulant vanishes above a chosen order expresses each high-order average
through products of lower-order ones.  Applying that substitution
recursively until every surviving average is within order is what turns
the infinite moment hierarchy into a closed system.

The expansion does not list set partitions (Bell(n) of them for n
factors).  A block is a subsequence of a canonical product, in which equal
factors sit in runs, so its average depends only on how many factors it
takes from each run: its count vector.  The expansion sums over the count
vectors of the block holding the first factor, each weighted by the number
of blocks that share it (P. J. Smith, Am. Stat. 49, 1995), and memoizes
moments and cumulants on count vectors, so its length has no cap; only
``set_partitions``, which does list them, refuses more than
``MAX_PARTITION_SIZE`` elements.

Sign conventions are pinned by the explicit third-order identity

    <X1 X2 X3> = <X1X2><X3> + <X1X3><X2> + <X1><X2X3> - 2<X1><X2><X3>,

i.e. a partition with b blocks enters the expansion with (b-1)! (-1)^b and
the cumulant itself with (b-1)! (-1)^(b-1).

Closed averages are memoized for the length of one derivation only:
``meanfield_derive``, ``complete`` and ``build_correlation_system`` each
run inside an ``expansion_memo`` block, and a bare call opens its own.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable

from .algebra.averages import AverageSymbol, average_symbol
from .algebra.operators import TRANSITION
from .algebra.scalars import ScalarExpr
from .algebra.spaces import ProductSpace
from .errors import AlgebraError, CapacityError

MAX_PARTITION_SIZE = 12

SetPartition = tuple[tuple[int, ...], ...]


def set_partitions(n: int) -> list[SetPartition]:
    """All partitions of {0..n-1}, in first-occurrence (restricted growth) order.

    Blocks are ordered by smallest element and sorted internally; the count
    is the n-th Bell number.
    """
    if n < 1:
        raise AlgebraError("set partitions are defined for n >= 1")
    if n > MAX_PARTITION_SIZE:
        raise CapacityError(
            f"partitions of {n} elements exceed the cap of {MAX_PARTITION_SIZE}"
        )
    out: list[SetPartition] = []
    blocks: list[list[int]] = []

    def rec(i: int):
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            rec(i + 1)
            b.pop()
        blocks.append([i])
        rec(i + 1)
        blocks.pop()

    rec(0)
    return out


@dataclass(frozen=True)
class OrderSpec:
    """Expansion order: either uniform, or one order per product-space factor.

    For an average touching several subspaces the effective order is
    ``reducer`` over the touched entries (maximum by default, so the most
    detailed treatment wins).
    """

    uniform: int | None = None
    per_subspace: tuple[int, ...] | None = None
    reducer: str = "max"

    def __post_init__(self):
        if (self.uniform is None) == (self.per_subspace is None):
            raise AlgebraError("give either a uniform order or a per-subspace vector")
        entries = (self.uniform,) if self.uniform is not None else self.per_subspace
        if any(not isinstance(n, int) or n < 1 for n in entries):
            raise AlgebraError("expansion orders must be integers >= 1")
        if self.reducer not in ("max", "min"):
            raise AlgebraError(f"unknown order reducer {self.reducer!r}")

    @staticmethod
    def of(order) -> "OrderSpec":
        if isinstance(order, OrderSpec):
            return order
        if isinstance(order, int):
            return OrderSpec(uniform=order)
        return OrderSpec(per_subspace=tuple(order))

    def for_space(self, space) -> "OrderSpec":
        """This spec, refused if its per-factor vector does not give one
        order for each factor of ``space``."""
        n = len(space.factors)
        if self.per_subspace is not None and len(self.per_subspace) != n:
            raise AlgebraError(
                f"the order vector has {len(self.per_subspace)} entries but "
                f"the model has {n} factors"
            )
        return self

    @property
    def maximum(self) -> int:
        if self.uniform is not None:
            return self.uniform
        return max(self.per_subspace)

    def resolve(self, touched) -> int:
        if self.uniform is not None:
            return self.uniform
        orders = []
        for s in touched:
            if s >= len(self.per_subspace):
                raise AlgebraError(
                    f"order vector has {len(self.per_subspace)} entries but "
                    f"subspace {s} was touched"
                )
            orders.append(self.per_subspace[s])
        if not orders:
            return self.maximum
        return max(orders) if self.reducer == "max" else min(orders)


@dataclass(frozen=True)
class FilterFunction:
    """Predicate deciding whether an average is kept.

    Must be deterministic and conjugation-symmetric: an average and its
    conjugate are kept or dropped together.  Filters compare by name and
    predicate object; an expansion memo keys on the filter, so same-named
    filters with different predicates never share results.
    """

    name: str
    predicate: Callable[[AverageSymbol], bool]

    def keep(self, sym: AverageSymbol) -> bool:
        return self.predicate(sym)


FILTER_PHASE = FilterFunction("phase", lambda sym: sym.phase() == 0)


def _keeps(filt, sym: AverageSymbol) -> bool:
    return True if filt is None else filt.keep(sym)


def _canonical(factors, space: ProductSpace, empty_message: str) -> tuple:
    """``factors`` as a tuple, refused unless it is a canonical product.

    Canonical means sorted, so normal-ordered and in subspace order, with
    at most one transition per subspace and a frozen factor only at the
    end, and free of ground projectors of ``space``: the algebra rewrites
    those by completeness, so no derived equation set holds their average.
    """
    factors = tuple(factors)
    if not factors:
        raise AlgebraError(empty_message)
    regular = factors[:-1] if factors[-1].is_frozen else factors
    if (any(op.is_frozen for op in regular) or list(regular) != sorted(regular)
            or any(a.subspace == b.subspace and TRANSITION in (a.kind, b.kind)
                   for a, b in zip(regular, regular[1:]))):
        raise AlgebraError(f"{factors} is not a canonical product; "
                           "multiply it out with qmul first")
    for op in regular:
        if (op.kind == TRANSITION
                and op.i == op.j == space.factors[op.subspace].ground_index):
            raise AlgebraError(
                f"{op!r} is the ground projector of "
                f"{space.factors[op.subspace].name!r}; write it as one minus "
                "the other projectors, as transition() does")
    return factors


def _expansion(factors: tuple, block_value) -> ScalarExpr:
    """The average of ``factors`` with their joint cumulant set to zero.

    Blocks are count vectors over the runs of equal factors.  m(u) is
    ``block_value`` of a proper block's average symbol, and the cumulants
    k(u) of proper blocks follow from m(u) = sum over the partitions of u
    of products of cumulants.  With k(v) = 0 for the whole product v,

        m(v) = sum over u holding the first factor, u != v, of
               C(v0 - 1, u0 - 1) * prod_i>0 C(vi, ui) * k(u) * m(v - u),

    where the binomials count the blocks with count vector u.  As a
    polynomial in the block values this is the sum over the proper set
    partitions weighted (b-1)! (-1)^b, so exact arithmetic returns the
    same expression.
    """
    runs = [(op, len(list(group))) for op, group in itertools.groupby(factors)]
    distinct = [op for op, _ in runs]
    moments: dict = {}
    cumulants: dict = {}

    def moment(u) -> ScalarExpr:
        hit = moments.get(u)
        if hit is None:
            block = [op for op, k in zip(distinct, u) for _ in range(k)]
            hit = moments[u] = block_value(average_symbol(tuple(block)))
        return hit

    def cumulant(u) -> ScalarExpr:
        hit = cumulants.get(u)
        if hit is None:
            hit = cumulants[u] = moment(u) - split(u)
        return hit

    def split(v) -> ScalarExpr:
        """m(v) less k(v): the blocks u holding v's first factor, u != v."""
        first = next(i for i, k in enumerate(v) if k)
        ranges = [range(k + 1) for k in v]
        ranges[first] = range(1, v[first] + 1)
        parts = []
        for u in itertools.product(*ranges):
            if u == v:
                continue
            k_u = cumulant(u)
            if k_u.is_zero:
                continue
            rest = moment(tuple(a - b for a, b in zip(v, u)))
            if rest.is_zero:
                continue
            weight = math.comb(v[first] - 1, u[first] - 1) * math.prod(
                map(math.comb, v[first + 1:], u[first + 1:]))
            term = k_u * rest
            parts.append(term if weight == 1 else term * weight)
        return ScalarExpr.sum(parts)

    return split(tuple(k for _, k in runs))


def joint_cumulant(factors, space: ProductSpace) -> ScalarExpr:
    """The partition-sum cumulant of an operator product (all partitions).

    ``factors`` must be the factor sequence of a canonical product on
    ``space``; the full-sequence average enters with coefficient one.  The
    cumulant is the full average minus its one-step moment expansion.
    """
    factors = _canonical(factors, space,
                         "the joint cumulant of an empty product is undefined")
    return (ScalarExpr.from_average(average_symbol(factors))
            - moment_expansion_once(factors, space))


def moment_expansion_once(factors, space: ProductSpace) -> ScalarExpr:
    """The vanishing-cumulant substitution applied a single time.

    Expresses the full-sequence average of a canonical product on ``space``
    through proper-partition products; residual averages are left untouched
    (no recursion).
    """
    factors = _canonical(factors, space, "cannot expand an empty product")
    return _expansion(factors, ScalarExpr.from_average)


# The memo of the innermost ``expansion_memo`` block: each thread, and each
# block, sees its own dict, and none outlives the block that made it.
_MEMO: ContextVar[dict | None] = ContextVar("expansion_memo", default=None)


@contextmanager
def expansion_memo():
    """Share expansion results among the expansions made inside the block.

    Derivations open one around all their equations, so an over-order
    average that occurs in several equations is expanded once.  A nested
    block joins the enclosing one; results never depend on the memo.
    """
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def expand_average(avg: AverageSymbol, order, filt=None) -> ScalarExpr:
    """Close one average: expand until every residue is within its order.

    Filtered averages are replaced by zero at every recursion level.  A
    conjugated occurrence expands as the conjugate of its representative's
    expansion.
    """
    memo = _MEMO.get()
    if memo is None:
        with expansion_memo():
            return expand_average(avg, order, filt)
    spec = OrderSpec.of(order)
    if avg.conjugated:
        return expand_average(avg.family, spec, filt).conj()
    key = (avg, spec, filt)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not _keeps(filt, avg):
        result = ScalarExpr.zero()
    elif avg.order <= spec.resolve(avg.touched()):
        result = ScalarExpr.from_average(avg)
    else:
        result = _expansion(avg.factors,
                            lambda block: expand_average(block, spec, filt))
    memo[key] = result
    return result


def expand_scalar(x: ScalarExpr, order, filt=None) -> ScalarExpr:
    """Expand every average occurrence inside a scalar expression."""
    if _MEMO.get() is None:
        with expansion_memo():
            return expand_scalar(x, order, filt)
    spec = OrderSpec.of(order)
    parts = []
    for coeff, params, avgs in x.terms:
        term = ScalarExpr(((coeff, params, ()),))
        for sym, power in avgs:
            e = expand_average(sym, spec, filt)
            if e.is_zero:
                break
            term = term * e**power
        else:
            parts.append(term)
    return ScalarExpr.sum(parts)
