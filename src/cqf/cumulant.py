"""Joint cumulants and the moment expansion that closes average hierarchies.

The joint cumulant of an operator product is a sum over all set partitions
of its factors; assuming it vanishes above a chosen order expresses each
high-order average through products of lower-order ones.  Applying that
substitution recursively until every surviving average is within order is
what turns the infinite moment hierarchy into a closed system.

Sign conventions are pinned by the explicit third-order identity

    <X1 X2 X3> = <X1X2><X3> + <X1X3><X2> + <X1><X2X3> - 2<X1><X2><X3>,

i.e. a partition with b blocks enters the expansion with (b-1)! (-1)^b and
the cumulant itself with (b-1)! (-1)^(b-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra.averages import AverageSymbol, average_symbol, correlation_symbol
from .algebra.operators import FrozenOp
from .algebra.qexpr import normalize_sequence
from .algebra.scalars import ScalarExpr
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


def _keeps(filt, sym: AverageSymbol) -> bool:
    return True if filt is None else filt.keep(sym)


def _average_of_product(factors) -> ScalarExpr:
    """Average of a factor subsequence, re-normalized before symbol creation.

    Subsequences of canonical products are canonical again, so this is a
    safety net rather than real rewriting; it guarantees the expansion can
    only ever emit canonical averages.
    """
    out = ScalarExpr.zero()
    for coeff, ops in normalize_sequence(None, tuple(factors)):
        if not ops:
            out = out + ScalarExpr.number(coeff)
        elif ops[-1].is_frozen:
            atom = correlation_symbol(ops[:-1], ops[-1].ops)
            out = out + ScalarExpr.from_average(atom) * coeff
        else:
            atom = average_symbol(ops)
            out = out + ScalarExpr.from_average(atom) * coeff
    return out


def _symbol_factors(sym: AverageSymbol) -> tuple:
    if sym.is_correlation:
        return sym.ops + (FrozenOp(sym.b_ops),)
    return sym.ops


def _partition_expansion(factors: tuple, block_value) -> ScalarExpr:
    """Sum over the proper partitions of ``factors``, weighted (b-1)! (-1)^b.

    Each block's average passes through ``block_value`` before the blocks
    of a partition are multiplied.
    """
    total = ScalarExpr.zero()
    for p in set_partitions(len(factors)):
        b = len(p)
        if b == 1:
            continue
        term = ScalarExpr.number(math.factorial(b - 1) * (-1) ** b)
        for block in p:
            term = term * block_value(
                _average_of_product(factors[i] for i in block))
            if term.is_zero:
                break
        total = total + term
    return total


def joint_cumulant(factors) -> ScalarExpr:
    """The partition-sum cumulant of an operator product (all partitions).

    ``factors`` must be the factor sequence of a canonical product; the
    full-sequence average enters with coefficient one.  The cumulant is the
    full average minus its one-step moment expansion.
    """
    factors = tuple(factors)
    if not factors:
        raise AlgebraError("the joint cumulant of an empty product is undefined")
    return _average_of_product(factors) - moment_expansion_once(factors)


def moment_expansion_once(factors) -> ScalarExpr:
    """The vanishing-cumulant substitution applied a single time.

    Expresses the full-sequence average through proper-partition products;
    residual averages are left untouched (no recursion).
    """
    factors = tuple(factors)
    if not factors:
        raise AlgebraError("cannot expand an empty product")
    return _partition_expansion(factors, lambda block_avg: block_avg)


_EXPANSION_CACHE: dict = {}


def clear_expansion_cache():
    _EXPANSION_CACHE.clear()


def expand_average(avg: AverageSymbol, order, filt=None) -> ScalarExpr:
    """Close one average: expand until every residue is within its order.

    Filtered averages are replaced by zero at every recursion level.  A
    conjugated occurrence expands as the conjugate of its representative's
    expansion.
    """
    spec = OrderSpec.of(order)
    if avg.conjugated:
        return expand_average(avg.family, spec, filt).conj()
    key = (avg, spec, filt)
    hit = _EXPANSION_CACHE.get(key)
    if hit is not None:
        return hit
    if not _keeps(filt, avg):
        result = ScalarExpr.zero()
    elif avg.order <= spec.resolve(avg.touched()):
        result = ScalarExpr.from_average(avg)
    else:
        result = _partition_expansion(
            _symbol_factors(avg),
            lambda block_avg: expand_scalar(block_avg, spec, filt))
    _EXPANSION_CACHE[key] = result
    return result


def expand_scalar(x: ScalarExpr, order, filt=None) -> ScalarExpr:
    """Expand every average occurrence inside a scalar expression."""
    spec = OrderSpec.of(order)
    out = ScalarExpr.zero()
    for coeff, params, avgs in x.terms:
        term = ScalarExpr(((coeff, params, ()),))
        for sym, power in avgs:
            e = expand_average(sym, spec, filt)
            if e.is_zero:
                term = ScalarExpr.zero()
                break
            term = term * e**power
        out = out + term
    return out
