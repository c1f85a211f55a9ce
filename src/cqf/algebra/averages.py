"""Average symbols: the atoms of the c-number layer.

An average symbol names the expectation value of a canonical operator
product.  Of the conjugate pair {<O>, <O'>} only one member is stored (the
one whose sequence key is smaller); the other is reachable through the
``conjugated`` flag.  Symbols whose product is self-adjoint are their own
conjugate, encoding that their expectation value is real for any valid state.

Correlation symbols carry an additional frozen tail ``b_ops`` (the operator
product pinned at the earlier time).  They are never conjugate-canonicalized:
conjugating <A(t+tau) B(t)> does not yield another delayed-time average of
the same family.

:func:`average_symbol` names the symbol of a factor sequence and
:attr:`AverageSymbol.factors` gives it back; :meth:`AverageSymbol.orient`
relates an occurrence's value to its family's, so every per-average mapping,
read through :func:`family_values`, takes keys in either orientation.
"""

from __future__ import annotations

from ..errors import AlgebraError
from .operators import (FrozenOp, FundamentalOp, adjoint_sequence, seq_key,
                        sequence_phase, touched_subspaces)


class AverageSymbol:
    __slots__ = ("ops", "b_ops", "conjugated", "sort_key", "_hash")

    def __init__(self, ops: tuple[FundamentalOp, ...],
                 conjugated: bool = False,
                 b_ops: tuple[FundamentalOp, ...] | None = None):
        self.ops = ops
        self.b_ops = b_ops
        self.conjugated = conjugated
        self.sort_key = (b_ops is not None, seq_key(ops),
                         seq_key(b_ops) if b_ops is not None else (),
                         conjugated)
        self._hash = hash(self.sort_key)

    def __eq__(self, other) -> bool:
        return isinstance(other, AverageSymbol) and self.sort_key == other.sort_key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        return self.sort_key < other.sort_key

    def __repr__(self) -> str:
        from .render import render_average

        return render_average(self)

    @property
    def is_correlation(self) -> bool:
        return self.b_ops is not None

    @property
    def order(self) -> int:
        """Number of fundamental factors, frozen tail included."""
        return len(self.ops) + (len(self.b_ops) if self.b_ops else 0)

    @property
    def family(self) -> "AverageSymbol":
        """The representative with the conjugation flag cleared."""
        if not self.conjugated:
            return self
        return AverageSymbol(self.ops, False, self.b_ops)

    @property
    def factors(self) -> tuple:
        """The canonical factor sequence whose average this occurrence is.

        The inverse of :func:`average_symbol`: a conjugated occurrence
        averages the adjoint of its representative's product, and a
        correlation variable ends in its frozen earlier-time product.
        """
        if self.b_ops is not None:
            return self.ops + (FrozenOp(self.b_ops),)
        return adjoint_sequence(self.ops) if self.conjugated else self.ops

    @property
    def self_adjoint(self) -> bool:
        return self.b_ops is None and adjoint_sequence(self.ops) == self.ops

    def conj(self) -> "AverageSymbol":
        if self.is_correlation:
            raise AlgebraError(
                "correlation averages have no conjugate representative"
            )
        if self.self_adjoint:
            return self
        return AverageSymbol(self.ops, not self.conjugated)

    def orient(self, value):
        """Turn a family value into this occurrence's value, or back.

        A conjugated occurrence's value is the conjugate of its family's, so
        one call serves both ways.  ``value`` is anything with
        ``conjugate()``: a number, an array or a scalar expression.
        """
        return value.conjugate() if self.conjugated else value

    def phase(self) -> int:
        p = sequence_phase(self.ops)
        if self.b_ops:
            p += sequence_phase(self.b_ops)
        return -p if self.conjugated else p

    def touched(self) -> frozenset[int]:
        sub = touched_subspaces(self.ops)
        if self.b_ops:
            sub = sub | touched_subspaces(self.b_ops)
        return sub


def average_symbol(ops: tuple) -> AverageSymbol:
    """The symbol a canonical factor sequence averages to.

    A frozen last factor makes it the correlation variable of the factors
    before it.  Otherwise the representative is whichever of the sequence
    and its adjoint has the smaller sequence key; if the requested
    orientation is the other one, the returned symbol carries the
    conjugation flag.
    """
    if not ops:
        raise AlgebraError("the identity has no average symbol; it averages to 1")
    if ops[-1].is_frozen:
        return correlation_symbol(ops[:-1], ops[-1].ops)
    adj = adjoint_sequence(ops)
    if seq_key(adj) < seq_key(ops):
        return AverageSymbol(adj, True)
    return AverageSymbol(ops, False)


def correlation_symbol(tau_ops: tuple[FundamentalOp, ...],
                       b_ops: tuple[FundamentalOp, ...]) -> AverageSymbol:
    """Symbol for <tau_ops(t+tau) b_ops(t)>; stored exactly as given.

    An empty ``tau_ops`` denotes the plain earlier-time average <B(t)>,
    constant in the delay; an empty ``b_ops`` freezes the identity.
    """
    return AverageSymbol(tuple(tau_ops), False, tuple(b_ops))


def family_values(values: dict) -> dict:
    """A per-average mapping keyed by families, with family values.

    Keys may be occurrences in either orientation; each value is turned
    into its family's value by :meth:`AverageSymbol.orient`.
    """
    return {sym.family: sym.orient(value) for sym, value in values.items()}
