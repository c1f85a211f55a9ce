"""Fundamental operators and canonical ordering of operator sequences.

Each operator records the subspace it acts on nontrivially; operators on
disjoint subspaces commute, so a canonical sequence is sorted by ascending
subspace index.  Within one bosonic subspace, creation precedes annihilation
(normal order); a discrete subspace carries at most one transition factor.

A :class:`FrozenOp` wraps a whole operator product pinned at an earlier time
for two-time correlation work.  It is opaque to all rewrite rules, sorts
after every regular factor, and therefore stays rightmost in any sequence.
"""

from __future__ import annotations

DESTROY = "destroy"
CREATE = "create"
TRANSITION = "transition"

# Canonical kind ranks: creation < transition < annihilation.
_KIND_RANK = {CREATE: 0, TRANSITION: 1, DESTROY: 2}

_FROZEN_SUBSPACE = 10**9


class FundamentalOp:
    """A single noncommutative factor: a, a' or a transition |i><j|.

    Identity is (subspace, kind, levels): a bosonic subspace carries one
    mode and a discrete subspace one transition family, whatever symbols the
    caller binds them to.  The name is display-only; use one name per
    subspace family for stable rendering.  Transition levels are stored as
    indices in declaration order (which drive the canonical ordering, so the
    first-declared level sorts first) and as labels (which render, and keep
    operators from differently-labelled spaces distinct).
    """

    __slots__ = ("kind", "subspace", "name", "i", "j", "i_label", "j_label",
                 "key", "_hash")

    def __init__(self, kind: str, subspace: int, name: str,
                 i: int = -1, j: int = -1, i_label: str = "", j_label: str = ""):
        self.kind = kind
        self.subspace = subspace
        self.name = name
        self.i = i
        self.j = j
        self.i_label = i_label
        self.j_label = j_label
        self.key = (subspace, _KIND_RANK[kind], i, j, i_label, j_label)
        self._hash = hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FundamentalOp) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        if self.kind == TRANSITION:
            return f"{self.name}{self.i_label}{self.j_label}@{self.subspace}"
        tag = "'" if self.kind == CREATE else ""
        return f"{self.name}{tag}@{self.subspace}"

    @property
    def is_frozen(self) -> bool:
        return False

    def adjoint(self) -> "FundamentalOp":
        if self.kind == DESTROY:
            return FundamentalOp(CREATE, self.subspace, self.name)
        if self.kind == CREATE:
            return FundamentalOp(DESTROY, self.subspace, self.name)
        return FundamentalOp(TRANSITION, self.subspace, self.name,
                             self.j, self.i, self.j_label, self.i_label)

    def phase(self) -> int:
        """Net excitation phase: +1 creation, -1 annihilation, i-j transition."""
        if self.kind == CREATE:
            return 1
        if self.kind == DESTROY:
            return -1
        return self.i - self.j


class FrozenOp:
    """An operator product held fixed at the earlier time of a correlation.

    Rewrite rules never commute or contract it with the delayed-time factors
    to its left.
    """

    __slots__ = ("ops", "key", "_hash")

    def __init__(self, ops: tuple[FundamentalOp, ...]):
        self.ops = ops
        self.key = (_FROZEN_SUBSPACE, 9, -1, -1,
                    tuple(op.key for op in ops))
        self._hash = hash(self.key)

    def __eq__(self, other) -> bool:
        return isinstance(other, FrozenOp) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other) -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        return f"frozen({'*'.join(map(repr, self.ops))})"

    @property
    def subspace(self) -> int:
        return _FROZEN_SUBSPACE

    @property
    def is_frozen(self) -> bool:
        return True

    def phase(self) -> int:
        return sum(op.phase() for op in self.ops)


def seq_key(ops) -> tuple:
    """Total order key for an operator sequence (used for term ordering)."""
    return (len(ops), tuple(op.key for op in ops))


def adjoint_sequence(ops) -> tuple:
    """Adjoint of a canonical monomial; the result is again canonical.

    Reversing and daggering maps each normal-ordered bosonic block
    a'^m a^n to a'^n a^m, and swaps transition labels; re-sorting by
    subspace (stably) restores ascending canonical order without any
    rewriting.  Frozen factors admit no adjoint.
    """
    from ..errors import AlgebraError

    if any(op.is_frozen for op in ops):
        raise AlgebraError("cannot take the adjoint of a frozen-time product")
    daggered = [op.adjoint() for op in reversed(ops)]
    daggered.sort(key=lambda op: op.subspace)
    return tuple(daggered)


def sequence_phase(ops) -> int:
    return sum(op.phase() for op in ops)


def touched_subspaces(ops) -> frozenset[int]:
    """Subspace indices an operator sequence acts on; frozen content counts."""
    out = set()
    for op in ops:
        if op.is_frozen:
            out.update(o.subspace for o in op.ops)
        else:
            out.add(op.subspace)
    return frozenset(out)
