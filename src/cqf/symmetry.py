"""Permutations of identical subsystems: one derivation per orbit.

For N identical emitters coupled alike, permuting the emitters maps one
moment equation onto another (P. Kirton and J. Keeling, Phys. Rev. Lett.
118, 123602 (2017); N. Shammah et al., Phys. Rev. A 98, 063815 (2018)).
Derivation uses this to skip repeated work: it derives one representative
per orbit and relabels that equation for the other members.  The relabelled
equation equals the directly derived one term for term; the equation set
does not change.  Integration uses it too: from an initial state that every
permutation leaves unchanged, the members stay copies of their
representative, so only the representatives are stepped (see
:meth:`~cqf.numerics.lowering.BoundRHS.orbits`).

:meth:`Symmetry.of` finds the group.  Factors of the same kind, levels and
ground are candidates.  Each adjacent transposition among them that maps
the Hamiltonian, the multiset of (jump, rate) pairs and the per-factor
order onto themselves is kept.  A run of kept transpositions generates the
symmetric group of a block of factors, so the group is a product of
symmetric groups.  The group is trivial when the filter is not one of the
presets, since an arbitrary predicate need not be invariant.  It is also
trivial when the operators of some subspace carry more than one display
name: names render, and relabelling writes each subspace's one name.

A family's representative compresses the block members it touches onto
the block's lowest members, sorted by the factors each carries; the
members it does not touch fill the rest of the block, in order, so the
permutation is a bijection.  Sorting, rather than keeping the members'
order, makes the representative the same for every member of an orbit:
with no filter, Tavis-Cummings atoms at order 2 fall into 12 orbits, and
an order-keeping compression would derive 13 representatives.
"""

from __future__ import annotations

from collections import Counter

from .algebra.averages import AverageSymbol, average_symbol, correlation_symbol
from .algebra.operators import FundamentalOp, adjoint_sequence
from .algebra.scalars import ScalarExpr
from .cumulant import FILTER_PHASE, OrderSpec


class Symmetry:
    """Blocks of subspace indices that the model lets permute freely, and
    the one display name of each subspace.

    A permutation is a dict {subspace: image} over the subspaces it moves;
    the empty dict is the identity.
    """

    def __init__(self, blocks: tuple = (), names: dict | None = None):
        self.blocks = blocks
        self.names = names or {}
        self._representatives: dict = {}

    @staticmethod
    def of(model, order, filt) -> "Symmetry":
        """The group of ``model``'s identical subsystems under this order
        and filter; trivial unless some transposition leaves all three
        unchanged."""
        candidates: dict = {}
        for k, f in enumerate(model.space.factors):
            candidates.setdefault((f.kind, f.levels, f.ground), []).append(k)
        candidates = [ks for ks in candidates.values() if len(ks) > 1]
        if not candidates or filt not in (None, FILTER_PHASE):
            return Symmetry()
        names: dict = {}
        for expr in (model.hamiltonian, *model.jumps):
            for ops, _ in expr.terms:
                for op in ops:
                    names.setdefault(op.subspace, set()).add(op.name)
        if any(len(n) > 1 for n in names.values()):
            return Symmetry()
        names = {k: n.pop() for k, n in names.items()}
        spec = OrderSpec.of(order)
        # Each Hamiltonian term and each (jump, rate) pair is one piece; a
        # transposition of a and b maps the pieces touching neither onto
        # themselves, so only those at a or b are compared.
        pieces = [(frozenset((term,)), None) for term in model.hamiltonian.terms]
        pieces += [(frozenset(c.terms), rate) for c, rate in zip(model.jumps, model.rates)]
        at: dict = {}
        for n, (terms, _) in enumerate(pieces):
            for k in {op.subspace for ops, _ in terms for op in ops}:
                at.setdefault(k, set()).add(n)

        def invariant(a: int, b: int) -> bool:
            swap = {a: b, b: a}
            local = [pieces[n] for n in at.get(a, set()) | at.get(b, set())]
            return (a in names and b in names
                    and (spec.uniform is not None
                         or spec.resolve((a,)) == spec.resolve((b,)))
                    and Counter(local) == Counter(
                        (frozenset((_move(ops, swap, names), coeff)
                                   for ops, coeff in terms), rate)
                        for terms, rate in local))

        blocks = []
        for ks in candidates:
            run = [ks[0]]
            for a, b in zip(ks, ks[1:]):
                if not invariant(a, b):
                    blocks.append(run)
                    run = []
                run.append(b)
            blocks.append(run)
        return Symmetry(tuple(tuple(run) for run in blocks if len(run) > 1), names)

    def representative(self, sym: AverageSymbol) -> tuple[dict, AverageSymbol]:
        """The permutation taking ``sym`` to its orbit's representative, and
        the occurrence it takes ``sym`` to.

        In each block, the members ``sym`` touches move to the lowest ones,
        sorted by the factors they carry.  A product and its adjoint share
        one family, so both orientations are sorted and the smaller family
        wins.  A symbol whose factors carry other names than the model's is
        its own representative: its equation is derived, never relabelled.
        Results are kept on the instance, for integration to look up.
        """
        found = self._representatives.get(sym)
        if found is None:
            found = self._representatives[sym] = self._representative(sym)
        return found

    def _representative(self, sym: AverageSymbol) -> tuple[dict, AverageSymbol]:
        if not self.blocks or any(self.names.get(op.subspace) != op.name
                                  for op in sym.ops + (sym.b_ops or ())):
            return {}, sym
        if sym.is_correlation:
            perm = self._compress(sym.ops, sym.b_ops)
            return perm, self.move(sym, perm)
        perms = [self._compress(sym.ops), self._compress(adjoint_sequence(sym.ops))]
        if perms[0] == perms[1]:
            del perms[1]
        return min(((perm, self.move(sym, perm)) for perm in perms),
                   key=lambda candidate: candidate[1].family)

    def self_conjugate(self, sym: AverageSymbol) -> bool:
        """Whether some permutation takes ``sym`` to its conjugate (or
        ``sym`` is self-adjoint), so that a state every permutation leaves
        unchanged holds a real value there."""
        adjoint = self._compress(adjoint_sequence(sym.ops))
        return self.move(sym, self._compress(sym.ops)) == self.move(sym, adjoint).conj()

    def _compress(self, *parts) -> dict:
        """The permutation that sends each block's touched members, sorted
        by the factors each carries in ``parts``, to its lowest members, and
        the untouched ones, in order, to the rest."""
        words: dict = {}
        for n, part in enumerate(parts):
            for op in part:
                words.setdefault(op.subspace, []).append((n, op.key[1:]))
        perm = {}
        for block in self.blocks:
            hit = sorted((k for k in block if k in words), key=words.__getitem__)
            rest = [k for k in block if k not in words]
            for src, dst in zip(hit + rest, block):
                if src != dst:
                    perm[src] = dst
        return perm

    def move(self, sym: AverageSymbol, perm: dict) -> AverageSymbol:
        """The occurrence ``sym`` with each subspace k renamed ``perm[k]``,
        re-canonicalized through :func:`average_symbol`."""
        if sym.is_correlation:
            return correlation_symbol(_move(sym.ops, perm, self.names),
                                      _move(sym.b_ops, perm, self.names))
        moved = average_symbol(_move(sym.ops, perm, self.names))
        if sym.conjugated:
            return AverageSymbol(moved.ops, not moved.conjugated)
        return moved

    def relabel(self, rhs: ScalarExpr, perm: dict, conjugate: bool) -> ScalarExpr:
        """``rhs`` with every average moved by ``perm``, conjugated if asked."""
        if perm:
            moved = {sym: self.move(sym, perm) for sym in rhs.averages()}
            rhs = ScalarExpr.from_terms(
                (coeff, params,
                 tuple(sorted(((moved[s], n) for s, n in avgs),
                              key=lambda entry: entry[0].sort_key)))
                for coeff, params, avgs in rhs.terms)
        return rhs.conj() if conjugate else rhs


def _move(ops: tuple, perm: dict, names: dict) -> tuple:
    """A canonical product with each subspace k renamed ``perm[k]`` and its
    factors named from ``names``.  Factors on different subspaces commute,
    so sorting by subspace, stably, keeps each subspace's normal order and
    restores canonical order."""
    out = [op if op.subspace not in perm else
           FundamentalOp(op.kind, perm[op.subspace], names[perm[op.subspace]],
                         op.i, op.j, op.i_label, op.j_label)
           for op in ops]
    out.sort(key=lambda op: op.subspace)
    return tuple(out)
