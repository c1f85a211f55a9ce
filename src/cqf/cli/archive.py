"""Versioned JSON serialization of completed equation sets.

Derivation can dominate the cost of large problems; archiving the closed
system lets parameter sweeps and later runs skip it.  The encoding is fully
canonical, so serialize -> deserialize -> serialize is byte-identical.
Archived sets carry the spaces, the operator alphabet, the order spec, the
filter preset and every equation, but not the generating model: an archive
can be solved and correlated, not re-completed.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ..algebra.averages import AverageSymbol
from ..algebra.operators import TRANSITION, FundamentalOp
from ..algebra.qexpr import zero
from ..algebra.scalars import ComplexRational, Parameter, ScalarExpr
from ..algebra.spaces import HilbertSpace, ProductSpace
from ..completion import filter_by_name
from ..cumulant import FILTER_PHASE, OrderSpec
from ..errors import AlgebraError, ArchiveError
from ..meanfield import EquationSet, MeanfieldEquation, ModelDefinition

FORMAT = "cqf-equations-1"


def _op_entry(op: FundamentalOp) -> list:
    return [op.kind, op.subspace, op.name, op.i_label, op.j_label]


def _collect_alphabet(eqs: EquationSet) -> list[FundamentalOp]:
    seen: dict = {}
    def visit(sym: AverageSymbol):
        if sym.is_correlation:
            raise ArchiveError("correlation systems are not archivable")
        for op in sym.ops:
            seen.setdefault(op.key, op)
    for eq in eqs.equations:
        visit(eq.lhs)
        for coeff, params, avgs in eq.rhs.terms:
            for s, _ in avgs:
                visit(s)
    return [seen[k] for k in sorted(seen)]


def _frac(q: Fraction) -> list:
    return [q.numerator, q.denominator]


def _scalar_entry(x: ScalarExpr, op_index: dict, param_index: dict) -> list:
    out = []
    for coeff, params, avgs in x.terms:
        out.append([
            _frac(coeff.re) + _frac(coeff.im),
            [[param_index[p.name], int(conjd), power] for p, conjd, power in params],
            [[[op_index[op.key] for op in s.ops], int(s.conjugated), power]
             for s, power in avgs],
        ])
    return out


def serialize(eqs: EquationSet) -> str:
    if eqs.filter not in (None, FILTER_PHASE):
        raise ArchiveError("only preset filters are archivable")
    if eqs.model is None:
        raise ArchiveError("equation set carries no space information")
    spaces = [{"name": f.name, "kind": f.kind,
               "levels": list(f.levels), "ground": f.ground}
              for f in eqs.model.space.factors]
    params = sorted({p.name: p for eq in eqs.equations
                     for _, pf, _ in eq.rhs.terms for p, _, _ in pf}.values())
    param_index = {p.name: k for k, p in enumerate(params)}
    alphabet = _collect_alphabet(eqs)
    op_index = {op.key: k for k, op in enumerate(alphabet)}
    order = ({"uniform": eqs.order.uniform} if eqs.order.uniform is not None
             else {"per_subspace": list(eqs.order.per_subspace),
                   "reducer": eqs.order.reducer})
    doc = {
        "format": FORMAT,
        "spaces": spaces,
        "parameters": [{"name": p.name, "real": p.real} for p in params],
        "alphabet": [_op_entry(op) for op in alphabet],
        "order": order,
        "filter": eqs.filter.name if eqs.filter is not None else "none",
        "equations": [
            {
                "lhs": [[op_index[op.key] for op in eq.lhs.ops],
                        int(eq.lhs.conjugated)],
                "rhs": _scalar_entry(eq.rhs, op_index, param_index),
            }
            for eq in eqs.equations
        ],
    }
    return json.dumps(doc, indent=1, ensure_ascii=False)


def _rebuild_space(entries) -> ProductSpace:
    factors = []
    for e in entries:
        factors.append(HilbertSpace(name=e["name"], kind=e["kind"],
                                    levels=tuple(e["levels"]),
                                    ground=e["ground"]))
    return ProductSpace(tuple(factors))


def _rebuild_op(entry, space: ProductSpace) -> FundamentalOp:
    kind, subspace, name, i_label, j_label = entry
    if kind == TRANSITION:
        factor = space.factors[subspace]
        return FundamentalOp(TRANSITION, subspace, name,
                             factor.level_index(i_label),
                             factor.level_index(j_label), i_label, j_label)
    return FundamentalOp(kind, subspace, name)


def deserialize(text: str) -> EquationSet:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ArchiveError(f"not a valid archive: {err}") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT:
        raise ArchiveError(f"unsupported archive format {fmt!r}")
    try:
        return _rebuild(doc)
    except KeyError as err:
        raise ArchiveError(f"malformed archive: no field {err}") from None
    except AlgebraError as err:
        raise ArchiveError(f"malformed archive: {err}") from None


def _rebuild(doc: dict) -> EquationSet:
    space = _rebuild_space(doc["spaces"])
    params = [Parameter(e["name"], e["real"]) for e in doc["parameters"]]
    alphabet = [_rebuild_op(e, space) for e in doc["alphabet"]]
    order_doc = doc["order"]
    try:
        if "uniform" in order_doc:
            order = OrderSpec(uniform=order_doc["uniform"])
        else:
            order = OrderSpec(per_subspace=tuple(order_doc["per_subspace"]),
                              reducer=order_doc["reducer"]).for_space(space)
    except AlgebraError as err:
        raise ArchiveError(f"bad archive order: {err}") from None
    filt = filter_by_name(doc["filter"])

    equations = []
    for entry in doc["equations"]:
        ops_idx, conjd = entry["lhs"]
        lhs = AverageSymbol(tuple(alphabet[k] for k in ops_idx), bool(conjd))
        terms = []
        for coeff_entry, param_entries, avg_entries in entry["rhs"]:
            ren, red, imn, imd = coeff_entry
            coeff = ComplexRational(Fraction(ren, red), Fraction(imn, imd))
            pfac = tuple(sorted(((params[k], bool(c), power)
                                 for k, c, power in param_entries),
                                key=lambda e: (e[0].name, e[1])))
            afac = tuple(sorted(((AverageSymbol(
                tuple(alphabet[i] for i in ops), bool(c)), power)
                for ops, c, power in avg_entries),
                key=lambda e: e[0].sort_key))
            terms.append((coeff, pfac, afac))
        equations.append(MeanfieldEquation(lhs, ScalarExpr.from_terms(terms)))
    # Archives carry no Hamiltonian: attach a placeholder model that pins
    # the space, and flag the set so re-derivation paths refuse it.
    stub = ModelDefinition(space, zero(space), (), (), tuple(params), ())
    return EquationSet(tuple(equations), stub, order, filt, archived=True)


def save(eqs: EquationSet, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(eqs))


def load(path: str) -> EquationSet:
    with open(path, encoding="utf-8") as fh:
        return deserialize(fh.read())
