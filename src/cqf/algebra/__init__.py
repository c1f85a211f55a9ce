"""Noncommutative operator algebra with normal-ordered canonical forms."""

from .averages import AverageSymbol, average_symbol, correlation_symbol
from .operators import CREATE, DESTROY, TRANSITION, FrozenOp, FundamentalOp
from .qexpr import (QExpr, adjoint, append_frozen, commutator, create,
                    destroy, identity, mul_sequences, normalize_sequence,
                    qmul, transition, zero)
from .render import (latex_average, latex_scalar, render_average,
                     render_qexpr, render_scalar)
from .scalars import (CR_I, CR_ONE, CR_ZERO, ComplexRational, I_UNIT,
                      Parameter, ScalarExpr, parameters)
from .spaces import FOCK, NLEVEL, HilbertSpace, ProductSpace, fock, nlevel, product

__all__ = [
    "AverageSymbol", "average_symbol", "correlation_symbol",
    "CREATE", "DESTROY", "TRANSITION", "FrozenOp", "FundamentalOp",
    "QExpr", "adjoint", "append_frozen", "commutator", "create", "destroy",
    "identity", "mul_sequences", "normalize_sequence", "qmul", "transition",
    "zero",
    "latex_average", "latex_scalar", "render_average", "render_qexpr",
    "render_scalar",
    "CR_I", "CR_ONE", "CR_ZERO", "ComplexRational", "I_UNIT", "Parameter",
    "ScalarExpr", "parameters",
    "FOCK", "NLEVEL", "HilbertSpace", "ProductSpace", "fock", "nlevel",
    "product",
]
