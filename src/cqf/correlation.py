"""Two-time correlation functions and power spectra.

The delay evolution of C(t, tau) = <A(t+tau) B(t)> follows the equation of
motion of A alone (regression): the frozen factor B rides along as an
opaque rightmost factor that no rewrite rule touches.  Cumulant expansion
treats any average containing the frozen factor as an irreducible
correlation variable, so B is never factorized away from the delayed-time
operators; partition blocks without B become plain single-time averages.

In steady state those single-time averages are constants, the system is
affine,

    dy/dtau = M y + d,

and M and d are read off the same lowered term table that drives the delay
integration, with the steady averages bound as external constants.  The
spectrum follows from the one-sided Fourier transform evaluated via
the resolvent: solve (i w - M) x = y(0) + d/(i w) per frequency and take
S(w) = 2 Re x_primary.  Away from steady state the single-time averages are
co-evolved in the delay instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra.averages import AverageSymbol, correlation_symbol
from .algebra.qexpr import QExpr, append_frozen, mul_sequences
from .algebra.render import render_average
from .algebra.scalars import ScalarExpr
from .cumulant import expand_scalar
from .errors import AlgebraError, ClosureError, ConsistencyError, EvaluationError
from .meanfield import EquationSet, MeanfieldEquation, average, derive_equation, qle_rhs
from .numerics.lowering import RHSProgram, lower, state_mapping
from .numerics.steppers import StepperConfig, Trajectory, integrate


@dataclass(frozen=True)
class LinearSystem:
    """Steady-state correlation dynamics dy/dtau = M y + d with y(0) given."""

    matrix: np.ndarray
    drive: np.ndarray
    y0: np.ndarray
    primary: int = 0


@dataclass
class SpectrumResult:
    omegas: np.ndarray
    values: np.ndarray
    skipped: list = field(default_factory=list)


@dataclass(frozen=True)
class CorrelationSystem:
    """Delay-evolution system for one correlation function.

    ``equations`` starts with the primary variable <A(t+tau)B(t)>; further
    correlation variables and (in the co-evolved case) plain delayed-time
    averages follow in derivation order.  ``constants`` lists the plain
    average families that enter as fixed numbers in the steady case.
    """

    a_ops: tuple
    b_ops: tuple
    equations: tuple[MeanfieldEquation, ...]
    steady: bool
    base: EquationSet
    constants: tuple[AverageSymbol, ...]

    def __len__(self) -> int:
        return len(self.equations)

    @property
    def layout(self) -> tuple[AverageSymbol, ...]:
        return tuple(eq.lhs for eq in self.equations)

    def render(self) -> str:
        return "\n".join(f"d{render_average(eq.lhs)}/dtau = {eq.rhs!r}"
                         for eq in self.equations)


def _corr_equation(sym: AverageSymbol, base: EquationSet) -> MeanfieldEquation:
    if not sym.ops:
        # <B(t)> does not depend on the delay.
        return MeanfieldEquation(sym, ScalarExpr.zero())
    op = QExpr(base.model.space, ((sym.ops, ScalarExpr.one()),))
    rhs_q = append_frozen(qle_rhs(op, base.model), sym.b_ops)
    rhs = expand_scalar(average(rhs_q), base.order, base.filter)
    return MeanfieldEquation(sym, rhs)


def build_correlation_system(A: QExpr, B: QExpr, eqs: EquationSet,
                             steady: bool = True) -> CorrelationSystem:
    """Derive and close the delay equations for <A(t+tau) B(t)>.

    ``eqs`` must be a closed equation set for the underlying model; its
    order and filter govern the expansion here as well.
    """
    a_ops = A.monomial_ops()
    b_ops = B.monomial_ops()
    from .completion import missing_averages

    if eqs.archived:
        raise AlgebraError(
            "correlation systems need the model's equation of motion; "
            "archives carry none, re-derive from the model file"
        )
    if missing_averages(eqs):
        raise ClosureError("the underlying equation set is not closed")

    seed = correlation_symbol(a_ops, b_ops)
    equations: list[MeanfieldEquation] = []
    known: set[AverageSymbol] = set()
    constants: set[AverageSymbol] = set()
    queue = [seed]
    while queue:
        next_round: set[AverageSymbol] = set()
        for sym in queue:
            if sym in known:
                continue
            known.add(sym)
            if sym.is_correlation:
                eq = _corr_equation(sym, eqs)
            else:
                eq = derive_equation(sym.ops, eqs.model, eqs.order, eqs.filter)
            equations.append(eq)
            for occ in eq.rhs.averages():
                fam = occ.family
                if fam.is_correlation:
                    if fam not in known:
                        next_round.add(fam)
                elif steady:
                    constants.add(fam)
                elif fam not in known:
                    next_round.add(fam)
        queue = sorted(next_round)
    return CorrelationSystem(a_ops, b_ops, tuple(equations), steady, eqs,
                             tuple(sorted(constants)))


def _as_state_map(cs: CorrelationSystem, state) -> dict:
    """Accept either a family->value mapping or a base-layout state vector."""
    if isinstance(state, dict):
        return {s.family: complex(v) for s, v in state.items()}
    layout = tuple(eq.lhs for eq in cs.base.equations)
    return state_mapping(layout, np.asarray(state))


def initial_values(cs: CorrelationSystem, state) -> np.ndarray:
    """y(0): at zero delay each correlation variable is a single-time average.

    The equal-time product A_k B is multiplied out (rewrite rules apply
    now), averaged, expanded, and evaluated in the provided state of the
    underlying system.
    """
    state_map = _as_state_map(cs, state)
    space = cs.base.model.space
    y0 = np.empty(len(cs.equations), dtype=np.complex128)
    for k, eq in enumerate(cs.equations):
        sym = eq.lhs
        try:
            if sym.is_correlation:
                prod = ScalarExpr.zero()
                for coeff, ops in mul_sequences(space, sym.ops, sym.b_ops):
                    term = average(QExpr(space, ((ops, ScalarExpr.one()),)))
                    prod = prod + term * coeff
                expanded = expand_scalar(prod, cs.base.order, cs.base.filter)
                y0[k] = expanded.evaluate(averages=state_map)
            else:
                value = state_map.get(sym.family)
                if value is None:
                    raise EvaluationError(
                        f"average {render_average(sym.family)} is unbound"
                    )
                y0[k] = np.conj(value) if sym.conjugated else value
        except EvaluationError as err:
            raise ClosureError(
                f"initial value of {render_average(sym)} needs an average "
                f"outside the system state: {err}"
            ) from None
    return y0


def _lower(cs: CorrelationSystem) -> RHSProgram:
    """The delay equations as a term table, steady averages as externals."""
    eqs = EquationSet(cs.equations, cs.base.model, cs.base.order, cs.base.filter)
    return lower(eqs, external=cs.constants)


def linearize_steady(cs: CorrelationSystem, state, params: dict) -> LinearSystem:
    """The affine steady-state delay dynamics, read off the lowered term table.

    Once steady averages and parameters are folded in, every term must be
    constant or carry exactly one correlation variable to the first power;
    anything else indicates a broken frozen-factor invariant.
    Delay-constant variables (frozen products with no delayed factor, as
    produced by coherent driving) are folded into the drive vector rather
    than kept as trivial rows.
    """
    if not cs.steady:
        raise AlgebraError("linearization requires a steady-state system")
    if not cs.equations[0].lhs.ops:
        raise AlgebraError(
            "the primary correlation variable is constant in the delay; "
            "use the trajectory path instead"
        )
    state_map = _as_state_map(cs, state)
    y0 = initial_values(cs, state_map)
    prog = _lower(cs)
    n = prog.size
    M = np.zeros((n, n), dtype=np.complex128)
    d = np.zeros(n, dtype=np.complex128)
    for term, c in zip(prog.terms, prog.coefficients(params, state_map)):
        if not term.state_factors:
            d[term.equation] += c
        elif (len(term.state_factors) == 1
              and term.state_factors[0][1:] == (False, 1)):
            M[term.equation, term.state_factors[0][0]] += c
        else:
            raise ConsistencyError(
                "right-hand side is nonlinear in correlation variables"
            )
    dyn = [k for k, lhs in enumerate(prog.layout) if lhs.ops]
    const = [k for k, lhs in enumerate(prog.layout) if not lhs.ops]
    drive = d[dyn] + M[np.ix_(dyn, const)] @ y0[const]
    return LinearSystem(M[np.ix_(dyn, dyn)], drive, y0[dyn], 0)


def spectrum_laplace(ls: LinearSystem, omegas) -> SpectrumResult:
    """Spectrum from the resolvent, one small linear solve per frequency.

    Frequencies where the shifted matrix is singular are skipped (value NaN,
    reported in ``skipped``).  A nonzero drive makes w = 0 ill-defined here;
    such grids are rejected.
    """
    omegas = np.asarray(omegas, dtype=float)
    scale = max(1.0, float(np.max(np.abs(ls.matrix))), float(np.max(np.abs(ls.y0))))
    drive_nonzero = float(np.max(np.abs(ls.drive))) > 1e-12 * scale
    if drive_nonzero and np.any(omegas == 0.0):
        raise AlgebraError(
            "omega = 0 is undefined for a driven correlation system; "
            "exclude it from the grid"
        )
    n = ls.matrix.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    values = np.empty(len(omegas))
    skipped = []
    for k, w in enumerate(omegas):
        b = ls.y0 + (ls.drive / (1j * w) if drive_nonzero else 0.0)
        try:
            x = np.linalg.solve(1j * w * eye - ls.matrix, b)
            values[k] = 2.0 * x[ls.primary].real
        except np.linalg.LinAlgError:
            values[k] = np.nan
            skipped.append(float(w))
    return SpectrumResult(omegas, values, skipped)


def correlation_trajectory(cs: CorrelationSystem, state, tauspan,
                           cfg: StepperConfig | None = None,
                           params: dict | None = None,
                           y0: np.ndarray | None = None,
                           saveat=None) -> Trajectory:
    """Integrate the delay equations; first column is the primary variable."""
    state_map = _as_state_map(cs, state)
    prog = _lower(cs)
    bound = prog.bind(params or {}, state_map)
    if y0 is None:
        y0 = initial_values(cs, state_map)
    return integrate(bound, y0, tauspan, cfg, saveat=saveat,
                     layout=prog.layout)


def spectrum_fourier(taus, corr, omegas) -> SpectrumResult:
    """Wiener-Khinchin route: transform a sampled correlation trajectory."""
    from .oracle import fourier_spectrum

    omegas = np.asarray(omegas, dtype=float)
    return SpectrumResult(omegas, fourier_spectrum(taus, corr, omegas))


def decay_time(ls: LinearSystem, fold: float = 12.0,
               bounds=(10.0, 2000.0)) -> float:
    """A delay window long enough for correlations to die out.

    Taken from the slowest eigenvalue of the steady-state matrix; used as
    the default tau extent when integrating correlation trajectories.
    """
    eigs = np.linalg.eigvals(ls.matrix)
    rates = -eigs.real
    positive = rates[rates > 1e-12]
    if len(positive) == 0:
        return bounds[1]
    return float(min(max(fold / positive.min(), bounds[0]), bounds[1]))
