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

and M and d are the Jacobian and the value at zero of the lowered delay
program, with the steady averages bound as external constants.  Such a
system is solved exactly, not integrated: C(tau) by the propagator
exp(M dtau), and the spectrum from the one-sided Fourier transform
evaluated via the resolvent: solve (i w - M) x = y(0) + d/(i w) per
frequency and take S(w) = 2 Re x_0 (the primary variable).  Away from
steady state the single-time averages are co-evolved in the delay instead,
and the delay equations are integrated by a Runge-Kutta stepper.  Either
way the delay program and the equal-time y(0) are lowered and expanded
once; later calls only evaluate them.  The Wiener-Khinchin route transforms a sampled C(tau) by the trapezoid rule, as a chirp-z
transform when the tau and w grids are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra.averages import AverageSymbol, correlation_symbol, family_values
from .algebra.qexpr import QExpr, append_frozen, mul_sequences
from .algebra.render import render_average
from .algebra.scalars import ScalarExpr
from .completion import close, missing_averages
from .cumulant import expand_scalar, expansion_memo
from .errors import AlgebraError, ClosureError, ConsistencyError, EvaluationError
from .meanfield import (EquationSet, MeanfieldEquation, average, by_orbit,
                        qle_rhs)
from .numerics.lowering import RHSProgram, lower, state_mapping
from .numerics.steppers import (StepperConfig, Trajectory, _uniform_step,
                                integrate, propagate, sample_times)
from .symmetry import Symmetry


@dataclass(frozen=True)
class LinearSystem:
    """Steady-state correlation dynamics dy/dtau = M y + d with y(0) given."""

    matrix: np.ndarray
    drive: np.ndarray
    y0: np.ndarray


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

    @cached_property
    def program(self) -> RHSProgram:
        """The delay equations as a term table, steady averages as externals.

        Steady, every term must be constant or carry one unconjugated
        correlation variable to the first power; anything else indicates a
        broken frozen-factor invariant.
        """
        eqs = EquationSet(self.equations, self.base.model, self.base.order,
                          self.base.filter)
        prog = lower(eqs, external=self.constants)
        if self.steady and any(
                sum(power for _, _, power in term.state_factors) > 1
                or any(conjd for _, conjd, _ in term.state_factors)
                for term in prog.terms):
            raise ConsistencyError("right-hand side is nonlinear in "
                                   "correlation variables")
        return prog

    @cached_property
    def equal_time(self) -> tuple[ScalarExpr, ...]:
        """y(0) as single-time expressions, one per variable."""
        with expansion_memo():
            return tuple(_equal_time(sym, self.base) for sym in self.layout)


def _equal_time(sym: AverageSymbol, base: EquationSet) -> ScalarExpr:
    """A correlation variable at zero delay: the product A_k B multiplied
    out (rewrite rules apply now), averaged and expanded.  A plain average
    is its own expression."""
    if not sym.is_correlation:
        return ScalarExpr.from_average(sym)
    space = base.model.space
    prod = ScalarExpr.sum(
        average(QExpr(space, ((ops, ScalarExpr.one()),))) * coeff
        for coeff, ops in mul_sequences(space, sym.ops, sym.b_ops))
    return expand_scalar(prod, base.order, base.filter)


def _corr_equation(sym: AverageSymbol, base: EquationSet) -> MeanfieldEquation:
    if not sym.ops:
        # <B(t)> does not depend on the delay.
        return MeanfieldEquation(sym, ScalarExpr.zero())
    op = QExpr(base.model.space, ((sym.ops, ScalarExpr.one()),))
    rhs_q = append_frozen(qle_rhs(op, base.model), sym.b_ops)
    rhs = expand_scalar(average(rhs_q), base.order, base.filter)
    return MeanfieldEquation(sym, rhs)


@expansion_memo()
def build_correlation_system(A: QExpr, B: QExpr, eqs: EquationSet,
                             steady: bool = True) -> CorrelationSystem:
    """Derive and close the delay equations for <A(t+tau) B(t)>.

    ``eqs`` must be a closed equation set for the underlying model; its
    order and filter govern the expansion here as well.  Correlation
    variables always get equations; plain averages get them only when
    co-evolved, taken from ``eqs``, and are otherwise the steady constants.
    """
    if eqs.archived:
        raise AlgebraError(
            "correlation systems need the model's equation of motion; "
            "archives carry none, re-derive from the model file"
        )
    if missing_averages(eqs):
        raise ClosureError("the underlying equation set is not closed")

    base = {eq.lhs.family: eq for eq in eqs}

    def derive_family(sym: AverageSymbol) -> MeanfieldEquation:
        if sym.is_correlation:
            return _corr_equation(sym, eqs)
        eq = base.get(sym)
        if eq is None:
            raise ClosureError(f"co-evolved average {render_average(sym)} has "
                               "no equation in the underlying set")
        return MeanfieldEquation(sym, eq.lhs.orient(eq.rhs))

    derive = by_orbit(derive_family, eqs.symmetry
                      or Symmetry.of(eqs.model, eqs.order, eqs.filter))
    a_ops, b_ops = A.monomial_ops(), B.monomial_ops()
    equations = close([derive(correlation_symbol(a_ops, b_ops))], derive,
                      lambda fam: fam.is_correlation or not steady)
    constants = {fam for eq in equations for fam in eq.rhs.average_families()
                 if not fam.is_correlation} if steady else ()
    return CorrelationSystem(a_ops, b_ops, tuple(equations), steady, eqs,
                             tuple(sorted(constants)))


def _as_state_map(cs: CorrelationSystem, state) -> dict:
    """Accept either a per-average mapping or a base-layout state vector."""
    if isinstance(state, dict):
        return family_values(state)
    layout = tuple(eq.lhs for eq in cs.base.equations)
    return state_mapping(layout, np.asarray(state))


def initial_values(cs: CorrelationSystem, state) -> np.ndarray:
    """y(0): the system's equal-time expressions evaluated in the provided
    state of the underlying system."""
    state_map = _as_state_map(cs, state)
    y0 = np.empty(len(cs.equations), dtype=np.complex128)
    for k, (eq, expr) in enumerate(zip(cs.equations, cs.equal_time)):
        try:
            y0[k] = expr.evaluate(averages=state_map)
        except EvaluationError as err:
            raise ClosureError(
                f"initial value of {render_average(eq.lhs)} needs an average "
                f"outside the system state: {err}"
            ) from None
    return y0


def _steady_dynamics(cs: CorrelationSystem, state_map: dict, params: dict):
    """The layout, J and d of the steady (affine) delay dynamics dy/dtau =
    J y + d: the Jacobian and the value at zero of the bound delay program."""
    prog = cs.program
    bound = prog.bind(params, state_map)
    zero = np.zeros(prog.size, dtype=np.complex128)
    return prog.layout, bound.jacobian(zero)[0], bound(0.0, zero)


def linearize_steady(cs: CorrelationSystem, state, params: dict) -> LinearSystem:
    """The affine steady-state delay dynamics, read off the lowered term table.

    M and d are the Jacobian and the derivative at zero of the bound delay
    program (see ``_steady_dynamics``).  Delay-constant variables (frozen
    products with no delayed factor, as produced by coherent driving) are
    folded into the drive vector rather than kept as trivial rows.
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
    layout, M, d = _steady_dynamics(cs, state_map, params)
    dyn = [k for k, lhs in enumerate(layout) if lhs.ops]
    const = [k for k, lhs in enumerate(layout) if not lhs.ops]
    drive = d[dyn] + M[np.ix_(dyn, const)] @ y0[const]
    return LinearSystem(M[np.ix_(dyn, dyn)], drive, y0[dyn])


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
            values[k] = 2.0 * x[0].real
        except np.linalg.LinAlgError:
            values[k] = np.nan
            skipped.append(float(w))
    return SpectrumResult(omegas, values, skipped)


def correlation_trajectory(cs: CorrelationSystem, state, tauspan,
                           cfg: StepperConfig | None = None,
                           params: dict | None = None,
                           saveat=None) -> Trajectory:
    """The delay evolution; the first column is the primary variable.

    A steady system is affine with constant coefficients and is solved
    exactly by ``propagate``, at ``saveat`` or else at the two ends of
    ``tauspan``; ``cfg`` plays no part there.  A co-evolved system is
    integrated with ``cfg`` (rk45 by default), sampled at ``saveat`` or
    else at the solver's steps.
    """
    state_map = _as_state_map(cs, state)
    if not cs.steady:
        prog = cs.program
        bound = prog.bind(params or {}, state_map)
        return integrate(bound, initial_values(cs, state_map), tauspan, cfg,
                         saveat=saveat, layout=prog.layout)
    layout, M, d = _steady_dynamics(cs, state_map, params or {})
    y0 = initial_values(cs, state_map)
    times = sample_times(tauspan, saveat)
    return Trajectory(times, propagate(M, y0, times - float(tauspan[0]), drive=d),
                      layout)


def spectrum_fourier(taus, corr, omegas) -> SpectrumResult:
    """Wiener-Khinchin route: transform a sampled correlation trajectory."""
    omegas = np.asarray(omegas, dtype=float)
    return SpectrumResult(omegas, fourier_spectrum(taus, corr, omegas))


def fourier_spectrum(taus: np.ndarray, corr: np.ndarray,
                     omegas) -> np.ndarray:
    """2 Re integral_0^T exp(-i w tau) C(tau) dtau by trapezoid quadrature.

    On uniform grids tau_k = tau_0 + k dtau and w_j = w_0 + j dw the sum
    over k is a chirp-z transform (L. R. Rabiner, R. W. Schafer and
    C. M. Rader, IEEE Trans. Audio Electroacoust. 17, 86 (1969)): with
    jk = (j^2 + k^2 - (k - j)^2)/2 it is one convolution with the chirp
    exp(i dw dtau m^2/2), done by FFTs of length at least N + M - 1.  Any
    other grid takes the dense product exp(-i w tau) over all pairs.
    """
    taus = np.asarray(taus, dtype=float)
    corr = np.asarray(corr, dtype=np.complex128)
    omegas = np.asarray(omegas, dtype=float)
    if len(taus) < 2 or len(corr) != len(taus):
        raise EvaluationError(
            f"a Fourier quadrature needs at least two tau points and one "
            f"correlation value per point, got {len(taus)} tau points and "
            f"{len(corr)} values")
    if not np.all(np.diff(taus) > 0):
        raise EvaluationError(
            f"a Fourier quadrature needs strictly increasing tau points; "
            f"the {len(taus)} given are not")
    weights = np.empty_like(taus)
    weights[1:-1] = (taus[2:] - taus[:-2]) / 2.0
    weights[0] = (taus[1] - taus[0]) / 2.0
    weights[-1] = (taus[-1] - taus[-2]) / 2.0
    wc = weights * corr
    dtau, domega = _uniform_step(taus), _uniform_step(omegas)
    if dtau is not None and domega is not None:
        return _chirp_z(wc, taus, omegas[0], dtau, domega, len(omegas))
    out = np.empty(len(omegas))
    chunk = 64
    for start in range(0, len(omegas), chunk):
        block = omegas[start:start + chunk]
        phases = np.exp(-1j * np.outer(block, taus))
        out[start:start + chunk] = 2.0 * (phases @ wc).real
    return out


def _chirp_z(wc: np.ndarray, taus: np.ndarray, omega0: float, dtau: float,
             domega: float, m: int) -> np.ndarray:
    """2 Re sum_k wc_k exp(-i w_j tau_k) for w_j = omega0 + j domega.

    w_j tau_k = omega0 tau_k + j domega tau_0 + jk domega dtau, and the jk
    term splits into chirps in j, in k and in k - j.
    """
    n = len(wc)
    half = domega * dtau / 2.0
    chirp_j = _chirp(half, np.arange(m))
    chirp_k = _chirp(half, np.arange(n))
    size = 1 << (n + m - 2).bit_length()        # a power of two >= n + m - 1
    kernel = np.zeros(size, dtype=np.complex128)
    kernel[:m] = chirp_j                         # k - j = -j
    kernel[size - n + 1:] = chirp_k[:0:-1]       # k - j = n - 1, ..., 1
    pre = wc * np.exp(-1j * omega0 * taus) * chirp_k.conj()
    conv = np.fft.ifft(np.fft.fft(pre, size) * np.fft.fft(kernel))[:m]
    post = np.exp(-1j * domega * taus[0] * np.arange(m)) * chirp_j.conj()
    return 2.0 * (post * conv).real


def _chirp(half: float, m: np.ndarray) -> np.ndarray:
    """exp(i half m^2), with a phase exact to rounding however large m is.

    One rounded product half * m^2 is off by an ulp of a phase that grows
    as m^2 (2.5e-12 of the peak at 6,001 tau points over [0, 2000]).  So
    half splits (Veltkamp) into a head whose product with every m^2 is
    exact and a tail small enough that its product loses nothing.
    """
    sq = (m * m).astype(float)
    split = 2.0 ** int(sq.max()).bit_length() + 1.0
    head = split * half - (split * half - half)
    return np.exp(1j * head * sq) * np.exp(1j * (half - head) * sq)


def decay_time(ls: LinearSystem) -> float:
    """A delay window long enough for correlations to die out.

    Twelve decay times of the slowest eigenvalue of the steady-state matrix,
    clipped to [10, 2000]; used as the default tau extent when sampling
    correlation trajectories.
    """
    eigs = np.linalg.eigvals(ls.matrix)
    rates = -eigs.real
    positive = rates[rates > 1e-12]
    if len(positive) == 0:
        return 2000.0
    return float(min(max(12.0 / positive.min(), 10.0), 2000.0))
