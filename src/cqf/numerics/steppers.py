"""Time evolution over complex state vectors: Runge-Kutta steps, and the
exact propagator of constant linear systems.

One stepping loop reads a Butcher tableau: the classic fixed-step 4th-order
scheme, or the Dormand-Prince 5(4) pair with error-per-step control (the
5th-order solution is propagated, the embedded 4th-order one gives the error
estimate).  Requested output times are filled in by cubic Hermite
interpolation between accepted steps as integration proceeds, so the
controller's step choice is never distorted and long runs do not accumulate
per-step storage.

A constant affine system dy/dt = M y + d needs no stepping: ``propagate``
applies the matrix exponential of its augmented matrix, computed by
``expm`` (Pade 13 with scaling and squaring).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ..errors import AlgebraError, IntegrationError, NonStationaryError


class _Tableau:
    """Explicit Butcher tableau, one ``c_i | a_i0 a_i1 ...`` row per stage.

    The last row holds the weights b at node 1, so the last stage is
    f(t + h, y_new), the next step's first.  ``A`` holds the rows, then an
    embedded pair's error weights ``e`` over every stage (zeros without).
    """

    def __init__(self, rows: str, e: str = ""):
        rows = [row.split("|") for row in rows.strip().splitlines()]
        self.c = [Fraction(c) for c, _ in rows]
        self.a = [[Fraction(x) for x in a.split()] for _, a in rows]
        self.e = [Fraction(x) for x in e.split()]
        self.A = np.array([row + [0] * (len(rows) - len(row))
                           for row in self.a + [self.e]], dtype=np.complex128)


_TABLEAUX = {
    "rk4": _Tableau("""
        0   |
        1/2 | 1/2
        1/2 | 0   1/2
        1   | 0   0   1
        1   | 1/6 1/3 1/3 1/6
        """),
    # Dormand & Prince, J. Comput. Appl. Math. 6 (1980); e = b5 - b4.
    "rk45": _Tableau("""
        0    |
        1/5  | 1/5
        3/10 | 3/40       9/40
        4/5  | 44/45      -56/15      32/9
        8/9  | 19372/6561 -25360/2187 64448/6561 -212/729
        1    | 9017/3168  -355/33     46732/5247 49/176  -5103/18656
        1    | 35/384     0           500/1113   125/192 -2187/6784 11/84
        """, e="71/57600 0 -71/16695 71/1920 -17253/339200 22/525 -1/40"),
}

_SAFETY = 0.9
_MIN_SHRINK = 0.2
_MAX_GROW = 5.0


@dataclass(frozen=True)
class StepperConfig:
    method: str = "rk4"
    dt: float | None = None
    rtol: float = 1e-8
    atol: float = 1e-10
    max_steps: int = 20_000_000

    def __post_init__(self):
        if self.method not in _TABLEAUX:
            raise AlgebraError(f"unknown method {self.method!r}")
        if not (self.dt > 0 if self.dt is not None else self.method == "rk45"):
            raise AlgebraError("dt must be positive (fixed-step integration needs one)")
        if not (self.rtol > 0 and self.atol > 0):
            raise AlgebraError("tolerances must be positive")

    @staticmethod
    def rk4(dt: float, max_steps: int = 20_000_000) -> "StepperConfig":
        return StepperConfig("rk4", dt=dt, max_steps=max_steps)

    @staticmethod
    def rk45(rtol: float = 1e-8, atol: float = 1e-10,
             dt: float | None = None,
             max_steps: int = 20_000_000) -> "StepperConfig":
        return StepperConfig("rk45", dt=dt, rtol=rtol, atol=atol,
                             max_steps=max_steps)


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, one state row per time."""

    times: np.ndarray
    states: np.ndarray
    layout: tuple = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def column(self, sym) -> np.ndarray:
        """Series of one average (resolving orientation) by symbol."""
        if self.layout is None:
            raise AlgebraError("trajectory has no symbol layout")
        fam = sym.family
        for k, lhs in enumerate(self.layout):
            if lhs.family == fam:
                return sym.orient(lhs.orient(self.states[:, k]))
        raise AlgebraError(f"symbol {sym!r} not in trajectory layout")


def _finite(times, what: str) -> np.ndarray:
    """``times`` as floats; the first that is NaN or infinite is refused."""
    times = np.asarray(times, dtype=float)
    bad = ~np.isfinite(times)
    if bad.any():
        raise AlgebraError(f"{what} {times[bad.argmax()]:g} is not finite")
    return times


def checked_saveat(saveat, t0: float, t1: float) -> np.ndarray:
    """``saveat`` as floats: at least one time, all finite, strictly
    increasing, and none outside [t0, t1]."""
    saveat = _finite(saveat, "saveat time")
    if len(saveat) == 0:
        raise AlgebraError("saveat must contain at least one time")
    if np.any(np.diff(saveat) <= 0):
        raise AlgebraError("saveat times must be strictly increasing")
    outside = (saveat < t0) | (saveat > t1 + 1e-12 * max(1.0, abs(t1)))
    if outside.any():
        raise AlgebraError(
            f"saveat time {saveat[outside.argmax()]:.6g} lies outside "
            f"the integration span [{t0:.6g}, {t1:.6g}]")
    return saveat


def sample_times(tspan, saveat=None) -> np.ndarray:
    """The times an exact solution over ``tspan`` is sampled at: ``saveat``,
    checked, or else the two ends of ``tspan``, which must be finite with
    t0 < t1."""
    t0, t1 = _finite([tspan[0], tspan[1]], "tspan end").tolist()
    if not t0 < t1:
        raise AlgebraError("tspan must satisfy t0 < t1")
    return np.array([t0, t1]) if saveat is None else checked_saveat(saveat, t0, t1)


def _hermite(t, t0, y0, f0, t1, y1, f1):
    h = t1 - t0
    s = (t - t0) / h
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1


class _Recorder:
    """Collects output rows, either at solver steps or at requested times.

    A row is ``observe @ state``, the state itself by default.  Rows at
    requested times go straight into one preallocated array, all the times
    within one step interpolated at once; the number of solver steps is not
    known in advance, so those rows are collected in a list.
    """

    def __init__(self, saveat, t0, t1, y0, observe=None):
        self.observe = None if observe is None else np.asarray(observe)
        first = self.row(y0)
        if saveat is None:
            self.saveat = None
            self.times = [t0]
            self.rows = [first]
            return
        self.saveat = checked_saveat(saveat, t0, t1)
        self.rows = np.empty((len(self.saveat),) + first.shape, dtype=first.dtype)
        self.column = (-1,) + (1,) * first.ndim     # times against row axes
        # requested times as floats, and the first not yet filled (or inf)
        self.pending = self.saveat.tolist() + [np.inf]
        self.cursor = int(np.searchsorted(self.saveat, t0, side="right"))
        self.rows[:self.cursor] = first

    def row(self, y):
        return np.array(y if self.observe is None else self.observe @ y)

    def on_step(self, t_prev, y_prev, f_prev, t_new, y_new, f_new):
        if self.saveat is None:
            self.times.append(t_new)
            self.rows.append(self.row(y_new))
            return
        reach = t_new + 1e-12 * max(1.0, abs(t_new))
        pending = self.pending
        if pending[self.cursor] > reach:
            return
        # rows before t_new are interpolated, rows from t_new on are y_new
        start = inside = self.cursor
        while pending[inside] < t_new:
            inside += 1
        end = inside
        while pending[end] <= reach:
            end += 1
        self.cursor = end
        if self.observe is not None:
            # observe is linear, so it maps the interpolant's data instead
            # of every interpolated state
            y_prev, f_prev, y_new, f_new = (
                self.observe @ v for v in (y_prev, f_prev, y_new, f_new))
        if inside > start:
            # one broadcast call for all the times in the step; a lone time
            # stays a float, which is cheaper than a 1 x 1 array
            times = (pending[start] if inside == start + 1
                     else self.saveat[start:inside].reshape(self.column))
            self.rows[start:inside] = _hermite(times, t_prev, y_prev, f_prev,
                                               t_new, y_new, f_new)
        if end > inside:
            self.rows[inside:end] = y_new

    def finish(self, layout) -> Trajectory:
        if self.saveat is None:
            return Trajectory(np.array(self.times), np.array(self.rows), layout)
        return Trajectory(self.saveat[:self.cursor].copy(),
                          self.rows[:self.cursor], layout)


def integrate(f, u0, tspan, cfg: StepperConfig | None = None,
              saveat=None, layout=None, observe=None) -> Trajectory:
    """Integrate dy/dt = f(t, y) over tspan.

    ``f`` is any callable (a bound derivative program or a plain function).
    The trajectory is sampled at accepted solver steps, or at ``saveat``
    times via Hermite interpolation; a ``saveat`` time outside ``tspan`` is
    an error.  With ``observe``, an array whose last axis runs over the
    state, each sample stores ``observe @ state`` instead of the state, so
    the states themselves are never kept.  Non-finite states, a step too
    small to advance t, and step-budget exhaustion raise with the last good
    time attached.
    Without ``observe``, a bound program with identical subsystems started
    from a state that every permutation of them leaves unchanged steps only
    the orbit representatives (:meth:`~cqf.numerics.lowering.BoundRHS.orbits`),
    which can move the samples at rounding level; any other ``f`` is not.
    """
    cfg = cfg or StepperConfig.rk45()
    if layout is None:
        layout = getattr(getattr(f, "program", None), "layout", None)
    y = np.array(u0, dtype=np.complex128)
    orbits = f.orbits() if observe is None and hasattr(f, "orbits") else None
    if orbits is not None and orbits.fits(y):
        part = integrate(orbits.f, y[orbits.reps], tspan, cfg, saveat)
        return Trajectory(part.times, orbits.expand(part.states), layout)
    t0, t1 = sample_times(tspan).tolist()
    tab = _TABLEAUX[cfg.method]
    recorder = _Recorder(saveat, t0, t1, y, observe)
    stages = np.empty((len(tab.c), y.size), dtype=np.complex128)
    stages[0] = f(t0, y)

    # Stage inputs are products of rows of hA, the tableau scaled in place by
    # the current h, with the earlier stages; the last input is the new state.
    hA = np.empty_like(tab.A)
    inputs = [(i, float(tab.c[i]), hA[i, :i], stages[:i]) for i in range(1, len(stages))]
    t = t0
    h = cfg.dt or (t1 - t0) / 100.0
    scaled_by = None
    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if steps >= cfg.max_steps:
            raise IntegrationError(
                f"step budget exhausted at t = {t:.6g}", last_time=t)
        steps += 1
        if t + h > t1:
            h = t1 - t
        if t + h == t:
            raise IntegrationError(
                f"step size underflow at t = {t:.6g}", last_time=t)
        if h != scaled_by:
            np.multiply(tab.A, h, out=hA)
            scaled_by = h
        for i, node, row, earlier in inputs:
            y_new = y + row @ earlier
            stages[i] = f(t + node * h, y_new)
        ratio = 0.0
        if tab.e and y.size:
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y_new))
            ratio = float(np.max(np.abs(hA[-1] @ stages) / scale))
        # A non-finite last stage makes the error ratio non-finite, or the
        # next state for a fixed step.
        if not (np.isfinite(y_new).all() and ratio < np.inf):
            raise IntegrationError(
                f"non-finite state at t = {t + h:.6g}", last_time=t)
        if ratio <= 1.0:
            recorder.on_step(t, y, stages[0], t + h, y_new, stages[-1])
            t, y = t + h, y_new
            stages[0] = stages[-1]
        if tab.e:
            factor = _SAFETY * ratio ** -0.2 if ratio > 0 else _MAX_GROW
            h *= min(_MAX_GROW, max(_MIN_SHRINK, factor))

    return recorder.finish(layout)


# Pseudo-transient continuation: first pseudo-time step, its growth per
# accepted step, its cut after a failed one, the iteration budget, and the
# spectral abscissa (relative to max|J|) above which a root counts as unstable.
_PTC_DELTA0 = 0.1
_PTC_GROW = 1.5
_PTC_SHRINK = 0.25
_PTC_MAX_ITER = 200
_ABSCISSA_TOL = 1e-9


@dataclass(frozen=True)
class SteadyCertificate:
    """How a Newton steady state was checked.

    ``residual`` is max|f| over the full complex state, ``iterations`` the
    pseudo-transient steps taken and ``abscissa`` the largest real part of
    the eigenvalues of the real Jacobian at the root.
    """

    residual: float
    iterations: int
    abscissa: float


class _RealSystem:
    """f as a real system: the real parts of every entry and the imaginary
    parts of entries whose average is not self-adjoint (those stay real)."""

    def __init__(self, f, n):
        layout = getattr(getattr(f, "program", None), "layout", None)
        self.n = n
        self.complex = (np.ones(n, dtype=bool) if layout is None else
                        np.array([not s.self_adjoint for s in layout], dtype=bool))

    def pack(self, y):
        return np.concatenate((y.real, y.imag[self.complex]))

    def unpack(self, x):
        y = x[:self.n].astype(np.complex128)
        y[self.complex] += 1j * x[self.n:]
        return y

    def jacobian(self, f, y):
        """The real Jacobian, stored as complex: the spectra call only the
        complex LAPACK routines, and calling the real ones as well adds
        their code to the process (0.85 MB of peak RSS on the laser)."""
        dy, dconj = f.jacobian(y)
        du, dv = dy + dconj, 1j * (dy - dconj)     # d/dRe y, d/dIm y
        keep = self.complex
        return np.block([[du.real, dv.real[:, keep]],
                         [du.imag[keep], dv.imag[np.ix_(keep, keep)]]]) + 0j


def _newton_steady_state(f, u0, tol):
    """Pseudo-transient continuation x <- x + (I/delta - J)^-1 F(x) with a
    growing pseudo-time step delta; once the residual is below tolerance,
    plain Newton steps polish the root for as long as they halve it."""
    y = np.array(u0, dtype=np.complex128)
    if not y.size:
        return y
    system = _RealSystem(f, y.size)
    x = system.pack(y)
    y = system.unpack(x)
    fy = f(0.0, y)
    residual = float(np.max(np.abs(fy)))
    eye = np.eye(len(x))
    delta, pseudo_time, iterations = _PTC_DELTA0, 0.0, 0
    while iterations < _PTC_MAX_ITER:
        iterations += 1
        polish = residual <= tol * max(1.0, float(np.max(np.abs(y))))
        shift = 0.0 if polish else 1.0 / delta
        try:
            step = np.linalg.solve(shift * eye - system.jacobian(f, y),
                                   system.pack(fy)).real
        except np.linalg.LinAlgError:
            step = np.full(len(x), np.nan)   # fails like a non-finite trial
        with np.errstate(all="ignore"):
            x_new = x + step
            y_new = system.unpack(x_new)
            f_new = f(0.0, y_new)
        finite = np.isfinite(x_new).all() and np.isfinite(f_new).all()
        if polish and not (finite and np.max(np.abs(f_new)) < 0.5 * residual):
            break
        if not finite:
            delta *= _PTC_SHRINK
            continue
        x, y, fy = x_new, y_new, f_new
        residual = float(np.max(np.abs(fy)))
        pseudo_time += delta
        delta *= _PTC_GROW
    jac = system.jacobian(f, y)
    cert = SteadyCertificate(residual, iterations,
                             float(np.max(np.linalg.eigvals(jac).real)))
    if residual > tol * max(1.0, float(np.max(np.abs(y)))):
        raise NonStationaryError(
            f"no steady state after {iterations} pseudo-transient steps "
            f"(residual {residual:.3e})",
            residual=residual, time=pseudo_time, certificate=cert)
    if cert.abscissa > _ABSCISSA_TOL * max(1.0, float(np.max(np.abs(jac)))):
        raise NonStationaryError(
            f"the root found (residual {residual:.3e}) is unstable: spectral "
            f"abscissa {cert.abscissa:.3e} > 0",
            residual=residual, time=pseudo_time, certificate=cert)
    return y


def steady_state(f, u0, tol: float = 1e-8, t_max: float = 1e5):
    """The state at which f vanishes and to which the dynamics relaxes.

    Convergence means max|dy/dt| < tol * max(1, max|y|).  With a Jacobian
    (``f.jacobian(y)``, as on a bound derivative program) the root is found by
    pseudo-transient continuation on the real system in which self-adjoint
    averages stay real, polished by Newton, and certified: a root whose
    real Jacobian has an eigenvalue with positive real part is unstable and
    raises.  Without one, f is integrated by the default rk45 over windows
    that start at 20 time units and grow 1.5x each up to ``t_max``.  Either
    search failing raises :class:`NonStationaryError` with the final
    residual attached.
    """
    if hasattr(f, "jacobian"):
        return _newton_steady_state(f, u0, tol)
    y = np.array(u0, dtype=np.complex128)
    t = 0.0
    w = 20.0
    residual = float("inf")
    while t < t_max:
        t_end = min(t + w, t_max)
        traj = integrate(f, y, (t, t_end), saveat=[t_end])
        y = traj.final_state
        t = t_end
        residual = float(np.max(np.abs(f(t, y)))) if y.size else 0.0
        if residual < tol * max(1.0, float(np.max(np.abs(y))) if y.size else 0.0):
            return y
        w *= 1.5
    raise NonStationaryError(
        f"no steady state within t = {t_max:.6g} (residual {residual:.3e})",
        residual=residual, time=t_max,
    )


# Pade 13 numerator coefficients b_0..b_13 and the largest 1-norm theta_13
# for which the unscaled approximant is accurate to double-precision unit
# roundoff (N. J. Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152

# Rows a uniform grid fills by doubling before it advances a block at a time.
_BLOCK = 256


def expm(A) -> np.ndarray:
    """exp(A) by the [13/13] Pade approximant with scaling and squaring.

    A is scaled by 2^-s so that its 1-norm is at most theta_13, the
    approximant r = (V - U)^-1 (V + U) is formed from the even powers A^2,
    A^4 and A^6, and squared s times: Higham's (2005) scaling and squaring
    algorithm at its highest degree only.
    """
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, float))
    norm = float(np.max(np.abs(A).sum(axis=0))) if A.size else 0.0
    if not np.isfinite(norm):
        raise AlgebraError("the matrix exponential needs a finite matrix")
    s = max(0, int(np.ceil(np.log2(norm / _THETA13)))) if norm else 0
    A = A * 2.0 ** -s
    b = _PADE13
    eye = np.eye(len(A), dtype=A.dtype)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        R = R @ R
    return R


def _uniform_step(x: np.ndarray) -> float | None:
    """The step dx if every x_k lies within 4 ulps of max|x| of x_0 + k dx.

    A single point is uniform with step 0; an empty grid is not uniform.
    """
    if len(x) < 2:
        return 0.0 if len(x) else None
    step = (x[-1] - x[0]) / (len(x) - 1)
    grid = x[0] + step * np.arange(len(x))
    tol = 4 * np.spacing(np.max(np.abs(x)))
    return float(step) if np.max(np.abs(x - grid)) <= tol else None


def propagate(M, y0, taus, drive=None, observe=None) -> np.ndarray:
    """y(tau) of dy/dtau = M y + drive with y(0) = y0, exactly, at ``taus``.

    ``taus`` are strictly increasing and non-negative.  A drive becomes the
    last column of the augmented matrix [[M, drive], [0, 0]] acting on
    (y, 1), so M is never inverted.  On a uniform grid (every tau within 4
    ulps of max|tau| of tau_0 + k dtau) the one exponential P = exp(M dtau)
    fills a block of up to 256 rows by doubling (rows 1, 2-3, 4-7, ... are
    P, P^2, P^4, ... times the rows before them), and each later block is
    the one before it times P^block.  Any other grid takes one exponential
    per interval.  Returns one row per tau: the state, or ``observe @ y``
    when ``observe`` (an array whose last axis runs over the state) is
    given, in which case no more than one block of states is ever held.
    """
    taus = _finite(taus, "propagation time")
    if len(taus) == 0 or taus[0] < 0 or np.any(np.diff(taus) <= 0):
        raise AlgebraError("propagation times must be non-negative and "
                           "strictly increasing")
    M = np.asarray(M, dtype=np.complex128)
    y = np.asarray(y0, dtype=np.complex128)
    n = len(y)
    if drive is not None:
        M = np.block([[M, np.asarray(drive, dtype=np.complex128)[:, None]],
                      [np.zeros((1, n + 1), dtype=np.complex128)]])
        y = np.append(y, 1.0)
    weights = None if observe is None else np.asarray(observe).T

    def output(states):
        states = states[..., :n]
        return states if weights is None else states @ weights

    if taus[0] > 0:
        y = expm(M * taus[0]) @ y
    out = np.empty((len(taus),) + np.shape(output(y)), dtype=np.complex128)
    step = _uniform_step(taus)
    if step is None:
        out[0] = output(y)
        for k, dtau in enumerate(np.diff(taus), start=1):
            y = expm(M * dtau) @ y
            out[k] = output(y)
        return out
    # rows as row vectors: each product with a power of P is by its transpose
    power = expm(M * step).T
    block = y[None]
    size = min(len(taus), _BLOCK)
    while len(block) < size:
        block = np.concatenate((block, block[:size - len(block)] @ power))
        power = power @ power
    for start in range(0, len(taus), size):
        if start:
            block = block @ power
        rows = min(size, len(taus) - start)
        out[start:start + rows] = output(block[:rows])
    return out
