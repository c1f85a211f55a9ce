"""Explicit Runge-Kutta time integration over complex state vectors.

Two steppers: the classic fixed-step 4th-order scheme, and the embedded
Fehlberg 4(5) pair with standard error-per-step control (the 4th-order
solution is propagated, the 5th-order one provides the error estimate).
Requested output times are filled in by cubic Hermite interpolation between
accepted steps as integration proceeds, so the controller's step choice is
never distorted and long runs do not accumulate per-step storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AlgebraError, IntegrationError, NonStationaryError

# Fehlberg 4(5) tableau.
_FB_C = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_FB_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3554.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_FB_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
_FB_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0, -9.0 / 50.0,
          2.0 / 55.0)

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
        if self.method not in ("rk4", "rk45"):
            raise AlgebraError(f"unknown method {self.method!r}")
        if self.method == "rk4" and (self.dt is None or self.dt <= 0):
            raise AlgebraError("fixed-step integration needs a positive dt")
        if self.rtol <= 0 or self.atol <= 0:
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
                series = self.states[:, k]
                want_conj = sym.conjugated != lhs.conjugated
                return series.conjugate() if want_conj else series
        raise AlgebraError(f"symbol {sym!r} not in trajectory layout")


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

    Rows at requested times go straight into one preallocated array; the
    number of solver steps is not known in advance, so those rows are
    collected in a list.
    """

    def __init__(self, saveat, t0, y0, f0):
        if saveat is None:
            self.saveat = None
            self.times = [t0]
            self.rows = [y0.copy()]
            return
        self.saveat = np.asarray(saveat, dtype=float)
        if len(self.saveat) == 0:
            raise AlgebraError("saveat must contain at least one time")
        if np.any(np.diff(self.saveat) <= 0):
            raise AlgebraError("saveat times must be strictly increasing")
        self.rows = np.empty((len(self.saveat),) + y0.shape, dtype=y0.dtype)
        self.cursor = 0
        while (self.cursor < len(self.saveat)
               and self.saveat[self.cursor] <= t0):
            self.rows[self.cursor] = y0
            self.cursor += 1

    def on_step(self, t_prev, y_prev, f_prev, t_new, y_new, f_new):
        if self.saveat is None:
            self.times.append(t_new)
            self.rows.append(y_new.copy())
            return
        while self.cursor < len(self.saveat) and self.saveat[self.cursor] <= t_new + 1e-12 * max(1.0, abs(t_new)):
            t = float(self.saveat[self.cursor])
            if t >= t_new:
                self.rows[self.cursor] = y_new
            else:
                self.rows[self.cursor] = _hermite(t, t_prev, y_prev, f_prev,
                                                  t_new, y_new, f_new)
            self.cursor += 1

    def finish(self, layout) -> Trajectory:
        if self.saveat is None:
            return Trajectory(np.array(self.times), np.array(self.rows), layout)
        return Trajectory(self.saveat[:self.cursor].copy(),
                          self.rows[:self.cursor], layout)


def integrate(f, u0, tspan, cfg: StepperConfig | None = None,
              saveat=None, layout=None) -> Trajectory:
    """Integrate dy/dt = f(t, y) over tspan.

    ``f`` is any callable (a bound derivative program or a plain function).
    The trajectory is sampled at accepted solver steps, or at ``saveat``
    times via Hermite interpolation.  Non-finite states and step-budget
    exhaustion raise with the last good time attached.
    """
    cfg = cfg or StepperConfig.rk45()
    if layout is None:
        program = getattr(f, "program", None)
        if program is not None:
            layout = program.layout
    t0, t1 = float(tspan[0]), float(tspan[1])
    if not t0 < t1:
        raise AlgebraError("tspan must satisfy t0 < t1")
    y = np.array(u0, dtype=np.complex128).copy()
    f0 = np.asarray(f(t0, y), dtype=np.complex128)
    recorder = _Recorder(saveat, t0, y, f0)
    edge = 1e-14 * max(1.0, abs(t1))

    t = t0
    steps = 0
    if cfg.method == "rk4":
        dt = cfg.dt
        while t < t1 - edge:
            if steps >= cfg.max_steps:
                raise IntegrationError(
                    f"step budget exhausted at t = {t:.6g}", last_time=t)
            h = dt if t + dt <= t1 else t1 - t
            k1 = f0
            k2 = f(t + 0.5 * h, y + (0.5 * h) * k1)
            k3 = f(t + 0.5 * h, y + (0.5 * h) * k2)
            k4 = f(t + h, y + h * k3)
            y_new = y + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            t_new = t + h
            if not np.isfinite(y_new).all():
                raise IntegrationError(
                    f"non-finite state at t = {t_new:.6g}", last_time=t)
            f_new = np.asarray(f(t_new, y_new), dtype=np.complex128)
            recorder.on_step(t, y, f0, t_new, y_new, f_new)
            t, y, f0 = t_new, y_new, f_new
            steps += 1
    else:
        h = cfg.dt if cfg.dt else (t1 - t0) / 100.0
        inv_order = 0.2
        while t < t1 - edge:
            if steps >= cfg.max_steps:
                raise IntegrationError(
                    f"step budget exhausted at t = {t:.6g}", last_time=t)
            if t + h > t1:
                h = t1 - t
            k1 = f0
            k2 = f(t + _FB_C[1] * h, y + (h * 0.25) * k1)
            k3 = f(t + _FB_C[2] * h,
                   y + h * (_FB_A[2][0] * k1 + _FB_A[2][1] * k2))
            k4 = f(t + _FB_C[3] * h,
                   y + h * (_FB_A[3][0] * k1 + _FB_A[3][1] * k2
                            + _FB_A[3][2] * k3))
            k5 = f(t + _FB_C[4] * h,
                   y + h * (_FB_A[4][0] * k1 + _FB_A[4][1] * k2
                            + _FB_A[4][2] * k3 + _FB_A[4][3] * k4))
            k6 = f(t + _FB_C[5] * h,
                   y + h * (_FB_A[5][0] * k1 + _FB_A[5][1] * k2
                            + _FB_A[5][2] * k3 + _FB_A[5][3] * k4
                            + _FB_A[5][4] * k5))
            y4 = y + h * (_FB_B4[0] * k1 + _FB_B4[2] * k3 + _FB_B4[3] * k4
                          + _FB_B4[4] * k5)
            y5 = y + h * (_FB_B5[0] * k1 + _FB_B5[2] * k3 + _FB_B5[3] * k4
                          + _FB_B5[4] * k5 + _FB_B5[5] * k6)
            err = np.abs(y5 - y4)
            scale = cfg.atol + cfg.rtol * np.maximum(np.abs(y), np.abs(y4))
            ratio = float(np.max(err / scale)) if y.size else 0.0
            steps += 1
            if ratio <= 1.0:
                t_new = t + h
                if not np.isfinite(y4).all():
                    raise IntegrationError(
                        f"non-finite state at t = {t_new:.6g}", last_time=t)
                f_new = np.asarray(f(t_new, y4), dtype=np.complex128)
                recorder.on_step(t, y, f0, t_new, y4, f_new)
                t, y, f0 = t_new, y4, f_new
            factor = (_SAFETY * ratio ** -inv_order) if ratio > 0 else _MAX_GROW
            h *= min(_MAX_GROW, max(_MIN_SHRINK, factor))

    return recorder.finish(layout)


def steady_state(f, u0, cfg: StepperConfig | None = None, tol: float = 1e-8,
                 t_max: float = 1e5, window: float = 20.0):
    """Integrate until the derivative norm is negligible; return the state.

    Convergence means max|dy/dt| < tol * max(1, max|y|).  Windows grow
    geometrically; hitting the time cap without convergence raises with the
    final residual attached.
    """
    cfg = cfg or StepperConfig.rk45()
    y = np.array(u0, dtype=np.complex128)
    t = 0.0
    w = float(window)
    residual = float("inf")
    while t < t_max:
        t_end = min(t + w, t_max)
        traj = integrate(f, y, (t, t_end), cfg, saveat=[t_end])
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
