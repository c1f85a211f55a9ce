"""Observable post-processing of trajectories.

Observables are either operator expressions (averaged, expanded to the
system's order, and evaluated along the trajectory) or built-ins:

* ``mandel_q(mode)``: (variance of n minus mean of n) / mean of n, the
  standard sub-Poissonian witness.  Needs the fourth-order moment
  <a'a'aa>, so the system must be derived at order >= 4.
* ``temperature(mode, omega)``: occupation converted to kelvin through the
  thermal relation k_B T = n hbar omega, with omega in 1/s.
"""

from __future__ import annotations

import numpy as np

from ..algebra.averages import average_symbol
from ..algebra.qexpr import QExpr, qmul
from ..algebra.render import render_average
from ..cumulant import expand_scalar
from ..errors import AlgebraError, EvaluationError
from ..meanfield import average
from ..numerics.steppers import Trajectory

HBAR = 1.0545718176461565e-34    # J s
KB = 1.380649e-23                # J / K


def _series_of_scalar(expr, traj: Trajectory, params: dict) -> np.ndarray:
    columns = {fam: traj.column(fam) for fam in expr.average_families()}
    out = np.empty(len(traj), dtype=np.complex128)
    out[:] = expr.evaluate(params, columns)
    return out


def evaluate_observables(defs, traj: Trajectory, order, filt,
                         params: dict | None = None) -> dict[str, np.ndarray]:
    """Evaluate observable definitions along a trajectory.

    Returns name -> complex series (real-valued built-ins return real
    arrays).  A missing average names the moment order the caller must
    derive at.
    """
    params = params or {}
    out: dict[str, np.ndarray] = {}
    for obs in defs:
        if obs.kind == "expr":
            expanded = expand_scalar(average(obs.expr), order, filt)
            out[obs.name] = _series_of_scalar(expanded, traj, params)
        elif obs.kind == "mandel_q":
            out[obs.name] = mandel_q(obs.mode, traj)
        elif obs.kind == "temperature":
            out[obs.name] = temperature(obs.mode, obs.omega, traj)
        else:
            raise EvaluationError(f"unknown observable kind {obs.kind!r}")
    return out


def _occupation(mode: QExpr, traj: Trajectory, caller: str) -> np.ndarray:
    """Series of <mode' mode>, else an error naming ``caller``."""
    n_sym = average_symbol(qmul(mode.dag(), mode).monomial_ops())
    try:
        return traj.column(n_sym)
    except AlgebraError:
        raise EvaluationError(
            f"{caller} needs {render_average(n_sym)} in the system") from None


def mandel_q(mode: QExpr, traj: Trajectory) -> np.ndarray:
    """Sub-Poissonian statistics witness of a bosonic mode.

    Returns NaN where the occupation is numerically zero (vacuum limit).
    """
    n = _occupation(mode, traj, "mandel_q")
    ad = mode.dag()
    n4_sym = average_symbol(qmul(qmul(ad, ad), qmul(mode, mode)).monomial_ops())
    try:
        n4 = traj.column(n4_sym)
    except AlgebraError:
        raise EvaluationError(
            f"mandel_q needs the fourth-order moment {render_average(n4_sym)}; "
            "derive the system with order >= 4"
        ) from None
    n_re = n.real
    q = np.full(len(n_re), np.nan)
    ok = np.abs(n_re) > 1e-12
    q[ok] = (n4.real[ok] - n_re[ok] ** 2) / n_re[ok]
    return q


def temperature(mode: QExpr, omega: float, traj: Trajectory) -> np.ndarray:
    """Occupation of a mode as a temperature in kelvin (omega in 1/s)."""
    n = _occupation(mode, traj, "temperature")
    return n.real * HBAR * float(omega) / KB


def occupation_to_kelvin(n: float, omega: float) -> float:
    return float(n) * HBAR * float(omega) / KB
