"""Numeric lowering and time integration."""

from .lowering import (BoundRHS, RHSProgram, initial_state, lower,
                       state_mapping)
from .steppers import StepperConfig, Trajectory, integrate, steady_state

__all__ = [
    "BoundRHS", "RHSProgram", "initial_state", "lower",
    "state_mapping", "StepperConfig", "Trajectory", "integrate",
    "steady_state",
]
