"""cqf: moment-closure compiler for open quantum systems.

Derives symbolic equations of motion for operator averages from a
Hamiltonian and jump operators, closes them by cumulant expansion to a
chosen order, lowers the closed system to executable ODE code, and computes
two-time correlation functions and power spectra.  A dense master-equation
backend serves as a brute-force cross-check at desk scale: ``me_evolve``,
``me_steady``, ``me_correlation`` (C(tau) from a given reference state)
and ``me_spectrum``.

All symbolic values are immutable after normalization and safe to share
across threads, and derivation keeps no global state; numeric integrations
own their private state buffers.
"""

from .algebra import (AverageSymbol, ComplexRational, HilbertSpace, I_UNIT,
                      Parameter, ProductSpace, QExpr, ScalarExpr, adjoint,
                      average_symbol, commutator, correlation_symbol, create,
                      destroy, fock, identity, nlevel, parameters, product,
                      qmul, transition, zero)
from .completion import complete, filter_by_name, missing_averages
from .correlation import (CorrelationSystem, LinearSystem, SpectrumResult,
                          build_correlation_system, correlation_trajectory,
                          decay_time, initial_values, linearize_steady,
                          spectrum_fourier, spectrum_laplace)
from .cumulant import (FILTER_PHASE, FilterFunction, OrderSpec, expand_average,
                       expand_scalar, joint_cumulant, moment_expansion_once,
                       set_partitions)
from .meanfield import (EquationSet, MeanfieldEquation, ModelDefinition,
                        average, meanfield_derive, qle_rhs)
from .numerics import (RHSProgram, StepperConfig, Trajectory, initial_state,
                       integrate, lower, state_mapping, steady_state)
from .oracle import (MEResult, TruncationSpec, ground_state, me_correlation,
                     me_evolve, me_spectrum, me_steady, to_matrix)

__version__ = "0.1.0"
