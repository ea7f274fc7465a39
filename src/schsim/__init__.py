"""Fully discrete solver and experiment harness for the 1-D stochastic
Cahn-Hilliard equation with additive space-time white noise and Neumann
boundary conditions: finite differences in space (diagonalized by sampled
cosines), strongly tamed exponential Euler in time, addressable noise shared
across refinement levels, and drivers for strong-convergence and long-run
average experiments."""

from .checkpoint import CheckpointData, read_checkpoint, write_checkpoint
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .experiments import (ConvergenceRow, ConvergenceTable, ErgodicRun,
                          ErgodicStudyResult, mean_square_error, pairwise_rates,
                          rate_regression, run_ergodic_study, run_spatial_study,
                          run_temporal_study)
from .expressions import evaluate_expression, validate_expression
from .grid import SpectralBasis, build_basis
from .integrator import (DriftSpec, SchemeParams, SchemeState,
                         TrajectoryBlowUpError, initial_state, run_ensemble,
                         run_trajectory, solution_at, state_from_coeffs, step)
from .noise import NoiseSource, stationary_variance
from .observables import (TestFunctionSpec, TimeAverageObserver, g_functional,
                          lyapunov_v, mass, phi_test, time_average_ensemble,
                          time_average_single)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "CheckpointData", "read_checkpoint", "write_checkpoint",
    "ConfigError", "RunConfig", "parse_config", "serialize_config",
    "ConvergenceRow", "ConvergenceTable", "ErgodicRun", "ErgodicStudyResult",
    "mean_square_error", "pairwise_rates", "rate_regression",
    "run_ergodic_study", "run_spatial_study", "run_temporal_study",
    "evaluate_expression", "validate_expression",
    "SpectralBasis", "build_basis",
    "DriftSpec", "SchemeParams", "SchemeState", "TrajectoryBlowUpError",
    "initial_state", "run_ensemble", "run_trajectory", "solution_at",
    "state_from_coeffs", "step",
    "NoiseSource", "stationary_variance",
    "TestFunctionSpec", "TimeAverageObserver",
    "g_functional", "lyapunov_v", "mass", "phi_test",
    "time_average_ensemble", "time_average_single",
    "CheckResult", "run_all_checks",
    "__version__",
]
