"""Strongly tamed exponential Euler scheme in the sampled-cosine basis.

One step of the fully discrete scheme for du = -(Delta^2 u - Delta f(u)) dt
+ sigma dW with Neumann conditions reads, per cosine mode j,

    c_j  <-  e^(-lambda_j^2 tau) * (c_j - tau * lambda_j * ft_j + sigma * db_j)

where ft = analyze(f(u)) / (1 + tau * ||u||_{w12}^12) is the tamed nonlinear
drift and db_j are independent Brownian increments of variance tau (mode 0
carries none).  Mode 0 is short-circuited to the identity, so the spatial mean
is conserved bit-for-bit.  The taming denominator uses the Parseval form
sum_j (1 + lambda_j) c_j^2 of the squared w12 norm, computed directly from the
state's coefficients.

The state lives in spectral space; nodal values are synthesized on demand for
the drift evaluation and for observers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import SpectralBasis
from .noise import NoiseSource

__all__ = [
    "DriftSpec",
    "SchemeParams",
    "SchemeState",
    "HorizonError",
    "TrajectoryBlowUpError",
    "initial_state",
    "state_from_coeffs",
    "step",
    "run_trajectory",
    "run_ensemble",
    "solution_at",
    "whole_steps",
]

_BLOCK_STEPS = 512        # most steps in one noise block
_BLOCK_FLOATS = 4_000_000  # most floats in a noise block of more than one step


class TrajectoryBlowUpError(RuntimeError):
    """The integration produced a non-finite state (drift overflow)."""

    def __init__(self, message: str, step_index: int, trajectory_id: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.trajectory_id = trajectory_id


@dataclass(frozen=True)
class DriftSpec:
    """Cubic reaction term f(x) = a0 x^3 + a1 x^2 + a2 x + a3.

    A strictly positive leading coefficient gives the double-well structure
    the scheme is built for.  ``a0 == 0`` is allowed only with
    ``validation_mode=True``; that switch exists so linear and drift-free
    configurations can be exercised against closed-form oracles.
    """

    a0: float
    a1: float = 0.0
    a2: float = 0.0
    a3: float = 0.0
    validation_mode: bool = False

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float, np.floating)) and math.isfinite(value)):
                raise ValueError(f"drift coefficient {name} must be a finite real, got {value!r}")
        if self.a0 < 0:
            raise ValueError(f"leading coefficient a0 must be nonnegative, got {self.a0}")
        if self.a0 == 0 and not self.validation_mode:
            raise ValueError("a0 == 0 (non-cubic drift) requires validation_mode=True")

    def evaluate(self, x):
        """f(x), elementwise."""
        return ((self.a0 * x + self.a1) * x + self.a2) * x + self.a3

    def derivative(self, x):
        """f'(x), elementwise."""
        return (3.0 * self.a0 * x + 2.0 * self.a1) * x + self.a2

    def one_sided_lipschitz(self, radius: float = 8.0, n_points: int = 10_000) -> float:
        """Numerical L_f = max(-f') over a grid on [-radius, radius].

        The dissipativity assumption behind the scheme's ergodicity theory
        asks for L_f below the smallest nonzero Laplacian eigenvalue.
        """
        x = np.linspace(-radius, radius, n_points)
        return float(np.max(-self.derivative(x)))


@dataclass(frozen=True)
class SchemeParams:
    """Immutable bundle of discretization and model parameters.

    ``lf_check_radius`` controls the interval on which the one-sided Lipschitz
    constant of the drift is estimated at construction time; a violation of
    the margin L_f < lambda_1 only warns (long-time statements may degrade,
    short-time integration is unaffected).
    """

    basis: SpectralBasis
    drift: DriftSpec
    tau: float
    sigma: float = 1.0
    lf_check_radius: float = 8.0

    def __post_init__(self):
        if not isinstance(self.basis, SpectralBasis):
            raise TypeError("basis must be a SpectralBasis")
        if not (isinstance(self.tau, (int, float, np.floating))
                and math.isfinite(self.tau) and 0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not (isinstance(self.sigma, (int, float, np.floating))
                and math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be a finite nonnegative real, got {self.sigma!r}")
        lf = self.drift.one_sided_lipschitz(self.lf_check_radius)
        lam1 = self.basis.eigenvalues[1]
        if lf >= lam1:
            warnings.warn(
                f"drift violates the dissipativity margin: L_f = {lf:.6g} >= "
                f"lambda_1 = {lam1:.6g} (estimated on [-{self.lf_check_radius}, "
                f"{self.lf_check_radius}]); long-time averages may not converge",
                RuntimeWarning, stacklevel=2)

    @cached_property
    def semigroup(self) -> np.ndarray:
        factors = self.basis.semigroup_factor(self.tau)
        factors.setflags(write=False)
        return factors

    def step_constraint_satisfied(self) -> bool:
        """Step-size coupling h^(-1) tau^9 <= 1 assumed by the error analysis."""
        return self.tau**9 / self.basis.h <= 1.0


@dataclass(frozen=True, eq=False)
class SchemeState:
    """Trajectory state: step counter, spectral coefficients, cached mean.

    ``mass0`` is defined as coeffs[0]/sqrt(pi) at construction; because the
    step never touches mode 0, the identity mass0 == coeffs[0]/sqrt(pi) holds
    exactly forever.
    """

    step_index: int
    coeffs: np.ndarray = field(repr=False)
    mass0: float

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError(f"step_index must be nonnegative, got {self.step_index}")


def initial_state(params: SchemeParams, u0: np.ndarray) -> SchemeState:
    """Build the m = 0 state from a nodal initial condition."""
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (params.basis.n_modes,):
        raise ValueError(
            f"initial condition must have shape ({params.basis.n_modes},), got {u0.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial condition contains non-finite values")
    coeffs = params.basis.to_spectral(u0)
    return SchemeState(0, coeffs, float(coeffs[0]) / math.sqrt(math.pi))


def state_from_coeffs(step_index: int, coeffs: np.ndarray) -> SchemeState:
    """Rebuild a state from stored coefficients (checkpoint resume)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.ndim != 1:
        raise ValueError("coefficients must be a 1-D vector")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients contain non-finite values")
    return SchemeState(int(step_index), coeffs, float(coeffs[0]) / math.sqrt(math.pi))


def _advance(params: SchemeParams, coeffs: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """Core update; ``coeffs`` and ``dw`` may be (N,) vectors or (N, L) stacks."""
    basis = params.basis
    lam = basis.eigenvalues if coeffs.ndim == 1 else basis.eigenvalues[:, None]
    sem = params.semigroup if coeffs.ndim == 1 else params.semigroup[:, None]
    u = basis.from_spectral(coeffs)
    drift_coeffs = basis.to_spectral(params.drift.evaluate(u))
    w12_sq = np.sum((1.0 + lam) * coeffs * coeffs, axis=0)
    denom = 1.0 + params.tau * w12_sq**6
    new = sem * (coeffs - params.tau * lam * (drift_coeffs / denom) + params.sigma * dw)
    new[0] = coeffs[0]  # exact mean conservation
    return new


def step(params: SchemeParams, state: SchemeState, noise_coeffs: np.ndarray) -> SchemeState:
    """Advance one step with the given spectral noise increment.

    ``noise_coeffs[0]`` must be exactly zero (the mean carries no noise).
    Raises :class:`TrajectoryBlowUpError` if the update is non-finite.
    """
    noise_coeffs = np.asarray(noise_coeffs, dtype=np.float64)
    if noise_coeffs.shape != state.coeffs.shape:
        raise ValueError(
            f"noise shape {noise_coeffs.shape} does not match state shape {state.coeffs.shape}")
    if noise_coeffs[0] != 0.0:
        raise ValueError("noise increment for mode 0 must be exactly zero")
    new = _advance(params, state.coeffs, noise_coeffs)
    if not np.all(np.isfinite(new)):
        raise TrajectoryBlowUpError(
            f"non-finite state at step {state.step_index + 1}", state.step_index + 1)
    return SchemeState(state.step_index + 1, new, state.mass0)


class HorizonError(ValueError):
    """A configured duration that is not a whole number of steps; ``key``
    names its config key."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


def whole_steps(value: float, base: float, what: str, minimum: int = 1, *,
                key: str | None = None) -> int:
    """The integer k >= ``minimum`` with value == k * base up to 1e-12 relative.
    The one rule for horizons, burn-in and step ratios: never rounds.  A
    failure raises ``HorizonError`` when ``key`` names a config duration."""
    k = round(value / base)
    if k < minimum or abs(value - k * base) > 1e-12 * abs(value):
        kind = "positive" if minimum >= 1 else "nonnegative"
        message = f"{what}: {value!r} must be a {kind} integer multiple of {base!r}"
        raise ValueError(message) if key is None else HorizonError(message, key)
    return k


def _ratio(params: SchemeParams, sources) -> int:
    """Fine increments per scheme step, shared by every source."""
    ratios = {whole_steps(params.tau, src.tau_fine, "tau in steps of tau_fine") for src in sources}
    if len(ratios) != 1:
        raise ValueError("all sources in an ensemble must share tau_fine")
    return ratios.pop()


def _noise_blocks(basis: SpectralBasis, sources, ratio: int, m0: int, m1: int):
    """Yield (m, block) covering steps m0 <= m < m1, block[i] being the
    (N, L) increments of step m + i for the L sources.  A block holds at
    most 512 steps and, beyond one step, at most 4M floats."""
    n = basis.n_modes
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // (n * len(sources))))
    for m in range(m0, m1, steps):
        m_next = min(m + steps, m1)
        block = np.empty((m_next - m, n, len(sources)))
        for l, src in enumerate(sources):
            block[:, :, l] = src.increment_matrix(basis, m, m_next, ratio)
        yield m, block


def run_trajectory(params: SchemeParams, state: SchemeState, source: NoiseSource,
                   n_steps: int, observers=()) -> SchemeState:
    """Run ``n_steps`` scheme steps, notifying observers at every state.

    Observers are callables ``obs(m, state)`` invoked at the initial state
    (m = state.step_index) and after every step, in order.  The trajectory is
    a pure function of (params, state, source): noise is addressed by step
    index, so a resumed run consumes exactly the increments the uninterrupted
    run would.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    ratio = _ratio(params, [source])
    for obs in observers:
        obs(state.step_index, state)
    m0 = state.step_index
    for _, block in _noise_blocks(params.basis, [source], ratio, m0, m0 + n_steps):
        for dw in block[:, :, 0]:
            try:
                state = step(params, state, dw)
            except TrajectoryBlowUpError as exc:
                raise TrajectoryBlowUpError(
                    f"trajectory {source.trajectory_id}: {exc}",
                    exc.step_index, source.trajectory_id) from None
            for obs in observers:
                obs(state.step_index, state)
    return state


def run_ensemble(params: SchemeParams, coeffs0: np.ndarray, sources, n_steps: int,
                 observer=None, start_index: int = 0) -> np.ndarray:
    """Advance L coupled trajectories in lockstep; returns final (N, L) coeffs.

    ``coeffs0`` is either a single (N,) start state shared by all trajectories
    or an (N, L) stack.  ``observer``, if given, is called as
    ``observer(m, coeffs_matrix)`` at the initial state and after every step.
    Trajectory l draws from ``sources[l]``; all sources must share tau_fine.
    """
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    sources = list(sources)
    if not sources:
        raise ValueError("at least one noise source is required")
    ratio = _ratio(params, sources)
    n = params.basis.n_modes
    coeffs0 = np.asarray(coeffs0, dtype=np.float64)
    if coeffs0.ndim == 1:
        coeffs = np.repeat(coeffs0[:, None], len(sources), axis=1)
    else:
        coeffs = coeffs0.copy()
    if coeffs.shape != (n, len(sources)):
        raise ValueError(f"coeffs0 must have shape ({n},) or ({n}, {len(sources)})")

    if observer is not None:
        observer(start_index, coeffs)
    m = start_index
    for _, block in _noise_blocks(params.basis, sources, ratio, m, m + n_steps):
        for dw in block:
            coeffs = _advance(params, coeffs, dw)
            m += 1
            if not np.all(np.isfinite(coeffs)):
                bad = int(np.argmax(~np.all(np.isfinite(coeffs), axis=0)))
                raise TrajectoryBlowUpError(
                    f"trajectory {sources[bad].trajectory_id}: non-finite state at step {m}",
                    m, sources[bad].trajectory_id)
            if observer is not None:
                observer(m, coeffs)
    return coeffs


def solution_at(basis: SpectralBasis, state: SchemeState, x):
    """Evaluate the piecewise-linear extension of the current state at x."""
    return basis.interpolate(basis.from_spectral(state.coeffs), x)
