"""Functionals of the discrete solution and long-run average estimators.

The bounded test functions used for invariant-measure estimates are built from
the centered pairing

    g(u) = <v, u>_N - alpha1 <v, phi_0>_N <u, phi_0>_N,

i.e. the inner product of u against a profile v with ``alpha1`` of the
mean-mode contribution projected out, squashed through

    phi(u) = alpha2 * g / (1 + (g / alpha2)^2),   |phi| <= alpha2^2 / 2.

With alpha1 = 1 the pairing sees only mean-zero fluctuations; when the drift's
odd symmetry point coincides with the conserved mean, the fluctuation law is
symmetric and the long-run average of phi is exactly zero, which is the
closed-form reference the ergodic experiments converge to.

All functionals accept a single field (N,) or an (N, L) stack of trajectories.
Both long-run estimators run through one accumulator, ``TimeAverageObserver``,
which keeps its own sample count and sum of phi: the single estimator on one
trajectory, the ensemble estimator on the (N, L) stack.  R single estimators
advanced in lockstep as one (N, R) stack share one accumulator,
``_RowAverages``, which keeps each trajectory's bits of its own run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expressions import evaluate_expression
from .grid import SpectralBasis
from .integrator import SchemeParams, SchemeState, run_ensemble, run_trajectory

__all__ = [
    "TestFunctionSpec",
    "TimeAverageObserver",
    "g_functional",
    "phi_test",
    "lyapunov_v",
    "time_average_single",
    "time_average_ensemble",
]

# ~2.11e-154: below it the bound alpha2^2/2 on |phi| underflows and phi reads 0
MIN_ALPHA2 = math.sqrt(2.0 * sys.float_info.min)


@dataclass(frozen=True, eq=False)
class TestFunctionSpec:
    """Profile and shape parameters of the bounded test function.

    Attributes:
        v: Nodal samples of the pairing profile, shape (N,).
        alpha1: Fraction of the mean-mode pairing projected out (1.0 makes the
            functional blind to the conserved mean).
        alpha2: Squashing scale; |alpha2| >= MIN_ALPHA2.  |phi| <= alpha2^2/2.
    """

    __test__ = False  # not a test case despite the Test* name

    v: np.ndarray = field(repr=False)
    alpha1: float
    alpha2: float

    def __post_init__(self):
        v = np.array(self.v, dtype=np.float64)  # a read-only copy: its sum is cached
        if v.ndim != 1 or v.size == 0:
            raise ValueError("v must be a nonempty 1-D nodal field")
        if not np.all(np.isfinite(v)):
            raise ValueError("v contains non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        if not (isinstance(self.alpha1, (int, float, np.floating)) and math.isfinite(self.alpha1)):
            raise ValueError(f"alpha1 must be a finite real, got {self.alpha1!r}")
        if not (isinstance(self.alpha2, (int, float, np.floating))
                and math.isfinite(self.alpha2) and abs(self.alpha2) >= MIN_ALPHA2):
            raise ValueError(f"alpha2 must be a finite real with |alpha2| >= "
                             f"{MIN_ALPHA2:.3g}, got {self.alpha2!r}")

    @cached_property
    def _v_sum(self) -> float:
        """sum_i v_i, taken once per spec; ``g_functional`` reads it every call."""
        return float(self.v.sum())

    @classmethod
    def from_expression(cls, basis: SpectralBasis, expr: str,
                        alpha1: float, alpha2: float) -> "TestFunctionSpec":
        """Sample a closed-form profile (e.g. ``exp(x)``) on the basis grid."""
        return cls(evaluate_expression(expr, basis.grid), alpha1, alpha2)


def g_functional(basis: SpectralBasis, spec: TestFunctionSpec, u: np.ndarray):
    """Centered pairing g(u) = <v,u>_N - alpha1 <v,phi_0>_N <u,phi_0>_N.

    A float for one field, an (L,) row for a stack.  For one field the
    scalar arithmetic runs on Python floats, the same IEEE operations as on
    numpy scalars without their per-operation overhead.
    """
    u = np.asarray(u, dtype=np.float64)
    if spec.v.shape[0] != basis.n_modes:
        raise ValueError(
            f"test profile has {spec.v.shape[0]} nodes but basis has {basis.n_modes}")
    dot, total = spec.v @ u, np.add.reduce(u, axis=0)
    if u.ndim == 1:
        dot, total = float(dot), float(total)
    return _pairing(basis, spec, dot, total)


def _pairing(basis: SpectralBasis, spec: TestFunctionSpec, dot, total):
    """g from the plain sums ``dot`` = sum_i v_i u_i and ``total`` = sum_i u_i."""
    mean_part = (spec.alpha1 / np.pi) * (basis.h * spec._v_sum) * (basis.h * total)
    return basis.h * dot - mean_part


def phi_test(basis: SpectralBasis, spec: TestFunctionSpec, u: np.ndarray):
    """Bounded test function phi = alpha2 g / (1 + (g/alpha2)^2)."""
    return _squash(spec, g_functional(basis, spec, u))


def _squash(spec: TestFunctionSpec, g):
    """phi = alpha2 g / (1 + (g/alpha2)^2) from g."""
    try:
        squared = (g / spec.alpha2) ** 2
    except OverflowError:  # a Python float's power raises where numpy's gives inf
        squared = math.inf
    return spec.alpha2 * g / (1.0 + squared)


def lyapunov_v(basis: SpectralBasis, u: np.ndarray):
    """V(u) = <u,phi_0>^2 + sum_{j>=1} lambda_j^{-1} <u,phi_j>^2 + 1.

    The negative-order Sobolev energy plus the squared mean; the scheme
    contracts its conditional expectation at rate exp(-2 lambda_1 tau) up to
    an additive constant, which makes V a Lyapunov function for the chain.
    """
    coeffs = basis.to_spectral(u)
    inv = np.zeros(basis.n_modes)
    inv[1:] = 1.0 / basis.eigenvalues[1:]
    if coeffs.ndim == 2:
        inv = inv[:, None]
    return np.sum(inv * coeffs * coeffs, axis=0) + coeffs[0] ** 2 + 1.0


class TimeAverageObserver:
    """Trajectory observer accumulating the running time average of phi.

    Called as ``obs(m, state)``, it samples every visited state with index
    >= burn_in_steps (the initial state counts), recording (t, running
    average) every ``record_every``-th sample into ``history``.  It reads the
    nodal values the state carries, one trajectory's (N,) vector or an
    (N, L) stack.  ``count`` is the number of samples, ``total`` their sum
    and ``average`` total / count: a scalar for one trajectory, an (L,) row
    for a stack, whose history records the row's mean.  Recorded values are
    Python floats.
    """

    def __init__(self, params: SchemeParams, spec: TestFunctionSpec,
                 burn_in_steps: int = 0, record_every: int = 1):
        if burn_in_steps < 0:
            raise ValueError(f"burn_in_steps must be nonnegative, got {burn_in_steps}")
        if record_every < 1:
            raise ValueError(f"record_every must be a positive integer, got {record_every}")
        self.params = params
        self.spec = spec
        self.burn_in_steps = burn_in_steps
        self.record_every = record_every
        self.count = 0
        self.total = 0.0
        self.history: list[tuple[float, float]] = []
        self._last_t = 0.0

    def __call__(self, m: int, state: SchemeState) -> None:
        if m < self.burn_in_steps:
            return
        self.count += 1
        self.total += self._phi(state.nodal)
        self._last_t = m * self.params.tau
        if (self.count - 1) % self.record_every == 0:
            self._record()

    def _phi(self, nodal: np.ndarray):
        return phi_test(self.params.basis, self.spec, nodal)

    @property
    def average(self):
        """total / count; a ValueError before the first sample."""
        if self.count == 0:
            raise ValueError("time average has no samples yet")
        return self.total / self.count

    def _record(self) -> None:
        # the mean is taken here, not per sample; for a scalar it is exact
        self.history.append((self._last_t, float(np.mean(self.average))))

    def finalize(self) -> None:
        """Ensure the last sample is present in the history."""
        if self.count and (self.count - 1) % self.record_every:
            self._record()


class _RowAverages(TimeAverageObserver):
    """R single trajectories' ``TimeAverageObserver``s in one, for the
    (N, R) stack of a lockstep ``run_trajectory``: one call per state
    evaluates phi for every column.  ``total`` and ``average`` are (R,) rows
    and ``histories`` holds one history per trajectory, each bit for bit
    that of a ``TimeAverageObserver`` on the trajectory's own run.  The
    stack's (R, N) view ``.T`` is C-ordered: one ``np.add.reduce`` over its
    axis 1 sums each row as the (N,) sum does, and one ``np.matmul`` of its
    (1, N) rows by v as an (N, 1) column takes the R pairings, one BLAS dot
    per row with the bits of ``v @ row`` (``rows.dot(v)`` has other bits).
    The arithmetic after them runs per row on Python floats, as
    ``phi_test`` runs it on one field: numpy's array square differs from a
    Python float's ``** 2`` on some inputs."""

    def __init__(self, params: SchemeParams, spec: TestFunctionSpec, n_rows: int,
                 burn_in_steps: int = 0, record_every: int = 1):
        super().__init__(params, spec, burn_in_steps, record_every)
        self.total = np.zeros(n_rows)
        self.histories: list[list[tuple[float, float]]] = [[] for _ in range(n_rows)]

    def _phi(self, nodal: np.ndarray) -> np.ndarray:
        basis, spec, rows = self.params.basis, self.spec, nodal.T
        dots = np.matmul(rows[:, None, :], spec.v[:, None]).ravel().tolist()
        totals = np.add.reduce(rows, axis=1).tolist()
        return np.array([_squash(spec, _pairing(basis, spec, dot, total))
                         for dot, total in zip(dots, totals)])

    def _record(self) -> None:
        for history, average in zip(self.histories, self.average):
            history.append((self._last_t, float(average)))


def _check_burn_in(burn_in_steps: int, last_step: int) -> None:
    """Refuse a burn-in that leaves a run ending at ``last_step`` no sample."""
    if burn_in_steps > last_step:
        raise ValueError(f"burn_in_steps {burn_in_steps} is past the run's last step {last_step}")


def time_average_single(params: SchemeParams, state0, source, n_steps: int,
                        spec: TestFunctionSpec, burn_in_steps: int = 0,
                        record_every: int = 1):
    """Single-trajectory estimator: equal-weight time average of phi.

    Averages phi over the M+1 states m = 0..n_steps (after the optional
    burn-in).  Returns (average, history, final_state).

    R trajectories: ``state0`` and ``source`` may also be sequences of R
    states and R sources, advanced in lockstep by ``run_trajectory``, with
    phi evaluated for all of them in one observer call per step.  Returns a
    list of R (average, history, final_state) triples, each bit for bit
    that of the trajectory's own call.  A burn-in past the last state is a
    ``ValueError``, raised before any step.
    """
    lone = isinstance(state0, SchemeState)
    states = [state0] if lone else list(state0)
    _check_burn_in(burn_in_steps, (states[0].step_index if states else 0) + n_steps)
    if lone:
        obs = TimeAverageObserver(params, spec, burn_in_steps, record_every)
        final = run_trajectory(params, state0, source, n_steps, observers=(obs,))
        obs.finalize()
        return float(obs.average), obs.history, final
    obs = _RowAverages(params, spec, len(states), burn_in_steps, record_every)
    finals = run_trajectory(params, states, source, n_steps, observers=(obs,))
    obs.finalize()
    return [(float(average), history, final)
            for average, history, final in zip(obs.average, obs.histories, finals)]


def time_average_ensemble(params: SchemeParams, coeffs0: np.ndarray, sources,
                          n_steps: int, spec: TestFunctionSpec,
                          burn_in_steps: int = 0, record_every: int = 1):
    """Ensemble estimator: mean over trajectories of per-trajectory averages.

    All trajectories advance in lockstep as one (N, L) stack through the same
    observer as the single estimator; the recorded history holds the ensemble
    mean of the running time averages.  Returns
    (grand_average, per_trajectory_averages, history, final_coeffs).  A
    burn-in past the last state is a ``ValueError``, raised before any step.
    """
    _check_burn_in(burn_in_steps, n_steps)
    obs = TimeAverageObserver(params, spec, burn_in_steps, record_every)
    final = run_ensemble(params, coeffs0, sources, n_steps, observers=(obs,))
    obs.finalize()
    per_traj = obs.average
    return float(np.mean(per_traj)), per_traj, obs.history, final
