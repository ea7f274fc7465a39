"""Strong-convergence and long-run-average experiment drivers.

The convergence error between a coarse discretization and a reference is

    E = max_i ( (1/L) sum_k  max_j |u_coarse(t_i, k_c(x_j)) - u_ref(t_i, k_r(x_j))|^2 )^(1/2)

over the coarse time grid t_i, trajectories k and the coarse cell boundaries
x_j = j*pi/N, j = 0..N.  Each solution is read through its own
nearest-midpoint extension k_N (the value at the midpoint of the grid cell
containing x, with x = pi folded into the last cell).  The two extensions
sample points (h_coarse - h_ref)/2 apart, and that half-cell offset is the
dominant, first-order-in-h part of the spatial error; evaluating both fields
at exactly the same physical points would cancel it and measure a different,
higher-order quantity.  Coarse and reference runs share driving noise via
common random numbers: every trajectory owns one addressable stream per mode,
the coarse step consumes exact sums of the reference's fine increments, and a
coarse run with fewer modes truncates the same shared streams.

The temporal and spatial studies and ``mean_square_error`` (their one-rung
case) all run through one core, ``_coupled_errors``, which holds every rule
once: the trajectory count, the step counts of the horizon and the ladder,
the mode bound and the step-size coupling warning.  The studies only build
their ladders and tabulate the core's errors.  The core advances the
reference and all coarse levels in lockstep, so the reference is integrated
once per trajectory regardless of ladder length.
Noise is generated once, in blocks at the reference step and mode count; a
coarse level reads the first N_c modes of each block and sums each run of
``stride`` reference increments, which is exact (see ``noise``).
All trajectories are advanced as one vectorized batch, whatever ``threads``
is, and their per-trajectory rows are reduced once in trajectory-id order, so
the results do not depend on ``threads``.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .expressions import evaluate_expression
from .grid import SpectralBasis
from .integrator import (DriftSpec, HorizonError, SchemeParams,
                         TrajectoryBlowUpError, _advance, _noise_blocks, _ratio,
                         initial_state, whole_steps)
from .noise import NoiseSource
from .observables import (TestFunctionSpec, time_average_ensemble,
                          time_average_single)

__all__ = [
    "ConvergenceRow",
    "ConvergenceTable",
    "ErgodicRun",
    "ErgodicStudyResult",
    "pairwise_rates",
    "rate_regression",
    "mean_square_error",
    "run_temporal_study",
    "run_spatial_study",
    "run_ergodic_study",
]

# Trajectory-id offset separating ensemble streams.  Single run i draws id i,
# so a study takes at most this many initial conditions.
_ENSEMBLE_ID_BASE = 10_000


# ---------------------------------------------------------------------------
# tables and rate fitting


@dataclass(frozen=True)
class ConvergenceRow:
    tau: float
    n_modes: int
    error: float
    pair_rate: float | None  # None on the coarsest row


@dataclass(frozen=True)
class ConvergenceTable:
    """Result of a refinement study, ordered coarse to fine."""

    kind: str  # "time" or "space"
    rows: tuple[ConvergenceRow, ...]
    slope: float
    wallclock_s: float

    def errors(self) -> list[float]:
        return [row.error for row in self.rows]


def pairwise_rates(errors) -> list[float | None]:
    """log2(err[k-1] / err[k]) per halving of the step parameter.

    The first entry is always None.  A pair touching a zero error (a ladder
    row that coincides with the reference) has no finite rate and also maps
    to None; negative errors are rejected outright.
    """
    errors = [float(e) for e in errors]
    if any(e < 0 for e in errors):
        raise ValueError("errors must be nonnegative")
    rates: list[float | None] = [None]
    for k in range(1, len(errors)):
        if errors[k - 1] > 0 and errors[k] > 0:
            rates.append(math.log2(errors[k - 1] / errors[k]))
        else:
            rates.append(None)
    return rates


def rate_regression(step_params, errors) -> float:
    """Least-squares slope of log2(error) against log2(step parameter).

    The step parameter is tau for temporal refinement and h = pi/N for
    spatial refinement, so a method of order p yields slope ~ p.
    """
    step_params = np.asarray(step_params, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if step_params.shape != errors.shape or step_params.ndim != 1:
        raise ValueError("step_params and errors must be 1-D arrays of equal length")
    if len(errors) < 3:
        raise ValueError(f"rate regression needs at least 3 points, got {len(errors)}")
    if np.any(step_params <= 0) or np.any(errors <= 0):
        raise ValueError("rate regression requires positive step parameters and errors")
    return float(np.polyfit(np.log2(step_params), np.log2(errors), 1)[0])


# ---------------------------------------------------------------------------
# coupled coarse/reference integration


def _kappa_rows(n_eval_cells: int, n_grid: int) -> np.ndarray:
    """Nearest-midpoint indices for the boundary points x_j = j*pi/n_eval_cells.

    Index arithmetic is exact: x_j / h_grid = j * n_grid / n_eval_cells, so the
    containing cell is the integer floor of that ratio (folded at x = pi).
    """
    j = np.arange(n_eval_cells + 1)
    return np.minimum(j * n_grid // n_eval_cells, n_grid - 1)


@dataclass
class _CoarseEntry:
    params: SchemeParams
    stride: int              # reference steps per coarse step
    coeffs0: np.ndarray
    eval_coarse: np.ndarray  # maps coarse coefficients to evaluation values
    eval_ref: np.ndarray     # maps reference coefficients to the same points
    rows: np.ndarray = field(default=None)  # max|diff|^2 per checked step and trajectory


def _tile(coeffs0: np.ndarray, n_traj: int) -> np.ndarray:
    return np.repeat(np.asarray(coeffs0, dtype=np.float64)[:, None], n_traj, axis=1)


def _check_rows(entries: list[_CoarseEntry], sources, m0: int, m1: int) -> None:
    """Raise at the earliest non-finite row checked at a reference step in
    (m0, m1], or in [0, m1] when m0 == 0, naming its trajectory."""
    bad = []
    for entry in entries:
        lo = m0 // entry.stride + 1 if m0 else 0
        for i, l in np.argwhere(~np.isfinite(entry.rows[lo:m1 // entry.stride + 1]))[:1]:
            bad.append(((lo + int(i)) * entry.stride, int(l), entry.params))
    if bad:
        s, l, params = min(bad, key=lambda b: b[:2])
        tid = sources[l].trajectory_id
        raise TrajectoryBlowUpError(
            f"trajectory {tid}: non-finite error at reference step {s} "
            f"(coarse level tau={params.tau!r}, n_modes={params.basis.n_modes})",
            s, tid)


def _coarse_increments(fine: np.ndarray, m: int, stride: int,
                       carry: np.ndarray) -> np.ndarray:
    """Increments of the coarse steps ending within reference steps
    [m, m + len(fine)), ``fine[i]`` holding the increments of step m + i.

    A coarse step that straddles a block boundary is carried over as a running
    sum in ``carry``.  Every sum is exact (see ``noise``), so the grouping
    does not change a bit.
    """
    n = len(fine)
    head = min(-m % stride, n)  # steps that finish the coarse step open at m
    k = (n - head) // stride
    tail = head + k * stride
    incs = fine[head:tail].reshape(k, stride, *fine.shape[1:]).sum(axis=1)
    if head:
        carry += fine[:head].sum(axis=0)
        if (m + head) % stride == 0:
            incs = np.concatenate([carry[None], incs])
            carry[...] = 0.0
    if tail < n:
        carry[...] = fine[tail:].sum(axis=0)
    return incs


def _coupled_sums(params_ref: SchemeParams, coeffs0_ref: np.ndarray,
                  entries: list[_CoarseEntry], sources, n_ref_steps: int) -> None:
    """Advance reference and coarse levels in lockstep over one trajectory
    batch, filling ``entry.rows`` with max-over-space squared differences.
    A blow-up is raised at the end of the noise block in which it shows."""
    L = len(sources)
    ratio_ref = _ratio(params_ref, sources)
    state_ref = _tile(coeffs0_ref, L)
    states = [_tile(entry.coeffs0, L) for entry in entries]
    carries = [np.zeros((entry.params.basis.n_modes, L)) for entry in entries]
    for entry in entries:
        entry.rows = np.empty((n_ref_steps // entry.stride + 1, L))

    def record(entry: _CoarseEntry, state_c: np.ndarray, i: int) -> None:
        diff = entry.eval_coarse @ state_c - entry.eval_ref @ state_ref
        diff *= diff
        np.maximum.reduce(diff, axis=0, out=entry.rows[i])

    for entry, state_c in zip(entries, states):
        record(entry, state_c, 0)
    for m, block in _noise_blocks(params_ref.basis, sources, ratio_ref, 0, n_ref_steps):
        # a level's increments: the first N_c modes, summed over runs of
        # stride reference steps (exact, so equal to drawing them directly)
        coarse = [_coarse_increments(block[:, :e.params.basis.n_modes], m, e.stride, carry)
                  for e, carry in zip(entries, carries)]
        for i in range(block.shape[0]):
            state_ref = _advance(params_ref, state_ref, block[i],
                                 params_ref.basis.from_spectral(state_ref))
            s = m + i + 1
            for k, entry in enumerate(entries):
                if s % entry.stride == 0:
                    j = s // entry.stride
                    states[k] = _advance(entry.params, states[k],
                                         coarse[k][j - m // entry.stride - 1],
                                         entry.params.basis.from_spectral(states[k]))
                    record(entry, states[k], j)
        _check_rows(entries, sources, m, m + block.shape[0])


def _run_coupled(params_ref, coeffs0_ref, entries, sources, n_ref_steps,
                 threads: int) -> list[np.ndarray]:
    """Run the coupled study; returns per-entry sums over trajectories.

    All trajectories advance as one batch.  BLAS picks its kernel by the
    batch width, so a trajectory's floats depend on the batch it rides in;
    one batch keeps the results independent of ``threads``.  With
    ``threads > 1`` the batch runs on a one-worker pool, which adds no
    parallelism; the benchmark's ``spatial`` workload traces its ``map``.
    The per-trajectory rows are summed once, in trajectory-id order.
    """
    def work(batch):
        _coupled_sums(params_ref, coeffs0_ref, entries, batch, n_ref_steps)

    if threads <= 1:
        work(sources)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            list(pool.map(work, [sources]))
    return [entry.rows.sum(axis=1) for entry in entries]


def _check_modes(n_modes: int, n_modes_ref: int) -> None:
    if n_modes > n_modes_ref:
        raise HorizonError(f"ladder mode count {n_modes} must not exceed n_modes_ref = "
                           f"{n_modes_ref}: a coarse run may not have more modes than "
                           f"the reference", "n_modes_ladder")


def _coupled_errors(params_ref: SchemeParams, coeffs0_ref: np.ndarray, levels, *,
                    seed: int, n_trajectories: int, t_final: float,
                    threads: int) -> list[float]:
    """The error of each coarse level ``(params, coeffs0)`` against the
    reference, all driven by trajectories 0 .. n_trajectories-1 of ``seed``.

    The one home of the studies' rules: a level may not have more modes than
    the reference, its tau must be a whole number of reference steps, and
    t_final a whole number of steps of the reference and of every level;
    each discretization breaking the step-size coupling tau^9 / h <= 1 is
    named in a warning.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be positive, got {n_trajectories}")
    n_ref = params_ref.basis.n_modes
    n_ref_steps = whole_steps(t_final, params_ref.tau, "t_final in steps of tau_ref",
                              key="t_final")
    entries = []
    for params, coeffs0 in levels:
        n_c = params.basis.n_modes
        _check_modes(n_c, n_ref)
        stride = whole_steps(params.tau, params_ref.tau, "ladder tau in steps of tau_ref",
                             key="tau_ladder")
        whole_steps(t_final, params.tau, "t_final in steps of the ladder tau", key="t_final")
        entries.append(_CoarseEntry(params, stride, coeffs0,
                                    params.basis.basis_matrix[_kappa_rows(n_c, n_c)],
                                    params_ref.basis.basis_matrix[_kappa_rows(n_c, n_ref)]))
    for params in [entry.params for entry in entries] + [params_ref]:
        if not params.step_constraint_satisfied():
            warnings.warn(
                f"step-size coupling violated: tau^9 / h = "
                f"{params.tau**9 / params.basis.h:.3g} > 1 for tau={params.tau!r}, "
                f"n_modes={params.basis.n_modes}; the error bound may not apply",
                RuntimeWarning, stacklevel=3)
    sources = [NoiseSource(seed, k, tau_fine=params_ref.tau, n_modes_max=n_ref - 1)
               for k in range(n_trajectories)]
    sums = _run_coupled(params_ref, coeffs0_ref, entries, sources, n_ref_steps, threads)
    return [float(np.max(np.sqrt(s / n_trajectories))) for s in sums]


def _table(kind: str, rows, step_params, errors, t0: float) -> ConvergenceTable:
    """The table of ``(tau, n_modes)`` rows with their errors and pair rates;
    the slope needs three rows, all with positive errors, and is NaN
    otherwise."""
    rates = pairwise_rates(errors)
    slope = (rate_regression(step_params, errors)
             if len(errors) >= 3 and all(e > 0 for e in errors) else float("nan"))
    return ConvergenceTable(kind, tuple(ConvergenceRow(tau, n, err, rate)
                                        for (tau, n), err, rate in zip(rows, errors, rates)),
                            slope, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# public experiment entry points


def mean_square_error(params_coarse: SchemeParams, params_ref: SchemeParams,
                      u0_coarse: np.ndarray, u0_ref: np.ndarray, *,
                      seed: int, n_trajectories: int, t_final: float,
                      threads: int = 1) -> float:
    """Common-random-number mean-square distance between two discretizations:
    the one-rung case of the temporal and spatial studies.

    Requires tau_ref to divide tau_coarse and the coarse mode count not to
    exceed the reference's.  With identical parameters and initial data the
    two runs coincide bit-for-bit and the distance is exactly zero.
    """
    level = (params_coarse, initial_state(params_coarse, u0_coarse).coeffs)
    return _coupled_errors(params_ref, initial_state(params_ref, u0_ref).coeffs, [level],
                           seed=seed, n_trajectories=n_trajectories, t_final=t_final,
                           threads=threads)[0]


def run_temporal_study(*, basis: SpectralBasis, drift: DriftSpec, sigma: float,
                       t_final: float, tau_ref: float, tau_ladder,
                       initial: str, seed: int, n_trajectories: int,
                       threads: int = 1) -> ConvergenceTable:
    """Temporal refinement at fixed mode count against a fine-step reference.

    Every ladder step and the reference share per-mode noise streams at the
    reference resolution; ladder entries are integrated in one pass.  The
    regression slope needs at least three ladder entries and is NaN for
    shorter (degenerate) ladders, which still produce their error rows.
    """
    t0 = time.perf_counter()
    taus = sorted({float(t) for t in tau_ladder}, reverse=True)
    if not taus:
        raise ValueError("tau_ladder must not be empty")
    params_ref = SchemeParams(basis, drift, tau_ref, sigma)
    coeffs0 = initial_state(params_ref, evaluate_expression(initial, basis.grid)).coeffs
    levels = [(SchemeParams(basis, drift, tau, sigma), coeffs0) for tau in taus]
    errors = _coupled_errors(params_ref, coeffs0, levels, seed=seed,
                             n_trajectories=n_trajectories, t_final=t_final,
                             threads=threads)
    return _table("time", [(tau, basis.n_modes) for tau in taus], taus, errors, t0)


def run_spatial_study(*, drift: DriftSpec, sigma: float, t_final: float,
                      tau: float, n_modes_ladder, n_modes_ref: int,
                      initial: str, seed: int, n_trajectories: int,
                      threads: int = 1) -> ConvergenceTable:
    """Spatial refinement at fixed time step against a fine-grid reference.

    Coarse levels keep their first N-1 noise modes, which are shared with the
    reference's streams (truncation coupling).  As with the temporal study,
    the slope is NaN unless the ladder has at least three entries.
    """
    t0 = time.perf_counter()
    ns = sorted({int(n) for n in n_modes_ladder})
    if not ns:
        raise ValueError("n_modes_ladder must not be empty")
    _check_modes(ns[-1], n_modes_ref)  # before a basis of up to 40 B x N^2 is built

    def level(n: int):
        basis = SpectralBasis(n)
        params = SchemeParams(basis, drift, tau, sigma)
        return params, initial_state(params, evaluate_expression(initial, basis.grid)).coeffs

    params_ref, coeffs0_ref = level(n_modes_ref)
    errors = _coupled_errors(params_ref, coeffs0_ref, [level(n) for n in ns], seed=seed,
                             n_trajectories=n_trajectories, t_final=t_final,
                             threads=threads)
    return _table("space", [(tau, n) for n in ns], [np.pi / n for n in ns], errors, t0)


# ---------------------------------------------------------------------------
# long-run averages


@dataclass(frozen=True)
class ErgodicRun:
    label: str
    estimator: str  # "single" or "ensemble"
    initial: str
    estimate: float
    n_samples: int
    wallclock_s: float
    history: tuple[tuple[float, float], ...] = field(repr=False)


@dataclass(frozen=True)
class ErgodicStudyResult:
    runs: tuple[ErgodicRun, ...]


def run_ergodic_study(*, basis: SpectralBasis, drift: DriftSpec, sigma: float,
                      tau: float, t_final: float, initials, v_expr: str,
                      alpha1: float, alpha2: float, estimator: str = "both",
                      n_trajectories: int = 50, t_final_ensemble: float | None = None,
                      seed: int = 0, burn_in: float = 0.0,
                      thinning: int = 1) -> ErgodicStudyResult:
    """Long-run averages of the bounded test function per initial condition.

    Two estimators: ``single`` time-averages one long trajectory; ``ensemble``
    additionally averages over ``n_trajectories`` independent shorter
    trajectories (horizon ``t_final_ensemble``, defaulting to ``t_final``).
    Streams are partitioned by trajectory id: single runs use ids 0, 1, ...,
    ensemble run i uses ids 10000 + i*n_trajectories + l, so at most 10000
    initial conditions are accepted.  Runs come single, then ensemble, for
    each initial condition.
    """
    if estimator not in ("single", "ensemble", "both"):
        raise ValueError(f"estimator must be single, ensemble or both, got {estimator!r}")
    initials = list(initials)
    if not initials:
        raise ValueError("at least one initial condition is required")
    if len(initials) > _ENSEMBLE_ID_BASE:
        raise ValueError(f"at most {_ENSEMBLE_ID_BASE} initial conditions, got "
                         f"{len(initials)}: single run i draws trajectory id i, "
                         f"below the ensemble ids")
    params = SchemeParams(basis, drift, tau, sigma)
    spec = TestFunctionSpec.from_expression(basis, v_expr, alpha1, alpha2)
    burn_steps = whole_steps(burn_in, tau, "burn_in in steps of tau", minimum=0,
                             key="burn_in")
    horizons = {"single": ("t_final", t_final),
                "ensemble": ("t_final", t_final) if t_final_ensemble is None
                else ("t_final_ensemble", t_final_ensemble)}
    n_steps = {kind: whole_steps(value, tau, f"{key} in steps of tau", key=key)
               for kind, (key, value) in horizons.items()
               if estimator in (kind, "both")}
    n_samples = {kind: n - burn_steps + 1 for kind, n in n_steps.items()}  # m = burn..n
    if min(n_samples.values()) < 1:
        raise HorizonError(f"burn_in: {burn_in!r} leaves no samples of the "
                           f"{min(n_steps, key=n_steps.get)} estimator's horizon", "burn_in")
    runs: list[ErgodicRun] = []
    for i, expr in enumerate(initials):
        state0 = initial_state(params, evaluate_expression(expr, basis.grid))
        for kind in n_steps:
            first, count = ((i, 1) if kind == "single"
                            else (_ENSEMBLE_ID_BASE + i * n_trajectories, n_trajectories))
            sources = [NoiseSource(seed, first + l, tau_fine=tau, n_modes_max=basis.n_modes - 1)
                       for l in range(count)]
            t0 = time.perf_counter()
            if kind == "single":
                estimate, history, _ = time_average_single(
                    params, state0, sources[0], n_steps[kind], spec, burn_steps, thinning)
            else:
                estimate, _, history, _ = time_average_ensemble(
                    params, state0.coeffs, sources, n_steps[kind], spec, burn_steps, thinning)
            runs.append(ErgodicRun(f"{kind}[{i}]", kind, expr, estimate, n_samples[kind] * count,
                                   time.perf_counter() - t0, tuple(history)))
    return ErgodicStudyResult(tuple(runs))
