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
their ladders and tabulate the core's errors.  The core builds each level
once, as a ``_Level`` record (the reference first), and ``_coupled_sums``
advances all of them in lockstep, so the reference is integrated once per
trajectory regardless of ladder length.  Levels that share (tau, drift,
sigma) form a group, advanced as one ``integrator._LevelStack`` with one
``_advance`` call per step: in a spatial study the reference and every
coarse level, in a temporal study each level alone, apart from a rung equal
to tau_ref, which joins the reference.  A group of one level is that level's
own ``SchemeParams``.  The elementwise work runs once on the stack; the
analysis and synthesis products, the w12 column sums and the error record's
products stay per level, because their bits depend on the operand's shape,
so each level keeps the bits of its own run.
Noise is generated once, in blocks at the reference step and mode count; a
coarse level reads the first N_c modes of each block and sums each run of
``stride`` reference increments, which is exact (see ``noise``).  A block
draws modes up to the largest ``SchemeParams.live_modes`` of the levels, the
union of their live modes, and leaves the rest 0.0: those modes have a
semigroup factor of exactly 0.0 at every level, so no error bit moves (see
``integrator``).  At criterion 4's shape (N = 64, tau_ref = 2^-12) the
reference keeps all its modes live; at criterion 5's (N_ref = 256, tau =
2^-12) the union is 64 modes, set by the N = 64 rung, against the
reference's 43.
All trajectories are advanced as one vectorized batch, whatever ``threads``
is, and ``_Group.record`` sums each step's per-trajectory row over them, in
trajectory-id order, as it makes it, so the results do not depend on
``threads`` and no row is kept.  After each noise block one check runs: if
any state or new sum is not finite, every level is rerun alone from t = 0,
reference first, and the first blow-up is reported by ``integrator.step`` as
``trajectory k: non-finite state at step s (level tau=..., n_modes=...)``, s
being the failing level's own step.  Otherwise it is a ``ValueError``: ``level
tau=..., n_modes=...: non-finite error at reference step s although every state
is finite: a squared difference to the reference, or its sum over trajectories,
overflows``, s being the first reference step whose sum is not finite.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .expressions import evaluate_expression
from .grid import SpectralBasis
from .integrator import (DriftSpec, HorizonError, SchemeParams, SchemeState,
                         TrajectoryBlowUpError, _advance, _noise_blocks, _ratio,
                         _stack_levels, initial_state, run_ensemble, whole_steps)
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
    step: float  # the refined step parameter: tau, or h = pi/N
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


@dataclass(frozen=True, eq=False)
class _Level:
    """One level of a coupled run, equal only to itself: its scheme, its
    initial coefficients and its reference steps per step.  A coarse level
    also maps its own coefficients and the reference's to the evaluation
    points; the reference comes first and has no maps."""

    params: SchemeParams
    coeffs0: np.ndarray
    stride: int = 1
    eval_coarse: np.ndarray | None = None
    eval_ref: np.ndarray | None = None


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


class _Group:
    """Levels sharing (tau, drift, sigma), and so a stride, advanced as one
    ``_LevelStack`` (a lone level as its own params); its coarse levels
    record their sums together."""

    def __init__(self, levels, width: int, n_ref_steps: int):
        self.stride = levels[0].stride
        self.stack = _stack_levels([level.params for level in levels])
        self.state = np.repeat(np.concatenate([level.coeffs0 for level in levels])[:, None],
                               width, axis=1)
        lone = len(levels) == 1
        # a lone level synthesizes as ``step`` does, a stack level by level
        self.synthesize = (levels[0].params.basis.from_spectral if lone else
                           partial(self.stack.synthesize, out=np.empty_like(self.state)))
        self.n_max = max(level.params.basis.n_modes for level in levels)
        self.carry = np.zeros((self.n_max, width))
        # coarse levels, their state rows and their rows in the record buffers
        coarse = [(level, rows) for level, rows
                  in zip(levels, [slice(None)] if lone else self.stack.rows)
                  if level.eval_coarse is not None]
        self.coarse = [level for level, _ in coarse]
        bounds = np.cumsum([0] + [level.eval_coarse.shape[0] for level in self.coarse])
        self.evals = [(level.eval_coarse, level.eval_ref, rows, slice(a, b))
                      for (level, rows), a, b in zip(coarse, bounds[:-1], bounds[1:])]
        self.starts = bounds[:-1]
        self.values = np.empty((bounds[-1], width))
        self.ref_values = np.empty_like(self.values)
        self.sums = np.empty((n_ref_steps // self.stride + 1, len(self.coarse)))

    def record(self, j: int, state_ref: np.ndarray) -> None:
        """Row j of sums, one per coarse level: the per-level products, then one
        subtract, square, max over space and sum over trajectories."""
        for eval_coarse, eval_ref, rows, out in self.evals:
            np.matmul(eval_coarse, self.state[rows], out=self.values[out])
            np.matmul(eval_ref, state_ref, out=self.ref_values[out])
        diff = np.subtract(self.values, self.ref_values, out=self.values)
        diff *= diff
        np.add.reduce(np.maximum.reduceat(diff, self.starts, axis=0), axis=1, out=self.sums[j])


def _coupled_sums(levels, sources, n_ref_steps: int) -> list[np.ndarray]:
    """Advance the ``_Level``s, reference first, in lockstep over one
    trajectory batch; returns per coarse level the max-over-space squared
    differences per checked step, summed over the trajectories.

    Levels sharing (tau, drift, sigma) advance as one group (see the module
    docstring), whose record runs the subtract, square, max and sum over the
    trajectories once on its levels' concatenated rows.  After each noise
    block every group's state and every new sum is checked for finiteness
    (see ``_raise_non_finite``).
    """
    ref = levels[0]
    n_ref = ref.params.basis.n_modes
    keys: dict[tuple, list[_Level]] = {}
    for level in levels:
        params = level.params
        keys.setdefault((params.tau, params.drift, params.sigma), []).append(level)
    groups = [_Group(members, len(sources), n_ref_steps) for members in keys.values()]
    recorded = [g for g in groups if g.coarse]
    sums = {level: g.sums[:, pos] for g in recorded for pos, level in enumerate(g.coarse)}

    for g in recorded:
        g.record(0, groups[0].state[:n_ref])
    live = max(level.params.live_modes for level in levels)  # the union: each is a prefix
    for m, block in _noise_blocks(ref.params.basis, sources, _ratio(ref.params, sources),
                                  0, n_ref_steps, live):
        # a group's increments: its first N_max modes, summed over runs of
        # stride reference steps (exact, so equal to drawing them directly)
        plan = [(g, block[:, :g.n_max] if g.stride == 1
                 else _coarse_increments(block[:, :g.n_max], m, g.stride, g.carry),
                 m // g.stride + 1)  # the coarse step of the first increment
                for g in groups]
        for i in range(block.shape[0]):
            s = m + i + 1
            for g, incs, first in plan:  # the reference's group first
                if s % g.stride == 0:
                    j = s // g.stride
                    g.state = _advance(g.stack, g.state, incs[j - first], g.synthesize(g.state))
                    if g.coarse:
                        g.record(j, groups[0].state[:n_ref])
        end = m + len(block)
        # sums from reference step m on (a sum at m itself was checked already)
        if not all(np.isfinite(a).all() for a in [g.state for g in groups]
                   + [g.sums[-(-m // g.stride):end // g.stride + 1] for g in recorded]):
            _raise_non_finite(levels, sums, sources, end)
    return [sums[level] for level in levels[1:]]


def _raise_non_finite(levels, sums, sources, end: int):
    """Raise for a non-finite state or sum by reference step ``end``.

    Every level is rerun alone from t = 0 by ``run_ensemble``, reference first,
    with the same bits (same sources and width; coarse increments are exact
    sums, see ``noise``), and the first blow-up is raised as ``step`` names
    it, with its level.  The loop never synthesizes the final states, so
    even a level whose coefficients are finite may blow up.  Without a
    blow-up, the ``ValueError`` below names the level and its first
    reference step whose sum is not finite.
    """
    for level in levels:
        params = level.params
        try:
            run_ensemble(params, level.coeffs0, sources, end // level.stride)
        except TrajectoryBlowUpError as exc:
            raise TrajectoryBlowUpError(
                f"{exc} (level tau={params.tau!r}, n_modes={params.basis.n_modes})",
                exc.step_index, exc.trajectory_id) from None

    def first_bad_step(level):  # inf if every sum of the level is finite
        finite = np.isfinite(sums[level][:end // level.stride + 1])
        return math.inf if finite.all() else int(np.argmin(finite)) * level.stride

    level = min(levels[1:], key=first_bad_step)  # the first level on a tie
    raise ValueError(f"level tau={level.params.tau!r}, n_modes={level.params.basis.n_modes}: "
                     f"non-finite error at reference step {first_bad_step(level)} although "
                     f"every state is finite: a squared difference to the reference, or "
                     f"its sum over trajectories, overflows")


def _sample_expression(text: str, basis: SpectralBasis, key: str) -> np.ndarray:
    """``text`` on ``basis``'s grid; a non-finite value is a ``HorizonError`` naming ``key``."""
    with np.errstate(over="ignore", invalid="ignore"):
        values = evaluate_expression(text, basis.grid)
    if not np.isfinite(values).all():
        raise HorizonError(f"{text!r} is not finite on the {basis.n_modes}-point grid: "
                           f"a term or the sum of the terms overflows", key)
    return values


def _initial_from_expression(params: SchemeParams, text: str, key: str) -> SchemeState:
    """The m = 0 state of ``text`` on ``params``' grid; a value, coefficient
    or nodal value that is not finite is a ``HorizonError`` naming ``key``."""
    values = _sample_expression(text, params.basis, key)
    try:
        return initial_state(params, values)
    except ValueError as exc:
        raise HorizonError(f"{text!r} on the {params.basis.n_modes}-point grid: {exc}",
                           key) from None


def _check_modes(n_modes: int, n_modes_ref: int) -> None:
    if n_modes > n_modes_ref:
        raise HorizonError(f"ladder mode count {n_modes} must not exceed n_modes_ref = "
                           f"{n_modes_ref}: a coarse run may not have more modes than "
                           f"the reference", "n_modes_ladder")


def _coupled_errors(params_ref: SchemeParams, coeffs0_ref: np.ndarray, rungs, *,
                    seed: int, n_trajectories: int, t_final: float,
                    threads: int) -> list[float]:
    """The error of each coarse rung ``(params, coeffs0)`` against the
    reference, all driven by trajectories 0 .. n_trajectories-1 of ``seed``.

    The one home of the studies' rules: a rung may not have more modes than
    the reference, its tau must be a whole number of reference steps, and
    t_final a whole number of steps of the reference and of every rung;
    each discretization breaking the step-size coupling tau^9 / h <= 1 is
    named in a warning.

    All trajectories advance as one batch.  BLAS picks its kernel by the
    batch width, so a trajectory's floats depend on the batch it rides in;
    one batch keeps the results independent of ``threads``.  With
    ``threads > 1`` the batch runs on a one-worker pool, which adds no
    parallelism; the benchmark's ``spatial`` workload traces its ``map``.
    ``_coupled_sums`` returns the checked sums over trajectories, in id order.
    """
    if n_trajectories < 1:
        raise ValueError(f"n_trajectories must be positive, got {n_trajectories}")
    n_ref = params_ref.basis.n_modes
    n_ref_steps = whole_steps(t_final, params_ref.tau, "t_final in steps of tau_ref",
                              key="t_final")
    levels = [_Level(params_ref, coeffs0_ref)]
    for params, coeffs0 in rungs:
        n_c = params.basis.n_modes
        _check_modes(n_c, n_ref)
        stride = whole_steps(params.tau, params_ref.tau, "ladder tau in steps of tau_ref",
                             key="tau_ladder")
        whole_steps(t_final, params.tau, "t_final in steps of the ladder tau", key="t_final")
        levels.append(_Level(params, coeffs0, stride,
                             params.basis.basis_matrix[_kappa_rows(n_c, n_c)],
                             params_ref.basis.basis_matrix[_kappa_rows(n_c, n_ref)]))
    for params in [level.params for level in levels[1:] + levels[:1]]:
        if not params.step_constraint_satisfied():
            warnings.warn(
                f"step-size coupling violated: tau^9 / h = "
                f"{params.tau**9 / params.basis.h:.3g} > 1 for tau={params.tau!r}, "
                f"n_modes={params.basis.n_modes}; the error bound may not apply",
                RuntimeWarning, stacklevel=3)
    sources = [NoiseSource(seed, k, tau_fine=params_ref.tau, n_modes_max=n_ref - 1)
               for k in range(n_trajectories)]
    if threads <= 1:
        sums = _coupled_sums(levels, sources, n_ref_steps)
    else:
        with ThreadPoolExecutor(max_workers=1) as pool:
            [sums] = pool.map(_coupled_sums, [levels], [sources], [n_ref_steps])
    return [float(np.max(np.sqrt(s / n_trajectories))) for s in sums]


def _table(kind: str, rows, errors, t0: float) -> ConvergenceTable:
    """The table of ``(tau, n_modes, step)`` rows with their errors and pair
    rates; the slope, fitted against ``step``, needs three rows, all with
    positive errors, and is NaN otherwise."""
    rates = pairwise_rates(errors)
    slope = (rate_regression([step for _, _, step in rows], errors)
             if len(errors) >= 3 and all(e > 0 for e in errors) else float("nan"))
    return ConvergenceTable(kind, tuple(ConvergenceRow(*row, err, rate)
                                        for row, err, rate in zip(rows, errors, rates)),
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
    rung = (params_coarse, initial_state(params_coarse, u0_coarse).coeffs)
    return _coupled_errors(params_ref, initial_state(params_ref, u0_ref).coeffs, [rung],
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
    coeffs0 = _initial_from_expression(params_ref, initial, "initial").coeffs
    rungs = [(SchemeParams(basis, drift, tau, sigma), coeffs0) for tau in taus]
    errors = _coupled_errors(params_ref, coeffs0, rungs, seed=seed,
                             n_trajectories=n_trajectories, t_final=t_final,
                             threads=threads)
    return _table("time", [(tau, basis.n_modes, tau) for tau in taus], errors, t0)


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
        params = SchemeParams(SpectralBasis(n), drift, tau, sigma)
        return params, _initial_from_expression(params, initial, "initial").coeffs

    params_ref, coeffs0_ref = level(n_modes_ref)
    errors = _coupled_errors(params_ref, coeffs0_ref, [level(n) for n in ns], seed=seed,
                             n_trajectories=n_trajectories, t_final=t_final,
                             threads=threads)
    return _table("space", [(tau, n, np.pi / n) for n in ns], errors, t0)


# ---------------------------------------------------------------------------
# long-run averages


@dataclass(frozen=True)
class ErgodicRun:
    """One estimator's run from one initial condition.  The single runs
    advance together, in one lockstep batch, so a single run's
    ``wallclock_s`` is the batch's time divided by the number of initial
    conditions; an ensemble run's is its own."""

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
    initial conditions are accepted.  The single runs advance together
    first, as one lockstep ``time_average_single`` call whose rows keep the
    bits of separate runs; then the ensembles run, one per initial
    condition.  ``runs`` keeps its order: single, then ensemble, for each
    initial condition.  A blow-up in the singles is raised at the earliest
    step of any of them, naming its trajectory (the lower id on a tie),
    before any ensemble starts.  A non-finite estimate (phi or its running
    sum overflows while every state stays finite) is a ``ValueError``
    naming its run, checked in the order of ``runs``: ``single[0]``, then
    ``ensemble[0]``, then ``single[1]``.
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
    spec = TestFunctionSpec(_sample_expression(v_expr, basis, "test_v"), alpha1, alpha2)
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
    states0 = [_initial_from_expression(params, expr, "initials") for expr in initials]

    def sources(first: int, count: int) -> list[NoiseSource]:
        return [NoiseSource(seed, first + l, tau_fine=tau, n_modes_max=basis.n_modes - 1)
                for l in range(count)]

    if "single" in n_steps:
        t0 = time.perf_counter()
        singles = time_average_single(params, states0, sources(0, len(states0)),
                                      n_steps["single"], spec, burn_steps, thinning)
        single_s = (time.perf_counter() - t0) / len(states0)
    runs: list[ErgodicRun] = []
    for i, (expr, state0) in enumerate(zip(initials, states0)):
        for kind in n_steps:
            if kind == "single":
                estimate, history, _ = singles[i]
                wallclock_s, count = single_s, 1
            else:
                t0 = time.perf_counter()
                estimate, _, history, _ = time_average_ensemble(
                    params, state0.coeffs, sources(_ENSEMBLE_ID_BASE + i * n_trajectories,
                                                   n_trajectories),
                    n_steps[kind], spec, burn_steps, thinning)
                wallclock_s, count = time.perf_counter() - t0, n_trajectories
            label = f"{kind}[{i}]"
            if not math.isfinite(estimate):
                raise ValueError(f"{label}: estimate {estimate!r} is not finite: phi "
                                 f"or its running sum overflows")
            runs.append(ErgodicRun(label, kind, expr, estimate, n_samples[kind] * count,
                                   wallclock_s, tuple(history)))
    return ErgodicStudyResult(tuple(runs))
