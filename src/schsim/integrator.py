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

The factor e^(-lambda_j^2 tau) underflows to exactly 0.0 from some mode on
(``SchemeParams.live_modes`` is one past the last nonzero one: 21 of 64
modes at N = 64, tau = 5e-3), so every later c_j is a zero after each step
whatever db_j was.  The runs draw no noise for those modes, which changes
no nodal value; only the sign of a dead coefficient's zero can differ
(see ``_noise_blocks``).

A state is its step index, its spectral coefficients and their nodal
values.  Every state is built with its nodal values, synthesized once: the
next drift evaluation and the observers read them from the state instead of
synthesizing again.  A state is one trajectory's (N,) vector or an (N, L)
stack advanced in lockstep; ``step`` and the one loop behind
``run_trajectory`` and ``run_ensemble`` take either.  The kernel
``_advance`` takes two more operands in place of a ``SchemeParams``, each
with the bits of its members' separate runs:

- a ``_LevelStack``: levels of different mode counts that share tau, drift
  and sigma, advanced as one (sum N_k, L) array (the coupled studies'
  levels);
- a ``_RowStack``: R single trajectories of one level, advanced as one
  (R, N) array of coefficient rows (``run_trajectory`` given R states and R
  sources, which the ergodic study's single runs use).

A stack shares only the elementwise work.  The operations whose bits
depend on the operand's shape run per level or per row, on views that have
the shape of the separate run's operand: a product by a wider matrix
picks another BLAS kernel, a sum over a column of a C-ordered stack adds
sequentially where a 1-D sum adds pairwise, and numpy's array power
rounds differently from its scalar power on some inputs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import SpectralBasis

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
    "whole_steps",
]

_BLOCK_STEPS = 512        # most steps in one noise block
_BLOCK_FLOATS = 4_000_000  # most floats in a noise block of more than one step
_LF_CHECK_RADIUS = 8.0     # half-width of the interval on which L_f is estimated


class TrajectoryBlowUpError(RuntimeError):
    """A state with non-finite nodal values; ``column`` is the failing
    column of a stack, or the failing row of a row stack."""

    column: int | None = None

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
        """f(x) = ((a0 x + a1) x + a2) x + a3, elementwise, in one new array."""
        f = np.multiply(x, self.a0)
        f += self.a1
        f *= x
        f += self.a2
        f *= x
        f += self.a3
        return f

    def derivative(self, x):
        """f'(x), elementwise."""
        return (3.0 * self.a0 * x + 2.0 * self.a1) * x + self.a2

    def one_sided_lipschitz(self) -> float:
        """L_f = max(-f') on [-8, 8]: -f' is a concave quadratic or a line,
        so the max is at an end point or at the vertex -a1 / (3 a0).

        The dissipativity assumption behind the scheme's ergodicity theory
        asks for L_f below the smallest nonzero Laplacian eigenvalue.
        """
        radius = _LF_CHECK_RADIUS
        vertex = min(max(-self.a1 / (3.0 * self.a0), -radius), radius) if self.a0 else 0.0
        return float(max(-self.derivative(x) for x in (-radius, radius, vertex)))


@dataclass(frozen=True)
class SchemeParams:
    """Immutable bundle of discretization and model parameters.

    The one-sided Lipschitz constant of the drift is estimated on
    [-8, 8] at construction time; a violation of the margin L_f < lambda_1
    only warns (long-time statements may degrade, short-time integration is
    unaffected).
    """

    basis: SpectralBasis
    drift: DriftSpec
    tau: float
    sigma: float = 1.0

    def __post_init__(self):
        if not isinstance(self.basis, SpectralBasis):
            raise TypeError("basis must be a SpectralBasis")
        if not (isinstance(self.tau, (int, float, np.floating))
                and math.isfinite(self.tau) and 0.0 < self.tau < 1.0):
            raise ValueError(f"tau must lie in (0, 1), got {self.tau!r}")
        if not (isinstance(self.sigma, (int, float, np.floating))
                and math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be a finite nonnegative real, got {self.sigma!r}")
        lf = self.drift.one_sided_lipschitz()
        lam1 = self.basis.eigenvalues[1]
        if lf >= lam1:
            warnings.warn(
                f"drift violates the dissipativity margin: L_f = {lf:.6g} >= "
                f"lambda_1 = {lam1:.6g} (estimated on [-{_LF_CHECK_RADIUS}, "
                f"{_LF_CHECK_RADIUS}]); long-time averages may not converge",
                RuntimeWarning, stacklevel=2)

    @cached_property
    def semigroup(self) -> np.ndarray:
        factors = self.basis.semigroup_factor(self.tau)
        factors.setflags(write=False)
        return factors

    @cached_property
    def live_modes(self) -> int:
        """One past the last mode whose semigroup factor is nonzero.  The
        eigenvalues are nondecreasing, so the live modes are a prefix: every
        later factor underflows to exactly 0.0, so ``_advance`` turns such a
        mode into a zero at every step, whatever finite noise it is given."""
        return int(np.flatnonzero(self.semigroup)[-1]) + 1

    @cached_property
    def _kernel_constants(self) -> dict:
        """(tau * lambda, 1 + lambda, semigroup), read-only: (N,) rows under
        key 1 for one trajectory and (N, 1) columns under key 2 for a stack."""
        lam = self.basis.eigenvalues
        rows = (self.tau * lam, 1.0 + lam, self.semigroup)
        for row in rows:
            row.setflags(write=False)
        return {1: rows, 2: tuple(row[:, None] for row in rows)}

    def step_constraint_satisfied(self) -> bool:
        """Step-size coupling h^(-1) tau^9 <= 1 assumed by the error analysis."""
        return self.tau**9 / self.basis.h <= 1.0


class _LevelStack:
    """Levels sharing tau, drift and sigma, advanced by ``_advance`` as one
    (sum_k N_k, L) stack of coefficient columns, level k in rows
    ``rows[k]``.  Elementwise operations run once on the stack.  Three
    things run per level, on views of the stack, because their bits depend
    on the operand's shape: the analysis product, the w12 column sums and
    the synthesis product; the tamer's power runs once, on the (K, L)
    sums, as it runs on a lone level's (L,) row.  The noise ``dw`` of a
    step is the (N_max, L) increment of the widest level, and level k reads
    its first N_k modes, as a truncated level does (see ``noise``).  Build one with
    ``_stack_levels``.  The methods are ``_advance``'s per-level parts plus
    ``synthesize``, which the caller runs to get the nodal values that
    ``_advance`` reads.  ``tamer`` is the divisor 1 + tau ||u||_{w12}^12 of
    each row, and ``mean_index`` indexes the rows of the mean modes.
    """

    def __init__(self, levels):
        first = levels[0]
        self.tau, self.drift, self.sigma = first.tau, first.drift, first.sigma
        self.bases = tuple(params.basis for params in levels)
        self.sizes = [basis.n_modes for basis in self.bases]
        bounds = np.cumsum([0] + self.sizes)
        self.rows = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.mean_index = bounds[:-1]
        self._kernel_constants = {2: tuple(
            np.concatenate([params._kernel_constants[1][i] for params in levels])[:, None]
            for i in range(3))}

    def analyze(self, f: np.ndarray) -> np.ndarray:
        new = np.empty_like(f)
        for basis, rows in zip(self.bases, self.rows):
            basis.to_spectral(f[rows], out=new[rows])
        return new

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        for basis, rows in zip(self.bases, self.rows):
            basis.from_spectral(coeffs[rows], out=out[rows])
        return out

    def tamer(self, tmp: np.ndarray) -> np.ndarray:
        sums = np.empty((len(self.rows), tmp.shape[1]))
        for k, rows in enumerate(self.rows):
            np.add.reduce(tmp[rows], axis=0, out=sums[k])
        return np.repeat(1.0 + self.tau * sums**6, self.sizes, axis=0)

    def scaled_noise(self, dw: np.ndarray, out: np.ndarray) -> np.ndarray:
        for n, rows in zip(self.sizes, self.rows):
            np.multiply(dw[:n], self.sigma, out=out[rows])
        return out


class _RowStack:
    """R single trajectories of one level, advanced by ``step`` and
    ``_advance`` as one C-ordered (R, N) stack of coefficient rows, each
    with the bits of its own (N,) run.  It has ``_LevelStack``'s methods,
    and ``step`` synthesizes with ``synthesize``.  Elementwise operations
    run once on the stack, with the per-mode constants tiled to (R, N): a
    product of equal shapes costs less than a broadcast one.  Per row, on
    the row's contiguous (N,) view, run:

    - the analysis and synthesis products, as the (N,) path's ``@`` runs
      them (``ndarray.dot`` into the row gives the same bits and skips a
      temporary); the analysis' ``* h`` then runs once on the stack;
    - the tamer's power, on a numpy scalar: the w12 sums come from one
      ``np.add.reduce`` over axis 1, which sums each C-ordered row
      pairwise, as the (N,) sum does, but numpy's array power differs from
      its scalar power on some inputs.

    A step's noise is the transposed view ``block[i].T`` of the (N, R)
    block, read only elementwise.
    """

    mean_index = (slice(None), 0)

    def __init__(self, params: SchemeParams, n_rows: int):
        self.basis, self.drift = params.basis, params.drift
        self.tau, self.sigma, self.live_modes = params.tau, params.sigma, params.live_modes
        self._kernel_constants = {2: tuple(np.tile(row, (n_rows, 1))
                                           for row in params._kernel_constants[1])}

    def analyze(self, f: np.ndarray) -> np.ndarray:
        new = np.empty_like(f)
        matrix = self.basis.basis_matrix.T
        for row, out in zip(f, new):
            matrix.dot(row, out=out)
        new *= self.basis.h
        return new

    def synthesize(self, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
        matrix = self.basis.basis_matrix
        for row, row_out in zip(coeffs, out):
            matrix.dot(row, out=row_out)
        return out

    def tamer(self, tmp: np.ndarray) -> np.ndarray:
        sums = np.add.reduce(tmp, axis=1)
        for r, w12_sq in enumerate(sums):  # numpy scalars
            sums[r] = 1.0 + self.tau * w12_sq**6
        return sums[:, None]

    def scaled_noise(self, dw: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.multiply(dw, self.sigma, out=out)


def _stack_levels(levels):
    """The stack of ``levels`` (``SchemeParams`` sharing tau, drift and
    sigma, in row order); a stack of one level is that level's own params."""
    if len(levels) == 1:
        return levels[0]
    if len({(params.tau, params.drift, params.sigma) for params in levels}) != 1:
        raise ValueError("stacked levels must share tau, drift and sigma")
    return _LevelStack(levels)


@dataclass(frozen=True, eq=False)
class SchemeState:
    """Trajectory state: step counter, spectral coefficients, nodal values.

    ``coeffs`` is one trajectory's (N,) vector or an (N, L) stack of L
    trajectories sharing the step counter; ``nodal`` has the same shape and
    holds ``basis.from_spectral(coeffs)`` bit for bit.  The spatial mean is
    coeffs[0]/sqrt(pi), which the step never changes.
    """

    step_index: int
    coeffs: np.ndarray = field(repr=False)
    nodal: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.step_index < 0:
            raise ValueError(f"step_index must be nonnegative, got {self.step_index}")
        if np.shape(self.nodal) != np.shape(self.coeffs):
            raise ValueError(f"nodal values of shape {np.shape(self.nodal)} do not match "
                             f"coefficients of shape {np.shape(self.coeffs)}")


def initial_state(params: SchemeParams, u0: np.ndarray) -> SchemeState:
    """Build the m = 0 state from a nodal initial condition.  A finite field
    whose analysis, or the synthesis of its coefficients, overflows is a
    ``ValueError``, raised without a numpy warning."""
    u0 = np.asarray(u0, dtype=np.float64)
    if u0.shape != (params.basis.n_modes,):
        raise ValueError(
            f"initial condition must have shape ({params.basis.n_modes},), got {u0.shape}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial condition contains non-finite values")
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = params.basis.to_spectral(u0)
        nodal = params.basis.from_spectral(coeffs)
    if not (np.isfinite(coeffs).all() and np.isfinite(nodal).all()):
        raise ValueError("initial condition overflows in the spectral transform: "
                         "its coefficients or their nodal values are not finite")
    return SchemeState(0, coeffs, nodal)


def state_from_coeffs(params: SchemeParams, step_index: int, coeffs: np.ndarray) -> SchemeState:
    """Rebuild a state from coefficients, one trajectory's (N,) vector or an
    (N, L) stack (checkpoint resume, ensemble start)."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n = params.basis.n_modes
    if coeffs.ndim not in (1, 2) or coeffs.shape[0] != n:
        raise ValueError(f"coefficients must have shape ({n},) or ({n}, L)")
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients contain non-finite values")
    return SchemeState(int(step_index), coeffs, params.basis.from_spectral(coeffs))


def _advance(params, coeffs: np.ndarray, dw: np.ndarray, nodal: np.ndarray) -> np.ndarray:
    """Core update of one level (``SchemeParams``), of a ``_LevelStack``
    or of a ``_RowStack``.  For a level, ``coeffs``, ``dw`` and ``nodal``
    are (N,) vectors or (N, L) stacks; for a level stack they are (sum N_k,
    L), with ``dw`` as the stack describes; for a row stack, (R, N).
    ``nodal`` must equal the synthesis of ``coeffs`` bit for bit; it is
    read, not modified.

    The per-mode constants tau * lambda, 1 + lambda and the semigroup come
    precomputed from ``params`` and the temporaries are updated in place,
    but the operations and their grouping are those of the formula in the
    module docstring, with f by Horner's rule (``DriftSpec.evaluate``) and
    ||u||_{w12}^2 = sum_j ((1 + lambda_j) c_j) c_j, so the bits equal those
    of the formula evaluated as written, level by level.  A stack runs the
    elementwise operations once and the shape-sensitive ones per level or
    per row, on operands of the separate run's shape: the transforms, the
    w12 sums and, for a row stack, the tamer's power (see the module
    docstring).  So each level and each row keeps the bits of its own run.
    """
    tau_lam, one_lam, sem = params._kernel_constants[coeffs.ndim]
    stacked = type(params) is not SchemeParams
    f = params.drift.evaluate(nodal)
    new = params.analyze(f) if stacked else params.basis.to_spectral(f)
    tmp = np.multiply(one_lam, coeffs, out=f)  # f is spent
    tmp *= coeffs
    new /= params.tamer(tmp) if stacked else 1.0 + params.tau * np.add.reduce(tmp, axis=0)**6
    new *= tau_lam
    np.subtract(coeffs, new, out=new)
    new += params.scaled_noise(dw, tmp) if stacked else np.multiply(dw, params.sigma, out=tmp)
    new *= sem
    mean = params.mean_index if stacked else 0
    new[mean] = coeffs[mean]  # exact mean conservation
    return new


def step(params: SchemeParams, state: SchemeState, noise_coeffs: np.ndarray) -> SchemeState:
    """Advance one step with the given spectral noise increment.

    ``noise_coeffs`` has the shape of ``state.coeffs``, (N,) or (N, L), and
    its mode-0 entries must be exactly zero (the mean carries no noise).
    Raises :class:`TrajectoryBlowUpError` if the new nodal values are not all
    finite, as every non-finite coefficient makes them (row 0 of the basis
    matrix is positive); for a stack its ``column`` names the first failing
    trajectory.  The drift reads ``state.nodal``, and the returned state
    carries the nodal values of its coefficients.

    ``params`` may also be a ``_RowStack``, with (R, N) states and noise:
    each row is synthesized on its own, the finiteness check runs once on
    the stack, and ``column`` names the first failing row.
    """
    rows = type(params) is _RowStack
    noise_coeffs = np.asarray(noise_coeffs, dtype=np.float64)
    if noise_coeffs.shape != state.coeffs.shape:
        raise ValueError(
            f"noise shape {noise_coeffs.shape} does not match state shape {state.coeffs.shape}")
    if np.count_nonzero(noise_coeffs[:, :1] if rows else noise_coeffs[:1]):
        raise ValueError("noise increment for mode 0 must be exactly zero")
    new = _advance(params, state.coeffs, noise_coeffs, state.nodal)
    nodal = params.synthesize(new, np.empty_like(new)) if rows else params.basis.from_spectral(new)
    if not np.isfinite(nodal).all():
        m = state.step_index + 1
        exc = TrajectoryBlowUpError(f"non-finite state at step {m}", m)
        if nodal.ndim == 2:
            exc.column = int(np.argmax(~np.isfinite(nodal).all(axis=1 if rows else 0)))
        raise exc
    # built without __post_init__: the index is positive and the shapes are
    # equal by construction
    result = object.__new__(SchemeState)
    result.__dict__.update(step_index=state.step_index + 1, coeffs=new, nodal=nodal)
    return result


class HorizonError(ValueError):
    """A configured value that does not fit another one: a duration or step
    that is no whole number of steps, a ladder entry beyond its reference or
    an expression not finite on the run's grid; ``key`` names its config key."""

    def __init__(self, message: str, key: str):
        super().__init__(message)
        self.key = key


def whole_steps(value: float, base: float, what: str, minimum: int = 1, *,
                key: str) -> int:
    """The integer k >= ``minimum`` with value == k * base up to 1e-12 relative.
    The one rule for horizons, burn-in and step ratios: never rounds.  A
    failure, including a non-finite ``value`` or a ``base`` that is not a
    finite positive step, raises ``HorizonError`` naming ``key``, the config
    key of ``value``."""
    quotient = value / base if 0.0 < base < math.inf else math.nan
    k = round(quotient) if math.isfinite(quotient) else None
    if k is None or k < minimum or abs(value - k * base) > 1e-12 * abs(value):
        kind = "positive" if minimum >= 1 else "nonnegative"
        raise HorizonError(f"{what}: {value!r} must be a {kind} integer multiple of {base!r}",
                           key)
    return k


def _ratio(params: SchemeParams, sources) -> int:
    """Fine increments per scheme step, shared by every source."""
    ratios = {whole_steps(params.tau, src.tau_fine, "tau in steps of tau_fine", key="tau")
              for src in sources}
    if len(ratios) != 1:
        raise ValueError("all sources in an ensemble must share tau_fine")
    return ratios.pop()


def _noise_blocks(basis: SpectralBasis, sources, ratio: int, m0: int, m1: int,
                  live: int):
    """Yield (m, block) covering steps m0 <= m < m1, block[i] being the
    (N, L) increments of step m + i for the L sources.  A block holds at
    most 512 steps and, beyond one step, at most 4M floats.  Every block is
    a view of one buffer that the next block overwrites, and each source
    writes its slot ``block[:, :live, l]`` in place, so only one block is
    ever resident: a consumer must be done with a block before it asks for
    the next.

    Only modes 0 .. live-1 are drawn.  ``live`` is the largest
    ``SchemeParams.live_modes`` of the levels that read the block: every
    later mode has a semigroup factor of exactly 0.0 in each of them, so
    its increment reaches no result.  Its rows are zeros, allocated once
    and never written.  A draw is keyed by (source, mode), so the skipped
    modes move no other word, and a dead mode's coefficient is 0.0 times a
    finite value either way: the only bit that can differ from a block of
    every mode is the sign of that zero.

    Storage order follows the width L alone.  From L = 8 on, the buffer is
    stored source-major, as (steps, L, N) seen through a transposed view:
    eight float64 fill a 64-byte cache line, so a slot strided by L floats
    would put each of its elements on a line of its own, and every source
    would touch every line of the block.  Narrower blocks keep the (steps,
    N, L) order, in which the step's mixed-order ``sigma * dw`` would cost
    more than the strided writes save.  The order changes no value.
    """
    n, width = basis.n_modes, len(sources)
    steps = max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // (n * width)))
    rows = min(steps, m1 - m0)
    buffer = (np.zeros((rows, width, n)).transpose(0, 2, 1) if width >= 8
              else np.zeros((rows, n, width)))
    for m in range(m0, m1, steps):
        block = buffer[:min(steps, m1 - m)]
        for l, src in enumerate(sources):
            src.increment_matrix(basis, m, m + len(block), ratio, block[:, :live, l])
        yield m, block


def _run(params, state: SchemeState, sources, n_steps: int, observers) -> SchemeState:
    """``n_steps`` calls of ``step`` on an (N,) state driven by sources[0],
    an (N, L) stack driven by sources[l] or, with a ``_RowStack`` for
    ``params``, an (R, N) row stack driven by sources[r], each observer
    called as ``obs(m, state)`` before and after every step; a blow-up
    names the failing source's trajectory id."""
    if n_steps < 0:
        raise ValueError(f"n_steps must be nonnegative, got {n_steps}")
    ratio = _ratio(params, sources)
    for obs in observers:
        obs(state.step_index, state)
    m0 = state.step_index
    rows, stacked = type(params) is _RowStack, state.coeffs.ndim == 2
    for _, block in _noise_blocks(params.basis, sources, ratio, m0, m0 + n_steps,
                                 params.live_modes):
        for dw in (block.transpose(0, 2, 1) if rows else block if stacked else block[:, :, 0]):
            try:
                state = step(params, state, dw)
            except TrajectoryBlowUpError as exc:
                tid = sources[exc.column or 0].trajectory_id
                raise TrajectoryBlowUpError(
                    f"trajectory {tid}: non-finite state at step {exc.step_index}",
                    exc.step_index, tid) from None
            for obs in observers:
                obs(state.step_index, state)
    return state


def run_trajectory(params: SchemeParams, state, source, n_steps: int, observers=()):
    """Run ``n_steps`` scheme steps, notifying observers at every state.

    Observers are callables ``obs(m, state)`` invoked at the initial state
    (m = state.step_index) and after every step, in order.  The trajectory is
    a pure function of (params, state, source): noise is addressed by step
    index, so a resumed run consumes exactly the increments the uninterrupted
    run would.

    R trajectories: ``state`` and ``source`` may also be sequences of R
    (N,) states, all at one step index, and R sources.  They advance in
    lockstep as one (R, N) row stack (see ``_RowStack``), with one ``step``
    per step for all rows, and the R final states come back as a list,
    each bit for bit that of the trajectory's own run.  Observers see the
    row stack: ``coeffs`` and ``nodal`` are (R, N).  The first blow-up is
    raised as one trajectory's run would raise it: the earliest step, and
    of rows failing at that step the first.
    """
    if isinstance(state, SchemeState):
        return _run(params, state, [source], n_steps, observers)
    states, sources = list(state), list(source)
    if not states or len(sources) != len(states):
        raise ValueError(f"R trajectories need R >= 1 states and as many sources, got "
                         f"{len(states)} states and {len(sources)} sources")
    if len({s.step_index for s in states}) != 1 or {s.coeffs.shape for s in states} != {
            (params.basis.n_modes,)}:
        raise ValueError(f"R trajectories need ({params.basis.n_modes},) states "
                         f"at one step index")
    stack = SchemeState(states[0].step_index, np.stack([s.coeffs for s in states]),
                        np.stack([s.nodal for s in states]))
    final = _run(_RowStack(params, len(states)), stack, sources, n_steps, observers)
    return [SchemeState(final.step_index, coeffs, nodal)
            for coeffs, nodal in zip(final.coeffs, final.nodal)]


def run_ensemble(params: SchemeParams, coeffs0: np.ndarray, sources, n_steps: int,
                 *, start_index: int = 0, observers=()) -> np.ndarray:
    """Advance L coupled trajectories in lockstep; returns final (N, L) coeffs.

    ``coeffs0`` is either a single (N,) start state shared by all trajectories
    or an (N, L) stack.  ``observers`` are called as in ``run_trajectory``,
    ``obs(m, state)`` on the stacked state, whose ``coeffs`` and ``nodal``
    are (N, L).  Trajectory l draws from ``sources[l]``; all sources must
    share tau_fine.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("at least one noise source is required")
    n = params.basis.n_modes
    coeffs0 = np.asarray(coeffs0, dtype=np.float64)
    coeffs = (np.repeat(coeffs0[:, None], len(sources), axis=1) if coeffs0.ndim == 1
              else coeffs0.copy())
    if coeffs.shape != (n, len(sources)):
        raise ValueError(f"coeffs0 must have shape ({n},) or ({n}, {len(sources)})")
    state = state_from_coeffs(params, start_index, coeffs)
    return _run(params, state, sources, n_steps, observers).coeffs
