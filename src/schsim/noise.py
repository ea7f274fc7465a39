"""Addressable Brownian increments shared across refinement levels.

Each (trajectory, mode) pair owns an unbounded stream of i.i.d. N(0, tau_fine)
fine increments indexed by k = 0, 1, 2, ...  The generator is the keyed
counter-mode Philox-4x64 cipher, so increment (j, k) is a pure function of
(seed, trajectory_id, j, k): no sequential state, any access order, and
sources created with different mode ceilings draw identical values for the
modes they share (which is what couples a truncated coarse run to its
reference).

Design notes on exact refinement:

* Raw 64-bit cipher output is mapped to a uniform via u = ((x >> 11) + 0.5) *
  2^-53 and then to a standard normal via the inverse CDF
  (``scipy.special.ndtri``); the whole pipeline is deterministic and
  platform-stable.
* Each draw is then snapped to the lattice q * Z, where q is the power of two
  nearest sqrt(tau_fine) * 2^-36, and carried internally as an int64 multiple
  of q.  Sums of these integers are exact, and every partial sum of practical
  length is exactly representable in float64, so aggregating fine increments
  into coarse ones is bit-for-bit independent of the grouping: refining
  tau -> tau/r1 -> tau/(r1*r2) reproduces identical increments for any
  factorization r = r1*r2.  The snap perturbs each draw by at most ~2^-36
  relative, far below every statistical tolerance used in this package.

Counter layout: word k of the (trajectory, mode) stream is lane k % 4 of the
Philox block at counter (k % 2048 // 4, k // 2048, mode, trajectory_id), so
any range [k0, k1) is generated directly, with at most three alignment words
wasted per 2048-word block.  Nothing is cached: every request regenerates
exactly the words it returns.  Each source keeps one Philox generator and
resets its counter per block, so a source must not be shared between threads.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["NoiseSource", "stationary_variance"]

_KEY_CONST = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, decorrelates the seed word
_BLOCK = 2048  # words per counter value of word 1


class NoiseSource:
    """Counter-addressed Gaussian increment stream for one trajectory.

    Args:
        seed: Master seed, an unsigned 64-bit integer.  Together with
            ``trajectory_id`` it determines every value this source will ever
            produce.
        trajectory_id: Nonnegative index selecting an independent stream.
        tau_fine: Finest time step; fine increments have variance tau_fine.
        n_modes_max: Largest cosine mode index this source will be asked for.
            A declared ceiling used for validation only -- it does not enter
            the generator, which is how sources with different ceilings share
            their common modes.
    """

    def __init__(self, seed: int, trajectory_id: int = 0, *,
                 tau_fine: float, n_modes_max: int):
        if not isinstance(seed, (int, np.integer)) or not 0 <= int(seed) < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
        if not isinstance(trajectory_id, (int, np.integer)) or trajectory_id < 0:
            raise ValueError(f"trajectory_id must be a nonnegative integer, got {trajectory_id!r}")
        if not (isinstance(tau_fine, (int, float, np.floating)) and 0.0 < tau_fine and math.isfinite(tau_fine)):
            raise ValueError(f"tau_fine must be a finite positive real, got {tau_fine!r}")
        if not isinstance(n_modes_max, (int, np.integer)) or n_modes_max < 1:
            raise ValueError(f"n_modes_max must be a positive integer, got {n_modes_max!r}")
        self.seed = int(seed)
        self.trajectory_id = int(trajectory_id)
        self.tau_fine = float(tau_fine)
        self.n_modes_max = int(n_modes_max)

        root = math.sqrt(self.tau_fine)
        mantissa, exponent = math.frexp(root)  # root = mantissa * 2^exponent
        self.quantum = math.ldexp(1.0, exponent - 36)
        # root/quantum = mantissa * 2^36, exactly representable
        self._scale = mantissa * 2.0**36
        key = np.array([self.seed, _KEY_CONST], dtype=np.uint64)
        # looked up through the module name so a substituted Philox is used
        self._philox = Philox(key=key)
        self._state = self._philox.state
        self._counter = self._state["state"]["counter"]
        self._counter[3] = self.trajectory_id

    def __repr__(self) -> str:
        return (f"NoiseSource(seed={self.seed}, trajectory_id={self.trajectory_id}, "
                f"tau_fine={self.tau_fine!r}, n_modes_max={self.n_modes_max})")

    # -- generation --------------------------------------------------------

    def _fine_ints(self, mode: int, k0: int, k1: int) -> np.ndarray:
        """Quantized fine increments with indices k0 <= k < k1, as int64."""
        raw = np.empty(k1 - k0, dtype=np.uint64)
        k = k0
        while k < k1:
            base = k - k % _BLOCK  # first word of k's block
            start = k - k % 4      # Philox emits four words per counter value
            stop = min(k1, base + _BLOCK)
            self._counter[:3] = ((start - base) // 4, base // _BLOCK, mode)
            self._philox.state = self._state
            raw[k - k0:stop - k0] = self._philox.random_raw(stop - start)[k - start:]
            k = stop
        uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return np.rint(ndtri(uniform) * self._scale).astype(np.int64)

    def _check_mode(self, j: int) -> None:
        if not 1 <= j <= self.n_modes_max:
            raise ValueError(f"mode index must be in [1, {self.n_modes_max}], got {j}")

    def _check_basis(self, basis) -> int:
        n = basis.n_modes
        if n - 1 > self.n_modes_max:
            raise ValueError(
                f"basis needs modes up to {n - 1} but this source is declared "
                f"for at most {self.n_modes_max}")
        return n

    # -- public API --------------------------------------------------------

    def fine_increment(self, j: int, k: int) -> float:
        """The k-th fine increment of mode j, distributed N(0, tau_fine)."""
        self._check_mode(j)
        if k < 0:
            raise ValueError(f"increment index must be nonnegative, got {k}")
        return float(self._fine_ints(j, k, k + 1)[0]) * self.quantum

    def fine_increments(self, j: int, k0: int, k1: int) -> np.ndarray:
        """Fine increments k0 <= k < k1 of mode j as a float array."""
        self._check_mode(j)
        if not 0 <= k0 <= k1:
            raise ValueError(f"need 0 <= k0 <= k1, got ({k0}, {k1})")
        return self._fine_ints(j, k0, k1).astype(np.float64) * self.quantum

    def coarse_increment(self, j: int, m: int, ratio: int) -> float:
        """Increment of mode j over coarse step m at step size ratio*tau_fine.

        Exactly the sum of its ``ratio`` constituent fine increments; the sum
        is carried in integer arithmetic, so any refinement path through
        intermediate step sizes reproduces the identical float.
        """
        self._check_mode(j)
        if not isinstance(ratio, (int, np.integer)) or ratio < 1:
            raise ValueError(f"ratio must be a positive integer, got {ratio!r}")
        if m < 0:
            raise ValueError(f"coarse step index must be nonnegative, got {m}")
        ints = self._fine_ints(j, m * ratio, (m + 1) * ratio)
        return float(int(ints.sum())) * self.quantum

    def increment_field(self, basis, m: int, ratio: int = 1) -> np.ndarray:
        """Spectral increment vector for one scheme step on ``basis``.

        Entry 0 is exactly 0.0 (the mean carries no noise); entries 1..N-1 are
        the coarse increments of the corresponding modes.  A basis with fewer
        modes than another simply truncates the same shared streams.
        """
        n = self._check_basis(basis)
        out = np.zeros(n)
        for j in range(1, n):
            out[j] = self.coarse_increment(j, m, ratio)
        return out

    def increment_matrix(self, basis, m0: int, m1: int, ratio: int = 1) -> np.ndarray:
        """Spectral increments for coarse steps m0 <= m < m1, shape (m1-m0, N).

        Row m - m0 is bit-for-bit equal to ``increment_field(basis, m, ratio)``.
        """
        n = self._check_basis(basis)
        if not isinstance(ratio, (int, np.integer)) or ratio < 1:
            raise ValueError(f"ratio must be a positive integer, got {ratio!r}")
        if not 0 <= m0 <= m1:
            raise ValueError(f"need 0 <= m0 <= m1, got ({m0}, {m1})")
        out = np.zeros((m1 - m0, n))
        for j in range(1, n):
            ints = self._fine_ints(j, m0 * ratio, m1 * ratio)
            sums = ints.reshape(m1 - m0, ratio).sum(axis=1)
            out[:, j] = sums.astype(np.float64) * self.quantum
        return out


def stationary_variance(lam: float, tau: float, sigma: float = 1.0) -> float:
    """Fixed-point variance of the drift-free recursion per mode.

    The mode-j part of the scheme without drift is
    o_{m+1} = e^(-lam^2 tau) (o_m + sigma * db_m) with Var db_m = tau, whose
    stationary variance is the geometric series
    sigma^2 tau e^(-2 lam^2 tau) / (1 - e^(-2 lam^2 tau)).
    """
    decay = math.exp(-2.0 * lam * lam * tau)
    if decay >= 1.0:
        raise ValueError("stationary variance requires lam != 0 and tau > 0")
    return sigma * sigma * tau * decay / (1.0 - decay)
