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
  2^-53, clamped below 1, and then to a standard normal via the inverse CDF
  (scipy's ``ndtri`` ufunc); the whole pipeline is deterministic and
  platform-stable.  ``_load_ndtri`` imports that ufunc from the
  ``scipy.special._ufuncs`` extension alone, because ``scipy.special``'s
  package init would double the package's import time; it is the very
  object ``scipy.special.ndtri`` names, so no value depends on the route.
* Each draw is then snapped to the lattice q * Z, where q is the power of two
  nearest sqrt(tau_fine) * 2^-36, and summed as an int64 multiple of q.
  Sums of these integers are exact, and every partial sum of practical
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

Generation: every public method goes through one producer, which fills a
(modes, words) array from Philox (one counter reset and one ``random_raw``
per mode and 2048-word block) and quantizes it in one vectorized pass, at
most 64 modes and 32 768 words at a time, so that a pass stays in cache and
its temporaries stay within the size of the output or of a few passes,
whatever the ratio.  A request of more than 32 768 words per mode (steps x
ratio) runs mode by mode, in passes that end on 2048-word block
boundaries, so no word is drawn twice, and each coarse step's int64 sum is
carried across passes.  The passes write straight into their destination,
which may be a strided view: ``increment_matrix`` takes an optional
``out``, so an ensemble fills each trajectory's slot of its (steps, live,
L) noise block in place, with no per-source temporary; from L = 8 on the
block is stored source-major, so that each slot is contiguous rows.  An
``out`` of k < N columns receives modes 0 .. k-1 alone, and no word of a
later mode is drawn.  A block holds the live modes alone, those up to the
last one whose semigroup factor is a normal double; every later factor is
0.0, underflowed or flushed (see ``SchemeParams.live_modes``).  So a block
is steps x live x L floats, and its 4M-float cap counts live floats (see
``integrator._noise_blocks``).
Counter-based words may be produced in any grouping (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11), and each
(trajectory, mode) stream is keyed on its own, so neither the layout nor
the modes left out change a value.

The order of operations is part of the values and must not be rewritten
algebraically: x >> 11, conversion to float64, + 0.5, * 2^-53, min with
1 - 2^-53, ndtri, * (sqrt(tau_fine) / q), rint, and for a coarse step an
int64 sum of its fine steps, then * q.  For example k + 0.5 rounds once
k >= 2^52, so folding the two constants into one changes bits.  The min
moves only the top word (x >> 11 = 2^53 - 1), whose u rounds to 1.0 and
whose ndtri is +inf; every other u is at most 1 - 2^-52.  The floor is
ndtri (~17-25 ns per word) plus Philox (~5-13 ns).  At 63 modes x 512
steps, filling a noise block in place costs ~35-50 ns per word at L = 1
and ~40-50 ns at L = 50.  With the (steps, N, L) order at L = 50 it cost
~50-60 ns: the final write into a slot strided by L floats takes ~10 ns
per word, against ~6 ns source-major (2-vCPU Xeon VM whose speed varies
by up to 2x, numpy 2.4, scipy 1.17).
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import math
import sys
import types

import numpy as np
from numpy.random import Philox

__all__ = ["NoiseSource", "stationary_variance"]

_KEY_CONST = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, decorrelates the seed word
_BLOCK = 2048  # words per counter value of word 1
# A pass quantizes at most this many modes and words (256 KB per buffer):
# its buffer stays in cache and its temporaries within the request's output
# or a few passes.  _CHUNK_WORDS is a multiple of _BLOCK, so that a long
# request's passes end on block boundaries (see NoiseSource._fill_in_passes).
_CHUNK_MODES = 64
_CHUNK_WORDS = 32768


class _BindSubmodules:
    """Meta path finder for the first real import of ``scipy.special``: once
    the package has run its init, it binds the submodules that the stub of
    ``_load_ndtri`` left in ``sys.modules``.  A clean import binds them as
    it loads them, but this one finds them loaded and would not.  The
    finder removes itself on that import."""

    def __init__(self, submodules: dict):
        self.submodules = submodules

    def find_spec(self, name, path, target=None):
        if name != "scipy.special":
            return None
        sys.meta_path.remove(self)
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_bind(module):
            exec_module(module)
            for key, submodule in self.submodules.items():
                vars(module).setdefault(key, submodule)

        spec.loader.exec_module = exec_and_bind
        return spec


def _load_ndtri():
    """scipy's ``ndtri`` ufunc, without running ``scipy.special``'s package
    init, which imports ``scipy._lib.array_api_compat`` and through it
    ``numpy.f2py`` and ``charset_normalizer``.

    A stub package with the real package's ``__path__`` stands in for
    ``scipy.special`` while only the ``_ufuncs`` extension is imported, and
    is removed before this returns.  The extension stays in ``sys.modules``,
    so a later ``import scipy.special`` reuses it and hands out this very
    object.  The extensions that ``_ufuncs`` imports (``_ufuncs_cxx`` and
    others) stay too; ``_BindSubmodules`` binds them to that later package.
    The public import serves when ``scipy.special`` is already loaded or the
    private path fails.  Condition: another thread's first ``import
    scipy.special`` must not run while this module is first imported.
    """
    if "scipy.special" in sys.modules:
        from scipy.special import ndtri
        return ndtri
    try:
        import scipy
        spec = importlib.util.find_spec("scipy.special")
        stub = types.ModuleType("scipy.special")
        stub.__path__ = list(spec.submodule_search_locations)
        sys.modules["scipy.special"] = stub
        try:
            return importlib.import_module("scipy.special._ufuncs").ndtri
        finally:
            if sys.modules.get("scipy.special") is stub:
                del sys.modules["scipy.special"]
            # vars(), not getattr(): scipy's module __getattr__ would import
            # the whole of scipy.special to answer a missing attribute.
            if vars(scipy).get("special") is stub:
                del scipy.special
            submodules = {key: value for key, value in vars(stub).items()
                          if isinstance(value, types.ModuleType)}
            if submodules:
                sys.meta_path.insert(0, _BindSubmodules(submodules))
    except (ImportError, AttributeError):
        from scipy.special import ndtri
        return ndtri


ndtri = _load_ndtri()


class NoiseSource:
    """Counter-addressed Gaussian increment stream for one trajectory.

    Args:
        seed: Master seed, an unsigned 64-bit integer.  Together with
            ``trajectory_id`` it determines every value this source will ever
            produce.
        trajectory_id: Index in [0, 2^64) selecting an independent stream.
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
        if not isinstance(trajectory_id, (int, np.integer)) or not 0 <= int(trajectory_id) < 2**64:
            raise ValueError(f"trajectory_id must be an integer in [0, 2^64), got {trajectory_id!r}")
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
        # plain ints and lists: the ``state`` setter reads them about twice
        # as fast as the arrays the getter returns.  The name comes from the
        # generator, so a substituted Philox subclass accepts the dict.
        state = self._philox.state
        self._counter = [0, 0, 0, self.trajectory_id]
        self._state = {"bit_generator": state["bit_generator"],
                       "state": {"counter": self._counter,
                                 "key": [int(word) for word in key]},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def __repr__(self) -> str:
        return (f"NoiseSource(seed={self.seed}, trajectory_id={self.trajectory_id}, "
                f"tau_fine={self.tau_fine!r}, n_modes_max={self.n_modes_max})")

    # -- generation --------------------------------------------------------

    def _words(self, raw: np.ndarray, j0: int, k0: int) -> None:
        """Fill ``raw[i, k - k0]`` with word k of mode j0 + i: one counter
        reset and one ``random_raw`` per (mode, 2048-word block).  The
        segments of [k0, k1) are the same for every mode, so they are worked
        out once per request."""
        k1 = k0 + raw.shape[1]
        segments = []
        k = k0
        while k < k1:
            base = k - k % _BLOCK  # first word of k's block
            start = k - k % 4      # Philox emits four words per counter value
            stop = min(k1, base + _BLOCK)
            segments.append(((start - base) // 4, base // _BLOCK, stop - start,
                             k - start, slice(k - k0, stop - k0)))
            k = stop
        for row, mode in zip(raw, range(j0, j0 + raw.shape[0])):
            for word0, word1, count, skip, dest in segments:
                self._counter[:3] = word0, word1, mode
                self._philox.state = self._state
                row[dest] = self._philox.random_raw(count)[skip:]

    def _quantized(self, raw: np.ndarray, j0: int, k0: int) -> np.ndarray:
        """Draw words k0 .. of modes j0 .. into ``raw`` (see ``_words``) and
        quantize them in place, in the module docstring's order of
        operations; returns the float64 view of ``raw``, whole multiples of
        q counted in units of q."""
        self._words(raw, j0, k0)
        # the shifted words are below 2^53, so converting them as int64 is
        # exact (and faster than from uint64)
        np.right_shift(raw, np.uint64(11), out=raw)
        x = raw.view(np.float64)
        np.add(raw.view(np.int64), 0.5, out=x)
        x *= 2.0**-53
        np.minimum(x, 1.0 - 2.0**-53, out=x)  # the top word gives 1.0
        ndtri(x, out=x)
        x *= self._scale
        np.rint(x, out=x)
        return x

    def _fill(self, out: np.ndarray, j0: int, m0: int, ratio: int) -> None:
        """The producer behind every public method: write the increments of
        modes j0 <= j < j0 + out.shape[1] over coarse steps m0 <= m < m0 +
        out.shape[0] of ``ratio`` fine steps into ``out``.  A request of at
        most ``_CHUNK_WORDS`` words per mode runs one vectorized pass per
        chunk of modes; a longer one runs mode by mode in bounded passes
        (see ``_fill_in_passes``)."""
        steps, n = out.shape
        words = steps * ratio
        if words > _CHUNK_WORDS:
            for c in range(n):
                self._fill_in_passes(out[:, c], j0 + c, m0, ratio)
            return
        chunk = min(_CHUNK_MODES, _CHUNK_WORDS // max(words, 1))
        for c0 in range(0, n, chunk):
            c1 = min(n, c0 + chunk)
            x = self._quantized(np.empty((c1 - c0, words), dtype=np.uint64), j0 + c0,
                                m0 * ratio)
            if ratio > 1:  # at ratio 1 the floats are already whole multiples of q
                x = x.astype(np.int64).reshape(c1 - c0, steps, ratio).sum(axis=2)
            np.multiply(x.T, self.quantum, out=out[:, c0:c1])

    def _fill_in_passes(self, out: np.ndarray, j: int, m0: int, ratio: int) -> None:
        """``_fill`` for the one mode j over len(out) coarse steps, in
        passes of at most ``_CHUNK_WORDS`` words, each ending on a
        2048-word block boundary or at the request's end, so that no word
        is drawn twice.  A coarse step may straddle passes: each pass adds
        its words into the int64 sums of the steps it touches, and integer
        sums do not depend on the grouping, so the bits are those of one
        pass."""
        k0, k1 = m0 * ratio, (m0 + len(out)) * ratio
        sums = np.zeros(len(out), dtype=np.int64)
        k = k0
        while k < k1:
            stop = min(k1, k - k % _BLOCK + _CHUNK_WORDS)
            x = self._quantized(np.empty((1, stop - k), dtype=np.uint64), j, k)[0]
            first, last = (k - k0) // ratio, (stop - 1 - k0) // ratio
            # offsets in this pass of the words that start its steps after the first
            starts = np.arange(first + 1, last + 1) * ratio - (k - k0)
            sums[first:last + 1] += np.add.reduceat(x.astype(np.int64), np.r_[0, starts])
            k = stop
        np.multiply(sums, self.quantum, out=out)

    def _check_mode(self, j: int) -> None:
        if not 1 <= j <= self.n_modes_max:
            raise ValueError(f"mode index must be in [1, {self.n_modes_max}], got {j}")

    # -- public API --------------------------------------------------------

    def fine_increment(self, j: int, k: int) -> float:
        """The k-th fine increment of mode j, distributed N(0, tau_fine)."""
        return self.coarse_increment(j, k, 1)

    def fine_increments(self, j: int, k0: int, k1: int) -> np.ndarray:
        """Fine increments k0 <= k < k1 of mode j as a float array."""
        self._check_mode(j)
        if not 0 <= k0 <= k1:
            raise ValueError(f"need 0 <= k0 <= k1, got ({k0}, {k1})")
        out = np.empty((k1 - k0, 1))
        self._fill(out, j, k0, 1)
        return out.ravel()

    def coarse_increment(self, j: int, m: int, ratio: int) -> float:
        """Increment of mode j over coarse step m at step size ratio*tau_fine.

        Exactly the sum of its ``ratio`` constituent fine increments; the sum
        is carried in integer arithmetic, so any refinement path through
        intermediate step sizes reproduces the identical float.
        """
        self._check_mode(j)
        _check_ratio(ratio)
        if m < 0:
            raise ValueError(f"coarse step index must be nonnegative, got {m}")
        out = np.empty((1, 1))
        self._fill(out, j, m, ratio)
        return float(out[0, 0])

    def increment_field(self, basis, m: int, ratio: int = 1) -> np.ndarray:
        """Spectral increment vector for one scheme step on ``basis``.

        Entry 0 is exactly 0.0 (the mean carries no noise); entries 1..N-1 are
        the coarse increments of the corresponding modes.  A basis with fewer
        modes than another simply truncates the same shared streams.
        """
        return self.increment_matrix(basis, m, m + 1, ratio)[0]

    def increment_matrix(self, basis, m0: int, m1: int, ratio: int = 1,
                         out: np.ndarray | None = None) -> np.ndarray:
        """Spectral increments for coarse steps m0 <= m < m1, shape (m1-m0, N).

        Row m - m0 is bit-for-bit equal to ``increment_field(basis, m, ratio)``.
        ``out``, if given, is a float64 array of that shape, possibly a
        strided view such as one trajectory's slot ``block[:, :, l]`` of a
        (steps, live, L) block; it is filled in place (column 0 set to 0.0)
        and returned, with the same bits as a fresh array.  An ``out`` of
        k < N columns receives modes 0 .. k-1 alone, the first k columns of
        the full matrix bit for bit; no word of a later mode is drawn.
        """
        n = basis.n_modes
        if n - 1 > self.n_modes_max:
            raise ValueError(
                f"basis needs modes up to {n - 1} but this source is declared "
                f"for at most {self.n_modes_max}")
        _check_ratio(ratio)
        if not 0 <= m0 <= m1:
            raise ValueError(f"need 0 <= m0 <= m1, got ({m0}, {m1})")
        if out is None:
            out = np.empty((m1 - m0, n))
        elif (out.ndim != 2 or out.shape[0] != m1 - m0 or not 1 <= out.shape[1] <= n
              or out.dtype != np.float64):
            raise ValueError(f"out must be a float64 array of shape {(m1 - m0, n)}, or "
                             f"narrower, got {out.dtype} {out.shape}")
        out[:, 0] = 0.0
        self._fill(out[:, 1:], 1, m0, ratio)
        return out


def _check_ratio(ratio) -> None:
    if not isinstance(ratio, (int, np.integer)) or ratio < 1:
        raise ValueError(f"ratio must be a positive integer, got {ratio!r}")


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
