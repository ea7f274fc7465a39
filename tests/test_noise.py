"""Tests for the addressable noise source.

The property that everything else leans on: an increment is a pure function
of (seed, trajectory, mode, step index), and a coarse increment equals the
sum of its fine constituents bit for bit, for any factorization of the ratio.
That is what makes coupled coarse/reference runs and resumed runs exact.
"""

import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Philox
from scipy.special import ndtri

from schsim import (DriftSpec, NoiseSource, SchemeParams, SpectralBasis,
                    initial_state, noise, run_ensemble, run_spatial_study,
                    run_temporal_study, run_trajectory, stationary_variance)


def make_source(**kw):
    defaults = dict(seed=42, trajectory_id=0, tau_fine=2.0**-10, n_modes_max=63)
    defaults.update(kw)
    return NoiseSource(defaults.pop("seed"), defaults.pop("trajectory_id"),
                       **defaults)


class TestAddressing:
    def test_same_address_same_value(self):
        a, b = make_source(), make_source()
        for j, k in [(1, 0), (1, 5), (7, 123456), (63, 2)]:
            assert a.fine_increment(j, k) == b.fine_increment(j, k)

    def test_access_order_is_irrelevant(self):
        """Reading a stream backwards gives the same values as forwards."""
        a, b = make_source(), make_source()
        forward = [a.fine_increment(3, k) for k in range(50)]
        backward = [b.fine_increment(3, k) for k in reversed(range(50))]
        assert forward == backward[::-1]

    def test_distinct_seeds_decorrelate(self):
        a, b = make_source(seed=1), make_source(seed=2)
        va = np.array([a.fine_increment(1, k) for k in range(200)])
        vb = np.array([b.fine_increment(1, k) for k in range(200)])
        assert not np.array_equal(va, vb)
        assert abs(np.corrcoef(va, vb)[0, 1]) < 0.25

    def test_distinct_trajectories_decorrelate(self):
        a = make_source(trajectory_id=0)
        b = make_source(trajectory_id=1)
        va = np.array([a.fine_increment(1, k) for k in range(200)])
        vb = np.array([b.fine_increment(1, k) for k in range(200)])
        assert not np.array_equal(va, vb)
        assert abs(np.corrcoef(va, vb)[0, 1]) < 0.25

    def test_fine_increments_match_scalar_calls_across_blocks(self):
        # the slice spans a counter-block boundary (blocks are 2048 long)
        src = make_source()
        block = src.fine_increments(2, 2040, 2060)
        scalars = [src.fine_increment(2, k) for k in range(2040, 2060)]
        assert block.tolist() == scalars


class TestRefinement:
    @pytest.mark.parametrize("ratio", [2, 4, 8])
    def test_coarse_equals_sum_of_fine_bitwise(self, ratio):
        """Aggregated increments are exact, not just close.

        Each fine increment is an integer multiple of one dyadic quantum, so
        float addition of the constituents is itself exact and lands on the
        integer-summed value.
        """
        src = make_source()
        for j in (1, 5, 63):
            for m in (0, 1, 17):
                fine = src.fine_increments(j, m * ratio, (m + 1) * ratio)
                assert src.coarse_increment(j, m, ratio) == fine.sum()

    def test_refinement_path_independence(self):
        # aggregating 15 fine steps directly, or via intermediate coarse
        # steps of 3, must give the same float (ratio 15 = 5 x 3)
        src = make_source()
        for j in (1, 8):
            direct = src.coarse_increment(j, 2, 15)
            staged = sum(src.coarse_increment(j, 2 * 5 + i, 3) for i in range(5))
            assert direct == staged

    def test_unit_ratio_is_fine_increment(self):
        src = make_source()
        assert src.coarse_increment(4, 9, 1) == src.fine_increment(4, 9)

    def test_mode_sharing_across_resolutions(self):
        """A small run and a large run from one seed share their low modes."""
        small = make_source(n_modes_max=7)
        large = make_source(n_modes_max=63)
        for j in range(1, 8):
            for k in (0, 3, 4000):
                assert small.fine_increment(j, k) == large.fine_increment(j, k)

    def test_increment_field_mean_mode_is_zero(self):
        src = make_source()
        field = src.increment_field(SpectralBasis(8), m=0)
        assert field[0] == 0.0
        assert np.all(field[1:] != 0.0)

    def test_increment_field_matches_per_mode_calls(self):
        src = make_source()
        basis = SpectralBasis(8)
        field = src.increment_field(basis, m=3, ratio=4)
        for j in range(1, 8):
            assert field[j] == src.coarse_increment(j, 3, 4)

    def test_increment_matrix_rows_match_fields_bitwise(self):
        src = make_source()
        basis = SpectralBasis(16)
        block = src.increment_matrix(basis, 5, 9, ratio=2)
        assert block.shape == (4, 16)
        for m in range(5, 9):
            np.testing.assert_array_equal(block[m - 5],
                                          src.increment_field(basis, m, 2))

    def test_truncation_consistency_between_bases(self):
        """increment_field on N=8 is the first 8 entries of the N=64 field."""
        src = make_source()
        small = src.increment_field(SpectralBasis(8), m=11)
        large = src.increment_field(SpectralBasis(64), m=11)
        np.testing.assert_array_equal(small, large[:8])


BASES = {}


def cached_basis(n):
    return BASES.setdefault(n, SpectralBasis(n))


class TestRefinementProperties:
    """Refinement and mode sharing for any ratio, range and mode count the
    config accepts, not only the pinned ones."""

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(r1=st.integers(1, 6), r2=st.integers(1, 6), m0=st.integers(0, 3000),
           length=st.integers(0, 24), n=st.integers(2, 20),
           seed=st.integers(0, 2**64 - 1), tau_fine=st.floats(1e-6, 0.5))
    def test_coarse_increments_are_sums_for_any_factorisation(self, r1, r2, m0, length, n,
                                                              seed, tau_fine):
        src = NoiseSource(seed, 1, tau_fine=tau_fine, n_modes_max=n - 1)
        basis = cached_basis(n)
        m1 = m0 + length
        coarse = src.increment_matrix(basis, m0, m1, r1 * r2)
        staged = src.increment_matrix(basis, m0 * r2, m1 * r2, r1)
        assert coarse.tobytes() == staged.reshape(length, r2, n).sum(axis=1).tobytes()
        r = r1 * r2
        fine = np.stack([src.fine_increments(j, m0 * r, m1 * r) for j in range(1, n)])
        assert coarse[:, 1:].tobytes() == fine.reshape(n - 1, length, r).sum(axis=2).T.tobytes()

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(n_small=st.integers(2, 40), extra=st.integers(0, 40), m0=st.integers(0, 5000),
           length=st.integers(0, 12), ratio=st.integers(1, 4),
           seed=st.integers(0, 2**64 - 1), trajectory_id=st.integers(0, 2**64 - 1))
    def test_modes_are_shared_for_any_pair_of_mode_counts(self, n_small, extra, m0, length,
                                                          ratio, seed, trajectory_id):
        n_big = n_small + extra
        small = NoiseSource(seed, trajectory_id, tau_fine=0.01, n_modes_max=n_small - 1)
        big = NoiseSource(seed, trajectory_id, tau_fine=0.01, n_modes_max=n_big - 1)
        blocks = [src.increment_matrix(cached_basis(n), m0, m0 + length, ratio)
                  for src, n in ((small, n_small), (big, n_big))]
        assert blocks[0].tobytes() == np.ascontiguousarray(blocks[1][:, :n_small]).tobytes()


def reference_ints(src, mode, k0, k1):
    """Fine increments k0 <= k < k1 of one mode as int64 multiples of the
    quantum, by the per-mode formula the vectorized producer replaced: a
    fresh Philox per 2048-word block, then uniform (clamped below 1), ndtri,
    rint and int64."""
    key = np.array([src.seed, noise._KEY_CONST], dtype=np.uint64)
    parts = []
    k = k0
    while k < k1:
        base, start = k - k % 2048, k - k % 4
        stop = min(k1, base + 2048)
        counter = np.array([(start - base) // 4, base // 2048, mode, src.trajectory_id],
                           dtype=np.uint64)
        parts.append(Philox(key=key, counter=counter).random_raw(stop - start)[k - start:])
        k = stop
    raw = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
    uniform = np.minimum(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53,
                         1.0 - 2.0**-53)
    scale = math.sqrt(src.tau_fine) / src.quantum
    return np.rint(ndtri(uniform) * scale).astype(np.int64)


def reference_matrix(src, n, m0, m1, ratio):
    out = np.zeros((m1 - m0, n))
    for j in range(1, n):
        sums = reference_ints(src, j, m0 * ratio, m1 * ratio).reshape(m1 - m0, ratio).sum(axis=1)
        out[:, j] = sums.astype(np.float64) * src.quantum
    return out


def assert_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.fixture
def draws(monkeypatch):
    """Counts the Philox words drawn and the 2048-word blocks requested."""
    counts = {"words": 0, "blocks": 0}

    class CountingPhilox(noise.Philox):
        def random_raw(self, size=None, output=True):
            counts["words"] += 1 if size is None else int(np.prod(size))
            return super().random_raw(size, output)

    words = NoiseSource._words

    def recording(self, raw, j0, k0):
        modes, k1 = raw.shape[0], k0 + raw.shape[1]
        if k1 > k0:
            counts["blocks"] += modes * ((k1 - 1) // 2048 - k0 // 2048 + 1)
        return words(self, raw, j0, k0)

    monkeypatch.setattr(noise, "Philox", CountingPhilox)
    monkeypatch.setattr(NoiseSource, "_words", recording)
    return counts


class TestProducer:
    """Every request draws exactly the words it returns, plus at most three
    alignment words per block touched; nothing is drawn twice."""

    @pytest.mark.parametrize("k0, k1", [(5, 77), (2045, 2051), (1001, 6150),
                                        (6, 6), (4096, 4100), (0, 8192)])
    def test_ranges_equal_slices_of_whole_blocks(self, k0, k1):
        src = make_source(trajectory_id=3)
        blocks = reference_ints(src, 9, 0, 4 * 2048) * src.quantum
        assert src.fine_increments(9, k0, k1).tolist() == blocks[k0:k1].tolist()

    @staticmethod
    def assert_budget(counts, used):
        assert used <= counts["words"] <= used + 3 * counts["blocks"]

    def test_temporal_study_draws_reference_increments_once(self, draws):
        # 640 reference steps, ladder strides 16, 8, 4 and 2
        run_temporal_study(
            basis=SpectralBasis(8), drift=DriftSpec(0.5, -0.5, 1.0, -1.0),
            sigma=1.0, t_final=2.5, tau_ref=2.0**-8,
            tau_ladder=[2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
            initial="1/3", seed=1, n_trajectories=2)
        self.assert_budget(draws, 2 * 7 * 640)

    def test_spatial_study_draws_reference_increments_once(self, draws):
        run_spatial_study(
            drift=DriftSpec(0.5, -0.5, 1.0, -1.0), sigma=1.0, t_final=5.0,
            tau=2.0**-7, n_modes_ladder=[4, 8, 16], n_modes_ref=32,
            initial="1/3", seed=1, n_trajectories=2)
        # modes 1 .. 20: at tau = 2^-7 the reference's factors vanish from
        # mode 21 on (mode 21's, 5.05e-317, is subnormal, so it is flushed),
        # and every coarse level has at most 16 modes
        self.assert_budget(draws, 2 * 20 * 640)

    def test_an_ergodic_run_draws_its_live_modes_alone(self, draws):
        """At N = 64, tau = 5e-3 (the ergodic criteria's shape) modes 21 to
        63 have a semigroup factor of exactly 0.0; a single run and an
        ensemble draw modes 1 .. 20 alone."""
        params = SchemeParams(SpectralBasis(64), DriftSpec(0.5, -0.5, 1.0, -1.0), 5e-3)
        assert params.live_modes == 21
        sources = [NoiseSource(3, l, tau_fine=5e-3, n_modes_max=63) for l in range(4)]
        run_trajectory(params, initial_state(params, np.zeros(64)), sources[0], 300)
        run_ensemble(params, np.zeros(64), sources[1:], 300)
        self.assert_budget(draws, 4 * 20 * 300)

    def test_ensemble_draws_each_increment_once(self, draws):
        params = SchemeParams(SpectralBasis(8), DriftSpec(0.5, -0.5, 1.0, -1.0), 0.04)
        sources = [NoiseSource(3, l, tau_fine=0.01, n_modes_max=7) for l in range(3)]
        run_ensemble(params, np.zeros(8), sources, 100)
        self.assert_budget(draws, 3 * 7 * 100 * 4)


class TestOracle:
    """Every public method equals the per-mode reference formula bit for bit,
    across 64-mode chunks (N = 257), fine-step ratios, a first step whose
    first word is not a multiple of 4 and ranges that cross a 2048-word
    block."""

    # coarse steps [m0, m1) by ratio: words [2001, 2103), [2001, 2103) and
    # [2000, 2096), each crossing word 2048
    STEPS = {1: (2001, 2103), 3: (667, 701), 16: (125, 131)}

    @pytest.mark.parametrize("ratio", [1, 3, 16])
    @pytest.mark.parametrize("n", [2, 8, 65, 257])
    def test_every_method_matches_reference(self, n, ratio):
        src = make_source(seed=11, trajectory_id=7, n_modes_max=n - 1)
        basis = SpectralBasis(n)
        m0, m1 = self.STEPS[ratio]
        expected = reference_matrix(src, n, m0, m1, ratio)
        assert_bits(src.increment_matrix(basis, m0, m1, ratio), expected)
        for i in (0, m1 - m0 - 1):
            assert_bits(src.increment_field(basis, m0 + i, ratio), expected[i])
            for j in {1, n // 2, n - 1}:
                assert src.coarse_increment(j, m0 + i, ratio).hex() == expected[i, j].hex()
        for j in {1, n - 1}:
            fine = reference_ints(src, j, 2001, 2101).astype(np.float64) * src.quantum
            assert_bits(src.fine_increments(j, 2001, 2101), fine)
            assert src.fine_increment(j, 2047).hex() == fine[46].hex()
            assert src.fine_increment(j, 2048).hex() == fine[47].hex()

    @pytest.mark.parametrize("n, m0, m1, ratio", [(65, 125, 165, 16), (8, 667, 4667, 3)])
    def test_long_requests_match_reference(self, n, m0, m1, ratio):
        """Requests longer than 512 words are quantized in passes of fewer
        modes (51 and 2 of them here)."""
        src = make_source(seed=11, trajectory_id=7, n_modes_max=n - 1)
        assert_bits(src.increment_matrix(SpectralBasis(n), m0, m1, ratio),
                    reference_matrix(src, n, m0, m1, ratio))

    def test_pinned_values(self):
        """Entries of two matrices, recorded from the per-mode producer."""
        src = make_source(seed=2024, trajectory_id=5, n_modes_max=256)
        m1 = src.increment_matrix(SpectralBasis(257), 2001, 2101, 1)
        m3 = src.increment_matrix(SpectralBasis(65), 667, 700, 3)
        assert [float(m1[i, j]).hex() for i, j in ((0, 1), (46, 64), (47, 65), (99, 256))] == [
            "-0x1.d71d70a700000p-8", "-0x1.1f6e810200000p-4",
            "-0x1.949dd39280000p-7", "0x1.507e5b9800000p-10"]
        assert [float(m3[i, j]).hex() for i, j in ((0, 1), (32, 64))] == [
            "0x1.24c6145900000p-5", "0x1.b0ad213a00000p-9"]

    @pytest.mark.parametrize("ratio", [1, 3])
    @pytest.mark.parametrize("n", [8, 65, 257])
    def test_out_matches_a_fresh_matrix(self, n, ratio):
        """Filled in place, into a contiguous array or one trajectory's
        strided slot of a (steps, N, L) block, the increments are those of a
        fresh call bit for bit, and a NaN mode 0 is overwritten with 0.0."""
        src = make_source(seed=11, trajectory_id=7, n_modes_max=n - 1)
        basis = SpectralBasis(n)
        m0, m1 = self.STEPS[ratio]
        expected = src.increment_matrix(basis, m0, m1, ratio)
        contiguous = np.full((m1 - m0, n), np.nan)
        assert src.increment_matrix(basis, m0, m1, ratio, contiguous) is contiguous
        assert_bits(contiguous, expected)
        block = np.full((m1 - m0, n, 3), np.nan)
        src.increment_matrix(basis, m0, m1, ratio, block[:, :, 1])
        assert_bits(block[:, :, 1], expected)
        assert np.isnan(block[:, :, [0, 2]]).all()  # the other slots are untouched

    def test_out_of_the_wrong_shape_is_rejected(self):
        src = make_source(n_modes_max=7)
        with pytest.raises(ValueError, match="shape"):
            src.increment_matrix(SpectralBasis(8), 0, 4, 1, np.empty((4, 9)))
        with pytest.raises(ValueError, match="shape"):
            src.increment_matrix(SpectralBasis(8), 0, 4, 1, np.empty((8, 4)).T[:3])
        with pytest.raises(ValueError, match="float64"):
            src.increment_matrix(SpectralBasis(8), 0, 4, 1, np.empty((4, 8), np.float32))

    @pytest.mark.parametrize("ratio", [1, 3])
    @pytest.mark.parametrize("n, k", [(8, 1), (8, 5), (65, 64), (257, 43), (257, 130)])
    def test_a_narrower_out_gets_the_first_columns(self, n, k, ratio, draws):
        """An ``out`` of k < N columns, contiguous or a strided slot, receives
        the first k columns of the full matrix bit for bit, and only modes
        1 .. k-1 are drawn."""
        src = make_source(seed=11, trajectory_id=7, n_modes_max=n - 1)
        basis = SpectralBasis(n)
        m0, m1 = self.STEPS[ratio]
        expected = reference_matrix(src, n, m0, m1, ratio)[:, :k]
        narrow = np.full((m1 - m0, k), np.nan)
        assert src.increment_matrix(basis, m0, m1, ratio, narrow) is narrow
        assert_bits(narrow, expected)
        block = np.full((m1 - m0, n, 3), np.nan)
        src.increment_matrix(basis, m0, m1, ratio, block[:, :k, 1])
        assert_bits(block[:, :k, 1], expected)
        assert np.isnan(block[:, k:, 1]).all() and np.isnan(block[:, :, [0, 2]]).all()
        TestProducer.assert_budget(draws, 2 * (k - 1) * (m1 - m0) * ratio)

    def test_a_substituted_philox_gives_the_same_words(self, monkeypatch):
        """The counter reset carries the generator's own class name, so a
        Philox subclass (as a tracer installs) accepts it and draws the same
        words."""
        class Subclass(noise.Philox):
            pass

        expected = make_source(seed=3, n_modes_max=64).increment_matrix(
            SpectralBasis(65), 2001, 2103)
        monkeypatch.setattr(noise, "Philox", Subclass)
        src = make_source(seed=3, n_modes_max=64)
        assert type(src._philox) is Subclass
        assert_bits(src.increment_matrix(SpectralBasis(65), 2001, 2103), expected)

    def test_the_top_word_gives_a_finite_increment(self, monkeypatch):
        """A word whose top 53 bits are all ones rounds to u = 1.0, whose
        ndtri is +inf; the clamp to 1 - 2^-53 keeps its increment finite,
        equal to the one that uniform gives."""
        class AllOnes(noise.Philox):
            def random_raw(self, size=None, output=True):
                return np.full(size, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(noise, "Philox", AllOnes)
        src = make_source()
        top = src.fine_increments(1, 0, 4)
        expected = np.rint(ndtri(1.0 - 2.0**-53) * math.sqrt(src.tau_fine)
                           / src.quantum) * src.quantum
        assert np.isfinite(top).all() and (top > 0).all()
        assert top.tolist() == [expected] * 4

    def test_temporaries_stay_below_the_output(self):
        """Modes are quantized at most 64 at a time, so the peak traced
        memory of a request stays under twice its output."""
        src = make_source(n_modes_max=255)
        basis = SpectralBasis(256)
        src.increment_matrix(basis, 0, 4)  # warm up outside the trace
        tracemalloc.start()
        try:
            out = src.increment_matrix(basis, 0, 512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestStatistics:
    def test_fine_increment_moments(self):
        """Mean 0, variance tau_fine; tolerances are ~4 standard errors."""
        tau = 2.0**-8
        src = make_source(tau_fine=tau)
        x = src.fine_increments(1, 0, 20000)
        assert abs(x.mean()) < 4 * np.sqrt(tau / 20000)
        assert x.var() == pytest.approx(tau, rel=0.05)

    def test_coarse_increment_variance_scales_with_ratio(self):
        tau = 2.0**-8
        src = make_source(tau_fine=tau)
        coarse = np.array([src.coarse_increment(2, m, 8) for m in range(4000)])
        assert coarse.var() == pytest.approx(8 * tau, rel=0.08)

    def test_modes_are_uncorrelated(self):
        src = make_source()
        x = src.fine_increments(1, 0, 20000)
        y = src.fine_increments(2, 0, 20000)
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.03

    def test_shape_of_distribution(self):
        # skewness ~ sqrt(6/n), excess kurtosis ~ sqrt(24/n); generous bands
        src = make_source()
        x = src.fine_increments(3, 0, 20000)
        z = (x - x.mean()) / x.std()
        assert abs(np.mean(z**3)) < 0.1
        assert abs(np.mean(z**4) - 3.0) < 0.2


class TestStationaryVariance:
    def test_matches_geometric_series(self):
        """Closed form equals sum_{k>=1} sigma^2 tau e^(-2 lam^2 tau k)."""
        lam, tau, sigma = 1.7, 0.05, 0.8
        d = np.exp(-2 * lam**2 * tau)
        partial = sigma**2 * tau * sum(d**k for k in range(1, 4000))
        assert stationary_variance(lam, tau, sigma) == pytest.approx(
            partial, rel=1e-12)

    def test_fixed_point_of_recursion(self):
        # v solves v = e^(-2 lam^2 tau) (v + sigma^2 tau)
        lam, tau, sigma = 2.4, 0.01, 1.3
        v = stationary_variance(lam, tau, sigma)
        d = np.exp(-2 * lam**2 * tau)
        assert v == pytest.approx(d * (v + sigma**2 * tau), rel=1e-13)

    def test_sigma_scaling_is_quadratic(self):
        assert stationary_variance(1.0, 0.1, 3.0) == pytest.approx(
            9 * stationary_variance(1.0, 0.1, 1.0), rel=1e-13)

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError, match="lam != 0 and tau > 0"):
            stationary_variance(0.0, 0.1)
        with pytest.raises(ValueError, match="lam != 0 and tau > 0"):
            stationary_variance(1.0, 0.0)


class TestValidation:
    def test_seed_range(self):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            NoiseSource(-1, tau_fine=0.1, n_modes_max=3)
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            NoiseSource(2**64, tau_fine=0.1, n_modes_max=3)
        # boundary values are fine
        NoiseSource(0, tau_fine=0.1, n_modes_max=3)
        NoiseSource(2**64 - 1, tau_fine=0.1, n_modes_max=3)

    def test_trajectory_id_nonnegative(self):
        with pytest.raises(ValueError, match="trajectory_id"):
            NoiseSource(1, -1, tau_fine=0.1, n_modes_max=3)

    def test_trajectory_id_range(self):
        with pytest.raises(ValueError, match=r"trajectory_id must be an integer in \[0, 2\^64\)"):
            NoiseSource(1, 2**64, tau_fine=0.1, n_modes_max=3)
        NoiseSource(1, 2**64 - 1, tau_fine=0.1, n_modes_max=3).fine_increment(1, 0)

    def test_tau_fine_positive_finite(self):
        for bad in (0.0, -0.5, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tau_fine"):
                NoiseSource(1, tau_fine=bad, n_modes_max=3)

    def test_n_modes_max_positive(self):
        with pytest.raises(ValueError, match="n_modes_max"):
            NoiseSource(1, tau_fine=0.1, n_modes_max=0)

    def test_mode_index_bounds(self):
        src = make_source(n_modes_max=7)
        with pytest.raises(ValueError, match=r"mode index must be in \[1, 7\]"):
            src.fine_increment(0, 0)
        with pytest.raises(ValueError, match=r"mode index must be in \[1, 7\]"):
            src.fine_increment(8, 0)

    def test_step_index_bounds(self):
        src = make_source()
        with pytest.raises(ValueError, match="nonnegative"):
            src.fine_increment(1, -1)
        with pytest.raises(ValueError, match="0 <= k0 <= k1"):
            src.fine_increments(1, 5, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            src.coarse_increment(1, -1, 2)

    def test_increment_matrix_range_is_ordered(self):
        src = make_source(n_modes_max=7)
        with pytest.raises(ValueError, match=r"need 0 <= m0 <= m1, got \(5, 4\)"):
            src.increment_matrix(cached_basis(8), 5, 4)

    def test_ratio_must_be_positive_integer(self):
        src = make_source()
        with pytest.raises(ValueError, match="ratio"):
            src.coarse_increment(1, 0, 0)
        with pytest.raises(ValueError, match="ratio"):
            src.coarse_increment(1, 0, 1.5)

    def test_basis_wider_than_declared_modes(self):
        src = make_source(n_modes_max=4)
        with pytest.raises(ValueError, match="at most 4"):
            src.increment_field(SpectralBasis(8), 0)
        with pytest.raises(ValueError, match="at most 4"):
            src.increment_matrix(SpectralBasis(8), 0, 2)


_HEAVY_MODULES = ("scipy.special", "scipy._lib.array_api_compat", "numpy.f2py",
                  "charset_normalizer")


def run_python(code, env):
    """Run ``code`` in a fresh interpreter and return what it printed as JSON."""
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestNdtriLoading:
    """``noise.ndtri`` is scipy's own ufunc, loaded without ``scipy.special``'s
    package init; each case runs in a fresh interpreter, since what matters
    is which modules an import leaves in ``sys.modules``."""

    @pytest.mark.parametrize("reach", ["import scipy.special as special",
                                       "special = scipy.special"])
    def test_cli_import_skips_the_package_init(self, reach, src_env):
        """After ``import schsim.cli`` the heavy modules are absent and no
        stub is left; ``scipy.special`` then still loads, by import or by
        scipy's lazy attribute, and hands out the same ``ndtri``."""
        result = run_python(
            "import json, sys, scipy, schsim.cli\n"
            "from schsim import noise\n"
            f"loaded = [m for m in {_HEAVY_MODULES!r} if m in sys.modules]\n"
            "stub = 'special' in vars(scipy)\n"
            f"{reach}\n"
            "print(json.dumps([loaded, stub, special.ndtri is noise.ndtri,\n"
            "                  sys.modules['scipy.special'] is special is scipy.special,\n"
            "                  float(special.erf(1.0))]))\n", src_env)
        assert result == [[], False, True, True, pytest.approx(math.erf(1.0), rel=1e-15)]

    def test_a_later_scipy_special_has_the_clean_namespace(self, src_env):
        """The extensions the private path loads with ``_ufuncs``
        (``_ufuncs_cxx``, ``_gufuncs`` and others) are bound to a later
        ``scipy.special`` as a clean import binds them."""
        clean = run_python("import json, scipy.special\n"
                           "print(json.dumps(sorted(vars(scipy.special))))\n", src_env)
        result = run_python(
            "import json, sys, schsim.noise\n"
            "import scipy.special as special\n"
            "print(json.dumps([sorted(vars(special)), special.ndtri is schsim.noise.ndtri,\n"
            "                  special._gufuncs is sys.modules['scipy.special._gufuncs']]))\n",
            src_env)
        assert result == [clean, True, True]

    def test_loaded_scipy_special_takes_the_public_path(self, src_env):
        """An already imported ``scipy.special`` stays the one in
        ``sys.modules`` and gives ``noise`` its ``ndtri``."""
        result = run_python(
            "import json, sys, scipy.special\n"
            "special = sys.modules['scipy.special']\n"
            "from schsim import noise\n"
            "print(json.dumps([sys.modules['scipy.special'] is special is scipy.special,\n"
            "                  noise.ndtri is special.ndtri]))\n", src_env)
        assert result == [True, True]

    def test_failed_private_path_falls_back(self, src_env):
        """If the private import fails, the public one serves, no stub is
        left behind, and the increments are the pinned ones."""
        result = run_python(
            "import importlib, json, sys, scipy\n"
            "real = importlib.import_module\n"
            "def failing(name, package=None):\n"
            "    if name == 'scipy.special._ufuncs':\n"
            "        importlib.import_module = real\n"
            "        raise ImportError('private path disabled')\n"
            "    return real(name, package)\n"
            "importlib.import_module = failing\n"
            "from schsim import noise\n"
            "public = 'scipy.special' in sys.modules and noise.ndtri is scipy.special.ndtri\n"
            "special = sys.modules['scipy.special']\n"
            "stub = special.__spec__ is None or vars(scipy).get('special') is not special\n"
            "from schsim import SpectralBasis\n"
            "src = noise.NoiseSource(2024, 5, tau_fine=2.0**-10, n_modes_max=256)\n"
            "m1 = src.increment_matrix(SpectralBasis(257), 2001, 2101, 1)\n"
            "print(json.dumps([importlib.import_module is real, public, stub,\n"
            "                  float(m1[0, 1]).hex(), float(m1[99, 256]).hex()]))\n", src_env)
        # the values test_pinned_values pins
        assert result == [True, True, False, "-0x1.d71d70a700000p-8", "0x1.507e5b9800000p-10"]


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
