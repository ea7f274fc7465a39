"""Tests for the addressable noise source.

The property that everything else leans on: an increment is a pure function
of (seed, trajectory, mode, step index), and a coarse increment equals the
sum of its fine constituents bit for bit, for any factorization of the ratio.
That is what makes coupled coarse/reference runs and resumed runs exact.
"""

import math

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from schsim import (DriftSpec, NoiseSource, SchemeParams, build_basis,
                    noise, run_ensemble, run_spatial_study, run_temporal_study,
                    stationary_variance)


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
        field = src.increment_field(build_basis(8), m=0)
        assert field[0] == 0.0
        assert np.all(field[1:] != 0.0)

    def test_increment_field_matches_per_mode_calls(self):
        src = make_source()
        basis = build_basis(8)
        field = src.increment_field(basis, m=3, ratio=4)
        for j in range(1, 8):
            assert field[j] == src.coarse_increment(j, 3, 4)

    def test_increment_matrix_rows_match_fields_bitwise(self):
        src = make_source()
        basis = build_basis(16)
        block = src.increment_matrix(basis, 5, 9, ratio=2)
        assert block.shape == (4, 16)
        for m in range(5, 9):
            np.testing.assert_array_equal(block[m - 5],
                                          src.increment_field(basis, m, 2))

    def test_truncation_consistency_between_bases(self):
        """increment_field on N=8 is the first 8 entries of the N=64 field."""
        src = make_source()
        small = src.increment_field(build_basis(8), m=11)
        large = src.increment_field(build_basis(64), m=11)
        np.testing.assert_array_equal(small, large[:8])


def whole_block(src, mode, block):
    """Fine increments of one 2048-word block, drawn by a fresh generator
    exactly as the module docstring specifies."""
    key = np.array([src.seed, noise._KEY_CONST], dtype=np.uint64)
    counter = np.array([0, block, mode, src.trajectory_id], dtype=np.uint64)
    raw = Philox(key=key, counter=counter).random_raw(2048)
    uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    scale = math.sqrt(src.tau_fine) / src.quantum
    return np.rint(ndtri(uniform) * scale) * src.quantum


@pytest.fixture
def draws(monkeypatch):
    """Counts the Philox words drawn and the 2048-word blocks requested."""
    counts = {"words": 0, "blocks": 0}

    class CountingPhilox(noise.Philox):
        def random_raw(self, size=None, output=True):
            counts["words"] += 1 if size is None else int(np.prod(size))
            return super().random_raw(size, output)

    fine_ints = NoiseSource._fine_ints

    def recording(self, mode, k0, k1):
        if k1 > k0:
            counts["blocks"] += (k1 - 1) // 2048 - k0 // 2048 + 1
        return fine_ints(self, mode, k0, k1)

    monkeypatch.setattr(noise, "Philox", CountingPhilox)
    monkeypatch.setattr(NoiseSource, "_fine_ints", recording)
    return counts


class TestProducer:
    """Every request draws exactly the words it returns, plus at most three
    alignment words per block touched; nothing is drawn twice."""

    @pytest.mark.parametrize("k0, k1", [(5, 77), (2045, 2051), (1001, 6150),
                                        (6, 6), (4096, 4100), (0, 8192)])
    def test_ranges_equal_slices_of_whole_blocks(self, k0, k1):
        src = make_source(trajectory_id=3)
        blocks = np.concatenate([whole_block(src, 9, b) for b in range(4)])
        assert src.fine_increments(9, k0, k1).tolist() == blocks[k0:k1].tolist()

    @staticmethod
    def assert_budget(counts, used):
        assert used <= counts["words"] <= used + 3 * counts["blocks"]

    def test_temporal_study_draws_reference_increments_once(self, draws):
        # 640 reference steps, ladder strides 16, 8, 4 and 2
        run_temporal_study(
            basis=build_basis(8), drift=DriftSpec(0.5, -0.5, 1.0, -1.0),
            sigma=1.0, t_final=2.5, tau_ref=2.0**-8,
            tau_ladder=[2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
            initial="1/3", seed=1, n_trajectories=2)
        self.assert_budget(draws, 2 * 7 * 640)

    def test_spatial_study_draws_reference_increments_once(self, draws):
        run_spatial_study(
            drift=DriftSpec(0.5, -0.5, 1.0, -1.0), sigma=1.0, t_final=5.0,
            tau=2.0**-7, n_modes_ladder=[4, 8, 16], n_modes_ref=32,
            initial="1/3", seed=1, n_trajectories=2)
        self.assert_budget(draws, 2 * 31 * 640)

    def test_ensemble_draws_each_increment_once(self, draws):
        params = SchemeParams(build_basis(8), DriftSpec(0.5, -0.5, 1.0, -1.0), 0.04)
        sources = [NoiseSource(3, l, tau_fine=0.01, n_modes_max=7) for l in range(3)]
        run_ensemble(params, np.zeros(8), sources, 100)
        self.assert_budget(draws, 3 * 7 * 100 * 4)


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

    def test_ratio_must_be_positive_integer(self):
        src = make_source()
        with pytest.raises(ValueError, match="ratio"):
            src.coarse_increment(1, 0, 0)
        with pytest.raises(ValueError, match="ratio"):
            src.coarse_increment(1, 0, 1.5)

    def test_basis_wider_than_declared_modes(self):
        src = make_source(n_modes_max=4)
        with pytest.raises(ValueError, match="at most 4"):
            src.increment_field(build_basis(8), 0)
        with pytest.raises(ValueError, match="at most 4"):
            src.increment_matrix(build_basis(8), 0, 2)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
