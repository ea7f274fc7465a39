"""Tests for the convergence-study machinery and the ergodic driver.

The expensive statistical claims (rate bands over 100 trajectories) live in
the acceptance suite; here the machinery itself is pinned with exact and
near-exact oracles: synthetic geometric error sequences, the coincidence
E = 0 for identical runs, a hand-stepped one-step difference, and the
sigma = 0 collapse where Monte Carlo averaging must change nothing.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schsim import (DriftSpec, NoiseSource, SchemeParams, SpectralBasis,
                    TrajectoryBlowUpError, mean_square_error, pairwise_rates,
                    rate_regression, run_ergodic_study, run_spatial_study,
                    run_temporal_study)
from schsim import experiments
from schsim.experiments import _kappa_rows
from schsim.expressions import evaluate_expression
from schsim import integrator
from schsim.integrator import HorizonError, initial_state, step

WELL = DriftSpec(0.5, -0.5, 1.0, -1.0)
LINEAR = DriftSpec(0.0, 0.0, 1.0, 0.0, validation_mode=True)


class TestRateFitting:
    def test_pairwise_rates_of_geometric_sequence(self):
        assert pairwise_rates([4.0, 2.0, 1.0]) == [None, 1.0, 1.0]

    def test_pairwise_rates_mixed(self):
        rates = pairwise_rates([1.0, 0.5, 0.125])
        assert rates[0] is None
        assert rates[1] == pytest.approx(1.0)
        assert rates[2] == pytest.approx(2.0)

    def test_pairwise_rates_undefined_for_zero_errors(self):
        # a ladder row coinciding with the reference has error 0; the
        # touching pairs carry no finite rate
        assert pairwise_rates([1.0, 0.0, 0.5]) == [None, None, None]

    def test_pairwise_rates_reject_negative_errors(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pairwise_rates([1.0, -0.5])

    def test_regression_recovers_exact_order(self):
        # errors (1, 2^-0.375, 2^-0.75): a pure 3/8-order sequence
        taus = [0.25, 0.125, 0.0625]
        errors = [2.0 ** (-0.375 * k) for k in range(3)]
        assert rate_regression(taus, errors) == pytest.approx(0.375, rel=1e-12)

    def test_regression_on_spatial_parameter(self):
        ns = [8, 16, 32, 64]
        hs = [np.pi / n for n in ns]
        errors = [0.1 * h**2 for h in hs]
        assert rate_regression(hs, errors) == pytest.approx(2.0, rel=1e-12)

    def test_regression_insensitive_to_error_scale(self):
        taus = [0.2, 0.1, 0.05]
        errors = [t**1.5 for t in taus]
        a = rate_regression(taus, errors)
        b = rate_regression(taus, [1e6 * e for e in errors])
        assert a == pytest.approx(b, rel=1e-12)

    def test_regression_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            rate_regression([0.2, 0.1], [1.0, 0.5])

    def test_regression_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="equal length"):
            rate_regression([0.2, 0.1, 0.05], [1.0, 0.5])
        with pytest.raises(ValueError, match="positive"):
            rate_regression([0.2, 0.1, 0.05], [1.0, -0.5, 0.2])


class TestKappaRows:
    def test_matching_resolution_maps_boundaries_to_own_cells(self):
        # x_j = j h sits on the edge between cells j-1 and j; the half-open
        # snapping convention assigns it to cell j, and x = pi to the last
        np.testing.assert_array_equal(_kappa_rows(4, 4), [0, 1, 2, 3, 3])

    def test_refined_grid_indices(self):
        rows = _kappa_rows(8, 64)
        np.testing.assert_array_equal(rows, [0, 8, 16, 24, 32, 40, 48, 56, 63])

    def test_non_divisible_resolutions(self):
        # x_j = j pi/3 against an 8-cell grid: floor(8j/3) capped at 7
        np.testing.assert_array_equal(_kappa_rows(3, 8), [0, 2, 5, 7])

    def test_rows_are_nearest_midpoints(self):
        n_eval, n_grid = 5, 32
        rows = _kappa_rows(n_eval, n_grid)
        grid = SpectralBasis(n_grid).grid
        h = np.pi / n_grid
        x = np.arange(n_eval + 1) * np.pi / n_eval
        assert np.all(np.abs(grid[rows] - x) <= h / 2 + 1e-15)


class TestMeanSquareError:
    def run(self, params_c, params_r, u0, **kw):
        defaults = dict(seed=4, n_trajectories=2, t_final=0.125)
        defaults.update(kw)
        return mean_square_error(params_c, params_r, u0(params_c.basis),
                                 u0(params_r.basis), **defaults)

    def test_identical_runs_have_exactly_zero_error(self):
        """Same parameters, same seed: trajectories coincide bit for bit."""
        params = SchemeParams(SpectralBasis(8), WELL, 2.0**-5)
        u0 = lambda basis: np.cos(basis.grid) / 3 + 1 / 3
        assert self.run(params, params, u0) == 0.0

    def test_single_deterministic_step_matches_hand_computation(self):
        """L=1, sigma=0, one coarse step vs two fine steps, stepped by hand."""
        basis = SpectralBasis(4)
        params_c = SchemeParams(basis, LINEAR, 2.0**-4, 0.0)
        params_r = SchemeParams(basis, LINEAR, 2.0**-5, 0.0)
        u0 = np.cos(basis.grid)

        zero = np.zeros(4)
        coarse = step(params_c, initial_state(params_c, u0), zero)
        ref = initial_state(params_r, u0)
        for _ in range(2):
            ref = step(params_r, ref, zero)
        rows = _kappa_rows(4, 4)
        diff = basis.from_spectral(coarse.coeffs)[rows] \
            - basis.from_spectral(ref.coeffs)[rows]
        expected = np.sqrt(np.max(diff**2))

        got = mean_square_error(params_c, params_r, u0, u0, seed=0,
                                n_trajectories=1, t_final=2.0**-4)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_deterministic_error_is_independent_of_l(self):
        """With sigma = 0 every trajectory is the same path, so averaging
        over more of them changes nothing.

        Exactly equal for L >= 2, where all runs share the matrix-matrix
        advance kernel; L = 1 goes through the matrix-vector kernel and may
        sit an ulp or two away.
        """
        basis = SpectralBasis(8)
        params_c = SchemeParams(basis, WELL, 2.0**-4, 0.0)
        params_r = SchemeParams(basis, WELL, 2.0**-6, 0.0)
        u0 = lambda b: np.cos(b.grid) / 3 + 1 / 3
        e2 = self.run(params_c, params_r, u0, n_trajectories=2)
        assert e2 > 0
        assert self.run(params_c, params_r, u0, n_trajectories=4) == e2
        assert self.run(params_c, params_r, u0, n_trajectories=5) == e2
        assert self.run(params_c, params_r, u0,
                        n_trajectories=1) == pytest.approx(e2, rel=1e-12)

    def test_threaded_reduction_is_reproducible(self):
        """Any thread count, zero included, gives the one-thread errors bit
        for bit, for 5 trajectories and for 70."""
        params_c = SchemeParams(SpectralBasis(8), WELL, 2.0**-7)
        params_r = SchemeParams(SpectralBasis(32), WELL, 2.0**-7)
        u0 = lambda b: np.cos(b.grid) / 3 + 1 / 3
        for n_trajectories in (5, 70):
            kw = dict(seed=0, t_final=0.25, n_trajectories=n_trajectories)
            serial = self.run(params_c, params_r, u0, **kw)
            for threads in (0, 2, 3):
                assert self.run(params_c, params_r, u0, threads=threads, **kw) == serial

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blow_up_stops_at_first_noise_block(self, threads, monkeypatch):
        """A non-finite reference is reported with its trajectory, its level
        and the step at which it turned non-finite, found by rerunning the
        level after the first noise block, before the run goes on."""
        calls = []
        increment_matrix = NoiseSource.increment_matrix

        def counting(self, *args):
            calls.append(self.trajectory_id)
            return increment_matrix(self, *args)

        monkeypatch.setattr(NoiseSource, "increment_matrix", counting)
        basis = SpectralBasis(8)
        params_c = SchemeParams(basis, WELL, 2.0**-4, 0.0)
        params_r = SchemeParams(basis, WELL, 2.0**-6, 0.0)
        u0 = np.full(8, 1e160)
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            mean_square_error(params_c, params_r, u0, u0, seed=0,
                              n_trajectories=3, t_final=64.0, threads=threads)
        assert str(exc_info.value) == ("trajectory 0: non-finite state at step 1 "
                                       "(level tau=0.015625, n_modes=8)")
        assert exc_info.value.step_index == 1
        assert exc_info.value.trajectory_id == 0
        # one 512-step block of 4096 in lockstep, one in the reference's rerun
        assert sorted(calls) == [0, 0, 1, 1, 2, 2]

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_a_coarse_blow_up_names_its_level(self):
        """A coarse level that blows up while the reference stays finite is
        reported at its own step, with its tau."""
        basis = SpectralBasis(8)
        params_c = SchemeParams(basis, WELL, 2.0**-4, 0.0)
        params_r = SchemeParams(basis, WELL, 2.0**-6, 0.0)
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            mean_square_error(params_c, params_r, 1e110 * np.cos(basis.grid),
                              np.cos(basis.grid) / 3, seed=0, n_trajectories=2, t_final=1.0)
        assert str(exc_info.value) == ("trajectory 0: non-finite state at step 1 "
                                       "(level tau=0.0625, n_modes=8)")
        assert (exc_info.value.step_index, exc_info.value.trajectory_id) == (1, 0)

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("bad, values", [(700, [math.inf]), (64, [1.5e308] * 2)],
                             ids=["second-block", "last-step"])
    def test_a_later_blow_up_is_reported_where_it_starts(self, bad, values, monkeypatch):
        """A fault injected into trajectory 1's noise turns its reference
        non-finite at step ``bad``: at 700, in the second 512-step block, by
        an inf; at 64, the run's last step, by finite coefficients whose
        synthesis overflows, which the lockstep loop never computes.  Either
        is reported at that step, and the lockstep run draws only the blocks
        up to it before the reference's rerun draws them again."""
        calls = []
        increment_matrix = NoiseSource.increment_matrix

        def poisoned(self, basis, m0, m1, ratio=1, out=None):
            calls.append((self.trajectory_id, m0))
            out = increment_matrix(self, basis, m0, m1, ratio, out)
            if self.trajectory_id == 1 and m0 < bad <= m1:
                out[bad - 1 - m0, 1:1 + len(values)] = values
            return out

        monkeypatch.setattr(NoiseSource, "increment_matrix", poisoned)
        basis = SpectralBasis(8)
        params_c = SchemeParams(basis, WELL, 2.0**-8)
        params_r = SchemeParams(basis, WELL, 2.0**-10)
        u0 = np.cos(basis.grid) / 3
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            mean_square_error(params_c, params_r, u0, u0, seed=0, n_trajectories=2,
                              t_final=4.0 if bad == 700 else bad * 2.0**-10)
        assert str(exc_info.value) == (f"trajectory 1: non-finite state at step {bad} "
                                       f"(level tau={2.0**-10!r}, n_modes=8)")
        assert (exc_info.value.step_index, exc_info.value.trajectory_id) == (bad, 1)
        lockstep = [(l, m) for m in range(0, bad, 512) for l in (0, 1)]
        assert calls == lockstep + lockstep

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_a_blow_up_after_the_last_record_of_a_block_is_caught_there(self, monkeypatch):
        """An inf in trajectory 1's noise turns the reference non-finite at
        step 511, after the first block's last coarse record (step 510 at
        stride 3): no error row sees it, but the block-end check of the
        states does, so the second block is never drawn."""
        calls = []
        increment_matrix = NoiseSource.increment_matrix

        def poisoned(self, basis, m0, m1, ratio=1, out=None):
            calls.append((self.trajectory_id, m0))
            out = increment_matrix(self, basis, m0, m1, ratio, out)
            if self.trajectory_id == 1 and m0 < 511 <= m1:
                out[510 - m0, 1] = math.inf
            return out

        monkeypatch.setattr(NoiseSource, "increment_matrix", poisoned)
        basis = SpectralBasis(8)
        tau_ref = 2.0**-10
        u0 = np.cos(basis.grid) / 3
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            mean_square_error(SchemeParams(basis, WELL, 3 * tau_ref),
                              SchemeParams(basis, WELL, tau_ref), u0, u0, seed=0,
                              n_trajectories=2, t_final=1026 * tau_ref)
        assert str(exc_info.value) == ("trajectory 1: non-finite state at step 511 "
                                       "(level tau=0.0009765625, n_modes=8)")
        # one lockstep block, then the reference's rerun of it
        assert calls == [(0, 0), (1, 0), (0, 0), (1, 0)]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_difference_names_its_level_and_step(self, monkeypatch):
        """Noise of 1e160 injected into mode 5 of trajectory 1 at step 600,
        the last, leaves every state finite, but only the reference has that
        mode, so the n_modes = 2 level's squared difference overflows.  It
        is a ValueError naming that level and reference step, not a
        blow-up."""
        increment_matrix = NoiseSource.increment_matrix

        def poisoned(self, basis, m0, m1, ratio=1, out=None):
            out = increment_matrix(self, basis, m0, m1, ratio, out)
            if self.trajectory_id == 1 and m0 < 600 <= m1 and basis.n_modes > 5:
                out[599 - m0, 5] = 1e160
            return out

        monkeypatch.setattr(NoiseSource, "increment_matrix", poisoned)
        tau = 2.0**-10
        params_c = SchemeParams(SpectralBasis(2), WELL, tau)
        params_r = SchemeParams(SpectralBasis(8), WELL, tau)
        u0 = lambda basis: np.cos(basis.grid) / 3
        with pytest.raises(ValueError) as exc_info:
            mean_square_error(params_c, params_r, u0(params_c.basis), u0(params_r.basis),
                              seed=0, n_trajectories=2, t_final=600 * tau)
        assert str(exc_info.value) == (
            f"level tau={tau!r}, n_modes=2: non-finite error at reference step 600 "
            f"although every state is finite: a squared difference to the reference, "
            f"or its sum over trajectories, overflows")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_sum_over_trajectories_names_its_level(self):
        """Finite rows whose sum over three trajectories overflows raise a
        ValueError naming the first such level and its reference step."""
        with pytest.raises(ValueError) as exc_info:
            run_spatial_study(drift=WELL, sigma=4e154, tau=0.0625, t_final=0.0625,
                              n_modes_ladder=[2, 4, 8], n_modes_ref=8, initial="1/3",
                              seed=0, n_trajectories=3)
        assert str(exc_info.value) == (
            "level tau=0.0625, n_modes=2: non-finite error at reference step 1 although "
            "every state is finite: a squared difference to the reference, or its sum "
            "over trajectories, overflows")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_sum_is_raised_after_its_own_block(self, monkeypatch):
        """Noise of 2.5e154 injected into mode 5 of both trajectories at
        step 1 makes each trajectory's squared difference about 1.4e308,
        finite, and their sum infinite.  The linear drift keeps every state
        finite and mode 5 decays, so every later sum is finite.  The run is
        three noise blocks long, and the sum is raised after the first."""
        increment_matrix = NoiseSource.increment_matrix

        def poisoned(self, basis, m0, m1, ratio=1, out=None):
            out = increment_matrix(self, basis, m0, m1, ratio, out)
            if m0 == 0 and basis.n_modes > 5:
                out[0, 5] = 2.5e154
            return out

        blocks = []
        noise_blocks = experiments._noise_blocks

        def counted(*args):  # the lockstep loop's blocks, not the reruns'
            for m, block in noise_blocks(*args):
                blocks.append(m)
                yield m, block

        monkeypatch.setattr(NoiseSource, "increment_matrix", poisoned)
        monkeypatch.setattr(experiments, "_noise_blocks", counted)
        tau = 2.0**-10
        params_c = SchemeParams(SpectralBasis(2), LINEAR, tau)
        params_r = SchemeParams(SpectralBasis(8), LINEAR, tau)
        u0 = lambda basis: np.cos(basis.grid) / 3
        with pytest.raises(ValueError) as exc_info:
            mean_square_error(params_c, params_r, u0(params_c.basis), u0(params_r.basis),
                              seed=0, n_trajectories=2, t_final=1200 * tau)
        assert blocks == [0]
        assert str(exc_info.value).startswith(
            f"level tau={tau!r}, n_modes=2: non-finite error at reference step 1 ")

    def test_validation(self):
        basis8, basis16 = SpectralBasis(8), SpectralBasis(16)
        coarse = SchemeParams(basis16, WELL, 2.0**-4)
        ref = SchemeParams(basis8, WELL, 2.0**-5)
        with pytest.raises(ValueError, match="more modes than the reference"):
            mean_square_error(coarse, ref, np.zeros(16), np.zeros(8),
                              seed=0, n_trajectories=1, t_final=0.25)
        ref = SchemeParams(basis8, WELL, 0.3)
        coarse = SchemeParams(basis8, WELL, 0.5)
        with pytest.raises(ValueError, match="integer multiple"):
            mean_square_error(coarse, ref, np.zeros(8), np.zeros(8),
                              seed=0, n_trajectories=1, t_final=1.0)
        with pytest.raises(ValueError, match="n_trajectories"):
            mean_square_error(ref, ref, np.zeros(8), np.zeros(8),
                              seed=0, n_trajectories=0, t_final=0.6)


class TestTemporalStudy:
    def test_mini_study_structure(self):
        table = run_temporal_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
            tau_ref=2.0**-8, tau_ladder=[2.0**-3, 2.0**-4, 2.0**-5],
            initial="(1/3)*cos(x)+1/3", seed=1, n_trajectories=3)
        assert table.kind == "time"
        assert [row.tau for row in table.rows] == [2.0**-3, 2.0**-4, 2.0**-5]
        assert all(row.n_modes == 8 for row in table.rows)
        assert table.rows[0].pair_rate is None
        assert all(e > 0 for e in table.errors())
        assert math.isfinite(table.slope)
        assert table.wallclock_s > 0

    def test_deterministic_ladder_has_first_order_slope(self):
        """sigma = 0: plain exponential-Euler accuracy, order ~ 1 in tau."""
        table = run_temporal_study(
            basis=SpectralBasis(8), drift=WELL, sigma=0.0, t_final=0.25,
            tau_ref=2.0**-10, tau_ladder=[2.0**-4, 2.0**-5, 2.0**-6],
            initial="(1/3)*cos(x)+1/3", seed=0, n_trajectories=1)
        assert table.slope >= 0.9

    def test_degenerate_single_entry_ladder(self):
        """One ladder entry still yields its error row; no rates, NaN slope."""
        table = run_temporal_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
            tau_ref=2.0**-6, tau_ladder=[2.0**-3],
            initial="1/3", seed=1, n_trajectories=2)
        assert len(table.rows) == 1
        assert table.rows[0].pair_rate is None
        assert math.isnan(table.slope)

    def test_duplicate_ladder_entries_collapse(self):
        table = run_temporal_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
            tau_ref=2.0**-6, tau_ladder=[2.0**-3, 0.125, 2.0**-4],
            initial="1/3", seed=1, n_trajectories=2)
        assert len(table.rows) == 2

    def test_same_seed_reproduces_bitwise(self):
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
                  tau_ref=2.0**-7, tau_ladder=[2.0**-3, 2.0**-4],
                  initial="1/3", seed=6, n_trajectories=2)
        assert run_temporal_study(**kw).errors() == run_temporal_study(**kw).errors()

    def test_ladder_must_divide_reference(self):
        with pytest.raises(ValueError, match="integer multiple"):
            run_temporal_study(
                basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
                tau_ref=2.0**-6, tau_ladder=[0.1, 0.05],
                initial="1/3", seed=1, n_trajectories=1)

    def test_bit_exact_errors(self):
        """Pinned float-hex errors: noise refinement and the error reduction
        must not move a single bit (640 reference steps span two blocks)."""
        table = run_temporal_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=2.5,
            tau_ref=2.0**-8, tau_ladder=[2.0**-4, 2.0**-5, 2.0**-6, 2.0**-7],
            initial="(1/3)*cos(x)+1/3", seed=3, n_trajectories=3)
        assert [e.hex() for e in table.errors()] == [
            "0x1.692dce37ed543p-3", "0x1.e24c7dcab6d30p-4",
            "0x1.5f69cf1755d3bp-4", "0x1.9999371e24ea1p-5"]

    def test_coarse_steps_may_straddle_noise_blocks(self, monkeypatch):
        """Strides 3, 5 and 15 never align with the noise blocks; a coarse
        step split across blocks is carried over exactly, so one block, the
        default 512-step blocks and 7-step blocks give the same bits."""
        def errors(block_steps):
            monkeypatch.setattr(integrator, "_BLOCK_STEPS", block_steps)
            return run_temporal_study(
                basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=600 * 2.0**-10,
                tau_ref=2.0**-10, tau_ladder=[3 * 2.0**-10, 5 * 2.0**-10, 15 * 2.0**-10],
                initial="(1/3)*cos(x)+1/3", seed=4, n_trajectories=2).errors()

        whole = errors(600)
        assert errors(512) == whole
        assert errors(7) == whole

    def test_horizon_must_be_whole_steps(self):
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau_ref=2.0**-6,
                  initial="1/3", seed=1, n_trajectories=1)
        with pytest.raises(ValueError, match="t_final in steps of tau_ref"):
            run_temporal_study(t_final=0.25 + 2.0**-8, tau_ladder=[2.0**-3], **kw)
        with pytest.raises(ValueError, match="t_final in steps of the ladder tau"):
            run_temporal_study(t_final=2.0**-6 * 9, tau_ladder=[2.0**-3], **kw)
        for t_final in (math.inf, math.nan):
            with pytest.raises(HorizonError, match="t_final in steps of tau_ref") as exc_info:
                run_temporal_study(t_final=t_final, tau_ladder=[2.0**-3], **kw)
            assert exc_info.value.key == "t_final"

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_temporal_study(
                basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
                tau_ref=2.0**-6, tau_ladder=[],
                initial="1/3", seed=1, n_trajectories=1)


class TestSpatialStudy:
    def test_mini_study_structure(self):
        table = run_spatial_study(
            drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
            n_modes_ladder=[4, 8, 16], n_modes_ref=32,
            initial="(1/3)*cos(x)+1/3", seed=1, n_trajectories=3)
        assert table.kind == "space"
        assert [row.n_modes for row in table.rows] == [4, 8, 16]
        assert all(row.tau == 2.0**-7 for row in table.rows)
        assert all(e > 0 for e in table.errors())
        # coarse-to-fine errors should shrink on this well-resolved problem
        assert table.errors()[0] > table.errors()[-1]

    def test_identical_to_reference_row_is_zero(self):
        """A ladder entry at N = N_ref runs the very same discretization."""
        table = run_spatial_study(
            drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
            n_modes_ladder=[8, 16], n_modes_ref=16,
            initial="1/3", seed=2, n_trajectories=2)
        assert table.errors()[1] == 0.0
        assert table.rows[1].pair_rate is None
        assert math.isnan(table.slope)

    def test_bit_exact_errors(self):
        """Pinned float-hex errors, as for the temporal study."""
        table = run_spatial_study(
            drift=WELL, sigma=1.0, t_final=5.0, tau=2.0**-7,
            n_modes_ladder=[4, 8, 16], n_modes_ref=32,
            initial="(1/3)*cos(x)+1/3", seed=3, n_trajectories=3)
        assert [e.hex() for e in table.errors()] == [
            "0x1.a6381fff3d1c7p-2", "0x1.5c6cdfd6f39d8p-3", "0x1.c7a2d22d8d876p-5"]

    def test_live_noise_keeps_every_error_bit(self, monkeypatch):
        """At tau = 2^-12 the N_ref = 256 reference has 43 live modes and the
        N = 64 rung all 64, so each block draws their union, 64 modes.  The
        errors equal in hex those of a run whose blocks draw all 256."""
        widths = set()
        increment_matrix = NoiseSource.increment_matrix

        def recording(self, basis, m0, m1, ratio=1, out=None):
            widths.add(out.shape[1])
            return increment_matrix(self, basis, m0, m1, ratio, out)

        monkeypatch.setattr(NoiseSource, "increment_matrix", recording)
        study = dict(drift=WELL, sigma=1.0, t_final=0.25, tau=2.0**-12,
                     n_modes_ladder=[16, 64], n_modes_ref=256,
                     initial="(1/3)*cos(x)+1/3", seed=2, n_trajectories=3)
        live = run_spatial_study(**study)
        assert widths == {64}
        widths.clear()
        monkeypatch.setattr(SchemeParams, "live_modes",
                            property(lambda params: params.basis.n_modes))
        full = run_spatial_study(**study)
        assert widths == {256}
        assert [e.hex() for e in live.errors()] == [e.hex() for e in full.errors()]

    def test_ladder_may_not_exceed_reference(self):
        with pytest.raises(ValueError, match="must not exceed"):
            run_spatial_study(
                drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
                n_modes_ladder=[8, 64], n_modes_ref=32,
                initial="1/3", seed=1, n_trajectories=1)


class TestCoupledCore:
    """Both studies and ``mean_square_error`` share one core: a study's row
    is the one-rung error of its level, and every rule holds for all three."""

    INITIAL = "(1/3)*cos(x)+1/3"

    def one_rung(self, params, params_ref, **kw):
        u0 = lambda p: evaluate_expression(self.INITIAL, p.basis.grid)
        return mean_square_error(params, params_ref, u0(params), u0(params_ref), **kw)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(strides=st.sets(st.sampled_from([1, 2, 3, 4, 6, 8, 12]), min_size=1),
           n_modes=st.integers(2, 12), n_traj=st.sampled_from([1, 2, 3, 6]),
           seed=st.integers(0, 2**32))
    def test_temporal_rows_are_one_rung_errors(self, strides, n_modes, n_traj, seed):
        tau_ref = 2.0**-9
        basis = SpectralBasis(n_modes)
        kw = dict(seed=seed, n_trajectories=n_traj, t_final=48 * tau_ref)
        table = run_temporal_study(basis=basis, drift=WELL, sigma=1.0, tau_ref=tau_ref,
                                   tau_ladder=[s * tau_ref for s in strides],
                                   initial=self.INITIAL, **kw)
        params_ref = SchemeParams(basis, WELL, tau_ref)
        assert table.errors() == [
            self.one_rung(SchemeParams(basis, WELL, row.tau), params_ref, **kw)
            for row in table.rows]

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(data=st.data(), n_ref=st.integers(2, 48), n_traj=st.sampled_from([1, 2, 3, 6]),
           seed=st.integers(0, 2**32))
    def test_spatial_rows_are_one_rung_errors(self, data, n_ref, n_traj, seed):
        ns = data.draw(st.sets(st.integers(2, n_ref), min_size=1, max_size=4))
        tau = 2.0**-7
        kw = dict(seed=seed, n_trajectories=n_traj, t_final=16 * tau)
        table = run_spatial_study(drift=WELL, sigma=1.0, tau=tau, n_modes_ladder=ns,
                                  n_modes_ref=n_ref, initial=self.INITIAL, **kw)
        params_ref = SchemeParams(SpectralBasis(n_ref), WELL, tau)
        assert table.errors() == [
            self.one_rung(SchemeParams(SpectralBasis(row.n_modes), WELL, tau), params_ref, **kw)
            for row in table.rows]

    def test_studies_need_a_trajectory(self):
        with pytest.raises(ValueError, match="n_trajectories must be positive"):
            run_temporal_study(basis=SpectralBasis(8), drift=WELL, sigma=1.0, t_final=0.25,
                               tau_ref=2.0**-6, tau_ladder=[2.0**-3],
                               initial="1/3", seed=1, n_trajectories=0)
        with pytest.raises(ValueError, match="n_trajectories must be positive"):
            run_spatial_study(drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
                              n_modes_ladder=[4, 8], n_modes_ref=16,
                              initial="1/3", seed=1, n_trajectories=0)

    def test_mode_bound_is_checked_before_any_basis_is_built(self):
        """A dense basis at N = 4096 takes ~0.67 GB; the error must come first."""
        tracemalloc.start()
        try:
            with pytest.raises(HorizonError, match="must not exceed") as exc_info:
                run_spatial_study(drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
                                  n_modes_ladder=[8, 4096], n_modes_ref=16,
                                  initial="1/3", seed=1, n_trajectories=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc_info.value.key == "n_modes_ladder"
        assert peak < 50 * 2**20

    def test_memory_does_not_grow_with_the_horizon(self):
        """Each step's per-trajectory rows are summed as they are made, so
        four times the horizon adds about 8 B per step and level, not 8 B
        per step, level and trajectory (7 MB here)."""
        def peak(t_final):
            tracemalloc.start()
            try:
                run_spatial_study(drift=WELL, sigma=1.0, t_final=t_final, tau=2.0**-10,
                                  n_modes_ladder=[4, 8, 16], n_modes_ref=32,
                                  initial=self.INITIAL, seed=1, n_trajectories=200)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2.0) - peak(0.5) < 2**20

    @staticmethod
    def coupling_warnings(run) -> set[tuple[float, int]]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        found = [re.search(r"for tau=(\S+), n_modes=(\d+)", str(w.message))
                 for w in caught if "step-size coupling" in str(w.message)]
        return {(float(m[1]), int(m[2])) for m in found}

    def test_coupling_warning_names_each_violating_level(self):
        """tau^9 / h > 1 is reported for every ladder level and the reference
        that breaks it, and for no other."""
        temporal = lambda: run_temporal_study(
            basis=SpectralBasis(256), drift=WELL, sigma=1.0, t_final=3.75,
            tau_ref=0.125, tau_ladder=[0.75, 0.625, 0.25],
            initial="1/3", seed=1, n_trajectories=1)
        assert self.coupling_warnings(temporal) == {(0.75, 256), (0.625, 256)}
        spatial = lambda: run_spatial_study(
            drift=WELL, sigma=1.0, t_final=1.5, tau=0.75,
            n_modes_ladder=[8, 48], n_modes_ref=64,
            initial="1/3", seed=1, n_trajectories=1)
        assert self.coupling_warnings(spatial) == {(0.75, 48), (0.75, 64)}


class TestErgodicStudy:
    def test_constant_fixed_point_average_is_phi_of_initial(self):
        """sigma = 0 from u = -a1/(3 a0) = 1/3: a constant trajectory whose
        time average must equal phi evaluated at the initial field."""
        basis = SpectralBasis(8)
        res = run_ergodic_study(
            basis=basis, drift=WELL, sigma=0.0, tau=1e-2, t_final=0.5,
            initials=("1/3",), v_expr="exp(x)", alpha1=0.0, alpha2=2.0,
            estimator="single", seed=0)
        from schsim import TestFunctionSpec, phi_test
        spec = TestFunctionSpec.from_expression(basis, "exp(x)", 0.0, 2.0)
        expected = phi_test(basis, spec, np.full(8, 1 / 3))
        assert res.runs[0].estimate == pytest.approx(expected, rel=1e-12)

    def test_both_estimators_produce_labelled_runs(self):
        res = run_ergodic_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
            initials=("1/3", "1"), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
            estimator="both", n_trajectories=3, t_final_ensemble=0.1, seed=0)
        labels = [run.label for run in res.runs]
        assert labels == ["single[0]", "ensemble[0]", "single[1]", "ensemble[1]"]
        single = res.runs[0]
        assert single.n_samples == 31          # 30 steps + initial state
        ensemble = res.runs[1]
        assert ensemble.n_samples == 33        # (10 + 1) samples x 3 paths
        for run in res.runs:
            assert run.history[-1][1] == pytest.approx(run.estimate, rel=1e-12)

    def test_burn_in_discards_transient_samples(self):
        res = run_ergodic_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
            initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
            estimator="single", seed=0, burn_in=0.1)
        assert res.runs[0].n_samples == 21     # steps 10..30 inclusive
        assert res.runs[0].history[0][0] == pytest.approx(0.1)

    def test_burn_in_must_leave_a_sample(self):
        """The burn-in is checked against every horizon that runs; a burn-in
        equal to the horizon keeps exactly the final state."""
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
                  initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
                  n_trajectories=2, t_final_ensemble=0.05, seed=0)
        with pytest.raises(HorizonError, match="no samples") as exc_info:
            run_ergodic_study(estimator="both", burn_in=0.08, **kw)
        assert exc_info.value.key == "burn_in"
        with pytest.raises(HorizonError, match="no samples"):
            run_ergodic_study(estimator="single", burn_in=0.31, **kw)
        res = run_ergodic_study(estimator="single", burn_in=0.08, **kw)
        assert res.runs[0].n_samples == 23
        res = run_ergodic_study(estimator="ensemble", burn_in=0.05, **kw)
        assert res.runs[0].n_samples == 2
        assert len(res.runs[0].history) == 1

    def test_bit_exact_estimates_and_histories(self):
        """Pinned float-hex results of both estimators with a burn-in and a
        thinning that leaves the last sample off the recording cadence."""
        res = run_ergodic_study(
            basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.5,
            initials=("(1/3)*cos(x)+1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
            estimator="both", n_trajectories=3, t_final_ensemble=0.2, seed=3,
            burn_in=0.05, thinning=4)
        single, ensemble = res.runs
        assert (single.n_samples, ensemble.n_samples) == (46, 48)
        assert single.estimate.hex() == "-0x1.e3340153670c7p-2"
        assert ensemble.estimate.hex() == "-0x1.5a9bd459b1f9bp-1"
        assert [a.hex() for _, a in single.history] == [
            "-0x1.9d22c278723eap+0", "-0x1.7a2d58177a53dp+0", "-0x1.8241a1cdbc1e9p+0",
            "-0x1.6fba5db8828eap+0", "-0x1.61d2601147ee4p+0", "-0x1.75cf5f28385c8p+0",
            "-0x1.892ce434cac7dp+0", "-0x1.4f7ba3e3e4287p+0", "-0x1.d3267408a2b4ap-1",
            "-0x1.34f1b4aa4accap-1", "-0x1.7b8217b1786b4p-2", "-0x1.c59f987f6e15bp-2",
            "-0x1.e3340153670c7p-2"]
        assert [a.hex() for _, a in ensemble.history] == [
            "-0x1.7522728805884p+0", "-0x1.350c42b9f71c0p+0", "-0x1.0fc8fa4ac1b79p+0",
            "-0x1.99113dc465c43p-1", "-0x1.5a9bd459b1f9bp-1"]
        assert [round(t / 1e-2) for t, _ in single.history] == [
            5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 50]
        assert [round(t / 1e-2) for t, _ in ensemble.history] == [5, 9, 13, 17, 20]
        assert all(type(x) is float for run in res.runs
                   for x in (run.estimate, *(v for entry in run.history for v in entry)))

    def test_single_estimator_streams_are_reused_verbatim(self):
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  t_final=0.3, v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
                  estimator="single", seed=5)
        a = run_ergodic_study(initials=("1/3",), **kw)
        b = run_ergodic_study(initials=("1/3", "1"), **kw)
        assert a.runs[0].estimate == b.runs[0].estimate

    STUDY = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
                 initials=("1/3", "1"), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
                 estimator="both", n_trajectories=2, t_final_ensemble=0.1, seed=0)

    @staticmethod
    def poison(monkeypatch, value, steps: dict) -> list:
        """Put ``value`` into mode 1 of trajectory k's increment of step
        ``steps[k]``; returns the list of trajectory ids drawn from."""
        calls = []
        increment_matrix = NoiseSource.increment_matrix

        def poisoned(self, basis, m0, m1, ratio=1, out=None):
            calls.append(self.trajectory_id)
            out = increment_matrix(self, basis, m0, m1, ratio, out)
            bad = steps.get(self.trajectory_id)
            if bad is not None and m0 < bad <= m1:
                out[bad - 1 - m0, 1] = value
            return out

        monkeypatch.setattr(NoiseSource, "increment_matrix", poisoned)
        return calls

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("steps, named", [
        ({0: 9, 1: 5}, (1, 5)),
        ({0: 5, 1: 5}, (0, 5)),
        ({10_000: 1, 1: 20}, (1, 20)),
    ], ids=["earliest-step", "tie", "singles-first"])
    def test_a_single_blow_up_names_its_trajectory_and_step(self, steps, named, monkeypatch):
        """The single runs advance in lockstep, before any ensemble starts.
        Their first blow-up is raised at the earliest step of any of them,
        naming its trajectory and that trajectory's own step; of two failing
        at one step, the lower trajectory id.  An ensemble that would fail
        at step 1 (trajectory 10 000) is never run, nor drawn from."""
        calls = self.poison(monkeypatch, math.inf, steps)
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            run_ergodic_study(**self.STUDY)
        tid, bad = named
        assert str(exc_info.value) == f"trajectory {tid}: non-finite state at step {bad}"
        assert (exc_info.value.trajectory_id, exc_info.value.step_index) == named
        assert calls == [0, 1]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("poisoned, label", [
        ({1, 10_000}, "ensemble[0]"), ({1}, "single[1]"), ({0, 10_000}, "single[0]")])
    def test_a_non_finite_estimate_is_named_in_the_order_of_the_runs(self, poisoned, label,
                                                                      monkeypatch):
        """A noise increment of 1e10 at step 3 keeps every state finite but
        makes phi overflow at alpha2 = 1e300.  The estimates are checked in
        the order of ``runs``, single[0], ensemble[0], single[1], although
        every single run is done before the first ensemble starts."""
        self.poison(monkeypatch, 1e10, dict.fromkeys(poisoned, 3))
        with pytest.raises(ValueError, match=rf"^{re.escape(label)}: estimate -?inf is not "
                                             rf"finite: phi or its running sum overflows$"):
            run_ergodic_study(**{**self.STUDY, "alpha2": 1e300})

    def test_single_runs_share_the_batch_time(self):
        """A single run's ``wallclock_s`` is its lockstep batch's time over
        the number of initial conditions; an ensemble's is its own."""
        runs = run_ergodic_study(**self.STUDY).runs
        assert runs[0].wallclock_s == runs[2].wallclock_s > 0
        assert runs[1].wallclock_s > 0 and runs[3].wallclock_s > 0

    def test_validation(self):
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  t_final=0.3, v_expr="exp(x)", alpha1=1.0, alpha2=2.0, seed=0)
        with pytest.raises(ValueError, match="estimator"):
            run_ergodic_study(initials=("1/3",), estimator="median", **kw)
        with pytest.raises(ValueError, match="at least one initial"):
            run_ergodic_study(initials=(), estimator="single", **kw)

    def test_initials_beyond_the_ensemble_id_base_are_refused(self):
        """Single run i draws trajectory id i and ensemble ids start at
        10 000, so the 10 001st initial would reuse ensemble[0]'s noise."""
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  t_final=0.3, v_expr="exp(x)", alpha1=1.0, alpha2=2.0, seed=0)
        with pytest.raises(ValueError, match="at most 10000 initial conditions, got 10001"):
            run_ergodic_study(initials=("1/3",) * 10_001, **kw)

    def test_horizons_must_be_whole_steps(self):
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0, seed=0)
        with pytest.raises(ValueError, match="t_final in steps of tau"):
            run_ergodic_study(t_final=0.305, estimator="single", **kw)
        with pytest.raises(ValueError, match="t_final_ensemble in steps of tau"):
            run_ergodic_study(t_final=0.3, t_final_ensemble=0.105,
                              estimator="ensemble", n_trajectories=2, **kw)
        with pytest.raises(ValueError, match="burn_in in steps of tau"):
            run_ergodic_study(t_final=0.3, burn_in=0.015, estimator="single", **kw)

    @pytest.mark.parametrize("override, key", [
        ({"t_final": math.inf}, "t_final"),
        ({"t_final": math.nan}, "t_final"),
        ({"burn_in": math.inf}, "burn_in"),
        ({"t_final_ensemble": math.inf}, "t_final_ensemble"),
    ])
    def test_non_finite_horizons_name_their_key(self, override, key):
        """An infinite or NaN horizon or burn-in is a HorizonError naming its
        key, not an OverflowError or a bare ValueError from rounding it."""
        kw = dict(basis=SpectralBasis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
                  initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
                  estimator="both", n_trajectories=2, seed=0)
        with pytest.raises(HorizonError, match="must be a") as exc_info:
            run_ergodic_study(**{**kw, **override})
        assert exc_info.value.key == key


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
