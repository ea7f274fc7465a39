"""Tests for the convergence-study machinery and the ergodic driver.

The expensive statistical claims (rate bands over 100 trajectories) live in
the acceptance suite; here the machinery itself is pinned with exact and
near-exact oracles: synthetic geometric error sequences, the coincidence
E = 0 for identical runs, a hand-stepped one-step difference, and the
sigma = 0 collapse where Monte Carlo averaging must change nothing.
"""

import math

import numpy as np
import pytest

from schsim import (DriftSpec, NoiseSource, SchemeParams, TrajectoryBlowUpError,
                    build_basis, mean_square_error, pairwise_rates,
                    rate_regression, run_ergodic_study, run_spatial_study,
                    run_temporal_study)
from schsim.experiments import _kappa_rows
from schsim import integrator
from schsim.integrator import initial_state, step

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
        grid = build_basis(n_grid).grid
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
        params = SchemeParams(build_basis(8), WELL, 2.0**-5)
        u0 = lambda basis: np.cos(basis.grid) / 3 + 1 / 3
        assert self.run(params, params, u0) == 0.0

    def test_single_deterministic_step_matches_hand_computation(self):
        """L=1, sigma=0, one coarse step vs two fine steps, stepped by hand."""
        basis = build_basis(4)
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
        basis = build_basis(8)
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
        params_c = SchemeParams(build_basis(8), WELL, 2.0**-7)
        params_r = SchemeParams(build_basis(32), WELL, 2.0**-7)
        u0 = lambda b: np.cos(b.grid) / 3 + 1 / 3
        for n_trajectories in (5, 70):
            kw = dict(seed=0, t_final=0.25, n_trajectories=n_trajectories)
            serial = self.run(params_c, params_r, u0, **kw)
            for threads in (0, 2, 3):
                assert self.run(params_c, params_r, u0, threads=threads, **kw) == serial

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_blow_up_stops_at_first_noise_block(self, threads, monkeypatch):
        """A non-finite state is reported with its trajectory and the first
        reference step whose check saw it, before the run goes on."""
        calls = []
        increment_matrix = NoiseSource.increment_matrix

        def counting(self, *args):
            calls.append(self.trajectory_id)
            return increment_matrix(self, *args)

        monkeypatch.setattr(NoiseSource, "increment_matrix", counting)
        basis = build_basis(8)
        params_c = SchemeParams(basis, WELL, 2.0**-4, 0.0)
        params_r = SchemeParams(basis, WELL, 2.0**-6, 0.0)
        u0 = np.full(8, 1e160)
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            mean_square_error(params_c, params_r, u0, u0, seed=0,
                              n_trajectories=3, t_final=64.0, threads=threads)
        # the reference turns non-finite at step 1; the first check is step 4
        assert exc_info.value.step_index == 4
        assert exc_info.value.trajectory_id == 0
        assert sorted(calls) == [0, 1, 2]  # one 512-step block of 4096

    def test_validation(self):
        basis8, basis16 = build_basis(8), build_basis(16)
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
            basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
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
            basis=build_basis(8), drift=WELL, sigma=0.0, t_final=0.25,
            tau_ref=2.0**-10, tau_ladder=[2.0**-4, 2.0**-5, 2.0**-6],
            initial="(1/3)*cos(x)+1/3", seed=0, n_trajectories=1)
        assert table.slope >= 0.9

    def test_degenerate_single_entry_ladder(self):
        """One ladder entry still yields its error row; no rates, NaN slope."""
        table = run_temporal_study(
            basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
            tau_ref=2.0**-6, tau_ladder=[2.0**-3],
            initial="1/3", seed=1, n_trajectories=2)
        assert len(table.rows) == 1
        assert table.rows[0].pair_rate is None
        assert math.isnan(table.slope)

    def test_duplicate_ladder_entries_collapse(self):
        table = run_temporal_study(
            basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
            tau_ref=2.0**-6, tau_ladder=[2.0**-3, 0.125, 2.0**-4],
            initial="1/3", seed=1, n_trajectories=2)
        assert len(table.rows) == 2

    def test_same_seed_reproduces_bitwise(self):
        kw = dict(basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
                  tau_ref=2.0**-7, tau_ladder=[2.0**-3, 2.0**-4],
                  initial="1/3", seed=6, n_trajectories=2)
        assert run_temporal_study(**kw).errors() == run_temporal_study(**kw).errors()

    def test_ladder_must_divide_reference(self):
        with pytest.raises(ValueError, match="integer multiple"):
            run_temporal_study(
                basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
                tau_ref=2.0**-6, tau_ladder=[0.1, 0.05],
                initial="1/3", seed=1, n_trajectories=1)

    def test_bit_exact_errors(self):
        """Pinned float-hex errors: noise refinement and the error reduction
        must not move a single bit (640 reference steps span two blocks)."""
        table = run_temporal_study(
            basis=build_basis(8), drift=WELL, sigma=1.0, t_final=2.5,
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
                basis=build_basis(8), drift=WELL, sigma=1.0, t_final=600 * 2.0**-10,
                tau_ref=2.0**-10, tau_ladder=[3 * 2.0**-10, 5 * 2.0**-10, 15 * 2.0**-10],
                initial="(1/3)*cos(x)+1/3", seed=4, n_trajectories=2).errors()

        whole = errors(600)
        assert errors(512) == whole
        assert errors(7) == whole

    def test_horizon_must_be_whole_steps(self):
        kw = dict(basis=build_basis(8), drift=WELL, sigma=1.0, tau_ref=2.0**-6,
                  initial="1/3", seed=1, n_trajectories=1)
        with pytest.raises(ValueError, match="t_final in steps of tau_ref"):
            run_temporal_study(t_final=0.25 + 2.0**-8, tau_ladder=[2.0**-3], **kw)
        with pytest.raises(ValueError, match="t_final in steps of the ladder tau"):
            run_temporal_study(t_final=2.0**-6 * 9, tau_ladder=[2.0**-3], **kw)

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_temporal_study(
                basis=build_basis(8), drift=WELL, sigma=1.0, t_final=0.25,
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

    def test_ladder_may_not_exceed_reference(self):
        with pytest.raises(ValueError, match="must not exceed"):
            run_spatial_study(
                drift=WELL, sigma=1.0, t_final=0.125, tau=2.0**-7,
                n_modes_ladder=[8, 64], n_modes_ref=32,
                initial="1/3", seed=1, n_trajectories=1)


class TestErgodicStudy:
    def test_constant_fixed_point_average_is_phi_of_initial(self):
        """sigma = 0 from u = -a1/(3 a0) = 1/3: a constant trajectory whose
        time average must equal phi evaluated at the initial field."""
        basis = build_basis(8)
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
            basis=build_basis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
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
            basis=build_basis(8), drift=WELL, sigma=1.0, tau=1e-2, t_final=0.3,
            initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
            estimator="single", seed=0, burn_in=0.1)
        assert res.runs[0].n_samples == 21     # steps 10..30 inclusive
        assert res.runs[0].history[0][0] == pytest.approx(0.1)

    def test_single_estimator_streams_are_reused_verbatim(self):
        kw = dict(basis=build_basis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  t_final=0.3, v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
                  estimator="single", seed=5)
        a = run_ergodic_study(initials=("1/3",), **kw)
        b = run_ergodic_study(initials=("1/3", "1"), **kw)
        assert a.runs[0].estimate == b.runs[0].estimate

    def test_validation(self):
        kw = dict(basis=build_basis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  t_final=0.3, v_expr="exp(x)", alpha1=1.0, alpha2=2.0, seed=0)
        with pytest.raises(ValueError, match="estimator"):
            run_ergodic_study(initials=("1/3",), estimator="median", **kw)
        with pytest.raises(ValueError, match="at least one initial"):
            run_ergodic_study(initials=(), estimator="single", **kw)

    def test_horizons_must_be_whole_steps(self):
        kw = dict(basis=build_basis(8), drift=WELL, sigma=1.0, tau=1e-2,
                  initials=("1/3",), v_expr="exp(x)", alpha1=1.0, alpha2=2.0, seed=0)
        with pytest.raises(ValueError, match="t_final in steps of tau"):
            run_ergodic_study(t_final=0.305, estimator="single", **kw)
        with pytest.raises(ValueError, match="t_final_ensemble in steps of tau"):
            run_ergodic_study(t_final=0.3, t_final_ensemble=0.105,
                              estimator="ensemble", n_trajectories=2, **kw)
        with pytest.raises(ValueError, match="burn_in in steps of tau"):
            run_ergodic_study(t_final=0.3, burn_in=0.015, estimator="single", **kw)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
