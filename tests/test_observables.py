"""Tests for solution functionals, time averages and field expressions.

The centered pairing has one hand-computable anchor: with v = u = 1 it equals
pi (1 - alpha1), because <1, 1>_N = pi on any midpoint grid.  The squashing
phi = alpha2 g / (1 + (g/alpha2)^2) attains its extreme value alpha2^2/2
exactly at |g| = |alpha2|; those two facts pin the sign conventions.
"""

import numpy as np
import pytest

from schsim import (DriftSpec, NoiseSource, SchemeParams, SchemeState,
                    SpectralBasis, TestFunctionSpec, TimeAverageObserver,
                    evaluate_expression, g_functional, initial_state,
                    lyapunov_v, phi_test, run_trajectory,
                    state_from_coeffs, time_average_ensemble, time_average_single,
                    validate_expression)

WELL = DriftSpec(0.5, -0.5, 1.0, -1.0)


def make_spec(basis, expr="exp(x)", alpha1=1.0, alpha2=2.0):
    return TestFunctionSpec.from_expression(basis, expr, alpha1, alpha2)


class TestGFunctional:
    def test_unit_pairing_anchor(self):
        """g(1) with v = 1 equals pi (1 - alpha1); frozen by hand."""
        basis = SpectralBasis(32)
        ones = np.ones(32)
        for alpha1 in (0.0, 0.5, 1.0):
            spec = TestFunctionSpec(ones, alpha1, 2.0)
            assert g_functional(basis, spec, ones) == pytest.approx(
                np.pi * (1.0 - alpha1), rel=1e-13)

    def test_full_projection_kills_constants(self):
        """alpha1 = 1 makes the pairing blind to the conserved mean."""
        basis = SpectralBasis(16)
        spec = make_spec(basis, "exp(x)", alpha1=1.0)
        rng = np.random.default_rng(0)
        u = rng.standard_normal(16)
        base = g_functional(basis, spec, u)
        shifted = g_functional(basis, spec, u + 7.0)
        assert shifted == pytest.approx(base, abs=1e-12)
        assert abs(g_functional(basis, spec, np.full(16, 3.0))) < 1e-13

    def test_linear_in_u(self):
        basis = SpectralBasis(12)
        spec = make_spec(basis, "cos(x)", alpha1=0.3, alpha2=1.0)
        rng = np.random.default_rng(1)
        u, w = rng.standard_normal((2, 12))
        lhs = g_functional(basis, spec, 2.0 * u - 3.0 * w)
        rhs = 2.0 * g_functional(basis, spec, u) - 3.0 * g_functional(basis, spec, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)

    def test_stacks_evaluate_columnwise(self):
        basis = SpectralBasis(8)
        spec = make_spec(basis)
        stack = np.stack([np.ones(8), np.cos(basis.grid)], axis=1)
        got = g_functional(basis, spec, stack)
        assert got.shape == (2,)
        assert got[0] == pytest.approx(g_functional(basis, spec, stack[:, 0]),
                                       abs=1e-14)

    def test_profile_grid_mismatch_rejected(self):
        basis = SpectralBasis(8)
        spec = make_spec(SpectralBasis(16))
        with pytest.raises(ValueError, match="16 nodes but basis has 8"):
            g_functional(basis, spec, np.ones(8))


def reference_g(basis, spec, u):
    """The centered pairing as one expression, summing v on every call."""
    pairing = basis.h * (spec.v @ u)
    mean_part = (spec.alpha1 / np.pi) * (basis.h * spec.v.sum()) * (basis.h * u.sum(axis=0))
    return pairing - mean_part


class TestObserverOracle:
    @pytest.mark.parametrize("width", [None, 1, 2, 5, 50])
    @pytest.mark.parametrize("alpha1", [1.0, 0.3])
    def test_g_and_phi_match_reference_expression(self, alpha1, width):
        basis = SpectralBasis(16)
        spec = make_spec(basis, "exp(x)", alpha1=alpha1, alpha2=1.5)
        rng = np.random.default_rng(3)
        u = rng.standard_normal((16,) if width is None else (16, width))
        g = reference_g(basis, spec, u)
        assert np.asarray(g_functional(basis, spec, u)).tobytes() == np.asarray(g).tobytes()
        phi = spec.alpha2 * g / (1.0 + (g / spec.alpha2) ** 2)
        assert np.asarray(phi_test(basis, spec, u)).tobytes() == np.asarray(phi).tobytes()

    def test_profile_is_a_read_only_copy(self):
        """The cached sum of v cannot go stale: the spec owns a frozen copy."""
        basis = SpectralBasis(8)
        profile = np.cos(basis.grid)
        spec = TestFunctionSpec(profile, 1.0, 2.0)
        profile[:] = 5.0
        assert profile.flags.writeable and not spec.v.flags.writeable
        np.testing.assert_array_equal(spec.v, np.cos(basis.grid))
        with pytest.raises(ValueError, match="read-only"):
            spec.v[0] = 1.0


class TestPhiTest:
    def test_bound_is_sharp_at_g_equals_alpha2(self):
        """phi attains alpha2^2/2 exactly where g = alpha2."""
        basis = SpectralBasis(16)
        spec = make_spec(basis, "exp(x)", alpha1=0.0, alpha2=2.0)
        u = np.ones(16)
        scale = 2.0 / g_functional(basis, spec, u)
        assert phi_test(basis, spec, scale * u) == pytest.approx(2.0, rel=1e-13)

    def test_bound_holds_for_random_fields(self):
        basis = SpectralBasis(16)
        spec = make_spec(basis, "exp(x)", alpha1=0.5, alpha2=1.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            u = 10.0 * rng.standard_normal(16)
            assert abs(phi_test(basis, spec, u)) <= 1.5**2 / 2 + 1e-12

    def test_odd_in_u_with_full_projection(self):
        basis = SpectralBasis(16)
        spec = make_spec(basis, "exp(x)", alpha1=1.0, alpha2=2.0)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(16)
        assert phi_test(basis, spec, -u) == pytest.approx(
            -phi_test(basis, spec, u), rel=1e-13)

    def test_monotone_for_small_g(self):
        # phi is increasing in g on |g| < |alpha2|
        basis = SpectralBasis(8)
        spec = make_spec(basis, "exp(x)", alpha1=0.0, alpha2=5.0)
        values = [phi_test(basis, spec, t * np.ones(8)) for t in (0.0, 0.1, 0.2)]
        assert values[0] < values[1] < values[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("scale, alpha2", [
        (1e156, 2.0),      # (g/alpha2)^2 overflows: phi is a signed zero
        (1e300, 1e-150),   # g/alpha2 itself overflows
        (1e10, 1e300),     # alpha2 * g overflows: phi is infinite
        (1e300, 1e10),     # (g/alpha2)^2 and alpha2 * g overflow: phi is nan
    ])
    def test_overflowing_field_matches_its_one_column_stack(self, scale, alpha2):
        """phi of one field, whose arithmetic runs on Python floats, has the
        bits of phi of the (N, 1) stack, whose runs on numpy arrays, and
        raises nothing where a square overflows."""
        basis = SpectralBasis(8)
        spec = make_spec(basis, "exp(x)", alpha1=1.0, alpha2=alpha2)
        u = scale * np.cos(basis.grid)
        one, stack = phi_test(basis, spec, u), phi_test(basis, spec, u[:, None])
        assert stack.shape == (1,)
        assert float(one).hex() == float(stack[0]).hex()


class TestSpecValidation:
    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError, match="1-D"):
            TestFunctionSpec(np.ones((4, 2)), 1.0, 2.0)
        with pytest.raises(ValueError, match="non-finite"):
            TestFunctionSpec(np.array([1.0, np.nan]), 1.0, 2.0)

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError, match="alpha1"):
            TestFunctionSpec(np.ones(4), float("inf"), 2.0)
        with pytest.raises(ValueError, match="alpha2"):
            TestFunctionSpec(np.ones(4), 1.0, 0.0)
        # |phi| <= alpha2^2/2 must not underflow, or phi reads 0 for every state
        with pytest.raises(ValueError, match="alpha2"):
            TestFunctionSpec(np.ones(4), 1.0, 1e-320)
        assert TestFunctionSpec(np.ones(4), 1.0, 1e-150).alpha2 == 1e-150


class TestLyapunov:
    def test_constant_field_value(self):
        # coefficients (c sqrt(pi), 0, ...): V = pi c^2 + 1, frozen by hand
        basis = SpectralBasis(20)
        assert lyapunov_v(basis, np.full(20, 2.0)) == pytest.approx(
            4.0 * np.pi + 1.0, rel=1e-13)

    def test_single_mode_weighting(self):
        basis = SpectralBasis(12)
        u = 3.0 * basis.from_spectral(np.eye(12)[4])
        expected = 9.0 / basis.eigenvalues[4] + 1.0
        assert lyapunov_v(basis, u) == pytest.approx(expected, rel=1e-12)

    def test_lower_bound_and_stacks(self):
        basis = SpectralBasis(8)
        rng = np.random.default_rng(4)
        stack = rng.standard_normal((8, 5))
        values = lyapunov_v(basis, stack)
        assert values.shape == (5,)
        assert np.all(values >= 1.0)


class TestTimeAverageObserver:
    def make(self, n=8, tau=1e-2, **kw):
        params = SchemeParams(SpectralBasis(n), WELL, tau)
        spec = make_spec(params.basis)
        return params, TimeAverageObserver(params, spec, **kw)

    def test_counts_initial_state(self):
        params, obs = self.make()
        state = initial_state(params, np.ones(8))
        obs(0, state)
        assert obs.count == 1
        assert obs.history[0][0] == 0.0

    def test_burn_in_skips_early_states(self):
        params, obs = self.make(burn_in_steps=5)
        state = initial_state(params, np.ones(8))
        for m in range(10):
            obs(m, state)
        assert obs.count == 5  # samples at m = 5..9

    def test_record_every_thins_history_not_average(self):
        params, obs = self.make(record_every=4)
        state = initial_state(params, np.ones(8))
        for m in range(9):
            obs(m, state)
        obs.finalize()
        assert obs.count == 9
        assert [t for t, _ in obs.history] == pytest.approx(
            [0.0, 4 * params.tau, 8 * params.tau])

    def test_finalize_appends_missing_last_sample(self):
        params, obs = self.make(record_every=3)
        state = initial_state(params, np.ones(8))
        for m in range(5):
            obs(m, state)
        obs.finalize()
        assert obs.history[-1][0] == pytest.approx(4 * params.tau)

    def test_stack_sample_averages_each_column(self):
        """On an (N, L) stack the observer keeps one running average per
        column, equal to a separate observer per column; history holds their
        mean."""
        params, stacked = self.make(record_every=2)
        columns = [self.make(record_every=2)[1] for _ in range(3)]
        rng = np.random.default_rng(3)
        for m in range(5):
            coeffs = rng.standard_normal((8, 3))
            stacked(m, SchemeState(m, coeffs, params.basis.from_spectral(coeffs)))
            for k, obs in enumerate(columns):
                obs(m, state_from_coeffs(params, m, coeffs[:, k]))
        stacked.finalize()
        per_column = np.array([obs.average for obs in columns])
        np.testing.assert_allclose(stacked.average, per_column, rtol=1e-13)
        assert [t for t, _ in stacked.history] == pytest.approx([0.0, 0.02, 0.04])
        assert stacked.history[-1][1] == pytest.approx(np.mean(per_column), rel=1e-13)
        assert all(type(avg) is float for _, avg in stacked.history)

    def test_average_matches_numpy_mean(self):
        params, obs = self.make()
        rng = np.random.default_rng(5)
        nodal = rng.standard_normal((100, 8))
        for m, u in enumerate(nodal):
            obs(m, SchemeState(m, params.basis.to_spectral(u), u))
        samples = [phi_test(params.basis, obs.spec, u) for u in nodal]
        assert obs.average == pytest.approx(np.mean(samples), rel=1e-13)
        assert obs.count == 100

    def test_rows_keep_one_average_per_column(self):
        params, obs = self.make()
        stacks = [np.array([[1.0, 2.0]] * 8), np.array([[3.0, 6.0]] * 8)]
        for m, u in enumerate(stacks):
            obs(m, SchemeState(m, params.basis.to_spectral(u), u))
        first, second = (phi_test(params.basis, obs.spec, u) for u in stacks)
        np.testing.assert_array_equal(obs.average, (first + second) / 2)
        assert obs.average.shape == (2,)
        assert obs.count == 2

    def test_empty_average_raises(self):
        params, obs = self.make(burn_in_steps=3)
        obs(0, initial_state(params, np.ones(8)))
        assert obs.count == 0
        with pytest.raises(ValueError, match="no samples"):
            obs.average

    def test_validation(self):
        with pytest.raises(ValueError, match="burn_in_steps"):
            self.make(burn_in_steps=-1)
        with pytest.raises(ValueError, match="record_every"):
            self.make(record_every=0)


class TestTimeAverages:
    def test_single_of_stationary_run_is_phi_of_state(self):
        """sigma = 0 from the equilibrium u = 1: every sample is equal."""
        params = SchemeParams(SpectralBasis(8), WELL, 1e-2, 0.0)
        spec = make_spec(params.basis, alpha1=0.0, alpha2=3.0)
        state0 = initial_state(params, np.ones(8))
        source = NoiseSource(0, tau_fine=params.tau, n_modes_max=7)
        avg, history, final = time_average_single(params, state0, source, 50, spec)
        expected = phi_test(params.basis, spec, np.ones(8))
        assert avg == pytest.approx(expected, rel=1e-11)
        assert final.step_index == 50
        assert history[-1][0] == pytest.approx(50 * params.tau)

    def test_single_matches_direct_mean_of_samples(self):
        params = SchemeParams(SpectralBasis(8), WELL, 1e-2)
        spec = make_spec(params.basis)
        state0 = initial_state(params, np.cos(params.basis.grid))
        values = []

        def recorder(m, state):
            u = params.basis.from_spectral(state.coeffs)
            values.append(phi_test(params.basis, spec, u))

        src = NoiseSource(8, tau_fine=params.tau, n_modes_max=7)
        run_trajectory(params, initial_state(params, np.cos(params.basis.grid)),
                       src, 40, observers=(recorder,))
        src2 = NoiseSource(8, tau_fine=params.tau, n_modes_max=7)
        avg, _, _ = time_average_single(params, state0, src2, 40, spec)
        assert avg == pytest.approx(np.mean(values), rel=1e-12)

    def test_ensemble_grand_average_is_mean_of_per_trajectory(self):
        params = SchemeParams(SpectralBasis(8), WELL, 1e-2)
        spec = make_spec(params.basis)
        sources = [NoiseSource(9, l, tau_fine=params.tau, n_modes_max=7)
                   for l in range(4)]
        c0 = params.basis.to_spectral(np.full(8, 1 / 3))
        grand, per_traj, history, final = time_average_ensemble(
            params, c0, sources, 30, spec)
        assert per_traj.shape == (4,)
        assert grand == pytest.approx(np.mean(per_traj), rel=1e-14)
        assert final.shape == (8, 4)
        assert history[-1][0] == pytest.approx(30 * params.tau)

    def test_ensemble_burn_in_and_validation(self):
        params = SchemeParams(SpectralBasis(8), WELL, 1e-2)
        spec = make_spec(params.basis)
        sources = [NoiseSource(9, 0, tau_fine=params.tau, n_modes_max=7)]
        with pytest.raises(ValueError, match="burn_in_steps"):
            time_average_ensemble(params, np.zeros(8), sources, 5, spec,
                                  burn_in_steps=-2)
        grand, per_traj, _, _ = time_average_ensemble(
            params, np.zeros(8), sources, 10, spec, burn_in_steps=10)
        # only the final state survives the burn-in
        assert per_traj.shape == (1,)

    @pytest.mark.parametrize("form", ["lone", "lockstep", "ensemble"])
    def test_a_burn_in_past_the_last_state_draws_no_noise(self, form):
        """At N = 16, 5 000 steps and a burn-in of 6 000 steps no state is
        sampled: each estimator refuses the burn-in, naming it, before it
        draws a single increment."""
        params = SchemeParams(SpectralBasis(16), WELL, 1e-2)
        spec = make_spec(params.basis)
        drawn = []

        class Counting(NoiseSource):
            def increment_matrix(self, basis, m0, m1, ratio=1, out=None):
                drawn.append((m0, m1))
                return super().increment_matrix(basis, m0, m1, ratio, out)

        sources = [Counting(9, l, tau_fine=params.tau, n_modes_max=15) for l in range(2)]
        state = initial_state(params, np.cos(params.basis.grid) / 3 + 1 / 3)
        with pytest.raises(ValueError, match="burn_in_steps 6000 is past"):
            if form == "lone":
                time_average_single(params, state, sources[0], 5000, spec, 6000)
            elif form == "lockstep":
                time_average_single(params, [state, state], sources, 5000, spec, 6000)
            else:
                time_average_ensemble(params, state.coeffs, sources, 5000, spec, 6000)
        assert drawn == []

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_a_burn_in_at_the_last_state_keeps_one_sample(self, lockstep):
        """A run from step 3 over 5 steps ends at step 8: a burn-in of 8
        samples that state alone, and one of 9 is refused."""
        params = SchemeParams(SpectralBasis(8), WELL, 1e-2)
        spec = make_spec(params.basis)
        state = state_from_coeffs(params, 3, params.basis.to_spectral(np.full(8, 1 / 3)))

        def run(burn_in_steps):
            source = NoiseSource(9, 0, tau_fine=params.tau, n_modes_max=7)
            if lockstep:
                return time_average_single(params, [state], [source], 5, spec, burn_in_steps)[0]
            return time_average_single(params, state, source, 5, spec, burn_in_steps)

        average, history, final = run(8)
        assert history == [(8 * params.tau, average)]
        assert average == phi_test(params.basis, spec, final.nodal)
        with pytest.raises(ValueError, match="burn_in_steps 9 is past the run's last step 8"):
            run(9)


class TestLockstepSingles:
    """``time_average_single`` given R states and R sources advances them
    in lockstep as one column-major (N, R) stack.  Every trajectory must
    keep the bits of its own run: average, history, final coefficients and
    nodal values.  At mass 1 and tau = 2^-4 the tamer acts on every step
    (tau ||u||^12 > 1, checked below).  A tamer that far above 1 absorbs
    the last bits of its power, so these runs pass with numpy's array power
    in place of the per-trajectory scalar power; ``tests/test_integrator.py``
    ``TestRowStack::test_stacked_advance_is_each_rows_own`` catches that."""

    N_STEPS, BURN_IN, RECORD_EVERY = 1000, 5, 7  # 996 samples: the last is off the cadence

    @staticmethod
    def sources(params, rows):
        return [NoiseSource(4, 20 + r, tau_fine=params.tau, n_modes_max=params.basis.n_modes - 1)
                for r in range(rows)]

    @pytest.mark.parametrize("mean", [1 / 3, 1.0], ids=["mass-third", "mass-one"])
    @pytest.mark.parametrize("tau", [2.0**-4, 5e-3])
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_each_row_is_its_own_run(self, rows, n, tau, mean):
        params = SchemeParams(SpectralBasis(n), WELL, tau)
        spec = make_spec(params.basis)
        grid = params.basis.grid
        states = [initial_state(params, mean + np.cos((r + 1) * grid) / (r + 2))
                  for r in range(rows)]
        schedule = (self.N_STEPS, spec, self.BURN_IN, self.RECORD_EVERY)
        lockstep = time_average_single(params, states, self.sources(params, rows), *schedule)
        assert len(lockstep) == rows
        for state0, source, (average, history, final) in zip(
                states, self.sources(params, rows), lockstep):
            own_average, own_history, own_final = time_average_single(
                params, state0, source, *schedule)
            assert type(average) is float and average.hex() == own_average.hex()
            assert len(history) == 144 and history[-1][0] == self.N_STEPS * tau
            assert [(t.hex(), a.hex()) for t, a in history] == [
                (t.hex(), a.hex()) for t, a in own_history]
            assert final.step_index == own_final.step_index == self.N_STEPS
            assert final.coeffs.tobytes() == own_final.coeffs.tobytes()
            assert final.nodal.tobytes() == own_final.nodal.tobytes()
        if mean == 1.0 and tau == 2.0**-4:
            lam = params.basis.eigenvalues
            taming = []
            run_trajectory(params, states, self.sources(params, rows), self.N_STEPS,
                           observers=(lambda m, state: taming.append(
                               tau * np.sum((1.0 + lam[:, None]) * state.coeffs**2,
                                            axis=0)**6),))
            assert np.min(taming) > 1.0


class TestExpressions:
    def test_constant_fraction(self):
        x = np.array([0.0, 1.0, 2.0])
        np.testing.assert_allclose(evaluate_expression("1/3", x),
                                   np.full(3, 1 / 3), rtol=1e-15)

    def test_cosine_with_fractional_coefficient(self):
        x = np.linspace(0, np.pi, 7)
        got = evaluate_expression("(1/3)*cos(x)+1/3", x)
        np.testing.assert_allclose(got, np.cos(x) / 3 + 1 / 3, rtol=1e-14)

    def test_harmonic_and_sum(self):
        x = np.linspace(0, 3, 5)
        got = evaluate_expression("2*cos(2x) + cos(x) + 1/3", x)
        np.testing.assert_allclose(got, 2 * np.cos(2 * x) + np.cos(x) + 1 / 3,
                                   rtol=1e-14)

    def test_exponentials(self):
        x = np.array([0.0, 0.5])
        np.testing.assert_allclose(evaluate_expression("exp(x)", x), np.exp(x))
        np.testing.assert_allclose(evaluate_expression("exp(-x)", x), np.exp(-x))

    def test_leading_minus(self):
        x = np.array([0.2])
        np.testing.assert_allclose(evaluate_expression("-cos(x)+1", x),
                                   1 - np.cos(x), rtol=1e-14)

    def test_whitespace_ignored(self):
        """Blanks between tokens leave every value's bytes unchanged."""
        x = np.linspace(-1.0, 4.0, 9)
        for spaced, compact in [
            (" 1 / 3 + cos ( x ) ", "1/3+cos(x)"),
            ("\t- ( 2 / 3 ) * cos ( 2 * x )  + - exp ( - x ) - 1.5 exp ( x ) ",
             "-(2/3)*cos(2*x)+-exp(-x)-1.5exp(x)"),
            (" + * cos ( .5 x ) - ( 2. ) ", "+*cos(.5x)-(2.)"),
        ]:
            assert evaluate_expression(spaced, x).tobytes() == \
                evaluate_expression(compact, x).tobytes()

    @pytest.mark.parametrize("bad", [
        "", "   ", "import os", "u**2", "cos(x", "cos(y)", "exp(2x)",
        "1/0", "sin(x)", "cos(x))",
        # a blank separates tokens, it never joins one
        "1 2/3", "co s(x)", "e x p(x)", "2 . 5",
        # a coefficient, fraction or wavenumber that is not a finite float
        pytest.param("1" + "0" * 400, id="huge-coefficient"),
        pytest.param("1" + "0" * 400 + "*exp(x)", id="huge-exp-coefficient"),
        pytest.param("cos(1" + "0" * 400 + "x)", id="huge-wavenumber"),
        pytest.param("1" + "0" * 306 + "/0.001", id="huge-fraction"),
        pytest.param("1/1" + "0" * 400, id="huge-denominator"),
    ])
    def test_rejects_malformed_descriptors(self, bad):
        with pytest.raises(ValueError):
            validate_expression(bad)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
