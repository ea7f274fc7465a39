"""Tests for the tamed exponential-Euler step and trajectory drivers.

Oracles used here:
  * constants are fixed points of the deterministic scheme (the discrete
    Laplacian kills the drift's mean mode and mode 0 carries no noise);
  * for a linear drift the full update collapses to a per-mode scalar
    recursion that can be replayed independently;
  * mode 0 is copied verbatim every step, so mass conservation is exact,
    not approximate.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.random import Philox

from schsim import (DriftSpec, NoiseSource, SchemeParams, SchemeState, SpectralBasis,
                    TestFunctionSpec, TrajectoryBlowUpError, initial_state,
                    phi_test, read_checkpoint, run_ensemble, run_trajectory,
                    state_from_coeffs, step, time_average_ensemble, write_checkpoint)
from schsim import experiments, integrator, noise
from schsim.integrator import (HorizonError, _advance, _LevelStack, _noise_blocks,
                               _RowStack, whole_steps)
from schsim.observables import _RowAverages

# double-well drift used throughout: f(x) = x^3/2 - x^2/2 + x - 1
WELL = DriftSpec(0.5, -0.5, 1.0, -1.0)
ZERO = DriftSpec(0.0, validation_mode=True)


def make_params(n=16, tau=1e-2, sigma=1.0, drift=WELL):
    return SchemeParams(SpectralBasis(n), drift, tau, sigma)


def make_source(params, seed=3, trajectory_id=0):
    return NoiseSource(seed, trajectory_id, tau_fine=params.tau,
                       n_modes_max=params.basis.n_modes - 1)


class TestDriftSpec:
    def test_double_well_values(self):
        # hand-computed: f(1) = 0 (equilibrium), f(0) = -1
        assert WELL.evaluate(1.0) == 0.0
        assert WELL.evaluate(0.0) == -1.0

    def test_evaluate_elementwise(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_allclose(WELL.evaluate(x), [-3.0, -1.0, 3.0],
                                   rtol=1e-15)

    def test_derivative_matches_difference_quotient(self):
        h = 1e-6
        for x in (-2.0, 0.3, 1.7):
            fd = (WELL.evaluate(x + h) - WELL.evaluate(x - h)) / (2 * h)
            assert WELL.derivative(x) == pytest.approx(fd, rel=1e-8)

    def test_one_sided_lipschitz_of_double_well(self):
        # f'(x) = (3/2)(x - 1/3)^2 + 5/6 > 0, so max(-f') = -5/6: the drift
        # is monotone and sits well below the lambda_1 dissipativity margin
        assert WELL.one_sided_lipschitz() == pytest.approx(-5.0 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("a1, expected", [(0.0, 3.0), (100.0, 1411.0), (-100.0, 1411.0)])
    def test_one_sided_lipschitz_vertex_is_clamped(self, a1, expected):
        """-f' = -(3x^2 + 2 a1 x - 3) peaks at x = -a1/3: inside [-8, 8] for
        a1 = 0, and clamped to the end point -+8 for a1 = +-100."""
        assert DriftSpec(1.0, a1, -3.0).one_sided_lipschitz() == expected

    def test_one_sided_lipschitz_linear(self):
        spec = DriftSpec(0.0, 0.0, -2.0, 0.0, validation_mode=True)
        assert spec.one_sided_lipschitz() == pytest.approx(2.0, rel=1e-12)

    def test_rejects_negative_leading_coefficient(self):
        with pytest.raises(ValueError, match="a0 must be nonnegative"):
            DriftSpec(-1.0)

    def test_rejects_degenerate_cubic_without_validation_mode(self):
        with pytest.raises(ValueError, match="validation_mode"):
            DriftSpec(0.0, 0.0, 1.0)
        # allowed once flagged
        DriftSpec(0.0, 0.0, 1.0, validation_mode=True)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="finite"):
            DriftSpec(1.0, float("nan"))


class TestSchemeParams:
    def test_tau_range(self):
        basis = SpectralBasis(8)
        for bad in (0.0, -0.1, 1.0, float("nan")):
            with pytest.raises(ValueError, match="tau"):
                SchemeParams(basis, WELL, bad)

    def test_sigma_range(self):
        basis = SpectralBasis(8)
        with pytest.raises(ValueError, match="sigma"):
            SchemeParams(basis, WELL, 0.1, -1.0)

    def test_basis_type_checked(self):
        with pytest.raises(TypeError, match="SpectralBasis"):
            SchemeParams(None, WELL, 0.1)

    def test_semigroup_is_cached_and_frozen(self):
        params = make_params()
        factors = params.semigroup
        assert factors is params.semigroup
        assert factors[0] == 1.0
        assert not factors.flags.writeable

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(n=st.integers(2, 2048),
           taus=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                         min_size=1, max_size=20))
    @example(n=2048, taus=[2.0**-12, 5e-3, 1e-300, 0.999])
    @example(n=64, taus=[5e-3, 2.0**-12, 2.0**-6, 2.0**-7])
    @example(n=256, taus=[2.0**-12])
    def test_live_modes_are_the_nonzero_prefix(self, n, taus):
        """For every (N, tau) the config accepts, each mode before
        ``live_modes`` has a nonzero semigroup factor and each mode from it
        on a factor of exactly 0.0.  No factor is subnormal: the live modes
        are those whose exact factor is normal, and every live factor is
        the exact one."""
        basis = SpectralBasis(n)
        tiny = np.finfo(np.float64).tiny  # 2^-1022
        for tau in taus:
            params = SchemeParams(basis, WELL, tau)
            live = params.live_modes
            assert 1 <= live <= n
            assert (params.semigroup[:live] != 0.0).all()
            assert (params.semigroup[live:] == 0.0).all()
            assert not ((params.semigroup > 0.0) & (params.semigroup < tiny)).any()
            exact = basis.semigroup_factor(tau)
            assert live == np.flatnonzero(exact >= tiny)[-1] + 1
            assert params.semigroup[:live].tobytes() == exact[:live].tobytes()
        if n == 256:  # the closed form is not flushed: at the spatial
            # reference's shape mode 42's factor stays the exact subnormal
            assert basis.semigroup_factor(2.0**-12)[42].hex() == "0x0.0000002f7105cp-1022"

    def test_live_modes_of_the_workload_shapes(self):
        assert make_params(n=64, tau=5e-3).live_modes == 21
        # 42, not 43: mode 42's factor 2.46e-316 is subnormal, so it is flushed
        assert make_params(n=256, tau=2.0**-12).live_modes == 42
        assert make_params(n=64, tau=2.0**-12).live_modes == 64

    def test_dissipativity_warning(self):
        """A drift steeper than -lambda_1 only warns; it is not an error."""
        steep = DriftSpec(0.0, 0.0, -50.0, 0.0, validation_mode=True)
        with pytest.warns(RuntimeWarning,
                          match=r"dissipativity.*estimated on \[-8\.0, 8\.0\]"):
            SchemeParams(SpectralBasis(8), steep, 0.1)

    def test_no_warning_for_double_well(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_params()

    def test_step_constraint(self):
        assert make_params(n=64, tau=1e-2).step_constraint_satisfied()
        # tau^9 = 0.387 exceeds h = pi/64: the analysis coupling fails
        assert not make_params(n=64, tau=0.9).step_constraint_satisfied()


def reference_advance(params, coeffs, dw):
    """The step kernel as one expression, without precomputed constants."""
    basis = params.basis
    lam = basis.eigenvalues if coeffs.ndim == 1 else basis.eigenvalues[:, None]
    sem = basis.semigroup_factor(params.tau)
    sem = sem if coeffs.ndim == 1 else sem[:, None]
    a = params.drift
    u = basis.from_spectral(coeffs)
    drift_coeffs = basis.to_spectral(((a.a0 * u + a.a1) * u + a.a2) * u + a.a3)
    w12_sq = np.sum((1.0 + lam) * coeffs * coeffs, axis=0)
    denom = 1.0 + params.tau * w12_sq**6
    new = sem * (coeffs - params.tau * lam * (drift_coeffs / denom) + params.sigma * dw)
    new[0] = coeffs[0]
    return new


class TestKernelOracle:
    """``_advance`` and ``step`` equal the reference expression bit for bit."""

    # drift, sigma and whether the tamer dominates (tau ||u||^12 >> 1) or
    # barely acts, so that the drift term reaches the result's last bits
    CASES = {
        "cubic": (DriftSpec(1.5, 0.25, -0.75, 0.125), 1.0, False),
        "double well": (WELL, 0.7, False),
        "linear": (DriftSpec(0.0, 0.0, -0.5, 0.25, validation_mode=True), 1.0, False),
        "no noise": (WELL, 0.0, False),
        "tamed": (WELL, 1.0, True),
    }

    @pytest.mark.parametrize("width", [None, 1, 2, 5, 50])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_reference_expression(self, case, width):
        drift, sigma, tamed = self.CASES[case]
        params = make_params(n=16, tau=1e-2, sigma=sigma, drift=drift)
        lam = params.basis.eigenvalues[:, None]
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal((16, width or 1))
        coeffs *= 4.0 if tamed else 0.3 / (1.0 + lam)
        tamer = params.tau * np.sum((1.0 + lam) * coeffs**2, axis=0)**6
        assert np.all(tamer > 1e6) if tamed else np.all(tamer < 1e-2)
        dw = rng.standard_normal(coeffs.shape) * 0.1
        dw[0] = 0.0
        if width is None:
            coeffs, dw = coeffs[:, 0], dw[:, 0]
        expected = reference_advance(params, coeffs, dw)
        nodal = params.basis.from_spectral(coeffs)
        assert _advance(params, coeffs, dw, nodal).tobytes() == expected.tobytes()
        state = SchemeState(3, coeffs, nodal)
        assert step(params, state, dw).coeffs.tobytes() == expected.tobytes()

    def test_kernel_constants_are_read_only(self):
        """Every operand's constants are read-only and contiguous at the
        operand's shape in its memory order, C for a level and a level
        stack, column-major for the row stack, the tiles being its (N,)
        rows repeated; a width's tiles are built on its first lookup and
        kept, so an ``_advance`` at a known width builds none."""
        params, coarse = make_params(n=8), make_params(n=4)
        level_stack = _LevelStack([params, coarse])
        rows = params._kernel_constants[(8,)]
        columns = [row[:, None] for row in rows]
        stack_columns = [np.concatenate([row, coarse_row])[:, None]
                         for row, coarse_row in zip(rows, coarse._kernel_constants.rows)]
        lookups = [(params, (8,), rows, "C"), (params, (8, 1), columns, "C"),
                   (params, (8, 2), columns, "C"), (params, (8, 5), columns, "C"),
                   (level_stack, (12, 2), stack_columns, "C"),
                   (_RowStack(params, 3), (8, 3), columns, "F")]
        for operand, shape, tiles, order in lookups:
            constants = operand._kernel_constants[shape]
            assert operand._kernel_constants[shape] is constants
            for constant, tile in zip(constants, tiles, strict=True):
                assert constant.shape == shape and constant.flags[f"{order}_CONTIGUOUS"]
                assert not constant.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    constant[1] = 0.0
                assert constant.tobytes() == np.broadcast_to(tile, shape).tobytes()
        assert level_stack._mean_mask[(12, 2)][0].tobytes() == np.repeat(
            np.isin(np.arange(12), [0, 8])[:, None], 2, axis=1).tobytes()
        assert params._kernel_constants is params._kernel_constants
        tiles = dict(params._kernel_constants)
        coeffs = np.full((8, 2), 0.1)
        _advance(params, coeffs, np.zeros((8, 2)), params.basis.from_spectral(coeffs))
        assert all(params._kernel_constants[shape] is tiles[shape] for shape in tiles)
        assert params._kernel_constants.keys() == tiles.keys()


class TestLevelStack:
    """One ``_advance`` call on a level stack gives every level the bits of
    its own call.  The ladders repeat mode counts and hold a level equal to
    the reference (the first, widest level); the increments are a real
    noise block's rows, so from width 8 on they are source-major views."""

    LADDERS = {"repeated": [16, 8, 16, 4, 8, 2], "spatial": [64, 8, 16, 32, 64],
               "two": [5, 5]}

    def stack_and_inputs(self, ns, width, scale, seed=11):
        """Levels, their start coefficients and a step's increments; with
        ``scale=None`` each column is scaled to tau ||u||_w12^12 = 1, where
        the tamer's last bits, and so the w12 sums', reach the result."""
        levels = [make_params(n=n, tau=2.0**-8, sigma=0.7) for n in ns]
        rng = np.random.default_rng(seed)
        coeffs = [rng.standard_normal((n, width)) / (1.0 + p.basis.eigenvalues[:, None])
                  for n, p in zip(ns, levels)]
        for params, c in zip(levels, coeffs):
            w12_sq = np.sum((1.0 + params.basis.eigenvalues[:, None]) * c * c, axis=0)
            c *= scale if scale else (params.tau * w12_sq**6) ** (-1 / 12)
        sources = [make_source(levels[0], seed=seed, trajectory_id=l) for l in range(width)]
        _, block = next(_noise_blocks(levels[0].basis, sources, 1, 0, 1, ns[0]))
        return levels, coeffs, block[0]

    @staticmethod
    def advance_stacked(levels, coeffs, dw):
        stack = _LevelStack(levels)
        stacked = np.concatenate(coeffs)
        nodal = np.concatenate([p.basis.from_spectral(c) for p, c in zip(levels, coeffs)])
        new = _advance(stack, stacked, dw, nodal)
        return [new[rows] for rows in stack.rows]

    @staticmethod
    def advance_alone(params, coeffs, dw):
        n = params.basis.n_modes
        return _advance(params, coeffs, dw[:n], params.basis.from_spectral(coeffs))

    @pytest.mark.parametrize("width", [1, 2, 5, 50])
    @pytest.mark.parametrize("scale", [0.3, None, 40.0], ids=["plain", "critical", "tamed"])
    @pytest.mark.parametrize("ladder", sorted(LADDERS))
    def test_stacked_advance_is_each_levels_own(self, ladder, scale, width):
        ns = self.LADDERS[ladder]
        levels, coeffs, dw = self.stack_and_inputs(ns, width, scale)
        got = self.advance_stacked(levels, coeffs, dw)
        for params, c, new in zip(levels, coeffs, got):
            assert new.tobytes() == self.advance_alone(params, c, dw).tobytes()
        # a level equal to the reference, started from its state, gets its bits
        same = [k for k in range(1, len(ns)) if ns[k] == ns[0]][0]
        levels, coeffs, dw = self.stack_and_inputs(ns, width, scale)
        coeffs[same] = coeffs[0].copy()
        got = self.advance_stacked(levels, coeffs, dw)
        assert got[same].tobytes() == got[0].tobytes()

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
    def test_a_non_finite_level_leaves_the_others_bits(self, bad):
        """An inf, a NaN or a state whose drift overflows in one level turns
        only that level's rows non-finite."""
        ns = self.LADDERS["repeated"]
        levels, coeffs, dw = self.stack_and_inputs(ns, 5, 0.3)
        coeffs[3][2, 1] = bad
        got = self.advance_stacked(levels, coeffs, dw)
        for k, (params, c, new) in enumerate(zip(levels, coeffs, got)):
            if k == 3:
                assert not np.isfinite(new[:, 1]).all()
            else:
                assert new.tobytes() == self.advance_alone(params, c, dw).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_mean_rows_come_back_bit_for_bit(self, width):
        """The masked copy restores each level's mode-0 row from ``coeffs``
        with every bit, -0.0 and subnormal means included, whatever the
        update made of it, and leaves every other row as it was."""
        levels = [make_params(n=n, tau=2.0**-8, sigma=0.7) for n in (16, 8, 4)]
        stack = _LevelStack(levels)
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal((28, width))
        means = np.array([-0.0, 5e-324, -2.0**-1070, np.finfo(np.float64).tiny / 3, 1.0])
        for k, rows in enumerate(stack.rows):
            coeffs[rows.start] = np.resize(np.roll(means, k), width)
        new = rng.standard_normal((28, width))
        expected = new.copy()
        stack.keep_mean(new, coeffs)
        for rows in stack.rows:
            expected[rows.start] = coeffs[rows.start]
        assert new.tobytes() == expected.tobytes()
        assert any(np.signbit(new[0]) & (new[0] == 0.0))
        # through a whole step as well
        nodal = stack.synthesize(coeffs, np.empty_like(coeffs))
        dw = np.zeros((16, width))
        dw[1:] = rng.standard_normal((15, width))
        stepped = _advance(stack, coeffs, dw, nodal)
        for rows in stack.rows:
            assert stepped[rows.start].tobytes() == coeffs[rows.start].tobytes()

    @pytest.mark.parametrize("width", [1, 2, 5, 50])
    def test_gathered_noise_is_each_levels_scaled_increment(self, width):
        """The one gather and one multiply give level k sigma * dw[:N_k],
        bit for bit, from a real block's step (source-major from width 8
        on)."""
        ns = self.LADDERS["spatial"]
        levels, _, dw = self.stack_and_inputs(ns, width, 0.3)
        stack = _LevelStack(levels)
        out = np.empty((sum(ns), width))
        assert stack.scaled_noise(dw, out) is out
        for n, rows in zip(ns, stack.rows):
            assert out[rows].tobytes() == np.multiply(dw[:n], 0.7).tobytes()

    @pytest.mark.parametrize("width", [1, 2, 5, 50])
    def test_out_rows_of_a_stack_get_the_bits_of_a_new_array(self, width):
        """A synthesis into rows of a larger C-contiguous array gives the
        bits of the synthesis that allocates, and writes no other row."""
        stack = _LevelStack([make_params(n=n) for n in (16, 8, 4)])
        coeffs = np.random.default_rng(3).standard_normal((28, width))
        big = np.full((44, width), np.nan)
        got = stack.synthesize(coeffs, out=big[8:36])
        assert got.base is big
        assert big[8:36].tobytes() == stack.synthesize(coeffs).tobytes()
        assert np.isnan(big[:8]).all() and np.isnan(big[36:]).all()

    def test_stacked_levels_share_tau_drift_and_sigma(self):
        for other in (make_params(n=8, tau=2e-2), make_params(n=8, sigma=0.5),
                      make_params(n=8, drift=DriftSpec(1.0))):
            with pytest.raises(ValueError, match="share tau, drift and sigma"):
                _LevelStack([make_params(n=8), other])


class TestRowStack:
    """R single trajectories advanced as one column-major (N, R) stack, the
    transposed view of a C-ordered (R, N) buffer (the lockstep form of
    ``run_trajectory``); ``tests/test_observables.py``
    ``TestLockstepSingles`` checks that every trajectory keeps its own
    run's bits."""

    @staticmethod
    def column_major(x):
        """The (N, R) view of an (R, N) array's C-ordered copy."""
        return np.ascontiguousarray(x).T

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 300), rows=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_are_the_one_dimensional_sums(self, n, rows, seed):
        """The row stack's w12 sums and the ergodic observer's nodal sums
        come from one ``np.add.reduce`` over axis 1 of the (N, R) stack's
        (R, N) view ``.T``.  numpy sums each row of that C-ordered view
        pairwise, as it sums an (N,) vector, and this pins that.  The
        values span 16 decades, so another order would show."""
        rng = np.random.default_rng(seed)
        x = self.column_major(rng.standard_normal((rows, n))
                              * 10.0 ** rng.uniform(-8, 8, (rows, n)))
        for r, total in enumerate(np.add.reduce(x.T, axis=1)):
            assert total.tobytes() == np.add.reduce(x[:, r].copy(), axis=0).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 5, 500])
    @pytest.mark.parametrize("scale", [0.3, None, 40.0], ids=["plain", "active", "tamed"])
    @pytest.mark.parametrize("n", [8, 64])
    def test_stacked_advance_is_each_rows_own(self, n, scale, rows):
        """One ``_advance`` and one synthesis of a column-major (N, R) row
        stack give every column the bits of its own (N,) call, and the new
        stack stays column-major.  The increments are a real noise block's
        step, copied into a buffer of the stack's memory order as ``_run``
        copies it (from width 8 on the block is source-major).  With
        ``scale=None`` each column is scaled to a tau ||u||_w12^12 drawn
        from [2, 4), where a last-bit change of the w12 sum's power reaches
        the tamer and often the result: at 500 columns and N = 64, numpy's
        array power in place of the per-column scalar power changes 13
        columns.  A tamer near 1 or far above it hides such bits."""
        params = make_params(n=n, tau=2.0**-8, sigma=0.7)
        lam = params.basis.eigenvalues
        rng = np.random.default_rng(12)
        coeffs = self.column_major(rng.standard_normal((rows, n)) / (1.0 + lam))
        if scale is None:
            w12_sq = np.sum((1.0 + lam[:, None]) * coeffs * coeffs, axis=0)
            coeffs *= (params.tau * w12_sq**6 / rng.uniform(2.0, 4.0, rows)) ** (-1 / 12)
        else:
            coeffs *= scale
        sources = [make_source(params, seed=12, trajectory_id=r) for r in range(rows)]
        _, block = next(_noise_blocks(params.basis, sources, 1, 0, 1, n))
        dw = np.zeros_like(coeffs)
        np.copyto(dw, block[0])
        stack = _RowStack(params, rows)
        nodal = stack.synthesize(coeffs, np.empty_like(coeffs))
        new = _advance(stack, coeffs, dw, nodal)
        assert new.flags.f_contiguous and nodal.flags.f_contiguous
        for r in range(rows):
            own_nodal = params.basis.from_spectral(coeffs[:, r].copy())
            assert nodal[:, r].tobytes() == own_nodal.tobytes()
            own = _advance(params, coeffs[:, r].copy(), dw[:, r].copy(), own_nodal)
            assert new[:, r].tobytes() == own.tobytes()

    @pytest.mark.filterwarnings("ignore:.*encountered in:RuntimeWarning")
    def test_step_names_the_first_failing_row(self):
        """``step`` on a row stack checks the stack once; its ``column`` is
        the first column whose nodal values are not finite, and mode 0 of
        every column must carry no noise."""
        params = make_params(n=8, sigma=0.0)
        coeffs = self.column_major(np.zeros((4, 8)))
        coeffs[:, [1, 3]] = 1e160
        stack = _RowStack(params, 4)
        state = SchemeState(0, coeffs, stack.synthesize(coeffs, np.empty_like(coeffs)))
        with pytest.raises(TrajectoryBlowUpError) as exc_info:
            step(stack, state, self.column_major(np.zeros((4, 8))))
        assert (exc_info.value.step_index, exc_info.value.column) == (1, 1)
        dw = self.column_major(np.zeros((4, 8)))
        dw[0, 2] = 1e-300
        with pytest.raises(ValueError, match="mode 0 must be exactly zero"):
            step(stack, state, dw)

    def test_lockstep_runs_need_matching_states_and_sources(self):
        params = make_params(n=8)
        states = [initial_state(params, np.cos(params.basis.grid) * k) for k in range(3)]
        sources = [make_source(params, trajectory_id=k) for k in range(3)]
        with pytest.raises(ValueError, match="as many sources"):
            run_trajectory(params, states, sources[:2], 4)
        with pytest.raises(ValueError, match="as many sources"):
            run_trajectory(params, [], [], 4)
        later = run_trajectory(params, states[0], sources[0], 2)
        with pytest.raises(ValueError, match="at one step index"):
            run_trajectory(params, [later] + states[1:], sources, 4)
        stack = state_from_coeffs(params, 0, np.zeros((8, 2)))
        with pytest.raises(ValueError, match=r"\(8,\) states"):
            run_trajectory(params, [stack] + states[1:], sources, 4)

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_observers_see_the_row_stack(self, rows):
        """Observers of a lockstep run see (N, R) states, as an ensemble's
        do.  At N = 64, tau = 5e-3 (21 live modes), column r's coefficients
        and nodal values are, byte for byte, those that trajectory r's own
        (N,) run shows its observers, at every step, and each final state
        is a view of the last stack's column."""
        params = make_params(n=64, tau=5e-3)
        assert params.live_modes == 21
        grid = params.basis.grid
        states = [initial_state(params, np.cos((r + 1) * grid) / (r + 2) + 1 / 3)
                  for r in range(rows)]

        def sources():
            return [make_source(params, seed=2, trajectory_id=r) for r in range(rows)]

        seen = []
        finals = run_trajectory(params, states, sources(), 30,
                                observers=(lambda m, s: seen.append((m, s)),))
        assert [m for m, _ in seen] == list(range(31))
        assert all(s.coeffs.shape == s.nodal.shape == (64, rows) for _, s in seen)
        for r, (state, source, final) in enumerate(zip(states, sources(), finals)):
            own = []
            own_final = run_trajectory(params, state, source, 30,
                                       observers=(lambda m, s: own.append((m, s)),))
            assert len(own) == len(seen)
            for (m, stacked), (own_m, alone) in zip(seen, own):
                assert m == own_m
                assert stacked.coeffs[:, r].tobytes() == alone.coeffs.tobytes()
                assert stacked.nodal[:, r].tobytes() == alone.nodal.tobytes()
            assert type(final) is SchemeState and final.coeffs.shape == (64,)
            assert final.coeffs.tobytes() == own_final.coeffs.tobytes()
            assert np.shares_memory(final.coeffs, seen[-1][1].coeffs)
            assert np.shares_memory(final.nodal, seen[-1][1].nodal)


def with_specials(rng, shape):
    """Normal draws with -0.0, +0.0 and subnormals of both signs at random
    places."""
    x = rng.standard_normal(shape)
    specials = [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1070, -np.finfo(np.float64).tiny / 3]
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, min(flat.size, 12), replace=False)] = np.resize(
        specials, min(flat.size, 12))
    return x


class TestOperands:
    """Every ``_advance`` operand's ``analyze`` and ``synthesize`` give the
    bits of the checked ``SpectralBasis`` transforms, level by level and row
    by row, on inputs that hold -0.0 and subnormals."""

    @pytest.mark.parametrize("width", [None, 1, 2, 5, 50])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_a_level_transforms_as_its_basis_does(self, n, width):
        params = make_params(n=n)
        basis = params.basis
        shape = (n,) if width is None else (n, width)
        rng = np.random.default_rng(n)
        f, coeffs = with_specials(rng, shape), with_specials(rng, shape)
        assert params.analyze(f).tobytes() == basis.to_spectral(f).tobytes()
        assert params.synthesize(coeffs).tobytes() == basis.from_spectral(coeffs).tobytes()
        big = np.full((n + 16,) + shape[1:], np.nan)  # rows of a larger array
        assert params.synthesize(coeffs, out=big[8:n + 8]).base is big
        assert big[8:n + 8].tobytes() == basis.from_spectral(coeffs).tobytes()
        assert np.isnan(big[:8]).all() and np.isnan(big[n + 8:]).all()

    @pytest.mark.parametrize("width", [1, 2, 5, 50])
    @pytest.mark.parametrize("ns", [[256, 8, 16, 32, 64], [16, 8, 16, 4, 8, 2]])
    def test_a_level_stack_transforms_each_level_as_its_basis_does(self, ns, width):
        stack = _LevelStack([make_params(n=n) for n in ns])
        rng = np.random.default_rng(width)
        f, coeffs = with_specials(rng, (sum(ns), width)), with_specials(rng, (sum(ns), width))
        analyzed, synthesized = stack.analyze(f), stack.synthesize(coeffs)
        for basis, rows in zip(stack.bases, stack.rows):
            assert analyzed[rows].tobytes() == basis.to_spectral(f[rows]).tobytes()
            assert synthesized[rows].tobytes() == basis.from_spectral(coeffs[rows]).tobytes()

    @pytest.mark.parametrize("rows", [1, 2, 5])
    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_a_row_stack_transforms_each_row_as_its_basis_does(self, n, rows):
        params = make_params(n=n)
        stack = _RowStack(params, rows)
        rng = np.random.default_rng(rows)
        # column-major (N, R) views of C-ordered (R, N) draws
        f, coeffs = with_specials(rng, (rows, n)).T, with_specials(rng, (rows, n)).T
        analyzed, synthesized = stack.analyze(f), stack.synthesize(coeffs)
        for r in range(rows):
            assert analyzed[:, r].tobytes() == params.basis.to_spectral(f[:, r]).tobytes()
            assert (synthesized[:, r].tobytes()
                    == params.basis.from_spectral(coeffs[:, r]).tobytes())


class TestStates:
    def test_initial_state_records_mass(self):
        params = make_params(n=12)
        u0 = np.linspace(-1.0, 2.0, 12)
        state = initial_state(params, u0)
        assert state.step_index == 0
        assert state.coeffs[0] / math.sqrt(math.pi) == pytest.approx(u0.mean(), rel=1e-13)

    def test_initial_state_shape_checked(self):
        params = make_params(n=12)
        with pytest.raises(ValueError, match=r"shape \(12,\)"):
            initial_state(params, np.zeros(13))

    def test_initial_state_rejects_non_finite(self):
        params = make_params(n=4)
        with pytest.raises(ValueError, match="non-finite"):
            initial_state(params, np.array([0.0, np.inf, 0.0, 0.0]))

    def test_initial_state_rejects_an_overflowing_analysis(self):
        """1e307 at 64 points is finite, but its mode-0 sum is not: a
        ``ValueError``, with no numpy warning."""
        params = make_params(n=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows in the spectral transform"):
                initial_state(params, np.full(64, 1e307))
            assert np.isfinite(initial_state(params, np.full(64, 1e306)).coeffs).all()

    def test_state_from_coeffs_round_trip(self):
        params = make_params(n=6)
        state = initial_state(params, np.ones(6))
        clone = state_from_coeffs(params, state.step_index, state.coeffs)
        np.testing.assert_array_equal(clone.coeffs, state.coeffs)
        assert clone.coeffs[0] == state.coeffs[0]

    def test_state_rejects_negative_index(self):
        with pytest.raises(ValueError, match="nonnegative"):
            state_from_coeffs(make_params(n=4), -1, np.zeros(4))


class TestStep:
    def test_constant_states_are_deterministic_fixed_points(self):
        """With sigma = 0 any constant is (numerically) stationary.

        Mode 0 is copied bitwise; the oscillating modes only see transform
        round-off, which the semigroup then contracts.
        """
        params = make_params(n=16, sigma=0.0)
        state = initial_state(params, np.full(16, 0.7))
        c0 = state.coeffs[0]
        zero = np.zeros(16)
        for _ in range(1000):
            state = step(params, state, zero)
        assert state.coeffs[0] == c0
        assert np.max(np.abs(state.coeffs[1:])) < 1e-14
        np.testing.assert_allclose(params.basis.from_spectral(state.coeffs),
                                   np.full(16, 0.7), atol=1e-13)

    def test_mass_mode_is_copied_bitwise_under_noise(self):
        params = make_params(n=16, sigma=1.0)
        state = initial_state(params, np.linspace(0, 1, 16))
        c0 = state.coeffs[0]
        src = make_source(params)
        state = run_trajectory(params, state, src, 500)
        assert state.coeffs[0] == c0

    def test_linear_drift_matches_scalar_recursion(self):
        """Replay the update per mode with plain Python floats.

        For f(u) = a2 u the nodal drift evaluation is a2 * (C c) and its
        analysis is a2 c up to Gram round-off, so each mode follows
        c <- e^(-lam^2 tau) (c - tau lam a2 c / denom + sigma dw) with the
        shared taming denominator 1 + tau ||u||_w12^12.
        """
        a2 = 0.8
        drift = DriftSpec(0.0, 0.0, a2, 0.0, validation_mode=True)
        params = make_params(n=8, tau=5e-3, sigma=1.0, drift=drift)
        src = make_source(params, seed=11)
        lam = params.basis.eigenvalues
        sem = params.semigroup

        rng = np.random.default_rng(0)
        oracle = rng.standard_normal(8)
        oracle[0] = 0.4
        state = state_from_coeffs(params, 0, oracle.copy())
        n_steps = 400
        for m in range(n_steps):
            dw = src.increment_field(params.basis, m)
            w12_sq = float(np.sum((1.0 + lam) * oracle * oracle))
            denom = 1.0 + params.tau * w12_sq**6
            new = [sem[j] * (oracle[j] - params.tau * lam[j] * a2 * oracle[j] / denom
                             + params.sigma * dw[j])
                   for j in range(8)]
            new[0] = oracle[0]
            oracle = np.array(new)
            state = step(params, state, dw)
        assert np.max(np.abs(state.coeffs - oracle)) < 1e-12

    def test_noise_shape_must_match(self):
        params = make_params(n=8)
        state = initial_state(params, np.zeros(8))
        with pytest.raises(ValueError, match="does not match"):
            step(params, state, np.zeros(7))

    def test_noise_on_mean_mode_rejected(self):
        """Any mode-0 increment but +-0.0 is refused, NaN and subnormals
        included, for one trajectory, for a stack and for the column-major
        row stack of three trajectories, where the last one's is."""
        params = make_params(n=8)
        for operand, zeros in ((params, lambda: np.zeros(8)), (params, lambda: np.zeros((8, 3))),
                               (_RowStack(params, 3), lambda: np.zeros((3, 8)).T)):
            coeffs = zeros()
            state = SchemeState(0, coeffs, operand.synthesize(coeffs))
            for value in (math.nan, 5e-324, 1e-300):
                bad = zeros()
                bad[0] = value
                with pytest.raises(ValueError, match="mode 0 must be exactly zero"):
                    step(operand, state, bad)
                if bad.ndim == 2:
                    bad = zeros()
                    bad[0, -1] = value
                    with pytest.raises(ValueError, match="mode 0 must be exactly zero"):
                        step(operand, state, bad)
            zero = zeros()
            zero[0] = -0.0
            assert step(operand, state, zero).step_index == 1

    def test_overflow_raises_blow_up(self):
        params = make_params(n=8, sigma=0.0)
        state = state_from_coeffs(params, 0, np.full(8, 1e160))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrajectoryBlowUpError) as exc_info:
                step(params, state, np.zeros(8))
        assert exc_info.value.step_index == 1
        assert exc_info.value.column is None

    def test_stack_steps_every_column(self):
        """An (N, L) state advances all columns at once and keeps the (L,)
        mass row; a stack's mode-0 noise row must be zero too."""
        params = make_params(n=8)
        coeffs = np.stack([params.basis.to_spectral(np.cos(k * params.basis.grid) + k)
                           for k in range(3)], axis=1)
        state = SchemeState(4, coeffs, params.basis.from_spectral(coeffs))
        dw = np.random.default_rng(1).standard_normal((8, 3)) * 0.1
        dw[0] = 0.0
        new = step(params, state, dw)
        assert new.step_index == 5 and new.coeffs.shape == (8, 3)
        np.testing.assert_array_equal(new.coeffs[0], coeffs[0])
        for k in range(3):
            one = step(params, state_from_coeffs(params, 4, coeffs[:, k]), dw[:, k])
            np.testing.assert_allclose(new.coeffs[:, k], one.coeffs, rtol=0, atol=1e-13)
        dw[0, 2] = 1e-300
        with pytest.raises(ValueError, match="mode 0 must be exactly zero"):
            step(params, state, dw)

    def test_stack_overflow_names_the_column(self):
        params = make_params(n=8, sigma=0.0)
        coeffs = np.zeros((8, 3))
        coeffs[:, 1] = 1e160
        state = SchemeState(0, coeffs, params.basis.from_spectral(coeffs))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrajectoryBlowUpError) as exc_info:
                step(params, state, np.zeros((8, 3)))
        assert exc_info.value.step_index == 1
        assert exc_info.value.column == 1

    @pytest.mark.parametrize("values", [[math.inf], [math.nan], [math.inf, -math.inf]],
                             ids=["inf", "nan", "inf-inf"])
    @pytest.mark.parametrize("kind,width", [("vector", None), ("columns", 3), ("columns", 9),
                                            ("rows", 3)])
    def test_every_non_finite_kind_is_reported_where_it_starts(self, values, kind, width):
        """Noise holding inf, NaN, or +inf and -inf in one column turns the
        state non-finite at one step; the error names that step, the column
        and, from a run, the trajectory id, for one trajectory, an ensemble
        and the lockstep row stack.  Of two columns failing at the same
        step, the first is named."""
        params = make_params(n=8)
        bad, first = 4, (0 if width is None else 1)

        class Poisoned(NoiseSource):
            def increment_matrix(self, basis, m0, m1, ratio=1, out=None):
                out = super().increment_matrix(basis, m0, m1, ratio, out)
                if m0 <= bad < m1:
                    out[bad - m0, 1:1 + len(values)] = values
                return out

        sources = [(Poisoned if l in (first, (width or 1) - 1) else NoiseSource)(
                       3, 30 + l, tau_fine=params.tau, n_modes_max=7)
                   for l in range(width or 1)]
        u0 = np.cos(params.basis.grid)
        with pytest.raises(TrajectoryBlowUpError,
                           match=f"^trajectory {30 + first}: non-finite state at step 5$") as info:
            if kind == "vector":
                run_trajectory(params, initial_state(params, u0), sources[0], 8)
            elif kind == "columns":
                run_ensemble(params, params.basis.to_spectral(u0), sources, 8)
            else:
                run_trajectory(params, [initial_state(params, u0)] * width, sources, 8)
        assert (info.value.trajectory_id, info.value.step_index) == (30 + first, bad + 1)

        operand, state = params, initial_state(params, u0)
        dw = np.zeros(8)
        dw[1:1 + len(values)] = values
        if kind == "columns":
            state = state_from_coeffs(params, 0, np.tile(state.coeffs[:, None], width))
        elif kind == "rows":
            operand, coeffs = _RowStack(params, width), np.tile(state.coeffs, (width, 1)).T
            state = SchemeState(0, coeffs, operand.synthesize(coeffs))
        if width is not None:
            dw = np.zeros_like(state.coeffs)
            dw[1:1 + len(values), [first, width - 1]] = np.array(values)[:, None]
        with pytest.raises(TrajectoryBlowUpError, match="^non-finite state at step 1$") as info:
            step(operand, state, dw)
        assert (info.value.step_index, info.value.column) == (1, None if width is None else first)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("width", [None, 2])
    def test_a_finite_state_whose_sum_overflows_steps_silently(self, sign, width):
        """Modes 1 and 2 near 1e308: every value is finite, their sum is not.
        ``step`` raises nothing, warns nothing, and returns a frozen state
        carrying the nodal values of its coefficients."""
        params = make_params(n=8)
        coeffs = np.zeros(8)
        dw = np.zeros(8)
        dw[1:3] = sign * 1.1e308
        if width is not None:
            coeffs, dw = np.zeros((8, width)), np.column_stack([np.zeros(8), dw])
        state = state_from_coeffs(params, 6, coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            new = step(params, state, dw)
        assert np.isfinite(new.coeffs).all() and np.isfinite(new.nodal).all()
        with np.errstate(over="ignore"):
            assert new.coeffs.sum() == sign * math.inf
        assert type(new) is SchemeState and new.step_index == 7
        assert new.nodal.tobytes() == params.basis.from_spectral(new.coeffs).tobytes()
        with pytest.raises(AttributeError):
            new.step_index = 8

    def test_a_synthesis_overflow_is_raised_before_any_observer_sees_it(self):
        """Noise 1.5e308 in modes 1 and 2 leaves the coefficients finite, but
        their synthesis overflows: the run raises at step 1, and the
        observer sees only finite states."""
        params = make_params(n=8)

        class Huge(NoiseSource):
            def increment_matrix(self, basis, m0, m1, ratio=1, out=None):
                out = super().increment_matrix(basis, m0, m1, ratio, out)
                out[0, 1:3] = 1.5e308
                return out

        seen = []
        with np.errstate(over="ignore"):
            with pytest.raises(TrajectoryBlowUpError,
                               match="^trajectory 0: non-finite state at step 1$") as info:
                run_trajectory(params, initial_state(params, np.zeros(8)),
                               Huge(3, 0, tau_fine=params.tau, n_modes_max=7), 4,
                               observers=(lambda m, s: seen.append((m, s.nodal)),))
        assert info.value.step_index == 1
        assert [m for m, _ in seen] == [0]
        assert all(np.isfinite(u).all() for _, u in seen)


class TestNodalValues:
    """``step`` synthesizes each new state once and returns the nodal values
    with it; the next step and the observers read them instead of
    synthesizing again, with the same bits."""

    @staticmethod
    def stack(params, width):
        rng = np.random.default_rng(5)
        shape = (params.basis.n_modes,) if width is None else (params.basis.n_modes, width)
        coeffs = rng.standard_normal(shape) * 0.3
        dw = rng.standard_normal(shape) * 0.1
        dw[0] = 0.0
        return coeffs, dw

    @staticmethod
    def assert_carries_nodal(params, state):
        assert state.nodal.shape == state.coeffs.shape
        assert state.nodal.tobytes() == params.basis.from_spectral(state.coeffs).tobytes()

    def test_every_constructor_builds_the_nodal_values(self):
        """initial_state, state_from_coeffs and run_ensemble's stacked start
        build a state whose nodal values are from_spectral(coeffs); ``step``
        is checked below."""
        params = make_params(n=16)
        self.assert_carries_nodal(params, initial_state(params, np.cos(params.basis.grid)))
        self.assert_carries_nodal(params, state_from_coeffs(params, 4, self.stack(params, None)[0]))
        stacked = self.stack(params, 3)[0]
        sources = [make_source(params, trajectory_id=l) for l in range(3)]
        seen = []
        run_ensemble(params, stacked, sources, 2, observers=(lambda m, s: seen.append(s),))
        assert seen[0].coeffs.tobytes() == stacked.tobytes()
        for state in seen:
            self.assert_carries_nodal(params, state)

    def test_state_rejects_nodal_values_of_another_shape(self):
        coeffs = np.zeros((8, 3))
        SchemeState(0, coeffs, np.zeros((8, 3)))
        for nodal in (np.zeros(8), np.zeros((8, 2)), np.zeros((3, 8))):
            with pytest.raises(ValueError, match="do not match"):
                SchemeState(0, coeffs, nodal)
        with pytest.raises(ValueError, match="do not match"):  # a scalar where mass0 went
            SchemeState(0, np.zeros(8), 0.0)

    def test_state_from_coeffs_checks_the_mode_count(self):
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            state_from_coeffs(make_params(n=8), 0, np.zeros(7))
        with pytest.raises(ValueError, match=r"shape \(8,\) or \(8, L\)"):
            state_from_coeffs(make_params(n=8), 0, np.zeros((7, 2)))
        with pytest.raises(ValueError, match=r"shape \(8,\)"):
            state_from_coeffs(make_params(n=8), 0, np.zeros((8, 2, 1)))
        assert state_from_coeffs(make_params(n=8), 0, np.zeros((8, 2))).nodal.shape == (8, 2)

    def test_a_positional_observer_is_refused(self):
        params = make_params(n=8)
        with pytest.raises(TypeError):
            run_ensemble(params, np.zeros(8), [make_source(params)], 2, lambda m, s: None)

    @pytest.mark.parametrize("width", [None, 3])
    def test_step_returns_the_nodal_values_of_its_coefficients(self, width):
        params = make_params(n=16)
        coeffs, dw = self.stack(params, width)
        state = SchemeState(0, coeffs, params.basis.from_spectral(coeffs))
        new = step(params, state, dw)
        self.assert_carries_nodal(params, new)
        self.assert_carries_nodal(params, step(params, new, dw))

    @pytest.mark.parametrize("width", [None, 3])
    def test_advance_with_nodal_values_gives_the_same_bits(self, width):
        params = make_params(n=16)
        coeffs, dw = self.stack(params, width)
        nodal = params.basis.from_spectral(coeffs)
        kept = nodal.copy()
        with_nodal = _advance(params, coeffs, dw, nodal)
        assert with_nodal.tobytes() == reference_advance(params, coeffs, dw).tobytes()
        assert nodal.tobytes() == kept.tobytes()  # read, not modified

    def test_observers_see_the_nodal_values(self):
        params = make_params(n=8)
        seen = []

        def check(m, state):
            seen.append(m)
            assert state.nodal.tobytes() == params.basis.from_spectral(state.coeffs).tobytes()

        run_trajectory(params, initial_state(params, np.cos(params.basis.grid)),
                       make_source(params), 5, observers=(check,))
        sources = [make_source(params, trajectory_id=l) for l in range(2)]
        run_ensemble(params, np.zeros(8), sources, 5, observers=(check,))
        assert seen == list(range(6)) * 2


class TestNoiseBlocks:
    BASES = {}

    def test_blocks_are_one_buffer_filled_in_place(self):
        """Every block, the short last one included, is a view of one buffer
        whose slot l holds source l's increments bit for bit."""
        basis = SpectralBasis(8)
        sources = [NoiseSource(4, l, tau_fine=0.01, n_modes_max=7) for l in range(3)]
        blocks = []
        for m, block in _noise_blocks(basis, sources, 2, 100, 1300, 8):
            for l, src in enumerate(sources):
                expected = src.increment_matrix(basis, m, m + len(block), 2)
                assert block[:, :, l].tobytes() == expected.tobytes()
            blocks.append((m, len(block), block))
        assert [(m, steps) for m, steps, _ in blocks] == [(100, 512), (612, 512), (1124, 176)]
        assert all(np.shares_memory(block, blocks[0][2]) for _, _, block in blocks)

    def test_an_ensemble_holds_one_noise_block(self):
        """At N = 64, tau = 5e-3, L = 50 a block is 512 steps of the 21 live
        modes (4.3 MB); filling the next block into the same buffer keeps
        the traced peak near one block."""
        params = make_params(n=64, tau=5e-3)
        sources = [make_source(params, seed=2, trajectory_id=l) for l in range(50)]
        run_ensemble(params, np.zeros(64), sources, 2)  # warm up outside the trace
        block_bytes = 512 * params.live_modes * 50 * 8
        tracemalloc.start()
        try:
            run_ensemble(params, np.zeros(64), sources, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * block_bytes

    def test_an_ensemble_average_stays_below_a_full_width_block(self):
        """``time_average_ensemble`` at N = 64, tau = 5e-3, L = 50 over 600
        steps: a block of every mode would be 512 x 64 x 50 floats (13.1
        MB), the live-width block is 512 x 21 x 50 (4.3 MB), and the traced
        peak stays below the full-width block."""
        params = make_params(n=64, tau=5e-3)
        spec = TestFunctionSpec.from_expression(params.basis, "exp(x)", 1.0, 2.0)
        sources = [make_source(params, seed=2, trajectory_id=l) for l in range(50)]
        coeffs0 = initial_state(params, np.cos(params.basis.grid) / 3 + 1 / 3).coeffs
        time_average_ensemble(params, coeffs0, sources, 2, spec)  # warm up outside the trace
        tracemalloc.start()
        try:
            time_average_ensemble(params, coeffs0, sources, 600, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 64 * 50 * 8

    @pytest.mark.parametrize("ratio", [1, 4])
    @pytest.mark.parametrize("width", [1, 2, 7, 8, 50])
    def test_a_block_holds_the_live_modes_alone(self, monkeypatch, width, ratio):
        """At N = 64, tau = 5e-3 (21 live modes), with the float cap set to
        five steps of live floats, a block is five steps x 21 modes x L
        floats, stored source-major from L = 8 on, and equals the first 21
        columns of each source's full-width ``increment_matrix``, bit for
        bit.  The run starts at step 509, off a block boundary; at ratio 4
        its first block crosses a 2048-word Philox block."""
        params = make_params(n=64, tau=5e-3)
        basis, live = params.basis, params.live_modes
        assert live == 21
        monkeypatch.setattr(integrator, "_BLOCK_FLOATS", 6 * live * width - 1)
        sources = [make_source(params, seed=2, trajectory_id=l) for l in range(width)]
        seen = []
        for m, block in _noise_blocks(basis, sources, ratio, 509, 522, live):
            assert block.shape == (len(block), live, width)
            assert block.base.nbytes == 5 * live * width * 8
            assert block.strides[2] == (live if width >= 8 else 1) * 8
            for l, src in enumerate(sources):
                full = src.increment_matrix(basis, m, m + len(block), ratio)
                assert block[:, :, l].tobytes() == full[:, :live].tobytes()
            seen.append((m, len(block)))
        assert seen == [(509, 5), (514, 5), (519, 3)]

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(width=st.sampled_from([1, 2, 7, 8, 9, 50]), n=st.integers(2, 257),
           ratio=st.integers(2, 4), m0=st.integers(0, 1100), n_steps=st.integers(1, 700),
           live=st.integers(1, 257))
    @example(width=50, n=9, ratio=2, m0=1000, n_steps=600, live=9)  # a 512-step and a Philox block
    @example(width=7, n=2, ratio=4, m0=1020, n_steps=600, live=2)   # the same below width 8
    @example(width=8, n=257, ratio=3, m0=680, n_steps=20, live=257)  # 64-mode chunks
    @example(width=8, n=257, ratio=3, m0=680, n_steps=20, live=43)  # 43 live modes: one chunk
    @example(width=2, n=64, ratio=2, m0=0, n_steps=600, live=1)     # no mode drawn at all
    def test_storage_order_never_changes_a_bit(self, width, n, ratio, m0, n_steps, live):
        """Whatever the storage order the width picks, slot l of every block
        holds the first ``live`` columns of a fresh ``increment_matrix`` of
        source l and no other, and each source draws exactly its budget of
        Philox words: per live mode and block request, the words it returns
        plus the alignment words below its first one."""
        n_steps = min(n_steps, max(1, 600_000 // (width * n)))  # bounds the run time
        live = min(live, n)
        basis = self.BASES.setdefault(n, SpectralBasis(n))
        counted = []

        class CountingPhilox(Philox):
            def random_raw(self, size=None, output=True):
                words = super().random_raw(size, output)
                counted.append((self, np.size(words)))
                return words

        with mock.patch.object(noise, "Philox", CountingPhilox):
            sources = [NoiseSource(6, 40 + l, tau_fine=1e-3, n_modes_max=n - 1)
                       for l in range(width)]
        budget = 0
        for m, block in _noise_blocks(basis, sources, ratio, m0, m0 + n_steps, live):
            assert block.shape[1:] == (live, width)
            for l, src in enumerate(sources):
                fresh = NoiseSource(6, 40 + l, tau_fine=1e-3, n_modes_max=n - 1)
                full = fresh.increment_matrix(basis, m, m + len(block), ratio)
                assert block[:, :, l].tobytes() == full[:, :live].tobytes()
            budget += (live - 1) * (len(block) * ratio + m * ratio % 4)
        for src in sources:
            assert sum(size for gen, size in counted if gen is src._philox) == budget


class TestPaddedIncrements:
    """Each operand reads a step's increments from one buffer of its full
    height, whose live rows are copied from a live-width noise block and
    whose dead rows stay +0.0 (``integrator._run``,
    ``experiments._Group.advance``).  Its new coefficients equal, byte for
    byte, zero signs included, those from full-width increments with the
    dead modes set to +0.0, as a block of every mode whose dead rows are
    never drawn gives them.  A start has random dead coefficients (a first
    step) or -0.0 ones; under the zero drift a dead mode's bracket is then
    -0.0, so the sign of its increment's zero decides the new one's."""

    KINDS = [("vector", 1), ("columns", 2), ("columns", 8), ("rows", 2), ("rows", 8),
             ("levels", 2), ("levels", 8)]

    @staticmethod
    def start(params, width, negzero, rng):
        """(N, width) random coefficients, the dead modes' -0.0 with ``negzero``."""
        lam = params.basis.eigenvalues[:, None]
        coeffs = rng.standard_normal((params.basis.n_modes, width)) / (1.0 + lam) / 3
        if negzero:
            coeffs[params.live_modes:] = -0.0
        return coeffs

    @pytest.mark.parametrize("drift", [WELL, ZERO], ids=["well", "zero"])
    @pytest.mark.parametrize("negzero", [False, True], ids=["first", "negzero"])
    @pytest.mark.parametrize("kind,width", KINDS)
    def test_padded_noise_gives_the_zero_tailed_bytes(self, kind, width, negzero, drift):
        rng = np.random.default_rng(5)
        m = 7 if negzero else 0
        ns = (256, 8, 16, 32, 64) if kind == "levels" else (64,)  # the spatial ladder
        levels = [make_params(n=n, tau=2.0**-12 if kind == "levels" else 5e-3, drift=drift)
                  for n in ns]
        basis, live = levels[0].basis, max(params.live_modes for params in levels)
        assert live < basis.n_modes
        sources = [make_source(levels[0], seed=2, trajectory_id=l) for l in range(width)]
        full = np.zeros((basis.n_modes, width))
        for l, src in enumerate(sources):
            full[:live, l] = src.increment_matrix(basis, m, m + 1)[0, :live]
        coeffs = np.concatenate([self.start(params, width, negzero, rng) for params in levels])
        if kind == "levels":
            group = experiments._Group([experiments._Level(params, np.zeros(params.basis.n_modes))
                                        for params in levels], width, 1, live)
            group.state = coeffs
            expected = _advance(group.stack, coeffs, full, group.stack.synthesize(coeffs))
            _, block = next(_noise_blocks(basis, sources, 1, m, m + 1, live))
            incs, _ = group.increments(block, m)
            group.advance(incs[0])
            new = group.state
        else:
            params = levels[0]
            if kind == "rows":
                params, coeffs = _RowStack(params, width), np.asfortranarray(coeffs)
            elif kind == "vector":
                coeffs, full = coeffs[:, 0], full[:, 0]
            state = SchemeState(m, coeffs, params.synthesize(coeffs))
            expected = step(params, state, full).coeffs
            new = integrator._run(params, state, sources, 1, ()).coeffs
        assert new.tobytes() == expected.tobytes()


class TestLiveModes:
    """A run draws the live modes alone (``SchemeParams.live_modes``) and
    keeps the bits of a run fed every mode."""

    @pytest.mark.parametrize("width", [None, 8, 50])
    def test_live_noise_keeps_every_nodal_bit(self, width):
        """Over 2 000 steps at N = 64, tau = 5e-3 (21 live modes), every
        state of ``run_trajectory`` or ``run_ensemble`` equals that of
        ``step`` fed full ``increment_matrix`` rows: the nodal values byte
        for byte and the coefficients under ==, since the sign of a dead
        mode's zero may differ."""
        params = make_params(n=64, tau=5e-3)
        basis, n_steps = params.basis, 2000
        sources = [make_source(params, seed=2, trajectory_id=l) for l in range(width or 1)]

        def full_rows():
            for m0 in range(0, n_steps, 500):
                rows = np.stack([src.increment_matrix(basis, m0, m0 + 500)
                                 for src in sources], axis=-1)
                yield from (rows if width else rows[:, :, 0])

        state = initial_state(params, np.cos(basis.grid) / 3 + 1 / 3)
        if width:
            state = state_from_coeffs(params, 0, np.tile(state.coeffs[:, None], width))
        expected, rows = [state], full_rows()

        def check(m, state):
            if m:
                expected[0] = step(params, expected[0], next(rows))
            assert state.nodal.tobytes() == expected[0].nodal.tobytes()
            assert (state.coeffs == expected[0].coeffs).all()

        if width:
            run_ensemble(params, state.coeffs, sources, n_steps, observers=(check,))
        else:
            run_trajectory(params, state, sources[0], n_steps, observers=(check,))
        assert expected[0].step_index == n_steps

    def test_flushed_factors_keep_every_nodal_bit(self, exact_factors):
        """Over 300 steps at N = 256, tau = 2^-12, sigma = 1 (the spatial
        reference's shape), every state's nodal values equal, byte for
        byte, those of a run with the exact semigroup factors.  That run
        keeps mode 42's coefficient subnormal at every step; the flushed
        run has no subnormal coefficient."""
        tiny = np.finfo(np.float64).tiny

        def run(params):
            states = []
            u0 = np.cos(params.basis.grid) / 3 + 1 / 3
            run_trajectory(params, initial_state(params, u0), make_source(params, seed=2),
                           300, observers=(lambda m, state: states.append(state),))
            return ([state.nodal.tobytes() for state in states],
                    [np.flatnonzero((state.coeffs != 0.0) & (abs(state.coeffs) < tiny))
                     for state in states[1:]])

        flushed_nodal, flushed_subnormal = run(make_params(n=256, tau=2.0**-12))
        exact_factors()
        exact_nodal, exact_subnormal = run(make_params(n=256, tau=2.0**-12))
        assert len(exact_nodal) == 301
        assert flushed_nodal == exact_nodal
        assert all(len(modes) == 0 for modes in flushed_subnormal)
        assert all(modes.tolist() == [42] for modes in exact_subnormal)


class TestAcceptedInputs:
    """Invariants for every drift, tau and mode count the config accepts."""

    BASES = {}

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(n=st.integers(2, 40), tau=st.floats(1e-4, 0.999), sigma=st.floats(0.0, 4.0),
           drift=st.tuples(st.floats(0.0, 4.0), *[st.floats(-4.0, 4.0)] * 3),
           seed=st.integers(0, 2**64 - 1))
    def test_mass_is_exact(self, n, tau, sigma, drift, seed):
        basis = self.BASES.setdefault(n, SpectralBasis(n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # dissipativity margin
            params = SchemeParams(basis, DriftSpec(*drift, validation_mode=drift[0] == 0),
                                  tau, sigma)
        state = initial_state(params, np.cos(basis.grid) + 1 / 3)
        final = run_trajectory(params, state, make_source(params, seed), 6)
        assert final.coeffs[0] == state.coeffs[0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(k=st.integers(0, 10**5), base=st.floats(1e-6, 1.0),
           frac=st.floats(1e-6, 1 - 1e-6))
    def test_whole_steps_never_rounds(self, k, base, frac):
        assert whole_steps(k * base, base, "t", minimum=0, key="burn_in") == k
        with pytest.raises(HorizonError) as info:
            whole_steps((k + frac) * base, base, "t", minimum=0, key="burn_in")
        assert info.value.key == "burn_in"

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(2, 256), tau=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_a_single_trajectory_is_the_one_column_stack(self, n, tau, seed):
        """On these inputs the kernel, both transforms and phi give an (N,)
        vector exactly the bits of column 0 of the same (N, 1) stack.  That
        does not hold on every input.  The (N,) kernel takes the tamer's
        power on a numpy scalar and the stack's on an array, and the two
        differ on some sums: with tau ||u||_w12^12 drawn from [0.5, 8),
        where the tamer's last bits reach the result, 59 of 3 200 states
        (N from 8 to 256) gave another column; here the tamer is far above
        1 and absorbs them.  phi differs on 7 of 20 000 random N = 64
        states.  A single trajectory's bit-exact twin is the same (N, 1)
        column advanced by a one-trajectory ``_RowStack``, whose kernel and
        ``_RowAverages`` phi are checked here as well (``TestRowStack``
        checks the kernel at every scale)."""
        basis = self.BASES.setdefault(n, SpectralBasis(n))
        params = SchemeParams(basis, WELL, tau)
        spec = TestFunctionSpec.from_expression(basis, "exp(x)", 1.0, 2.0)
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(n)
        dw = rng.standard_normal(n) * math.sqrt(tau)
        dw[0] = 0.0
        nodal = basis.from_spectral(coeffs)
        column = basis.from_spectral(coeffs[:, None])
        assert nodal.tobytes() == column[:, 0].tobytes()
        assert (basis.to_spectral(nodal).tobytes()
                == basis.to_spectral(column)[:, 0].tobytes())
        assert (_advance(params, coeffs, dw, nodal).tobytes()
                == _advance(params, coeffs[:, None], dw[:, None], column)[:, 0].tobytes())
        assert phi_test(basis, spec, nodal) == phi_test(basis, spec, column)[0]
        row_stack = _RowStack(params, 1)
        row = row_stack.synthesize(coeffs[:, None], np.empty((n, 1)))
        assert row[:, 0].tobytes() == nodal.tobytes()
        assert (_advance(row_stack, coeffs[:, None], dw[:, None], row)[:, 0].tobytes()
                == _advance(params, coeffs, dw, nodal).tobytes())
        averages = _RowAverages(params, spec, 1)
        averages(0, SchemeState(0, coeffs[:, None], row))
        assert averages.total[0] == phi_test(basis, spec, nodal)

    def test_whole_steps_names_its_key(self):
        with pytest.raises(TypeError):
            whole_steps(1.0, 0.5, "t")
        with pytest.raises(HorizonError, match="positive integer multiple") as info:
            whole_steps(0.0, 0.5, "t_final in steps of tau", key="t_final")
        assert info.value.key == "t_final"

    @pytest.mark.parametrize("value, base", [
        (math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5), (1e308, 1e-10),
        (1.0, 0.0), (0.0, 0.0), (1.0, -0.5), (1.0, math.inf), (1.0, math.nan)])
    def test_whole_steps_refuses_what_it_cannot_count(self, value, base):
        """A non-finite value or quotient, or a step that is not finite and
        positive, is a HorizonError naming the key, never an OverflowError,
        a ZeroDivisionError or a bare ValueError."""
        for minimum in (0, 1):
            with pytest.raises(HorizonError, match="integer multiple") as info:
                whole_steps(value, base, "burn_in in steps of tau", minimum, key="burn_in")
            assert info.value.key == "burn_in"


class TestTrajectories:
    def test_zero_steps_returns_state_and_notifies_once(self):
        params = make_params(n=8)
        state = initial_state(params, np.zeros(8))
        seen = []
        out = run_trajectory(params, state, make_source(params), 0,
                             observers=(lambda m, s: seen.append(m),))
        assert out is state
        assert seen == [0]

    def test_observer_sees_every_step_once(self):
        params = make_params(n=8)
        state = initial_state(params, np.zeros(8))
        seen = []
        run_trajectory(params, state, make_source(params), 37,
                       observers=(lambda m, s: seen.append(m),))
        assert seen == list(range(38))

    def test_split_run_is_bitwise_identical(self):
        """60 + 40 steps equals 100 steps exactly: noise is addressed by
        step index, not by how many draws happened before."""
        params = make_params(n=16, tau=2e-2)
        u0 = np.cos(params.basis.grid)
        one_go = run_trajectory(params, initial_state(params, u0),
                                make_source(params, seed=9), 100)
        part = run_trajectory(params, initial_state(params, u0),
                              make_source(params, seed=9), 60)
        part = run_trajectory(params, part, make_source(params, seed=9), 40)
        assert part.step_index == one_go.step_index == 100
        np.testing.assert_array_equal(part.coeffs, one_go.coeffs)

    def test_negative_step_count_rejected(self):
        params = make_params(n=8)
        state = initial_state(params, np.zeros(8))
        with pytest.raises(ValueError, match="nonnegative"):
            run_trajectory(params, state, make_source(params), -1)

    def test_tau_must_be_multiple_of_tau_fine(self):
        params = make_params(n=8, tau=1e-2)
        src = NoiseSource(1, tau_fine=3e-3, n_modes_max=7)
        state = initial_state(params, np.zeros(8))
        with pytest.raises(ValueError, match="integer multiple"):
            run_trajectory(params, state, src, 1)

    def test_coarse_run_consumes_refined_noise(self):
        """Running at tau = 4 tau_fine must equal a run driven by the
        pre-aggregated coarse increments."""
        params = make_params(n=8, tau=4e-3)
        src = NoiseSource(5, tau_fine=1e-3, n_modes_max=7)
        state0 = initial_state(params, np.cos(params.basis.grid))
        out = run_trajectory(params, state0, src, 25)

        manual = state0
        for m in range(25):
            manual = step(params, manual, src.increment_field(params.basis, m, 4))
        np.testing.assert_array_equal(out.coeffs, manual.coeffs)

    def test_blow_up_reports_trajectory_id(self):
        params = make_params(n=8, sigma=0.0)
        state = state_from_coeffs(params, 0, np.full(8, 1e160))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrajectoryBlowUpError) as exc_info:
                run_trajectory(params, state, make_source(params, trajectory_id=7), 3)
        assert exc_info.value.trajectory_id == 7


class TestEnsemble:
    def test_matches_individual_trajectories(self):
        """Lockstep (N, L) advance vs one-at-a-time runs.

        Matrix and vector BLAS kernels may round differently, so the match
        is close, not bitwise.
        """
        params = make_params(n=16, tau=1e-2)
        sources = [make_source(params, seed=2, trajectory_id=l) for l in range(3)]
        u0 = np.cos(2 * params.basis.grid)
        final = run_ensemble(params, params.basis.to_spectral(u0), sources, 200)
        assert final.shape == (16, 3)
        for l, src in enumerate(sources):
            single = run_trajectory(params, initial_state(params, u0), src, 200)
            np.testing.assert_allclose(final[:, l], single.coeffs,
                                       rtol=0, atol=1e-12)

    def test_distinct_columns_for_distinct_trajectories(self):
        params = make_params(n=8)
        sources = [make_source(params, trajectory_id=l) for l in range(2)]
        final = run_ensemble(params, np.zeros(8), sources, 10)
        assert not np.array_equal(final[:, 0], final[:, 1])

    def test_observer_called_on_initial_and_each_step(self):
        params = make_params(n=8)
        sources = [make_source(params)]
        seen = []
        run_ensemble(params, np.zeros(8), sources, 5,
                     observers=(lambda m, s: seen.append((m, s.coeffs.shape)),))
        assert seen == [(m, (8, 1)) for m in range(6)]

    def test_start_index_offsets_noise(self):
        # running steps 10..20 directly equals the tail of a 0..20 run
        params = make_params(n=8)
        src = make_source(params, seed=13)
        full = run_ensemble(params, np.zeros(8), [src], 20)
        head = run_ensemble(params, np.zeros(8), [src], 10)
        tail = run_ensemble(params, head, [src], 10, start_index=10)
        np.testing.assert_array_equal(tail, full)

    def test_blow_up_reports_trajectory_id_and_step(self):
        """One 1e160 column among finite ones: the error names that column's
        trajectory id and the step at which it turned non-finite."""
        params = make_params(n=8, sigma=0.0)
        sources = [make_source(params, trajectory_id=20 + l) for l in range(4)]
        coeffs0 = np.zeros((8, 4))
        coeffs0[:, 2] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrajectoryBlowUpError, match="trajectory 22: .* step 6") as exc_info:
                run_ensemble(params, coeffs0, sources, 3, start_index=5)
        assert exc_info.value.trajectory_id == 22
        assert exc_info.value.step_index == 6

    @pytest.mark.parametrize("width", [None, 3])
    def test_non_finite_start_is_refused_before_any_step(self, width):
        """A non-finite start is a ValueError, as for a single trajectory,
        not a blow-up at step 1; no observer sees it."""
        params = make_params(n=8)
        sources = [make_source(params, trajectory_id=l) for l in range(3)]
        coeffs0 = np.zeros(8) if width is None else np.zeros((8, width))
        coeffs0[1] = np.nan
        seen = []
        with pytest.raises(ValueError, match="non-finite"):
            run_ensemble(params, coeffs0, sources, 5, observers=(lambda m, s: seen.append(m),))
        assert seen == []

    def test_requires_sources(self):
        params = make_params(n=8)
        with pytest.raises(ValueError, match="at least one"):
            run_ensemble(params, np.zeros(8), [], 1)

    def test_requires_matching_tau_fine(self):
        params = make_params(n=8, tau=2e-2)
        a = NoiseSource(1, 0, tau_fine=2e-2, n_modes_max=7)
        b = NoiseSource(1, 1, tau_fine=1e-2, n_modes_max=7)
        with pytest.raises(ValueError, match="share tau_fine"):
            run_ensemble(params, np.zeros(8), [a, b], 1)

    def test_shape_validation(self):
        params = make_params(n=8)
        sources = [make_source(params)]
        with pytest.raises(ValueError, match="shape"):
            run_ensemble(params, np.zeros((8, 2)), sources, 1)


class TestCheckpointResume:
    def test_resume_is_bitwise_identical(self, tmp_path):
        """Interrupt at step 40, checkpoint to text, reload, finish: the
        final coefficients equal the uninterrupted run's exactly."""
        params = make_params(n=16, tau=1e-2)
        src = make_source(params, seed=21, trajectory_id=4)
        u0 = np.cos(params.basis.grid) / 3 + 1 / 3

        full = run_trajectory(params, initial_state(params, u0), src, 100)

        mid = run_trajectory(params, initial_state(params, u0), src, 40)
        path = tmp_path / "run.ckpt"
        write_checkpoint(path, params, mid, src)
        params2, src2, state2 = read_checkpoint(path).rebuild()
        assert state2.step_index == 40
        resumed = run_trajectory(params2, state2, src2, 60)
        np.testing.assert_array_equal(resumed.coeffs, full.coeffs)

    def test_checkpoint_preserves_every_field(self, tmp_path):
        params = make_params(n=8, tau=2e-2, sigma=0.5)
        src = NoiseSource(77, 3, tau_fine=1e-2, n_modes_max=7)
        state = state_from_coeffs(params, 12, np.linspace(-1, 1, 8))
        path = tmp_path / "fields.ckpt"
        write_checkpoint(path, params, state, src)
        data = read_checkpoint(path)
        assert data.n_modes == 8
        assert data.tau == 2e-2 and data.sigma == 0.5
        assert data.drift == (0.5, -0.5, 1.0, -1.0)
        assert data.seed == 77 and data.trajectory_id == 3
        assert data.tau_fine == 1e-2
        assert data.step_index == 12
        np.testing.assert_array_equal(data.coeffs, state.coeffs)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="not a"):
            read_checkpoint(path)

    def test_malformed_field_names_file_and_field(self, tmp_path):
        params = make_params(n=8)
        src = make_source(params)
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, params, initial_state(params, np.zeros(8)), src)
        for line, bad in (("validation_mode = false", "validation_mode = no"),
                          ("step_index = 0", "step_index = zero")):
            path.write_text(path.read_text().replace(line, bad))
            field = bad.split(" =")[0]
            with pytest.raises(ValueError, match=f"bad.ckpt: malformed field '{field}'"):
                read_checkpoint(path)
            path.write_text(path.read_text().replace(bad, line))

    def test_malformed_coefficient_names_file_and_line(self, tmp_path):
        params = make_params(n=8)
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, params, initial_state(params, np.zeros(8)), make_source(params))
        lines = path.read_text().splitlines()
        assert lines[10] == "coeffs:" and len(lines) == 19
        lines[-1] = "abc"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="bad.ckpt: line 19: malformed coefficient 'abc'"):
            read_checkpoint(path)

    @pytest.mark.parametrize("text", ["nan", "-inf", "inf", "1e999", "-1E400"])
    def test_a_non_finite_coefficient_names_file_and_line(self, tmp_path, text):
        params = make_params(n=8)
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, params, initial_state(params, np.zeros(8)), make_source(params))
        lines = path.read_text().splitlines()
        lines[13] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: line 14: coefficient {text!r} is not finite"

    @pytest.mark.parametrize("lineno", [1, 3, 19])
    def test_a_non_ascii_byte_names_file_and_line(self, tmp_path, lineno):
        params = make_params(n=8)
        path = tmp_path / "bad.ckpt"
        write_checkpoint(path, params, initial_state(params, np.zeros(8)), make_source(params))
        lines = path.read_bytes().split(b"\n")
        lines[lineno - 1] += "\u00e9".encode()  # the bytes 0xc3 0xa9
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: line {lineno}: non-ASCII byte 0xc3"

    def test_rejects_truncated_coefficients(self, tmp_path):
        params = make_params(n=8)
        src = make_source(params)
        state = initial_state(params, np.zeros(8))
        path = tmp_path / "trunc.ckpt"
        write_checkpoint(path, params, state, src)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match="expected 8 coefficients"):
            read_checkpoint(path)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
