"""Tests for the sampled-cosine basis and the Neumann difference operator.

The load-bearing facts checked here: the second-difference stencil and the
cosine transform agree (same operator, two routes), the transform is an
isometry for the (pi/N)-weighted inner product, and the eigenvalues carry
exactly the discrete dispersion relation lambda = 4N^2/pi^2 sin^2(j pi/2N).
"""

import numpy as np
import pytest

from schsim import SpectralBasis


class TestConstruction:
    def test_build_basis_returns_spectral_basis(self):
        basis = SpectralBasis(8)
        assert isinstance(basis, SpectralBasis)
        assert basis.n_modes == 8

    def test_grid_is_midpoints(self):
        """x_i = (i - 1/2) h with h = pi/N, strictly inside (0, pi)."""
        basis = SpectralBasis(6)
        h = np.pi / 6
        assert basis.h == pytest.approx(h, abs=0)
        np.testing.assert_allclose(basis.grid, (np.arange(1, 7) - 0.5) * h,
                                   rtol=0, atol=1e-15)
        assert basis.grid[0] > 0 and basis.grid[-1] < np.pi

    def test_mode_zero_column_is_constant(self):
        basis = SpectralBasis(5)
        np.testing.assert_array_equal(basis.basis_matrix[:, 0],
                                      np.full(5, np.sqrt(1.0 / np.pi)))

    def test_rejects_too_few_modes(self):
        with pytest.raises(ValueError, match="at least 2"):
            SpectralBasis(1)

    def test_rejects_non_integer_modes(self):
        with pytest.raises(TypeError, match="integer"):
            SpectralBasis(4.0)
        with pytest.raises(TypeError, match="integer"):
            SpectralBasis("8")


class TestEigenstructure:
    def test_eigenvalue_zero_is_exact(self):
        for n in (2, 7, 64):
            assert SpectralBasis(n).eigenvalues[0] == 0.0

    def test_smallest_nonzero_eigenvalue_n2(self):
        # lambda_{2,1} = 4*4/pi^2 * sin^2(pi/4) = 8/pi^2, frozen by hand
        basis = SpectralBasis(2)
        assert basis.eigenvalues[1] == pytest.approx(8.0 / np.pi**2, rel=1e-15)

    def test_eigenvalues_increase_to_continuum(self):
        """lambda_{N,j} <= j^2 and the defect is O(j^4 / N^2)."""
        basis = SpectralBasis(32)
        j = np.arange(32)
        lam = basis.eigenvalues
        assert np.all(np.diff(lam) > 0)
        assert np.all(lam[1:] < j[1:] ** 2)
        # sin(t) >= t - t^3/6 gives lambda >= j^2 - j^4 pi^2 / (12 N^2)
        lower = j**2 - j**4 * np.pi**2 / (12 * 32**2)
        assert np.all(lam >= lower - 1e-12)

    @pytest.mark.parametrize("n", [4, 16, 64, 512])
    def test_stencil_diagonalized_by_cosines(self, n):
        """A_N phi_j = -lambda_j phi_j for every sampled cosine column.

        The stencil route and the analytic eigenvalues are computed
        independently, so this compares two derivations of one operator.
        N = 512 exercises the integer angle reduction: naive cos(j * x_i)
        calls lose ~1e-8 here because of the N^2 stencil scale.
        """
        basis = SpectralBasis(n)
        residual = basis.apply_laplacian(basis.basis_matrix)
        residual += basis.eigenvalues[None, :] * basis.basis_matrix
        worst = basis.norm(residual, "l2").max()
        assert worst <= 1e-10

    def test_gram_matrix_is_identity(self):
        """Sampled cosines are orthonormal under the (pi/N)-weighted product."""
        basis = SpectralBasis(16)
        gram = basis.h * (basis.basis_matrix.T @ basis.basis_matrix)
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12


class TestTransforms:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(7)
        basis = SpectralBasis(24)
        u = rng.standard_normal(24)
        np.testing.assert_allclose(basis.from_spectral(basis.to_spectral(u)),
                                   u, rtol=0, atol=1e-13)

    def test_parseval_identity(self):
        rng = np.random.default_rng(8)
        basis = SpectralBasis(33)
        u = rng.standard_normal(33)
        c = basis.to_spectral(u)
        assert np.sum(c * c) == pytest.approx(basis.norm(u, "l2") ** 2, rel=1e-13)

    def test_transform_of_constant_is_mode_zero(self):
        basis = SpectralBasis(10)
        c = basis.to_spectral(np.full(10, 3.0))
        # <3, phi_0> = 3 sqrt(pi); all oscillating modes integrate to zero
        assert c[0] == pytest.approx(3.0 * np.sqrt(np.pi), rel=1e-14)
        assert np.max(np.abs(c[1:])) <= 1e-13

    def test_stacked_fields_transform_columnwise(self):
        rng = np.random.default_rng(9)
        basis = SpectralBasis(12)
        stack = rng.standard_normal((12, 3))
        c = basis.to_spectral(stack)
        # matrix and vector BLAS paths may differ in the last ulp
        for l in range(3):
            np.testing.assert_allclose(c[:, l], basis.to_spectral(stack[:, l]),
                                       rtol=0, atol=1e-14)

    def test_wrong_leading_dimension_rejected(self):
        basis = SpectralBasis(8)
        with pytest.raises(ValueError, match="leading dimension 8"):
            basis.to_spectral(np.zeros(9))
        with pytest.raises(ValueError, match="leading dimension 8"):
            basis.from_spectral(np.zeros((7, 2)))

    @pytest.mark.parametrize("u", [np.float64(1.0), np.zeros(()), np.zeros((8, 2, 1)),
                                   np.zeros(7), np.zeros((0, 8)), [[1.0]] * 9],
                             ids=["scalar", "0-d", "3-d", "short", "empty", "list"])
    def test_every_malformed_field_is_refused_with_its_shape(self, u):
        basis = SpectralBasis(8)
        shape = np.shape(u)
        for transform, name in ((basis.to_spectral, "field"),
                                (basis.from_spectral, "coefficients")):
            with pytest.raises(ValueError) as info:
                transform(u)
            assert str(info.value) == (f"{name} must have leading dimension 8, "
                                       f"got shape {shape}")

    def test_fields_are_converted_unless_already_float64(self):
        """Lists, float32 and non-native byte order go through float64 and
        transform like the float64 array; a float64 array is used as it is."""
        basis = SpectralBasis(8)
        u = np.random.default_rng(4).standard_normal((8, 3)).astype(np.float32)
        exact = u.astype(np.float64)
        for given_u in (u, u.tolist(), exact.astype(">f8"), exact[:, 1], u[:, 1].tolist()):
            expected = exact if np.ndim(given_u) == 2 else exact[:, 1]
            for transform in (basis.to_spectral, basis.from_spectral):
                assert transform(given_u).tobytes() == transform(expected).tobytes()
        assert basis._check_field(exact) is exact
        assert basis._check_field(exact[:, 1]).base is exact
        converted = basis._check_field(exact.astype(">f8"))
        assert converted.dtype == np.float64 and converted.dtype.isnative


    @pytest.mark.parametrize("width", [None, 1, 2, 5, 50])
    def test_out_rows_of_a_stack_get_the_bits_of_a_new_array(self, width):
        """A transform into rows of a larger C-contiguous array, as a level
        stack writes it, gives the bits of the transform that allocates."""
        basis = SpectralBasis(16)
        shape = (16,) if width is None else (16, width)
        u = np.random.default_rng(3).standard_normal(shape)
        for transform in (basis.to_spectral, basis.from_spectral):
            stack = np.full((40,) + shape[1:], np.nan)
            got = transform(u, out=stack[8:24])
            assert got.base is stack
            assert stack[8:24].tobytes() == transform(u).tobytes()
            assert np.isnan(stack[:8]).all() and np.isnan(stack[24:]).all()


class TestLaplacianStencil:
    def test_two_point_stencil_by_hand(self):
        # N=2: out = (N/pi)^2 * (u2-u1, u1-u2); for u=(1,-1) that is
        # (4/pi^2)*(-2, 2) = (-8/pi^2, 8/pi^2)
        basis = SpectralBasis(2)
        out = basis.apply_laplacian(np.array([1.0, -1.0]))
        np.testing.assert_allclose(out, [-8.0 / np.pi**2, 8.0 / np.pi**2],
                                   rtol=1e-15)

    def test_annihilates_constants(self):
        basis = SpectralBasis(17)
        out = basis.apply_laplacian(np.full(17, 2.5))
        np.testing.assert_array_equal(out, np.zeros(17))

    def test_row_sums_vanish(self):
        """Reflecting end rows make every stencil row sum to zero (mass)."""
        basis = SpectralBasis(9)
        columns = basis.apply_laplacian(np.eye(9))
        np.testing.assert_allclose(columns.sum(axis=1), np.zeros(9), atol=1e-12)


class TestNorms:
    def test_l2_of_constant_one_is_sqrt_pi(self):
        basis = SpectralBasis(50)
        assert basis.norm(np.ones(50), "l2") == pytest.approx(np.sqrt(np.pi),
                                                              rel=1e-14)

    def test_linf(self):
        basis = SpectralBasis(4)
        assert basis.norm(np.array([3.0, -4.0, 1.0, 0.5]), "linf") == 4.0

    def test_lp_matches_l2_at_p_two(self):
        rng = np.random.default_rng(10)
        basis = SpectralBasis(20)
        u = rng.standard_normal(20)
        assert basis.norm(u, "lp", p=2) == pytest.approx(basis.norm(u, "l2"),
                                                         rel=1e-13)

    def test_l1_of_constant(self):
        basis = SpectralBasis(30)
        assert basis.norm(np.ones(30), "lp", p=1) == pytest.approx(np.pi,
                                                                   rel=1e-14)

    def test_w12_of_single_mode(self):
        """||phi_j||_w12^2 = 1 + lambda_j for a unit-coefficient mode."""
        basis = SpectralBasis(16)
        u = basis.from_spectral(np.eye(16)[3])
        expected = np.sqrt(1.0 + basis.eigenvalues[3])
        assert basis.norm(u, "w12") == pytest.approx(expected, rel=1e-12)

    def test_w12_of_constant_has_no_gradient_part(self):
        basis = SpectralBasis(16)
        assert basis.norm(np.full(16, 2.0), "w12") == pytest.approx(
            2.0 * np.sqrt(np.pi), rel=1e-13)

    def test_norm_of_stack_is_per_column(self):
        basis = SpectralBasis(8)
        stack = np.stack([np.ones(8), 2 * np.ones(8)], axis=1)
        np.testing.assert_allclose(basis.norm(stack, "l2"),
                                   [np.sqrt(np.pi), 2 * np.sqrt(np.pi)],
                                   rtol=1e-14)

    def test_lp_requires_valid_exponent(self):
        basis = SpectralBasis(4)
        with pytest.raises(ValueError, match="p >= 1"):
            basis.norm(np.ones(4), "lp")
        with pytest.raises(ValueError, match="p >= 1"):
            basis.norm(np.ones(4), "lp", p=0.5)

    def test_unknown_kind_rejected(self):
        basis = SpectralBasis(4)
        with pytest.raises(ValueError, match="unknown norm kind"):
            basis.norm(np.ones(4), "h2")


class TestSemigroupAndSmoothing:
    def test_factor_at_zero_time_is_identity(self):
        basis = SpectralBasis(12)
        np.testing.assert_array_equal(basis.semigroup_factor(0.0), np.ones(12))

    def test_mean_mode_is_conserved_exactly(self):
        basis = SpectralBasis(12)
        assert basis.semigroup_factor(123.4)[0] == 1.0

    def test_factor_decreases_with_time_and_mode(self):
        basis = SpectralBasis(12)
        f1, f2 = basis.semigroup_factor(0.01), basis.semigroup_factor(0.02)
        assert np.all(f2[1:] < f1[1:])
        assert np.all(np.diff(f1) < 0)

    def test_factor_rejects_bad_times(self):
        basis = SpectralBasis(12)
        with pytest.raises(ValueError):
            basis.semigroup_factor(-1e-9)
        with pytest.raises(ValueError):
            basis.semigroup_factor(float("nan"))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
