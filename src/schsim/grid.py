"""Cosine spectral basis for the Neumann finite-difference Laplacian on (0, pi).

The interval (0, pi) is discretized by the N midpoints x_i = (i - 1/2) h with
h = pi / N.  The standard second-difference matrix with reflecting end rows
(homogeneous Neumann conditions) is diagonalized exactly by the sampled cosine
family

    phi_0(x) = sqrt(1/pi),   phi_j(x) = sqrt(2/pi) cos(j x),   1 <= j < N,

with eigenvalues lambda_{N,j} = 4 N^2 / pi^2 * sin^2(j pi / (2 N)).  Under the
weighted inner product (u, v)_N = (pi/N) sum_i u_i v_i the sampled cosines are
orthonormal, so analysis and synthesis below form an isometry (discrete
Parseval identity) and lambda_{N,j} increases to the continuous eigenvalue j^2
as N grows.

Nodal fields and coefficient vectors are plain float64 ndarrays of length N;
all operations accept either a single field of shape ``(N,)`` or a stack of
``L`` fields as columns of an ``(N, L)`` array.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SpectralBasis"]

_FLOAT64 = np.dtype(np.float64)


class SpectralBasis:
    """Midpoint grid, eigenvalues and sampled-cosine transform matrix.

    Attributes:
        n_modes: Number of grid points N (equal to the number of retained
            cosine modes 0 .. N-1).
        h: Grid spacing pi / N, also the quadrature weight of the discrete
            inner product.
        grid: Midpoints x_i = (i - 1/2) h, shape (N,).
        eigenvalues: lambda_{N,j} = 4 N^2/pi^2 sin^2(j pi / (2N)), shape (N,),
            nondecreasing, with ``eigenvalues[0] == 0.0`` exactly.
        basis_matrix: C with C[i, j] = phi_j(x_i), shape (N, N).
    """

    def __init__(self, n_modes: int):
        if not isinstance(n_modes, (int, np.integer)):
            raise TypeError(f"n_modes must be an integer, got {type(n_modes).__name__}")
        if n_modes < 2:
            raise ValueError(f"n_modes must be at least 2, got {n_modes}")
        n = int(n_modes)
        self.n_modes = n
        self.h = np.pi / n
        self.grid = (np.arange(1, n + 1) - 0.5) * self.h
        j = np.arange(n)
        self.eigenvalues = (4.0 * n * n / np.pi**2) * np.sin(j * (np.pi / (2 * n))) ** 2
        # cos(j x_i) = cos(pi k / (2N)) with k = j (2i - 1): reduce k mod 4N in
        # integer arithmetic and fold into the first quadrant, so every sample
        # is accurate to ~1 ulp even when j x_i is hundreds of radians (the
        # stencil scale N^2 would otherwise amplify argument-reduction error).
        k = np.outer(2 * np.arange(1, n + 1, dtype=np.int64) - 1, j) % (4 * n)
        k = np.minimum(k, 4 * n - k)          # cos(2 pi - t) = cos(t)
        sign = np.where(k > n, -1.0, 1.0)     # cos(t) = -cos(pi - t)
        k = np.where(k > n, 2 * n - k, k)
        C = np.sqrt(2.0 / np.pi) * sign * np.cos((np.pi / (2 * n)) * k)
        C[:, 0] = np.sqrt(1.0 / np.pi)
        self.basis_matrix = C

    def __repr__(self) -> str:
        return f"SpectralBasis(n_modes={self.n_modes})"

    # -- helpers -----------------------------------------------------------

    def _check_field(self, u: np.ndarray, name: str = "field") -> np.ndarray:
        """``u`` as a float64 ndarray of shape (N,) or (N, L); one that is
        already so is returned as it is, without conversion."""
        if type(u) is not np.ndarray or u.dtype is not _FLOAT64:
            u = np.asarray(u, dtype=np.float64)
        if u.ndim not in (1, 2) or u.shape[0] != self.n_modes:
            raise ValueError(
                f"{name} must have leading dimension {self.n_modes}, got shape {u.shape}"
            )
        return u

    # -- core operations ---------------------------------------------------

    def apply_laplacian(self, u: np.ndarray) -> np.ndarray:
        """Apply the Neumann second-difference operator (N^2/pi^2) D2.

        This is the stencil route (tridiagonal (1, -2, 1) with reflecting end
        rows), deliberately independent of the cosine transform so the two can
        be checked against each other.
        """
        u = self._check_field(u)
        out = np.empty_like(u)
        out[0] = u[1] - u[0]
        out[-1] = u[-2] - u[-1]
        out[1:-1] = u[:-2] - 2.0 * u[1:-1] + u[2:]
        out *= (self.n_modes / np.pi) ** 2
        return out

    def to_spectral(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Analysis: coefficients c_j = (pi/N) sum_i u_i phi_j(x_i), into
        ``out`` if given (a C-contiguous array of the result's shape)."""
        u = self._check_field(u)
        if out is None:  # the operator form: a keyword argument costs ~0.4 us a call
            return self.h * (self.basis_matrix.T @ u)
        return np.multiply(np.matmul(self.basis_matrix.T, u, out=out), self.h, out=out)

    def from_spectral(self, coeffs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Synthesis: nodal values u_i = sum_j c_j phi_j(x_i), into ``out``
        if given (a C-contiguous array of the result's shape)."""
        coeffs = self._check_field(coeffs, name="coefficients")
        if out is None:
            return self.basis_matrix @ coeffs
        return np.matmul(self.basis_matrix, coeffs, out=out)

    def semigroup_factor(self, t: float) -> np.ndarray:
        """Per-mode factors exp(-lambda_{N,j}^2 t) of the bilaplacian semigroup.

        Entry 0 is exactly 1.0 (the mean is conserved by the flow).
        """
        if not np.isfinite(t) or t < 0:
            raise ValueError(f"t must be a finite nonnegative real, got {t}")
        return np.exp(-self.eigenvalues**2 * t)

    def norm(self, u: np.ndarray, kind: str = "l2", p: float | None = None):
        """Discrete norm of a nodal field.

        kind:
            "l2":   sqrt((pi/N) sum u_i^2)
            "linf": max |u_i|
            "lp":   ((pi/N) sum |u_i|^p)^(1/p), requires ``p`` >= 1
            "w12":  sqrt(||u||_l2^2 + sum_j lambda_{N,j} c_j^2) with
                    c = to_spectral(u)

        For an ``(N, L)`` stack the norm of each column is returned.
        """
        u = self._check_field(u)
        if kind == "l2":
            return np.sqrt(self.h * np.sum(u * u, axis=0))
        if kind == "linf":
            return np.max(np.abs(u), axis=0)
        if kind == "lp":
            if p is None or p < 1:
                raise ValueError(f"kind 'lp' requires an exponent p >= 1, got {p}")
            return (self.h * np.sum(np.abs(u) ** p, axis=0)) ** (1.0 / p)
        if kind == "w12":
            c = self.to_spectral(u)
            lam = self.eigenvalues if u.ndim == 1 else self.eigenvalues[:, None]
            grad_sq = np.sum(lam * c * c, axis=0)
            return np.sqrt(self.h * np.sum(u * u, axis=0) + grad_sq)
        raise ValueError(f"unknown norm kind {kind!r}; expected l2, linf, lp or w12")
