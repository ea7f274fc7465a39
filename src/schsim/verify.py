"""Built-in invariant suite behind the ``schsim verify`` command.

Each check exercises one structural guarantee of the implementation --
eigenstructure, transform isometry, exact noise refinement, conservation,
closed-form oracles -- and reports pass/fail with a measured deviation.  The
suite is deterministic (fixed seeds) and runs in a few seconds.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import read_checkpoint, write_checkpoint
from .grid import SpectralBasis
from .integrator import (DriftSpec, SchemeParams, initial_state, run_ensemble,
                         run_trajectory, step)
from .noise import NoiseSource, stationary_variance
from .observables import TestFunctionSpec, lyapunov_v, phi_test

__all__ = ["CheckResult", "run_all_checks"]

_SEED = 20260823


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def check_eigenstructure() -> CheckResult:
    worst_res, worst_gram = 0.0, 0.0
    for n in (8, 64, 512):
        basis = SpectralBasis(n)
        residual = basis.apply_laplacian(basis.basis_matrix) \
            + basis.eigenvalues * basis.basis_matrix
        worst_res = max(worst_res, float(np.max(
            np.sqrt(basis.h * np.sum(residual * residual, axis=0)))))
        gram = basis.h * (basis.basis_matrix.T @ basis.basis_matrix)
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(n)))))
    ok = worst_res <= 1e-10 and worst_gram <= 1e-12
    return _result("eigenstructure",
                   ok, f"max eigen-residual {worst_res:.2e}, gram deviation {worst_gram:.2e}")


def check_transforms() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    basis = SpectralBasis(64)
    worst_round, worst_pars = 0.0, 0.0
    for _ in range(20):
        u = rng.normal(size=64)
        c = basis.to_spectral(u)
        worst_round = max(worst_round, float(np.max(np.abs(basis.from_spectral(c) - u))))
        l2 = basis.norm(u, "l2")
        worst_pars = max(worst_pars, abs(float(np.sqrt(np.sum(c * c))) - l2) / l2)
    ok = worst_round <= 1e-12 and worst_pars <= 1e-10
    return _result("transform-roundtrip",
                   ok, f"roundtrip {worst_round:.2e}, Parseval rel {worst_pars:.2e}")


def check_laplacian_equivalence() -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for n in (4, 16, 64):
        basis = SpectralBasis(n)
        for _ in range(50):
            u = rng.normal(size=n)
            stencil = basis.apply_laplacian(u)
            spectral = basis.from_spectral(-basis.eigenvalues * basis.to_spectral(u))
            worst = max(worst, float(np.max(np.abs(stencil - spectral))))
    return _result("laplacian-equivalence", worst <= 1e-9, f"max deviation {worst:.2e}")


def check_eigenvalue_bounds() -> CheckResult:
    worst = 0.0
    ok = True
    for n in (2, 3, 8, 64, 513, 1024):
        basis = SpectralBasis(n)
        j = np.arange(n)
        cont = j.astype(float) ** 2
        if np.any(basis.eigenvalues > cont + 1e-9):
            ok = False
        bound = 2.0 * cont**2 * np.pi**2 / (12.0 * n * n)
        gap = np.abs(basis.eigenvalues - cont)
        if np.any(gap[1:] > bound[1:]):
            ok = False
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.max(gap[1:] / np.maximum(bound[1:], 1e-300))
        worst = max(worst, float(ratio))
    return _result("eigenvalue-bounds", ok, f"worst gap/bound ratio {worst:.3f}")


def check_noise_refinement() -> CheckResult:
    src = NoiseSource(_SEED, 3, tau_fine=1.0 / 4096, n_modes_max=63)
    ok = True
    for j in (1, 7, 63):
        for m in (0, 5, 31):
            direct = src.coarse_increment(j, m, 8)
            fines = sum(src.fine_increment(j, k) for k in range(8 * m, 8 * m + 8))
            mids = sum(src.coarse_increment(j, i, 2) for i in range(4 * m, 4 * m + 4))
            halves = sum(src.coarse_increment(j, i, 4) for i in range(2 * m, 2 * m + 2))
            if not (direct == fines == mids == halves):
                ok = False
    small = NoiseSource(_SEED, 3, tau_fine=1.0 / 4096, n_modes_max=7)
    shared = all(small.fine_increment(j, k) == src.fine_increment(j, k)
                 for j in (1, 4, 7) for k in (0, 100, 5000))
    return _result("noise-refinement", ok and shared,
                   f"exact aggregation {ok}, mode sharing {shared}")


def check_noise_moments() -> CheckResult:
    tau_fine = 0.01
    src = NoiseSource(_SEED + 2, 0, tau_fine=tau_fine, n_modes_max=4)
    draws = src.fine_increments(1, 0, 100_000)
    mean_bound = 4.0 * math.sqrt(tau_fine / len(draws))
    mean = float(np.mean(draws))
    var_rel = abs(float(np.var(draws)) / tau_fine - 1.0)
    ok = abs(mean) <= mean_bound and var_rel <= 0.05
    return _result("noise-moments",
                   ok, f"|mean| {abs(mean):.2e} (bound {mean_bound:.2e}), var rel {var_rel:.3f}")


def check_stationary_variance() -> CheckResult:
    basis = SpectralBasis(8)
    params = SchemeParams(basis, DriftSpec(0.0, validation_mode=True), 0.5, 1.0)
    sources = [NoiseSource(_SEED + 3, k, tau_fine=0.5, n_modes_max=7) for k in range(100)]
    burn, total = 100, 700
    acc = {"sum": np.zeros(2), "sumsq": np.zeros(2), "n": 0}

    def observer(m, state):
        if m > burn:
            acc["sum"] += np.sum(state.coeffs[1:3], axis=1)
            acc["sumsq"] += np.sum(state.coeffs[1:3] ** 2, axis=1)
            acc["n"] += state.coeffs.shape[1]

    run_ensemble(params, np.zeros(8), sources, total, observers=(observer,))
    worst = 0.0
    for row, j in enumerate((1, 2)):
        target = stationary_variance(basis.eigenvalues[j], params.tau, params.sigma)
        mean = acc["sum"][row] / acc["n"]
        var = acc["sumsq"][row] / acc["n"] - mean**2
        worst = max(worst, abs(var / target - 1.0))
    return _result("stationary-variance", worst <= 0.05,
                   f"worst relative deviation {worst:.3f} over modes 1-2")


def check_mass_conservation() -> CheckResult:
    basis = SpectralBasis(32)
    params = SchemeParams(basis, DriftSpec(0.5, -0.5, 1.0, -1.0), 0.01, 1.0)
    u0 = 1.0 / 3.0 + (1.0 / 3.0) * np.cos(basis.grid)
    state = initial_state(params, u0)
    source = NoiseSource(_SEED + 4, 0, tau_fine=0.01, n_modes_max=31)
    mean0 = float(np.mean(state.nodal))
    worst = 0.0

    def observer(m, s):
        nonlocal worst
        drift = abs(float(np.mean(s.nodal)) - mean0)
        worst = max(worst, drift / (1.0 + abs(mean0)))

    run_trajectory(params, state, source, 2000, observers=(observer,))
    return _result("mass-conservation", worst <= 1e-12, f"max relative drift {worst:.2e}")


def _linear_reference(basis, a2, sigma, tau, coeffs0, source, ratio, n_steps):
    """Independent per-mode recursion for f(x) = a2 x (shared taming factor)."""
    lam = basis.eigenvalues
    sem = np.exp(-(lam**2) * tau)
    c = np.array(coeffs0, dtype=float)
    n = len(c)
    for m in range(n_steps):
        w12 = sum((1.0 + lam[j]) * c[j] * c[j] for j in range(n))
        denom = 1.0 + tau * w12**6
        db = np.zeros(n)
        for j in range(1, n):
            db[j] = source.coarse_increment(j, m, ratio)
        c = sem * (c - tau * lam * (a2 * c) / denom + sigma * db)
    return c


def check_linear_oracle() -> CheckResult:
    basis = SpectralBasis(16)
    drift = DriftSpec(0.0, 0.0, 1.0, 0.0, validation_mode=True)
    tau = 1.0 / 512
    u0 = (1.0 / 3.0) * np.cos(basis.grid) + 1.0 / 3.0
    worst = 0.0
    for sigma in (0.0, 1.0):
        params = SchemeParams(basis, drift, tau, sigma)
        source = NoiseSource(_SEED + 5, 1, tau_fine=tau, n_modes_max=15)
        state = run_trajectory(params, initial_state(params, u0), source, 200)
        expected = _linear_reference(
            basis, 1.0, sigma, tau, initial_state(params, u0).coeffs, source, 1, 200)
        worst = max(worst, float(np.max(np.abs(state.coeffs - expected))))
    return _result("linear-oracle", worst <= 1e-12, f"max coefficient deviation {worst:.2e}")


def check_constant_fixed_point() -> CheckResult:
    basis = SpectralBasis(24)
    drift = DriftSpec(0.5, -0.5, 1.0, -1.0)
    params = SchemeParams(basis, drift, 0.01, 0.0)
    c_star = -drift.a1 / (3.0 * drift.a0)
    state = initial_state(params, np.full(24, c_star))
    after = step(params, state, np.zeros(24))
    dev = float(np.max(np.abs(after.nodal - c_star)))
    return _result("constant-fixed-point", dev <= 1e-14, f"one-step deviation {dev:.2e}")


def check_checkpoint_roundtrip() -> CheckResult:
    basis = SpectralBasis(12)
    params = SchemeParams(basis, DriftSpec(0.5, -0.5, 1.0, -1.0), 0.02, 1.0)
    source = NoiseSource(_SEED + 6, 2, tau_fine=0.02, n_modes_max=11)
    u0 = (1.0 / 3.0) * np.cos(basis.grid) + 1.0 / 3.0
    mid = run_trajectory(params, initial_state(params, u0), source, 5)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.ckpt"
        write_checkpoint(path, params, mid, source)
        params2, source2, state2 = read_checkpoint(path).rebuild()
        resumed = run_trajectory(params2, state2, source2, 5)
    oneshot = run_trajectory(params, initial_state(params, u0), source, 10)
    identical = bool(np.array_equal(resumed.coeffs, oneshot.coeffs))
    return _result("checkpoint-roundtrip", identical,
                   "resumed run is bit-identical" if identical else "resume drifted")


def check_phi_bound() -> CheckResult:
    rng = np.random.default_rng(_SEED + 7)
    basis = SpectralBasis(32)
    spec = TestFunctionSpec.from_expression(basis, "exp(x)", 1.0, 2.0)
    bound = spec.alpha2**2 / 2.0
    worst = 0.0
    for scale in (0.1, 1.0, 100.0):
        u = rng.normal(scale=scale, size=(32, 64))
        worst = max(worst, float(np.max(np.abs(phi_test(basis, spec, u)))))
    return _result("phi-bound", worst <= bound + 1e-12,
                   f"max |phi| {worst:.4f} vs bound {bound:.4f}")


def check_lyapunov_drift() -> CheckResult:
    basis = SpectralBasis(16)
    params = SchemeParams(basis, DriftSpec(0.5, -0.5, 1.0, -1.0), 0.1, 1.0)
    sources = [NoiseSource(_SEED + 8, k, tau_fine=0.1, n_modes_max=15) for k in range(200)]
    u0 = 5.0 * np.cos(basis.grid) + 1.0 / 3.0
    coeffs0 = initial_state(params, u0).coeffs
    means = []

    def observer(m, state):
        means.append(float(np.mean(lyapunov_v(basis, state.nodal))))

    run_ensemble(params, coeffs0, sources, 40, observers=(observer,))
    x = np.array(means[:-1])
    y = np.array(means[1:])
    slope = float(np.polyfit(x, y, 1)[0])
    limit = math.exp(-2.0 * basis.eigenvalues[1] * params.tau) + 0.05
    return _result("lyapunov-drift", slope <= limit,
                   f"ensemble contraction slope {slope:.4f} <= {limit:.4f}")


_CHECKS = (
    check_eigenstructure,
    check_transforms,
    check_laplacian_equivalence,
    check_eigenvalue_bounds,
    check_noise_refinement,
    check_noise_moments,
    check_stationary_variance,
    check_mass_conservation,
    check_linear_oracle,
    check_constant_fixed_point,
    check_checkpoint_roundtrip,
    check_phi_bound,
    check_lyapunov_drift,
)


def run_all_checks() -> list[CheckResult]:
    """Run the full invariant suite; returns one result per check."""
    return [chk() for chk in _CHECKS]
