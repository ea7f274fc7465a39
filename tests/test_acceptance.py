"""End-to-end acceptance suite: one test and one printed verdict per criterion.

Structural criteria (eigen-structure, conservation, oracle equivalence, noise
refinement, reproducibility) are exact up to pinned tolerances.  Statistical
criteria (convergence slopes, ergodic limits, stationary variances) run at
frozen seeds; the counter-based noise makes every number here deterministic,
so the bands below are stable, not flaky.  The full module takes several
minutes, dominated by the two strong-convergence studies.

Run just this file with ``pytest tests/test_acceptance.py -v``.
"""

import math

import numpy as np
import pytest

from schsim import (DriftSpec, NoiseSource, SchemeParams, SpectralBasis,
                    evaluate_expression, initial_state, run_ensemble,
                    run_ergodic_study, run_spatial_study, run_temporal_study,
                    stationary_variance, step)
from schsim.cli import main
from schsim.output import read_metadata_config

WELL = DriftSpec(0.5, -0.5, 1.0, -1.0)
COSINE_THIRD = "(1/3)*cos(x)+1/3"


@pytest.fixture(scope="module")
def ergodic_study():
    """Shared long-run study for criteria 6 and 7 (both estimators)."""
    return run_ergodic_study(
        basis=SpectralBasis(64), drift=WELL, sigma=1.0, tau=5e-3,
        t_final=500.0, initials=("1/3", COSINE_THIRD),
        v_expr="exp(x)", alpha1=1.0, alpha2=2.0,
        estimator="both", n_trajectories=50, t_final_ensemble=50.0,
        seed=2, thinning=200)


class TestAcceptance:
    def test_01_eigenstructure(self, criterion):
        worst_res = worst_gram = 0.0
        for n in (8, 64, 512):
            basis = SpectralBasis(n)
            residual = basis.apply_laplacian(basis.basis_matrix) \
                + basis.eigenvalues * basis.basis_matrix
            worst_res = max(worst_res, float(np.max(
                np.sqrt(basis.h * np.sum(residual * residual, axis=0)))))
            gram = basis.h * (basis.basis_matrix.T @ basis.basis_matrix)
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(n)))))
        criterion(1, "eigen-structure", worst_res <= 1e-10 and worst_gram <= 1e-12,
                  f"N in (8, 64, 512): max eigen-residual {worst_res:.2e} "
                  f"(tol 1e-10), Gram deviation {worst_gram:.2e} (tol 1e-12)")

    def test_02_mass_conservation(self, criterion):
        basis = SpectralBasis(64)
        params = SchemeParams(basis, WELL, 1e-2, 1.0)
        state = initial_state(params, evaluate_expression(COSINE_THIRD, basis.grid))
        c0_start = state.coeffs[0]
        source = NoiseSource(1, 0, tau_fine=1e-2, n_modes_max=63)
        noise = source.increment_matrix(basis, 0, 10_000)
        worst = 0.0
        for m in range(10_000):
            state = step(params, state, noise[m])
            worst = max(worst, abs(state.coeffs[0] - c0_start))
        drift = worst / abs(c0_start)
        criterion(2, "mass conservation", drift <= 1e-12,
                  f"relative mass drift {drift:.2e} over 10^4 steps (tol 1e-12)")

    def test_03_linear_oracle(self, criterion):
        """Linear drift: the scheme must equal a scalar per-mode recursion.

        The modes couple only through the shared taming denominator, which the
        oracle recomputes from its own coefficient vector each step.
        """
        basis = SpectralBasis(32)
        drift = DriftSpec(0.0, 0.0, 1.0, 0.0, validation_mode=True)
        tau, n_steps = 2e-3, 1000
        lam = basis.eigenvalues
        u0 = evaluate_expression(COSINE_THIRD, basis.grid)
        source = NoiseSource(6, 0, tau_fine=tau, n_modes_max=31)
        noise = source.increment_matrix(basis, 0, n_steps)
        sup = {}
        for sigma in (0.0, 1.0):
            params = SchemeParams(basis, drift, tau, sigma)
            state = initial_state(params, u0)
            c = state.coeffs.copy()
            worst = 0.0
            for m in range(n_steps):
                state = step(params, state, noise[m])
                denom = 1.0 + tau * np.sum((1.0 + lam) * c * c) ** 6
                c = params.semigroup * (c - tau * lam * c / denom + sigma * noise[m])
                c[0] = state.coeffs[0]
                worst = max(worst, float(np.max(np.abs(state.coeffs - c))))
            sup[sigma] = worst
        criterion(3, "linear oracle", max(sup.values()) <= 1e-12,
                  f"sup deviation over 10^3 steps: sigma=0 {sup[0.0]:.2e}, "
                  f"sigma=1 {sup[1.0]:.2e} (tol 1e-12)")

    def test_04_temporal_strong_rate(self, criterion):
        table = run_temporal_study(
            basis=SpectralBasis(64), drift=WELL, sigma=1.0, t_final=1.0,
            tau_ref=2.0**-12, tau_ladder=[2.0**-k for k in range(4, 9)],
            initial=COSINE_THIRD, seed=2, n_trajectories=100)
        criterion(4, "temporal strong rate", 0.25 <= table.slope <= 0.60,
                  f"regression slope {table.slope:.4f} over tau = 2^-4..2^-8 "
                  f"(band [0.25, 0.60], L=100)")

    def test_05_spatial_strong_rate(self, criterion):
        table = run_spatial_study(
            drift=WELL, sigma=1.0, t_final=1.0, tau=2.0**-12,
            n_modes_ladder=[8, 16, 32, 64], n_modes_ref=256,
            initial=COSINE_THIRD, seed=2, n_trajectories=100)
        criterion(5, "spatial strong rate", 0.8 <= table.slope <= 1.3,
                  f"regression slope {table.slope:.4f} over N = 8..64 vs 256 "
                  f"(band [0.8, 1.3], L=100)")

    def test_06_zero_ergodic_limit(self, criterion, ergodic_study):
        singles = [r for r in ergodic_study.runs if r.estimator == "single"]
        worst = max(abs(r.estimate) for r in singles)
        details = ", ".join(f"{r.initial}: {r.estimate:+.4f}" for r in singles)
        criterion(6, "zero ergodic limit", worst <= 0.05,
                  f"single-trajectory estimates at T=500 ({details}), "
                  f"worst |.| = {worst:.4f} (tol 0.05)")

    def test_07_estimator_agreement(self, criterion, ergodic_study):
        runs = ergodic_study.runs
        singles = {r.initial: r.estimate for r in runs if r.estimator == "single"}
        ensembles = {r.initial: r.estimate for r in runs if r.estimator == "ensemble"}
        gaps = {init: abs(singles[init] - ensembles[init]) for init in singles}
        worst = max(gaps.values())
        criterion(7, "estimator agreement", worst <= 0.05,
                  "single vs ensemble gaps "
                  + ", ".join(f"{g:.4f}" for g in gaps.values())
                  + f", worst {worst:.4f} (tol 0.05)")

    def test_08_initial_condition_dependence(self, criterion):
        study = run_ergodic_study(
            basis=SpectralBasis(64), drift=WELL, sigma=1.0, tau=5e-3,
            t_final=500.0, initials=("1/3", "1"), v_expr="exp(x)",
            alpha1=0.0, alpha2=3.0, estimator="single", seed=2, thinning=200)
        flucts = []
        for run in study.runs:
            avgs = np.array([a for _, a in run.history])
            half = avgs[len(avgs) // 2:]
            flucts.append(float(half.max() - half.min()))
        separation = abs(study.runs[0].estimate - study.runs[1].estimate)
        need = 3.0 * max(flucts)
        criterion(8, "initial-condition dependence", separation > need,
                  f"estimates {study.runs[0].estimate:+.4f} vs "
                  f"{study.runs[1].estimate:+.4f}, separation {separation:.4f} "
                  f"> 3 x half-window fluctuation {max(flucts):.4f}")

    def test_09_stationary_variance(self, criterion):
        """Drift-free scheme: each mode is a scalar AR(1) with known variance."""
        basis = SpectralBasis(8)
        drift0 = DriftSpec(0.0, 0.0, 0.0, 0.0, validation_mode=True)
        tau, sigma, n_traj = 0.5, 1.0, 100
        n_steps, burn_steps = 700, 100
        params = SchemeParams(basis, drift0, tau, sigma)
        sources = [NoiseSource(3, l, tau_fine=tau, n_modes_max=7)
                   for l in range(n_traj)]
        rows = {1: [], 2: []}

        def observe(m, state):
            if m >= burn_steps:
                for j in rows:
                    rows[j].append(state.coeffs[j].copy())

        run_ensemble(params, np.zeros(8), sources, n_steps, observers=(observe,))
        ok, parts = True, []
        for j, collected in rows.items():
            samples = np.concatenate(collected)
            target = stationary_variance(basis.eigenvalues[j], tau, sigma)
            rel = abs(samples.var() - target) / target
            # AR(1) lag-1 autocorrelation discounts within-trajectory samples
            a = math.exp(-basis.eigenvalues[j] ** 2 * tau)
            n_eff = samples.size * (1 - a) / (1 + a)
            ok = ok and rel <= 0.05 and n_eff >= 1e4
            parts.append(f"mode {j}: rel err {rel:.3f}, n_eff {n_eff:.0f}")
        criterion(9, "stationary variance", ok,
                  "; ".join(parts) + " (tol 0.05, need n_eff >= 1e4)")

    def test_10_no_blow_up(self, criterion):
        basis = SpectralBasis(64)
        tau, n_steps, n_traj = 1e-2, 50_000, 20
        params = SchemeParams(basis, WELL, tau, 1.0)
        coeffs0 = basis.to_spectral(evaluate_expression(COSINE_THIRD, basis.grid))
        sources = [NoiseSource(2, 500 + l, tau_fine=tau, n_modes_max=63)
                   for l in range(n_traj)]
        linf = np.zeros(n_steps + 1)

        def observe(m, state):
            linf[m] = np.max(np.abs(state.nodal))

        run_ensemble(params, coeffs0, sources, n_steps, observers=(observe,))
        q = (n_steps + 1) // 4
        second, last = linf[q:2 * q].max(), linf[3 * q:].max()
        ok = bool(np.all(np.isfinite(linf))) and last <= 2.0 * second
        criterion(10, "long-run stability", ok,
                  f"T=500, 20 trajectories: last-quarter sup-norm max {last:.3f} "
                  f"<= 2 x second-quarter max {second:.3f}, all values finite")

    def test_11_noise_refinement(self, criterion):
        src = NoiseSource(11, 4, tau_fine=2.0**-12, n_modes_max=63)
        exact = True
        for ratio in (2, 4, 8):
            for j in (1, 5, 63):
                for m in (0, 7, 511):
                    coarse = src.coarse_increment(j, m, ratio)
                    fine = src.fine_increments(j, m * ratio, (m + 1) * ratio)
                    exact = exact and coarse == float(fine.sum())
        small = NoiseSource(11, 4, tau_fine=2.0**-12, n_modes_max=7)
        shared = np.array_equal(
            small.increment_matrix(SpectralBasis(8), 0, 64),
            src.increment_matrix(SpectralBasis(64), 0, 64)[:, :8])
        criterion(11, "noise refinement exactness", exact and shared,
                  "coarse increments == sums of fine bit-for-bit at ratios "
                  "{2, 4, 8}; N=8 and N=64 share modes 1..7 bit-for-bit")

    def test_12_reproducibility_closure(self, criterion, tmp_path):
        configs = {
            "trajectory.csv": (
                "simulate",
                "command = simulate\nn_modes = 16\ntau = 0.015625\n"
                "t_final = 0.5\ninitial = (1/3)*cos(x)+1/3\nseed = 9\n"
                "snapshot_every = 8\n"),
            "convergence_time.csv": (
                "converge-time",
                "command = converge-time\nn_modes = 8\nt_final = 0.25\n"
                "tau_ref = 0.00390625\ntau_ladder = 0.0625, 0.03125, 0.015625\n"
                "initial = 1/3\nn_trajectories = 2\nseed = 9\n"),
        }
        ok, parts = True, []
        for filename, (command, text) in configs.items():
            cfg = tmp_path / f"{command}.cfg"
            cfg.write_text(text)
            first = tmp_path / f"{command}-first"
            assert main([command, "--config", str(cfg), "--out", str(first),
                         "--deterministic"]) == 0
            echo = tmp_path / f"{command}-echo.cfg"
            echo.write_text(read_metadata_config(first / filename))
            second = tmp_path / f"{command}-second"
            assert main([command, "--config", str(echo), "--out", str(second),
                         "--deterministic"]) == 0
            same = (first / filename).read_bytes() == (second / filename).read_bytes()
            ok = ok and same
            parts.append(f"{filename} {'identical' if same else 'DIFFERS'}")
        criterion(12, "reproducibility closure", ok,
                  "metadata header re-fed as config: " + ", ".join(parts))


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
