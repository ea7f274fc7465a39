"""The benchmark's three workloads and the checks on their outputs.

Each workload is one ``schsim`` CLI call on a config file generated from the
benchmark's ``--seed``; the seed goes into the config and nothing else does,
so the same seed gives the same inputs.  All three share the paper's
double-well drift f(x) = (x^3 - x^2 + 2x - 2)/2, sigma = 1 and the
cosine initial condition.  README.md says why each one exists.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_SEED = 2   # the seed whose results are stored in references.json
# Relative tolerance against the stored results.  Reordering a floating-point
# sum moves a result by a few ulp (~1e-15 relative); any change to the noise,
# the scheme or the error definition moves it by far more than 1e-9.
REFERENCE_RTOL = 1e-9

COSINE_THIRD = "(1/3)*cos(x)+1/3"
TAU_12 = 2.0 ** -12

_COMMON = {
    "sigma": "1.0", "drift_a0": "0.5", "drift_a1": "-0.5",
    "drift_a2": "1.0", "drift_a3": "-1.0",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    threads: int
    settings: dict          # config keys besides command and seed
    smoke: dict             # overrides that shrink the run for the smoke test
    expected: tuple         # boundaries (tracer.BOUNDARIES) that must see calls

    def config(self, seed: int, smoke: bool = False) -> dict:
        settings = {**_COMMON, **self.settings, **(self.smoke if smoke else {})}
        return {"command": self.command, "seed": str(seed), **settings}

    def config_text(self, seed: int, smoke: bool = False) -> str:
        return "".join(f"{key} = {value}\n"
                       for key, value in self.config(seed, smoke).items())

    def argv(self, config_path: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--threads", str(self.threads)]

    def needed_increments(self, smoke: bool = False) -> int:
        """Fine noise increments the workload consumes: trajectories x noisy
        modes x steps at the finest step size."""
        cfg = self.config(0, smoke)
        n_traj = int(cfg["n_trajectories"])
        if self.command == "converge-time":
            steps = _whole_steps(cfg["t_final"], cfg["tau_ref"])
            return n_traj * (int(cfg["n_modes"]) - 1) * steps
        if self.command == "converge-space":
            steps = _whole_steps(cfg["t_final"], cfg["tau"])
            return n_traj * (int(cfg["n_modes_ref"]) - 1) * steps
        modes = int(cfg["n_modes"]) - 1
        single = _whole_steps(cfg["t_final"], cfg["tau"])
        ensemble = _whole_steps(cfg["t_final_ensemble"], cfg["tau"])
        n_initials = len(cfg["initials"].split(";"))
        return n_initials * modes * (single + n_traj * ensemble)

    def results(self, out_dir: Path) -> dict[str, float]:
        """The run's result values by name, read back from its CSV output."""
        if self.command == "ergodic":
            rows = _csv_rows(out_dir / "ergodic_summary.csv")
            return {f"estimate[{row['label']}]": float(row["estimate"]) for row in rows}
        stem = "convergence_time" if self.command == "converge-time" else "convergence_space"
        key = "tau" if self.command == "converge-time" else "n_modes"
        rows = _csv_rows(out_dir / f"{stem}.csv")
        return {f"error[{key}={row[key]}]": float(row["error"]) for row in rows}

    def n_results(self, smoke: bool = False) -> int:
        cfg = self.config(0, smoke)
        if self.command == "converge-time":
            return len(cfg["tau_ladder"].split(","))
        if self.command == "converge-space":
            return len(cfg["n_modes_ladder"].split(","))
        return 2 * len(cfg["initials"].split(";"))  # one single, one ensemble each

    def check(self, values: dict[str, float], seed: int, smoke: bool,
              references: dict | None) -> list[str]:
        """Problems with one run's results; an empty list means correct.

        Every error must be finite and positive and every estimate finite.
        At the reference seed every value must also match the stored one.
        """
        expected = self.n_results(smoke)
        problems = []
        if len(values) != expected:
            problems.append(f"expected {expected} result values, got {len(values)}")
        for name, value in values.items():
            if not math.isfinite(value):
                problems.append(f"{name} = {value!r} is not finite")
            elif name.startswith("error") and value <= 0:
                problems.append(f"{name} = {value!r} is not positive")
        if references is not None and seed == REFERENCE_SEED:
            for name, ref_hex in references.items():
                ref = float.fromhex(ref_hex)
                value = values.get(name)
                if value is None:
                    problems.append(f"{name} missing from the output")
                elif not abs(value - ref) <= REFERENCE_RTOL * abs(ref):
                    problems.append(f"{name} = {value.hex()} differs from the stored "
                                    f"{ref_hex} by more than {REFERENCE_RTOL:g} relative")
        return problems


def _whole_steps(t_final: str, tau: str) -> int:
    return round(float(t_final) / float(tau))


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


_STUDY = ("noise.NoiseSource.increment_matrix", "grid.SpectralBasis.to_spectral",
          "grid.SpectralBasis.from_spectral", "integrator._advance",
          "experiments._coupled_sums", "output.write_csv", "cli.main")

# Sizes keep one workload run at 1.5-3 s, so a run of the benchmark repeats
# it about ten times (README.md explains why short runs are steadier).
WORKLOADS = {
    # Temporal refinement: noise does most of the work (the prefetch
    # generates ~63x the increments the study consumes).  t_final stays 1 so
    # that the fixed 512-step prefetch is not a larger share than at the
    # acceptance scale.
    "temporal": Workload(
        name="temporal", command="converge-time", threads=1,
        settings={"n_modes": "64", "initial": COSINE_THIRD, "t_final": "1.0",
                  "tau_ref": repr(TAU_12),
                  "tau_ladder": ",".join(repr(2.0 ** -k) for k in range(4, 9)),
                  "n_trajectories": "2"},
        smoke={"n_modes": "8", "t_final": "0.0625"},
        expected=_STUDY + ("experiments.run_temporal_study",)),
    # Spatial refinement: the only workload with wide (N_ref = 256) dense
    # transforms and the only one that runs the thread pool.
    "spatial": Workload(
        name="spatial", command="converge-space", threads=2,
        settings={"initial": COSINE_THIRD, "t_final": "1.0", "tau": repr(TAU_12),
                  "n_modes_ref": "256", "n_modes_ladder": "8,16,32,64",
                  "n_trajectories": "2"},
        smoke={"t_final": "0.0625", "n_modes_ref": "64", "n_modes_ladder": "4,8,16"},
        expected=_STUDY + ("experiments.run_spatial_study",
                           "experiments.ThreadPoolExecutor.map")),
    # Long-run averages: the single-trajectory (L = 1) path, where per-step
    # Python overhead, the observer and N = 64 transforms dominate and noise
    # is small in the single-trajectory part.  The single horizon is 10x the
    # ensemble horizon, as in the acceptance fixture for criteria 6 and 7.
    "ergodic": Workload(
        name="ergodic", command="ergodic", threads=1,
        settings={"n_modes": "64", "tau": "0.005",
                  "initials": f"1/3; {COSINE_THIRD}", "test_v": "exp(x)",
                  "test_alpha1": "1.0", "test_alpha2": "2.0", "estimator": "both",
                  "n_trajectories": "50", "t_final": "50.0",
                  "t_final_ensemble": "5.0", "thinning": "200"},
        smoke={"n_modes": "16", "n_trajectories": "4", "t_final": "1.0",
               "t_final_ensemble": "0.1", "thinning": "20"},
        expected=("noise.NoiseSource.increment_matrix", "grid.SpectralBasis.to_spectral",
                  "grid.SpectralBasis.from_spectral", "integrator._advance",
                  "integrator.step", "integrator.run_trajectory",
                  "integrator.run_ensemble", "observables.time_average_single",
                  "observables.time_average_ensemble",
                  "observables.TimeAverageObserver.__call__", "observables.phi_test",
                  "observables.g_functional", "experiments.run_ergodic_study",
                  "output.write_csv", "cli.main")),
}
