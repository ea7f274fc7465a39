"""The benchmark's workloads give the same bits through the CLI.

Each workload of ``bench/workloads.py`` runs its smoke configuration through
``schsim.cli.main`` with ``--deterministic`` at the workload's own
``--threads``, and every result value in its CSV files (errors, pair rates
and the slope of a convergence study; estimates and running averages of the
ergodic study) must equal a float-hex pin.  The pins were recorded before the
noise producer was vectorized and the step kernel's constants precomputed,
both of which must leave every bit in place; the benchmark itself checks its
results only at full size.
"""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

from schsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEED = 2
RESULT_COLUMNS = ("error", "pair_rate", "estimate", "running_average")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()

PINS = {
    "temporal": {
        "convergence_time.csv": {
            "error": ["0x1.a775ae796cb56p-4", "0x1.b5f143ddfececp-4", "0x1.efe4324a55185p-4",
                      "0x1.819be3dddb2e0p-4", "0x1.2509cfcd8d9adp-4"],
            "pair_rate": ["-0x1.8d72b7d01a4dbp-5", "-0x1.6f2be1322e157p-3",
                          "0x1.73984c91fc388p-2", "0x1.958de89c4d583p-2"],
            "slope": ["0x1.fe4f49461b0e9p-4"],
        },
    },
    "spatial": {
        "convergence_space.csv": {
            "error": ["0x1.0ffa0d92924eap-2", "0x1.6172268667cdbp-3", "0x1.1f16cddcb7b6fp-4"],
            "pair_rate": ["0x1.3e76002adeb92p-1", "0x1.4ccc351caa4f5p+0"],
            "slope": ["0x1.ec07353219ac0p-1"],
        },
    },
    "ergodic": {
        "ergodic_ensemble_0.csv": {
            "running_average": ["0x0.0p+0", "0x1.c1dd1c16839dfp-3"],
        },
        "ergodic_ensemble_1.csv": {
            "running_average": ["-0x1.98f4ab5846b26p+0", "-0x1.71c91f220d1a0p+0"],
        },
        "ergodic_single_0.csv": {
            "running_average": [
                "-0x1.0000000000000p-48", "0x1.e4a4c92200a20p-1", "0x1.66da6c977bc54p+0",
                "0x1.424ad404ab80dp+0", "0x1.516d00fe7d3a3p+0", "0x1.36500c3f3d786p+0",
                "0x1.6a48f61a5aee9p-1", "0x1.d69a9f103e6b7p-2", "0x1.45a35d7c11c20p-2",
                "0x1.b3a9e938b4b70p-3", "0x1.a17fc35290441p-4"],
        },
        "ergodic_single_1.csv": {
            "running_average": [
                "-0x1.98f4ab5846b27p+0", "-0x1.6f51e00374479p+0", "-0x1.2468031231ffap-2",
                "-0x1.400233b1e8deep-1", "-0x1.7e5cb6fb3d238p-5", "0x1.55e61e8e46562p-2",
                "0x1.282e90b4d913fp-1", "0x1.5c14807e073e0p-1", "0x1.7237c097124aep-1",
                "0x1.931650a74fafdp-1", "0x1.c26cb45e1c5abp-1"],
        },
        "ergodic_summary.csv": {
            "estimate": ["0x1.a17fc35290441p-4", "0x1.c1dd1c16839dfp-3",
                         "0x1.c26cb45e1c5abp-1", "-0x1.71c91f220d1a0p+0"],
        },
    },
}


def result_values(path: Path) -> dict[str, list[str]]:
    """Float-hex of every result value in one CSV file, by column."""
    lines = path.read_text(encoding="utf-8").splitlines()
    values: dict[str, list[str]] = {}
    for row in csv.DictReader(line for line in lines if not line.startswith("#")):
        for column in RESULT_COLUMNS:
            if row.get(column):
                values.setdefault(column, []).append(float(row[column]).hex())
    for line in lines:
        if line.startswith("# slope = "):
            values["slope"] = [float(line.split(" = ", 1)[1]).hex()]
    return values


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_config_results_match_pins(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text(SEED, smoke=True), encoding="utf-8")
    out = tmp_path / "out"
    assert main(workload.argv(config) + ["--out", str(out), "--deterministic"]) == 0
    found = {path.name: result_values(path) for path in sorted(out.glob("*.csv"))}
    assert found == PINS[name]
