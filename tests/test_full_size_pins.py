"""The coupled workloads keep every bit of their errors at full size.

``bench/references.json`` holds the benchmark's results only to 1e-9
relative, and the smoke configurations of ``tests/test_workload_pins.py``
never build the shapes that only full size has: the spatial study's
N_ref = 256 level stack, with a semigroup factor flushed from a subnormal
double to 0.0, and temporal rungs whose live modes stop short of N.  So
``temporal`` and ``spatial`` run here at full size through
``schsim.cli.main``, with ``--deterministic`` at the workload's own
``--threads`` and seed 2, and every error must equal a float-hex pin.  A
last-bit change in the step kernel or the level stack moves one of them.

``ergodic`` runs the same way, and its four estimates and each history
file's last running average must equal float-hex pins: at its N = 64,
tau = 5e-3 only 21 of the 64 modes are live, a shape the smoke size (all
modes live) never builds on the single and ensemble paths.  A ``simulate``
run at that shape must write the pinned bytes (sha256) of its
``trajectory.csv`` and checkpoint; the checkpoint prints the dead modes'
coefficients, zeros whose sign no other output shows.
"""

import csv
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from schsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SEED = 2


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()

PINS = {
    "temporal": ["0x1.37b4b6ff52ad6p-3", "0x1.6571746dc1e35p-3", "0x1.073370ccca8f4p-3",
                 "0x1.bde14cded8e92p-4", "0x1.4d0a12bb72e79p-4"],
    "spatial": ["0x1.ee4468052dc78p-3", "0x1.03075a9b0a9b2p-3", "0x1.d6b024cbf5398p-5",
                "0x1.8e22768bab708p-6"],
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_full_size_errors_match_pins(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text(SEED), encoding="utf-8")
    out = tmp_path / "out"
    assert main(workload.argv(config) + ["--out", str(out), "--deterministic"]) == 0
    assert [value.hex() for value in workload.results(out).values()] == PINS[name]


ERGODIC_PINS = {
    "estimate": ["0x1.77e3fc9b1c4b8p-3", "0x1.725f6a6455158p-4", "0x1.25801336ec732p-3",
                 "0x1.2c499bcead049p-5"],
    "ergodic_ensemble_0.csv": "0x1.725f6a6455158p-4",
    "ergodic_ensemble_1.csv": "0x1.2c499bcead049p-5",
    "ergodic_single_0.csv": "0x1.77e3fc9b1c4b8p-3",
    "ergodic_single_1.csv": "0x1.25801336ec732p-3",
}


def test_full_size_ergodic_matches_pins(tmp_path, capsys):
    workload = WORKLOADS["ergodic"]
    config = tmp_path / "run.cfg"
    config.write_text(workload.config_text(SEED), encoding="utf-8")
    out = tmp_path / "out"
    assert main(workload.argv(config) + ["--out", str(out), "--deterministic"]) == 0
    found = {"estimate": [value.hex() for value in workload.results(out).values()]}
    for path in sorted(out.glob("ergodic_*_*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        found[path.name] = float(rows[-1]["running_average"]).hex()
    assert found == ERGODIC_PINS


SIMULATE = """command = simulate
seed = 2
n_modes = 64
tau = 0.005
t_final = 1.0
sigma = 1.0
drift_a0 = 0.5
drift_a1 = -0.5
drift_a2 = 1.0
drift_a3 = -1.0
initial = (1/3)*cos(x)+1/3
snapshot_every = 50
checkpoint_out = run.ckpt
"""

SIMULATE_SHA256 = {
    "out/trajectory.csv": "0bdf574f5b9588140b661b17b60fc91d4d7311d740d84636beec55b6a503e45b",
    "run.ckpt": "601e4e3127ba8dd0d197187511305b23bdd09962d5c4467db6fcb14ce1b9e814",
}


def test_simulate_bytes_match_pins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the echoed checkpoint path is relative
    Path("run.cfg").write_text(SIMULATE, encoding="utf-8")
    assert main(["simulate", "--config", "run.cfg", "--out", "out", "--deterministic"]) == 0
    assert "-0.0" in Path("run.ckpt").read_text(encoding="utf-8").split()
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest()
            for name in SIMULATE_SHA256} == SIMULATE_SHA256
