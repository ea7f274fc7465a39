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
"""

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
