"""Smoke test of the benchmark itself: python3 -m pytest -q bench/test_bench.py

Runs every workload at tiny size in both modes and checks that every metric
BENCHMARK.json names is printed, by name and with its unit, and that the
result line follows the benchmark's output format.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(line.startswith(f"{workload} {metric['name']} = ")
                   and f" {metric['unit']}" in line for line in lines[:-1]), metric
    assert any(line.startswith(f"{workload} failed_frac = 0 frac") for line in lines)
    assert lines[0].startswith("env ")


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "temporal", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_missing_boundary_fails_loudly(monkeypatch):
    import tracer

    monkeypatch.setattr(tracer, "BOUNDARIES",
                        tracer.BOUNDARIES + (("integrator.no_such_function", "integrator.kernel"),))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    with pytest.raises(tracer.BoundaryError, match="no_such_function"):
        tracer.Tracer().install()
