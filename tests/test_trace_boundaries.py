"""The benchmark's traced boundaries still exist and still see calls.

``bench/run.py --trace 1`` wraps named functions of the package
(``bench/tracer.py``) and fails when one is missing or silent, so a refactor
that renames or bypasses a boundary breaks the benchmark.  This test runs
every workload's smoke configuration under the tracer and checks each
workload's expected boundaries and its Philox word count, and on ``ergodic``
the counts that show its single runs advance in lockstep: one ``step`` and
one ``_advance`` per step for all of them, and one observer call per state.  It runs in a
subprocess because the tracer patches module and class attributes
(``ThreadPoolExecutor.map`` for the whole class) for the life of a process.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# ergodic smoke (N = 16, tau = 5e-3): its 2 single runs of 200 steps advance
# in lockstep, then 2 ensembles of 4 trajectories take 20 steps each; so 200
# + 2 x 20 steps, 201 + 2 x 21 observed states and 2 + 2 x 4 source blocks
_ERGODIC_CALLS = {
    "integrator.step": 240,
    "integrator._advance": 240,
    "observables.TimeAverageObserver.__call__": 243,
    "noise.NoiseSource.increment_matrix": 10,
}

_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
from tracer import Tracer
from workloads import WORKLOADS
import schsim.cli

tracer = Tracer()
tracer.install()
report = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, workload in WORKLOADS.items():
        before = {k: v["calls"] for k, v in tracer.summary()["boundaries"].items()}
        draws = tracer.raw_draws
        config = Path(tmp) / f"{name}.cfg"
        config.write_text(workload.config_text(seed=1, smoke=True), encoding="utf-8")
        code = schsim.cli.main(workload.argv(config) + ["--out", str(Path(tmp) / name)])
        after = tracer.summary()["boundaries"]
        report[name] = {
            "code": code,
            "silent": [b for b in workload.expected if after[b]["calls"] == before[b]],
            "draws": tracer.raw_draws - draws,
            "calls": {b: after[b]["calls"] - before[b] for b in after},
        }
sys.stdout.write(json.dumps(report))
"""


def test_every_workload_boundary_sees_calls():
    path = [str(ROOT / "bench"), str(ROOT / "src")]
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {path!r}\n" + _SCRIPT],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(report) == {"temporal", "spatial", "ergodic"}
    for name, entry in report.items():
        assert entry["code"] == 0, name
        assert entry["silent"] == [], name
        assert entry["draws"] > 0, name
    calls = report["ergodic"]["calls"]
    assert {b: calls[b] for b in _ERGODIC_CALLS} == _ERGODIC_CALLS
    assert report["ergodic"]["draws"] == (2 * 200 + 8 * 20) * 15  # 15 noisy modes
