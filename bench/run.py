"""schsim benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload {temporal,spatial,ergodic} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the package is imported from the ``src/`` directory next
to this one.  Every workload run is a fresh process (child.py) with BLAS
pinned to one thread.  ``--trace 0`` repeats untraced runs until ``--seconds``
have passed and reports the end-to-end metrics of BENCHMARK.json as medians;
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics.  Every run's output is checked.  Human-readable lines come first;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run records and spans go to
``.bench_runs/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

MIN_REPS = 3             # untraced runs per --trace 0 run, however short --seconds is
MIN_TRACED_PAIRS = 2     # untraced/traced pairs per --trace 1 run
CHILD_TIMEOUT_S = 150
# Timings are scaled by CALIBRATION_REF_S / (the child's calibration time) to
# take out the machine's speed changes; 0.04 s is roughly the calibration
# kernel's time on an unloaded core of a 2-vCPU Xeon VM.
CALIBRATION_REF_S = 0.04
# Count metrics that must repeat exactly between traced runs.  output.bytes
# is left out: the CSV metadata carries wall-clock fields.
EXACT_COUNTS = ("noise.calls", "noise.raw_draws", "grid.transform_calls",
                "grid.columns", "integrator.kernel_calls", "integrator.traj_steps",
                "integrator.step_calls", "observables.calls")


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a valid result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    for var in [v for v in env if v.startswith("SCHSIM_")]:
        del env[var]   # the generated config file is the only input
    return env


def _spawn(run_dir: Path, config_path: Path, argv: list[str] | None = None,
           threads: int = 1, spans: Path | None = None) -> tuple[dict | None, str]:
    """Run child.py once; returns (its result or None, log tail)."""
    rep = run_dir / "rep"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir()
    cmd = [sys.executable, str(BENCH / "child.py"), "--root", str(ROOT),
           "--config", str(config_path), "--result", str(rep / "result.json")]
    if argv is not None:
        cmd += ["--argv", json.dumps(argv + ["--out", str(rep / "out")]),
                "--threads", str(threads)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    log_path = rep / "log.txt"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=_child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
    tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
    if proc.returncode != 0:
        return None, f"exit code {proc.returncode}: {tail}"
    return json.loads((rep / "result.json").read_text(encoding="utf-8")), tail


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        deps = config.CONFIG["Build Dependencies"]
        entry = deps.get("blas", {})
        return f"{entry.get('name', '?')} {entry.get('version', '?')}"

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        lines = top.stdout.split()
        commit = lines[1] if Path(lines[0]).resolve() == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha1": digest.hexdigest(),
            "nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy.__config__), "scipy_blas": blas(scipy.__config__),
            "seed": seed}


def _scaled(seconds: float, calibrations: list[float]) -> float:
    return seconds * CALIBRATION_REF_S / statistics.fmean(calibrations)


def _setup_s(result: dict) -> float:
    return _scaled(result["setup_s"], [result["setup_calibration_s"]])


def _wall_s(result: dict) -> float:
    return _scaled(result["wall_s"], result["calibration_s"])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _layer_metrics(summary: dict, workload, smoke: bool) -> dict[str, float]:
    per = summary["boundaries"]
    layers = summary["layers"]

    def total(field: str, *wanted: str) -> float:
        return sum(entry[field] for name, entry in per.items() if layers[name] in wanted)

    studies = [name for name in per if name.startswith("experiments.run_")]
    study_span = sum(per[name]["total_s"] for name in studies)
    busy = total("total_s", "experiments.work")
    raw = summary["raw_draws"]
    return {
        "noise.self_s": total("self_s", "noise"),
        "noise.calls": total("calls", "noise"),
        "noise.raw_draws": raw,
        "noise.useful_ratio": workload.needed_increments(smoke) / raw if raw else 0.0,
        "grid.analysis_s": total("self_s", "grid.analysis"),
        "grid.synthesis_s": total("self_s", "grid.synthesis"),
        "grid.transform_calls": total("calls", "grid.analysis", "grid.synthesis"),
        "grid.columns": total("extra", "grid.analysis", "grid.synthesis"),
        "integrator.kernel_s": total("self_s", "integrator.kernel"),
        "integrator.kernel_calls": total("calls", "integrator.kernel"),
        "integrator.traj_steps": total("extra", "integrator.kernel"),
        "integrator.driver_s": total("self_s", "integrator.driver"),
        "integrator.step_calls": per["integrator.step"]["calls"],
        "observables.self_s": total("self_s", "observables"),
        "observables.calls": total("calls", "observables"),
        "experiments.self_s": total("self_s", "experiments", "experiments.work"),
        "experiments.thread_busy_frac": busy / (workload.threads * study_span),
        "output.write_s": total("total_s", "output"),
        "output.bytes": total("extra", "output"),
    }


def _check_boundaries(summary: dict, workload) -> None:
    silent = [name for name in workload.expected
              if summary["boundaries"][name]["calls"] == 0]
    if silent:
        raise BenchmarkError(f"traced boundaries saw no call on {workload.name}: "
                             f"{', '.join(silent)}; the benchmark needs updating")
    if summary["raw_draws"] == 0:
        raise BenchmarkError("no Philox words were counted; the noise counter "
                             "no longer sees the generator")


def _measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
             run_dir: Path, references: dict | None) -> dict:
    config_path = run_dir / "config.txt"
    config_path.write_text(workload.config_text(seed, smoke), encoding="utf-8")
    argv = workload.argv(config_path)
    record = {"attempted": 0, "failed": 0, "problems": [], "setup": [],
              "untraced": [], "traced": [], "values_hex": None}

    def attempt(spans: Path | None) -> dict | None:
        record["attempted"] += 1
        result, log = _spawn(run_dir, config_path, argv, workload.threads, spans)
        problems = [log] if result is None else []
        if result is not None:
            try:
                values = workload.results(run_dir / "rep" / "out")
            except (OSError, KeyError, ValueError) as exc:
                values, problems = {}, [f"unreadable output: {exc!r}"]
            problems += workload.check(values, seed, smoke, references)
            if record["values_hex"] is None:
                record["values_hex"] = {k: v.hex() for k, v in values.items()}
                record["values"] = values
        if problems:
            record["failed"] += 1
            record["problems"].append(problems)
            print(f"run {record['attempted']} failed: {'; '.join(problems)}", file=sys.stderr)
            return None
        record["setup"].append(result)
        return result

    warm, log = _spawn(run_dir, config_path)  # fills the bytecode cache
    if warm is None:
        raise BenchmarkError(f"set-up failed: {log}")
    min_reps = MIN_TRACED_PAIRS if trace else (1 if smoke else MIN_REPS)
    deadline = time.monotonic() + seconds
    while True:
        result = attempt(None)
        if result is not None:
            record["untraced"].append(result)
        if trace:
            result = attempt(run_dir / "spans.npz")
            if result is not None:
                record["traced"].append(result)
        else:  # a set-up-only process between runs doubles the set-up samples
            sample, log = _spawn(run_dir, config_path)
            if sample is None:
                raise BenchmarkError(f"set-up failed: {log}")
            record["setup"].append(sample)
        done = len(record["traced" if trace else "untraced"])
        if record["failed"] > 3 and done == 0:
            raise BenchmarkError(f"every run failed: {record['problems'][-1]}")
        if time.monotonic() >= deadline and (done >= min_reps or record["failed"] > 3):
            break
    if not record["untraced"]:
        raise BenchmarkError(f"every untraced run failed: {record['problems'][-1]}")
    return record


def _end_to_end(record: dict) -> dict[str, float]:
    runs = record["untraced"]
    return {"wall_s": statistics.median(_wall_s(r) for r in runs),
            "setup_s": statistics.median(_setup_s(r) for r in record["setup"]),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}


def _per_layer(record: dict, workload, smoke: bool, references: dict | None,
               seed: int) -> dict[str, float]:
    traced = [r["trace"] for r in record["traced"]]
    for summary in traced:
        _check_boundaries(summary, workload)
    each = [_layer_metrics(summary, workload, smoke) for summary in traced]
    for name in EXACT_COUNTS:
        if len({m[name] for m in each}) != 1:
            raise BenchmarkError(f"{name} differs between traced runs: "
                                 f"{[m[name] for m in each]}")
    metrics = {}
    for name in each[0]:
        values = [m[name] for m in each]
        metrics[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    untraced_wall = statistics.median(_wall_s(r) for r in record["untraced"])
    traced_wall = statistics.median(_wall_s(r) for r in record["traced"])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    bitexact = 0
    if references is not None and seed == REFERENCE_SEED:
        bitexact = sum(record["values_hex"].get(name) == float.fromhex(ref).hex()
                       for name, ref in references.items())
    metrics["check.bitexact_results"] = bitexact
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and the fewest runs, for the benchmark's own test")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "schsim" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} lacks src/schsim or BENCHMARK.json; nothing to benchmark",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    references = None
    if not args.smoke:
        stored = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
        references = stored.get(workload.name)
    run_dir = ROOT / ".bench_runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    env = _environment(args.seed)
    print("env " + json.dumps(env))
    try:
        record = _measure(workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke, run_dir, references)
        if args.trace:
            metrics = _per_layer(record, workload, args.smoke, references, args.seed)
        else:
            metrics = _end_to_end(record)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1

    runs = record["traced" if args.trace else "untraced"]
    failed_frac = record["failed"] / record["attempted"]
    timings = {"wall_s": (runs, _wall_s), "setup_s": (record["setup"], _setup_s)}
    for m in wanted:
        line = f"{workload.name} {m['name']} = {metrics[m['name']]:.6g} {m['unit']}"
        if m["name"] in timings:
            results, scaled = timings[m["name"]]
            q1, q3 = _quartiles([scaled(r) for r in results])
            unscaled = statistics.median(r[m["name"]] for r in results)
            line += (f"  (median of {len(results)}; q1 {q1:.6g}, q3 {q3:.6g};"
                     f" unscaled median {unscaled:.6g} s)")
        print(line)
    print(f"{workload.name} failed_frac = {failed_frac:.6g} frac  "
          f"({record['failed']} of {record['attempted']} runs)")

    out = {"correct": record["failed"] == 0, "attempted": record["attempted"],
           "failed": record["failed"],
           "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                       for m in wanted}}
    (run_dir / "result.json").write_text(json.dumps(
        {"env": env, "workload": workload.name, "trace": args.trace,
         "config": workload.config_text(args.seed, args.smoke),
         "failed_frac": failed_frac, "record": record, "result": out},
        indent=1, default=str), encoding="utf-8")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
