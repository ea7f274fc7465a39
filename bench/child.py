"""One workload run in a fresh process, started by run.py.

The clock starts before ``schsim`` (and with it numpy and scipy) is
imported, so ``setup_s`` is the cost a user pays before a run starts:
importing the package and parsing the config.  ``wall_s`` is the CLI call,
up to its CSV files being written.  The result goes to the ``--result``
file as JSON; the CLI's own output goes to this process's stdout.

Around the timed parts the process runs a fixed calibration kernel that uses
nothing from ``schsim``; run.py divides by its time to take out the machine's
speed changes (see README.md).
"""

import sys
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def calibrate(threads: int = 1) -> float:
    """Seconds for a fixed mix of interpreter, small-array numpy and scipy
    special-function work, the kinds of work the workloads do.  With several
    threads, each runs the mix at once, so the calibration uses as many cores
    as the workload it scales; the time returned is then per mix."""
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for future in [pool.submit(calibrate) for _ in range(threads)]:
                future.result()
        return (time.perf_counter() - start) / threads
    import numpy as np
    from scipy.special import ndtri

    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(key=12345))
    matrix = rng.standard_normal((64, 64)) / 8.0
    uniform = rng.uniform(size=100_000)
    total = 0
    for k in range(200_000):
        total += k * k
    vector = np.ones(64)
    for _ in range(8_000):
        vector = np.tanh(matrix @ vector)
    ndtri(uniform).sum()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--argv", help="CLI arguments as a JSON list; omit to time set-up only")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    parser.add_argument("--threads", type=int, default=1, help="the workload's thread count")
    args = parser.parse_args()

    import schsim
    import schsim.cli
    import schsim.config

    src = (Path(args.root) / "src").resolve()
    package = Path(schsim.__file__).resolve()
    if src not in package.parents:
        print(f"error: imported schsim from {package}, not from {src}", file=sys.stderr)
        return 3
    schsim.config.parse_config(Path(args.config).read_text(encoding="utf-8"))
    result = {"setup_s": time.perf_counter() - _START, "setup_calibration_s": calibrate()}

    if args.argv is not None:
        tracer = None
        if args.spans:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        before = result["setup_calibration_s"] if args.threads == 1 else calibrate(args.threads)
        start = time.perf_counter()
        code = schsim.cli.main(json.loads(args.argv))
        result["wall_s"] = time.perf_counter() - start
        result["calibration_s"] = [before, calibrate(args.threads)]
        if code != 0:
            print(f"error: schsim exited with code {code}", file=sys.stderr)
            return code
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.save(args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
