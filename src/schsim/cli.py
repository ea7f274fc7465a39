"""Command-line front end.

Subcommands: ``simulate``, ``converge-time``, ``converge-space``, ``ergodic``,
``verify``.  Each takes a flat key=value config file (``--config``) plus the
runtime flags ``--seed``, ``--out``, ``--threads``, ``--deterministic`` and
``--svg``.  Precedence: flags > SCHSIM_* environment variables > config file.
A ``simulate`` run resumed from ``checkpoint_in`` runs with the checkpoint's
scheme, drift and noise values and echoes them; setting one of those keys
to another value is a config error, and the checkpoint's values are checked
by ``config.build_config`` as a config file's are.
Deterministic mode writes timing fields as NA, so output files are
byte-reproducible from their own embedded config echo; ``--threads`` changes
no result in any mode and must be at least 1.

Failures are reported as single machine-readable lines ``error: <kind>: ...``
on stderr; exit code 2 flags config/usage problems, 1 runtime failures.
RuntimeWarnings raised during a run are held back until it ends: a run that
blows up drops them and prints only its error line, any other run re-emits
them.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointData, read_checkpoint, write_checkpoint
from .config import (_READERS, COMMANDS, ConfigError, RunConfig, apply_env_overrides,
                     build_config, format_value, parse_pairs, serialize_config)
from .experiments import (_initial_from_expression, run_ergodic_study,
                          run_spatial_study, run_temporal_study)
from .grid import SpectralBasis
from .integrator import (DriftSpec, HorizonError, SchemeParams,
                         TrajectoryBlowUpError, run_trajectory, state_from_coeffs,
                         whole_steps)
from .noise import NoiseSource
from .output import write_csv, write_svg_line_chart
from .verify import run_all_checks

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schsim",
        description="Tamed exponential Euler solver and experiment harness for "
                    "the stochastic Cahn-Hilliard equation on (0, pi).")
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "simulate": "integrate one trajectory, with optional snapshots and checkpoints",
        "converge-time": "temporal refinement study against a fine-step reference",
        "converge-space": "spatial refinement study against a fine-grid reference",
        "ergodic": "long-run averages of the bounded test function",
        "verify": "run the built-in invariant suite",
    }
    for name in COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--config", help="key=value configuration file")
        cmd.add_argument("--seed", type=int, help="override the config seed")
        cmd.add_argument("--out", default=".", help="output directory (default: .)")
        cmd.add_argument("--threads", type=int, default=1,
                         help="thread pool for convergence studies; changes no result (default: 1)")
        cmd.add_argument("--deterministic", action="store_true",
                         help="NA timings, for byte-reproducible outputs")
        cmd.add_argument("--svg", action="store_true", help="also emit SVG charts")
    return parser


def _load_config(args) -> tuple[RunConfig, set[str]]:
    """The run's config and the keys set explicitly (file, environment or flag)."""
    text = ""
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError([f"--config {args.config}: {exc.strerror or exc}"]) from None
        except UnicodeDecodeError as exc:
            raise ConfigError([f"--config {args.config}: not UTF-8 text: {exc}"]) from None
    pairs = parse_pairs(text)
    pairs = apply_env_overrides(pairs, os.environ)
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    if args.deterministic:
        pairs["deterministic"] = "true"
    if "command" in pairs and pairs["command"] != args.command:
        raise ConfigError([f"key 'command': set to {pairs['command']!r}, but the "
                           f"{args.command!r} subcommand was invoked"])
    pairs["command"] = args.command
    return build_config(pairs), set(pairs)


def _drift(cfg: RunConfig) -> DriftSpec:
    return DriftSpec(cfg.drift_a0, cfg.drift_a1, cfg.drift_a2, cfg.drift_a3,
                     validation_mode=cfg.validation_mode)


def _resumed_config(cfg: RunConfig, explicit: set[str], data: CheckpointData) -> RunConfig:
    """The config of a run resumed from ``data``: the checkpoint's scheme,
    drift and noise values are the ones that run, so they replace the
    config's in the echo: every checkpoint field that is a config key, and
    ``drift`` as its four keys.  A key set explicitly to another value is an
    error; the merged values are checked by ``build_config`` as a config
    file's are."""
    stored = {}
    for f in fields(data):
        if f.name == "drift":
            stored.update(zip(("drift_a0", "drift_a1", "drift_a2", "drift_a3"), data.drift))
        elif f.name in _READERS:
            stored[f.name] = getattr(data, f.name)
    clashes = [f"key {key!r}: set to {getattr(cfg, key)!r}, but the checkpoint "
               f"{cfg.checkpoint_in!r} was written with {value!r}"
               for key, value in stored.items()
               if key in explicit and getattr(cfg, key) != value]
    if clashes:
        raise ConfigError(clashes)
    merged = vars(cfg) | stored
    return build_config({key: format_value(value) for key, value in merged.items()
                         if value is not None})


def _maybe_na(cfg: RunConfig, seconds: float) -> str:
    return "NA" if cfg.deterministic else format(seconds, ".3f")


def _cmd_simulate(cfg: RunConfig, explicit: set[str], out_dir: Path, want_svg: bool) -> int:
    data = read_checkpoint(cfg.checkpoint_in) if cfg.checkpoint_in else None
    if data is not None:
        cfg = _resumed_config(cfg, explicit, data)
    basis = SpectralBasis(cfg.n_modes)
    params = SchemeParams(basis, _drift(cfg), cfg.tau, cfg.sigma)
    tau_fine = cfg.tau_fine if cfg.tau_fine is not None else cfg.tau
    source = NoiseSource(cfg.seed, cfg.trajectory_id,
                         tau_fine=tau_fine, n_modes_max=cfg.n_modes - 1)
    state = (state_from_coeffs(params, data.step_index, data.coeffs) if data is not None
             else _initial_from_expression(params, cfg.initial, "initial"))
    n_total = whole_steps(cfg.t_final, params.tau, "t_final in steps of tau", key="t_final")
    if n_total < state.step_index:
        raise HorizonError(f"t_final corresponds to step {n_total}, but the "
                           f"checkpoint is already at step {state.step_index}", "t_final")
    snapshots: list[tuple[int, np.ndarray]] = []

    def observer(m, s):
        take = (cfg.snapshot_every > 0 and m % cfg.snapshot_every == 0)
        if take or m == n_total:
            snapshots.append((m, s.nodal))

    final = run_trajectory(params, state, source, n_total - state.step_index,
                           observers=(observer,))
    if cfg.checkpoint_out:
        write_checkpoint(cfg.checkpoint_out, params, final, source)

    echo = serialize_config(cfg)
    rows = [(m * params.tau, x, value)
            for m, u in snapshots for x, value in zip(basis.grid, u)]
    write_csv(out_dir / "trajectory.csv", ("t", "x", "value"), rows, echo,
              {"final_step": final.step_index})
    u_final = final.nodal
    print(f"simulate: {final.step_index} steps, mean {float(np.mean(u_final))!r}, "
          f"l2 norm {float(basis.norm(u_final, 'l2'))!r}")
    if want_svg:
        series = [(f"t={m * params.tau:g}", basis.grid, u) for m, u in snapshots]
        write_svg_line_chart(out_dir / "trajectory.svg", series,
                             "trajectory snapshots", "x", "u(x)")
    return 0


def _cmd_converge(cfg: RunConfig, out_dir: Path, want_svg: bool, threads: int) -> int:
    """``converge-time`` or ``converge-space``: the study gets exactly the keys
    it reads, and its table is written once, as CSV, as stdout lines and as an
    optional log-log chart of the positive errors against their rows' step
    parameters."""
    shared = dict(drift=_drift(cfg), sigma=cfg.sigma, t_final=cfg.t_final,
                  initial=cfg.initial, seed=cfg.seed,
                  n_trajectories=cfg.n_trajectories, threads=threads)
    if cfg.command == "converge-time":
        table = run_temporal_study(basis=SpectralBasis(cfg.n_modes), tau_ref=cfg.tau_ref,
                                   tau_ladder=cfg.tau_ladder, **shared)
    else:
        table = run_spatial_study(tau=cfg.tau, n_modes_ladder=cfg.n_modes_ladder,
                                  n_modes_ref=cfg.n_modes_ref, **shared)
    stem = f"convergence_{table.kind}"
    rows = [(row.tau, row.n_modes, row.error, row.pair_rate) for row in table.rows]
    write_csv(out_dir / f"{stem}.csv", ("tau", "n_modes", "error", "pair_rate"), rows,
              serialize_config(cfg), {"slope": table.slope,
                                      "wallclock_s": _maybe_na(cfg, table.wallclock_s)})
    print(f"{table.kind} refinement: slope {table.slope:.3f}")
    for row in table.rows:
        rate = "" if row.pair_rate is None else f", pair rate {row.pair_rate:.3f}"
        print(f"  tau={row.tau!r} n_modes={row.n_modes}: error {row.error:.6e}{rate}")
    # a rung equal to the reference has error 0, which a log axis cannot show
    charted = [row for row in table.rows if row.error > 0]
    if want_svg and charted:
        write_svg_line_chart(out_dir / f"{stem}.svg",
                             [("error", [row.step for row in charted],
                               [row.error for row in charted])],
                             f"{table.kind} refinement (slope {table.slope:.3f})",
                             "tau" if table.kind == "time" else "h", "mean-square error",
                             logx=True, logy=True)
    elif want_svg:
        print(f"{stem}.svg not written: no row has a positive error")
    return 0


def _cmd_ergodic(cfg: RunConfig, out_dir: Path, want_svg: bool) -> int:
    result = run_ergodic_study(
        basis=SpectralBasis(cfg.n_modes), drift=_drift(cfg), sigma=cfg.sigma, tau=cfg.tau,
        t_final=cfg.t_final, initials=cfg.initials, v_expr=cfg.test_v,
        alpha1=cfg.test_alpha1, alpha2=cfg.test_alpha2, estimator=cfg.estimator,
        n_trajectories=cfg.n_trajectories, t_final_ensemble=cfg.t_final_ensemble,
        seed=cfg.seed, burn_in=cfg.burn_in, thinning=cfg.thinning)
    echo = serialize_config(cfg)
    summary_rows = []
    for run in result.runs:
        stem = run.label.replace("[", "_").replace("]", "")
        write_csv(out_dir / f"ergodic_{stem}.csv", ("t", "running_average"),
                  run.history, echo, {"estimator": run.estimator,
                                      "initial": run.initial,
                                      "estimate": run.estimate})
        summary_rows.append((run.label, run.estimator, run.initial, run.estimate,
                             abs(run.estimate), run.n_samples,
                             _maybe_na(cfg, run.wallclock_s)))
        print(f"{run.label}: initial {run.initial!r} -> estimate {run.estimate:+.6f} "
              f"({run.n_samples} samples)")
    write_csv(out_dir / "ergodic_summary.csv",
              ("label", "estimator", "initial", "estimate", "abs_error_vs_zero",
               "n_samples", "wallclock_s"),
              summary_rows, echo)
    if want_svg:
        series = [(run.label, [t for t, _ in run.history],
                   [a for _, a in run.history]) for run in result.runs]
        write_svg_line_chart(out_dir / "ergodic.svg", series,
                             "running averages", "t", "time average")
    return 0


def _cmd_verify() -> int:
    results = run_all_checks()
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail}")
    failed = [res for res in results if not res.passed]
    print(f"verify: {len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = _run_command(args)
        except TrajectoryBlowUpError as exc:
            print(f"error: blow-up: {exc}", file=sys.stderr)
            # the overflow warnings that led to a blow-up only repeat its error
            caught = [w for w in caught if not issubclass(w.category, RuntimeWarning)]
            code = 1
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return code


def _run_command(args) -> int:
    """Run the parsed command and return its exit code; a blow-up
    propagates to ``main``."""
    try:
        cfg, explicit = _load_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(cfg, explicit, out_dir, args.svg)
        if args.command in ("converge-time", "converge-space"):
            return _cmd_converge(cfg, out_dir, args.svg, args.threads)
        if args.command == "ergodic":
            return _cmd_ergodic(cfg, out_dir, args.svg)
        return _cmd_verify()
    except ConfigError as exc:
        messages = exc.messages
    except HorizonError as exc:
        messages = [f"key {exc.key!r}: {exc}"]
    except (ValueError, OSError) as exc:
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 1
    for message in messages:
        print(f"error: config: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
