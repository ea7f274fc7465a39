"""Flat key=value run configuration: strict parsing, canonical serialization.

The format is one ``key = value`` pair per line; blank lines and ``#``
comments are ignored.  Parsing is strict -- unknown keys, duplicates, type
errors and domain violations are all collected and reported together rather
than one at a time.  ``serialize_config`` emits a canonical echo (every
defaulted value made explicit, floats via shortest round-trip repr) whose
re-parse reproduces the configuration exactly; output files embed this echo in
their metadata header.  ``format_value`` and ``parse_pairs`` are the package's
only writer of values as text and only reader of ``key = value`` lines: CSV
cells and checkpoint headers go through them too.

Environment variables with the ``SCHSIM_`` prefix override file values (e.g.
``SCHSIM_SEED=7`` overrides ``seed``); command-line flags override both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .expressions import validate_expression
from .observables import MIN_ALPHA2

__all__ = ["RunConfig", "ConfigError", "parse_pairs", "build_config",
           "parse_config", "serialize_config", "format_value", "ENV_PREFIX",
           "COMMANDS"]

ENV_PREFIX = "SCHSIM_"
COMMANDS = ("simulate", "converge-time", "converge-space", "ergodic", "verify")

# The dense N x N basis peaks at about 40 N^2 bytes while it is built
# (tracemalloc: 42 MB at N = 1024, 168 MB at N = 2048), so N = 4096 needs
# about 0.67 GB; a larger mode count is refused before any memory is asked for.
_MAX_MODES = 4096


class ConfigError(Exception):
    """Carries every validation problem found in one pass."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


@dataclass
class RunConfig:
    command: str
    seed: int = 0
    deterministic: bool = False
    n_modes: int = 64
    tau: float | None = None
    sigma: float = 1.0
    drift_a0: float = 0.5
    drift_a1: float = -0.5
    drift_a2: float = 1.0
    drift_a3: float = -1.0
    validation_mode: bool = False
    initial: str | None = None
    t_final: float | None = None
    trajectory_id: int = 0
    tau_fine: float | None = None
    snapshot_every: int = 0
    checkpoint_in: str = ""
    checkpoint_out: str = ""
    tau_ref: float | None = None
    tau_ladder: tuple[float, ...] | None = None
    n_modes_ref: int | None = None
    n_modes_ladder: tuple[int, ...] | None = None
    n_trajectories: int = 50
    estimator: str = "both"
    t_final_ensemble: float | None = None
    initials: tuple[str, ...] | None = None
    test_v: str = "exp(x)"
    test_alpha1: float = 1.0
    test_alpha2: float = 2.0
    burn_in: float = 0.0
    thinning: int = 1


def _to_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _to_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _to_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {text!r}")


def _to_expr(text: str) -> str:
    validate_expression(text)
    return text.strip()


def _list_of(convert, sep: str | None, what: str):
    """A converter for a ``sep``-separated (None: blank-separated) list."""
    def to_list(text: str) -> tuple:
        parts = [p.strip() for p in text.split(sep) if p.strip()]
        if not parts:
            raise ValueError(f"expected a {what}")
        return tuple(convert(p) for p in parts)
    return to_list


def _to_str(text: str) -> str:
    return text.strip()


_CONVERTERS = {
    "command": _to_str,
    "seed": _to_int,
    "deterministic": _to_bool,
    "n_modes": _to_int,
    "tau": _to_float,
    "sigma": _to_float,
    "drift_a0": _to_float,
    "drift_a1": _to_float,
    "drift_a2": _to_float,
    "drift_a3": _to_float,
    "validation_mode": _to_bool,
    "initial": _to_expr,
    "t_final": _to_float,
    "trajectory_id": _to_int,
    "tau_fine": _to_float,
    "snapshot_every": _to_int,
    "checkpoint_in": _to_str,
    "checkpoint_out": _to_str,
    "tau_ref": _to_float,
    "tau_ladder": _list_of(_to_float, ",", "comma-separated list of numbers"),
    "n_modes_ref": _to_int,
    "n_modes_ladder": _list_of(_to_int, ",", "comma-separated list of integers"),
    "n_trajectories": _to_int,
    "estimator": _to_str,
    "t_final_ensemble": _to_float,
    "initials": _list_of(_to_expr, ";", "semicolon-separated list of expressions"),
    "test_v": _to_expr,
    "test_alpha1": _to_float,
    "test_alpha2": _to_float,
    "burn_in": _to_float,
    "thinning": _to_int,
}

_REQUIRED = {
    "simulate": ("tau", "t_final", "initial"),
    "converge-time": ("t_final", "tau_ref", "tau_ladder", "initial"),
    "converge-space": ("t_final", "tau", "n_modes_ref", "n_modes_ladder", "initial"),
    "ergodic": ("tau", "t_final", "initials"),
    "verify": (),
}
_REQUIRED_RESUMED = ("t_final",)  # a simulate run with checkpoint_in set


def parse_pairs(text: str) -> dict[str, str]:
    """Split config text into a raw key -> value string map (strict)."""
    errors = []
    pairs: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            errors.append(f"line {lineno}: missing key before '='")
            continue
        if key in pairs:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        pairs[key] = value
    if errors:
        raise ConfigError(errors)
    return pairs


def apply_env_overrides(pairs: dict[str, str], environ) -> dict[str, str]:
    """Overlay SCHSIM_<KEY> environment variables onto raw pairs."""
    merged = dict(pairs)
    for key in _CONVERTERS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in environ:
            merged[key] = environ[env_name]
    return merged


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Convert raw pairs into a validated RunConfig, reporting all errors."""
    errors = []
    values: dict[str, object] = {}
    for key, raw in pairs.items():
        converter = _CONVERTERS.get(key)
        if converter is None:
            errors.append(f"unknown key {key!r}")
            continue
        try:
            values[key] = converter(raw)
        except ValueError as exc:
            errors.append(f"key {key!r}: {exc}")

    command = values.get("command")
    if "command" not in pairs:
        errors.append("missing required key 'command'")
    elif command not in COMMANDS:
        errors.append(f"key 'command': must be one of {', '.join(COMMANDS)}, got {command!r}")
        command = None

    cfg = RunConfig(command="verify")
    for key, value in values.items():
        if key != "command":
            setattr(cfg, key, value)
    if command is not None:
        cfg.command = command

    # domain checks (collected, not short-circuited)
    def check(cond: bool, message: str) -> None:
        if not cond:
            errors.append(message)

    check(0 <= cfg.seed < 2**64, f"key 'seed': must be in [0, 2^64), got {cfg.seed}")
    modes = [("n_modes", cfg.n_modes), ("n_modes_ref", cfg.n_modes_ref),
             *(("n_modes_ladder", n) for n in cfg.n_modes_ladder or ())]
    for name, n in modes:
        if n is not None:
            check(2 <= n <= _MAX_MODES, f"key {name!r}: must lie in [2, {_MAX_MODES}], got {n}")
    check(cfg.sigma >= 0, f"key 'sigma': must be nonnegative, got {cfg.sigma}")
    check(cfg.drift_a0 >= 0, f"key 'drift_a0': must be nonnegative, got {cfg.drift_a0}")
    if cfg.drift_a0 == 0 and not cfg.validation_mode:
        errors.append("key 'drift_a0': zero leading coefficient requires validation_mode = true")
    for name in ("tau", "tau_ref", "tau_fine"):
        value = getattr(cfg, name)
        if value is not None:
            check(0 < value < 1, f"key {name!r}: must lie in (0, 1), got {value}")
    for name in ("t_final", "t_final_ensemble"):
        value = getattr(cfg, name)
        if value is not None:
            check(value > 0, f"key {name!r}: must be positive, got {value}")
    check(0 <= cfg.trajectory_id < 2**64,
          f"key 'trajectory_id': must be in [0, 2^64), got {cfg.trajectory_id}")
    check(cfg.snapshot_every >= 0,
          f"key 'snapshot_every': must be nonnegative, got {cfg.snapshot_every}")
    check(cfg.n_trajectories >= 1,
          f"key 'n_trajectories': must be positive, got {cfg.n_trajectories}")
    check(cfg.estimator in ("single", "ensemble", "both"),
          f"key 'estimator': must be single, ensemble or both, got {cfg.estimator!r}")
    check(abs(cfg.test_alpha2) >= MIN_ALPHA2, f"key 'test_alpha2': must be at least "
          f"{MIN_ALPHA2:.3g} in magnitude, or phi's bound underflows; got {cfg.test_alpha2!r}")
    check(cfg.burn_in >= 0, f"key 'burn_in': must be nonnegative, got {cfg.burn_in}")
    check(cfg.thinning >= 1, f"key 'thinning': must be positive, got {cfg.thinning}")
    if cfg.tau_ladder is not None:
        for tau in cfg.tau_ladder:
            check(0 < tau < 1, f"key 'tau_ladder': entries must lie in (0, 1), got {tau}")

    if command is not None:
        required = _REQUIRED[command]
        if command == "simulate" and cfg.checkpoint_in:
            required = _REQUIRED_RESUMED  # the checkpoint supplies tau and the state
        for key in required:
            if getattr(cfg, key) is None:
                errors.append(f"command {command!r} requires key {key!r}")

    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse and validate config text in one call."""
    return build_config(parse_pairs(text))


def format_value(value) -> str:
    """A setting or result value as text: None empty, bools true/false, real
    floats (numpy's too) by shortest round-trip repr, tuples as config lists."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        if value and isinstance(value[0], str):
            return "; ".join(value)
        return ",".join(map(format_value, value))
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical echo: every non-None key, declaration order, one per line."""
    lines = []
    for field in dataclass_fields(RunConfig):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        lines.append(f"{field.name} = {format_value(value)}")
    return "\n".join(lines) + "\n"
