"""Flat key=value run configuration: strict parsing, canonical serialization.

Each ``RunConfig`` field is the one declaration of its key: type, default,
reader and, where it has one, its own range (for a list, each entry's).
``build_config`` is the package's only builder of a ``RunConfig``: values
from a config file, the environment, the flags or a resumed run's checkpoint
all pass its readers, ranges and cross-key rules.

The format is one ``key = value`` pair per line; blank lines and ``#``
comments are ignored.  Parsing is strict -- unknown keys, duplicates, type
errors and domain violations are all collected and reported together rather
than one at a time.  ``serialize_config`` emits a canonical echo (every
defaulted value made explicit, floats via shortest round-trip repr) whose
re-parse reproduces the configuration exactly; output files embed this echo in
their metadata header.  So a value that its echo line would not read back,
one holding ``#`` or a line break (possible through the environment or a
flag), is a config error naming its key.  ``format_value`` and ``parse_pairs`` are the package's
only writer of values as text and only reader of ``key = value`` lines: CSV
cells and checkpoint headers go through them too.

Environment variables with the ``SCHSIM_`` prefix override file values (e.g.
``SCHSIM_SEED=7`` overrides ``seed``); command-line flags override both.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields

import numpy as np

from .expressions import validate_expression
from .experiments import _ENSEMBLE_ID_BASE as _MAX_INITIALS
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
# A batch of L trajectories of N modes holds about 125 (N + 64) L bytes at any
# horizon: a noise source per trajectory and N x L state, noise and difference
# arrays (max RSS over the import: 13.6 KB per trajectory at N = 64 and 39.5 KB
# at N = 256 in converge-time, 17.3 KB at N_ref = 256 in converge-space for L =
# 200..800 and t_final 0.25 or 1), so L (N + 64) <= 2^22 keeps a run near 0.5 GB.
_MAX_TRAJECTORY_WORK = 2**22


class ConfigError(Exception):
    """Carries every validation problem found in one pass."""

    def __init__(self, messages):
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


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


# single-key ranges: (predicate, phrase)
_WORD = (lambda v: 0 <= v < 2**64, "must be in [0, 2^64)")
_MODES = (lambda v: 2 <= v <= _MAX_MODES, f"must lie in [2, {_MAX_MODES}]")
_STEP = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_POSITIVE = (lambda v: v > 0, "must be positive")
_NONNEGATIVE = (lambda v: v >= 0, "must be nonnegative")
_ESTIMATORS = (lambda v: v in ("single", "ensemble", "both"),
               "must be single, ensemble or both")
_ALPHA2 = (lambda v: abs(v) >= MIN_ALPHA2,
           f"must be at least {MIN_ALPHA2:.3g} in magnitude, or phi's bound underflows")


def _key(default, read, valid=None):
    """A config key: its default, its reader and its own range, if any (for
    a list, the range of each entry)."""
    return field(default=default, metadata={"read": read, "valid": valid})


@dataclass
class RunConfig:
    command: str = _key(MISSING, _to_str)
    seed: int = _key(0, _to_int, _WORD)
    deterministic: bool = _key(False, _to_bool)
    n_modes: int = _key(64, _to_int, _MODES)
    tau: float | None = _key(None, _to_float, _STEP)
    sigma: float = _key(1.0, _to_float, _NONNEGATIVE)
    drift_a0: float = _key(0.5, _to_float, _NONNEGATIVE)
    drift_a1: float = _key(-0.5, _to_float)
    drift_a2: float = _key(1.0, _to_float)
    drift_a3: float = _key(-1.0, _to_float)
    validation_mode: bool = _key(False, _to_bool)
    initial: str | None = _key(None, _to_expr)
    t_final: float | None = _key(None, _to_float, _POSITIVE)
    trajectory_id: int = _key(0, _to_int, _WORD)
    tau_fine: float | None = _key(None, _to_float, _STEP)
    snapshot_every: int = _key(0, _to_int, _NONNEGATIVE)
    checkpoint_in: str = _key("", _to_str)
    checkpoint_out: str = _key("", _to_str)
    tau_ref: float | None = _key(None, _to_float, _STEP)
    tau_ladder: tuple[float, ...] | None = _key(
        None, _list_of(_to_float, ",", "comma-separated list of numbers"),
        (_STEP[0], "entries must lie in (0, 1)"))
    n_modes_ref: int | None = _key(None, _to_int, _MODES)
    n_modes_ladder: tuple[int, ...] | None = _key(
        None, _list_of(_to_int, ",", "comma-separated list of integers"), _MODES)
    n_trajectories: int = _key(50, _to_int, _POSITIVE)
    estimator: str = _key("both", _to_str, _ESTIMATORS)
    t_final_ensemble: float | None = _key(None, _to_float, _POSITIVE)
    initials: tuple[str, ...] | None = _key(
        None, _list_of(_to_expr, ";", "semicolon-separated list of expressions"))
    test_v: str = _key("exp(x)", _to_expr)
    test_alpha1: float = _key(1.0, _to_float)
    test_alpha2: float = _key(2.0, _to_float, _ALPHA2)
    burn_in: float = _key(0.0, _to_float, _NONNEGATIVE)
    thinning: int = _key(1, _to_int, _POSITIVE)


_READERS = {f.name: f.metadata["read"] for f in dataclass_fields(RunConfig)}  # key -> reader

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
    for key in _READERS:
        env_name = ENV_PREFIX + key.upper()
        if env_name in environ:
            merged[key] = environ[env_name]
    return merged


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Convert raw pairs into a validated RunConfig, reporting all errors."""
    errors = []
    values: dict[str, object] = {}
    failed = set()  # keys whose value its reader refused, reported once
    for key, raw in pairs.items():
        read = _READERS.get(key)
        if read is None:
            errors.append(f"unknown key {key!r}")
            continue
        try:
            values[key] = read(raw)
        except ValueError as exc:
            errors.append(f"key {key!r}: {exc}")
            failed.add(key)
            continue
        text = format_value(values[key])  # as its echo line writes it
        if "#" in text or "".join(text.splitlines()) != text:
            errors.append(f"key {key!r}: {text!r} holds '#' or a line break, so the "
                          f"echo of this run would not read it back")

    command = values.get("command")
    if "command" not in pairs:
        errors.append("missing required key 'command'")
    elif command not in COMMANDS:
        errors.append(f"key 'command': must be one of {', '.join(COMMANDS)}, got {command!r}")
        command = None

    cfg = RunConfig(**{"command": None, **values})  # returned only if command is valid

    for f in dataclass_fields(RunConfig):
        value = getattr(cfg, f.name)
        if f.metadata["valid"] is None or value is None:
            continue
        holds, phrase = f.metadata["valid"]
        for entry in value if isinstance(value, tuple) else (value,):
            if not holds(entry):
                errors.append(f"key {f.name!r}: {phrase}, got {entry!r}")
    if cfg.drift_a0 == 0 and not cfg.validation_mode:
        errors.append("key 'drift_a0': zero leading coefficient requires validation_mode = true")
    # the modes the run integrates; a missing or an over-the-cap count has its own error
    n = cfg.n_modes_ref if command == "converge-space" else cfg.n_modes
    if n is not None and n <= _MAX_MODES and cfg.n_trajectories * (n + 64) > _MAX_TRAJECTORY_WORK:
        errors.append(f"key 'n_trajectories': must be at most "
                      f"{_MAX_TRAJECTORY_WORK // (n + 64)} at {n} modes, "
                      f"got {cfg.n_trajectories}")
    if cfg.initials is not None and len(cfg.initials) > _MAX_INITIALS:
        errors.append(f"key 'initials': must hold at most {_MAX_INITIALS} expressions "
                      f"(single run i draws trajectory id i, below the ensemble ids), "
                      f"got {len(cfg.initials)}")

    if command is not None:
        required = _REQUIRED[command]
        if command == "simulate" and cfg.checkpoint_in:
            required = _REQUIRED_RESUMED  # the checkpoint supplies tau and the state
        for key in required:
            if getattr(cfg, key) is None and key not in failed:
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
