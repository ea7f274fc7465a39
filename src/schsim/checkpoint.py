"""Versioned text checkpoints for exact trajectory resume.

A checkpoint stores the run's defining scalars as ``key = value`` lines and
the spectral coefficients one per line, each number in the shortest
round-trip repr of ``config.format_value``.  The header is read as strictly
as a config file, by ``config.parse_pairs`` and the config's readers.
Because noise is addressed by step index, a resumed run consumes precisely the
increments the uninterrupted run would have, so resuming reproduces it
bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .config import _READERS, ConfigError, _list_of, _to_float, _to_int, format_value, parse_pairs
from .grid import SpectralBasis
from .integrator import DriftSpec, SchemeParams, SchemeState, state_from_coeffs
from .noise import NoiseSource

__all__ = ["CheckpointData", "write_checkpoint", "read_checkpoint"]

_MAGIC = "schsim-checkpoint v1"


@dataclass(frozen=True)
class CheckpointData:
    """Parsed checkpoint contents."""

    n_modes: int
    tau: float
    sigma: float
    drift: tuple[float, float, float, float]
    validation_mode: bool
    seed: int
    trajectory_id: int
    tau_fine: float
    step_index: int
    coeffs: np.ndarray

    def rebuild(self) -> tuple[SchemeParams, NoiseSource, SchemeState]:
        """Reconstruct (params, source, state) ready for run_trajectory."""
        basis = SpectralBasis(self.n_modes)
        drift = DriftSpec(*self.drift, validation_mode=self.validation_mode)
        params = SchemeParams(basis, drift, self.tau, self.sigma)
        source = NoiseSource(self.seed, self.trajectory_id,
                             tau_fine=self.tau_fine, n_modes_max=self.n_modes - 1)
        return params, source, state_from_coeffs(params, self.step_index, self.coeffs)


# header key -> reader: a config key's own reader, else the checkpoint's
_FIELDS = {f.name: _READERS.get(f.name) for f in fields(CheckpointData) if f.name != "coeffs"}
_FIELDS.update(drift=_list_of(_to_float, None, "space-separated list of numbers"),
               step_index=_to_int)


def write_checkpoint(path, params: SchemeParams, state: SchemeState,
                     source: NoiseSource) -> None:
    drift = params.drift
    header = {"n_modes": params.basis.n_modes, "tau": params.tau, "sigma": params.sigma,
              "drift": " ".join(map(format_value, (drift.a0, drift.a1, drift.a2, drift.a3))),
              "validation_mode": drift.validation_mode, "seed": source.seed,
              "trajectory_id": source.trajectory_id, "tau_fine": source.tau_fine,
              "step_index": state.step_index}
    lines = [_MAGIC, *(f"{key} = {format_value(value)}" for key, value in header.items()),
             "coeffs:", *map(format_value, state.coeffs)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path) -> CheckpointData:
    # each non-ASCII byte reads as one lone surrogate, found below by its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = [line.rstrip("\n") for line in fh]
    for lineno, line in enumerate(lines, 1):
        if not line.isascii():
            byte = ord(next(char for char in line if not char.isascii())) - 0xDC00
            raise ValueError(f"{path}: line {lineno}: non-ASCII byte {byte:#04x}")
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC!r} file")
    if "coeffs:" not in lines:
        raise ValueError(f"{path}: missing coefficient block")
    end = lines.index("coeffs:")
    try:
        # a blank line in place of the magic line keeps the file's line numbers
        fields = parse_pairs("\n".join(["", *lines[1:end]]))
    except ConfigError as exc:
        raise ValueError(f"{path}: {exc}") from None
    unknown = [key for key in fields if key not in _FIELDS]
    if unknown:
        lineno = 1 + [line.partition("=")[0].strip() for line in lines].index(unknown[0])
        raise ValueError(f"{path}: line {lineno}: unknown key {unknown[0]!r}")
    missing = [k for k in _FIELDS if k not in fields]
    if missing:
        raise ValueError(f"{path}: missing header fields {missing}")
    values = {}
    for key, convert in _FIELDS.items():
        try:
            values[key] = convert(fields[key])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed field {key!r}: {exc}") from None
    # (line number, text): lines[k] is line k + 1 of the file
    coeff_lines = [(k + 1, line) for k, line in enumerate(lines) if k > end and line]
    if len(coeff_lines) != values["n_modes"]:
        raise ValueError(
            f"{path}: expected {values['n_modes']} coefficients, found {len(coeff_lines)}")
    if len(values["drift"]) != 4:
        raise ValueError(f"{path}: drift must have 4 coefficients")
    coeffs = np.empty(len(coeff_lines))
    for c, (lineno, line) in enumerate(coeff_lines):
        try:
            coeffs[c] = float(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed coefficient {line!r}") from None
        if not math.isfinite(coeffs[c]):  # nan, inf or a literal beyond the doubles
            raise ValueError(f"{path}: line {lineno}: coefficient {line!r} is not finite")
    return CheckpointData(**values, coeffs=coeffs)
