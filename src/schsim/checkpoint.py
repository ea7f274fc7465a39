"""Versioned text checkpoints for exact trajectory resume.

A checkpoint stores the run's defining scalars and the spectral coefficients
as 17-significant-digit decimal text, which round-trips float64 exactly.
Because noise is addressed by step index, a resumed run consumes precisely the
increments the uninterrupted run would have, so resuming reproduces it
bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralBasis
from .integrator import DriftSpec, SchemeParams, SchemeState, state_from_coeffs
from .noise import NoiseSource

__all__ = ["CheckpointData", "write_checkpoint", "read_checkpoint"]

_MAGIC = "schsim-checkpoint v1"
_FIELDS = {"n_modes": int, "tau": float, "sigma": float,
           "drift": lambda text: tuple(float(part) for part in text.split()),
           "validation_mode": {"true": True, "false": False}.__getitem__,
           "seed": int, "trajectory_id": int, "tau_fine": float, "step_index": int}


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


def _f(x: float) -> str:
    return format(float(x), ".17g")


def write_checkpoint(path, params: SchemeParams, state: SchemeState,
                     source: NoiseSource) -> None:
    drift = params.drift
    lines = [
        _MAGIC,
        f"n_modes = {params.basis.n_modes}",
        f"tau = {_f(params.tau)}",
        f"sigma = {_f(params.sigma)}",
        f"drift = {_f(drift.a0)} {_f(drift.a1)} {_f(drift.a2)} {_f(drift.a3)}",
        f"validation_mode = {'true' if drift.validation_mode else 'false'}",
        f"seed = {source.seed}",
        f"trajectory_id = {source.trajectory_id}",
        f"tau_fine = {_f(source.tau_fine)}",
        f"step_index = {state.step_index}",
        "coeffs:",
    ]
    lines.extend(_f(c) for c in state.coeffs)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_checkpoint(path) -> CheckpointData:
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if not lines or lines[0] != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC!r} file")
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines) and lines[i] != "coeffs:":
        if "=" not in lines[i]:
            raise ValueError(f"{path}: malformed header line {lines[i]!r}")
        key, _, value = lines[i].partition("=")
        fields[key.strip()] = value.strip()
        i += 1
    if i == len(lines):
        raise ValueError(f"{path}: missing coefficient block")
    missing = [k for k in _FIELDS if k not in fields]
    if missing:
        raise ValueError(f"{path}: missing header fields {missing}")
    values = {}
    for key, convert in _FIELDS.items():
        try:
            values[key] = convert(fields[key])
        except (KeyError, ValueError):
            raise ValueError(f"{path}: malformed field {key!r}: {fields[key]!r}") from None
    # (line number, text): lines[k] is line k + 1 of the file
    coeff_lines = [(k + 1, line) for k, line in enumerate(lines) if k > i and line]
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
    return CheckpointData(**values, coeffs=coeffs)
