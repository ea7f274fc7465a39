"""Shared pytest plumbing for the suite.

The ``criterion`` fixture gives the acceptance tests a one-call way to both
assert a verdict and queue a human-readable line; the collected lines are
printed as a block after the run so a plain ``pytest`` invocation ends with
one PASS/FAIL line per acceptance criterion.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import schsim
from schsim import SchemeParams, experiments, integrator

TINY = np.finfo(np.float64).tiny  # 2^-1022, the smallest normal double


def pytest_configure(config):
    config._criterion_lines = []


@pytest.fixture
def criterion(request):
    lines = request.config._criterion_lines

    def record(number: int, name: str, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        lines.append((number, f"criterion {number:2d}  {status}  {name}: {detail}"))
        assert passed, f"criterion {number} ({name}): {detail}"

    return record


@pytest.fixture
def src_env():
    """Environment for a fresh interpreter that imports the ``schsim`` under
    test."""
    src = str(Path(schsim.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


@pytest.fixture
def exact_factors(monkeypatch):
    """``restore()`` gives every ``SchemeParams`` built after the call the
    exact factors of ``SpectralBasis.semigroup_factor``, subnormal ones
    included, with ``live_modes`` one past the last nonzero one: the scheme
    as it ran before subnormal factors were flushed to 0.0."""
    def semigroup(params):
        factors = params.basis.semigroup_factor(params.tau)
        factors.setflags(write=False)
        return factors

    def restore():
        monkeypatch.setattr(SchemeParams, "semigroup", property(semigroup))
        monkeypatch.setattr(SchemeParams, "live_modes", property(
            lambda params: int(np.flatnonzero(params.semigroup)[-1]) + 1))

    return restore


@pytest.fixture
def subnormal_counts(monkeypatch):
    """The number of subnormal coefficients in each state that ``_advance``
    returns, one entry per call, for the single runs and the coupled
    studies alike."""
    counts = []
    advance = integrator._advance

    def counting(*args):
        new = advance(*args)
        counts.append(int(np.count_nonzero((new != 0.0) & (np.abs(new) < TINY))))
        return new

    for module in (integrator, experiments):
        monkeypatch.setattr(module, "_advance", counting)
    return counts


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
