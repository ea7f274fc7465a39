"""Shared pytest plumbing for the suite.

The ``criterion`` fixture gives the acceptance tests a one-call way to both
assert a verdict and queue a human-readable line; the collected lines are
printed as a block after the run so a plain ``pytest`` invocation ends with
one PASS/FAIL line per acceptance criterion.
"""

import os
from pathlib import Path

import pytest

import schsim


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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(lines):
            terminalreporter.write_line(line)
