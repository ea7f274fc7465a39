"""Tests for config parsing, output files and the command-line front end.

The contract that matters most: serialize_config is a canonical echo whose
re-parse reproduces the configuration exactly, and every output file embeds
that echo, so a file is a complete, executable record of the run that made
it.  The CLI tests run main() in-process and assert on files and exit codes.
"""

import contextlib
import csv
import dataclasses
import io
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schsim import (ConfigError, DriftSpec, NoiseSource, RunConfig, SchemeParams,
                    SpectralBasis, evaluate_expression, initial_state, parse_config,
                    read_checkpoint, run_trajectory, serialize_config,
                    state_from_coeffs, write_checkpoint)
from schsim import cli, output
from schsim.cli import _resumed_config, main
from schsim.config import (_MAX_TRAJECTORY_WORK, _REQUIRED, COMMANDS,
                           apply_env_overrides, build_config, format_value, parse_pairs)
from schsim.observables import MIN_ALPHA2
from schsim.output import (FORMAT_VERSION, git_blob_sha1, metadata_lines,
                           read_metadata_config, write_csv,
                           write_svg_line_chart)
from test_workload_pins import WORKLOADS  # the benchmark's, loaded by path

SIM_CFG = """\
command = simulate
n_modes = 8
tau = 0.0625
t_final = 0.25
initial = (1/3)*cos(x)+1/3
seed = 5
"""


class TestParsePairs:
    def test_comments_and_blanks_ignored(self):
        pairs = parse_pairs("# intro\n\n a = 1 # trailing\n b = x=y\n c = a#b.ckpt\n")
        assert pairs == {"a": "1", "b": "x=y", "c": "a"}

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_pairs("a = 1\na = 2\n")

    def test_malformed_lines_collected_with_line_numbers(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_pairs("a = 1\njust words\n= 3\n")
        messages = exc_info.value.messages
        assert len(messages) == 2
        assert "line 2" in messages[0]
        assert "line 3" in messages[1]


class TestBuildConfig:
    def test_minimal_simulate_config(self):
        cfg = parse_config(SIM_CFG)
        assert cfg.command == "simulate"
        assert cfg.tau == 0.0625
        assert cfg.initial == "(1/3)*cos(x)+1/3"
        # defaults fill in the double-well drift
        assert (cfg.drift_a0, cfg.drift_a1) == (0.5, -0.5)

    def test_all_errors_reported_together(self):
        text = ("command = simulate\nseed = -1\nsigma = -2\nbogus = 1\n"
                "tau = 0.1\nt_final = 1\ninitial = cos(x\n")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(text)
        joined = "\n".join(exc_info.value.messages)
        assert "seed" in joined
        assert "sigma" in joined
        assert "unknown key 'bogus'" in joined
        assert "initial" in joined

    def test_missing_required_keys_per_command(self):
        with pytest.raises(ConfigError, match="requires key 'tau_ladder'"):
            parse_config("command = converge-time\nt_final = 1\n"
                         "tau_ref = 0.001\ninitial = 1/3\n")

    def test_resumed_simulate_needs_no_tau_or_initial(self):
        """The checkpoint supplies tau and the state; without checkpoint_in
        both stay required."""
        cfg = parse_config("command = simulate\ncheckpoint_in = state.ckpt\nt_final = 1\n")
        assert (cfg.tau, cfg.initial, cfg.t_final) == (None, None, 1.0)
        with pytest.raises(ConfigError) as exc_info:
            parse_config("command = simulate\nt_final = 1\n")
        assert exc_info.value.messages == ["command 'simulate' requires key 'tau'",
                                           "command 'simulate' requires key 'initial'"]
        with pytest.raises(ConfigError, match="requires key 't_final'"):
            parse_config("command = simulate\ncheckpoint_in = state.ckpt\n")

    def test_command_must_be_known(self):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_config("command = meditate\n")

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="missing required key 'command'"):
            parse_config("seed = 1\n")

    def test_list_values(self):
        cfg = parse_config(
            "command = converge-space\nt_final = 0.5\ntau = 0.001\n"
            "n_modes_ref = 32\nn_modes_ladder = 4, 8,16\ninitial = 1/3\n")
        assert cfg.n_modes_ladder == (4, 8, 16)
        cfg = parse_config(
            "command = ergodic\ntau = 0.01\nt_final = 1\n"
            "initials = 1/3; (1/3)*cos(x)+1/3\n")
        assert cfg.initials == ("1/3", "(1/3)*cos(x)+1/3")

    def test_tau_domain(self):
        with pytest.raises(ConfigError, match=r"'tau': must lie in \(0, 1\)"):
            parse_config("command = simulate\ntau = 1.5\nt_final = 1\ninitial = 1/3\n")

    def test_a_word_for_a_number_is_a_config_error(self):
        """A required key whose value its reader refuses is reported once,
        for its value, and not again as missing; so is an empty value."""
        for text in ("abc", ""):
            with pytest.raises(ConfigError) as exc_info:
                parse_config(f"command = simulate\ntau = {text}\nt_final = 1\ninitial = 1/3\n")
            assert exc_info.value.messages == [f"key 'tau': expected a number, got {text!r}"]

    def test_trajectory_id_range(self):
        base = "command = verify\ntrajectory_id = "
        assert parse_config(base + str(2**64 - 1)).trajectory_id == 2**64 - 1
        for bad in (-1, 2**64):
            with pytest.raises(ConfigError, match=r"'trajectory_id': must be in \[0, 2\^64\)"):
                parse_config(base + str(bad))

    def test_mode_counts_are_bounded(self):
        """4096 modes is the largest accepted count for every mode key; the
        dense basis is never built here."""
        base = ("command = converge-space\nt_final = 1\ntau = 0.01\ninitial = 1/3\n"
                "n_modes = {}\nn_modes_ref = {}\nn_modes_ladder = 8, {}\n")
        cfg = parse_config(base.format(4096, 4096, 4096))
        assert (cfg.n_modes, cfg.n_modes_ref, cfg.n_modes_ladder) == (4096, 4096, (8, 4096))
        with pytest.raises(ConfigError) as exc_info:
            parse_config(base.format(4097, 100_000_000, 4097))
        assert [m.split(":")[0] for m in exc_info.value.messages] == \
            ["key 'n_modes'", "key 'n_modes_ref'", "key 'n_modes_ladder'"]
        assert all("[2, 4096]" in m for m in exc_info.value.messages)

    def test_test_alpha2_whose_phi_bound_underflows_is_rejected(self):
        """|phi| <= test_alpha2^2/2 must not underflow: 1e-150 is accepted,
        1e-320 (and 0) are not."""
        base = "command = verify\ntest_alpha2 = "
        assert parse_config(base + "1e-150").test_alpha2 == 1e-150
        assert parse_config(base + "-1e-150").test_alpha2 == -1e-150
        for bad in ("1e-320", "-1e-160", "0"):
            with pytest.raises(ConfigError, match="key 'test_alpha2': .*at least 2.11e-154"):
                parse_config(base + bad)

    def test_zero_leading_drift_needs_validation_mode(self):
        base = "command = simulate\ntau = 0.1\nt_final = 1\ninitial = 1/3\ndrift_a0 = 0\n"
        with pytest.raises(ConfigError, match="validation_mode"):
            parse_config(base)
        cfg = parse_config(base + "validation_mode = true\n")
        assert cfg.drift_a0 == 0.0

    def test_bool_values_are_strict(self):
        with pytest.raises(ConfigError, match="expected true or false"):
            parse_config(SIM_CFG + "deterministic = yes\n")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_numbers_are_rejected(self, text):
        with pytest.raises(ConfigError) as exc_info:
            parse_config(f"command = verify\ntau = {text}\n")
        assert exc_info.value.messages == [f"key 'tau': expected a finite number, got {text!r}"]

    def test_empty_list_is_rejected(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("command = verify\ntau_ladder = ,\n")
        assert exc_info.value.messages == \
            ["key 'tau_ladder': expected a comma-separated list of numbers"]

    def test_trailing_operator_is_an_empty_term(self):
        with pytest.raises(ConfigError) as exc_info:
            parse_config("command = verify\ntest_v = exp(x)+\n")
        assert exc_info.value.messages == \
            ["key 'test_v': empty term in expression 'exp(x)+'"]

    def test_trajectory_count_is_bounded(self):
        """n_trajectories * (modes + 64) is at most 2^22, checked before any
        noise source is built: 10^9 trajectories are refused with a tiny
        peak, acceptance-scale studies and the bound itself are accepted."""
        base = ("command = converge-space\nt_final = 0.25\ntau = 0.01\ninitial = 1/3\n"
                "n_modes_ref = 256\nn_modes_ladder = 8, 16, 32, 64\nn_trajectories = ")
        assert parse_config(base + "100").n_trajectories == 100
        cap = 2**22 // (256 + 64)
        assert parse_config(base + str(cap)).n_trajectories == cap
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError) as exc_info:
                parse_config(base + str(10**9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc_info.value.messages == \
            [f"key 'n_trajectories': must be at most {cap} at 256 modes, got 1000000000"]
        assert peak < 1_000_000
        with pytest.raises(ConfigError) as exc_info:
            parse_config(base + str(cap + 1))
        assert exc_info.value.messages[0].startswith("key 'n_trajectories': must be at most")
        with pytest.raises(ConfigError) as exc_info:
            parse_config(base + "-5")
        assert exc_info.value.messages == ["key 'n_trajectories': must be positive, got -5"]

    def test_trajectory_cap_counts_the_modes_the_command_runs(self):
        """The cap reads the mode count the command integrates: n_modes_ref
        for converge-space, n_modes for the others, so a mode count the run
        never reads moves it no more; at the run's own N it still bites."""
        space = ("command = converge-space\nt_final = 0.25\ntau = 0.01\ninitial = 1/3\n"
                 "n_modes_ref = 16\nn_modes_ladder = 4, 8\nn_trajectories = ")
        time_ = ("command = converge-time\nn_modes = 8\nn_modes_ref = 4096\nt_final = 0.25\n"
                 "tau_ref = 0.01\ntau_ladder = 0.02\ninitial = 1/3\nn_trajectories = ")
        assert parse_config(space + "40000").n_trajectories == 40000  # n_modes = 64 unread
        assert parse_config(time_ + "2000").n_trajectories == 2000  # n_modes_ref unread
        for base, n in ((space, 16), (time_, 8)):
            cap = _MAX_TRAJECTORY_WORK // (n + 64)
            assert parse_config(base + str(cap)).n_trajectories == cap
            with pytest.raises(ConfigError) as exc_info:
                parse_config(base + str(cap + 1))
            assert exc_info.value.messages == [
                f"key 'n_trajectories': must be at most {cap} at {n} modes, got {cap + 1}"]
        with pytest.raises(ConfigError) as exc_info:
            parse_config(space.replace("n_modes_ref = 16\n", "") + "4000000")
        assert exc_info.value.messages == ["command 'converge-space' requires key 'n_modes_ref'"]

    def test_initial_condition_count_is_bounded(self):
        """At most 10 000 initials: single run i draws trajectory id i, and
        ensemble ids start at 10 000."""
        base = "command = ergodic\ntau = 0.01\nt_final = 0.1\ninitials = "
        assert len(parse_config(base + "; ".join(["1/3"] * 10_000)).initials) == 10_000
        with pytest.raises(ConfigError) as exc_info:
            parse_config(base + "; ".join(["1/3"] * 10_001))
        assert exc_info.value.messages == [
            "key 'initials': must hold at most 10000 expressions (single run i draws "
            "trajectory id i, below the ensemble ids), got 10001"]


class TestSerializeConfig:
    def test_round_trip_is_exact(self):
        cfg = parse_config(SIM_CFG + "sigma = 0.3\ntau_fine = 0.03125\n")
        echo = serialize_config(cfg)
        assert parse_config(echo) == cfg

    def test_round_trip_survives_awkward_floats(self):
        cfg = RunConfig(command="simulate", tau=1 / 3, t_final=0.1 + 0.2,
                        initial="1/3", sigma=float(np.nextafter(1.0, 2.0)))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_are_made_explicit(self):
        echo = serialize_config(parse_config(SIM_CFG))
        assert "sigma = 1.0" in echo
        assert "drift_a0 = 0.5" in echo
        # unset optional keys stay absent
        assert "tau_ref" not in echo

    def test_env_overrides_apply_between_file_and_flags(self):
        pairs = parse_pairs(SIM_CFG)
        merged = apply_env_overrides(pairs, {"SCHSIM_SEED": "99",
                                             "OTHER": "ignored"})
        assert build_config(merged).seed == 99


FINITE = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                     allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
EXPRESSIONS = st.sampled_from(("1/3", "(1/3)*cos(x)+1/3", "2*cos(2x)+cos(x)+1/3",
                               "exp(-x)", "exp(x)", "0.5*cos(3x)"))
MODES = st.integers(2, 4096)
WORD = st.integers(0, 2**64 - 1)
# the keys that may be unset, with the strategy for a set value
OPTIONAL = {
    "tau": UNIT, "initial": EXPRESSIONS, "t_final": POSITIVE, "tau_fine": UNIT,
    "tau_ref": UNIT, "tau_ladder": st.lists(UNIT, min_size=1, max_size=4).map(tuple),
    "n_modes_ref": MODES,
    "n_modes_ladder": st.lists(MODES, min_size=1, max_size=4).map(tuple),
    "t_final_ensemble": POSITIVE,
    "initials": st.lists(EXPRESSIONS, min_size=1, max_size=3).map(tuple),
}


@st.composite
def run_configs(draw):
    """Any config the parser accepts: every key drawn from its domain and
    every key the command requires set."""
    command = draw(st.sampled_from(COMMANDS))
    validation = draw(st.booleans())
    path = st.from_regex(r"[A-Za-z0-9_./-]{0,12}", fullmatch=True)
    optional = {key: draw(strategy if key in _REQUIRED[command] else st.none() | strategy)
                for key, strategy in OPTIONAL.items()}
    n_modes = draw(MODES)
    widest = optional["n_modes_ref"] if command == "converge-space" else n_modes
    return RunConfig(
        command=command, seed=draw(WORD), deterministic=draw(st.booleans()),
        n_modes=n_modes, sigma=draw(NONNEGATIVE),
        drift_a0=draw(NONNEGATIVE if validation else POSITIVE),
        drift_a1=draw(FINITE), drift_a2=draw(FINITE), drift_a3=draw(FINITE),
        validation_mode=validation, trajectory_id=draw(WORD),
        snapshot_every=draw(st.integers(0, 10**6)),
        checkpoint_in=draw(path), checkpoint_out=draw(path),
        n_trajectories=draw(st.integers(1, _MAX_TRAJECTORY_WORK // (widest + 64))),
        estimator=draw(st.sampled_from(("single", "ensemble", "both"))),
        test_v=draw(EXPRESSIONS), test_alpha1=draw(FINITE),
        test_alpha2=draw(FINITE.filter(lambda a: abs(a) >= MIN_ALPHA2)),
        burn_in=draw(NONNEGATIVE), thinning=draw(st.integers(1, 10**6)), **optional)


class TestFormatValue:
    """``format_value`` is the one text form of a value: configs, CSV cells
    and checkpoints all read back exactly what was written."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(FINITE)
    @example(-0.0)
    @example(5e-324)
    @example(2.2250738585072009e-308)
    @example(1e308)
    @example(-1e308)
    def test_floats_read_back_bit_for_bit(self, x):
        for value in (x, np.float64(x)):
            text = format_value(value)
            assert float(text).hex() == x.hex()
            assert text == repr(x)

    def test_the_other_kinds(self):
        assert format_value(None) == ""
        assert format_value(True) == "true" and format_value(False) == "false"
        assert format_value(np.float32(0.1)) == repr(float(np.float32(0.1)))
        assert format_value(np.int64(7)) == "7"
        assert format_value((0.5, 0.25)) == "0.5,0.25"
        assert format_value((8, 16)) == "8,16"
        assert format_value(("1/3", "exp(x)")) == "1/3; exp(x)"
        assert format_value("NA") == "NA"

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(run_configs())
    def test_config_echo_round_trips(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


class TestOutputFiles:
    def test_git_blob_sha1_known_value(self):
        # same object id git itself assigns to a file containing "hello\n"
        assert git_blob_sha1("hello\n") == \
            "ce013625030ba8dba906f756967f9e9ca394464a"

    def test_metadata_block_structure(self):
        lines = metadata_lines("a = 1\nb = 2\n", {"slope": 0.5})
        assert lines[0] == f"# {FORMAT_VERSION}"
        assert lines[1].startswith("# config_sha1 = ")
        assert lines[2] == "# config begin"
        assert "# a = 1" in lines and "# b = 2" in lines
        assert lines[-1] == "# slope = 0.5"

    def test_csv_round_trips_embedded_config(self, tmp_path):
        path = tmp_path / "out.csv"
        config_text = "command = verify\nseed = 3\n"
        write_csv(path, ("a", "b"), [(1, 2.5), (3, None)], config_text)
        assert read_metadata_config(path) == config_text
        body = path.read_text().splitlines()
        assert body[-2:] == ["1,2.5", "3,"]

    def test_csv_uses_lf_and_repr_floats(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("x",), [(0.1,), (1e-9,)], "command = verify\n")
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert b"0.1\n" in raw and b"1e-09\n" in raw

    def test_missing_config_block_detected(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="no embedded config block"):
            read_metadata_config(path)

    def test_config_block_line_without_prefix_is_rejected(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ("a",), [(1,)], "command = verify\nseed = 3\n")
        text = path.read_text().replace("# seed = 3\n", "seed = 3\n")
        path.write_text(text)
        with pytest.raises(ValueError, match="malformed metadata line 'seed = 3'"):
            read_metadata_config(path)

    def test_svg_is_well_formed(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_svg_line_chart(path, [("e", [0.1, 0.05, 0.025], [1.0, 0.5, 0.27])],
                             "errors", "tau", "E", logx=True, logy=True)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_svg_text_is_escaped_as_before(self, tmp_path, monkeypatch):
        """Titles and labels with ``&<>`` are escaped byte for byte as
        ``xml.sax.saxutils.escape`` escapes them."""
        args = ([("a<b> & c", [1.0, 2.0], [3.0, 4.0])], "t & <u>", "x&y", "<y>")
        write_svg_line_chart(tmp_path / "local.svg", *args)
        monkeypatch.setattr(output, "_escape", escape)
        write_svg_line_chart(tmp_path / "saxutils.svg", *args)
        local = (tmp_path / "local.svg").read_bytes()
        assert local == (tmp_path / "saxutils.svg").read_bytes()
        assert b">t &amp; &lt;u&gt;</text>" in local
        assert b">a&lt;b&gt; &amp; c</text>" in local
        ET.parse(tmp_path / "local.svg")

    def test_cli_import_loads_no_network_modules(self, src_env):
        """Importing the CLI pulls in neither XML nor the network stack."""
        code = ("import sys, schsim.cli; print(' '.join(m for m in ('xml.sax', "
                "'urllib.request', 'http.client', 'ssl') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], env=src_env,
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == ""

    def test_svg_rejects_nonpositive_on_log_axes(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            write_svg_line_chart(tmp_path / "bad.svg", [("e", [0.0, 1.0], [1, 2])],
                                 "t", "x", "y", logx=True)

    def test_svg_rejects_empty_series(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            write_svg_line_chart(tmp_path / "bad.svg", [("e", [], [])], "t", "x", "y")


class TestResumedConfig:
    """``cli._resumed_config``: a checkpoint's values replace the config's."""

    def checkpoint(self, tmp_path):
        basis = SpectralBasis(8)
        params = SchemeParams(basis, DriftSpec(0.5, 0.25, 1.0, -1.0), 0.0625, 0.5)
        source = NoiseSource(5, 3, tau_fine=0.03125, n_modes_max=7)
        path = tmp_path / "state.ckpt"
        write_checkpoint(path, params, state_from_coeffs(params, 2, np.linspace(0, 1, 8)),
                         source)
        return read_checkpoint(path)

    def test_checkpoint_values_replace_implicit_ones(self, tmp_path):
        data = self.checkpoint(tmp_path)
        cfg = parse_config("command = simulate\ntau = 0.0625\nt_final = 1\ninitial = 1/3\n")
        resumed = _resumed_config(cfg, {"command", "tau", "t_final", "initial"}, data)
        assert (resumed.n_modes, resumed.tau, resumed.sigma) == (8, 0.0625, 0.5)
        assert (resumed.drift_a0, resumed.drift_a1, resumed.drift_a2, resumed.drift_a3) == \
            (0.5, 0.25, 1.0, -1.0)
        assert not resumed.validation_mode
        assert (resumed.seed, resumed.trajectory_id, resumed.tau_fine) == (5, 3, 0.03125)
        assert resumed.t_final == 1.0 and cfg.n_modes == 64  # the input is not mutated

    def test_explicit_contradiction_names_every_key(self, tmp_path):
        data = self.checkpoint(tmp_path)
        text = ("command = simulate\nn_modes = 8\ntau = 0.125\nseed = 4\nt_final = 1\n"
                "initial = 1/3\n")
        cfg = parse_config(text)
        with pytest.raises(ConfigError) as info:
            _resumed_config(cfg, set(parse_pairs(text)), data)
        assert [m.split(":")[0] for m in info.value.messages] == ["key 'tau'", "key 'seed'"]


# A checkpoint as written before numbers took their shortest repr: 17
# significant digits, "-0" and "1e+308".
CHECKPOINT_17G = """\
schsim-checkpoint v1
n_modes = 8
tau = 0.10000000000000001
sigma = 0.33333333333333331
drift = 0.5 -0.33333333333333331 1 -1
validation_mode = false
seed = 7
trajectory_id = 2
tau_fine = 0.050000000000000003
step_index = 12
coeffs:
0.33333333333333331
-0
4.9406564584124654e-324
1e+308
-2.2250738585072014e-308
0.30000000000000004
3.1415926535897931
-1e-300
"""


def write_sample_checkpoint(path):
    params = SchemeParams(SpectralBasis(8), DriftSpec(0.5, -0.5, 1.0, -1.0), 0.01, 1.0)
    write_checkpoint(path, params, state_from_coeffs(params, 2, np.linspace(0, 1, 8)),
                     NoiseSource(5, 0, tau_fine=0.01, n_modes_max=7))


def insert_after_tau(path, *new_lines):
    """Insert header lines after ``tau`` (line 3), so the first is line 4."""
    lines = path.read_text().splitlines()
    assert lines[2].startswith("tau = ")
    path.write_text("\n".join(lines[:3] + list(new_lines) + lines[3:]) + "\n")


BAD_HEADERS = [
    (("tau = 0.5", "tua = 0.02"), "line 4: duplicate key 'tau'"),
    (("tua = 0.02",), "line 4: unknown key 'tua'"),
    (("just words",), "line 4: expected 'key = value', got 'just words'"),
]


class TestCheckpointText:
    """Checkpoints write numbers with ``format_value`` and read their header
    with ``parse_pairs``, as strictly as a config file."""

    BASES = {}

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(coeffs=st.lists(FINITE, min_size=2, max_size=9), tau=UNIT, sigma=NONNEGATIVE,
           seed=WORD, step_index=st.integers(0, 2**40))
    def test_round_trip_is_bit_exact(self, coeffs, tau, sigma, seed, step_index):
        n = len(coeffs)
        basis = self.BASES.setdefault(n, SpectralBasis(n))
        params = SchemeParams(basis, DriftSpec(0.5, -1 / 3, 1.0, -1.0), tau, sigma)
        with np.errstate(all="ignore"):  # huge coefficients overflow the nodal values
            state = state_from_coeffs(params, step_index, np.array(coeffs))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.ckpt"
            write_checkpoint(path, params, state,
                             NoiseSource(seed, 1, tau_fine=tau, n_modes_max=n - 1))
            data = read_checkpoint(path)
        assert data.coeffs.tobytes() == np.array(coeffs).tobytes()
        assert (data.tau.hex(), data.sigma.hex(), data.tau_fine.hex()) == \
            (tau.hex(), sigma.hex(), tau.hex())
        assert (data.seed, data.step_index, data.drift) == (seed, step_index,
                                                            (0.5, -1 / 3, 1.0, -1.0))

    def test_seventeen_digit_checkpoint_still_loads(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(CHECKPOINT_17G)
        data = read_checkpoint(path)
        expected = np.array([1 / 3, -0.0, 5e-324, 1e308, -2.2250738585072014e-308,
                             0.1 + 0.2, np.pi, -1e-300])
        assert data.coeffs.tobytes() == expected.tobytes()
        assert (data.tau, data.sigma, data.tau_fine) == (0.1, 1 / 3, 0.05)
        assert data.drift == (0.5, -1 / 3, 1.0, -1.0)
        assert (data.n_modes, data.seed, data.trajectory_id, data.step_index) == (8, 7, 2, 12)
        assert not data.validation_mode

    def test_numbers_are_shortest_repr(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_sample_checkpoint(path)
        lines = path.read_text().splitlines()
        assert lines[2:5] == ["tau = 0.01", "sigma = 1.0", "drift = 0.5 -0.5 1.0 -1.0"]
        assert lines[-1] == "1.0"

    @pytest.mark.parametrize("new_lines, message", BAD_HEADERS)
    def test_bad_header_line_names_file_and_line(self, tmp_path, new_lines, message):
        path = tmp_path / "bad.ckpt"
        write_sample_checkpoint(path)
        insert_after_tau(path, *new_lines)
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines[:lines.index("coeffs:")], "missing coefficient block"),
        (lambda lines: [line for line in lines if not line.startswith("sigma")],
         "missing header fields ['sigma']"),
        (lambda lines: [line.replace(" -1.0", "") if line.startswith("drift") else line
                        for line in lines], "drift must have 4 coefficients"),
    ])
    def test_incomplete_checkpoint_is_refused(self, tmp_path, edit, message):
        path = tmp_path / "bad.ckpt"
        write_sample_checkpoint(path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError) as info:
            read_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"


README = Path(__file__).resolve().parents[1] / "README.md"
# README rows that name several keys at once
README_SHORTHANDS = {"drift_a0..a3": ("drift_a0", "drift_a1", "drift_a2", "drift_a3"),
                     "checkpoint_in/out": ("checkpoint_in", "checkpoint_out")}


def test_readme_documents_every_config_key():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| Key | Default | Meaning |"):].split("\n\n")[0]
    documented = set()
    for row in table.splitlines()[2:]:
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            documented.update(README_SHORTHANDS.get(name, (name,)))
    assert [f.name for f in dataclasses.fields(RunConfig) if f.name not in documented] == []


def mostly(valid, invalid):
    """``valid`` nine times in ten, ``invalid`` otherwise."""
    return st.integers(0, 9).flatmap(lambda r: valid if r else invalid)


@st.composite
def ergodic_settings(draw):
    """An ergodic config at n_modes <= 8, accepted or not: horizons and
    burn-in on and off the tau grid, out-of-range counts and estimators."""
    tau = draw(st.sampled_from((0.0625, 0.1, 0.25)))
    on_grid = st.integers(1, 12).map(lambda k: k * tau)
    horizon = mostly(on_grid, st.floats(1e-3, 2.0) | st.sampled_from((0.0, -0.5)))
    settings = {
        "n_modes": draw(st.integers(2, 8)), "tau": tau,
        "estimator": draw(mostly(st.sampled_from(("single", "ensemble", "both")),
                                 st.just("median"))),
        "t_final": draw(horizon),
        "t_final_ensemble": draw(st.none() | horizon),
        "burn_in": draw(st.none() | mostly(st.just(0.0) | on_grid, st.floats(-0.5, 2.0))),
        "thinning": draw(mostly(st.integers(1, 5), st.integers(-1, 0))),
        "n_trajectories": draw(mostly(st.integers(1, 3), st.just(0))),
        "initials": draw(st.lists(EXPRESSIONS, min_size=1, max_size=3).map(tuple)),
    }
    return {key: value for key, value in settings.items() if value is not None}


# An ergodic run whose numbers can overflow: a huge initial condition
# without noise, one step of one trajectory.
OVERFLOWING_ERGODIC = {"n_modes": 2, "tau": 0.0625, "t_final": 0.0625, "sigma": 0.0,
                       "estimator": "single", "n_trajectories": 1,
                       "initials": ("10000000*cos(x)+1/3",)}
LINEAR_DRIFT = {"validation_mode": True, "drift_a0": 0.0, "drift_a1": 0.0, "drift_a2": 1.0,
                "drift_a3": 0.0}


@st.composite
def ergodic_extremes(draw):
    """An accepted ergodic config at n_modes <= 8 whose numbers may
    overflow: sigma up to 1e160, initials with coefficients up to 1e307,
    the linear validation-mode drift and test_alpha2 across its range,
    1e-150 to 1e300."""
    tau = draw(st.sampled_from((0.0625, 0.25)))
    on_grid = st.integers(1, 4).map(lambda k: k * tau)
    huge = st.integers(0, 307).map(lambda k: f"1{'0' * k}*cos(x)+1/3")
    settings = {
        "n_modes": draw(st.integers(2, 8)), "tau": tau,
        "sigma": draw(st.sampled_from((0.0, 1.0, 1e100, 1e160)) | st.floats(0.0, 1e160)),
        "estimator": draw(st.sampled_from(("single", "ensemble", "both"))),
        "n_trajectories": draw(st.integers(1, 2)),
        "t_final": draw(on_grid),
        "t_final_ensemble": draw(st.none() | on_grid),
        "initials": draw(st.lists(EXPRESSIONS | huge, min_size=1, max_size=2).map(tuple)),
        "test_alpha2": draw(st.sampled_from((1e-150, 2.0, 1e300))
                            | st.floats(-150.0, 300.0).map(lambda e: 10.0**e)),
    }
    if draw(st.booleans()):
        settings.update(LINEAR_DRIFT)
    return {key: value for key, value in settings.items() if value is not None}


def run_and_check(command: str, tmp: Path, name: str, text: str):
    """Exit code and output directory of one ``--deterministic`` run of
    ``text``; exit 2 prints only lines naming a config key, exit 1 starts
    with an ``error:`` line."""
    cfg = tmp / f"{name}.cfg"
    cfg.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg), "--out", str(tmp / name),
                     "--deterministic"])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), err.getvalue()
    if code == 2:
        assert lines and all(line.startswith("error: config: key '") for line in lines)
    if code == 1:
        assert lines and lines[0].startswith("error: ")
    return code, tmp / name


def assert_echo_reproduces(command: str, tmp: Path, out: Path, csv_name: str) -> None:
    """The metadata echo of ``out/csv_name``, re-fed as a config, writes
    every CSV of ``out`` again, byte for byte."""
    code, again = run_and_check(command, tmp, "echo", read_metadata_config(out / csv_name))
    assert code == 0
    names = sorted(path.name for path in out.glob("*.csv"))
    assert sorted(path.name for path in again.glob("*.csv")) == names
    for name in names:
        assert (again / name).read_bytes() == (out / name).read_bytes(), name


class TestErgodicConfigs:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(settings_=ergodic_settings())
    def test_every_config_runs_or_is_a_config_error(self, settings_):
        """Exit 0 writes one summary row per run; exit 2 prints only
        ``error: config:`` lines; nothing else happens."""
        text = "".join(f"{key} = {format_value(value)}\n" for key, value in settings_.items())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("command = ergodic\n" + text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["ergodic", "--config", str(cfg), "--out", str(Path(tmp) / "out"),
                             "--deterministic"])
            assert code in (0, 2), err.getvalue()
            if code == 2:
                lines = err.getvalue().splitlines()
                assert lines and all(line.startswith("error: config: ") for line in lines)
                return
            assert err.getvalue() == ""
            kinds = (("single", "ensemble") if settings_["estimator"] == "both"
                     else (settings_["estimator"],))
            with open(Path(tmp) / "out" / "ergodic_summary.csv", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            assert [row["label"] for row in rows] == [
                f"{kind}[{i}]" for i in range(len(settings_["initials"])) for kind in kinds]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(settings_=ergodic_extremes())
    @example(settings_=dict(OVERFLOWING_ERGODIC, test_alpha2=1e-150))
    @example(settings_=dict(OVERFLOWING_ERGODIC, test_alpha2=1e-150, sigma=1e160,
                            t_final=0.125))
    @example(settings_=dict(OVERFLOWING_ERGODIC, test_alpha2=1e300))
    @example(settings_=dict(OVERFLOWING_ERGODIC, **LINEAR_DRIFT, n_modes=8, estimator="both",
                            initials=(f"1{'0' * 307}*cos(x)",)))
    def test_every_config_runs_or_fails_with_an_error_line(self, settings_):
        """Exit 0 writes only finite estimates, and its metadata echo,
        re-fed as a config, reproduces every CSV byte for byte; exit 2
        prints only lines naming a config key; exit 1 starts with an
        ``error:`` line.  No run exits 0 with a non-finite estimate."""
        text = "".join(f"{key} = {format_value(value)}\n" for key, value in settings_.items())
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_and_check("ergodic", Path(tmp), "run", "command = ergodic\n" + text)
            if code:
                return
            with open(out / "ergodic_summary.csv", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            assert rows and all(math.isfinite(float(row["estimate"])) for row in rows)
            assert_echo_reproduces("ergodic", Path(tmp), out, "ergodic_summary.csv")


@st.composite
def convergence_settings(draw):
    """A converge-time or converge-space config at n_modes <= 8, accepted or
    not: ladders with a rung equal to the reference (a stride-1 level that
    shares the reference's stack), rungs off the reference's grid or beyond
    its modes, horizons off the grid, sigma up to 1e160, down to one
    trajectory."""
    command = draw(st.sampled_from(("converge-time", "converge-space")))
    tau = draw(st.sampled_from((2.0**-6, 2.0**-4, 0.05)))
    settings = {
        "sigma": draw(st.sampled_from((0.0, 1.0, 1e100, 4e154, 1e160))
                      | st.floats(0.0, 1e160)),
        "n_trajectories": draw(mostly(st.integers(1, 3), st.just(0))),
        "initial": draw(EXPRESSIONS),
    }
    if command == "converge-time":
        strides = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        ladder = [k * tau for k in strides] + draw(mostly(st.just([]), st.floats(1e-3, 0.5)
                                                          .map(lambda t: [t])))
        steps = math.lcm(*strides) * draw(st.integers(1, 2))
        settings.update(n_modes=draw(st.integers(2, 8)), tau_ref=tau, tau_ladder=tuple(ladder))
    else:
        n_ref = draw(st.integers(2, 8))
        ladder = draw(st.lists(mostly(st.integers(2, n_ref), st.just(n_ref + 1)),
                               min_size=1, max_size=3)) + [n_ref]
        steps = draw(st.integers(1, 3))
        settings.update(tau=tau, n_modes_ref=n_ref, n_modes_ladder=tuple(ladder))
    settings["t_final"] = draw(mostly(st.just(steps * tau), st.floats(1e-3, 0.5)))
    return command, settings


class TestConvergenceConfigs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(case=convergence_settings())
    @example(case=("converge-space", {"sigma": 1e160, "tau": 0.0625, "t_final": 0.0625,
                                      "n_modes_ref": 8, "n_modes_ladder": (2, 4, 8),
                                      "initial": "1/3", "n_trajectories": 1}))
    def test_every_config_runs_or_fails_with_an_error_line(self, case):
        """Exit 0 writes only finite errors, and its metadata echo, re-fed
        as a config, reproduces its CSV byte for byte; exit 2 prints only
        lines naming a config key; exit 1 starts with an ``error:`` line.
        No run exits 0 with a non-finite error."""
        command, settings_ = case
        text = "".join(f"{key} = {format_value(value)}\n" for key, value in settings_.items())
        with tempfile.TemporaryDirectory() as tmp:
            code, out = run_and_check(command, Path(tmp), "run", f"command = {command}\n" + text)
            if code:
                return
            stem = "convergence_time" if command == "converge-time" else "convergence_space"
            with open(out / f"{stem}.csv", newline="") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            assert rows and all(math.isfinite(float(row["error"])) for row in rows)
            assert_echo_reproduces(command, Path(tmp), out, f"{stem}.csv")


@st.composite
def simulate_settings(draw):
    """A simulate config at n_modes <= 8, accepted or not: sigma up to 1e160,
    tau_fine a whole fraction of tau (ratio 1 to 4) or off its grid,
    horizons off the grid, snapshots, and an optional checkpoint that a
    second run resumes to a drawn horizon (possibly before the checkpoint)."""
    tau = draw(st.sampled_from((0.0625, 0.1, 0.25)))
    horizon = mostly(st.integers(1, 6).map(lambda k: k * tau), st.floats(1e-3, 2.0))
    settings = {
        "n_modes": draw(st.integers(2, 8)), "tau": tau,
        "sigma": draw(st.sampled_from((0.0, 1.0, 1e100, 1e160)) | st.floats(0.0, 1e160)),
        "initial": draw(EXPRESSIONS),
        "t_final": draw(horizon),
        "tau_fine": draw(st.none() | mostly(st.integers(1, 4).map(lambda k: tau / k),
                                            st.sampled_from((2 * tau, 0.03)))),
        "snapshot_every": draw(st.none() | mostly(st.integers(0, 4), st.just(-1))),
        "trajectory_id": draw(st.none() | st.integers(0, 3)),
    }
    return ({key: value for key, value in settings.items() if value is not None},
            draw(st.none() | horizon))


class TestSimulateConfigs:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(case=simulate_settings())
    @example(case=({"n_modes": 8, "tau": 0.25, "sigma": 1e160, "initial": "1/3",
                    "t_final": 0.5}, None))
    def test_every_config_runs_or_fails_with_an_error_line(self, case):
        """Every run exits 0, 1 or 2 as ``run_and_check`` describes; an
        exit-0 run writes finite values, and its metadata echo, re-fed as a
        config, reproduces its trajectory file byte for byte."""
        settings_, resume_t_final = case
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            ckpt = tmp / "state.ckpt"
            texts = ["command = simulate\n" + "".join(
                f"{key} = {format_value(value)}\n" for key, value in settings_.items())]
            if resume_t_final is not None:
                texts[0] += f"checkpoint_out = {ckpt}\n"
                texts.append(f"command = simulate\ncheckpoint_in = {ckpt}\n"
                             f"t_final = {format_value(resume_t_final)}\n")
            for i, text in enumerate(texts):
                code, out = run_and_check("simulate", tmp, f"run{i}", text)
                if code:
                    return
                rows = list(csv.DictReader(line for line in
                                           (out / "trajectory.csv").read_text().splitlines()
                                           if not line.startswith("#")))
                assert rows and all(math.isfinite(float(row["value"])) for row in rows)
                assert_echo_reproduces("simulate", tmp, out, "trajectory.csv")


class TestCli:
    def write_cfg(self, tmp_path, text, name="run.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_simulate_writes_trajectory_csv(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "simulate: 4 steps" in captured.out
        text = (out / "trajectory.csv").read_text()
        assert text.startswith(f"# {FORMAT_VERSION}\n")
        assert "t,x,value" in text

    def test_simulate_reproducibility_closure(self, tmp_path, capsys):
        """Metadata header re-fed as config reproduces the file byte for byte."""
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1),
                     "--deterministic"]) == 0
        echo = read_metadata_config(out1 / "trajectory.csv")
        cfg2 = self.write_cfg(tmp_path, echo, name="echo.cfg")
        assert main(["simulate", "--config", cfg2, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--seed", "123"]) == 0
        assert "seed = 123" in read_metadata_config(out / "trajectory.csv")

    def test_env_override_sits_between_file_and_flag(self, tmp_path, capsys,
                                                     monkeypatch):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        monkeypatch.setenv("SCHSIM_SEED", "77")
        out1 = tmp_path / "env"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert "seed = 77" in read_metadata_config(out1 / "trajectory.csv")
        out2 = tmp_path / "flag"
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "5"]) == 0
        assert "seed = 5" in read_metadata_config(out2 / "trajectory.csv")

    def test_snapshots_and_svg(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG + "snapshot_every = 2\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--svg"]) == 0
        rows = [line for line in (out / "trajectory.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        # snapshots at m = 0, 2, 4 on an 8-point grid, plus the header row
        assert len(rows) == 1 + 3 * 8
        assert ET.parse(out / "trajectory.svg").getroot().tag.endswith("svg")

    def test_checkpoint_flow_through_cli(self, tmp_path, capsys):
        ckpt = tmp_path / "state.ckpt"
        cfg1 = self.write_cfg(tmp_path, SIM_CFG +
                              f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg1,
                     "--out", str(tmp_path / "o1")]) == 0
        cfg2 = self.write_cfg(
            tmp_path,
            f"command = simulate\ncheckpoint_in = {ckpt}\nt_final = 0.5\n"
            "tau = 0.0625\ninitial = 1/3\n", "resume.cfg")
        assert main(["simulate", "--config", cfg2,
                     "--out", str(tmp_path / "o2")]) == 0
        assert "simulate: 8 steps" in capsys.readouterr().out

    def test_resume_from_a_subnormal_coefficient(self, tmp_path, capsys, monkeypatch,
                                                 exact_factors):
        """At N = 256, tau = 2^-12, a run with the exact semigroup factors
        checkpoints a subnormal mode-42 coefficient, where the flushed run
        checkpoints 0.0.  Resuming from either writes the same
        trajectory.csv byte for byte, whose rows are those of the
        uninterrupted run from the checkpoint's step on."""
        sim = ("command = simulate\nn_modes = 256\ntau = 0.000244140625\n"
               "initial = (1/3)*cos(x)+1/3\nseed = 5\nsnapshot_every = 50\n")
        ckpt = tmp_path / "state.ckpt"
        first = self.write_cfg(  # 200 steps
            tmp_path, sim + f"t_final = 0.048828125\ncheckpoint_out = {ckpt}\n", "first.cfg")
        resume = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                                "t_final = 0.09765625\nsnapshot_every = 50\n", "resume.cfg")
        whole = self.write_cfg(tmp_path, sim + "t_final = 0.09765625\n", "whole.cfg")

        def run(cfg, name):
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name),
                         "--deterministic"]) == 0
            return (tmp_path / name / "trajectory.csv").read_text(), capsys.readouterr().out

        def mode_42():
            lines = ckpt.read_text().splitlines()
            return float(lines[lines.index("coeffs:") + 1 + 42])

        exact_factors()
        run(first, "exact_first")
        exact_ckpt = ckpt.read_text()
        assert 0.0 < abs(mode_42()) < np.finfo(np.float64).tiny
        monkeypatch.undo()
        run(first, "first")
        assert mode_42() == 0.0
        from_flushed = run(resume, "from_flushed")
        ckpt.write_text(exact_ckpt)
        from_exact = run(resume, "from_exact")
        assert from_exact == from_flushed
        rows = [line for line in from_flushed[0].splitlines() if not line.startswith("#")]
        whole_rows = [line for line in run(whole, "whole")[0].splitlines()
                      if not line.startswith("#")]
        assert len(rows) == 1 + 5 * 256  # the header and steps 200, 250, ..., 400
        assert rows[1:] == whole_rows[-5 * 256:]

    def test_converge_time_outputs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, """\
command = converge-time
n_modes = 8
t_final = 0.25
tau_ref = 0.00390625
tau_ladder = 0.0625, 0.03125, 0.015625
initial = (1/3)*cos(x)+1/3
n_trajectories = 2
""")
        out = tmp_path / "out"
        assert main(["converge-time", "--config", cfg, "--out", str(out),
                     "--svg", "--deterministic"]) == 0
        text = (out / "convergence_time.csv").read_text()
        assert "# slope = " in text
        assert "# wallclock_s = NA" in text
        assert "tau,n_modes,error,pair_rate" in text
        assert ET.parse(out / "convergence_time.svg").getroot().tag.endswith("svg")
        assert "time refinement: slope" in capsys.readouterr().out

    def test_converge_space_outputs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, """\
command = converge-space
t_final = 0.125
tau = 0.0078125
n_modes_ref = 16
n_modes_ladder = 4, 8
initial = 1/3
n_trajectories = 2
""")
        out = tmp_path / "out"
        assert main(["converge-space", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "convergence_space.csv").exists()
        assert "space refinement" in capsys.readouterr().out

    def test_deterministic_outputs_do_not_depend_on_threads(self, tmp_path, capsys):
        """--deterministic leaves --threads in force, and the thread count
        changes no byte of the CSV and stdout of the benchmark's spatial
        smoke run (its config, with the drift and sigma left at their
        defaults), whose levels all advance as one stack."""
        cfg = self.write_cfg(tmp_path, """\
command = converge-space
t_final = 0.0625
tau = 0.000244140625
n_modes_ref = 64
n_modes_ladder = 4, 8, 16
initial = (1/3)*cos(x)+1/3
n_trajectories = 2
seed = 2
""")
        texts = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            assert main(["converge-space", "--config", cfg, "--out", str(out),
                         "--deterministic", "--threads", threads]) == 0
            texts.append(((out / "convergence_space.csv").read_bytes(),
                          capsys.readouterr().out))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, tmp_path, capsys, threads):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        with pytest.raises(SystemExit) as exc_info:
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "out"),
                  "--threads", threads])
        assert exc_info.value.code == 2
        assert "--threads: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ergodic_outputs(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, """\
command = ergodic
n_modes = 8
tau = 0.015625
t_final = 0.25
t_final_ensemble = 0.125
n_trajectories = 2
initials = 1/3; 1
""")
        out = tmp_path / "out"
        assert main(["ergodic", "--config", cfg, "--out", str(out)]) == 0
        for stem in ("single_0", "ensemble_0", "single_1", "ensemble_1"):
            assert (out / f"ergodic_{stem}.csv").exists()
        summary = (out / "ergodic_summary.csv").read_text()
        assert "label,estimator,initial,estimate" in summary
        assert capsys.readouterr().out.count("estimate") == 4

    def test_ergodic_svg_draws_one_line_per_run(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, """\
command = ergodic
n_modes = 8
tau = 0.015625
t_final = 0.25
t_final_ensemble = 0.125
n_trajectories = 2
initials = 1/3; 1
""")
        out = tmp_path / "out"
        assert main(["ergodic", "--config", cfg, "--out", str(out), "--svg"]) == 0
        root = ET.parse(out / "ergodic.svg").getroot()
        svg = "{http://www.w3.org/2000/svg}"
        assert root.tag == f"{svg}svg"
        lines = list(root.iter(f"{svg}polyline"))
        labels = [t.text for t in root.iter(f"{svg}text")]
        runs = ["single[0]", "ensemble[0]", "single[1]", "ensemble[1]"]
        assert len(lines) == len(runs) and all(run in labels for run in runs)
        # t = 0, 0.015625, ..., 0.25 for a single run, to 0.125 for an ensemble
        assert [len(line.get("points").split()) for line in lines] == [17, 9, 17, 9]

    # a rung equal to the reference: the last row of each ladder has error 0
    ZERO_RUNG = {
        "converge-time": ("time", "tau_ladder = 0.0625, 0.03125, 0.015625\n",
                          "tau_ladder = 0.015625\n", """\
command = converge-time
n_modes = 8
t_final = 0.25
tau_ref = 0.015625
initial = (1/3)*cos(x)+1/3
n_trajectories = 2
"""),
        "converge-space": ("space", "n_modes_ladder = 4, 8, 16\n",
                           "n_modes_ladder = 16\n", """\
command = converge-space
t_final = 0.125
tau = 0.0078125
n_modes_ref = 16
initial = 1/3
n_trajectories = 2
"""),
    }

    @pytest.mark.parametrize("command", sorted(ZERO_RUNG))
    def test_svg_charts_the_positive_errors(self, tmp_path, capsys, command):
        """A log-log chart cannot show a zero error, so --svg charts the
        other rows; the run exits 0 and its CSV is byte for byte the one
        written without --svg."""
        kind, ladder, _, text = self.ZERO_RUNG[command]
        cfg = self.write_cfg(tmp_path, text + ladder)
        for name, flags in (("plain", []), ("svg", ["--svg"])):
            assert main([command, "--config", cfg, "--out", str(tmp_path / name),
                         "--deterministic", *flags]) == 0
        csv_name = f"convergence_{kind}.csv"
        written = (tmp_path / "svg" / csv_name).read_bytes()
        assert written == (tmp_path / "plain" / csv_name).read_bytes()
        rows = list(csv.DictReader(line for line in written.decode().splitlines()
                                   if not line.startswith("#")))
        errors = [float(row["error"]) for row in rows]
        assert errors[-1] == 0.0 and all(e > 0 for e in errors[:-1])
        svg = "{http://www.w3.org/2000/svg}"
        [line] = ET.parse(tmp_path / "svg" / f"convergence_{kind}.svg").getroot().iter(
            f"{svg}polyline")
        assert len(line.get("points").split()) == len(errors) - 1

    @pytest.mark.parametrize("command", sorted(ZERO_RUNG))
    def test_svg_of_no_positive_error_is_not_written(self, tmp_path, capsys, command):
        kind, _, ladder, text = self.ZERO_RUNG[command]
        cfg = self.write_cfg(tmp_path, text + ladder)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--svg"]) == 0
        assert sorted(p.name for p in out.iterdir()) == [f"convergence_{kind}.csv"]
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"convergence_{kind}.svg not written: no row has a positive error")

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "command = simulate\n")  # missing keys
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: config:" in err

    @pytest.mark.parametrize("command, key, text", [
        # a blank separates tokens, it never joins one
        *(("simulate", "initial", text) for text in ["1 2/3", "co s(x)", "e x p(x)", "2 . 5"]),
        # a number that is not a finite float
        pytest.param("simulate", "initial", "1" + "0" * 400, id="coefficient"),
        pytest.param("simulate", "initial", "cos(1" + "0" * 400 + "x)", id="wavenumber"),
        pytest.param("ergodic", "initials", "1/3; 1" + "0" * 306 + "/0.001", id="fraction"),
        pytest.param("ergodic", "test_v", "1" + "0" * 400 + "*exp(x)", id="test_v"),
    ])
    def test_expression_errors_exit_2(self, tmp_path, capsys, command, key, text):
        """An expression that is not read as written is a config error naming
        its key, found before the run and without numpy warnings."""
        pairs = {"command": command, "n_modes": "8", "tau": "0.0625", "t_final": "0.25",
                 "n_trajectories": "2", "initial" if command == "simulate" else "initials": "1/3"}
        pairs[key] = text
        cfg = self.write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: config: key {key!r}: " in capsys.readouterr().err
        assert not out.exists()

    HUGE = "1" + "0" * 307  # 1e307, so 1e307 * e^x overflows beyond x = 2.89

    @pytest.mark.parametrize("command, key, text, grid", [
        ("simulate", "initial", HUGE + "*exp(x)", 8),
        # 0 at x = 0 and x = pi, but 1.5e308 * (cos(x) - cos(3x)) overflows between
        ("simulate", "initial", f"15{HUGE[1:]}*cos(x) - 15{HUGE[1:]}*cos(3x)", 8),
        ("converge-time", "initial", HUGE + "*exp(x)", 8),
        pytest.param("converge-space", "initial", HUGE + "*exp(x)", 8, id="reference"),
        # 1e308 cos(8x) twice is +-2e308 on the coarse N = 2 and N = 4 grids, but
        # about 1e292 on the reference's, where cos(8x) is 0 up to rounding
        pytest.param("converge-space", "initial", f"{HUGE}0*cos(8x) + {HUGE}0*cos(8x)", 2,
                     id="coarse-level"),
        ("ergodic", "initials", f"1/3; {HUGE}*exp(x)", 8),
        ("ergodic", "test_v", HUGE + "*exp(x)", 8),
    ])
    def test_an_expression_that_overflows_on_the_grid_exits_2(self, tmp_path, capsys,
                                                              command, key, text, grid):
        """An expression whose numbers are finite but whose value overflows
        somewhere on a grid the run uses is a config error naming its key
        and that grid, with no numpy warning."""
        pairs = {"command": command, "n_modes": "8", "t_final": "0.25",
                 **{"simulate": {"tau": "0.0625", "initial": "1/3"},
                    "converge-time": {"tau_ref": "0.0625", "tau_ladder": "0.125",
                                      "initial": "1/3"},
                    "converge-space": {"tau": "0.0625", "n_modes_ref": "8",
                                       "n_modes_ladder": "2, 4", "initial": "1/3"},
                    "ergodic": {"tau": "0.0625", "initials": "1/3"}}[command]}
        pairs[key] = text
        cfg = self.write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: config: key {key!r}: ")
        assert line.endswith(f"on the {grid}-point grid: a term or the sum of the terms "
                             f"overflows")

    @pytest.mark.parametrize("command, key, text, n_ref, grid", [
        ("simulate", "initial", HUGE, 64, 64),
        ("converge-time", "initial", HUGE, 64, 64),
        pytest.param("converge-space", "initial", HUGE, 64, 64, id="reference"),
        # 1e308 cos(8x) is -1e308 at the four points of the N = 4 grid, whose
        # mode-0 sum overflows, and about 1e292 on the reference's
        pytest.param("converge-space", "initial", f"{HUGE}0*cos(8x)", 8, 4,
                     id="coarse-level"),
        ("ergodic", "initials", f"1/3; {HUGE}", 64, 64),
    ])
    def test_an_initial_field_whose_analysis_overflows_exits_2(
            self, tmp_path, capsys, command, key, text, n_ref, grid):
        """A finite initial field whose spectral coefficients are not (1e307
        summed over 64 points) is a config error naming its key and grid,
        with no numpy warning, not a blow-up at step 1."""
        pairs = {"command": command, "n_modes": "64", "t_final": "0.25",
                 **{"simulate": {"tau": "0.0625", "initial": "1/3"},
                    "converge-time": {"tau_ref": "0.0625", "tau_ladder": "0.125",
                                      "initial": "1/3"},
                    "converge-space": {"tau": "0.0625", "n_modes_ref": str(n_ref),
                                       "n_modes_ladder": "2, 4", "initial": "1/3"},
                    "ergodic": {"tau": "0.0625", "initials": "1/3"}}[command]}
        pairs[key] = text
        cfg = self.write_cfg(tmp_path, "".join(f"{k} = {v}\n" for k, v in pairs.items()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"error: config: key {key!r}: {text.split('; ')[-1]!r} on the "
                        f"{grid}-point grid: initial condition overflows in the spectral "
                        f"transform: its coefficients or their nodal values are not finite")

    def test_command_mismatch_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        assert main(["ergodic", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: config: key 'command': set to 'simulate', "
                                           "but the 'ergodic' subcommand was invoked\n")

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", "tau = 0.25\nt_final = 0.3\ninitial = 1/3\n", "t_final"),
        ("converge-time", "t_final = 0.1875\ntau_ref = 0.00390625\n"
         "tau_ladder = 0.0625, 0.125\ninitial = 1/3\n", "t_final"),
        ("converge-space", "t_final = 0.13\ntau = 0.0078125\nn_modes_ref = 16\n"
         "n_modes_ladder = 4, 8\ninitial = 1/3\n", "t_final"),
        ("ergodic", "tau = 0.01\nt_final = 0.3\nt_final_ensemble = 0.105\n"
         "initials = 1/3\n", "t_final_ensemble"),
        ("ergodic", "tau = 0.01\nt_final = 0.3\nburn_in = 0.015\n"
         "initials = 1/3\n", "burn_in"),
    ])
    def test_partial_steps_exit_2(self, tmp_path, capsys, command, extra, key):
        """A horizon that is not a whole number of steps is a config error
        naming the key, not a silently floored run."""
        cfg = self.write_cfg(tmp_path, f"command = {command}\nn_modes = 8\n" + extra)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"error: config: key {key!r}" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("extra", [
        "t_final = 0.3\nt_final_ensemble = 0.05\nburn_in = 0.08\n",
        "t_final = 0.3\nburn_in = 0.31\nestimator = single\n",
    ])
    def test_burn_in_beyond_horizon_exit_2(self, tmp_path, capsys, extra):
        """A burn-in longer than a horizon that runs leaves no samples."""
        cfg = self.write_cfg(tmp_path, "command = ergodic\nn_modes = 8\ntau = 0.01\n"
                             "n_trajectories = 2\ninitials = 1/3\n" + extra)
        out = tmp_path / "out"
        assert main(["ergodic", "--config", cfg, "--out", str(out)]) == 2
        assert "error: config: key 'burn_in': " in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_burn_in_equal_to_horizon_keeps_one_sample(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "command = ergodic\nn_modes = 8\ntau = 0.01\n"
                             "t_final = 0.3\nt_final_ensemble = 0.05\nburn_in = 0.05\n"
                             "estimator = ensemble\nn_trajectories = 2\ninitials = 1/3\n")
        assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "(2 samples)" in capsys.readouterr().out

    def test_trajectory_id_out_of_range_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG + f"trajectory_id = {2**64}\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "error: config: key 'trajectory_id'" in capsys.readouterr().err

    def test_trajectory_csv_holds_plain_numbers(self, tmp_path, capsys):
        """Every x and value reads back with float() as the grid point and
        the snapshot's nodal value, bit for bit."""
        cfg = self.write_cfg(tmp_path, "command = simulate\nn_modes = 4\ntau = 0.01\n"
                             "t_final = 0.02\ninitial = 1/3\nsnapshot_every = 1\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        with open(out / "trajectory.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        basis = SpectralBasis(4)
        params = SchemeParams(basis, DriftSpec(0.5, -0.5, 1.0, -1.0), 0.01, 1.0)
        snapshots = []
        run_trajectory(params, initial_state(params, evaluate_expression("1/3", basis.grid)),
                       NoiseSource(0, 0, tau_fine=0.01, n_modes_max=3), 2,
                       observers=(lambda m, s: snapshots.append(s.nodal),))
        assert len(rows) == 3 * 4 == 4 * len(snapshots)
        for i, row in enumerate(rows):
            assert float(row["x"]).hex() == float(basis.grid[i % 4]).hex()
            assert float(row["value"]).hex() == float(snapshots[i // 4][i % 4]).hex()

    @pytest.mark.parametrize("new_lines, message", BAD_HEADERS)
    def test_bad_checkpoint_header_exit_1(self, tmp_path, capsys, new_lines, message):
        ckpt = tmp_path / "state.ckpt"
        cfg1 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg1, "--out", str(tmp_path / "o1")]) == 0
        insert_after_tau(ckpt, *new_lines)
        cfg2 = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                              "t_final = 0.5\n", "resume.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1
        assert capsys.readouterr().err.startswith(f"error: runtime: {ckpt}: {message}")

    def test_malformed_checkpoint_exit_1(self, tmp_path, capsys):
        ckpt = tmp_path / "state.ckpt"
        cfg1 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg1, "--out", str(tmp_path / "o1")]) == 0
        ckpt.write_text(ckpt.read_text().replace("validation_mode = false",
                                                 "validation_mode = no"))
        cfg2 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_in = {ckpt}\n", "resume.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1
        assert "malformed field 'validation_mode'" in capsys.readouterr().err

    def test_malformed_checkpoint_coefficient_exit_1(self, tmp_path, capsys):
        ckpt = tmp_path / "state.ckpt"
        cfg1 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg1, "--out", str(tmp_path / "o1")]) == 0
        lines = ckpt.read_text().splitlines()
        lines[-1] = "abc"
        ckpt.write_text("\n".join(lines) + "\n")
        cfg2 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_in = {ckpt}\n", "resume.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1
        assert f"{ckpt}: line {len(lines)}: malformed coefficient 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("last, message", [
        (b"nan", "coefficient 'nan' is not finite"),
        (b"1e999", "coefficient '1e999' is not finite"),
        (b"1.0\xc3\xa9", "non-ASCII byte 0xc3")])
    def test_a_non_finite_or_non_ascii_checkpoint_line_exit_1(self, tmp_path, capsys, last,
                                                             message):
        ckpt = tmp_path / "state.ckpt"
        cfg1 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg1, "--out", str(tmp_path / "o1")]) == 0
        lines = ckpt.read_bytes().splitlines()
        lines[-1] = last
        ckpt.write_bytes(b"\n".join(lines) + b"\n")
        cfg2 = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_in = {ckpt}\n", "resume.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg2, "--out", str(tmp_path / "o2")]) == 1
        assert capsys.readouterr().err == (
            f"error: runtime: {ckpt}: line {len(lines)}: {message}\n")

    def write_resumable(self, tmp_path):
        """A checkpoint at step 2 of a run whose scheme, drift and noise
        values all differ from the config defaults; returns its path."""
        ckpt = tmp_path / "state.ckpt"
        cfg = self.write_cfg(tmp_path, "command = simulate\nn_modes = 8\ntau = 0.0625\n"
                             "sigma = 0.5\ndrift_a1 = 0.25\nseed = 5\ntrajectory_id = 3\n"
                             "tau_fine = 0.03125\nt_final = 0.125\ninitial = 1/3\n"
                             f"checkpoint_out = {ckpt}\n", "first.cfg")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
        return ckpt

    def resume_cfg(self, tmp_path, ckpt, extra=""):
        """A resume config that repeats the checkpoint's tau unless ``extra``
        sets it."""
        if "tau =" not in extra:
            extra += "tau = 0.0625\n"
        return self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                              "t_final = 0.25\ninitial = 1/3\n" + extra, "resume.cfg")

    def test_resume_echoes_the_checkpoint_run(self, tmp_path, capsys):
        """The resumed run's CSV records the values it ran with, and re-running
        its echo reproduces it byte for byte."""
        ckpt = self.write_resumable(tmp_path)
        cfg = self.resume_cfg(tmp_path, ckpt)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--deterministic"]) == 0
        echo = read_metadata_config(out1 / "trajectory.csv")
        for line in ("n_modes = 8", "tau = 0.0625", "sigma = 0.5", "drift_a0 = 0.5",
                     "drift_a1 = 0.25", "drift_a2 = 1.0", "drift_a3 = -1.0",
                     "validation_mode = false", "seed = 5", "trajectory_id = 3",
                     "tau_fine = 0.03125"):
            assert line in echo.splitlines()
        rows = [line for line in (out1 / "trajectory.csv").read_text().splitlines()
                if line and not line.startswith("#")]
        assert len(rows) == 1 + 8  # header and the final 8-node snapshot
        echo_cfg = self.write_cfg(tmp_path, echo, "echo.cfg")
        assert main(["simulate", "--config", echo_cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_resume_without_tau_or_initial(self, tmp_path, capsys):
        """A resume config may leave out tau and initial: the run and its
        echo are those of a config that repeats the checkpoint's tau."""
        ckpt = self.write_resumable(tmp_path)
        bare = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                              "t_final = 0.25\n", "bare.cfg")
        out1, out2 = tmp_path / "bare", tmp_path / "full"
        assert main(["simulate", "--config", bare, "--out", str(out1), "--deterministic"]) == 0
        echo = read_metadata_config(out1 / "trajectory.csv").splitlines()
        assert "tau = 0.0625" in echo
        assert not any(line.startswith("initial") for line in echo)
        full = self.resume_cfg(tmp_path, ckpt)
        assert main(["simulate", "--config", full, "--out", str(out2), "--deterministic"]) == 0
        rows = [[line for line in (out / "trajectory.csv").read_text().splitlines()
                 if not line.startswith("#")] for out in (out1, out2)]
        assert len(rows[0]) == 1 + 8 and rows[0] == rows[1]

    @pytest.mark.parametrize("setting, key", [
        ("n_modes = 16\n", "n_modes"), ("tau = 0.125\n", "tau"), ("sigma = 0\n", "sigma"),
        ("drift_a1 = -0.5\n", "drift_a1"), ("validation_mode = true\n", "validation_mode"),
        ("seed = 6\n", "seed"), ("trajectory_id = 0\n", "trajectory_id"),
        ("tau_fine = 0.0625\n", "tau_fine"),
    ])
    def test_resume_rejects_a_contradicting_key(self, tmp_path, capsys, setting, key):
        ckpt = self.write_resumable(tmp_path)
        cfg = self.resume_cfg(tmp_path, ckpt, setting)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert f"error: config: key {key!r}: " in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_resume_rejects_a_contradicting_seed_flag(self, tmp_path, capsys):
        ckpt = self.write_resumable(tmp_path)
        cfg = self.resume_cfg(tmp_path, ckpt)
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--seed", "9"]) == 2
        assert "error: config: key 'seed': set to 9" in capsys.readouterr().err
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "y"),
                     "--seed", "5"]) == 0

    def test_unused_horizon_is_not_checked(self, tmp_path):
        """The ensemble estimator reads t_final_ensemble, not t_final."""
        cfg = self.write_cfg(tmp_path, "command = ergodic\nn_modes = 8\ntau = 0.01\n"
                             "t_final = 0.305\nt_final_ensemble = 0.05\n"
                             "estimator = ensemble\nn_trajectories = 2\ninitials = 1/3\n")
        assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command, text, key", [
        ("converge-time", "t_final = 0.25\ntau_ref = 0.0078125\ntau_ladder = 0.0625, 0.1\n",
         "tau_ladder"),
        ("converge-space", "t_final = 0.25\ntau = 0.0625\nn_modes_ref = 16\n"
         "n_modes_ladder = 4, 8, 32\n", "n_modes_ladder"),
        ("simulate", "tau = 0.0625\nt_final = 0.25\ntau_fine = 0.017\n", "tau"),
    ])
    def test_key_relations_exit_2(self, tmp_path, capsys, command, text, key):
        """A ladder step that is not a whole number of reference steps, a
        ladder mode count beyond the reference and a tau that is not a
        whole number of tau_fine steps are config errors, found before any
        run starts."""
        cfg = self.write_cfg(tmp_path, f"command = {command}\nn_modes = 8\ninitial = 1/3\n"
                             "n_trajectories = 2\n" + text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: key {key!r}: ")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command, text, key", [
        ("simulate", "tau = 0.01\nt_final = 0.1\nn_modes = 100000000\n", "n_modes"),
        ("ergodic", "tau = 0.01\nt_final = 0.3\ninitials = 1/3\nestimator = single\n"
                    "test_alpha2 = 1e-320\n", "test_alpha2"),
    ])
    def test_out_of_range_values_exit_2(self, tmp_path, capsys, command, text, key):
        """A mode count too large for the dense basis and a test_alpha2
        whose phi bound underflows are config errors, found before the run."""
        cfg = self.write_cfg(tmp_path, f"command = {command}\ninitial = 1/3\n" + text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: key {key!r}: ")
        assert not out.exists()

    @pytest.mark.parametrize("setting, message", [
        ("seed = -1", "key 'seed': must be in [0, 2^64), got -1"),
        ("trajectory_id = 18446744073709551616",
         "key 'trajectory_id': must be in [0, 2^64), got 18446744073709551616"),
        ("n_modes = 1", "key 'n_modes': must lie in [2, 4096], got 1"),
        ("n_modes_ref = 4097", "key 'n_modes_ref': must lie in [2, 4096], got 4097"),
        ("sigma = -0.5", "key 'sigma': must be nonnegative, got -0.5"),
        ("drift_a0 = -1", "key 'drift_a0': must be nonnegative, got -1.0"),
        ("tau = 1", "key 'tau': must lie in (0, 1), got 1.0"),
        ("tau_ref = 0", "key 'tau_ref': must lie in (0, 1), got 0.0"),
        ("tau_fine = 1.5", "key 'tau_fine': must lie in (0, 1), got 1.5"),
        ("t_final = -1", "key 't_final': must be positive, got -1.0"),
        ("t_final_ensemble = 0", "key 't_final_ensemble': must be positive, got 0.0"),
        ("snapshot_every = -1", "key 'snapshot_every': must be nonnegative, got -1"),
        ("n_trajectories = 0", "key 'n_trajectories': must be positive, got 0"),
        ("burn_in = -0.5", "key 'burn_in': must be nonnegative, got -0.5"),
        ("thinning = 0", "key 'thinning': must be positive, got 0"),
    ])
    def test_single_key_range_message(self, tmp_path, capsys, setting, message):
        """Each key's own range is one exit-2 line, pinned byte for byte."""
        text = "".join(line + "\n" for line in SIM_CFG.splitlines()
                       if line.split(" = ")[0] != setting.split(" = ")[0])
        cfg = self.write_cfg(tmp_path, text + setting + "\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr() == ("", f"error: config: {message}\n")

    @pytest.mark.parametrize("key, value", [
        ("checkpoint_out", "{tmp}/a#b.ckpt"),
        ("checkpoint_out", "{tmp}/a\nb.ckpt"),
        ("checkpoint_out", "{tmp}/a\u2028b.ckpt"),
        ("initial", "1/3 +\ncos(x)"),
    ])
    def test_value_its_echo_would_not_read_back_exit_2(self, tmp_path, capsys, monkeypatch,
                                                        key, value):
        """A value holding '#' or a line break would be cut at the '#' or split
        by the re-parse of its echo line; set through an SCHSIM_* variable it is
        one config error naming its key, and nothing runs."""
        value = value.format(tmp=tmp_path)
        monkeypatch.setenv(f"SCHSIM_{key.upper()}", value)
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: config: key {key!r}: {value!r} holds '#' or a line break, "
                       f"so the echo of this run would not read it back\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("name, stem", [("temporal", "convergence_time"),
                                            ("spatial", "convergence_space")])
    def test_convergence_chart_spans_the_ladder(self, tmp_path, capsys, name, stem):
        """--svg on the benchmark's smoke configs writes a well-formed chart
        with one point per ladder rung, whose x tick labels run from the
        finest to the coarsest step parameter: tau, or h = pi/N."""
        workload = WORKLOADS[name]
        config = tmp_path / "run.cfg"
        config.write_text(workload.config_text(seed=2, smoke=True), encoding="utf-8")
        assert main(workload.argv(config) + ["--out", str(tmp_path / "out"), "--svg"]) == 0
        cfg = parse_config(config.read_text(encoding="utf-8"))
        steps = (cfg.tau_ladder if cfg.command == "converge-time"
                 else [np.pi / n for n in cfg.n_modes_ladder])
        root = ET.parse(tmp_path / "out" / f"{stem}.svg").getroot()
        svg = "{http://www.w3.org/2000/svg}"
        x_ticks = [t.text for t in root.iter(f"{svg}text")
                   if t.get("text-anchor") == "middle" and t.get("font-size") == "11"]
        assert len(x_ticks) == 5
        assert (x_ticks[0], x_ticks[-1]) == (f"{min(steps):.3g}", f"{max(steps):.3g}")
        [line] = root.iter(f"{svg}polyline")
        assert len(line.get("points").split()) == len(steps)

    def test_converge_space_builds_no_basis_of_n_modes(self, tmp_path, capsys, monkeypatch):
        """converge-space never reads n_modes, so a stray n_modes = 2048 builds
        no basis of that size: only the reference's and the ladder's."""
        built = []
        init = SpectralBasis.__init__

        def recording_init(self, n_modes):
            built.append(n_modes)
            init(self, n_modes)

        monkeypatch.setattr(SpectralBasis, "__init__", recording_init)
        cfg = self.write_cfg(tmp_path, """\
command = converge-space
n_modes = 2048
t_final = 0.0625
tau = 0.0625
n_modes_ref = 16
n_modes_ladder = 4, 8
initial = 1/3
n_trajectories = 2
""")
        assert main(["converge-space", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert sorted(built) == [4, 8, 16]

    def test_verify_through_main(self, tmp_path, capsys):
        assert main(["verify", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verify: 13/13 checks passed"

    def test_resume_before_the_checkpoint_step_exit_2(self, tmp_path, capsys):
        ckpt = self.write_resumable(tmp_path)  # at step 2 of tau = 0.0625
        cfg = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                             "t_final = 0.0625\n", "resume.cfg")
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == ("error: config: key 't_final': t_final corresponds "
                                           "to step 1, but the checkpoint is already at "
                                           "step 2\n")

    def test_checkpoint_tau_off_its_tau_fine_exit_2(self, tmp_path, capsys):
        """The tau / tau_fine rule names tau for a checkpoint as for a config."""
        ckpt = self.write_resumable(tmp_path)
        ckpt.write_text(ckpt.read_text().replace("tau_fine = 0.03125", "tau_fine = 0.05"))
        cfg = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                             "t_final = 0.25\n", "resume.cfg")
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: config: key 'tau': tau in steps of tau_fine: 0.0625 must be a "
            "positive integer multiple of 0.05\n")
        assert not any(out.iterdir())

    @pytest.mark.parametrize("old, new, message", [
        ("tau = 0.0625", "tau = 5.0", "key 'tau': must lie in (0, 1), got 5.0"),
        ("sigma = 0.5", "sigma = -1.0", "key 'sigma': must be nonnegative, got -1.0"),
        ("seed = 5", "seed = -3", "key 'seed': must be in [0, 2^64), got -3"),
        ("n_modes = 8", "n_modes = 5000", "key 'n_modes': must lie in [2, 4096], got 5000"),
    ])
    def test_out_of_range_checkpoint_value_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  old, new, message):
        """A checkpoint's values pass a config's ranges: an out-of-range one
        is a config error naming its key, found before any basis is built."""
        ckpt = self.write_resumable(tmp_path)
        text = ckpt.read_text().replace(old, new)
        if new == "n_modes = 5000":
            text += "0.0\n" * (5000 - 8)
        ckpt.write_text(text)
        cfg = self.write_cfg(tmp_path, f"command = simulate\ncheckpoint_in = {ckpt}\n"
                             "t_final = 0.25\n", "resume.cfg")
        monkeypatch.setattr(cli, "SpectralBasis", None)  # calling it would fail
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("case, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("not-utf8", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 7"),
    ])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, case, reason):
        """A --config that cannot be read as text is a usage error."""
        path = tmp_path / "run.cfg"
        if case == "directory":
            path.mkdir()
        elif case == "not-utf8":
            path.write_bytes(b"seed = \xff\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: --config {path}: {reason}")
        assert not out.exists()

    def test_python_m_schsim(self, src_env):
        """``python -m schsim`` runs the CLI without an installed script."""
        done = subprocess.run([sys.executable, "-m", "schsim", "verify", "--help"],
                              env=src_env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: schsim verify")

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        # a checkpoint that cannot be read is only found at run time
        cfg = self.write_cfg(tmp_path, SIM_CFG + f"checkpoint_in = {tmp_path / 'none.ckpt'}\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: runtime:" in capsys.readouterr().err

    def test_blow_up_prints_only_its_error(self, tmp_path, capsys, recwarn):
        """The overflow warnings that lead to a blow-up are dropped; the
        run reports one error line."""
        cfg = self.write_cfg(tmp_path, SIM_CFG + "sigma = 1e300\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: blow-up: trajectory 0: non-finite state at step 2\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_an_overflowing_error_with_finite_states_exits_1(self, tmp_path, capsys):
        """Every state stays finite, but the difference to the reference
        overflows when squared: one runtime error line names the level and
        the reference step, and no blow-up is reported."""
        cfg = self.write_cfg(tmp_path, "command = converge-space\nsigma = 1e160\n"
                             "tau = 0.0625\nt_final = 0.0625\nn_modes_ref = 8\n"
                             "n_modes_ladder = 2, 4, 8\ninitial = 1/3\n")
        assert main(["converge-space", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: runtime: level tau=0.0625, n_modes=2: non-finite error at reference "
            "step 1 although every state is finite: a squared difference to the "
            "reference, or its sum over trajectories, overflows\n")

    def test_completed_run_keeps_its_warnings(self, tmp_path, capsys):
        """A run that completes re-emits the RuntimeWarnings it raised."""
        cfg = self.write_cfg(tmp_path, "command = ergodic\nn_modes = 8\ntau = 0.01\n"
                             "t_final = 0.3\ninitials = 1/3\nestimator = single\n"
                             "drift_a2 = -50\n")
        with pytest.warns(RuntimeWarning, match="dissipativity margin"):
            assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "single[0]: initial '1/3' -> estimate" in capsys.readouterr().out


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
