"""Tests for config parsing, output files and the command-line front end.

The contract that matters most: serialize_config is a canonical echo whose
re-parse reproduces the configuration exactly, and every output file embeds
that echo, so a file is a complete, executable record of the run that made
it.  The CLI tests run main() in-process and assert on files and exit codes.
"""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from schsim import ConfigError, RunConfig, parse_config, serialize_config
from schsim.cli import main
from schsim.config import apply_env_overrides, build_config, parse_pairs
from schsim.output import (FORMAT_VERSION, git_blob_sha1, metadata_lines,
                           read_metadata_config, write_csv,
                           write_svg_line_chart)

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
        pairs = parse_pairs("# intro\n\n a = 1 # trailing\n b = x=y\n")
        assert pairs == {"a": "1", "b": "x=y"}

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

    def test_zero_leading_drift_needs_validation_mode(self):
        base = "command = simulate\ntau = 0.1\nt_final = 1\ninitial = 1/3\ndrift_a0 = 0\n"
        with pytest.raises(ConfigError, match="validation_mode"):
            parse_config(base)
        cfg = parse_config(base + "validation_mode = true\n")
        assert cfg.drift_a0 == 0.0

    def test_bool_values_are_strict(self):
        with pytest.raises(ConfigError, match="expected true or false"):
            parse_config(SIM_CFG + "deterministic = yes\n")


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

    def test_svg_is_well_formed(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_svg_line_chart(path, [("e", [0.1, 0.05, 0.025], [1.0, 0.5, 0.27])],
                             "errors", "tau", "E", logx=True, logy=True)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_svg_rejects_nonpositive_on_log_axes(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            write_svg_line_chart(tmp_path / "bad.svg", [("e", [0.0, 1.0], [1, 2])],
                                 "t", "x", "y", logx=True)

    def test_svg_rejects_empty_series(self, tmp_path):
        with pytest.raises(ValueError, match="nonempty"):
            write_svg_line_chart(tmp_path / "bad.svg", [("e", [], [])], "t", "x", "y")


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

    def test_config_errors_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, "command = simulate\n")  # missing keys
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error: config:" in err

    def test_command_mismatch_exit_2(self, tmp_path, capsys):
        cfg = self.write_cfg(tmp_path, SIM_CFG)
        assert main(["ergodic", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "subcommand" in capsys.readouterr().err

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

    def test_unused_horizon_is_not_checked(self, tmp_path):
        """The ensemble estimator reads t_final_ensemble, not t_final."""
        cfg = self.write_cfg(tmp_path, "command = ergodic\nn_modes = 8\ntau = 0.01\n"
                             "t_final = 0.305\nt_final_ensemble = 0.05\n"
                             "estimator = ensemble\nn_trajectories = 2\ninitials = 1/3\n")
        assert main(["ergodic", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_runtime_errors_exit_1(self, tmp_path, capsys):
        # tau not a multiple of tau_fine is only caught at run time
        cfg = self.write_cfg(tmp_path, SIM_CFG + "tau_fine = 0.017\n")
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert "error: runtime:" in capsys.readouterr().err


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
