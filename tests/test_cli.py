"""Command line front end: subcommands, flag precedence, exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stanza
from stanza import cli
from stanza.cli import build_parser, main
from stanza.harness import CONFIG_TYPES, ExperimentConfig, MismatchedConfigs
from stanza.model_partition import (BadBoundary, ConfigError, NoConvBlock,
                                    NoFcLayer, NotExecutable)
from stanza.perf_model import load_constants_file


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRunCommand:
    def test_inline_flags(self, capsys):
        code, out, _ = run_cli(["run", "--mode", "single", "--model",
                                "tiny_cnn", "--seed", "3",
                                "--iterations", "2"], capsys)
        assert code == 0
        assert "final loss" in out
        assert "param digest" in out

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg = tmp_path / "exp.experiment"
        cfg.write_text("mode stanza\nmodel tiny_cnn\nseed 5\niterations 2\n"
                       "workers 2\nfc_workers 1\n")
        code, out, _ = run_cli(["run", "--config", str(cfg),
                                "--workers", "3"], capsys)
        assert code == 0
        assert "3+1 nodes" in out

    def test_writes_reports(self, tmp_path, capsys):
        code, out, _ = run_cli(["run", "--mode", "single", "--model",
                                "tiny_cnn", "--seed", "3", "--iterations", "2",
                                "--out-dir", str(tmp_path),
                                "--label", "smoke"], capsys)
        assert code == 0
        report = json.loads((tmp_path / "smoke.json").read_text())
        assert report["iterations"] == 2 and report["seed"] == 3

    def test_missing_required_flags(self, capsys):
        code, _, err = run_cli(["run", "--model", "tiny_cnn"], capsys)
        assert code == 2
        assert "configuration error" in err

    def test_numeric_failure_exit_code(self, capsys):
        with np.errstate(all="ignore"):
            code, _, err = run_cli(["run", "--mode", "single", "--model",
                                    "tiny_cnn", "--seed", "1",
                                    "--iterations", "4", "--lr", "1e6"],
                                   capsys)
        assert code == 4
        assert "numeric failure" in err

    def test_seed_env_var_wins(self, tmp_path, capsys, monkeypatch):
        args = ["run", "--mode", "single", "--model", "tiny_cnn",
                "--iterations", "1", "--out-dir", str(tmp_path)]
        run_cli(args + ["--seed", "123", "--label", "direct"], capsys)
        monkeypatch.setenv("STANZA_SEED", "123")
        code, _, _ = run_cli(args + ["--seed", "1", "--label", "env"], capsys)
        assert code == 0
        direct = (tmp_path / "direct.json").read_text()
        via_env = (tmp_path / "env.json").read_text()
        assert direct == via_env
        # compare reports carry no seed, so watch the configs it is handed
        seeds = []
        real_compare = cli.compare

        def spy(ps_cfg, st_cfg, **kw):
            seeds.append((ps_cfg.seed, st_cfg.seed))
            return real_compare(ps_cfg, st_cfg, **kw)

        monkeypatch.setattr(cli, "compare", spy)
        code, _, _ = run_cli(["compare", "--model", "tiny_cnn", "--seed", "1",
                              "--iterations", "1", "--workers", "2"], capsys)
        assert code == 0
        assert seeds == [(123, 123)]

    def test_bad_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("STANZA_SEED", "lucky")
        code, _, err = run_cli(["run", "--mode", "single", "--model",
                                "tiny_cnn", "--seed", "1",
                                "--iterations", "1"], capsys)
        assert code == 2
        code, _, err = run_cli(["compare", "--model", "tiny_cnn", "--seed",
                                "1", "--iterations", "1", "--workers", "2"],
                               capsys)
        assert code == 2
        assert "STANZA_SEED='lucky' is not an integer" in err


BAD_MODEL = "name bad\nbatch_k 4\ninput 3 8 8\nlayer conv 4 8 3 1 1\n"


class TestBadRunInputs:
    """Each input once ended in a traceback or a wrong answer; each is a
    configuration error now."""

    @pytest.mark.parametrize("mode,flags", [
        ("single", ["--momentum", "1.5"]),
        ("stanza", ["--conv-time", "-1"]),
        ("stanza", ["--bandwidth", "0"]),
        ("stanza", ["--bandwidth", "nan"]),
        ("stanza", ["--latency", "-1"]),
        ("single", ["--lr", "-1"]),
        ("single", ["--model", "BAD_MODEL"]),
    ], ids=["momentum", "conv-time", "bandwidth", "bandwidth-nan", "latency",
            "lr", "model-file"])
    def test_exits_2(self, tmp_path, capsys, mode, flags):
        bad = tmp_path / "bad.model"
        bad.write_text(BAD_MODEL)
        flags = [str(bad) if f == "BAD_MODEL" else f for f in flags]
        code, _, err = run_cli(["run", "--mode", mode, "--model", "tiny_cnn",
                                "--seed", "1", "--iterations", "1"] + flags,
                               capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("error", [NoFcLayer, NoConvBlock, BadBoundary,
                                       NotExecutable, MismatchedConfigs])
    def test_named_errors_are_config_errors(self, error):
        assert issubclass(error, ConfigError)


def subcommand_parser(name):
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestFlagSchema:
    def test_config_types_follow_the_fields(self):
        fields = dataclasses.fields(ExperimentConfig)
        assert list(CONFIG_TYPES) == [f.name for f in fields]
        assert set(CONFIG_TYPES.values()) == {int, float, str}
        assert (CONFIG_TYPES["batch_k"], CONFIG_TYPES["latency"],
                CONFIG_TYPES["label"]) == (int, float, str)

    def test_run_has_one_flag_per_field(self):
        flags = {a.option_strings[-1]: (a.dest, a.type)
                 for a in subcommand_parser("run")._actions
                 if a.dest != "help"}
        want = {"--config": ("config", None)}
        for f in dataclasses.fields(ExperimentConfig):
            want["--" + f.name.replace("_", "-")] = (f.name,
                                                     CONFIG_TYPES[f.name])
        assert flags == want


class TestCompareCommand:
    def test_inline_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(["compare", "--model", "alexnet", "--seed",
                                "1", "--iterations", "1", "--workers", "2",
                                "4", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "speedup" in out
        for suffix in (".json", ".csv", ".dat"):
            assert (tmp_path / f"compare{suffix}").exists()

    def test_config_files(self, tmp_path, capsys):
        shared = "model tiny_cnn\nseed 5\niterations 2\nworkers 2\n"
        ps = tmp_path / "ps.experiment"
        st = tmp_path / "st.experiment"
        ps.write_text(f"mode ps\n{shared}servers 1\n")
        st.write_text(f"mode stanza\n{shared}fc_workers 1\n")
        code, out, _ = run_cli(["compare", "--config-ps", str(ps),
                                "--config-stanza", str(st)], capsys)
        assert code == 0
        assert "tiny_cnn" in out

    def test_one_config_file_is_an_error(self, tmp_path, capsys):
        ps = tmp_path / "ps.experiment"
        ps.write_text("mode ps\nmodel tiny_cnn\nseed 1\niterations 1\n")
        code, _, err = run_cli(["compare", "--config-ps", str(ps)], capsys)
        assert code == 2

    def test_mismatched_configs_exit_code(self, tmp_path, capsys):
        ps = tmp_path / "ps.experiment"
        st = tmp_path / "st.experiment"
        ps.write_text("mode ps\nmodel tiny_cnn\nseed 1\niterations 1\n"
                      "workers 2\n")
        st.write_text("mode stanza\nmodel tiny_cnn\nseed 1\niterations 1\n"
                      "workers 2\nbandwidth 1e9\n")
        code, _, err = run_cli(["compare", "--config-ps", str(ps),
                                "--config-stanza", str(st)], capsys)
        assert code == 2
        assert "bandwidth" in err


class TestPlanCommand:
    def test_default_constants(self, capsys):
        code, out, _ = run_cli(["plan", "--model", "alexnet", "--nodes", "8",
                                "--constants", "/dev/null",
                                "--bandwidth", "10e9"], capsys)
        assert code == 0
        assert "CONV" in out

    def test_constants_file(self, tmp_path, capsys):
        consts = tmp_path / "v100.constants"
        consts.write_text("bandwidth 10e9\nconv_time 0.43\n"
                          "fc_unit_time 0.001\nps_compute_time 0.43\n")
        code, out, _ = run_cli(["plan", "--model", "alexnet", "--nodes", "8",
                                "--constants", str(consts)], capsys)
        assert code == 0
        assert "7 CONV workers + 1 FC workers" in out

    def test_ps_mode(self, capsys):
        code, out, _ = run_cli(["plan", "--model", "alexnet", "--nodes", "4",
                                "--mode", "ps"], capsys)
        assert code == 0
        assert "servers" in out

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(["plan", "--model", "alexnet",
                                "--nodes", "1"], capsys)
        assert code == 3
        assert "no feasible assignment" in err

    def test_memory_limit_changes_plan(self, capsys):
        code, out, _ = run_cli(["plan", "--model", "alexnet", "--nodes", "8",
                                "--constants", "/dev/null",
                                "--memory", "2e7"], capsys)
        assert code == 0
        assert "1 FC workers" not in out


class TestBenchCommand:
    def test_writes_loadable_constants(self, tmp_path, capsys):
        out_file = tmp_path / "host.constants"
        code, out, _ = run_cli(["bench", "--model", "tiny_cnn", "--reps", "1",
                                "--out", str(out_file)], capsys)
        assert code == 0
        c = load_constants_file(out_file)
        assert c.conv_time > 0
        assert c.ps_compute_time >= c.conv_time

    def test_profile_model_rejected(self, capsys):
        code, _, err = run_cli(["bench", "--model", "alexnet",
                                "--reps", "1"], capsys)
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        # the child imports the same package as the tests, installed or not
        src = str(Path(stanza.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "stanza.cli", "plan",
                               "--model", "alexnet", "--nodes", "4"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "CONV" in proc.stdout
