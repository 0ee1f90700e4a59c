"""Command line front end: subcommands, flag precedence, exit codes."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import stanza
from stanza import cli, harness, ps_runtime, stanza_runtime
from stanza.cli import build_parser, main
from stanza.harness import CONFIG_TYPES, ExperimentConfig, MismatchedConfigs
from stanza.model_partition import (BadBoundary, ConfigError, NoConvBlock,
                                    NoFcLayer, NotExecutable)
from stanza.perf_model import load_constants_file


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def training_calls(monkeypatch):
    """The names of the training entry points called, numeric or counted."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in [(ps_runtime.PsCluster, "train"),
                        (stanza_runtime.StanzaCluster, "train"),
                        (harness, "ps_traffic"),
                        (harness, "stanza_traffic")]:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


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
                       "workers 2\ncoordinators 1\n")
        code, out, _ = run_cli(["run", "--config", str(cfg),
                                "--workers", "3"], capsys)
        assert code == 0
        assert "3+1 nodes" in out

    @pytest.mark.parametrize("key", ["servers", "fc_workers"])
    def test_old_count_keys_are_unknown(self, tmp_path, capsys, key):
        """One `coordinators` key counts servers and FC workers alike."""
        cfg = tmp_path / "exp.experiment"
        cfg.write_text("mode stanza\nmodel tiny_cnn\nseed 5\niterations 2\n"
                       f"workers 2\n{key} 1\n")
        code, out, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert f"unknown experiment key {key!r}" in err

    def test_ps_coordinators_are_servers(self, capsys):
        """Pinned to the output the old `--servers 2` flag gave."""
        code, out, _ = run_cli(["run", "--mode", "ps", "--model", "tiny_cnn",
                                "--seed", "7", "--iterations", "50",
                                "--workers", "4", "--coordinators", "2"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "d156ece8bfef3057ecd652ac71e2b8dc344a6dbaf15159fb2978300f77b2d75a"
        ), out

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


PROFILE = ("name bad\nbatch_k {}\nparams_total 100\nparams_conv 40\n"
           "boundary_activations {}\n")
# flag value -> model file text, written to a file the flag then names
BAD_MODELS = {"BAD_MODEL": "name bad\nbatch_k 4\ninput 3 8 8\n"
                           "layer conv 4 8 3 1 1\n",
              "BATCH_K_0": PROFILE.format(0, 5),
              "BOUNDARY_NEG": PROFILE.format(2, -5),
              "BOUNDARY_0": PROFILE.format(2, 0)}


class TestBadRunInputs:
    """Each input once ended in a traceback or a wrong answer; each is a
    configuration error now."""

    @pytest.mark.parametrize("mode,flags", [
        ("single", ["--momentum", "1.5"]),
        ("stanza", ["--conv-time", "-1"]),
        ("stanza", ["--bandwidth", "0"]),
        ("stanza", ["--bandwidth", "nan"]),
        ("stanza", ["--bandwidth", "inf"]),
        ("stanza", ["--bandwidth", "1e400"]),
        ("stanza", ["--conv-time", "inf"]),
        ("ps", ["--ps-compute-time", "inf"]),
        ("stanza", ["--latency", "-1"]),
        ("stanza", ["--latency", "inf"]),
        ("single", ["--lr", "-1"]),
        ("single", ["--lr", "inf"]),
        ("single", ["--model", "BAD_MODEL"]),
        ("stanza", ["--model", "BATCH_K_0"]),
        ("stanza", ["--model", "BOUNDARY_NEG"]),
        ("ps", ["--model", "BOUNDARY_0"]),
        ("single", ["--nodes", "9"]),
        ("single", ["--coordinators", "1"]),
        ("ps", ["--nodes", "5", "--coordinators", "1"]),
        ("stanza", ["--coordinators", "0"]),
        ("single", ["--seed", "-1"]),
        ("stanza", ["--model", "alexnet", "--workers", "4", "--seed", "-1"]),
        ("ps", ["--model", "tiny_mlp", "--workers", "4", "--boundary", "99"]),
        ("ps", ["--boundary", "3"]),
    ], ids=["momentum", "conv-time", "bandwidth", "bandwidth-nan",
            "bandwidth-inf", "bandwidth-1e400", "conv-time-inf",
            "ps-compute-time-inf", "latency", "latency-inf", "lr", "lr-inf",
            "model-file", "model-batch-k-0", "model-boundary-negative",
            "model-boundary-0", "single-nodes", "single-coordinators",
            "nodes-and-coordinators", "coordinators-0", "seed-negative",
            "counted-seed-negative", "ps-boundary-past-the-end",
            "ps-boundary-no-front-fc"])
    def test_exits_2(self, tmp_path, capsys, mode, flags):
        for token, text in BAD_MODELS.items():
            (tmp_path / f"{token}.model").write_text(text)
        flags = [str(tmp_path / f"{f}.model") if f in BAD_MODELS else f
                 for f in flags]
        code, _, err = run_cli(["run", "--mode", mode, "--model", "tiny_cnn",
                                "--seed", "1", "--iterations", "1"] + flags,
                               capsys)
        assert code == 2
        assert "configuration error" in err

    def test_compare_negative_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("STANZA_SEED", "-1")
        code, _, err = run_cli(["compare", "--model", "alexnet", "--seed", "1",
                                "--iterations", "1", "--workers", "2"], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "single", "--workers", "2"],
        ["run", "--mode", "ps", "--workers", "2"],
        ["run", "--mode", "ps", "--nodes", "5"],
        ["run", "--mode", "stanza", "--workers", "2"],
        ["compare", "--workers", "2"],
    ], ids=["run-single", "run-ps", "run-ps-nodes", "run-stanza", "compare"])
    def test_bad_boundary_stops_before_training(self, capsys, monkeypatch,
                                                argv):
        def no_forward(*args, **kwargs):
            raise AssertionError("a forward pass ran")

        for module in (harness, ps_runtime, stanza_runtime):
            monkeypatch.setattr(module, "block_forward", no_forward)
        code, out, err = run_cli(argv + ["--model", "tiny_mlp", "--seed", "1",
                                         "--iterations", "1",
                                         "--boundary", "99"], capsys)
        assert code == 2
        assert "boundary 99 outside (0, 8)" in err
        assert out == ""

    @pytest.mark.parametrize("flags,error", [
        (["--model", "tiny_mlp", "--iterations", "3", "--workers", "2", "4"],
         "no pooling/flatten stage"),
        (["--model", "tiny_cnn", "--iterations", "3", "--workers", "2", "4",
          "--coordinators", "3"],
         "more FC workers (3) than CONV workers (2)"),
        (["--model", "tiny_cnn", "--epochs", "1", "--epoch-samples", "40",
          "--workers", "2", "16"],
         "smaller than the global batch 64"),
        (["--model", "alexnet", "--iterations", "1", "--bandwidth", "inf"],
         "bandwidth must be positive and finite"),
        (["--model", "alexnet", "--iterations", "1", "--bandwidth", "1e400"],
         "bandwidth must be positive and finite"),
        (["--model", "alexnet", "--iterations", "1", "--latency", "inf"],
         "latency must be nonnegative and finite"),
    ], ids=["no-cut", "fc-workers-past-the-sweep",
            "epoch-past-the-sweep", "bandwidth-inf", "bandwidth-1e400",
            "latency-inf"])
    def test_compare_checks_every_pair_before_training(self, capsys,
                                                       training_calls, flags,
                                                       error):
        code, out, err = run_cli(["compare", "--seed", "1"] + flags, capsys)
        assert (code, training_calls, out) == (2, [], "")
        assert error in err

    @pytest.mark.parametrize("argv", [
        ["run", "--mode", "ps"],
        ["run", "--mode", "stanza"],
        ["compare"],
    ], ids=["run-ps", "run-stanza", "compare"])
    def test_separable_needs_epoch_samples_on_counted_runs(
            self, capsys, training_calls, argv):
        code, out, err = run_cli(argv + ["--model", "alexnet", "--seed", "1",
                                         "--iterations", "1",
                                         "--data", "separable"], capsys)
        assert (code, training_calls, out) == (2, [], "")
        assert "separable data needs epoch_samples" in err

    @pytest.mark.parametrize("error", [NoFcLayer, NoConvBlock, BadBoundary,
                                       NotExecutable, MismatchedConfigs])
    def test_named_errors_are_config_errors(self, error):
        assert issubclass(error, ConfigError)


PLAN = ["plan", "--model", "alexnet", "--nodes", "8"]


class TestBadPlanInputs:
    """plan and bench once planned or measured with these inputs, or ended
    in a traceback; each is a configuration error now."""

    @pytest.mark.parametrize("argv", [
        PLAN + ["--batch-k", "-4", "--mode", "ps"],
        PLAN + ["--batch-k", "0"],
        PLAN + ["--bandwidth", "0"],
        PLAN + ["--bandwidth", "inf"],
        PLAN + ["--memory", "nan"],
        PLAN + ["--memory", "-1"],
        PLAN + ["--mode", "ps", "--memory", "2e7"],
        ["bench", "--model", "tiny_cnn", "--batch-k", "0", "--reps", "1"],
        ["bench", "--model", "tiny_cnn", "--seed", "-1", "--reps", "1"],
    ], ids=["plan-batch-k-negative", "plan-batch-k-0", "plan-bandwidth-0",
            "plan-bandwidth-inf",
            "plan-memory-nan", "plan-memory-negative", "plan-ps-memory",
            "bench-batch-k-0", "bench-seed-negative"])
    def test_exits_2(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert "configuration error" in err
        assert out == ""

    def test_bench_checks_seed_before_timing(self, capsys, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("bench ran a forward pass")

        monkeypatch.setattr(harness, "block_forward", no_forward)
        code, out, err = run_cli(["bench", "--model", "tiny_cnn",
                                  "--seed", "-1"], capsys)
        assert code == 2
        assert "seed must be nonnegative" in err
        assert out == ""

    def test_bench_checks_bandwidth_before_timing(self, capsys, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("bench ran a forward pass")

        monkeypatch.setattr(harness, "block_forward", no_forward)
        code, out, err = run_cli(["bench", "--model", "tiny_cnn",
                                  "--bandwidth", "0"], capsys)
        assert code == 2
        assert "configuration error" in err
        assert out == ""


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


    @pytest.mark.parametrize("command,flags", [
        ("compare", {"--config-ps": ("config_ps", None),
                     "--config-stanza": ("config_stanza", None),
                     "--model": ("model", str), "--seed": ("seed", int),
                     "--iterations": ("iterations", int),
                     "--epochs": ("epochs", int),
                     "--batch-k": ("batch_k", int),
                     "--bandwidth": ("bandwidth", float),
                     "--latency": ("latency", float),
                     "--epoch-samples": ("epoch_samples", int),
                     "--boundary": ("boundary", int),
                     "--data": ("data", str),
                     "--coordinators": ("coordinators", int),
                     "--workers": ("workers", int),
                     "--out": ("out", None), "--stem": ("stem", None)}),
        ("plan", {"--model": ("model", None), "--nodes": ("nodes", int),
                  "--mode": ("mode", None), "--constants": ("constants", None),
                  "--bandwidth": ("bandwidth", float),
                  "--batch-k": ("batch_k", int),
                  "--boundary": ("boundary", int),
                  "--memory": ("memory", float)}),
        ("bench", {"--model": ("model", None), "--batch-k": ("batch_k", int),
                   "--reps": ("reps", int), "--boundary": ("boundary", int),
                   "--bandwidth": ("bandwidth", float),
                   "--seed": ("seed", int), "--out": ("out", None)}),
    ])
    def test_exact_flag_sets(self, command, flags):
        got = {a.option_strings[-1]: (a.dest, a.type)
               for a in subcommand_parser(command)._actions
               if a.dest != "help"}
        assert got == flags


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
        """Two files may split one budget unequally: 5+1 PS against 4+2
        stanza, pinned to the output the old `servers`/`fc_workers` keys
        gave."""
        shared = "model alexnet\nseed 1\niterations 1\n"
        ps = tmp_path / "ps.experiment"
        st = tmp_path / "st.experiment"
        ps.write_text(f"mode ps\n{shared}workers 5\ncoordinators 1\n")
        st.write_text(f"mode stanza\n{shared}workers 4\ncoordinators 2\n")
        code, out, _ = run_cli(["compare", "--config-ps", str(ps),
                                "--config-stanza", str(st)], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "faf85fa9d5edb432ffee1fa2111e3eea36ff6b6760893f0960d45985d413f03d"
        ), out

    def test_config_files_with_unequal_budgets(self, tmp_path, capsys,
                                               training_calls):
        shared = "model tiny_cnn\nseed 1\niterations 3\nworkers 2\n"
        ps = tmp_path / "ps.experiment"
        st = tmp_path / "st.experiment"
        ps.write_text(f"mode ps\n{shared}coordinators 2\n")
        st.write_text(f"mode stanza\n{shared}")
        code, out, err = run_cli(["compare", "--config-ps", str(ps),
                                  "--config-stanza", str(st)], capsys)
        assert (code, training_calls, out) == (2, [], "")
        assert "node budgets differ: 4 for ps vs 3 for stanza" in err

    def test_one_coordinator_flag_for_both_sides(self, tmp_path, capsys):
        """`--coordinators` gives the PS servers and the FC workers alike."""
        code, _, _ = run_cli(["compare", "--model", "alexnet", "--seed", "1",
                              "--iterations", "1", "--workers", "4", "8",
                              "--coordinators", "2", "--out", str(tmp_path)],
                             capsys)
        assert code == 0
        shared = dict(model="alexnet", seed=1, iterations=1, workers=4,
                      coordinators=2)
        want = harness.compare(ExperimentConfig(mode="ps", **shared),
                               ExperimentConfig(mode="stanza", **shared),
                               worker_counts=[4, 8])
        assert (tmp_path / "compare.json").read_text() == want.to_json()

    def test_one_config_file_is_an_error(self, tmp_path, capsys):
        ps = tmp_path / "ps.experiment"
        ps.write_text("mode ps\nmodel tiny_cnn\nseed 1\niterations 1\n")
        code, _, err = run_cli(["compare", "--config-ps", str(ps)], capsys)
        assert code == 2

    def test_data_flag(self, tmp_path, capsys):
        """--data reaches both protocols' configs; separable data needs
        epoch_samples."""
        args = ["compare", "--model", "tiny_cnn", "--seed", "1",
                "--iterations", "1", "--workers", "2", "--data", "separable"]
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert "epoch_samples" in err
        code, out, _ = run_cli(args + ["--epoch-samples", "64"], capsys)
        assert code == 0
        assert "tiny_cnn" in out

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

    @pytest.mark.parametrize("mode", ["stanza", "ps"])
    @pytest.mark.parametrize("model", [["alexnet"],
                                       ["tiny_mlp", "--boundary", "4"]],
                             ids=["alexnet", "tiny_mlp"])
    @pytest.mark.parametrize("nodes", ["5", "9"])
    def test_run_nodes_takes_the_plan(self, tmp_path, capsys, mode, model,
                                      nodes):
        consts = tmp_path / "c.constants"
        consts.write_text("bandwidth 1e9\nconv_time 0.01\n"
                          "fc_unit_time 0.05\nps_compute_time 0.02\n")
        code, out, _ = run_cli(["plan", "--model", *model, "--nodes", nodes,
                                "--mode", mode, "--constants", str(consts)],
                               capsys)
        assert code == 0
        planned = re.search(r"nodes: (\d+) \D+ \+ (\d+) ", out).groups()
        code, out, _ = run_cli(["run", "--model", *model, "--nodes", nodes,
                                "--mode", mode, "--seed", "1",
                                "--iterations", "1", "--bandwidth", "1e9",
                                "--conv-time", "0.01", "--fc-unit-time",
                                "0.05", "--ps-compute-time", "0.02"], capsys)
        assert code == 0
        assert re.search(r"on (\d+)\+(\d+) nodes", out).groups() == planned

    def test_ps_needs_no_cut(self, capsys):
        """A PS run or plan of a model with no CONV/FC cut works; a
        layer-separated one still exits 2 with the same message."""
        code, out, _ = run_cli(["plan", "--model", "tiny_mlp", "--nodes",
                                "5", "--mode", "ps"], capsys)
        assert code == 0
        assert "tiny_mlp on 5 nodes: 3 workers + 2 servers" in out
        code, out, _ = run_cli(["run", "--mode", "ps", "--model", "tiny_mlp",
                                "--nodes", "5", "--seed", "1",
                                "--iterations", "1"], capsys)
        assert code == 0
        assert "ps tiny_mlp: 1 iterations on 3+2 nodes" in out
        for argv in (["plan", "--model", "tiny_mlp", "--nodes", "5"],
                     ["compare", "--model", "tiny_mlp", "--seed", "1",
                      "--iterations", "1", "--workers", "2"]):
            code, _, err = run_cli(argv, capsys)
            assert code == 2
            assert ("tiny_mlp has no pooling/flatten stage before its first "
                    "FullyConnected layer") in err

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


# the README's counted commands, as the counted_sweep benchmark runs them
COUNTED_SWEEP = [
    ["compare", "--model", "alexnet", "--seed", "1", "--iterations", "1",
     "--epoch-samples", "65536", "--workers", "4", "16", "64", "127"],
    ["compare", "--model", "vgg16", "--seed", "1", "--iterations", "1",
     "--workers", "4", "16", "64"],
    ["plan", "--model", "alexnet", "--nodes", "128", "--mode", "stanza"],
    ["plan", "--model", "alexnet", "--nodes", "128", "--mode", "ps"],
]


class TestParserReuse:
    """main() builds its parser once per process; no call sees another's
    flags."""

    def test_counted_commands_repeat_byte_identically(self, tmp_path,
                                                      capsys):
        def one_round():
            outputs = []
            for i, argv in enumerate(COUNTED_SWEEP):
                if argv[0] == "compare":
                    argv = argv + ["--out", str(tmp_path), "--stem", f"c{i}"]
                code, out, err = run_cli(argv, capsys)
                assert (code, err) == (0, "")
                outputs.append(out)
            files = {p.name: p.read_bytes()
                     for p in sorted(tmp_path.iterdir())}
            for p in tmp_path.iterdir():
                p.unlink()
            return outputs, files

        first, files = one_round()
        assert len(files) == 6
        assert one_round() == (first, files)

    def test_omitted_flag_reads_as_not_given(self, capsys, monkeypatch):
        """compare looks cli.compare up at call time, and a --workers given
        in one call is gone in the next."""
        sweeps = []

        def fake_compare(ps_cfg, st_cfg, *, worker_counts, out_dir, stem):
            sweeps.append(worker_counts)
            return SimpleNamespace(model="alexnet", batch_k=1, iterations=1,
                                   rows=[])

        monkeypatch.setattr(cli, "compare", fake_compare)
        args = ["compare", "--model", "alexnet", "--seed", "1",
                "--iterations", "1"]
        assert run_cli(args + ["--workers", "4", "16"], capsys)[0] == 0
        assert run_cli(args, capsys)[0] == 0
        assert sweeps == [[4, 16], None]
        assert build_parser().parse_args(args).workers is None

    def test_bad_flag_still_exits_2(self, capsys):
        assert run_cli(PLAN, capsys)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(PLAN + ["--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run_cli(PLAN, capsys)
        assert code == 0 and "CONV" in out

    def test_parser_built_once(self, capsys, monkeypatch):
        """After the first main() call, later calls build no parser."""
        assert run_cli(PLAN, capsys)[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        for argv in (PLAN, COUNTED_SWEEP[2], ["bench", "--model", "x"]):
            run_cli(argv, capsys)
        assert built == []


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
