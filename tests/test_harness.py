"""Experiment harness: configs, synthetic data, drivers, and reports."""

import dataclasses

import numpy as np
import pytest

from stanza.harness import (CompareReport, ExperimentConfig, MismatchedConfigs,
                            NonFinite, RunReport, _exact_div,
                            _iteration_seconds, bench_constants, class_count,
                            compare, dataset_batches, execute,
                            gaussian_batches, load_experiment_file,
                            parse_experiment_text, resolve_model, run,
                            separable_dataset, write_report_files)
from stanza.model_partition import (ConfigError, NoFcLayer, NotExecutable,
                                    builtin_model, executable_spec, tiny_cnn)
from stanza.perf_model import Infeasible
from stanza.tensor_core import Conv2d, Flatten, MaxPool2d, ReLU
from stanza.transport import (LedgerInvariant, NetConfig, NodeId, PhaseRecord,
                              Role, SimTransport, Tag, TrafficLedger,
                              payload_message)

from trainers import max_param_dev, reference_train

TINY = tiny_cnn()


def quick(mode, **kw):
    base = dict(model="tiny_cnn", seed=7, iterations=3)
    base.update(kw)
    return ExperimentConfig(mode=mode, **base)


class TestConfigValidation:
    """ExperimentConfig rejects contradictions up front."""

    def test_accepts_minimal(self):
        cfg = quick("single")
        assert cfg.workers is None and cfg.bandwidth == 10e9

    def test_rejects_bad_mode_and_data(self):
        with pytest.raises(ConfigError):
            quick("turbo")
        with pytest.raises(ConfigError):
            quick("single", data="uniform")

    def test_needs_exactly_one_duration(self):
        with pytest.raises(ConfigError):
            quick("single", iterations=0)
        with pytest.raises(ConfigError):
            quick("single", iterations=3, epochs=1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            quick("ps", workers=0)
        with pytest.raises(ConfigError):
            quick("ps", coordinators=0)

    def test_nodes_and_workers_exclusive(self):
        with pytest.raises(ConfigError):
            quick("stanza", nodes=4, workers=2)

    def test_coordinators_read_as_one(self):
        for mode in ("ps", "stanza"):
            report, _ = execute(quick(mode, model="alexnet", iterations=1,
                                      workers=2))
            assert (report.workers, report.coordinators) == (2, 1)


class TestConfigParsing:
    """The `key value` experiment file format."""

    TEXT = ("# nightly sweep\n"
            "experiment nightly\n"
            "mode stanza\n"
            "model tiny_cnn\n"
            "seed 11\n"
            "iterations 4\n"
            "workers 3\n"
            "coordinators 1\n"
            "bandwidth 1e9\n"
            "lr 0.01\n")

    def test_parses_fields(self):
        cfg = parse_experiment_text(self.TEXT)
        assert cfg.label == "nightly"
        assert (cfg.mode, cfg.model, cfg.seed) == ("stanza", "tiny_cnn", 11)
        assert (cfg.workers, cfg.coordinators) == (3, 1)
        assert cfg.bandwidth == 1e9 and cfg.lr == 0.01

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            parse_experiment_text("mode ps\nmodel tiny_cnn\niterations 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown experiment key 'turbo'"):
            parse_experiment_text("mode ps\nmodel tiny_cnn\nseed 1\n"
                                  "iterations 1\nturbo 9\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad seed value 'x'"):
            parse_experiment_text("mode ps\nmodel tiny_cnn\nseed x\n"
                                  "iterations 1\n")

    def test_extra_values_on_line(self):
        with pytest.raises(ConfigError, match="expected one value"):
            parse_experiment_text("mode ps\nmodel tiny_cnn\nseed 1\n"
                                  "iterations 1 2\n")

    def test_load_file(self, tmp_path):
        path = tmp_path / "nightly.experiment"
        path.write_text(self.TEXT)
        assert load_experiment_file(path) == parse_experiment_text(self.TEXT)


class TestResolveModel:
    def test_builtin_and_batch_override(self):
        spec = resolve_model("tiny_cnn", batch_k=16)
        assert spec.name == "tiny_cnn" and spec.batch_k == 16

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            resolve_model("resnet9000")

    def test_model_file(self, tmp_path):
        path = tmp_path / "wide.model"
        path.write_text("name wide\nbatch_k 2\nparams_total 100\n"
                        "params_conv 40\nboundary_activations 5\n")
        spec = resolve_model(str(path))
        assert spec.params_total == 100 and spec.is_profile


class TestSyntheticData:
    """Seeded generators: reproducible, worker-distinct, class-correct."""

    def test_gaussian_batches_deterministic(self):
        fn = gaussian_batches(TINY, seed=5)
        xa, ya = fn(2, 1)
        xb, yb = fn(2, 1)
        assert np.array_equal(xa, xb) and np.array_equal(ya, yb)

    def test_gaussian_batches_distinct_streams(self):
        fn = gaussian_batches(TINY, seed=5)
        x0, _ = fn(0, 0)
        x1, _ = fn(0, 1)
        x2, _ = fn(1, 0)
        assert not np.array_equal(x0, x1)
        assert not np.array_equal(x0, x2)

    def test_gaussian_batch_shapes(self):
        x, y = gaussian_batches(TINY, seed=0)(0, 0)
        assert x.shape == (TINY.batch_k, *TINY.input_shape)
        assert x.dtype == np.float32
        assert y.shape == (TINY.batch_k,)
        assert y.max() < class_count(TINY)

    def test_class_count(self):
        assert class_count(TINY) == 10
        headless = executable_spec("headless",
                                   [Conv2d(3, 4, 3, 1, 1), ReLU(),
                                    MaxPool2d(2, 2), Flatten()],
                                   input_shape=(3, 8, 8), batch_k=2)
        with pytest.raises(NoFcLayer):
            class_count(headless)

    def test_separable_classes_are_shifted(self):
        x, y = separable_dataset(TINY, 128, seed=3)
        assert x.shape == (128, *TINY.input_shape) and x.dtype == np.float32
        assert set(np.unique(y)) <= {0, 1}
        lo = x[y == 0].mean()
        hi = x[y == 1].mean()
        assert lo < -1.0 and hi > 1.0

    def test_dataset_batches_round_robin(self):
        x = np.arange(10, dtype=np.float32)
        y = np.arange(10)
        fn = dataset_batches(x, y, batch_k=3, workers=2)
        xa, _ = fn(0, 0)
        xb, _ = fn(0, 1)
        assert list(xa) == [0, 1, 2]
        assert list(xb) == [3, 4, 5]
        # wraps modulo the dataset length
        xc, _ = fn(1, 1)
        assert list(xc) == [9, 0, 1]


class TestSingleMode:
    """One-node training is the distributed runs' ground truth."""

    def test_matches_reference_trainer_exactly(self):
        report, state = execute(quick("single", workers=2, iterations=5))
        params, _, losses = reference_train(TINY, 2, 5, seed=7, data_seed=7)
        assert max_param_dev(state.params, params) == 0.0
        assert report.losses == tuple(losses)

    def test_no_traffic_fields(self):
        report, _ = execute(quick("single"))
        assert report.logical_clock_seconds == 0.0
        assert report.total_wire_bytes == 0
        assert report.fc_data_bytes_per_worker_iteration == 0
        assert report.counted is False
        assert report.coordinators == 0

    def test_loss_falls_across_epoch_means(self):
        cfg = ExperimentConfig(mode="single", model="tiny_cnn", seed=7,
                               epochs=5, epoch_samples=64, data="separable",
                               lr=0.01)
        report, _ = execute(cfg)
        per_epoch = 64 // TINY.batch_k
        assert report.iterations == 5 * per_epoch
        means = np.asarray(report.losses).reshape(5, per_epoch).mean(axis=1)
        # easy two-class data: the loss collapses early and never rebounds
        assert means[1] < means[0]
        assert all(means[i + 1] <= means[i] for i in range(4))
        assert means[-1] < 0.05 * means[0]

    def test_divergence_raises_numeric_error(self):
        with np.errstate(all="ignore"):
            with pytest.raises(NonFinite):
                execute(quick("single", lr=1e6, iterations=4))

    def test_profile_model_not_trainable(self):
        with pytest.raises(NotExecutable):
            execute(quick("single", model="alexnet"))


class TestExecuteNumeric:
    """Distributed modes reproduce single-node training."""

    def test_stanza_matches_single(self):
        rep_d, state_d = execute(quick("stanza", workers=4, coordinators=2,
                                       iterations=6))
        rep_s, state_s = execute(quick("single", workers=4, iterations=6))
        assert max_param_dev(state_d.params, state_s.params) <= 1e-5
        assert abs(rep_d.final_loss - rep_s.final_loss) <= 1e-5

    def test_ps_matches_single(self):
        rep_d, state_d = execute(quick("ps", workers=3, coordinators=2,
                                       iterations=6))
        rep_s, state_s = execute(quick("single", workers=3, iterations=6))
        assert max_param_dev(state_d.params, state_s.params) <= 1e-5

    def test_stanza_fc_data_is_boundary_round_trip(self):
        report, _ = execute(quick("stanza", workers=4, coordinators=2))
        boundary = 256
        assert report.fc_data_bytes_per_worker_iteration == \
            2 * boundary * TINY.batch_k * 4

    def test_report_shape_fields(self):
        report, _ = execute(quick("ps", workers=3, coordinators=2))
        assert (report.workers, report.coordinators) == (3, 2)
        assert report.global_batch == 3 * TINY.batch_k
        assert report.counted is False
        assert len(report.iteration_seconds) == report.iterations == 3
        assert report.logical_clock_seconds == \
            pytest.approx(sum(report.iteration_seconds), rel=1e-12)
        assert report.param_digest is not None

    def test_latency_charged(self):
        slow = quick("ps", workers=2, coordinators=1, latency=1e-3)
        fast = quick("ps", workers=2, coordinators=1)
        rep_slow, _ = execute(slow)
        rep_fast, _ = execute(fast)
        assert rep_slow.logical_clock_seconds > rep_fast.logical_clock_seconds


class TestExecuteCounted:
    """Profile models run the traffic-only drivers."""

    def test_ps_iteration_clock(self):
        report, state = execute(ExperimentConfig(
            mode="ps", model="alexnet", seed=0, iterations=2,
            workers=4, coordinators=1))
        assert state is None
        assert report.counted is True
        assert report.losses is None and report.param_digest is None
        for sec in report.iteration_seconds:
            assert sec == pytest.approx(1.564181504, rel=1e-12)

    def test_stanza_fc_data_attribution(self):
        report, _ = execute(ExperimentConfig(
            mode="stanza", model="alexnet", seed=0, iterations=2,
            workers=8, coordinators=1))
        assert report.fc_data_bytes_per_worker_iteration == 2 * 9216 * 128 * 4

    def test_ps_fc_data_attribution(self):
        report, _ = execute(ExperimentConfig(
            mode="ps", model="alexnet", seed=0, iterations=1,
            workers=4, coordinators=1))
        fc_params = 61100840 - 2469696
        assert report.fc_data_bytes_per_worker_iteration == 2 * fc_params * 4

    def test_planner_resolves_node_budget(self):
        report, _ = execute(ExperimentConfig(
            mode="stanza", model="alexnet", seed=0, iterations=1, nodes=8,
            conv_time=0.43, fc_unit_time=0.001))
        assert (report.workers, report.coordinators) == (7, 1)
        assert report.workers + report.coordinators == 8

    def test_infeasible_budget(self):
        with pytest.raises(Infeasible):
            execute(ExperimentConfig(mode="stanza", model="alexnet", seed=0,
                                     iterations=1, nodes=1))

    def test_epoch_accounting(self):
        report, _ = execute(ExperimentConfig(
            mode="ps", model="alexnet", seed=0, epochs=2, epoch_samples=1024,
            workers=4, coordinators=1))
        assert report.iterations == 2 * (1024 // (4 * 128))
        assert report.total_data_bytes_per_epoch == \
            report.total_wire_bytes // 2

    def test_epochs_need_samples(self):
        with pytest.raises(ConfigError):
            execute(ExperimentConfig(mode="ps", model="alexnet", seed=0,
                                     epochs=1, workers=4))
        with pytest.raises(ConfigError):
            execute(ExperimentConfig(mode="ps", model="alexnet", seed=0,
                                     epochs=1, epoch_samples=100, workers=4))


class TestReportFiles:
    """Reruns serialize byte-identically; files land where asked."""

    def test_json_and_csv_stable_across_reruns(self):
        cfg = quick("stanza", workers=2, coordinators=1)
        a, _ = execute(cfg)
        b, _ = execute(cfg)
        assert a == b
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_counted_reruns_identical(self):
        cfg = ExperimentConfig(mode="ps", model="alexnet", seed=1,
                               iterations=2, workers=2, coordinators=1)
        a, _ = execute(cfg)
        b, _ = execute(cfg)
        assert a.to_json() == b.to_json()

    def test_write_report_files(self, tmp_path):
        report, _ = execute(quick("single"))
        paths = write_report_files(report, tmp_path, "demo")
        names = sorted(p.name for p in paths)
        assert names == ["demo.csv", "demo.json"]
        assert (tmp_path / "demo.json").read_text() == report.to_json()
        header = (tmp_path / "demo.csv").read_text().splitlines()[0]
        assert header == "iteration,seconds,loss"

    def test_run_writes_to_out_dir(self, tmp_path):
        cfg = quick("single", out_dir=str(tmp_path), label="smoke")
        run(cfg)
        assert (tmp_path / "smoke.json").exists()
        assert (tmp_path / "smoke.csv").exists()


class TestCompare:
    """Matched-protocol sweeps and their ratio table."""

    @staticmethod
    def pair(**kw):
        shared = dict(model="alexnet", seed=3, iterations=1,
                      epoch_samples=128 * 8 * 4, workers=2, coordinators=1)
        shared.update(kw)
        ps = ExperimentConfig(mode="ps", **shared)
        st = ExperimentConfig(mode="stanza", **shared)
        return ps, st

    def test_speedup_is_exact_clock_ratio(self):
        ps, st = self.pair()
        report = compare(ps, st, worker_counts=[2, 4])
        for row, n in zip(report.rows, [2, 4]):
            rep_ps, _ = execute(dataclasses.replace(ps, workers=n))
            rep_st, _ = execute(dataclasses.replace(st, workers=n))
            assert row.workers == n
            assert row.speedup == (rep_ps.logical_clock_seconds
                                   / rep_st.logical_clock_seconds)

    def test_ratio_columns(self):
        ps, st = self.pair()
        report = compare(ps, st, worker_counts=[2, 4, 8])
        for row in report.rows:
            assert row.fc_data_ratio > 40
            assert row.total_data_ratio > 4
            assert row.speedup > 1

    def test_rejects_swapped_modes(self):
        ps, st = self.pair()
        with pytest.raises(MismatchedConfigs):
            compare(st, ps)

    def test_rejects_knob_mismatch(self):
        ps, st = self.pair()
        with pytest.raises(MismatchedConfigs):
            compare(ps, dataclasses.replace(st, bandwidth=1e9))

    def test_rejects_unequal_seeds(self):
        ps, st = self.pair()
        with pytest.raises(MismatchedConfigs, match="seed"):
            compare(ps, dataclasses.replace(st, seed=4))

    def test_rejects_unequal_data(self):
        ps, st = self.pair(epoch_samples=4096)
        with pytest.raises(MismatchedConfigs, match="data"):
            compare(ps, dataclasses.replace(st, data="separable"))

    def test_rejects_unequal_node_budgets(self):
        ps, st = self.pair()
        with pytest.raises(MismatchedConfigs):
            compare(dataclasses.replace(ps, coordinators=2), st,
                    worker_counts=[2])

    def test_writes_three_file_formats(self, tmp_path):
        ps, st = self.pair()
        report = compare(ps, st, worker_counts=[2], out_dir=tmp_path,
                         stem="sweep")
        assert (tmp_path / "sweep.json").read_text() == report.to_json()
        assert (tmp_path / "sweep.csv").read_text().startswith("workers,")
        dat = (tmp_path / "sweep.dat").read_text()
        assert dat.startswith("# workers speedup")
        assert len(dat.splitlines()) == 2

    def test_numeric_models_compare_too(self):
        shared = dict(model="tiny_cnn", seed=5, iterations=2, workers=2,
                      coordinators=1)
        ps = ExperimentConfig(mode="ps", **shared)
        st = ExperimentConfig(mode="stanza", **shared)
        report = compare(ps, st)
        (row,) = report.rows
        assert row.speedup > 0
        assert row.total_data_ratio > 1


class TestBenchConstants:
    """Wall-clock measurement of the compute constants."""

    def test_positive_and_ordered(self):
        c = bench_constants(TINY, reps=1)
        assert c.conv_time > 0
        assert c.fc_unit_time > 0
        assert c.ps_compute_time >= c.conv_time
        assert c.bandwidth == 10e9

    def test_rejects_bad_reps_and_profiles(self):
        with pytest.raises(ConfigError):
            bench_constants(TINY, reps=0)
        with pytest.raises(NotExecutable):
            bench_constants(builtin_model("alexnet"))


class TestLedgerInvariant:
    def test_is_an_assertion_error(self):
        assert issubclass(LedgerInvariant, AssertionError)

    def test_phases_not_divisible_into_iterations(self):
        ledger = TrafficLedger()
        ledger.phases = [PhaseRecord("update", 0.0)] * 3
        with pytest.raises(LedgerInvariant):
            _iteration_seconds(ledger, 2)

    def test_bytes_not_divisible(self):
        with pytest.raises(LedgerInvariant):
            _exact_div(7, 2, "wire bytes")

    def test_bytes_not_conserved(self):
        tr = SimTransport(NetConfig())
        a, b = NodeId(Role.CONV_WORKER, 0), NodeId(Role.FC_WORKER, 0)
        tr.register_all([a, b])
        tr.send(payload_message(a, b, Tag.ACTIVATIONS, 3))
        tr.ledger.assert_conserved()
        tr.ledger.node_received[b] -= 1
        with pytest.raises(LedgerInvariant):
            tr.ledger.assert_conserved()
