"""Parameter-server protocol against a single-process reference trainer."""

import numpy as np
import pytest

from stanza import ps_runtime
from stanza.checkpointing import param_digest, state_from_bytes, state_to_bytes
from stanza.model_partition import ConfigError, executable_spec, tiny_cnn
from stanza.ps_runtime import PsCluster, equal_split, ps_traffic
from stanza.tensor_core import (FullyConnected, ShapeMismatch,
                                SoftmaxCrossEntropy)
from stanza.transport import (HEADER_BYTES, ClusterShutDown, NetConfig, Role,
                              Tag)

from trainers import (LR, MU, make_batch_fn, max_param_dev, reference_train)


class TestEqualSplit:
    def test_sums_and_spread(self):
        for total, parts in [(10, 3), (61100840, 4), (5, 8), (0, 2)]:
            shares = equal_split(total, parts)
            assert sum(shares) == total
            assert max(shares) - min(shares) <= 1

    def test_divisible_is_flat(self):
        assert equal_split(12, 4) == [3, 3, 3, 3]

    def test_rejects_zero_parts(self):
        with pytest.raises(ConfigError):
            equal_split(10, 0)


class TestRanges:
    """Every PS run splits the flat parameter vector into contiguous element
    ranges, one per server; each worker-server pair moves one range per
    direction."""

    # 20 parameters: with 24 servers, the last 4 have empty ranges
    WEE = executable_spec("wee", [FullyConnected(1, 10), SoftmaxCrossEntropy()],
                          input_shape=(1,), batch_k=2)

    def _runs(self, spec, n_workers, n_servers, net=None):
        counted = ps_traffic(spec, n_workers=n_workers, n_servers=n_servers,
                             iterations=2, net=net)
        cluster = PsCluster(spec, n_workers=n_workers, n_servers=n_servers,
                            batch_fn=make_batch_fn(spec, 6), lr=LR,
                            momentum=MU, seed=2, net=net)
        return counted, cluster.train(2)

    def test_clock_follows_equal_ranges(self):
        # tiny_cnn's 35578 parameters, 4 workers at 1 Mb/s: the busiest
        # server link carries four ranges until one worker's full set, on
        # its own link, outweighs them
        spec = tiny_cnn()
        for n_servers, seconds in [(1, 9.107968), (2, 4.553984),
                                   (3, 3.03616), (9, 2.276992),
                                   (16, 2.276992)]:
            counted, numeric = self._runs(spec, 4, n_servers,
                                          NetConfig(bandwidth=1e6))
            for tr in (counted, numeric.transport):
                assert tr.ledger.logical_clock == \
                    pytest.approx(2 * seconds, rel=1e-12), n_servers

    @pytest.mark.parametrize("n_workers,n_servers", [(3, 2), (2, 5), (4, 24)])
    def test_numeric_ledger_is_the_counted_one(self, n_workers, n_servers):
        for spec in (tiny_cnn(), self.WEE):
            counted, numeric = self._runs(spec, n_workers, n_servers)
            assert numeric.transport.ledger.messages == counted.ledger.messages
            p_total = sum(t.size for layer in numeric.state.params
                          for t in layer)
            assert len(counted.ledger.messages) == \
                2 * 2 * n_workers * min(n_servers, p_total)

    def test_servers_past_the_last_element_get_no_messages(self):
        _, numeric = self._runs(self.WEE, 2, 24)
        touched = {m.dst for m in numeric.transport.ledger.messages} | \
            {m.src for m in numeric.transport.ledger.messages}
        assert {s.index for s in touched if s.role is Role.PS_SERVER} == \
            set(range(20))

    def test_digests_do_not_depend_on_the_server_count(self):
        """Servers add pushes elementwise in worker order and the momentum
        step is elementwise, so where the ranges fall cannot change a bit."""
        for spec in (tiny_cnn(), self.WEE):
            digests = {(param_digest(r.state.params),
                        param_digest(r.state.velocities), tuple(r.losses))
                       for r in (self._runs(spec, 3, n)[1]
                                 for n in (1, 2, 3, 9, 24))}
            assert len(digests) == 1, spec.name


class TestTraining:
    def test_single_worker_single_server_bit_exact(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=1, n_servers=1,
                            batch_fn=make_batch_fn(spec, 7), lr=LR,
                            momentum=MU, seed=3)
        result = cluster.train(10)
        ref_params, ref_vel, ref_losses = reference_train(
            spec, 1, 10, seed=3, data_seed=7)
        for la, lb in zip(result.state.params, ref_params):
            for a, b in zip(la, lb):
                np.testing.assert_array_equal(a, b)
        for la, lb in zip(result.state.velocities, ref_vel):
            for a, b in zip(la, lb):
                np.testing.assert_array_equal(a, b)
        assert result.losses == pytest.approx(ref_losses, rel=1e-6)

    @pytest.mark.parametrize("n_workers,n_servers", [(2, 1), (4, 2), (3, 3)])
    def test_multi_worker_matches_reference(self, n_workers, n_servers):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=n_workers, n_servers=n_servers,
                            batch_fn=make_batch_fn(spec, 11), lr=LR,
                            momentum=MU, seed=5)
        result = cluster.train(8)
        ref_params, _, _ = reference_train(spec, n_workers, 8,
                                           seed=5, data_seed=11)
        assert max_param_dev(result.state.params, ref_params) <= 1e-5

    def test_worker_replicas_stay_identical(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=3, n_servers=2,
                            batch_fn=make_batch_fn(spec, 2), lr=LR, seed=1)
        cluster.train(3)
        base = cluster.worker_params[cluster.worker_ids[0]]
        for w in cluster.worker_ids[1:]:
            for la, lb in zip(base, cluster.worker_params[w]):
                for a, b in zip(la, lb):
                    np.testing.assert_array_equal(a, b)

    def test_loss_reported_per_iteration(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=2, n_servers=1,
                            batch_fn=make_batch_fn(spec, 4), lr=LR, seed=9)
        result = cluster.train(5)
        assert len(result.losses) == 5
        assert all(np.isfinite(l) for l in result.losses)

    def test_train_is_resumable_in_place(self):
        spec = tiny_cnn()
        kw = dict(n_workers=2, n_servers=1,
                  batch_fn=make_batch_fn(spec, 13), lr=LR, seed=8)
        whole = PsCluster(spec, **kw).train(6)
        split = PsCluster(spec, **kw)
        split.train(2)
        result = split.train(4)
        assert param_digest(result.state.params) == \
            param_digest(whole.state.params)

    def test_rejects_bad_sizes(self):
        spec = tiny_cnn()
        with pytest.raises(ConfigError):
            PsCluster(spec, n_workers=0, n_servers=1,
                      batch_fn=make_batch_fn(spec, 0), lr=LR)
        with pytest.raises(ConfigError):
            PsCluster(spec, n_workers=1, n_servers=1,
                      batch_fn=make_batch_fn(spec, 0), lr=-0.1)

    @pytest.mark.parametrize("setting", [{"lr": float("nan")},
                                         {"lr": LR, "momentum": 1.5}],
                             ids=["lr-nan", "momentum-1.5"])
    def test_rejects_bad_optimizer_settings(self, setting):
        spec = tiny_cnn()
        with pytest.raises(ConfigError):
            PsCluster(spec, n_workers=2, n_servers=1,
                      batch_fn=make_batch_fn(spec, 0), **setting)

    def test_rejects_negative_seed(self):
        spec = tiny_cnn()
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            PsCluster(spec, n_workers=2, n_servers=1,
                      batch_fn=make_batch_fn(spec, 0), lr=LR, seed=-1)

    def test_failed_update_shuts_down(self, monkeypatch):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=2, n_servers=2,
                            batch_fn=make_batch_fn(spec, 7), lr=LR, seed=3)
        step = ps_runtime.sgd_step
        failed = []

        def step_failing_once(*args):
            if not failed:
                failed.append(True)
                raise FloatingPointError("injected")
            return step(*args)

        monkeypatch.setattr(ps_runtime, "sgd_step", step_failing_once)
        with pytest.raises(FloatingPointError):
            cluster.train(1)
        # the half-applied step is never trained on
        with pytest.raises(ClusterShutDown):
            cluster.train(1)

    def test_rejects_wrong_batch_size(self):
        spec = tiny_cnn()

        def bad_batch(iteration, worker):
            rng = np.random.default_rng(0)
            return (rng.standard_normal((3, *spec.input_shape),
                                        ).astype(np.float32),
                    np.zeros(3, dtype=np.int64))

        cluster = PsCluster(spec, n_workers=1, n_servers=1,
                            batch_fn=bad_batch, lr=LR)
        with pytest.raises(ShapeMismatch):
            cluster.train(1)


class TestCheckpointing:
    def test_snapshot_roundtrip_and_replay(self):
        spec = tiny_cnn()
        kw = dict(n_workers=2, n_servers=2,
                  batch_fn=make_batch_fn(spec, 21), lr=LR, seed=4)
        whole = PsCluster(spec, **kw).train(10)

        first = PsCluster(spec, **kw)
        first.train(5)
        blob = state_to_bytes(first.state())
        state = state_from_bytes(blob)
        resumed = PsCluster(spec, **kw, state=state)
        assert resumed.iteration == 5
        result = resumed.train(5)
        assert param_digest(result.state.params) == \
            param_digest(whole.state.params)
        # the cluster trained on its own copies, not on the snapshot
        assert state_to_bytes(state) == blob

    def test_snapshot_shape_mismatch_rejected(self):
        spec = tiny_cnn()
        other = tiny_cnn()
        cluster = PsCluster(spec, n_workers=1, n_servers=1,
                            batch_fn=make_batch_fn(spec, 0), lr=LR)
        state = cluster.state()
        state.params[0][0] = state.params[0][0][:, :1]
        with pytest.raises(ShapeMismatch):
            PsCluster(other, n_workers=1, n_servers=1,
                      batch_fn=make_batch_fn(other, 0), lr=LR, state=state)


class TestLedger:
    def test_push_pull_payload_bytes(self):
        spec = tiny_cnn()
        n_workers = 3
        cluster = PsCluster(spec, n_workers=n_workers, n_servers=2,
                            batch_fn=make_batch_fn(spec, 5), lr=LR)
        result = cluster.train(2)
        ledger = result.transport.ledger
        p_total = sum(t.size for layer in result.state.params for t in layer)
        per_iter = n_workers * p_total * 4
        assert ledger.bytes_for_tags([Tag.GRAD_PUSH]) == \
            2 * per_iter  # 2 iterations
        assert ledger.bytes_for_tags([Tag.PARAM_PULL]) == 2 * per_iter
        ledger.assert_conserved()

    def test_phase_sequence(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=1, n_servers=1,
                            batch_fn=make_batch_fn(spec, 5), lr=LR)
        result = cluster.train(2)
        labels = [p.label for p in result.transport.ledger.phases]
        assert labels == ["compute", "push", "update", "pull"] * 2

    def test_clock_matches_bandwidth_arithmetic(self):
        spec = tiny_cnn()
        n_workers, bandwidth = 2, 1e9
        cluster = PsCluster(spec, n_workers=n_workers, n_servers=1,
                            batch_fn=make_batch_fn(spec, 5), lr=LR,
                            net=NetConfig(bandwidth=bandwidth))
        result = cluster.train(1)
        p_total = sum(t.size for layer in result.state.params for t in layer)
        expected = 2 * n_workers * p_total * 32 / bandwidth
        assert result.transport.ledger.logical_clock == \
            pytest.approx(expected, rel=1e-12)

    def test_compute_time_charged_once_per_iteration(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=1, n_servers=1,
                            batch_fn=make_batch_fn(spec, 5), lr=LR,
                            compute_time=0.25,
                            net=NetConfig(bandwidth=1e15))
        result = cluster.train(4)
        # tiny residual transfer time at 1e15 b/s, well under a microsecond
        assert result.transport.ledger.logical_clock == \
            pytest.approx(1.0, abs=1e-6)


class TestCountedTraffic:
    def test_profile_payload_and_messages(self):
        from stanza.model_partition import builtin_model
        spec = builtin_model("alexnet")
        n_workers, n_servers = 4, 2
        tr = ps_traffic(spec, n_workers=n_workers, n_servers=n_servers,
                        iterations=1)
        payload = tr.ledger.total_payload_bytes
        assert payload == 2 * n_workers * spec.params_total * 4
        assert len(tr.ledger.messages) == 2 * n_workers * n_servers
        tr.ledger.assert_conserved()

    def test_counted_matches_numeric_payload(self):
        spec = tiny_cnn()
        cluster = PsCluster(spec, n_workers=2, n_servers=2,
                            batch_fn=make_batch_fn(spec, 5), lr=LR)
        numeric = cluster.train(1).transport.ledger.total_payload_bytes
        counted = ps_traffic(spec, n_workers=2, n_servers=2,
                             iterations=1).ledger.total_payload_bytes
        assert counted == numeric

    def test_per_epoch_bytes_independent_of_worker_count(self):
        from stanza.model_partition import builtin_model
        spec = builtin_model("alexnet")
        epoch = 1024
        totals = []
        for n_workers in (2, 4, 8):
            iters = epoch // (n_workers * spec.batch_k)
            tr = ps_traffic(spec, n_workers=n_workers, n_servers=1,
                            iterations=iters)
            totals.append(tr.ledger.total_sent)
        assert totals[0] == totals[1] == totals[2]

    def test_headers_counted_on_wire(self):
        spec = tiny_cnn()
        tr = ps_traffic(spec, n_workers=1, n_servers=1, iterations=1)
        assert tr.ledger.total_sent == \
            tr.ledger.total_payload_bytes + 2 * HEADER_BYTES
