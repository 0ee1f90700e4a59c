"""Layer-separated protocol against the reference trainer and the PS runtime."""

import time

import numpy as np
import pytest

from stanza import stanza_runtime
from stanza.checkpointing import param_digest, state_from_bytes
from stanza.model_partition import (ConfigError, builtin_model, tiny_cnn,
                                    tiny_mlp)
from stanza.ps_runtime import PsCluster
from stanza.stanza_runtime import StanzaCluster, served_by, stanza_traffic
from stanza.tensor_core import CorruptCheckpoint, ShapeMismatch
from stanza.transport import (ClusterShutDown, MissingSource, NetConfig, Role,
                              SimTransport, Tag)

from trainers import (LR, MU, make_batch_fn, max_param_dev, reference_train)


def make_cluster(spec, n_conv, n_fc, data_seed=7, seed=3, **kw):
    return StanzaCluster(spec, n_conv=n_conv, n_fc=n_fc,
                         batch_fn=make_batch_fn(spec, data_seed),
                         lr=LR, momentum=MU, seed=seed, **kw)


def served_indices(n_conv, n_fc):
    """served_by as FC index -> its CONV indices."""
    return {f.index: [c.index for c in cs]
            for f, cs in served_by(n_conv, n_fc).items()}


class TestServedBy:
    def test_contiguous_near_equal(self):
        assert served_indices(4, 2) == {0: [0, 1], 1: [2, 3]}
        assert served_indices(5, 2) == {0: [0, 1, 2], 1: [3, 4]}
        assert served_indices(6, 1) == {0: [0, 1, 2, 3, 4, 5]}
        assert served_indices(3, 3) == {0: [0], 1: [1], 2: [2]}

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            served_by(2, 3)
        with pytest.raises(ConfigError):
            served_by(0, 1)


class TestTraining:
    def test_single_pair_bit_exact(self):
        spec = tiny_cnn()
        result = make_cluster(spec, 1, 1).train(10)
        ref_params, ref_vel, ref_losses = reference_train(
            spec, 1, 10, seed=3, data_seed=7)
        for la, lb in zip(result.state.params, ref_params):
            for a, b in zip(la, lb):
                np.testing.assert_array_equal(a, b)
        for la, lb in zip(result.state.velocities, ref_vel):
            for a, b in zip(la, lb):
                np.testing.assert_array_equal(a, b)
        assert result.losses == pytest.approx(ref_losses, rel=1e-6)

    @pytest.mark.parametrize("n_conv,n_fc", [(2, 1), (4, 2), (3, 2), (5, 1)])
    def test_matches_reference(self, n_conv, n_fc):
        spec = tiny_cnn()
        result = make_cluster(spec, n_conv, n_fc, data_seed=11,
                              seed=5).train(8)
        ref_params, _, _ = reference_train(spec, n_conv, 8,
                                           seed=5, data_seed=11)
        assert max_param_dev(result.state.params, ref_params) <= 1e-5

    def test_matches_parameter_server(self):
        spec = tiny_cnn()
        stz = make_cluster(spec, 2, 1, data_seed=9, seed=2).train(6)
        ps = PsCluster(spec, n_workers=2, n_servers=1,
                       batch_fn=make_batch_fn(spec, 9), lr=LR,
                       momentum=MU, seed=2).train(6)
        assert max_param_dev(stz.state.params, ps.state.params) <= 1e-5

    def test_replicas_stay_identical(self):
        spec = tiny_cnn()
        cluster = make_cluster(spec, 4, 2)
        cluster.train(3)
        conv0 = cluster.conv_params[cluster.conv_ids[0]]
        for c in cluster.conv_ids[1:]:
            for la, lb in zip(conv0, cluster.conv_params[c]):
                for a, b in zip(la, lb):
                    np.testing.assert_array_equal(a, b)
        fc0 = cluster.fc_params[cluster.fc_ids[0]]
        for f in cluster.fc_ids[1:]:
            for la, lb in zip(fc0, cluster.fc_params[f]):
                for a, b in zip(la, lb):
                    np.testing.assert_array_equal(a, b)

    def test_mlp_boundary_split(self):
        spec = tiny_mlp()
        result = StanzaCluster(spec, n_conv=2, n_fc=1,
                               batch_fn=make_batch_fn(spec, 4), lr=LR,
                               momentum=MU, seed=6, boundary=4).train(6)
        ref_params, _, _ = reference_train(spec, 2, 6, seed=6, data_seed=4)
        assert max_param_dev(result.state.params, ref_params) <= 1e-5

    def test_losses_finite_and_counted(self):
        spec = tiny_cnn()
        result = make_cluster(spec, 3, 1).train(4)
        assert len(result.losses) == 4
        assert all(np.isfinite(l) for l in result.losses)

    def test_rejects_more_fc_than_conv(self):
        spec = tiny_cnn()
        with pytest.raises(ConfigError):
            make_cluster(spec, 1, 2)

    @pytest.mark.parametrize("setting", [{"lr": float("nan")},
                                         {"lr": LR, "momentum": 1.5}],
                             ids=["lr-nan", "momentum-1.5"])
    def test_rejects_bad_optimizer_settings(self, setting):
        spec = tiny_cnn()
        with pytest.raises(ConfigError):
            StanzaCluster(spec, n_conv=2, n_fc=1,
                          batch_fn=make_batch_fn(spec, 0), **setting)

    def test_rejects_negative_seed(self):
        spec = tiny_cnn()
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            StanzaCluster(spec, n_conv=2, n_fc=1,
                          batch_fn=make_batch_fn(spec, 0), lr=LR, seed=-1)

    def test_rejects_wrong_batch_size(self):
        spec = tiny_cnn()

        def bad_batch(iteration, worker):
            rng = np.random.default_rng(0)
            return (rng.standard_normal((3, *spec.input_shape),
                                        ).astype(np.float32),
                    np.zeros(3, dtype=np.int64))

        cluster = StanzaCluster(spec, n_conv=2, n_fc=1, batch_fn=bad_batch,
                                lr=LR)
        with pytest.raises(ShapeMismatch):
            cluster.train(1)

    def test_failed_update_shuts_down(self, monkeypatch):
        cluster = make_cluster(tiny_cnn(), 2, 1)
        step = stanza_runtime.sgd_step
        failed = []

        def step_failing_once(*args):
            if not failed:
                failed.append(True)
                raise FloatingPointError("injected")
            return step(*args)

        monkeypatch.setattr(stanza_runtime, "sgd_step", step_failing_once)
        with pytest.raises(FloatingPointError):
            cluster.train(1)
        # the half-applied step is never trained on
        with pytest.raises(ClusterShutDown):
            cluster.train(1)


class TestCheckpointing:
    def test_save_restore_replay_matches_uninterrupted(self):
        spec = tiny_cnn()
        whole = make_cluster(spec, 2, 1, data_seed=21, seed=4).train(10)

        first = make_cluster(spec, 2, 1, data_seed=21, seed=4)
        first.train(5)
        state = first.checkpoint()
        given = (param_digest(state.params), param_digest(state.velocities))
        resumed = StanzaCluster(spec, n_conv=2, n_fc=1,
                                batch_fn=make_batch_fn(spec, 21), lr=LR,
                                momentum=MU, seed=4, state=state)
        assert resumed.iteration == 5
        result = resumed.train(5)
        assert param_digest(result.state.params) == \
            param_digest(whole.state.params)
        # the cluster trained on its own copies, not on the snapshot
        assert (param_digest(state.params),
                param_digest(state.velocities)) == given

    def test_snapshot_shape_mismatch_rejected(self):
        spec = tiny_cnn()
        state = make_cluster(spec, 1, 1).state()
        state.velocities[-2][1] = state.velocities[-2][1][:1]
        with pytest.raises(ShapeMismatch):
            make_cluster(spec, 1, 1, state=state)

    def test_fc_block_replicated_to_seeded_conv_worker(self):
        spec = tiny_cnn()
        cluster = make_cluster(spec, 3, 1, seed=12)
        cluster.train(2)
        cluster.checkpoint()
        (holder, blob), = cluster.replica_snapshots.items()
        assert holder.role is Role.CONV_WORKER
        replica = state_from_bytes(blob)
        assert replica.iteration == 2
        f0 = cluster.fc_ids[0]
        assert param_digest(replica.params) == \
            param_digest(cluster.fc_params[f0])
        ledger = cluster.transport.ledger
        assert ledger.tag_messages[Tag.CHECKPOINT] == 1
        assert ledger.tag_payload_bytes[Tag.CHECKPOINT] == len(blob)

    def test_corrupt_replica_rejected(self):
        spec = tiny_cnn()
        cluster = make_cluster(spec, 2, 1)
        cluster.train(1)
        cluster.checkpoint()
        (_, blob), = cluster.replica_snapshots.items()
        with pytest.raises(CorruptCheckpoint):
            state_from_bytes(blob[:-8])


class TestMissingSource:
    def test_absent_activation_source(self, monkeypatch):
        send = SimTransport.send

        def lossy_send(tr, msg):
            if msg.tag is not Tag.ACTIVATIONS:
                send(tr, msg)

        monkeypatch.setattr(SimTransport, "send", lossy_send)
        # counted runs send nothing, so the mailbox is a numeric run's
        cluster = make_cluster(tiny_cnn(), 2, 1,
                               net=NetConfig(default_timeout=60.0))
        start = time.monotonic()
        with pytest.raises(MissingSource):
            cluster.train(1)
        assert time.monotonic() - start < 1.0

    def test_dropped_activations_fail_fast(self):
        spec = tiny_cnn()
        cluster = make_cluster(spec, 2, 1,
                               net=NetConfig(default_timeout=60.0))
        send = cluster.transport.send
        dropped = []

        def lossy_send(msg):
            if msg.tag is Tag.ACTIVATIONS and not dropped:
                dropped.append(msg)
                return
            send(msg)

        cluster.transport.send = lossy_send
        start = time.monotonic()
        with pytest.raises(MissingSource):
            cluster.train(1)
        assert time.monotonic() - start < 1.0
        assert len(dropped) == 1
        with pytest.raises(ClusterShutDown):
            cluster.train(1)


class TestLedger:
    def test_phase_sequence(self):
        spec = tiny_cnn()
        result = make_cluster(spec, 2, 1).train(2)
        labels = [p.label for p in result.transport.ledger.phases]
        expected = ["conv_compute", "activations", "fc_compute", "boundary",
                    "exchange", "update"]
        assert labels == expected * 2

    def test_boundary_traffic_bytes(self):
        spec = tiny_cnn()
        n_conv, iters = 3, 2
        result = make_cluster(spec, n_conv, 1).train(iters)
        ledger = result.transport.ledger
        a = 256  # elements crossing the tiny CNN's cut, per sample
        k = spec.batch_k
        assert ledger.tag_payload_bytes[Tag.ACTIVATIONS] == \
            iters * n_conv * a * k * 4
        assert ledger.tag_payload_bytes[Tag.BOUNDARY_GRADS] == \
            iters * n_conv * a * k * 4
        assert ledger.tag_payload_bytes[Tag.CONTROL] == iters * n_conv * k * 4
        ledger.assert_conserved()

    def test_exchange_overlap_charges_slower_group_only(self):
        spec = tiny_cnn()
        bandwidth = 1e9
        cluster = make_cluster(spec, 4, 2, net=NetConfig(bandwidth=bandwidth))
        result = cluster.train(1)
        exchange = [p for p in result.transport.ledger.phases
                    if p.label == "exchange"]
        p_c = cluster.partition.conv_params
        p_fc = cluster.partition.fc_params
        # conv group of 4: two doubling rounds; fc group of 2: one round.
        conv_window = 2 * p_c * 32 / bandwidth
        fc_window = 1 * p_fc * 32 / bandwidth
        assert fc_window > conv_window  # fc side dominates this model
        assert exchange[0].elapsed == pytest.approx(max(conv_window,
                                                        fc_window), rel=1e-12)

    def test_allreduce_round_structure_recorded(self):
        spec = tiny_cnn()
        result = make_cluster(spec, 4, 1).train(1)
        assert result.transport.ledger.rounds_for_op("conv_allreduce") == [1, 2]


class TestCountedTraffic:
    def test_counted_matches_numeric_payload_except_labels(self):
        spec = tiny_cnn()
        numeric = make_cluster(spec, 4, 2).train(1).transport.ledger
        counted = stanza_traffic(spec, n_conv=4, n_fc=2,
                                 iterations=1).ledger
        for tag in (Tag.ACTIVATIONS, Tag.BOUNDARY_GRADS,
                    Tag.ALLREDUCE_CHUNK):
            assert counted.tag_payload_bytes[tag] == \
                numeric.tag_payload_bytes[tag]
        assert counted.tag_payload_bytes[Tag.CONTROL] == 0
        assert numeric.tag_payload_bytes[Tag.CONTROL] > 0

    def test_profile_traffic(self):
        spec = builtin_model("alexnet")
        n_conv, n_fc = 4, 1
        tr = stanza_traffic(spec, n_conv=n_conv, n_fc=n_fc, iterations=1)
        ledger = tr.ledger
        a_k = 9216 * spec.batch_k
        assert ledger.tag_payload_bytes[Tag.ACTIVATIONS] == n_conv * a_k * 4
        assert ledger.tag_payload_bytes[Tag.BOUNDARY_GRADS] == n_conv * a_k * 4
        # power-of-two conv group: every member sends two full payloads
        assert ledger.tag_payload_bytes[Tag.ALLREDUCE_CHUNK] == \
            n_conv * 2 * 2469696 * 4
        ledger.assert_conserved()

    def test_profile_clock_single_fc(self):
        spec = builtin_model("alexnet")
        bandwidth = 10e9
        tr = stanza_traffic(spec, n_conv=4, n_fc=1, iterations=1,
                            net=NetConfig(bandwidth=bandwidth))
        a_term = 4 * 9216 * 128 * 32 / bandwidth  # gathered at the FC worker
        exchange = 2 * 2469696 * 32 / bandwidth
        assert tr.ledger.logical_clock == \
            pytest.approx(2 * a_term + exchange, rel=1e-12)
