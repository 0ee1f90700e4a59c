"""Simulated network: delivery semantics, byte accounting, logical clock."""

import sys
import threading
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stanza.transport import (HEADER_BYTES, ClusterShutDown, Message,
                              NetConfig, NodeId, Role, SimTransport, Tag,
                              Timeout, UnknownNode, payload_message,
                              phase_elapsed, run_node_threads)

from oracles import phase_elapsed_reference

W0 = NodeId(Role.PS_WORKER, 0)
W1 = NodeId(Role.PS_WORKER, 1)
S0 = NodeId(Role.PS_SERVER, 0)
NODES = (W0, W1, S0, NodeId(Role.PS_SERVER, 1))


def make_transport(**net_kw):
    tr = SimTransport(NetConfig(**net_kw))
    tr.register_all([W0, W1, S0])
    return tr


class TestDelivery:
    def test_payload_roundtrip_bit_exact(self, rng):
        """A 1000-element tensor arrives with identical bytes and shape."""
        tr = make_transport()
        a = rng.standard_normal(1000).astype(np.float32).reshape(10, 100)
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, a))
        msg = tr.recv(S0, tag=Tag.GRAD_PUSH)
        np.testing.assert_array_equal(msg.tensor(), a)
        assert msg.payload_bytes == 4000
        assert tr.ledger.node_sent[W0] == 4000 + HEADER_BYTES

    def test_fifo_per_link(self):
        tr = make_transport()
        for i in range(5):
            tr.send(payload_message(W0, S0, Tag.CONTROL, i + 1))
        got = [tr.recv(S0, tag=Tag.CONTROL).payload_elements for _ in range(5)]
        assert got == [1, 2, 3, 4, 5]

    def test_tag_filter_skips_without_consuming(self):
        """A queued non-matching message stays put for its own recv."""
        tr = make_transport()
        tr.send(payload_message(W0, S0, Tag.CONTROL, 7))
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 9))
        grads = tr.recv(S0, tag=Tag.GRAD_PUSH)
        assert grads.payload_elements == 9
        ctl = tr.recv(S0, tag=Tag.CONTROL)
        assert ctl.payload_elements == 7

    def test_source_filter(self):
        tr = make_transport()
        tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 1))
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 2))
        assert tr.recv(S0, tag=Tag.GRAD_PUSH, src=W0).payload_elements == 2
        assert tr.recv(S0, tag=Tag.GRAD_PUSH, src=W1).payload_elements == 1

    def test_nonmatching_head_is_skipped_not_consumed(self):
        """A filter the head fails takes a later message and leaves the head
        first in line."""
        tr = make_transport()
        tr.send(payload_message(W0, S0, Tag.CONTROL, 7))
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 9))
        tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 5))
        assert tr.recv(S0, tag=Tag.GRAD_PUSH, src=W1).payload_elements == 5
        assert tr.recv(S0, src=W0).payload_elements == 7
        assert tr.recv(S0).payload_elements == 9
        with pytest.raises(Timeout):
            tr.recv(S0, timeout=0)

    def test_filtered_receives_keep_per_link_fifo(self):
        """Receives that alternate between matching the queue head and
        scanning past it still see each link's messages in send order."""
        tr = make_transport()
        for k in (1, 2, 3):
            tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 10 + k))
            tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 20 + k))
        got = [tr.recv(S0, tag=Tag.GRAD_PUSH, src=src).payload_elements
               for src in (W1, W0, W0, None, W1, W0)]
        assert got == [21, 11, 12, 22, 23, 13]

    def test_any_source_takes_earliest_enqueued(self):
        tr = make_transport()
        tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 11))
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 22))
        assert tr.recv(S0, tag=Tag.GRAD_PUSH).src == W1

    def test_recv_blocks_until_send(self):
        tr = make_transport()
        got = {}

        def receiver():
            got["msg"] = tr.recv(S0, tag=Tag.CONTROL, timeout=5.0)

        t = threading.Thread(target=receiver)
        t.start()
        tr.send(payload_message(W0, S0, Tag.CONTROL, 3))
        t.join(5.0)
        assert got["msg"].payload_elements == 3

    def test_send_wakes_a_waiting_receiver(self):
        """Once the receiver counts as a waiter, send must notify it."""
        tr = make_transport()
        got = {}

        def receiver():
            got["msg"] = tr.recv(S0, tag=Tag.CONTROL, timeout=5.0)

        t = threading.Thread(target=receiver)
        t.start()
        deadline = time.monotonic() + 5.0
        while (tr._waiters != 1 and t.is_alive()
               and time.monotonic() < deadline):
            time.sleep(0.001)
        assert tr._waiters == 1
        tr.send(payload_message(W0, S0, Tag.CONTROL, 3))
        t.join(5.0)
        assert not t.is_alive()
        assert got["msg"].payload_elements == 3
        assert tr._waiters == 0

    def test_timeout(self):
        tr = make_transport()
        with pytest.raises(Timeout):
            tr.recv(S0, tag=Tag.CONTROL, timeout=0.05)
        assert tr._waiters == 0

    def test_unknown_nodes(self):
        tr = make_transport()
        ghost = NodeId(Role.PS_WORKER, 99)
        with pytest.raises(UnknownNode):
            tr.send(payload_message(ghost, S0, Tag.CONTROL, 1))
        with pytest.raises(UnknownNode):
            tr.send(payload_message(W0, ghost, Tag.CONTROL, 1))
        with pytest.raises(UnknownNode):
            tr.recv(ghost)

    def test_shutdown_unblocks_receivers(self):
        tr = make_transport()
        err = {}

        def receiver():
            try:
                tr.recv(S0, tag=Tag.CONTROL, timeout=30.0)
            except ClusterShutDown as exc:
                err["exc"] = exc

        t = threading.Thread(target=receiver)
        t.start()
        tr.shutdown()
        t.join(5.0)
        assert "exc" in err
        assert tr._waiters == 0

    def test_tensor_payload_length_enforced(self):
        """A rejected send leaves no trace in the ledger or the queue."""
        tr = make_transport()
        with pytest.raises(ValueError):
            tr.send(Message(W0, S0, Tag.GRAD_PUSH, payload_elements=3,
                            payload=b"\x00" * 8))
        assert tr.ledger.messages == []
        assert tr.ledger.node_sent == {} and tr.ledger.node_received == {}
        assert tr.ledger.total_payload_bytes == 0
        with pytest.raises(Timeout):
            tr.recv(S0, timeout=0)


class TestPayloadSize:
    """send() sizes a payload once and hands that size to every counter."""

    @pytest.fixture
    def size_reads(self, monkeypatch):
        reads = []
        size = Message.payload_bytes

        def counted(msg):
            reads.append(msg)
            return size.fget(msg)
        monkeypatch.setattr(Message, "payload_bytes", property(counted))
        return reads

    @pytest.mark.parametrize("msg, nbytes", [
        # raw bytes win over payload_elements off the tensor tags
        (Message(W0, S0, Tag.CONTROL, payload_elements=2, payload=b"x" * 7),
         7),
        # a size-only message is 4 bytes per element
        (payload_message(W0, S0, Tag.CONTROL, 2), 8),
    ], ids=["raw-bytes", "size-only"])
    def test_every_counter_sees_one_size(self, msg, nbytes, size_reads):
        tr = make_transport(bandwidth=8)
        tr.send(msg)
        assert size_reads == [msg]
        (rec,) = tr.ledger.messages
        assert rec.payload_bytes == nbytes
        assert tr.ledger.tag_payload_bytes[Tag.CONTROL] == nbytes
        assert tr.ledger.node_sent[W0] == nbytes + HEADER_BYTES
        assert tr.ledger.node_received[S0] == nbytes + HEADER_BYTES
        assert tr.end_phase() == float(nbytes)


class TestClock:
    def test_single_transfer(self):
        """1 MB at 8 Mb/s takes exactly 1.0 s."""
        net = NetConfig(bandwidth=8e6)
        assert phase_elapsed([(W0, S0, 1_000_000)], net) == pytest.approx(1.0)

    def test_disjoint_pairs_overlap(self):
        """Two equal transfers between disjoint pairs cost the same as one."""
        net = NetConfig(bandwidth=8e6)
        one = phase_elapsed([(W0, S0, 1_000_000)], net)
        two = phase_elapsed([(W0, S0, 1_000_000), (W1, NodeId(Role.PS_SERVER, 1),
                                                   1_000_000)], net)
        assert one == two

    def test_shared_receiver_serializes(self):
        net = NetConfig(bandwidth=8e6)
        both = phase_elapsed([(W0, S0, 1_000_000), (W1, S0, 1_000_000)], net)
        assert both == pytest.approx(2.0)

    def test_directions_metered_independently(self):
        xfers = [(W0, S0, 1_000_000), (S0, W0, 1_000_000)]
        assert phase_elapsed(xfers, NetConfig(bandwidth=8e6)) == pytest.approx(1.0)

    def test_latency_charged_once_per_phase(self):
        net = NetConfig(bandwidth=8e6, per_message_latency=0.5)
        assert phase_elapsed([], net) == 0.0
        assert phase_elapsed([(W0, S0, 1_000_000), (W1, S0, 1_000_000)], net) \
            == pytest.approx(2.5)

    @settings(max_examples=300, deadline=None)
    @given(transfers=st.lists(st.tuples(st.sampled_from(NODES),
                                        st.sampled_from(NODES),
                                        st.integers(0, 2 ** 62)),
                              max_size=12),
           bandwidth=st.floats(1e-300, 1e300),
           latency=st.floats(0.0, 1e3))
    def test_one_max_equals_the_per_node_loop(self, transfers, bandwidth,
                                              latency):
        """Dividing the largest load once gives the per-node loop's clock
        bit for bit, empty phase included."""
        net = NetConfig(bandwidth=bandwidth, per_message_latency=latency)
        assert (phase_elapsed(transfers, net)
                == phase_elapsed_reference(transfers, net))

    @settings(max_examples=100, deadline=None)
    @given(sizes=st.lists(st.tuples(st.sampled_from(NODES),
                                    st.sampled_from(NODES),
                                    st.integers(0, 2 ** 40)),
                          max_size=12),
           bandwidth=st.floats(1.0, 1e12))
    def test_end_phase_charges_the_ledger_records(self, sizes, bandwidth):
        tr = SimTransport(NetConfig(bandwidth=bandwidth))
        tr.register_all(NODES)
        tr.begin_phase("p")
        for src, dst, elements in sizes:
            tr.send(payload_message(src, dst, Tag.CONTROL, elements))
        transfers = [(src, dst, 4 * e) for src, dst, e in sizes]
        assert tr.end_phase() == phase_elapsed_reference(transfers, tr.net)

    def test_unbracketed_sends_charged_at_next_end_phase(self):
        """A send before the first begin_phase, or after an end_phase, is
        charged by the next end_phase, once."""
        tr = make_transport(bandwidth=8)
        tr.send(payload_message(W0, S0, Tag.CONTROL, 2))
        assert tr.end_phase() == 8.0
        tr.send(payload_message(W0, S0, Tag.CONTROL, 3))
        tr.send(payload_message(W1, S0, Tag.CONTROL, 1))
        assert tr.end_phase() == 16.0
        assert tr.end_phase() == 0.0
        assert [(p.label, p.elapsed) for p in tr.ledger.phases] == [
            ("setup", 8.0), ("phase1", 16.0), ("phase2", 0.0)]

    def test_send_before_begin_phase_is_charged(self):
        """A send after an end_phase and before the next begin_phase is
        charged with the phase that begin_phase opens: S0 receives 20 + 4
        bytes there, 24 s at 8 b/s, and the send's ledger row carries that
        phase's index."""
        tr = make_transport(bandwidth=8)
        tr.end_phase()
        tr.send(payload_message(W0, S0, Tag.CONTROL, 5))
        tr.begin_phase("bracketed")
        tr.send(payload_message(W1, S0, Tag.CONTROL, 1))
        assert tr.end_phase() == 24.0
        assert tr.ledger.logical_clock == 24.0
        assert [(r.phase, r.phase_index) for r in tr.ledger.messages] == [
            ("phase1", 1), ("bracketed", 1)]

    def test_ps_push_pull_totals_alexnet(self):
        """4 workers x 61.1M params x 4 B each way through 1 server at 10 Gb/s
        costs 1.5642 s across the push and pull phases together."""
        workers = [NodeId(Role.PS_WORKER, i) for i in range(4)]
        nbytes = 61_100_840 * 4
        net = NetConfig(bandwidth=10e9)
        push = phase_elapsed([(w, S0, nbytes) for w in workers], net)
        pull = phase_elapsed([(S0, w, nbytes) for w in workers], net)
        assert round(push + pull, 4) == 1.5642

    def test_phase_bracketing_advances_ledger_clock(self):
        tr = make_transport(bandwidth=8e6)
        tr.begin_phase("push")
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 250_000))  # 1 MB
        elapsed = tr.end_phase()
        assert elapsed == pytest.approx(1.0)
        assert tr.ledger.logical_clock == pytest.approx(1.0)
        tr.advance_compute(0.25, "update")
        assert tr.ledger.logical_clock == pytest.approx(1.25)
        assert [p.label for p in tr.ledger.phases] == ["push", "update"]

    def test_header_excluded_from_clock(self):
        tr = make_transport(bandwidth=8e6)
        tr.begin_phase("p")
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 250_000))
        assert tr.end_phase() == pytest.approx(1.0)  # not 1.0 + header time
        assert tr.ledger.node_sent[W0] == 1_000_000 + HEADER_BYTES


class TestLedger:
    def test_conservation(self):
        tr = make_transport()
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 100))
        tr.send(payload_message(S0, W0, Tag.PARAM_PULL, 100))
        tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 50))
        tr.ledger.assert_conserved()
        assert tr.ledger.total_sent == tr.ledger.total_received

    def test_tag_filtered_payload_bytes(self):
        tr = make_transport()
        tr.send(payload_message(W0, S0, Tag.ACTIVATIONS, 100))
        tr.send(payload_message(W0, S0, Tag.CONTROL, 10))
        tr.send(payload_message(S0, W0, Tag.BOUNDARY_GRADS, 100))
        fc_bytes = tr.ledger.bytes_for_tags([Tag.ACTIVATIONS, Tag.BOUNDARY_GRADS])
        assert fc_bytes == 800  # headers and Control excluded
        assert tr.ledger.total_payload_bytes == 840

    def test_counters_monotone(self):
        tr = make_transport()
        seen = []
        for _ in range(4):
            tr.send(payload_message(W0, S0, Tag.CONTROL, 5))
            seen.append(tr.ledger.total_sent)
        assert seen == sorted(seen)

    def test_csv_export_deterministic(self, tmp_path):
        def run(path):
            tr = make_transport(bandwidth=8e6)
            tr.begin_phase("a")
            tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 10))
            tr.send(payload_message(W1, S0, Tag.GRAD_PUSH, 10))
            tr.end_phase()
            tr.begin_phase("b")
            tr.send(payload_message(S0, W0, Tag.PARAM_PULL, 10))
            tr.end_phase()
            tr.ledger.export_csv(path)
            return path.read_bytes()

        a = run(tmp_path / "a.csv")
        b = run(tmp_path / "b.csv")
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "phase,src,dst,tag,bytes,elapsed_s"

    def test_summary_json(self, tmp_path):
        tr = make_transport()
        tr.begin_phase("p")
        tr.send(payload_message(W0, S0, Tag.GRAD_PUSH, 100))
        tr.end_phase()
        out = tmp_path / "summary.json"
        tr.ledger.export_summary_json(out)
        import json
        data = json.loads(out.read_text())
        assert data["total_wire_bytes_sent"] == 400 + HEADER_BYTES
        assert data["per_node"]["worker0"]["sent"] == 400 + HEADER_BYTES


class TestNodeThreads:
    def test_results_collected(self):
        tr = make_transport()

        def ping():
            tr.send(payload_message(W0, S0, Tag.CONTROL, 1))
            return "sent"

        def pong():
            return tr.recv(S0, tag=Tag.CONTROL, timeout=5.0).payload_elements

        out = run_node_threads(tr, {W0: ping, S0: pong})
        assert out == {W0: "sent", S0: 1}

    def test_failure_propagates_and_unblocks(self):
        tr = make_transport()

        def fails():
            raise RuntimeError("boom")

        def waits():
            return tr.recv(S0, tag=Tag.CONTROL, timeout=30.0)

        with pytest.raises(RuntimeError, match="boom"):
            run_node_threads(tr, {W0: fails, S0: waits})

    def test_no_wakeup_lost_under_contention(self):
        """More threads than cores, switching every microsecond: a receiver
        that waits is always woken by the send it waits for. A lost wakeup
        would leave it waiting out its 10 s timeout, past the 5 s join."""
        pairs, per = 6, 200
        senders = [NodeId(Role.PS_WORKER, i) for i in range(pairs)]
        receivers = [NodeId(Role.PS_SERVER, i) for i in range(pairs)]
        tr = SimTransport(NetConfig(default_timeout=10.0))
        tr.register_all(senders + receivers)

        def send(src, dst):
            for k in range(per):
                tr.send(payload_message(src, dst, Tag.CONTROL, k + 1))

        def receive(dst):
            return [tr.recv(dst, tag=Tag.CONTROL).payload_elements
                    for _ in range(per)]

        tasks = {r: partial(receive, r) for r in receivers}
        tasks.update({s: partial(send, s, r)
                      for s, r in zip(senders, receivers)})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = run_node_threads(tr, tasks, join_timeout=5.0)
        finally:
            sys.setswitchinterval(interval)
        assert all(out[r] == list(range(1, per + 1)) for r in receivers)
        assert tr._waiters == 0
