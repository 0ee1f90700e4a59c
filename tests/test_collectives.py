"""Allreduce against the canonical-order fold oracle."""

import time

import numpy as np
import pytest

from stanza.collectives import (Group, MemberMissing, NotNeeded,
                                allreduce_counted, allreduce_group,
                                allreduce_sum, round_count, surplus_protocol)
from stanza.transport import (NetConfig, NodeId, Role, SimTransport,
                              run_node_threads)

from oracles import allreduce_reference

def conv_nodes(n):
    return tuple(NodeId(Role.CONV_WORKER, i) for i in range(n))


def make_cluster(n):
    tr = SimTransport(NetConfig(default_timeout=20.0))
    nodes = conv_nodes(n)
    tr.register_all(nodes)
    return tr, Group(nodes)


def run_allreduce(n, seed=0, shape=(17,), rng_seed=5, op="ar"):
    tr, group = make_cluster(n)
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    values = {m: rng.standard_normal(shape).astype(np.float32)
              for m in group.members}
    tasks = {m: (lambda m=m: allreduce_sum(tr, group, m, values[m],
                                           seed=seed, op=op))
             for m in group.members}
    results = run_node_threads(tr, tasks)
    return tr, group, values, results


class TestRoundCount:
    @pytest.mark.parametrize("n,r", [(1, 0), (2, 1), (3, 3), (4, 2), (5, 4),
                                     (8, 3), (9, 5), (10, 5), (16, 4),
                                     (17, 6), (32, 5), (33, 7)])
    def test_formula(self, n, r):
        assert round_count(n) == r

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            round_count(0)


class TestSurplusProtocol:
    def test_not_needed_for_powers_of_two(self):
        for n in (1, 2, 4, 8, 16, 32):
            with pytest.raises(NotNeeded):
                surplus_protocol(Group(conv_nodes(n)), seed=0)

    def test_counts_and_distinctness(self):
        for n in (3, 5, 6, 7, 9, 10, 33):
            group = Group(conv_nodes(n))
            surplus, core, donors = surplus_protocol(group, seed=3)
            m = n.bit_length() - 1
            assert len(core) == 1 << m
            assert len(surplus) == n - (1 << m)
            assert set(surplus) | set(core) == set(group.members)
            assert not set(surplus) & set(core)
            # donors are distinct core members, one per surplus node
            assert set(donors) == set(surplus)
            assert len(set(donors.values())) == len(surplus)
            assert set(donors.values()) <= set(core)

    def test_core_preserves_group_order(self):
        group = Group(conv_nodes(11))
        _, core, _ = surplus_protocol(group, seed=9)
        ranks = [group.index(c) for c in core]
        assert ranks == sorted(ranks)

    def test_seeded_determinism(self):
        group = Group(conv_nodes(13))
        assert surplus_protocol(group, seed=7) == surplus_protocol(group, seed=7)
        selections = {tuple(surplus_protocol(group, seed=s)[0]) for s in range(20)}
        assert len(selections) > 1


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 10])
    def test_matches_canonical_fold_exactly(self, n):
        """Every member returns the oracle's fixed-order sum, bit for bit."""
        tr, group, values, results = run_allreduce(n, seed=11)
        donors = {}
        if n & (n - 1):
            _, _, donors = surplus_protocol(group, seed=11)
        expected = allreduce_reference(values, list(group.members), donors)
        for m in group.members:
            np.testing.assert_array_equal(results[m], expected)

    def test_members_bit_identical(self):
        _, group, _, results = run_allreduce(10, seed=2)
        first = results[group.members[0]]
        for m in group.members[1:]:
            np.testing.assert_array_equal(results[m], first)

    def test_single_member_is_identity_with_no_traffic(self):
        tr, group = make_cluster(1)
        v = np.arange(4, dtype=np.float32)
        out = allreduce_sum(tr, group, group.members[0], v)
        np.testing.assert_array_equal(out, v)
        assert out is not v
        assert not tr.ledger.messages

    def test_round_labels_on_ledger(self):
        tr, _, _, _ = run_allreduce(10, op="ar10")
        assert tr.ledger.rounds_for_op("ar10") == [0, 1, 2, 3, 4]
        tr8, _, _, _ = run_allreduce(8, op="ar8")
        assert tr8.ledger.rounds_for_op("ar8") == [1, 2, 3]

    def test_per_round_payload_is_full_tensor(self):
        """Recursive doubling exchanges cumulative sums, never chunks."""
        tr, _, _, _ = run_allreduce(8, shape=(33,))
        for rec in tr.ledger.messages:
            assert rec.payload_bytes == 33 * 4

    def test_result_invariant_across_seeds_to_rounding(self):
        base = None
        for seed in range(6):
            _, group, _, results = run_allreduce(11, seed=seed, rng_seed=77)
            out = results[group.members[0]].astype(np.float64)
            if base is None:
                base = out
            else:
                scale = np.abs(base).max()
                assert np.abs(out - base).max() / scale < 1e-6

    def test_2d_tensors_keep_shape(self):
        _, group, _, results = run_allreduce(5, shape=(4, 8))
        assert results[group.members[0]].shape == (4, 8)

    def test_staggered_arrival_is_deadlock_free(self):
        tr, group = make_cluster(6)
        values = {m: np.full(5, i, dtype=np.float32)
                  for i, m in enumerate(group.members)}

        def task(m, delay):
            def run():
                time.sleep(delay)
                return allreduce_sum(tr, group, m, values[m], seed=1)
            return run

        tasks = {m: task(m, 0.05 * (len(group) - i))
                 for i, m in enumerate(group.members)}
        results = run_node_threads(tr, tasks)
        np.testing.assert_array_equal(results[group.members[0]],
                                      np.full(5, 15, dtype=np.float32))


class TestCountedAllreduce:
    @pytest.mark.parametrize("n", [2, 5, 8, 10])
    def test_same_bytes_and_rounds_as_numeric(self, n):
        tr_num, group, _, _ = run_allreduce(n, seed=4, shape=(20,), op="ar")
        tr_cnt, group2 = make_cluster(n)
        tasks = {m: (lambda m=m: allreduce_counted(tr_cnt, group2, m, 20,
                                                   seed=4, op="ar"))
                 for m in group2.members}
        run_node_threads(tr_cnt, tasks)
        assert tr_cnt.ledger.total_sent == tr_num.ledger.total_sent
        assert tr_cnt.ledger.rounds_for_op("ar") == tr_num.ledger.rounds_for_op("ar")
        assert len(tr_cnt.ledger.messages) == len(tr_num.ledger.messages)


def ledger_csv(tr, path):
    tr.ledger.export_csv(path)
    return path.read_bytes()


class TestGroupAllreduce:
    """The single-thread group driver against one thread per member."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_numeric_matches_threaded_members(self, n, seed, tmp_path):
        tr_thr, group, values, threaded = run_allreduce(n, seed=seed,
                                                        shape=(3, 7))
        tr_seq, _ = make_cluster(n)
        seq = allreduce_group(tr_seq, group, values, seed=seed, op="ar")
        for m in group.members:
            assert seq[m].shape == threaded[m].shape
            assert seq[m].tobytes() == threaded[m].tobytes()
        assert ledger_csv(tr_seq, tmp_path / "seq.csv") == \
            ledger_csv(tr_thr, tmp_path / "thr.csv")

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_counted_matches_threaded_members(self, n, seed, tmp_path):
        tr_thr, group = make_cluster(n)
        run_node_threads(tr_thr, {
            m: (lambda m=m: allreduce_counted(tr_thr, group, m, 20,
                                              seed=seed, op="ar"))
            for m in group.members})
        tr_seq, _ = make_cluster(n)
        out = allreduce_group(tr_seq, group,
                              dict.fromkeys(group.members, 20),
                              seed=seed, op="ar")
        assert all(v is None for v in out.values())
        assert ledger_csv(tr_seq, tmp_path / "seq.csv") == \
            ledger_csv(tr_thr, tmp_path / "thr.csv")

    def test_missing_transfer_fails_fast(self):
        tr, group = make_cluster(4)
        send = tr.send
        tr.send = lambda msg: (None if msg.src == group.members[0]
                               and msg.round == 2 else send(msg))
        values = {m: np.ones(3, dtype=np.float32) for m in group.members}
        start = time.monotonic()
        with pytest.raises(MemberMissing):
            allreduce_group(tr, group, values)
        assert time.monotonic() - start < 1.0


class TestGroup:
    def test_distinct_members_required(self):
        node = NodeId(Role.CONV_WORKER, 0)
        with pytest.raises(ValueError):
            Group((node, node))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Group(())
