"""Allreduce against the canonical-order fold oracle."""

import time

import numpy as np
import pytest

from stanza.collectives import (Group, _rounds, allreduce_counted,
                                allreduce_group, allreduce_steps,
                                allreduce_sum, round_count, surplus_protocol)
from stanza.model_partition import builtin_model, tiny_cnn
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza.transport import (MissingSource, NetConfig, NodeId, Role,
                              SimTransport, charge_plan, run_node_threads)

from oracles import allreduce_reference
from trainers import LR, MU, make_batch_fn

def conv_nodes(n):
    return tuple(NodeId(Role.CONV_WORKER, i) for i in range(n))


def rule_donors(members):
    """The fixed surplus rule written out: member 2i+1 -> member 2i for
    i < n - 2^floor(log2 n)."""
    r = len(members) - (1 << (len(members).bit_length() - 1))
    return {members[2 * i + 1]: members[2 * i] for i in range(r)}


def make_cluster(n):
    tr = SimTransport(NetConfig(default_timeout=20.0))
    nodes = conv_nodes(n)
    tr.register_all(nodes)
    return tr, Group(nodes)


def run_allreduce(n, shape=(17,), data_seed=5, op="ar"):
    tr, group = make_cluster(n)
    rng = np.random.Generator(np.random.PCG64(data_seed))
    values = {m: rng.standard_normal(shape).astype(np.float32)
              for m in group.members}
    tasks = {m: (lambda m=m: allreduce_sum(tr, group, m, values[m], op=op))
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
            group = Group(conv_nodes(n))
            assert surplus_protocol(group) == ((), group.members, {})

    def test_counts_and_distinctness(self):
        for n in (3, 5, 6, 7, 9, 10, 33):
            group = Group(conv_nodes(n))
            surplus, core, donors = surplus_protocol(group)
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
        _, core, _ = surplus_protocol(group)
        ranks = [group.members.index(c) for c in core]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 8, 13, 33, 127])
    def test_schedule_carries_the_fold_order(self, n):
        """Each folding transfer says whether dst's own value goes first,
        and it does exactly when dst has the lower group index; only the
        return round replaces instead of folding."""
        group = Group(conv_nodes(n))
        rank = {m: i for i, m in enumerate(group.members)}
        rounds = _rounds(group)
        assert len(rounds) == round_count(n)
        for label, transfers in rounds:
            for src, dst, dst_first in transfers:
                if dst_first is None:
                    assert label == len(rounds) - 1
                    assert rank[dst] == rank[src] + 1
                else:
                    assert dst_first == (rank[dst] < rank[src])

    @pytest.mark.parametrize("n", [3, 5, 6, 7, 13, 33, 127])
    def test_member_2i_plus_1_folds_into_2i(self, n):
        members = conv_nodes(n)
        expected = rule_donors(members)
        surplus, core, donors = surplus_protocol(Group(members))
        assert donors == expected
        assert surplus == tuple(expected)
        assert core == (tuple(expected.values())
                        + members[2 * len(expected):])


class TestAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 10, 13])
    def test_matches_canonical_fold_exactly(self, n):
        """Every member returns the oracle's fixed-order sum, bit for bit:
        member 2i+1 folds into member 2i for i < n - 2^floor(log2 n)."""
        _, group, values, results = run_allreduce(n)
        members = group.members
        expected = allreduce_reference(values, list(members),
                                       rule_donors(members))
        for m in members:
            np.testing.assert_array_equal(results[m], expected)

    def test_members_bit_identical(self):
        _, group, _, results = run_allreduce(10)
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
                return allreduce_sum(tr, group, m, values[m])
            return run

        tasks = {m: task(m, 0.05 * (len(group.members) - i))
                 for i, m in enumerate(group.members)}
        results = run_node_threads(tr, tasks)
        np.testing.assert_array_equal(results[group.members[0]],
                                      np.full(5, 15, dtype=np.float32))


class TestCountedAllreduce:
    @pytest.mark.parametrize("n", [2, 5, 8, 10])
    def test_same_bytes_and_rounds_as_numeric(self, n):
        tr_num, group, _, _ = run_allreduce(n, shape=(20,), op="ar")
        tr_cnt, group2 = make_cluster(n)
        tasks = {m: (lambda m=m: allreduce_counted(tr_cnt, group2, m, 20,
                                                   op="ar"))
                 for m in group2.members}
        run_node_threads(tr_cnt, tasks)
        assert tr_cnt.ledger.total_sent == tr_num.ledger.total_sent
        assert tr_cnt.ledger.rounds_for_op("ar") == tr_num.ledger.rounds_for_op("ar")
        assert len(tr_cnt.ledger.messages) == len(tr_num.ledger.messages)


def rows(tr):
    """The ledger's messages as sorted (src, dst, tag, op, round, bytes)."""
    return sorted((m.src, m.dst, m.tag, m.op, m.round, m.payload_bytes)
                  for m in tr.ledger.messages)


class TestGroupAllreduce:
    """The group driver, which runs the plan executor, against one thread
    per member and against its own plan."""

    @pytest.mark.parametrize("data_seed", [0, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 33])
    def test_numeric_matches_threaded_members(self, n, data_seed):
        tr_thr, group, values, threaded = run_allreduce(
            n, shape=(3, 7), data_seed=data_seed)
        tr_seq, _ = make_cluster(n)
        seq = allreduce_group(tr_seq, group, values, op="ar")
        for m in group.members:
            assert seq[m].shape == threaded[m].shape
            assert seq[m].tobytes() == threaded[m].tobytes()
        assert rows(tr_seq) == rows(tr_thr)

    @pytest.mark.parametrize("elements", [0, 7, 1024])  # empty, odd, even
    @pytest.mark.parametrize("n", range(1, 34))
    def test_matches_its_plan(self, n, elements):
        tr, group = make_cluster(n)
        values = {m: np.ones(elements, dtype=np.float32)
                  for m in group.members}
        allreduce_group(tr, group, values, op="ar")
        planned = charge_plan([("ar", allreduce_steps(group, "ar",
                                                      elements))], 1)
        assert tr.ledger.messages == planned.ledger.messages
        assert tr.ledger.phases == planned.ledger.phases
        assert tr.ledger.logical_clock == planned.ledger.logical_clock

    def test_missing_transfer_fails_fast(self):
        tr, group = make_cluster(4)
        send = tr.send
        tr.send = lambda msg: (None if msg.src == group.members[0]
                               and msg.round == 2 else send(msg))
        values = {m: np.ones(3, dtype=np.float32) for m in group.members}
        start = time.monotonic()
        with pytest.raises(MissingSource):
            allreduce_group(tr, group, values)
        assert time.monotonic() - start < 1.0


def surplus_pairs(ledger):
    """Each exchange phase's surplus-round (src, dst) pairs, phase by phase."""
    pairs = {}
    for rec in ledger.messages:
        if rec.round == 0:
            pairs.setdefault(rec.phase_index, []).append((rec.src, rec.dst))
    return list(pairs.values())


class TestFixedRuleInRuns:
    """The surplus round moves the same bytes between the same nodes in
    every iteration and for every run seed."""

    def test_same_pairs_every_iteration(self):
        tr = stanza_traffic(builtin_model("alexnet"), n_conv=5, n_fc=3,
                            iterations=2)
        first, second = surplus_pairs(tr.ledger)
        assert first == second
        conv = NodeId(Role.CONV_WORKER, 1), NodeId(Role.CONV_WORKER, 0)
        fc = NodeId(Role.FC_WORKER, 1), NodeId(Role.FC_WORKER, 0)
        assert sorted(first) == sorted([conv, fc])

    def test_same_pairs_for_every_seed(self):
        spec = tiny_cnn()
        pairs = [surplus_pairs(StanzaCluster(
            spec, n_conv=5, n_fc=3, batch_fn=make_batch_fn(spec, 7), lr=LR,
            momentum=MU, seed=seed).train(1).transport.ledger)
            for seed in (3, 4)]
        assert pairs[0] == pairs[1]
        assert pairs[0]


class TestGroup:
    def test_distinct_members_required(self):
        node = NodeId(Role.CONV_WORKER, 0)
        with pytest.raises(ValueError):
            Group((node, node))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Group(())
