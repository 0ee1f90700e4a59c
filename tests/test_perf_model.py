"""Closed-form time models, the node planner, and model/simulator agreement."""

import dataclasses

import numpy as np
import pytest

from oracles import best_ps_split_reference, best_split_reference, rel_err
from stanza.model_partition import (ConfigError, builtin_model, profile_spec,
                                    split, tiny_cnn, tiny_mlp)
from stanza.perf_model import (Infeasible, PerfConstants, assign_nodes,
                               assign_ps, best_split, format_constants_text,
                               load_constants_file,
                               parse_constants_text, ps_iter_time,
                               ps_throughput, speedup, stanza_iter_time,
                               stanza_throughput, v100_class_constants,
                               window)
from stanza.ps_runtime import PsCluster, ps_traffic
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza.tensor_core import param_count
from stanza.transport import NetConfig
from trainers import comm_bound_constants, make_batch_fn

ALEX = split(builtin_model("alexnet"))
ALEX_PARAMS = ALEX.conv_params + ALEX.fc_params
ZERO = PerfConstants(bandwidth=10e9)


class TestWindow:
    """Busiest-node payload multiple of one allreduce."""

    def test_powers_of_two(self):
        assert [window(n) for n in (1, 2, 4, 8, 32)] == [0, 1, 2, 3, 5]

    def test_surplus_sizes_pay_one_extra_pass(self):
        assert [window(n) for n in (3, 5, 6, 10, 33)] == [2, 3, 3, 4, 6]

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            window(0)


class TestStanzaIterTime:
    """Hand-checked values and limits of the layer-separated closed form."""

    def test_four_conv_one_fc_wire_time(self):
        # 2*4*9216*128 activation elements + 2 passes of the conv gradients
        t = stanza_iter_time(ALEX, 4, 1, ZERO)
        assert rel_err(t, 0.0460050432) <= 1e-12

    def test_eight_conv_one_fc_wire_time(self):
        # 2*8*9216*128 + 3*2469696 elements, 32 bits each, over 10 Gb/s
        t = stanza_iter_time(ALEX, 8, 1, ZERO)
        assert rel_err(t, 0.0841070592) <= 1e-12

    def test_fc_exchange_can_dominate(self):
        # equal group sizes: max(2*2469696, 2*58631144) picks the fc side
        t = stanza_iter_time(ALEX, 4, 4, ZERO)
        assert rel_err(t, 0.3827890688) <= 1e-12

    def test_compute_bound_limit(self):
        c = PerfConstants(bandwidth=1e18, conv_time=0.3, fc_unit_time=0.01)
        t = stanza_iter_time(ALEX, 5, 2, c)
        assert rel_err(t, 0.3 + 3 * 0.01) <= 1e-7

    def test_single_pair_ships_activations_only(self):
        t = stanza_iter_time(ALEX, 1, 1, ZERO)
        assert rel_err(t, 2 * 9216 * 128 * 32 / 10e9) <= 1e-12

    def test_rejects_bad_shapes(self):
        """The closed form, the traffic counter and the cluster reject each
        shape with one and the same message."""
        spec = tiny_cnn()
        for n_conv, n_fc in [(0, 1), (1, 0), (2, 3)]:
            messages = set()
            for attempt in (
                    lambda: stanza_iter_time(ALEX, n_conv, n_fc, ZERO),
                    lambda: stanza_traffic(spec, n_conv=n_conv, n_fc=n_fc),
                    lambda: StanzaCluster(spec, n_conv=n_conv, n_fc=n_fc,
                                          batch_fn=None, lr=0.1)):
                with pytest.raises(ConfigError) as exc:
                    attempt()
                messages.add(str(exc.value))
            assert len(messages) == 1, messages


class TestStanzaThroughput:
    """Throughput is n_conv local batches per modeled second."""

    def test_matches_time_division(self):
        thr = stanza_throughput(ALEX, 8, 1, ZERO)
        assert rel_err(thr, 8 * 128 / 0.0841070592) <= 1e-12
        assert 1.1e4 < thr < 1.3e4

    def test_more_bandwidth_more_throughput(self):
        fast = dataclasses.replace(ZERO, bandwidth=20e9)
        assert (stanza_throughput(ALEX, 8, 1, fast)
                > stanza_throughput(ALEX, 8, 1, ZERO))

    def test_fc_compute_starves_throughput(self):
        slow = PerfConstants(bandwidth=10e9, fc_unit_time=1e6)
        assert stanza_throughput(ALEX, 8, 1, slow) < 1e-2


class TestPsModel:
    """Push/pull closed form with the busiest-link window."""

    def test_four_workers_one_server_wire_time(self):
        t = ps_iter_time(ALEX_PARAMS, 4, 1, ZERO)
        assert rel_err(t, 1.564181504) <= 1e-12
        assert abs(t - 1.56) / 1.56 < 0.01

    def test_balanced_shards_hand_value(self):
        # 900 params over 3 servers: 6 workers load each server link 1800
        c = PerfConstants(bandwidth=3200.0, ps_compute_time=0.5)
        assert ps_iter_time(900, 6, 3, c) == 2 * 1800 * 32 / 3200.0 + 0.5

    def test_worker_link_floor_with_many_servers(self):
        # each worker still moves its full gradient and parameter set
        t = ps_iter_time(ALEX_PARAMS, 2, 10**6, ZERO)
        assert rel_err(t, 2 * ALEX_PARAMS * 32 / 10e9) <= 1e-12

    def test_throughput_with_server_compute(self):
        c = PerfConstants(bandwidth=10e9, ps_compute_time=0.43)
        assert 256 < ps_throughput(ALEX_PARAMS, 128, 4, 1, c) < 258

    def test_rejects_empty_sides(self):
        """The closed form, the traffic counter and the cluster reject each
        shape with one and the same message."""
        spec = tiny_cnn()
        for n_workers, n_servers in [(0, 1), (1, 0)]:
            messages = set()
            for attempt in (
                    lambda: ps_iter_time(ALEX_PARAMS, n_workers, n_servers,
                                         ZERO),
                    lambda: ps_traffic(spec, n_workers=n_workers,
                                       n_servers=n_servers),
                    lambda: PsCluster(spec, n_workers=n_workers,
                                      n_servers=n_servers, batch_fn=None,
                                      lr=0.1)):
                with pytest.raises(ConfigError) as exc:
                    attempt()
                messages.add(str(exc.value))
            assert len(messages) == 1, messages


class TestModelMatchesSimulation:
    """The closed forms reproduce the counted simulator clock exactly."""

    ODD = profile_spec("oddnet", params_total=1_000_003, params_conv=123_457,
                       boundary_activations=77, batch_k=5)

    def test_layer_separated_clock(self):
        rng = np.random.default_rng(17)
        for spec in (builtin_model("alexnet"), self.ODD):
            part = split(spec)
            for _ in range(4):
                n_conv = int(rng.integers(1, 9))
                n_fc = int(rng.integers(1, n_conv + 1))
                c = PerfConstants(
                    bandwidth=float(rng.choice([1e9, 10e9])),
                    conv_time=float(rng.choice([0.0, 0.013])),
                    fc_unit_time=float(rng.choice([0.0, 0.0021])))
                tr = stanza_traffic(spec, n_conv=n_conv, n_fc=n_fc,
                                    iterations=2,
                                    net=NetConfig(bandwidth=c.bandwidth),
                                    conv_time=c.conv_time,
                                    fc_unit_time=c.fc_unit_time)
                sim = tr.ledger.logical_clock / 2
                model = stanza_iter_time(part, n_conv, n_fc, c)
                assert rel_err(sim, model) <= 1e-9, (spec.name, n_conv, n_fc)

    def test_push_pull_clock(self):
        """Counted runs of profile and executable specs, and numeric runs of
        the executable ones; those also run with more servers (9, 16) than
        they have tensors (8)."""
        rng = np.random.default_rng(23)
        for spec in (builtin_model("alexnet"), self.ODD, tiny_cnn(),
                     tiny_mlp()):
            shapes = [(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                      for _ in range(4)]
            if not spec.is_profile:
                shapes += [(4, 2), (4, 9), (3, 16)]
            total = (spec.params_total if spec.is_profile
                     else sum(param_count(layer) for layer in spec.layers))
            for n_workers, n_servers in shapes:
                c = PerfConstants(
                    bandwidth=float(rng.choice([1e6, 1e9, 10e9])),
                    ps_compute_time=float(rng.choice([0.0, 0.007])))
                model = ps_iter_time(total, n_workers, n_servers, c)
                for tr in self._ps_transports(spec, n_workers, n_servers, c):
                    sim = tr.ledger.logical_clock / 2
                    assert rel_err(sim, model) <= 1e-9, (
                        spec.name, n_workers, n_servers)

    @staticmethod
    def _ps_transports(spec, n_workers, n_servers, c):
        """Two iterations of every PS run of one shape: counted, and numeric
        for an executable spec."""
        kw = dict(n_workers=n_workers, n_servers=n_servers,
                  net=NetConfig(bandwidth=c.bandwidth),
                  compute_time=c.ps_compute_time)
        yield ps_traffic(spec, iterations=2, **kw)
        if not spec.is_profile:
            yield PsCluster(spec, batch_fn=make_batch_fn(spec, 1), lr=0.01,
                            **kw).train(2).transport


class TestLabelSideband:
    """Numeric layer-separated runs ship each CONV batch's labels, batch_k
    elements, as a CONTROL transfer the closed form leaves out. They ride
    the activations phase, whose busiest node is the FC worker serving the
    most CONV workers, so at zero latency the numeric clock exceeds the
    model by exactly that worker's label bytes * 8 / B per iteration
    (ROADMAP item 8 keeps this bound instead of a label term)."""

    @pytest.mark.parametrize("model,boundary", [("tiny_cnn", None),
                                                ("tiny_mlp", 4)])
    @pytest.mark.parametrize("n_conv,n_fc", [(1, 1), (3, 1), (4, 1), (5, 2),
                                             (8, 3), (4, 4)])
    @pytest.mark.parametrize("bandwidth,conv_time,fc_unit_time",
                             [(1e6, 0.0, 0.0), (1e9, 0.013, 0.0021)])
    def test_numeric_clock_is_model_plus_label_bytes(
            self, model, boundary, n_conv, n_fc, bandwidth, conv_time,
            fc_unit_time):
        spec = tiny_cnn() if model == "tiny_cnn" else tiny_mlp()
        c = PerfConstants(bandwidth=bandwidth, conv_time=conv_time,
                          fc_unit_time=fc_unit_time)
        cluster = StanzaCluster(spec, n_conv=n_conv, n_fc=n_fc,
                                batch_fn=make_batch_fn(spec, 1), lr=0.01,
                                conv_time=conv_time,
                                fc_unit_time=fc_unit_time,
                                net=NetConfig(bandwidth=bandwidth),
                                boundary=boundary)
        sim = cluster.train(2).transport.ledger.logical_clock / 2
        busiest = -(-n_conv // n_fc)
        labels = busiest * spec.batch_k * 4 * 8 / bandwidth
        model = stanza_iter_time(split(spec, boundary), n_conv, n_fc, c)
        assert rel_err(sim, model + labels) <= 1e-9
        assert sim > model

    def test_tiny_cnn_four_plus_one_at_one_megabit(self):
        spec = tiny_cnn()
        cluster = StanzaCluster(spec, n_conv=4, n_fc=1,
                                batch_fn=make_batch_fn(spec, 1), lr=0.01,
                                net=NetConfig(bandwidth=1e6))
        sim = cluster.train(1).transport.ledger.logical_clock
        model = stanza_iter_time(split(spec), 4, 1, PerfConstants(1e6))
        assert rel_err(sim, 0.351744) <= 1e-12
        assert rel_err(model, 0.351232) <= 1e-12
        assert rel_err(sim - model, 64 * 8 / 1e6) <= 1e-9


CONSTANT_SETS = [
    (10e9, 0.43, 0.001, 0.43),
    (1e9, 0.0, 0.0002, 0.0),
    (25e9, 0.002, 0.002, 0.001),
]


class TestPlanner:
    """Exhaustive search against an independent re-enumeration."""

    def test_matches_brute_force(self):
        for bandwidth, tc, tf, tps in CONSTANT_SETS:
            c = PerfConstants(bandwidth=bandwidth, conv_time=tc,
                              fc_unit_time=tf, ps_compute_time=tps)
            for n in range(2, 129):
                got = assign_nodes(ALEX, n, c)
                want = best_split_reference(
                    n, 128, 9216, ALEX.conv_params, ALEX.fc_params,
                    bandwidth, tc, tf)
                assert (got.n_conv, got.n_fc) == want[:2], (bandwidth, n)
                assert rel_err(got.throughput, want[2]) <= 1e-12

    def test_ps_split_matches_brute_force(self):
        for bandwidth, _, _, tps in CONSTANT_SETS:
            c = PerfConstants(bandwidth=bandwidth, ps_compute_time=tps)
            for n in range(2, 65):
                got = assign_ps(ALEX_PARAMS, 128, n, c)
                want = best_ps_split_reference(n, 128, ALEX_PARAMS,
                                               bandwidth, tps)
                assert (got.n_workers, got.n_servers) == want[:2]
                assert rel_err(got.throughput, want[2]) <= 1e-12

    @pytest.mark.parametrize("spec", [tiny_mlp(), tiny_cnn()],
                             ids=["tiny_mlp", "tiny_cnn"])
    def test_ps_plan_matches_brute_force_over_the_simulator(self, spec):
        """A PS plan needs only P, so tiny_mlp, which has no CONV/FC cut,
        plans too; the planner picks the split whose simulated clock gives
        the most samples per second, ties to fewer servers."""
        for bandwidth, _, _, tps in CONSTANT_SETS:
            c = PerfConstants(bandwidth=bandwidth, ps_compute_time=tps)
            for n in range(2, 17):
                clocks = {(n - s, s): ps_traffic(
                    spec, n_workers=n - s, n_servers=s, compute_time=tps,
                    net=NetConfig(bandwidth=bandwidth)).ledger.logical_clock
                    for s in range(1, n)}
                want = max(clocks, key=lambda ws: ws[0] / clocks[ws])
                n_workers, n_servers, seconds = best_split(spec, "ps", n, c)
                assert (n_workers, n_servers) == want, (bandwidth, n)
                assert rel_err(seconds, clocks[want]) <= 1e-9

    def test_one_fc_worker_up_to_eleven_nodes(self):
        c = v100_class_constants()
        for n in range(2, 12):
            assert assign_nodes(ALEX, n, c).n_fc == 1

    def test_memory_limit_forces_wider_fc_group(self):
        c = v100_class_constants()
        # 7 conv batches of 9216 floats exceed 20 MB, 3 batches fit
        limit = 20e6
        got = assign_nodes(ALEX, 8, c, fc_memory_bytes=limit)
        assert got.n_fc >= 2
        want = best_split_reference(8, 128, 9216, ALEX.conv_params,
                                    ALEX.fc_params, c.bandwidth, c.conv_time,
                                    c.fc_unit_time, fc_memory_bytes=limit)
        assert (got.n_conv, got.n_fc) == want[:2]

    def test_impossible_memory_limit(self):
        with pytest.raises(Infeasible):
            assign_nodes(ALEX, 8, v100_class_constants(), fc_memory_bytes=1.0)

    def test_single_node_budget_infeasible(self):
        with pytest.raises(Infeasible):
            assign_nodes(ALEX, 1, v100_class_constants())
        with pytest.raises(Infeasible):
            assign_ps(ALEX_PARAMS, 128, 1, v100_class_constants())

    def test_time_unit_scaling_keeps_the_argmax(self):
        # multiplying every time by 7 (constants up, bandwidth down) moves
        # throughput by 1/7 and the chosen split not at all
        base = v100_class_constants()
        scaled = PerfConstants(bandwidth=base.bandwidth / 7,
                               conv_time=base.conv_time * 7,
                               fc_unit_time=base.fc_unit_time * 7,
                               ps_compute_time=base.ps_compute_time * 7)
        for n in (5, 23, 64):
            a, b = assign_nodes(ALEX, n, base), assign_nodes(ALEX, n, scaled)
            assert (a.n_conv, a.n_fc) == (b.n_conv, b.n_fc)
            assert rel_err(a.throughput, b.throughput * 7) <= 1e-9


class TestSaturation:
    """Fixed FC group: throughput saturates against the activation wire."""

    def test_activation_ceiling(self):
        for c in (ZERO, v100_class_constants()):
            for n_fc in (1, 2):
                ceiling = n_fc * 128 / (c.fc_unit_time
                                        + 2 * 9216 * 128 * 32 / c.bandwidth)
                for n_conv in range(n_fc, 65):
                    thr = stanza_throughput(ALEX, n_conv, n_fc, c)
                    assert thr <= ceiling * (1 + 1e-12)

    def test_monotone_along_doublings(self):
        c = v100_class_constants()
        vals = [stanza_throughput(ALEX, 2**m, 1, c) for m in range(7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_window_jump_dips_when_wire_bound(self):
        # 5 members pay 3 allreduce passes where 4 paid 2
        assert (stanza_throughput(ALEX, 5, 1, ZERO)
                < stanza_throughput(ALEX, 4, 1, ZERO))


class TestSpeedup:
    """Equal node budget, one coordinator on each side."""

    def test_is_the_pinned_time_ratio(self):
        c = v100_class_constants()
        for n in (2, 5, 11):
            want = (ps_iter_time(ALEX_PARAMS, n - 1, 1, c)
                    / stanza_iter_time(ALEX, n - 1, 1, c))
            assert rel_err(speedup(ALEX, n, c), want) <= 1e-12

    def test_equals_throughput_ratio(self):
        c = v100_class_constants()
        want = (stanza_throughput(ALEX, 7, 1, c)
                / ps_throughput(ALEX_PARAMS, 128, 7, 1, c))
        assert rel_err(speedup(ALEX, 8, c), want) <= 1e-12

    def test_grows_with_the_cluster_at_ten_gigabit(self):
        c = v100_class_constants()
        vals = [speedup(ALEX, n, c) for n in range(3, 12)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert 2.5 < vals[0] < 3.0 and vals[-1] > 7.0

    def test_compute_bound_ratio(self):
        c = PerfConstants(bandwidth=1e18, conv_time=0.2, fc_unit_time=0.001,
                          ps_compute_time=0.43)
        assert rel_err(speedup(ALEX, 5, c), 0.43 / 0.204) <= 1e-6

    def test_needs_a_worker(self):
        with pytest.raises(Infeasible):
            speedup(ALEX, 1, v100_class_constants())


# model, nodes, speedup over a one-server PS, and the throughput ratio of
# the planner's best layer-separated split over its best PS split, under
# v100_class_constants
PS_BASELINES = [
    ("alexnet", 4, 3.4004, 2.61227),
    ("alexnet", 16, 10.6732, 2.60988),
    ("alexnet", 128, 31.8831, 1.48556),
    ("vgg16", 4, 5.53128, 3.53625),
    ("vgg16", 16, 17.4127, 3.13216),
    ("vgg16", 128, 51.5074, 1.68606),
    ("vgg19", 4, 5.38597, 3.41936),
    ("vgg19", 16, 16.6252, 2.9578),
    ("vgg19", 128, 50.7239, 1.67204),
    ("inception_v3", 4, 1.59922, 1.52233),
    ("inception_v3", 16, 3.93085, 1.3971),
    ("inception_v3", 128, 19.1908, 1.07559),
    ("resnet152", 4, 1.96645, 1.51647),
    ("resnet152", 16, 5.19309, 1.27856),
    ("resnet152", 128, 25.8038, 0.888497),
]


@pytest.mark.parametrize("model,nodes,one_server,best_split", PS_BASELINES)
def test_ratio_names_its_ps_baseline(model, nodes, one_server, best_split):
    """README's baseline table: the ratio over a one-server PS, and the far
    smaller one over the planner's best PS split."""
    c = v100_class_constants()
    part = split(builtin_model(model))
    total = part.conv_params + part.fc_params
    best_ps = assign_ps(total, part.spec.batch_k, nodes, c)
    assert rel_err(speedup(part, nodes, c), one_server) <= 1e-5
    assert rel_err(assign_nodes(part, nodes, c).throughput
                   / best_ps.throughput, best_split) <= 1e-5


class TestCommBoundScaling:
    """Rescaled constants put the PS bottleneck on the wire."""

    TINY = split(tiny_cnn())
    MEASURED = PerfConstants(bandwidth=10e9, conv_time=2e-3,
                             fc_unit_time=4e-4, ps_compute_time=1e-4)

    def total(self):
        return self.TINY.conv_params + self.TINY.fc_params

    def test_conv_time_lands_on_target(self):
        c = comm_bound_constants(self.MEASURED, self.total())
        assert rel_err(c.conv_time, 1.5 * 2 * 35578 * 32 / 10e9) <= 1e-12

    def test_ratios_survive_scaling(self):
        c = comm_bound_constants(self.MEASURED, self.total())
        assert rel_err(c.fc_unit_time / c.conv_time, 0.2) <= 1e-12
        assert rel_err(c.ps_compute_time / c.conv_time, 0.05) <= 1e-12

    def test_wire_dominates_every_ps_iteration(self):
        c = comm_bound_constants(self.MEASURED, self.total())
        for n_workers in (2, 10):
            t = ps_iter_time(self.total(), n_workers, 1, c)
            assert c.ps_compute_time / t < 0.1

    def test_speedup_trend_is_monotone(self):
        c = comm_bound_constants(self.MEASURED, self.total())
        vals = [speedup(self.TINY, n, c) for n in range(3, 12)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_hundred_gigabit_scaling_headroom(self):
        c = dataclasses.replace(
            comm_bound_constants(self.MEASURED, self.total()),
            bandwidth=100e9)
        thr40 = assign_nodes(self.TINY, 40, c).throughput
        thr80 = assign_nodes(self.TINY, 80, c).throughput
        assert thr80 / thr40 >= 1.9

    def test_needs_a_measured_conv_time(self):
        with pytest.raises(ConfigError):
            comm_bound_constants(ZERO, self.total())


class TestConstantsValidation:
    """PerfConstants rejects impossible inputs."""

    def test_rejects_nonpositive_bandwidth(self):
        with pytest.raises(ConfigError):
            PerfConstants(bandwidth=0.0)

    def test_rejects_negative_times(self):
        with pytest.raises(ConfigError):
            PerfConstants(bandwidth=10e9, conv_time=-1.0)

    def test_v100_class_values(self):
        c = v100_class_constants()
        assert (c.conv_time, c.fc_unit_time, c.ps_compute_time) == \
            (0.43, 0.001, 0.43)
        assert c.bandwidth == 10e9


class TestConstantsFile:
    """Text round trips for measured constants."""

    def test_round_trip(self):
        c = PerfConstants(bandwidth=25e9, conv_time=0.0123,
                          fc_unit_time=4.5e-4, ps_compute_time=0.02)
        assert parse_constants_text(format_constants_text(c)) == c

    def test_missing_keys_use_defaults(self):
        c = parse_constants_text("conv_time 0.5\n")
        assert c == PerfConstants(bandwidth=10e9, conv_time=0.5)

    def test_name_line_and_comments_ignored(self):
        c = parse_constants_text("# measured on host A\nname tiny\n"
                                 "bandwidth 1e9\n")
        assert c.bandwidth == 1e9

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_constants_text("bandwidht 1e9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_constants_text("conv_time fast\n")
        with pytest.raises(ConfigError):
            parse_constants_text("conv_time 1 2\n")

    def test_key_given_twice_rejected(self):
        with pytest.raises(ConfigError, match="'bandwidth' is given twice"):
            parse_constants_text("bandwidth 1e9\nbandwidth 2e9\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "host.constants"
        path.write_text(format_constants_text(v100_class_constants(),
                                              name="v100"))
        assert load_constants_file(path) == v100_class_constants()
