"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one user-visible promise at its stated tolerance and
prints a single PASS/FAIL line (visible with pytest -s); the assertion
carries the same line so failures read identically in both places.
"""

import dataclasses
import time

import numpy as np
import pytest

from stanza.checkpointing import load_state, param_digest, save_state
from stanza.collectives import Group, allreduce_group, round_count
from stanza.harness import ExperimentConfig, bench_constants, compare, execute
from stanza.model_partition import builtin_model, split, tiny_cnn
from stanza.perf_model import (PerfConstants, assign_nodes, assign_ps,
                               ps_iter_time, speedup, stanza_iter_time,
                               v100_class_constants)
from stanza.ps_runtime import PsCluster, ps_traffic
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza.tensor_core import (Conv2d, Flatten, FullyConnected, MaxPool2d,
                                ReLU, SoftmaxCrossEntropy, seeded_init)
from stanza.transport import NetConfig, NodeId, Role, SimTransport, Tag

from oracles import best_split_reference
from test_tensor_core import check_grads
from trainers import (comm_bound_constants, make_batch_fn, max_param_dev,
                      reference_train)

ALEX = builtin_model("alexnet")
ALEX_PART = split(ALEX)


def verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_allreduce_exact_sums_and_round_counts():
    """Sums match a direct oracle exactly; round structure is log-shaped."""
    t0 = time.perf_counter()
    worst_n = None
    for n in range(2, 34):
        tr = SimTransport()
        nodes = tuple(NodeId(Role.CONV_WORKER, i) for i in range(n))
        tr.register_all(nodes)
        group = Group(nodes)
        rng = np.random.Generator(np.random.PCG64(n))
        # integer-valued tensors make float32 addition order-free, so the
        # direct sum is THE answer, not one of several rounding outcomes
        values = {m: rng.integers(-8, 9, size=1024).astype(np.float32)
                  for m in nodes}
        results = allreduce_group(tr, group, values)
        oracle = np.sum(np.stack([values[m] for m in nodes]), axis=0,
                        dtype=np.float32)
        for m in nodes:
            if not np.array_equal(results[m], oracle):
                verdict("allreduce exactness", False, f"member sum off at n={n}")
        rounds = len(tr.ledger.rounds_for_op("allreduce"))
        m_bits = n.bit_length() - 1
        expected = m_bits if n == (1 << m_bits) else m_bits + 2
        if rounds != expected or round_count(n) != expected:
            verdict("allreduce exactness", False,
                    f"n={n} used {rounds} rounds, expected {expected}")
        worst_n = n
    elapsed = time.perf_counter() - t0
    verdict("allreduce exactness", elapsed < 10.0,
            f"n=2..{worst_n} exact with log-shaped rounds in {elapsed:.2f}s")


def test_protocols_match_single_node_training():
    """Both protocols land within 1e-5 of one-node batch-(n_c*K) training."""
    t0 = time.perf_counter()
    spec = tiny_cnn()
    iterations, seed, data_seed = 50, 3, 7
    worst = 0.0
    for n_c, n_f in [(1, 1), (2, 1), (4, 1), (4, 2), (8, 1), (5, 1)]:
        batch_fn = make_batch_fn(spec, data_seed)
        ref_params, _, _ = reference_train(spec, n_c, iterations, seed,
                                           data_seed)
        st = StanzaCluster(spec, n_conv=n_c, n_fc=n_f, batch_fn=batch_fn,
                           lr=0.05, momentum=0.9, seed=seed)
        st_state = st.train(iterations).state
        ps = PsCluster(spec, n_workers=n_c, n_servers=1, batch_fn=batch_fn,
                       lr=0.05, momentum=0.9, seed=seed)
        ps_state = ps.train(iterations).state
        devs = (max_param_dev(st_state.params, ref_params),
                max_param_dev(ps_state.params, ref_params),
                max_param_dev(ps_state.params, st_state.params))
        worst = max(worst, *devs)
        if max(devs) > 1e-5:
            verdict("protocol equivalence", False,
                    f"(n_c={n_c}, n_f={n_f}) deviates {max(devs):.2e}")
    elapsed = time.perf_counter() - t0
    verdict("protocol equivalence", elapsed < 120.0,
            f"6 cluster shapes within {worst:.2e} of one-node training "
            f"in {elapsed:.1f}s")


def test_reference_iteration_time_reproduced():
    """4 workers, 1 server, 10 Gb/s, zero compute: 1.5642 s per iteration."""
    c = PerfConstants(bandwidth=10e9)
    modeled = ps_iter_time(ALEX.params_total, 4, 1, c)
    tr = ps_traffic(ALEX, n_workers=4, n_servers=1, iterations=1)
    simulated = tr.ledger.logical_clock
    ok = (abs(modeled - 1.564181504) < 1e-9
          and abs(simulated - 1.564181504) < 1e-9
          and abs(modeled - 1.56) / 1.56 < 0.01)
    verdict("iteration-time reproduction", ok,
            f"model {modeled:.9f}s, simulator {simulated:.9f}s, "
            "within 1% of 1.56s")


def test_traffic_metrics():
    """Per-epoch PS bytes are size-invariant and dwarf the layer-split runs."""
    t0 = time.perf_counter()
    shared = dict(model="alexnet", seed=0, iterations=1, epoch_samples=1024,
                  workers=2, coordinators=1)
    ps_cfg = ExperimentConfig(mode="ps", **shared)
    st_cfg = ExperimentConfig(mode="stanza", **shared)

    per_epoch = set()
    for n in (2, 4, 8):
        rep, _ = execute(dataclasses.replace(ps_cfg, workers=n))
        per_epoch.add(rep.total_data_bytes_per_epoch)
    if len(per_epoch) != 1:
        verdict("traffic metrics", False,
                f"per-epoch bytes vary across sizes: {sorted(per_epoch)}")

    table = compare(ps_cfg, st_cfg, worker_counts=[2, 4, 8])
    worst_total = min(r.total_data_ratio for r in table.rows)
    worst_fc = min(r.fc_data_ratio for r in table.rows)
    elapsed = time.perf_counter() - t0
    ok = worst_total > 4 and worst_fc >= 40 and elapsed < 30.0
    verdict("traffic metrics", ok,
            f"per-epoch bytes constant, total ratio > {worst_total:.1f}, "
            f"FC ratio >= {worst_fc:.1f}, in {elapsed:.1f}s")


def test_analytic_model_matches_simulator():
    """Closed forms track the simulated clock to 1e-9 on random draws."""
    rng = np.random.Generator(np.random.PCG64(2025))
    worst = 0.0
    for _ in range(20):
        c = PerfConstants(bandwidth=float(rng.uniform(1e9, 4e10)),
                          conv_time=float(rng.choice([0.0, rng.uniform(0, 0.02)])),
                          fc_unit_time=float(rng.uniform(0, 0.005)))
        n_c = int(rng.integers(1, 11))
        n_f = int(rng.integers(1, n_c + 1))
        tr = stanza_traffic(ALEX, n_conv=n_c, n_fc=n_f, iterations=1,
                            net=NetConfig(bandwidth=c.bandwidth),
                            conv_time=c.conv_time, fc_unit_time=c.fc_unit_time)
        modeled = stanza_iter_time(ALEX_PART, n_c, n_f, c)
        worst = max(worst, abs(modeled - tr.ledger.logical_clock) / modeled)
    for _ in range(20):
        c = PerfConstants(bandwidth=float(rng.uniform(1e9, 4e10)),
                          ps_compute_time=float(rng.uniform(0, 0.01)))
        n_w = int(rng.integers(1, 11))
        n_s = int(rng.integers(1, 11))
        tr = ps_traffic(ALEX, n_workers=n_w, n_servers=n_s, iterations=1,
                        net=NetConfig(bandwidth=c.bandwidth),
                        compute_time=c.ps_compute_time)
        modeled = ps_iter_time(ALEX.params_total, n_w, n_s, c)
        worst = max(worst, abs(modeled - tr.ledger.logical_clock) / modeled)
    verdict("model/simulator consistency", worst <= 1e-9,
            f"40 random draws agree within {worst:.2e} relative")


def test_planner_agrees_with_brute_force():
    """Exhaustive and reference enumerations pick the same split."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(77))
    part = ALEX_PART
    checked = 0
    for _ in range(10):
        c = PerfConstants(bandwidth=float(10 ** rng.uniform(9, 11)),
                          conv_time=float(rng.uniform(0, 0.5)),
                          fc_unit_time=float(rng.uniform(0, 0.01)),
                          ps_compute_time=float(rng.uniform(0, 0.5)))
        for n in range(2, 129):
            picked = assign_nodes(part, n, c)
            ref_c, ref_f, ref_thr = best_split_reference(
                n, ALEX.batch_k, part.boundary_activations, part.conv_params,
                part.fc_params, c.bandwidth, c.conv_time, c.fc_unit_time)
            if (picked.n_conv, picked.n_fc) != (ref_c, ref_f) and \
                    abs(picked.throughput - ref_thr) > 1e-12 * ref_thr:
                verdict("planner correctness", False,
                        f"N={n}: planner ({picked.n_conv},{picked.n_fc}) vs "
                        f"reference ({ref_c},{ref_f})")
            checked += 1
    v100 = v100_class_constants()
    for n in range(2, 12):
        if assign_nodes(part, n, v100).n_fc != 1:
            verdict("planner correctness", False,
                    f"measured-class constants at N={n} want n_fc > 1")
    elapsed = time.perf_counter() - t0
    verdict("planner correctness", elapsed < 5.0,
            f"{checked} budgets match brute force, one FC worker holds "
            f"to N=11, in {elapsed:.1f}s")


def test_scaling_trends_from_benched_constants():
    """Comm-dominated speedup never regresses; fast links restore scaling."""
    tiny = tiny_cnn()
    part = split(tiny)
    total = part.conv_params + part.fc_params
    measured = bench_constants(tiny, reps=3, bandwidth=10e9)
    scaled = comm_bound_constants(measured, total)

    ratios = [speedup(part, n, scaled) for n in range(3, 12)]
    monotone = all(b >= a for a, b in zip(ratios, ratios[1:]))
    if not monotone:
        verdict("scaling trends", False,
                f"speedup regressed along {['%.3f' % r for r in ratios]}")

    fast = dataclasses.replace(scaled, bandwidth=100e9)
    thr_40 = assign_nodes(part, 40, fast).throughput
    thr_80 = assign_nodes(part, 80, fast).throughput
    gain = thr_80 / thr_40
    verdict("scaling trends", gain >= 1.9,
            f"speedup climbs {ratios[0]:.2f} -> {ratios[-1]:.2f} over 3..11 "
            f"nodes, 40 -> 80 nodes gains {gain:.2f}x at 100 Gb/s")


def test_gradients_match_finite_differences():
    """Every layer kind passes central-difference checks on random shapes."""
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(88))
    checked = 0
    for i in range(20):
        kind = i % 6
        batch = int(rng.integers(2, 5))
        if kind == 0:
            layer = FullyConnected(int(rng.integers(3, 13)),
                                   int(rng.integers(2, 9)))
            x = rng.standard_normal((batch, layer.in_dim))
        elif kind == 1:
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            size = int(rng.integers(4, 7))
            layer = Conv2d(c_in, c_out, 3, 1, 1)
            x = rng.standard_normal((2, c_in, size, size))
        elif kind == 2:
            layer = ReLU()
            x = rng.standard_normal((batch, int(rng.integers(4, 20))))
        elif kind == 3:
            layer = MaxPool2d(2, 2)
            size = 2 * int(rng.integers(2, 4))
            x = rng.standard_normal((2, 2, size, size))
        elif kind == 4:
            layer = Flatten()
            x = rng.standard_normal((batch, 2, 3, int(rng.integers(2, 5))))
        else:
            width = int(rng.integers(3, 9))
            layer = SoftmaxCrossEntropy()
            x = rng.standard_normal((batch, width))
        x = np.ascontiguousarray(x, dtype=np.float32)
        labels = (rng.integers(0, x.shape[1], size=batch)
                  if kind == 5 else None)
        params = seeded_init([layer], seed=int(rng.integers(1 << 30)))[0]
        check_grads(layer, params, x, rng, labels=labels, tol=1e-3)
        checked += 1
    elapsed = time.perf_counter() - t0
    verdict("gradient checks", checked == 20 and elapsed < 30.0,
            f"{checked} random shapes across 6 layer kinds in {elapsed:.1f}s")


def test_checkpoint_restore_replays_identically(tmp_path):
    """Save at 10, restore, run to 20: digest equals the uninterrupted run."""
    spec = tiny_cnn()
    outcomes = []
    for protocol, make in (
            ("ps", lambda state=None: PsCluster(
                spec, n_workers=3, n_servers=2,
                batch_fn=make_batch_fn(spec, 7), lr=0.05, momentum=0.9,
                seed=3, state=state)),
            ("stanza", lambda state=None: StanzaCluster(
                spec, n_conv=3, n_fc=1, batch_fn=make_batch_fn(spec, 7),
                lr=0.05, momentum=0.9, seed=3, state=state))):
        straight = make().train(20).state
        first_half = make().train(10).state
        path = tmp_path / f"{protocol}.ckpt"
        save_state(first_half, path)
        resumed = make(load_state(path)).train(10).state
        same = (param_digest(resumed.params) == param_digest(straight.params)
                and resumed.iteration == straight.iteration == 20)
        outcomes.append(same)
        if not same:
            verdict("checkpoint determinism", False,
                    f"{protocol} replay digest diverged")
    verdict("checkpoint determinism", all(outcomes),
            "both protocols replay to identical digests")
