"""The benchmark's workloads, each a single-client closed loop.

A workload is set up once and then run as repeated passes. `prepare`
resolves the model and builds the pass's clusters from the workload seed;
the returned pass trains or counts a fixed schedule one operation at a
time, each starting only after the previous one returned, and then checks
its outputs. Every pass of a run replays the same inputs, so their ledger
counts and output digests must agree exactly.

An operation, for error accounting, is one training run of a pass (one
protocol or the single-node oracle) or one CLI command. It fails if it
raises or fails a check.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from stanza import checkpointing, cli, harness, tensor_core
# Bound at import, before any tracing patch, so that the checks' own calls
# never show up in the traced layers. The checkpoint cycle of numeric_wide
# goes through the module attributes on purpose: it is workload, not check.
from stanza.checkpointing import param_digest
from stanza.model_partition import mlp_split, split
from stanza.perf_model import PerfConstants, ps_iter_time, stanza_iter_time
from stanza.ps_runtime import PsCluster
from stanza.stanza_runtime import StanzaCluster

LR, MOMENTUM = 0.05, 0.9    # the ExperimentConfig defaults
PARAM_TOL = 1e-5            # guarantee 2: protocol vs one-node step, max abs
CLOCK_TOL = 1e-9            # guarantees 3 and 5: clock vs closed form, relative


@dataclass
class PassResult:
    ops: list[str]
    failed: dict[str, str] = field(default_factory=dict)
    iter_s: list[float] = field(default_factory=list)
    samples: int = 0
    # (messages, wire bytes, phases, logical clock seconds) summed over runs
    ledger: tuple = ()
    digest: str = ""
    # final max-abs distance of the protocols from the independent oracle
    oracle_dev: float | None = None

    def check(self, ok: bool, op: str, reason: str) -> None:
        if not ok:
            self.failed.setdefault(op, reason)


def ledger_counts(transports) -> tuple:
    messages = wire = phases = 0
    clock = 0.0
    for tr in transports:
        ledger = tr.ledger
        messages += len(ledger.messages)
        wire += ledger.total_sent
        phases += len(ledger.phases)
        clock += ledger.logical_clock
    return (messages, wire, phases, clock)


def max_abs_dev(a, b) -> float:
    return max(float(np.max(np.abs(x.astype(np.float64) - y)))
               for la, lb in zip(a, b) for x, y in zip(la, lb))


def digest_of(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def pooled_quantiles(results) -> tuple[float, float, int]:
    samples = [s for r in results for s in r.iter_s]
    return (statistics.median(samples),
            statistics.quantiles(samples, n=10)[8], len(samples))


@dataclass
class _Losses:
    losses: list[float]


class SingleNode:
    """One-node oracle with the clusters' train(n) interface.

    Same math as the harness's single mode: the global batch is every
    worker's slice concatenated, and one summed-gradient momentum step.
    Starts from seeded_init, or from `state` when given.
    """

    def __init__(self, spec, *, workers: int, batch_fn, lr: float,
                 momentum: float, seed: int, state=None):
        self.layers = spec.require_layers()
        self.workers = workers
        self.batch_fn = batch_fn
        self.n = workers * spec.batch_k
        if state is None:
            self.params = tensor_core.seeded_init(self.layers, seed)
            self.opt = tensor_core.OptimizerState.for_params(self.params, lr,
                                                             momentum)
            self.iteration = 0
        else:
            state = state.copy()
            self.params = state.params
            self.opt = tensor_core.OptimizerState(
                lr=lr, momentum=momentum, velocity=state.velocities)
            self.iteration = state.iteration

    def train(self, iterations: int) -> _Losses:
        losses = []
        for _ in range(iterations):
            slices = [self.batch_fn(self.iteration, w)
                      for w in range(self.workers)]
            x = np.concatenate([s[0] for s in slices])
            y = np.concatenate([s[1] for s in slices])
            out, caches = tensor_core.block_forward(self.layers, self.params,
                                                    x, labels=y)
            losses.append(float(out.sum()) / self.n)
            _, grads = tensor_core.block_backward(self.layers, self.params,
                                                  caches, None)
            tensor_core.sgd_step(self.params, grads, self.n, self.opt)
            self.iteration += 1
        return _Losses(losses)


def _train_in_turn(runs: dict, iterations: int, res: PassResult,
                   losses: dict) -> None:
    for _ in range(iterations):
        for name, run in runs.items():
            t = time.perf_counter()
            out = run.train(1)
            res.iter_s.append(time.perf_counter() - t)
            losses.setdefault(name, []).extend(out.losses)


def _check_finite(res: PassResult, losses: dict) -> None:
    for name, values in losses.items():
        res.check(bool(np.all(np.isfinite(values))), name,
                  "non-finite loss")


def _train_checked(runs: dict, protocols, iterations: int, res: PassResult,
                   losses: dict, oracle_kw: dict) -> None:
    """Train every run in turn; check each protocol's last iteration.

    The check replays that iteration on one node from the protocol's own
    state before it. Final parameters are not gated against the
    independent oracle: float32 rounding differs between the per-worker and
    the global batch, and once a ReLU or max-pool decision flips on a near
    tie the runs drift apart (tiny_cnn at batch_k 16, seed 8: 1e-3 after 30
    iterations while the two protocols agree to 2e-8). That distance is
    recorded in `oracle_dev` instead.
    """
    _train_in_turn(runs, iterations - 1, res, losses)
    before = {name: runs[name].state() for name in protocols}
    _train_in_turn(runs, 1, res, losses)
    for name in protocols:
        step = SingleNode(state=before[name], **oracle_kw)
        step.train(1)
        dev = max_abs_dev(runs[name].state().params, step.params)
        res.check(dev <= PARAM_TOL, name,
                  f"last iteration {dev:.3e} max-abs from a one-node step")
    res.oracle_dev = max(max_abs_dev(runs[name].state().params,
                                     runs["single"].params)
                         for name in protocols)


class NumericConv:
    """tiny_cnn at batch_k 16, 4 workers: stanza 4+1, PS 4+1, single node."""
    name = "numeric_conv"
    iterations = 30
    workers = 4
    quantiles = staticmethod(pooled_quantiles)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def prepare(self, tracer=None):
        spec = harness.resolve_model("tiny_cnn", 16)
        batch_fn = harness.gaussian_batches(spec, self.seed)
        if tracer is not None:
            batch_fn = tracer.wrap_batch_fn(batch_fn)
        kw = dict(batch_fn=batch_fn, lr=LR, momentum=MOMENTUM, seed=self.seed)
        runs = {
            "stanza": StanzaCluster(spec, n_conv=self.workers, n_fc=1, **kw),
            "ps": PsCluster(spec, n_workers=self.workers, n_servers=1, **kw),
            "single": SingleNode(spec, workers=self.workers, **kw),
        }
        return functools.partial(self._run, spec, runs,
                                 dict(spec=spec, workers=self.workers, **kw))

    def _run(self, spec, runs, oracle_kw) -> PassResult:
        res = PassResult(ops=list(runs))
        losses: dict = {}
        _train_checked(runs, ("stanza", "ps"), self.iterations, res, losses,
                       oracle_kw)
        res.samples = len(res.iter_s) * self.workers * spec.batch_k
        _check_finite(res, losses)
        res.ledger = ledger_counts([runs["stanza"].transport,
                                    runs["ps"].transport])
        res.digest = digest_of(param_digest(runs["stanza"].state().params),
                               param_digest(runs["ps"].state().params),
                               param_digest(runs["single"].params))
        return res


class NumericWide:
    """tiny_mlp cut at layer 4, batch_k 4: stanza 13+3 and PS 13+3, each
    checkpointed, saved, loaded and resumed half way, next to a one-node
    oracle. Neither group size is a power of two."""
    name = "numeric_wide"
    iterations = 40
    resume_at = 20
    workers = 13
    coordinators = 3
    boundary = 4
    quantiles = staticmethod(pooled_quantiles)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self, tracer=None):
        spec = harness.resolve_model("tiny_mlp", 4)
        batch_fn = harness.gaussian_batches(spec, self.seed)
        if tracer is not None:
            batch_fn = tracer.wrap_batch_fn(batch_fn)
        kw = dict(batch_fn=batch_fn, lr=LR, momentum=MOMENTUM, seed=self.seed)
        makers = {
            "stanza": lambda state=None: StanzaCluster(
                spec, n_conv=self.workers, n_fc=self.coordinators,
                boundary=self.boundary, state=state, **kw),
            "ps": lambda state=None: PsCluster(
                spec, n_workers=self.workers, n_servers=self.coordinators,
                state=state, **kw),
        }
        runs = {name: make() for name, make in makers.items()}
        runs["single"] = SingleNode(spec, workers=self.workers, **kw)
        return functools.partial(self._run, spec, makers, runs,
                                 dict(spec=spec, workers=self.workers, **kw))

    def _resume(self, name: str, cluster, make, res: PassResult):
        """One checkpoint cycle: snapshot, save, load, build a fresh cluster."""
        state = (cluster.checkpoint() if isinstance(cluster, StanzaCluster)
                 else cluster.state())
        path = self.workdir / f"{name}.ckpt"
        checkpointing.save_state(state, path)
        try:
            loaded = checkpointing.load_state(path)
        finally:
            path.unlink()
        same = (loaded.iteration == state.iteration
                and checkpointing.param_digest(loaded.params)
                == checkpointing.param_digest(state.params))
        res.check(same, f"{name}_resumed", "loaded snapshot differs from saved")
        return make(loaded)

    def _run(self, spec, makers, runs, oracle_kw) -> PassResult:
        resumed = [f"{name}_resumed" for name in makers]
        res = PassResult(ops=list(runs) + resumed)
        losses: dict = {}
        _train_in_turn(runs, self.resume_at, res, losses)
        for name, make in makers.items():
            runs[f"{name}_resumed"] = self._resume(name, runs[name], make, res)
        _train_checked(runs, list(makers), self.iterations - self.resume_at,
                       res, losses, oracle_kw)
        res.samples = len(res.iter_s) * self.workers * spec.batch_k
        _check_finite(res, losses)
        for name in makers:
            straight = runs[name].state()
            again = runs[f"{name}_resumed"].state()
            res.check(again.iteration == straight.iteration
                      and checkpointing.param_digest(again.params)
                      == checkpointing.param_digest(straight.params),
                      f"{name}_resumed",
                      "resumed digest differs from the uninterrupted run")
        res.ledger = ledger_counts([runs[n].transport for n in runs
                                    if n != "single"])
        res.digest = digest_of(*(param_digest(runs[n].state().params)
                                 for n in makers),
                               param_digest(runs["single"].params))
        return res


def _per_pass_quantiles(results) -> tuple[float, float, int]:
    """Median over passes of each pass's p50 and p90.

    The counted runs of one pass span 4 to 127 workers, so the pooled
    distribution is a mixture whose middle falls between run sizes; each
    pass holds the same mixture, so per-pass quantiles are stable.
    """
    p50 = statistics.median(statistics.median(r.iter_s) for r in results)
    p90 = statistics.median(statistics.quantiles(r.iter_s, n=10)[8]
                            for r in results)
    return p50, p90, sum(len(r.iter_s) for r in results)


_PLAN_LINE = re.compile(r"on (\d+) nodes: (\d+) \D+ \+ (\d+) ")


class CountedSweep:
    """The README's counted commands, driven in-process through cli.main."""
    name = "counted_sweep"
    quantiles = staticmethod(_per_pass_quantiles)
    alexnet_workers = ("4", "16", "64", "127")
    vgg_workers = ("4", "16", "64")
    nodes = "128"

    def __init__(self, seed: int, workdir: Path):
        seed_arg = ["--seed", str(seed)]
        self.commands = {
            "compare_alexnet": ["compare", "--model", "alexnet", *seed_arg,
                                "--iterations", "1", "--epoch-samples",
                                "65536", "--workers", *self.alexnet_workers],
            "compare_vgg16": ["compare", "--model", "vgg16", *seed_arg,
                              "--iterations", "1", "--workers",
                              *self.vgg_workers],
            "plan_stanza": ["plan", "--model", "alexnet", "--nodes",
                            self.nodes, "--mode", "stanza"],
            "plan_ps": ["plan", "--model", "alexnet", "--nodes", self.nodes,
                        "--mode", "ps"],
        }
        self.runs: list[tuple] = []
        self.reports: list = []
        self._observe()

    def _observe(self) -> None:
        """Capture each counted run's transport and host time, and each
        compare report, as the CLI produces them. Installed for the whole
        run, traced or not, so both kinds of pass pay the same."""
        for name in ("ps_traffic", "stanza_traffic"):
            original = getattr(harness, name)
            signature = inspect.signature(original)

            def observed(*args, _fn=original, _sig=signature, _name=name,
                         **kwargs):
                t = time.perf_counter()
                tr = _fn(*args, **kwargs)
                dt = time.perf_counter() - t
                bound = _sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.runs.append((_name, bound.arguments, tr, dt))
                return tr
            observed.__wrapped__ = original
            setattr(harness, name, observed)
        compare = cli.compare

        def observed_compare(*args, **kwargs):
            report = compare(*args, **kwargs)
            self.reports.append(report)
            return report
        observed_compare.__wrapped__ = compare
        cli.compare = observed_compare

    def prepare(self, tracer=None):
        return self._run

    def _check_run(self, res: PassResult, op: str, name: str, a, tr) -> None:
        try:
            tr.ledger.assert_conserved()
        except AssertionError as exc:
            res.check(False, op, f"{name}: {exc}")
        net = a["net"]
        if name == "ps_traffic":
            c = PerfConstants(bandwidth=net.bandwidth,
                              ps_compute_time=a["compute_time"])
            per_iteration = ps_iter_time(a["spec"].params_total,
                                         a["n_workers"], a["n_servers"], c)
        else:
            c = PerfConstants(bandwidth=net.bandwidth,
                              conv_time=a["conv_time"],
                              fc_unit_time=a["fc_unit_time"])
            part = (split(a["spec"]) if a["boundary"] is None
                    else mlp_split(a["spec"], a["boundary"]))
            per_iteration = stanza_iter_time(part, a["n_conv"], a["n_fc"], c)
        expected = per_iteration * a["iterations"]
        clock = tr.ledger.logical_clock
        res.check(abs(clock - expected) <= CLOCK_TOL * expected, op,
                  f"{name} clock {clock!r} != closed form {expected!r}")

    def _run(self) -> PassResult:
        res = PassResult(ops=list(self.commands))
        transports, outputs = [], []
        for op, argv in self.commands.items():
            self.runs.clear()
            self.reports.clear()
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            res.check(code == 0, op, f"exit code {code}")
            outputs.append(out.getvalue())
            for name, a, tr, dt in self.runs:
                self._check_run(res, op, name, a, tr)
                workers = a["n_workers"] if name == "ps_traffic" else a["n_conv"]
                res.samples += a["iterations"] * workers * a["spec"].batch_k
                res.iter_s.append(dt)
                transports.append(tr)
            if op.startswith("compare"):
                workers = (self.alexnet_workers if op == "compare_alexnet"
                           else self.vgg_workers)
                res.check(len(self.runs) == 2 * len(workers)
                          and len(self.reports) == 1, op,
                          f"{len(self.runs)} counted runs, "
                          f"{len(self.reports)} reports")
            if op == "compare_alexnet" and self.reports:
                rows = self.reports[0].rows
                res.check(all(r.total_data_ratio >= 4.0
                              and r.fc_data_ratio >= 40.0 for r in rows), op,
                          "Total-Data ratio under 4x or FC-Data under 40x")
            if op.startswith("plan"):
                m = _PLAN_LINE.search(out.getvalue())
                res.check(m is not None and m.group(1) == self.nodes
                          and int(m.group(2)) + int(m.group(3))
                          == int(self.nodes), op,
                          f"unexpected plan output {out.getvalue()!r}")
        res.ledger = ledger_counts(transports)
        res.digest = digest_of(*outputs)
        return res


WORKLOADS = {w.name: w for w in (NumericConv, NumericWide, CountedSweep)}
