"""Experiment configs, synthetic data, and the run/compare/bench drivers.

An ExperimentConfig names a model, a protocol, and a cluster shape, either
directly in code or parsed from a `key value` text file. `run` executes it
on the simulated network and distills the traffic ledger into a RunReport;
`compare` drives matched parameter-server and layer-separated runs over a
sweep of worker counts and tabulates the Speedup, FC-Data, and Total-Data
ratios; `bench_constants` times the numeric core on an executable model so
the planner can work from measured compute constants.

Metric conventions (the simulator moves shard and activation payloads, so
per-layer traffic has to be attributed, not just read off a counter):

- FC-Data is bytes per worker per iteration devoted to the fully connected
  layers. A parameter-server worker pushes its FC gradients and pulls the
  updated FC parameters inside its shard messages: 2 * fc_params * 4 bytes.
  A CONV worker ships boundary activations out and boundary gradients back
  instead, read off the ledger's activation tags (label sideband messages
  are excluded): 2 * boundary * batch_k * 4 bytes.
- Total-Data is wire bytes (payload plus message headers) summed over all
  nodes for one epoch, where an epoch is epoch_samples // global_batch
  iterations and the remainder samples are dropped.

Reports carry no wall-clock or host-specific fields, so the same config
and seed produce byte-identical report files on every rerun.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import statistics
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpointing import TrainState, param_digest, start_state
from .model_partition import (ConfigError, ModelSpec, NoConvBlock, NoFcLayer,
                              builtin_model, load_model_file, parse_kv_text,
                              split)
from .perf_model import PerfConstants, best_split
from .ps_runtime import PsCluster, check_ps_shape, ps_traffic
from .stanza_runtime import StanzaCluster, check_stanza_shape, stanza_traffic
from .tensor_core import (FullyConnected, OptimizerState, block_backward,
                          block_forward, seeded_init, sgd_step)
from .transport import LedgerInvariant, NetConfig, Tag


class MismatchedConfigs(ConfigError):
    """The two sides of a comparison disagree on a shared knob."""


class NonFinite(ArithmeticError):
    """A loss or parameter stopped being a finite number."""


_MODES = ("ps", "stanza", "single")
_DATA = ("gaussian", "separable")


@dataclass(frozen=True)
class ExperimentConfig:
    """One run, fully specified: what to train, where, and for how long.

    Exactly one of `iterations` or `epochs` must be positive; epochs and
    `separable` data need `epoch_samples` to fix the iteration count and
    the set size. Cluster shape comes either from the explicit counts or
    from `nodes`, which hands the split to the planner using the compute
    constants below. The counts are `workers` and `coordinators`: the
    parameter servers in ps mode, the FC workers in stanza mode. Each reads
    as 1 when unset; single mode takes neither `coordinators` nor `nodes`.
    `boundary` is the layer index to cut at for models with no pooling
    stage in front of the FC stack; it is checked in every mode, and a PS
    run, which needs no cut, uses it only for FC-Data.

    `experiment_config` builds one from layers of field values (a file's
    keys, then flags), so these checks run once, on the merged values.
    """
    mode: str
    model: str
    seed: int
    iterations: int = 0
    epochs: int = 0
    batch_k: int | None = None
    workers: int | None = None
    coordinators: int | None = None
    nodes: int | None = None
    bandwidth: float = 10e9
    latency: float = 0.0
    data: str = "gaussian"
    epoch_samples: int | None = None
    lr: float = 0.05
    momentum: float = 0.9
    boundary: int | None = None
    conv_time: float = 0.0
    fc_unit_time: float = 0.0
    ps_compute_time: float = 0.0
    out_dir: str | None = None
    label: str | None = None

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.data not in _DATA:
            raise ConfigError(f"data must be one of {_DATA}, got {self.data!r}")
        if self.iterations < 0 or self.epochs < 0:
            raise ConfigError("iterations and epochs must be nonnegative")
        if (self.iterations > 0) == (self.epochs > 0):
            raise ConfigError("give exactly one of iterations or epochs")
        counts = (self.workers, self.coordinators)
        if any(n is not None and n < 1 for n in counts):
            raise ConfigError("workers and coordinators must be at least 1")
        if self.nodes is not None and counts != (None, None):
            raise ConfigError("give nodes or explicit counts, not both")
        if self.mode == "single" and (self.nodes is not None
                                      or self.coordinators is not None):
            raise ConfigError("single mode runs on one node; nodes and "
                              "coordinators do not apply")
        if self.epoch_samples is not None and self.epoch_samples < 1:
            raise ConfigError("epoch_samples must be at least 1")
        if self.data == "separable" and self.epoch_samples is None:
            raise ConfigError("separable data needs epoch_samples to size "
                              "the set")
        if self.epochs and self.epoch_samples is None:
            raise ConfigError("epochs need epoch_samples to fix the "
                              "iteration count")
        if not 0 <= self.latency < math.inf:
            raise ConfigError("latency must be nonnegative and finite, got "
                              f"{self.latency}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        OptimizerState(lr=self.lr, momentum=self.momentum)  # checks both
        self.constants()  # PerfConstants checks bandwidth and compute times

    def constants(self) -> PerfConstants:
        return PerfConstants(bandwidth=self.bandwidth,
                             conv_time=self.conv_time,
                             fc_unit_time=self.fc_unit_time,
                             ps_compute_time=self.ps_compute_time)


# field name -> int, float or str (the annotation with any `| None` dropped);
# experiment-file keys and `run` flags are parsed with these
CONFIG_TYPES: dict[str, type] = {
    name: next(t for t in typing.get_args(hint) or (hint,)
               if t is not type(None))
    for name, hint in typing.get_type_hints(ExperimentConfig).items()}


def parse_experiment_text(text: str) -> dict[str, object]:
    """Parse an experiment file, one `key value` pair per line, to its
    values by field name, each typed as its field.

    Keys are the ExperimentConfig field names; `experiment <label>` is an
    accepted alias for `label`. No key may be given twice.
    """
    values: dict[str, object] = {}
    for key, args in parse_kv_text(text):
        if key == "experiment":
            key = "label"
        if key not in CONFIG_TYPES:
            raise ConfigError(f"unknown experiment key {key!r}")
        if key in values:
            raise ConfigError("give 'experiment' or 'label', not both")
        if len(args) != 1:
            raise ConfigError(f"bad {key} line: expected one value, "
                              f"got {args!r}")
        try:
            values[key] = CONFIG_TYPES[key](args[0])
        except ValueError:
            raise ConfigError(f"bad {key} value {args[0]!r}") from None
    return values


def load_experiment_file(path) -> dict[str, object]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_experiment_text(fh.read())


def experiment_config(*layers: dict) -> ExperimentConfig:
    """The config from layers of field values, each laid over the one
    before; mode, model, and seed are required of the merged values."""
    values = {k: v for layer in layers for k, v in layer.items()}
    for required in ("mode", "model", "seed"):
        if required not in values:
            raise ConfigError(f"no {required} given, in a file or by flag")
    return ExperimentConfig(**values)


# -- synthetic data ----------------------------------------------------------

def class_count(spec: ModelSpec) -> int:
    """Output width of the classifier: out_dim of the last FC layer."""
    for layer in reversed(spec.require_layers()):
        if isinstance(layer, FullyConnected):
            return layer.out_dim
    raise NoFcLayer(f"{spec.name} has no FullyConnected layer")


def gaussian_batches(spec: ModelSpec, seed: int):
    """Per-(iteration, worker) unit-normal inputs with uniform labels.

    Each batch comes from its own PCG64 stream keyed on (seed, iteration,
    worker), so any subset of the schedule can be regenerated in isolation
    and no two workers ever see the same samples.
    """
    classes = class_count(spec)
    shape = spec.input_shape
    k = spec.batch_k

    def batch(iteration: int, worker: int):
        rng = np.random.Generator(np.random.PCG64([seed, iteration, worker]))
        x = rng.standard_normal((k, *shape)).astype(np.float32)
        y = rng.integers(0, classes, size=k)
        return x, y

    return batch


def separable_dataset(spec: ModelSpec, n_samples: int, seed: int):
    """A fixed two-class set: unit Gaussians shifted to -1.5 and +1.5.

    The classes are linearly separable on the mean, so any working trainer
    drives the loss down fast; useful for loss-curve sanity checks. Seeded
    off a lane no batch stream uses.
    """
    spec.require_layers()
    rng = np.random.Generator(np.random.PCG64([seed, 1 << 32]))
    x = rng.standard_normal((n_samples, *spec.input_shape)).astype(np.float32)
    y = rng.integers(0, 2, size=n_samples)
    shift = np.where(y == 0, -1.5, 1.5).astype(np.float32)
    x += shift.reshape((-1,) + (1,) * len(spec.input_shape))
    return x, y


def dataset_batches(x: np.ndarray, y: np.ndarray, batch_k: int, workers: int):
    """Round-robin slices of a fixed dataset, wrapping modulo its length."""
    n = len(x)
    if n < 1:
        raise ConfigError("dataset is empty")

    def batch(iteration: int, worker: int):
        base = (iteration * workers + worker) * batch_k
        idx = (base + np.arange(batch_k)) % n
        return x[idx], y[idx]

    return batch


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class RunReport:
    """Everything a finished run is judged on. No wall-clock fields, so the
    same config and seed serialize to identical bytes every time."""
    mode: str
    model: str
    seed: int
    counted: bool
    workers: int
    coordinators: int
    iterations: int
    batch_k: int
    global_batch: int
    bandwidth: float
    logical_clock_seconds: float
    iteration_seconds: tuple[float, ...]
    total_wire_bytes: int
    fc_data_bytes_per_worker_iteration: int | None
    total_data_bytes_per_epoch: int | None
    losses: tuple[float, ...] | None
    final_loss: float | None
    param_digest: str | None

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["iteration", "seconds", "loss"])
        losses = self.losses or ()
        for i, sec in enumerate(self.iteration_seconds):
            loss = repr(losses[i]) if i < len(losses) else ""
            w.writerow([i, repr(sec), loss])
        return out.getvalue()


@dataclass(frozen=True)
class CompareRow:
    workers: int
    speedup: float
    fc_data_ratio: float | None
    total_data_ratio: float | None
    ps_clock_seconds: float
    stanza_clock_seconds: float


@dataclass(frozen=True)
class CompareReport:
    model: str
    batch_k: int
    bandwidth: float
    iterations: int
    rows: tuple[CompareRow, ...]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["workers", "speedup", "fc_data_ratio", "total_data_ratio",
                    "ps_clock_seconds", "stanza_clock_seconds"])
        for r in self.rows:
            w.writerow([r.workers, repr(r.speedup),
                        "" if r.fc_data_ratio is None else repr(r.fc_data_ratio),
                        "" if r.total_data_ratio is None else repr(r.total_data_ratio),
                        repr(r.ps_clock_seconds), repr(r.stanza_clock_seconds)])
        return out.getvalue()

    def to_dat(self) -> str:
        """gnuplot-friendly table: space separated, one comment header."""
        lines = ["# workers speedup fc_data_ratio total_data_ratio"]
        for r in self.rows:
            fc = "nan" if r.fc_data_ratio is None else repr(r.fc_data_ratio)
            total = ("nan" if r.total_data_ratio is None
                     else repr(r.total_data_ratio))
            lines.append(f"{r.workers} {r.speedup!r} {fc} {total}")
        return "\n".join(lines) + "\n"


# -- resolution helpers ------------------------------------------------------

def resolve_model(name: str, batch_k: int | None = None,
                  boundary: int | None = None) -> ModelSpec:
    """Load a model by builtin name or file path, with optional batch_k."""
    path = Path(name)
    if path.suffix == ".model" or path.exists():
        spec = load_model_file(path)
    else:
        spec = builtin_model(name)
    if batch_k is not None:
        spec = dataclasses.replace(spec, batch_k=batch_k)
    if boundary is not None:
        split(spec, boundary)  # a given cut is checked in every mode
    return spec


def _try_fc_params(spec: ModelSpec, boundary: int | None) -> int | None:
    """FC params at the cut; None if the model has no cut and no boundary."""
    try:
        return split(spec, boundary).fc_params
    except (NoConvBlock, NoFcLayer):
        return None


def _split_counts(config: ExperimentConfig, spec: ModelSpec) -> tuple[int, int]:
    """(workers, coordinators) for the configured mode, planning if asked."""
    if config.nodes is not None:
        workers, coordinators, _ = best_split(spec, config.mode, config.nodes,
                                              config.constants(),
                                              boundary=config.boundary)
        return workers, coordinators
    workers = config.workers if config.workers is not None else 1
    if config.mode == "single":
        return workers, 0
    return workers, config.coordinators or 1


def _iteration_count(config: ExperimentConfig, global_batch: int) -> int:
    if config.iterations:
        return config.iterations
    return config.epochs * _iterations_per_epoch(config.epoch_samples,
                                                 global_batch)


def _iterations_per_epoch(epoch_samples: int, global_batch: int) -> int:
    per = epoch_samples // global_batch
    if per < 1:
        raise ConfigError(f"epoch_samples={epoch_samples} is smaller than "
                          f"the global batch {global_batch}")
    return per


def _resolve_run(config: ExperimentConfig
                 ) -> tuple[ModelSpec, int, int, int]:
    """The run's model, (workers, coordinators) and iteration count, with
    every check a run makes of its model and cluster shape done, so that a
    configuration error raises before any training starts."""
    spec = resolve_model(config.model, config.batch_k, config.boundary)
    workers, coordinators = _split_counts(config, spec)
    if config.mode == "ps":
        check_ps_shape(workers, coordinators)
    elif config.mode == "stanza":
        split(spec, config.boundary)  # layer separation needs a cut
        check_stanza_shape(workers, coordinators)
    iterations = _iteration_count(config, workers * spec.batch_k)
    return spec, workers, coordinators, iterations


def _batch_source(config: ExperimentConfig, spec: ModelSpec, workers: int):
    if config.data == "gaussian":
        return gaussian_batches(spec, config.seed)
    x, y = separable_dataset(spec, config.epoch_samples, config.seed)
    return dataset_batches(x, y, spec.batch_k, workers)


def _check_finite(losses, state: TrainState | None) -> None:
    if losses is not None and not np.all(np.isfinite(losses)):
        raise NonFinite("loss diverged (nan or inf)")
    if state is not None:
        for layer in state.params:
            for tensor in layer:
                if not np.isfinite(tensor).all():
                    raise NonFinite("parameters diverged (nan or inf)")


def _iteration_seconds(ledger, iterations: int) -> tuple[float, ...]:
    phases = ledger.phases
    if iterations < 1 or len(phases) % iterations:
        raise LedgerInvariant(f"{len(phases)} phases do not divide into "
                              f"{iterations} iterations")
    per = len(phases) // iterations
    return tuple(math.fsum(p.elapsed for p in phases[i * per:(i + 1) * per])
                 for i in range(iterations))


def _exact_div(numerator: int, denominator: int, what: str) -> int:
    if denominator < 1 or numerator % denominator:
        raise LedgerInvariant(f"{what}: {numerator} not divisible by "
                              f"{denominator}")
    return numerator // denominator


def _fc_data_bytes(config, spec, ledger, workers: int, iterations: int):
    """Per-worker per-iteration FC-layer traffic under the documented rule."""
    if config.mode == "stanza":
        payload = (ledger.tag_payload_bytes[Tag.ACTIVATIONS]
                   + ledger.tag_payload_bytes[Tag.BOUNDARY_GRADS])
        return _exact_div(payload, workers * iterations, "activation bytes")
    fc_params = _try_fc_params(spec, config.boundary)
    if fc_params is None:
        return None
    return 2 * fc_params * 4


def _total_data_per_epoch(config, ledger, global_batch: int, iterations: int):
    if config.epoch_samples is None:
        return None
    per_iteration = _exact_div(ledger.total_sent, iterations, "wire bytes")
    return per_iteration * _iterations_per_epoch(config.epoch_samples,
                                                 global_batch)


# -- drivers -----------------------------------------------------------------

def _train_single(spec: ModelSpec, workers: int, iterations: int, batch_fn,
                  lr: float, momentum: float, seed: int):
    """Train on one node with the same math the clusters distribute.

    The global batch is the concatenation of every worker's slice, losses
    are per-sample means, and updates use the same summed-gradient step, so
    distributed runs can be checked against this to small float tolerances.
    """
    layers = spec.require_layers()
    start = start_state(layers, seed, None)
    params = start.params
    opt = OptimizerState(lr=lr, momentum=momentum, velocity=start.velocities)
    n = workers * spec.batch_k
    losses = []
    for it in range(iterations):
        slices = [batch_fn(it, w) for w in range(workers)]
        x = np.concatenate([s[0] for s in slices])
        y = np.concatenate([s[1] for s in slices])
        out, caches = block_forward(layers, params, x, labels=y)
        losses.append(float(out.sum()) / n)
        _, grads = block_backward(layers, params, caches, None)
        sgd_step(params, grads, n, opt)
    state = TrainState(iteration=iterations, params=params,
                       velocities=opt.velocity)
    return losses, state


def execute(config: ExperimentConfig):
    """Run one experiment. Returns (RunReport, final TrainState or None)."""
    spec, workers, coordinators, iterations = _resolve_run(config)
    global_batch = workers * spec.batch_k
    net = NetConfig(bandwidth=config.bandwidth,
                    per_message_latency=config.latency)

    state = None
    losses = None
    transport = None
    counted = spec.is_profile and config.mode != "single"

    if config.mode == "single":
        batch_fn = _batch_source(config, spec, workers)
        losses, state = _train_single(spec, workers, iterations, batch_fn,
                                      config.lr, config.momentum, config.seed)
    elif counted:
        if config.mode == "ps":
            transport = ps_traffic(spec, n_workers=workers,
                                   n_servers=coordinators,
                                   iterations=iterations, net=net,
                                   compute_time=config.ps_compute_time)
        else:
            transport = stanza_traffic(spec, n_conv=workers,
                                       n_fc=coordinators,
                                       iterations=iterations, net=net,
                                       conv_time=config.conv_time,
                                       fc_unit_time=config.fc_unit_time,
                                       boundary=config.boundary)
    else:
        batch_fn = _batch_source(config, spec, workers)
        if config.mode == "ps":
            cluster = PsCluster(spec, n_workers=workers,
                                n_servers=coordinators, batch_fn=batch_fn,
                                lr=config.lr, momentum=config.momentum,
                                compute_time=config.ps_compute_time,
                                net=net, seed=config.seed)
        else:
            cluster = StanzaCluster(spec, n_conv=workers, n_fc=coordinators,
                                    batch_fn=batch_fn, lr=config.lr,
                                    momentum=config.momentum,
                                    conv_time=config.conv_time,
                                    fc_unit_time=config.fc_unit_time,
                                    net=net, seed=config.seed,
                                    boundary=config.boundary)
        result = cluster.train(iterations)
        losses, state, transport = result.losses, result.state, result.transport

    _check_finite(losses, state)

    if transport is not None:
        ledger = transport.ledger
        ledger.assert_conserved()
        clock = ledger.logical_clock
        per_iteration = _iteration_seconds(ledger, iterations)
        wire = ledger.total_sent
        fc_bytes = _fc_data_bytes(config, spec, ledger, workers, iterations)
        per_epoch = _total_data_per_epoch(config, ledger, global_batch,
                                          iterations)
    else:
        clock = 0.0
        per_iteration = (0.0,) * iterations
        wire = 0
        fc_bytes = 0
        per_epoch = 0 if config.epoch_samples is not None else None

    report = RunReport(
        mode=config.mode,
        model=spec.name,
        seed=config.seed,
        counted=counted,
        workers=workers,
        coordinators=coordinators,
        iterations=iterations,
        batch_k=spec.batch_k,
        global_batch=global_batch,
        bandwidth=config.bandwidth,
        logical_clock_seconds=clock,
        iteration_seconds=per_iteration,
        total_wire_bytes=wire,
        fc_data_bytes_per_worker_iteration=fc_bytes,
        total_data_bytes_per_epoch=per_epoch,
        losses=None if losses is None else tuple(losses),
        final_loss=None if not losses else losses[-1],
        param_digest=None if state is None else param_digest(state.params),
    )
    return report, state


def _report_stem(config: ExperimentConfig, spec_name: str) -> str:
    return config.label or f"{spec_name}_{config.mode}"


def write_report_files(report: RunReport, out_dir, stem: str) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(report.to_json(), encoding="utf-8")
    csv_path.write_text(report.to_csv(), encoding="utf-8")
    return [json_path, csv_path]


def run(config: ExperimentConfig) -> RunReport:
    """Execute one experiment and, when out_dir is set, write its reports."""
    report, _ = execute(config)
    if config.out_dir is not None:
        write_report_files(report, config.out_dir,
                           _report_stem(config, report.model))
    return report


# ExperimentConfig fields both protocols' configs must share; the compare
# command takes these as flags, and coordinators, which may differ in files
COMPARE_FIELDS = ("model", "seed", "iterations", "epochs", "batch_k",
                  "bandwidth", "latency", "epoch_samples", "boundary", "data")


def compare(ps_config: ExperimentConfig, stanza_config: ExperimentConfig,
            worker_counts=None, out_dir=None, stem: str = "compare"
            ) -> CompareReport:
    """Drive both protocols over a worker sweep and tabulate the ratios.

    Speedup is the exact ratio of the two runs' logical-clock totals; the
    byte ratios follow the module counting rules. Both configs must agree
    on every COMPARE_FIELDS knob and each pair of runs must land on the same
    total node count, so the comparison never mixes budgets.
    """
    if ps_config.mode != "ps":
        raise MismatchedConfigs(f"first config has mode {ps_config.mode!r}, "
                                "expected 'ps'")
    if stanza_config.mode != "stanza":
        raise MismatchedConfigs("second config has mode "
                                f"{stanza_config.mode!r}, expected 'stanza'")
    for knob in COMPARE_FIELDS:
        a, b = getattr(ps_config, knob), getattr(stanza_config, knob)
        if a != b:
            raise MismatchedConfigs(f"{knob} differs: {a!r} vs {b!r}")
    if worker_counts is None:
        pairs = [(ps_config, stanza_config)]
    else:
        pairs = [(dataclasses.replace(ps_config, workers=n),
                  dataclasses.replace(stanza_config, workers=n))
                 for n in worker_counts]
    # every pair is checked before the first one trains
    for cfg_ps, cfg_st in pairs:
        _, workers_ps, servers, _ = _resolve_run(cfg_ps)
        _, workers_st, fc_workers, _ = _resolve_run(cfg_st)
        nodes_ps, nodes_st = workers_ps + servers, workers_st + fc_workers
        if nodes_ps != nodes_st:
            raise MismatchedConfigs(f"node budgets differ: {nodes_ps} for ps "
                                    f"vs {nodes_st} for stanza")

    rows = []
    model = batch_k = iterations = None
    for cfg_ps, cfg_st in pairs:
        rep_ps, _ = execute(cfg_ps)
        rep_st, _ = execute(cfg_st)
        speedup = rep_ps.logical_clock_seconds / rep_st.logical_clock_seconds
        if (rep_ps.fc_data_bytes_per_worker_iteration is None
                or not rep_st.fc_data_bytes_per_worker_iteration):
            fc_ratio = None
        else:
            fc_ratio = (rep_ps.fc_data_bytes_per_worker_iteration
                        / rep_st.fc_data_bytes_per_worker_iteration)
        if (rep_ps.total_data_bytes_per_epoch is not None
                and rep_st.total_data_bytes_per_epoch):
            total_ratio = (rep_ps.total_data_bytes_per_epoch
                           / rep_st.total_data_bytes_per_epoch)
        elif rep_st.total_wire_bytes:
            total_ratio = rep_ps.total_wire_bytes / rep_st.total_wire_bytes
        else:
            total_ratio = None
        rows.append(CompareRow(workers=rep_ps.workers, speedup=speedup,
                               fc_data_ratio=fc_ratio,
                               total_data_ratio=total_ratio,
                               ps_clock_seconds=rep_ps.logical_clock_seconds,
                               stanza_clock_seconds=rep_st.logical_clock_seconds))
        model, batch_k, iterations = rep_ps.model, rep_ps.batch_k, rep_ps.iterations

    report = CompareReport(model=model, batch_k=batch_k,
                           bandwidth=ps_config.bandwidth,
                           iterations=iterations, rows=tuple(rows))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{stem}.json").write_text(report.to_json(), encoding="utf-8")
        (out / f"{stem}.csv").write_text(report.to_csv(), encoding="utf-8")
        (out / f"{stem}.dat").write_text(report.to_dat(), encoding="utf-8")
    return report


# -- constant measurement ----------------------------------------------------

def bench_constants(spec: ModelSpec, *, reps: int = 5, bandwidth: float = 10e9,
                    boundary: int | None = None, seed: int = 0
                    ) -> PerfConstants:
    """Measure the three compute constants on an executable model.

    Times forward+backward over `reps` repetitions and keeps the median:
    the CONV block on one worker batch, the FC block on that batch's
    boundary activations, and the full model (the parameter-server worker's
    job). The full-model time is floored at the CONV time, since the full
    model contains the CONV block and timer jitter on small models can
    briefly say otherwise. Every input is checked before anything is timed.
    """
    if reps < 1:
        raise ConfigError("reps must be at least 1")
    measured = PerfConstants(bandwidth=bandwidth)
    part = split(spec, boundary)
    layers = spec.require_layers()
    cut = part.split_index
    params = seeded_init(layers, seed)
    x, y = gaussian_batches(spec, seed)(0, 0)
    conv_layers, conv_params = layers[:cut], params[:cut]
    fc_layers, fc_params = layers[cut:], params[cut:]

    acts, _ = block_forward(conv_layers, conv_params, x)
    gy = np.ones_like(acts)
    block_forward(layers, params, x, labels=y)

    conv_times, fc_times, full_times = [], [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        _, caches = block_forward(conv_layers, conv_params, x)
        block_backward(conv_layers, conv_params, caches, gy)
        conv_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        _, caches = block_forward(fc_layers, fc_params, acts, labels=y)
        block_backward(fc_layers, fc_params, caches, None)
        fc_times.append(time.perf_counter() - t0)

        t0 = time.perf_counter()
        _, caches = block_forward(layers, params, x, labels=y)
        block_backward(layers, params, caches, None)
        full_times.append(time.perf_counter() - t0)

    conv_time = statistics.median(conv_times)
    return dataclasses.replace(
        measured, conv_time=conv_time,
        fc_unit_time=statistics.median(fc_times),
        ps_compute_time=max(statistics.median(full_times), conv_time))
