"""Closed-form iteration-time models and the node-assignment planner.

The formulas mirror the simulator's phase accounting exactly: a phase
costs its busiest node's transfer time at 4 bytes per tensor element,
directions are metered independently, and message latency is zero.
end_phase charges the exchange phase its busiest node's load over all
rounds, window(n) payloads, not round_count(n): dependent rounds may
overlap, though no code pipelines a surplus group's pre-send and return
into the doubling rounds. ROADMAP.md item 7 tracks a round-true clock.

With those conventions the model equals the simulator's clock to
floating-point rounding at zero message latency for every parameter-server
run, counted or numeric, profile or executable, since every PS run shards
the flat parameter vector into the same equal contiguous ranges. For layer
separation it equals every counted run; numeric runs also ship each CONV
batch's labels as a sideband the model leaves out. The forms reduce to the
familiar 2*n_w*P/(n_s*B) + T for the parameter server, and to
T_c + (n_c/n_f)*T_f plus activation and exchange terms for layer
separation, whenever shards and groups divide evenly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model_partition import (ConfigError, ModelSpec, Partition,
                              parse_kv_text, split)
from .ps_runtime import check_ps_shape
from .stanza_runtime import check_stanza_shape


class Infeasible(ValueError):
    """No node assignment satisfies the constraints."""


BITS_PER_ELEMENT = 32


@dataclass(frozen=True)
class PerfConstants:
    """Measured per-iteration compute times and the link bandwidth.

    conv_time: CONV worker forward+backward per iteration (T_c).
    fc_unit_time: FC-block forward+backward per served CONV batch (T_f).
    ps_compute_time: full-model worker compute per iteration (T_ps).
    bandwidth: per-node per-direction link speed in bits/s.
    """
    bandwidth: float = 10e9
    conv_time: float = 0.0
    fc_unit_time: float = 0.0
    ps_compute_time: float = 0.0

    def __post_init__(self):
        if not 0 < self.bandwidth < math.inf:
            raise ConfigError("bandwidth must be positive and finite, got "
                              f"{self.bandwidth}")
        for name in ("conv_time", "fc_unit_time", "ps_compute_time"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be nonnegative and finite")


def v100_class_constants(bandwidth: float = 10e9) -> PerfConstants:
    """Ballpark per-iteration times for a V100-class GPU on a large CNN.

    The FC stack is arithmetic-light for its size, so its per-batch time is
    hundreds of times smaller than the full-model or CONV-block time.
    """
    return PerfConstants(bandwidth=bandwidth, conv_time=0.43,
                         fc_unit_time=0.001, ps_compute_time=0.43)


def window(n: int) -> int:
    """Busiest-node payload multiple of an n-member allreduce."""
    if n < 1:
        raise ValueError(f"group size must be positive, got {n}")
    if n == 1:
        return 0
    m = n.bit_length() - 1
    return m if n == (1 << m) else m + 1


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def stanza_iter_time(part: Partition, n_conv: int, n_fc: int,
                     c: PerfConstants) -> float:
    """Modeled seconds per layer-separated iteration.

    compute + activations out + boundary gradients back + the slower of the
    two concurrent gradient allreduces. g = ceil(n_conv/n_fc) is the largest
    number of CONV batches any FC worker serves.
    """
    check_stanza_shape(n_conv, n_fc)
    g = _ceil_div(n_conv, n_fc)
    ak_bits = part.boundary_activations * part.spec.batch_k * BITS_PER_ELEMENT
    transfer = 2 * g * ak_bits
    exchange = max(window(n_conv) * part.conv_params,
                   window(n_fc) * part.fc_params) * BITS_PER_ELEMENT
    return (c.conv_time + g * c.fc_unit_time
            + (transfer + exchange) / c.bandwidth)


def stanza_throughput(part: Partition, n_conv: int, n_fc: int,
                      c: PerfConstants) -> float:
    """Samples per second: n_conv local batches per iteration."""
    return (n_conv * part.spec.batch_k
            / stanza_iter_time(part, n_conv, n_fc, c))


def ps_iter_time(params_total: int, n_workers: int, n_servers: int,
                 c: PerfConstants) -> float:
    """Modeled seconds per parameter-server iteration with equal shards.

    Push and pull each cost the busier of one full gradient set leaving a
    worker and n_workers shards crossing the busiest server's link.
    """
    check_ps_shape(n_workers, n_servers)
    shard = _ceil_div(params_total, n_servers)
    window_bits = max(params_total, n_workers * shard) * BITS_PER_ELEMENT
    return 2 * window_bits / c.bandwidth + c.ps_compute_time


def ps_throughput(params_total: int, batch_k: int, n_workers: int,
                  n_servers: int, c: PerfConstants) -> float:
    return (n_workers * batch_k
            / ps_iter_time(params_total, n_workers, n_servers, c))


@dataclass(frozen=True)
class Assignment:
    n_conv: int
    n_fc: int
    throughput: float


@dataclass(frozen=True)
class PsAssignment:
    n_workers: int
    n_servers: int
    throughput: float


def assign_nodes(part: Partition, total_nodes: int, c: PerfConstants,
                 fc_memory_bytes: float | None = None) -> Assignment:
    """Best (n_conv, n_fc) split of a fixed node budget, by exhaustive search.

    Every FC worker must serve at least one CONV worker (n_fc <= n_conv).
    fc_memory_bytes, when given, bounds the activation batch an FC worker
    must hold: ceil(n_conv/n_fc) * batch_k * boundary * 4 bytes. Ties go to
    the smaller FC group. Raises Infeasible when no split qualifies and
    ConfigError for a memory limit that is not positive.
    """
    if fc_memory_bytes is not None and not fc_memory_bytes > 0:
        raise ConfigError(f"memory limit must be positive, got "
                          f"{fc_memory_bytes}")
    best: Assignment | None = None
    for n_fc in range(1, total_nodes):
        n_conv = total_nodes - n_fc
        if n_fc > n_conv:
            break
        if fc_memory_bytes is not None:
            g = _ceil_div(n_conv, n_fc)
            held = g * part.spec.batch_k * part.boundary_activations * 4
            if held > fc_memory_bytes:
                continue
        thr = stanza_throughput(part, n_conv, n_fc, c)
        if best is None or thr > best.throughput:
            best = Assignment(n_conv=n_conv, n_fc=n_fc, throughput=thr)
    if best is None:
        raise Infeasible(f"no feasible (n_conv, n_fc) split of {total_nodes} "
                         "nodes under the given constraints")
    return best


def assign_ps(params_total: int, batch_k: int, total_nodes: int,
              c: PerfConstants) -> PsAssignment:
    """Best (n_workers, n_servers) split of a fixed node budget.

    Ties go to the smaller server group. Raises Infeasible when the budget
    cannot hold one worker and one server.
    """
    best: PsAssignment | None = None
    for n_servers in range(1, total_nodes):
        n_workers = total_nodes - n_servers
        thr = ps_throughput(params_total, batch_k, n_workers, n_servers, c)
        if best is None or thr > best.throughput:
            best = PsAssignment(n_workers=n_workers, n_servers=n_servers,
                                throughput=thr)
    if best is None:
        raise Infeasible(f"cannot split {total_nodes} nodes into workers "
                         "and servers")
    return best


def best_split(spec: ModelSpec, mode: str, total_nodes: int, c: PerfConstants,
               fc_memory_bytes: float | None = None, boundary: int | None = None
               ) -> tuple[int, int, float]:
    """The planner's (workers, coordinators, seconds per iteration).

    mode "ps" splits the budget into workers and parameter servers with
    assign_ps, from P alone; any other mode cuts the model (split) and
    splits the budget into CONV and FC workers with assign_nodes, under
    fc_memory_bytes. A memory limit on a "ps" plan is a ConfigError.
    """
    if mode == "ps":
        if fc_memory_bytes is not None:
            raise ConfigError("a memory limit applies to layer-separated "
                              "plans only")
        ps = assign_ps(spec.params_total, spec.batch_k, total_nodes, c)
        return (ps.n_workers, ps.n_servers,
                ps_iter_time(spec.params_total, ps.n_workers, ps.n_servers, c))
    part = split(spec, boundary)
    st = assign_nodes(part, total_nodes, c, fc_memory_bytes)
    return st.n_conv, st.n_fc, stanza_iter_time(part, st.n_conv, st.n_fc, c)


def speedup(part: Partition, total_nodes: int, c: PerfConstants) -> float:
    """Modeled PS-over-layer-separated time ratio at an equal node budget.

    The baseline is a one-server PS: each side gets one coordinator node
    (parameter server there, FC worker here) plus total_nodes - 1 workers,
    so both process the same global batch per iteration and the
    iteration-time ratio doubles as the throughput ratio. Pinning the
    coordinator keeps the trend one-dimensional; letting PS rebalance
    workers against servers instead makes the ratio saw-tooth with node
    parity rather than track protocol efficiency. Against the planner's
    best PS split (assign_ps) the ratio is far smaller: for alexnet under
    v100_class_constants at 128 nodes, 1.49 rather than 31.9.
    """
    if total_nodes < 2:
        raise Infeasible("speedup needs a worker beside the coordinator, "
                         f"got {total_nodes} nodes")
    workers = total_nodes - 1
    t_ps = ps_iter_time(part.spec.params_total, workers, 1, c)
    t_stanza = stanza_iter_time(part, workers, 1, c)
    return t_ps / t_stanza


def parse_constants_text(text: str) -> PerfConstants:
    """Parse a constants file: one `key value` pair per line.

    Recognized keys are the four PerfConstants fields; a `name` line is
    accepted and ignored so benched files can label themselves. Missing
    keys keep the PerfConstants defaults.
    """
    keys = {f.name for f in fields(PerfConstants)}
    values: dict[str, float] = {}
    for key, args in parse_kv_text(text):
        if key == "name":
            continue
        if key not in keys:
            raise ConfigError(f"unknown constants key {key!r}")
        try:
            (raw,) = args
            values[key] = float(raw)
        except ValueError:
            raise ConfigError(f"bad {key} line: expected one number, "
                              f"got {args!r}") from None
    return PerfConstants(**values)


def load_constants_file(path) -> PerfConstants:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_constants_text(fh.read())


def format_constants_text(c: PerfConstants, name: str = "measured") -> str:
    """Render constants in the same `key value` format the parser reads."""
    return f"name {name}\n" + "".join(f"{f.name} {getattr(c, f.name)!r}\n"
                                      for f in fields(c))
