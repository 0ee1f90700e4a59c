"""Layer-separated training: CONV workers and FC workers as disjoint groups.

Each iteration: CONV workers run the front block forward on their local
batches and ship the boundary activations (plus labels) to their assigned
FC worker; FC workers run the back block forward and backward over their
group's combined batch and return each CONV worker's boundary-gradient
slice; CONV workers finish the backward pass; then both groups allreduce
their block's gradient sums concurrently and every replica applies the
same momentum-SGD step.

Compute is charged to the clock as lump constants (conv_time per iteration,
fc_unit_time per served CONV batch); the numeric math runs regardless and
takes no simulated time of its own. The two allreduces share one exchange
phase, so the clock charges max(conv window, fc window), never the sum.

The schedule is written once, as data: stanza_plan states an iteration,
the same in every iteration. stanza_traffic charges the plan to a ledger
and sends nothing (transport.charge_plan); StanzaCluster executes it on
the calling thread with float32 arrays (SimTransport.run_phase). Only
numeric runs plan labels, one CONTROL transfer per CONV worker, so counted
runs ship none.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .checkpointing import TrainResult, TrainState, start_state
from .collectives import Group, allreduce_steps, exchange
from .model_partition import ConfigError, ModelSpec, Partition, split
from .ps_runtime import equal_split
from .tensor_core import (OptimizerState, block_backward, block_forward,
                          pack_vector, sgd_step, unpack_vector)
from .transport import (NetConfig, NodeId, Role, SimTransport, Tag, Transfer,
                        charge_plan)


def check_stanza_shape(n_conv: int, n_fc: int) -> None:
    """ConfigError unless every FC worker serves at least one CONV worker."""
    if n_conv < 1 or n_fc < 1:
        raise ConfigError("need at least one CONV and one FC worker, got "
                          f"n_conv={n_conv} n_fc={n_fc}")
    if n_fc > n_conv:
        raise ConfigError(f"more FC workers ({n_fc}) than CONV workers "
                          f"({n_conv}) leaves some idle")


def served_by(n_conv: int, n_fc: int) -> dict[NodeId, tuple[NodeId, ...]]:
    """The CONV workers each FC worker serves: contiguous, near-equal runs
    of CONV indices (equal_split), so in this order the CONV workers are in
    index order too."""
    check_stanza_shape(n_conv, n_fc)
    bounds = list(accumulate(equal_split(n_conv, n_fc), initial=0))
    return {NodeId(Role.FC_WORKER, j):
            tuple(NodeId(Role.CONV_WORKER, i) for i in range(lo, hi))
            for j, (lo, hi) in enumerate(zip(bounds, bounds[1:]))}


def stanza_plan(served: dict, partition: Partition, batch_k: int, *,
                conv_time: float, fc_unit_time: float, labels: bool) -> list:
    """One layer-separated iteration as (label, body) phases, in order.

    Each CONV worker ships its FC worker its activations (then its labels,
    when `labels`) and gets its boundary-gradient slice back; both groups
    then allreduce in one exchange. fc_compute charges fc_unit_time per
    CONV batch the busiest FC worker serves.
    """
    a_k = partition.boundary_activations * batch_k
    activations, boundary = [], []
    for f, sources in served.items():
        for c in sources:
            activations.append(Transfer(c, f, Tag.ACTIVATIONS, "activations",
                                        None, a_k))
            if labels:
                activations.append(Transfer(c, f, Tag.CONTROL, "labels",
                                            None, batch_k))
            boundary.append(Transfer(f, c, Tag.BOUNDARY_GRADS, "boundary",
                                     None, a_k))
    conv = Group(tuple(c for sources in served.values() for c in sources))
    exchange = (allreduce_steps(conv, "conv_allreduce", partition.conv_params)
                + allreduce_steps(Group(tuple(served)), "fc_allreduce",
                                  partition.fc_params))
    return [("conv_compute", conv_time), ("activations", [activations]),
            ("fc_compute", max(map(len, served.values())) * fc_unit_time),
            ("boundary", [boundary]), ("exchange", exchange), ("update", [])]


class StanzaCluster:
    """A layer-separated deployment bound to one simulated network.

    batch_fn(iteration, conv_index) must return (inputs, labels) for that
    CONV worker's local batch of spec.batch_k samples. Iteration indices are
    absolute, so a cluster resumed from a snapshot sees the same data the
    uninterrupted run saw. For fully-connected models pass `boundary` (the
    layer index to cut at); convolutional models are cut automatically after
    their last pooling stage.
    """

    def __init__(self, spec: ModelSpec, *, n_conv: int, n_fc: int,
                 batch_fn, lr: float, momentum: float = 0.9,
                 conv_time: float = 0.0, fc_unit_time: float = 0.0,
                 net: NetConfig | None = None, seed: int = 0,
                 boundary: int | None = None,
                 state: TrainState | None = None):
        self.spec = spec
        self.layers = spec.require_layers()
        self.partition: Partition = split(spec, boundary)
        self.batch_fn = batch_fn
        self.n_conv = n_conv
        self.served = served_by(n_conv, n_fc)
        self.plan = stanza_plan(self.served, self.partition, spec.batch_k,
                                conv_time=float(conv_time),
                                fc_unit_time=float(fc_unit_time), labels=True)

        cut = self.partition.split_index
        start = start_state(self.layers, seed, state)
        self.iteration = start.iteration
        self.fc_ids = tuple(self.served)
        self.conv_ids = tuple(c for cs in self.served.values() for c in cs)
        self.transport = SimTransport(net)
        self.transport.register_all(self.conv_ids + self.fc_ids)

        def copy_block(nested, lo, hi):
            return [[t.copy() for t in layer] for layer in nested[lo:hi]]

        self.conv_params = {c: copy_block(start.params, 0, cut)
                            for c in self.conv_ids}
        self.fc_params = {f: copy_block(start.params, cut, len(self.layers))
                          for f in self.fc_ids}
        self.conv_opt = {c: OptimizerState(
            lr=lr, momentum=momentum,
            velocity=copy_block(start.velocities, 0, cut))
            for c in self.conv_ids}
        self.fc_opt = {f: OptimizerState(
            lr=lr, momentum=momentum,
            velocity=copy_block(start.velocities, cut, len(self.layers)))
            for f in self.fc_ids}

    # -- state ------------------------------------------------------------

    def state(self) -> TrainState:
        """Full training state stitched from the first replica of each block."""
        c0, f0 = self.conv_ids[0], self.fc_ids[0]
        params = [[t.copy() for t in layer]
                  for layer in self.conv_params[c0] + self.fc_params[f0]]
        velocities = [[t.copy() for t in layer]
                      for layer in (self.conv_opt[c0].velocity
                                    + self.fc_opt[f0].velocity)]
        return TrainState(iteration=self.iteration, params=params,
                          velocities=velocities)

    def checkpoint(self) -> TrainState:
        """state(), under the name perfbench's numeric_wide calls and traces."""
        return self.state()

    # -- one iteration ------------------------------------------------------

    def _conv_forward(self, it: int):
        acts, labels, caches = {}, {}, {}
        conv_block = self.partition.conv_block
        for i, c in enumerate(self.conv_ids):
            x, y = self.batch_fn(it, i)
            self.spec.check_batch(x)
            a, cache = block_forward(conv_block, self.conv_params[c], x)
            acts[c], labels[c], caches[c] = a, y, cache
        return acts, labels, caches

    def _fc_step(self, gathered):
        """Back-block forward/backward per FC worker over its group's batch.

        Returns per-FC gradient sums, per-CONV boundary gradient slices, and
        the summed per-sample loss.
        """
        fc_block = self.partition.fc_block
        fc_grads, boundary, loss_sum = {}, {}, 0.0
        k = self.spec.batch_k
        for f, (acts, labels) in gathered.items():
            x = np.concatenate(acts)
            y = np.concatenate(labels).astype(np.int64)
            out, caches = block_forward(fc_block, self.fc_params[f], x,
                                        labels=y)
            gx, grads = block_backward(fc_block, self.fc_params[f], caches,
                                       None, input_grad=True)
            fc_grads[f] = grads
            loss_sum += float(out.sum())
            for pos, c in enumerate(self.served[f]):
                boundary[c] = gx[pos * k:(pos + 1) * k]
        return fc_grads, boundary, loss_sum

    def _update_phase(self, sums):
        n = self.n_conv * self.spec.batch_k
        with self.transport.phase("update"):
            for c in self.conv_ids:
                grads = unpack_vector(sums[c], self.conv_params[c])
                sgd_step(self.conv_params[c], grads, n, self.conv_opt[c])
            for f in self.fc_ids:
                grads = unpack_vector(sums[f], self.fc_params[f])
                sgd_step(self.fc_params[f], grads, n, self.fc_opt[f])

    def train(self, iterations: int) -> TrainResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        conv_block = self.partition.conv_block
        tr, plan = self.transport, dict(self.plan)
        for _ in range(iterations):
            it = self.iteration
            tr.advance_compute(plan["conv_compute"], "conv_compute")
            acts, labels, conv_caches = self._conv_forward(it)
            gathered = {f: ([], []) for f in self.fc_ids}
            tr.run_phase(
                "activations", plan["activations"], it,
                lambda t: (labels if t.tag is Tag.CONTROL else acts)[t.src],
                lambda t, got: gathered[t.dst][t.tag is Tag.CONTROL]
                .append(got))
            tr.advance_compute(plan["fc_compute"], "fc_compute")
            fc_grads, boundary_out, loss_sum = self._fc_step(gathered)
            boundary_in = {}
            tr.run_phase("boundary", plan["boundary"], it,
                         lambda t: boundary_out[t.dst],
                         lambda t, got: boundary_in.__setitem__(t.dst, got))
            acc = {f: pack_vector(g) for f, g in fc_grads.items()}
            for c in self.conv_ids:
                _, g = block_backward(conv_block, self.conv_params[c],
                                      conv_caches[c], boundary_in[c])
                acc[c] = pack_vector(g)
            exchange(tr, "exchange", plan["exchange"], it, acc)
            self._update_phase(acc)
            losses.append(loss_sum / (self.n_conv * self.spec.batch_k))
            self.iteration += 1
        return TrainResult(losses=losses, state=self.state(),
                           transport=self.transport)


def stanza_traffic(spec: ModelSpec, *, n_conv: int, n_fc: int,
                   iterations: int = 1, net: NetConfig | None = None,
                   conv_time: float = 0.0, fc_unit_time: float = 0.0,
                   boundary: int | None = None) -> SimTransport:
    """Counted run of the layer-separated plan for traffic accounting.

    Works for profile specs as well as executable ones. Counted runs ship no
    labels: the closed-form model has no label term, and this keeps the
    simulated clock exactly equal to it.
    """
    plan = stanza_plan(served_by(n_conv, n_fc), split(spec, boundary),
                       spec.batch_k, conv_time=conv_time,
                       fc_unit_time=fc_unit_time, labels=False)
    return charge_plan(plan, iterations, net)
