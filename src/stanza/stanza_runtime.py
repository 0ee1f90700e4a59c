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

The schedule is written once: the activations, boundary and exchange
phases are module-level functions over one Layout of the nodes. Each
payload is a float32 array or an element count (transport.payload_message).
StanzaCluster passes arrays and labels; stanza_traffic passes counts and no
labels, so size-only runs ship no CONTROL messages.

Every phase runs on the calling thread. The sending nodes' steps run first,
then the receiving nodes' steps in node order; each receive takes an already
queued message, so a message that was never sent raises MissingSource at
once. Host threads never change what is simulated: messages, link
sequences, phase loads and folds are fixed by the schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .checkpointing import (TrainResult, TrainState, start_state,
                            state_to_bytes)
from .collectives import Group, allreduce_group
from .model_partition import ConfigError, ModelSpec, Partition, split
from .ps_runtime import equal_split
from .tensor_core import (OptimizerState, block_backward, block_forward,
                          pack_vector, sgd_step, unpack_vector)
from .transport import (Message, NetConfig, NodeId, Role, SimTransport, Tag,
                        Timeout, payload_message)


class MissingSource(Timeout):
    """An expected upstream node never delivered its payload."""


def check_stanza_shape(n_conv: int, n_fc: int) -> None:
    """ConfigError unless every FC worker serves at least one CONV worker."""
    if n_conv < 1 or n_fc < 1:
        raise ConfigError("need at least one CONV and one FC worker, got "
                          f"n_conv={n_conv} n_fc={n_fc}")
    if n_fc > n_conv:
        raise ConfigError(f"more FC workers ({n_fc}) than CONV workers "
                          f"({n_conv}) leaves some idle")


def plan_groups(n_conv: int, n_fc: int) -> list[int]:
    """Contiguous, near-equal assignment of CONV workers to FC workers.

    Returns conv_to_fc: the FC worker index serving each CONV worker.
    """
    check_stanza_shape(n_conv, n_fc)
    sizes = equal_split(n_conv, n_fc)
    conv_to_fc = []
    for j, size in enumerate(sizes):
        conv_to_fc.extend([j] * size)
    return conv_to_fc


@dataclass(frozen=True)
class Layout:
    """The nodes of one deployment and which FC worker serves which CONV
    worker; numeric and size-only runs share it."""
    conv_ids: tuple[NodeId, ...]
    fc_ids: tuple[NodeId, ...]
    conv_group: Group
    fc_group: Group
    fc_of: dict[NodeId, NodeId]               # serving FC worker per CONV worker
    served: dict[NodeId, tuple[NodeId, ...]]  # CONV workers per FC worker

    @classmethod
    def plan(cls, n_conv: int, n_fc: int) -> "Layout":
        conv_to_fc = plan_groups(n_conv, n_fc)
        conv_ids = tuple(NodeId(Role.CONV_WORKER, i) for i in range(n_conv))
        fc_ids = tuple(NodeId(Role.FC_WORKER, j) for j in range(n_fc))
        fc_of = {c: fc_ids[j] for c, j in zip(conv_ids, conv_to_fc)}
        served = {f: tuple(c for c in conv_ids if fc_of[c] == f)
                  for f in fc_ids}
        return cls(conv_ids, fc_ids, Group(conv_ids), Group(fc_ids), fc_of,
                   served)

    @property
    def max_group(self) -> int:
        return max(len(sources) for sources in self.served.values())


def _receive(transport: SimTransport, dst: NodeId, tag: Tag, src: NodeId,
             iteration: int) -> Message:
    """The message src queued for dst this iteration; MissingSource if none
    was sent."""
    try:
        msg = transport.recv(dst, tag=tag, src=src, timeout=0)
    except Timeout as exc:
        raise MissingSource(f"{dst} got no {tag.value} from {src} at "
                            f"iteration {iteration}") from exc
    if msg.iteration != iteration:
        raise MissingSource(f"{src} delivered iteration {msg.iteration}, "
                            f"expected {iteration}")
    return msg


def _activations_phase(tr: SimTransport, layout: Layout, it: int, acts,
                       labels=None) -> dict:
    """Every CONV worker ships its boundary activations to its FC worker.

    acts maps each CONV worker to its activations, an array or an element
    count. Labels, when given, follow as one CONTROL message per CONV
    worker; size-only runs pass none. Returns per FC worker the received
    activations and labels (None without labels), in served order.
    """
    with tr.phase("activations"):
        for c, f in layout.fc_of.items():
            tr.send(payload_message(c, f, Tag.ACTIVATIONS, acts[c],
                                    iteration=it, op="activations"))
            if labels is not None:
                tr.send(payload_message(c, f, Tag.CONTROL, labels[c],
                                        iteration=it, op="labels"))
        gathered = {}
        for f, sources in layout.served.items():
            xs = [_receive(tr, f, Tag.ACTIVATIONS, c, it).value()
                  for c in sources]
            ys = None
            if labels is not None:
                ys = [_receive(tr, f, Tag.CONTROL, c, it).tensor()
                      .astype(np.int64) for c in sources]
            gathered[f] = (xs, ys)
        return gathered


def _boundary_phase(tr: SimTransport, layout: Layout, it: int, grads) -> dict:
    """Every FC worker returns each served CONV worker its boundary-gradient
    slice (an array or an element count); returns what each CONV worker got.
    """
    with tr.phase("boundary"):
        for f, sources in layout.served.items():
            for c in sources:
                tr.send(payload_message(f, c, Tag.BOUNDARY_GRADS, grads[c],
                                        iteration=it, op="boundary"))
        return {c: _receive(tr, c, Tag.BOUNDARY_GRADS, f, it).value()
                for c, f in layout.fc_of.items()}


def _exchange_phase(tr: SimTransport, layout: Layout, conv_values, fc_values):
    """Both groups allreduce their block gradients in one overlapped phase.

    The values are each member's packed gradient sum or its element count;
    returns the two groups' allreduce_group results. Each group's surplus
    members and donors follow collectives.surplus_protocol's fixed rule, so
    every iteration moves the same bytes between the same nodes.
    """
    with tr.phase("exchange"):
        conv_sums = allreduce_group(tr, layout.conv_group, conv_values,
                                    op="conv_allreduce")
        fc_sums = allreduce_group(tr, layout.fc_group, fc_values,
                                  op="fc_allreduce")
        return conv_sums, fc_sums


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
        self.conv_time = float(conv_time)
        self.fc_unit_time = float(fc_unit_time)
        self.seed = seed
        self.n_conv = n_conv
        self.n_fc = n_fc
        self.layout = Layout.plan(n_conv, n_fc)

        cut = self.partition.split_index
        start = start_state(self.layers, seed, state)
        self.iteration = start.iteration
        self.conv_ids = self.layout.conv_ids
        self.fc_ids = self.layout.fc_ids
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
        self.replica_snapshots: dict[NodeId, bytes] = {}

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
        """Snapshot the run; the first FC worker also sends its block's state
        to a seeded-random CONV worker so the heavyweight FC parameters exist
        on two nodes. The replica blob is kept in replica_snapshots."""
        f0 = self.fc_ids[0]
        fc_state = TrainState(
            iteration=self.iteration,
            params=self.fc_params[f0],
            velocities=self.fc_opt[f0].velocity,
        )
        blob = state_to_bytes(fc_state)
        holder = self.conv_ids[
            random.Random((self.seed << 32)
                          ^ self.iteration).randrange(self.n_conv)]
        tr = self.transport
        with tr.phase("checkpoint"):
            tr.send(Message(src=f0, dst=holder, tag=Tag.CHECKPOINT,
                            payload_elements=(len(blob) + 3) // 4,
                            payload=blob, iteration=self.iteration,
                            op="checkpoint"))
            msg = _receive(tr, holder, Tag.CHECKPOINT, f0, self.iteration)
        self.replica_snapshots[holder] = msg.payload
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
            y = np.concatenate(labels)
            out, caches = block_forward(fc_block, self.fc_params[f], x,
                                        labels=y)
            gx, grads = block_backward(fc_block, self.fc_params[f], caches,
                                       None, input_grad=True)
            fc_grads[f] = grads
            loss_sum += float(out.sum())
            for pos, c in enumerate(self.layout.served[f]):
                boundary[c] = gx[pos * k:(pos + 1) * k]
        return fc_grads, boundary, loss_sum

    def _update_phase(self, conv_sums, fc_sums):
        n = self.n_conv * self.spec.batch_k
        with self.transport.phase("update"):
            for c in self.conv_ids:
                grads = unpack_vector(conv_sums[c], self.conv_params[c])
                sgd_step(self.conv_params[c], grads, n, self.conv_opt[c])
            for f in self.fc_ids:
                grads = unpack_vector(fc_sums[f], self.fc_params[f])
                sgd_step(self.fc_params[f], grads, n, self.fc_opt[f])

    def train(self, iterations: int) -> TrainResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        conv_block = self.partition.conv_block
        tr, layout = self.transport, self.layout
        for _ in range(iterations):
            it = self.iteration
            tr.advance_compute(self.conv_time, "conv_compute")
            acts, labels, conv_caches = self._conv_forward(it)
            gathered = _activations_phase(tr, layout, it, acts, labels)
            tr.advance_compute(layout.max_group * self.fc_unit_time,
                               "fc_compute")
            fc_grads, boundary_out, loss_sum = self._fc_step(gathered)
            boundary_in = _boundary_phase(tr, layout, it, boundary_out)
            conv_grads = {}
            for c in self.conv_ids:
                _, g = block_backward(conv_block, self.conv_params[c],
                                      conv_caches[c], boundary_in[c])
                conv_grads[c] = pack_vector(g)
            conv_sums, fc_sums = _exchange_phase(
                tr, layout, conv_grads,
                {f: pack_vector(g) for f, g in fc_grads.items()})
            self._update_phase(conv_sums, fc_sums)
            losses.append(loss_sum / (self.n_conv * self.spec.batch_k))
            self.iteration += 1
        return TrainResult(losses=losses, state=self.state(),
                           transport=self.transport)


def stanza_traffic(spec: ModelSpec, *, n_conv: int, n_fc: int,
                   iterations: int = 1, net: NetConfig | None = None,
                   conv_time: float = 0.0, fc_unit_time: float = 0.0,
                   boundary: int | None = None) -> SimTransport:
    """Size-only run of the layer-separated schedule for traffic accounting.

    Works for profile specs as well as executable ones. Profile runs ship no
    labels: the closed-form model has no label term, and this keeps the
    simulated clock exactly equal to it.
    """
    partition = split(spec, boundary)
    layout = Layout.plan(n_conv, n_fc)
    tr = SimTransport(net)
    tr.register_all(layout.conv_ids + layout.fc_ids)
    a_k = dict.fromkeys(layout.conv_ids,
                        partition.boundary_activations * spec.batch_k)
    conv_params = dict.fromkeys(layout.conv_ids, partition.conv_params)
    fc_params = dict.fromkeys(layout.fc_ids, partition.fc_params)
    for it in range(iterations):
        tr.advance_compute(conv_time, "conv_compute")
        _activations_phase(tr, layout, it, a_k)
        tr.advance_compute(layout.max_group * fc_unit_time, "fc_compute")
        _boundary_phase(tr, layout, it, a_k)
        _exchange_phase(tr, layout, conv_params, fc_params)
        with tr.phase("update"):
            pass
    return tr
