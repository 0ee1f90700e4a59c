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

Every phase runs on the calling thread. The sending nodes' steps run first,
then the receiving nodes' steps in node order; each receive takes an already
queued message, so a message that was never sent raises MissingSource at
once. The exchange walks the one allreduce schedule in collectives through
allreduce_group, for both groups, in StanzaCluster with float32 payloads and
in stanza_traffic with size-only messages. Host threads never change what is
simulated: messages, link sequences, phase loads and folds are fixed by the
schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .checkpointing import TrainState, state_to_bytes
from .collectives import Group, allreduce_group
from .model_partition import (ConfigError, ModelSpec, Partition, mlp_split,
                              split)
from .ps_runtime import equal_split
from .tensor_core import (OptimizerState, ShapeMismatch, block_backward,
                          block_forward, check_same_structure, pack_vector,
                          seeded_init, sgd_step, unpack_vector)
from .transport import (Message, NetConfig, NodeId, Role, SimTransport, Tag,
                        Timeout, counted_message, tensor_message)


class MissingSource(Timeout):
    """An expected upstream node never delivered its payload."""


def plan_groups(n_conv: int, n_fc: int) -> list[int]:
    """Contiguous, near-equal assignment of CONV workers to FC workers.

    Returns conv_to_fc: the FC worker index serving each CONV worker.
    """
    if n_conv < 1 or n_fc < 1:
        raise ConfigError("need at least one CONV and one FC worker, got "
                          f"n_conv={n_conv} n_fc={n_fc}")
    if n_fc > n_conv:
        raise ConfigError(f"more FC workers ({n_fc}) than CONV workers "
                          f"({n_conv}) leaves some idle")
    sizes = equal_split(n_conv, n_fc)
    conv_to_fc = []
    for j, size in enumerate(sizes):
        conv_to_fc.extend([j] * size)
    return conv_to_fc


def _allreduce_seed(seed: int, iteration: int) -> int:
    # one surplus-selection draw per iteration, derived from the run seed
    return seed * 1_000_003 + iteration


def _receive(transport: SimTransport, dst: NodeId, tag: Tag, src: NodeId,
             iteration: int) -> Message:
    """The queued message for dst from src; MissingSource if none was sent."""
    try:
        return transport.recv(dst, tag=tag, src=src, timeout=0)
    except Timeout as exc:
        raise MissingSource(f"{dst} got no {tag.value} from {src} at "
                            f"iteration {iteration}") from exc


def collect_group_activations(transport: SimTransport, fc: NodeId,
                              sources, iteration: int,
                              timeout: float | None = None):
    """Receive activations and labels from each CONV source, in source order.

    Returns (acts, labels) as per-source lists. Raises MissingSource when a
    source never delivers.
    """
    acts, labels = [], []
    for c in sources:
        try:
            a = transport.recv(fc, tag=Tag.ACTIVATIONS, src=c, timeout=timeout)
            y = transport.recv(fc, tag=Tag.CONTROL, src=c, timeout=timeout)
        except Timeout as exc:
            raise MissingSource(
                f"no activations from {c} at iteration {iteration}") from exc
        if a.iteration != iteration:
            raise MissingSource(
                f"{c} delivered iteration {a.iteration}, expected {iteration}")
        acts.append(a.tensor())
        labels.append(y.tensor().astype(np.int64))
    return acts, labels


@dataclass
class StanzaResult:
    """Outcome of a training call, mirroring the PS runtime's result."""
    losses: list[float]
    state: TrainState
    transport: SimTransport


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
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.spec = spec
        self.layers = spec.require_layers()
        self.partition: Partition = (mlp_split(spec, boundary)
                                     if boundary is not None else split(spec))
        self.batch_fn = batch_fn
        self.conv_time = float(conv_time)
        self.fc_unit_time = float(fc_unit_time)
        self.seed = seed
        self.n_conv = n_conv
        self.n_fc = n_fc
        self.conv_to_fc = plan_groups(n_conv, n_fc)
        self.max_group = max(self.conv_to_fc.count(j) for j in range(n_fc))

        cut = self.partition.split_index
        if state is None:
            full0 = seeded_init(self.layers, seed)
            vel0 = [[np.zeros_like(t) for t in layer] for layer in full0]
            self.iteration = 0
        else:
            reference = seeded_init(self.layers, seed)
            check_same_structure(reference, state.params,
                                 "snapshot parameters")
            check_same_structure(reference, state.velocities,
                                 "snapshot velocities")
            full0 = [[t.copy() for t in layer] for layer in state.params]
            vel0 = [[t.copy() for t in layer] for layer in state.velocities]
            self.iteration = state.iteration

        self.transport = SimTransport(net)
        self.conv_ids = [NodeId(Role.CONV_WORKER, i) for i in range(n_conv)]
        self.fc_ids = [NodeId(Role.FC_WORKER, j) for j in range(n_fc)]
        self.transport.register_all(self.conv_ids + self.fc_ids)
        self.conv_group = Group(tuple(self.conv_ids))
        self.fc_group = Group(tuple(self.fc_ids))

        def copy_block(nested, lo, hi):
            return [[t.copy() for t in layer] for layer in nested[lo:hi]]

        self.conv_params = {c: copy_block(full0, 0, cut)
                            for c in self.conv_ids}
        self.fc_params = {f: copy_block(full0, cut, len(self.layers))
                          for f in self.fc_ids}
        self.conv_opt = {c: OptimizerState(lr=lr, momentum=momentum,
                                           velocity=copy_block(vel0, 0, cut))
                         for c in self.conv_ids}
        self.fc_opt = {f: OptimizerState(
            lr=lr, momentum=momentum,
            velocity=copy_block(vel0, cut, len(self.layers)))
            for f in self.fc_ids}
        self.replica_snapshots: dict[NodeId, bytes] = {}

    def group_members(self, fc_index: int) -> list[int]:
        return [i for i, j in enumerate(self.conv_to_fc) if j == fc_index]

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
            if x.shape[0] != self.spec.batch_k:
                raise ShapeMismatch(
                    f"CONV batch has {x.shape[0]} samples, "
                    f"expected batch_k={self.spec.batch_k}")
            a, cache = block_forward(conv_block, self.conv_params[c], x)
            acts[c], labels[c], caches[c] = a, y, cache
        return acts, labels, caches

    def _activations_phase(self, it: int, acts, labels):
        tr = self.transport
        with tr.phase("activations"):
            for i, c in enumerate(self.conv_ids):
                dst = self.fc_ids[self.conv_to_fc[i]]
                tr.send(tensor_message(c, dst, Tag.ACTIVATIONS, acts[c],
                                       iteration=it, op="activations"))
                tr.send(tensor_message(c, dst, Tag.CONTROL,
                                       np.asarray(labels[c], dtype=np.float32),
                                       iteration=it, op="labels"))
            return {
                f: collect_group_activations(
                    tr, f, [self.conv_ids[i] for i in self.group_members(j)],
                    it, timeout=0)
                for j, f in enumerate(self.fc_ids)}

    def _fc_step(self, gathered):
        """Back-block forward/backward per FC worker over its group's batch.

        Returns per-FC gradient sums, per-CONV boundary gradient slices, and
        the summed per-sample loss.
        """
        fc_block = self.partition.fc_block
        fc_grads, boundary, loss_sum = {}, {}, 0.0
        k = self.spec.batch_k
        for j, f in enumerate(self.fc_ids):
            acts, labels = gathered[f]
            x = np.concatenate(acts)
            y = np.concatenate(labels)
            out, caches = block_forward(fc_block, self.fc_params[f], x,
                                        labels=y)
            gx, grads = block_backward(fc_block, self.fc_params[f], caches,
                                       None)
            fc_grads[f] = grads
            loss_sum += float(out.sum())
            for pos, i in enumerate(self.group_members(j)):
                boundary[self.conv_ids[i]] = gx[pos * k:(pos + 1) * k]
        return fc_grads, boundary, loss_sum

    def _boundary_phase(self, it: int, boundary):
        tr = self.transport
        with tr.phase("boundary"):
            for j, f in enumerate(self.fc_ids):
                for i in self.group_members(j):
                    c = self.conv_ids[i]
                    tr.send(tensor_message(f, c, Tag.BOUNDARY_GRADS,
                                           boundary[c], iteration=it,
                                           op="boundary"))
            return {
                c: _receive(tr, c, Tag.BOUNDARY_GRADS,
                            self.fc_ids[self.conv_to_fc[i]], it).tensor()
                for i, c in enumerate(self.conv_ids)}

    def _exchange_phase(self, it: int, conv_grads, fc_grads):
        """Both groups allreduce their block gradients in one overlapped phase."""
        tr = self.transport
        ar_seed = _allreduce_seed(self.seed, it)
        with tr.phase("exchange"):
            conv_sums = allreduce_group(
                tr, self.conv_group,
                {c: pack_vector(conv_grads[c]) for c in self.conv_ids},
                seed=ar_seed, op="conv_allreduce")
            fc_sums = allreduce_group(
                tr, self.fc_group,
                {f: pack_vector(fc_grads[f]) for f in self.fc_ids},
                seed=ar_seed, op="fc_allreduce")
            return conv_sums, fc_sums

    def _update_phase(self, conv_sums, fc_sums):
        tr = self.transport
        tr.begin_phase("update")
        n = self.n_conv * self.spec.batch_k
        for c in self.conv_ids:
            grads = unpack_vector(conv_sums[c], self.conv_params[c])
            sgd_step(self.conv_params[c], grads, n, self.conv_opt[c])
        for f in self.fc_ids:
            grads = unpack_vector(fc_sums[f], self.fc_params[f])
            sgd_step(self.fc_params[f], grads, n, self.fc_opt[f])
        tr.end_phase()

    def train(self, iterations: int) -> StanzaResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        conv_block = self.partition.conv_block
        for _ in range(iterations):
            it = self.iteration
            self.transport.advance_compute(self.conv_time, "conv_compute")
            acts, labels, conv_caches = self._conv_forward(it)
            gathered = self._activations_phase(it, acts, labels)
            self.transport.advance_compute(
                self.max_group * self.fc_unit_time, "fc_compute")
            fc_grads, boundary_out, loss_sum = self._fc_step(gathered)
            boundary_in = self._boundary_phase(it, boundary_out)
            conv_grads = {}
            for c in self.conv_ids:
                _, g = block_backward(conv_block, self.conv_params[c],
                                      conv_caches[c], boundary_in[c])
                conv_grads[c] = g
            conv_sums, fc_sums = self._exchange_phase(it, conv_grads, fc_grads)
            self._update_phase(conv_sums, fc_sums)
            losses.append(loss_sum / (self.n_conv * self.spec.batch_k))
            self.iteration += 1
        return StanzaResult(losses=losses, state=self.state(),
                            transport=self.transport)


def stanza_traffic(spec: ModelSpec, *, n_conv: int, n_fc: int,
                   iterations: int = 1, net: NetConfig | None = None,
                   conv_time: float = 0.0, fc_unit_time: float = 0.0,
                   boundary: int | None = None, seed: int = 0) -> SimTransport:
    """Size-only run of the layer-separated schedule for traffic accounting.

    Works for profile specs as well as executable ones. Profile runs ship no
    labels: the closed-form model has no label term, and this keeps the
    simulated clock exactly equal to it.
    """
    partition = (mlp_split(spec, boundary) if boundary is not None
                 else split(spec))
    conv_to_fc = plan_groups(n_conv, n_fc)
    max_group = max(conv_to_fc.count(j) for j in range(n_fc))
    a_k = partition.boundary_activations * spec.batch_k

    tr = SimTransport(net)
    conv_ids = [NodeId(Role.CONV_WORKER, i) for i in range(n_conv)]
    fc_ids = [NodeId(Role.FC_WORKER, j) for j in range(n_fc)]
    tr.register_all(conv_ids + fc_ids)
    conv_group = Group(tuple(conv_ids))
    fc_group = Group(tuple(fc_ids))
    served = [[conv_ids[i] for i in range(n_conv) if conv_to_fc[i] == j]
              for j in range(n_fc)]

    for it in range(iterations):
        tr.advance_compute(conv_time, "conv_compute")
        with tr.phase("activations"):
            for i, c in enumerate(conv_ids):
                tr.send(counted_message(c, fc_ids[conv_to_fc[i]],
                                        Tag.ACTIVATIONS, a_k, iteration=it,
                                        op="activations"))
            for f, sources in zip(fc_ids, served):
                for c in sources:
                    _receive(tr, f, Tag.ACTIVATIONS, c, it)
        tr.advance_compute(max_group * fc_unit_time, "fc_compute")
        with tr.phase("boundary"):
            for f, sources in zip(fc_ids, served):
                for c in sources:
                    tr.send(counted_message(f, c, Tag.BOUNDARY_GRADS, a_k,
                                            iteration=it, op="boundary"))
            for i, c in enumerate(conv_ids):
                _receive(tr, c, Tag.BOUNDARY_GRADS, fc_ids[conv_to_fc[i]], it)
        ar_seed = _allreduce_seed(seed, it)
        with tr.phase("exchange"):
            allreduce_group(tr, conv_group,
                            dict.fromkeys(conv_ids, partition.conv_params),
                            seed=ar_seed, op="conv_allreduce")
            allreduce_group(tr, fc_group,
                            dict.fromkeys(fc_ids, partition.fc_params),
                            seed=ar_seed, op="fc_allreduce")
        tr.begin_phase("update")
        tr.end_phase()
    return tr
