"""Parameter-server training over the simulated network.

Every worker holds a full model replica. Each iteration the workers
compute gradient sums over their local batches, push them tensor by
tensor to the owning servers, the servers aggregate in ascending worker
order and apply one momentum-SGD step, and the workers pull the updated
tensors back. All phases are bulk synchronous, so the ledger clock
charges each phase at its slowest node.

Push and pull run on the calling thread: every sender's messages first,
then every receiver's, in node order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpointing import TrainState
from .model_partition import ConfigError, ModelSpec
from .tensor_core import (OptimizerState, ShapeMismatch, block_backward,
                          block_forward, check_same_structure, flatten_params,
                          param_index_pairs, param_shapes, rebuild_params,
                          seeded_init, sgd_step)
from .transport import (NetConfig, NodeId, Role, SimTransport, Tag,
                        counted_message, tensor_message)


class PushOutOfOrder(RuntimeError):
    """A server received a worker's gradient pushes out of sending order."""


def equal_split(total: int, parts: int) -> list[int]:
    """Split a count into near-equal shards; the remainder goes first."""
    if parts < 1:
        raise ConfigError(f"cannot split into {parts} shards")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


@dataclass(frozen=True)
class ShardMap:
    """Assignment of flat tensor ids to servers."""
    n_servers: int
    owner: tuple[int, ...]

    @classmethod
    def balance(cls, sizes, n_servers: int) -> "ShardMap":
        """Greedy whole-tensor balancing: largest tensors first, each to the
        currently lightest server. Deterministic for a given size list."""
        if n_servers < 1:
            raise ConfigError(f"need at least one server, got {n_servers}")
        load = [0] * n_servers
        owner = [0] * len(sizes)
        for tid in sorted(range(len(sizes)), key=lambda t: (-sizes[t], t)):
            s = min(range(n_servers), key=lambda i: (load[i], i))
            owner[tid] = s
            load[s] += sizes[tid]
        return cls(n_servers=n_servers, owner=tuple(owner))

    def tensors_of(self, server: int) -> list[int]:
        return [tid for tid, s in enumerate(self.owner) if s == server]

    def shard_elements(self, sizes) -> list[int]:
        elems = [0] * self.n_servers
        for tid, s in enumerate(self.owner):
            elems[s] += sizes[tid]
        return elems


@dataclass
class PsResult:
    """Outcome of a training call: per-iteration mean losses and final state."""
    losses: list[float]
    state: TrainState
    transport: SimTransport
    shard_map: ShardMap


class PsCluster:
    """A parameter-server deployment bound to one simulated network.

    batch_fn(iteration, worker_index) must return (inputs, labels) for that
    worker's local batch of spec.batch_k samples; iteration indices are
    absolute, so a cluster resumed from a snapshot sees the same data the
    uninterrupted run saw.
    """

    def __init__(self, spec: ModelSpec, *, n_workers: int, n_servers: int,
                 batch_fn, lr: float, momentum: float = 0.9,
                 compute_time: float = 0.0, net: NetConfig | None = None,
                 seed: int = 0, state: TrainState | None = None):
        if n_workers < 1 or n_servers < 1:
            raise ConfigError("need at least one worker and one server, got "
                              f"n_workers={n_workers} n_servers={n_servers}")
        if lr <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {lr}")
        self.spec = spec
        self.layers = spec.require_layers()
        self.batch_fn = batch_fn
        self.compute_time = float(compute_time)
        self.n_workers = n_workers
        self.n_servers = n_servers

        if state is None:
            params0 = seeded_init(self.layers, seed)
            vel0 = [[np.zeros_like(t) for t in layer] for layer in params0]
            self.iteration = 0
        else:
            reference = seeded_init(self.layers, seed)
            check_same_structure(reference, state.params, "snapshot parameters")
            check_same_structure(reference, state.velocities, "snapshot velocities")
            params0 = [[t.copy() for t in layer] for layer in state.params]
            vel0 = [[t.copy() for t in layer] for layer in state.velocities]
            self.iteration = state.iteration

        self._pairs = param_index_pairs(params0)
        flat0 = flatten_params(params0)
        flat_vel0 = flatten_params(vel0)
        self.shard_map = ShardMap.balance([t.size for t in flat0], n_servers)

        self.transport = SimTransport(net)
        self.worker_ids = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
        self.server_ids = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
        self.transport.register_all(self.worker_ids + self.server_ids)

        self.worker_params = {
            w: [[t.copy() for t in layer] for layer in params0]
            for w in self.worker_ids
        }
        # each server holds its owned tensors as a one-tensor-per-slot list,
        # which is the nested structure sgd_step expects
        self._owned = [self.shard_map.tensors_of(s) for s in range(n_servers)]
        self._shard_params = [[[flat0[tid].copy()] for tid in owned]
                              for owned in self._owned]
        self._shard_opt = [
            OptimizerState(lr=lr, momentum=momentum,
                           velocity=[[flat_vel0[tid].copy()] for tid in owned])
            for owned in self._owned
        ]

    # -- state ------------------------------------------------------------

    def state(self) -> TrainState:
        """Authoritative training state, reassembled from the server shards."""
        n_tensors = len(self._pairs)
        flat_p: list = [None] * n_tensors
        flat_v: list = [None] * n_tensors
        for s in range(self.n_servers):
            for pos, tid in enumerate(self._owned[s]):
                flat_p[tid] = self._shard_params[s][pos][0].copy()
                flat_v[tid] = self._shard_opt[s].velocity[pos][0].copy()
        return TrainState(
            iteration=self.iteration,
            params=rebuild_params(flat_p, self._pairs, len(self.layers)),
            velocities=rebuild_params(flat_v, self._pairs, len(self.layers)),
        )

    # -- one iteration ------------------------------------------------------

    def _local_gradients(self, it: int):
        """Forward/backward on every worker replica. Returns per-worker flat
        gradient lists and the summed per-sample loss."""
        grads = {}
        loss_sum = 0.0
        for w_idx, w in enumerate(self.worker_ids):
            x, y = self.batch_fn(it, w_idx)
            if x.shape[0] != self.spec.batch_k:
                raise ShapeMismatch(
                    f"worker batch has {x.shape[0]} samples, "
                    f"expected batch_k={self.spec.batch_k}")
            params = self.worker_params[w]
            out, caches = block_forward(self.layers, params, x, labels=y)
            _, g = block_backward(self.layers, params, caches, None)
            grads[w] = flatten_params(g)
            loss_sum += float(out.sum())
        return grads, loss_sum

    def _push_phase(self, it: int, grads) -> dict:
        tr = self.transport
        with tr.phase("push"):
            for w in self.worker_ids:
                for tid, g in enumerate(grads[w]):
                    dst = self.server_ids[self.shard_map.owner[tid]]
                    tr.send(tensor_message(w, dst, Tag.GRAD_PUSH, g,
                                           iteration=it, op="push", round=tid))
            pushes = {}
            for s_idx, s in enumerate(self.server_ids):
                stash = {}
                for w_idx, w in enumerate(self.worker_ids):
                    for tid in self._owned[s_idx]:
                        msg = tr.recv(s, tag=Tag.GRAD_PUSH, src=w, timeout=0)
                        if msg.round != tid:
                            raise PushOutOfOrder(
                                f"{s} expected tensor {tid} from {w}, got "
                                f"{msg.round}")
                        stash[(w_idx, tid)] = msg.tensor()
                pushes[s] = stash
            return pushes

    def _update_phase(self, pushes) -> None:
        tr = self.transport
        tr.begin_phase("update")
        n = self.n_workers * self.spec.batch_k
        for s_idx in range(self.n_servers):
            stash = pushes[self.server_ids[s_idx]]
            grads_nested = []
            for tid in self._owned[s_idx]:
                acc = stash[(0, tid)].copy()
                for w_idx in range(1, self.n_workers):
                    acc += stash[(w_idx, tid)]
                grads_nested.append([acc])
            sgd_step(self._shard_params[s_idx], grads_nested, n,
                     self._shard_opt[s_idx])
        tr.end_phase()

    def _pull_phase(self, it: int) -> None:
        tr = self.transport
        n_tensors = len(self._pairs)
        with tr.phase("pull"):
            for s_idx, s in enumerate(self.server_ids):
                for w in self.worker_ids:
                    for pos, tid in enumerate(self._owned[s_idx]):
                        tr.send(tensor_message(
                            s, w, Tag.PARAM_PULL,
                            self._shard_params[s_idx][pos][0],
                            iteration=it, op="pull", round=tid))
            for w in self.worker_ids:
                flat = [None] * n_tensors
                for tid in range(n_tensors):
                    src = self.server_ids[self.shard_map.owner[tid]]
                    msg = tr.recv(w, tag=Tag.PARAM_PULL, src=src, timeout=0)
                    flat[msg.round] = msg.tensor().copy()
                self.worker_params[w] = rebuild_params(flat, self._pairs,
                                                       len(self.layers))

    def train(self, iterations: int) -> PsResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        for _ in range(iterations):
            it = self.iteration
            self.transport.advance_compute(self.compute_time, "compute")
            grads, loss_sum = self._local_gradients(it)
            pushes = self._push_phase(it, grads)
            self._update_phase(pushes)
            self._pull_phase(it)
            losses.append(loss_sum / (self.n_workers * self.spec.batch_k))
            self.iteration += 1
        return PsResult(losses=losses, state=self.state(),
                        transport=self.transport, shard_map=self.shard_map)


def ps_traffic(spec: ModelSpec, *, n_workers: int, n_servers: int,
               iterations: int = 1, net: NetConfig | None = None,
               compute_time: float = 0.0) -> SimTransport:
    """Size-only run of the push/update/pull schedule for traffic accounting.

    Works for profile specs (no layers) as well as executable ones; each
    worker-server pair exchanges one message per direction carrying that
    server's whole shard.
    """
    if n_workers < 1 or n_servers < 1:
        raise ConfigError("need at least one worker and one server, got "
                          f"n_workers={n_workers} n_servers={n_servers}")
    if spec.is_profile:
        shard_elems = equal_split(spec.params_total, n_servers)
    else:
        sizes = []
        for layer in spec.layers:
            for shape in param_shapes(layer):
                sizes.append(int(np.prod(shape)))
        shard_elems = ShardMap.balance(sizes, n_servers).shard_elements(sizes)

    tr = SimTransport(net)
    workers = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
    servers = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
    tr.register_all(workers + servers)
    live = [s for s in range(n_servers) if shard_elems[s] > 0]

    for it in range(iterations):
        tr.advance_compute(compute_time, "compute")
        with tr.phase("push"):
            for w in workers:
                for s in live:
                    tr.send(counted_message(w, servers[s], Tag.GRAD_PUSH,
                                            shard_elems[s], iteration=it,
                                            op="push"))
            for s in live:
                for w in workers:
                    tr.recv(servers[s], tag=Tag.GRAD_PUSH, src=w, timeout=0)
        tr.begin_phase("update")
        tr.end_phase()
        with tr.phase("pull"):
            for s in live:
                for w in workers:
                    tr.send(counted_message(servers[s], w, Tag.PARAM_PULL,
                                            shard_elems[s], iteration=it,
                                            op="pull"))
            for w in workers:
                for _ in live:
                    tr.recv(w, tag=Tag.PARAM_PULL, timeout=0)
    return tr
