"""Parameter-server training over the simulated network.

Every worker holds a full model replica. Each iteration the workers
compute gradient sums over their local batches, push them tensor by
tensor to the owning servers, the servers aggregate in ascending worker
order and apply one momentum-SGD step, and the workers pull the updated
tensors back. All phases are bulk synchronous, so the ledger clock
charges each phase at its slowest node.

Push and pull are written once, over numbered items that each have an
owning server and a value, a float32 array or an element count
(transport.payload_message). PsCluster passes one array per tensor;
ps_traffic passes one count per server that owns anything, its whole shard.
Senders' messages go first, then receivers' in node order, on the calling
thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpointing import TrainResult, TrainState, start_state
from .model_partition import ConfigError, ModelSpec
from .tensor_core import (OptimizerState, block_backward, block_forward,
                          flatten_params, param_shapes, sgd_step)
from .transport import (NetConfig, NodeId, Role, SimTransport, Tag,
                        payload_message)


class PushOutOfOrder(RuntimeError):
    """A server received a worker's gradient pushes out of sending order."""


def check_ps_shape(n_workers: int, n_servers: int) -> None:
    """ConfigError unless there is at least one worker and one server."""
    if n_workers < 1 or n_servers < 1:
        raise ConfigError("need at least one worker and one server, got "
                          f"n_workers={n_workers} n_servers={n_servers}")


def equal_split(total: int, parts: int) -> list[int]:
    """Split a count into near-equal shards; the remainder goes first."""
    if parts < 1:
        raise ConfigError(f"cannot split into {parts} shards")
    base, extra = divmod(total, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


@dataclass(frozen=True)
class ShardMap:
    """Assignment of numbered items to servers: flat tensor ids, or whole
    shards in a size-only run."""
    n_servers: int
    owner: tuple[int, ...]

    @classmethod
    def balance(cls, sizes, n_servers: int) -> "ShardMap":
        """Greedy whole-tensor balancing: largest tensors first, each to the
        currently lightest server. Deterministic for a given size list."""
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


def _push_phase(tr: SimTransport, workers, servers, items: ShardMap,
                it: int, values) -> dict:
    """Every worker pushes its value of each item to the item's server.

    values[w][item] is worker w's value, an array or an element count. The
    item number rides along as the message round. Returns {(worker index,
    item): value} as the servers received them.
    """
    owned = [items.tensors_of(s) for s in range(len(servers))]
    with tr.phase("push"):
        for w in workers:
            for item, value in enumerate(values[w]):
                tr.send(payload_message(w, servers[items.owner[item]],
                                        Tag.GRAD_PUSH, value, iteration=it,
                                        op="push", round=item))
        pushes = {}
        for s, mine in zip(servers, owned):
            for w_idx, w in enumerate(workers):
                for item in mine:
                    msg = tr.recv(s, tag=Tag.GRAD_PUSH, src=w, timeout=0)
                    if msg.round != item:
                        raise PushOutOfOrder(f"{s} expected item {item} from "
                                             f"{w}, got {msg.round}")
                    pushes[(w_idx, item)] = msg.value()
        return pushes


def _pull_phase(tr: SimTransport, workers, servers, items: ShardMap,
                it: int, values) -> dict:
    """Every server sends each worker its value of each item it owns.

    values[item] is the owning server's value, an array or an element count.
    Returns, per worker, the received values in item order.
    """
    owned = [items.tensors_of(s) for s in range(len(servers))]
    with tr.phase("pull"):
        for s, mine in zip(servers, owned):
            for w in workers:
                for item in mine:
                    tr.send(payload_message(s, w, Tag.PARAM_PULL,
                                            values[item], iteration=it,
                                            op="pull", round=item))
        return {w: [tr.recv(w, tag=Tag.PARAM_PULL, src=servers[s_idx],
                            timeout=0).value() for s_idx in items.owner]
                for w in workers}


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
        check_ps_shape(n_workers, n_servers)
        self.spec = spec
        self.layers = spec.require_layers()
        self.batch_fn = batch_fn
        self.compute_time = float(compute_time)
        self.n_workers = n_workers
        self.n_servers = n_servers

        start = start_state(self.layers, seed, state)
        self.iteration = start.iteration
        flat0 = flatten_params(start.params)
        flat_vel0 = flatten_params(start.velocities)
        self.shard_map = ShardMap.balance([t.size for t in flat0], n_servers)

        self.transport = SimTransport(net)
        self.worker_ids = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
        self.server_ids = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
        self.transport.register_all(self.worker_ids + self.server_ids)

        self.worker_params = {
            w: [[t.copy() for t in layer] for layer in start.params]
            for w in self.worker_ids
        }
        # the servers' tensors by flat tensor id; each server steps the ones
        # it owns as one-tensor slots, the nested structure sgd_step expects
        self._server_params = [t.copy() for t in flat0]
        self._server_vel = [t.copy() for t in flat_vel0]
        self._owned = [self.shard_map.tensors_of(s) for s in range(n_servers)]
        self._shard_opt = [
            OptimizerState(lr=lr, momentum=momentum,
                           velocity=[[self._server_vel[tid]] for tid in owned])
            for owned in self._owned
        ]

    # -- state ------------------------------------------------------------

    def _rebuild(self, flat) -> list:
        """Copies of flat tensors, nested layer by layer like the model."""
        tensors = iter(flat)
        return [[next(tensors).copy() for _ in param_shapes(layer)]
                for layer in self.layers]

    def state(self) -> TrainState:
        """Authoritative training state, reassembled from the server shards."""
        return TrainState(iteration=self.iteration,
                          params=self._rebuild(self._server_params),
                          velocities=self._rebuild(self._server_vel))

    # -- one iteration ------------------------------------------------------

    def _local_gradients(self, it: int):
        """Forward/backward on every worker replica. Returns per-worker flat
        gradient lists and the summed per-sample loss."""
        grads = {}
        loss_sum = 0.0
        for w_idx, w in enumerate(self.worker_ids):
            x, y = self.batch_fn(it, w_idx)
            self.spec.check_batch(x)
            params = self.worker_params[w]
            out, caches = block_forward(self.layers, params, x, labels=y)
            _, g = block_backward(self.layers, params, caches, None)
            grads[w] = flatten_params(g)
            loss_sum += float(out.sum())
        return grads, loss_sum

    def _update_phase(self, pushes) -> None:
        n = self.n_workers * self.spec.batch_k
        with self.transport.phase("update"):
            for owned, opt in zip(self._owned, self._shard_opt):
                grads_nested = []
                for tid in owned:
                    acc = pushes[(0, tid)].copy()
                    for w_idx in range(1, self.n_workers):
                        acc += pushes[(w_idx, tid)]
                    grads_nested.append([acc])
                sgd_step([[self._server_params[tid]] for tid in owned],
                         grads_nested, n, opt)

    def train(self, iterations: int) -> TrainResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        tr = self.transport
        for _ in range(iterations):
            it = self.iteration
            tr.advance_compute(self.compute_time, "compute")
            grads, loss_sum = self._local_gradients(it)
            pushes = _push_phase(tr, self.worker_ids, self.server_ids,
                                 self.shard_map, it, grads)
            self._update_phase(pushes)
            pulled = _pull_phase(tr, self.worker_ids, self.server_ids,
                                 self.shard_map, it, self._server_params)
            for w, flat in pulled.items():
                self.worker_params[w] = self._rebuild(flat)
            losses.append(loss_sum / (self.n_workers * self.spec.batch_k))
            self.iteration += 1
        return TrainResult(losses=losses, state=self.state(),
                           transport=self.transport)


def ps_traffic(spec: ModelSpec, *, n_workers: int, n_servers: int,
               iterations: int = 1, net: NetConfig | None = None,
               compute_time: float = 0.0) -> SimTransport:
    """Size-only run of the push/update/pull schedule for traffic accounting.

    Works for profile specs (no layers) as well as executable ones; each
    worker-server pair exchanges one message per direction carrying that
    server's whole shard.
    """
    check_ps_shape(n_workers, n_servers)
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
    # one item per server that owns anything: its whole shard
    live = [s for s, elems in enumerate(shard_elems) if elems > 0]
    items = ShardMap(n_servers=n_servers, owner=tuple(live))
    shards = [shard_elems[s] for s in live]
    for it in range(iterations):
        tr.advance_compute(compute_time, "compute")
        _push_phase(tr, workers, servers, items, it,
                    dict.fromkeys(workers, shards))
        with tr.phase("update"):
            pass
        _pull_phase(tr, workers, servers, items, it, shards)
    return tr
