"""Parameter-server training over the simulated network.

Every worker holds a full model replica. The servers shard the flat
parameter vector, all tensors laid end to end in layer order, into
equal_split(P, n_servers) contiguous element ranges, as key-range
partitioning does. Each iteration the workers compute gradient sums over
their local batches and push each server its range of the packed gradient;
the servers aggregate in ascending worker order and apply one momentum-SGD
step to their range, and the workers pull the updated ranges back. All
phases are bulk synchronous, so the ledger clock charges each phase at its
slowest node.

Push and pull are written once, over the live servers, those whose range is
not empty, and one value per (worker, live server): a float32 array or an
element count (transport.payload_message). PsCluster passes the ranges
themselves; ps_traffic passes their lengths. Remainders go to the first
servers, so the live servers are a prefix and a server past the last
element gets no message. Senders' messages go first, then receivers' in
node order, on the calling thread.
"""

from __future__ import annotations

from itertools import accumulate

from .checkpointing import TrainResult, TrainState, start_state
from .model_partition import ConfigError, ModelSpec
from .tensor_core import (OptimizerState, block_backward, block_forward,
                          pack_vector, sgd_step, unpack_vector)
from .transport import (NetConfig, NodeId, Role, SimTransport, Tag,
                        payload_message)


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


def _push_phase(tr: SimTransport, workers, servers, it: int,
                values) -> list:
    """Every worker pushes servers[i] its value values[w][i], an array or an
    element count; the server index rides along as the message round.
    Returns, per server, the received values in worker order."""
    with tr.phase("push"):
        for w in workers:
            for i, s in enumerate(servers):
                tr.send(payload_message(w, s, Tag.GRAD_PUSH, values[w][i],
                                        iteration=it, op="push", round=i))
        return [[tr.recv(s, tag=Tag.GRAD_PUSH, src=w, timeout=0).value()
                 for w in workers] for s in servers]


def _pull_phase(tr: SimTransport, workers, servers, it: int,
                values) -> dict:
    """servers[i] sends every worker its value values[i], an array or an
    element count. Returns, per worker, the received values in server
    order."""
    with tr.phase("pull"):
        for i, s in enumerate(servers):
            for w in workers:
                tr.send(payload_message(s, w, Tag.PARAM_PULL, values[i],
                                        iteration=it, op="pull", round=i))
        return {w: [tr.recv(w, tag=Tag.PARAM_PULL, src=s, timeout=0).value()
                    for s in servers]
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

        self.transport = SimTransport(net)
        self.worker_ids = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
        self.server_ids = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
        self.transport.register_all(self.worker_ids + self.server_ids)

        self.worker_params = {
            w: [[t.copy() for t in layer] for layer in start.params]
            for w in self.worker_ids
        }
        # the servers' flat parameter and velocity vectors; sgd_step sees
        # each live server's range as a layer of one tensor
        self._params = pack_vector(start.params)
        self._vel = pack_vector(start.velocities)
        bounds = list(accumulate(equal_split(self._params.size, n_servers),
                                 initial=0))
        self._ranges = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])
                        if hi > lo]
        self._live = self.server_ids[:len(self._ranges)]
        self._opt = OptimizerState(lr=lr, momentum=momentum,
                                   velocity=[[self._vel[r]]
                                             for r in self._ranges])

    # -- state ------------------------------------------------------------

    def state(self) -> TrainState:
        """Authoritative training state, reassembled from the server ranges."""
        like = self.worker_params[self.worker_ids[0]]
        return TrainState(iteration=self.iteration,
                          params=unpack_vector(self._params.copy(), like),
                          velocities=unpack_vector(self._vel.copy(), like))

    # -- one iteration ------------------------------------------------------

    def _local_gradients(self, it: int):
        """Forward/backward on every worker replica. Returns each worker's
        packed gradient split into the server ranges, and the summed
        per-sample loss."""
        grads = {}
        loss_sum = 0.0
        for w_idx, w in enumerate(self.worker_ids):
            x, y = self.batch_fn(it, w_idx)
            self.spec.check_batch(x)
            params = self.worker_params[w]
            out, caches = block_forward(self.layers, params, x, labels=y)
            _, g = block_backward(self.layers, params, caches, None)
            flat = pack_vector(g)
            grads[w] = [flat[r] for r in self._ranges]
            loss_sum += float(out.sum())
        return grads, loss_sum

    def _update_phase(self, pushes) -> None:
        with self.transport.phase("update"):
            sums = []
            for received in pushes:
                acc = received[0].copy()
                for g in received[1:]:
                    acc += g
                sums.append([acc])
            sgd_step([[self._params[r]] for r in self._ranges], sums,
                     self.n_workers * self.spec.batch_k, self._opt)

    def train(self, iterations: int) -> TrainResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        tr = self.transport
        for _ in range(iterations):
            it = self.iteration
            tr.advance_compute(self.compute_time, "compute")
            grads, loss_sum = self._local_gradients(it)
            pushes = _push_phase(tr, self.worker_ids, self._live, it, grads)
            self._update_phase(pushes)
            pulled = _pull_phase(tr, self.worker_ids, self._live, it,
                                 [self._params[r] for r in self._ranges])
            for w, ranges in pulled.items():
                self.worker_params[w] = unpack_vector(pack_vector([ranges]),
                                                      self.worker_params[w])
            losses.append(loss_sum / (self.n_workers * self.spec.batch_k))
            self.iteration += 1
        return TrainResult(losses=losses, state=self.state(),
                           transport=self.transport)


def ps_traffic(spec: ModelSpec, *, n_workers: int, n_servers: int,
               iterations: int = 1, net: NetConfig | None = None,
               compute_time: float = 0.0) -> SimTransport:
    """Size-only run of the push/update/pull schedule for traffic accounting.

    Works for profile specs (no layers) as well as executable ones, with the
    same contiguous ranges PsCluster uses: each worker and live server
    exchange one message per direction carrying that server's range.
    """
    check_ps_shape(n_workers, n_servers)
    shards = [n for n in equal_split(spec.params_total, n_servers) if n]

    tr = SimTransport(net)
    workers = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
    servers = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
    tr.register_all(workers + servers)
    live = servers[:len(shards)]
    for it in range(iterations):
        tr.advance_compute(compute_time, "compute")
        _push_phase(tr, workers, live, it, dict.fromkeys(workers, shards))
        with tr.phase("update"):
            pass
        _pull_phase(tr, workers, live, it, shards)
    return tr
