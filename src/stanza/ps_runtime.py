"""Parameter-server training over the simulated network.

Every worker holds a full model replica. The servers shard the flat
parameter vector, all tensors laid end to end in layer order, into
equal_split(P, n_servers) contiguous element ranges, as key-range
partitioning does. Each iteration the workers compute gradient sums over
their local batches and push each server its range of the packed gradient.
Each server folds the pushes into its range's sum as they are delivered,
in plan order (ascending worker), applies one momentum-SGD step to its
range, and the workers pull the updated ranges back. All
phases are bulk synchronous, so the ledger clock charges each phase at its
slowest node.

The schedule is written once, as data: ps_plan states one iteration as
ordered phases (compute, push, update, pull) over the live servers, those
whose range is not empty. Remainders go to the first servers, so the live
servers are a prefix and a server past the last element gets no message.
ps_traffic charges the plan to a ledger (transport.charge_plan) and sends
nothing; PsCluster executes it through the mailbox (SimTransport.run_phase)
with the ranges themselves. Each step's sends go first, then its receives
in plan order, on the calling thread.
"""

from __future__ import annotations

from itertools import accumulate

from .checkpointing import TrainResult, TrainState, start_state
from .model_partition import ConfigError, ModelSpec
from .tensor_core import (OptimizerState, block_backward, block_forward,
                          pack_vector, sgd_step, unpack_vector)
from .transport import (NetConfig, NodeId, Role, SimTransport, Tag,
                        Transfer, charge_plan)


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


def ps_plan(workers, servers, params_total: int,
            compute_time: float) -> list:
    """One PS iteration as (label, body) phases, in order.

    Every worker pushes each live server its range of the packed gradient,
    and each live server sends every worker its updated range back; the
    server index rides along as the transfer round. The compute phase
    carries compute_time seconds.
    """
    live = [(i, s, n) for i, (s, n) in
            enumerate(zip(servers, equal_split(params_total, len(servers))))
            if n]
    push = [Transfer(w, s, Tag.GRAD_PUSH, "push", i, n)
            for w in workers for i, s, n in live]
    pull = [Transfer(s, w, Tag.PARAM_PULL, "pull", i, n)
            for i, s, n in live for w in workers]
    return [("compute", compute_time), ("push", [push]), ("update", []),
            ("pull", [pull])]


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
        self.n_workers = n_workers

        start = start_state(self.layers, seed, state)
        self.iteration = start.iteration

        self.transport = SimTransport(net)
        self.worker_ids = [NodeId(Role.PS_WORKER, i) for i in range(n_workers)]
        self.server_ids = [NodeId(Role.PS_SERVER, i) for i in range(n_servers)]
        self.transport.register_all(self.worker_ids + self.server_ids)

        # each worker's flat replica, filled in place by the pull; layer views
        self._replicas = {w: pack_vector(start.params)
                          for w in self.worker_ids}
        self.worker_params = {w: unpack_vector(v, start.params)
                              for w, v in self._replicas.items()}
        # the servers' flat parameter and velocity vectors; sgd_step sees
        # each live server's range as a layer of one tensor
        self._params = pack_vector(start.params)
        self._vel = pack_vector(start.velocities)
        bounds = list(accumulate(equal_split(self._params.size, n_servers),
                                 initial=0))
        self._ranges = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])
                        if hi > lo]
        self.plan = ps_plan(self.worker_ids, self.server_ids,
                            self._params.size, float(compute_time))
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

    def _update_phase(self, sums) -> None:
        with self.transport.phase("update"):
            sgd_step([[self._params[r]] for r in self._ranges],
                     [[s] for s in sums], self.n_workers * self.spec.batch_k,
                     self._opt)

    def train(self, iterations: int) -> TrainResult:
        """Run `iterations` more iterations; may be called repeatedly."""
        losses = []
        tr, plan = self.transport, dict(self.plan)
        for _ in range(iterations):
            it = self.iteration
            tr.advance_compute(plan["compute"], "compute")
            grads, loss_sum = self._local_gradients(it)
            # each range's sum in delivery order; the first push is a
            # read-only view of its message, so later ones add out of place
            sums = [None] * len(self._ranges)
            tr.run_phase("push", plan["push"], it,
                         lambda t: grads[t.src][t.round],
                         lambda t, got: sums.__setitem__(
                             t.round, got if sums[t.round] is None
                             else sums[t.round] + got))
            self._update_phase(sums)
            tr.run_phase("pull", plan["pull"], it,
                         lambda t: self._params[self._ranges[t.round]],
                         lambda t, got: self._replicas[t.dst].__setitem__(
                             self._ranges[t.round], got))
            losses.append(loss_sum / (self.n_workers * self.spec.batch_k))
            self.iteration += 1
        return TrainResult(losses=losses, state=self.state(),
                           transport=self.transport)


def ps_traffic(spec: ModelSpec, *, n_workers: int, n_servers: int,
               iterations: int = 1, net: NetConfig | None = None,
               compute_time: float = 0.0) -> SimTransport:
    """Counted run of the push/update/pull plan for traffic accounting.

    Works for profile specs (no layers) as well as executable ones, with the
    same contiguous ranges PsCluster uses: each worker and live server
    exchange one transfer per direction carrying that server's range.
    """
    check_ps_shape(n_workers, n_servers)
    plan = ps_plan([NodeId(Role.PS_WORKER, i) for i in range(n_workers)],
                   [NodeId(Role.PS_SERVER, i) for i in range(n_servers)],
                   spec.params_total, compute_time)
    return charge_plan(plan, iterations, net)
