"""Simulated in-process network with byte accounting and a logical clock.

Each protocol states one iteration as a plan: ordered phases, each a
compute time or steps of Transfers (src, dst, tag, op, round, elements),
the same in every iteration. The plan has two readers. charge_plan charges
it to a TrafficLedger for counted runs, and builds no Message, queues
nothing and calls neither send() nor recv(). SimTransport.run_phase
executes one phase for numeric runs: per step, every transfer is sent,
then each is taken in plan order.

send() queues the message at its destination; recv() takes the earliest
queued message matching a (tag, source) filter. Delivery per (src, dst)
pair is FIFO; the filter skips non-matching queued messages without
consuming them. Phases run on the calling thread and receive with
timeout=0, so a message that was never sent raises at once, and phase()
shuts the transport down so the failed phase's leftovers are never read.
Every method holds one plain lock. recv() with a positive timeout waits on
a condition built on that lock, for callers that run one thread per node,
such as run_node_threads; send() notifies only while a receiver waits.

Time is logical, not wall-clock. When a phase closes, through
TrafficLedger.close_phase for both readers, the clock advances by the
phase's bottleneck transfer time, from per-node loads over its transfers:

    elapsed = max over nodes of max(sent payload bytes, received payload
              bytes) * 8 / bandwidth, plus one per_message_latency if the
              phase moved any message.

A message sent between phases counts toward the next phase to close.
Send and receive directions are metered independently (full duplex). The
fixed 32-byte per-message header is tracked in the ledger's byte counters
but excluded from transfer-time arithmetic and from tag-filtered traffic
metrics, which count tensor payload bytes only. For tensor-bearing tags
len(payload) == 4 * payload_elements; payload_message also makes size-only
messages (payload None) from an element count.
"""

from __future__ import annotations

import csv
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Iterable, NamedTuple

import numpy as np

HEADER_BYTES = 32
BYTES_PER_ELEMENT = 4


class Role(str, Enum):
    CONV_WORKER = "conv"
    FC_WORKER = "fc"
    PS_SERVER = "server"
    PS_WORKER = "worker"


class NodeId(NamedTuple):
    """A node's address. Ids hash as plain tuples and sort by role value,
    then index, so every ledger export lists nodes in one order."""
    role: Role
    index: int

    def __str__(self):
        return f"{self.role.value}{self.index}"


class Tag(str, Enum):
    ACTIVATIONS = "Activations"
    BOUNDARY_GRADS = "BoundaryGrads"
    GRAD_PUSH = "GradPush"
    PARAM_PULL = "ParamPull"
    ALLREDUCE_CHUNK = "AllreduceChunk"
    CHECKPOINT = "Checkpoint"
    CONTROL = "Control"


TENSOR_TAGS = {Tag.ACTIVATIONS, Tag.BOUNDARY_GRADS, Tag.GRAD_PUSH,
               Tag.PARAM_PULL, Tag.ALLREDUCE_CHUNK}


class UnknownNode(KeyError):
    pass


class Timeout(TimeoutError):
    pass


class MissingSource(Timeout):
    """An expected upstream node never delivered its payload."""


class ClusterShutDown(RuntimeError):
    pass


class LedgerInvariant(AssertionError):
    """The ledger broke an accounting invariant: bytes not conserved, or
    phases and bytes that do not divide evenly into iterations."""


@dataclass(slots=True)
class Message:
    src: NodeId
    dst: NodeId
    tag: Tag
    payload_elements: int
    payload: bytes | None = None
    shape: tuple[int, ...] | None = None
    iteration: int | None = None
    op: str | None = None      # collective / protocol op label for the ledger
    round: int | None = None   # collective round index

    @property
    def payload_bytes(self) -> int:
        if self.payload is not None:
            return len(self.payload)
        return BYTES_PER_ELEMENT * self.payload_elements

    def tensor(self) -> np.ndarray:
        if self.payload is None:
            raise ValueError("size-only message has no tensor payload")
        a = np.frombuffer(self.payload, dtype="<f4")
        return a.reshape(self.shape) if self.shape is not None else a


class Transfer(NamedTuple):
    """One planned message of `elements` float32 values. An allreduce
    transfer's dst_first is its fold order (collectives.fold)."""
    src: NodeId
    dst: NodeId
    tag: Tag
    op: str
    round: int | None
    elements: int
    dst_first: bool | None = None


def payload_message(src: NodeId, dst: NodeId, tag: Tag, value, *,
                    iteration: int | None = None, op: str | None = None,
                    round: int | None = None) -> Message:
    """A size-only message for an element count, else a float32 tensor
    message for an array."""
    if isinstance(value, (int, np.integer)):
        return Message(src, dst, tag, int(value), None, None, iteration, op,
                       round)
    a = np.ascontiguousarray(value, dtype=np.float32)
    return Message(src, dst, tag, a.size, a.tobytes(), a.shape, iteration, op,
                   round)


@dataclass
class NetConfig:
    bandwidth: float = 10e9          # bits/s, per node per direction
    per_message_latency: float = 0.0  # seconds, charged once per phase
    default_timeout: float = 30.0    # wall seconds a blocking recv waits


@dataclass
class PhaseRecord:
    label: str
    elapsed: float


@dataclass(slots=True)
class MessageRecord:
    phase: str
    phase_index: int
    src: NodeId
    dst: NodeId
    tag: Tag
    op: str | None
    round: int | None
    payload_bytes: int


class TrafficLedger:
    """Byte counters, per-message log, phase log, and the logical clock.

    Counters are wire bytes (payload + 32-byte header) and only ever grow.
    Accounting happens at delivery time, so total sent == total received at
    every instant, not just at barriers. Metrics queries (bytes_for_tags)
    count payload bytes only; SimTransport.end_phase reads `messages` too.
    The phase index of a record is the number of phases closed before it.
    """

    def __init__(self):
        self.node_sent: dict[NodeId, int] = {}
        self.node_received: dict[NodeId, int] = {}
        self.tag_payload_bytes: dict[Tag, int] = {t: 0 for t in Tag}
        self.tag_messages: dict[Tag, int] = {t: 0 for t in Tag}
        self.logical_clock = 0.0
        self.phases: list[PhaseRecord] = []
        self.messages: list[MessageRecord] = []

    def record(self, phase: str, phase_index: int, rows) -> None:
        """Log and count delivered messages, one per row (src, dst, tag, op,
        round, payload bytes): a MessageRecord's last six fields."""
        sent, received = self.node_sent, self.node_received
        tag_bytes, tag_messages = self.tag_payload_bytes, self.tag_messages
        for src, dst, tag, _, _, nbytes in rows:
            sent[src] = sent.get(src, 0) + nbytes + HEADER_BYTES
            received[dst] = received.get(dst, 0) + nbytes + HEADER_BYTES
            tag_bytes[tag] += nbytes
            tag_messages[tag] += 1
        self.messages.extend([MessageRecord(phase, phase_index, *row)
                              for row in rows])

    def close_phase(self, label: str, elapsed: float) -> float:
        """Log one phase and advance the clock by its elapsed seconds."""
        self.logical_clock += elapsed
        self.phases.append(PhaseRecord(label, elapsed))
        return elapsed

    # -- queries ------------------------------------------------------------

    @property
    def total_sent(self) -> int:
        return sum(self.node_sent.values())

    @property
    def total_received(self) -> int:
        return sum(self.node_received.values())

    def bytes_for_tags(self, tags: Iterable[Tag]) -> int:
        return sum(self.tag_payload_bytes[t] for t in tags)

    @property
    def total_payload_bytes(self) -> int:
        return self.bytes_for_tags(Tag)

    def rounds_for_op(self, op: str) -> list[int]:
        """Sorted distinct round indices recorded under a collective op label."""
        return sorted({m.round for m in self.messages
                       if m.op == op and m.round is not None})

    def assert_conserved(self) -> None:
        sent, received = self.total_sent, self.total_received
        if sent != received:
            raise LedgerInvariant(
                f"byte conservation violated: {sent} != {received}")

    # -- exports ------------------------------------------------------------

    def export_csv(self, path) -> None:
        """One row per message: phase, src, dst, tag, bytes, elapsed_s.

        Rows are sorted on (phase index, src, dst, tag), ties kept in send
        order, so the file is byte-identical across reruns. elapsed_s is the
        elapsed time of the phase the message belongs to.
        """
        phase_elapsed = {i: p.elapsed for i, p in enumerate(self.phases)}
        rows = sorted(self.messages,
                      key=lambda m: (m.phase_index, m.src, m.dst, m.tag))
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["phase", "src", "dst", "tag", "bytes", "elapsed_s"])
            for m in rows:
                writer.writerow([m.phase, str(m.src), str(m.dst), m.tag.value,
                                 m.payload_bytes,
                                 repr(phase_elapsed.get(m.phase_index, 0.0))])

    def summary(self) -> dict:
        return {
            "logical_clock_s": self.logical_clock,
            "total_wire_bytes_sent": self.total_sent,
            "total_wire_bytes_received": self.total_received,
            "total_payload_bytes": self.total_payload_bytes,
            "per_node": {
                str(n): {"sent": self.node_sent.get(n, 0),
                         "received": self.node_received.get(n, 0)}
                for n in sorted(set(self.node_sent) | set(self.node_received))
            },
            "per_tag_payload_bytes": {t.value: self.tag_payload_bytes[t]
                                      for t in Tag if self.tag_messages[t]},
            "phases": len(self.phases),
            "messages": len(self.messages),
        }

    def export_summary_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def phase_elapsed(transfers: Iterable[tuple[NodeId, NodeId, int]],
                  net: NetConfig) -> float:
    """Bottleneck time for a set of concurrent transfers (src, dst, bytes).

    Every node serializes its own sends at `bandwidth` and its receives
    likewise; the phase takes as long as the busiest direction of the busiest
    node, whose load is divided once (x * 8 / B rounds monotonically).
    """
    sent: dict[NodeId, int] = {}
    received: dict[NodeId, int] = {}
    for src, dst, nbytes in transfers:
        sent[src] = sent.get(src, 0) + nbytes
        received[dst] = received.get(dst, 0) + nbytes
    if not sent:
        return 0.0
    load = max(max(sent.values()), max(received.values()))
    return load * 8.0 / net.bandwidth + net.per_message_latency


class SimTransport:
    """Shared mailbox network for one simulated cluster."""

    def __init__(self, net: NetConfig | None = None):
        self.net = net or NetConfig()
        self.ledger = TrafficLedger()
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._waiters = 0   # receivers blocked in recv's wait
        self._queues: dict[NodeId, deque[Message]] = {}
        self._shutdown = False
        self._phase = "setup"
        self._phase_start = 0   # first ledger record the open phase charges

    # -- membership ----------------------------------------------------------

    def register(self, node: NodeId) -> None:
        with self._lock:
            if node in self._queues:
                raise ValueError(f"{node} already registered")
            self._queues[node] = deque()

    def register_all(self, nodes: Iterable[NodeId]) -> None:
        for n in nodes:
            self.register(n)

    # -- messaging ------------------------------------------------------------

    def send(self, msg: Message) -> None:
        nbytes = msg.payload_bytes
        if msg.payload is not None and msg.tag in TENSOR_TAGS:
            if nbytes != BYTES_PER_ELEMENT * msg.payload_elements:
                raise ValueError(
                    f"{msg.tag.value} payload is {nbytes} bytes for "
                    f"{msg.payload_elements} elements")
        with self._lock:
            if self._shutdown:
                raise ClusterShutDown("transport is shut down")
            if msg.src not in self._queues:
                raise UnknownNode(f"unregistered sender {msg.src}")
            q = self._queues.get(msg.dst)
            if q is None:
                raise UnknownNode(f"unregistered destination {msg.dst}")
            self.ledger.record(self._phase, len(self.ledger.phases),
                               [(msg.src, msg.dst, msg.tag, msg.op, msg.round,
                                 nbytes)])
            q.append(msg)
            if self._waiters:
                self._cv.notify_all()

    def recv(self, dst: NodeId, tag: Tag | None = None,
             src: NodeId | None = None, timeout: float | None = None) -> Message:
        """Earliest queued message for dst matching the tag/source filter.

        Looks in dst's queue first, under the transport's one lock. Without
        a match it waits up to `timeout` wall seconds (default
        NetConfig.default_timeout) on the condition built on that lock,
        counted as a waiter so that send() notifies it, then raises Timeout;
        timeout=0 raises at once.
        """
        with self._lock:
            q = self._queues.get(dst)
            if q is None:
                raise UnknownNode(f"unregistered receiver {dst}")
            deadline = None
            while True:
                if self._shutdown:
                    raise ClusterShutDown("transport is shut down")
                for i, m in enumerate(q):
                    if tag is not None and m.tag is not tag:
                        continue
                    if src is not None and m.src != src:
                        continue
                    del q[i]
                    return m
                if deadline is None:
                    if timeout is None:
                        timeout = self.net.default_timeout
                    deadline = time.monotonic() + timeout
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Timeout(f"{dst} timed out waiting for "
                                  f"tag={tag and tag.value} src={src}")
                self._waiters += 1
                try:
                    self._cv.wait(remaining)
                finally:
                    self._waiters -= 1

    def shutdown(self) -> None:
        with self._lock:
            self._shutdown = True
            self._cv.notify_all()

    # -- phases / logical clock ----------------------------------------------

    def begin_phase(self, label: str) -> None:
        with self._lock:
            self._phase = label

    def end_phase(self) -> float:
        """Close the current phase, advance the clock, return elapsed seconds.
        The phase holds every ledger record since the last end_phase, so a
        send outside a bracket is charged here, once."""
        with self._lock:
            ledger = self.ledger
            loads = map(attrgetter("src", "dst", "payload_bytes"),
                        ledger.messages[self._phase_start:])
            elapsed = ledger.close_phase(self._phase,
                                         phase_elapsed(loads, self.net))
            self._phase = f"phase{len(ledger.phases)}"
            self._phase_start = len(ledger.messages)
            return elapsed

    @contextmanager
    def phase(self, label: str):
        """Bracket one phase that runs on the calling thread.

        A failure inside shuts the transport down, as run_node_threads does,
        so no later phase reads a message the failed one left queued.
        """
        self.begin_phase(label)
        try:
            yield
        except BaseException:
            self.shutdown()
            raise
        self.end_phase()

    def advance_compute(self, seconds: float, label: str) -> float:
        """Charge injected compute time as a zero-byte phase."""
        if seconds < 0:
            raise ValueError("compute time must be nonnegative")
        with self._lock:
            return self.ledger.close_phase(label, seconds)

    def take(self, dst: NodeId, tag: Tag, src: NodeId,
             iteration: int | None = None) -> Message:
        """The message src queued for dst under tag in this iteration;
        MissingSource at once if none was sent."""
        try:
            msg = self.recv(dst, tag=tag, src=src, timeout=0)
        except Timeout as exc:
            raise MissingSource(f"{dst} got no {tag.value} from {src} at "
                                f"iteration {iteration}") from exc
        if msg.iteration != iteration:
            raise MissingSource(f"{src} delivered iteration {msg.iteration}, "
                                f"expected {iteration}")
        return msg

    def run_phase(self, label: str, steps, iteration: int, value,
                  deliver) -> None:
        """Execute one plan phase: per step, each transfer t ships value(t)
        as a float32 tensor (send() checks its size against the plan), then
        each is taken in plan order and handed to deliver(t, tensor)."""
        with self.phase(label):
            for step in steps:
                for t in step:
                    a = np.ascontiguousarray(value(t), dtype=np.float32)
                    self.send(Message(t.src, t.dst, t.tag, t.elements,
                                      a.tobytes(), a.shape, iteration, t.op,
                                      t.round))
                for t in step:
                    deliver(t, self.take(t.dst, t.tag, t.src,
                                         iteration).tensor())


def charge_plan(plan, iterations: int,
                net: NetConfig | None = None) -> SimTransport:
    """A counted run: charge `iterations` repeats of a plan's (label, body)
    phases to a fresh ledger, with no Message, send or recv. A body is a
    compute time in seconds or a list of steps of Transfers, recorded in
    plan order at 4 bytes per element. Each phase's time is computed once,
    then charged once per iteration, one iteration at a time."""
    tr = SimTransport(net)
    ledger, phases = tr.ledger, []
    for label, body in plan:
        rows = []
        if isinstance(body, list):
            rows = [(t.src, t.dst, t.tag, t.op, t.round,
                     BYTES_PER_ELEMENT * t.elements)
                    for step in body for t in step]
            body = phase_elapsed([(r[0], r[1], r[5]) for r in rows], tr.net)
        phases.append((label, rows, body))
    for _ in range(iterations):
        for label, rows, elapsed in phases:
            ledger.record(label, len(ledger.phases), rows)
            ledger.close_phase(label, elapsed)
    return tr


def run_node_threads(transport: SimTransport, tasks: dict[NodeId, "object"],
                     join_timeout: float = 120.0) -> dict[NodeId, object]:
    """Run one thread per node, collect results, propagate the first failure.

    tasks maps NodeId -> zero-arg callable. On any node failure the transport
    is shut down so peers blocked in recv unwind instead of hanging, then the
    original exception is re-raised in the caller.
    """
    results: dict[NodeId, object] = {}
    errors: list[tuple[NodeId, BaseException]] = []
    lock = threading.Lock()

    def runner(node: NodeId, fn) -> None:
        try:
            out = fn()
            with lock:
                results[node] = out
        except BaseException as exc:  # noqa: BLE001 - must not lose node errors
            with lock:
                errors.append((node, exc))
            transport.shutdown()

    threads = [threading.Thread(target=runner, args=(node, fn),
                                name=f"node-{node}", daemon=True)
               for node, fn in tasks.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(join_timeout)
        if t.is_alive():
            transport.shutdown()
            raise Timeout(f"node thread {t.name} failed to finish")
    if errors:
        # first recorded failure is the root cause; ClusterShutDown on peers
        # is just collateral from our own shutdown() call
        real = [e for e in errors if not isinstance(e[1], ClusterShutDown)]
        _, exc = (real or errors)[0]
        raise exc
    return results
