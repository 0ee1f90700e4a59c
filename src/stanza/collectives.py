"""Group collectives over the simulated transport.

allreduce_sum uses recursive doubling: in round i each member exchanges its
accumulated block sum with the member 2^(i-1) ranks away, so a power-of-two
group of n needs log2(n) rounds, each moving the full tensor per node.

Groups that are not a power of two run the surplus protocol, the fixed
non-power-of-two step of Rabenseifner & Träff (EuroPVM/MPI 2004): with
r = n - 2^floor(log2 n), member 2i+1 sends its tensor to member 2i for
i < r (one extra round up front), the remaining power-of-two core runs
recursive doubling, and each donor 2i returns the finished result to member
2i+1 (one extra round at the end). Total rounds:

    r(1) = 0
    r(n) = log2 n                  when n is a power of two
    r(n) = floor(log2 n) + 2       otherwise

Summation order is canonical: each surplus contribution folds into its donor
as donor + surplus, and each doubling round adds the lower-rank block before
the upper-rank block. Every member therefore computes the bit-identical
aligned binary tree sum, and the fold is a fixed function of the group.

The schedule is written once, in _rounds: the transfers
(src, dst, dst_first) of each surplus, doubling and return round. The
runtimes' plans carry it as allreduce_steps, one step per round, and one
executor runs it on float32 arrays: exchange hands the steps to
SimTransport.run_phase, which sends each step's transfers and then delivers
them in plan order, and folds each received value with fold.
StanzaCluster's exchange phase and allreduce_group, one group on its own
phase, both call it, so a transfer that never arrived raises
transport.MissingSource at once. allreduce_sum (float32 payloads) and
allreduce_counted (size-only messages) run one member's share of the same
rounds, each member on its own thread; they stay only because the
benchmark's tracer binds them (ROADMAP item 2). All give the same messages
and bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import (NodeId, SimTransport, Tag, Transfer,
                        payload_message)


@dataclass(frozen=True)
class Group:
    """An ordered set of distinct members; order defines ranks."""
    members: tuple[NodeId, ...]

    def __post_init__(self):
        if len(set(self.members)) != len(self.members):
            raise ValueError("group members must be distinct")
        if not self.members:
            raise ValueError("empty group")


def round_count(n: int) -> int:
    """Allreduce rounds for a group of n members."""
    if n < 1:
        raise ValueError("group size must be positive")
    if n == 1:
        return 0
    m = n.bit_length() - 1
    return m if n == (1 << m) else m + 2


def surplus_protocol(group: Group):
    """The fixed surplus rule: member 2i+1 folds into member 2i for i < r,
    where r = |group| - 2^floor(log2 |group|).

    Returns (surplus, core, donors): surplus and core are member tuples in
    group order (core is members 0, 2, ..., 2r-2 followed by 2r, ..., n-1,
    a power-of-two count), donors maps each surplus member to its core
    donor. A power-of-two group returns ((), group.members, {}).
    """
    members = group.members
    r = len(members) - (1 << (len(members).bit_length() - 1))
    donors, surplus = members[0:2 * r:2], members[1:2 * r:2]
    return surplus, donors + members[2 * r:], dict(zip(surplus, donors))


def _rounds(group: Group):
    """The allreduce schedule: (round label, transfers) in execution order.

    A transfer (src, dst, dst_first) ships src's current value to dst, which
    replaces its own value with it when dst_first is None and otherwise adds
    it, its own value first when dst_first is True (dst has the lower group
    index). Labels are 0 for the surplus round, 1..m for the doubling rounds
    over surplus_protocol's core and m + 1 for the return round; a power-of-two
    group has only the doubling rounds, a group of one has none.
    """
    _, core, donors = surplus_protocol(group)
    m = len(core).bit_length() - 1
    rounds = []
    if donors:
        rounds.append((0, [(s, d, True) for s, d in donors.items()]))
    for r in range(m):
        bit = 1 << r
        rounds.append((r + 1, [(node, core[rank ^ bit], rank & bit != 0)
                               for rank, node in enumerate(core)]))
    if donors:
        rounds.append((m + 1, [(d, s, None) for s, d in donors.items()]))
    return rounds


def allreduce_steps(group: Group, op: str, elements: int) -> list:
    """The allreduce of `elements` values per member as plan steps: one
    step per _rounds round, each transfer with its fold order."""
    return [[Transfer(src, dst, Tag.ALLREDUCE_CHUNK, op, rnd, elements,
                      dst_first) for src, dst, dst_first in transfers]
            for rnd, transfers in _rounds(group)]


def fold(value: np.ndarray, got: np.ndarray, dst_first: bool | None):
    """dst's new value after it receives `got` in the given fold order."""
    if dst_first is None:
        return got
    return value + got if dst_first else got + value


def exchange(transport: SimTransport, label: str, steps, iteration: int,
             acc: dict) -> None:
    """Run allreduce plan steps as one phase (SimTransport.run_phase): each
    transfer ships acc[src], and dst folds what it gets into acc[dst] in the
    transfer's fold order."""
    transport.run_phase(label, steps, iteration, lambda t: acc[t.src],
                        lambda t, got: acc.__setitem__(
                            t.dst, fold(acc[t.dst], got, t.dst_first)))


def allreduce_group(transport: SimTransport, group: Group, values: dict, *,
                    op: str = "allreduce") -> dict:
    """Sum every member's float32 array across the group on the calling
    thread, as one phase labelled `op` (exchange). Returns member -> summed
    array, bit-identical to allreduce_sum."""
    acc = {m: np.ascontiguousarray(values[m], dtype=np.float32)
           for m in group.members}
    steps = allreduce_steps(group, op, acc[group.members[0]].size)
    exchange(transport, op, steps, 0, acc)
    return {m: v.copy() for m, v in acc.items()}


def _transfer(src: NodeId, dst: NodeId, value, op: str, rnd: int):
    return payload_message(src, dst, Tag.ALLREDUCE_CHUNK, value, op=op,
                           round=rnd)


def _deliver(transport: SimTransport, dst: NodeId, src: NodeId, value,
             dst_first: bool | None, timeout: float | None):
    """Receive src's transfer at dst and return dst's new value."""
    msg = transport.recv(dst, tag=Tag.ALLREDUCE_CHUNK, src=src,
                         timeout=timeout)
    if isinstance(value, int):
        return value
    return fold(value, msg.tensor().reshape(value.shape), dst_first)


def _result(value):
    return value.copy() if isinstance(value, np.ndarray) else None


def _allreduce_member(transport: SimTransport, group: Group, me: NodeId,
                      value, op: str, timeout: float | None):
    """One member's part of the schedule, for a thread per member."""
    for rnd, transfers in _rounds(group):
        for src, dst, _ in transfers:
            if src == me:
                transport.send(_transfer(me, dst, value, op, rnd))
        for src, dst, dst_first in transfers:
            if dst == me:
                value = _deliver(transport, me, src, value, dst_first,
                                 timeout)
    return _result(value)


def allreduce_sum(transport: SimTransport, group: Group, me: NodeId,
                  value: np.ndarray, *, op: str = "allreduce",
                  timeout: float | None = None) -> np.ndarray:
    """Sum `value` across the group; every member returns the identical array.

    Must be called collectively by every member, each on its own thread.
    Any member arrival order is deadlock-free: each round sends before it
    receives and the transport buffers. Rounds are labeled on the ledger
    under `op` for round counting.
    """
    return _allreduce_member(transport, group, me,
                             np.ascontiguousarray(value, dtype=np.float32),
                             op, timeout)


def allreduce_counted(transport: SimTransport, group: Group, me: NodeId,
                      elements: int, *, op: str = "allreduce",
                      timeout: float | None = None) -> None:
    """Size-only allreduce_sum: the same transfers, no payload and no math."""
    _allreduce_member(transport, group, me, int(elements), op, timeout)
