"""Watch the allreduce's round structure change with group size.

Sums a random vector across groups of 2..12 nodes, verifies every member
holds the exact total, and prints the round count and per-member traffic.
Powers of two finish in log2(n) rounds; other sizes pay two extra rounds
to fold the surplus members in and fan the result back out.
"""

import numpy as np

from stanza.collectives import Group, allreduce_group, round_count
from stanza.transport import NodeId, Role, SimTransport


def run_group(n, elements=4096):
    tr = SimTransport()
    nodes = tuple(NodeId(Role.CONV_WORKER, i) for i in range(n))
    tr.register_all(nodes)
    group = Group(nodes)
    rng = np.random.Generator(np.random.PCG64(n))
    # integer payloads so float32 addition is exact in any order
    values = {m: rng.integers(-50, 51, size=elements).astype(np.float32)
              for m in nodes}
    results = allreduce_group(tr, group, values)

    oracle = np.sum(np.stack(list(values.values())), axis=0,
                    dtype=np.float32)
    assert all(np.array_equal(results[m], oracle) for m in nodes)
    rounds = len(tr.ledger.rounds_for_op("allreduce"))
    busiest = max(tr.ledger.node_sent.values())
    return rounds, busiest, tr.ledger.logical_clock


def main():
    print("allreduce of a 4096-element float32 vector, 10 Gb/s links")
    print(f"{'nodes':>6} {'rounds':>7} {'expected':>9} {'busiest-node bytes':>19} "
          f"{'clock (us)':>11}")
    for n in range(2, 13):
        rounds, busiest, clock = run_group(n)
        marker = "power of two" if n & (n - 1) == 0 else ""
        print(f"{n:>6} {rounds:>7} {round_count(n):>9} {busiest:>19,} "
              f"{clock * 1e6:>11.2f}  {marker}")
    print("\nevery member finished with the exact integer sum")


if __name__ == "__main__":
    main()
