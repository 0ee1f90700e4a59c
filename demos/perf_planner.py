"""Plan node assignments from the closed-form iteration-time model.

Uses accelerator-class compute constants (heavy CONV step, light FC step)
to pick the best CONV/FC split for each node budget, then compares the
modeled iteration time of the layer-separated protocol against a one-server
parameter server whose other machines are all workers (perf_model.speedup).
The planner's best PS splits for a few budgets follow.
"""

import dataclasses

from stanza.model_partition import builtin_model, split
from stanza.perf_model import (assign_nodes, assign_ps, ps_iter_time,
                               speedup, stanza_iter_time,
                               v100_class_constants)


def main():
    spec = builtin_model("alexnet")
    part = split(spec)
    consts = v100_class_constants()
    print(f"{spec.name}: {part.conv_params:,} CONV params, "
          f"{part.fc_params:,} FC params, "
          f"{part.boundary_activations:,} boundary activations, "
          f"K={spec.batch_k}")
    print(f"constants: conv {consts.conv_time}s, fc {consts.fc_unit_time}s "
          f"per served batch, link {consts.bandwidth / 1e9:.0f} Gb/s\n")

    print("best split per node budget (planner + modeled times):")
    print(f"{'nodes':>6} {'conv':>5} {'fc':>4} {'iter (s)':>9} "
          f"{'samples/s':>10} {'ps iter (s)':>12} {'speedup':>8}")
    for n in range(3, 12):
        picked = assign_nodes(part, n, consts)
        st_time = stanza_iter_time(part, picked.n_conv, picked.n_fc, consts)
        ps_time = ps_iter_time(spec.params_total, n - 1, 1, consts)
        print(f"{n:>6} {picked.n_conv:>5} {picked.n_fc:>4} {st_time:>9.4f} "
              f"{picked.throughput:>10.1f} {ps_time:>12.4f} "
              f"{speedup(part, n, consts):>8.2f}")

    print("\nparameter-server splits for the same budgets:")
    for n in (4, 8, 11):
        picked = assign_ps(spec.params_total, spec.batch_k, n, consts)
        print(f"  {n} nodes -> {picked.n_workers} workers + "
              f"{picked.n_servers} servers, {picked.throughput:.1f} samples/s")

    fast = dataclasses.replace(consts, bandwidth=100e9)
    slow_pick = assign_nodes(part, 8, consts)
    fast_pick = assign_nodes(part, 8, fast)
    print(f"\nsame 8-node budget at 100 Gb/s: "
          f"({fast_pick.n_conv}, {fast_pick.n_fc}) at "
          f"{fast_pick.throughput:.1f} samples/s "
          f"vs ({slow_pick.n_conv}, {slow_pick.n_fc}) at "
          f"{slow_pick.throughput:.1f} on the slow link")


if __name__ == "__main__":
    main()
