"""Audit every byte the two protocols put on the wire.

Runs one counted iteration of each protocol on a large-model profile and
prints the ledger: per-tag payloads, per-node totals, the simulated clock,
and the headline ratios (fully-connected traffic per worker and total
bytes per epoch).
"""

from stanza.harness import ExperimentConfig, compare, execute
from stanza.model_partition import builtin_model, split
from stanza.ps_runtime import ps_traffic
from stanza.stanza_runtime import stanza_traffic
from stanza.transport import NetConfig


def show_ledger(title, report, ledger):
    print(f"{title}: {report.workers}+{report.coordinators} nodes, "
          f"one iteration")
    print(f"  simulated clock {report.logical_clock_seconds:.6f} s, "
          f"{report.total_wire_bytes:,} wire bytes")
    print("  payload by tag:")
    for tag, count in sorted(ledger.tag_payload_bytes.items(),
                             key=lambda kv: -kv[1]):
        if count:
            print(f"    {tag.value:<16} {count:>14,}")
    busiest = max(ledger.node_sent, key=ledger.node_sent.get)
    print(f"  busiest sender: {busiest} with "
          f"{ledger.node_sent[busiest]:,} bytes\n")


def main():
    spec = builtin_model("alexnet")
    part = split(spec)
    print(f"{spec.name}: {spec.params_total:,} parameters, "
          f"{part.fc_params / spec.params_total:.1%} of them FC, K={spec.batch_k}\n")

    shared = dict(model="alexnet", seed=0, iterations=1, epoch_samples=4096,
                  workers=4, coordinators=1)
    ps_cfg = ExperimentConfig(mode="ps", **shared)
    st_cfg = ExperimentConfig(mode="stanza", **shared)

    for title, cfg in (("parameter server", ps_cfg),
                       ("layer separated", st_cfg)):
        report, _ = execute(cfg)
        # re-run the counted iteration to hold the ledger for printing
        net = NetConfig(bandwidth=cfg.bandwidth)
        if cfg.mode == "ps":
            tr = ps_traffic(spec, n_workers=4, n_servers=1, net=net)
        else:
            tr = stanza_traffic(spec, n_conv=4, n_fc=1, net=net)
        show_ledger(title, report, tr.ledger)

    print("ratio table over worker counts (1 server / 1 FC worker):")
    table = compare(ps_cfg, st_cfg, worker_counts=[2, 4, 8])
    print(f"{'workers':>8} {'speedup':>9} {'fc-data':>9} {'total-data':>11}")
    for row in table.rows:
        print(f"{row.workers:>8} {row.speedup:>9.2f} "
              f"{row.fc_data_ratio:>9.1f} {row.total_data_ratio:>11.2f}")
    print("\nfc-data: per-worker per-iteration bytes moved for FC layers")
    print("total-data: all wire bytes in one epoch of "
          f"{shared['epoch_samples']} samples")


if __name__ == "__main__":
    main()
