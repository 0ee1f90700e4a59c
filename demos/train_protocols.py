"""Train one model three ways and show the parameters agree.

Runs the tiny CNN on synthetic data as a single node, as a parameter-server
cluster, and as a layer-separated cluster, all from the same seed, then
prints the loss trajectories and the largest relative parameter deviation
between every pair of runs.
"""

import numpy as np

from stanza.harness import ExperimentConfig, execute


def deviation(a, b):
    worst = 0.0
    for la, lb in zip(a.params, b.params):
        for x, y in zip(la, lb):
            scale = np.maximum(np.abs(y), 1e-8)
            worst = max(worst, float(np.max(np.abs(x - y) / scale)))
    return worst


def main():
    # two shifted Gaussian classes, so the loss has somewhere to go
    shared = dict(model="tiny_cnn", seed=11, iterations=30, lr=0.01,
                  data="separable", epoch_samples=128)
    runs = {
        "single": ExperimentConfig(mode="single", workers=4, **shared),
        "ps": ExperimentConfig(mode="ps", workers=4, coordinators=2,
                               **shared),
        "stanza": ExperimentConfig(mode="stanza", workers=4, coordinators=2,
                                   **shared),
    }

    reports, states = {}, {}
    for name, cfg in runs.items():
        reports[name], states[name] = execute(cfg)

    print("loss every 5 iterations (same data, same seed):")
    print(f"{'iter':>6} {'single':>10} {'ps':>10} {'stanza':>10}")
    for it in range(0, 30, 5):
        row = " ".join(f"{reports[n].losses[it]:>10.4f}" for n in runs)
        print(f"{it:>6} {row}")

    print("\nfinal losses:",
          {n: round(reports[n].final_loss, 6) for n in runs})

    print("\nmax relative parameter deviation:")
    print(f"  ps     vs single: {deviation(states['ps'], states['single']):.3e}")
    print(f"  stanza vs single: {deviation(states['stanza'], states['single']):.3e}")
    print(f"  ps     vs stanza: {deviation(states['ps'], states['stanza']):.3e}")

    print("\nbytes on the wire (30 iterations):")
    for name in ("ps", "stanza"):
        rep = reports[name]
        print(f"  {name:<7} {rep.total_wire_bytes:>12,} bytes, "
              f"simulated clock {rep.logical_clock_seconds * 1e3:.3f} ms")
    print("  single            0 bytes (no network)")


if __name__ == "__main__":
    main()
