"""Host-time benchmark of the stanza simulator.

Run from the repository root:

    python3 perfbench/run.py --workload numeric_conv --seed 1 --seconds 20 --trace 0

It imports the package from src/ next to this directory, runs one workload
as a single-client closed loop of passes for --seconds, checks every
output, and prints one JSON result as the last line of stdout.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes, reports per-layer metrics per traced pass and the
tracing overhead, and writes the first traced pass's spans as Trace Event
Format JSON. Full records and traces go to perfbench/out/. The exit code
is 1 if any check failed, 2 if the package is missing. perfbench/README.md
describes the workloads, the metrics and which layer moves which metric.
"""

import time

_START = time.perf_counter()  # workload start, before importing stanza

import argparse
import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_PROBES = 8  # extra fresh-process set-ups; setup_s is the median of 9

END_TO_END_UNITS = {
    "samples_per_s": "1/s", "iter_ms_p50": "ms", "iter_ms_p90": "ms",
    "peak_rss_mb": "MB", "setup_s": "s", "success_rate": "ratio",
}
KINDS = ("Conv2d", "MaxPool2d", "ReLU", "FullyConnected",
         "SoftmaxCrossEntropy")
# span name -> reported suffixes; "ms" is total span time, "self_ms" the span
# minus its children, "wait_ms" the summed time node threads spent in recv
TIMED_SPANS = {
    **{f"tensor_core.{d}.{k}": ("calls", "ms")
       for d in ("forward", "backward") for k in KINDS},
    "tensor_core.sgd_step": ("calls", "ms"),
    "tensor_core.pack_vector": ("calls", "ms"),
    "tensor_core.unpack_vector": ("calls", "ms"),
    "transport.send": ("calls", "ms"),
    "transport.recv": ("calls", "wait_ms"),
    "transport.run_node_threads": ("calls", "ms"),
    "collectives.allreduce_sum": ("calls", "ms"),
    "collectives.allreduce_counted": ("calls", "ms"),
    "checkpointing.state_to_bytes": ("calls", "ms"),
    "checkpointing.state_from_bytes": ("calls", "ms"),
    "checkpointing.param_digest": ("calls", "ms"),
    "checkpointing.save_state": ("calls", "ms"),
    "checkpointing.load_state": ("calls", "ms"),
    "stanza_runtime.StanzaCluster.train": ("calls", "self_ms"),
    "stanza_runtime.StanzaCluster.checkpoint": ("calls", "self_ms"),
    "stanza_runtime.stanza_traffic": ("calls", "self_ms"),
    "ps_runtime.PsCluster.train": ("calls", "self_ms"),
    "ps_runtime.ps_traffic": ("calls", "self_ms"),
    "harness.batch_fn": ("calls", "ms"),
    "harness.execute": ("calls", "ms"),
    "harness.compare": ("calls", "ms"),
    "perf_model.assign_nodes": ("calls", "ms"),
    "perf_model.assign_ps": ("calls", "ms"),
    "perf_model.stanza_iter_time": ("calls", "ms"),
    "perf_model.ps_iter_time": ("calls", "ms"),
    "model_partition.split": ("calls", "ms"),
    "model_partition.builtin_model": ("calls", "ms"),
    "cli.main": ("calls", "ms"),
}
TRACE_COUNTS = ("transport.threads_started", "transport.phases",
                "checkpointing.bytes_written")
LEDGER = (("ledger.messages", "count"), ("ledger.wire_bytes", "B"),
          ("ledger.phases", "count"), ("ledger.logical_clock_s", "sim_s"))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, suffixes in TIMED_SPANS.items():
        for suffix in suffixes:
            units[f"{span}.{suffix}"] = "count" if suffix == "calls" else "ms"
    units.update({name: "B" if name.endswith("bytes_written") else "count"
                  for name in TRACE_COUNTS})
    units.update(dict(LEDGER))
    units.update({"trace.spans": "count", "trace.overhead_ms": "ms",
                  "trace.overhead_pct": "%", "error_rate": "ratio"})
    return units


def host_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("numeric_conv", "numeric_wide", "counted_sweep"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, print the set-up seconds and exit")
    return p.parse_args(argv)


def import_workloads():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "stanza" / "__init__.py").is_file():
        return None
    # the seed reaches the program only through configs and batch streams
    os.environ.pop("STANZA_SEED", None)
    # One BLAS thread: on a small host, idle-spinning BLAS workers compete
    # with the simulator's node threads and make host times erratic.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import stanza
    if Path(stanza.__file__).resolve().parent != SRC / "stanza":
        return None
    import workloads
    return workloads


def setup_probes(args) -> list[float]:
    """Set-up seconds of fresh processes, one after another."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def run_passes(workload, args, tracer):
    """Closed loop of passes until --seconds have passed.

    Without a tracer every pass is timed plainly. With one, passes
    alternate untraced and traced, starting untraced, and at least one of
    each runs. The first pass is prepared during set-up; later passes are
    prepared inside their own wall time. Returns (setup seconds,
    [(pass result or None if it raised, wall s, traced)], timed-loop wall
    seconds, per traced pass (span summary, counts, span count), the first
    traced pass's spans).
    """
    run = workload.prepare()
    setup_s = time.perf_counter() - _START
    loop_start = time.perf_counter()
    passes, aggregates, first_spans = [], [], None
    traced = False
    while True:
        t = time.perf_counter()
        try:
            result = run()
        except Exception:
            traceback.print_exc()
            result = None
        finally:
            if traced:
                tracer.uninstall()
        passes.append((result, time.perf_counter() - t, traced))
        if traced:
            spans, counts, summary = tracer.drain()
            aggregates.append((summary, counts, len(spans)))
            if first_spans is None:
                first_spans = spans
        if result is None or result.failed:
            break
        if (time.perf_counter() - loop_start >= args.seconds
                and (tracer is None or aggregates)):
            break
        traced = tracer is not None and not traced
        if traced:
            tracer.install()
        run = functools.partial(fresh_pass, workload,
                                tracer if traced else None)
    loop_wall = time.perf_counter() - loop_start
    return setup_s, passes, loop_wall, aggregates, first_spans


def fresh_pass(workload, tracer):
    return workload.prepare(tracer)()


def account(passes):
    """(attempted ops, failed ops, failure notes) over all passes.

    A pass that raised fails all its ops; a pass whose ledger counts or
    output digests differ from the first pass's fails all its ops too,
    since every pass replays the same inputs.
    """
    ops_per_pass = len(next((r.ops for r, _, _ in passes if r), ())) or 1
    attempted = failed = 0
    notes = []
    first = next((r for r, _, _ in passes if r), None)
    for i, (r, _, _) in enumerate(passes):
        if r is None:
            attempted += ops_per_pass
            failed += ops_per_pass
            notes.append(f"pass {i}: raised")
            continue
        attempted += len(r.ops)
        if (r.ledger, r.digest) != (first.ledger, first.digest):
            failed += len(r.ops)
            notes.append(f"pass {i}: ledger {r.ledger} or digest differs "
                         f"from pass 0 {first.ledger}")
            continue
        failed += len(r.failed)
        notes.extend(f"pass {i}: {op}: {why}" for op, why in r.failed.items())
    return attempted, failed, notes


def end_to_end(workload, args, setup_s, passes, loop_wall, attempted, failed):
    results = [r for r, _, _ in passes if r]
    p50, p90, n_iter = workload.quantiles(results)
    setups = [setup_s] + setup_probes(args)
    values = {
        "samples_per_s": sum(r.samples for r in results) / loop_wall,
        "iter_ms_p50": p50 * 1e3,
        "iter_ms_p90": p90 * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "setup_s": statistics.median(setups),
        "success_rate": 1.0 - failed / attempted,
    }
    detail = {"iter_samples": n_iter, "setup_samples_s": setups}
    return values, detail


def per_layer(passes, aggregates, attempted, failed):
    totals = dict.fromkeys(per_layer_units(), 0)
    for summary, counts, n_spans in aggregates:
        for span, suffixes in TIMED_SPANS.items():
            row = summary.get(span, {})
            for suffix in suffixes:
                key = "ms" if suffix == "wait_ms" else suffix
                totals[f"{span}.{suffix}"] += row.get(key, 0)
        for name in TRACE_COUNTS:
            totals[name] += counts.get(name, 0)
        totals["trace.spans"] += n_spans
    values = {name: total / len(aggregates) for name, total in totals.items()}
    ledger = next(r.ledger for r, _, _ in passes if r)
    for (name, _), value in zip(LEDGER, ledger):
        values[name] = value
    plain = statistics.median(w for r, w, t in passes if r and not t)
    traced = statistics.median(w for r, w, t in passes if r and t)
    values["trace.overhead_ms"] = (traced - plain) * 1e3
    values["trace.overhead_pct"] = (traced - plain) / plain * 100.0
    values["error_rate"] = failed / attempted
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    if workloads is None:
        print(f"perfbench: no stanza package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    if args.setup_probe:
        workload.prepare()
        print(repr(time.perf_counter() - _START))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.workload)
    setup_s, passes, loop_wall, aggregates, spans = run_passes(
        workload, args, tracer)
    attempted, failed, notes = account(passes)
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    ok = failed == 0 and all(r for r, _, _ in passes)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(), "loop_wall_s": loop_wall,
              "pass_walls_s": [wall for _, wall, _ in passes],
              "failures": notes}
    first = next((r for r, _, _ in passes if r), None)
    values, units = {}, {}
    if first is not None:
        record["ledger_per_pass"] = dict(zip((n for n, _ in LEDGER),
                                             first.ledger))
        record["oracle_final_max_abs_dev"] = first.oracle_dev
        if not args.trace:
            values, detail = end_to_end(workload, args, setup_s, passes,
                                        loop_wall, attempted, failed)
            units = END_TO_END_UNITS
            record.update(detail)
        elif aggregates:
            values = per_layer(passes, aggregates, attempted, failed)
            units = per_layer_units()
            trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
            tracer.write_trace(trace_path, spans)
            record["trace_file"] = str(trace_path.relative_to(BENCH.parent))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record["metrics"] = metrics
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n",
                                      encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
