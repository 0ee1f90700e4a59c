"""Span tracer for the benchmark's traced passes.

The tracer wraps public functions of the stanza modules from the outside:
it replaces each function in every `stanza.*` module that binds it (the
runtimes bind `run_node_threads`, `allreduce_sum`, `sgd_step` and others
with `from ... import`, so one module attribute is not enough), patches
`tensor_core.forward` and `tensor_core.backward` in place to name spans by
layer kind, and patches methods on their classes. `uninstall` restores
every binding it replaced.

A span is (id, name, start_ns, end_ns, parent_id, thread name). Parents
come from a per-thread stack; node threads start with the
`run_node_threads` span that launched them as their parent. Spans stay in
memory until `drain`, and `write_trace` emits them as Trace Event Format
JSON for chrome://tracing and Perfetto.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

from stanza import (checkpointing, cli, collectives, harness, model_partition,
                    perf_model, ps_runtime, stanza_runtime, tensor_core,
                    transport)

# (owner, attribute, span name): module functions are patched wherever a
# stanza module binds them; class attributes are patched on the class.
SPANNED = (
    (tensor_core, "sgd_step", "tensor_core.sgd_step"),
    (tensor_core, "pack_vector", "tensor_core.pack_vector"),
    (tensor_core, "unpack_vector", "tensor_core.unpack_vector"),
    (transport.SimTransport, "send", "transport.send"),
    (transport.SimTransport, "recv", "transport.recv"),
    (collectives, "allreduce_sum", "collectives.allreduce_sum"),
    (collectives, "allreduce_counted", "collectives.allreduce_counted"),
    (checkpointing, "state_to_bytes", "checkpointing.state_to_bytes"),
    (checkpointing, "state_from_bytes", "checkpointing.state_from_bytes"),
    (checkpointing, "param_digest", "checkpointing.param_digest"),
    (checkpointing, "load_state", "checkpointing.load_state"),
    (stanza_runtime.StanzaCluster, "train", "stanza_runtime.StanzaCluster.train"),
    (stanza_runtime.StanzaCluster, "checkpoint",
     "stanza_runtime.StanzaCluster.checkpoint"),
    (stanza_runtime, "stanza_traffic", "stanza_runtime.stanza_traffic"),
    (ps_runtime.PsCluster, "train", "ps_runtime.PsCluster.train"),
    (ps_runtime, "ps_traffic", "ps_runtime.ps_traffic"),
    (harness, "execute", "harness.execute"),
    (harness, "compare", "harness.compare"),
    (perf_model, "assign_nodes", "perf_model.assign_nodes"),
    (perf_model, "assign_ps", "perf_model.assign_ps"),
    (perf_model, "stanza_iter_time", "perf_model.stanza_iter_time"),
    (perf_model, "ps_iter_time", "perf_model.ps_iter_time"),
    (model_partition, "split", "model_partition.split"),
    (model_partition, "builtin_model", "model_partition.builtin_model"),
    (cli, "main", "cli.main"),
)

# Entry points reported by self time: the span minus what its children cover.
SELF_TIMED = frozenset({
    "stanza_runtime.StanzaCluster.train",
    "stanza_runtime.StanzaCluster.checkpoint",
    "stanza_runtime.stanza_traffic",
    "ps_runtime.PsCluster.train",
    "ps_runtime.ps_traffic",
})


def _wrapped_by(value, original) -> bool:
    while value is not None:
        if value is original:
            return True
        value = getattr(value, "__wrapped__", None)
    return False


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs, adopt=None):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        if adopt is not None:
            args, kwargs = adopt(sid, args, kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.current_thread().name))

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _kind_span(self, prefix: str, fn):
        def traced(layer, *args, **kwargs):
            return self._call(f"{prefix}.{type(layer).__name__}", fn,
                              (layer,) + args, kwargs)
        traced.__wrapped__ = fn
        return traced

    def _node_threads_span(self, fn):
        tracer = self

        def adopt(sid, args, kwargs):
            tr, tasks, *rest = args
            tracer.counts["transport.threads_started"] += len(tasks)

            def child(task):
                def run():
                    tracer._local.stack = [sid]
                    return task()
                return run
            return (tr, {node: child(t) for node, t in tasks.items()},
                    *rest), kwargs

        def traced(*args, **kwargs):
            return self._call("transport.run_node_threads", fn, args, kwargs,
                              adopt=adopt)
        traced.__wrapped__ = fn
        return traced

    def _counter(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def _save_span(self, fn):
        def traced(state, path, *args, **kwargs):
            out = self._call("checkpointing.save_state", fn,
                             (state, path) + args, kwargs)
            self.counts["checkpointing.bytes_written"] += os.path.getsize(path)
            return out
        traced.__wrapped__ = fn
        return traced

    def wrap_batch_fn(self, fn):
        """Span the data source a workload hands to the clusters."""
        return self._span("harness.batch_fn", fn)

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_bindings(self, owner, attr: str, make) -> None:
        if isinstance(owner, type):
            self._set(owner, attr, make(owner.__dict__[attr]))
            return
        original = getattr(owner, attr)
        for name, module in list(sys.modules.items()):
            if name != "stanza" and not name.startswith("stanza."):
                continue
            value = module.__dict__.get(attr)
            if value is not None and _wrapped_by(value, original):
                self._set(module, attr, make(value))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in SPANNED:
            self._patch_bindings(owner, attr,
                                 lambda fn, name=name: self._span(name, fn))
        self._set(tensor_core, "forward",
                  self._kind_span("tensor_core.forward", tensor_core.forward))
        self._set(tensor_core, "backward",
                  self._kind_span("tensor_core.backward",
                                  tensor_core.backward))
        self._patch_bindings(transport, "run_node_threads",
                             self._node_threads_span)
        self._patch_bindings(checkpointing, "save_state", self._save_span)
        for attr in ("end_phase", "advance_compute"):
            self._patch_bindings(transport.SimTransport, attr,
                                 lambda fn: self._counter("transport.phases",
                                                          fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def drain(self):
        """Hand over and forget the spans and counts recorded so far,
        with the spans' summary."""
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts, summarize(spans)

    def write_trace(self, path, spans) -> None:
        """Write spans as Trace Event Format JSON, one track per thread."""
        t0 = min((s[2] for s in spans), default=0)
        tids: dict[str, int] = {}
        events = []
        for sid, name, start, end, parent, thread in spans:
            tid = tids.setdefault(thread, len(tids) + 1)
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                "pid": 1, "tid": tid,
                "args": {"id": sid, "parent": parent,
                         "workload": self.workload},
            })
        for thread, tid in tids.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": thread}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- aggregation ----------------------------------------------------------------

def _union_ns(intervals) -> int:
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total ms, and self ms for SELF_TIMED names."""
    out: dict[str, dict[str, float]] = {}
    children = defaultdict(list)
    for sid, name, start, end, parent, _ in spans:
        row = out.setdefault(name, {"calls": 0, "ms": 0.0})
        row["calls"] += 1
        row["ms"] += (end - start) / 1e6
        if parent:
            children[parent].append((start, end))
    for sid, name, start, end, _, _ in spans:
        if name in SELF_TIMED:
            row = out[name]
            covered = _union_ns(children.get(sid, ()))
            row["self_ms"] = row.get("self_ms", 0.0) + (end - start
                                                        - covered) / 1e6
    return out

