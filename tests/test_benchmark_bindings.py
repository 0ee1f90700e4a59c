"""The program names the benchmark under perfbench/ binds still exist.

perfbench/tracing.py patches functions and methods by name, and
perfbench/workloads.py reads the traffic counters' arguments by parameter
name. A rename or deletion there breaks the benchmark, not the program, so
it is caught here.
"""

import importlib
import inspect
from pathlib import Path

from stanza import harness, ps_runtime, stanza_runtime

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patches_every_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer("counted_sweep")
    tracer.install()
    try:
        for owner, attr, _ in tracing.SPANNED:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    for owner, attr, _ in tracing.SPANNED:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr


def test_traffic_counters_keep_their_parameter_names():
    assert list(inspect.signature(stanza_runtime.stanza_traffic).parameters) \
        == ["spec", "n_conv", "n_fc", "iterations", "net", "conv_time",
            "fc_unit_time", "boundary"]
    assert list(inspect.signature(ps_runtime.ps_traffic).parameters) \
        == ["spec", "n_workers", "n_servers", "iterations", "net",
            "compute_time"]
    # the workloads observe the counters where the CLI's harness binds them
    assert harness.stanza_traffic is stanza_runtime.stanza_traffic
    assert harness.ps_traffic is ps_runtime.ps_traffic
