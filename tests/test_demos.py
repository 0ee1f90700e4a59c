"""Each demo's stdout pinned by sha256, so a demo line moves only on purpose.

The demos print losses, byte counts and simulated clocks from fixed seeds;
every number is deterministic. When a pin moves, rerun the demo and quote
the changed lines next to the new hash.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "allreduce_rounds.py":
        "1da6f4d39007c62570462734d2b213b8b3d64efb7b0801f1a5532d27c8743aeb",
    "perf_planner.py":
        "77ec2ba765d8d96cef9db4502d44badfda2846dc655f984f45f76be063bf9ecd",
    "traffic_accounting.py":
        "567a55d0ad8b7a9760a526dfea0a0ea694e4269affb3e48851d364938be54ebd",
    "train_protocols.py":
        "a740dad123927f0200a0f55caee89b2330afbd7b7ba960f5623b3880ae1f122d",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(PINNED)


@pytest.mark.parametrize("demo", sorted(PINNED))
def test_stdout_pinned(demo, capsys):
    runpy.run_path(str(DEMOS / demo), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[demo], out
