"""Each demo's stdout, and that of README's commands, pinned by sha256, so
a line moves only on purpose.

The demos print losses, byte counts and simulated clocks from fixed seeds;
every number is deterministic. When a pin moves, rerun the demo or command
and quote the changed lines next to the new hash.
"""

import hashlib
import runpy
from pathlib import Path

import pytest

from stanza import cli

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


# README's quick-start run, and its compare and plan commands on profile
# models, run in process. plan keeps its default constants: bench's depend on
# host timing.
COMMANDS = {
    "run --mode stanza --model tiny_cnn --seed 7 --iterations 50 --workers 4 "
    "--coordinators 2":
        "dfdf291a606508cd4748d0c31893c9f592c2beab5a66e5bc47c8b8d91366d795",
    "compare --model alexnet --seed 1 --iterations 1 --epoch-samples 4096 "
    "--workers 2 4 8":
        "2c6c99e68b95093a7ce5787da2edbeb2eed05586fd4f7121b6e743b23e2ba193",
    "plan --model alexnet --nodes 9":
        "db793bc7eff41b947edee48754d38189fb85afd189046b1dbbae5d0bb39ba17c",
    "plan --model alexnet --nodes 9 --mode ps":
        "b10ce095eb2e326a32629088cd1597fe1f0f72a6ba25aea7b6e99e75dce2ea27",
    "plan --model alexnet --nodes 128":
        "736a6ea1c44ab957848a0438e2ccc82215905143c2dfe18c27075559b70370be",
    "plan --model alexnet --nodes 128 --mode ps":
        "8e9ed53bf2483e62207840561ead0862de8b3a59c355800ba9bcdf18f220f6e6",
    "plan --model vgg16 --nodes 33 --mode ps":
        "a515b08ae36431ac177b4546b7e0277fd811842b4f9c363ef219346829030a1d",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_stdout_pinned(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMMANDS[command], out
