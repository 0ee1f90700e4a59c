"""Simulated output pinned across a matrix of protocols, models and sizes.

Each case runs one protocol and pins two hashes of what it leaves behind.
The ledger hash covers the ledger CSV and the ledger summary JSON: every
message, phase load and clock. The numeric hash, for numeric runs only,
covers the losses and the final parameter and velocity digests. A change to
where bytes travel moves only ledger hashes; a change to arithmetic moves
numeric hashes.

When every parameter-server run came to shard the flat parameter vector into
contiguous ranges, the 36 `ps/*` cases re-pinned their ledger hash, since a
worker-server pair now moves one range per direction instead of one message
per tensor. Their numeric hashes did not move: servers still add pushes
elementwise in ascending worker order, and the momentum step is elementwise.

Each stanza case checkpoints after its second iteration. When the first FC
worker stopped sending its block to a CONV worker on a checkpoint, the 30
`stanza/*` numeric cases re-pinned both hashes, and only for that reason:
each ledger CSV lost its one `Checkpoint` row, each summary one phase and
one message, and each numeric text the replica's holder and blob digest.
The losses and both state digests did not move. The pins now also show
that a checkpoint charges nothing to the ledger.
Every case also runs with `threading.Thread.start` disabled: training and
counting start no thread.
"""

import hashlib
import threading

import pytest

from stanza.checkpointing import param_digest
from stanza.model_partition import builtin_model, tiny_cnn, tiny_mlp
from stanza.ps_runtime import PsCluster, ps_traffic
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza import transport
from stanza.transport import NetConfig, SimTransport

from trainers import LR, MU, make_batch_fn

NET = NetConfig(bandwidth=1e9, per_message_latency=1e-4)
COUNTED_SIZES = (1, 2, 3, 5, 8, 33, 127)
NUMERIC_SIZES = (1, 2, 3, 5, 8, 13)
SECOND_GROUP = (1, 2, 3)   # n_fc for stanza, n_servers for PS


def _cases():
    for kind in ("stanza_traffic", "ps_traffic"):
        for model in ("alexnet", "vgg16"):
            for n in COUNTED_SIZES:
                for m in SECOND_GROUP:
                    if kind == "ps_traffic" or m <= n:
                        yield f"{kind}/{model}/{n}+{m}"
    for kind in ("stanza", "ps"):
        for model in ("tiny_cnn", "tiny_mlp"):
            for n in NUMERIC_SIZES:
                for m in SECOND_GROUP:
                    if kind == "ps" or m <= n:
                        yield f"{kind}/{model}/{n}+{m}"


def _run(case: str):
    """Run one case; returns (transport, numeric text or None)."""
    kind, model, sizes = case.split("/")
    n, m = (int(s) for s in sizes.split("+"))
    if kind == "stanza_traffic":
        return stanza_traffic(builtin_model(model), n_conv=n, n_fc=m,
                              iterations=2, net=NET, conv_time=0.01,
                              fc_unit_time=0.002), None
    if kind == "ps_traffic":
        return ps_traffic(builtin_model(model), n_workers=n, n_servers=m,
                          iterations=2, net=NET, compute_time=0.01), None
    spec = tiny_cnn() if model == "tiny_cnn" else tiny_mlp()
    boundary = 4 if model == "tiny_mlp" else None
    kw = dict(batch_fn=make_batch_fn(spec, 13), lr=LR, momentum=MU, net=NET,
              seed=9)
    if kind == "stanza":
        cluster = StanzaCluster(spec, n_conv=n, n_fc=m, conv_time=0.01,
                                fc_unit_time=0.002, boundary=boundary, **kw)
        losses = cluster.train(2).losses
        cluster.checkpoint()
        losses += cluster.train(1).losses
    else:
        cluster = PsCluster(spec, n_workers=n, n_servers=m,
                            compute_time=0.01, **kw)
        losses = cluster.train(3).losses
    state = cluster.state()
    # the trailing space is part of the pinned text
    return cluster.transport, (f"{losses!r} {param_digest(state.params)} "
                               f"{param_digest(state.velocities)} ")


def case_digests(case: str, workdir) -> tuple[str, str | None]:
    """(ledger hash, numeric hash or None for a counted case)."""
    tr, numeric = _run(case)
    csv_path, json_path = workdir / "ledger.csv", workdir / "summary.json"
    tr.ledger.export_csv(csv_path)
    tr.ledger.export_summary_json(json_path)
    ledger = hashlib.sha256(csv_path.read_bytes() + json_path.read_bytes())
    return (ledger.hexdigest()[:16],
            None if numeric is None
            else hashlib.sha256(numeric.encode()).hexdigest()[:16])


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.mark.parametrize("case", list(_cases()))
def test_output_pinned_and_threadless(case, tmp_path, no_threads):
    assert case_digests(case, tmp_path) == (LEDGER[case], NUMERIC.get(case))


def test_sequential_runs_never_touch_the_condition(monkeypatch):
    """Only a receiver that waits needs the transport's condition; every
    phase runs on one thread, so no wait and no notify happens."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("condition variable used")
    monkeypatch.setattr(threading.Condition, "wait", refuse)
    monkeypatch.setattr(threading.Condition, "notify_all", refuse)
    transports = [
        stanza_traffic(builtin_model("alexnet"), n_conv=33, n_fc=3,
                       iterations=2, net=NET),
        ps_traffic(builtin_model("vgg16"), n_workers=5, n_servers=2,
                   iterations=2, net=NET),
    ]
    spec = tiny_mlp()
    kw = dict(batch_fn=make_batch_fn(spec, 13), lr=LR, momentum=MU, net=NET,
              seed=9)
    for cluster in (StanzaCluster(spec, n_conv=5, n_fc=2, boundary=4, **kw),
                    PsCluster(spec, n_workers=5, n_servers=2, **kw)):
        transports.append(cluster.train(2).transport)
    for tr in transports:
        assert tr.ledger.messages


def test_counted_runs_never_touch_the_mailbox(monkeypatch, no_threads):
    """Counted runs charge their plan to the ledger: no Message is built,
    and nothing is sent or received."""
    def refuse(*args, **kwargs):
        raise AssertionError("mailbox used by a counted run")
    monkeypatch.setattr(SimTransport, "send", refuse)
    monkeypatch.setattr(SimTransport, "recv", refuse)
    monkeypatch.setattr(transport.Message, "__init__", refuse)
    runs = [stanza_traffic(builtin_model("alexnet"), n_conv=127, n_fc=3,
                           iterations=2, net=NET),
            ps_traffic(builtin_model("vgg16"), n_workers=33, n_servers=3,
                       iterations=2, net=NET)]
    assert [len(tr.ledger.messages) for tr in runs] == [2 * 768, 2 * 198]


def test_matrix_is_fully_pinned():
    assert sorted(_cases()) == sorted(LEDGER)
    assert sorted(NUMERIC) == sorted(c for c in _cases()
                                     if "traffic" not in c)


LEDGER = {
    "stanza_traffic/alexnet/1+1": "9d08f7729d566b2d",
    "stanza_traffic/alexnet/2+1": "ae95c1ca0db5483f",
    "stanza_traffic/alexnet/2+2": "3e4d0c8a96a514c2",
    "stanza_traffic/alexnet/3+1": "eef9f98da33d3119",
    "stanza_traffic/alexnet/3+2": "ac9b36b03cfc3a64",
    "stanza_traffic/alexnet/3+3": "b6a651507f3ca850",
    "stanza_traffic/alexnet/5+1": "5010a10677afff93",
    "stanza_traffic/alexnet/5+2": "ce46b33f9be7f7cb",
    "stanza_traffic/alexnet/5+3": "09b11788bfefb672",
    "stanza_traffic/alexnet/8+1": "77e1bab001173dd2",
    "stanza_traffic/alexnet/8+2": "abef54e786296894",
    "stanza_traffic/alexnet/8+3": "1e9aad757eafa428",
    "stanza_traffic/alexnet/33+1": "2520b3ffbb532bc8",
    "stanza_traffic/alexnet/33+2": "a8cbf9f03c81bb47",
    "stanza_traffic/alexnet/33+3": "6cceb08f86bb1aaa",
    "stanza_traffic/alexnet/127+1": "1ae855946ab6bda9",
    "stanza_traffic/alexnet/127+2": "e8eb79bf43aa3373",
    "stanza_traffic/alexnet/127+3": "3c740e24d9c05c72",
    "stanza_traffic/vgg16/1+1": "a83a136f22e1c163",
    "stanza_traffic/vgg16/2+1": "d2b1b25590ff3789",
    "stanza_traffic/vgg16/2+2": "b11f649db02b0b4d",
    "stanza_traffic/vgg16/3+1": "48aa10f81a361c36",
    "stanza_traffic/vgg16/3+2": "e414052a442e6568",
    "stanza_traffic/vgg16/3+3": "2401bb946caa428a",
    "stanza_traffic/vgg16/5+1": "837c20683f551ffa",
    "stanza_traffic/vgg16/5+2": "ca15d2392772da09",
    "stanza_traffic/vgg16/5+3": "100d75cb71f0e12a",
    "stanza_traffic/vgg16/8+1": "868a22ea16b6539f",
    "stanza_traffic/vgg16/8+2": "2e6993dad2569f09",
    "stanza_traffic/vgg16/8+3": "a02911d4fa99cffc",
    "stanza_traffic/vgg16/33+1": "c74c73cc391d8652",
    "stanza_traffic/vgg16/33+2": "4804d23985a43420",
    "stanza_traffic/vgg16/33+3": "4e4bd27295d5988f",
    "stanza_traffic/vgg16/127+1": "0849f3453a0a2743",
    "stanza_traffic/vgg16/127+2": "338bae0fcf30036f",
    "stanza_traffic/vgg16/127+3": "b75204fb4151cd62",
    "ps_traffic/alexnet/1+1": "8197943eaf518ba9",
    "ps_traffic/alexnet/1+2": "a0ed0f3eb57b90a6",
    "ps_traffic/alexnet/1+3": "56df6fdcb470993b",
    "ps_traffic/alexnet/2+1": "07adad2f0380a562",
    "ps_traffic/alexnet/2+2": "002a711156a05c9b",
    "ps_traffic/alexnet/2+3": "7511ce8c953ffbf0",
    "ps_traffic/alexnet/3+1": "36d0fba64e627bcf",
    "ps_traffic/alexnet/3+2": "07d4f21580bfe86f",
    "ps_traffic/alexnet/3+3": "88a0625eae0ae628",
    "ps_traffic/alexnet/5+1": "2a7649936e5d5c26",
    "ps_traffic/alexnet/5+2": "7958b16129b05cb8",
    "ps_traffic/alexnet/5+3": "980e2cd6b3015f5e",
    "ps_traffic/alexnet/8+1": "d5ef8b91ca53bccd",
    "ps_traffic/alexnet/8+2": "1cfe056974b2ff71",
    "ps_traffic/alexnet/8+3": "bcc554c580cb49dd",
    "ps_traffic/alexnet/33+1": "a480d4613deb8042",
    "ps_traffic/alexnet/33+2": "9fd8eae10e460ffe",
    "ps_traffic/alexnet/33+3": "10ad3c28861ccc5d",
    "ps_traffic/alexnet/127+1": "785290c45cdea1c7",
    "ps_traffic/alexnet/127+2": "28a521530a67cc22",
    "ps_traffic/alexnet/127+3": "7412693237a7ab4f",
    "ps_traffic/vgg16/1+1": "ad59f884d86befd8",
    "ps_traffic/vgg16/1+2": "96331fc918bd1c85",
    "ps_traffic/vgg16/1+3": "d8bd9a1f362ea216",
    "ps_traffic/vgg16/2+1": "b03ff6300c39d445",
    "ps_traffic/vgg16/2+2": "b1518e0720f2f154",
    "ps_traffic/vgg16/2+3": "b48d6f502bb163bb",
    "ps_traffic/vgg16/3+1": "828b5f83ddf3d2d1",
    "ps_traffic/vgg16/3+2": "69de62850264702e",
    "ps_traffic/vgg16/3+3": "144880b9e3eb4806",
    "ps_traffic/vgg16/5+1": "c6b49edafa4fc188",
    "ps_traffic/vgg16/5+2": "96b345b1cdc63913",
    "ps_traffic/vgg16/5+3": "d0977013a775c73a",
    "ps_traffic/vgg16/8+1": "20d1e24f7971b5c8",
    "ps_traffic/vgg16/8+2": "3dced44837de7b55",
    "ps_traffic/vgg16/8+3": "addb2ec93234a2f2",
    "ps_traffic/vgg16/33+1": "975d3daf65461eaa",
    "ps_traffic/vgg16/33+2": "b8114f40dc544faf",
    "ps_traffic/vgg16/33+3": "56d2749077b02719",
    "ps_traffic/vgg16/127+1": "6ee4df0f0e47d860",
    "ps_traffic/vgg16/127+2": "09e21e59785d9470",
    "ps_traffic/vgg16/127+3": "14ba0397ec1502c9",
    "stanza/tiny_cnn/1+1": "9a432eb1f00e5e5a",
    "stanza/tiny_cnn/2+1": "2e034f6f950d0613",
    "stanza/tiny_cnn/2+2": "236d983da6815264",
    "stanza/tiny_cnn/3+1": "86ccb85335ae1a90",
    "stanza/tiny_cnn/3+2": "5c7bae404462cfd2",
    "stanza/tiny_cnn/3+3": "a21dec39058452b0",
    "stanza/tiny_cnn/5+1": "6335768d4effc844",
    "stanza/tiny_cnn/5+2": "02911192fbb7fee8",
    "stanza/tiny_cnn/5+3": "af2e52563cecb025",
    "stanza/tiny_cnn/8+1": "42af639962b4be63",
    "stanza/tiny_cnn/8+2": "f63297959d104597",
    "stanza/tiny_cnn/8+3": "0df02cae32958bb4",
    "stanza/tiny_cnn/13+1": "95c64bf1b0dad710",
    "stanza/tiny_cnn/13+2": "5e8e2c439b608dad",
    "stanza/tiny_cnn/13+3": "3c26995b58096c4a",
    "stanza/tiny_mlp/1+1": "fdc00ec145cdf242",
    "stanza/tiny_mlp/2+1": "b35a22d6217ffadb",
    "stanza/tiny_mlp/2+2": "9eaefadf61f0704f",
    "stanza/tiny_mlp/3+1": "8ac2b5e5f0116d72",
    "stanza/tiny_mlp/3+2": "a0fc5d8c0c41d6d1",
    "stanza/tiny_mlp/3+3": "6beb939170663b03",
    "stanza/tiny_mlp/5+1": "56ec78eef098b709",
    "stanza/tiny_mlp/5+2": "4383071d41e5f8f4",
    "stanza/tiny_mlp/5+3": "bb4dca3a9ba12e28",
    "stanza/tiny_mlp/8+1": "8e9998291d84f54a",
    "stanza/tiny_mlp/8+2": "34b51f9d3918fd96",
    "stanza/tiny_mlp/8+3": "b150cacadaf9fab1",
    "stanza/tiny_mlp/13+1": "442cb2c59af46332",
    "stanza/tiny_mlp/13+2": "e570b6d3803ae02d",
    "stanza/tiny_mlp/13+3": "081128cddbe43cce",
    "ps/tiny_cnn/1+1": "c409a73169ca8214",
    "ps/tiny_cnn/1+2": "281fa30c00e216d0",
    "ps/tiny_cnn/1+3": "2413ba63023cab58",
    "ps/tiny_cnn/2+1": "6778d5c87942d729",
    "ps/tiny_cnn/2+2": "720e1aef6d572cc6",
    "ps/tiny_cnn/2+3": "87cfb0839cdadb2a",
    "ps/tiny_cnn/3+1": "b4b62368dc5ca3b2",
    "ps/tiny_cnn/3+2": "e6e2e25735c5168d",
    "ps/tiny_cnn/3+3": "62c5cd40e6c89061",
    "ps/tiny_cnn/5+1": "a15fc10280e9ced8",
    "ps/tiny_cnn/5+2": "f1373645c2ab17a9",
    "ps/tiny_cnn/5+3": "1c3794153a7366f5",
    "ps/tiny_cnn/8+1": "a109871258b41e6e",
    "ps/tiny_cnn/8+2": "c736bb79e1f5d2b1",
    "ps/tiny_cnn/8+3": "6b879277b506955e",
    "ps/tiny_cnn/13+1": "650c7e108cb11d48",
    "ps/tiny_cnn/13+2": "0c2e48b0dacfafb0",
    "ps/tiny_cnn/13+3": "d4672479bdd57e08",
    "ps/tiny_mlp/1+1": "b2be091e46e7d0e0",
    "ps/tiny_mlp/1+2": "d7e6d1b2b721ee6f",
    "ps/tiny_mlp/1+3": "0f00ff2fb4dbb8f4",
    "ps/tiny_mlp/2+1": "72e0958b6c475f5b",
    "ps/tiny_mlp/2+2": "e616f6323312d706",
    "ps/tiny_mlp/2+3": "72eed30665bff725",
    "ps/tiny_mlp/3+1": "8db65215f96cd10d",
    "ps/tiny_mlp/3+2": "4145301aa0cde56b",
    "ps/tiny_mlp/3+3": "4d62eb6d183a3b7e",
    "ps/tiny_mlp/5+1": "91289bc35e9619f9",
    "ps/tiny_mlp/5+2": "a2afbc695d773f63",
    "ps/tiny_mlp/5+3": "d55fb9d14a38d518",
    "ps/tiny_mlp/8+1": "387fe12450f23499",
    "ps/tiny_mlp/8+2": "c016071fa0871b3c",
    "ps/tiny_mlp/8+3": "d7d3666db0ae0cbe",
    "ps/tiny_mlp/13+1": "48306b5731ccae22",
    "ps/tiny_mlp/13+2": "9b8357943ed4b0d5",
    "ps/tiny_mlp/13+3": "7df1cd67bf440305",
}

NUMERIC = {
    "stanza/tiny_cnn/1+1": "e854dc604e9acfe5",
    "stanza/tiny_cnn/2+1": "132914ecacbb07f9",
    "stanza/tiny_cnn/2+2": "9265905480989100",
    "stanza/tiny_cnn/3+1": "75b3d51f81625b96",
    "stanza/tiny_cnn/3+2": "a823fe6ebeeeff2c",
    "stanza/tiny_cnn/3+3": "64197aa8e5a3c14d",
    "stanza/tiny_cnn/5+1": "b4d5f61a827904ff",
    "stanza/tiny_cnn/5+2": "2572291b4940c027",
    "stanza/tiny_cnn/5+3": "150123e6cc5a7226",
    "stanza/tiny_cnn/8+1": "25fbea2b6be7f9b4",
    "stanza/tiny_cnn/8+2": "f716562cebe0700e",
    "stanza/tiny_cnn/8+3": "4ccc295f01cbdbf4",
    "stanza/tiny_cnn/13+1": "4a8cfe6137a113e4",
    "stanza/tiny_cnn/13+2": "8e1e74bca8f00125",
    "stanza/tiny_cnn/13+3": "bbabc8777c26abe3",
    "stanza/tiny_mlp/1+1": "ec3dc0b38f550eb9",
    "stanza/tiny_mlp/2+1": "de148623c17bea47",
    "stanza/tiny_mlp/2+2": "2257dfdeafb668ba",
    "stanza/tiny_mlp/3+1": "5045e3dc7af4fbde",
    "stanza/tiny_mlp/3+2": "b8775c9c3070b3ce",
    "stanza/tiny_mlp/3+3": "308162a4f957d373",
    "stanza/tiny_mlp/5+1": "62fcacc9ca3b866b",
    "stanza/tiny_mlp/5+2": "ea0a16dabfc3d6a1",
    "stanza/tiny_mlp/5+3": "e3870f0ca01441f0",
    "stanza/tiny_mlp/8+1": "bf58731b815c351d",
    "stanza/tiny_mlp/8+2": "b6e607d86c5bdc94",
    "stanza/tiny_mlp/8+3": "9307acb4f0f9e269",
    "stanza/tiny_mlp/13+1": "7fed4afd0e1d5589",
    "stanza/tiny_mlp/13+2": "2bd8f0e1680a1afc",
    "stanza/tiny_mlp/13+3": "20803504642a8622",
    "ps/tiny_cnn/1+1": "e854dc604e9acfe5",
    "ps/tiny_cnn/1+2": "e854dc604e9acfe5",
    "ps/tiny_cnn/1+3": "e854dc604e9acfe5",
    "ps/tiny_cnn/2+1": "9265905480989100",
    "ps/tiny_cnn/2+2": "9265905480989100",
    "ps/tiny_cnn/2+3": "9265905480989100",
    "ps/tiny_cnn/3+1": "64197aa8e5a3c14d",
    "ps/tiny_cnn/3+2": "64197aa8e5a3c14d",
    "ps/tiny_cnn/3+3": "64197aa8e5a3c14d",
    "ps/tiny_cnn/5+1": "9766acd54e0aa5c5",
    "ps/tiny_cnn/5+2": "9766acd54e0aa5c5",
    "ps/tiny_cnn/5+3": "9766acd54e0aa5c5",
    "ps/tiny_cnn/8+1": "a26078ccc9255ab8",
    "ps/tiny_cnn/8+2": "a26078ccc9255ab8",
    "ps/tiny_cnn/8+3": "a26078ccc9255ab8",
    "ps/tiny_cnn/13+1": "e0485865efe3067f",
    "ps/tiny_cnn/13+2": "e0485865efe3067f",
    "ps/tiny_cnn/13+3": "e0485865efe3067f",
    "ps/tiny_mlp/1+1": "ec3dc0b38f550eb9",
    "ps/tiny_mlp/1+2": "ec3dc0b38f550eb9",
    "ps/tiny_mlp/1+3": "ec3dc0b38f550eb9",
    "ps/tiny_mlp/2+1": "2257dfdeafb668ba",
    "ps/tiny_mlp/2+2": "2257dfdeafb668ba",
    "ps/tiny_mlp/2+3": "2257dfdeafb668ba",
    "ps/tiny_mlp/3+1": "308162a4f957d373",
    "ps/tiny_mlp/3+2": "308162a4f957d373",
    "ps/tiny_mlp/3+3": "308162a4f957d373",
    "ps/tiny_mlp/5+1": "12fde8c1ee8d168f",
    "ps/tiny_mlp/5+2": "12fde8c1ee8d168f",
    "ps/tiny_mlp/5+3": "12fde8c1ee8d168f",
    "ps/tiny_mlp/8+1": "d28c5295fcb01953",
    "ps/tiny_mlp/8+2": "d28c5295fcb01953",
    "ps/tiny_mlp/8+3": "d28c5295fcb01953",
    "ps/tiny_mlp/13+1": "2d0dc2ceb8145029",
    "ps/tiny_mlp/13+2": "2d0dc2ceb8145029",
    "ps/tiny_mlp/13+3": "2d0dc2ceb8145029",
}
