"""Simulated output pinned across a matrix of protocols, models and sizes.

Each case runs one protocol and pins two hashes of what it leaves behind.
The ledger hash covers the ledger CSV and the ledger summary JSON: every
message, phase load and clock. The numeric hash, for numeric runs only,
covers the losses, the final parameter and velocity digests and, for stanza,
the FC replica's holder and blob. A change to where bytes travel moves only
ledger hashes; a change to arithmetic moves numeric hashes.

When every parameter-server run came to shard the flat parameter vector into
contiguous ranges, the 36 `ps/*` cases re-pinned their ledger hash, since a
worker-server pair now moves one range per direction instead of one message
per tensor. Their numeric hashes did not move: servers still add pushes
elementwise in ascending worker order, and the momentum step is elementwise.
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
from stanza.transport import NetConfig

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
        (holder, blob), = cluster.replica_snapshots.items()
        extra = f"{holder} {hashlib.sha256(blob).hexdigest()}"
    else:
        cluster = PsCluster(spec, n_workers=n, n_servers=m,
                            compute_time=0.01, **kw)
        losses = cluster.train(3).losses
        extra = ""
    state = cluster.state()
    return cluster.transport, (f"{losses!r} {param_digest(state.params)} "
                               f"{param_digest(state.velocities)} {extra}")


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
    "stanza/tiny_cnn/1+1": "c3f02b8edd2caf2d",
    "stanza/tiny_cnn/2+1": "db7accd4fb6d131e",
    "stanza/tiny_cnn/2+2": "b636ef90e8f5f549",
    "stanza/tiny_cnn/3+1": "d4059cd798e4ddfb",
    "stanza/tiny_cnn/3+2": "ffd1f2ed36140153",
    "stanza/tiny_cnn/3+3": "ceae20650c61682a",
    "stanza/tiny_cnn/5+1": "222e823140ecd73f",
    "stanza/tiny_cnn/5+2": "4adbe3e82029e634",
    "stanza/tiny_cnn/5+3": "716f77a9cf7ceea0",
    "stanza/tiny_cnn/8+1": "17722c3609041057",
    "stanza/tiny_cnn/8+2": "6d1e338d2ae634f2",
    "stanza/tiny_cnn/8+3": "bf0e73b6975be342",
    "stanza/tiny_cnn/13+1": "1b4e044f5258842a",
    "stanza/tiny_cnn/13+2": "458841d58c03ac5c",
    "stanza/tiny_cnn/13+3": "ba210754426938d1",
    "stanza/tiny_mlp/1+1": "fde91a3e109db402",
    "stanza/tiny_mlp/2+1": "c71a3a63970baca8",
    "stanza/tiny_mlp/2+2": "04d07cfd63942b71",
    "stanza/tiny_mlp/3+1": "8cd8a3a45ab2a9c7",
    "stanza/tiny_mlp/3+2": "5d78466a5296c1b7",
    "stanza/tiny_mlp/3+3": "778f8dfb5860e2b5",
    "stanza/tiny_mlp/5+1": "b22793637df6eab1",
    "stanza/tiny_mlp/5+2": "64882691298af4c0",
    "stanza/tiny_mlp/5+3": "1cf4581402d86c4f",
    "stanza/tiny_mlp/8+1": "236b9c9ce7cdd6e7",
    "stanza/tiny_mlp/8+2": "57fe652059405f34",
    "stanza/tiny_mlp/8+3": "1db89f3934d2d75d",
    "stanza/tiny_mlp/13+1": "2d4bd813f1b76236",
    "stanza/tiny_mlp/13+2": "baf325471c0511d4",
    "stanza/tiny_mlp/13+3": "66f227e1f5f70f9f",
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
    "stanza/tiny_cnn/1+1": "8c2f43947a2dbccc",
    "stanza/tiny_cnn/2+1": "cd788e7bb486c0f1",
    "stanza/tiny_cnn/2+2": "54b2c6efa86e6a21",
    "stanza/tiny_cnn/3+1": "e919aa199db8e45b",
    "stanza/tiny_cnn/3+2": "b332ecbeabb2a242",
    "stanza/tiny_cnn/3+3": "969e0711f5887778",
    "stanza/tiny_cnn/5+1": "74f92c91b3ae236e",
    "stanza/tiny_cnn/5+2": "7c6ed8c682a6541c",
    "stanza/tiny_cnn/5+3": "7c8902fb3b0211fa",
    "stanza/tiny_cnn/8+1": "d7c4515b76396915",
    "stanza/tiny_cnn/8+2": "64cd43698a3648f8",
    "stanza/tiny_cnn/8+3": "55feec67f2c74592",
    "stanza/tiny_cnn/13+1": "b08789b56c1b4048",
    "stanza/tiny_cnn/13+2": "73e84a6cc183c0d0",
    "stanza/tiny_cnn/13+3": "1afe95d0f1eea6da",
    "stanza/tiny_mlp/1+1": "71dec061b38dfcbd",
    "stanza/tiny_mlp/2+1": "45bb15d99373c40e",
    "stanza/tiny_mlp/2+2": "757a9653d6ad9a31",
    "stanza/tiny_mlp/3+1": "bc4f4bf4c63a9979",
    "stanza/tiny_mlp/3+2": "c2863313551d58b3",
    "stanza/tiny_mlp/3+3": "25493abcd264e348",
    "stanza/tiny_mlp/5+1": "0bbdaed0fcbb04fa",
    "stanza/tiny_mlp/5+2": "4e3d410cb1097817",
    "stanza/tiny_mlp/5+3": "8a2349f84caa0fda",
    "stanza/tiny_mlp/8+1": "7bf6df9375ab6867",
    "stanza/tiny_mlp/8+2": "988eb0e7822dd0c1",
    "stanza/tiny_mlp/8+3": "d3e062cdb903a532",
    "stanza/tiny_mlp/13+1": "f6ef09ace3f3abea",
    "stanza/tiny_mlp/13+2": "6510d9e896989306",
    "stanza/tiny_mlp/13+3": "06e27dcfc3b229f2",
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
