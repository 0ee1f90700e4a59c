"""Simulated output pinned across a matrix of protocols, models and sizes.

Each case runs one protocol and hashes what it leaves behind: the ledger CSV,
the ledger summary JSON and, for numeric runs, the losses and final parameter
digest. Most pinned digests were computed with the thread-per-node executor,
so they hold the sequential phase executor to the same messages, link
sequences, phase loads and folds, byte for byte. The stanza cases whose CONV
or FC group is not a power of two were re-pinned from the sequential
executor alone when the allreduce's surplus rule became fixed (member 2i+1
folds into member 2i); their clocks, phase times, byte totals, per-tag bytes
and losses did not move, only the surplus transfers' src/dst, the per-node
bytes and the parameter digests. Every case also runs with
`threading.Thread.start` disabled: training and counting start no thread.
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
    """Run one case; returns (transport, extra text to hash)."""
    kind, model, sizes = case.split("/")
    n, m = (int(s) for s in sizes.split("+"))
    if kind == "stanza_traffic":
        return stanza_traffic(builtin_model(model), n_conv=n, n_fc=m,
                              iterations=2, net=NET, conv_time=0.01,
                              fc_unit_time=0.002), ""
    if kind == "ps_traffic":
        return ps_traffic(builtin_model(model), n_workers=n, n_servers=m,
                          iterations=2, net=NET, compute_time=0.01), ""
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


def case_digest(case: str, workdir) -> str:
    tr, extra = _run(case)
    csv_path, json_path = workdir / "ledger.csv", workdir / "summary.json"
    tr.ledger.export_csv(csv_path)
    tr.ledger.export_summary_json(json_path)
    h = hashlib.sha256(csv_path.read_bytes())
    h.update(json_path.read_bytes())
    h.update(extra.encode())
    return h.hexdigest()[:16]


@pytest.fixture
def no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")
    monkeypatch.setattr(threading.Thread, "start", refuse)


@pytest.mark.parametrize("case", list(_cases()))
def test_output_pinned_and_threadless(case, tmp_path, no_threads):
    assert case_digest(case, tmp_path) == PINNED[case]


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
    assert sorted(_cases()) == sorted(PINNED)


PINNED = {
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
    "stanza/tiny_cnn/1+1": "d70956d3f78818a9",
    "stanza/tiny_cnn/2+1": "34bd306305339549",
    "stanza/tiny_cnn/2+2": "02e92a4d30396cb8",
    "stanza/tiny_cnn/3+1": "3f51495c7f90e403",
    "stanza/tiny_cnn/3+2": "be600c8e0a65f884",
    "stanza/tiny_cnn/3+3": "6b5f02ecb734d332",
    "stanza/tiny_cnn/5+1": "10bebfe674f57a03",
    "stanza/tiny_cnn/5+2": "15f493bf07c9b542",
    "stanza/tiny_cnn/5+3": "8076add580753f9d",
    "stanza/tiny_cnn/8+1": "7b5d8d085a5ddd3c",
    "stanza/tiny_cnn/8+2": "fc269b9b7a360343",
    "stanza/tiny_cnn/8+3": "eb9f55c51010a068",
    "stanza/tiny_cnn/13+1": "ed204abca5a1d045",
    "stanza/tiny_cnn/13+2": "e51b75ba6f6e0491",
    "stanza/tiny_cnn/13+3": "ca542dc3e26e6ea6",
    "stanza/tiny_mlp/1+1": "400fb560e2ef0bc0",
    "stanza/tiny_mlp/2+1": "0902c172c5916b22",
    "stanza/tiny_mlp/2+2": "547f4dd6e7c81293",
    "stanza/tiny_mlp/3+1": "a00853a0cc55e517",
    "stanza/tiny_mlp/3+2": "5950eecc7e1f5bc7",
    "stanza/tiny_mlp/3+3": "5e295580e0d40b1c",
    "stanza/tiny_mlp/5+1": "bc874f3cf6795d8b",
    "stanza/tiny_mlp/5+2": "732d636e9c7758fe",
    "stanza/tiny_mlp/5+3": "15db4ded4c4696b6",
    "stanza/tiny_mlp/8+1": "69963967fa604c15",
    "stanza/tiny_mlp/8+2": "d2cf0c65c40cd135",
    "stanza/tiny_mlp/8+3": "1a2bd62bbba163ac",
    "stanza/tiny_mlp/13+1": "e6e9978f467bad7a",
    "stanza/tiny_mlp/13+2": "cd778bb50f619020",
    "stanza/tiny_mlp/13+3": "ee83d377cb97e3ad",
    "ps/tiny_cnn/1+1": "ac796a6f11f8819c",
    "ps/tiny_cnn/1+2": "bc61242c99b94114",
    "ps/tiny_cnn/1+3": "6cc9897b77f965b7",
    "ps/tiny_cnn/2+1": "d6198b175eb10abb",
    "ps/tiny_cnn/2+2": "24750310389d5694",
    "ps/tiny_cnn/2+3": "ca58f557d29e8fbb",
    "ps/tiny_cnn/3+1": "2fd75b2ad1cf3627",
    "ps/tiny_cnn/3+2": "2bf4bfa84c33ad5e",
    "ps/tiny_cnn/3+3": "e5c83b12655ad75d",
    "ps/tiny_cnn/5+1": "0f337cb74cac0b75",
    "ps/tiny_cnn/5+2": "109cf5a48f0b8c3f",
    "ps/tiny_cnn/5+3": "126bb35f494530a7",
    "ps/tiny_cnn/8+1": "6081481c17905199",
    "ps/tiny_cnn/8+2": "07ba3b4853ff8bd2",
    "ps/tiny_cnn/8+3": "dcbf8514cc671ea7",
    "ps/tiny_cnn/13+1": "72d36c988dff8a87",
    "ps/tiny_cnn/13+2": "768c70eeee673cf5",
    "ps/tiny_cnn/13+3": "0b622d15d908ef80",
    "ps/tiny_mlp/1+1": "cf548fb15122f0e1",
    "ps/tiny_mlp/1+2": "6444e0c31a9eb66b",
    "ps/tiny_mlp/1+3": "e381f070bc2350db",
    "ps/tiny_mlp/2+1": "73e2401736e750df",
    "ps/tiny_mlp/2+2": "097f9e18d3d424e9",
    "ps/tiny_mlp/2+3": "37321bd46b2540ab",
    "ps/tiny_mlp/3+1": "f03e341721ff7ad7",
    "ps/tiny_mlp/3+2": "c5779925bd7914ea",
    "ps/tiny_mlp/3+3": "b436887625582458",
    "ps/tiny_mlp/5+1": "d749628e41485397",
    "ps/tiny_mlp/5+2": "0c6dfa74276602a1",
    "ps/tiny_mlp/5+3": "5693a728400984be",
    "ps/tiny_mlp/8+1": "50dbb5c2bf5073f7",
    "ps/tiny_mlp/8+2": "e967b553b49a7ccf",
    "ps/tiny_mlp/8+3": "db101d70e1ca1246",
    "ps/tiny_mlp/13+1": "b655d28406633293",
    "ps/tiny_mlp/13+2": "fdcc143b3b96bd0c",
    "ps/tiny_mlp/13+3": "e90767224dc0526f",
}
