"""Simulated output pinned across a matrix of protocols, models and sizes.

Each case runs one protocol and hashes what it leaves behind: the ledger CSV,
the ledger summary JSON and, for numeric runs, the losses and final parameter
digest. The pinned digests were computed with the thread-per-node executor,
so they hold the sequential phase executor to the same messages, link
sequences, phase loads and folds, byte for byte. Every case also runs with
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
                              fc_unit_time=0.002, seed=5), ""
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
    "stanza_traffic/alexnet/3+1": "80c35f4c8703d8db",
    "stanza_traffic/alexnet/3+2": "a2e5e9b3a25dfb62",
    "stanza_traffic/alexnet/3+3": "b349dca530c37311",
    "stanza_traffic/alexnet/5+1": "b087680c3668d3a1",
    "stanza_traffic/alexnet/5+2": "9445ccc09e12b44e",
    "stanza_traffic/alexnet/5+3": "b7bd1f8cf87ae04d",
    "stanza_traffic/alexnet/8+1": "77e1bab001173dd2",
    "stanza_traffic/alexnet/8+2": "abef54e786296894",
    "stanza_traffic/alexnet/8+3": "39288cc2929f9a8d",
    "stanza_traffic/alexnet/33+1": "32e0f6584ba0ced9",
    "stanza_traffic/alexnet/33+2": "14cc519de3930bb1",
    "stanza_traffic/alexnet/33+3": "1cbc960b239d737d",
    "stanza_traffic/alexnet/127+1": "b31dbcac9596219f",
    "stanza_traffic/alexnet/127+2": "767a1ec1cc7cac07",
    "stanza_traffic/alexnet/127+3": "007304effeca109f",
    "stanza_traffic/vgg16/1+1": "a83a136f22e1c163",
    "stanza_traffic/vgg16/2+1": "d2b1b25590ff3789",
    "stanza_traffic/vgg16/2+2": "b11f649db02b0b4d",
    "stanza_traffic/vgg16/3+1": "deb94a044997df14",
    "stanza_traffic/vgg16/3+2": "e843e4125b8c0ff7",
    "stanza_traffic/vgg16/3+3": "82b2cae2fa8ebba1",
    "stanza_traffic/vgg16/5+1": "1d2c2a42b009a19b",
    "stanza_traffic/vgg16/5+2": "4199780a1a8ed957",
    "stanza_traffic/vgg16/5+3": "847c6ff66f523f43",
    "stanza_traffic/vgg16/8+1": "868a22ea16b6539f",
    "stanza_traffic/vgg16/8+2": "2e6993dad2569f09",
    "stanza_traffic/vgg16/8+3": "9a09c6e292daf9d7",
    "stanza_traffic/vgg16/33+1": "a97ca786e0d0de2b",
    "stanza_traffic/vgg16/33+2": "c2da2ecf9d59441e",
    "stanza_traffic/vgg16/33+3": "2d5ebb800d914c70",
    "stanza_traffic/vgg16/127+1": "2e0689af9dd6e424",
    "stanza_traffic/vgg16/127+2": "770801bb5b3cffff",
    "stanza_traffic/vgg16/127+3": "035005562df35d12",
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
    "stanza/tiny_cnn/3+1": "892f0744e163f685",
    "stanza/tiny_cnn/3+2": "52da1aca0820ed00",
    "stanza/tiny_cnn/3+3": "eb044cb5ab18974f",
    "stanza/tiny_cnn/5+1": "fbbc7e4b11d85d61",
    "stanza/tiny_cnn/5+2": "f4e2371a81106226",
    "stanza/tiny_cnn/5+3": "251482954ad7bcf5",
    "stanza/tiny_cnn/8+1": "7b5d8d085a5ddd3c",
    "stanza/tiny_cnn/8+2": "fc269b9b7a360343",
    "stanza/tiny_cnn/8+3": "054bf969ffa2a130",
    "stanza/tiny_cnn/13+1": "d7481389d06ea405",
    "stanza/tiny_cnn/13+2": "16372eddc79b2321",
    "stanza/tiny_cnn/13+3": "8116cda540043789",
    "stanza/tiny_mlp/1+1": "400fb560e2ef0bc0",
    "stanza/tiny_mlp/2+1": "0902c172c5916b22",
    "stanza/tiny_mlp/2+2": "547f4dd6e7c81293",
    "stanza/tiny_mlp/3+1": "81e38eba24ba5d3e",
    "stanza/tiny_mlp/3+2": "03db93411bf4a3de",
    "stanza/tiny_mlp/3+3": "7eca96855d039a4b",
    "stanza/tiny_mlp/5+1": "53aef42d5a80a739",
    "stanza/tiny_mlp/5+2": "163ee5db47142811",
    "stanza/tiny_mlp/5+3": "cdbe6c48ce61b1bf",
    "stanza/tiny_mlp/8+1": "69963967fa604c15",
    "stanza/tiny_mlp/8+2": "d2cf0c65c40cd135",
    "stanza/tiny_mlp/8+3": "aa8184d0e04c3790",
    "stanza/tiny_mlp/13+1": "e693f10c90aed839",
    "stanza/tiny_mlp/13+2": "c152c16543e32637",
    "stanza/tiny_mlp/13+3": "a97a6e5ab07df7e7",
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
