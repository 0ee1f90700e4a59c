"""Numeric and size-only runs of each protocol move the same bytes per link.

The clusters and the traffic counters walk the same phase bodies, one with
float32 arrays and one with element counts. Per phase and per link, the
payload bytes must agree. Two known differences are left out: numeric
layer-separated runs also ship labels as CONTROL messages, and numeric PS
runs send one message per tensor where the counter sends one per shard.
"""

from collections import Counter

import pytest

from stanza.model_partition import tiny_cnn, tiny_mlp
from stanza.ps_runtime import PsCluster, ps_traffic
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza.transport import NetConfig, Tag

from trainers import LR, MU, make_batch_fn

NET = NetConfig(bandwidth=1e9)
ITERATIONS = 2
MODELS = {"tiny_cnn": (tiny_cnn, None), "tiny_mlp": (tiny_mlp, 4)}
SHAPES = [(n, m) for n in (1, 3, 5, 8) for m in (1, 3) if m <= n]


def link_bytes(ledger, key) -> Counter:
    out = Counter()
    for m in ledger.messages:
        out[key(m)] += m.payload_bytes
    return out


@pytest.mark.parametrize("n_conv,n_fc", SHAPES)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_stanza_links_match(model, n_conv, n_fc):
    make_spec, boundary = MODELS[model]
    spec = make_spec()
    cluster = StanzaCluster(spec, n_conv=n_conv, n_fc=n_fc,
                            batch_fn=make_batch_fn(spec, 5), lr=LR,
                            momentum=MU, net=NET, seed=4, boundary=boundary)
    numeric = cluster.train(ITERATIONS).transport.ledger
    counted = stanza_traffic(spec, n_conv=n_conv, n_fc=n_fc,
                             iterations=ITERATIONS, net=NET,
                             boundary=boundary).ledger

    def key(m):
        return (m.phase_index, m.src, m.dst, m.tag)

    labels = link_bytes(numeric, key)
    for k in [k for k in labels if k[3] is Tag.CONTROL]:
        del labels[k]
    assert labels == link_bytes(counted, key)
    assert numeric.tag_messages[Tag.CONTROL] == ITERATIONS * n_conv
    assert counted.tag_messages[Tag.CONTROL] == 0


@pytest.mark.parametrize("n_workers,n_servers", SHAPES)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_ps_links_match(model, n_workers, n_servers):
    spec = MODELS[model][0]()
    cluster = PsCluster(spec, n_workers=n_workers, n_servers=n_servers,
                        batch_fn=make_batch_fn(spec, 5), lr=LR, momentum=MU,
                        net=NET, seed=4)
    numeric = cluster.train(ITERATIONS).transport.ledger
    counted = ps_traffic(spec, n_workers=n_workers, n_servers=n_servers,
                         iterations=ITERATIONS, net=NET).ledger

    def key(m):
        return (m.phase_index, m.src, m.dst)

    assert link_bytes(numeric, key) == link_bytes(counted, key)
    assert numeric.logical_clock == counted.logical_clock
