"""Each protocol has one transfer plan per iteration, with two readers.

A counted run charges the plan to a ledger; a numeric cluster executes the
same plan through the mailbox. The conformance test holds every numeric
schedule-regression shape to its own plan: the numeric ledger's records,
labels included, its phases and its clock equal what charging the cluster's
plan gives. The link tests compare numeric runs against the counted
counters per phase and per link: payload bytes agree except for the label
CONTROL transfers that only numeric layer-separated runs plan.
"""

from collections import Counter

import pytest

from stanza.model_partition import tiny_cnn, tiny_mlp
from stanza.ps_runtime import PsCluster, ps_traffic
from stanza.stanza_runtime import StanzaCluster, stanza_traffic
from stanza.transport import NetConfig, Tag, charge_plan

from test_schedule_regression import NUMERIC_SIZES, SECOND_GROUP
from trainers import LR, MU, make_batch_fn

NET = NetConfig(bandwidth=1e9)
ITERATIONS = 2
MODELS = {"tiny_cnn": (tiny_cnn, None), "tiny_mlp": (tiny_mlp, 4)}
SHAPES = [(n, m) for n in (1, 3, 5, 8) for m in (1, 3) if m <= n]


CONFORMANCE = [(kind, model, n, m) for kind in ("stanza", "ps")
               for model in ("tiny_cnn", "tiny_mlp")
               for n in NUMERIC_SIZES for m in SECOND_GROUP
               if kind == "ps" or m <= n]


@pytest.mark.parametrize("kind,model,n,m", CONFORMANCE)
def test_numeric_run_executes_its_plan(kind, model, n, m):
    make_spec, boundary = MODELS[model]
    spec = make_spec()
    net = NetConfig(bandwidth=1e9, per_message_latency=1e-4)
    kw = dict(batch_fn=make_batch_fn(spec, 13), lr=LR, momentum=MU, net=net,
              seed=9)
    if kind == "stanza":
        cluster = StanzaCluster(spec, n_conv=n, n_fc=m, conv_time=0.01,
                                fc_unit_time=0.002, boundary=boundary, **kw)
    else:
        cluster = PsCluster(spec, n_workers=n, n_servers=m,
                            compute_time=0.01, **kw)
    numeric = cluster.train(ITERATIONS).transport.ledger
    planned = charge_plan(cluster.plan, ITERATIONS, net).ledger
    assert numeric.messages == planned.messages
    assert numeric.phases == planned.phases
    assert numeric.summary() == planned.summary()
    labels = ITERATIONS * n if kind == "stanza" else 0
    assert numeric.tag_messages[Tag.CONTROL] == labels


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
