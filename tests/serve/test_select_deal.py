"""The select round deals queries, not (k, lane) cells.

``k`` changes nothing in Algorithm 3 but the thresholds it reads, so
``select_payloads`` cuts a flush's queries into ``min(width, n)``
payloads whose sizes differ by at most one, whatever their k, each
query carrying its own k's ``SharedTopK``.  Here: the cut itself over
drawn flushes (sizes, coverage, the state each query is paired with,
the keyword-side order, ``merge_select`` restoring flush order), then the
payload count of a warm mixed-k flush of 8 on every lane kind — 2 over
2 lanes, 1 in-process — with answers ``==`` the single engine's.
"""

import multiprocessing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, QueryOptions, STObject
from repro.core import pipeline
from repro.core.batch import SharedTopK
from repro.core.candidate_selection import _keyword_side
from repro.core.pipeline import merge_select, select_payloads
from repro.core.planner import plan_batch
from repro.serve import ShardedEngine
from repro.spatial.geometry import Point

from .test_lanes import answer_key, build_dataset, make_queries, serve_on

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

SIDES = [((), (1, 2, 3), 2), ((), (1, 2, 3), 1), (((4, 1),), (2, 5), 2)]


def drawn_flush(ks, sides):
    """What ``select_payloads`` reads: the flush's queries, each paired
    with its k's one ``SharedTopK``, and the plan."""
    queries = [
        MaxBRSTkNNQuery(
            ox=STObject(item_id=-(i + 1), location=Point(0, 0), terms=dict(terms)),
            locations=[Point(1, 1)], keywords=list(keywords), ws=ws, k=k,
        )
        for i, (k, (terms, keywords, ws)) in enumerate(zip(ks, sides))
    ]
    shared_by_k = {
        k: SharedTopK(rsk={}, rsk_group=0.0, topk_time_s=0.0,
                      io_node_visits=0, io_invfile_blocks=0)
        for k in set(ks)
    }
    engine = MaxBRSTkNNEngine(build_dataset(0, 4)[0], EngineConfig(fanout=4))
    plan = plan_batch(QueryOptions(), engine.capabilities(), list(ks))
    return queries, [shared_by_k[q.k] for q in queries], shared_by_k, plan


@given(
    data=st.data(),
    n=st.integers(1, 12),
    width=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_split_deals_balanced_payloads_whatever_their_k(data, n, width):
    ks = data.draw(st.lists(st.sampled_from([2, 4, 7]), min_size=n, max_size=n))
    sides = data.draw(st.lists(st.sampled_from(SIDES), min_size=n, max_size=n))
    flush, shared_of, shared_by_k, plan = drawn_flush(ks, sides)
    payloads, index_groups = select_payloads(flush, shared_of, plan, width)

    assert len(payloads) == min(width, n)
    sizes = [len(payload[1]) for payload in payloads]
    assert max(sizes) - min(sizes) <= 1
    dealt = [q for payload in payloads for q in payload[1]]
    assert sorted(map(id, dealt)) == sorted(id(q) for q in flush)
    for kind, queries, shared, method in payloads:
        assert (kind, method) == ("select", "approx")
        assert len(shared) == len(queries)
        for query, entry in zip(queries, shared):
            assert entry is shared_by_k[query.k]
    # Ordered by keyword side before the cut: a side's queries are one
    # run of the dealt order, so payloads x sides cells stay few.
    runs = [_keyword_side(q) for q in dealt]
    assert len([a for a, b in zip(runs, runs[1:]) if a != b]) == len(set(runs)) - 1

    results = merge_select(
        index_groups, [[("answer", id(q)) for q in p[1]] for p in payloads]
    )
    assert results == [("answer", id(q)) for q in flush]


# ----------------------------------------------------------------------
# Payloads a warm mixed-k flush dispatches, per transport
# ----------------------------------------------------------------------

def count_select_payloads(monkeypatch):
    """Select payloads handed to ``run_round``, flush by flush."""
    counted = []
    real = pipeline.run_round

    def spy(phase, lanes, transport, codec=None):
        if phase == "select":
            counted.append(sum(len(lane.payloads) for lane in lanes))
        return real(phase, lanes, transport, codec)

    monkeypatch.setattr(pipeline, "run_round", spy)
    return counted


TRANSPORTS = ["frames"] + (["pool", "socket"] if HAS_FORK else [])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_warm_mixed_k_flush_ships_one_payload_per_lane(transport, monkeypatch):
    dataset, rng = build_dataset(7, 24)
    options = QueryOptions()
    single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
    ks = [2, 5, 7, 2, 5, 7, 2, 5]
    cold, warm = make_queries(rng, ks), make_queries(rng, ks[::-1])
    hosts = []
    try:
        serve_on(sharded, transport, 2, hosts)
        counted = count_select_payloads(monkeypatch)
        for queries in (cold, warm):
            want = single.query_batch(queries, options)
            got = sharded.query_batch(queries, options)
            assert [answer_key(r) for r in got] == [answer_key(r) for r in want]
        report = sharded.last_flush_report
        assert report.stage("refine").scatter_width == 0  # warm: one round
        assert report.degraded_lanes == 0
    finally:
        sharded.close_pools()
        sharded.close_hosts()
        for host in hosts:
            host.stop()
    # One payload per lane; the plain engine's in-process flush is one.
    assert counted[-1] == 2
    assert report.stage("select").items == len(warm)
    counted.clear()
    single.query_batch(warm, options)
    assert counted == [1]
