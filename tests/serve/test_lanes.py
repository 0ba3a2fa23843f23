"""One engine, N lanes: how user rows are dealt cannot change an answer.

Algorithm 2 refines ``RSk(u)`` per user against one shared candidate
pool, so a ``ShardedEngine`` deals ``dataset.users`` over its
full-dataset lanes as contiguous row ranges and must return *exactly*
the single engine's answer.  The one property here holds that — with
``==``, never ``approx`` — over lane counts 1…9 (uneven ranges, more
lanes than it pays to have), mixed k read off one k_max refinement,
keyword-less users and all three transports — and the oracle
(:mod:`repro.oracle`) agrees with both sides — and two seeded mutants
of the dealing show it has teeth.  Below it, the
regression test for what the change is for: a 2-lane engine runs 2
worker processes (forked shard hosts), not 4.
"""

import multiprocessing
import os
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Dataset,
    EngineConfig,
    MaxBRSTkNNEngine,
    MaxBRSTkNNQuery,
    QueryOptions,
    STObject,
    User,
    oracle,
)
from repro.core import pipeline
from repro.serve import MaxBRSTkNNServer, ServerConfig, ShardHost, ShardedEngine
from repro.spatial.geometry import Point
from repro.storage.shm import arena_segments

from ..conftest import make_random_objects, make_random_users
from .conftest import HostThread, live_children

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
VOCAB = 16
UNSEEN_TERM = 10_000  # in no object: Z(u.d) = 0 for whoever holds only it


def build_dataset(seed, n_users):
    """Random users, every fourth one keyword-less (``Z = 0``: no term at
    all, or only a term no object holds)."""
    rng = random.Random(seed)
    objects = make_random_objects(50, VOCAB, rng)
    users = make_random_users(n_users, VOCAB, rng)
    for i, user in enumerate(users):
        if i % 4 == 1:
            users[i] = User(
                item_id=user.item_id, location=user.location,
                terms={} if i % 8 == 1 else {UNSEEN_TERM: 1},
            )
    measure = ["LM", "TF", "KO"][seed % 3]
    return Dataset(objects, users, relevance=measure, alpha=0.5), rng


def make_queries(rng, ks):
    return [
        MaxBRSTkNNQuery(
            ox=STObject(
                item_id=-(i + 1),
                location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                terms={},
            ),
            locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3)],
            keywords=sorted(rng.sample(range(VOCAB), 5)),
            ws=2,
            k=k,
        )
        for i, k in enumerate(ks)
    ]


def answer_key(result):
    """Everything of a result but its wall-clock fields."""
    stats = result.stats
    return (
        result.location, result.keywords, result.brstknn,
        stats.users_total, stats.users_pruned, stats.locations_pruned,
        stats.keyword_combinations_scored,
        stats.io_node_visits, stats.io_invfile_blocks,
    )


def serve_on(engine, transport, hosts):
    """Install ``transport`` ('inline' | 'pool' | 'socket') on ``engine``."""
    if transport == "pool":
        engine.start_pools(1)
    elif transport == "socket":
        # Two embedded hosts whatever the lane count: ranges are dealt.
        hosts.extend(HostThread(ShardHost(engine.dataset)) for _ in range(2))
        engine.connect_hosts([f"127.0.0.1:{h.port}" for h in hosts])


def selection_key(result):
    """What a batch shares with a cold sequential query: the answer and
    the selection counters (the top-k I/O reports the shared walk)."""
    return (
        result.location, result.keywords, result.brstknn,
        result.stats.locations_pruned, result.stats.keyword_combinations_scored,
    )


def check_lanes_equal_single_engine(seed, n_users, lanes, ks, transport):
    dataset, rng = build_dataset(seed, n_users)
    options = QueryOptions()
    batches = [make_queries(rng, ks), make_queries(rng, ks[:1])]  # cold, warm
    single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=lanes))
    hosts = []
    try:
        serve_on(sharded, transport, hosts)
        for queries in batches:
            want = single.query_batch(queries, options)
            got = sharded.query_batch(queries, options)
            assert [answer_key(r) for r in got] == [answer_key(r) for r in want]
            assert [selection_key(r) for r in got] == [
                selection_key(oracle.query(reference, q, options)) for q in queries
            ]
        # One walk, one refinement at k_max: every k's RSk map is the
        # single engine's, value for value and in its row order.
        assert sharded.traversal_runs == single.traversal_runs == 1
        pool = single._traversal_pool
        scalar = oracle.individual_topk(pool.traversal, dataset, pool.k)
        for k in set(ks):
            merged = sharded._merged_by_k[k].rsk
            central = pool.by_k[k].rsk
            assert merged == central and list(merged) == list(central)
            assert merged.values.tolist() == scalar.rsk(k).values.tolist()
        assert sharded.io.snapshot() == single.io.snapshot()  # the I/O trace
        assert [row["refine_tasks"] for row in sharded.shard_stats()] \
            == [len(set(ks))] * lanes
        assert sum(row["users"] for row in sharded.shard_stats()) == n_users
        assert sharded.last_flush_report.degraded_lanes == 0
    finally:
        sharded.close_pools()
        sharded.close_hosts()
        for host in hosts:
            host.stop()


TRANSPORTS = ["inline"] + (["pool", "socket"] if HAS_FORK else [])


@given(
    seed=st.integers(0, 10_000),
    n_users=st.integers(1, 30),
    lanes=st.integers(1, 9),
    ks=st.lists(st.sampled_from([1, 2, 4, 7]), min_size=1, max_size=4),
    transport=st.sampled_from(TRANSPORTS),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_lane_count_answers_like_a_single_engine(
    seed, n_users, lanes, ks, transport
):
    check_lanes_equal_single_engine(seed, n_users, lanes, ks, transport)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("lanes", range(1, 10))
def test_every_lane_count_on_every_transport(lanes, transport):
    """The sweep the 40 drawn examples cannot promise: each lane count
    on each transport, every run (23 users: uneven ranges for every
    count but 1)."""
    check_lanes_equal_single_engine(lanes, 23, lanes, [2, 5, 2], transport)


def test_more_lanes_than_users_neither_crash_nor_double_report():
    check_lanes_equal_single_engine(3, 30, 64, [2, 5], "inline")


@pytest.mark.parametrize("mutant", ["overlap-by-one-row", "last-range-dropped"])
def test_a_mutated_dealing_fails_the_property(mutant, monkeypatch):
    """The property has teeth: ranges that overlap by one row, or that
    lose the last range, must not get an answer out."""
    real = pipeline.user_row_ranges

    def overlapping(n_users, n_lanes):
        return [(max(0, lo - 1), hi) for lo, hi in real(n_users, n_lanes)]

    def dropped(n_users, n_lanes):
        ranges = real(n_users, n_lanes)
        return ranges[:-1] + [(ranges[-1][0], ranges[-1][0])]

    monkeypatch.setattr(
        pipeline, "user_row_ranges",
        overlapping if mutant == "overlap-by-one-row" else dropped,
    )
    with pytest.raises(ValueError, match="re-reports|first missing"):
        check_lanes_equal_single_engine(5, 20, 3, [2, 4], "inline")


# ----------------------------------------------------------------------
# What the change is for: one pool of num_shards workers
# ----------------------------------------------------------------------

@pytest.mark.skipif(
    not (HAS_FORK and os.path.isdir("/proc")), reason="needs fork and /proc"
)
def test_two_lane_server_runs_two_workers_and_leaves_nothing_behind():
    import asyncio

    dataset, rng = build_dataset(11, 24)
    options = QueryOptions()
    single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    engine = ShardedEngine(
        dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
    )
    cold, warm = make_queries(rng, [2, 5, 2, 5]), make_queries(rng, [5, 2, 2])
    before_children, before_segments = set(live_children()), set(arena_segments())

    async def run():
        config = ServerConfig(
            max_batch=4, max_wait_ms=50.0, pool_workers=1, options=options
        )
        async with MaxBRSTkNNServer(engine, config) as server:
            workers = set(live_children()) - before_children
            assert len(workers) == 2  # was 4: two search + two per-shard
            # ... and they are the fleet's forked hosts, not a
            # multiprocessing pool's workers.
            assert workers == set(engine._registry.pids())
            assert not multiprocessing.active_children()
            reports = []
            for queries in (cold, warm):
                served = await server.submit_many(queries)
                want = single.query_batch(queries, options)
                assert [answer_key(r) for r in served] \
                    == [answer_key(r) for r in want]
                reports.append(engine.last_flush_report)
            return reports

    cold_report, warm_report = asyncio.run(run())
    # Cold: refine round -> select round, the same two lanes each.
    assert cold_report.stage("refine").scatter_width == 2
    assert cold_report.stage("select").scatter_width == 2
    # Warm: the refine is memoized, one round.
    assert warm_report.stage("refine").scatter_width == 0
    assert warm_report.stage("select").scatter_width == 2
    assert set(live_children()) == before_children
    assert set(arena_segments()) == before_segments
