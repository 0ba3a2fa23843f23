"""Multi-host scatter: identity and fault recovery over real sockets.

Shard hosts run as embedded asyncio servers on background threads —
real TCP, real frames, real failure modes (a stopped thread looks like
a killed host process to the coordinator) — over the very dataset the
engine holds, which is exactly what a spawned ``repro shard-host``
process reconstructs from the workload spec.

The acceptance bar everywhere: results bitwise-identical to a fresh
sequential engine, whatever the transport did to get there.
"""

import asyncio
import logging

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, oracle
from repro.core.config import QueryOptions
from repro.datagen import query_pool
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    MaxBRSTkNNServer,
    PoolUnavailable,
    RetryPolicy,
    ServerConfig,
    ShardHost,
    ShardedEngine,
    WorkloadSpec,
)
from repro.serve.shardhost import make_workload

from .conftest import (
    HostThread,
    assert_results_equal,
    build_dataset,
    make_queries,
)

OPTS = QueryOptions(method="approx", mode="joint")
FAST = DeadlinePolicy(flush_deadline_s=5.0)


def sharded_with_hosts(num_shards, num_hosts, seed=0, fault_on_host=None,
                       **dataset_kwargs):
    """A ShardedEngine plus ``num_hosts`` embedded full-dataset hosts.

    The hosts hold the engine's own dataset — a byte-identical replica,
    the in-process analog of a shard-host process rebuilding it from
    the workload spec.
    """
    dataset, rng, vocab = build_dataset(seed, **dataset_kwargs)
    engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
    hosts = []
    for i in range(num_hosts):
        fault = fault_on_host.get(i) if fault_on_host else None
        hosts.append(HostThread(ShardHost(dataset, fault=fault)))
    return engine, hosts, rng, vocab


def connect(engine, hosts, retry=None, deadline=FAST):
    engine.connect_hosts(
        [f"127.0.0.1:{h.port}" for h in hosts],
        retry=retry if retry is not None else RetryPolicy(max_retries=2),
        deadline=deadline,
    )


def teardown(engine, hosts):
    engine.close_hosts()
    for h in hosts:
        h.stop()


def reference_results(dataset, queries, engine):
    ref = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4), object_tree=engine.object_tree)
    opts = QueryOptions(method="approx", mode="joint")
    return [oracle.query(ref, q, opts) for q in queries]


# ----------------------------------------------------------------------
# Identity: lane counts x host counts x mixed k
# ----------------------------------------------------------------------

@pytest.mark.parametrize("num_shards,num_hosts", [(2, 2), (4, 4), (4, 2)])
def test_socket_scatter_matches_sequential(num_shards, num_hosts):
    engine, hosts, rng, vocab = sharded_with_hosts(num_shards, num_hosts)
    try:
        connect(engine, hosts)
        queries = make_queries(rng, vocab, 8, ks=(3, 5))
        served = engine.query_batch(queries, OPTS)
        report = engine.last_flush_report
        assert report.degraded_lanes == 0
        assert report.total_retries == 0
        scatter = {s.stage: s for s in report.stages}
        # One row range per configured lane, dealt over the hosts ...
        assert scatter["refine"].scatter_width == num_shards
        assert scatter["refine"].payload_bytes_out > 0
        assert scatter["refine"].payload_bytes_in > 0
        assert [row["scatter_flushes"] for row in engine.shard_stats()] \
            == [1] * num_shards
        # ... and the selections ride the same hosts: one lane each.
        assert scatter["select"].scatter_width == num_hosts
        assert scatter["select"].payload_bytes_out > 0
        assert scatter["select"].payload_bytes_in > 0
        assert engine.gather_stats()["search_flushes"] == 1
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_lanes_balance_uneven_per_k_chunks_and_row_ranges():
    """8 queries over three ks split into chunks of 2,1,2,1,1,1 queries;
    round-robin would load the lanes 5:3 — each lane must get 4.  The
    refine's three ranges of 16 users (5, 5, 6) are dealt the same
    way: least-loaded lane first, ties to the lower lane."""
    engine, hosts, rng, vocab = sharded_with_hosts(3, 2, seed=10)
    try:
        connect(engine, hosts)
        transport = engine._executor.transport
        dispatch, loads = transport.dispatch, {}

        def spy(lanes):
            kind = lanes[0].payloads[0][0]
            weigh = (lambda p: p[6] - p[5]) if kind == "refine" else (
                lambda p: len(p[1]))
            loads[kind] = [
                sum(weigh(p) for p in lane.payloads) for lane in lanes
            ]
            assert [lane.wire_id for lane in lanes] == [0, 1]
            return dispatch(lanes)

        transport.dispatch = spy
        queries = make_queries(rng, vocab, 8, ks=(3, 5, 7))
        served = engine.query_batch(queries, OPTS)
        assert loads == {"refine": [11, 5], "select": [4, 4]}
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_socket_scatter_memoizes_refine_across_flushes():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=5)
    try:
        connect(engine, hosts)
        first = make_queries(rng, vocab, 4, ks=(3,))
        second = make_queries(rng, vocab, 4, ks=(3,))
        engine.query_batch(first, OPTS)
        engine.query_batch(second, OPTS)
        report = engine.last_flush_report
        refine = next(s for s in report.stages if s.stage == "refine")
        # k=3 was merged on the first flush; the second ships nothing.
        assert refine.scatter_width == 0
        assert refine.payload_bytes_out == 0
    finally:
        teardown(engine, hosts)


def test_host_death_rescatters_to_survivor():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=1)
    try:
        connect(engine, hosts)
        warm = make_queries(rng, vocab, 4, ks=(3,))
        engine.query_batch(warm, OPTS)
        hosts[0].stop()  # killed host: connections reset mid-round
        queries = make_queries(rng, vocab, 4, ks=(5,))
        served = engine.query_batch(queries, OPTS)
        report = engine.last_flush_report
        assert report.total_retries >= 1
        assert report.degraded_lanes == 0
        counters = engine.fault_counters()
        assert counters["worker_deaths"] == 1
        assert counters["retries"] >= 1
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_all_hosts_dead_degrades_in_process():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=2)
    try:
        connect(engine, hosts)
        for h in hosts:
            h.stop()
        queries = make_queries(rng, vocab, 4, ks=(3, 5))
        served = engine.query_batch(queries, OPTS)
        report = engine.last_flush_report
        assert report.stage("refine").degraded > 0
        # The refine found both hosts dead: with no host left, the select
        # round runs in-process, as the plan then says — one lane, no
        # round over the dead fleet to degrade, no search flush counted.
        select = report.stage("select")
        assert (select.scatter_width, select.degraded) == (1, 0)
        assert engine.gather_stats()["search_flushes"] == 0
        assert engine.fault_counters()["worker_deaths"] == 2
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


@pytest.mark.parametrize("fault_host,stash_peak", [(0, 1), (1, 0)])
def test_drop_on_search_frame_rescatters_the_lane(fault_host, stash_peak):
    """Per host the cold flush's frames are refine (0), select (1): the
    drop lands on a select lane, which re-scatters to the survivor.
    Lane 0 rides host 0 and is collected first, so when
    host 0 drops, lane 0 joins lane 1 on host 1's connection and reads
    its sibling's RESULT first — the stash hands it over."""
    engine, hosts, rng, vocab = sharded_with_hosts(
        2, 2, seed=11, fault_on_host={fault_host: FaultPlan.drop_connection(1)}
    )
    try:
        connect(engine, hosts)
        registry = engine._registry
        recv_matching, peaks = registry._recv_matching, []

        def spy(*args):
            try:
                return recv_matching(*args)
            finally:
                peaks.append(len(registry._stash))

        registry._recv_matching = spy
        queries = make_queries(rng, vocab, 8, ks=(3, 5))
        served = engine.query_batch(queries, OPTS)
        report = engine.last_flush_report
        select = report.stage("select")
        assert (select.scatter_width, select.retries, select.degraded) == (2, 1, 0)
        assert report.total_retries == 1
        assert report.degraded_lanes == 0
        counters = engine.fault_counters()
        assert counters["worker_deaths"] == 1
        assert counters["retries"] == 1
        assert max(peaks) == stash_peak
        assert not registry._stash
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_host_death_and_degrade_are_logged(caplog):
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=12)
    try:
        connect(engine, hosts)
        hosts[0].stop()
        with caplog.at_level(logging.INFO, logger="repro"):
            engine.query_batch(make_queries(rng, vocab, 4, ks=(3,)), OPTS)
            hosts[1].stop()
            engine.query_batch(make_queries(rng, vocab, 4, ks=(5,)), OPTS)
        # Host deaths are the transport's to report; degrades are
        # run_round's, whatever the transport.
        records = [
            r for r in caplog.records
            if r.name in ("repro.serve.transport", "repro.core.pipeline")
        ]
        assert all(r.levelno == logging.WARNING for r in records)
        deaths = [r.getMessage() for r in records if "marked dead" in r.getMessage()]
        assert len(deaths) == 2  # once per host, not once per failed lane
        assert f"127.0.0.1:{hosts[0].port}" in deaths[0]
        assert "flush_seq=1" in deaths[0] and "reason=" in deaths[0]
        degrades = [r.getMessage() for r in records if "degrading" in r.getMessage()]
        assert degrades, "every in-process degrade must be logged"
        # The second flush's refine finds host 1 dead too and degrades;
        # its select round then has no host to leave to and runs
        # in-process, with nothing to degrade.
        assert any("refine round" in m and "lane=0" in m for m in degrades)
        assert not any("select round" in m for m in degrades)
        assert all("retries_used=" in m for m in degrades)
    finally:
        teardown(engine, hosts)


# ----------------------------------------------------------------------
# The planner governs the host fan-out like the pool fan-out
# ----------------------------------------------------------------------

def test_host_fanout_is_reported_and_explained():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=13)
    try:
        assert engine.capabilities().search_workers == 0
        connect(engine, hosts)
        assert engine.capabilities().search_workers == 2
        assert engine.gather_stats()["search_workers"] == 2
        plan = engine.plan(OPTS, ks=[3, 5])
        assert plan.shard.search_workers == 2
        text = plan.explain()
        assert "in one round over 2 full-dataset lane(s)" in text
        assert "phase 2 (candidate selection): search lanes x2" in text
        assert "root pool" not in text
        hosts[0].stop()
        engine._registry.ping_all(timeout_s=0.2)
        assert engine.capabilities().search_workers == 1
        engine.close_hosts()
        assert engine.capabilities().search_workers == 0
        assert engine.gather_stats()["search_workers"] == 0
    finally:
        teardown(engine, hosts)


@pytest.mark.parametrize("transport", ["pool", "socket"])
def test_sub_ms_selections_keep_fanning_out(transport):
    """Planning reads no timings: flush after flush of sub-millisecond
    selections (smoke-scale data, 4 candidate locations), every
    multi-query select round still ships to both hosts, and the plan is
    the one the engine made cold."""
    dataset, workload = make_workload(WorkloadSpec(objects=300, users=40, seed=0))
    engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
    hosts = [HostThread(ShardHost(dataset)) for _ in range(2)] \
        if transport == "socket" else []
    queries = query_pool(workload, 8, num_locations=4, ws=2, k=3, seed=0)
    ks = [q.k for q in queries]
    try:
        if transport == "socket":
            connect(engine, hosts)
        else:
            engine.start_pools(1)
        cold = engine.plan(OPTS, ks=ks)
        assert cold.shard.search_workers == 2
        for flush in range(24):
            served = engine.query_batch(queries, OPTS)
            select = engine.last_flush_report.stage("select")
            assert select.scatter_width == 2, f"flush {flush} ran in-process"
            assert select.items == len(queries)
        assert engine.gather_stats()["search_flushes"] == 24
        assert engine.plan(OPTS, ks=ks) == cold
        assert_results_equal(
            served, reference_results(dataset, queries, engine)
        )
    finally:
        engine.close_pools()
        teardown(engine, hosts)


def test_one_host_registry_ships_the_searches_and_explain_says_so():
    """A fan-out of width 1 is still a fan-out: explain() and the
    executor decide it with the same predicate."""
    engine, hosts, rng, vocab = sharded_with_hosts(2, 1, seed=16)
    try:
        connect(engine, hosts)
        queries = make_queries(rng, vocab, 4, ks=(3, 5))
        plan = engine.plan(OPTS, ks=[q.k for q in queries])
        assert plan.shard.search_workers == 1
        text = plan.explain()
        assert "in one round over 1 full-dataset lane(s)" in text
        assert "phase 2 (candidate selection): search lanes x1" in text
        served = engine.query_batch(queries, OPTS)
        select = engine.last_flush_report.stage("select")
        assert select.scatter_width == 1
        assert select.payload_bytes_out > 0
        assert engine.gather_stats()["search_flushes"] == 1
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_heartbeat_marks_dead_and_resurrects():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 2, seed=4)
    try:
        connect(engine, hosts)
        registry = engine._registry
        assert all(registry.ping_all().values())
        hosts[1].stop()
        sweep = registry.ping_all()
        assert sweep[f"127.0.0.1:{hosts[1].port}"] is False
        assert len(registry.alive_hosts()) == 1
        assert registry.counters["worker_deaths"] == 1
    finally:
        teardown(engine, hosts)


def test_connect_hosts_excludes_fork_pools():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 1, seed=6)
    try:
        connect(engine, hosts)
        with pytest.raises(RuntimeError, match="hosts are connected"):
            engine.start_pools(1)
        engine.close_hosts()
        engine.start_pools(1)
        with pytest.raises(RuntimeError, match="local hosts are running"):
            engine.connect_hosts([f"127.0.0.1:{hosts[0].port}"])
        engine.close_pools()
    finally:
        engine.close_pools()
        engine.close_hosts()
        for h in hosts:
            h.stop()


# ----------------------------------------------------------------------
# Socket faults through the server (exact ServerStats counters)
# ----------------------------------------------------------------------

def serve_over_sockets(engine, hosts, queries, retry=None):
    """Run one served batch over the socket transport; returns
    ``(results, stats_snapshot)``."""
    connect(engine, hosts, retry=retry)
    config = ServerConfig(
        max_batch=len(queries), max_wait_ms=50.0, pool_workers=0,
        options=OPTS, deadline=FAST,
    )

    async def run():
        async with MaxBRSTkNNServer(engine, config) as server:
            results = await server.submit_many(queries)
            return results, server.stats_snapshot()

    return asyncio.run(run())


def test_drop_connection_fault_recovers_via_rescatter():
    engine, hosts, rng, vocab = sharded_with_hosts(
        2, 2, seed=7, fault_on_host={0: FaultPlan.drop_connection(0)}
    )
    try:
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        served, stats = serve_over_sockets(engine, hosts, queries)
        assert stats["worker_deaths"] == 1
        assert stats["flush_retries"] >= 1
        assert stats["degraded_flushes"] == 0
        assert stats["deadline_hits"] == 0
        assert stats["bytes_shipped"] > 0
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_stall_read_fault_hits_deadline_then_recovers():
    engine, hosts, rng, vocab = sharded_with_hosts(
        2, 2, seed=8,
        fault_on_host={0: FaultPlan.stall_read(0, stall_s=30.0)},
    )
    try:
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        engine.connect_hosts(
            [f"127.0.0.1:{h.port}" for h in hosts],
            retry=RetryPolicy(max_retries=2),
            deadline=DeadlinePolicy(flush_deadline_s=0.5),
        )
        config = ServerConfig(
            max_batch=len(queries), max_wait_ms=50.0, pool_workers=0,
            options=OPTS,
        )

        async def run():
            async with MaxBRSTkNNServer(engine, config) as server:
                results = await server.submit_many(queries)
                return results, server.stats_snapshot()

        served, stats = asyncio.run(run())
        assert stats["deadline_hits"] == 1
        assert stats["worker_deaths"] == 1  # the stalled host left rotation
        assert stats["flush_retries"] >= 1
        assert stats["degraded_flushes"] == 0
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


def test_refuse_accept_fault_degrades_every_flush_in_process():
    engine, hosts, rng, vocab = sharded_with_hosts(
        2, 2, seed=9,
        fault_on_host={0: FaultPlan.refuse(), 1: FaultPlan.refuse()},
    )
    try:
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        served, stats = serve_over_sockets(engine, hosts, queries)
        assert stats["degraded_flushes"] >= 1
        assert stats["worker_deaths"] == 2  # both hosts refused service
        assert_results_equal(
            served, reference_results(engine.dataset, queries, engine)
        )
    finally:
        teardown(engine, hosts)


# ----------------------------------------------------------------------
# Replica fingerprint: a host built from other data is refused
# ----------------------------------------------------------------------

def test_pong_carries_the_replica_digest():
    engine, hosts, rng, vocab = sharded_with_hosts(2, 1, seed=3)
    try:
        connect(engine, hosts)
        (client,) = engine._registry.clients
        assert client.fingerprint() == engine.dataset.fingerprint()
    finally:
        teardown(engine, hosts)


@pytest.mark.parametrize("replica", ["another seed", "one user fewer"])
def test_connect_refuses_a_host_with_another_replica(replica):
    engine, hosts, rng, vocab = sharded_with_hosts(2, 1, seed=3)
    if replica == "another seed":
        other, _, _ = build_dataset(4)
    else:
        full = engine.dataset
        other = Dataset(full.objects, full.users[:-1], relevance=full.relevance.name)
    stranger = HostThread(ShardHost(other))
    try:
        addrs = [f"127.0.0.1:{hosts[0].port}", f"127.0.0.1:{stranger.port}"]
        with pytest.raises(PoolUnavailable) as info:
            engine.connect_hosts(addrs)
        message = str(info.value)
        assert addrs[1] in message
        assert engine.dataset.fingerprint() in message
        assert other.fingerprint() in message
        assert engine._registry is None
        # The refusal left no transport behind: the engine still answers.
        queries = make_queries(rng, vocab, 2, ks=(3,))
        assert_results_equal(
            engine.query_batch(queries, OPTS),
            reference_results(engine.dataset, queries, engine),
        )
    finally:
        engine.close_hosts()
        stranger.stop()
        for h in hosts:
            h.stop()
