"""ShardedEngine: result identity with a single engine, plus plumbing.

For randomized datasets and mixed-k batches a ``ShardedEngine`` returns
*exactly* the single-engine answer — results (location, keywords,
BRSTkNN), I/O counters and selection stats.  The joint-mode property
over lane counts and transports lives in ``test_lanes.py``;
here: both keyword selectors, memoization across flushes,
edge cases and the pool / server plumbing.
"""

import asyncio
import multiprocessing
import random

import pytest

from repro import (
    Dataset,
    EngineConfig,
    MaxBRSTkNNEngine,
    MaxBRSTkNNQuery,
    QueryOptions,
    STObject,
    oracle,
)
from repro.serve import (
    MaxBRSTkNNServer, ServerConfig, ShardedEngine, ShardHost, make_engine,
)
from repro.spatial.geometry import Point

from ..conftest import (
    frame_lanes, make_random_objects, make_random_users, section7, won_users,
)
from .conftest import HostThread

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def build_dataset(seed=0, n_obj=70, n_users=24, vocab=18):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    measure = ["LM", "TF", "KO"][seed % 3]
    return Dataset(objects, users, relevance=measure, alpha=0.5), rng, vocab


def make_queries(rng, vocab, count, ks=(3, 5)):
    queries = []
    for i in range(count):
        queries.append(
            MaxBRSTkNNQuery(
                ox=STObject(
                    item_id=-(i + 1),
                    location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    terms={},
                ),
                locations=[
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)
                ],
                keywords=sorted(rng.sample(range(vocab), 6)),
                ws=2,
                k=ks[i % len(ks)],
            )
        )
    return queries


def assert_results_equal(a, b):
    assert a.location == b.location
    assert a.keywords == b.keywords
    assert a.brstknn == b.brstknn


def assert_selection_stats_equal(a, b):
    """What a batch shares with a cold sequential query: the selection
    counters (its top-k I/O reports the shared walk)."""
    assert a.stats.users_total == b.stats.users_total
    assert a.stats.locations_pruned == b.stats.locations_pruned
    assert a.stats.keyword_combinations_scored == b.stats.keyword_combinations_scored


def assert_stats_equal(a, b):
    """Non-time stats must match the single-engine batch exactly."""
    assert a.stats.users_total == b.stats.users_total
    assert a.stats.io_node_visits == b.stats.io_node_visits
    assert a.stats.io_invfile_blocks == b.stats.io_invfile_blocks
    assert a.stats.locations_pruned == b.stats.locations_pruned
    assert a.stats.keyword_combinations_scored == b.stats.keyword_combinations_scored


class TestEquivalenceProperty:
    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_both_selectors(self, method):
        dataset, rng, vocab = build_dataset(seed=7)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        options = QueryOptions(method=method)
        reference = single.query_batch(queries, options)
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=3))
        frame_lanes(sharded, 3)
        for a, b in zip(reference, sharded.query_batch(queries, options)):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_sharded_matches_the_oracle(self):
        dataset, rng, vocab = build_dataset(seed=4)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = [oracle.query(single, q, QueryOptions()) for q in queries]
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions())
        ):
            assert_results_equal(a, b)
            assert_selection_stats_equal(a, b)

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_plain_engine_with_num_shards_matches_the_oracle(self, num_shards):
        """A plain engine ignores ``num_shards``; given N lanes it deals
        its refine as N row ranges: each cold query is the oracle's —
        answer, stats and I/O trace — and so is each answer of a
        batch."""
        dataset, rng, vocab = build_dataset(seed=6)
        queries = make_queries(rng, vocab, 3, ks=(3, 5))
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        engine.query(queries[0], QueryOptions())
        assert engine.last_flush_report.stage("refine").scatter_width == 1
        frame_lanes(engine, num_shards)
        twin = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4), object_tree=engine.object_tree)
        for query in queries:
            before = twin.io.snapshot()
            want = oracle.query(twin, query, QueryOptions())
            want_io = twin.io.snapshot() - before
            before = engine.io.snapshot()
            got = engine.query(query, QueryOptions())
            assert engine.io.snapshot() - before == want_io
            assert_results_equal(want, got)
            assert_stats_equal(want, got)
        for query, got in zip(queries, engine.query_batch(queries, QueryOptions())):
            assert_results_equal(oracle.query(twin, query, QueryOptions()), got)
        assert engine.last_flush_report.stage("refine").scatter_width == num_shards

    def test_single_query_matches_sequential(self):
        dataset, rng, vocab = build_dataset(seed=2)
        query = make_queries(rng, vocab, 1, ks=(4,))[0]
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        solo = oracle.query(single, query, QueryOptions())
        # num_shards=1 included: query() must work on the degenerate
        # sharded layout too (it plans as a batch of one either way).
        for num_shards in (1, 2):
            sharded = ShardedEngine(
                dataset, EngineConfig(fanout=4, num_shards=num_shards)
            )
            assert_results_equal(
                solo, sharded.query(query, QueryOptions())
            )

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_mixed_k_flush_refines_once_per_lane(self, num_shards, monkeypatch):
        """One Algorithm 2 pass per lane at the flush's largest missing
        k, over the lane's rows of the FULL dataset; every k still gets
        its own partial and merged map, identical to the single
        engine's."""
        from repro.core.pipeline import user_row_ranges

        import importlib

        partial = importlib.import_module("repro.core.partial")
        refine = partial.individual_topk
        refined = []

        def spy(traversal, dataset, k, users, **kwargs):
            refined.append((len(dataset.users), len(users), k))
            return refine(traversal, dataset, k, users=users, **kwargs)

        monkeypatch.setattr(partial, "individual_topk", spy)
        dataset, rng, vocab = build_dataset(seed=3)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        # A plain engine is the one-range case: one refinement, every user.
        assert refined == [(len(dataset.users), len(dataset.users), 6)]
        refined.clear()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        frame_lanes(sharded, num_shards)
        results = sharded.query_batch(queries, QueryOptions())
        ranges = user_row_ranges(len(dataset.users), num_shards)
        assert refined == [(len(dataset.users), hi - lo, 6) for lo, hi in ranges]
        refine = sharded.last_flush_report.stage("refine")
        assert (refine.scatter_width, refine.items) == (num_shards, 3)
        for k in (2, 4, 6):
            merged = sharded._executor.merged_by_k[k]
            assert merged.users_total == len(dataset.users)
            assert merged.rsk == single._executor.traversal_pool.by_k[k].rsk
            assert list(merged.rsk) == list(single._executor.traversal_pool.by_k[k].rsk)
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_consecutive_batches_reuse_the_walk_and_thresholds(self):
        dataset, rng, vocab = build_dataset(seed=1)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        frame_lanes(sharded, 2)
        first = sharded.query_batch(queries, QueryOptions())
        assert sharded.last_flush_report.stage("refine").scatter_width == 2
        second = sharded.query_batch(queries, QueryOptions())
        assert sharded.traversal_runs == 1
        # memoized across batches: no second refine round
        assert sharded.last_flush_report.stage("refine").scatter_width == 0
        for a, b, c in zip(reference, first, second):
            assert_results_equal(a, b)
            assert_results_equal(a, c)


    @pytest.mark.parametrize("num_shards", [2, 4])
    def test_shared_state_never_outlives_the_walk_it_reports(self, num_shards):
        """The per-k state the select round ships is memoized, but keyed
        to the traversal-pool generation: after ``k=5 -> k=20 -> k=5``
        the merged thresholds survive the re-walk (no second refine at
        5) while every stat reports the k=20 walk now serving — and a
        cleared cache reports a fresh k=5 walk again.  A memo keyed on k
        alone passes the answers and fails the stats, silently."""
        from repro.serve.shardhost import WorkloadSpec, make_workload

        # Clustered users under a spatial-heavy alpha: the walk prunes,
        # so its I/O depends on k (the uniform builders' never does).
        dataset, workload = make_workload(WorkloadSpec(
            objects=600, users=30, area=0.2, locations=4, alpha=0.9, seed=1,
        ))
        rng = random.Random(9)

        def queries_at(k, count=3):
            return [
                MaxBRSTkNNQuery(
                    ox=workload.query_object(-(i + 1)),
                    locations=workload.locations,
                    keywords=sorted(rng.sample(workload.candidate_keywords, 5)),
                    ws=2,
                    k=k,
                )
                for i in range(count)
            ]

        options = QueryOptions()
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        frame_lanes(sharded, num_shards)
        refined = []

        def flush(queries):
            results = sharded.query_batch(queries, options)
            refined.extend(sharded.last_flush_report.stage("refine").items * [queries[0].k])
            for a, b in zip(single.query_batch(queries, options), results):
                assert_results_equal(a, b)
                assert_stats_equal(a, b)
            stats = results[0].stats
            return stats.io_node_visits, stats.io_invfile_blocks

        walks = [flush(queries_at(k)) for k in (5, 20, 5, 5)]
        assert walks[0] != walks[1]  # the two walks' I/O really differ
        assert walks[2] == walks[3] == walks[1]
        assert sharded.traversal_runs == 2
        assert refined == [5, 20]  # k=5 once, k=20 once
        # Warm flushes hand the codec ONE object per k to delta-ship,
        # counting a hit per query served.
        shared = sharded._executor.traversal_pool.by_k[5]
        assert shared.hits == 6
        flush(queries_at(5, count=2))
        assert sharded._executor.traversal_pool.by_k[5] is shared
        assert shared.hits == 8
        single.clear_topk_cache()
        sharded.clear_topk_cache()
        assert flush(queries_at(5)) == walks[0]  # a fresh k=5 walk again
        assert sharded._executor.traversal_pool.by_k[5] is not shared


class TestSection7Reference:
    """Section 7's MIUR-tree search is reference code in
    :mod:`repro.oracle`, not an engine mode: the sharded joint answers
    are held to it and to a from-scratch re-scoring."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_batch_wins_as_many_users_as_section7(self, seed, num_shards):
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))  # mixed k
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        frame_lanes(sharded, num_shards)
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        for query, got in zip(queries, sharded.query_batch(queries, QueryOptions())):
            assert got.cardinality == section7(single, query).cardinality
            assert got.brstknn == won_users(dataset, query, got.location, got.keywords)


class TestEdgeCases:
    def test_more_shards_than_users(self):
        dataset, rng, vocab = build_dataset(seed=3, n_users=3)
        queries = make_queries(rng, vocab, 3, ks=(2,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        from repro.core.pipeline import user_row_ranges

        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=8))
        frame_lanes(sharded, 8)
        # 3 users over 8 lanes: five ranges are empty, none overlaps.
        assert sorted(hi - lo for lo, hi in user_row_ranges(3, 8)) == [0] * 5 + [1] * 3
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions())
        ):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
        assert sharded.last_flush_report.stage("refine").scatter_width == 8

    def test_empty_batch(self):
        dataset, _, _ = build_dataset(seed=5)
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        assert sharded.query_batch([]) == []


class TestValidation:
    def test_sharded_rejects_external_pool(self):
        # The engine owns its worker pool (start_pools / connect_hosts);
        # query_batch has no way to be handed another one.
        dataset, rng, vocab = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        with pytest.raises(TypeError, match="'pool'"):
            sharded.query_batch(make_queries(rng, vocab, 2), pool=object())

    def test_make_engine_dispatch(self):
        dataset, _, _ = build_dataset()
        assert isinstance(make_engine(dataset, EngineConfig(fanout=4)), MaxBRSTkNNEngine)
        assert isinstance(
            make_engine(dataset, EngineConfig(fanout=4, num_shards=2)), ShardedEngine
        )

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_shards"):
            EngineConfig(num_shards=0)
        with pytest.raises(TypeError, match="partitioner"):
            EngineConfig(partitioner="hash")  # the knob is gone


@pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
class TestPools:
    def test_pool_backed_scatter_matches_in_process(self):
        dataset, rng, vocab = build_dataset(seed=6)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.start_pools()
        try:
            results = sharded.query_batch(queries, QueryOptions())
        finally:
            sharded.close_pools()
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
        assert sharded.last_flush_report.stage("refine").scatter_width == 2

    def test_double_start_raises_and_close_is_idempotent(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.start_pools()
        with pytest.raises(RuntimeError):
            sharded.start_pools()
        sharded.close_pools()
        sharded.close_pools()


class TestTheRefineIsDealtOverTheLanes:
    """The cold refine's scatter width is the transport's lanes: one
    range in-process — a plain engine, or a ``ShardedEngine`` before its
    fleet starts, whatever ``num_shards`` says — and one range per host
    of a fleet, forked or over sockets."""

    @staticmethod
    def cold_refine_width(engine):
        dataset, rng, vocab = build_dataset(seed=2)
        queries = make_queries(rng, vocab, 4)
        engine.query(queries[0], QueryOptions())
        width = engine.last_flush_report.stage("refine").scatter_width
        engine.clear_topk_cache()
        engine.query_batch(queries, QueryOptions())
        assert engine.last_flush_report.stage("refine").scatter_width == width
        return width

    def test_in_process_is_one_range(self):
        dataset, _, _ = build_dataset(seed=2)
        config = EngineConfig(fanout=4, num_shards=2)
        assert self.cold_refine_width(MaxBRSTkNNEngine(dataset, config)) == 1
        assert self.cold_refine_width(ShardedEngine(dataset, config)) == 1

    @pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
    def test_a_forked_fleet_is_one_range_per_host(self):
        dataset, _, _ = build_dataset(seed=2)
        engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        with engine.start_pools():
            assert len(engine._registry.pids()) == 2
            assert self.cold_refine_width(engine) == 2

    def test_socket_hosts_are_one_range_each(self):
        dataset, _, _ = build_dataset(seed=2)
        engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        hosts = [HostThread(ShardHost(dataset)) for _ in range(2)]
        try:
            engine.connect_hosts([f"127.0.0.1:{h.port}" for h in hosts])
            assert self.cold_refine_width(engine) == 2
        finally:
            engine.close_hosts()
            for host in hosts:
                host.stop()


class TestServerIntegration:
    def test_server_takes_sharded_engine_unchanged(self):
        dataset, rng, vocab = build_dataset(seed=8)
        queries = make_queries(rng, vocab, 8, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = [oracle.query(single, q, QueryOptions()) for q in queries]
        engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))

        async def run():
            async with MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms=2.0)
            ) as server:
                results = await server.submit_many(queries)
                snapshot = server.stats_snapshot()
            return results, snapshot

        results, snapshot = asyncio.run(run())
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
        # No fleet started: every round ran in-process, one refine range.
        assert engine.last_flush_report.stage("refine").scatter_width in (0, 1)
        assert engine.last_flush_report.degraded_lanes == 0
        assert snapshot["queue_depth_peak"] >= 1

    @pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
    def test_server_starts_and_stops_engine_pools(self):
        dataset, rng, vocab = build_dataset(seed=9)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))

        async def run():
            async with MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms=1.0, pool_workers=1)
            ) as server:
                assert engine._registry is not None and engine._registry.forked
                return await server.submit_many(queries)

        results = asyncio.run(run())
        assert len(results) == 4
        assert engine._registry is None  # closed on server stop
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        for q, served in zip(queries, results):
            assert_results_equal(oracle.query(single, q, QueryOptions()), served)


@pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
class TestStartPoolsFailure:
    """A construction failure must leave no pool, no arena, no flag."""

    def test_failed_start_restores_the_in_process_state(self, monkeypatch):
        import repro.serve.sharded as sharded_mod
        from repro.storage.shm import arena_segments

        dataset, rng, vocab = build_dataset(seed=3)
        engine = make_engine(
            dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
        )
        real_pool = sharded_mod.PersistentWorkerPool

        def broken(*args, **kwargs):
            raise RuntimeError("boom: fork failed")

        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", broken)
        before = set(arena_segments())
        with pytest.raises(RuntimeError, match="boom"):
            engine.start_pools()
        # The arena materialized for the fork was released again ...
        assert set(arena_segments()) == before
        assert engine.arena_name is None
        # ... and the engine is back in its clean in-process state.
        assert engine._registry is None
        queries = make_queries(rng, vocab, 2, ks=(3,))
        assert len(engine.query_batch(queries, QueryOptions())) == 2
        # A later healthy start is not blocked by the failed one.
        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", real_pool)
        engine.start_pools()
        try:
            assert engine._registry.workers == 2
            assert len(engine._registry.pids()) == 2
        finally:
            engine.close_pools()


class TestPlanner:
    def test_plan_reports_scatter_and_merge(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=4))
        # No host yet: one range, in-process.
        assert "scatter" not in sharded.plan(QueryOptions(), ks=[3, 5]).explain()
        frame_lanes(sharded, 4)
        text = sharded.plan(QueryOptions(), ks=[3, 5]).explain()
        assert "scatter: refine by user row range x4" in text
        assert "partition" not in text
        assert "merge=ordered-union" in text
        assert "once per (walk, k)" in text

    def test_single_engine_plans_no_lanes(self):
        dataset, _, _ = build_dataset()
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, num_shards=3))
        assert engine.plan(QueryOptions(), ks=[3]).lanes == 0
