"""ShardedEngine: result identity with a single engine, plus plumbing.

For randomized datasets and mixed-k batches a ``ShardedEngine`` returns
*exactly* the single-engine answer — results (location, keywords,
BRSTkNN), I/O counters and selection stats.  The joint-mode property
over lane counts and transports lives in ``test_lanes.py``;
here: both keyword selectors, indexed mode, memoization across flushes,
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
from repro.serve import MaxBRSTkNNServer, ServerConfig, ShardedEngine, make_engine
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users

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
        its own partial, merged map and ``refine_tasks`` tick, identical
        to the single engine's."""
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
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        results = sharded.query_batch(queries, QueryOptions())
        lanes = sharded.lane_stats
        assert len(lanes) == num_shards
        assert sum(lane.users for lane in lanes) == len(dataset.users)
        assert refined == [(len(dataset.users), lane.users, 6) for lane in lanes]
        for lane in lanes:
            assert lane.refine_tasks == 3
        for k in (2, 4, 6):
            merged = sharded._merged_by_k[k]
            assert merged.users_total == len(dataset.users)
            assert merged.rsk == single._traversal_pool.by_k[k].rsk
            assert list(merged.rsk) == list(single._traversal_pool.by_k[k].rsk)
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_consecutive_batches_reuse_the_walk_and_thresholds(self):
        dataset, rng, vocab = build_dataset(seed=1)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        first = sharded.query_batch(queries, QueryOptions())
        second = sharded.query_batch(queries, QueryOptions())
        assert sharded.traversal_runs == 1
        for lane in sharded.lane_stats:
            assert lane.refine_tasks == 1  # memoized across batches
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

        def flush(queries):
            results = sharded.query_batch(queries, options)
            for a, b in zip(single.query_batch(queries, options), results):
                assert_results_equal(a, b)
                assert_stats_equal(a, b)
            stats = results[0].stats
            return stats.io_node_visits, stats.io_invfile_blocks

        walks = [flush(queries_at(k)) for k in (5, 20, 5, 5)]
        assert walks[0] != walks[1]  # the two walks' I/O really differ
        assert walks[2] == walks[3] == walks[1]
        assert sharded.traversal_runs == 2
        for lane in sharded.lane_stats:
            assert lane.refine_tasks == 2  # k=5 once, k=20 once
        # Warm flushes hand the codec ONE object per k to delta-ship,
        # counting a hit per query served.
        shared = sharded.root._traversal_pool.by_k[5]
        assert shared.hits == 6
        flush(queries_at(5, count=2))
        assert sharded.root._traversal_pool.by_k[5] is shared
        assert shared.hits == 8
        single.clear_topk_cache()
        sharded.clear_topk_cache()
        assert flush(queries_at(5)) == walks[0]  # a fresh k=5 walk again
        assert sharded.root._traversal_pool.by_k[5] is not shared


class TestIndexedEquivalenceProperty:
    """PR 5 acceptance: ``Mode.INDEXED`` rides the same scatter — results,
    I/O traces and selection stats bitwise-identical to the single
    sequential engine, one k_max walk per flush."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_indexed_sharded_equals_single_engine_batch(self, seed, num_shards):
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))  # mixed k
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        options = QueryOptions(mode="indexed")
        reference = single.query_batch(queries, options)
        assert single.traversal_runs == 1  # indexed cross-k sharing

        sharded = ShardedEngine(
            dataset,
            EngineConfig(fanout=4, num_shards=num_shards, index_users=True),
        )
        results = sharded.query_batch(queries, options)
        assert sharded.traversal_runs == 1  # one k_max walk per flush
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
            assert a.stats.users_pruned == b.stats.users_pruned
        # The shared I/O counter ends exactly where the single engine's
        # did (walk + every search's MIUR page reads).
        assert sharded.io.snapshot().total == single.io.snapshot().total

    def test_indexed_sharded_equals_cold_sequential_results(self):
        """Results (not just batch-vs-batch) match truly cold per-query
        sequential execution — the node-RSk reformulation guarantee."""
        dataset, rng, vocab = build_dataset(seed=11)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        options = QueryOptions(mode="indexed")
        sequential = []
        for q in queries:
            fresh = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
            sequential.append(fresh.query(q, options))
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        for a, b in zip(sequential, sharded.query_batch(queries, options)):
            assert_results_equal(a, b)
            # Selection stats (pruning, combinations, users pruned) are
            # cold-identical; top-k I/O reports the shared walk instead.
            assert a.stats.locations_pruned == b.stats.locations_pruned
            assert (
                a.stats.keyword_combinations_scored
                == b.stats.keyword_combinations_scored
            )
            assert a.stats.users_pruned == b.stats.users_pruned

    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_indexed_both_selectors(self, method):
        dataset, rng, vocab = build_dataset(seed=12)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        options = QueryOptions(mode="indexed", method=method)
        reference = single.query_batch(queries, options)
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=3, index_users=True)
        )
        for a, b in zip(reference, sharded.query_batch(queries, options)):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_indexed_sharded_matches_the_oracle(self):
        dataset, rng, vocab = build_dataset(seed=13)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        reference = [
            oracle.query(single, q, QueryOptions(mode="indexed")) for q in queries
        ]
        sharded = ShardedEngine(
            dataset,
            EngineConfig(fanout=4, num_shards=2, index_users=True),
        )
        for a, b in zip(
            reference,
            sharded.query_batch(queries, QueryOptions(mode="indexed")),
        ):
            assert_results_equal(a, b)
            assert_selection_stats_equal(a, b)

    @pytest.mark.skipif(not HAS_FORK, reason="search pool requires fork")
    def test_indexed_search_pool_fanout_matches_in_process(self):
        """The per-query searches fan out over the worker pool with
        IOCharge ledgers — results AND the shared counter identical to
        the in-process path."""
        dataset, rng, vocab = build_dataset(seed=14)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        options = QueryOptions(mode="indexed")
        inproc = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        reference = inproc.query_batch(queries, options)
        pooled = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        pooled.start_pools(1)
        try:
            results = pooled.query_batch(queries, options)
        finally:
            pooled.close_pools()
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
            assert a.stats.users_pruned == b.stats.users_pruned
        assert pooled.io.snapshot().total == inproc.io.snapshot().total

    def test_indexed_single_query_matches_sequential(self):
        dataset, rng, vocab = build_dataset(seed=15)
        query = make_queries(rng, vocab, 1, ks=(4,))[0]
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        solo = oracle.query(single, query, QueryOptions(mode="indexed"))
        for num_shards in (1, 2):
            sharded = ShardedEngine(
                dataset,
                EngineConfig(fanout=4, num_shards=num_shards, index_users=True),
            )
            assert_results_equal(
                solo,
                sharded.query(query, QueryOptions(mode="indexed")),
            )

    def test_indexed_plan_reports_pooling_and_fanout(self):
        dataset, _, _ = build_dataset(seed=16)
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        text = sharded.plan(QueryOptions(mode="indexed"), ks=[3, 5]).explain()
        assert "MIUR-root joint traversal" in text
        assert "one walk at k=5" in text
        assert "in-process per query" in text  # no pool running
        sharded.start_pools(1)
        try:
            text = sharded.plan(QueryOptions(mode="indexed"), ks=[3, 5]).explain()
            assert "worker pool x2" in text
            assert "ledger" in text
        finally:
            sharded.close_pools()


class TestEdgeCases:
    def test_more_shards_than_users(self):
        dataset, rng, vocab = build_dataset(seed=3, n_users=3)
        queries = make_queries(rng, vocab, 3, ks=(2,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions())
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=8))
        # 3 users over 8 lanes: five ranges are empty, none overlaps.
        assert sorted(row["users"] for row in sharded.shard_stats()) \
            == [0] * 5 + [1] * 3
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions())
        ):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_empty_batch(self):
        dataset, _, _ = build_dataset(seed=5)
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        assert sharded.query_batch([]) == []


class TestValidation:
    def test_plain_engine_rejects_shard_config(self):
        dataset, _, _ = build_dataset()
        with pytest.raises(ValueError, match="ShardedEngine"):
            MaxBRSTkNNEngine(dataset, EngineConfig(num_shards=2))

    def test_sharded_rejects_baseline_mode(self):
        dataset, rng, vocab = build_dataset()
        query = make_queries(rng, vocab, 1)[0]
        # num_shards=1 included: the planner cannot tell a 1-shard
        # ShardedEngine apart, so the engine enforces the
        # group-traversal-only contract itself.
        for num_shards in (1, 2):
            sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
            with pytest.raises(ValueError, match="baseline|joint"):
                sharded.query(query, QueryOptions(mode="baseline"))

    def test_sharded_indexed_requires_user_tree(self):
        dataset, rng, vocab = build_dataset()
        query = make_queries(rng, vocab, 1)[0]
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        with pytest.raises(ValueError, match="index_users"):
            sharded.query(query, QueryOptions(mode="indexed"))

    def test_sharded_accepts_index_users(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(num_shards=2, index_users=True))
        assert sharded.user_tree is sharded.root.user_tree is not None

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
        sharded.start_pools(1)
        try:
            results = sharded.query_batch(queries, QueryOptions())
        finally:
            sharded.close_pools()
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
        assert [row["scatter_flushes"] for row in sharded.shard_stats()] == [1, 1]

    def test_double_start_raises_and_close_is_idempotent(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.start_pools(1)
        with pytest.raises(RuntimeError):
            sharded.start_pools(1)
        sharded.close_pools()
        sharded.close_pools()


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
        # per-lane refine counters surfaced, keyed by lane
        assert [row["shard"] for row in snapshot["shards"]] == [0, 1]
        for row in snapshot["shards"]:
            assert row["scatter_flushes"] >= 1
            assert row["refine_tasks"] >= 1 and row["refine_ms"] >= 0
            assert row["queue_depth_peak"] >= 1
            assert (row["retries"], row["degraded_rounds"]) == (0, 0)
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
            engine.start_pools(1)
        # The arena materialized for the fork was released again ...
        assert set(arena_segments()) == before
        assert engine.arena_name is None
        # ... and the engine is back in its clean in-process state.
        assert engine._registry is None
        queries = make_queries(rng, vocab, 2, ks=(3,))
        assert len(engine.query_batch(queries, QueryOptions())) == 2
        # A later healthy start is not blocked by the failed one.
        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", real_pool)
        engine.start_pools(1)
        try:
            assert engine._registry.workers == 2
            assert len(engine._registry.pids()) == 2
        finally:
            engine.close_pools()


class TestPlanner:
    def test_plan_reports_scatter_and_merge(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=4))
        text = sharded.plan(QueryOptions(), ks=[3, 5]).explain()
        assert "scatter: refine by user row range x4" in text
        assert "partition" not in text
        assert "merge=ordered-union" in text
        assert "once per (walk, k)" in text

    def test_shard_plan_absent_on_single_engine(self):
        dataset, _, _ = build_dataset()
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        assert engine.plan(QueryOptions(), ks=[3]).shard is None
