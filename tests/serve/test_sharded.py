"""ShardedEngine: result identity with a single engine, plus plumbing.

The headline property: for randomized datasets and mixed-k batches, a
``ShardedEngine`` returns *exactly* the single-engine answer — results
(location, keywords, BRSTkNN), I/O counters and selection stats — for
shards in {1, 2, 4}, both partitioners, both backends and both keyword
selectors.
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
)
from repro.core.kernels import HAS_NUMPY
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


def assert_stats_equal(a, b):
    """Non-time stats must match the single-engine batch exactly."""
    assert a.stats.users_total == b.stats.users_total
    assert a.stats.io_node_visits == b.stats.io_node_visits
    assert a.stats.io_invfile_blocks == b.stats.io_invfile_blocks
    assert a.stats.locations_pruned == b.stats.locations_pruned
    assert a.stats.keyword_combinations_scored == b.stats.keyword_combinations_scored


class TestEquivalenceProperty:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("partitioner", ["hash", "grid"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_equals_single_engine_batch(self, seed, partitioner, num_shards):
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        options = QueryOptions(backend="python")
        reference = single.query_batch(queries, options)

        sharded = ShardedEngine(
            dataset,
            EngineConfig(fanout=4, num_shards=num_shards, partitioner=partitioner),
        )
        results = sharded.query_batch(queries, options)
        assert sharded.traversal_runs == 1  # one walk, like the single engine
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_both_selectors(self, method):
        dataset, rng, vocab = build_dataset(seed=7)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        options = QueryOptions(method=method, backend="python")
        reference = single.query_batch(queries, options)
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=3))
        for a, b in zip(reference, sharded.query_batch(queries, options)):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend")
    def test_numpy_backend_matches_python_reference(self):
        dataset, rng, vocab = build_dataset(seed=4)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, partitioner="grid")
        )
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions(backend="numpy"))
        ):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_single_query_matches_sequential(self):
        dataset, rng, vocab = build_dataset(seed=2)
        query = make_queries(rng, vocab, 1, ks=(4,))[0]
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        solo = single.query(query, QueryOptions(backend="python"))
        # num_shards=1 included: query() must work on the degenerate
        # sharded layout too (it plans as a batch of one either way).
        for num_shards in (1, 2):
            sharded = ShardedEngine(
                dataset, EngineConfig(fanout=4, num_shards=num_shards)
            )
            assert_results_equal(
                solo, sharded.query(query, QueryOptions(backend="python"))
            )

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_mixed_k_flush_refines_once_per_shard(self, num_shards, monkeypatch):
        """One Algorithm 2 pass per shard at the flush's largest missing
        k; every k still gets its own partial, merged map and
        ``refine_tasks`` tick, identical to the single engine's."""
        import importlib

        partial = importlib.import_module("repro.core.partial")
        refine = partial.individual_topk
        refined = []

        def spy(traversal, dataset, k, **kwargs):
            refined.append((len(dataset.users), k))
            return refine(traversal, dataset, k, **kwargs)

        monkeypatch.setattr(partial, "individual_topk", spy)
        dataset, rng, vocab = build_dataset(seed=3)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=num_shards))
        results = sharded.query_batch(queries, QueryOptions(backend="python"))
        populated = [shard for shard in sharded.shards if shard.users]
        assert sorted(refined) == sorted((shard.users, 6) for shard in populated)
        for shard in populated:
            assert shard.stats.refine_tasks == 3
        for k in (2, 4, 6):
            merged = sharded._merged_by_k[k]
            assert merged.per_shard_users == [shard.users for shard in populated]
            assert merged.rsk == single._traversal_pool.by_k[k].rsk
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_consecutive_batches_reuse_the_walk_and_thresholds(self):
        dataset, rng, vocab = build_dataset(seed=1)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        first = sharded.query_batch(queries, QueryOptions(backend="python"))
        second = sharded.query_batch(queries, QueryOptions(backend="python"))
        assert sharded.traversal_runs == 1
        for shard in sharded.shards:
            assert shard.stats.refine_tasks == 1  # memoized across batches
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

        options = QueryOptions(backend="python")
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
        for shard in sharded.shards:
            if shard.users:
                assert shard.stats.refine_tasks == 2  # k=5 once, k=20 once
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
    @pytest.mark.parametrize("partitioner", ["hash", "grid"])
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_indexed_sharded_equals_single_engine_batch(
        self, seed, partitioner, num_shards
    ):
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 6, ks=(2, 4, 6))  # mixed k
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        options = QueryOptions(mode="indexed", backend="python")
        reference = single.query_batch(queries, options)
        assert single.traversal_runs == 1  # indexed cross-k sharing

        sharded = ShardedEngine(
            dataset,
            EngineConfig(
                fanout=4, num_shards=num_shards, partitioner=partitioner,
                index_users=True,
            ),
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
        options = QueryOptions(mode="indexed", backend="python")
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
        options = QueryOptions(mode="indexed", method=method, backend="python")
        reference = single.query_batch(queries, options)
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=3, index_users=True)
        )
        for a, b in zip(reference, sharded.query_batch(queries, options)):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend")
    def test_indexed_numpy_backend_matches_python_reference(self):
        dataset, rng, vocab = build_dataset(seed=13)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        reference = single.query_batch(
            queries, QueryOptions(mode="indexed", backend="python")
        )
        sharded = ShardedEngine(
            dataset,
            EngineConfig(fanout=4, num_shards=2, partitioner="grid",
                         index_users=True),
        )
        for a, b in zip(
            reference,
            sharded.query_batch(queries, QueryOptions(mode="indexed", backend="numpy")),
        ):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    @pytest.mark.skipif(not HAS_FORK, reason="search pool requires fork")
    def test_indexed_search_pool_fanout_matches_in_process(self):
        """The per-query searches fan out over the root search pool with
        IOCharge ledgers — results AND the shared counter identical to
        the in-process path."""
        dataset, rng, vocab = build_dataset(seed=14)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        options = QueryOptions(mode="indexed", backend="python")
        inproc = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        reference = inproc.query_batch(queries, options)
        pooled = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        pooled.start_pools(1, search_workers=2)
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
        solo = single.query(query, QueryOptions(mode="indexed", backend="python"))
        for num_shards in (1, 2):
            sharded = ShardedEngine(
                dataset,
                EngineConfig(fanout=4, num_shards=num_shards, index_users=True),
            )
            assert_results_equal(
                solo,
                sharded.query(query, QueryOptions(mode="indexed", backend="python")),
            )

    def test_indexed_plan_reports_pooling_and_fanout(self):
        dataset, _, _ = build_dataset(seed=16)
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, index_users=True)
        )
        text = sharded.plan(QueryOptions(mode="indexed"), ks=[3, 5]).explain()
        assert "MIUR-root joint traversal" in text
        assert "one walk at k=5" in text
        assert "in-process per query" in text  # no search pool running
        sharded.start_pools(1, search_workers=2)
        try:
            text = sharded.plan(QueryOptions(mode="indexed"), ks=[3, 5]).explain()
            assert "root search pool x2" in text
            assert "ledger" in text
        finally:
            sharded.close_pools()


class TestEdgeCases:
    def test_more_shards_than_users(self):
        dataset, rng, vocab = build_dataset(seed=3, n_users=3)
        queries = make_queries(rng, vocab, 3, ks=(2,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=8))
        plan = sharded.plan(QueryOptions(), ks=[2])
        assert plan.shard is not None
        assert plan.shard.scatter_width <= 3  # empty shards never engaged
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions(backend="python"))
        ):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)

    def test_colocated_users_on_grid(self):
        rng = random.Random(9)
        from repro.model.objects import User

        objects = make_random_objects(50, 14, rng)
        users = [
            User(item_id=i, location=Point(3.0, 3.0), terms={t: 1})
            for i, t in enumerate(rng.choices(range(14), k=12))
        ]
        dataset = Dataset(objects, users, relevance="LM", alpha=0.5)
        queries = make_queries(rng, 14, 3, ks=(3,))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        # Skew guard satellite: one shard holding everything warns at
        # build time and is surfaced in stats and the plan.
        with pytest.warns(RuntimeWarning, match="unbalanced partition"):
            sharded = ShardedEngine(
                dataset, EngineConfig(fanout=4, num_shards=4, partitioner="grid")
            )
        # every user in one grid cell -> a single engaged shard
        assert sorted(sharded.assignment.counts()) == [0, 0, 0, 12]
        assert sharded.partition_skew == 4.0
        assert sharded.gather_stats()["partition_skew"] == 4.0
        plan_text = sharded.plan(QueryOptions(), ks=[3]).explain()
        assert "skew 4.00x ideal" in plan_text
        assert "UNBALANCED" in plan_text
        for a, b in zip(
            reference, sharded.query_batch(queries, QueryOptions(backend="python"))
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
        assert sharded.user_tree is not None
        # Only the root engine carries an MIUR-tree; shard engines run
        # the per-user joint phases and never need one.
        assert all(shard.engine.user_tree is None for shard in sharded.shards)

    def test_sharded_rejects_external_pool(self):
        dataset, rng, vocab = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        with pytest.raises(TypeError, match="per-shard pools"):
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
        with pytest.raises(ValueError, match="partitioner"):
            EngineConfig(partitioner="zorp")


@pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
class TestPools:
    def test_pool_backed_scatter_matches_in_process(self):
        dataset, rng, vocab = build_dataset(seed=6)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = single.query_batch(queries, QueryOptions(backend="python"))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.start_pools(1, search_workers=2)
        try:
            results = sharded.query_batch(queries, QueryOptions(backend="python"))
        finally:
            sharded.close_pools()
        for a, b in zip(reference, results):
            assert_results_equal(a, b)
            assert_stats_equal(a, b)
        for shard in sharded.shards:
            if shard.users:
                assert shard.stats.scatter_flushes >= 1

    def test_double_start_raises_and_close_is_idempotent(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.start_pools(1, search_workers=0)
        with pytest.raises(RuntimeError):
            sharded.start_pools(1)
        sharded.close_pools()
        sharded.close_pools()


class TestServerIntegration:
    def test_server_takes_sharded_engine_unchanged(self):
        dataset, rng, vocab = build_dataset(seed=8)
        queries = make_queries(rng, vocab, 8, ks=(3, 5))
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        reference = [
            single.query(q, QueryOptions(backend="python")) for q in queries
        ]
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
        # satellite: per-shard queue depth / flush counters surfaced
        assert "shards" in snapshot
        assert len(snapshot["shards"]) == 2
        for row in snapshot["shards"]:
            assert row["scatter_flushes"] >= 1
            assert "queue_depth_peak" in row
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
                assert engine._pools_started
                return await server.submit_many(queries)

        results = asyncio.run(run())
        assert len(results) == 4
        assert not engine._pools_started  # closed on server stop
        single = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        for q, served in zip(queries, results):
            assert_results_equal(single.query(q, QueryOptions(backend="python")), served)


@pytest.mark.skipif(not HAS_FORK, reason="shard pools require fork")
class TestStartPoolsFailure:
    """A construction failure mid-start must not leak forked pools."""

    def test_partial_failure_tears_down_and_reraises(self, monkeypatch):
        import repro.serve.sharded as sharded_mod

        dataset, rng, vocab = build_dataset(seed=3)
        engine = make_engine(dataset, EngineConfig(fanout=4, num_shards=2))
        real_pool = sharded_mod.PersistentWorkerPool
        created = []

        def flaky(*args, **kwargs):
            if created:  # first pool forks fine, second construction dies
                raise RuntimeError("boom: fork failed")
            pool = real_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            engine.start_pools(1)
        # The pool forked before the failure was reaped, not leaked...
        assert created and all(pool._closed for pool in created)
        # ...and the engine is back in its clean in-process state.
        assert engine._pools_started is False
        assert all(shard.pool is None for shard in engine._shards)
        assert all(shard.stats.pool_workers == 0 for shard in engine._shards)
        assert engine._search_pool is None
        queries = make_queries(rng, vocab, 2, ks=(3,))
        assert len(engine.query_batch(queries, QueryOptions())) == 2
        # A later healthy start is not blocked by the failed one.
        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", real_pool)
        engine.start_pools(1)
        try:
            assert engine._pools_started is True
        finally:
            engine.close_pools()

    def test_search_pool_failure_reaps_every_shard_pool(self, monkeypatch):
        import repro.serve.sharded as sharded_mod

        dataset, _, _ = build_dataset(seed=4)
        engine = make_engine(dataset, EngineConfig(fanout=4, num_shards=2))
        real_pool = sharded_mod.PersistentWorkerPool
        created = []

        def flaky(*args, **kwargs):
            if "context" in kwargs:  # only the root search pool passes it
                raise RuntimeError("boom: search pool failed")
            pool = real_pool(*args, **kwargs)
            created.append(pool)
            return pool

        monkeypatch.setattr(sharded_mod, "PersistentWorkerPool", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            # search_workers > 0: every shard pool forks, then the root
            # search pool construction fails last.
            engine.start_pools(1, search_workers=2)
        assert len(created) == 2
        assert all(pool._closed for pool in created)
        assert engine._pools_started is False


class TestPlanner:
    def test_plan_reports_scatter_and_merge(self):
        dataset, _, _ = build_dataset()
        sharded = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=4, partitioner="grid")
        )
        text = sharded.plan(QueryOptions(), ks=[3, 5]).explain()
        assert "scatter: width" in text
        assert "partitioner=grid" in text
        assert "merge=ordered-union" in text
        assert "k-sharing" in text

    def test_shard_plan_absent_on_single_engine(self):
        dataset, _, _ = build_dataset()
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        assert engine.plan(QueryOptions(), ks=[3]).shard is None
