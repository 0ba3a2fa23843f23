"""Cross-flush result cache behind the server: identity + accounting.

The headline property: with the cache on, repeated traffic is answered
from the LRU — and every answer (hit or miss) is *identical* to a
fresh sequential engine's, across modes and shard counts.  A cache
keying bug (missing an answer-relevant field) would surface here as a
wrong cached answer; an invalidation bug as a hit after an epoch bump.
"""

import asyncio
import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle
from repro.core.config import CachePolicy
from repro.serve import MaxBRSTkNNServer, ServerConfig, make_engine

from ..conftest import make_random_objects, make_random_users
from .test_server import assert_result_equal, make_queries


def build_dataset(seed=0, n_obj=60, n_users=16, vocab=16):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    return Dataset(objects, users, relevance="LM", alpha=0.5), rng, vocab


def serve_waves(engine, config, waves, between=None):
    """Serve each wave through one server; ``between`` runs after wave 1."""

    async def run():
        outs = []
        async with MaxBRSTkNNServer(engine, config) as server:
            for i, wave in enumerate(waves):
                outs.append(await server.submit_many(wave))
                if between is not None and i == 0:
                    between()
            return outs, server.stats, server.stats_snapshot()

    return asyncio.run(run())


class TestCachedServingIdentity:
    @pytest.mark.parametrize("mode", ["joint", "indexed"])
    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_repeat_wave_hits_and_stays_identical(self, mode, num_shards):
        dataset, rng, vocab = build_dataset(seed=num_shards)
        engine = make_engine(
            dataset,
            EngineConfig(
                fanout=4,
                index_users=(mode == "indexed"),
                num_shards=num_shards,
            ),
        )
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        config = ServerConfig(
            max_batch=32,
            max_wait_ms=2.0,
            options=QueryOptions(mode=mode),
            cache=True,
        )
        (first, second), stats, snap = serve_waves(
            engine, config, [queries, queries]
        )
        assert stats.cache_misses == len(queries)
        assert stats.cache_hits == len(queries)
        assert snap["cache_entries"] == len(queries)
        # Fresh sequential reference: no pools, caches or memos shared
        # with the served engine.
        ref = MaxBRSTkNNEngine(
            dataset, EngineConfig(fanout=4, index_users=(mode == "indexed"))
        )
        reference = QueryOptions(mode=mode)
        for query, a, b in zip(queries, first, second):
            solo = oracle.query(ref, query, reference)
            assert_result_equal(solo, a)
            assert_result_equal(solo, b)

    def test_epoch_bump_invalidates_between_waves(self):
        dataset, rng, vocab = build_dataset(seed=5)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 4)
        (first, second), stats, _ = serve_waves(
            engine,
            ServerConfig(max_wait_ms=2.0, cache=True),
            [queries, queries],
            between=dataset.bump_epoch,
        )
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2 * len(queries)
        reference = QueryOptions()
        for query, a, b in zip(queries, first, second):
            solo = oracle.query(engine, query, reference)
            assert_result_equal(solo, a)
            assert_result_equal(solo, b)

    def test_lru_evictions_are_counted(self):
        dataset, rng, vocab = build_dataset(seed=6)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 6)
        _, stats, snap = serve_waves(
            engine,
            ServerConfig(max_wait_ms=2.0, cache=CachePolicy(max_entries=2)),
            [queries],
        )
        assert stats.cache_evictions == len(queries) - 2
        assert snap["cache_entries"] == 2

    def test_threshold_warm_tier_counts_already_walked_ks(self):
        dataset, rng, vocab = build_dataset(seed=7)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        wave1 = make_queries(rng, vocab, 4, ks=(5,))
        wave2 = make_queries(rng, vocab, 4, ks=(3,))  # distinct; k under 5
        _, stats, _ = serve_waves(
            engine,
            ServerConfig(max_batch=32, max_wait_ms=2.0, cache=True),
            [wave1, wave2],
        )
        # Wave 1 flushed against a cold engine (no memoized pool yet);
        # wave 2's misses all land under the k=5 walk it left behind.
        assert stats.cache_misses == 8
        assert stats.cache_threshold_hits == len(wave2)

    def test_threshold_tracking_can_be_disabled(self):
        dataset, rng, vocab = build_dataset(seed=8)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        wave1 = make_queries(rng, vocab, 3, ks=(5,))
        wave2 = make_queries(rng, vocab, 3, ks=(3,))
        _, stats, _ = serve_waves(
            engine,
            ServerConfig(
                max_wait_ms=2.0, cache=CachePolicy(track_thresholds=False)
            ),
            [wave1, wave2],
        )
        assert stats.cache_threshold_hits == 0

    def test_uncached_server_reports_no_cache_entries(self):
        dataset, rng, vocab = build_dataset(seed=9)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 3)
        _, stats, snap = serve_waves(
            engine, ServerConfig(max_wait_ms=2.0), [queries, queries]
        )
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
        assert "cache_entries" not in snap
