"""MaxBRSTkNNServer: micro-batching, equivalence, lifecycle, stats."""

import asyncio
import multiprocessing
import random

import pytest

from repro import (
    Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, QueryOptions, oracle,
)
from repro.model.objects import STObject
from repro.serve import MaxBRSTkNNServer, PersistentWorkerPool, ServerConfig, make_engine
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def build_engine(seed=0, n_obj=60, n_users=12, vocab=16, num_shards=1):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    dataset = Dataset(objects, users, relevance="LM", alpha=0.5)
    config = EngineConfig(fanout=4, num_shards=num_shards)
    return make_engine(dataset, config), rng, vocab


def make_queries(rng, vocab, count, ks=(3,)):
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
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3)
                ],
                keywords=sorted(rng.sample(range(vocab), 5)),
                ws=2,
                k=ks[i % len(ks)],
            )
        )
    return queries


def assert_result_equal(a, b):
    assert a.location == b.location
    assert a.keywords == b.keywords
    assert a.brstknn == b.brstknn


def serve_all(engine, queries, config):
    """Start a server, submit everything concurrently, return results+stats."""

    async def run():
        async with MaxBRSTkNNServer(engine, config) as server:
            results = await server.submit_many(queries)
        return results, server.stats

    return asyncio.run(run())


class TestEquivalence:
    def test_concurrent_submissions_match_sequential(self):
        engine, rng, vocab = build_engine()
        queries = make_queries(rng, vocab, 8, ks=(3, 5))
        results, stats = serve_all(
            engine, queries, ServerConfig(max_batch=4, max_wait_ms=2.0)
        )
        reference = QueryOptions()
        for query, served in zip(queries, results):
            assert_result_equal(oracle.query(engine, query, reference), served)
        assert stats.queries_submitted == 8
        assert stats.queries_completed == 8
        assert stats.queries_failed == 0
        assert stats.in_flight == 0

    def test_interleaved_waves_match_sequential(self):
        engine, rng, vocab = build_engine(seed=4)
        queries = make_queries(rng, vocab, 9, ks=(2, 4, 6))

        async def run():
            async with MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms=1.0)
            ) as server:
                first = await server.submit_many(queries[:3])
                second = await server.submit_many(queries[3:])
            return first + second

        results = asyncio.run(run())
        reference = QueryOptions()
        for query, served in zip(queries, results):
            assert_result_equal(oracle.query(engine, query, reference), served)


class TestMicroBatching:
    def test_burst_collapses_into_one_batch(self):
        engine, rng, vocab = build_engine(seed=1)
        queries = make_queries(rng, vocab, 16)
        _, stats = serve_all(
            engine, queries, ServerConfig(max_batch=32, max_wait_ms=50.0)
        )
        assert stats.batches_executed == 1
        assert stats.largest_batch == 16

    def test_flush_on_max_batch(self):
        engine, rng, vocab = build_engine(seed=2)
        queries = make_queries(rng, vocab, 8)
        _, stats = serve_all(
            engine, queries, ServerConfig(max_batch=1, max_wait_ms=50.0)
        )
        assert stats.batches_executed == 8
        assert stats.full_flushes == 8
        assert stats.avg_batch_size == 1.0

    def test_flush_on_timeout(self):
        engine, rng, vocab = build_engine(seed=3)
        queries = make_queries(rng, vocab, 3)
        _, stats = serve_all(
            engine, queries, ServerConfig(max_batch=100, max_wait_ms=5.0)
        )
        assert stats.batches_executed >= 1
        assert stats.timeout_flushes >= 1
        assert stats.full_flushes == 0

    def test_zero_wait_still_batches_the_pending_burst(self):
        engine, rng, vocab = build_engine(seed=5)
        queries = make_queries(rng, vocab, 6)
        results, stats = serve_all(
            engine, queries, ServerConfig(max_batch=32, max_wait_ms=0.0)
        )
        assert len(results) == 6
        assert stats.queries_completed == 6
        # The gather enqueues all six before the flusher wakes: one batch.
        assert stats.batches_executed == 1


class TestLifecycle:
    def test_submit_before_start_raises(self):
        engine, rng, vocab = build_engine()
        server = MaxBRSTkNNServer(engine)
        query = make_queries(rng, vocab, 1)[0]
        with pytest.raises(RuntimeError):
            asyncio.run(server.submit(query))

    def test_double_start_raises(self):
        engine, _, _ = build_engine()

        async def run():
            async with MaxBRSTkNNServer(engine) as server:
                with pytest.raises(RuntimeError):
                    await server.start()

        asyncio.run(run())

    def test_stop_drains_pending_queries(self):
        engine, rng, vocab = build_engine(seed=6)
        queries = make_queries(rng, vocab, 4)

        async def run():
            # A huge window: only the shutdown drain can flush in time.
            server = await MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=100, max_wait_ms=10_000.0)
            ).start()
            tasks = [asyncio.create_task(server.submit(q)) for q in queries]
            await asyncio.sleep(0.01)  # let submissions enqueue
            await server.stop()
            return await asyncio.gather(*tasks), server.stats

        results, stats = asyncio.run(run())
        assert len(results) == 4
        assert stats.drain_flushes >= 1
        assert stats.queries_completed == 4
        reference = QueryOptions()
        for query, served in zip(queries, results):
            assert_result_equal(oracle.query(engine, query, reference), served)

    def test_submit_after_stop_raises(self):
        engine, rng, vocab = build_engine()
        query = make_queries(rng, vocab, 1)[0]

        async def run():
            server = await MaxBRSTkNNServer(engine).start()
            await server.stop()
            with pytest.raises(RuntimeError):
                await server.submit(query)

        asyncio.run(run())

    def test_stop_without_start_is_a_noop(self):
        engine, _, _ = build_engine()
        asyncio.run(MaxBRSTkNNServer(engine).stop())


class TestErrors:
    def test_failing_batch_fails_the_futures_and_keeps_serving(self):
        engine, rng, vocab = build_engine(seed=7)  # no user tree
        queries = make_queries(rng, vocab, 2)
        bad = ServerConfig(
            max_batch=4, max_wait_ms=1.0, options=QueryOptions(mode="indexed")
        )

        async def run():
            async with MaxBRSTkNNServer(engine, bad) as server:
                with pytest.raises(ValueError, match="index_users"):
                    await asyncio.gather(*(server.submit(q) for q in queries))
                return server.stats

        stats = asyncio.run(run())
        assert stats.queries_failed >= 1
        assert stats.in_flight == 0

    def test_invalid_server_config(self):
        with pytest.raises(ValueError):
            ServerConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServerConfig(max_wait_ms=-1)
        with pytest.raises(ValueError):
            ServerConfig(pool_workers=-1)
        with pytest.raises(ValueError):
            ServerConfig(options="approx")

    @pytest.mark.parametrize("kwargs", [
        # bool is an int subclass: every integer knob must reject it
        # explicitly or True silently means 1.
        {"max_batch": True},
        {"pool_workers": True},
        {"max_wait_ms": True},
        {"auto_wait_ceiling_ms": True},
        {"shutdown_timeout_s": True},
        {"shutdown_timeout_s": 0},
        {"shutdown_timeout_s": float("nan")},
        {"cache": "yes"},
    ])
    def test_bool_and_invalid_scalars_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ServerConfig(**kwargs)

    def test_cache_flag_normalizes_to_policy(self):
        from repro.core.config import CachePolicy

        assert ServerConfig(cache=None).cache is None
        assert ServerConfig(cache=False).cache is None
        assert ServerConfig(cache=True).cache == CachePolicy()
        policy = CachePolicy(max_entries=7)
        assert ServerConfig(cache=policy).cache is policy


class TestCancellation:
    def test_cancelled_before_flush_dropped_unexecuted(self):
        engine, rng, vocab = build_engine(seed=10)
        queries = make_queries(rng, vocab, 6)
        executed = []
        real = engine.query_batch

        def spy(batch, *a, **kw):
            executed.append(len(batch))
            return real(batch, *a, **kw)

        engine.query_batch = spy

        async def run():
            # A huge window: nothing flushes before the cancellations land.
            server = await MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=100, max_wait_ms=10_000.0)
            ).start()
            tasks = [asyncio.create_task(server.submit(q)) for q in queries]
            await asyncio.sleep(0.01)  # let submissions enqueue
            for task in tasks[::2]:
                task.cancel()
            await server.stop()  # drain flush runs only the survivors
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, server.stats

        outcomes, stats = asyncio.run(run())
        assert stats.queries_cancelled == 3
        assert stats.queries_completed == 3
        assert stats.queries_failed == 0
        assert stats.in_flight == 0
        assert executed == [3]  # cancelled queries never reached the engine
        reference = QueryOptions()
        for i, (query, out) in enumerate(zip(queries, outcomes)):
            if i % 2 == 0:
                assert isinstance(out, asyncio.CancelledError)
            else:
                assert_result_equal(oracle.query(engine, query, reference), out)

    def test_fully_cancelled_batch_executes_nothing(self):
        engine, rng, vocab = build_engine(seed=11)
        queries = make_queries(rng, vocab, 3)
        engine.query_batch = lambda *a, **kw: pytest.fail(
            "a fully-cancelled batch must not execute"
        )

        async def run():
            server = await MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=100, max_wait_ms=10_000.0)
            ).start()
            tasks = [asyncio.create_task(server.submit(q)) for q in queries]
            await asyncio.sleep(0.01)
            for task in tasks:
                task.cancel()
            await server.stop()
            await asyncio.gather(*tasks, return_exceptions=True)
            return server.stats

        stats = asyncio.run(run())
        assert stats.queries_cancelled == 3
        assert stats.batches_executed == 0
        assert stats.in_flight == 0

    def test_cancelled_while_executing_counts_cancelled(self):
        import threading
        import time

        engine, rng, vocab = build_engine(seed=12)
        queries = make_queries(rng, vocab, 2)
        started = threading.Event()
        real = engine.query_batch

        def slow(batch, *a, **kw):
            started.set()
            time.sleep(0.05)  # hold the flush so the cancel lands mid-execute
            return real(batch, *a, **kw)

        engine.query_batch = slow

        async def run():
            server = await MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=2, max_wait_ms=0.0)
            ).start()
            tasks = [asyncio.create_task(server.submit(q)) for q in queries]
            while not started.is_set():
                await asyncio.sleep(0.001)
            tasks[0].cancel()
            await server.stop()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, server.stats

        outcomes, stats = asyncio.run(run())
        assert stats.queries_cancelled == 1
        assert stats.queries_completed == 1
        assert stats.in_flight == 0
        assert isinstance(outcomes[0], asyncio.CancelledError)
        assert_result_equal(
            oracle.query(engine, queries[1], QueryOptions()), outcomes[1]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cancellation_never_drifts_in_flight(self, seed):
        """Property: submitted == completed + failed + cancelled, always."""
        engine, rng, vocab = build_engine(seed=13)
        queries = make_queries(rng, vocab, 16, ks=(2, 3))
        decider = random.Random(200 + seed)
        cancel_mask = [decider.random() < 0.4 for _ in queries]

        async def run():
            server = await MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms=2.0)
            ).start()
            tasks = [asyncio.create_task(server.submit(q)) for q in queries]
            await asyncio.sleep(0)  # let submissions enqueue
            for task, cancel in zip(tasks, cancel_mask):
                if cancel:
                    task.cancel()
            await server.stop()
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, server.stats

        outcomes, stats = asyncio.run(run())
        assert stats.queries_submitted == len(queries)
        assert stats.queries_submitted == (
            stats.queries_completed
            + stats.queries_failed
            + stats.queries_cancelled
        )
        assert stats.in_flight == 0
        assert stats.queries_failed == 0
        reference = QueryOptions()
        for query, cancelled, out in zip(queries, cancel_mask, outcomes):
            if not isinstance(out, asyncio.CancelledError):
                # Either never cancelled, or the cancel lost the race to
                # the flush — the answer must be right in both cases.
                assert_result_equal(oracle.query(engine, query, reference), out)
            else:
                assert cancelled


class TestPersistentPool:
    @pytest.mark.parametrize("pool_workers", [1, 2])
    def test_plain_engine_with_pool_workers_is_refused(self, pool_workers):
        """Worker processes belong to a ShardedEngine's lanes: a plain
        engine asking for them is a typed refusal at construction, not
        a silent second pool."""
        engine, _, _ = build_engine()
        with pytest.raises(ValueError, match=r"make_engine\(\.\.\., EngineConfig\(num_shards=N\)\)"):
            MaxBRSTkNNServer(engine, ServerConfig(pool_workers=pool_workers))
        MaxBRSTkNNServer(engine, ServerConfig(pool_workers=0))  # in-process is fine

    @pytest.mark.skipif(not HAS_FORK, reason="persistent pool requires fork")
    def test_server_with_pool_matches_sequential(self):
        engine, rng, vocab = build_engine(seed=8, num_shards=2)
        queries = make_queries(rng, vocab, 6, ks=(3, 5))
        results, stats = serve_all(
            engine,
            queries,
            ServerConfig(max_batch=6, max_wait_ms=2.0, pool_workers=1),
        )
        fresh = MaxBRSTkNNEngine(engine.dataset, EngineConfig(fanout=4))
        reference = QueryOptions()
        for query, served in zip(queries, results):
            assert_result_equal(oracle.query(fresh, query, reference), served)
        assert stats.queries_completed == 6
        # The hosts were the engine's: one fleet, closed with the server.
        assert engine._registry is None

    @pytest.mark.skipif(not HAS_FORK, reason="persistent pool requires fork")
    def test_pool_direct_usage_and_close(self):
        """Driving the lanes' pool without a server: answers match the
        plain engine in-process, and a closed pool refuses work."""
        engine, rng, vocab = build_engine(seed=9, num_shards=2)
        engine.start_pools(1)
        pool = engine._registry
        try:
            queries = make_queries(rng, vocab, 4)
            batched = engine.query_batch(queries, QueryOptions())
        finally:
            engine.close_pools()
        plain = MaxBRSTkNNEngine(engine.dataset, EngineConfig(fanout=4))
        inprocess = plain.query_batch(queries, QueryOptions())
        for a, b in zip(inprocess, batched):
            assert_result_equal(a, b)
        with pytest.raises(RuntimeError):
            pool.collect(pool.dispatch([]))

    def test_pool_rejects_bad_worker_count(self):
        engine, _, _ = build_engine()
        with pytest.raises(ValueError):
            PersistentWorkerPool(engine.dataset, workers=0)

    @pytest.mark.skipif(not HAS_FORK, reason="persistent pool requires fork")
    def test_stop_with_dead_worker_is_bounded(self):
        """A host stopped mid-life must not hang server.stop() forever."""
        import os
        import signal
        import time

        engine, _, _ = build_engine(seed=14, num_shards=2)
        config = ServerConfig(
            pool_workers=1, max_wait_ms=0.0, shutdown_timeout_s=0.5
        )

        async def run():
            server = await MaxBRSTkNNServer(engine, config).start()
            victim = server.engine._registry.pids()[0]
            # SIGSTOP is the harshest case: the host never reads its
            # EOF, so only the SIGKILL escalation inside the bounded
            # close can reap it.
            os.kill(victim, signal.SIGSTOP)
            t0 = time.monotonic()
            with pytest.warns(RuntimeWarning, match="did not shut down"):
                await server.stop()
            assert time.monotonic() - t0 < 10.0

        asyncio.run(run())
