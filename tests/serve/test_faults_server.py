"""Server-level fault recovery: identity under injected faults, typed
admission/shutdown failures, exact recovery counters.

The acceptance bar: under every injected fault the server keeps
answering, the answers are bitwise-identical to a fresh sequential
engine, and ``ServerStats`` reports exactly what recovery work was done
(respawns, retries, degraded flushes, shed requests).  The pooled cases
run over a 2-lane ShardedEngine with one forked shard host per lane —
the only engine a server forks processes for.
"""

import asyncio
import os

import pytest

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    MaxBRSTkNNServer,
    RetryPolicy,
    ServerConfig,
    ServerOverloaded,
    ServerStopped,
)

from .conftest import assert_results_equal, build_engine, build_lanes, make_queries

HAS_FORK = hasattr(os, "fork")

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0)


def serve_all(engine, queries, config):
    """Start a server, submit everything concurrently, return
    (results, stats, snapshot-taken-while-running)."""

    async def run():
        async with MaxBRSTkNNServer(engine, config) as server:
            results = await server.submit_many(queries)
            snap = server.stats_snapshot()
        return results, server.stats, snap

    return asyncio.run(run())


def reference_results(engine, queries):
    """A fresh sequential engine over the same dataset: the identity bar."""
    fresh = MaxBRSTkNNEngine(engine.dataset, EngineConfig(fanout=4))
    options = QueryOptions()
    return [fresh.query(query, options) for query in queries]


@pytest.mark.skipif(not HAS_FORK, reason="local shard hosts require os.fork")
class TestPooledRecovery:
    def test_worker_kill_recovers_with_identity_and_exact_counts(self):
        engine, rng, vocab = build_lanes()
        queries = make_queries(rng, vocab, 8)
        reference = reference_results(engine, queries)
        results, stats, snap = serve_all(
            engine, queries,
            ServerConfig(
                max_batch=8, max_wait_ms=5.0, pool_workers=1,
                retry=FAST_RETRY, deadline=FAST_DEADLINE,
                faults=FaultPlan.kill_worker(),
            ),
        )
        assert_results_equal(results, reference)
        assert stats.queries_completed == 8
        assert stats.queries_failed == 0
        assert stats.in_flight == 0
        # Both generation-0 hosts died on their first payload (the cold
        # refine), were re-forked and their lanes retried; nothing was
        # degraded — the retries answered on the fresh generation.
        assert stats.worker_deaths == 2
        assert stats.pool_respawns == 2
        assert stats.flush_retries == 2
        assert stats.degraded_flushes == 0
        assert [row["pool"] for row in snap["pool_health"]] == ["local-0", "local-1"]
        assert all(row["state"] == "healthy" for row in snap["pool_health"])
        assert all(row["generation"] == 1 for row in snap["pool_health"])

    def test_hung_flush_recovers_via_deadline(self):
        engine, rng, vocab = build_lanes(seed=1)
        queries = make_queries(rng, vocab, 8)
        reference = reference_results(engine, queries)
        results, stats, _ = serve_all(
            engine, queries,
            ServerConfig(
                max_batch=8, max_wait_ms=5.0, pool_workers=1,
                retry=FAST_RETRY,
                deadline=DeadlinePolicy(flush_deadline_s=0.3),
                faults=FaultPlan.hang_task(hang_s=30.0),
            ),
        )
        assert_results_equal(results, reference)
        assert stats.queries_failed == 0
        # Both hosts hung: each read hit the deadline, the host was
        # killed and re-forked, and its lane retried there.
        assert stats.deadline_hits == 2
        assert stats.worker_deaths == 2
        assert stats.pool_respawns == 2
        assert stats.flush_retries == 2
        assert stats.degraded_flushes == 0

    def test_pool_loss_degrades_flushes_but_keeps_identity(self):
        engine, rng, vocab = build_lanes(seed=2)
        queries = make_queries(rng, vocab, 8)
        reference = reference_results(engine, queries)
        results, stats, snap = serve_all(
            engine, queries,
            ServerConfig(
                max_batch=8, max_wait_ms=5.0, pool_workers=1,
                retry=FAST_RETRY, deadline=FAST_DEADLINE,
                faults=FaultPlan.pool_loss(),
            ),
        )
        assert_results_equal(results, reference)
        assert stats.queries_failed == 0
        assert stats.degraded_flushes >= 1
        assert {row["state"] for row in snap["pool_health"]} == {"broken"}


class TestDegradedStart:
    def test_pool_startup_failure_degrades_to_in_process(self, monkeypatch):
        engine, rng, vocab = build_lanes(seed=3)
        queries = make_queries(rng, vocab, 6)
        reference = reference_results(engine, queries)

        def boom(*args, **kwargs):
            raise RuntimeError("fork refused")

        monkeypatch.setattr("repro.serve.sharded.PersistentWorkerPool", boom)

        async def run():
            server = MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=4, max_wait_ms=2.0, pool_workers=1)
            )
            with pytest.warns(RuntimeWarning, match="degrades to in-process"):
                await server.start()
            try:
                results = await server.submit_many(queries)
            finally:
                await server.stop()
            return results, server.stats

        results, stats = asyncio.run(run())
        assert_results_equal(results, reference)
        assert stats.queries_completed == 6
        assert stats.queries_failed == 0
        # Pools never came up: every executed flush counts as degraded.
        assert stats.batches_executed >= 1
        assert stats.degraded_flushes == stats.batches_executed


class TestAdmissionControl:
    def test_overflow_sheds_typed_with_exact_counters(self):
        engine, rng, vocab = build_engine(seed=4)
        queries = make_queries(rng, vocab, 5)
        reference = reference_results(engine, queries)

        async def run():
            async with MaxBRSTkNNServer(
                engine,
                ServerConfig(max_batch=8, max_wait_ms=100.0, max_pending=3),
            ) as server:
                tasks = [
                    asyncio.create_task(server.submit(query))
                    for query in queries[:3]
                ]
                await asyncio.sleep(0.01)  # let the three enqueue
                with pytest.raises(ServerOverloaded):
                    await server.submit(queries[3])
                assert server.stats.queries_shed == 1
                first = await asyncio.gather(*tasks)
                # The queue drained: admission opens again.
                extra = await server.submit(queries[4])
            return first, extra, server.stats

        first, extra, stats = asyncio.run(run())
        assert_results_equal(first, reference[:3])
        assert_results_equal([extra], [reference[4]])
        assert stats.queries_shed == 1
        assert stats.queries_submitted == 4  # the shed one never entered
        assert stats.queries_completed == 4
        assert stats.queries_failed == 0
        assert stats.in_flight == 0


class _FlusherCrash(BaseException):
    """A non-Exception failure (like KeyboardInterrupt) that kills the
    flusher task outright instead of failing one batch.  Deliberately
    NOT KeyboardInterrupt itself: asyncio re-raises that one out of the
    running event loop, which would abort the test session rather than
    exercise the server's crash handling."""


class TestStopSemantics:
    def test_crashed_flusher_strands_no_futures(self):
        # A flusher killed by a BaseException pops its batch off the
        # queue before dying; stop() must still fail both that batch's
        # futures and everything queued afterwards — typed, not hung.
        engine, rng, vocab = build_engine(seed=5)
        first, second = make_queries(rng, vocab, 2)

        async def run():
            server = MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=2, max_wait_ms=0.0)
            )
            await server.start()

            def boom(*args, **kwargs):
                raise _FlusherCrash("injected flusher crash")

            server.engine.query_batch = boom
            in_flush = asyncio.create_task(server.submit(first))
            await asyncio.sleep(0.05)  # flusher flushes and dies
            queued = asyncio.create_task(server.submit(second))
            await asyncio.sleep(0.01)
            with pytest.raises(_FlusherCrash):
                await server.stop()
            with pytest.raises(ServerStopped):
                await in_flush
            with pytest.raises(ServerStopped):
                await queued
            return server.stats

        stats = asyncio.run(run())
        assert stats.queries_failed == 2
        assert stats.in_flight == 0

    def test_cancelled_leftover_of_a_crashed_flusher_counts_as_cancelled(self):
        # A caller that gave up on a query the dead flusher left queued
        # resolved its own future: stop() counts it cancelled, not
        # dropped, so the counters still balance.
        engine, rng, vocab = build_engine(seed=7)
        first, second, third = make_queries(rng, vocab, 3)

        async def run():
            server = MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=2, max_wait_ms=0.0)
            )
            await server.start()

            async def boom(batch):
                raise _FlusherCrash("injected flusher crash")

            server._execute = boom
            in_flush = asyncio.create_task(server.submit(first))
            await asyncio.sleep(0.05)  # flusher flushes and dies
            queued = asyncio.create_task(server.submit(second))
            abandoned = asyncio.create_task(server.submit(third))
            await asyncio.sleep(0.01)
            assert len(server._pending) == 2
            abandoned.cancel()
            with pytest.raises(_FlusherCrash):
                await server.stop()
            with pytest.raises(ServerStopped):
                await in_flush
            with pytest.raises(ServerStopped):
                await queued
            with pytest.raises(asyncio.CancelledError):
                await abandoned
            return server.stats

        stats = asyncio.run(run())
        assert stats.queries_cancelled == 1
        assert stats.in_flight == 0
        assert stats.queries_submitted == (
            stats.queries_completed + stats.queries_failed
            + stats.queries_cancelled
        )

    def test_crashed_flusher_whose_leftovers_all_cancelled_balances(self):
        # Every caller behind the dead flusher gave up: stop() fails
        # only the crashed batch and counts each leftover cancelled.
        engine, rng, vocab = build_engine(seed=8)
        first, *rest = make_queries(rng, vocab, 3)

        async def run():
            server = MaxBRSTkNNServer(
                engine, ServerConfig(max_batch=2, max_wait_ms=0.0)
            )
            await server.start()

            async def boom(batch):
                raise _FlusherCrash("injected flusher crash")

            server._execute = boom
            in_flush = asyncio.create_task(server.submit(first))
            await asyncio.sleep(0.05)  # flusher flushes and dies
            abandoned = [
                asyncio.create_task(server.submit(query)) for query in rest
            ]
            await asyncio.sleep(0.01)
            assert len(server._pending) == 2
            for task in abandoned:
                task.cancel()
            with pytest.raises(_FlusherCrash):
                await server.stop()
            with pytest.raises(ServerStopped):
                await in_flush
            for task in abandoned:
                with pytest.raises(asyncio.CancelledError):
                    await task
            return server.stats

        stats = asyncio.run(run())
        assert stats.queries_failed == 1
        assert stats.queries_cancelled == 2
        assert stats.in_flight == 0
        assert stats.queries_submitted == (
            stats.queries_completed + stats.queries_failed
            + stats.queries_cancelled
        )

    def test_submit_while_stopping_is_typed(self):
        engine, rng, vocab = build_engine(seed=6)
        (query,) = make_queries(rng, vocab, 1)

        async def run():
            server = MaxBRSTkNNServer(
                engine, ServerConfig(max_wait_ms=0.0)
            )
            await server.start()
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0)
            with pytest.raises(ServerStopped):
                await server.submit(query)
            await stopping

        asyncio.run(run())
