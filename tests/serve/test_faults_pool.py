"""Supervised pool recovery: every injected fault, deterministically.

The recovery ladder under test (:class:`PersistentWorkerPool`):

* worker death   -> ``WorkerCrashed``        -> respawn (new generation) + retry
* round hang     -> ``FlushDeadlineExceeded`` -> respawn + retry
* task exception -> ``ScatterTaskError``      -> plain retry (workers are fine)
* retries exhausted / pool broken -> a ``ScatterFailure`` the executor
  catches to run the round in-process (degraded, identical results)

Determinism comes from generation gating: worker-side faults are armed
only in generation 0 by default, so "fault -> respawn -> retry
succeeds" is a sequence, not a race.  Every recovery test asserts exact
health-counter values *and* bitwise result identity with in-process
execution.  The ladder runs under a lane engine's warm flush: its one
scatter round is the ``select`` round over the engine's pool.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro import QueryOptions
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    FlushDeadlineExceeded,
    PersistentWorkerPool,
    PoolState,
    PoolUnavailable,
    RetryPolicy,
    WorkerCrashed,
)
from repro.serve.pool import PoolDispatch

from .conftest import assert_results_equal, build_dataset, build_lanes, make_queries

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="PersistentWorkerPool requires the fork start method",
)

#: Fast supervision for tests: retry once, no backoff sleep, tight polls.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0, poll_interval_s=0.01)
OPTIONS = QueryOptions()


def pooled_lanes(faults, *, deadline=FAST_DEADLINE, workers=2, seed=0):
    """A lane engine (one lane per worker) whose in-process reference
    flush warmed every threshold, then forked with ``faults`` armed:
    its next flush is exactly one pooled ``select`` round."""
    engine, rng, vocab = build_lanes(seed=seed, num_shards=workers)
    queries = make_queries(rng, vocab, 8)
    reference = engine.query_batch(queries, OPTIONS)
    engine.start_pools(1, retry=FAST_RETRY, deadline=deadline, faults=faults)
    return engine, queries, reference


def run_identity(faults, *, deadline=FAST_DEADLINE, workers=2, seed=0):
    """One pooled round under ``faults``; asserts identity with the
    in-process answer and returns (health, state-before-close, report)."""
    engine, queries, reference = pooled_lanes(
        faults, deadline=deadline, workers=workers, seed=seed
    )
    with engine:
        faulted = engine.query_batch(queries, OPTIONS)
        state = engine._pool.health.state
        health = engine._pool.health
    assert_results_equal(faulted, reference)
    report = engine.last_flush_report
    assert report.stage("refine").items == 0  # warm: select is the one round
    return health, state, report


class TestRecoveryLadder:
    def test_worker_kill_respawns_and_retries_to_identity(self):
        health, state, report = run_identity(FaultPlan.kill_worker())
        assert state is PoolState.HEALTHY
        assert health.worker_deaths == 1
        assert health.respawns == 1
        assert health.retries == 1
        assert health.generation == 1
        assert health.deadline_hits == 0
        assert health.consecutive_failures == 0  # reset by the clean retry
        assert report.degraded_lanes == 0

    def test_hung_round_hits_deadline_then_recovers(self):
        health, state, report = run_identity(
            FaultPlan.hang_task(hang_s=30.0),
            deadline=DeadlinePolicy(flush_deadline_s=0.3, poll_interval_s=0.01),
        )
        assert state is PoolState.HEALTHY
        assert health.deadline_hits == 1
        assert health.respawns == 1
        assert health.retries == 1
        assert health.worker_deaths == 0
        assert report.degraded_lanes == 0

    def test_task_exception_retries_without_respawn(self):
        # One worker, so its task counter is deterministic: task 0
        # raises, the retry re-runs every chunk at indices >= 1.
        health, state, report = run_identity(
            FaultPlan(exception_on_task=0), workers=1
        )
        assert state is PoolState.HEALTHY
        assert health.retries == 1
        assert health.respawns == 0
        assert health.worker_deaths == 0
        assert health.generation == 0  # the workers were never torn down
        assert report.degraded_lanes == 0

    def test_persistent_dispatch_failure_degrades_round_in_process(self):
        # Dispatch fails in every generation: retry ladder exhausts
        # (respawn succeeds, re-dispatch fails again) and the executor
        # runs the round in-process — results still identical.
        health, state, report = run_identity(
            FaultPlan(break_dispatch=True, generations=None)
        )
        assert state is PoolState.HEALTHY  # the respawn itself worked
        assert health.respawns == 1
        assert health.retries == 1
        assert report.degraded_lanes == 1

    def test_broken_pool_is_terminal_and_skipped(self):
        engine, queries, reference = pooled_lanes(FaultPlan.pool_loss(), seed=1)
        with engine:
            pool = engine._pool
            # Dispatch fails, then the respawn fails too: BROKEN.
            first = engine.query_batch(queries, OPTIONS)
            assert engine.last_flush_report.degraded_lanes == 1
            assert pool.health.state is PoolState.BROKEN
            assert not pool.available
            with pytest.raises(PoolUnavailable):
                pool.respawn()
            # A broken pool is skipped outright on later flushes
            # (degraded before any dispatch), never revived.
            engine.clear_topk_cache()
            second = engine.query_batch(queries, OPTIONS)
        assert_results_equal(first, reference)
        assert_results_equal(second, reference)


class TestBackoff:
    def test_backoff_is_capped_exponential(self):
        retry = RetryPolicy(max_retries=2, backoff_base_s=0.1, backoff_cap_s=0.4)
        assert retry.backoff_s(0) == pytest.approx(0.1)
        assert retry.backoff_s(1) == pytest.approx(0.1)
        assert retry.backoff_s(2) == pytest.approx(0.2)
        assert retry.backoff_s(3) == pytest.approx(0.4)
        assert retry.backoff_s(10) == pytest.approx(0.4)  # capped


class _NeverReady:
    """Stand-in async result that never completes: the pre-supervision
    pool would block on it forever; collect() must not."""

    def ready(self):
        return False

    def wait(self, timeout):
        time.sleep(min(timeout, 0.001))


def _ticket(pool, deadline_s=None, generation=None):
    return PoolDispatch(
        async_result=_NeverReady(),
        payloads=[],
        generation=pool.health.generation if generation is None else generation,
        deadline_s=deadline_s,
    )


class TestCollectSupervision:
    """collect() raises typed failures instead of hanging."""

    def test_worker_death_is_detected_not_waited_out(self):
        dataset, _, _ = build_dataset(seed=2)
        with PersistentWorkerPool(
            dataset, 2, retry=FAST_RETRY, deadline=FAST_DEADLINE
        ) as pool:
            victim = pool._pool._pool[0]
            os.kill(victim.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashed):
                pool.collect(_ticket(pool, deadline_s=10.0))
            assert pool.health.worker_deaths == 1
            # Recovery: a respawn leaves the pool dispatchable again.
            pool.respawn()
            assert pool.health.state is PoolState.HEALTHY
            assert pool.available

    def test_deadline_is_typed_and_counted(self):
        dataset, _, _ = build_dataset(seed=2)
        with PersistentWorkerPool(
            dataset, 1, retry=FAST_RETRY, deadline=FAST_DEADLINE
        ) as pool:
            with pytest.raises(FlushDeadlineExceeded):
                pool.collect(_ticket(pool, deadline_s=0.05))
            assert pool.health.deadline_hits == 1

    def test_stale_generation_raises_pool_unavailable(self):
        dataset, _, _ = build_dataset(seed=2)
        with PersistentWorkerPool(
            dataset, 1, retry=FAST_RETRY, deadline=FAST_DEADLINE
        ) as pool:
            stale = _ticket(pool)
            pool.respawn()  # the round's workers are gone with its generation
            with pytest.raises(PoolUnavailable):
                pool.collect(stale)


class TestCloseLifecycle:
    def test_double_close_is_a_noop(self):
        dataset, _, _ = build_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, 1)
        pool.close(timeout_s=10.0)
        pool.close(timeout_s=10.0)  # must not raise
        assert pool.health.state is PoolState.CLOSED

    def test_close_during_respawn_window_does_not_raise(self):
        # Mid-respawn the worker set is torn down (_pool is None);
        # close() arriving in that window must still succeed.
        dataset, _, _ = build_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, 1)
        raw, pool._pool = pool._pool, None
        pool.health.state = PoolState.RESPAWNING
        pool.close(timeout_s=1.0)
        assert pool.health.state is PoolState.CLOSED
        raw.terminate()
        raw.join()

    def test_after_close_every_entry_point_is_typed_unavailable(self):
        dataset, _, _ = build_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, 1)
        pool.close(timeout_s=10.0)
        with pytest.raises(PoolUnavailable):
            pool.dispatch([])
        with pytest.raises(PoolUnavailable):
            pool.run_supervised([])
        with pytest.raises(PoolUnavailable):
            pool.respawn()
        assert not pool.available
