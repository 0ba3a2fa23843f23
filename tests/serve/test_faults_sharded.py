"""Sharded engine under injected faults: re-dispatch identity, lane
degradation, and fleet teardown.

Every lane of a sharded engine is one forked shard host, so a fault is
scoped by *what the payload carries* — ``exception_on_shard`` fires on
refine payloads for one lane (row range) — and by host generation;
these tests break one lane and assert the others kept their remote
fast path.
"""

import os
import warnings

import pytest

from repro import EngineConfig, QueryOptions
from repro.serve import DeadlinePolicy, FaultPlan, RetryPolicy, ShardedEngine

from .conftest import assert_results_equal, build_dataset, make_queries

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="local shard hosts require os.fork"
)

FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0)
OPTIONS = QueryOptions()


def build_pair(seed=0, **config_kwargs):
    """Two engines over one dataset: the in-process reference and the
    pooled engine under test."""
    dataset, rng, vocab = build_dataset(seed, n_obj=70, n_users=24, vocab=18)
    config = EngineConfig(fanout=4, num_shards=2, **config_kwargs)
    return ShardedEngine(dataset, config), ShardedEngine(dataset, config), rng, vocab


def test_shard_worker_kill_recovers_identity():
    pooled, inproc, rng, vocab = build_pair()
    queries = make_queries(rng, vocab, 8)
    reference = inproc.query_batch(queries, OPTIONS)
    pooled.start_pools(
        1, retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=FaultPlan.kill_worker(),
    )
    try:
        results = pooled.query_batch(queries, OPTIONS)
    finally:
        pooled.close_pools(timeout_s=10.0)
    assert_results_equal(results, reference)
    # fault_counters() reads the banked totals: closing the pools must
    # not lose the recovery history.
    totals = pooled.fault_counters()
    assert totals["worker_deaths"] >= 1
    assert totals["respawns"] == totals["worker_deaths"]
    assert totals["retries"] == totals["worker_deaths"]
    assert totals["deadline_hits"] == 0


def test_lane_exception_retries_then_degrades_only_the_refine_round():
    pooled, inproc, rng, vocab = build_pair(seed=1)
    queries = make_queries(rng, vocab, 8)
    reference = inproc.query_batch(queries, OPTIONS)
    pooled.start_pools(
        1, retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=FaultPlan.shard_exception(0),
    )
    try:
        results = pooled.query_batch(queries, OPTIONS)
        report = pooled.last_flush_report
        rows = {row["shard"]: row for row in pooled.shard_stats()}
    finally:
        pooled.close_pools(timeout_s=10.0)
    assert_results_equal(results, reference)
    # Lane 0's refine payload raised in generation 0 (an ERROR frame),
    # was retried on the same host (it never died, so no re-fork
    # disarmed the plan), raised again and ran in-process — only its
    # own range; lane 1's range and the select round stayed remote.
    totals = pooled.fault_counters()
    assert totals["retries"] == 1
    assert totals["respawns"] == 0
    assert totals["worker_deaths"] == 0
    assert (report.stage("refine").retries, report.stage("refine").degraded) == (1, 1)
    assert (report.stage("select").retries, report.stage("select").degraded) == (0, 0)
    assert [rows[i]["retries"] for i in (0, 1)] == [1, 0]
    assert [rows[i]["degraded_rounds"] for i in (0, 1)] == [1, 0]


def test_worker_kill_recovers_in_indexed_mode():
    pooled, inproc, rng, vocab = build_pair(seed=2, index_users=True)
    options = QueryOptions(mode="indexed")
    queries = make_queries(rng, vocab, 8)
    reference = inproc.query_batch(queries, options)
    pooled.start_pools(
        1, retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=FaultPlan.kill_worker(),
    )
    try:
        results = pooled.query_batch(queries, options)
    finally:
        pooled.close_pools(timeout_s=10.0)
    assert_results_equal(results, reference)
    totals = pooled.fault_counters()
    assert totals["worker_deaths"] >= 1
    assert totals["retries"] == totals["worker_deaths"]


def test_pool_loss_breaks_the_pool_and_degrades_in_process():
    pooled, inproc, rng, vocab = build_pair(seed=3)
    queries = make_queries(rng, vocab, 8)
    reference = inproc.query_batch(queries, OPTIONS)
    pooled.start_pools(
        1, retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=FaultPlan.pool_loss(),
    )
    try:
        results = pooled.query_batch(queries, OPTIONS)
        health = pooled.pool_health()
        rows = {row["shard"]: row for row in pooled.shard_stats()}
    finally:
        pooled.close_pools(timeout_s=10.0)
    assert_results_equal(results, reference)
    assert len(health) == 2, "expected one health row per local host"
    assert all(row["state"] == "broken" for row in health)
    assert all(row["degraded_rounds"] >= 1 for row in rows.values())
    # No lane was ever re-sent: both sends failed at dispatch and the
    # re-forks failed too, so no host was left to retry on.
    assert pooled.fault_counters()["retries"] == 0


def test_close_pools_turns_a_close_failure_into_a_warning():
    pooled, _, _, _ = build_pair(seed=4, use_shm=True)
    pooled.start_pools(1)
    pool, arena = pooled._registry, pooled.arena_name
    pids = pool.pids()
    real_close = pool.close

    def bad_close(timeout_s=None):
        real_close(timeout_s=timeout_s)  # actually release the hosts
        raise RuntimeError("injected close failure")

    pool.close = bad_close
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pooled.close_pools(timeout_s=10.0)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == 1
    assert "failed to close cleanly" in str(runtime[0].message)
    assert "injected close failure" in str(runtime[0].message)
    # The teardown still completed: fleet slot cleared, arena released.
    assert pooled._registry is None and pooled.arena_name is None
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)
    assert arena is not None
    # Idempotent second close: silent.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pooled.close_pools()
