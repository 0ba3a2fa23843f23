"""The scatter-round contract: ONE loop, two transports, two kinds of host.

``run_round`` is the only dispatch → collect → degrade path and
``_deal`` the only lane builder; a transport only decides *where* a
lane runs.  So the same refine ranges and select chunks must come back
as the same decoded chunks with the same ``(chunks, retries,
degraded)`` accounting whether they ran inline, on forked local hosts
(one lane each), or on one embedded socket host — and, when the hosts
fail past their budget, as the same chunks with every lost lane counted
degraded exactly once and re-run in-process for exactly the rows it
carried.
"""

import os
import threading

import pytest

from repro import EngineConfig, QueryOptions
from repro.core.partial import PartialResult
from repro.core import pipeline
from repro.core.batch import _ensure_traversal_pool
from repro.core.kernels import arrays_for
from repro.core.pipeline import (
    INLINE,
    Lane,
    merge_refine,
    refine_payloads,
    run_round,
    select_payloads,
)
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    RetryPolicy,
    ShardHost,
    ShardedEngine,
)

from .conftest import HostThread, build_dataset, make_queries

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="local shard hosts require os.fork"
)

OPTS = QueryOptions()
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0)
STAGES = ("refine", "select")


def canon(item):
    """A chunk item minus its wall-clock fields."""
    if isinstance(item, PartialResult):
        return (item.shard_id, item.k, tuple(item.rsk.items()), item.users_total)
    return (item.location, item.keywords, item.brstknn)


class Rig:
    """A 2-lane engine as scaffold: its executor and transports,
    with the two rounds dealt by hand through the executor."""

    def __init__(self, seed=0):
        dataset, rng, vocab = build_dataset(seed, n_obj=70, n_users=24, vocab=18)
        self.engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        self.queries = make_queries(rng, vocab, 6, ks=(3, 5))
        self.hosts = []

    def install(self, kind, faults=None, hosts=1, retry=FAST_RETRY):
        engine = self.engine
        if kind == "pool":
            engine.start_pools(
                1, retry=retry, deadline=FAST_DEADLINE, faults=faults,
            )
        elif kind == "socket":
            self.hosts = [
                HostThread(ShardHost(engine.dataset)) for _ in range(hosts)
            ]
            engine.connect_hosts(
                [f"127.0.0.1:{h.port}" for h in self.hosts],
                retry=retry, deadline=FAST_DEADLINE,
            )
        return engine._executor.transport

    def close(self):
        self.engine.close_pools(timeout_s=10.0)
        self.engine.close_hosts()
        for host in self.hosts:
            host.stop()

    def rounds(self, transport):
        """``{stage: (canonical chunks in payload order, (lanes, chunks,
        retries, degraded per lane))}`` for the two scatter stages
        over ``transport``."""
        engine = self.engine
        plan = engine.plan(OPTS, ks=[q.k for q in self.queries])
        ks = list(plan.distinct_ks)
        pool = _ensure_traversal_pool(engine._executor, plan.shared_traversal_k)
        group_by_k = {k: pool.rsk_group_for(k) for k in ks}
        # A fresh per-k state every call, like a freshly walked pool.
        pool.by_k.clear()
        users = engine.dataset.users
        out = {}

        def run(phase, payloads, weights):
            chunks, lane_of, retries, degraded, _, _ = pipeline._deal(
                phase, payloads, weights, transport, engine.dataset, None
            )
            out[phase] = (
                [[canon(item) for item in chunk] for chunk in chunks],
                (len(set(lane_of)), len(chunks), sum(retries), degraded),
            )
            return chunks

        refine = refine_payloads(pool.traversal, ks, len(users), 2)
        shared = merge_refine(
            run("refine", refine, [p[6] - p[5] for p in refine]),
            ks, arrays_for(engine.dataset).user_ids, {}, pool, group_by_k,
            self.queries,
        )
        # Algorithm 3 whole, against the full dataset and the merged map.
        select, _ = select_payloads(self.queries, shared, plan, 2)
        run("select", select, [len(p[1]) for p in select])
        return out


@pytest.fixture
def rig():
    rig = Rig()
    try:
        yield rig
    finally:
        rig.close()


@pytest.mark.parametrize("kind", ["inline", "pool", "socket"])
def test_every_transport_returns_the_inline_round(rig, kind):
    expected = rig.rounds(INLINE)
    transport = rig.install(kind)
    assert transport.remote == (kind != "inline")
    got = rig.rounds(transport)
    # Inline and one socket host are one lane; start_pools(1) on a
    # 2-lane engine forks two hosts, one lane each.
    lanes = 2 if kind == "pool" else 1
    for stage in STAGES:
        chunks, accounting = got[stage]
        assert chunks == expected[stage][0], stage
        # two row ranges / two balanced payloads (ks mixed), no ladder
        assert accounting == (lanes, 2, 0, [0] * lanes), stage


@pytest.mark.parametrize("kind", ["pool", "socket"])
def test_a_transport_past_its_budget_degrades_each_lost_lane_once(rig, kind):
    expected = rig.rounds(INLINE)
    transport = rig.install(kind, faults=FaultPlan.pool_loss())
    if kind == "socket":
        # A round trip first, so the host is serving the connection and
        # its death resets it (instead of stranding it in the backlog).
        assert all(rig.engine._registry.ping_all().values())
        for host in rig.hosts:
            host.stop()
    got = rig.rounds(transport)
    for stage in STAGES:
        chunks, (width, n_chunks, _, degraded) = got[stage]
        assert chunks == expected[stage][0], stage
        assert n_chunks == 2, stage
        assert degraded == [1] * width, stage  # every lane lost, counted once
    counters = rig.engine.fault_counters()
    if kind == "pool":
        # Both sends failed and the re-forks too: no host was left to
        # re-send to, and the select round found a single, empty lane.
        assert got["refine"][1][0] == 2 and got["select"][1][0] == 1
        assert counters["retries"] == 0
        assert counters["worker_deaths"] == 2
    else:
        assert counters["worker_deaths"] == 1


def coordinator_refines(monkeypatch):
    """Row ranges refined in THIS process's main thread — i.e. by the
    in-process degrade, not by a forked host or an embedded one."""
    import importlib

    partial = importlib.import_module("repro.core.partial")
    inner, seen = partial.compute_partials, []

    def spy(*args, rows=None, **kwargs):
        if threading.current_thread() is threading.main_thread():
            seen.append(rows)
        return inner(*args, rows=rows, **kwargs)

    monkeypatch.setattr(partial, "compute_partials", spy)
    return seen


def test_a_dead_host_degrades_exactly_its_row_range(rig, monkeypatch):
    """Two hosts, one range each; the one that dies past the retry
    budget is re-run on the coordinator's own dataset for its rows
    only — the survivor's lane stays remote."""
    expected = rig.rounds(INLINE)
    transport = rig.install(
        "socket", hosts=2, retry=RetryPolicy(max_retries=0, backoff_base_s=0.0)
    )
    assert all(rig.engine._registry.ping_all().values())
    rig.hosts[1].stop()
    seen = coordinator_refines(monkeypatch)
    got = rig.rounds(transport)
    chunks, (lanes, n_chunks, retries, degraded) = got["refine"]
    assert chunks == expected["refine"][0]
    assert (lanes, n_chunks, retries, degraded) == (2, 2, 0, [0, 1])
    n_users = len(rig.engine.dataset.users)
    assert seen == [(n_users // 2, n_users)]
    assert got["select"][0] == expected["select"][0]
    assert rig.engine.fault_counters()["worker_deaths"] == 1


def test_a_pool_killed_past_its_retries_degrades_the_ranges_it_held(
    rig, monkeypatch
):
    """Every generation's first payload dies: kill, re-fork, kill again
    — both local lanes are lost and the ranges they carried re-run
    in-process, each for exactly its rows."""
    expected = rig.rounds(INLINE)
    seen = coordinator_refines(monkeypatch)
    transport = rig.install("pool", faults=FaultPlan.kill_worker(generations=None))
    got = rig.rounds(transport)
    chunks, (lanes, n_chunks, retries, degraded) = got["refine"]
    assert chunks == expected["refine"][0]
    assert (lanes, n_chunks, retries, degraded) == (2, 2, 2, [1, 1])
    n_users = len(rig.engine.dataset.users)
    assert seen == [(0, n_users // 2), (n_users // 2, n_users)]
    # The select round rode the same doomed hosts: the same ladder again.
    assert got["select"][0] == expected["select"][0]
    assert got["select"][1][2:] == (2, [1, 1])
    counters = rig.engine.fault_counters()
    assert counters["worker_deaths"] == 8 and counters["respawns"] == 8
    # Every host standing at the end is a fresh, idle re-fork: the
    # shutdown is graceful.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rig.engine.close_pools(timeout_s=5.0)


# ----------------------------------------------------------------------
# Pool and row range cross the wire: one that does not fit the far
# side's replica is refused there, typed, before any gather, and the
# round takes the transport's ordinary ladder.
# ----------------------------------------------------------------------

def refine_lanes(engine, traversal, k=3):
    n_users = len(engine.dataset.users)
    cut = n_users // 2
    return [
        Lane(lane, [("refine", traversal, [k], lane, None, lo, hi)],
             engine.dataset)
        for lane, (lo, hi) in enumerate([(0, cut), (cut, n_users)])
    ]


def test_host_whose_replica_lacks_a_pooled_object_degrades_the_lane(rig):
    from repro import Dataset
    from repro.core.joint_topk import joint_traversal

    engine = rig.engine
    full = engine.dataset
    walked = joint_traversal(engine.object_tree, full, 3)
    expected, *_ = run_round("refine", refine_lanes(engine, walked), INLINE)
    # A host whose replica lost an object after the connect-time digest
    # check (a mismatch at connect is refused outright).
    host = ShardHost(full)
    rig.hosts = [HostThread(host)]
    engine.connect_hosts(
        [f"127.0.0.1:{h.port}" for h in rig.hosts],
        retry=FAST_RETRY, deadline=FAST_DEADLINE,
    )
    kept = [o for o in full.objects if o.item_id != int(walked.pool.ids[0])]
    host.dataset = Dataset(kept, full.users, relevance="LM")
    returned, _, degraded, _, _ = run_round(
        "refine", refine_lanes(engine, walked), engine._executor.transport
    )
    assert degraded == [1, 1]  # an ERROR frame each, never a wrong row
    assert [[[canon(p) for p in chunk] for chunk in lane] for lane in returned] == [
        [[canon(p) for p in chunk] for chunk in lane] for lane in expected
    ]
    # A task error, retried on the same (living) host, then degraded.
    counters = engine.fault_counters()
    assert (counters["worker_deaths"], counters["retries"]) == (0, 2)


def test_pool_workers_refuse_a_pool_naming_an_unknown_object(rig):
    import numpy as np

    from repro.core.joint_topk import (
        CandidatePool, CandidatePoolError, JointTraversalResult, joint_traversal,
    )

    engine = rig.engine
    transport = rig.install("pool")
    walked = joint_traversal(
        engine.object_tree, engine.dataset, 3
    )
    ids, lower, upper = walked.pool.ids, walked.pool.lower, walked.pool.upper
    unknown = np.where(np.arange(len(ids)) == 1, -1, ids)  # -1: no wrapped row
    bad = JointTraversalResult.of_pool(
        CandidatePool.from_columns(unknown, lower, upper), walked.n_lo, 0.0
    )
    # Hosts raise it (an ERROR frame: retried, counted), and so does the
    # in-process degrade — the coordinator holds no such object either.
    with pytest.raises(CandidatePoolError, match="does not hold"):
        run_round("refine", refine_lanes(engine, bad)[:1], transport)
    assert engine.fault_counters()["retries"] == 1


@pytest.mark.parametrize("kind,forgery", [
    # (pool, unknown id): test_pool_workers_refuse_a_pool_naming_an_unknown_object
    ("pool", "nan bound"), ("socket", "unknown id"), ("socket", "nan bound"),
])
def test_a_forged_pool_ends_in_the_typed_refusal_on_every_lane(rig, kind, forgery):
    """A pool off the wire carries no object rows, so every host checks
    its ids and bounds: a forked lane and an embedded remote lane both
    answer an ERROR frame (retried, counted), and the in-process degrade
    refuses the same pool — typed, never a wrong answer or a hang."""
    import numpy as np

    from repro.core.joint_topk import (
        CandidatePool, CandidatePoolError, JointTraversalResult, joint_traversal,
    )

    engine = rig.engine
    transport = rig.install(kind)
    walked = joint_traversal(engine.object_tree, engine.dataset, 3)
    ids, lower, upper = (
        walked.pool.ids.copy(), walked.pool.lower.copy(), walked.pool.upper.copy()
    )
    if forgery == "unknown id":
        ids[1] = int(engine.dataset.table.ids.max()) + 1
    else:
        lower[walked.n_lo] = np.nan
    bad = JointTraversalResult.of_pool(
        CandidatePool.from_columns(ids, lower, upper), walked.n_lo, walked.rsk_group
    )
    match = "does not hold" if forgery == "unknown id" else "non-finite"
    with pytest.raises(CandidatePoolError, match=match):
        run_round("refine", refine_lanes(engine, bad)[:1], transport)
    assert engine.fault_counters()["retries"] == 1


def test_host_started_with_fewer_users_refuses_the_range_and_degrades(rig):
    """A host whose replica holds fewer users than the coordinator's
    (swapped in after the connect-time digest check, which refuses such
    a host outright): the range does not fit its replica, so it answers
    an ERROR frame (typed, before any gather) and the lane re-runs on
    the coordinator — never a short or shifted ``RSk`` map."""
    from repro import Dataset
    from repro.core.joint_topk import joint_traversal

    engine = rig.engine
    full = engine.dataset
    walked = joint_traversal(engine.object_tree, full, 3)
    expected, *_ = run_round("refine", refine_lanes(engine, walked), INLINE)
    host = ShardHost(full)
    rig.hosts = [HostThread(host)]
    engine.connect_hosts(
        [f"127.0.0.1:{h.port}" for h in rig.hosts],
        retry=FAST_RETRY, deadline=FAST_DEADLINE,
    )
    host.dataset = Dataset(full.objects, full.users[:-1], relevance="LM")
    returned, _, degraded, _, _ = run_round(
        "refine", refine_lanes(engine, walked), engine._executor.transport
    )
    # Lane 0's rows exist on the short host too; lane 1 reaches past it.
    assert degraded == [0, 1]
    assert [[[canon(p) for p in chunk] for chunk in lane] for lane in returned] == [
        [[canon(p) for p in chunk] for chunk in lane] for lane in expected
    ]
    assert "UserRangeError" in engine._registry.clients[0].last_error
    counters = engine.fault_counters()
    assert (counters["worker_deaths"], counters["retries"]) == (0, 1)


def test_pool_workers_refuse_a_range_outside_the_dataset(rig):
    from repro.core.joint_topk import joint_traversal
    from repro.core.partial import UserRangeError

    engine = rig.engine
    transport = rig.install("pool")
    walked = joint_traversal(engine.object_tree, engine.dataset, 3)
    n_users = len(engine.dataset.users)
    lane = Lane(
        0, [("refine", walked, [3], 0, None, 0, n_users + 1)],
        engine.dataset,
    )
    # Hosts raise it (an ERROR frame: retried, counted), and so does the
    # in-process degrade — the coordinator holds no such row either.
    with pytest.raises(UserRangeError, match="do not fit"):
        run_round("refine", [lane], transport)
    assert engine.fault_counters()["retries"] == 1
