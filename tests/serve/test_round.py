"""The scatter-round contract: ONE loop, three transports.

``run_round`` is the only dispatch → collect → degrade path; a transport
only decides *where* a lane runs.  So the same refine and select lanes
must come back as the same decoded chunks with the same ``(width,
chunks, retries, degraded)`` accounting whether they ran inline, on
1-worker fork pools, or on one embedded socket host —
and, when the transport fails past its budget, as the same chunks with
every lost lane counted degraded exactly once.
"""

import multiprocessing

import pytest

from repro import EngineConfig, QueryOptions
from repro.core.partial import PartialResult
from repro.core.pipeline import (
    INLINE,
    FlushContext,
    Lane,
    RefineStage,
    SelectStage,
    ShardHandle,
    TraverseStage,
    run_round,
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
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pipe transport requires the fork start method",
)

OPTS = QueryOptions(backend="python")
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0, poll_interval_s=0.01)
STAGES = ("refine", "select")


def canon(item):
    """A chunk item minus its wall-clock fields."""
    if isinstance(item, PartialResult):
        return (item.shard_id, item.k, tuple(item.rsk.items()), item.users_total)
    return (item.location, item.keywords, item.brstknn)


class Rig:
    """A 2-shard engine as scaffold: its shard datasets, root engine and
    transports, with the two rounds driven by hand through run_round."""

    def __init__(self, seed=0):
        dataset, rng, vocab = build_dataset(seed, n_obj=70, n_users=24, vocab=18)
        self.engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        self.queries = make_queries(rng, vocab, 6, ks=(3, 5))
        self.hosts = []

    def install(self, kind, faults=None):
        engine = self.engine
        if kind == "pool":
            engine.start_pools(
                1, search_workers=1,
                retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=faults,
            )
        elif kind == "socket":
            replicas = {s.shard_id: s.engine.dataset for s in engine.shards}
            self.hosts = [HostThread(ShardHost(replicas, engine.dataset))]
            engine.connect_hosts(
                [f"127.0.0.1:{h.port}" for h in self.hosts],
                retry=FAST_RETRY, deadline=FAST_DEADLINE,
            )
        return engine._executor.transport

    def close(self):
        self.engine.close_pools(timeout_s=10.0)
        self.engine.close_hosts()
        for host in self.hosts:
            host.stop()

    def rounds(self, transport):
        """``{stage: (canonical chunks per lane, (width, chunks, retries,
        degraded))}`` for the two scatter stages over ``transport``."""
        engine, root = self.engine, self.engine.root
        plan = engine.plan(OPTS, ks=[q.k for q in self.queries])
        ctx = FlushContext(
            engine=root, plan=plan, queries=list(self.queries),
            merged_by_k={}, need_ks=list(plan.distinct_ks),
        )
        TraverseStage().run_central(ctx)
        # A fresh per-k state every call, like a freshly walked pool.
        ctx["pool_state"].by_k.clear()
        out = {}

        def run(stage, lanes):
            returned, retries, degraded, _, _ = run_round(stage, lanes, transport)
            out[stage.name] = (
                [[[canon(item) for item in chunk] for chunk in lane_chunks]
                 for lane_chunks in returned],
                (len(lanes), sum(len(c) for c in returned),
                 sum(retries), sum(degraded)),
            )
            return returned

        refine = RefineStage()
        lanes = [
            Lane(
                shard.shard_id,
                refine.split(
                    ctx, ShardHandle(shard.shard_id, shard.engine.dataset)
                ),
                shard.engine.dataset,
            )
            for shard in engine.shards
        ]
        refine.merge(ctx, run(refine, lanes))
        # Algorithm 3 whole, against the full dataset and the merged map.
        whole = ShardHandle(-1, engine.dataset, 1)
        select = SelectStage()
        run(select, [Lane(-1, select.split(ctx, whole), engine.dataset)])
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
    for stage in STAGES:
        chunks, accounting = got[stage]
        assert chunks == expected[stage][0], stage
        assert accounting == expected[stage][1], stage
        assert accounting[2:] == (0, 0)
    assert got["refine"][1][0] == 2  # one lane per shard
    assert got["select"][1][0] == 1


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
        assert (width, n_chunks) == expected[stage][1][:2], stage
        assert degraded == width, stage  # every lane lost, each counted once
    counters = rig.engine.fault_counters()
    if kind == "pool":
        # The respawn itself is what failed: nothing was re-dispatched.
        assert counters["retries"] == 0
    else:
        assert counters["worker_deaths"] == 1


# ----------------------------------------------------------------------
# A candidate pool crosses the wire as id / bound columns: one that does
# not fit the far side's object set is refused there, typed, and the
# round takes the transport's ordinary ladder.
# ----------------------------------------------------------------------

def numpy_refine_lanes(engine, traversal, k=3):
    return [
        Lane(shard.shard_id,
             [("refine", traversal, [k], "numpy", shard.shard_id)],
             shard.engine.dataset)
        for shard in engine.shards
    ]


def test_host_whose_replica_lacks_a_pooled_object_degrades_the_lane(rig):
    pytest.importorskip("numpy")
    from repro import Dataset
    from repro.core.joint_topk import joint_traversal

    engine = rig.engine
    full = engine.dataset
    walked = joint_traversal(engine.root.object_tree, full, 3, backend="numpy")
    expected, *_ = run_round(RefineStage(), numpy_refine_lanes(engine, walked), INLINE)
    # A host that generated its object set one object short.
    kept = [o for o in full.objects if o.item_id != int(walked.pool.ids[0])]
    stale = {
        s.shard_id: Dataset(kept, s.engine.dataset.users, relevance="LM")
        for s in engine.shards
    }
    rig.hosts = [HostThread(ShardHost(stale, full))]
    engine.connect_hosts(
        [f"127.0.0.1:{h.port}" for h in rig.hosts],
        retry=FAST_RETRY, deadline=FAST_DEADLINE,
    )
    returned, _, degraded, _, _ = run_round(
        RefineStage(), numpy_refine_lanes(engine, walked), engine._executor.transport
    )
    assert degraded == [1, 1]  # an ERROR frame each, never a wrong row
    assert [[[canon(p) for p in chunk] for chunk in lane] for lane in returned] == [
        [[canon(p) for p in chunk] for chunk in lane] for lane in expected
    ]
    assert engine.fault_counters()["worker_deaths"] >= 1


def test_pool_workers_refuse_a_pool_naming_an_unknown_object(rig):
    np = pytest.importorskip("numpy")
    from repro.core.joint_topk import (
        CandidatePool, CandidatePoolError, JointTraversalResult, joint_traversal,
    )

    engine = rig.engine
    transport = rig.install("pool")
    walked = joint_traversal(
        engine.root.object_tree, engine.dataset, 3, backend="numpy"
    )
    ids, lower, upper = walked.pool.columns()
    unknown = np.where(np.arange(len(ids)) == 1, -1, ids)  # -1: no wrapped row
    bad = JointTraversalResult.of_pool(
        CandidatePool.from_columns(unknown, lower, upper), walked.n_lo, 0.0
    )
    # Workers raise it (a task error: retried, counted), and so does the
    # in-process degrade — the coordinator holds no such object either.
    with pytest.raises(CandidatePoolError, match="does not hold"):
        run_round(RefineStage(), numpy_refine_lanes(engine, bad)[:1], transport)
    assert engine.fault_counters()["retries"] == 1
