"""The unified phase pipeline: stage contracts and executor identity.

Three layers of guarantees:

* **Stage round-trips** — the refine stage's ``merge(split(...))`` over
  any number of user-row ranges reconstructs the sequential inputs
  *exactly* (same rsk maps, and from them the
  very phase-1 state the single engine hands its ``select`` stage),
  because ``run`` is the shared worker entry both executors use.
* **Pipeline shapes** — ``build_pipeline`` wires the right typed
  stages per (mode, executor), with validated inputs/outputs.
* **Executor identity** — the LocalExecutor (via ``query_batch``) and
  the ShardedExecutor (via ``ShardedEngine``) produce bitwise-equal
  results; per-stage accounting lands on ``last_flush_report``.
"""

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
from repro.core.batch import _ensure_traversal_pool, derive_rsk_group
from repro.core.payload import decode_shard_payload
from repro.core.pipeline import (
    FlushContext,
    RefineStage,
    build_pipeline,
    execute_shard_payload,
)
from repro.core.planner import plan_batch
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build_dataset(seed=0, n_obj=60, n_users=20, vocab=16):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    measure = ["LM", "TF", "KO"][seed % 3]
    return Dataset(objects, users, relevance=measure, alpha=0.5), rng, vocab


def make_queries(rng, vocab, count, ks=(3, 5)):
    return [
        MaxBRSTkNNQuery(
            ox=STObject(
                item_id=-(i + 1),
                location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                terms={},
            ),
            locations=[
                Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)
            ],
            keywords=sorted(rng.sample(range(vocab), 5)),
            ws=2,
            k=ks[i % len(ks)],
        )
        for i in range(count)
    ]


def scatter_context(dataset, queries):
    """A joint-mode FlushContext as the refine stage finds it."""
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    plan = plan_batch(
        QueryOptions(), engine.capabilities(),
        [q.k for q in queries],
    )
    pool = _ensure_traversal_pool(engine, plan.shared_traversal_k)
    ctx = FlushContext(
        engine=engine,
        plan=plan,
        queries=list(queries),
        pool_state=pool,
        need_ks=list(plan.distinct_ks),
        group_by_k={k: derive_rsk_group(pool, k) for k in plan.distinct_ks},
    )
    return engine, ctx


def run_lanes(stage, ctx, dataset, lanes):
    """One chunk per refine payload, through the shared worker entry."""
    return [execute_shard_payload(dataset, p) for p in stage.split(ctx, lanes)]


class TestStageRoundTrips:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lanes", [1, 2, 3, 7, 64])
    def test_refine_merge_split_roundtrips_to_sequential(self, seed, lanes):
        """merge(split(...)) == the sequential Algorithm 2 map, exactly —
        uneven ranges and more lanes than users included."""
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 4, ks=(2, 5))
        engine, ctx = scatter_context(dataset, queries)
        stage = RefineStage()
        payloads = stage.split(ctx, lanes)
        assert [p[4] for p in payloads] == [None] * lanes  # the full dataset
        assert [p[3] for p in payloads] == list(range(lanes))
        stage.merge(ctx, run_lanes(stage, ctx, dataset, lanes))
        pool = ctx["pool_state"]
        for k in ctx["need_ks"]:
            sequential = {
                uid: res.kth_score
                for uid, res in oracle.individual_topk(
                    pool.traversal, dataset, k
                ).items()
            }
            merged = ctx["merged_by_k"][k]
            assert merged.rsk == sequential  # exact, not approx
            assert list(merged.rsk) == list(sequential)  # in row order
            assert merged.users_total == len(dataset.users)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_refine_merge_emits_the_single_engines_select_inputs(
        self, seed, num_shards
    ):
        """What ``RefineStage.merge`` hands ``SelectStage`` is, per k,
        the state the single engine derives from the same walk: equal
        thresholds, group threshold and walk I/O — one object per k
        (memoized on the pool, so warm flushes re-ship it by identity)
        with one hit per query."""
        from repro.core.batch import _derive_shared_topk

        dataset, rng, vocab = build_dataset(seed=seed + 10)
        queries = make_queries(rng, vocab, 5, ks=(2, 3))
        engine, ctx = scatter_context(dataset, queries)
        stage = RefineStage()
        stage.merge(ctx, run_lanes(stage, ctx, dataset, num_shards))
        assert [q for q, _ in ctx["keyed"]] == queries
        assert [key for _, key in ctx["keyed"]] == [("joint", q.k) for q in queries]
        pool = ctx["pool_state"]
        reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        ref_pool = _ensure_traversal_pool(reference, pool.k)
        for k in (2, 3):
            shared = ctx["shared_by_key"]["joint", k]
            single = _derive_shared_topk(reference, ref_pool, k)
            assert shared.rsk == single.rsk
            assert shared.rsk == oracle.individual_topk(
                ref_pool.traversal, dataset, pool.k
            ).rsk(k)
            assert shared.rsk_group == single.rsk_group
            assert shared.io_node_visits == single.io_node_visits
            assert shared.io_invfile_blocks == single.io_invfile_blocks
            assert shared.hits == sum(q.k == k for q in queries)
            assert pool.by_k[k] is shared
        # A warm flush: nothing to refine, merge only re-keys the
        # queries to the SAME memoized objects.
        first = dict(ctx["shared_by_key"])
        ctx["need_ks"] = []
        stage.merge(ctx, [])
        assert all(ctx["shared_by_key"][key] is first[key] for key in first)

    def test_merge_rejects_overlapping_and_missing_lanes(self):
        """The refine merge is a *disjoint cover* — a lane answered
        twice, or not at all, raises."""
        dataset, rng, vocab = build_dataset(seed=2)
        queries = make_queries(rng, vocab, 2, ks=(3,))
        engine, ctx = scatter_context(dataset, queries)
        stage = RefineStage()
        chunks = run_lanes(stage, ctx, dataset, 2)
        with pytest.raises(ValueError, match="re-reports"):
            stage.merge(ctx, [chunks[0], chunks[0]])  # same users twice
        with pytest.raises(ValueError, match="first missing"):
            stage.merge(ctx, [chunks[0]])  # lane 1 never answered


class TestPipelineShapes:
    def test_stage_lists_per_mode_and_executor(self):
        dataset, rng, vocab = build_dataset()
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        caps = engine.capabilities()
        joint = plan_batch(QueryOptions(), caps, [3, 5])
        indexed = plan_batch(
            QueryOptions(mode="indexed"), caps, [3, 5]
        )
        baseline = plan_batch(
            QueryOptions(mode="baseline"), caps, [3]
        )
        assert build_pipeline(joint, sharded=False).stage_names() == (
            "traverse", "refine", "select",
        )
        assert build_pipeline(joint, sharded=True).stage_names() == (
            "traverse", "refine", "select",
        )
        assert build_pipeline(indexed, sharded=False).stage_names() == (
            "traverse", "indexed-search",
        )
        assert build_pipeline(indexed, sharded=True).stage_names() == (
            "traverse", "indexed-search",
        )
        assert build_pipeline(baseline, sharded=False).stage_names() == (
            "baseline-topk", "select",
        )

    def test_stages_declare_io_slots(self):
        dataset, _, _ = build_dataset()
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        plan = plan_batch(QueryOptions(), engine.capabilities(), [3])
        pipeline = build_pipeline(plan, sharded=True)
        produced = {"engine", "plan", "queries", "io_counter", "need_ks",
                    "merged_by_k", "users_total", "store"}
        for stage in pipeline.stages:
            assert stage.inputs, stage.name
            missing = [s for s in stage.inputs if s not in produced]
            assert not missing, (stage.name, missing)
            produced |= set(stage.outputs)
        assert "results" in produced

    def test_context_require_names_the_missing_slot(self):
        ctx = FlushContext()
        with pytest.raises(RuntimeError, match="merged_by_k"):
            ctx.require("merged_by_k")


class TestFlushReports:
    def test_local_joint_flush_report(self):
        dataset, rng, vocab = build_dataset(seed=4)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 4, ks=(2, 4))
        engine.query_batch(queries, QueryOptions())
        report = engine.last_flush_report
        assert report is not None
        assert report.mode == "joint"
        assert report.batch_size == 4
        assert [s.stage for s in report.stages] == ["traverse", "refine", "select"]
        # The one tree walk's I/O lands on the traverse stage.
        traverse = report.stage("traverse")
        assert traverse.io_node_visits + traverse.io_invfile_blocks > 0
        assert report.stage("select").io_node_visits == 0

    def test_local_indexed_flush_report_charges_search_io(self):
        dataset, rng, vocab = build_dataset(seed=5)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
        queries = make_queries(rng, vocab, 3, ks=(3,))
        engine.query_batch(queries, QueryOptions(mode="indexed"))
        report = engine.last_flush_report
        assert [s.stage for s in report.stages] == ["traverse", "indexed-search"]
        search = report.stage("indexed-search")
        # The best-first search reads MIUR pages through the store.
        assert search.io_node_visits + search.io_invfile_blocks > 0

    def test_sharded_flush_report(self):
        from repro.serve import ShardedEngine

        dataset, rng, vocab = build_dataset(seed=6)
        queries = make_queries(rng, vocab, 4, ks=(3,))
        sharded = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.query_batch(queries, QueryOptions())
        report = sharded.last_flush_report
        assert [s.stage for s in report.stages] == [
            "traverse", "refine", "select",
        ]
        assert report.stage("refine").scatter_width == 2
        assert report.stage("select").items == 4


class TestSelectPayload:
    """``select`` is a payload kind of the ONE worker entry."""

    @pytest.mark.parametrize("mode", ["joint", "baseline"])
    def test_select_payload_equals_the_select_one_loop(self, mode):
        """Plain and arena-encoded, ``execute_shard_payload`` on a
        ``("select", ...)`` chunk is the per-query ``_select_one`` loop."""
        from repro.core.batch import (
            _compute_shared_baseline,
            _derive_shared_topk,
            _select_one,
        )
        from repro.core.payload import ArenaRef, PayloadCodec, encode_shard_payload
        from repro.storage.shm import ShmArena

        dataset, rng, vocab = build_dataset(seed=8)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 3, ks=(3,))
        if mode == "baseline":
            shared = _compute_shared_baseline(engine, 3)
        else:
            pool = _ensure_traversal_pool(engine, 3)
            shared = _derive_shared_topk(engine, pool, 3)
        expected = [
            _select_one(dataset, q, shared, mode, "approx")
            for q in queries
        ]
        payload = ("select", queries, (shared,) * len(queries), mode, "approx")
        with ShmArena() as arena:
            encoded = encode_shard_payload(PayloadCodec(arena), payload)
            # the O(|U|) state ships by name, once
            assert len(set(encoded[2])) == 1 and isinstance(encoded[2][0], ArenaRef)
            assert encoded[:2] + encoded[3:] == payload[:2] + payload[3:]
            for form in (payload, encoded):
                got = execute_shard_payload(dataset, form)
                assert [
                    (r.location, r.keywords, r.brstknn) for r in got
                ] == [(r.location, r.keywords, r.brstknn) for r in expected]
                for a, b in zip(got, expected):
                    assert a.stats.locations_pruned == b.stats.locations_pruned
                    assert (a.stats.keyword_combinations_scored
                            == b.stats.keyword_combinations_scored)
                    assert a.stats.topk_time_s == b.stats.topk_time_s

    def test_cross_k_select_payload_ships_each_state_once(self):
        """A select payload mixing ks encodes each distinct
        ``SharedTopK`` once — its repeats share the reference, and the
        next flush's payload re-sends it as a delta hit — and decodes to
        the plain payload's answers."""
        from repro.core.batch import _derive_shared_topk, _select_one
        from repro.core.payload import (
            ArenaRef, PayloadCodec, _clear_ref_cache, encode_shard_payload,
        )
        from repro.storage.shm import ShmArena

        dataset, rng, vocab = build_dataset(seed=9)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 6, ks=(3, 5, 3))
        pool = _ensure_traversal_pool(engine, 5)
        shared = tuple(_derive_shared_topk(engine, pool, q.k) for q in queries)
        assert len({id(s) for s in shared}) == 2

        def key(r):
            return (
                r.location, r.keywords, r.brstknn, r.stats.locations_pruned,
                r.stats.keyword_combinations_scored, r.stats.topk_time_s,
            )

        expected = [
            key(_select_one(dataset, q, s, "joint", "approx"))
            for q, s in zip(queries, shared)
        ]
        payload = ("select", queries, shared, "joint", "approx")
        with ShmArena() as arena:
            codec = PayloadCodec(arena)
            encoded = encode_shard_payload(codec, payload)
            assert all(isinstance(ref, ArenaRef) for ref in encoded[2])
            assert [ref == encoded[2][0] for ref in encoded[2]] == [
                s is shared[0] for s in shared
            ]
            assert len(set(encoded[2])) == 2
            written = codec.arena_bytes_written
            assert codec.delta_hits == 0 and written > 0
            assert encode_shard_payload(codec, payload) == encoded  # next flush
            assert codec.arena_bytes_written == written
            assert codec.delta_hits == 2
            _clear_ref_cache()
            decoded = decode_shard_payload(encoded)
            assert [id(s) for s in decoded[2]] == [
                id(decoded[2][0]) if s is shared[0] else id(decoded[2][1])
                for s in shared
            ]
            for form in (encoded, payload):
                assert [key(r) for r in execute_shard_payload(dataset, form)] == expected
