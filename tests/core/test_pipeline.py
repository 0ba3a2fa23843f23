"""The flush's phases: payload round-trips and executor identity.

Four layers of guarantees:

* **Refine round-trips** — ``merge_refine(refine_payloads(...))`` over
  any number of user-row ranges reconstructs the sequential inputs
  *exactly* (same rsk maps, and from them the
  very phase-1 state the single engine hands its select phase),
  because ``execute_shard_payload`` is the worker entry every range
  runs through, inline or on a shard host.
* **Query-axis round-trips** — ``merge_select(select_payloads(...))``
  answers like the single engine's flush at any width.
* **Phase lists** — a flush on either engine kind records the right
  phases, in order, on ``last_flush_report``, each timed by ``_phase``
  into a snapshot row of the same fields, with one refine accounting:
  ``items`` counts the ks refined, ``scatter_width`` the row ranges.
* **Executor identity** — the one executor on a plain engine (one
  range) and on a ``ShardedEngine`` (``num_shards`` ranges) produces
  bitwise-equal results; per-stage accounting lands on
  ``last_flush_report``.
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
from repro.core.batch import _ensure_traversal_pool
from repro.core.kernels import arrays_for
from repro.core.payload import decode_shard_payload
from repro.core.pipeline import (
    FlushReport,
    _phase,
    execute_shard_payload,
    merge_refine,
    merge_select,
    refine_payloads,
    select_payloads,
)
from repro.core.planner import plan_batch
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users, refined_states


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


class Refine:
    """A flush as its refine phase finds it: the walked pool,
    every k still to refine, and the merged maps so far."""

    def __init__(self, dataset, queries):
        self.dataset = dataset
        self.queries = list(queries)
        self.engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        self.plan = plan = plan_batch(
            QueryOptions(), self.engine.capabilities(),
            [q.k for q in queries],
        )
        self.pool = _ensure_traversal_pool(
            self.engine._executor, plan.shared_traversal_k
        )
        self.need_ks = list(plan.distinct_ks)
        self.group_by_k = {k: self.pool.rsk_group_for(k) for k in plan.distinct_ks}
        self.merged_by_k = {}

    def payloads(self, lanes):
        return refine_payloads(
            self.pool.traversal, self.need_ks, len(self.dataset.users), lanes
        )

    def run_lanes(self, lanes):
        """One chunk per refine payload, through the shared worker entry."""
        return [execute_shard_payload(self.dataset, p) for p in self.payloads(lanes)]

    def merge(self, chunks):
        return merge_refine(
            chunks, self.need_ks, arrays_for(self.dataset).user_ids, self.merged_by_k,
            self.pool, self.group_by_k, self.queries,
        )


class TestRefineRoundTrips:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("lanes", [1, 2, 3, 7, 64])
    def test_refine_merge_split_roundtrips_to_sequential(self, seed, lanes):
        """merge(split(...)) == the sequential Algorithm 2 map, exactly —
        uneven ranges and more lanes than users included."""
        dataset, rng, vocab = build_dataset(seed=seed)
        queries = make_queries(rng, vocab, 4, ks=(2, 5))
        refine = Refine(dataset, queries)
        payloads = refine.payloads(lanes)
        assert [p[4] for p in payloads] == [None] * lanes  # the full dataset
        assert [p[3] for p in payloads] == list(range(lanes))
        refine.merge(refine.run_lanes(lanes))
        pool = refine.pool
        for k in refine.need_ks:
            sequential = {
                uid: res.kth_score
                for uid, res in oracle.individual_topk(
                    pool.traversal, dataset, k
                ).items()
            }
            merged = refine.merged_by_k[k]
            assert merged.rsk == sequential  # exact, not approx
            assert list(merged.rsk) == list(sequential)  # in row order
            assert merged.users_total == len(dataset.users)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_refine_merge_emits_the_single_engines_select_inputs(
        self, seed, num_shards
    ):
        """What ``merge_refine`` hands the select phase is, per k,
        the state the single engine derives from the same walk: equal
        thresholds, group threshold and walk I/O — one object per k
        (memoized on the pool, so warm flushes re-ship it by identity)
        with one hit per query."""
        dataset, rng, vocab = build_dataset(seed=seed + 10)
        queries = make_queries(rng, vocab, 5, ks=(2, 3))
        refine = Refine(dataset, queries)
        shared = refine.merge(refine.run_lanes(num_shards))
        pool = refine.pool
        # each query gets its k's one state, memoized on the pool
        assert len(shared) == len(queries)
        assert all(s is pool.by_k[q.k] for s, q in zip(shared, queries))
        reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        singles = refined_states(reference, queries)
        ref_pool = reference._executor.traversal_pool
        assert ref_pool.k == pool.k
        for k in (2, 3):
            entry = shared[[q.k for q in queries].index(k)]
            single = singles[[q.k for q in queries].index(k)]
            assert entry.rsk == single.rsk
            assert entry.rsk == oracle.individual_topk(
                ref_pool.traversal, dataset, pool.k
            ).rsk(k)
            assert entry.rsk_group == single.rsk_group
            assert entry.io_node_visits == single.io_node_visits
            assert entry.io_invfile_blocks == single.io_invfile_blocks
            assert entry.hits == sum(q.k == k for q in queries)
            assert pool.by_k[k] is entry
        # A warm flush: nothing to refine, merge only hands the queries
        # the SAME memoized objects.
        refine.need_ks = []
        warm = refine.merge([])
        assert all(a is b for a, b in zip(warm, shared))

    def test_merge_rejects_overlapping_and_missing_lanes(self):
        """The refine merge is a *disjoint cover* — a lane answered
        twice, or not at all, raises."""
        dataset, rng, vocab = build_dataset(seed=2)
        queries = make_queries(rng, vocab, 2, ks=(3,))
        refine = Refine(dataset, queries)
        chunks = refine.run_lanes(2)
        with pytest.raises(ValueError, match="re-reports"):
            refine.merge([chunks[0], chunks[0]])  # same users twice
        with pytest.raises(ValueError, match="first missing"):
            refine.merge([chunks[0]])  # lane 1 never answered


def answer_key(result):
    return (
        result.location, result.keywords, result.brstknn,
        result.stats.locations_pruned,
        result.stats.keyword_combinations_scored,
    )


class TestQueryAxisRoundTrips:
    """``merge_*(*_payloads(...))`` through the shared worker entry
    answers like the single engine's flush, whatever the width."""

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_select_round_answers_like_query_batch(self, width):
        dataset, rng, vocab = build_dataset(seed=11)
        queries = make_queries(rng, vocab, 5, ks=(2, 3))
        refine = Refine(dataset, queries)
        shared = refine.merge(refine.run_lanes(2))
        payloads, index_groups = select_payloads(
            queries, shared, refine.plan, width
        )
        assert len(payloads) == min(width, len(queries))
        assert sorted(i for group in index_groups for i in group) == list(
            range(len(queries))
        )
        results = merge_select(
            index_groups, [execute_shard_payload(dataset, p) for p in payloads]
        )
        reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        expected = reference.query_batch(queries, QueryOptions())
        assert [answer_key(r) for r in results] == [
            answer_key(r) for r in expected
        ]

class TestPhaseTiming:
    def test_a_phase_records_its_time_and_io_on_the_report(self):
        """``_phase`` appends one ``StageStats`` per phase, charged with
        the I/O its body drew from the counter and nothing else."""
        dataset, _, _ = build_dataset(seed=3)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        report = FlushReport(batch_size=2)
        _ensure_traversal_pool(engine._executor, 2)  # I/O before the phase: not its
        with _phase(report, "traverse", engine.io, 2) as stats:
            assert report.stages == []  # appended when the phase ends
            pool = _ensure_traversal_pool(engine._executor, 4)  # outgrown: re-walked
        with _phase(report, "refine", engine.io, 1):
            pass
        assert report.stages == [stats, report.stages[1]]
        assert (stats.stage, stats.items, stats.scatter_width) == (
            "traverse", 2, 1,
        )
        assert stats.time_s > 0
        assert (stats.io_node_visits, stats.io_invfile_blocks) == (
            pool.io_node_visits, pool.io_invfile_blocks,
        )
        assert stats.io_node_visits > 0
        idle = report.stages[1]
        assert (idle.stage, idle.io_node_visits, idle.io_invfile_blocks) == (
            "refine", 0, 0,
        )


STAGE_FIELDS = [
    "stage", "items", "scatter_width", "time_ms", "io_node_visits",
    "io_invfile_blocks", "retries", "degraded", "payload_bytes_out",
    "payload_bytes_in",
]


class TestPipelineShapes:
    @pytest.mark.parametrize("sharded", [False, True])
    def test_snapshot_fields_per_engine(self, sharded):
        """``FlushReport.snapshot()`` — what ``--explain`` and the stats
        surfaces print — keeps one row of the same fields per phase, and
        its byte totals are the phases' sums."""
        from repro.serve import ShardedEngine

        dataset, rng, vocab = build_dataset(seed=7)
        config = EngineConfig(fanout=4)
        engine = (
            ShardedEngine(dataset, config.with_(num_shards=2)) if sharded
            else MaxBRSTkNNEngine(dataset, config)
        )
        queries = make_queries(rng, vocab, 4, ks=(3, 5))
        engine.query_batch(queries, QueryOptions())
        snap = engine.last_flush_report.snapshot()
        assert list(snap) == [
            "batch_size", "payload_bytes_out", "payload_bytes_in", "stages",
        ]
        assert snap["batch_size"] == len(queries)
        for row in snap["stages"]:
            assert list(row) == STAGE_FIELDS
        for total in ("payload_bytes_out", "payload_bytes_in"):
            assert snap[total] == sum(row[total] for row in snap["stages"])
        # The query-axis phase ends every flush and counts queries.
        assert snap["stages"][-1]["items"] == len(queries)
        # One refine accounting on both engine kinds: the ks it
        # refined, dealt as one row range per configured range.
        refine = snap["stages"][1]
        assert (refine["items"], refine["scatter_width"]) == (2, 2 if sharded else 1)


    @pytest.mark.parametrize("sharded", [False, True])
    def test_stage_list_per_engine_kind(self, sharded):
        """The one executor records the pipeline's phases, in order, on
        both engine kinds, for either keyword selector."""
        from repro.serve import ShardedEngine

        dataset, rng, vocab = build_dataset()
        config = EngineConfig(fanout=4)
        engine = (
            ShardedEngine(dataset, config.with_(num_shards=2)) if sharded
            else MaxBRSTkNNEngine(dataset, config)
        )
        queries = make_queries(rng, vocab, 3, ks=(3, 5))
        stages = ["traverse", "refine", "select"]
        for method in ("approx", "exact"):
            engine.query_batch(queries, QueryOptions(method=method))
            report = engine.last_flush_report
            assert report.batch_size == len(queries)
            assert [s.stage for s in report.stages] == stages
            assert [st["stage"] for st in report.snapshot()["stages"]] == stages


def assert_refine_accounting(engine, queries, ranges):
    """A cold joint flush refines every distinct k in one round of
    ``ranges`` row ranges; the warm repeat refines nothing (width 0)."""
    n_ks = len({q.k for q in queries})
    engine.query_batch(queries, QueryOptions())
    refine = engine.last_flush_report.stage("refine")
    assert (refine.items, refine.scatter_width) == (n_ks, ranges)
    engine.query_batch(queries, QueryOptions())
    refine = engine.last_flush_report.stage("refine")
    assert (refine.items, refine.scatter_width) == (0, 0)
    assert engine.last_flush_report.stage("select").items == len(queries)


class TestFlushReports:
    def test_plain_joint_flush_report(self):
        dataset, rng, vocab = build_dataset(seed=4)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 4, ks=(2, 4))
        engine.query_batch(queries, QueryOptions())
        report = engine.last_flush_report
        assert report is not None
        assert report.batch_size == 4
        assert [s.stage for s in report.stages] == ["traverse", "refine", "select"]
        # The one tree walk's I/O lands on the traverse stage.
        traverse = report.stage("traverse")
        assert traverse.io_node_visits + traverse.io_invfile_blocks > 0
        assert report.stage("select").io_node_visits == 0
        engine.clear_topk_cache()
        assert_refine_accounting(engine, queries, ranges=1)

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
        sharded.clear_topk_cache()
        assert_refine_accounting(sharded, queries, ranges=2)


class TestSelectPayload:
    """``select`` is a payload kind of the ONE worker entry."""

    @pytest.mark.parametrize("method", ["approx", "exact"])
    def test_select_payload_equals_the_select_one_loop(self, method):
        """Plain and arena-encoded, ``execute_shard_payload`` on a
        ``("select", ...)`` chunk is the per-query ``_select_one`` loop."""
        from repro.core.batch import _select_one
        from repro.core.payload import ArenaRef, PayloadCodec, encode_shard_payload
        from repro.storage.shm import ShmArena

        dataset, rng, vocab = build_dataset(seed=8)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 3, ks=(3,))
        shared = refined_states(engine, queries)[0]
        expected = [_select_one(dataset, q, shared, method) for q in queries]
        payload = ("select", queries, (shared,) * len(queries), method)
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
        from repro.core.batch import _select_one
        from repro.core.payload import (
            ArenaRef, PayloadCodec, _clear_ref_cache, encode_shard_payload,
        )
        from repro.storage.shm import ShmArena

        dataset, rng, vocab = build_dataset(seed=9)
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        queries = make_queries(rng, vocab, 6, ks=(3, 5, 3))
        shared = tuple(refined_states(engine, queries))
        assert len({id(s) for s in shared}) == 2

        def key(r):
            return (
                r.location, r.keywords, r.brstknn, r.stats.locations_pruned,
                r.stats.keyword_combinations_scored, r.stats.topk_time_s,
            )

        expected = [
            key(_select_one(dataset, q, s, "approx"))
            for q, s in zip(queries, shared)
        ]
        payload = ("select", queries, shared, "approx")
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
