"""Algorithm 3 once per ``select`` payload: the stacked selection.

A :class:`~repro.core.candidate_selection.SelectionBatch` answers the
queries of one payload (one ``RSk(u)`` vector, one ``RSk(us)``) with one
selection context per keyword side ``(ox.d, W, ws)``, one shortlist
mask per pass and one selector call per round — ``select_greedy_block``
or ``select_exact_block``, by the batch's method — then replays each
query over its own rows.  Everything here holds it to
:func:`repro.oracle.select_candidate`, run query by query, with ``==``
on ``(location, keywords, brstknn, locations_pruned,
keyword_combinations_scored)`` — for both methods, at several block
sizes and row budgets, so multi-round and multi-pass stacking both run
— and pins the cost shape the stacking buys.  Two seeded mutants (a replay that
reads its neighbour's rows, a group key without ``ws``) must be caught.
"""

import contextlib
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, QueryOptions, oracle,
)
from repro.core import candidate_selection, keyword_selection, kernels
from repro.core.bounds import BoundCalculator
from repro.core.candidate_selection import SelectionBatch, select_candidate
from repro.core.kernels import DatasetArrays, SelectionContext
from repro.core.pipeline import execute_shard_payload
from repro.core.query import QueryStats
from repro.core.thresholds import Thresholds
from repro.model.objects import STObject
from repro.serve.sharded import ShardedEngine
from repro.spatial.geometry import Point
from repro.spatial.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN

from ..conftest import make_random_objects, make_random_users, refined_states

MEASURES = ["LM", "TF", "KO"]
ALPHAS = [0.0, 0.3, 0.5, 1.0]
METRICS = [MANHATTAN, EUCLIDEAN, CHEBYSHEV]
VOCAB = 14

#: (LOCATION_BLOCK, STACK_ROWS) settings: one block per query and one
#: pass per batch, through many rounds and many passes.
BUDGETS = [(32, 128), (4, 128), (1, 128), (32, 12), (4, 12), (1, 5)]


@contextlib.contextmanager
def budget(block, rows):
    saved = candidate_selection.LOCATION_BLOCK, candidate_selection.STACK_ROWS
    candidate_selection.LOCATION_BLOCK, candidate_selection.STACK_ROWS = block, rows
    try:
        yield
    finally:
        candidate_selection.LOCATION_BLOCK, candidate_selection.STACK_ROWS = saved


def build_batch(seed, measure, n_queries, alpha=0.5, metric=EUCLIDEAN):
    """One dataset under ``alpha`` and ``metric``, thresholds and a batch
    over it.

    Keyword sides: two share ``ox.d = ∅`` and ``W`` and differ only in
    ``ws``; one has a non-empty ``ox.d``; one has another ``W``.  The
    batch holds queries of up to 40 locations (past a 32-block), a query
    repeated as the same object and as an equal copy, and a query
    (``ws = 0``, bare ``ox.d``) whose locations all lie past ``dmax`` of
    every user, so any ``RSk(us) > 0`` prunes every one of them (if
    ``alpha > 0``: at 0 no location is worse than another)."""
    rng = random.Random(seed)
    objects = make_random_objects(40, VOCAB, rng)
    users = make_random_users(16, VOCAB, rng)
    ds = Dataset(objects, users, relevance=measure, alpha=alpha, metric=metric)
    rsk = {}
    for u in users:
        kind = rng.choice(["kth", "kth", "kth", "zero", "far"])
        if kind == "kth":
            rsk[u.item_id] = sorted((ds.sts(o, u) for o in objects), reverse=True)[2]
        else:
            rsk[u.item_id] = 0.0 if kind == "zero" else 2.0

    held = sorted(rng.sample(range(VOCAB), 8))
    other = sorted(rng.sample(range(VOCAB), 6)) + [VOCAB + 7]
    bare = {}
    sides = [
        (bare, held, 1),
        (bare, held, 2),
        ({t: rng.randint(1, 2) for t in rng.sample(range(VOCAB), 2)}, held, 2),
        (bare, other, rng.randint(0, 3)),
    ]

    def query(side, n_locations, far=False):
        terms, keywords, ws = side
        spot = (lambda: Point(rng.uniform(900, 1000), rng.uniform(900, 1000))) if far \
            else (lambda: Point(rng.uniform(0, 10), rng.uniform(0, 10)))
        return MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=Point(5, 5), terms=dict(terms)),
            locations=[spot() for _ in range(n_locations)],
            keywords=list(keywords), ws=ws, k=3,
        )

    queries = [
        query(rng.choice(sides), rng.choice([1, 3, 6, 9]))
        for _ in range(n_queries)
    ]
    queries.append(query(rng.choice(sides), 40))
    queries.append(query((bare, held, 0), 3, far=True))
    twin = queries[0]
    queries.append(twin)  # the same object twice
    queries.append(MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=twin.ox.location, terms=dict(twin.ox.terms)),
        locations=list(twin.locations), keywords=list(twin.keywords),
        ws=twin.ws, k=twin.k,
    ))
    rng.shuffle(queries)
    return ds, rsk, queries


def answer(result, stats):
    return (
        result.location, result.keywords, result.brstknn,
        stats.locations_pruned, stats.keyword_combinations_scored,
    )


def stacked_answers(ds, rsk, rsk_group, queries, method="approx"):
    batch = SelectionBatch(queries, [(rsk, rsk_group)] * len(queries), method)
    out = []
    for q in queries:
        stats = QueryStats()
        result = select_candidate(
            ds, q, rsk, rsk_group=rsk_group, method=method, stats=stats, batch=batch,
        )
        out.append(answer(result, stats))
    return out


def oracle_answers(ds, rsk, rsk_group, queries, method="approx"):
    out = []
    for q in queries:
        stats = QueryStats()
        result = oracle.select_candidate(
            ds, q, rsk, rsk_group=rsk_group, method=method, stats=stats,
        )
        out.append(answer(result, stats))
    return out


def rsk_groups(rsk):
    """Off, low (the keyword-free acceptance path opens) and the least
    ``RSk(u)`` (locations get pruned)."""
    return [0.0, 0.02, min(v for v in rsk.values() if v > 0.0)]


# ----------------------------------------------------------------------
# Property: stacked == oracle, query by query
# ----------------------------------------------------------------------

def stacked_in_threads(ds, rsk, rsk_group, queries, threads, method):
    """``stacked_answers`` run by ``threads`` threads at once, released
    together and switching as often as the interpreter allows: on a
    fresh dataset they race to build and fill the same stored keyword
    sides.  One answer list per thread (``None``: the thread raised).
    Afterwards every stored side names each of its text rows exactly
    once — what a lost or doubled row append would break."""
    start = threading.Barrier(threads, timeout=60)
    out = [None] * threads

    def run(i):
        start.wait()
        out[i] = stacked_answers(ds, rsk, rsk_group, queries, method)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for side in kernels.arrays_for(ds)._sides.values():
        rows, row_of = side._texts
        assert sorted(row_of.values()) == list(range(len(rows)))
    return out


@pytest.mark.parametrize("block,rows", BUDGETS)
@given(
    seed=st.integers(0, 10_000),
    measure=st.sampled_from(MEASURES),
    n_queries=st.integers(1, 7),
    group=st.integers(0, 2),
    alpha=st.sampled_from(ALPHAS),
    metric=st.sampled_from(METRICS),
    threads=st.sampled_from([1, 2, 4]),
    text_rows=st.sampled_from([1, 3, None]),
    method=st.sampled_from(["approx", "exact"]),
    exact_rows=st.sampled_from([7, keyword_selection.EXACT_ROWS]),
)
@settings(max_examples=25, deadline=None)
def test_stacked_batch_equals_oracle_per_query(
    block, rows, seed, measure, n_queries, group, alpha, metric, threads, text_rows,
    method, exact_rows,
):
    """Each answer of the stacked batch is the oracle's, for either
    method — also when two or four threads select the batch at once
    over one dataset's keyword sides, when a side keeps only 1 or 3
    ``TS`` rows, so its rows start over while other threads read them,
    and when Algorithm 4's recount rows go 7 at a time."""
    ds, rsk, queries = build_batch(seed, measure, n_queries, alpha, metric)
    rsk_group = rsk_groups(rsk)[group]
    saved = kernels.SIDE_TEXT_BYTES, keyword_selection.EXACT_ROWS
    if text_rows is not None:
        kernels.SIDE_TEXT_BYTES = text_rows * 8 * kernels.arrays_for(ds).num_users
    keyword_selection.EXACT_ROWS = exact_rows
    try:
        with budget(block, rows):
            got = stacked_in_threads(ds, rsk, rsk_group, queries, threads, method)
    finally:
        kernels.SIDE_TEXT_BYTES, keyword_selection.EXACT_ROWS = saved
    assert got == [oracle_answers(ds, rsk, rsk_group, queries, method)] * threads


def test_drawn_batches_reach_every_path(monkeypatch):
    """The batches above really hold what the property claims to cover:
    several keyword sides, queues longer than a block, duplicates, a
    query pruned whole, and the keyword-free acceptance path taken."""
    ds, rsk, queries = build_batch(3, "LM", 7)
    sides = {candidate_selection._keyword_side(q) for q in queries}
    assert len(sides) >= 2
    assert len({q.ws for q in queries}) >= 2
    assert any(len(q.locations) > candidate_selection.LOCATION_BLOCK for q in queries)
    assert len({id(q) for q in queries}) < len(queries)
    rsk_group = rsk_groups(rsk)[1]
    answers = oracle_answers(ds, rsk, rsk_group, queries)
    assert any(pruned == len(q.locations) for q, (*_, pruned, _) in zip(queries, answers))

    taken = []
    original = candidate_selection._Search.replay

    def replay(self, block, *args):
        taken.extend(entry for entry in block if entry[2] >= self.rsk_group > 0.0)
        return original(self, block, *args)

    monkeypatch.setattr(candidate_selection._Search, "replay", replay)
    assert stacked_answers(ds, rsk, rsk_group, queries) == answers
    assert taken


def test_exact_batch_equals_oracle_per_query():
    """An EXACT batch answers each query as the oracle's Algorithm 4
    does, and a call naming the other method is refused."""
    ds, rsk, queries = build_batch(1, "LM", 2)
    for rsk_group in rsk_groups(rsk):
        assert stacked_answers(ds, rsk, rsk_group, queries, "exact") == oracle_answers(
            ds, rsk, rsk_group, queries, "exact"
        )
    batch = SelectionBatch(queries, [(rsk, 0.0)] * len(queries), "exact")
    with pytest.raises(ValueError, match="selects by 'exact'"):
        select_candidate(ds, queries[0], rsk, batch=batch)
    with pytest.raises(ValueError, match="unknown keyword-selection method"):
        SelectionBatch(queries, [(rsk, 0.0)] * len(queries), "magic")


def test_batch_refuses_other_inputs_and_strangers():
    ds, rsk, queries = build_batch(2, "LM", 3)
    batch = SelectionBatch(queries[:2], [(rsk, 0.0)] * 2)
    select_candidate(ds, queries[0], rsk, batch=batch)
    with pytest.raises(ValueError, match="registered"):
        select_candidate(ds, queries[1], dict(rsk), batch=batch)
    with pytest.raises(ValueError, match="registered"):
        select_candidate(ds, queries[1], rsk, rsk_group=0.5, batch=batch)
    with pytest.raises(ValueError, match="one dataset"):
        select_candidate(ds, queries[1], rsk, batch=batch, users=ds.users[:3])
    stranger = next(q for q in queries if all(q is not p for p in queries[:2]))
    with pytest.raises(ValueError, match="not part"):
        select_candidate(ds, stranger, rsk, batch=batch)


# ----------------------------------------------------------------------
# Seeded mutants: the property has teeth
# ----------------------------------------------------------------------

def mismatches():
    """Seeded batches (every budget) on which some stacked answer
    differs from the oracle's; a crash counts as one."""
    bad = 0
    for seed in range(8):
        ds, rsk, queries = build_batch(
            seed, MEASURES[seed % 3], 6, ALPHAS[seed % 4], METRICS[seed % 3]
        )
        for rsk_group in rsk_groups(rsk)[:2]:
            want = oracle_answers(ds, rsk, rsk_group, queries)
            for block, rows in BUDGETS[:4]:
                with budget(block, rows):
                    try:
                        bad += stacked_answers(ds, rsk, rsk_group, queries) != want
                    except (IndexError, ValueError):
                        bad += 1
    return bad


class TestMutantsAreCaught:
    def test_unmutated_stacking_is_clean(self):
        assert mismatches() == 0

    def test_replay_reads_the_neighbours_rows(self, monkeypatch):
        original = candidate_selection._Search.replay
        previous = [0]

        def replay(self, block, selection, start, base_counts, counts):
            shifted = previous[0] if start else start  # the query before's offset
            previous[0] = start
            return original(self, block, selection, shifted, base_counts, counts)

        monkeypatch.setattr(candidate_selection._Search, "replay", replay)
        assert mismatches()

    def test_group_key_without_ws(self, monkeypatch):
        monkeypatch.setattr(
            candidate_selection, "_keyword_side",
            lambda q: (tuple(q.ox.terms.items()), tuple(q.keywords)),
        )
        assert mismatches()


# ----------------------------------------------------------------------
# Across k: one payload, several RSk(u) vectors and RSk(us) values
# ----------------------------------------------------------------------

#: The ks a cross-k batch mixes, and each one's ``RSk(us)``: off, low
#: (the keyword-free acceptance path opens) and the least ``RSk(u)``.
CROSS_KS = (1, 3, 6)


def thresholds_at(ds, base, k):
    """``RSk(u)`` at ``k`` by user row, as refine hands it to select:
    the k-th best ``STS(o, u)``, except for the users ``base`` (a
    ``build_batch`` map) gives 0.0 or 2.0, who keep theirs at every k."""
    values = [
        base[u.item_id] if base[u.item_id] in (0.0, 2.0)
        else sorted((ds.sts(o, u) for o in ds.objects), reverse=True)[k - 1]
        for u in ds.users
    ]
    return Thresholds(np.array([u.item_id for u in ds.users]), np.array(values))


def build_cross_k_batch(seed, measure, n_queries, alpha=0.5, metric=EUCLIDEAN):
    """``build_batch``'s queries, each given one of ``CROSS_KS`` — the
    two first distinct queries different ones, the query pruned whole a
    k with ``RSk(us) > 0``, the repeated object one k for both copies
    and its equal copy its own draw — and per k its own pair
    ``(RSk(u), RSk(us))``, one ``RSk(us)`` being 0.0."""
    ds, rsk, queries = build_batch(seed, measure, n_queries, alpha, metric)
    rng = random.Random(seed)
    pairs = {}
    for k, group in zip(CROSS_KS, range(3)):
        vector = thresholds_at(ds, rsk, k)
        pairs[k] = (vector, [0.0, 0.02, min(v for v in vector.values if v > 0.0)][group])
    distinct = list({id(q): q for q in queries}.values())
    for i, q in enumerate(distinct):
        q.k = CROSS_KS[i] if i < 2 else rng.choice(CROSS_KS)
        if all(loc.x > 100 for loc in q.locations):  # the far query
            q.k = rng.choice(CROSS_KS[1:])
    return ds, pairs, queries


def cross_k_stacked(ds, pairs, queries, method="approx"):
    batch = SelectionBatch(queries, [pairs[q.k] for q in queries], method)
    out = []
    for q in queries:
        stats = QueryStats()
        rsk, rsk_group = pairs[q.k]
        result = select_candidate(
            ds, q, rsk, rsk_group=rsk_group, method=method, stats=stats, batch=batch,
        )
        out.append(answer(result, stats))
    return out


def cross_k_oracle(ds, pairs, queries, method="approx"):
    out = []
    for q in queries:
        stats = QueryStats()
        rsk, rsk_group = pairs[q.k]
        result = oracle.select_candidate(
            ds, q, rsk, rsk_group=rsk_group, method=method, stats=stats,
        )
        out.append(answer(result, stats))
    return out


@pytest.mark.parametrize("block,rows", BUDGETS)
@given(
    seed=st.integers(0, 10_000),
    measure=st.sampled_from(MEASURES),
    n_queries=st.integers(1, 7),
    alpha=st.sampled_from(ALPHAS),
    metric=st.sampled_from(METRICS),
    method=st.sampled_from(["approx", "exact"]),
)
@settings(max_examples=20, deadline=None)
def test_cross_k_batch_equals_oracle_per_query(
    block, rows, seed, measure, n_queries, alpha, metric, method
):
    """Every query of a payload mixing ks and keyword sides answers
    ``==`` the oracle run with that query's own thresholds, for either
    method."""
    ds, pairs, queries = build_cross_k_batch(seed, measure, n_queries, alpha, metric)
    want = cross_k_oracle(ds, pairs, queries, method)
    with budget(block, rows):
        got = cross_k_stacked(ds, pairs, queries, method)
    assert got == want


def test_cross_k_batches_reach_every_path():
    """What the property claims to draw: at least two ks (distinct
    vectors and ``RSk(us)``, one of them 0.0), at least two keyword
    sides sharing k-mixed groups, duplicates, a query pruned whole."""
    ds, pairs, queries = build_cross_k_batch(3, "LM", 7)
    ks = {q.k for q in queries}
    assert len(ks) >= 2
    assert len({id(pairs[k][0]) for k in ks}) == len(ks)
    assert len({pairs[k][1] for k in ks}) == len(ks)
    assert 0.0 in {pairs[k][1] for k in CROSS_KS}
    sides = {}
    for q in queries:
        sides.setdefault(candidate_selection._keyword_side(q), set()).add(q.k)
    assert len(sides) >= 2 and any(len(side_ks) >= 2 for side_ks in sides.values())
    assert len({id(q) for q in queries}) < len(queries)
    answers = cross_k_oracle(ds, pairs, queries)
    assert any(pruned == len(q.locations) for q, (*_, pruned, _) in zip(queries, answers))


def cross_k_mismatches():
    """Seeded cross-k batches on which some stacked answer differs from
    the oracle's; a crash counts as one."""
    bad = 0
    for seed in range(8):
        ds, pairs, queries = build_cross_k_batch(
            seed, MEASURES[seed % 3], 6, ALPHAS[seed % 4], METRICS[seed % 3]
        )
        want = cross_k_oracle(ds, pairs, queries)
        for block, rows in BUDGETS[:4]:
            with budget(block, rows):
                try:
                    bad += cross_k_stacked(ds, pairs, queries) != want
                except (IndexError, ValueError, KeyError):
                    bad += 1
    return bad


class TestCrossKMutantsAreCaught:
    def test_unmutated_cross_k_stacking_is_clean(self):
        assert cross_k_mismatches() == 0

    def test_location_row_reads_the_neighbouring_ks_thresholds(self, monkeypatch):
        original = SelectionContext.move_to

        def move_to(self, locations, at=None):
            if at is not None and not isinstance(at, int):
                at = [(row + 1) % len(self._rows) for row in at]
            return original(self, locations, at)

        monkeypatch.setattr(SelectionContext, "move_to", move_to)
        assert cross_k_mismatches()

    def test_first_querys_rsk_group_for_every_query(self, monkeypatch):
        original = SelectionBatch._select

        def select(self, *args):
            registered = self.thresholds
            first = registered[0][1]
            self.thresholds = [(rsk, first) for rsk, _ in registered]
            try:
                return original(self, *args)
            finally:
                self.thresholds = registered

        monkeypatch.setattr(SelectionBatch, "_select", select)
        assert cross_k_mismatches()


# ----------------------------------------------------------------------
# Cost shape: what the stacking saves, counted
# ----------------------------------------------------------------------

def count_kernel_calls(monkeypatch):
    """Counters of ``SelectionContext`` builds and selector calls
    (``select_greedy_block`` or ``select_exact_block``, the ones the
    candidate search makes)."""
    calls = {"contexts": 0, "blocks": 0}
    init = SelectionContext.__init__

    def counting_init(self, *args, **kwargs):
        calls["contexts"] += 1
        init(self, *args, **kwargs)

    def counting(block):
        def counting_block(*args):
            calls["blocks"] += 1
            return block(*args)
        return counting_block

    monkeypatch.setattr(SelectionContext, "__init__", counting_init)
    for name in ("select_greedy_block", "select_exact_block"):
        monkeypatch.setattr(
            candidate_selection, name, counting(getattr(candidate_selection, name))
        )
    return calls


def engine_and_queries(n, n_locations=5, seed=4):
    """A joint engine and ``n`` same-side queries (``ox.d = ∅``, one
    ``W``, ``ws = 2``) as the benchmark's query pool has them."""
    rng = random.Random(seed)
    ds = Dataset(
        make_random_objects(80, VOCAB, rng), make_random_users(20, VOCAB, rng),
        relevance="LM", alpha=0.5,
    )
    keywords = sorted(rng.sample(range(VOCAB), 6))
    queries = [
        MaxBRSTkNNQuery(
            ox=STObject(item_id=-(i + 1), location=Point(5, 5), terms={}),
            locations=[
                Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locations)
            ],
            keywords=keywords, ws=2, k=3,
        )
        for i in range(n)
    ]
    return MaxBRSTkNNEngine(ds, EngineConfig(fanout=4)), queries


class TestCostShape:
    @pytest.mark.parametrize("method", ["approx", "exact"])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_a_payload_is_one_context_and_one_block_call(self, n, method, monkeypatch):
        engine, queries = engine_and_queries(n)
        shared = refined_states(engine, queries)[0]
        want = [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in (
                oracle.select_candidate(
                    engine.dataset, q, shared.rsk, rsk_group=shared.rsk_group,
                    method=method, stats=QueryStats(),
                )
                for q in queries
            )
        ]
        calls = count_kernel_calls(monkeypatch)
        got = execute_shard_payload(
            engine.dataset, ("select", queries, (shared,) * len(queries), "joint", method)
        )
        assert calls == {"contexts": 1, "blocks": 1}
        assert [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in got
        ] == want

    def test_a_mixed_k_same_side_payload_is_one_context(self, monkeypatch):
        """Six same-side queries over three ks: one context (one threshold
        row per k), one block call, every answer the oracle's at its k."""
        engine, queries = engine_and_queries(6)
        for q, k in zip(queries, (2, 4, 6, 2, 4, 6)):
            q.k = k
        shared = tuple(refined_states(engine, queries))
        want = [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in (
                oracle.select_candidate(
                    engine.dataset, q, entry.rsk, rsk_group=entry.rsk_group,
                    stats=QueryStats(),
                )
                for q, entry in zip(queries, shared)
            )
        ]
        calls = count_kernel_calls(monkeypatch)
        got = execute_shard_payload(
            engine.dataset, ("select", queries, shared, "joint", "approx")
        )
        assert calls == {"contexts": 1, "blocks": 1}
        assert [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in got
        ] == want

    def test_engine_query_builds_one_context(self, monkeypatch):
        engine, queries = engine_and_queries(1)
        want = oracle.query(engine, queries[0], QueryOptions())
        calls = count_kernel_calls(monkeypatch)
        got = engine.query(queries[0], QueryOptions())
        assert calls["contexts"] == 1
        assert (got.location, got.keywords, got.brstknn) == (
            want.location, want.keywords, want.brstknn
        )

    def test_row_budget_splits_a_payload_into_passes(self, monkeypatch):
        """8 queries x 5 locations under a 12-row budget: passes of two
        queries — four block calls, still one context; a flush's select
        stage still counts the 8 queries, not the passes."""
        engine, queries = engine_and_queries(8)
        shared = refined_states(engine, queries)[0]
        monkeypatch.setattr(candidate_selection, "STACK_ROWS", 12)
        calls = count_kernel_calls(monkeypatch)
        execute_shard_payload(
            engine.dataset, ("select", queries, (shared,) * len(queries), "joint", "approx")
        )
        assert calls == {"contexts": 1, "blocks": 4}
        sharded = ShardedEngine(engine.dataset, EngineConfig(fanout=4, num_shards=2))
        sharded.query_batch(queries, QueryOptions())
        assert sharded.last_flush_report.stage("select").items == len(queries)

    def test_a_pass_computes_its_spatial_rows_once(self, monkeypatch):
        """A warm flush of 8 queries x 20 locations (the benchmark's
        query shape) is two passes (120 + 40 rows) of several rounds
        each: ``spatial_matrix`` runs once per pass — one row per
        surviving location, never again per round — the group bounds
        make no per-location scalar call, no round rebuilds a
        membership mask from row lists, and the pair table is built
        once for the one context.  Answers stay the oracle's."""
        engine, queries = engine_and_queries(8, n_locations=20)
        shared = refined_states(engine, queries)[0]
        want = [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in (
                oracle.select_candidate(
                    engine.dataset, q, shared.rsk, rsk_group=shared.rsk_group,
                    stats=QueryStats(),
                )
                for q in queries
            )
        ]
        calls = {"passes": 0, "spatial": [], "scalar bounds": 0, "membership": 0,
                 "pair tables": 0, "blocks": 0}
        spatial = DatasetArrays.spatial_matrix
        run_pass = candidate_selection._run_pass
        block = candidate_selection.select_greedy_block
        pair_table = kernels.PairTable

        def count(key, original):
            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            return counted

        def spy_spatial(self, locations):
            calls["spatial"].append(len(locations))
            return spatial(self, locations)

        monkeypatch.setattr(DatasetArrays, "spatial_matrix", spy_spatial)
        monkeypatch.setattr(candidate_selection, "_run_pass", count("passes", run_pass))
        monkeypatch.setattr(candidate_selection, "select_greedy_block", count("blocks", block))
        monkeypatch.setattr(kernels, "PairTable", count("pair tables", pair_table))
        monkeypatch.setattr(
            DatasetArrays, "membership", count("membership", DatasetArrays.membership)
        )
        for name in ("location_upper_group", "location_lower_group"):
            monkeypatch.setattr(
                BoundCalculator, name, count("scalar bounds", getattr(BoundCalculator, name))
            )
        monkeypatch.setattr(candidate_selection, "LOCATION_BLOCK", 8)
        got = execute_shard_payload(
            engine.dataset, ("select", queries, (shared,) * len(queries), "joint", "approx")
        )
        survivors = 8 * 20 - sum(r.stats.locations_pruned for r in got)
        assert calls["passes"] == 2 and calls["blocks"] > calls["passes"]
        assert len(calls["spatial"]) == 2 and sum(calls["spatial"]) == survivors
        assert calls["scalar bounds"] == calls["membership"] == 0
        assert calls["pair tables"] == 1
        assert [
            (r.location, r.keywords, r.brstknn, r.stats.keyword_combinations_scored)
            for r in got
        ] == want

    def test_selection_time_is_shared_out(self):
        """Each query's ``selection_time_s`` is its own work plus a share
        of the passes: positive, and summing to at most the payload's
        wall time."""
        import time

        engine, queries = engine_and_queries(6)
        shared = refined_states(engine, queries)[0]
        t0 = time.perf_counter()
        got = execute_shard_payload(
            engine.dataset, ("select", queries, (shared,) * len(queries), "joint", "approx")
        )
        wall = time.perf_counter() - t0
        times = [r.stats.selection_time_s for r in got]
        assert all(t > 0.0 for t in times)
        assert sum(times) <= wall

