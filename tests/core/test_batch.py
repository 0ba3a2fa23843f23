"""``query_batch``: a batch of N queries == N sequential ``query`` calls.

The contract under test: batching is purely an execution strategy.
Results — location, keyword set, BRSTkNN user set — and every
deterministic *selection-phase* ``QueryStats`` counter (pruning,
combinations scored) must be exactly what sequential cold queries
produce.  Top-k-phase I/O matches the sequential trace too, except
that a mixed-k joint batch reports the one shared ``k_max`` walk it
actually ran (cross-k candidate-pool sharing) — identical for every
query in the batch and equal to the sequential ``k_max`` trace.  Only
wall-clock timings may differ beyond that.
"""

import multiprocessing
import random

import pytest

from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery, QueryOptions, oracle
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users

def build_engine(seed=0, n_obj=70, n_users=14, vocab=18, index_users=False):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    dataset = Dataset(objects, users, relevance="LM", alpha=0.5)
    return MaxBRSTkNNEngine(dataset, fanout=4, index_users=index_users), rng, vocab


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


def assert_stats_equal(a, b):
    """Deterministic stats counters only — timings legitimately differ."""
    assert_selection_stats_equal(a, b)
    assert a.io_node_visits == b.io_node_visits
    assert a.io_invfile_blocks == b.io_invfile_blocks


def assert_selection_stats_equal(a, b):
    assert a.users_total == b.users_total
    assert a.locations_pruned == b.locations_pruned
    assert a.keyword_combinations_scored == b.keyword_combinations_scored
    assert a.users_pruned == b.users_pruned


@pytest.mark.parametrize("mode", ["joint", "baseline"])
def test_batch_equals_sequential(mode):
    engine, rng, vocab = build_engine()
    queries = make_queries(rng, vocab, 6, ks=(3, 5))  # mixed k values
    sequential = [oracle.query(engine, q, QueryOptions(mode=mode)) for q in queries]
    batched = engine.query_batch(queries, QueryOptions(mode=mode))
    assert len(batched) == len(sequential)
    for solo, bat in zip(sequential, batched):
        assert_result_equal(solo, bat)
        assert_selection_stats_equal(solo.stats, bat.stats)
        if mode == "baseline":
            # Baseline phase 1 runs per distinct k: exact sequential trace.
            assert_stats_equal(solo.stats, bat.stats)
    if mode == "joint":
        # Cross-k pool sharing: every query reports the one shared walk,
        # whose I/O is the sequential k_max (= 5 here) traversal's.
        kmax_solo = next(
            s for q, s in zip(queries, sequential) if q.k == 5
        )
        for bat in batched:
            assert bat.stats.io_node_visits == kmax_solo.stats.io_node_visits
            assert (
                bat.stats.io_invfile_blocks == kmax_solo.stats.io_invfile_blocks
            )


def test_batch_equals_sequential_indexed():
    engine, rng, vocab = build_engine(index_users=True)
    queries = make_queries(rng, vocab, 3)
    options = QueryOptions(mode="indexed")
    sequential = [oracle.query(engine, q, options) for q in queries]
    batched = engine.query_batch(queries, options)
    for solo, bat in zip(sequential, batched):
        assert_result_equal(solo, bat)
        assert_stats_equal(solo.stats, bat.stats)


def test_empty_batch():
    engine, _, _ = build_engine()
    assert engine.query_batch([]) == []


def test_duplicate_queries_get_identical_results():
    engine, rng, vocab = build_engine(seed=5)
    query = make_queries(rng, vocab, 1)[0]
    batched = engine.query_batch([query, query, query], QueryOptions())
    assert len(batched) == 3
    for other in batched[1:]:
        assert_result_equal(batched[0], other)
        assert_stats_equal(batched[0].stats, other.stats)
    # ...and they match a sequential call too.
    solo = oracle.query(engine, query, QueryOptions())
    assert_result_equal(solo, batched[0])


def test_traversal_pool_shared_across_ks_and_batches():
    """Joint batches: ONE tree walk at k_max serves every k, memoized."""
    engine, rng, vocab = build_engine(seed=7)
    queries = make_queries(rng, vocab, 4, ks=(2, 4))
    assert engine.traversal_runs == 0
    engine.query_batch(queries)
    pool = engine._traversal_pool
    assert pool is not None
    assert pool.k == 4  # walked once, at k_max
    assert set(pool.by_k) == {2, 4}
    assert engine.traversal_runs == 1
    assert pool.hits == 4
    hits = {k: entry.hits for k, entry in pool.by_k.items()}
    assert hits == {2: 2, 4: 2}
    engine.query_batch(queries)  # same ks: no new walk, no new derivation
    assert engine._traversal_pool is pool
    assert engine.traversal_runs == 1
    assert {k: e.hits for k, e in pool.by_k.items()} == {2: 4, 4: 4}
    # A smaller new k derives from the existing pool without a walk...
    engine.query_batch(make_queries(rng, vocab, 1, ks=(3,)))
    assert engine.traversal_runs == 1
    assert set(engine._traversal_pool.by_k) == {2, 3, 4}
    # ...while a larger k forces one fresh walk that replaces the pool.
    engine.query_batch(make_queries(rng, vocab, 2, ks=(6, 2)))
    assert engine.traversal_runs == 2
    assert engine._traversal_pool.k == 6
    assert set(engine._traversal_pool.by_k) == {2, 6}
    engine.clear_topk_cache()
    assert engine._traversal_pool is None
    assert engine._shared_topk_cache == {}


def test_mixed_k_batch_refines_the_pool_once(monkeypatch):
    """ONE Algorithm 2 pass at ``pool.k`` serves every k: a top-k list
    is a prefix of the top-k' list over the same pool, so the per-k
    thresholds are read off it — and equal a dedicated refinement's."""
    import importlib

    batch = importlib.import_module("repro.core.batch")
    refine = batch.individual_topk
    refined_at = []

    def spy(traversal, dataset, k, **kwargs):
        refined_at.append(k)
        return refine(traversal, dataset, k, **kwargs)

    monkeypatch.setattr(batch, "individual_topk", spy)
    engine, rng, vocab = build_engine(seed=7)
    engine.query_batch(make_queries(rng, vocab, 6, ks=(2, 4, 3)), QueryOptions())
    pool = engine._traversal_pool
    assert refined_at == [4] and set(pool.by_k) == {2, 3, 4}
    for k, entry in pool.by_k.items():
        dedicated = oracle.individual_topk(pool.traversal, engine.dataset, k)
        assert entry.rsk == {uid: res.kth_score for uid, res in dedicated.items()}
    # A smaller new k reads the same lists; a larger one re-walks and
    # refines the new pool, once.
    engine.query_batch(make_queries(rng, vocab, 1, ks=(1,)), QueryOptions())
    assert refined_at == [4]
    engine.query_batch(make_queries(rng, vocab, 2, ks=(6, 2)), QueryOptions())
    assert refined_at == [4, 6]


def test_warm_pool_plan_and_stats_name_the_walk_actually_used():
    """A smaller-k batch after a bigger-k one reuses the k=5 walk — and
    both the plan and the per-query top-k I/O stats must say so."""
    from repro import QueryOptions

    engine, rng, vocab = build_engine(seed=21)
    big = make_queries(rng, vocab, 2, ks=(5,))
    small = make_queries(rng, vocab, 2, ks=(2,))
    [big_result, _] = engine.query_batch(big, QueryOptions())
    assert engine.plan(QueryOptions(), ks=[5]).shared_traversal_k == 5
    # The engine's pool (walked at 5) serves the k=2 batch: no re-walk,
    # and the plan reports the k=5 walk, not a fictional k=2 one.
    plan = engine.plan(QueryOptions(), ks=[2])
    assert plan.shared_traversal_k == 5
    assert "walk at k=5" in plan.explain()
    runs = engine.traversal_runs
    batched = engine.query_batch(small, QueryOptions())
    assert engine.traversal_runs == runs  # reused, not re-walked
    for result in batched:
        # Top-k I/O stats describe the k=5 walk the thresholds came from.
        assert result.stats.io_node_visits == big_result.stats.io_node_visits
        assert (
            result.stats.io_invfile_blocks == big_result.stats.io_invfile_blocks
        )
    # A fresh engine's k=2 batch still matches sequential exactly.
    fresh, _, _ = build_engine(seed=21)
    cold = fresh.query_batch(small, QueryOptions())
    for warm, ref in zip(batched, cold):
        assert_result_equal(warm, ref)
        assert_selection_stats_equal(warm.stats, ref.stats)


def test_baseline_shared_topk_cache_reused_across_batches():
    engine, rng, vocab = build_engine(seed=7)
    queries = make_queries(rng, vocab, 4, ks=(2, 4))
    engine.query_batch(queries, QueryOptions(mode="baseline"))
    cache = engine._shared_topk_cache
    assert set(cache) == {("baseline", 2), ("baseline", 4)}
    hits = {key: entry.hits for key, entry in cache.items()}
    engine.query_batch(queries, QueryOptions(mode="baseline"))  # no phase-1 recompute
    assert set(cache) == {("baseline", 2), ("baseline", 4)}
    for key, entry in cache.items():
        assert entry.hits == hits[key] + 2
    engine.clear_topk_cache()
    assert engine._shared_topk_cache == {}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker lanes require the fork start method",
)
def test_batch_workers_match_inprocess():
    """Fanning a batch out over worker processes is a 2-lane
    ShardedEngine with its pool started: same answers and selection
    counters as the plain engine in-process, a byte-accounted select
    round over both lanes, and no worker left once the engine closes."""
    from repro import EngineConfig
    from repro.serve import make_engine

    children_before = set(multiprocessing.active_children())
    engine, rng, vocab = build_engine(seed=9)
    queries = make_queries(rng, vocab, 5)
    options = QueryOptions()
    inprocess = engine.query_batch(queries, options)
    with make_engine(engine.dataset, EngineConfig(fanout=4, num_shards=2)) as lanes:
        lanes.start_pools(1)
        fanned = lanes.query_batch(queries, options)
        select = lanes.last_flush_report.stage("select")
    for a, b in zip(inprocess, fanned):
        assert_result_equal(a, b)
        assert_selection_stats_equal(a.stats, b.stats)
    assert select.scatter_width == 2
    assert select.payload_bytes_out > 0 and select.payload_bytes_in > 0
    assert (select.retries, select.degraded) == (0, 0)
    assert set(multiprocessing.active_children()) <= children_before


def test_plain_engine_batch_never_forks(monkeypatch):
    """Worker processes belong to a ShardedEngine's lanes: a plain
    engine answers a mixed-k batch without starting one, and its plan
    names no pool."""
    import multiprocessing
    from multiprocessing.process import BaseProcess

    def refuse_start(self):
        raise AssertionError(f"plain engine started a process: {self!r}")

    engine, rng, vocab = build_engine(seed=9)
    queries = make_queries(rng, vocab, 8, ks=(2, 3, 5))
    options = QueryOptions()
    monkeypatch.setattr(BaseProcess, "start", refuse_start)
    batched = engine.query_batch(queries, options)
    assert multiprocessing.active_children() == []
    sequential = [engine.query(q, options) for q in queries]
    for a, b in zip(batched, sequential):
        assert_result_equal(a, b)
        assert_selection_stats_equal(a.stats, b.stats)
    select = engine.last_flush_report.stage("select")
    assert (select.scatter_width, select.payload_bytes_out) == (1, 0)
    text = engine.plan(options, ks=[q.k for q in queries]).explain()
    assert "pool x" not in text and "lane" not in text
    assert "phase 2 (candidate selection): in-process" in text


def test_batch_rejects_unknown_mode():
    engine, rng, vocab = build_engine()
    queries = make_queries(rng, vocab, 1)
    with pytest.raises(ValueError):
        engine.query_batch(queries, QueryOptions(mode="warp"))


def test_indexed_batch_shares_one_kmax_root_traversal():
    """mode="indexed" batches share ONE MIUR-root walk at k_max across
    every k in the batch (cross-k pool sharing, PR 5)."""
    from repro import QueryOptions
    from repro.core.indexed_users import RootTraversal

    engine, rng, vocab = build_engine(seed=13, index_users=True)
    queries = make_queries(rng, vocab, 4, ks=(3, 5))
    assert engine.traversal_runs == 0
    before_first = engine.io.snapshot()
    engine.query_batch(queries, QueryOptions(mode="indexed"))
    first_io = (engine.io.snapshot() - before_first).total
    pool = engine._root_pool
    assert isinstance(pool, RootTraversal)
    assert pool.k == 5  # walked once, at k_max
    assert engine.traversal_runs == 1
    assert pool.hits == 4
    # A second identical batch reuses phase 1 entirely and pays
    # strictly less real I/O: only the per-query searches remain.
    before_second = engine.io.snapshot()
    engine.query_batch(queries, QueryOptions(mode="indexed"))
    second_io = (engine.io.snapshot() - before_second).total
    assert engine.traversal_runs == 1
    assert pool.hits == 8
    traversal_io = pool.io_node_visits + pool.io_invfile_blocks
    assert traversal_io > 0
    assert second_io == first_io - traversal_io
    # A smaller new k derives from the existing pool without a walk...
    engine.query_batch(make_queries(rng, vocab, 1, ks=(2,)), QueryOptions(mode="indexed"))
    assert engine.traversal_runs == 1
    # ...while a larger k forces one fresh walk that replaces the pool.
    engine.query_batch(make_queries(rng, vocab, 2, ks=(7, 3)), QueryOptions(mode="indexed"))
    assert engine.traversal_runs == 2
    assert engine._root_pool.k == 7
    engine.clear_topk_cache()
    assert engine._root_pool is None


def test_indexed_mixed_k_batch_equals_sequential_results():
    """Mixed-k indexed batches: ONE walk, results bitwise-identical to
    cold sequential queries (the node-RSk reformulation at work), and
    search-phase I/O matching the sequential trace exactly — the top-k
    share reports the shared k_max walk, the same stats contract joint
    batches have had since PR 3."""
    from repro import QueryOptions
    from repro.core.indexed_users import compute_root_traversal

    engine, rng, vocab = build_engine(seed=23, index_users=True)
    queries = make_queries(rng, vocab, 6, ks=(2, 4, 5))
    fresh, _, _ = build_engine(seed=23, index_users=True)
    sequential = [
        oracle.query(fresh, q, QueryOptions(mode="indexed"))
        for q in queries
    ]
    # Cold per-k walk I/O, to split the sequential stats into their
    # walk and search shares.
    walker, _, _ = build_engine(seed=23, index_users=True)
    walk_io = {}
    for k in (2, 4, 5):
        t = compute_root_traversal(
            walker.object_tree, walker.user_tree, walker.dataset, k,
            store=walker.store,
        )
        walk_io[k] = (t.io_node_visits, t.io_invfile_blocks)
    batched = engine.query_batch(queries, QueryOptions(mode="indexed"))
    assert engine.traversal_runs == 1
    pool = engine._root_pool
    assert pool.k == 5
    for q, solo, bat in zip(queries, sequential, batched):
        assert_result_equal(solo, bat)
        assert_selection_stats_equal(solo.stats, bat.stats)
        # walk share: batched reports the k_max walk, uniform across
        # the batch; search share: identical MIUR page reads.
        solo_search = (
            solo.stats.io_node_visits - walk_io[q.k][0],
            solo.stats.io_invfile_blocks - walk_io[q.k][1],
        )
        bat_search = (
            bat.stats.io_node_visits - pool.io_node_visits,
            bat.stats.io_invfile_blocks - pool.io_invfile_blocks,
        )
        assert solo_search == bat_search


def test_indexed_batch_stats_match_sequential_per_phase():
    """Indexed stats now carry top-k I/O + per-phase timings, batch == solo."""
    from repro import QueryOptions

    engine, rng, vocab = build_engine(seed=15, index_users=True)
    queries = make_queries(rng, vocab, 3)
    sequential = [
        oracle.query(engine, q, QueryOptions(mode="indexed"))
        for q in queries
    ]
    batched = engine.query_batch(queries, QueryOptions(mode="indexed"))
    for solo, bat in zip(sequential, batched):
        assert solo.stats.io_total > 0
        assert bat.stats.io_node_visits == solo.stats.io_node_visits
        assert bat.stats.io_invfile_blocks == solo.stats.io_invfile_blocks


def test_batch_method_exact_matches_sequential():
    engine, rng, vocab = build_engine(seed=11)
    queries = make_queries(rng, vocab, 3)
    sequential = [
        oracle.query(engine, q, QueryOptions(method="exact")) for q in queries
    ]
    batched = engine.query_batch(queries, QueryOptions(method="exact"))
    for solo, bat in zip(sequential, batched):
        assert_result_equal(solo, bat)
        assert_stats_equal(solo.stats, bat.stats)
