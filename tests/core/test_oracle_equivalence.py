"""Cross-method and engine-vs-oracle equivalence on random datasets.

Two families of guarantees:

* **Across modes** — ``joint``, ``baseline`` and ``indexed`` implement
  one problem definition, so with the exact keyword selector they must
  agree on the optimal cardinality (the baseline is the exhaustive
  oracle; locations/keyword sets may differ only between equal-quality
  ties).
* **Engine against oracle** — the engine's numpy kernels are a pure
  acceleration of the scalar reference (:func:`repro.oracle.query`):
  identical location, keyword set, BRSTkNN user set, and deterministic
  stats for every mode and method.
"""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, oracle
from repro.core.config import QueryOptions
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build_case(seed, vocab=16, alpha=0.5, k=4, n_obj=60, n_users=12, measure="LM"):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    dataset = Dataset(objects, users, relevance=measure, alpha=alpha)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(5, 5), terms={0: 1}),
        locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)],
        keywords=sorted(rng.sample(range(vocab), min(5, vocab))),
        ws=2,
        k=k,
    )
    return engine, query


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_modes_agree_on_optimal_cardinality(seed, k, alpha):
    engine, query = build_case(seed, k=k, alpha=alpha)
    results = {
        mode: engine.query(query, QueryOptions(method="exact", mode=mode))
        for mode in ("joint", "baseline", "indexed")
    }
    cards = {mode: r.cardinality for mode, r in results.items()}
    assert len(set(cards.values())) == 1, cards
    # joint and indexed run the same Algorithm 3+4; their chosen
    # keyword sets must also win the same number of users when the
    # baseline re-scores them (sanity against degenerate winners).
    assert results["joint"].keywords <= set(query.keywords)
    assert results["indexed"].keywords <= set(query.keywords)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("vocab", [8, 32])
def test_modes_agree_across_vocab_sizes(seed, vocab):
    engine, query = build_case(seed + 100, vocab=vocab)
    cards = {
        mode: engine.query(query, QueryOptions(method="exact", mode=mode)).cardinality
        for mode in ("joint", "baseline", "indexed")
    }
    assert len(set(cards.values())) == 1, cards


STAT_FIELDS = (
    "locations_pruned", "keyword_combinations_scored", "users_pruned",
    "users_total", "io_node_visits", "io_invfile_blocks",
)


def assert_same_cold_answer(engine, query, options):
    """``engine.query`` equals ``oracle.query`` on a twin engine: the
    answer, every non-time stat, and the I/O each charged its engine."""
    twin = MaxBRSTkNNEngine(engine.dataset, engine.config, object_tree=engine.object_tree)
    before = twin.io.snapshot()
    py = oracle.query(twin, query, options)
    py_io = twin.io.snapshot() - before
    before = engine.io.snapshot()
    np_ = engine.query(query, options)
    np_io = engine.io.snapshot() - before
    assert (py.location, py.keywords, py.brstknn) == (
        np_.location, np_.keywords, np_.brstknn,
    )
    for field in STAT_FIELDS:
        assert getattr(py.stats, field) == getattr(np_.stats, field), field
    assert (py_io.node_visits, py_io.invfile_blocks) == (
        np_io.node_visits, np_io.invfile_blocks,
    )
    assert np_io.node_visits + np_io.invfile_blocks > 0


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("mode,method", [
    ("joint", "approx"),
    ("joint", "exact"),
    ("indexed", "approx"),
    ("indexed", "exact"),
    ("baseline", "exact"),
])
def test_engine_identical_to_oracle(seed, measure, mode, method):
    """The cold single query is a contract: answers, every non-time
    stat and the I/O trace are the oracle's, on every mode."""
    engine, query = build_case(seed, measure=measure)
    assert_same_cold_answer(engine, query, QueryOptions(method=method, mode=mode))


@pytest.mark.parametrize("mode", ["joint", "indexed"])
def test_query_after_a_warm_batch_is_still_cold(mode):
    """``engine.query`` after a ``query_batch`` at a larger k still walks
    at its own k — the I/O of a fresh engine's, not the memoized
    walk's — and leaves the batch memo (``capabilities()``) as it was."""
    import dataclasses

    engine, query = build_case(3, k=2)
    options = QueryOptions(mode=mode)
    engine.query_batch([dataclasses.replace(query, k=8)], options)
    caps = engine.capabilities()
    assert (caps.root_pool_k if mode == "indexed" else caps.traversal_pool_k) == 8
    runs = engine.traversal_runs
    assert_same_cold_answer(engine, query, options)
    assert engine.traversal_runs == runs + 1  # its own walk, at k=2
    assert engine.capabilities() == caps


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_engine_identical_to_oracle_across_k_and_alpha(alpha, k):
    """Parametrized over k and alpha, including the pure-spatial and
    pure-textual corners where scores tie heavily."""
    engine, query = build_case(42, alpha=alpha, k=k)
    options = QueryOptions(method="approx", mode="joint")
    py = oracle.query(engine, query, options)
    np_ = engine.query(query, options)
    assert (py.location, py.keywords, py.brstknn) == (
        np_.location,
        np_.keywords,
        np_.brstknn,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("measure", ["LM", "TF"])
def test_indexed_search_late_users_identical_result_and_stats(seed, measure):
    """``indexed_search`` shares one greedy-selector cache over a query's
    locations but hands each call a fresh ``local_rsk`` holding only that
    location's users.  With scattered users and many locations, most
    users are first resolved at a late location: the engine's selection
    context must take their thresholds from the call that introduces
    them."""
    rng = random.Random(1000 + seed)
    objects = make_random_objects(80, 16, rng, space=40.0)
    users = make_random_users(30, 16, rng, space=40.0)
    dataset = Dataset(objects, users, relevance=measure, alpha=0.9)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(20, 20), terms={0: 1}),
        locations=[Point(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(8)],
        keywords=sorted(rng.sample(range(16), 6)),
        ws=2,
        k=3,
    )
    options = QueryOptions(method="approx", mode="indexed")
    py = oracle.query(engine, query, options)
    np_ = engine.query(query, options)
    assert (py.location, py.keywords, py.brstknn) == (
        np_.location, np_.keywords, np_.brstknn,
    )
    for field in (
        "locations_pruned", "keyword_combinations_scored", "users_pruned",
        "users_total", "io_node_visits", "io_invfile_blocks",
    ):
        assert getattr(py.stats, field) == getattr(np_.stats, field), field


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", ["approx", "exact"])
def test_indexed_pipeline_identical_to_oracle(seed, method):
    """Section 7 piece by piece: the cold indexed query, and the
    best-first search alone over one shared walk's pool — the oracle's
    scalar leaves (Algorithm 2, ``RSk(node)``, keyword selection) against
    the engine's kernels, counters and I/O charges included."""
    from repro.core.indexed_users import compute_root_traversal, indexed_search
    from repro.core.query import QueryStats

    engine, query = build_case(seed + 7)
    engine_side = MaxBRSTkNNEngine(engine.dataset, EngineConfig(fanout=4, index_users=True))
    pairs = [
        engine_side.query(query, QueryOptions(mode="indexed", method=method)),
        oracle.indexed_users_maxbrstknn(
            engine.object_tree, engine.user_tree, engine.dataset, query,
            method=method, store=engine.store,
        ),
    ]
    shared = compute_root_traversal(
        engine.object_tree, engine.user_tree, engine.dataset, query.k + 2
    )
    for search in (indexed_search, oracle.indexed_search):
        pairs.append(search(
            engine.user_tree, engine.dataset, query, shared.traversal,
            shared.rsk_group_for(query.k), QueryStats(users_total=12),
            method=method, canonical=shared.canonical_for(query.k),
        ))
    for got, want in (pairs[:2], pairs[2:]):
        assert (got.location, got.keywords, got.brstknn) == (
            want.location, want.keywords, want.brstknn,
        )
        for field in (
            "locations_pruned", "keyword_combinations_scored", "users_pruned",
            "io_node_visits", "io_invfile_blocks",
        ):
            assert getattr(got.stats, field) == getattr(want.stats, field), field
