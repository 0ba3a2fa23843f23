"""Cross-method and cross-backend equivalence on random datasets.

Two families of guarantees:

* **Across modes** — ``joint``, ``baseline`` and ``indexed`` implement
  one problem definition, so with the exact keyword selector they must
  agree on the optimal cardinality (the baseline is the exhaustive
  oracle; locations/keyword sets may differ only between equal-quality
  ties).
* **Across backends** — ``backend="numpy"`` is a pure acceleration of
  ``backend="python"``: identical location, keyword set, BRSTkNN user
  set, and deterministic stats for every mode and method.
"""

import random

import pytest

from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.core.kernels import HAS_NUMPY
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build_case(seed, vocab=16, alpha=0.5, k=4, n_obj=60, n_users=12, measure="LM"):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    dataset = Dataset(objects, users, relevance=measure, alpha=alpha)
    engine = MaxBRSTkNNEngine(dataset, fanout=4, index_users=True)
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


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("mode,method", [
    ("joint", "approx"),
    ("joint", "exact"),
    ("indexed", "approx"),
    ("indexed", "exact"),
])
def test_numpy_backend_identical_results(seed, measure, mode, method):
    engine, query = build_case(seed, measure=measure)
    py = engine.query(query, QueryOptions(method=method, mode=mode, backend="python"))
    np_ = engine.query(query, QueryOptions(method=method, mode=mode, backend="numpy"))
    assert py.location == np_.location
    assert py.keywords == np_.keywords
    assert py.brstknn == np_.brstknn
    assert py.stats.locations_pruned == np_.stats.locations_pruned
    assert py.stats.keyword_combinations_scored == np_.stats.keyword_combinations_scored
    assert py.stats.users_pruned == np_.stats.users_pruned


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_numpy_backend_identical_across_k_and_alpha(alpha, k):
    """Parametrized over k and alpha, including the pure-spatial and
    pure-textual corners where scores tie heavily."""
    engine, query = build_case(42, alpha=alpha, k=k)
    py = engine.query(query, QueryOptions(method="approx", mode="joint", backend="python"))
    np_ = engine.query(query, QueryOptions(method="approx", mode="joint", backend="numpy"))
    assert (py.location, py.keywords, py.brstknn) == (
        np_.location,
        np_.keywords,
        np_.brstknn,
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("measure", ["LM", "TF"])
def test_indexed_search_late_users_identical_result_and_stats(seed, measure):
    """``indexed_search`` shares one greedy-selector cache over a query's
    locations but hands each call a fresh ``local_rsk`` holding only that
    location's users.  With scattered users and many locations, most
    users are first resolved at a late location: the numpy context must
    take their thresholds from the call that introduces them."""
    rng = random.Random(1000 + seed)
    objects = make_random_objects(80, 16, rng, space=40.0)
    users = make_random_users(30, 16, rng, space=40.0)
    dataset = Dataset(objects, users, relevance=measure, alpha=0.9)
    engine = MaxBRSTkNNEngine(dataset, fanout=4, index_users=True)
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(20, 20), terms={0: 1}),
        locations=[Point(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(8)],
        keywords=sorted(rng.sample(range(16), 6)),
        ws=2,
        k=3,
    )
    py = engine.query(query, QueryOptions(method="approx", mode="indexed", backend="python"))
    np_ = engine.query(query, QueryOptions(method="approx", mode="indexed", backend="numpy"))
    assert (py.location, py.keywords, py.brstknn) == (
        np_.location, np_.keywords, np_.brstknn,
    )
    for field in (
        "locations_pruned", "keyword_combinations_scored", "users_pruned",
        "users_total", "io_node_visits", "io_invfile_blocks",
    ):
        assert getattr(py.stats, field) == getattr(np_.stats, field), field
