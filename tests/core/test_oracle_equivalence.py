"""Cross-method and engine-vs-oracle equivalence on random datasets.

Two families of guarantees:

* **Across modes** — ``joint``, ``baseline`` and Section 7's MIUR-tree
  search (:func:`repro.oracle.indexed_users_maxbrstknn`) implement one
  problem definition, so with the exact keyword selector they must
  agree on the optimal cardinality (the baseline is the exhaustive
  oracle; locations/keyword sets may differ only between equal-quality
  ties), and every answer's BRSTkNN set is what its location and
  keywords win under a from-scratch re-scoring.
* **Engine against oracle** — the engine's numpy kernels are a pure
  acceleration of the scalar reference (:func:`repro.oracle.query`):
  identical location, keyword set, BRSTkNN user set, and deterministic
  stats for every mode and method.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, oracle
from repro.core.config import QueryOptions
from repro.index.miurtree import MIURTree
from repro.model.objects import STObject, User
from repro.spatial.geometry import Point
from repro.spatial.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN

from ..conftest import make_random_objects, make_random_users, section7, won_users


def plant_degenerate(objects, users, rng):
    """Two keyword-less users (one on another user's point) and objects
    duplicating other objects' points — and one a user's."""
    users = users + [
        User(item_id=len(users), location=users[0].location),
        User(item_id=len(users) + 1,
             location=Point(rng.uniform(0, 10), rng.uniform(0, 10))),
    ]
    twins = [
        STObject(item_id=len(objects) + i, location=objects[i].location,
                 terms=dict(objects[-1 - i].terms))
        for i in range(3)
    ]
    twins.append(STObject(item_id=len(objects) + 3, location=users[1].location,
                          terms=dict(objects[0].terms)))
    return objects + twins, users


def build_case(seed, vocab=16, alpha=0.5, k=4, n_obj=60, n_users=12, measure="LM",
               metric=EUCLIDEAN, plant=False):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    if plant:
        objects, users = plant_degenerate(objects, users, rng)
    dataset = Dataset(objects, users, relevance=measure, alpha=alpha, metric=metric)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(5, 5), terms={0: 1}),
        locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)],
        keywords=sorted(rng.sample(range(vocab), min(5, vocab))),
        ws=2,
        k=k,
    )
    return engine, query


def exact_answers(engine, query):
    """The exact answer of each mode: the engine's ``joint`` and
    ``baseline``, and the oracle's Section 7 search over a fresh
    MIUR-tree (``indexed``)."""
    results = {
        mode: engine.query(query, QueryOptions(method="exact", mode=mode))
        for mode in ("joint", "baseline")
    }
    results["indexed"] = section7(engine, query, "exact")
    return results


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_modes_agree_on_optimal_cardinality(seed, k, alpha):
    engine, query = build_case(seed, k=k, alpha=alpha)
    results = exact_answers(engine, query)
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
    cards = {mode: r.cardinality for mode, r in exact_answers(engine, query).items()}
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


#: (mode, method) pairs the oracle equality is drawn over.
MODE_METHODS = [
    (mode, method) for mode in ("joint", "baseline") for method in ("approx", "exact")
]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("mode,method", [
    ("joint", "approx"),
    ("joint", "exact"),
    ("baseline", "exact"),
])
def test_engine_identical_to_oracle(seed, measure, mode, method):
    """The cold single query is a contract, on fixed cells: answers,
    every non-time stat and the I/O trace are the oracle's."""
    engine, query = build_case(seed, measure=measure)
    assert_same_cold_answer(engine, query, QueryOptions(method=method, mode=mode))


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_engine_identical_to_oracle_across_k_and_alpha(alpha, k):
    """Fixed cells over k and alpha, including the pure-spatial and
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


@pytest.mark.parametrize("mode,method", MODE_METHODS)
@given(
    seed=st.one_of(st.integers(0, 7), st.just(42), st.integers(0, 10_000)),
    measure=st.sampled_from(["LM", "TF", "KO"]),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    metric=st.sampled_from([EUCLIDEAN, MANHATTAN, CHEBYSHEV]),
    k=st.integers(1, 8),
    plant=st.booleans(),
    other_ks=st.lists(st.integers(1, 8), min_size=1, max_size=3),
)
@settings(max_examples=20, deadline=None)
def test_engine_identical_to_oracle_drawn(
    mode, method, seed, measure, alpha, metric, k, plant, other_ks
):
    """The oracle contract, drawn for each (mode, method): a cold
    ``engine.query`` is ``oracle.query`` — answer, every non-time stat
    and the I/O trace — and each answer of a mixed-k ``query_batch`` on
    the same engine is the per-query oracle's (answer and selection
    counters; a batch's top-k stats describe its one shared walk).
    Keyword-less users and duplicate points are planted on half the
    draws.  Every cell of the two fixed tables above is drawable."""
    engine, query = build_case(
        seed, alpha=alpha, k=k, measure=measure, metric=metric, plant=plant
    )
    options = QueryOptions(method=method, mode=mode)
    assert_same_cold_answer(engine, query, options)

    batch = [query] + [dataclasses.replace(query, k=kk) for kk in other_ks]
    twin = MaxBRSTkNNEngine(engine.dataset, engine.config, object_tree=engine.object_tree)
    for got, q in zip(engine.query_batch(batch, options), batch):
        want = oracle.query(twin, q, options)
        assert (got.location, got.keywords, got.brstknn) == (
            want.location, want.keywords, want.brstknn,
        )
        for field in BATCH_STAT_FIELDS:
            assert getattr(got.stats, field) == getattr(want.stats, field), field


#: What a batch answer shares with the per-query oracle's stats.
BATCH_STAT_FIELDS = (
    "locations_pruned", "keyword_combinations_scored", "users_pruned", "users_total",
)


def test_query_after_a_warm_batch_is_still_cold():
    """``engine.query`` after a ``query_batch`` at a larger k still walks
    at its own k — the I/O of a fresh engine's, not the memoized
    walk's — and leaves the batch memo (``capabilities()``) as it was."""
    engine, query = build_case(3, k=2)
    options = QueryOptions(mode="joint")
    engine.query_batch([dataclasses.replace(query, k=8)], options)
    caps = engine.capabilities()
    assert caps.traversal_pool_k == 8
    runs = engine.traversal_runs
    assert_same_cold_answer(engine, query, options)
    assert engine.traversal_runs == runs + 1  # its own walk, at k=2
    assert engine.capabilities() == caps


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("method", ["approx", "exact"])
def test_indexed_search_decides_the_same_over_a_larger_walk(seed, method):
    """Section 7's search reads only the canonical per-k candidate set:
    fed a walk at ``k + 2``, :func:`repro.oracle.indexed_search` gives
    the cold query's answer and selection counters."""
    from repro.core.joint_topk import derive_rsk_group
    from repro.core.query import QueryStats

    engine, query = build_case(seed + 7)
    dataset = engine.dataset
    user_tree = MIURTree(dataset.users, dataset.relevance, fanout=4)
    cold = oracle.indexed_users_maxbrstknn(
        engine.object_tree, user_tree, dataset, query, method=method,
    )
    walk = oracle.joint_traversal(
        engine.object_tree, dataset, query.k + 2, super_user=user_tree.root.summary,
    )
    shared = oracle.indexed_search(
        user_tree, dataset, query, walk, derive_rsk_group(walk, query.k + 2, query.k),
        QueryStats(users_total=len(user_tree)), method=method,
    )
    assert (shared.location, shared.keywords, shared.brstknn) == (
        cold.location, cold.keywords, cold.brstknn,
    )
    for field in ("locations_pruned", "keyword_combinations_scored", "users_pruned"):
        assert getattr(shared.stats, field) == getattr(cold.stats, field), field


def assert_section7_like_joint(engine, query, method):
    """Section 7's pruning keeps the answer: its MIUR-tree search wins
    as many users as the engine's ``joint`` query with the same
    selector (the two may pick different equal-quality ties), and each
    answer's BRSTkNN set is exactly the users its location and keyword
    set win."""
    indexed = section7(engine, query, method)
    joint = engine.query(query, QueryOptions(method=method, mode="joint"))
    assert indexed.cardinality == joint.cardinality
    for result in (indexed, joint):
        assert result.keywords <= set(query.keywords)
        assert len(result.keywords) <= query.ws
        assert result.brstknn == won_users(
            engine.dataset, query, result.location, result.keywords
        )
    assert indexed.stats.users_total == len(engine.dataset.users)
    assert 0 <= indexed.stats.users_pruned <= indexed.stats.users_total


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("method", ["approx", "exact"])
def test_section7_wins_as_many_users_as_joint(seed, measure, method):
    engine, query = build_case(seed, measure=measure)
    assert_section7_like_joint(engine, query, method)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("measure", ["LM", "TF"])
def test_section7_resolves_late_users_like_joint(seed, measure):
    """Scattered users and many locations: most users are first resolved
    at a late location, and some subtrees are pruned whole — the search
    must still win what the joint query wins."""
    rng = random.Random(1000 + seed)
    objects = make_random_objects(80, 16, rng, space=40.0)
    users = make_random_users(30, 16, rng, space=40.0)
    dataset = Dataset(objects, users, relevance=measure, alpha=0.9)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(20, 20), terms={0: 1}),
        locations=[Point(rng.uniform(0, 40), rng.uniform(0, 40)) for _ in range(8)],
        keywords=sorted(rng.sample(range(16), 6)),
        ws=2,
        k=3,
    )
    for method in ("approx", "exact"):
        assert_section7_like_joint(engine, query, method)
