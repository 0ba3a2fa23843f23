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
  stats for every mode and method, on every engine shape — a plain
  engine or a ``ShardedEngine`` with inline or forked lanes.
"""

import contextlib
import dataclasses
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery, oracle
from repro.core import kernels
from repro.core.config import QueryOptions
from repro.core.kernels import arrays_for
from repro.index.miurtree import MIURTree
from repro.model.objects import STObject, User
from repro.serve import ShardedEngine
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


HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def build_case(seed, vocab=16, alpha=0.5, k=4, n_obj=60, n_users=12, measure="LM",
               metric=EUCLIDEAN, plant=False, lanes=None):
    """A random dataset's engine and query.  ``lanes=None`` builds a
    plain engine, ``lanes=N`` a ``ShardedEngine`` with N inline lanes."""
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    if plant:
        objects, users = plant_degenerate(objects, users, rng)
    dataset = Dataset(objects, users, relevance=measure, alpha=alpha, metric=metric)
    if lanes is None:
        engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    else:
        engine = ShardedEngine(dataset, EngineConfig(fanout=4, num_shards=lanes))
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


def twin_of(engine):
    """A plain one-range engine over ``engine``'s dataset and tree, for
    the oracle to run on."""
    return MaxBRSTkNNEngine(
        engine.dataset, engine.config.with_(num_shards=1), object_tree=engine.object_tree
    )


def assert_same_cold_answer(engine, query, options):
    """``engine.query`` equals ``oracle.query`` on a twin engine: the
    answer, every non-time stat, and the I/O each charged its engine."""
    twin = twin_of(engine)
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


def keyword_sides(query, n):
    """``query`` and ``n - 1`` queries of other keyword sides: their own
    ``ox.d``, a shorter ``W`` and ``ws`` from 1 to 3."""
    return [query] + [
        dataclasses.replace(
            query, ox=STObject(item_id=-1, location=query.ox.location, terms={i: 1 + i % 2}),
            keywords=query.keywords[i:], ws=1 + i % 3,
        )
        for i in range(1, n)
    ]


@contextlib.contextmanager
def sides_bounded_at(bound, arrays):
    """``kernels.SIDES_MAX`` at ``bound`` while inside, and every side
    lookup on ``arrays`` checked to leave at most ``bound`` stored."""
    saved = kernels.SIDES_MAX
    kernels.SIDES_MAX = bound
    lookup = arrays.side

    def side(*args):
        found = lookup(*args)
        assert len(arrays._sides) <= bound
        return found

    arrays.side = side
    try:
        yield
    finally:
        kernels.SIDES_MAX = saved
        del arrays.side


@pytest.mark.parametrize("mode,method", MODE_METHODS)
@given(
    seed=st.one_of(st.integers(0, 7), st.just(42), st.integers(0, 10_000)),
    measure=st.sampled_from(["LM", "TF", "KO"]),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    metric=st.sampled_from([EUCLIDEAN, MANHATTAN, CHEBYSHEV]),
    k=st.integers(1, 8),
    plant=st.booleans(),
    other_ks=st.lists(st.integers(1, 8), min_size=1, max_size=3),
    lanes=st.sampled_from([None, 1, 2, 4]),
    sides=st.integers(1, 3),
    bump=st.booleans(),
    bound=st.sampled_from([1, 2, kernels.SIDES_MAX]),
)
@settings(max_examples=20, deadline=None)
def test_engine_identical_to_oracle_drawn(
    mode, method, seed, measure, alpha, metric, k, plant, other_ks, lanes,
    sides, bump, bound,
):
    """The oracle contract, drawn for each (mode, method) and engine
    shape (a plain engine, or a ``ShardedEngine`` with 1, 2 or 4 inline
    lanes): a cold ``engine.query`` is ``oracle.query`` — answer, every
    non-time stat and the I/O trace — and each answer of a mixed-k
    ``query_batch`` on the same engine is the per-query oracle's (answer
    and selection counters; a batch's top-k stats describe its one
    shared walk).  A ``ShardedEngine`` refuses the baseline, whatever
    its lane count, so a baseline draw with lanes also holds a plain
    engine with that many ranges, which runs it inline, to the oracle.
    Keyword-less users and duplicate points are planted on half the
    draws.  Every cell of the two fixed tables above is drawable.

    The batch mixes 1 to 3 keyword sides and runs twice: the second
    flush selects over the sides the first one stored in the dataset's
    side map (while the map holds them all, a joint flush hits it and
    misses none) — or, after an epoch bump, must miss and store sides of
    the new epoch only.  The map, bounded at 1, 2 or ``SIDES_MAX``
    sides, never holds more."""
    engine, query = build_case(
        seed, alpha=alpha, k=k, measure=measure, metric=metric, plant=plant,
        lanes=lanes,
    )
    options = QueryOptions(method=method, mode=mode)
    batch = keyword_sides(query, sides) + [
        dataclasses.replace(query, k=kk) for kk in other_ks
    ]
    if lanes is not None and mode == "baseline":
        with pytest.raises(ValueError, match="joint"):
            engine.query(query, options)
        with pytest.raises(ValueError, match="joint"):
            engine.query_batch(batch, options)
        engine = MaxBRSTkNNEngine(
            engine.dataset, engine.config, object_tree=engine.object_tree
        )
    arrays = arrays_for(engine.dataset)
    with sides_bounded_at(bound, arrays):
        assert_same_batch_answers(engine, batch, options)
        first = arrays.side_stats()
        if bump:
            engine.dataset.bump_epoch()
        assert_same_flush_answers(engine, batch, options)
        second = arrays.side_stats()
    if mode != "joint":
        return  # the baseline selects without Algorithm 3's kernels
    if bump:
        assert second["misses"] > first["misses"]
        assert {key[0] for key in arrays._sides} == {engine.dataset.epoch}
    elif bound == kernels.SIDES_MAX:
        assert second["hits"] > first["hits"]
        assert second["misses"] == first["misses"]


def assert_same_flush_answers(engine, batch, options):
    """``query_batch(batch)`` on ``engine``, each answer and selection
    counter equal to the per-query oracle's."""
    twin = twin_of(engine)
    for got, q in zip(engine.query_batch(batch, options), batch):
        want = oracle.query(twin, q, options)
        assert (got.location, got.keywords, got.brstknn) == (
            want.location, want.keywords, want.brstknn,
        )
        for field in BATCH_STAT_FIELDS:
            assert getattr(got.stats, field) == getattr(want.stats, field), field


def assert_same_batch_answers(engine, batch, options):
    """A cold ``engine.query`` of ``batch[0]``, then ``query_batch(batch)``
    on the same engine, each equal to the oracle's."""
    assert_same_cold_answer(engine, batch[0], options)
    assert_same_flush_answers(engine, batch, options)


@pytest.mark.skipif(not HAS_FORK, reason="forked shard hosts need fork")
@pytest.mark.parametrize("seed", [3, 42])
@pytest.mark.parametrize("method", ["approx", "exact"])
def test_forked_fleet_identical_to_oracle(seed, method):
    """The same equality over a 2-lane fleet of forked shard hosts: the
    cold query's refine and the batch's refine and select rounds cross
    the socketpairs."""
    engine, query = build_case(seed, plant=True, lanes=2)
    batch = [query] + [dataclasses.replace(query, k=kk) for kk in (2, 7, 2)]
    with engine.start_pools():
        assert_same_batch_answers(engine, batch, QueryOptions(method=method))
        assert engine.last_flush_report.stage("select").scatter_width == 2


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


@pytest.mark.parametrize("lanes", [1, 2])
def test_sharded_query_after_a_warm_batch_is_still_cold(lanes):
    """The same on a ``ShardedEngine``: its ``query`` is the engine's
    cold batch of one, not a read of the flush memo."""
    engine, query = build_case(3, k=2, lanes=lanes)
    options = QueryOptions(mode="joint")
    engine.query_batch([dataclasses.replace(query, k=8)], options)
    caps = engine.capabilities()
    assert caps.traversal_pool_k == 8
    runs = engine.traversal_runs
    assert_same_cold_answer(engine, query, options)
    assert engine.traversal_runs == runs + 1
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
