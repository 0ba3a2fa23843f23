"""Vectorized ``RSk(node)``: bitwise identity with the oracle's scalar
``_node_rsk`` — plus the pool-independence property that unlocks
cross-k sharing."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, oracle
from repro.core.bounds import BoundCalculator
from repro.core.indexed_users import compute_root_traversal
from repro.core.joint_topk import canonical_candidates, derive_rsk_group, joint_traversal
from repro.core.kernels import CandidatePoolArrays
from repro.oracle import _node_rsk

from ..conftest import make_random_objects, make_random_users


def walk_summaries(user_tree):
    """Every node summary of the MIUR-tree (root to leaves)."""
    stack = [user_tree.root]
    while stack:
        node = stack.pop()
        yield node.summary
        children, _ = user_tree.read_children(node, None)
        stack.extend(children)


def build_engine(seed):
    rng = random.Random(seed)
    measure = ["LM", "TF", "KO"][seed % 3]
    dataset = Dataset(
        make_random_objects(50 + 10 * (seed % 3), 18, rng),
        make_random_users(18 + seed, 18, rng),
        relevance=measure,
        alpha=0.3 + 0.2 * (seed % 3),
    )
    return dataset, MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))


@pytest.mark.parametrize("walk", [oracle.joint_traversal, joint_traversal],
                         ids=["oracle-walk", "engine-walk"])
@pytest.mark.parametrize("seed", range(8))
def test_node_rsk_bitwise_identical_on_random_trees(seed, walk):
    """A pool off either walk: the kernel gathers the candidates'
    documents from the object columns by id; the scalar loop reads the
    weight dicts (the engine's pool builds them, restricted to the walk's
    union)."""
    dataset, engine = build_engine(seed)
    bounds = BoundCalculator(dataset)
    for k in (1, 2, 5, 9):
        traversal = walk(
            engine.object_tree, dataset, k,
            super_user=engine.user_tree.root.summary, store=engine.store,
        )
        canonical = canonical_candidates(traversal, traversal.rsk_group)
        arrays = CandidatePoolArrays(dataset, canonical)
        checked = 0
        for summary in walk_summaries(engine.user_tree):
            scalar = _node_rsk(canonical, bounds, summary, k)
            vectorized = arrays.node_rsk(summary, k)
            assert scalar == vectorized  # bitwise, not approx
            checked += 1
        assert checked >= 1


@pytest.mark.parametrize("seed", range(6))
def test_node_rsk_pool_independent_under_kmax_walk(seed):
    """The PR 5 keystone: ``RSk(node)`` derived from a shared ``k_max``
    walk is bitwise-equal to the dedicated ``k``-walk's value, for every
    node and every smaller k — so indexed cross-k sharing (and sharded
    indexed execution) cannot change a single pruning decision."""
    dataset, engine = build_engine(seed)
    bounds = BoundCalculator(dataset)
    k_max = 7
    shared = compute_root_traversal(
        engine.object_tree, engine.user_tree, dataset, k_max, store=engine.store
    )
    for k in (1, 2, 4, k_max):
        dedicated = compute_root_traversal(
            engine.object_tree, engine.user_tree, dataset, k, store=engine.store
        )
        # Group threshold derives identically...
        assert shared.rsk_group_for(k) == dedicated.traversal.rsk_group
        # ...and the canonical candidate sets are the same objects with
        # the same bounds, in the same total order.
        shared_pool = shared.canonical_for(k)
        dedicated_pool = canonical_candidates(
            dedicated.traversal, dedicated.traversal.rsk_group
        )
        assert [c.obj.item_id for c in shared_pool] == [
            c.obj.item_id for c in dedicated_pool
        ]
        assert [c.lower for c in shared_pool] == [c.lower for c in dedicated_pool]
        checked = 0
        for summary in walk_summaries(engine.user_tree):
            assert _node_rsk(shared_pool, bounds, summary, k) == _node_rsk(
                dedicated_pool, bounds, summary, k
            )
            checked += 1
        assert checked >= 1


@pytest.mark.parametrize("seed", range(4))
def test_derive_rsk_group_matches_dedicated_walks(seed):
    dataset, engine = build_engine(seed)
    k_max = 8
    shared = compute_root_traversal(
        engine.object_tree, engine.user_tree, dataset, k_max, store=engine.store
    )
    for k in range(1, k_max + 1):
        dedicated = compute_root_traversal(
            engine.object_tree, engine.user_tree, dataset, k, store=engine.store
        )
        assert (
            derive_rsk_group(shared.traversal, k_max, k)
            == dedicated.traversal.rsk_group
        )


def test_empty_pool_returns_zero():
    rng = random.Random(1)
    dataset = Dataset(
        make_random_objects(20, 10, rng),
        make_random_users(6, 10, rng),
        relevance="LM",
    )
    from repro.core.joint_topk import CandidatePool

    arrays = CandidatePoolArrays(dataset, CandidatePool([]))
    assert arrays.node_rsk(dataset.super_user, 1) == 0.0


def test_pool_smaller_than_k_matches_scalar():
    rng = random.Random(2)
    dataset = Dataset(
        make_random_objects(25, 10, rng),
        make_random_users(8, 10, rng),
        relevance="LM",
    )
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4, index_users=True))
    shared = compute_root_traversal(
        engine.object_tree, engine.user_tree, dataset, 2, store=engine.store
    )
    canonical = shared.canonical_for(2)
    arrays = CandidatePoolArrays(dataset, canonical)
    big_k = len(canonical) + 1
    bounds = BoundCalculator(dataset)
    assert _node_rsk(canonical, bounds, dataset.super_user, big_k) == 0.0
    assert arrays.node_rsk(dataset.super_user, big_k) == 0.0
