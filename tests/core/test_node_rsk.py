"""Section 7's ``RSk(node)`` (the oracle's ``_node_rsk``) is a sound
lower bound of every ``RSk(u)`` below the node, whichever walk (the
oracle's or the engine's) keeps the pool, and it is pool-independent:
any walk at ``k_max >= k`` gives the dedicated ``k``-walk's group
threshold, canonical candidates and node bounds, so
:func:`repro.oracle.indexed_search` decides the same over either."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, oracle
from repro.core.bounds import BoundCalculator
from repro.core.joint_topk import (
    CandidatePool, canonical_candidates, derive_rsk_group, joint_traversal,
)
from repro.index.miurtree import MIURTree
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
    """``(dataset, engine, MIUR-tree)`` over a random dataset."""
    rng = random.Random(seed)
    measure = ["LM", "TF", "KO"][seed % 3]
    dataset = Dataset(
        make_random_objects(50 + 10 * (seed % 3), 18, rng),
        make_random_users(18 + seed, 18, rng),
        relevance=measure,
        alpha=0.3 + 0.2 * (seed % 3),
    )
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    return dataset, engine, MIURTree(dataset.users, dataset.relevance, fanout=4)


def root_walk(engine, user_tree, k):
    """Algorithm 1 against the MIUR-tree root summary (Section 7's walk)."""
    return joint_traversal(
        engine.object_tree, engine.dataset, k,
        super_user=user_tree.root.summary, store=engine.store,
    )


def nodes_with_users(user_tree):
    """``(summary, users below)`` for every node of the MIUR-tree."""

    def collect(node):
        if node.is_leaf:
            return [user_tree.user_by_id(e.item) for e in node.entries]
        return [u for c in node.children for u in collect(c)]

    for node in user_tree.rtree.iter_nodes():
        yield user_tree.summary_of(node), collect(node)


def scanned_rsk(dataset, user, k):
    """``RSk(u)`` by one full scan of the objects."""
    scores = sorted((dataset.sts(o, user) for o in dataset.objects), reverse=True)
    return scores[min(k, len(scores)) - 1]


@pytest.mark.parametrize("walk", [oracle.joint_traversal, joint_traversal],
                         ids=["oracle-walk", "engine-walk"])
@pytest.mark.parametrize("seed", range(8))
def test_node_rsk_bounds_every_user_below(seed, walk):
    """``RSk(node) <= RSk(u)`` for every user below every node, at every
    k, over the canonical pool of either walk — the half of the pruning
    test that lets a failed ``UBL(l, node) >= RSk(node)`` drop a subtree
    without losing a winnable user."""
    dataset, engine, user_tree = build_engine(seed)
    bounds = BoundCalculator(dataset)
    positive = 0
    for k in (1, 2, 5, 9):
        traversal = walk(
            engine.object_tree, dataset, k,
            super_user=user_tree.root.summary, store=engine.store,
        )
        canonical = canonical_candidates(traversal, traversal.rsk_group)
        rsk = {u.item_id: scanned_rsk(dataset, u, k) for u in dataset.users}
        for summary, users in nodes_with_users(user_tree):
            value = _node_rsk(canonical, bounds, summary, k)
            assert value <= min(rsk[u.item_id] for u in users)
            positive += value > 0.0
    assert positive  # the bound is not vacuously 0 everywhere


@pytest.mark.parametrize("seed", range(6))
def test_node_rsk_pool_independent_under_kmax_walk(seed):
    """``RSk(node)`` derived from a shared ``k_max`` walk is
    bitwise-equal to the dedicated ``k``-walk's value, for every node
    and every smaller k — so the walk that feeds the search cannot
    change a single pruning decision."""
    dataset, engine, user_tree = build_engine(seed)
    bounds = BoundCalculator(dataset)
    k_max = 7
    shared = root_walk(engine, user_tree, k_max)
    for k in (1, 2, 4, k_max):
        dedicated = root_walk(engine, user_tree, k)
        # Group threshold derives identically...
        group = derive_rsk_group(shared, k_max, k)
        assert group == dedicated.rsk_group
        # ...and the canonical candidate sets are the same objects with
        # the same bounds, in the same total order.
        shared_pool = canonical_candidates(shared, group)
        dedicated_pool = canonical_candidates(dedicated, dedicated.rsk_group)
        assert [c.obj.item_id for c in shared_pool] == [
            c.obj.item_id for c in dedicated_pool
        ]
        assert [c.lower for c in shared_pool] == [c.lower for c in dedicated_pool]
        checked = 0
        for summary in walk_summaries(user_tree):
            assert _node_rsk(shared_pool, bounds, summary, k) == _node_rsk(
                dedicated_pool, bounds, summary, k
            )
            checked += 1
        assert checked >= 1


@pytest.mark.parametrize("seed", range(4))
def test_derive_rsk_group_matches_dedicated_walks(seed):
    dataset, engine, user_tree = build_engine(seed)
    k_max = 8
    shared = root_walk(engine, user_tree, k_max)
    for k in range(1, k_max + 1):
        assert derive_rsk_group(shared, k_max, k) == root_walk(engine, user_tree, k).rsk_group


def test_pool_smaller_than_k_gives_zero():
    rng = random.Random(2)
    dataset = Dataset(
        make_random_objects(25, 10, rng),
        make_random_users(8, 10, rng),
        relevance="LM",
    )
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    walk = joint_traversal(engine.object_tree, dataset, 2, store=engine.store)
    canonical = canonical_candidates(walk, walk.rsk_group)
    big_k = len(canonical) + 1
    bounds = BoundCalculator(dataset)
    assert _node_rsk(canonical, bounds, dataset.super_user, big_k) == 0.0


def test_empty_pool_gives_zero():
    rng = random.Random(1)
    dataset = Dataset(
        make_random_objects(20, 10, rng),
        make_random_users(6, 10, rng),
        relevance="LM",
    )
    bounds = BoundCalculator(dataset)
    assert _node_rsk(CandidatePool([]), bounds, dataset.super_user, 1) == 0.0
