"""Randomized property tests for the bound estimations in ``core/bounds.py``.

Two families the pruning correctness of the whole system rests on:

* **UBL soundness (Lemma 3).**  ``UBL(l, u)`` / ``UBL(l, us)`` must
  upper-bound the exact STS of the query object at ``l`` under *every*
  admissible keyword augmentation (any ``W' ⊆ W`` with ``|W'| <= ws``),
  for every user (in the group).  Violations would make Algorithm 3
  silently drop winning locations/users.
* **MIUR-tree threshold monotonicity (Section 7).**  The node-level
  threshold ``RSk(node)`` computed from the joint traversal's candidate
  pool must satisfy ``RSk(node) <= RSk(u)`` for every user in the
  node's subtree — that inequality is exactly what licenses pruning a
  subtree when ``UBL(l, node) < RSk(node)``.
"""

import random
from itertools import combinations

import pytest

from repro import Dataset
from repro.core.bounds import BoundCalculator, augmented_document
from repro.core.joint_topk import individual_topk, joint_traversal
from repro.index.irtree import MIRTree
from repro.index.miurtree import MIURTree
from repro.model.objects import STObject, SuperUser
from repro.oracle import _node_rsk, canonical_candidates
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users

#: Slack for float comparisons: bounds must hold up to rounding noise.
EPS = 1e-9


def build(seed, measure="LM", alpha=0.5, vocab=15, n_obj=50, n_users=12):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    return Dataset(objects, users, relevance=measure, alpha=alpha), rng, vocab


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("ws", [0, 1, 2])
def test_ubl_user_dominates_every_augmentation(measure, seed, ws):
    """``UBL(l, u)`` >= exact STS for every ``W' ⊆ W, |W'| <= ws``."""
    ds, rng, vocab = build(seed, measure=measure)
    bounds = BoundCalculator(ds)
    ox = STObject(
        item_id=-1,
        location=Point(5, 5),
        terms={t: 1 for t in rng.sample(range(vocab), 2)},
    )
    candidates = sorted(rng.sample(range(vocab), 5))
    for _ in range(3):
        loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
        for u in ds.users:
            ubl = bounds.location_upper_user(loc, ox, candidates, ws, u)
            for size in range(ws + 1):
                for combo in combinations(candidates, size):
                    doc = augmented_document(ox.terms, combo)
                    exact = ds.sts_parts(loc, doc, u)
                    assert exact <= ubl + EPS, (
                        u.item_id, combo, exact, ubl,
                    )


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("seed", range(3))
def test_ubl_group_dominates_every_member(measure, seed):
    """``UBL(l, us)`` >= exact augmented STS of every grouped user."""
    ds, rng, vocab = build(seed, measure=measure)
    bounds = BoundCalculator(ds)
    su = ds.super_user
    ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 2, 1: 1})
    candidates = sorted(rng.sample(range(vocab), 4))
    ws = 2
    for _ in range(4):
        loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
        ub_group = bounds.location_upper_group(loc, ox, candidates, ws, su)
        for u in ds.users:
            for size in range(ws + 1):
                for combo in combinations(candidates, size):
                    doc = augmented_document(ox.terms, combo)
                    exact = ds.sts_parts(loc, doc, u)
                    assert exact <= ub_group + EPS
            # The group bound subsumes each member's bound: union terms
            # with the smallest normalizer can only score higher.
            assert (
                bounds.location_upper_user(loc, ox, candidates, ws, u)
                <= ub_group + EPS
            )


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("seed", range(3))
def test_lbl_group_is_a_true_lower_bound(measure, seed):
    """``LBL(l, us)`` <= exact un-augmented STS of every grouped user."""
    ds, rng, _ = build(seed, measure=measure)
    bounds = BoundCalculator(ds)
    su = ds.super_user
    ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 1, 3: 1})
    for _ in range(4):
        loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
        lb_group = bounds.location_lower_group(loc, ox, su)
        for u in ds.users:
            exact = ds.sts_parts(loc, ox.terms, u)
            assert lb_group <= exact + EPS


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 3, 6])
def test_miur_node_rsk_below_every_member_rsk(measure, seed, k):
    """``RSk(node) <= RSk(u)`` for every user in the node's subtree,
    for every node of a randomized MIUR-tree."""
    ds, rng, _ = build(seed, measure=measure, n_obj=60, n_users=20)
    object_tree = MIRTree(ds.objects, ds.relevance, fanout=4)
    user_tree = MIURTree(ds.users, ds.relevance, fanout=3)
    bounds = BoundCalculator(ds)

    root = user_tree.root
    traversal = joint_traversal(object_tree, ds, k, super_user=root.summary)
    exact_rsk = {
        uid: res.kth_score
        for uid, res in individual_topk(traversal, ds, k).items()
    }
    # The canonical per-k candidate set the search actually prunes on
    # (pool-size independent; a subset of the pool, so the resulting
    # threshold can only be smaller — the inequality must still hold).
    canonical = canonical_candidates(traversal, traversal.rsk_group)

    # Walk the whole tree; every node summary is a super-user.
    stack = [root]
    nodes_checked = 0
    while stack:
        view = stack.pop()
        node_threshold = _node_rsk(canonical, bounds, view.summary, k)
        for uid in _subtree_user_ids(user_tree, view):
            assert node_threshold <= exact_rsk[uid] + EPS, (
                view.page_id, uid, node_threshold, exact_rsk[uid],
            )
        children, _users = user_tree.read_children(view)
        stack.extend(children)
        nodes_checked += 1
    assert nodes_checked >= 1


def _subtree_user_ids(user_tree, view):
    ids = []
    stack = [view]
    while stack:
        v = stack.pop()
        children, leaf_users = user_tree.read_children(v)
        ids.extend(u.item_id for u in leaf_users)
        stack.extend(children)
    return ids


@pytest.mark.parametrize("seed", range(3))
def test_miur_summaries_are_valid_super_users(seed):
    """Every MIUR node summary must dominate/subsume its subtree the
    way ``SuperUser.from_users`` over the subtree's users would."""
    ds, _, _ = build(seed, n_users=20)
    user_tree = MIURTree(ds.users, ds.relevance, fanout=3)
    stack = [user_tree.root]
    while stack:
        view = stack.pop()
        members = [ds.user_by_id(uid) for uid in _subtree_user_ids(user_tree, view)]
        direct = SuperUser.from_users(members, ds.relevance)
        assert view.summary.union_terms == direct.union_terms
        assert view.summary.intersection_terms == direct.intersection_terms
        assert view.summary.count == direct.count
        assert view.summary.min_normalizer <= direct.min_normalizer + EPS
        assert direct.max_normalizer <= view.summary.max_normalizer + EPS
        for u in members:
            assert view.summary.mbr.contains_point(u.location)
        children, _ = user_tree.read_children(view)
        stack.extend(children)
