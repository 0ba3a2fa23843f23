"""Property tests for the bound estimations (Lemmas 2 and 3).

These are the load-bearing correctness tests of the whole system: every
pruning decision in the joint top-k and in candidate selection relies
on these inequalities holding for *every* user, node and candidate.
"""

import random

import pytest

from repro import Dataset
from repro.core.bounds import (
    BoundCalculator,
    augmented_document,
    best_augmentation_weights,
    candidate_term_weight,
)
from repro.index.irtree import MIRTree
from repro.model.objects import STObject
from repro.spatial.geometry import Point, Rect

from ..conftest import make_random_objects, make_random_users


def build_world(seed, measure="LM", alpha=0.5, n_obj=80, n_users=15, vocab=18):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance=measure, alpha=alpha)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    return ds, tree


def subtree_objects(tree, node):
    if node.is_leaf:
        return [tree.object_by_id(e.item) for e in node.entries]
    return [o for c in node.children for o in subtree_objects(tree, c)]


class TestLemma2NodeBounds:
    """For every node E, user u, object o under E: LB <= STS(o,u) <= UB."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_bounds_bracket_scores(self, seed, measure, alpha):
        ds, tree = build_world(seed, measure, alpha)
        su = ds.super_user
        bounds = BoundCalculator(ds)
        for node in tree.rtree.iter_nodes():
            max_w, min_w = tree.subtree_summary(node)
            weights = {
                t: (max_w[t], min_w.get(t, 0.0)) for t in max_w
            }
            ub = bounds.node_upper(node.rect, weights, su)
            lb = bounds.node_lower(node.rect, weights, su)
            assert lb <= ub + 1e-9
            for obj in subtree_objects(tree, node):
                for user in ds.users:
                    sts = ds.sts(obj, user)
                    assert sts <= ub + 1e-9, (
                        f"UB violated: node {node.page_id}, obj {obj.item_id}, "
                        f"user {user.item_id}: {sts} > {ub}"
                    )
                    assert sts >= lb - 1e-9, (
                        f"LB violated: node {node.page_id}, obj {obj.item_id}, "
                        f"user {user.item_id}: {sts} < {lb}"
                    )

    def test_object_level_bounds_tight_spatially(self):
        """For a single user group, object bounds collapse to the score."""
        rng = random.Random(77)
        objects = make_random_objects(20, 8, rng)
        users = make_random_users(1, 8, rng)
        ds = Dataset(objects, users, relevance="LM", alpha=1.0)  # spatial only
        bounds = BoundCalculator(ds)
        su = ds.super_user
        for o in objects:
            rect = Rect.from_point(o.location)
            ub = bounds.node_upper(rect, {}, su)
            lb = bounds.node_lower(rect, {}, su)
            sts = ds.sts(o, users[0])
            assert ub == pytest.approx(sts, abs=1e-9)
            assert lb == pytest.approx(sts, abs=1e-9)


class TestNormalizationFix:
    """The deviation explained in ``repro.core.bounds``' module docstring:
    paper-style group normalization can break Lemma 2; min/max
    normalizers restore it."""

    def test_single_keyword_user_reaches_one(self):
        # User A has one rare keyword 5; object O5 is the only doc with
        # it, so TS(O5, A) = 1. A second user broadens the union.
        objs = [
            STObject(0, Point(0, 0), {5: 1}),
            STObject(1, Point(1, 1), {1: 1, 2: 1}),
        ]
        from repro.model.objects import User

        users = [
            User(10, Point(0, 0), {5: 1}),
            User(11, Point(1, 1), {1: 1, 2: 1}),
        ]
        ds = Dataset(objs, users, relevance="LM", alpha=0.0)  # text only
        bounds = BoundCalculator(ds)
        su = ds.super_user
        weights = {
            t: (w, w) for t, w in ds.relevance.document_weights(objs[0].terms).items()
        }
        ub = bounds.node_upper(Rect.from_point(objs[0].location), weights, su)
        sts = ds.sts(objs[0], users[0])
        assert sts == pytest.approx(1.0)
        assert ub >= sts - 1e-9  # the fix: would fail with Z(us.dUni)


class TestLemma3LocationBounds:
    """UBL/LBL bracket the STS of any augmented placement."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
    def test_location_bounds(self, seed, measure):
        ds, _ = build_world(seed, measure)
        bounds = BoundCalculator(ds)
        su = ds.super_user
        rng = random.Random(seed + 100)
        candidates = rng.sample(range(18), 6)
        ws = 2
        ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 1})
        loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
        ub_group = bounds.location_upper_group(loc, ox, candidates, ws, su)
        text = bounds.group_upper_text(ox, candidates, ws, su)  # once per query
        assert bounds.location_upper_group(loc, ox, candidates, ws, su, text=text) == ub_group
        lb_group = bounds.location_lower_group(loc, ox, su)
        from itertools import combinations

        for combo in list(combinations(candidates, ws)) + [()]:
            doc = augmented_document(ox.terms, combo)
            for user in ds.users:
                sts = ds.sts_parts(loc, doc, user)
                assert sts <= ub_group + 1e-9
                ub_user = bounds.location_upper_user(loc, ox, candidates, ws, user)
                assert sts <= ub_user + 1e-9
            # Lower bound only guarantees the *un-augmented* score.
            if combo == ():
                for user in ds.users:
                    assert ds.sts_parts(loc, ox.terms, user) >= lb_group - 1e-9


class TestAugmentationHelpers:
    def test_augmented_document_adds_one_occurrence(self):
        doc = augmented_document({1: 2}, [1, 3])
        assert doc == {1: 3, 3: 1}

    def test_augmented_document_does_not_mutate(self):
        base = {1: 1}
        augmented_document(base, [2])
        assert base == {1: 1}

    def test_candidate_term_weight_positive_for_known_terms(self, tiny_dataset):
        rel = tiny_dataset.relevance
        w = candidate_term_weight(rel, {}, 0)
        assert w > 0.0

    def test_best_augmentation_respects_ws(self, tiny_dataset):
        rel = tiny_dataset.relevance
        group = frozenset(range(10))
        w1 = best_augmentation_weights(rel, {}, range(10), group, 1)
        w3 = best_augmentation_weights(rel, {}, range(10), group, 3)
        assert 0.0 < w1 <= w3

    def test_best_augmentation_zero_cases(self, tiny_dataset):
        rel = tiny_dataset.relevance
        assert best_augmentation_weights(rel, {}, [], frozenset({1}), 2) == 0.0
        assert best_augmentation_weights(rel, {}, [1], frozenset(), 2) == 0.0
        assert best_augmentation_weights(rel, {}, [1], frozenset({1}), 0) == 0.0
        # keyword already in the base document is not "addable"
        assert best_augmentation_weights(rel, {1: 1}, [1], frozenset({1}), 2) == 0.0
