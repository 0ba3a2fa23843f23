"""Gold-model tests: joint top-k must equal brute-force per-user top-k."""

import random

import pytest

from repro import Dataset, oracle
from repro.core.joint_topk import individual_topk, joint_topk, joint_traversal
from repro.index.irtree import MIRTree
from repro.model.objects import User
from repro.spatial.geometry import Point
from repro.storage.iostats import IOCounter
from repro.storage.pager import PageStore

from ..conftest import make_random_objects, make_random_users


def build(seed, measure="LM", alpha=0.5, n_obj=90, n_users=14, vocab=16):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance=measure, alpha=alpha)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    return ds, tree


def brute_force_kth(ds, user, k):
    scores = sorted((ds.sts(o, user) for o in ds.objects), reverse=True)
    return scores[k - 1] if len(scores) >= k else (scores[-1] if scores else 0.0)


class TestJointEqualsBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
    def test_kth_scores_match(self, seed, measure):
        ds, tree = build(seed, measure)
        k = 5
        results = joint_topk(tree, ds, k)
        for u in ds.users:
            assert results[u.item_id].kth_score == pytest.approx(
                brute_force_kth(ds, u, k), abs=1e-9
            )

    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5, 0.9, 1.0])
    def test_alpha_extremes(self, alpha):
        ds, tree = build(3, alpha=alpha)
        k = 4
        results = joint_topk(tree, ds, k)
        for u in ds.users:
            assert results[u.item_id].kth_score == pytest.approx(
                brute_force_kth(ds, u, k), abs=1e-9
            )

    @pytest.mark.parametrize("k", [1, 2, 7, 20])
    def test_various_k(self, k):
        ds, tree = build(8)
        results = joint_topk(tree, ds, k)
        for u in ds.users:
            assert results[u.item_id].kth_score == pytest.approx(
                brute_force_kth(ds, u, k), abs=1e-9
            )

    def test_k_larger_than_objects(self):
        ds, tree = build(9, n_obj=6)
        results = joint_topk(tree, ds, 50)
        for u in ds.users:
            assert len(results[u.item_id].ranked) == 6

    def test_full_ranking_scores_match(self):
        """Not just the threshold: every returned score is correct."""
        ds, tree = build(12)
        k = 6
        results = joint_topk(tree, ds, k)
        for u in ds.users:
            gold = sorted((ds.sts(o, u) for o in ds.objects), reverse=True)[:k]
            got = [s for s, _ in results[u.item_id].ranked]
            assert got == pytest.approx(gold, abs=1e-9)


    @pytest.mark.parametrize("side", ["oracle", "engine"])
    @pytest.mark.parametrize("seed", range(6))
    def test_a_keywordless_user_does_not_zero_the_group_text_bound(self, seed, side):
        """One ``Z(u.d) = 0`` user used to make ``min_normalizer`` 0, hence
        ``MaxTS(E.d, us) = 0`` for the *whole group*: Algorithm 1 pruned
        objects the other users need (python: a wrong ``RSk(u)`` on 30 of
        30 seeds of this shape, e.g. 0.565 vs 0.922)."""
        rng = random.Random(seed)
        objects = make_random_objects(60, 12, rng)
        users = [
            User(u.item_id, u.location, {t: 1 for t in rng.sample(range(12), 2)})
            for u in make_random_users(6, 12, rng)
        ]
        users.append(User(item_id=99, location=Point(rng.uniform(0, 10), rng.uniform(0, 10))))
        ds = Dataset(objects, users, relevance="LM", alpha=0.3)
        assert ds.super_user.min_normalizer > 0.0
        tree = MIRTree(objects, ds.relevance, fanout=4)
        if side == "engine":
            results = joint_topk(tree, ds, 1)
        else:
            results = oracle.individual_topk(oracle.joint_traversal(tree, ds, 1), ds, 1)
        for u in users:
            assert results[u.item_id].kth_score == brute_force_kth(ds, u, 1)


class TestTraversalMechanics:
    def test_lo_holds_k_objects(self):
        ds, tree = build(21)
        trav = joint_traversal(tree, ds, 5)
        assert len(trav.lo) == 5
        # LO is ordered by descending lower bound.
        lbs = [c.lower for c in trav.lo]
        assert lbs == sorted(lbs, reverse=True)
        assert trav.rsk_group == pytest.approx(min(lbs))

    def test_ro_sorted_by_descending_upper(self):
        ds, tree = build(22)
        trav = joint_traversal(tree, ds, 5)
        ubs = [c.upper for c in trav.ro]
        assert ubs == sorted(ubs, reverse=True)

    def test_ro_members_reach_threshold(self):
        ds, tree = build(23)
        trav = joint_traversal(tree, ds, 5)
        for cand in trav.ro:
            assert cand.upper >= trav.rsk_group - 1e-12

    def test_pools_contain_every_possible_topk_object(self):
        """Completeness: any object in any user's true top-k survives."""
        ds, tree = build(24)
        k = 5
        trav = joint_traversal(tree, ds, k)
        pool_ids = {c.obj.item_id for c in trav.all_candidates()}
        for u in ds.users:
            ranked = sorted(
                ((ds.sts(o, u), o.item_id) for o in ds.objects),
                key=lambda t: (-t[0], t[1]),
            )
            kth = ranked[k - 1][0]
            # every object strictly above the threshold must be present
            for score, oid in ranked[:k]:
                if score > kth:
                    assert oid in pool_ids

    def test_k_zero_returns_empty(self):
        ds, tree = build(25)
        trav = joint_traversal(tree, ds, 0)
        assert trav.lo == [] and trav.ro == []
        results = joint_topk(tree, ds, 0)
        assert all(r.ranked == [] for r in results.values())


class TestIOSharing:
    def test_joint_never_rereads_nodes(self):
        """Each tree node is read at most once by the joint traversal."""
        ds, tree = build(31, n_obj=200)
        counter = IOCounter()
        store = PageStore(counter=counter)
        joint_traversal(tree, ds, 5, store=store)
        assert counter.node_visits <= tree.rtree.node_count()

    def test_joint_cheaper_than_baseline(self):
        from repro.topk.single import topk_all_users_individually

        ds, tree = build(32, n_obj=250, n_users=25)
        c_joint, c_base = IOCounter(), IOCounter()
        joint_topk(tree, ds, 5, store=PageStore(counter=c_joint))
        topk_all_users_individually(tree, ds, 5, store=PageStore(counter=c_base))
        assert c_joint.total < c_base.total


class TestIndividualRefinement:
    def test_subset_of_users(self):
        ds, tree = build(41)
        trav = joint_traversal(tree, ds, 4)
        two = ds.users[:2]
        results = individual_topk(trav, ds, 4, users=two)
        assert set(results) == {u.item_id for u in two}
        for u in two:
            assert results[u.item_id].kth_score == pytest.approx(
                brute_force_kth(ds, u, 4), abs=1e-9
            )
