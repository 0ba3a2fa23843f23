"""Tests for the MIUR-tree over users (Section 7's index)."""

import random

import pytest

from repro.index.miurtree import MIURTree
from repro.storage.iostats import IOCounter
from repro.storage.pager import PageStore
from repro.text.relevance import make_relevance

from ..conftest import make_random_objects, make_random_users


@pytest.fixture(
    scope="module",
    params=[(m, f) for m in ("LM", "TF", "KO") for f in (4, 8)],
    ids=lambda p: f"{p[0]}-fanout{p[1]}",
)
def built(request):
    """Each measure (their user normalizers differ) at the unit-test
    fanout and at Fig. 15's."""
    measure, fanout = request.param
    rng = random.Random(123)
    objects = make_random_objects(40, 15, rng)
    users = make_random_users(60, 15, rng)
    rel = make_relevance(measure).fit([o.terms for o in objects])
    tree = MIURTree(users, rel, fanout=fanout)
    return users, rel, tree


class TestConstruction:
    def test_invariants(self, built):
        _, _, tree = built
        tree.check_invariants()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MIURTree([], make_relevance("LM"))

    def test_duplicate_user_ids_rejected(self):
        rng = random.Random(1)
        objects = make_random_objects(5, 10, rng)
        users = make_random_users(4, 10, rng)
        users[2].item_id = users[0].item_id
        rel = make_relevance("LM").fit([o.terms for o in objects])
        with pytest.raises(ValueError):
            MIURTree(users, rel)

    def test_root_count_is_total_users(self, built):
        users, _, tree = built
        assert tree.root.user_count == len(users)


class TestRootEqualsSuperUser:
    def test_root_summary_matches_flat_super_user(self, built):
        """Section 7: the MIUR-tree root is exactly the super-user."""
        users, rel, tree = built
        from repro.model.objects import SuperUser

        flat = SuperUser.from_users(users, rel)
        root = tree.root.summary
        assert root.union_terms == flat.union_terms
        assert root.intersection_terms == flat.intersection_terms
        assert root.count == flat.count
        assert root.min_normalizer == pytest.approx(flat.min_normalizer)
        assert root.max_normalizer == pytest.approx(flat.max_normalizer)
        assert root.mbr == flat.mbr


class TestNodeSummaries:
    def test_every_node_summarizes_its_users(self, built):
        users, rel, tree = built
        by_id = {u.item_id: u for u in users}

        def collect(node):
            if node.is_leaf:
                return [by_id[e.item] for e in node.entries]
            return [u for c in node.children for u in collect(c)]

        for node in tree.rtree.iter_nodes():
            group = collect(node)
            summary = tree.summary_of(node)
            union = set()
            inter = None
            for u in group:
                union |= u.keyword_set
                inter = set(u.keyword_set) if inter is None else inter & u.keyword_set
            assert summary.union_terms == frozenset(union)
            assert summary.intersection_terms == frozenset(inter or set())
            assert summary.count == len(group)
            zs = [rel.user_normalizer(u.keyword_set) for u in group]
            assert summary.min_normalizer == pytest.approx(min(zs))
            assert summary.max_normalizer == pytest.approx(max(zs))


    def test_min_normalizer_skips_users_without_one(self):
        """A ``Z(u.d) = 0`` user (no keyword) has ``TS = 0`` whatever the
        document: every node's upper-bound divisor is the smallest
        *positive* normalizer below it, 0 only when there is none."""
        rng = random.Random(7)
        objects = make_random_objects(40, 15, rng)
        users = make_random_users(30, 15, rng)
        for u in users[::3]:
            u.terms.clear()
        rel = make_relevance("LM").fit([o.terms for o in objects])
        tree = MIURTree(users, rel, fanout=4)
        by_id = {u.item_id: u for u in users}

        def collect(node):
            if node.is_leaf:
                return [by_id[e.item] for e in node.entries]
            return [u for c in node.children for u in collect(c)]

        for node in tree.rtree.iter_nodes():
            zs = [rel.user_normalizer(u.keyword_set) for u in collect(node)]
            positive = [z for z in zs if z > 0.0]
            assert tree.summary_of(node).min_normalizer == (
                pytest.approx(min(positive)) if positive else 0.0
            )
            assert tree.summary_of(node).max_normalizer == pytest.approx(max(zs))


class TestReadChildren:
    def test_internal_read(self, built):
        _, _, tree = built
        root = tree.root
        if root.is_leaf:
            pytest.skip("tree too small")
        views, leaf_users = tree.read_children(root)
        assert leaf_users == []
        assert sum(v.user_count for v in views) == root.user_count

    def test_leaf_read_returns_users(self, built):
        users, _, tree = built
        view = tree.root
        while not view.is_leaf:
            view = tree.read_children(view)[0][0]
        _, leaf_users = tree.read_children(view)
        assert leaf_users
        assert all(u.item_id in {x.item_id for x in users} for u in leaf_users)

    def test_io_charged(self, built):
        _, _, tree = built
        counter = IOCounter()
        store = PageStore(counter=counter)
        tree.read_children(tree.root, store)
        assert counter.node_visits == 1
