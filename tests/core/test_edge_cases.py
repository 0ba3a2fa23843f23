"""Failure-injection and degenerate-input tests across the core pipeline."""

import random

import pytest

from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.core.joint_topk import joint_topk
from repro.index.irtree import MIRTree
from repro.model.objects import STObject, User
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users, section4, section7


class TestDegenerateGeometry:
    def test_all_items_at_one_point(self):
        """Co-located everything: pure text ranking, no crashes."""
        objects = [STObject(i, Point(1, 1), {i % 3: 1}) for i in range(20)]
        users = [User(i, Point(1, 1), {0: 1}) for i in range(4)]
        ds = Dataset(objects, users, relevance="LM", alpha=0.5)
        tree = MIRTree(objects, ds.relevance, fanout=4)
        results = joint_topk(tree, ds, 3)
        for u in users:
            gold = sorted((ds.sts(o, u) for o in objects), reverse=True)[2]
            assert results[u.item_id].kth_score == pytest.approx(gold, abs=1e-9)

    def test_collinear_points(self):
        objects = [STObject(i, Point(float(i), 0.0), {0: 1}) for i in range(30)]
        users = [User(0, Point(15.0, 0.0), {0: 1})]
        ds = Dataset(objects, users, relevance="KO", alpha=1.0)
        tree = MIRTree(objects, ds.relevance, fanout=4)
        results = joint_topk(tree, ds, 5)
        # nearest 5 objects to x=15 win
        got = set(results[0].object_ids())
        assert got == {13, 14, 15, 16, 17}


class TestDegenerateText:
    def test_objects_without_keywords_rejected_gracefully(self):
        """Empty documents are legal objects (spatial-only relevance)."""
        objects = [STObject(0, Point(0, 0), {}), STObject(1, Point(1, 1), {0: 1})]
        users = [User(0, Point(0, 0), {0: 1})]
        ds = Dataset(objects, users, relevance="LM", alpha=0.5)
        tree = MIRTree(objects, ds.relevance, fanout=4)
        results = joint_topk(tree, ds, 2)
        assert len(results[0].ranked) == 2

    def test_user_without_keywords(self):
        rng = random.Random(1)
        objects = make_random_objects(20, 5, rng)
        users = [User(0, Point(5, 5), {})]
        ds = Dataset(objects, users, relevance="LM", alpha=0.5)
        tree = MIRTree(objects, ds.relevance, fanout=4)
        results = joint_topk(tree, ds, 3)
        gold = sorted((ds.sts(o, users[0]) for o in objects), reverse=True)[2]
        assert results[0].kth_score == pytest.approx(gold, abs=1e-9)

    def test_query_with_empty_candidate_keywords(self):
        rng = random.Random(2)
        objects = make_random_objects(30, 5, rng)
        users = make_random_users(5, 5, rng)
        ds = Dataset(objects, users)
        engine = MaxBRSTkNNEngine(ds)
        q = MaxBRSTkNNQuery(
            ox=STObject(-1, Point(5, 5), {0: 1}),
            locations=[Point(5, 5)],
            keywords=[],
            ws=0,
            k=3,
        )
        res = engine.query(q, QueryOptions(method="exact"))
        assert res.keywords == frozenset()
        assert res.location == q.locations[0]

    def test_candidate_keywords_unknown_to_collection(self):
        """Candidates no document contains still work (they weigh > 0
        in the augmented query document, which is scored directly)."""
        rng = random.Random(3)
        objects = make_random_objects(30, 5, rng)
        users = [User(0, Point(5, 5), {777: 1})]
        ds = Dataset(objects, users)
        engine = MaxBRSTkNNEngine(ds)
        q = MaxBRSTkNNQuery(
            ox=STObject(-1, Point(5, 5), {}),
            locations=[Point(5, 5)],
            keywords=[777],
            ws=1,
            k=3,
        )
        res = engine.query(q, QueryOptions(method="exact"))
        assert res.cardinality >= 0  # must not crash; winning is possible


class TestSingleEntityWorlds:
    def test_single_object_single_user(self):
        objects = [STObject(0, Point(0, 0), {0: 1})]
        users = [User(0, Point(1, 1), {0: 1})]
        ds = Dataset(objects, users)
        engine = MaxBRSTkNNEngine(ds)
        q = MaxBRSTkNNQuery(
            ox=STObject(-1, Point(0.5, 0.5), {}),
            locations=[Point(0.5, 0.5)],
            keywords=[0],
            ws=1,
            k=1,
        )
        results = [
            engine.query(q, QueryOptions(method="exact")),
            section4(engine, q),
            section7(engine, q, "exact"),
        ]
        # ox matches the user's keyword and is closer than o0? Either
        # way the engine and Sections 4 and 7 must agree.
        cards = {res.cardinality for res in results}
        assert len(cards) == 1 and cards <= {0, 1}

    def test_k_equals_collection_size_everyone_wins(self):
        """With k = |O| every object is in every top-k, so any placement
        sharing a keyword (or any at all, threshold = min score) wins."""
        rng = random.Random(4)
        objects = make_random_objects(10, 5, rng)
        users = make_random_users(6, 5, rng)
        ds = Dataset(objects, users)
        engine = MaxBRSTkNNEngine(ds)
        q = MaxBRSTkNNQuery(
            ox=STObject(-1, Point(5, 5), {}),
            locations=[Point(5, 5)],
            keywords=list(range(5)),
            ws=2,
            k=10,
        )
        res = engine.query(q, QueryOptions(method="exact"))
        base = section4(engine, q)
        assert res.cardinality == base.cardinality
