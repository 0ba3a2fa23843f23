"""Tests for the Lp metric extension."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset
from repro.core.config import QueryOptions
from repro.core.joint_topk import joint_topk
from repro.index.irtree import MIRTree
from repro.spatial.geometry import Point, Rect
from repro.spatial.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN, LpMetric

from ..conftest import make_random_objects, make_random_users, section4, section7

coords = st.floats(min_value=-100, max_value=100, allow_nan=False)


def rect_strategy():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: Rect(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


class TestMetricBasics:
    def test_euclidean_matches_point_distance(self):
        a, b = Point(0, 0), Point(3, 4)
        assert EUCLIDEAN.distance(a, b) == pytest.approx(a.distance_to(b))

    def test_manhattan(self):
        assert MANHATTAN.distance(Point(0, 0), Point(3, 4)) == 7.0

    def test_chebyshev(self):
        assert CHEBYSHEV.distance(Point(0, 0), Point(3, 4)) == 4.0

    def test_p3(self):
        d = LpMetric(3).distance(Point(0, 0), Point(1, 1))
        assert d == pytest.approx(2 ** (1 / 3))

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            LpMetric(0.5)

    def test_names(self):
        assert EUCLIDEAN.name() == "L2"
        assert MANHATTAN.name() == "L1"
        assert CHEBYSHEV.name() == "Linf"
        assert LpMetric(2.5).name() == "L2.5"

    def test_diameter(self):
        r = Rect(0, 0, 3, 4)
        assert EUCLIDEAN.diameter(r) == pytest.approx(5.0)
        assert MANHATTAN.diameter(r) == pytest.approx(7.0)
        assert CHEBYSHEV.diameter(r) == pytest.approx(4.0)


class TestRectBoundsSoundness:
    @pytest.mark.parametrize(
        "metric", [MANHATTAN, EUCLIDEAN, CHEBYSHEV, LpMetric(3)], ids=lambda m: m.name()
    )
    @given(rect_strategy(), rect_strategy(), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_rect_distance_brackets_points(self, metric, ra, rb, f1, f2, f3, f4):
        pa = Point(ra.min_x + f1 * ra.width, ra.min_y + f2 * ra.height)
        pb = Point(rb.min_x + f3 * rb.width, rb.min_y + f4 * rb.height)
        d = metric.distance(pa, pb)
        assert metric.min_distance_rects(ra, rb) <= d + 1e-6
        assert d <= metric.max_distance_rects(ra, rb) + 1e-6

    @pytest.mark.parametrize(
        "metric", [MANHATTAN, CHEBYSHEV, LpMetric(4)], ids=lambda m: m.name()
    )
    @given(rect_strategy(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_point_rect_bounds(self, metric, r, fx, fy):
        p = Point(r.min_x + fx * r.width, r.min_y + fy * r.height)
        q = Point(r.min_x - 5.0, r.max_y + 3.0)
        d = metric.distance(p, q)
        assert metric.min_distance_point_rect(q, r) <= d + 1e-6
        assert d <= metric.max_distance_point_rect(q, r) + 1e-6


class TestEndToEndWithLpMetrics:
    @pytest.mark.parametrize(
        "metric", [MANHATTAN, CHEBYSHEV], ids=lambda m: m.name()
    )
    def test_joint_topk_exact_under_lp(self, metric):
        """The whole pruning stack stays exact under L1 / Linf."""
        rng = random.Random(55)
        objects = make_random_objects(80, 12, rng)
        users = make_random_users(10, 12, rng)
        ds = Dataset(objects, users, relevance="LM", alpha=0.5, metric=metric)
        tree = MIRTree(objects, ds.relevance, fanout=4)
        results = joint_topk(tree, ds, 5)
        for u in ds.users:
            gold = sorted((ds.sts(o, u) for o in ds.objects), reverse=True)[4]
            assert results[u.item_id].kth_score == pytest.approx(gold, abs=1e-9)

    def test_engine_modes_agree_under_l1(self):
        from repro import MaxBRSTkNNEngine, MaxBRSTkNNQuery, STObject

        rng = random.Random(56)
        objects = make_random_objects(60, 10, rng)
        users = make_random_users(12, 10, rng)
        ds = Dataset(objects, users, relevance="LM", alpha=0.5, metric=MANHATTAN)
        engine = MaxBRSTkNNEngine(ds)
        q = MaxBRSTkNNQuery(
            ox=STObject(-1, Point(5, 5), {}),
            locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)],
            keywords=sorted(rng.sample(range(10), 5)),
            ws=2,
            k=4,
        )
        cards = {
            "baseline": section4(engine, q).cardinality,
            "joint": engine.query(q, QueryOptions(method="exact")).cardinality,
            "indexed": section7(engine, q, "exact").cardinality,
        }
        assert len(set(cards.values())) == 1

    def test_metric_changes_ranking(self):
        """L1 and Linf genuinely rank differently from L2 somewhere."""
        rng = random.Random(57)
        objects = make_random_objects(100, 8, rng)
        users = make_random_users(8, 8, rng)
        rankings = {}
        for metric in (EUCLIDEAN, MANHATTAN, CHEBYSHEV):
            ds = Dataset(objects, users, relevance="LM", alpha=1.0, metric=metric)
            tree = MIRTree(objects, ds.relevance, fanout=4)
            res = joint_topk(tree, ds, 5)
            rankings[metric.name()] = tuple(
                tuple(res[u.item_id].object_ids()) for u in users
            )
        assert len(set(rankings.values())) > 1
