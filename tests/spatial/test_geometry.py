"""Unit and property tests for geometry primitives."""

import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spatial.geometry import Point, Rect

coords = st.floats(min_value=-1000, max_value=1000, allow_nan=False, allow_infinity=False)


def rect_strategy():
    return st.tuples(coords, coords, coords, coords).map(
        lambda t: Rect(min(t[0], t[2]), min(t[1], t[3]), max(t[0], t[2]), max(t[1], t[3]))
    )


def point_strategy():
    return st.tuples(coords, coords).map(lambda t: Point(*t))


def point_in_rect(draw_rect, fx, fy):
    return Point(
        draw_rect.min_x + fx * (draw_rect.max_x - draw_rect.min_x),
        draw_rect.min_y + fy * (draw_rect.max_y - draw_rect.min_y),
    )


class TestPoint:
    def test_distance_symmetric(self):
        a, b = Point(0, 0), Point(3, 4)
        assert a.distance_to(b) == pytest.approx(5.0)
        assert b.distance_to(a) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        p = Point(1.5, -2.5)
        assert p.distance_to(p) == 0.0

    def test_iter_unpacks(self):
        x, y = Point(2.0, 7.0)
        assert (x, y) == (2.0, 7.0)

    def test_as_rect_degenerate(self):
        r = Point(3, 4).as_rect()
        assert r.is_point()
        assert r.area == 0.0

    @given(point_strategy())
    def test_pickles_as_the_dataclass_default(self, p):
        """Same state (so the same pickle bytes) as a frozen slots
        dataclass's default, and the same point back."""
        assert p.__getstate__() == dataclasses._dataclass_getstate(p)
        back = pickle.loads(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
        assert back == p and hash(back) == hash(p)


class TestRectBasics:
    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ValueError):
            Rect(0, 1, 1, 0)

    def test_measures(self):
        r = Rect(0, 0, 4, 3)
        assert r.width == 4
        assert r.height == 3
        assert r.area == 12
        assert r.margin == 7
        assert r.diagonal == pytest.approx(5.0)
        assert r.center == Point(2.0, 1.5)

    def test_contains_point_boundary(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.1, 0.5))

    def test_contains_rect(self):
        outer, inner = Rect(0, 0, 10, 10), Rect(2, 2, 5, 5)
        assert outer.contains_rect(inner)
        assert not inner.contains_rect(outer)

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_union(self):
        u = Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3))
        assert u == Rect(0, 0, 3, 3)

    def test_enlargement_zero_when_contained(self):
        assert Rect(0, 0, 10, 10).enlargement(Rect(1, 1, 2, 2)) == 0.0

    def test_from_points_and_rects(self):
        pts = [Point(1, 5), Point(-2, 0), Point(3, 3)]
        assert Rect.from_points(pts) == Rect(-2, 0, 3, 5)
        with pytest.raises(ValueError):
            Rect.from_points([])
        with pytest.raises(ValueError):
            Rect.from_rects([])


class TestRectDistances:
    def test_min_distance_point_inside_is_zero(self):
        assert Rect(0, 0, 2, 2).min_distance_point(Point(1, 1)) == 0.0

    def test_min_distance_point_outside(self):
        assert Rect(0, 0, 1, 1).min_distance_point(Point(4, 5)) == pytest.approx(5.0)

    def test_max_distance_point(self):
        # farthest corner of unit square from origin-corner is (1,1)
        assert Rect(0, 0, 1, 1).max_distance_point(Point(0, 0)) == pytest.approx(
            math.sqrt(2)
        )

    def test_rect_distances_disjoint(self):
        a, b = Rect(0, 0, 1, 1), Rect(4, 5, 6, 7)
        assert a.min_distance_rect(b) == pytest.approx(5.0)  # (3,4) gap
        assert a.max_distance_rect(b) == pytest.approx(math.hypot(6, 7))

    def test_rect_distances_overlapping(self):
        a, b = Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)
        assert a.min_distance_rect(b) == 0.0
        assert a.max_distance_rect(b) == pytest.approx(math.hypot(3, 3))


class TestRectDistanceProperties:
    @given(rect_strategy(), rect_strategy(), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=150)
    def test_rect_distance_brackets_point_distance(self, ra, rb, fx1, fy1, fx2, fy2):
        """Any point pair's distance lies within [min_dist, max_dist]."""
        pa = point_in_rect(ra, fx1, fy1)
        pb = point_in_rect(rb, fx2, fy2)
        d = pa.distance_to(pb)
        assert ra.min_distance_rect(rb) <= d + 1e-6
        assert d <= ra.max_distance_rect(rb) + 1e-6

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_rect_distance_symmetry(self, ra, rb):
        assert ra.min_distance_rect(rb) == pytest.approx(rb.min_distance_rect(ra))
        assert ra.max_distance_rect(rb) == pytest.approx(rb.max_distance_rect(ra))

    @given(rect_strategy(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=100)
    def test_point_rect_consistency(self, r, fx, fy):
        """Degenerate rect distances equal point distances."""
        p = point_in_rect(r, fx, fy)
        pr = Rect.from_point(p)
        assert pr.min_distance_rect(r) == pytest.approx(r.min_distance_point(p))
        assert pr.max_distance_rect(r) == pytest.approx(r.max_distance_point(p))

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_union_contains_both(self, ra, rb):
        u = ra.union(rb)
        assert u.contains_rect(ra) and u.contains_rect(rb)

    @given(rect_strategy(), rect_strategy())
    @settings(max_examples=100)
    def test_min_le_max(self, ra, rb):
        assert ra.min_distance_rect(rb) <= ra.max_distance_rect(rb) + 1e-9
