"""Tests for the spatial-only MaxBRkNN baseline."""

import random

import pytest

from repro import Dataset
from repro.core.config import QueryOptions
from repro.maxbrknn import (
    NLC,
    best_candidate_location,
    build_nlcs,
    count_brknn,
    grid_maxbrknn,
)
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build(seed, n_fac=50, n_users=20):
    rng = random.Random(seed)
    facilities = make_random_objects(n_fac, 10, rng)
    users = make_random_users(n_users, 10, rng)
    return facilities, users, rng


class TestNLCConstruction:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_radius_is_kth_distance(self, k):
        facilities, users, _ = build(1)
        nlcs = build_nlcs(facilities, users, k)
        by_id = {c.user_id: c for c in nlcs}
        for u in users:
            dists = sorted(o.location.distance_to(u.location) for o in facilities)
            assert by_id[u.item_id].radius == pytest.approx(dists[k - 1])

    def test_k_validation(self):
        facilities, users, _ = build(2)
        with pytest.raises(ValueError):
            build_nlcs(facilities, users, 0)

    def test_contains_is_inclusive(self):
        c = NLC(user_id=0, center=Point(0, 0), radius=1.0)
        assert c.contains(Point(1.0, 0.0))
        assert not c.contains(Point(1.001, 0.0))


class TestCounting:
    def test_count_matches_manual(self):
        facilities, users, rng = build(3)
        nlcs = build_nlcs(facilities, users, 2)
        for _ in range(10):
            p = Point(rng.uniform(0, 10), rng.uniform(0, 10))
            manual = sum(
                1 for c in nlcs if c.center.distance_to(p) <= c.radius + 1e-12
            )
            assert count_brknn(nlcs, p) == manual

    def test_best_candidate(self):
        facilities, users, rng = build(4)
        nlcs = build_nlcs(facilities, users, 2)
        candidates = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(8)]
        best, n = best_candidate_location(nlcs, candidates)
        assert best in candidates
        assert n == max(count_brknn(nlcs, p) for p in candidates)


class TestGrid:
    def test_grid_count_is_achievable(self):
        facilities, users, _ = build(5)
        nlcs = build_nlcs(facilities, users, 3)
        center, count = grid_maxbrknn(nlcs, resolution=48)
        assert count == count_brknn(nlcs, center)

    def test_resolution_monotone_quality(self):
        """Finer grids never find a worse cell (statistically; we check
        one seed deterministically)."""
        facilities, users, _ = build(6)
        nlcs = build_nlcs(facilities, users, 3)
        _, coarse = grid_maxbrknn(nlcs, resolution=8)
        _, fine = grid_maxbrknn(nlcs, resolution=64)
        assert fine >= coarse - 1  # allow one-off due to cell alignment

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_maxbrknn([], resolution=8)
        facilities, users, _ = build(7)
        nlcs = build_nlcs(facilities, users, 1)
        with pytest.raises(ValueError):
            grid_maxbrknn(nlcs, resolution=0)


class TestCrossCheckWithEngine:
    """alpha = 1 reduces MaxBRSTkNN to MaxBRkNN: counts must agree."""

    @pytest.mark.parametrize("seed", range(3))
    def test_alpha_one_equivalence(self, seed):
        from repro import MaxBRSTkNNEngine, MaxBRSTkNNQuery, STObject

        facilities, users, rng = build(seed, n_fac=60, n_users=15)
        ds = Dataset(facilities, users, relevance="LM", alpha=1.0)
        engine = MaxBRSTkNNEngine(ds)
        k = 4
        nlcs = build_nlcs(facilities, users, k)
        candidates = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(6)]
        query = MaxBRSTkNNQuery(
            ox=STObject(item_id=-1, location=candidates[0], terms={}),
            locations=candidates,
            keywords=[],
            ws=0,
            k=k,
        )
        result = engine.query(query, QueryOptions(method="exact"))
        _, gold = best_candidate_location(nlcs, candidates)
        assert result.cardinality == gold
