"""Tests for the ℓ-best and collective-placement extensions."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine
from repro.core.extensions import Placement, collective_placement, top_placements
from repro.core.joint_topk import joint_topk, joint_traversal
from repro.core.query import MaxBRSTkNNQuery
from repro.core.thresholds import Thresholds
from repro.index.irtree import MIRTree
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build(seed, n_obj=80, n_users=20, vocab=14, n_locs=6, k=5):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    trav = joint_traversal(tree, ds, k)
    topk = joint_topk(tree, ds, k)
    rsk = {uid: r.kth_score for uid, r in topk.items()}
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locs)]
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(5, 5), terms={}),
        locations=locations,
        keywords=sorted(rng.sample(range(vocab), 6)),
        ws=2,
        k=k,
    )
    return ds, query, rsk, trav.rsk_group


class TestTopPlacements:
    @pytest.mark.parametrize("seed", range(3))
    def test_sorted_and_bounded(self, seed):
        ds, query, rsk, rsk_group = build(seed)
        placements = top_placements(ds, query, rsk, limit=3, rsk_group=rsk_group)
        assert len(placements) <= 3
        cards = [p.cardinality for p in placements]
        assert cards == sorted(cards, reverse=True)

    def test_first_placement_is_the_query_optimum(self):
        from repro.core.candidate_selection import select_candidate

        ds, query, rsk, rsk_group = build(7)
        best = select_candidate(ds, query, rsk, rsk_group, method="exact")
        placements = top_placements(
            ds, query, rsk, limit=1, rsk_group=rsk_group, method="exact"
        )
        assert placements[0].cardinality == best.cardinality

    def test_distinct_locations(self):
        ds, query, rsk, rsk_group = build(8)
        placements = top_placements(ds, query, rsk, limit=4, rsk_group=rsk_group)
        locs = [(p.location.x, p.location.y) for p in placements]
        assert len(locs) == len(set(locs))

    def test_limit_zero(self):
        ds, query, rsk, rsk_group = build(9)
        assert top_placements(ds, query, rsk, limit=0) == []

    def test_unknown_method(self):
        ds, query, rsk, _ = build(10)
        with pytest.raises(ValueError):
            top_placements(ds, query, rsk, method="magic")

    def test_placements_report_real_winners(self):
        from repro.core.keyword_selection import compute_brstknn

        ds, query, rsk, rsk_group = build(11)
        for p in top_placements(ds, query, rsk, limit=3, rsk_group=rsk_group):
            actual = compute_brstknn(
                ds, query.ox, p.location, p.keywords, ds.users, rsk
            )
            assert p.brstknn <= actual


class TestCollectivePlacement:
    @pytest.mark.parametrize("seed", range(3))
    def test_coverage_monotone_in_m(self, seed):
        ds, query, rsk, rsk_group = build(seed, n_locs=8)
        _, cov1 = collective_placement(ds, query, rsk, 1, rsk_group)
        _, cov3 = collective_placement(ds, query, rsk, 3, rsk_group)
        assert cov1 <= cov3

    def test_covered_union_matches_placements(self):
        ds, query, rsk, rsk_group = build(13, n_locs=8)
        placements, covered = collective_placement(ds, query, rsk, 3, rsk_group)
        union = set()
        for p in placements:
            union |= p.brstknn
        assert union == set(covered)

    def test_locations_not_reused_by_default(self):
        ds, query, rsk, rsk_group = build(14, n_locs=8)
        placements, _ = collective_placement(ds, query, rsk, 4, rsk_group)
        locs = [(p.location.x, p.location.y) for p in placements]
        assert len(locs) == len(set(locs))

    def test_stops_when_everyone_covered(self):
        ds, query, rsk, rsk_group = build(15, n_locs=8)
        placements, covered = collective_placement(
            ds, query, rsk, len(query.locations), rsk_group
        )
        if len(covered) == len(ds.users):
            assert len(placements) <= len(query.locations)

    @pytest.mark.parametrize("method", ["approx", "exact"])
    @pytest.mark.parametrize("seed", range(3))
    def test_engine_thresholds_place_as_the_dict_path(self, seed, method):
        """The engine's own ``RSk(u)`` — ``Thresholds`` by user row —
        places exactly as the same values keyed by user id, round after
        round.  (Rounds used to copy the dataset for the uncovered users,
        whose rebuilt arrays refused the full dataset's row layout from
        round 2 on.)"""
        ds, query, _, _ = build(seed, n_locs=8)
        engine = MaxBRSTkNNEngine(ds, EngineConfig(fanout=4))
        rsk = engine.topk_joint(query.k).rsk(query.k)
        assert isinstance(rsk, Thresholds)
        got = collective_placement(ds, query, rsk, 3, method=method)
        assert len(got[0]) >= 2
        assert got == collective_placement(ds, query, dict(rsk), 3, method=method)

    def test_zero_objects(self):
        ds, query, rsk, rsk_group = build(16)
        placements, covered = collective_placement(ds, query, rsk, 0, rsk_group)
        assert placements == [] and covered == frozenset()

    def test_greedy_first_step_equals_single_optimum(self):
        ds, query, rsk, rsk_group = build(17)
        single = top_placements(ds, query, rsk, limit=1, method="approx")
        placements, _ = collective_placement(ds, query, rsk, 1, method="approx")
        if single and placements:
            assert placements[0].cardinality == single[0].cardinality
