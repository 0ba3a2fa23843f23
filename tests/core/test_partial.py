"""Mergeable per-lane refine results: row ranges in, disjoint cover out."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, oracle
from repro.core.batch import _ensure_traversal_pool
from repro.core.partial import (
    PartialResult,
    UserRangeError,
    compute_partials,
    merge_partials,
)
from repro.core.pipeline import user_row_ranges

from ..conftest import make_random_objects, make_random_users


def build(seed=0, n_users=20):
    rng = random.Random(seed)
    dataset = Dataset(
        make_random_objects(60, 16, rng),
        make_random_users(n_users, 16, rng),
        relevance="LM",
        alpha=0.5,
    )
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    return dataset, engine, rng


def partial(lane, rsk, k=3):
    return PartialResult(
        shard_id=lane, k=k, rsk=rsk, users_total=len(rsk), time_s=0.0
    )


class TestRowRanges:
    @pytest.mark.parametrize("n_users,n_lanes", [(20, 1), (20, 3), (7, 7), (30, 64), (0, 4)])
    def test_ranges_cover_every_row_once_in_order(self, n_users, n_lanes):
        ranges = user_row_ranges(n_users, n_lanes)
        assert len(ranges) == n_lanes
        assert [row for lo, hi in ranges for row in range(lo, hi)] == list(range(n_users))
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1


class TestRefineMerge:
    def test_union_equals_central_refinement(self):
        dataset, engine, _ = build()
        pool = _ensure_traversal_pool(engine._executor, 3)
        partials = [
            compute_partials(dataset, pool.traversal, [3], shard_id=i, rows=rows)[0]
            for i, rows in enumerate(user_row_ranges(len(dataset.users), 3))
        ]
        merged = merge_partials(partials, dataset.users)
        central = oracle.individual_topk(pool.traversal, dataset, 3)
        assert merged.rsk == {uid: res.kth_score for uid, res in central.items()}
        assert list(merged.rsk) == [u.item_id for u in dataset.users]
        assert merged.users_total == len(dataset.users)

    def test_empty_range_answers_an_empty_partial(self):
        dataset, engine, _ = build()
        pool = _ensure_traversal_pool(engine._executor, 3)
        (empty,) = compute_partials(dataset, pool.traversal, [3], rows=(5, 5))
        assert empty.rsk == {} and empty.users_total == 0

    @pytest.mark.parametrize(
        "rows", [(-1, 4), (4, 2), (0, 21), (21, 21), (0.0, 4), (None, 4)]
    )
    def test_range_outside_the_replica_is_a_typed_error(self, rows, monkeypatch):
        """Raised before any gather: the refine kernel is never entered."""
        import importlib

        partial_mod = importlib.import_module("repro.core.partial")
        dataset, engine, _ = build()
        pool = _ensure_traversal_pool(engine._executor, 3)
        monkeypatch.setattr(
            partial_mod, "individual_topk",
            lambda *a, **k: pytest.fail("refined a bad range"),
        )
        with pytest.raises(UserRangeError, match="do not fit"):
            compute_partials(dataset, pool.traversal, [3], rows=rows)

    def test_overlapping_lanes_raise(self):
        users = build(n_users=2)[0].users
        a = partial(0, {users[0].item_id: 0.5})
        b = partial(1, {users[0].item_id: 0.6})
        with pytest.raises(ValueError, match="re-reports"):
            merge_partials([a, b], users)

    def test_missing_user_raises(self):
        users = build(n_users=3)[0].users
        a = partial(0, {users[0].item_id: 0.5})
        b = partial(1, {users[2].item_id: 0.6})
        with pytest.raises(ValueError, match="first missing"):
            merge_partials([a, b], users)

    def test_unknown_user_raises(self):
        users = build(n_users=1)[0].users
        a = partial(0, {users[0].item_id: 0.5, 10**6: 0.1})
        with pytest.raises(ValueError, match="cover 2 users"):
            merge_partials([a], users)

    def test_mixed_k_raises(self):
        with pytest.raises(ValueError, match="across k"):
            merge_partials([partial(0, {1: 0.5}), partial(1, {2: 0.6}, k=5)], [])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            merge_partials([], [])
