"""Mergeable partial results: union semantics and merge validation."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine
from repro.core.batch import _ensure_traversal_pool
from repro.core.partial import PartialResult, compute_partial, merge_partials
from repro.datagen.partition import partition_users

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


class TestRefineMerge:
    def test_union_equals_central_refinement(self):
        dataset, engine, _ = build()
        pool = _ensure_traversal_pool(engine, 3, "python")
        _, shard_datasets = partition_users(dataset, 3, "hash")
        partials = [
            compute_partial(ds, pool.traversal, 3, shard_id=i)
            for i, ds in enumerate(shard_datasets)
        ]
        merged = merge_partials(partials)
        from repro.core.joint_topk import individual_topk

        central = individual_topk(pool.traversal, dataset, 3)
        assert merged.rsk == {
            uid: res.kth_score for uid, res in central.items()
        }
        assert merged.users_total == len(dataset.users)
        assert merged.shards == 3

    def test_overlapping_shards_raise(self):
        a = PartialResult(shard_id=0, k=3, rsk={1: 0.5}, users_total=1, time_s=0.0)
        b = PartialResult(shard_id=1, k=3, rsk={1: 0.6}, users_total=1, time_s=0.0)
        with pytest.raises(ValueError, match="re-reports"):
            merge_partials([a, b])

    def test_mixed_k_raises(self):
        a = PartialResult(shard_id=0, k=3, rsk={1: 0.5}, users_total=1, time_s=0.0)
        b = PartialResult(shard_id=1, k=5, rsk={2: 0.6}, users_total=1, time_s=0.0)
        with pytest.raises(ValueError, match="across k"):
            merge_partials([a, b])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            merge_partials([])
