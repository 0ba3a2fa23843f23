"""Tests for the MIUR-tree query mode (Section 7)."""

import random

import pytest

from repro import Dataset, MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.core.indexed_users import indexed_users_maxbrstknn
from repro.index.irtree import MIRTree
from repro.index.miurtree import MIURTree
from repro.model.objects import STObject
from repro.spatial.geometry import Point
from repro.storage.iostats import IOCounter
from repro.storage.pager import PageStore

from ..conftest import make_random_objects, make_random_users


def build(seed, n_obj=80, n_users=40, vocab=14, n_locs=5):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    obj_tree = MIRTree(objects, ds.relevance, fanout=4)
    user_tree = MIURTree(users, ds.relevance, fanout=4)
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locs)]
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(5, 5), terms={}),
        locations=locations,
        keywords=sorted(rng.sample(range(vocab), 6)),
        ws=2,
        k=5,
    )
    return ds, obj_tree, user_tree, query


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_cardinality_matches_flat_mode(self, seed):
        ds, obj_tree, user_tree, query = build(seed)
        engine = MaxBRSTkNNEngine(ds)
        flat = engine.query(query, QueryOptions(method="exact", mode="joint"))
        indexed = indexed_users_maxbrstknn(
            obj_tree, user_tree, ds, query, method="exact"
        )
        assert indexed.cardinality == flat.cardinality

    @pytest.mark.parametrize("seed", range(3))
    def test_approx_mode_runs_and_is_bounded(self, seed):
        ds, obj_tree, user_tree, query = build(seed)
        exact = indexed_users_maxbrstknn(obj_tree, user_tree, ds, query, method="exact")
        approx = indexed_users_maxbrstknn(
            obj_tree, user_tree, ds, query, method="approx"
        )
        assert approx.cardinality <= exact.cardinality

    def test_unknown_method_rejected(self):
        ds, obj_tree, user_tree, query = build(9)
        with pytest.raises(ValueError):
            indexed_users_maxbrstknn(obj_tree, user_tree, ds, query, method="nope")


class TestPruning:
    def test_users_pruned_metric_consistent(self):
        ds, obj_tree, user_tree, query = build(11, n_users=80)
        res = indexed_users_maxbrstknn(obj_tree, user_tree, ds, query, method="approx")
        assert res.stats.users_total == 80
        assert 0 <= res.stats.users_pruned <= 80

    def test_far_locations_prune_everything(self):
        """Spatial-dominant scoring: a remote location admits nobody."""
        ds, obj_tree, user_tree, query = build(12)
        spatial_ds = ds.with_alpha(1.0)
        obj_tree = MIRTree(spatial_ds.objects, spatial_ds.relevance, fanout=4)
        user_tree = MIURTree(spatial_ds.users, spatial_ds.relevance, fanout=4)
        query.locations = [Point(1e7, 1e7)]
        res = indexed_users_maxbrstknn(
            obj_tree, user_tree, spatial_ds, query, method="approx"
        )
        assert res.cardinality == 0
        # the far location admits no user nodes, so no user is resolved
        assert res.stats.users_pruned == res.stats.users_total

    def test_io_charged(self):
        ds, obj_tree, user_tree, query = build(13)
        counter = IOCounter()
        store = PageStore(counter=counter)
        indexed_users_maxbrstknn(
            obj_tree, user_tree, ds, query, method="approx", store=store
        )
        assert counter.total > 0
