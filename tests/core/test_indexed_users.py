"""Section 7 — users under the MIUR-tree — as the oracle runs it
(:func:`repro.oracle.indexed_users_maxbrstknn`; not an engine mode)."""

import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users, section7


def build(seed, n_obj=80, n_users=40, vocab=14, n_locs=5):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locs)]
    query = MaxBRSTkNNQuery(
        ox=STObject(item_id=-1, location=Point(5, 5), terms={}),
        locations=locations,
        keywords=sorted(rng.sample(range(vocab), 6)),
        ws=2,
        k=5,
    )
    return ds, query


def indexed(ds, query, method="approx", engine=None):
    """A cold Section 7 query, charged to ``engine``'s page store (a
    fresh engine's by default)."""
    engine = engine if engine is not None else MaxBRSTkNNEngine(ds, EngineConfig(fanout=4))
    return section7(engine, query, method)


class TestCorrectness:
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_cardinality_matches_flat_mode(self, seed):
        ds, query = build(seed)
        engine = MaxBRSTkNNEngine(ds)
        flat = engine.query(query, QueryOptions(method="exact"))
        assert indexed(ds, query, "exact").cardinality == flat.cardinality

    @pytest.mark.parametrize("seed", range(3))
    def test_approx_mode_runs_and_is_bounded(self, seed):
        ds, query = build(seed)
        exact = indexed(ds, query, "exact")
        approx = indexed(ds, query, "approx")
        assert approx.cardinality <= exact.cardinality

    def test_unknown_method_rejected(self):
        ds, query = build(9)
        with pytest.raises(ValueError):
            indexed(ds, query, "nope")


class TestPruning:
    def test_users_pruned_metric_consistent(self):
        ds, query = build(11, n_users=80)
        res = indexed(ds, query, "approx")
        assert res.stats.users_total == 80
        assert 0 <= res.stats.users_pruned <= 80

    def test_far_locations_prune_everything(self):
        """Spatial-dominant scoring: a remote location admits nobody."""
        ds, query = build(12)
        query.locations = [Point(1e7, 1e7)]
        res = indexed(ds.with_alpha(1.0), query, "approx")
        assert res.cardinality == 0
        # the far location admits no user nodes, so no user is resolved
        assert res.stats.users_pruned == res.stats.users_total

    def test_io_charged(self):
        ds, query = build(13)
        engine = MaxBRSTkNNEngine(ds, EngineConfig(fanout=4))
        indexed(ds, query, engine=engine)
        assert engine.io.total > 0
