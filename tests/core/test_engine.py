"""Tests for the engine facade and mode/method agreement."""

import pytest

from repro import MaxBRSTkNNEngine, MaxBRSTkNNQuery
from repro.core.config import QueryOptions
from repro.core.query import QueryStats


def make_query(workload, ws=2, k=5):
    return MaxBRSTkNNQuery(
        ox=workload.query_object(),
        locations=list(workload.locations),
        keywords=list(workload.candidate_keywords),
        ws=ws,
        k=k,
    )


class TestEngineModes:
    def test_all_modes_agree_on_cardinality(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds, index_users=True)
        q = make_query(workload)
        results = {
            mode: engine.query(q, QueryOptions(method="exact", mode=mode))
            for mode in ("baseline", "joint", "indexed")
        }
        cards = {m: r.cardinality for m, r in results.items()}
        assert cards["baseline"] == cards["joint"] == cards["indexed"], cards

    def test_approx_close_to_exact(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        q = make_query(workload)
        exact = engine.query(q, QueryOptions(method="exact", mode="joint"))
        approx = engine.query(q, QueryOptions(method="approx", mode="joint"))
        assert approx.cardinality <= exact.cardinality
        if exact.cardinality:
            assert approx.cardinality / exact.cardinality >= 0.6

    def test_indexed_mode_requires_user_tree(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        with pytest.raises(ValueError):
            engine.query(make_query(workload), QueryOptions(mode="indexed"))

    def test_unknown_mode_rejected(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        with pytest.raises(ValueError):
            engine.query(make_query(workload), QueryOptions(mode="turbo"))

    def test_stats_populated(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        res = engine.query(make_query(workload), QueryOptions(method="approx", mode="joint"))
        assert isinstance(res.stats, QueryStats)
        assert res.stats.topk_time_s > 0
        assert res.stats.io_total > 0
        assert res.stats.users_total == len(ds.users)

    def test_indexed_mode_prunes_users(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds, index_users=True)
        res = engine.query(make_query(workload), QueryOptions(method="approx", mode="indexed"))
        assert 0 <= res.stats.users_pruned <= len(ds.users)
        assert res.stats.users_pruned_pct == pytest.approx(
            100.0 * res.stats.users_pruned / len(ds.users)
        )

    def test_reset_io(self, small_flickr):
        ds, workload = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        engine.topk_joint(3)
        assert engine.io.total > 0
        engine.reset_io()
        assert engine.io.total == 0


class TestTopKEntryPoints:
    def test_joint_equals_baseline_thresholds(self, small_flickr):
        ds, _ = small_flickr
        engine = MaxBRSTkNNEngine(ds)
        joint = engine.topk_joint(5)
        base = engine.topk_baseline(5)
        for uid in joint:
            assert joint[uid].kth_score == pytest.approx(
                base[uid].kth_score, abs=1e-9
            )

    def test_buffered_engine_cheaper_io(self, small_flickr):
        ds, _ = small_flickr
        cold = MaxBRSTkNNEngine(ds)
        warm = MaxBRSTkNNEngine(ds, buffer_pages=10_000)
        cold.topk_baseline(5)
        warm.topk_baseline(5)
        assert warm.io.total < cold.io.total
