"""Tests for the experiment harness and parameter grid."""

import pytest

from repro.bench.harness import (
    approximation_ratio,
    build_workbench,
    clear_cache,
    measure_selection,
    measure_topk_baseline,
    measure_topk_joint,
    measure_user_index,
)
from repro.bench.params import DEFAULTS, PAPER_SWEEPS, SWEEPS, config_for

TINY = DEFAULTS.with_(num_objects=300, num_users=30, num_locations=4, uw=10)


@pytest.fixture(scope="module")
def bench():
    wb = build_workbench(TINY, cached=False)
    yield wb
    clear_cache()


class TestParams:
    def test_sweeps_cover_every_paper_row(self):
        assert set(SWEEPS) == set(PAPER_SWEEPS)
        for key, vals in SWEEPS.items():
            assert len(vals) == len(PAPER_SWEEPS[key]), key

    def test_defaults_are_table5_bolds(self):
        assert DEFAULTS.k == 10
        assert DEFAULTS.alpha == 0.5
        assert DEFAULTS.ul == 3
        assert DEFAULTS.uw == 20
        assert DEFAULTS.area == 5.0
        assert DEFAULTS.num_locations == 20
        assert DEFAULTS.ws == 2

    def test_config_for_changes_one_knob(self):
        cfg = config_for("k", 50)
        assert cfg.k == 50
        assert cfg.alpha == DEFAULTS.alpha

    def test_config_for_unknown_param(self):
        with pytest.raises(ValueError):
            config_for("zoom", 1)

    def test_with_is_functional(self):
        a = DEFAULTS.with_(k=99)
        assert a.k == 99 and DEFAULTS.k == 10

    def test_label_mentions_knobs(self):
        assert "k10" in DEFAULTS.label()
        assert "flickr" in DEFAULTS.label()


class TestWorkbench:
    def test_build_populates_rsk(self, bench):
        assert len(bench.rsk) == 30
        assert all(0.0 <= v <= 1.0 for v in bench.rsk.values.tolist())
        assert 0.0 <= bench.rsk_group <= 1.0

    def test_query_matches_config(self, bench):
        assert bench.query.k == TINY.k
        assert bench.query.ws == TINY.ws
        assert len(bench.query.locations) == TINY.num_locations

    def test_unknown_dataset_kind(self):
        with pytest.raises(ValueError):
            build_workbench(TINY.with_(dataset="osm"), cached=False)

    def test_cache_returns_same_object(self):
        a = build_workbench(TINY)
        b = build_workbench(TINY)
        assert a is b
        clear_cache()


class TestMeasurements:
    def test_topk_metrics_positive(self, bench):
        b = measure_topk_baseline(bench)
        j = measure_topk_joint(bench)
        assert b.mrpu_ms > 0 and j.mrpu_ms > 0
        assert b.total_io > 0 and j.total_io > 0
        assert j.total_io < b.total_io  # the paper's headline effect

    def test_selection_methods_agree_on_optimum(self, bench):
        base = measure_selection(bench, "baseline")
        exact = measure_selection(bench, "exact")
        assert base.cardinality == exact.cardinality

    def test_selection_unknown_method(self, bench):
        with pytest.raises(ValueError):
            measure_selection(bench, "heuristic")

    def test_approximation_ratio_bounded(self, bench):
        ratio = approximation_ratio(bench)
        assert 0.0 <= ratio <= 1.0

    def test_user_index_metrics(self, bench):
        unindexed, indexed, pruned = measure_user_index(bench)
        assert unindexed > 0 and indexed > 0
        assert 0.0 <= pruned <= 100.0
