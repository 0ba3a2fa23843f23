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

    def test_user_index_metrics_pinned_on_the_fig15_cell(self):
        """Fig. 15's column, exact, on a small Section 7 cell (Area 40,
        alpha 0.9, fanout 8): the flat-file JOINT I/O, the MIUR-tree
        search's I/O and its users pruned %, through the oracle path."""
        cell = DEFAULTS.with_(
            num_objects=600, num_users=200, area=40.0, alpha=0.9,
            num_locations=10, fanout=8,
        )
        assert measure_user_index(build_workbench(cell, cached=False)) == (707, 759, 12.0)


class TestSection8Shapes:
    """Section 8's shapes on the tiny cell, deterministic columns only.

    Shapes that do not hold here are recorded in EXPERIMENTS.md, not
    asserted: at ws = 2 the greedy scores more keyword combinations
    than the exact search (its prefix evaluations), so A <= E holds from
    ws = 3 on, where the exact search has combinations to prune.
    """

    @pytest.fixture(scope="class")
    def by_k(self):
        yield {k: build_workbench(config_for("k", k, TINY), cached=False) for k in SWEEPS["k"]}

    def test_joint_reads_less_than_the_baseline_at_every_k(self, by_k):
        for k, wb in by_k.items():
            assert measure_topk_joint(wb).miocpu < measure_topk_baseline(wb).miocpu, k

    def test_joint_io_is_flat_in_k(self, by_k):
        """One shared walk whatever k: 55 I/O for the 30 users."""
        assert {measure_topk_joint(wb).total_io for wb in by_k.values()} == {55}

    @staticmethod
    def _combinations_scored(ws):
        for k in SWEEPS["k"]:
            wb = build_workbench(config_for("k", k, TINY.with_(ws=ws)), cached=False)
            yield k, [measure_selection(wb, m).combinations_scored
                      for m in ("approx", "exact", "baseline")]

    def test_combinations_scored_approx_exact_baseline(self):
        for k, (a, e, b) in self._combinations_scored(ws=3):
            assert a <= e <= b, k

    def test_exact_scores_no_more_than_the_baseline_at_ws_2(self):
        for k, (_, e, b) in self._combinations_scored(ws=2):
            assert e <= b, k
