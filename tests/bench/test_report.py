"""Tests for the report generator (table formatting + figure registry)."""

import io
from types import SimpleNamespace

import pytest

from repro.bench import report
from repro.bench.report import FIGURES, print_table, run_figure
from repro.bench.harness import SelectionMetrics, TopKMetrics, clear_cache
from repro.model.dataset import DatasetStats


class TestPrintTable:
    def test_layout(self):
        out = io.StringIO()
        print_table(
            "Fig X", [1, 5, 10], {"B ms": [1.0, 2.0, 3.0], "J ms": [0.5, 0.5, 0.5]},
            out,
        )
        text = out.getvalue()
        lines = text.strip().splitlines()
        assert lines[0].startswith("Fig X")
        assert "B ms" in text and "J ms" in text
        assert "2.00" in text

    def test_float_formatting(self):
        out = io.StringIO()
        print_table("T", [1], {"big": [1234.5], "small": [0.1234]}, out)
        text = out.getvalue()
        assert "1234" in text  # no decimals for >= 100
        assert "0.123" in text


class TestFigureRegistry:
    def test_every_paper_artifact_has_a_target(self):
        expected = {"table4"} | {f"fig{i}" for i in range(5, 16)}
        assert set(FIGURES) == expected

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_table4_runs(self):
        out = io.StringIO()
        run_figure("table4", quick=True, out=out)
        clear_cache()
        text = out.getvalue()
        assert "Total objects" in text
        assert "Avg unique terms per object" in text


def _topk(*measures):
    return [f"{s}({m}) {x}" for m in measures for s in "BJ" for x in ("MRPU ms", "MIOCPU")]


def _selection(*measures, methods="BEA"):
    return [x for m in measures for x in [*(f"{s}({m}) ms" for s in methods), f"ratio({m})"]]


K = [1, 5, 10, 20, 50]
#: Titles, headers and row labels of the full run (the quick run thins
#: the headers and keeps Figure 5's first measure).
FULL_SKELETON = [
    ("Table 4 (Flickr, Yelp)", ["Flickr", "Yelp"],
     ["Total objects", "Total users", "Total unique terms",
      "Avg unique terms per object", "Total terms in dataset"]),
    ("Fig 5a/5b vary k", K, _topk("LM", "TF", "KO")),
    ("Fig 5c/5d vary k", K, _selection("LM", "TF", "KO")),
    ("Fig 6a/6b vary alpha", [0.1, 0.3, 0.5, 0.7, 0.9], _topk("LM")),
    ("Fig 6c/6d vary alpha", [0.1, 0.3, 0.5, 0.7, 0.9], _selection("LM")),
    ("Fig 7a/7b vary UL", [1, 2, 3, 4, 5, 6], _topk("LM")),
    ("Fig 7c/7d vary UL", [1, 2, 3, 4, 5, 6], _selection("LM")),
    ("Fig 8a/8b vary UW", [5, 10, 20, 30, 40], _topk("LM")),
    ("Fig 8c/8d vary UW", [5, 10, 20, 30, 40], _selection("LM")),
    ("Fig 9a/9b vary Area", [1.0, 2.0, 5.0, 10.0, 20.0], _topk("LM")),
    ("Fig 10 vary |L|", [1, 20, 50, 100, 300], _selection("LM")),
    ("Fig 11 vary ws (B)", [1, 2, 3], ["B(LM) ms"]),
    ("Fig 11 vary ws (E/A/ratio)", [1, 2, 3, 4, 5, 6], _selection("LM", methods="EA")),
    ("Fig 11 vary ws (A full range)", [1, 2, 3, 4, 5, 6, 7, 8], ["A(LM) ms", "A |BRSTkNN|"]),
    ("Fig 12a/12b vary |U|", [25, 125, 250, 500, 1000],
     ["B total ms", "J total ms", "B total IO", "J total IO"]),
    ("Fig 12c/12d vary |U|", [25, 125, 250, 500, 1000], _selection("LM")),
    ("Fig 13a/13b vary |O|", [2000, 4000, 8000, 16000], _topk("LM")),
    ("Fig 13c/13d vary |O|", [2000, 4000, 8000, 16000], _selection("LM", methods="EA")),
    ("Fig 14a/14b Yelp vary k", K, _topk("LM")),
    ("Fig 14c/14d Yelp vary k", K, _selection("LM", methods="EA")),
    ("Fig 15 user index", [125, 250, 500, 1000, 2000],
     ["Un-indexed IO", "Indexed IO", "Users pruned %"]),
]

#: What --quick changes: thinned sweeps (ws capped as in the full run).
QUICK_HEADERS = {
    "Fig 7a/7b vary UL": [1, 3, 5],
    "Fig 7c/7d vary UL": [1, 3, 5],
    "Fig 11 vary ws (B)": [1, 3],
    "Fig 11 vary ws (E/A/ratio)": [1, 3, 5],
    "Fig 11 vary ws (A full range)": [1, 3, 5, 7],
}


class TestPanelSkeleton:
    """Every panel renders in both modes with the measurements stubbed."""

    @pytest.fixture
    def tables(self, monkeypatch):
        stats = DatasetStats(1, 2, 3, 4.0, 5)
        monkeypatch.setattr(report, "build_workbench", lambda config: SimpleNamespace(
            dataset=SimpleNamespace(stats=lambda: stats)))
        monkeypatch.setattr(report, "measure_topk_baseline", lambda b: TopKMetrics(1, 2, 3, 4))
        monkeypatch.setattr(report, "measure_topk_joint", lambda b: TopKMetrics(1, 2, 3, 4))
        monkeypatch.setattr(report, "measure_selection", lambda b, m: SelectionMetrics(1, 2, 3))
        monkeypatch.setattr(report, "measure_user_index", lambda b: (1, 2, 3.0))
        printed = []

        def record(title, header, rows, out):
            printed.append((title, list(header), list(rows)))
            assert all(len(v) == len(header) for v in rows.values())
            print_table(title, header, rows, out)

        monkeypatch.setattr(report, "print_table", record)
        return printed

    @pytest.mark.parametrize("quick", [False, True])
    def test_every_panel_renders(self, tables, quick):
        out = io.StringIO()
        for name in FIGURES:
            run_figure(name, quick=quick, out=out)
        if quick:
            expected = [
                (title, QUICK_HEADERS.get(title, header),
                 [x for x in labels if "(TF)" not in x and "(KO)" not in x])
                for title, header, labels in FULL_SKELETON
            ]
        else:
            expected = FULL_SKELETON
        assert tables == expected
        assert out.getvalue().count("\n\n") == len(FULL_SKELETON)
