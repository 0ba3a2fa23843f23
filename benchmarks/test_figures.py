"""pytest-benchmark cells of every paper figure, from the report's panel table.

``pytest benchmarks/test_figures.py --benchmark-only`` times the cells
``python -m repro.bench.report --quick`` prints (``FIGURES``: each
panel's thinned sweep, first measure, ws caps) on the smaller
``BENCH_BASE`` cell (|O| = 1500, |U| = 150).  A cell's name encodes the
figure, the series and the swept value, so the benchmark table reads
like the paper's series: ``test_figure[fig5-topk-J(LM)-k=10]`` times
the joint top-k at k = 10, ``test_figure[fig11-ratio(LM)-ws=3]`` the exact
and approximate selections behind one ratio.  The figure's own numbers
(MIOCPU, |BRSTkNN|, ratio, users pruned %) land in ``extra_info``.
"""

from dataclasses import asdict
from functools import partial

import pytest

pytest.importorskip("pytest_benchmark")

from repro.bench.harness import (
    approximation_ratio,
    build_workbench,
    measure_selection,
    measure_topk_baseline,
    measure_topk_joint,
    measure_user_index,
)
from repro.bench.params import config_for
from repro.bench.report import FIGURES

from conftest import BENCH_BASE, run_once


def _series(panel, m):
    """(series name, timed function of a workbench) of one panel cell."""
    if panel.kind == "datasets":
        return [("build", None)]
    if panel.kind == "user_index":
        return [("user-index", measure_user_index)]
    if panel.kind in ("topk", "topk_totals"):
        tag = "-total" if panel.kind == "topk_totals" else f"({m})"
        return [("topk-B" + tag, measure_topk_baseline), ("topk-J" + tag, measure_topk_joint)]
    series = [(f"select-{meth[0].upper()}({m})", partial(measure_selection, method=meth))
              for meth in panel.methods]
    if {"exact", "approx"} <= set(panel.methods):
        series.append((f"ratio({m})", approximation_ratio))
    return series


def _cells():
    """{cell name: (config, timed function)} over every panel's quick grid."""
    cells = {}
    for fig, panels in FIGURES.items():
        for panel in panels:
            base = panel.base.with_(
                num_objects=BENCH_BASE.num_objects, num_users=BENCH_BASE.num_users
            )
            for value in panel.values(quick=True):
                for m in panel.measures_for(quick=True):
                    config = config_for(panel.param, value, base.with_(measure=m))
                    for name, fn in _series(panel, m):
                        # fig11's full-range A panel repeats the E/A panel's A cells
                        cells.setdefault(f"{fig}-{name}-{panel.param}={value}", (config, fn))
    return cells


CELLS = _cells()


@pytest.mark.parametrize("config, fn", CELLS.values(), ids=list(CELLS))
def test_figure(benchmark, config, fn):
    if fn is None:  # Table 4: time generating and indexing the collection
        bench = run_once(benchmark, build_workbench, config, cached=False)
        benchmark.extra_info.update(bench.dataset.stats().rows())
        return
    result = run_once(benchmark, fn, build_workbench(config))
    if isinstance(result, float):
        assert 0.0 <= result <= 1.0
        benchmark.extra_info["approximation_ratio"] = result
    elif isinstance(result, tuple):
        assert 0.0 <= result[2] <= 100.0
        benchmark.extra_info.update(
            zip(("unindexed_io", "indexed_io", "users_pruned_pct"), result)
        )
    else:
        benchmark.extra_info.update(asdict(result))
