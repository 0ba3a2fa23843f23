"""Report generator: regenerate every figure/table series as text.

``python -m repro.bench.report`` runs all experiments of Section 8 at
the scaled parameters and prints one table per paper figure, in the
same series layout the paper plots.  ``--quick`` shrinks the grid for a
fast smoke run; ``--figure fig5`` restricts to one figure.

``FIGURES`` is the one description of those experiments: a tuple of
:class:`Panel` rows per figure, each printed by :func:`run_panel`.
``benchmarks/test_figures.py`` times the same cells under
pytest-benchmark.  The output of a full run is what EXPERIMENTS.md
records (``results/make_experiments_md.py``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

from .harness import (
    Workbench,
    build_workbench,
    clear_cache,
    measure_selection,
    measure_topk_baseline,
    measure_topk_joint,
    measure_user_index,
)
from .params import DEFAULTS, SWEEPS, ExperimentConfig, config_for

__all__ = ["Panel", "run_panel", "run_figure", "run_all", "main", "FIGURES"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value >= 100:
            return f"{value:.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def print_table(title: str, header: Sequence, rows: Dict[str, List], out=sys.stdout):
    """Print one figure's series as an aligned text table."""
    cols = [str(h) for h in header]
    names = list(rows)
    widths = [max(len(n) for n in names + [title])] + [
        max(len(str(c)), *(len(_fmt(rows[n][i])) for n in names)) + 2
        for i, c in enumerate(cols)
    ]
    line = title.ljust(widths[0]) + "".join(
        str(c).rjust(w) for c, w in zip(cols, widths[1:])
    )
    print(line, file=out)
    print("-" * len(line), file=out)
    for name in names:
        print(
            name.ljust(widths[0])
            + "".join(_fmt(v).rjust(w) for v, w in zip(rows[name], widths[1:])),
            file=out,
        )
    print(file=out)


# ----------------------------------------------------------------------
# The panel table
# ----------------------------------------------------------------------

_SELECTION = ("baseline", "exact", "approx")


@dataclass(frozen=True)
class Panel:
    """One printed table: ``param`` swept from ``base``, every cell
    measured by ``kind`` — ``topk`` (B vs J MRPU / MIOCPU), ``topk_totals``
    (B vs J total ms / IO), ``selection`` (runtime per method + ratio),
    ``user_index`` (Figure 15) or ``datasets`` (Table 4)."""

    title: str
    kind: str
    param: str
    base: ExperimentConfig = DEFAULTS
    #: Relevance measures; ``--quick`` keeps the first.
    measures: Tuple[str, ...] = ("LM",)
    #: Candidate-selection methods (``selection`` panels).
    methods: Tuple[str, ...] = _SELECTION
    #: Largest swept value a method runs at, in both modes: a panel
    #: sweeps only the values every one of its methods accepts.
    caps: Mapping[str, int] = field(default_factory=dict)
    #: Also print each method's |BRSTkNN| (``selection`` panels).
    counts: bool = False

    def values(self, quick: bool) -> List:
        vals = SWEEPS[self.param]
        if quick:
            vals = vals[:: max(1, len(vals) // 3)]
        return [v for v in vals if all(v <= self.caps.get(m, v) for m in self.methods)]

    def measures_for(self, quick: bool) -> Tuple[str, ...]:
        return self.measures[:1] if quick else self.measures


def _cell(panel: Panel, bench: Workbench, m: str) -> List[Tuple[str, object]]:
    """(row label, value) pairs of one cell, in print order."""
    if panel.kind == "datasets":
        return bench.dataset.stats().rows()
    if panel.kind == "user_index":
        labels = ("Un-indexed IO", "Indexed IO", "Users pruned %")
        return list(zip(labels, measure_user_index(bench)))
    if panel.kind in ("topk", "topk_totals"):
        b, j = measure_topk_baseline(bench), measure_topk_joint(bench)
        if panel.kind == "topk_totals":
            return [("B total ms", b.total_ms), ("J total ms", j.total_ms),
                    ("B total IO", b.total_io), ("J total IO", j.total_io)]
        return [(f"{s}({m}) {name}", getattr(met, attr))
                for s, met in (("B", b), ("J", j))
                for name, attr in (("MRPU ms", "mrpu_ms"), ("MIOCPU", "miocpu"))]
    res = {meth: measure_selection(bench, meth) for meth in panel.methods}
    rows = [(f"{meth[0].upper()}({m}) ms", r.runtime_ms) for meth, r in res.items()]
    if "exact" in res and "approx" in res:
        exact_n = res["exact"].cardinality
        rows.append(
            (f"ratio({m})", 1.0 if exact_n == 0 else res["approx"].cardinality / exact_n)
        )
    if panel.counts:
        rows += [(f"{meth[0].upper()} |BRSTkNN|", r.cardinality) for meth, r in res.items()]
    return rows


def run_panel(panel: Panel, quick: bool = False, out=sys.stdout) -> None:
    """Measure every cell of one panel and print its table."""
    values = panel.values(quick)
    rows: Dict[str, List] = {}
    for v in values:
        for m in panel.measures_for(quick):
            bench = build_workbench(config_for(panel.param, v, panel.base.with_(measure=m)))
            for label, value in _cell(panel, bench, m):
                rows.setdefault(label, []).append(value)
    header = [v.capitalize() for v in values] if panel.kind == "datasets" else values
    print_table(panel.title, header, rows, out)


_KMEASURES = ("LM", "TF", "KO")
_NO_BASELINE = ("exact", "approx")
_YELP = DEFAULTS.with_(dataset="yelp")
# The combinatorial methods blow up with ws (that is the figure's
# point); on a single Python core the baseline scan runs to ws = 3 and
# the exact method to ws = 6, while the greedy approximation covers the
# paper's full 1..8.  EXPERIMENTS.md reports the measured growth factors.
_WS_CAPS = {"baseline": 3, "exact": 6}
# Section 7's own framing: the MIUR-tree pays off when users are sparse
# and ranking is spatially dominated (Area 40, alpha 0.9, fanout 8).
_FIG15 = DEFAULTS.with_(num_objects=2000, area=40.0, alpha=0.9, num_locations=10, fanout=8)

FIGURES: Dict[str, Tuple[Panel, ...]] = {
    "table4": (Panel("Table 4 (Flickr, Yelp)", "datasets", "dataset"),),
    "fig5": (
        Panel("Fig 5a/5b vary k", "topk", "k", measures=_KMEASURES),
        Panel("Fig 5c/5d vary k", "selection", "k", measures=_KMEASURES),
    ),
    "fig6": (
        Panel("Fig 6a/6b vary alpha", "topk", "alpha"),
        Panel("Fig 6c/6d vary alpha", "selection", "alpha"),
    ),
    "fig7": (
        Panel("Fig 7a/7b vary UL", "topk", "ul"),
        Panel("Fig 7c/7d vary UL", "selection", "ul"),
    ),
    "fig8": (
        Panel("Fig 8a/8b vary UW", "topk", "uw"),
        Panel("Fig 8c/8d vary UW", "selection", "uw"),
    ),
    "fig9": (Panel("Fig 9a/9b vary Area", "topk", "area"),),
    "fig10": (Panel("Fig 10 vary |L|", "selection", "num_locations"),),
    "fig11": (
        Panel("Fig 11 vary ws (B)", "selection", "ws", methods=("baseline",), caps=_WS_CAPS),
        Panel("Fig 11 vary ws (E/A/ratio)", "selection", "ws", methods=_NO_BASELINE,
              caps=_WS_CAPS),
        Panel("Fig 11 vary ws (A full range)", "selection", "ws", methods=("approx",),
              caps=_WS_CAPS, counts=True),
    ),
    "fig12": (
        Panel("Fig 12a/12b vary |U|", "topk_totals", "num_users"),
        Panel("Fig 12c/12d vary |U|", "selection", "num_users"),
    ),
    "fig13": (
        Panel("Fig 13a/13b vary |O|", "topk", "num_objects"),
        Panel("Fig 13c/13d vary |O|", "selection", "num_objects", methods=_NO_BASELINE),
    ),
    "fig14": (
        Panel("Fig 14a/14b Yelp vary k", "topk", "k", _YELP),
        Panel("Fig 14c/14d Yelp vary k", "selection", "k", _YELP, methods=_NO_BASELINE),
    ),
    "fig15": (Panel("Fig 15 user index", "user_index", "user_index_users", _FIG15),),
}


def run_figure(name: str, quick: bool = False, out=sys.stdout) -> None:
    """Run one registered figure/table and print its series tables."""
    for panel in FIGURES[name]:
        run_panel(panel, quick, out)


def run_all(quick: bool = False, out=sys.stdout) -> None:
    """Regenerate every figure/table of the paper's Section 8."""
    for name in FIGURES:
        print(f"== {name} ==", file=out)
        run_figure(name, quick=quick, out=out)
        clear_cache()  # large sweeps: keep memory bounded


def main(argv=None) -> int:
    """CLI entry point (``python -m repro.bench.report``)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--figure", choices=sorted(FIGURES), help="one figure only")
    parser.add_argument("--quick", action="store_true", help="thin the sweeps")
    args = parser.parse_args(argv)
    if args.figure:
        run_figure(args.figure, quick=args.quick)
    else:
        run_all(quick=args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
