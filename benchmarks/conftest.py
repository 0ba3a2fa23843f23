"""Shared fixtures for the figure benchmarks.

Every benchmark module regenerates one paper figure/table.  The full
sweeps (all values, all measures, averaged seeds) live in
``python -m repro.bench.report``; the pytest-benchmark targets here time
the same pipelines on a representative subset of each sweep so that
``pytest benchmarks/ --benchmark-only`` stays minutes, not hours.  The
benchmark *names* encode the figure, the series (B/J/E/A), and the swept
value, so the pytest-benchmark output table reads like the paper's
series.

Scale note: ``BENCH_BASE`` shrinks the default cell (|O| = 1500,
|U| = 150) relative to the report defaults; both are scaled versions of
the paper's Table 5: a pure-Python stack cannot index 1M-8M objects in
benchmark time, so every scale knob is divided while the ratios (users
per object, keywords per user, area fraction) are kept — see the module
docstring of ``repro.bench.params``.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import build_workbench, clear_cache
from repro.bench.params import DEFAULTS, ExperimentConfig, config_for

#: Base experiment cell for the benchmarks (scaled-down Table 5 bolds).
BENCH_BASE = DEFAULTS.with_(num_objects=1500, num_users=150)

#: Sparse-user cell for Figure 15 (Section 7's own setting).
FIG15_BASE = BENCH_BASE.with_(
    num_objects=1500, area=40.0, alpha=0.9, num_locations=10, fanout=8
)

_cache: dict = {}


def bench_for(param: str | None = None, value=None, base: ExperimentConfig = BENCH_BASE):
    """Cached workbench for one (param, value) cell."""
    config = base if param is None else config_for(param, value, base)
    if config not in _cache:
        _cache[config] = build_workbench(config, cached=False)
    return _cache[config]


@pytest.fixture(scope="session", autouse=True)
def _clear_caches_at_end():
    yield
    _cache.clear()
    clear_cache()


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` under pytest-benchmark with cheap settings.

    The pipelines here take 0.1–5 s each; two rounds give a stable
    median without blowing up the wall clock of the whole suite.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=2, iterations=1,
                              warmup_rounds=0)
