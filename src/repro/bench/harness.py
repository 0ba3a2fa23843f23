"""Experiment harness: build workloads, run pipelines, collect metrics.

One :class:`ExperimentConfig` cell maps to one :class:`Workbench` — the
dataset, the engine with both indexes, and the query — and the harness
functions compute exactly the four quantities the paper's figures plot:

* **MRPU** — mean runtime per user of the top-k phase (ms);
* **MIOCPU** — mean simulated I/O cost per user of the top-k phase;
* candidate-selection **runtime** (ms) for Baseline / Exact / Approx;
* **approximation ratio** — |BRSTkNN(approx)| / |BRSTkNN(exact)|.

Workbenches are cached per config so pytest-benchmark rounds and the
report generator never rebuild indexes redundantly.

The joint pipeline and the selectors are timed in their scalar form —
the oracle's (:mod:`repro.oracle`) — so every column compares like with
like: scalar Joint against the scalar per-user Baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, Tuple

from .. import oracle
from ..core.baseline import baseline_select_candidate
from ..core.config import QueryOptions
from ..core.engine import MaxBRSTkNNEngine
from ..core.query import MaxBRSTkNNQuery
from ..model.dataset import Dataset
from ..datagen.synthetic import flickr_like, yelp_like
from ..datagen.users import candidate_locations, generate_users
from ..topk.single import topk_all_users_individually
from .params import ExperimentConfig

__all__ = [
    "Workbench",
    "TopKMetrics",
    "SelectionMetrics",
    "build_workbench",
    "measure_topk_baseline",
    "measure_topk_joint",
    "measure_selection",
    "measure_user_index",
    "clear_cache",
]


@dataclass(slots=True)
class TopKMetrics:
    """Per-user averaged top-k phase metrics (Figures 5a/5b style)."""

    mrpu_ms: float
    miocpu: float
    total_ms: float
    total_io: int


@dataclass(slots=True)
class SelectionMetrics:
    """Candidate-selection metrics (Figures 5c/5d style)."""

    runtime_ms: float
    cardinality: int
    combinations_scored: int


@dataclass
class Workbench:
    """Everything needed to run one experiment cell."""

    config: ExperimentConfig
    dataset: Dataset
    engine: MaxBRSTkNNEngine
    query: MaxBRSTkNNQuery
    #: RSk(u) computed once by the joint pipeline (candidate-selection
    #: benchmarks reuse it so they time *selection* only, as the paper
    #: separates phases): a Thresholds by user row.
    rsk: Mapping[int, float] = field(default_factory=dict)
    rsk_group: float = 0.0

    @property
    def num_users(self) -> int:
        return len(self.dataset.users)


def _build(config: ExperimentConfig) -> Workbench:
    if config.dataset == "flickr":
        objects, vocab = flickr_like(num_objects=config.num_objects, seed=config.seed)
    elif config.dataset == "yelp":
        objects, vocab = yelp_like(
            num_objects=max(60, config.num_objects // 6), seed=config.seed
        )
    else:
        raise ValueError(f"unknown dataset kind {config.dataset!r}")
    workload = generate_users(
        objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )
    candidate_locations(workload, num_locations=config.num_locations, seed=config.seed)
    dataset = Dataset(
        objects,
        workload.users,
        relevance=config.measure,
        alpha=config.alpha,
        vocabulary=vocab,
    )
    engine = MaxBRSTkNNEngine(dataset, fanout=config.fanout, index_users=True)
    query = MaxBRSTkNNQuery(
        ox=workload.query_object(),
        locations=list(workload.locations),
        keywords=list(workload.candidate_keywords),
        ws=config.ws,
        k=config.k,
    )
    bench = Workbench(config=config, dataset=dataset, engine=engine, query=query)
    traversal = oracle.joint_traversal(engine.object_tree, dataset, config.k)
    table = oracle.individual_topk(traversal, dataset, config.k)
    bench.rsk = table.rsk(config.k)
    bench.rsk_group = traversal.rsk_group
    return bench


@lru_cache(maxsize=8)
def _cached(config: ExperimentConfig) -> Workbench:
    return _build(config)


def build_workbench(config: ExperimentConfig, cached: bool = True) -> Workbench:
    """Build (or fetch the cached) workbench for a config cell."""
    return _cached(config) if cached else _build(config)


def clear_cache() -> None:
    """Drop cached workbenches (large sweeps keep memory bounded)."""
    _cached.cache_clear()


# ----------------------------------------------------------------------
# Phase 1: top-k of all users (Baseline B vs Joint J)
# ----------------------------------------------------------------------

def measure_topk_baseline(bench: Workbench) -> TopKMetrics:
    """Per-user top-k over the MIR-tree, cold, one query per user."""
    engine = bench.engine
    engine.reset_io()
    t0 = time.perf_counter()
    topk_all_users_individually(
        engine.object_tree, bench.dataset, bench.config.k, store=engine.store
    )
    elapsed = time.perf_counter() - t0
    io = engine.io.total
    n = max(1, bench.num_users)
    return TopKMetrics(
        mrpu_ms=1000.0 * elapsed / n,
        miocpu=io / n,
        total_ms=1000.0 * elapsed,
        total_io=io,
    )


def measure_topk_joint(bench: Workbench) -> TopKMetrics:
    """Joint top-k (Algorithms 1+2) for the same users, in the oracle's
    scalar form (the engine's kernels charge the same I/O)."""
    engine = bench.engine
    engine.reset_io()
    t0 = time.perf_counter()
    traversal = oracle.joint_traversal(
        engine.object_tree, bench.dataset, bench.config.k, store=engine.store
    )
    oracle.individual_topk(traversal, bench.dataset, bench.config.k)
    elapsed = time.perf_counter() - t0
    io = engine.io.total
    n = max(1, bench.num_users)
    return TopKMetrics(
        mrpu_ms=1000.0 * elapsed / n,
        miocpu=io / n,
        total_ms=1000.0 * elapsed,
        total_io=io,
    )


# ----------------------------------------------------------------------
# Phase 2: candidate selection (Baseline scan / Exact / Approx)
# ----------------------------------------------------------------------

def measure_selection(bench: Workbench, method: str) -> SelectionMetrics:
    """Time one candidate-selection method using precomputed RSk."""
    t0 = time.perf_counter()
    if method == "baseline":
        result = baseline_select_candidate(bench.dataset, bench.query, bench.rsk)
    elif method in ("exact", "approx"):
        result = oracle.select_candidate(
            bench.dataset, bench.query, bench.rsk, bench.rsk_group, method=method
        )
    else:
        raise ValueError(f"unknown selection method {method!r}")
    elapsed = time.perf_counter() - t0
    return SelectionMetrics(
        runtime_ms=1000.0 * elapsed,
        cardinality=result.cardinality,
        combinations_scored=result.stats.keyword_combinations_scored,
    )


def approximation_ratio(bench: Workbench) -> float:
    """|BRSTkNN(approx)| / |BRSTkNN(exact)| (1.0 when exact finds none)."""
    exact = measure_selection(bench, "exact")
    approx = measure_selection(bench, "approx")
    if exact.cardinality == 0:
        return 1.0
    return approx.cardinality / exact.cardinality


# ----------------------------------------------------------------------
# Figure 15: user index vs flat super-user
# ----------------------------------------------------------------------

def _user_file_bytes(dataset: Dataset) -> int:
    """Size of a flat on-disk user file (id + location + keyword ids)."""
    return sum(16 + 4 * len(u.terms) for u in dataset.users)


def measure_user_index(bench: Workbench) -> Tuple[int, int, float]:
    """(un-indexed total I/O, indexed total I/O, users pruned %).

    Un-indexed: the users reside on disk as a flat file that must be
    read in full before the joint pipeline can run; the total I/O is
    that scan plus the MIR-tree traversal.  Indexed: the Section 7
    pipeline, whose combined I/O covers the MIR-tree *and* the MIUR-tree
    but never touches the user pages below pruned subtrees (the paper's
    Figure 15 reports the combined cost the same way).
    """
    engine = bench.engine
    engine.reset_io()
    engine.store.counter.load_bytes(_user_file_bytes(bench.dataset))
    engine.query(bench.query, QueryOptions(method="approx", mode="joint"))
    unindexed_io = engine.io.total

    engine.reset_io()
    assert engine.user_tree is not None
    result = oracle.indexed_users_maxbrstknn(
        engine.object_tree,
        engine.user_tree,
        bench.dataset,
        bench.query,
        method="approx",
        store=engine.store,
    )
    indexed_io = engine.io.total
    return unindexed_io, indexed_io, result.stats.users_pruned_pct
