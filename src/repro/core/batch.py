"""Batch MaxBRSTkNN query processing.

A single :meth:`MaxBRSTkNNEngine.query` pays for two phases: the top-k
phase (joint traversal + Algorithm 2 refinement), which depends only on
``(dataset, k)``, and candidate selection (Algorithm 3), which depends
on the whole query.  Serving many queries one at a time recomputes the
expensive query-independent phase every single time — the same
redundancy the joint traversal removed *within* one query, one level
up.

:func:`query_batch` exploits it, and goes further with **cross-k
candidate-pool sharing**: one joint traversal at
``k_max = max(k)`` produces candidate pools that provably subsume the
pools of every smaller ``k`` in the batch (``RSk_max(us) <= RSk(us)``,
so no object a smaller-k traversal keeps is ever pruned at ``k_max``),
and each k's thresholds are refined from the shared pool by Algorithm 2
(:class:`SharedTraversalPool`, memoized across batches).  A mixed-k
batch therefore pays for a *single* tree walk.  Candidate selection is
answered per ``select`` payload, whatever the queries' ``k``: each query
carries its own k's :class:`SharedTopK`, and queries that share
``(ox.d, W, ws)`` are selected as one stacked location block over one
selection context whose location rows read their own query's
``RSk(u)`` (:class:`~repro.core.candidate_selection.SelectionBatch`),
each answer and counter still the query's own.

Execution strategy is decided by :func:`repro.core.planner.plan_batch`
and carried out by the engine's one
:class:`~repro.core.pipeline.Executor`, which also owns the memo (the
pools and per-k states).  This module keeps the primitives those
phases are built from: the shared pool walk and the per-payload
select.

Result contract: every result — location, keywords, BRSTkNN set, and
every *selection-phase* :class:`QueryStats` counter (pruning,
combinations scored) — is identical to what a sequential
``engine.query`` call would have produced.  The *top-k phase* stats of
a joint batch describe the one shared walk that produced the pool in
use — ``QueryPlan.shared_traversal_k`` names it: the batch's ``k_max``
on a fresh engine, or a larger earlier walk the memoized pool kept (a
cold sequential run of the same query pays a ``k``-walk instead).
They are identical for every query in the batch, and for same-k
batches against a fresh (or freshly cleared) engine they coincide with
the sequential trace exactly — ``engine.query`` is such a batch of one.
Only wall-clock timings differ beyond that (that is the point).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from .candidate_selection import SelectionBatch, select_candidate
from .config import QueryOptions, coerce_options
from .joint_topk import (
    JointTraversalResult,
    derive_rsk_group,
    individual_topk,
    joint_traversal,
)
from .planner import QueryPlan, plan_batch
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats
from .thresholds import Thresholds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import MaxBRSTkNNEngine

__all__ = [
    "SharedTopK",
    "SharedTraversalPool",
    "query_batch",
    "execute_batch",
    # Not called here any more (refines run through repro.core.partial):
    # benchmarks/e2e/layers.py still patches it on this module, by name.
    "individual_topk",
]


@dataclass(slots=True)
class SharedTopK:
    """Query-independent phase-1 state for one ``k``.

    ``rsk`` is the merged refine's ``RSk(u)`` by user row: two arrays,
    so the state pickles small into ``select`` payloads."""

    rsk: Thresholds
    rsk_group: float
    topk_time_s: float
    io_node_visits: int
    io_invfile_blocks: int
    hits: int = 0  # queries served from this entry (introspection)


@dataclass(slots=True)
class SharedTraversalPool:
    """Cross-k phase-1 state of a batch.

    One joint traversal at ``k`` — the largest k any batch has asked
    the executor for — owns the candidate pools; each k's thresholds are
    refined from them (:func:`repro.core.partial.compute_partials`) and
    the per-k state memoized in ``by_k``.  Subsumption argument: an
    object outside the ``k_max`` pools has ``UB(o, us) < RSk_max(us)
    <= RSk(us) <= RSk(u)`` for every user and every ``k <= k_max``, so
    it can appear in nobody's top-k — exactly the objects a dedicated
    ``k``-traversal is allowed to drop.  Derived thresholds (``RSk(u)``
    and ``RSk(us)``) are value-identical to what the dedicated traversal
    would produce, so downstream selection results match sequential
    queries exactly.
    """

    k: int
    traversal: JointTraversalResult
    topk_time_s: float  # wall time of the one shared walk
    io_node_visits: int
    io_invfile_blocks: int
    by_k: Dict[int, SharedTopK]
    hits: int = 0  # queries served from this pool (introspection)
    #: Memoized per-k group thresholds (an order statistic of the pool's
    #: lower bounds; a serving loop asks for the same ks every flush).
    group_by_k: Dict[int, float] = field(default_factory=dict)

    def rsk_group_for(self, k: int) -> float:
        value = self.group_by_k.get(k)
        if value is None:
            value = derive_rsk_group(self.traversal, self.k, k)
            self.group_by_k[k] = value
        return value


def _ensure_traversal_pool(executor, k: int) -> SharedTraversalPool:
    """The executor's cross-k pool, (re)walked only when ``k`` outgrows it."""
    pool = executor.traversal_pool
    if pool is None or pool.k < k:
        engine = executor.engine
        before = engine.io.snapshot()
        t0 = time.perf_counter()
        traversal = joint_traversal(
            engine.object_tree, engine.dataset, k, store=engine.store
        )
        elapsed = time.perf_counter() - t0
        delta = engine.io.snapshot() - before
        engine.traversal_runs += 1
        # A fresh by_k: every entry reports the walk that produced the
        # current pool.
        pool = executor.traversal_pool = SharedTraversalPool(
            k=k,
            traversal=traversal,
            topk_time_s=elapsed,
            io_node_visits=delta.node_visits,
            io_invfile_blocks=delta.invfile_blocks,
            by_k={},
        )
    return pool


def _select_one(
    dataset,
    query: MaxBRSTkNNQuery,
    shared: SharedTopK,
    method: str,
    batch: Optional[SelectionBatch] = None,
) -> MaxBRSTkNNResult:
    """Phase 2 for one query against the shared thresholds (``batch``:
    the payload's :class:`SelectionBatch` the query belongs to)."""
    stats = QueryStats(
        users_total=len(dataset.users),
        topk_time_s=shared.topk_time_s,
        io_node_visits=shared.io_node_visits,
        io_invfile_blocks=shared.io_invfile_blocks,
    )
    result = select_candidate(
        dataset,
        query,
        shared.rsk,
        rsk_group=shared.rsk_group,
        method=method,
        stats=stats,
        batch=batch,
    )
    result.stats = stats
    return result


def _select_payload(
    dataset,
    queries: Sequence[MaxBRSTkNNQuery],
    shared: Sequence[SharedTopK],
    method: str,
) -> List[MaxBRSTkNNResult]:
    """Phase 2 for a ``select`` payload's queries, ``shared[i]`` being
    query ``i``'s phase-1 state (one object per k): either method
    answers them as one :class:`SelectionBatch` (stacked per keyword
    side across k, computed inside the first query's
    :func:`select_candidate` call).  Answers and selection counters are
    the per-query ones."""
    batch = SelectionBatch(queries, [(s.rsk, s.rsk_group) for s in shared], method)
    return [
        _select_one(dataset, query, entry, method, batch)
        for query, entry in zip(queries, shared)
    ]


def query_batch(
    engine: "MaxBRSTkNNEngine",
    queries: Sequence[MaxBRSTkNNQuery],
    options: Optional[QueryOptions] = None,
) -> List[MaxBRSTkNNResult]:
    """Answer many MaxBRSTkNN queries, sharing phase 1 per distinct k.

    Parameters
    ----------
    queries:
        Any number of queries (the empty batch returns ``[]``).  Queries
        may repeat; duplicates cost only a selection pass each.
    options:
        A :class:`QueryOptions` (``None``: the shared default).
    """
    opts = coerce_options(options, api="query_batch")
    queries = list(queries)
    if not queries:
        return []
    plan = plan_batch(opts, engine.capabilities(), [q.k for q in queries])
    return execute_batch(engine, queries, plan)


def execute_batch(
    engine: "MaxBRSTkNNEngine",
    queries: Sequence[MaxBRSTkNNQuery],
    plan: QueryPlan,
) -> List[MaxBRSTkNNResult]:
    """Carry out a planned batch on the engine's one
    :class:`~repro.core.pipeline.Executor` (traverse → refine →
    select), against its memo; per-stage accounting lands on
    ``engine.last_flush_report``."""
    return engine._executor.execute(queries, plan)
