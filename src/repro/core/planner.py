"""Query planner: resolve (QueryOptions, engine capabilities) to a plan.

The middle layer of the typed API.  :class:`QueryOptions` says what the
caller *wants*; :class:`EngineCapabilities` says what the engine *has*
(lanes? a memoized walk?); the planner resolves the pair into an
executable :class:`QueryPlan` — which keyword selector runs, which
tree walk serves the batch, and whether phase 2 leaves the
coordinator.

``QueryPlan.explain()`` renders the plan as text — the serving
layer and the CLI surface it for observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .config import Method, QueryOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import Executor

__all__ = [
    "EngineCapabilities",
    "QueryPlan",
    "plan_query",
    "plan_batch",
    "search_fans_out",
]


@dataclass(frozen=True, slots=True)
class EngineCapabilities:
    """What one engine instance can execute.

    ``traversal_pool_k`` is the ``k`` of the executor's memoized cross-k
    traversal pool, if one exists — planning reads it so the plan (and
    ``explain()``) names the walk that will actually serve the batch,
    which may be a larger-k walk from an earlier batch.
    """

    traversal_pool_k: Optional[int] = None
    #: Alive shard hosts the engine's transport reaches, local or
    #: remote — one lane each (0: every round runs in-process).
    lanes: int = 0

    @classmethod
    def of(cls, executor: "Executor") -> "EngineCapabilities":
        """What ``executor``'s engine has — the hosts its transport
        reaches — and what its memo holds."""
        pool = executor.traversal_pool
        return cls(
            traversal_pool_k=pool.k if pool is not None else None,
            lanes=executor.transport.hosts(),
        )


def search_fans_out(search_workers: int, batch_size: int) -> bool:
    """Does a sharded flush's query-axis round (selection) leave the
    coordinator?

    The ONE predicate behind ``QueryPlan.explain()`` and the executor's
    query-axis lane builder: any fan-out width ships the round — a
    single host included — unless there is a single query to search.
    """
    return search_workers >= 1 and batch_size > 1


@dataclass(frozen=True, slots=True)
class QueryPlan:
    """Executable resolution of one query (or batch) request.

    Attributes
    ----------
    method:
        The validated keyword selector.
    batch_size:
        Number of queries this plan covers (1 = single query).
    distinct_ks:
        Sorted distinct ``k`` values across the batch; the shared phase
        runs once per entry.
    shared_traversal_k:
        The single ``k`` of the shared tree walk serving this batch —
        ``max(distinct_ks)``, or the engine's existing pool ``k`` when
        an earlier batch already walked further (the per-query top-k
        I/O stats report this walk, so the plan names it).  The
        traversal's candidate pool at ``k_max`` provably subsumes the
        pool of every smaller ``k`` (``RSk_max(us) <= RSk(us)``, so
        nothing a smaller-k traversal keeps is pruned), so a mixed-k
        batch pays for **one** tree walk and derives each k's
        thresholds from the shared pool.  ``None`` for a single query
        (:func:`plan_query`), which walks cold at its own k.
    lanes:
        Shard hosts the flush's rounds reach (0: in-process).  The cold
        refine is dealt as one user-row range per lane and gathered as
        an *ordered union*: the per-lane ``RSk(u)`` maps union
        disjointly, in lane (= row) order, into the sequential
        threshold map (a user reported twice, or by no lane, is an
        error).  It is the only cross-lane merge: Algorithm 3 then runs
        whole per query against that map and the full dataset, so its
        tie-breaking is the single engine's own.  A batch's selection
        fans out over the lanes when :func:`search_fans_out` says so.
    """

    method: Method
    batch_size: int
    distinct_ks: Tuple[int, ...]
    shared_traversal_k: Optional[int] = None
    lanes: int = 0

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Human-readable description of what will execute and why."""
        scope = (
            "single query"
            if self.batch_size == 1
            else f"batch of {self.batch_size}"
        )
        lines = [
            f"plan: {scope} -> method={self.method}"
        ]
        ks = ",".join(str(k) for k in self.distinct_ks) or "?"
        if self.shared_traversal_k is not None:
            lines.append(
                f"  phase 1 (joint traversal): one MIR-tree walk at "
                f"k={self.shared_traversal_k} reused for k={ks} (the k_max "
                f"pool subsumes every smaller k), per-k thresholds derived "
                f"from the shared pool and memoized on the engine"
            )
        else:
            lines.append(
                "  phase 1 (top-k): cold per query (single-query cost matches "
                "the paper's per-query setting)"
            )
        # A fleet's query-axis round (selection) leaves the coordinator
        # over the search lanes.
        lanes = self.lanes if search_fans_out(self.lanes, self.batch_size) else 0
        if self.lanes:
            lines.append(
                f"  scatter: refine by user row range x{self.lanes} "
                f"over full-dataset lanes, once per (walk, k), memoized "
                f"across batches (a warm flush skips the round)"
            )
            select = (
                f"in one round over {lanes} full-dataset lane(s)"
                if lanes else "in-process"
            )
            lines.append(
                "  gather: merge=ordered-union — disjoint RSk union into the "
                f"sequential threshold map; selection (Algorithm 3 whole, "
                f"per query, against the full dataset) runs {select}"
            )
        if lanes:
            lines.append(f"  phase 2 (candidate selection): search lanes x{lanes}")
        else:
            lines.append("  phase 2 (candidate selection): in-process")
        return "\n".join(lines)


def plan_query(
    options: QueryOptions,
    caps: EngineCapabilities,
    k: int = 0,
) -> QueryPlan:
    """Plan one query.  Single queries never share or fan out.

    What ``engine.plan()`` describes; execution plans every flush,
    ``engine.query``'s batch of one included, with :func:`plan_batch`.
    """
    return QueryPlan(
        method=options.method,
        batch_size=1,
        distinct_ks=(k,) if k else (),
        lanes=caps.lanes,
    )


def plan_batch(
    options: QueryOptions,
    caps: EngineCapabilities,
    ks: Sequence[int],
) -> QueryPlan:
    """Plan a batch: share phase 1 per distinct k.

    ``ks`` are the queries' ``k`` values (one per query, duplicates
    expected).  Phase 2 leaves the process only over a fleet's lanes
    (``caps.lanes >= 1``).
    """
    distinct_ks = tuple(sorted(set(ks)))
    # A batch runs one tree walk at k_max and reuses its pool for
    # every smaller k.  An engine pool already walked at a larger k
    # serves this batch without re-walking — the plan names that walk
    # so explain() and the stats contract stay truthful.
    shared_traversal_k: Optional[int] = None
    if distinct_ks:
        pool_k = (caps.traversal_pool_k,) if caps.traversal_pool_k else ()
        shared_traversal_k = max(distinct_ks + pool_k)
    return QueryPlan(
        method=options.method,
        batch_size=len(ks),
        distinct_ks=distinct_ks,
        shared_traversal_k=shared_traversal_k,
        lanes=caps.lanes,
    )
