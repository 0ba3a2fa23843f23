"""Query planner: resolve (QueryOptions, engine capabilities) to a plan.

The middle layer of the typed API.  :class:`QueryOptions` says what the
caller *wants*; :class:`EngineCapabilities` says what the engine *has*
(lanes? a memoized walk?); the planner resolves the pair into an
executable :class:`QueryPlan` — which pipeline runs, which tree walk
serves the batch, and whether phase 2 leaves the coordinator — and
rejects impossible combinations (``Mode.BASELINE`` on lanes) before
any work is done.

``QueryPlan.explain()`` renders the plan as text — the serving
layer and the CLI surface it for observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from .config import Method, Mode, QueryOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import Executor

__all__ = [
    "EngineCapabilities",
    "ShardPlan",
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
    #: > 1 when the engine deals its refine over that many full-dataset
    #: lanes (``EngineConfig.num_shards``); joint plans then carry a
    #: ShardPlan (the baseline has no refine to deal).
    num_shards: int = 1
    #: Width of the query-axis fan-out (selection) — the alive shard
    #: hosts of the engine's fleet, local or remote (0 = that round
    #: runs in-process).
    search_workers: int = 0
    #: The engine takes a fleet (a ShardedEngine): baseline mode, the
    #: only pipeline without a mergeable per-user decomposition, is
    #: rejected on it at any lane count, one included.
    fleet: bool = False

    @classmethod
    def of(cls, executor: "Executor") -> "EngineCapabilities":
        """What ``executor``'s engine has — its refine ranges, the hosts
        its transport reaches — and what its memo holds."""
        pool = executor.traversal_pool
        return cls(
            traversal_pool_k=pool.k if pool is not None else None,
            num_shards=executor.ranges,
            search_workers=executor.transport.hosts(),
            fleet=executor.engine.takes_fleet,
        )


@dataclass(frozen=True, slots=True)
class ShardPlan:
    """How a batch is dealt over a sharded engine's lanes and gathered.

    Attributes
    ----------
    num_shards:
        The engine's lane count (``EngineConfig.num_shards``):
        the cold refine is dealt as that many user-row ranges.

    The gather is an *ordered union*: the refine round's per-lane
    ``RSk(u)`` maps union disjointly, in lane (= row) order, into the
    sequential threshold map (a user reported twice, or by no lane, is
    an error).  It is the only cross-lane merge: Algorithm 3 then runs
    whole per query against that map and the full dataset, so its
    tie-breaking (summed RSk thresholds, object-id order inside top-k
    ties) is the single engine's own.
    """

    num_shards: int
    search_workers: int = 0


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
    mode / method:
        The validated pipeline and keyword selector.
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
        thresholds from the shared pool.  ``None`` for baseline
        batches (no group traversal).
    shard:
        Scatter/gather layout when the executing engine is sharded
        (:class:`ShardPlan`); ``None`` for single-engine execution,
        which runs every phase in-process.
    """

    mode: Mode
    method: Method
    batch_size: int
    distinct_ks: Tuple[int, ...]
    shared_traversal_k: Optional[int] = None
    shard: Optional[ShardPlan] = None

    # ------------------------------------------------------------------
    def explain(self) -> str:
        """Human-readable description of what will execute and why."""
        scope = (
            "single query"
            if self.batch_size == 1
            else f"batch of {self.batch_size}"
        )
        lines = [
            f"plan: {scope} -> mode={self.mode} method={self.method}"
        ]
        ks = ",".join(str(k) for k in self.distinct_ks) or "?"
        if self.shared_traversal_k is not None:
            lines.append(
                f"  phase 1 (joint traversal): one MIR-tree walk at "
                f"k={self.shared_traversal_k} reused for k={ks} (the k_max "
                f"pool subsumes every smaller k), per-k thresholds derived "
                f"from the shared pool and memoized on the engine"
            )
        elif self.batch_size > 1:
            lines.append(
                f"  phase 1 (top-k thresholds): shared once per distinct k "
                f"(k={ks}), memoized on the engine across batches"
            )
        else:
            lines.append(
                "  phase 1 (top-k): cold per query (single-query cost matches "
                "the paper's per-query setting)"
            )
        # A sharded flush's query-axis round (selection) leaves the
        # coordinator over the search lanes.
        lanes = (
            self.shard.search_workers
            if self.shard is not None
            and search_fans_out(self.shard.search_workers, self.batch_size)
            else 0
        )
        if self.shard is not None:
            lines.append(
                f"  scatter: refine by user row range x{self.shard.num_shards} "
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


def _validate(options: QueryOptions, caps: EngineCapabilities) -> None:
    """Shared option/capability checks."""
    if caps.fleet and options.mode is Mode.BASELINE:
        raise ValueError(
            f"sharded engines execute mode=joint only (got "
            f"mode={options.mode}): the baseline pipeline has no mergeable "
            "per-user decomposition"
        )


def _shard_plan(
    options: QueryOptions, caps: EngineCapabilities
) -> Optional[ShardPlan]:
    if caps.num_shards <= 1 or options.mode is not Mode.JOINT:
        return None
    return ShardPlan(
        num_shards=caps.num_shards, search_workers=caps.search_workers
    )


def plan_query(
    options: QueryOptions,
    caps: EngineCapabilities,
    k: int = 0,
) -> QueryPlan:
    """Plan one query.  Single queries never share or fan out.

    What ``engine.plan()`` describes; execution plans every flush,
    ``engine.query``'s batch of one included, with :func:`plan_batch`.
    """
    _validate(options, caps)
    return QueryPlan(
        mode=options.mode,
        method=options.method,
        batch_size=1,
        distinct_ks=(k,) if k else (),
        shard=_shard_plan(options, caps),
    )


def plan_batch(
    options: QueryOptions,
    caps: EngineCapabilities,
    ks: Sequence[int],
) -> QueryPlan:
    """Plan a batch: share phase 1 per distinct k.

    ``ks`` are the queries' ``k`` values (one per query, duplicates
    expected).  Phase 2 leaves the process only over a lane engine's
    lanes (``caps.num_shards > 1``).
    """
    _validate(options, caps)
    distinct_ks = tuple(sorted(set(ks)))
    # A joint batch runs one tree walk at k_max and reuses its pool for
    # every smaller k.  An engine pool already walked at a larger k
    # serves this batch without re-walking — the plan names that walk
    # so explain() and the stats contract stay truthful.
    shared_traversal_k: Optional[int] = None
    if options.mode is Mode.JOINT and distinct_ks:
        pool_k = (caps.traversal_pool_k,) if caps.traversal_pool_k else ()
        shared_traversal_k = max(distinct_ks + pool_k)
    return QueryPlan(
        mode=options.mode,
        method=options.method,
        batch_size=len(ks),
        distinct_ks=distinct_ks,
        shared_traversal_k=shared_traversal_k,
        shard=_shard_plan(options, caps),
    )
