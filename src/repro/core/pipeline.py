"""Phase pipeline: typed stages, and ONE scatter round over lanes.

A flush is an :class:`ExecutionPipeline` — an ordered tuple of typed
:class:`Stage`\\ s, each with declared inputs/outputs over a
:class:`FlushContext` blackboard and per-phase time/I-O accounting
(:class:`StageStats`).  Central stages run on the root engine; scatter
stages obey a **pure scatter contract**::

    split(ctx, width)  ->  payload list          (pure, no mutation)
    run(dataset, payload[, context])             (the worker entry)
    merge(ctx, chunks in payload order)          (gather, writes outputs)

``run`` is :func:`execute_shard_payload` — the ONE worker entry, called
by fork-pool workers, shard hosts and in-process execution alike.

The paper's two O(|U|) phases — Algorithm 2's per-user ``RSk(u)``
refine and Algorithm 3's candidate selection — are the only things ever
scattered, and every scatter goes through ONE loop,
:func:`run_round`::

    encode -> dispatch every lane -> collect each -> degrade -> decode

A :class:`Lane` is ``(wire id, payloads, degrade dataset, worker
context)``; every lane, on every transport, holds the full dataset.  A
transport is where lanes run — the :class:`Transport` protocol:
``dispatch(lanes) -> tickets`` starts every lane before any is
collected; ``collect(ticket) -> chunks`` runs the transport's own
recovery ladder and raises :class:`ScatterFailure` once it is
exhausted, leaving the round's retry/byte counters on the
:class:`Ticket`.  Two implementations:

* :class:`InlineTransport` — the calling process; no wire, no ladder.
* :class:`repro.serve.transport.SocketTransport` — one lane per alive
  shard host, forked locally on a socketpair or remote over TCP, every
  lane a frame (host death or deadline => re-scatter to a survivor,
  task error => retry on the same host).

A lane whose ladder is exhausted re-runs its payloads in-process
against the coordinator's dataset: ``execute_shard_payload`` is pure,
so the degraded answer is bitwise-identical, only slower — and counted.

Executors are lane *builders*, and there is one way to build them:
``split`` cuts a stage's work into payloads — ``select`` /
``indexed-search`` chunks of queries, ``refine`` ranges of user rows —
and each payload goes to the lane carrying the least work so far.
:class:`LocalExecutor` (one engine) runs every round inline;
:class:`ShardedExecutor` deals over the engine's alive shard hosts (its
``transport`` is swapped by ``ShardedEngine.start_pools`` /
``connect_hosts``) — the only owner of worker processes.

Pipelines by mode:

* ``joint``    — traverse → refine → select.  Refine is the central
  per-k derivation on one engine and a scatter of user-row ranges on a
  sharded one (per-user work, disjoint ``RSk(u)`` union); select is
  Algorithm 3 whole per query on BOTH — its keyword-coverage counts sum
  over all of ``LU_l``, so it is dealt by query, never by user.
* ``baseline`` — per-user topk → select (local only; no mergeable
  group traversal).
* ``indexed``  — root-traverse → best-first search per query.  Every
  per-k quantity derives pool-independently from one ``k_max`` walk
  (:mod:`repro.core.indexed_users`), and fanned-out searches run
  against read-only :meth:`~repro.storage.pager.PageStore.ledger_view`
  stores whose :class:`~repro.storage.pager.IOCharge` ledgers replay
  onto the engine's counter at gather time.

Result identity is the invariant throughout: results, I/O traces and
selection stats equal the single sequential engine's across
``{joint, indexed}`` × lane counts × mixed-k × transports
(``tests/core/test_pipeline.py``,
``tests/serve/test_sharded.py``, ``tests/serve/test_multihost.py``).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Tuple

from ..storage.pager import IOCharge
# The payload funnels are called through the module attribute (never
# imported by name) so a wrapper installed on ``repro.core.payload``
# sees every call.
from . import payload as _wire
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import MaxBRSTkNNEngine
    from .planner import QueryPlan

_log = logging.getLogger("repro.core.pipeline")

__all__ = [
    "ScatterFailure",
    "StageStats",
    "FlushReport",
    "FlushContext",
    "Stage",
    "TraverseStage",
    "RefineStage",
    "SelectStage",
    "IndexedSearchStage",
    "ExecutionPipeline",
    "build_pipeline",
    "Lane",
    "Ticket",
    "Transport",
    "InlineTransport",
    "INLINE",
    "run_round",
    "user_row_ranges",
    "LocalExecutor",
    "ShardedExecutor",
    "execute_shard_payload",
]


class ScatterFailure(RuntimeError):
    """A remote scatter round failed to produce results.

    The transport half of the scatter contract: raised (or subclassed —
    see :mod:`repro.serve.errors`) when a lane's hosts could not
    complete a round within the ladder's budget — a host died, the
    round outlived its deadline, the payload raised on every try, no
    host is left.  Executors catch exactly this type and re-run the same
    payloads in-process: ``execute_shard_payload`` is pure, so the
    degraded round is bitwise-identical, only slower.  Genuine task
    exceptions (bugs that would reproduce in-process) are re-raised to
    the caller once retries are exhausted, never swallowed.
    """


# ----------------------------------------------------------------------
# Per-phase accounting
# ----------------------------------------------------------------------

@dataclass(slots=True)
class StageStats:
    """Wall time, simulated I/O and scatter width of one stage run."""

    stage: str
    items: int = 0          # work items (queries, ks) the stage covered
    scatter_width: int = 1  # lanes (refine: row ranges) the stage fanned out to
    time_s: float = 0.0
    io_node_visits: int = 0
    io_invfile_blocks: int = 0
    retries: int = 0        # lane frames re-sent by the ladder
    degraded: int = 0       # lanes that fell back to in-process
    #: Serialized bytes crossing the pool pipes this stage: dispatched
    #: payloads out, returned chunks in.  0 for in-process rounds (the
    #: payloads never leave the parent, there is nothing to serialize).
    payload_bytes_out: int = 0
    payload_bytes_in: int = 0

    def snapshot(self) -> dict:
        return {
            "stage": self.stage,
            "items": self.items,
            "scatter_width": self.scatter_width,
            "time_ms": round(1000 * self.time_s, 3),
            "io_node_visits": self.io_node_visits,
            "io_invfile_blocks": self.io_invfile_blocks,
            "retries": self.retries,
            "degraded": self.degraded,
            "payload_bytes_out": self.payload_bytes_out,
            "payload_bytes_in": self.payload_bytes_in,
        }


@dataclass(slots=True)
class FlushReport:
    """Per-stage accounting of one executed flush (introspection)."""

    mode: str
    batch_size: int
    stages: List[StageStats] = field(default_factory=list)

    def stage(self, name: str) -> Optional[StageStats]:
        for st in self.stages:
            if st.stage == name:
                return st
        return None

    @property
    def total_retries(self) -> int:
        """Lane frames re-sent across every stage of this flush."""
        return sum(st.retries for st in self.stages)

    @property
    def degraded_lanes(self) -> int:
        """Lanes that fell back to in-process across all stages."""
        return sum(st.degraded for st in self.stages)

    @property
    def payload_bytes_out(self) -> int:
        """Frame bytes dispatched to the lanes' hosts this flush."""
        return sum(st.payload_bytes_out for st in self.stages)

    @property
    def payload_bytes_in(self) -> int:
        """Frame bytes collected from the lanes' hosts this flush."""
        return sum(st.payload_bytes_in for st in self.stages)

    def snapshot(self) -> dict:
        return {
            "mode": self.mode,
            "batch_size": self.batch_size,
            "payload_bytes_out": self.payload_bytes_out,
            "payload_bytes_in": self.payload_bytes_in,
            "stages": [st.snapshot() for st in self.stages],
        }


class FlushContext(dict):
    """The pipeline blackboard: named slots stages read and write.

    A plain dict plus a checked getter so a mis-wired pipeline fails
    with the missing slot's name instead of a bare ``KeyError``.
    """

    def require(self, key: str):
        if key not in self:
            raise RuntimeError(
                f"pipeline slot {key!r} not produced by any upstream stage"
            )
        return self[key]


# ----------------------------------------------------------------------
# The worker entry point (pure scatter contract's `run`)
# ----------------------------------------------------------------------

def execute_shard_payload(dataset, payload: tuple, context=None):
    """Run one scatter work item against ``dataset``.

    The ONE implementation behind every transport: forked pool workers
    call it with their copy-on-write dataset (and ``context`` — the
    MIUR-tree for indexed search payloads), shard hosts with their
    replica, in-process lanes pass both explicitly.  Payload kinds:

    * ``("refine", traversal, ks, lane, None, lo, hi)`` —
      Algorithm 2 for rows ``[lo, hi)`` of ``dataset.users`` against
      the shared pool: one refinement at ``max(ks)``, one
      ``PartialResult`` per k read off it.  The pool crosses as id /
      bound columns (object ids are what every replica shares); pool
      and range are checked against ``dataset`` before anything is
      gathered by them.
      (Slot 4 is always ``None``: the traced benchmark probe reads it
      as "which dataset answers", ``None`` meaning the full one.)
    * ``("select", queries, shared, mode, method)`` —
      Algorithm 3 whole, ``shared[i]`` being query ``i``'s phase-1
      state (one ``SharedTopK`` object per k; ``dataset`` = the FULL
      dataset here): greedy joint payloads as one
      :class:`~repro.core.candidate_selection.SelectionBatch` — the
      queries that share ``(ox.d, W, ws)`` stacked over one selection
      context, whatever their k — every other payload query by query;
      one answer per query either way.
    * ``("indexed_search", queries, views, traversal, rsk_group,
      users_total, topk_time_s, io_node_visits, io_invfile_blocks,
      method)`` — per-query best-first MIUR searches, each
      against its own read-only
      :meth:`~repro.storage.pager.PageStore.ledger_view` (``views``
      aligns with ``queries``; a view is a tiny (store, charge) pair,
      so shipping them is free); returns ``(result, IOCharge)`` pairs
      so the gather replays the simulated I/O onto the shared counter.
      ``views=None`` is the ledger-free form, in-process only (a warm
      LRU buffer's global access order forbids views): ``context`` is
      then the ENGINE, whose real page store is charged directly (the
      charge slot is ``None``) and whose memoized
      :class:`~repro.core.indexed_users.RootTraversal` supplies the
      per-k canonical pool / kernel arrays instead of a per-chunk
      rebuild.  Decision-identical to the ledger form — both run
      :func:`~repro.core.indexed_users.indexed_search` on the same
      derived inputs.
    """
    from .partial import compute_partials

    # The ONE decode funnel: arena-encoded payloads (config.use_shm)
    # resolve their ArenaRefs / packed blocks here; plain pickle
    # payloads pass through untouched, so every transport executes
    # identical inputs.
    payload = _wire.decode_shard_payload(payload)
    kind = payload[0]
    if kind == "refine":
        _, traversal, ks, lane, _, lo, hi = payload
        return compute_partials(dataset, traversal, ks, shard_id=lane, rows=(lo, hi))
    if kind == "select":
        from .batch import _select_payload

        _, queries, shared, mode, method = payload
        return _select_payload(dataset, queries, shared, mode, method)
    if kind == "indexed_search":
        from .indexed_users import indexed_search
        from .joint_topk import canonical_candidates
        from .kernels import CandidatePoolArrays

        (_, queries, views, traversal, rsk_group, users_total, topk_time_s,
         io_node_visits, io_invfile_blocks, method) = payload
        if context is None:
            raise RuntimeError(
                "indexed_search payload needs the MIUR-tree as worker context"
            )
        # Chunks are grouped per k, so the canonical pool (and its
        # kernel arrays) is one derivation for the whole chunk.
        if views is None:
            user_tree, pool, k = context.user_tree, context._root_pool, queries[0].k
            canonical = pool.canonical_for(k)
            pool_arrays = pool.pool_arrays_for(dataset, k)
            views = [(context.store, None)] * len(queries)
        else:
            user_tree = context
            traversal.check(dataset)  # off the wire, like a refine pool
            canonical = canonical_candidates(traversal, rsk_group)
            pool_arrays = CandidatePoolArrays(dataset, canonical)
        out = []
        for query, (store, charge) in zip(queries, views):
            stats = QueryStats(
                users_total=users_total,
                topk_time_s=topk_time_s,
                io_node_visits=io_node_visits,
                io_invfile_blocks=io_invfile_blocks,
            )
            result = indexed_search(
                user_tree, dataset, query, traversal, rsk_group, stats,
                method=method, store=store,
                canonical=canonical, pool_arrays=pool_arrays,
            )
            out.append((result, charge))
        return out
    raise ValueError(f"unknown shard payload kind {kind!r}")


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------

class Stage:
    """One pipeline phase: declared inputs/outputs over the context.

    Central stages implement :meth:`run_central`; scatter stages
    implement the pure contract :meth:`split` / :func:`run`
    (= :func:`execute_shard_payload`) / :meth:`merge`.
    """

    name: str = "stage"
    scatter: bool = False
    #: Context slots this stage reads / writes (wiring is validated by
    #: the executor before the stage runs).
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    #: Intra-stage slots ``split`` hands to ``merge`` through the
    #: context; the executor drops them when the stage finishes, so
    #: they are never visible downstream.
    scratch: Tuple[str, ...] = ()
    #: Slots read with ``ctx.get(...)`` that may legitimately be
    #: absent (executor hints rather than pipeline products).
    optional: Tuple[str, ...] = ()

    def run_central(self, ctx: FlushContext) -> None:
        raise NotImplementedError

    def split(self, ctx: FlushContext, width: int) -> List[tuple]:
        """Cut the stage's work into (about) ``width`` payloads."""
        raise NotImplementedError

    @staticmethod
    def weight(payload: tuple) -> int:
        """Work one payload carries, for dealing payloads over lanes
        (query-axis payloads: their queries)."""
        return len(payload[1])

    #: The scatter contract's `run` — stages share the module-level
    #: worker entry so pooled and in-process execution cannot diverge.
    run = staticmethod(execute_shard_payload)

    def merge(self, ctx: FlushContext, chunks: list) -> None:
        """Gather: ``chunks`` answer ``split``'s payloads, in order."""
        raise NotImplementedError


def _key_queries(mode: str, queries, shared_for) -> Tuple[list, dict]:
    """``(keyed, shared_by_key)`` — the slots :class:`SelectStage`
    reads: every query keyed to the shared phase-1 state
    ``shared_for(k)`` returns, which counts one hit per query."""
    keyed, shared_by_key = [], {}
    for q in queries:
        key = (mode, q.k)
        entry = shared_for(q.k)
        entry.hits += 1
        shared_by_key[key] = entry
        keyed.append((q, key))
    return keyed, shared_by_key


class TraverseStage(Stage):
    """Phase 1a (central): ensure the cross-k pool, derive group thresholds.

    Joint mode walks (or reuses) the engine's
    :class:`~repro.core.batch.SharedTraversalPool`; indexed mode the
    MIUR-root :class:`~repro.core.indexed_users.RootTraversal` pool.
    Either way ONE tree walk per pool generation serves every k in the
    batch — ``plan.shared_traversal_k`` names it.
    """

    name = "traverse"
    inputs = ("engine", "plan", "queries")
    outputs = ("pool_state", "group_by_k")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _ensure_traversal_pool
        from .config import Mode
        from .indexed_users import ensure_root_pool

        engine = ctx.require("engine")
        plan = ctx.require("plan")
        assert plan.shared_traversal_k is not None
        if plan.mode is Mode.INDEXED:
            pool = ensure_root_pool(engine, plan.shared_traversal_k)
        else:
            pool = _ensure_traversal_pool(engine, plan.shared_traversal_k)
        pool.hits += len(ctx.require("queries"))
        ctx["pool_state"] = pool
        # Both pool kinds memoize the per-k derivation, so repeat
        # flushes pay a dict hit, not a pass over the pool.
        ctx["group_by_k"] = {
            k: pool.rsk_group_for(k) for k in plan.distinct_ks
        }


def user_row_ranges(n_users: int, n_lanes: int) -> List[Tuple[int, int]]:
    """``n_lanes`` contiguous half-open row ranges covering
    ``range(n_users)`` exactly once, as evenly as ``i * n_users //
    n_lanes`` cuts (lanes beyond ``n_users`` get empty ranges)."""
    cuts = [i * n_users // n_lanes for i in range(n_lanes + 1)]
    return list(zip(cuts, cuts[1:]))


class RefineStage(Stage):
    """Phase 1b (scatter over user-row ranges): exact ``RSk(u)`` per k.

    ``split`` emits one refine payload per lane, each carrying the
    shared pool, every missing k — one refinement at the largest serves
    them all — and its range of ``dataset.users`` rows; ``merge``
    concatenates the disjoint per-lane ``RSk(u)`` vectors back into the
    sequential-identical vector per k, by user row
    (:func:`repro.core.partial.merge_partials`, which refuses a user
    reported twice or not at all) and emits what :class:`SelectStage`
    reads: one :class:`~repro.core.batch.SharedTopK` per k over the
    merged vector.  That state is memoized in the traversal pool's
    ``by_k`` — so it lives exactly as long as the walk whose time and
    I/O it reports, and warm flushes hand the codec the same object to
    delta-ship.  The executor calls ``merge`` with no chunks when every
    k is already merged.
    """

    name = "refine"
    scatter = True
    inputs = ("engine", "pool_state", "need_ks", "plan", "queries",
              "group_by_k")
    outputs = ("merged_by_k", "keyed", "shared_by_key")

    def split(self, ctx: FlushContext, width: int) -> List[tuple]:
        traversal = ctx.require("pool_state").traversal
        ks = ctx.require("need_ks")
        n_users = len(ctx.require("engine").dataset.users)
        return [
            ("refine", traversal, ks, lane, None, lo, hi)
            for lane, (lo, hi) in enumerate(user_row_ranges(n_users, width))
        ]

    @staticmethod
    def weight(payload: tuple) -> int:
        return payload[6] - payload[5]  # user rows

    def merge(self, ctx: FlushContext, chunks: list) -> None:
        from .batch import SharedTopK
        from .partial import merge_partials

        ks = ctx.require("need_ks")
        by_k: Dict[int, list] = {k: [] for k in ks}
        for partial in (p for chunk in chunks for p in chunk):
            by_k[partial.k].append(partial)
        merged = ctx.setdefault("merged_by_k", {})
        users = ctx.require("engine").dataset.users
        for k in ks:
            merged[k] = merge_partials(by_k[k], users)
        pool = ctx.require("pool_state")
        group_by_k = ctx.require("group_by_k")

        def shared_for(k: int):
            entry = pool.by_k.get(k)
            if entry is None:
                entry = pool.by_k[k] = SharedTopK(
                    rsk=merged[k].rsk,
                    rsk_group=group_by_k[k],
                    topk_time_s=pool.topk_time_s + merged[k].time_s,
                    io_node_visits=pool.io_node_visits,
                    io_invfile_blocks=pool.io_invfile_blocks,
                )
            return entry

        ctx["keyed"], ctx["shared_by_key"] = _key_queries(
            ctx.require("plan").mode.value, ctx.require("queries"), shared_for
        )


class SelectStage(Stage):
    """Phase 2 (scatter over queries): Algorithm 3 whole, one answer per
    query (``items`` counts queries, however a payload stacks them).

    Both executors run :func:`repro.core.batch._select_payload` against the
    full dataset — one round, the flush's queries dealt into
    ``min(width, n)`` payloads whose sizes differ by at most one,
    whatever their k: ``k`` only changes the thresholds Algorithm 3
    reads, so a payload carries each query's own ``SharedTopK`` (queries
    of one k share the object, which the codec ships once — a
    delta-shipped arena reference on warm flushes) and answers its
    queries as one stacked selection per keyword side.  Queries are
    ordered by keyword side before the cut, so a side's queries share
    payloads — and thereby selection contexts — where they can.
    """

    name = "select"
    scatter = True
    inputs = ("keyed", "shared_by_key", "plan")
    outputs = ("results",)
    scratch = ("select_index_groups",)

    def split(self, ctx: FlushContext, width: int) -> List[tuple]:
        from .candidate_selection import _keyword_side

        plan = ctx.require("plan")
        keyed = ctx.require("keyed")
        shared_by_key = ctx.require("shared_by_key")
        by_side: Dict[tuple, List[int]] = {}
        for i, (query, _) in enumerate(keyed):
            by_side.setdefault(_keyword_side(query), []).append(i)
        order = [i for members in by_side.values() for i in members]
        index_groups = [
            order[lo:hi]
            for lo, hi in user_row_ranges(len(order), max(1, min(width, len(order))))
        ]
        ctx["select_index_groups"] = index_groups
        return [
            ("select", [keyed[i][0] for i in chunk],
             tuple(shared_by_key[keyed[i][1]] for i in chunk),
             plan.mode.value, plan.method.value)
            for chunk in index_groups
        ]

    def merge(self, ctx: FlushContext, chunks: list) -> None:
        keyed = ctx.require("keyed")
        index_groups = ctx.require("select_index_groups")
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(keyed)
        for indices, group in zip(index_groups, chunks):
            for i, result in zip(indices, group):
                results[i] = result
        ctx["results"] = results


class IndexedSearchStage(Stage):
    """Indexed phase 2 (scatter over queries): best-first MIUR searches.

    Queries chunk per k (the traversal pool pickles once per chunk) and
    run against read-only ledger stores; ``merge`` replays every
    :class:`~repro.storage.pager.IOCharge` onto the engine's shared
    counter in query order, reproducing the sequential totals exactly.
    """

    name = "indexed-search"
    scatter = True
    inputs = ("queries", "pool_state", "group_by_k", "plan", "store",
              "users_total", "io_counter")
    outputs = ("results",)
    scratch = ("indexed_index_groups",)
    optional = ("use_ledgers",)

    def split(self, ctx: FlushContext, width: int) -> List[tuple]:
        plan = ctx.require("plan")
        queries = ctx.require("queries")
        pool = ctx.require("pool_state")
        group_by_k = ctx.require("group_by_k")
        users_total = ctx.require("users_total")
        store = ctx.require("store")
        # Fan-out gets one read-only ledger view per query (the
        # executor sets the flag; in-process execution charges the real
        # store and never builds views — a warm LRU buffer forbids them).
        use_ledgers = bool(ctx.get("use_ledgers"))
        traversal = pool.traversal
        by_k: Dict[int, List[int]] = {}
        for i, q in enumerate(queries):
            by_k.setdefault(q.k, []).append(i)
        payloads, index_groups = [], []
        for k, indices in by_k.items():
            n_chunks = max(1, min(width, len(indices)))
            for c in range(n_chunks):
                chunk = indices[c::n_chunks]
                views = (
                    [store.ledger_view() for _ in chunk] if use_ledgers else None
                )
                payloads.append(
                    ("indexed_search", [queries[i] for i in chunk], views,
                     traversal, group_by_k[k], users_total,
                     pool.topk_time_s, pool.io_node_visits,
                     pool.io_invfile_blocks, plan.method.value)
                )
                index_groups.append(chunk)
        ctx["indexed_index_groups"] = index_groups
        return payloads

    def merge(self, ctx: FlushContext, chunks: list) -> None:
        queries = ctx.require("queries")
        io_counter = ctx.require("io_counter")
        index_groups = ctx.require("indexed_index_groups")
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(queries)
        charges: List[Optional[IOCharge]] = [None] * len(queries)
        for indices, group in zip(index_groups, chunks):
            for i, (result, charge) in zip(indices, group):
                results[i] = result
                charges[i] = charge
        # Replay ledgers in query order: addition commutes, so the
        # shared counter ends exactly where sequential execution would.
        for charge in charges:
            if charge is not None:
                charge.apply(io_counter)
        ctx["results"] = results


# ----------------------------------------------------------------------
# Pipelines
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExecutionPipeline:
    """An ordered, validated tuple of stages for one plan."""

    mode: str
    stages: Tuple[Stage, ...]

    def stage_names(self) -> Tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)


def build_pipeline(plan: "QueryPlan", sharded: bool) -> ExecutionPipeline:
    """The stage list executing ``plan`` on the given executor kind."""
    from .config import Mode

    if plan.mode is Mode.INDEXED:
        stages: Tuple[Stage, ...] = (TraverseStage(), IndexedSearchStage())
    elif plan.mode is Mode.JOINT:
        # Refine is the one stage that differs: scattered by user-row
        # range when sharded, the central per-k derivation on one
        # engine (both memoize per k on the pool).
        refine = RefineStage() if sharded else DeriveThresholdsStage()
        stages = (TraverseStage(), refine, SelectStage())
    else:  # baseline: per-user top-k phase 1, fused per-query phase 2
        stages = (BaselineTopkStage(), SelectStage())
    return ExecutionPipeline(mode=plan.mode.value, stages=stages)


class BaselineTopkStage(Stage):
    """Baseline phase 1 (central): per-user top-k scans per distinct k."""

    name = "baseline-topk"
    inputs = ("engine", "plan", "queries")
    outputs = ("keyed", "shared_by_key")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _compute_shared_baseline

        engine = ctx.require("engine")
        mode = ctx.require("plan").mode.value
        cache = engine._shared_topk_cache

        def shared_for(k: int):
            if (mode, k) not in cache:
                cache[mode, k] = _compute_shared_baseline(engine, k)
            return cache[mode, k]

        ctx["keyed"], ctx["shared_by_key"] = _key_queries(
            mode, ctx.require("queries"), shared_for
        )


class DeriveThresholdsStage(Stage):
    """Local joint phase 1b (central): per-k thresholds off the pool.

    The unscattered refine: Algorithm 2 over the full user set,
    memoized per k on the engine's pool (``pool.by_k``) — value- and
    hit-count-compatible with the pre-pipeline batch path.
    """

    name = "refine"
    inputs = ("engine", "plan", "queries", "pool_state")
    outputs = ("keyed", "shared_by_key")

    def run_central(self, ctx: FlushContext) -> None:
        from .batch import _derive_shared_topk

        engine = ctx.require("engine")
        plan = ctx.require("plan")
        pool = ctx.require("pool_state")
        ctx["keyed"], ctx["shared_by_key"] = _key_queries(
            plan.mode.value, ctx.require("queries"),
            lambda k: _derive_shared_topk(engine, pool, k),
        )


# ----------------------------------------------------------------------
# The scatter round: lanes, transports, one loop
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Lane:
    """One addressed unit of a scatter round."""

    wire_id: int             # lane index: which host answers
    payloads: List[tuple]
    dataset: object          # what an inline or degraded run executes against
    context: object = None   # ... and its worker context (MIUR-tree / engine)

    def run_inprocess(self) -> list:
        return [
            execute_shard_payload(self.dataset, payload, context=self.context)
            for payload in self.payloads
        ]


@dataclass(slots=True)
class Ticket:
    """One dispatched lane; the transport fills the round's counters."""

    lane: Lane
    handle: object = None    # transport-private in-flight state
    retries: int = 0         # re-dispatches / re-scatters the ladder used
    bytes_out: int = 0       # serialized bytes sent (re-sends included)
    bytes_in: int = 0        # serialized bytes received


class Transport(Protocol):
    """Where the lanes of a scatter round run (see the module docstring)."""

    #: Payloads leave the process: arena-encoded going out,
    #: gather-decoded coming back, bytes counted.
    remote: bool
    #: Lanes can run ``indexed_search`` payloads (the far side holds
    #: the MIUR-tree as worker context).
    serves_indexed: bool

    def lanes(self) -> int:
        """Fixed lanes a round deals its payloads over."""

    def dispatch(self, lanes: Sequence[Lane]) -> List[Ticket]:
        """Start every lane of one round.  Never raises
        :class:`ScatterFailure`: a failed start is :meth:`collect`'s to
        recover."""

    def collect(self, ticket: Ticket) -> list:
        """One lane's chunks, through this transport's recovery ladder;
        raises :class:`ScatterFailure` once the ladder is exhausted."""


class InlineTransport:
    """Lanes run in the calling process: no wire, no recovery ladder."""

    remote = False
    serves_indexed = True

    def lanes(self) -> int:
        return 1

    def dispatch(self, lanes: Sequence[Lane]) -> List[Ticket]:
        return [Ticket(lane) for lane in lanes]

    def collect(self, ticket: Ticket) -> list:
        return ticket.lane.run_inprocess()


INLINE = InlineTransport()


def run_round(
    stage: "Stage", lanes: Sequence[Lane], transport: Transport, codec=None
) -> Tuple[List[list], List[int], List[int], int, int]:
    """THE scatter round — the only place a round is dispatched and
    collected: encode, start every lane, then collect each through the
    transport's ladder, re-running a lost lane in-process.

    Returns ``(chunks per lane, retries per lane, degraded (0/1) per
    lane, bytes out, bytes in)``.  ``codec`` is the engine's arena
    codec (``None``: payloads cross as plain pickles).
    """
    if transport.remote and codec is not None:
        for lane in lanes:
            lane.payloads = [
                _wire.encode_shard_payload(codec, p) for p in lane.payloads
            ]
    # Everything is dispatched before anything is collected, so lanes
    # run concurrently on their hosts.
    tickets = transport.dispatch(lanes)
    returned: List[list] = []
    degraded: List[int] = []
    for ticket in tickets:
        try:
            chunks = transport.collect(ticket)
        except ScatterFailure as exc:
            # execute_shard_payload is pure and its decode funnel
            # resolves arena refs in the parent too: the same payloads
            # in-process merge to the unchanged answer.
            _log.warning(
                "degrading %s round in-process: lane=%d retries_used=%d "
                "reason=%r", stage.name, ticket.lane.wire_id, ticket.retries,
                exc,
            )
            returned.append(ticket.lane.run_inprocess())
            degraded.append(1)
            continue
        if transport.remote:
            chunks = [_wire.decode_gather_payload(c) for c in chunks]
        returned.append(chunks)
        degraded.append(0)
    return (
        returned,
        [ticket.retries for ticket in tickets],
        degraded,
        sum(ticket.bytes_out for ticket in tickets),
        sum(ticket.bytes_in for ticket in tickets),
    )


# ----------------------------------------------------------------------
# Executors (lane builders)
# ----------------------------------------------------------------------

class _ExecutorBase:
    """Shared drive loop: wiring validation + per-stage accounting."""

    def _drive(self, pipeline: ExecutionPipeline, ctx: FlushContext) -> List[MaxBRSTkNNResult]:
        report = FlushReport(mode=pipeline.mode, batch_size=len(ctx["queries"]))
        io = ctx.get("io_counter")
        for stage in pipeline.stages:
            for slot in stage.inputs:
                if slot not in ctx:
                    raise RuntimeError(
                        f"stage {stage.name!r} needs slot {slot!r} which no "
                        f"upstream stage produced (pipeline "
                        f"{pipeline.stage_names()})"
                    )
            before = io.snapshot() if io is not None else None
            t0 = time.perf_counter()
            if stage.scatter:
                (width, items, retries, degraded,
                 bytes_out, bytes_in) = self._run_scatter(stage, ctx)
            else:
                stage.run_central(ctx)
                width, items, retries, degraded = 1, len(ctx["queries"]), 0, 0
                bytes_out = bytes_in = 0
            stats = StageStats(
                stage=stage.name,
                items=items,
                scatter_width=width,
                time_s=time.perf_counter() - t0,
                retries=retries,
                degraded=degraded,
                payload_bytes_out=bytes_out,
                payload_bytes_in=bytes_in,
            )
            if io is not None:
                delta = io.snapshot() - before
                stats.io_node_visits = delta.node_visits
                stats.io_invfile_blocks = delta.invfile_blocks
            report.stages.append(stats)
            for slot in stage.outputs:
                if slot not in ctx:
                    raise RuntimeError(
                        f"stage {stage.name!r} declared output {slot!r} but "
                        "did not produce it"
                    )
            # Scratch slots are split->merge plumbing, not products:
            # drop them so downstream stages can only see declared
            # outputs (keeps the declared contract enforceable).
            for slot in stage.scratch:
                ctx.pop(slot, None)
        self.last_flush_report = report
        return ctx.require("results")

    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        """Run one scatter stage: ``(width, items, retries, degraded,
        payload_bytes_out, payload_bytes_in)``."""
        raise NotImplementedError

    def _deal(
        self, stage: Stage, ctx: FlushContext, payloads: List[tuple],
        transport: Transport, dataset, context,
    ) -> Tuple[list, List[int], List[int], List[int], int, int]:
        """Deal ``payloads`` over the transport's lanes and run the round.

        A lane is fixed up front, so each payload goes to the lane
        carrying the least work so far (``stage.weight``; lanes fill in
        order: no gaps).  Returns ``(chunks in payload order, lane of
        each payload, retries per lane, degraded (0/1) per lane, bytes
        out, bytes in)``.
        """
        n_lanes = transport.lanes()
        load = [0] * n_lanes
        lane_of: List[int] = []
        for payload in payloads:
            lane_of.append(load.index(min(load)))
            load[lane_of[-1]] += stage.weight(payload)
        engaged = sorted(set(lane_of))
        lanes = [
            Lane(at, [p for p, to in zip(payloads, lane_of) if to == at],
                 dataset, context)
            for at in engaged
        ]
        returned, used, lost, bytes_out, bytes_in = run_round(
            stage, lanes, transport,
            getattr(ctx.require("engine"), "payload_codec", None),
        )
        retries, degraded = [0] * n_lanes, [0] * n_lanes
        for at, lane_retries, lane_lost in zip(engaged, used, lost):
            retries[at], degraded[at] = lane_retries, lane_lost
        answered = dict(zip(engaged, map(iter, returned)))
        return ([next(answered[at]) for at in lane_of], lane_of,
                retries, degraded, bytes_out, bytes_in)

    def _scatter_queries(
        self, stage: Stage, ctx: FlushContext, transport: Transport,
        dataset, context,
    ) -> Tuple[int, int, int, int, int, int]:
        """One query-axis round over the transport's whole width:
        ``split`` deals select's queries into balanced payloads whatever
        their k, and chunks indexed-search's per k — uneven chunks for
        :meth:`_deal` to level."""
        payloads = stage.split(ctx, transport.lanes())
        chunks, lane_of, retries, degraded, bytes_out, bytes_in = self._deal(
            stage, ctx, payloads, transport, dataset, context
        )
        stage.merge(ctx, chunks)
        return (len(set(lane_of)), len(ctx.require("queries")),
                sum(retries), sum(degraded), bytes_out, bytes_in)


class LocalExecutor(_ExecutorBase):
    """Drives the pipeline on one engine, in this process.

    Only the query axis scatters here (the refine is the central
    derivation), and only over :data:`INLINE`: ``select`` and
    ``indexed-search`` run as one inline round, the latter ledger-free
    (the best-first search reads the engine's own page store).
    """

    def __init__(self, engine: "MaxBRSTkNNEngine") -> None:
        self.engine = engine
        self.last_flush_report: Optional[FlushReport] = None

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        engine = self.engine
        ctx = FlushContext(
            engine=engine,
            plan=plan,
            queries=list(queries),
            io_counter=engine.io,
            store=engine.store,
            users_total=len(engine.user_tree) if engine.user_tree is not None else 0,
        )
        pipeline = build_pipeline(plan, sharded=False)
        return self._drive(pipeline, ctx)

    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        engine = self.engine
        # Ledger-free indexed chunks take the ENGINE as their context.
        context = engine if stage.name == "indexed-search" else engine.user_tree
        return self._scatter_queries(stage, ctx, INLINE, engine.dataset, context)


class ShardedExecutor(_ExecutorBase):
    """Drives the pipeline over a :class:`~repro.serve.sharded.ShardedEngine`.

    Every scatter stage deals its payloads over the same full-dataset
    lanes: the refine one user-row range per configured lane
    (``num_shards``), the query-axis stages their payloads (select one
    per host, indexed-search per-k chunks).  ``transport`` is
    :data:`INLINE` until the engine's ``start_pools`` /
    ``connect_hosts`` swap in the socket one.  Refine results
    memoize on the engine across flushes, so a warm flush is one round.
    """

    def __init__(self, sharded) -> None:
        self.sharded = sharded
        self.transport: Transport = INLINE
        self.last_flush_report: Optional[FlushReport] = None

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        from .config import Mode

        sharded = self.sharded
        root = sharded.root
        ctx = FlushContext(
            engine=root,
            plan=plan,
            queries=list(queries),
            io_counter=root.io,
            merged_by_k=sharded._merged_by_k,
            store=root.store,
            users_total=len(root.user_tree) if root.user_tree is not None else 0,
        )
        if plan.mode is Mode.JOINT:
            ctx["need_ks"] = [
                k for k in plan.distinct_ks if k not in sharded._merged_by_k
            ]
        pipeline = build_pipeline(plan, sharded=True)
        return self._drive(pipeline, ctx)

    def _run_scatter(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        if stage.name == "refine":
            return self._scatter_refine(stage, ctx)
        return self._scatter_search(stage, ctx)

    def _scatter_refine(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        sharded = self.sharded
        items = len(ctx.require("need_ks"))
        if not items:
            # every k already merged (memoized across flushes): no
            # round, merge only keys the queries to the memoized state
            stage.merge(ctx, [])
            return 0, 0, 0, 0, 0, 0
        payloads = stage.split(ctx, sharded.config.num_shards)
        chunks, lane_of, retries, degraded, bytes_out, bytes_in = self._deal(
            stage, ctx, payloads, self.transport, sharded.dataset, None
        )
        for stats, chunk, at in zip(sharded.lane_stats, chunks, lane_of):
            stats.scatter_flushes += 1
            stats.queue_depth_peak = max(stats.queue_depth_peak, items)
            stats.retries += retries[at]
            stats.degraded_rounds += degraded[at]
            stats.refine_tasks += items
            stats.refine_time_s += sum(p.time_s for p in chunk)
        # The one cross-lane merge: what gather_stats() reports.
        t_merge = time.perf_counter()
        stage.merge(ctx, chunks)
        sharded._merge_s += time.perf_counter() - t_merge
        return (len(payloads), items, sum(retries), sum(degraded),
                bytes_out, bytes_in)

    def _scatter_search(
        self, stage: Stage, ctx: FlushContext
    ) -> Tuple[int, int, int, int, int, int]:
        from .planner import search_fans_out

        sharded = self.sharded
        root = sharded.root
        plan = ctx.require("plan")
        indexed = stage.name == "indexed-search"
        transport = self.transport
        width = transport.lanes() if transport.serves_indexed or not indexed else 0
        # Fan out only when it can pay off AND I/O stays replayable:
        # the indexed search reads MIUR pages, so a warm LRU buffer
        # (global access order) forces the inline, ledger-free path.
        fan_out = (
            transport.remote
            and search_fans_out(width, len(ctx.require("queries")), plan.shard)
            and (not indexed or root.store.buffer is None)
        )
        ctx["use_ledgers"] = fan_out and indexed
        t0 = time.perf_counter()
        if fan_out:
            sharded._search_flushes += 1
        # Ledger-free indexed chunks take the ENGINE as their context.
        context = root if indexed and not fan_out else root.user_tree
        accounting = self._scatter_queries(
            stage, ctx, transport if fan_out else INLINE, sharded.dataset, context
        )
        sharded._search_s += time.perf_counter() - t0
        return accounting
