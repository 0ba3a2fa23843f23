"""A flush, one function per mode, and ONE scatter round over lanes.

A flush runs the paper's phases in a fixed order, one executor method
per mode, each phase handing its products to the next as arguments and
recording one :class:`StageStats` (wall time, simulated I/O, scatter
width and round counters) on the flush's :class:`FlushReport`:

* ``joint``    — traverse → refine → select.  Traverse is Algorithm 1's
  one cross-k walk (or its memoized pool).  Refine is Algorithm 2: the
  central per-k derivation on one engine, a scatter of user-row ranges
  on a sharded one (per-user work, disjoint ``RSk(u)`` union).  Select
  is Algorithm 3 whole per query on BOTH — its keyword-coverage counts
  sum over all of ``LU_l``, so it is dealt by query, never by user.
* ``indexed``  — traverse → indexed-search.  Section 7: every per-k
  quantity derives pool-independently from one ``k_max`` MIUR-root walk
  (:mod:`repro.core.indexed_users`), and fanned-out searches run
  against read-only :meth:`~repro.storage.pager.PageStore.ledger_view`
  stores whose :class:`~repro.storage.pager.IOCharge` ledgers replay
  onto the engine's counter at gather time.
* ``baseline`` — baseline-topk → select (local only; per-user top-k
  scans, no mergeable group traversal).

The paper's two O(|U|) phases — Algorithm 2's per-user ``RSk(u)``
refine and Algorithm 3's candidate selection (with Section 7's search
in its place) — are the only things ever scattered.  Each scattered
phase is a payload builder and a gather around the ONE worker entry,
:func:`execute_shard_payload` (called by shard hosts and in-process
execution alike)::

    refine_payloads  -> execute_shard_payload -> merge_refine
    select_payloads  -> execute_shard_payload -> merge_select
    indexed_payloads -> execute_shard_payload -> merge_indexed

Builders cut the work — ranges of user rows, chunks of queries — and
each payload goes to the lane carrying the least work so far; every
round then goes through ONE loop, :func:`run_round`::

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

Two executors run flushes.  :class:`LocalExecutor` (one engine) runs
the central refine and every query-axis round inline, indexed-search
ledger-free (the best-first search reads the engine's own page store).
:class:`ShardedExecutor` scatters the refine by user-row range over the
engine's lanes and fans a query-axis round out over its alive shard
hosts when the planner says it pays (its ``transport`` is swapped by
``ShardedEngine.start_pools`` / ``connect_hosts``) — the only owner of
worker processes.

Result identity is the invariant throughout: results, I/O traces and
selection stats equal the single sequential engine's across
``{joint, indexed}`` × lane counts × mixed-k × transports
(``tests/core/test_pipeline.py``,
``tests/serve/test_sharded.py``, ``tests/serve/test_multihost.py``).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Protocol,
    Sequence, Tuple,
)

# The payload funnels are called through the module attribute (never
# imported by name) so a wrapper installed on ``repro.core.payload``
# sees every call.
from . import payload as _wire
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import SharedTopK
    from .engine import MaxBRSTkNNEngine
    from .planner import QueryPlan

_log = logging.getLogger("repro.core.pipeline")

__all__ = [
    "ScatterFailure",
    "StageStats",
    "FlushReport",
    "refine_payloads",
    "merge_refine",
    "select_payloads",
    "merge_select",
    "indexed_payloads",
    "merge_indexed",
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
    #: Frame bytes this stage's round moved to and from the lanes'
    #: shard hosts, on every lane kind: payload frames out (re-sends
    #: included), answer frames in.  0 for a round run inline (the
    #: payloads never leave the process, no frame is built).
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
# Payload builders and gathers of the scattered phases
# ----------------------------------------------------------------------

def user_row_ranges(n_users: int, n_lanes: int) -> List[Tuple[int, int]]:
    """``n_lanes`` contiguous half-open row ranges covering
    ``range(n_users)`` exactly once, as evenly as ``i * n_users //
    n_lanes`` cuts (lanes beyond ``n_users`` get empty ranges)."""
    cuts = [i * n_users // n_lanes for i in range(n_lanes + 1)]
    return list(zip(cuts, cuts[1:]))


def _per_query(queries: Sequence[MaxBRSTkNNQuery], shared_for) -> List["SharedTopK"]:
    """Each query's phase-1 state — ``shared_for(k)``, one object per k
    — counting one hit per query."""
    shared = []
    for query in queries:
        entry = shared_for(query.k)
        entry.hits += 1
        shared.append(entry)
    return shared


def refine_payloads(traversal, ks: Sequence[int], n_users: int, width: int) -> List[tuple]:
    """Phase 1b's scatter over user-row ranges: one refine payload per
    lane, each carrying the shared pool, every missing k — one
    refinement at the largest serves them all — and its range of
    ``dataset.users`` rows."""
    return [
        ("refine", traversal, ks, lane, None, lo, hi)
        for lane, (lo, hi) in enumerate(user_row_ranges(n_users, width))
    ]


def merge_refine(
    chunks: Sequence[list], ks: Sequence[int], users, merged_by_k: dict,
    pool, group_by_k: Dict[int, float], queries: Sequence[MaxBRSTkNNQuery],
) -> List["SharedTopK"]:
    """Gather a refine round, and each query's phase-1 state from it.

    ``chunks`` answer :func:`refine_payloads`, in order: the disjoint
    per-lane ``RSk(u)`` vectors concatenate back into the
    sequential-identical vector per k, by user row
    (:func:`repro.core.partial.merge_partials`, which refuses a user
    reported twice or not at all), stored in ``merged_by_k``.  Returns
    what the select phase reads: per query, the one
    :class:`~repro.core.batch.SharedTopK` of its k over the merged
    vector.  That state is memoized in the traversal pool's ``by_k`` —
    so it lives exactly as long as the walk whose time and I/O it
    reports, and warm flushes hand the codec the same object to
    delta-ship.  With no chunks (every k already merged) it only
    hands out the memoized states.
    """
    from .batch import SharedTopK
    from .partial import merge_partials

    by_k: Dict[int, list] = {k: [] for k in ks}
    for partial in (p for chunk in chunks for p in chunk):
        by_k[partial.k].append(partial)
    for k in ks:
        merged_by_k[k] = merge_partials(by_k[k], users)

    def shared_for(k: int):
        entry = pool.by_k.get(k)
        if entry is None:
            entry = pool.by_k[k] = SharedTopK(
                rsk=merged_by_k[k].rsk,
                rsk_group=group_by_k[k],
                topk_time_s=pool.topk_time_s + merged_by_k[k].time_s,
                io_node_visits=pool.io_node_visits,
                io_invfile_blocks=pool.io_invfile_blocks,
            )
        return entry

    return _per_query(queries, shared_for)


def select_payloads(
    queries: Sequence[MaxBRSTkNNQuery], shared: Sequence["SharedTopK"],
    plan: "QueryPlan", width: int,
) -> Tuple[List[tuple], List[List[int]]]:
    """Phase 2's scatter over queries: Algorithm 3 whole, one answer per
    query.  ``(payloads, query indices of each payload)``.

    The flush's queries are dealt into ``min(width, n)`` payloads whose
    sizes differ by at most one, whatever their k: ``k`` only changes
    the thresholds Algorithm 3 reads, so a payload carries each query's
    own ``shared[i]`` (queries of one k share the object, which the
    codec ships once — a delta-shipped arena reference on warm flushes)
    and answers its queries as one stacked selection per keyword side.
    Queries are ordered by keyword side before the cut, so a side's
    queries share payloads — and thereby selection contexts — where
    they can.
    """
    from .candidate_selection import _keyword_side

    by_side: Dict[tuple, List[int]] = {}
    for i, query in enumerate(queries):
        by_side.setdefault(_keyword_side(query), []).append(i)
    order = [i for members in by_side.values() for i in members]
    index_groups = [
        order[lo:hi]
        for lo, hi in user_row_ranges(len(order), max(1, min(width, len(order))))
    ]
    payloads = [
        ("select", [queries[i] for i in chunk],
         tuple(shared[i] for i in chunk),
         plan.mode.value, plan.method.value)
        for chunk in index_groups
    ]
    return payloads, index_groups


def merge_select(index_groups: Sequence[List[int]], chunks: Sequence[list]) -> list:
    """Gather a query-axis round: ``chunks`` answer the payloads whose
    query indices ``index_groups`` lists; results come back in flush
    order."""
    results: list = [None] * sum(len(indices) for indices in index_groups)
    for indices, group in zip(index_groups, chunks):
        for i, result in zip(indices, group):
            results[i] = result
    return results


def indexed_payloads(
    queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan", pool,
    group_by_k: Dict[int, float], users_total: int, width: int, store=None,
) -> Tuple[List[tuple], List[List[int]]]:
    """Section 7's scatter over queries: best-first MIUR searches.
    ``(payloads, query indices of each payload)``.

    Queries chunk per k (the traversal pool pickles once per chunk).
    Fan-out passes ``store``: each query then gets its own read-only
    ledger view of it.  ``store=None`` is the in-process form, which
    charges the real store and builds no views — a warm LRU buffer
    forbids them.
    """
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
                [store.ledger_view() for _ in chunk] if store is not None else None
            )
            payloads.append(
                ("indexed_search", [queries[i] for i in chunk], views,
                 traversal, group_by_k[k], users_total,
                 pool.topk_time_s, pool.io_node_visits,
                 pool.io_invfile_blocks, plan.method.value)
            )
            index_groups.append(chunk)
    return payloads, index_groups


def merge_indexed(
    index_groups: Sequence[List[int]], chunks: Sequence[list], io_counter,
) -> List[MaxBRSTkNNResult]:
    """Gather an indexed-search round: results in flush order, and every
    :class:`~repro.storage.pager.IOCharge` replayed onto the engine's
    shared counter in query order, reproducing the sequential totals
    exactly."""
    answers = merge_select(index_groups, chunks)
    # Replay ledgers in query order: addition commutes, so the
    # shared counter ends exactly where sequential execution would.
    for _, charge in answers:
        if charge is not None:
            charge.apply(io_counter)
    return [result for result, _ in answers]


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
    phase: str, lanes: Sequence[Lane], transport: Transport, codec=None
) -> Tuple[List[list], List[int], List[int], int, int]:
    """THE scatter round — the only place a round is dispatched and
    collected: encode, start every lane, then collect each through the
    transport's ladder, re-running a lost lane in-process.

    Returns ``(chunks per lane, retries per lane, degraded (0/1) per
    lane, bytes out, bytes in)``.  ``phase`` names the round in logs;
    ``codec`` is the engine's arena codec (``None``: payloads cross as
    plain pickles).
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
                "reason=%r", phase, ticket.lane.wire_id, ticket.retries,
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
# Executors: one method per mode, phases timed into the flush report
# ----------------------------------------------------------------------

@contextmanager
def _phase(report: FlushReport, name: str, io, items: int) -> Iterator[StageStats]:
    """Time one phase into a :class:`StageStats` appended to ``report``:
    its wall time and the simulated I/O it charged to ``io``.  A
    scattered phase fills its round's width and counters in on the
    yielded stats."""
    stats = StageStats(stage=name, items=items)
    before = io.snapshot()
    t0 = time.perf_counter()
    yield stats
    stats.time_s = time.perf_counter() - t0
    delta = io.snapshot() - before
    stats.io_node_visits = delta.node_visits
    stats.io_invfile_blocks = delta.invfile_blocks
    report.stages.append(stats)


class _DealtRound(NamedTuple):
    """One dealt scatter round, as :func:`_deal` returns it."""

    chunks: list            # answers, in payload order
    lane_of: List[int]      # the lane each payload ran on
    retries: List[int]      # per lane
    degraded: List[int]     # per lane (0/1)
    bytes_out: int
    bytes_in: int

    def record(self, stats: StageStats, width: int) -> None:
        """Put the round's width and counters on its phase's stats."""
        stats.scatter_width = width
        stats.retries = sum(self.retries)
        stats.degraded = sum(self.degraded)
        stats.payload_bytes_out = self.bytes_out
        stats.payload_bytes_in = self.bytes_in


def _deal(
    phase: str, payloads: List[tuple], weights: Sequence[int],
    transport: Transport, dataset, context=None, codec=None,
) -> _DealtRound:
    """Deal ``payloads`` over the transport's lanes and run the round.

    A lane is fixed up front, so each payload goes to the lane carrying
    the least work so far (``weights[i]``: payload ``i``'s queries or
    user rows; lanes fill in order: no gaps).  ``dataset`` / ``context``
    are what a lane run inline or degraded executes against; ``codec``
    as for :func:`run_round`.
    """
    n_lanes = transport.lanes()
    load = [0] * n_lanes
    lane_of: List[int] = []
    for weight in weights:
        lane_of.append(load.index(min(load)))
        load[lane_of[-1]] += weight
    engaged = sorted(set(lane_of))
    lanes = [
        Lane(at, [p for p, to in zip(payloads, lane_of) if to == at],
             dataset, context)
        for at in engaged
    ]
    returned, used, lost, bytes_out, bytes_in = run_round(
        phase, lanes, transport, codec
    )
    retries, degraded = [0] * n_lanes, [0] * n_lanes
    for at, lane_retries, lane_lost in zip(engaged, used, lost):
        retries[at], degraded[at] = lane_retries, lane_lost
    answered = dict(zip(engaged, map(iter, returned)))
    return _DealtRound([next(answered[at]) for at in lane_of], lane_of,
                       retries, degraded, bytes_out, bytes_in)


def _traverse(report: FlushReport, engine, queries, plan: "QueryPlan"):
    """Phase 1a (central): ensure the cross-k pool, derive group
    thresholds.  ``(pool, group threshold by k)``.

    Joint mode walks (or reuses) the engine's
    :class:`~repro.core.batch.SharedTraversalPool`; indexed mode the
    MIUR-root :class:`~repro.core.indexed_users.RootTraversal` pool.
    Either way ONE tree walk per pool generation serves every k in the
    batch — ``plan.shared_traversal_k`` names it.
    """
    from .batch import _ensure_traversal_pool
    from .config import Mode
    from .indexed_users import ensure_root_pool

    with _phase(report, "traverse", engine.io, len(queries)):
        assert plan.shared_traversal_k is not None
        if plan.mode is Mode.INDEXED:
            pool = ensure_root_pool(engine, plan.shared_traversal_k)
        else:
            pool = _ensure_traversal_pool(engine, plan.shared_traversal_k)
        pool.hits += len(queries)
        # Both pool kinds memoize the per-k derivation, so repeat
        # flushes pay a dict hit, not a pass over the pool.
        group_by_k = {k: pool.rsk_group_for(k) for k in plan.distinct_ks}
    return pool, group_by_k


def _baseline_topk(report: FlushReport, engine, queries, plan: "QueryPlan"):
    """Baseline phase 1 (central): per-user top-k scans per distinct k,
    cached on the engine.  Each query's phase-1 state."""
    from .batch import _compute_shared_baseline

    mode = plan.mode.value
    cache = engine._shared_topk_cache

    def shared_for(k: int):
        if (mode, k) not in cache:
            cache[mode, k] = _compute_shared_baseline(engine, k)
        return cache[mode, k]

    with _phase(report, "baseline-topk", engine.io, len(queries)):
        return _per_query(queries, shared_for)


class _Executor:
    """Runs one planned flush: one method per mode, each a fixed
    sequence of phases.  Subclasses say how the refine runs and where a
    query-axis round goes (:meth:`_search_transport`)."""

    engine: "MaxBRSTkNNEngine"  # pools, page store, I/O counter, codec
    dataset: object             # what inline and degraded lanes run against
    last_flush_report: Optional[FlushReport]

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        from .config import Mode

        queries = list(queries)
        report = FlushReport(mode=plan.mode.value, batch_size=len(queries))
        if plan.mode is Mode.JOINT:
            results = self._joint(report, queries, plan)
        elif plan.mode is Mode.INDEXED:
            results = self._indexed(report, queries, plan)
        else:
            results = self._baseline(report, queries, plan)
        self.last_flush_report = report
        return results

    def _joint(self, report, queries, plan) -> List[MaxBRSTkNNResult]:
        """traverse → refine → select."""
        pool, group_by_k = _traverse(report, self.engine, queries, plan)
        shared = self._refine(report, queries, plan, pool, group_by_k)
        return self._select(report, queries, shared, plan)

    def _indexed(self, report, queries, plan) -> List[MaxBRSTkNNResult]:
        """traverse → indexed-search."""
        pool, group_by_k = _traverse(report, self.engine, queries, plan)
        return self._indexed_search(report, queries, plan, pool, group_by_k)

    def _baseline(self, report, queries, plan) -> List[MaxBRSTkNNResult]:
        """baseline-topk → select."""
        shared = _baseline_topk(report, self.engine, queries, plan)
        return self._select(report, queries, shared, plan)

    def _refine(self, report, queries, plan, pool, group_by_k) -> List["SharedTopK"]:
        """Phase 1b: exact ``RSk(u)`` per k; each query's phase-1 state."""
        raise NotImplementedError

    def _search_transport(self, n_queries: int, indexed: bool) -> Transport:
        """Where this flush's query-axis round runs."""
        raise NotImplementedError

    def _query_round(
        self, stats: StageStats, phase: str, payloads: List[tuple],
        transport: Transport, context,
    ) -> list:
        dealt = _deal(
            phase, payloads, [len(p[1]) for p in payloads], transport,
            self.dataset, context, self.engine.payload_codec,
        )
        dealt.record(stats, len(set(dealt.lane_of)))
        return dealt.chunks

    def _select(self, report, queries, shared, plan) -> List[MaxBRSTkNNResult]:
        """Phase 2 (query axis): Algorithm 3 whole, one answer per query
        (``items`` counts queries, however a payload stacks them)."""
        engine = self.engine
        with _phase(report, "select", engine.io, len(queries)) as stats:
            transport = self._search_transport(len(queries), indexed=False)
            payloads, index_groups = select_payloads(
                queries, shared, plan, transport.lanes()
            )
            chunks = self._query_round(
                stats, "select", payloads, transport, engine.user_tree
            )
            return merge_select(index_groups, chunks)

    def _indexed_search(self, report, queries, plan, pool, group_by_k) -> List[MaxBRSTkNNResult]:
        """Indexed phase 2 (query axis): best-first MIUR searches, each
        query's simulated I/O replayed in query order."""
        engine = self.engine
        with _phase(report, "indexed-search", engine.io, len(queries)) as stats:
            transport = self._search_transport(len(queries), indexed=True)
            # Fan-out reads ledger views against the inherited MIUR-tree;
            # in-process the chunks read the engine's own store and take
            # the ENGINE as their context.
            fan_out = transport.remote
            payloads, index_groups = indexed_payloads(
                queries, plan, pool, group_by_k,
                len(engine.user_tree) if engine.user_tree is not None else 0,
                transport.lanes(), store=engine.store if fan_out else None,
            )
            chunks = self._query_round(
                stats, "indexed-search", payloads, transport,
                engine.user_tree if fan_out else engine,
            )
            return merge_indexed(index_groups, chunks, engine.io)


class LocalExecutor(_Executor):
    """Runs a flush on one engine, in this process.

    The refine is the central derivation, and the query-axis round runs
    over :data:`INLINE`: ``select`` and ``indexed-search`` as one inline
    round, the latter ledger-free (the best-first search reads the
    engine's own page store).
    """

    def __init__(self, engine: "MaxBRSTkNNEngine") -> None:
        self.engine = engine
        self.dataset = engine.dataset
        self.last_flush_report: Optional[FlushReport] = None

    def _refine(self, report, queries, plan, pool, group_by_k) -> List["SharedTopK"]:
        """The unscattered refine: Algorithm 2 over the full user set,
        memoized per k on the engine's pool (``pool.by_k``)."""
        from .batch import _derive_shared_topk

        engine = self.engine
        with _phase(report, "refine", engine.io, len(queries)):
            return _per_query(
                queries, lambda k: _derive_shared_topk(engine, pool, k)
            )

    def _search_transport(self, n_queries: int, indexed: bool) -> Transport:
        return INLINE


class ShardedExecutor(_Executor):
    """Runs a flush over a :class:`~repro.serve.sharded.ShardedEngine`.

    Every scattered phase deals its payloads over the same full-dataset
    lanes: the refine one user-row range per configured lane
    (``num_shards``), the query-axis phase its payloads (select one
    per host, indexed-search per-k chunks).  ``transport`` is
    :data:`INLINE` until the engine's ``start_pools`` /
    ``connect_hosts`` swap in the socket one.  Refine results
    memoize on the engine across flushes, so a warm flush is one round.
    """

    def __init__(self, sharded) -> None:
        self.sharded = sharded
        self.transport: Transport = INLINE
        self.last_flush_report: Optional[FlushReport] = None

    @property
    def engine(self) -> "MaxBRSTkNNEngine":
        return self.sharded.root

    @property
    def dataset(self):
        return self.sharded.dataset

    def execute(self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan") -> List[MaxBRSTkNNResult]:
        results = super().execute(queries, plan)
        # The query-axis phase ends every sharded flush (joint, indexed).
        self.sharded._search_s += self.last_flush_report.stages[-1].time_s
        return results

    def _refine(self, report, queries, plan, pool, group_by_k) -> List["SharedTopK"]:
        """Phase 1b scattered over user-row ranges, for every k no
        earlier flush merged."""
        sharded = self.sharded
        merged_by_k = sharded._merged_by_k
        users = sharded.dataset.users
        need_ks = [k for k in plan.distinct_ks if k not in merged_by_k]
        items = len(need_ks)
        with _phase(report, "refine", self.engine.io, items) as stats:
            if not items:
                # every k already merged (memoized across flushes): no
                # round, the merge only hands out the memoized state
                stats.scatter_width = 0
                return merge_refine(
                    [], need_ks, users, merged_by_k, pool, group_by_k, queries
                )
            payloads = refine_payloads(
                pool.traversal, need_ks, len(users), sharded.config.num_shards
            )
            dealt = _deal(
                "refine", payloads, [p[6] - p[5] for p in payloads],
                self.transport, sharded.dataset, None, self.engine.payload_codec,
            )
            dealt.record(stats, len(payloads))
            for lane, chunk, at in zip(sharded.lane_stats, dealt.chunks, dealt.lane_of):
                lane.scatter_flushes += 1
                lane.queue_depth_peak = max(lane.queue_depth_peak, items)
                lane.retries += dealt.retries[at]
                lane.degraded_rounds += dealt.degraded[at]
                lane.refine_tasks += items
                lane.refine_time_s += sum(p.time_s for p in chunk)
            # The one cross-lane merge: what gather_stats() reports.
            t_merge = time.perf_counter()
            shared = merge_refine(
                dealt.chunks, need_ks, users, merged_by_k, pool, group_by_k,
                queries,
            )
            sharded._merge_s += time.perf_counter() - t_merge
            return shared

    def _search_transport(self, n_queries: int, indexed: bool) -> Transport:
        from .planner import search_fans_out

        transport = self.transport
        width = transport.lanes() if transport.serves_indexed or not indexed else 0
        # Fan out only when it can pay off AND I/O stays replayable:
        # the indexed search reads MIUR pages, so a warm LRU buffer
        # (global access order) forces the inline, ledger-free path.
        fan_out = (
            transport.remote
            and search_fans_out(width, n_queries)
            and (not indexed or self.engine.store.buffer is None)
        )
        if not fan_out:
            return INLINE
        self.sharded._search_flushes += 1
        return transport
