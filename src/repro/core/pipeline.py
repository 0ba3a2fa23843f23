"""A flush, one pipeline, and ONE scatter round over lanes.

A flush runs the paper's phases in a fixed order — traverse → refine →
select — each phase handing its products to the next as arguments and
recording one :class:`StageStats` (wall time, simulated I/O, scatter
width and round counters) on the flush's :class:`FlushReport`.
Traverse is Algorithm 1's one cross-k walk (or its memoized pool).
Refine is Algorithm 2 dealt as ``EngineConfig.num_shards`` user-row
ranges — run inline until a fleet attaches — per-user work whose
``RSk(u)`` vectors merge as a disjoint union.  Select is Algorithm 3
whole per query — its keyword-coverage counts sum over all of
``LU_l``, so it is dealt by query, never by user.

Section 4's baseline (per-user top-k, then an exhaustive scan) and
Section 7's MIUR-tree search are not pipelines: they are reference
code, :func:`repro.core.baseline.baseline_maxbrstknn` and
:func:`repro.oracle.indexed_search`, which tests and the figure
harness (Figures 5 and 15) call directly.

The paper's two O(|U|) phases — Algorithm 2's per-user ``RSk(u)``
refine and Algorithm 3's candidate selection — are the only things
ever scattered.  Each scattered phase is a payload builder and a
gather around the ONE worker entry, :func:`execute_shard_payload`
(called by shard hosts and in-process execution alike)::

    refine_payloads -> execute_shard_payload -> merge_refine
    select_payloads -> execute_shard_payload -> merge_select

Builders cut the work — ranges of user rows, chunks of queries — and
each payload goes to the lane carrying the least work so far; every
round then goes through ONE loop, :func:`run_round`::

    encode -> dispatch every lane -> collect each -> degrade -> decode

A :class:`Lane` is ``(wire id, payloads, degrade dataset)``; every
lane, on every transport, holds the full dataset.  A
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

One :class:`Executor` runs every engine's flushes.  It holds the
engine, the refine's row-range count (``EngineConfig.num_shards``), the
transport (:data:`INLINE` until a
:class:`~repro.serve.sharded.ShardedEngine`'s ``start_pools`` /
``connect_hosts`` swap in the socket one) and the phase-1 memo.  The
refine is always the dealt ``refine_payloads -> merge_refine`` round —
its ranges run inline while no fleet is attached — and a query-axis
round leaves the process only over a remote transport, when the
planner says it pays.  ``MaxBRSTkNNEngine.query`` runs a fresh executor
with the same ranges and transport: its empty memo makes the query
cold by construction.

Result identity is the invariant throughout: results, I/O traces and
selection stats equal the single sequential engine's across lane
counts × mixed-k × transports
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
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .batch import SharedTopK
    from .engine import MaxBRSTkNNEngine
    from .partial import MergedThresholds
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
    "Lane",
    "Ticket",
    "Transport",
    "InlineTransport",
    "INLINE",
    "run_round",
    "user_row_ranges",
    "ShardRuntimeStats",
    "Executor",
    "execute_shard_payload",
]


class ScatterFailure(RuntimeError):
    """A remote scatter round failed to produce results.

    The transport half of the scatter contract: raised (or subclassed —
    see :mod:`repro.serve.errors`) when a lane's hosts could not
    complete a round within the ladder's budget — a host died, the
    round outlived its deadline, the payload raised on every try, no
    host is left.  :func:`run_round` catches exactly this type and
    re-runs the same payloads in-process: ``execute_shard_payload`` is
    pure, so the degraded round is bitwise-identical, only slower.  Genuine task
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

    The ONE implementation behind every transport: shard hosts call it
    with their replica (forked ones inherited it copy-on-write), and
    inline or degraded lanes pass the coordinator's.  ``context`` is
    accepted and unused (the traced benchmark probe passes it).
    Payload kinds:

    * ``("refine", traversal, ks, lane, None, lo, hi)`` —
      Algorithm 2 for rows ``[lo, hi)`` of ``dataset.users`` against
      the shared pool: one refinement at ``max(ks)``, one
      ``PartialResult`` per k read off it.  The pool crosses as id /
      bound columns (object ids are what every replica shares); pool
      and range are checked against ``dataset`` before anything is
      gathered by them.
      (Slot 4 is always ``None``: the traced benchmark probe reads it
      as "which dataset answers", ``None`` meaning the full one.)
    * ``("select", queries, shared, method)`` —
      Algorithm 3 whole, ``shared[i]`` being query ``i``'s phase-1
      state (one ``SharedTopK`` object per k; ``dataset`` = the FULL
      dataset here), either method, as one
      :class:`~repro.core.candidate_selection.SelectionBatch` — the
      queries that share ``(ox.d, W, ws)`` stacked over one selection
      context, whatever their k — one answer per query.
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

        _, queries, shared, method = payload
        return _select_payload(dataset, queries, shared, method)
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

    shared = []
    for k in (query.k for query in queries):
        entry = pool.by_k.get(k)
        if entry is None:
            entry = pool.by_k[k] = SharedTopK(
                rsk=merged_by_k[k].rsk,
                rsk_group=group_by_k[k],
                topk_time_s=pool.topk_time_s + merged_by_k[k].time_s,
                io_node_visits=pool.io_node_visits,
                io_invfile_blocks=pool.io_invfile_blocks,
            )
        entry.hits += 1
        shared.append(entry)
    return shared


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
         tuple(shared[i] for i in chunk), plan.method.value)
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


# ----------------------------------------------------------------------
# The scatter round: lanes, transports, one loop
# ----------------------------------------------------------------------

@dataclass(slots=True)
class Lane:
    """One addressed unit of a scatter round."""

    wire_id: int             # lane index: which host answers
    payloads: List[tuple]
    dataset: object          # what an inline or degraded run executes against

    def run_inprocess(self) -> list:
        return [execute_shard_payload(self.dataset, payload) for payload in self.payloads]


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

    def lanes(self) -> int:
        """Fixed lanes a round deals its payloads over."""

    def hosts(self) -> int:
        """Alive shard hosts the lanes reach (0: the calling process)."""

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

    def lanes(self) -> int:
        return 1

    def hosts(self) -> int:
        return 0

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
# The executor: one pipeline, phases timed into the flush report
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
    transport: Transport, dataset, codec=None,
) -> _DealtRound:
    """Deal ``payloads`` over the transport's lanes and run the round.

    A lane is fixed up front, so each payload goes to the lane carrying
    the least work so far (``weights[i]``: payload ``i``'s queries or
    user rows; lanes fill in order: no gaps).  ``dataset`` is what a
    lane run inline or degraded executes against; ``codec`` as for
    :func:`run_round`.
    """
    n_lanes = transport.lanes()
    load = [0] * n_lanes
    lane_of: List[int] = []
    for weight in weights:
        lane_of.append(load.index(min(load)))
        load[lane_of[-1]] += weight
    engaged = sorted(set(lane_of))
    lanes = [
        Lane(at, [p for p, to in zip(payloads, lane_of) if to == at], dataset)
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


@dataclass(slots=True)
class ShardRuntimeStats:
    """Mutable refine counters of one user-row range (``shard_stats()``)."""

    shard_id: int              # range index
    users: int                 # user rows the range covers
    scatter_flushes: int = 0   # refine rounds dealt to this range
    refine_tasks: int = 0      # (walk, k) refinements executed
    refine_time_s: float = 0.0
    #: Most work items (the ks of a refine round) queued for this range
    #: at the instant of a scatter dispatch.
    queue_depth_peak: int = 0
    retries: int = 0           # supervised rounds re-dispatched here
    degraded_rounds: int = 0   # rounds that fell back to in-process

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "users": self.users,
            "scatter_flushes": self.scatter_flushes,
            "refine_tasks": self.refine_tasks,
            "queue_depth_peak": self.queue_depth_peak,
            "refine_ms": round(1000 * self.refine_time_s, 2),
            "retries": self.retries,
            "degraded_rounds": self.degraded_rounds,
        }


class Executor:
    """Runs an engine's planned flushes and owns its phase-1 memo.

    Every flush is one fixed sequence of phases.  ``ranges``
    is how many user-row ranges the refine is dealt as (the engine's
    ``num_shards``); ``transport`` is
    :data:`INLINE` until ``ShardedEngine.start_pools`` /
    ``connect_hosts`` swap in the socket one.  The memo — the cross-k
    joint pool and the merged refine thresholds — lives here only, so a fresh executor is
    a cold engine: ``MaxBRSTkNNEngine.query`` runs on one.
    """

    def __init__(
        self, engine: "MaxBRSTkNNEngine", ranges: int = 1, one_shot: bool = False
    ) -> None:
        self.engine = engine
        self.ranges = ranges
        #: Serves one flush only (``engine.query``'s cold batch of one):
        #: nothing it ships repeats, so its rounds encode through a
        #: :class:`~repro.core.payload.OneShotCodec`, not the delta memo.
        self.one_shot = one_shot
        self.transport: Transport = INLINE
        #: Cross-k joint pool (:class:`~repro.core.batch.SharedTraversalPool`).
        self.traversal_pool = None
        #: Merged refine thresholds per k — value-stable across pool
        #: re-walks by subsumption.  (The per-k ``SharedTopK`` the
        #: select round ships also reports the walk's time and I/O, so
        #: it is memoized on the traversal pool, ``by_k``, and dies
        #: with it.)
        self.merged_by_k: Dict[int, "MergedThresholds"] = {}
        #: Per-range refine counters; range ``i`` is the ``i``-th of
        #: :func:`user_row_ranges`.
        self.lane_stats = [
            ShardRuntimeStats(shard_id=i, users=hi - lo)
            for i, (lo, hi) in enumerate(
                user_row_ranges(len(engine.dataset.users), ranges)
            )
        ]
        #: Gather-side accounting: refine-merge and query-axis wall
        #: time, and the query-axis rounds that left the process.
        self.merge_s = 0.0
        self.search_s = 0.0
        self.search_flushes = 0

    def _codec(self):
        """What this executor's rounds encode with: the engine's arena
        codec (``None``: plain pickles), one-shot on a cold executor."""
        codec = self.engine.payload_codec
        if codec is not None and self.one_shot:
            return _wire.OneShotCodec(codec)
        return codec

    def clear(self) -> None:
        """Drop the memo: the pool (and with it the per-k states the
        select round ships) and the merged thresholds."""
        self.traversal_pool = None
        self.merged_by_k.clear()

    def execute(
        self, queries: Sequence[MaxBRSTkNNQuery], plan: "QueryPlan"
    ) -> List[MaxBRSTkNNResult]:
        """Run one flush — traverse → refine → select; its
        :class:`FlushReport` lands on the engine's ``last_flush_report``."""
        queries = list(queries)
        report = FlushReport(batch_size=len(queries))
        pool, group_by_k = self._traverse(report, queries, plan)
        shared = self._refine(report, queries, plan, pool, group_by_k)
        results = self._select(report, queries, shared, plan)
        # The query-axis phase ends every flush.
        self.search_s += report.stages[-1].time_s
        self.engine.last_flush_report = report
        return results

    def _traverse(self, report, queries, plan):
        """Phase 1a (central): ensure the cross-k pool, derive group
        thresholds.  ``(pool, group threshold by k)``.

        ONE walk of the :class:`~repro.core.batch.SharedTraversalPool`
        per pool generation serves every k in the batch —
        ``plan.shared_traversal_k`` names it.
        """
        from .batch import _ensure_traversal_pool

        with _phase(report, "traverse", self.engine.io, len(queries)):
            assert plan.shared_traversal_k is not None
            pool = _ensure_traversal_pool(self, plan.shared_traversal_k)
            pool.hits += len(queries)
            # The pool memoizes the per-k derivation, so repeat flushes
            # pay a dict hit, not a pass over the pool.
            group_by_k = {k: pool.rsk_group_for(k) for k in plan.distinct_ks}
        return pool, group_by_k

    def _refine(self, report, queries, plan, pool, group_by_k) -> List["SharedTopK"]:
        """Phase 1b: Algorithm 2 dealt as ``ranges`` user-row ranges, for
        every k no earlier flush merged; each query's phase-1 state."""
        engine = self.engine
        users = engine.dataset.users
        need_ks = [k for k in plan.distinct_ks if k not in self.merged_by_k]
        items = len(need_ks)
        with _phase(report, "refine", engine.io, items) as stats:
            chunks: list = []
            if items:
                payloads = refine_payloads(pool.traversal, need_ks, len(users), self.ranges)
                dealt = _deal(
                    "refine", payloads, [p[6] - p[5] for p in payloads],
                    self.transport, engine.dataset, self._codec(),
                )
                dealt.record(stats, len(payloads))
                for lane, chunk, at in zip(self.lane_stats, dealt.chunks, dealt.lane_of):
                    lane.scatter_flushes += 1
                    lane.queue_depth_peak = max(lane.queue_depth_peak, items)
                    lane.retries += dealt.retries[at]
                    lane.degraded_rounds += dealt.degraded[at]
                    lane.refine_tasks += items
                    lane.refine_time_s += sum(p.time_s for p in chunk)
                chunks = dealt.chunks
            else:
                # every k already merged (memoized across flushes): no
                # round, the merge only hands out the memoized state
                stats.scatter_width = 0
            # The one cross-range merge: what gather_stats() reports.
            t_merge = time.perf_counter()
            shared = merge_refine(
                chunks, need_ks, users, self.merged_by_k, pool, group_by_k, queries,
            )
            self.merge_s += time.perf_counter() - t_merge
            return shared

    def _search_transport(self, n_queries: int) -> Transport:
        """Where this flush's query-axis round runs: the transport's
        lanes when it is remote and the round pays, else inline.  The
        decision reads the alive hosts — what the plan's phase-2 line
        reads — not the lane count, which never drops below one: a
        fleet with no host left selects in-process, as its plan says."""
        from .planner import search_fans_out

        transport = self.transport
        if not (transport.remote and search_fans_out(transport.hosts(), n_queries)):
            return INLINE
        self.search_flushes += 1
        return transport

    def _select(self, report, queries, shared, plan) -> List[MaxBRSTkNNResult]:
        """Phase 2 (query axis): Algorithm 3 whole, one answer per query
        (``items`` counts queries, however a payload stacks them)."""
        engine = self.engine
        with _phase(report, "select", engine.io, len(queries)) as stats:
            transport = self._search_transport(len(queries))
            payloads, index_groups = select_payloads(
                queries, shared, plan, transport.lanes()
            )
            dealt = _deal(
                "select", payloads, [len(p[1]) for p in payloads], transport,
                engine.dataset, self._codec(),
            )
            dealt.record(stats, len(set(dealt.lane_of)))
            return merge_select(index_groups, dealt.chunks)
