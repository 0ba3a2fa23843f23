"""A flush, one pipeline, and ONE scatter round over lanes.

A flush runs the paper's phases in a fixed order — traverse → refine →
select — each phase handing its products to the next as arguments and
recording one :class:`StageStats` (wall time, simulated I/O, scatter
width and round counters) on the flush's :class:`FlushReport`.
Traverse is Algorithm 1's one cross-k walk (or its memoized pool).
Refine is Algorithm 2 dealt as one user-row range per transport lane —
per-user work whose ``RSk(u)`` vectors merge as a disjoint union.
Select is Algorithm 3 whole per query — its keyword-coverage counts
sum over all of ``LU_l``, so it is dealt by query, never by user.

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

Builders cut the work — ranges of user rows, chunks of queries — into
at most one payload per lane of the transport; every round then goes
through ONE loop, :func:`run_round`::

    encode -> dispatch every lane -> collect each -> degrade -> decode

A :class:`Lane` is ``(wire id, payloads, degrade dataset)``; every
lane, on every transport, holds the full dataset.  A
transport is where lanes run — the :class:`Transport` protocol:
``dispatch(lanes) -> tickets`` starts every lane before any is
collected; ``collect(ticket) -> chunks`` runs the transport's own
recovery ladder and raises :class:`ScatterFailure` once it is
exhausted, leaving the round's retry/byte counters on the
:class:`Ticket`.  Two implementations:

* :class:`InlineTransport` — the calling process, one lane; no wire,
  no ladder.
* :class:`repro.serve.transport.SocketTransport` — one lane per alive
  shard host, forked locally on a socketpair or remote over TCP, every
  lane a frame (host death or deadline => re-scatter to a survivor,
  task error => retry on the same host).

A lane whose ladder is exhausted re-runs its payloads in-process
against the coordinator's dataset: ``execute_shard_payload`` is pure,
so the degraded answer is bitwise-identical, only slower — and counted.

One :class:`Executor` runs every engine's flushes.  It holds the
engine, the transport (:data:`INLINE` until a
:class:`~repro.serve.sharded.ShardedEngine`'s ``start_pools`` /
``connect_hosts`` swap in the socket one) and the phase-1 memo.  The
refine is always the ``refine_payloads -> merge_refine`` round, one
range per lane — a single inline range while no fleet is attached —
and a query-axis round leaves the process only over a remote
transport, when the planner says it pays.  ``MaxBRSTkNNEngine.query``
runs a fresh executor on the same transport: its empty memo makes the
query cold by construction.

Result identity is the invariant throughout: results, I/O traces and
selection stats equal the single sequential engine's across lane
counts × mixed-k × transports
(``tests/core/test_pipeline.py``,
``tests/serve/test_lanes.py``, ``tests/serve/test_multihost.py``).
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, Optional, Protocol, Sequence, Tuple,
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
    scatter_width: int = 1  # lanes (one payload each) the stage fanned out to
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
    chunks: Sequence[list], ks: Sequence[int], user_ids, merged_by_k: dict,
    pool, group_by_k: Dict[int, float], queries: Sequence[MaxBRSTkNNQuery],
) -> List["SharedTopK"]:
    """Gather a refine round, and each query's phase-1 state from it.

    ``chunks`` answer :func:`refine_payloads`, in order: the disjoint
    per-lane ``RSk(u)`` vectors concatenate back into the
    sequential-identical vector per k, by user row — ``user_ids``, the
    dataset's user id column
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
        merged_by_k[k] = merge_partials(by_k[k], user_ids)

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
        """Lanes a round's work is cut into, one payload each (the cold
        refine: one user-row range each)."""

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


def _scatter(
    phase: str, payloads: List[tuple], stats: StageStats, transport: Transport,
    dataset, codec=None,
) -> list:
    """Run ``payloads`` as one round, payload ``i`` on lane ``i``, and
    put the round's width and counters on its phase's ``stats``.

    The answers come back in payload order.  ``dataset`` is what a lane
    run inline or degraded executes against; ``codec`` as for
    :func:`run_round`.
    """
    lanes = [Lane(at, [payload], dataset) for at, payload in enumerate(payloads)]
    returned, retries, degraded, stats.payload_bytes_out, stats.payload_bytes_in = (
        run_round(phase, lanes, transport, codec)
    )
    stats.scatter_width = len(lanes)
    stats.retries = sum(retries)
    stats.degraded = sum(degraded)
    return [chunks for (chunks,) in returned]


class Executor:
    """Runs an engine's planned flushes and owns its phase-1 memo.

    Every flush is one fixed sequence of phases.  ``transport`` is
    :data:`INLINE` until ``ShardedEngine.start_pools`` /
    ``connect_hosts`` swap in the socket one; the cold refine is dealt
    as one user-row range per lane of it.  The memo — the cross-k joint
    pool and the merged refine thresholds — lives here only, so a fresh
    executor is a cold engine: ``MaxBRSTkNNEngine.query`` runs on one.
    The gather-side times land on the engine (``gather_stats()``),
    whichever executor ran the flush.
    """

    def __init__(
        self, engine: "MaxBRSTkNNEngine", transport: Transport = INLINE,
        one_shot: bool = False,
    ) -> None:
        self.engine = engine
        #: Serves one flush only (``engine.query``'s cold batch of one):
        #: nothing it ships repeats, so its rounds encode through a
        #: :class:`~repro.core.payload.OneShotCodec`, not the delta memo.
        self.one_shot = one_shot
        self.transport = transport
        #: Cross-k joint pool (:class:`~repro.core.batch.SharedTraversalPool`).
        self.traversal_pool = None
        #: Merged refine thresholds per k — value-stable across pool
        #: re-walks by subsumption.  (The per-k ``SharedTopK`` the
        #: select round ships also reports the walk's time and I/O, so
        #: it is memoized on the traversal pool, ``by_k``, and dies
        #: with it.)
        self.merged_by_k: Dict[int, "MergedThresholds"] = {}

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
        self.engine.search_s += report.stages[-1].time_s
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
        """Phase 1b: Algorithm 2 dealt as one user-row range per lane,
        for every k no earlier flush merged; each query's phase-1 state."""
        from .kernels import arrays_for

        engine = self.engine
        need_ks = [k for k in plan.distinct_ks if k not in self.merged_by_k]
        with _phase(report, "refine", engine.io, len(need_ks)) as stats:
            chunks: list = []
            if need_ks:
                # Like the select round and the plan, read the alive
                # hosts: a fleet with none left refines in-process.
                transport = self.transport if self.transport.hosts() else INLINE
                payloads = refine_payloads(
                    pool.traversal, need_ks, len(engine.dataset.users),
                    transport.lanes(),
                )
                chunks = _scatter(
                    "refine", payloads, stats, transport, engine.dataset,
                    self._codec(),
                )
            else:
                # every k already merged (memoized across flushes): no
                # round, the merge only hands out the memoized state
                stats.scatter_width = 0
            # The one cross-range merge: what gather_stats() reports.
            t_merge = time.perf_counter()
            shared = merge_refine(
                chunks, need_ks, arrays_for(engine.dataset).user_ids,
                self.merged_by_k, pool, group_by_k, queries,
            )
            engine.merge_s += time.perf_counter() - t_merge
            return shared

    def _search_transport(self, n_queries: int) -> Transport:
        """Where this flush's query-axis round runs: the transport's
        lanes when it is remote and the round pays, else inline.  The
        decision reads the alive hosts — what the plan's phase-2 line
        and the refine round read — so a fleet with no host left
        selects in-process, as its plan says."""
        from .planner import search_fans_out

        transport = self.transport
        if not (transport.remote and search_fans_out(transport.hosts(), n_queries)):
            return INLINE
        self.engine.search_flushes += 1
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
            chunks = _scatter(
                "select", payloads, stats, transport, engine.dataset, self._codec()
            )
            return merge_select(index_groups, chunks)
