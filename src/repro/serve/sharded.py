"""Sharded execution: one engine, N full-dataset lanes.

A single :class:`~repro.core.engine.MaxBRSTkNNEngine` is the
scalability ceiling of the serving stack: however fast the kernels,
every query runs in one process.  A :class:`ShardedEngine` is that same
engine — one dataset, one object tree, one page store, one set of
memoized pools — plus a :class:`~repro.core.pipeline.Transport` to
``num_shards`` **lanes**, each a full replica of the dataset (a fork
worker that inherited it copy-on-write, or a ``repro shard-host``
process that rebuilt it from the workload spec).  Nothing is
partitioned; work is *dealt*:

* **by user row range** — Algorithm 2's per-user ``RSk(u)`` refinement,
  the O(|U|·pool) phase of a cold flush, is per-user work against one
  shared traversal pool, so lane ``i`` refines rows ``[i·|U|/n,
  (i+1)·|U|/n)`` of ``dataset.users`` and the per-lane maps merge back
  into the exact sequential threshold map
  (:mod:`repro.core.partial`): a disjoint union, checked to cover every
  user exactly once, memoized per k, so only a cold flush pays the
  round;
* **by query** — Algorithm 3 runs whole per query (its keyword-coverage
  counts sum over all of a location's ``LU_l``), so a flush's
  selections go out as ONE ``select`` round over the same lanes, one
  payload per worker / host whatever the queries' k, each query
  carrying its k's shared phase-1 state as a delta-shipped arena
  reference;
* everything **aggregate**-dependent stays on the coordinator: the one
  tree walk (same I/O trace as a single engine) and the group threshold
  ``RSk(us)``.

The flow is driven by :mod:`repro.core.pipeline` — a
:class:`~repro.core.pipeline.ShardedExecutor` runs the same per-mode
phases the single-engine path does (only the refine differs) and deals
each scatter round's payloads over the lanes, which
:func:`~repro.core.pipeline.run_round` carries over whichever transport
this engine installed: inline by default, or a
:class:`~repro.serve.transport.SocketTransport` over ONE fleet of
shard hosts (:class:`~repro.serve.shardhost.ShardHost`) — forked local hosts after
:meth:`ShardedEngine.start_pools`, remote ``repro shard-host``
processes after :meth:`ShardedEngine.connect_hosts`.  ``Mode.INDEXED``
rides the same machinery: one central MIUR-root walk per pool
generation (cross-k, exactly like joint mode), then the per-query
best-first searches fan out over local hosts (which inherited the
MIUR-tree) against read-only
:meth:`~repro.storage.pager.PageStore.ledger_view` stores whose
:class:`~repro.storage.pager.IOCharge` ledgers replay onto the
coordinator's counter at gather time.  (Indexed flushes have no refine
round: MIUR pruning *replaces* the O(|U|) refine.)

The headline guarantee is **result identity**: locations, keyword
sets, BRSTkNN sets, I/O counters and selection stats all equal the
single-engine answer, for any lane count, every transport and both
modes — property-tested in ``tests/serve/test_lanes.py``.

Execution is in-process by default (deterministic, zero setup); call
:meth:`ShardedEngine.start_pools` to fork ``num_shards ×
workers_per_lane`` hosts that inherit the dataset and its pre-built
``DatasetArrays`` (and, when the engine indexes users, the MIUR-tree as
worker context) through copy-on-write.  A cold micro-batch fans out
twice over them (refine, then select) and a warm one once, which is
what the :class:`~repro.serve.server.MaxBRSTkNNServer` flush path
rides: ``ServerConfig.pool_workers`` sizes the fleet per lane.  These
hosts are the only worker processes a query ever reaches; a plain
:class:`MaxBRSTkNNEngine` answers in-process.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from ..core.config import EngineConfig, Mode, QueryOptions, coerce_options
from ..core.engine import MaxBRSTkNNEngine
from ..core.partial import MergedThresholds
from ..core.pipeline import INLINE, FlushReport, ShardedExecutor, user_row_ranges
from ..core.planner import EngineCapabilities, QueryPlan, plan_batch, plan_query
from ..core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult
from ..model.dataset import Dataset
from .errors import PoolUnavailable
from .pool import PersistentWorkerPool
from .transport import ShardRegistry, SocketTransport

__all__ = ["ShardRuntimeStats", "ShardedEngine", "make_engine"]


@dataclass(slots=True)
class ShardRuntimeStats:
    """Mutable refine counters of one lane (``shard_stats()``)."""

    shard_id: int              # lane index
    users: int                 # user rows the lane refines
    scatter_flushes: int = 0   # refine rounds dealt to this lane
    refine_tasks: int = 0      # (walk, k) refinements executed
    refine_time_s: float = 0.0
    #: Most work items (the ks of a refine round) queued for this lane
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


def _add_counters(totals: Dict[str, int], counters: Dict[str, int]) -> None:
    """Add a fleet's fault counters onto ``totals`` (closing fleets
    are banked so totals stay monotone)."""
    for key in totals:
        totals[key] += counters[key]


class ShardedEngine:
    """One engine + a transport to ``num_shards`` full-dataset lanes.

    Drop-in for :class:`MaxBRSTkNNEngine` wherever ``Mode.JOINT`` or
    ``Mode.INDEXED`` queries are served: ``query`` / ``query_batch`` /
    ``plan`` / ``capabilities`` / ``clear_topk_cache`` match, and
    :class:`~repro.serve.server.MaxBRSTkNNServer` takes either engine
    type unchanged.

    Parameters
    ----------
    dataset:
        The full bichromatic dataset.
    config:
        :class:`EngineConfig` with ``num_shards`` (>= 1), the lane
        count.  ``index_users=True`` builds the MIUR-tree (indexed
        flushes are central + search fan-out).
    """

    def __init__(self, dataset: Dataset, config: Optional[EngineConfig] = None) -> None:
        config = config if config is not None else EngineConfig()
        if not isinstance(config, EngineConfig):
            raise TypeError(f"config must be an EngineConfig, got {type(config).__name__}")
        self.config = config
        self.dataset = dataset
        #: THE engine: owns the object tree, the page store / I/O
        #: counter, the memoized cross-k traversal pools (joint and
        #: MIUR-root), and — with ``index_users=True`` — the MIUR-tree.
        #: The one tree walk per pool generation happens HERE —
        #: identical cost and I/O trace to single-engine serving.
        self.root = MaxBRSTkNNEngine(dataset, config.with_(num_shards=1))
        #: Per-lane refine counters; lane ``i`` refines row range ``i``.
        self.lane_stats: List[ShardRuntimeStats] = [
            ShardRuntimeStats(shard_id=i, users=hi - lo)
            for i, (lo, hi) in enumerate(
                user_row_ranges(len(dataset.users), config.num_shards)
            )
        ]
        # Global super-user, built eagerly so forked hosts inherit it
        # instead of rebuilding it each.
        self._su = dataset.super_user if dataset.users else None
        #: Merged refine results per k — value-stable across pool
        #: re-walks by subsumption.  (The per-k ``SharedTopK`` the
        #: select round ships wraps these maps but also reports the
        #: walk's time and I/O, so it is memoized on the traversal pool
        #: itself, ``root._traversal_pool.by_k``, and dies with it.)
        self._merged_by_k: Dict[int, MergedThresholds] = {}
        #: The ONE fleet the lanes run on: forked local hosts
        #: (start_pools) or remote shard-host processes (connect_hosts);
        #: None while every round runs in-process.
        self._registry: Optional[ShardRegistry] = None
        #: Fault counters of fleets already closed, so `fault_counters()`
        #: stays monotone across restarts.
        self._closed_fault_totals: Dict[str, int] = {
            "respawns": 0, "worker_deaths": 0, "deadline_hits": 0, "retries": 0,
        }
        #: Gather-side accounting (``gather_stats()``): refine-merge
        #: and select / indexed-search wall time, fan-out round count.
        self._merge_s = 0.0
        self._search_s = 0.0
        self._search_flushes = 0
        self._executor = ShardedExecutor(self)

    # ------------------------------------------------------------------
    # Introspection / engine-compatible surface
    # ------------------------------------------------------------------
    @property
    def object_tree(self):
        return self.root.object_tree

    @property
    def user_tree(self):
        return self.root.user_tree

    @property
    def io(self):
        return self.root.io

    @property
    def traversal_runs(self) -> int:
        """Tree walks executed — one per pool generation, like a
        single engine's batch path (lanes never walk)."""
        return self.root.traversal_runs

    @property
    def last_flush_report(self) -> Optional[FlushReport]:
        """Per-stage accounting of the most recent pipeline flush."""
        return self._executor.last_flush_report

    def _search_width(self) -> int:
        """Query-axis fan-out width: the fleet's alive hosts (0 = none)."""
        if self._registry is None:
            return 0
        return len(self._registry.alive_hosts())

    def capabilities(self) -> EngineCapabilities:
        return replace(
            EngineCapabilities.of(self.root),
            num_shards=self.config.num_shards,
            search_workers=self._search_width(),
        )

    def _planning_caps(self, options: QueryOptions) -> EngineCapabilities:
        caps = self.capabilities()
        if options.mode is Mode.INDEXED and not self._executor.transport.serves_indexed:
            # Remote hosts hold no MIUR-tree: indexed searches stay on
            # the coordinator, so the plan must not claim a fan-out.
            caps = replace(caps, search_workers=0)
        return caps

    def plan(
        self, options: Optional[QueryOptions] = None, ks: Sequence[int] = ()
    ) -> QueryPlan:
        """Resolve options against the lane layout without executing."""
        options = options if options is not None else QueryOptions.default()
        caps = self._planning_caps(options)
        if ks:
            return plan_batch(options, caps, list(ks))
        return plan_query(options, caps)

    def shard_stats(self) -> List[dict]:
        """Per-lane refine counters (queue depth, flushes, times)."""
        return [stats.snapshot() for stats in self.lane_stats]

    def gather_stats(self) -> dict:
        """Gather-side counters: ``merge_ms`` is the cross-lane ``RSk``
        union of refine rounds; ``search_ms`` / ``search_flushes`` time
        / count the query-axis round (select, indexed-search)."""
        return {
            "merge_ms": round(1000 * self._merge_s, 2),
            "search_ms": round(1000 * self._search_s, 2),
            "search_flushes": self._search_flushes,
            "search_workers": self._search_width(),
        }

    def clear_topk_cache(self) -> None:
        """Drop the shared pools (and with them the per-k states the
        select round ships) and every merged threshold map."""
        self.root.clear_topk_cache()
        self._merged_by_k.clear()

    def reset_io(self) -> None:
        self.root.reset_io()

    def prewarm_kernels(self) -> None:
        """Build every kernel cache up front (server startup hook), so
        first-query latency pays no build cost and hosts forked later
        inherit everything via copy-on-write."""
        self.root.prewarm_kernels()

    # ------------------------------------------------------------------
    # Zero-copy storage tier (delegated to the root engine)
    # ------------------------------------------------------------------
    @property
    def payload_codec(self):
        """The root engine's arena codec (``None`` without ``use_shm``)."""
        return self.root.payload_codec

    @property
    def arena_name(self) -> Optional[str]:
        return self.root.arena_name

    def ensure_arena(self):
        """Materialize the ONE arena (root-owned) for the whole engine."""
        return self.root.ensure_arena()

    def close_arena(self) -> None:
        self.root.close_arena()

    # ------------------------------------------------------------------
    # Fleet lifecycle: forked local hosts or remote shard hosts
    # ------------------------------------------------------------------
    def start_pools(
        self,
        workers_per_lane: int = 1,
        *,
        retry=None,
        deadline=None,
        faults=None,
    ) -> "ShardedEngine":
        """Fork the local fleet: ``num_shards * workers_per_lane``
        :class:`~repro.serve.shardhost.ShardHost` processes, each a
        full-dataset lane on a socketpair.

        Hosts inherit the dataset (and its pre-built ``DatasetArrays``
        and the arena) via copy-on-write at fork time — plus the
        MIUR-tree as worker context when the engine indexes users — and
        answer every scatter round: the cold refine (which ships only
        the traversal pool's reference and a row range), the joint
        ``select`` and the ``indexed-search``.  Idempotent start is an
        error (mirrors the server lifecycle); a failed construction
        leaves the engine in its in-process state.

        ``retry`` / ``deadline`` are the ladder's policies
        (:class:`~repro.serve.config.RetryPolicy` /
        :class:`~repro.serve.config.DeadlinePolicy`); ``faults`` is an
        optional :class:`~repro.serve.faults.FaultPlan` for
        deterministic fault injection.
        """
        if self._registry is not None:
            raise RuntimeError(
                "worker pool already started" if self._forked()
                else "cannot start pools: shard hosts are connected"
            )
        if workers_per_lane < 1:
            raise ValueError(f"workers_per_lane must be >= 1, got {workers_per_lane}")
        try:
            # Materialize the arena (config.use_shm) BEFORE the fork:
            # hosts inherit the shm-backed views via copy-on-write.
            self.root.ensure_arena()
            pool = PersistentWorkerPool(
                self.dataset, self.config.num_shards * workers_per_lane,
                context=self.root.user_tree,
                retry=retry, deadline=deadline, faults=faults,
            )
        except BaseException:
            # No fleet is attached, so the caller (e.g. the server's
            # start()) will never close one for us — release the arena.
            self.root.close_arena()
            raise
        self._attach(pool)
        return self

    def close_pools(self, timeout_s: Optional[float] = None) -> None:
        """Shut the local fleet down (idempotent).

        ``timeout_s`` bounds the shutdown (see
        :meth:`~repro.serve.pool.PersistentWorkerPool.close`); ``None``
        waits unbounded.  A close error surfaces as a
        ``RuntimeWarning``, never an exception, so the arena is always
        released behind it.
        """
        if self._forked():
            self._detach(timeout_s)
        elif self._registry is None:
            self.root.close_arena()

    def connect_hosts(
        self, hosts, *, retry=None, deadline=None, connect_timeout_s: float = 5.0
    ) -> "ShardedEngine":
        """Scatter to remote shard host processes over TCP.

        ``hosts`` is a ``"host:port,host:port"`` string or a sequence
        of specs/pairs — one entry per ``repro shard-host`` process,
        each of which rebuilt this engine's exact dataset from the
        shared workload spec (:mod:`repro.serve.shardhost`).  The
        executor's transport becomes a
        :class:`~repro.serve.transport.SocketTransport` over them, the
        same one local hosts run behind; the flush's phases run unchanged,
        scatter rounds — refine ranges and joint selections alike, one
        lane per alive host — cross TCP as
        :class:`~repro.serve.transport.FrameCodec` frames carrying the
        arena-codec payloads verbatim.  ``retry`` / ``deadline`` are the
        ladder's policies; a dead host comes back only through a
        heartbeat (``_registry.ping_all()``).  A host whose ``PONG``
        carries another dataset's digest
        (:meth:`~repro.model.dataset.Dataset.fingerprint`) is refused
        with :class:`~repro.serve.errors.PoolUnavailable`.

        Mutually exclusive with :meth:`start_pools` (one fleet at a
        time); undo with :meth:`close_hosts`.
        """
        if self._registry is not None:
            raise RuntimeError(
                "cannot connect hosts: local hosts are running" if self._forked()
                else "shard hosts already connected"
            )
        # Materialize the arena (config.use_shm) BEFORE the first
        # scatter so payload encoding has refs to ship; hosts attach
        # the segments lazily, by name, as foreign attachers.
        self.root.ensure_arena()
        registry = ShardRegistry.from_specs(
            hosts, connect_timeout_s=connect_timeout_s,
            dataset=self.dataset, retry=retry, deadline=deadline,
        )
        try:
            registry.connect_all()
            registry.verify_replicas(self.dataset.fingerprint())
        except PoolUnavailable:
            registry.close()
            self.root.close_arena()
            raise
        self._attach(registry)
        return self

    def close_hosts(self) -> None:
        """Drop the remote host connections and restore in-process
        scatter (idempotent)."""
        if self._registry is not None and not self._forked():
            self._detach(None)

    def _forked(self) -> bool:
        return self._registry is not None and self._registry.forked

    def _attach(self, registry: ShardRegistry) -> None:
        self._registry = registry
        self._executor.transport = SocketTransport(registry)

    def _detach(self, timeout_s: Optional[float]) -> None:
        """Close the fleet (its counters banked, so
        :meth:`fault_counters` stays monotone), then release the arena
        — only after every host is gone: live attachments keep their
        mappings (POSIX), but a clean close leaves /dev/shm empty."""
        registry, self._registry = self._registry, None
        self._executor.transport = INLINE
        _add_counters(self._closed_fault_totals, registry.fault_counters())
        try:
            registry.close(timeout_s)
        except Exception as exc:  # noqa: BLE001 - warn, keep tearing down
            warnings.warn(
                f"worker pool failed to close cleanly: {exc!r}",
                RuntimeWarning,
                stacklevel=3,
            )
        self.root.close_arena()

    def fault_counters(self) -> Dict[str, int]:
        """Respawn/death/deadline/retry totals across every fleet this
        engine ever ran (live plus banked)."""
        totals = dict(self._closed_fault_totals)
        if self._registry is not None:
            _add_counters(totals, self._registry.fault_counters())
        return totals

    def pool_health(self) -> List[dict]:
        """One health row per host of the live fleet."""
        return self._registry.health_rows() if self._registry is not None else []

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_pools()
        self.close_hosts()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        query: MaxBRSTkNNQuery,
        options: Optional[QueryOptions] = None,
    ) -> MaxBRSTkNNResult:
        """Answer one query (executed as a scatter/gather batch of one).

        Unlike a cold single-engine ``query``, the shared traversal
        pool is memoized across calls — thresholds derived from it are
        value-identical to dedicated walks (PR 3's subsumption
        guarantee; PR 5 extended it to the indexed node-RSk), so
        results still match sequential queries exactly.
        """
        opts = coerce_options(options, api="ShardedEngine.query")
        # Plan as a batch of one directly (not plan_query): a 1-shard
        # ShardedEngine is indistinguishable from a single engine in
        # the capabilities, but execution always needs the shared-pool
        # batch plan (shared_traversal_k) regardless of shard count.
        plan = plan_batch(opts, self._planning_caps(opts), [query.k])
        return self._execute_batch([query], plan)[0]

    def query_batch(
        self,
        queries: Sequence[MaxBRSTkNNQuery],
        options: Optional[QueryOptions] = None,
    ) -> List[MaxBRSTkNNResult]:
        """Answer a batch: one shared walk, one scatter round per phase
        over the lanes (:meth:`start_pools` / :meth:`connect_hosts`)."""
        opts = coerce_options(options, api="ShardedEngine.query_batch")
        queries = list(queries)
        if not queries:
            return []
        plan = plan_batch(opts, self._planning_caps(opts), [q.k for q in queries])
        return self._execute_batch(queries, plan)

    # ------------------------------------------------------------------
    # Scatter/gather execution (driven by repro.core.pipeline)
    # ------------------------------------------------------------------
    def _execute_batch(
        self, queries: List[MaxBRSTkNNQuery], plan: QueryPlan
    ) -> List[MaxBRSTkNNResult]:
        if self._su is None:
            raise ValueError("dataset has no users to aggregate")
        if plan.shared_traversal_k is None or plan.mode is Mode.BASELINE:
            # The planner rejects baseline for num_shards > 1; a
            # 1-shard ShardedEngine is indistinguishable there, so
            # enforce the group-traversal contract here too.
            raise ValueError(
                f"sharded execution covers mode=joint and mode=indexed only "
                f"(got mode={plan.mode})"
            )
        return self._executor.execute(queries, plan)


def make_engine(
    dataset: Dataset, config: Optional[EngineConfig] = None
) -> Union[MaxBRSTkNNEngine, ShardedEngine]:
    """Build the right engine for ``config``: sharded iff ``num_shards > 1``."""
    config = config if config is not None else EngineConfig()
    if config.num_shards > 1:
        return ShardedEngine(dataset, config)
    return MaxBRSTkNNEngine(dataset, config)
