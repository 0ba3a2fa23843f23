"""Sharded execution: N partitioned engines behind one engine facade.

A single :class:`~repro.core.engine.MaxBRSTkNNEngine` is the
scalability ceiling of the serving stack: however fast the kernels,
every cold query's O(|U|·pool) phase — Algorithm 2's per-user ``RSk(u)``
refinement — walks the whole user set in one process.  Because that
phase is a *per-user* computation against shared global state, the user
set partitions cleanly:

* **scatter** — each shard (a full ``MaxBRSTkNNEngine`` over a
  user-subset dataset sharing the root's object MIR-tree) refines
  ``RSk(u)`` for its users against the one globally shared traversal
  pool;
* **gather** — per-shard partials merge back into the exact sequential
  threshold map (:mod:`repro.core.partial`): a disjoint ``RSk(u)``
  union, memoized per k, so only a cold flush pays the round;
* everything **aggregate**-dependent runs against the full dataset: the
  one tree walk (same I/O trace as a single engine), the group
  threshold ``RSk(us)``, and Algorithm 3 whole — its keyword-coverage
  counts sum over all of a location's ``LU_l``, so it cannot run per
  user partition.  Its queries are independent, though, so a flush's
  selections go out as ONE query-axis ``select`` round over the
  full-dataset lanes (the root search pool's workers, or the shard
  hosts), each chunk carrying its k's shared phase-1 state as a
  delta-shipped arena reference.

The flow is driven by the unified phase pipeline — a
:class:`~repro.core.pipeline.ShardedExecutor` runs the same typed
stages the single-engine path does (only the refine differs) and builds
the lanes of each scatter round, which
:func:`~repro.core.pipeline.run_round` carries over whichever transport
this engine installed (inline by default, fork pools after
:meth:`ShardedEngine.start_pools`, shard hosts after
:meth:`ShardedEngine.connect_hosts`) — and ``Mode.INDEXED`` rides
the same machinery: one central MIUR-root walk per pool generation
(cross-k, exactly like joint mode), then the per-query best-first
searches fan out over the root search pool against read-only
:meth:`~repro.storage.pager.PageStore.ledger_view` stores whose
:class:`~repro.storage.pager.IOCharge` ledgers replay onto the root
counter at gather time.  (The user partitions idle for indexed
flushes: MIUR pruning *replaces* the O(|U|) refine, so there is
nothing per-user to scatter.)

The headline guarantee is **result identity**: locations, keyword
sets, BRSTkNN sets, I/O counters and selection stats all equal the
single-engine answer, for any shard count, either partitioner and both
modes — property-tested in ``tests/serve/test_sharded.py``.

Execution is in-process by default (deterministic, zero setup); call
:meth:`ShardedEngine.start_pools` to give every populated shard its own
:class:`~repro.serve.pool.PersistentWorkerPool` — fork-once workers
that inherit the shard dataset and its pre-built ``DatasetArrays``
through copy-on-write, serving the cold refine rounds — plus a **root
search pool** over the full dataset (and, when the engine indexes
users, the MIUR-tree as worker context), serving every flush's
``select`` / ``indexed-search`` round.  A cold micro-batch therefore
fans out twice (refine per shard, then select) and a warm one once,
which is what the :class:`~repro.serve.server.MaxBRSTkNNServer` flush
path rides: the server detects ``manages_own_pools`` and leaves pool
ownership here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.config import EngineConfig, Mode, QueryOptions, coerce_options
from ..core.engine import MaxBRSTkNNEngine
from ..core.history import FlushHistory, signature_of
from ..core.partial import MergedThresholds
from ..core.pipeline import INLINE, SEARCH_LANE, FlushReport, ShardedExecutor
from ..core.planner import EngineCapabilities, QueryPlan, plan_batch, plan_query
from ..core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult
from ..datagen.partition import ShardAssignment, UserPartitioner
from ..model.dataset import Dataset
from .faults import SEARCH_POOL_ID
from .pool import PersistentWorkerPool, PoolTransport

__all__ = ["ShardRuntimeStats", "ShardedEngine", "make_engine"]


@dataclass(slots=True)
class ShardRuntimeStats:
    """Mutable per-shard counters (surfaced via ``shard_stats()``)."""

    shard_id: int
    users: int
    scatter_flushes: int = 0   # scatter rounds dispatched to this shard
    refine_tasks: int = 0      # (walk, k) refinements executed
    refine_time_s: float = 0.0
    #: Most work items (the ks of a refine round) queued for this shard
    #: at the instant of a scatter dispatch.
    queue_depth_peak: int = 0
    pool_workers: int = 0      # 0 = in-process scatter
    retries: int = 0           # supervised rounds re-dispatched here
    degraded_rounds: int = 0   # rounds that fell back to in-process

    def snapshot(self) -> dict:
        return {
            "shard": self.shard_id,
            "users": self.users,
            "pool_workers": self.pool_workers,
            "scatter_flushes": self.scatter_flushes,
            "refine_tasks": self.refine_tasks,
            "queue_depth_peak": self.queue_depth_peak,
            "refine_ms": round(1000 * self.refine_time_s, 2),
            "retries": self.retries,
            "degraded_rounds": self.degraded_rounds,
        }


@dataclass(slots=True)
class _Shard:
    """One partition: engine, pool (optional), counters."""

    shard_id: int
    engine: MaxBRSTkNNEngine
    stats: ShardRuntimeStats
    pool: Optional[PersistentWorkerPool] = None

    @property
    def users(self) -> int:
        return len(self.engine.dataset.users)


class ShardedEngine:
    """N partitioned engines + scatter/gather merge, one engine surface.

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
        :class:`EngineConfig` with ``num_shards`` (>= 1) and
        ``partitioner``.  ``index_users=True`` builds the MIUR-tree on
        the *root* engine (indexed flushes are central + search
        fan-out; shard engines never need user trees).  Shard engines
        share the root's object MIR-tree (built once).
    """

    #: The serving layer must not wrap this engine in its own worker
    #: pool — scatter parallelism is owned here, per shard.
    manages_own_pools = True

    def __init__(self, dataset: Dataset, config: Optional[EngineConfig] = None) -> None:
        config = config if config is not None else EngineConfig()
        if not isinstance(config, EngineConfig):
            raise TypeError(f"config must be an EngineConfig, got {type(config).__name__}")
        self.config = config
        self.dataset = dataset
        #: Full-dataset engine: owns the object tree, the page store /
        #: I/O counter, the memoized cross-k traversal pools (joint and
        #: MIUR-root), and — with ``index_users=True`` — the MIUR-tree.
        #: The one tree walk per pool generation happens HERE —
        #: identical cost and I/O trace to single-engine serving.
        self.root = MaxBRSTkNNEngine(dataset, config.with_(num_shards=1))
        # Shard engines run only the per-user joint phases; they never
        # need their own MIUR-trees (indexed flushes are central).
        shard_base = config.with_(num_shards=1, index_users=False)
        partitioner = UserPartitioner(config.partitioner.value, config.num_shards)
        self.assignment: ShardAssignment
        self.assignment, shard_datasets = partitioner.split(dataset)
        self._shards: List[_Shard] = [
            _Shard(
                shard_id=i,
                engine=MaxBRSTkNNEngine(ds, shard_base, object_tree=self.root.object_tree),
                stats=ShardRuntimeStats(shard_id=i, users=len(ds.users)),
            )
            for i, ds in enumerate(shard_datasets)
        ]
        # Skew guard (first step toward flush-time rebalancing): the
        # grid partitioner can pile co-located users onto one shard,
        # turning the scatter into a convoy behind the big shard.
        self.partition_skew = self.assignment.largest_skew()
        counts = self.assignment.counts()
        if (
            config.num_shards > 1
            and dataset.users
            and max(counts) > 0.5 * len(dataset.users)
            # With 2 shards a bare majority is statistical noise; only
            # a shard substantially over its ideal share convoys.
            and self.partition_skew > 1.5
        ):
            warnings.warn(
                f"unbalanced partition: shard {counts.index(max(counts))} holds "
                f"{max(counts)}/{len(dataset.users)} users "
                f"({config.partitioner.value} partitioner, skew "
                f"{self.partition_skew:.2f}x ideal); scatter rounds will "
                f"convoy behind it — consider partitioner='hash' or fewer "
                f"shards",
                RuntimeWarning,
                stacklevel=2,
            )
        # Global super-user, built eagerly so the search pool's forked
        # workers inherit it instead of rebuilding it each.
        self._su = dataset.super_user if dataset.users else None
        #: Merged refine results per k — value-stable across pool
        #: re-walks by subsumption.  (The per-k ``SharedTopK`` the
        #: select round ships wraps these maps but also reports the
        #: walk's time and I/O, so it is memoized on the traversal pool
        #: itself, ``root._traversal_pool.by_k``, and dies with it.)
        self._merged_by_k: Dict[int, MergedThresholds] = {}
        self._search_pool: Optional[PersistentWorkerPool] = None
        self._pools_started = False
        #: Socket transport state (connect_hosts/close_hosts): the
        #: registry of shard host processes, or None on the fork path.
        self._registry = None
        self._hosts_connected = False
        #: Fault counters of pools already closed, so `fault_counters()`
        #: stays monotone across pool generations and restarts.
        self._closed_fault_totals: Dict[str, int] = {
            "respawns": 0, "worker_deaths": 0, "deadline_hits": 0, "retries": 0,
        }
        #: Gather-side accounting (``gather_stats()``): refine-merge
        #: and select / indexed-search wall time, fan-out round count.
        self._merge_s = 0.0
        self._search_s = 0.0
        self._search_flushes = 0
        self._executor = ShardedExecutor(self)
        #: Observed-cost feedback for the planner (same contract as the
        #: single engine's ``flush_history``); survives
        #: :meth:`clear_topk_cache` — it holds timings, never answers.
        self.flush_history = FlushHistory()

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
        single engine's batch path (shards never walk)."""
        return self.root.traversal_runs

    @property
    def last_flush_report(self) -> Optional[FlushReport]:
        """Per-stage accounting of the most recent pipeline flush."""
        return self._executor.last_flush_report

    @property
    def shards(self) -> Tuple[_Shard, ...]:
        return tuple(self._shards)

    def _search_width(self) -> int:
        """Search fan-out width: alive shard hosts on the socket
        transport, else the root search pool's workers (0 = none)."""
        if self._registry is not None:
            return len(self._registry.alive_hosts())
        return self._search_pool.workers if self._search_pool is not None else 0

    def capabilities(self) -> EngineCapabilities:
        return replace(
            EngineCapabilities.of(self.root),
            num_shards=self.config.num_shards,
            partitioner=self.config.partitioner.value,
            shard_users=tuple(self.assignment.counts()),
            search_workers=self._search_width(),
        )

    def _planning_caps(self, options: QueryOptions) -> EngineCapabilities:
        caps = self.capabilities()
        if options.mode is Mode.INDEXED and not self._executor.transport.serves_indexed:
            # Shard hosts hold no MIUR-tree: indexed searches stay on
            # the coordinator, so the plan must not claim a fan-out.
            caps = replace(caps, search_workers=0)
        return caps

    def plan(
        self, options: Optional[QueryOptions] = None, ks: Sequence[int] = ()
    ) -> QueryPlan:
        """Resolve options against the sharded layout without executing."""
        options = options if options is not None else QueryOptions.default()
        caps = self._planning_caps(options)
        if ks:
            return plan_batch(options, caps, list(ks), history=self.flush_history)
        return plan_query(options, caps, history=self.flush_history)

    def shard_stats(self) -> List[dict]:
        """Per-shard runtime counters (queue depth, flushes, times)."""
        return [shard.stats.snapshot() for shard in self._shards]

    def gather_stats(self) -> dict:
        """Gather-side counters: ``merge_ms`` is the cross-shard
        ``RSk`` union of refine rounds; ``search_ms`` /
        ``search_flushes`` time / count the query-axis round (select,
        indexed-search)."""
        return {
            "merge_ms": round(1000 * self._merge_s, 2),
            "search_ms": round(1000 * self._search_s, 2),
            "search_flushes": self._search_flushes,
            "search_workers": self._search_width(),
            "partition_skew": round(self.partition_skew, 3),
        }

    def clear_topk_cache(self) -> None:
        """Drop the shared pools (and with them the per-k states the
        select round ships) and every merged threshold map."""
        self.root.clear_topk_cache()
        self._merged_by_k.clear()

    def reset_io(self) -> None:
        self.root.reset_io()

    def prewarm_kernels(self) -> None:
        """Build every numpy cache up front (server startup hook).

        Full-dataset arrays, the shared tree arrays, and each shard's
        ``DatasetArrays`` (all over the one ``ObjectColumns`` the first
        of them builds) — so first-query latency pays no build cost
        and pools forked later inherit everything via copy-on-write.
        """
        from ..core.kernels import HAS_NUMPY, arrays_for, tree_arrays_for

        if not HAS_NUMPY:
            return
        arrays_for(self.dataset)
        tree_arrays_for(self.root.object_tree)
        for shard in self._shards:
            if shard.users:
                arrays_for(shard.engine.dataset)
        self.root.ensure_arena()

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
    # Pool lifecycle
    # ------------------------------------------------------------------
    def start_pools(
        self,
        workers_per_shard: int = 1,
        search_workers: Optional[int] = None,
        *,
        retry=None,
        deadline=None,
        faults=None,
    ) -> "ShardedEngine":
        """Fork one persistent pool per populated shard + a search pool.

        Workers inherit their shard dataset (and its pre-built
        ``DatasetArrays``) via copy-on-write at fork time; the shard
        pools serve the cold refine rounds, which then ship only the
        traversal pool's reference.  The root **search pool** holds the
        full dataset — plus the MIUR-tree as worker context when the
        engine indexes users — and answers every flush's query-axis
        round (joint ``select``, ``indexed-search``), ``search_workers``
        wide (defaults to ``num_shards``; 0 disables it, keeping those
        rounds in-process).  Idempotent start is an error (mirrors the
        server lifecycle).

        If any pool construction fails partway (fork unavailable, out
        of memory), every pool already forked is torn down before the
        error propagates — a failed start leaves no leaked workers and
        the engine back in its in-process state.

        ``retry`` / ``deadline`` are the supervision policies
        (:class:`~repro.serve.config.RetryPolicy` /
        :class:`~repro.serve.config.DeadlinePolicy`) every pool runs
        under; ``faults`` is an optional
        :class:`~repro.serve.faults.FaultPlan` for deterministic fault
        injection (scoped per pool via its ``pool_id``: shard pools get
        their shard id, the search pool ``SEARCH_POOL_ID``).
        """
        if self._pools_started:
            raise RuntimeError("shard pools already started")
        if self._hosts_connected:
            raise RuntimeError("cannot start pools: shard hosts are connected")
        if workers_per_shard < 1:
            raise ValueError(f"workers_per_shard must be >= 1, got {workers_per_shard}")
        if search_workers is None:
            search_workers = self.config.num_shards
        if search_workers < 0:
            raise ValueError(f"search_workers must be >= 0, got {search_workers}")
        try:
            # Materialize the arena (config.use_shm) BEFORE any fork:
            # workers inherit the shm-backed views via copy-on-write
            # and respawned generations re-attach it by this name.
            arena = self.root.ensure_arena()
            arena_name = arena.name if arena is not None else None
            for shard in self._shards:
                if shard.users == 0:
                    continue  # nothing will ever be scattered here
                shard.pool = PersistentWorkerPool(
                    shard.engine.dataset, workers_per_shard,
                    retry=retry, deadline=deadline, faults=faults,
                    pool_id=shard.shard_id, arena_name=arena_name,
                )
                shard.stats.pool_workers = workers_per_shard
            if search_workers > 0:
                self._search_pool = PersistentWorkerPool(
                    self.dataset, search_workers, context=self.root.user_tree,
                    retry=retry, deadline=deadline, faults=faults,
                    pool_id=SEARCH_POOL_ID, arena_name=arena_name,
                )
        except BaseException:
            # _pools_started is still False, so the caller (e.g. the
            # server's start()) will never call close_pools() for us —
            # reap the partial state here or the forked workers leak.
            self.close_pools()
            raise
        pools = {s.shard_id: s.pool for s in self._shards if s.pool is not None}
        if self._search_pool is not None:
            pools[SEARCH_LANE] = self._search_pool
        self._executor.transport = PoolTransport(pools)
        self._pools_started = True
        return self

    def close_pools(self, timeout_s: Optional[float] = None) -> None:
        """Shut every shard pool (and the search pool) down (idempotent).

        ``timeout_s`` bounds each pool's shutdown (see
        :meth:`~repro.serve.pool.PersistentWorkerPool.close`); ``None``
        waits unbounded.  Every pool is closed even if some fail: close
        errors are collected and surfaced as ONE aggregated
        ``RuntimeWarning`` after the sweep, so a bad shard can neither
        abort its siblings' shutdown nor leak their workers.
        """
        failures: List[str] = []

        def _close(label: str, pool: PersistentWorkerPool) -> None:
            self._absorb_fault_totals(pool)
            try:
                pool.close(timeout_s=timeout_s)
            except Exception as exc:  # noqa: BLE001 - aggregate, keep sweeping
                failures.append(f"{label}: {exc!r}")

        for shard in self._shards:
            if shard.pool is not None:
                _close(f"shard {shard.shard_id}", shard.pool)
                shard.pool = None
                shard.stats.pool_workers = 0
        if self._search_pool is not None:
            _close("search pool", self._search_pool)
            self._search_pool = None
        # Unlink the arena only after every worker process is gone:
        # live attachments keep their mappings (POSIX semantics), but a
        # clean close leaves /dev/shm empty — the leak criterion the
        # shm tests scan for.
        self.root.close_arena()
        if self._pools_started:
            self._executor.transport = INLINE
        self._pools_started = False
        if failures:
            warnings.warn(
                f"{len(failures)} worker pool(s) failed to close cleanly: "
                + "; ".join(failures),
                RuntimeWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # Shard host lifecycle (the socket transport)
    # ------------------------------------------------------------------
    def connect_hosts(
        self, hosts, *, retry=None, deadline=None, connect_timeout_s: float = 5.0
    ) -> "ShardedEngine":
        """Scatter to shard host processes over TCP (socket analog of
        :meth:`start_pools`).

        ``hosts`` is a ``"host:port,host:port"`` string or a sequence
        of specs/pairs — one entry per ``repro shard-host`` process,
        each of which rebuilt this engine's exact partition layout from
        the shared workload spec (:mod:`repro.serve.shardhost`).  The
        executor's transport becomes a
        :class:`~repro.serve.transport.SocketTransport`; pipeline stages
        run unchanged, scatter rounds — refine per shard, the joint
        selections one lane per alive host — cross TCP as
        :class:`~repro.serve.transport.FrameCodec` frames carrying the
        arena-codec payloads verbatim.  ``retry`` / ``deadline`` are
        the same supervision policies the fork pools take; host death
        re-scatters a round to a surviving host, exhaustion degrades it
        to in-process execution — results bitwise-identical throughout.

        Mutually exclusive with :meth:`start_pools` (one transport at a
        time); undo with :meth:`close_hosts`.
        """
        if self._pools_started:
            raise RuntimeError("cannot connect hosts: fork pools are running")
        if self._hosts_connected:
            raise RuntimeError("shard hosts already connected")
        from .transport import ShardRegistry, SocketTransport

        # Materialize the arena (config.use_shm) BEFORE the first
        # scatter so payload encoding has refs to ship; hosts attach
        # the segments lazily, by name, as foreign attachers.
        self.root.ensure_arena()
        registry = ShardRegistry.from_specs(
            hosts, connect_timeout_s=connect_timeout_s
        )
        registry.connect_all()
        self._registry = registry
        self._executor.transport = SocketTransport(
            registry, self.dataset, retry=retry, deadline=deadline
        )
        self._hosts_connected = True
        return self

    def close_hosts(self) -> None:
        """Drop the host connections and restore in-process scatter
        (idempotent).  Registry fault counters are banked so
        :meth:`fault_counters` stays monotone, mirroring pool close."""
        if not self._hosts_connected:
            return
        registry = self._registry
        totals = self._closed_fault_totals
        for key, value in registry.fault_counters().items():
            totals[key] = totals.get(key, 0) + value
        registry.close()
        self._registry = None
        self._executor.transport = INLINE
        self._hosts_connected = False
        self.root.close_arena()

    def _absorb_fault_totals(self, pool: PersistentWorkerPool) -> None:
        """Bank a closing pool's counters so totals stay monotone."""
        health = pool.health
        totals = self._closed_fault_totals
        totals["respawns"] += health.respawns
        totals["worker_deaths"] += health.worker_deaths
        totals["deadline_hits"] += health.deadline_hits
        totals["retries"] += health.retries

    def _live_pools(self) -> List[PersistentWorkerPool]:
        pools = [s.pool for s in self._shards if s.pool is not None]
        if self._search_pool is not None:
            pools.append(self._search_pool)
        return pools

    def fault_counters(self) -> Dict[str, int]:
        """Respawn/death/deadline/retry totals across every pool this
        engine ever ran (live pools plus the banked closed ones)."""
        totals = dict(self._closed_fault_totals)
        for pool in self._live_pools():
            health = pool.health
            totals["respawns"] += health.respawns
            totals["worker_deaths"] += health.worker_deaths
            totals["deadline_hits"] += health.deadline_hits
            totals["retries"] += health.retries
        if self._registry is not None:
            for key, value in self._registry.fault_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def pool_health(self) -> List[dict]:
        """Typed health snapshot of every live pool (shards + search)."""
        rows = []
        for shard in self._shards:
            if shard.pool is not None:
                rows.append({"pool": f"shard-{shard.shard_id}",
                             **shard.pool.health.snapshot()})
        if self._search_pool is not None:
            rows.append({"pool": "search", **self._search_pool.health.snapshot()})
        if self._registry is not None:
            rows.extend(self._registry.health_rows())
        return rows

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
        options: Union[QueryOptions, str, None] = None,
        *,
        method: Optional[str] = None,
        mode: Optional[str] = None,
        backend: Optional[str] = None,
    ) -> MaxBRSTkNNResult:
        """Answer one query (executed as a scatter/gather batch of one).

        Unlike a cold single-engine ``query``, the shared traversal
        pool is memoized across calls — thresholds derived from it are
        value-identical to dedicated walks (PR 3's subsumption
        guarantee; PR 5 extended it to the indexed node-RSk), so
        results still match sequential queries exactly.
        """
        opts = coerce_options(
            options, method=method, mode=mode, backend=backend,
            api="ShardedEngine.query",
        )
        # Plan as a batch of one directly (not plan_query): a 1-shard
        # ShardedEngine is indistinguishable from a single engine in
        # the capabilities, but execution always needs the shared-pool
        # batch plan (shared_traversal_k) regardless of shard count.
        plan = plan_batch(
            opts, self._planning_caps(opts), [query.k],
            history=self.flush_history,
        )
        return self._execute_batch([query], plan)[0]

    def query_batch(
        self,
        queries: Sequence[MaxBRSTkNNQuery],
        options: Union[QueryOptions, str, None] = None,
        *,
        method: Optional[str] = None,
        mode: Optional[str] = None,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        pool=None,
    ) -> List[MaxBRSTkNNResult]:
        """Answer a batch: one shared walk, one scatter round per phase.

        ``QueryOptions.workers`` does not apply here — parallelism
        comes from the per-shard and search pools
        (:meth:`start_pools`); the planner resolves sharded plans to
        ``workers=1`` so ``explain()`` reflects that.
        """
        if pool is not None:
            raise TypeError(
                "ShardedEngine owns its per-shard pools (start_pools()); "
                "an external selection pool cannot be injected"
            )
        opts = coerce_options(
            options, method=method, mode=mode, backend=backend, workers=workers,
            api="ShardedEngine.query_batch",
        )
        if opts.workers != 1:
            # Scatter/search pools are the only parallelism here; drop
            # the fork fan-out request before planning so the plan (and
            # explain()) never claims a pool this engine will not run.
            opts = opts.with_(workers=1)
        queries = list(queries)
        if not queries:
            return []
        plan = plan_batch(
            opts, self._planning_caps(opts), [q.k for q in queries],
            history=self.flush_history,
        )
        return self._execute_batch(queries, plan)

    # ------------------------------------------------------------------
    # Scatter/gather execution (driven by the unified phase pipeline)
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
        results = self._executor.execute(queries, plan)
        if self._executor.last_flush_report is not None:
            self.flush_history.record(
                signature_of(plan), self._executor.last_flush_report
            )
        return results


def make_engine(
    dataset: Dataset, config: Optional[EngineConfig] = None
) -> Union[MaxBRSTkNNEngine, ShardedEngine]:
    """Build the right engine for ``config``: sharded iff ``num_shards > 1``."""
    config = config if config is not None else EngineConfig()
    if config.num_shards > 1:
        return ShardedEngine(dataset, config)
    return MaxBRSTkNNEngine(dataset, config)
