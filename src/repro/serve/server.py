"""Asyncio micro-batching front-end over the batch query engine.

Serving MaxBRSTkNN traffic one query at a time re-pays the expensive
query-independent top-k phase per request — exactly the redundancy
``query_batch`` removes, but a network front-end receives queries one
at a time, not in batches.  :class:`MaxBRSTkNNServer` bridges the gap
with **micro-batching**: ``await server.submit(query)`` parks the
caller on a future, a single flusher task collects everything pending
(flushing when ``max_batch`` queries are waiting or ``max_wait_ms``
has elapsed since the batch opened, whichever comes first), executes
the micro-batch through ``engine.query_batch`` in a worker thread, and
resolves the futures.  Concurrent callers therefore share the top-k
phase — and a sharded engine's lanes, if configured — without knowing
about each other.

Results are identical to sequential ``engine.query`` calls (that is
``query_batch``'s contract); only latency and throughput change.
"""

from __future__ import annotations

import asyncio
import warnings
from collections import deque
from functools import partial
from typing import Deque, List, Optional, Sequence, Tuple

from ..core.cache import ResultCache
from ..core.config import Mode
from ..core.engine import MaxBRSTkNNEngine
from ..core.pipeline import ScatterFailure
from ..core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult
from .config import AdaptiveWaitController, ServerConfig, ServerStats
from .errors import ServerOverloaded, ServerStopped
from .sharded import ShardedEngine

__all__ = ["MaxBRSTkNNServer"]

_PendingItem = Tuple[MaxBRSTkNNQuery, "asyncio.Future[MaxBRSTkNNResult]"]


class MaxBRSTkNNServer:
    """Async micro-batching server over one engine.

    Use as an async context manager (or ``await start()`` / ``await
    stop()`` explicitly)::

        async with MaxBRSTkNNServer(engine, ServerConfig(max_wait_ms=2)) as srv:
            results = await asyncio.gather(*(srv.submit(q) for q in queries))

    One server owns one engine and one :class:`ServerConfig`; every
    submitted query runs with ``config.options``.  All ``submit`` calls
    must come from the event loop the server was started on.

    The engine may be a plain :class:`MaxBRSTkNNEngine` or a
    :class:`~repro.serve.sharded.ShardedEngine` — the engine plus its
    fleet — and the submit/flush path is identical.  Worker processes
    belong to the fleet: ``config.pool_workers > 0`` forks them
    (:meth:`ShardedEngine.start_pools`, that many shard hosts per lane) and
    is refused with a ``ValueError`` for a plain engine, which always
    answers in-process.
    """

    def __init__(
        self, engine: MaxBRSTkNNEngine, config: Optional[ServerConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServerConfig()
        if self.config.pool_workers > 0 and not isinstance(engine, ShardedEngine):
            raise ValueError(
                f"pool_workers={self.config.pool_workers} needs worker lanes, "
                f"which a {type(engine).__name__} does not have: build the "
                "engine with make_engine(..., EngineConfig(num_shards=N)), or "
                "serve it in-process with pool_workers=0"
            )
        self.stats = ServerStats()
        self._pending: Deque[_PendingItem] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wakeup: Optional[asyncio.Event] = None
        self._flusher: Optional["asyncio.Task[None]"] = None
        self._wait: Optional[AdaptiveWaitController] = (
            self.config.make_wait_controller() if self.config.adaptive else None
        )
        #: Cross-flush result cache (``config.cache``): exact repeats
        #: skip the pipeline and resolve straight from the LRU, keyed
        #: on (canonical query signature, options, dataset epoch).
        self._cache: Optional[ResultCache] = (
            ResultCache(self.config.cache) if self.config.cache is not None else None
        )
        self._stopping = False
        self._started = False
        #: Set when pool startup failed and serving continues degraded
        #: (in-process execution; results identical, latency worse).
        self._pools_unavailable = False
        #: Whole-flush re-executions by _execute's last-resort rescue
        #: path (folded into stats.flush_retries alongside pool-level
        #: round retries).
        self._rescue_retries = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "MaxBRSTkNNServer":
        """Start the flusher task (and the engine's lanes, if sized).

        Both kernel caches are built eagerly here — the
        :class:`~repro.core.kernels.DatasetArrays` *and* the
        :class:`~repro.core.kernels.TreeArrays` of the object tree — so
        the first query pays no build cost and lane hosts fork *after*
        the arrays exist, inheriting them through copy-on-write instead
        of rebuilding per process.
        """
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._stopping = False
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self.engine.prewarm_kernels()
        if self.config.pool_workers > 0:
            cfg = self.config
            try:
                # pool_workers sizes the engine's local hosts per lane.
                # A failed start reaps its own partial state before raising.
                self.engine.start_pools(
                    cfg.pool_workers,
                    retry=cfg.retry, deadline=cfg.deadline, faults=cfg.faults,
                )
            except Exception as exc:  # noqa: BLE001 - degrade, keep serving
                # Graceful degradation: no pools means in-process
                # sequential execution — identical results, only
                # latency degrades.  Refusing to serve would turn a
                # capacity problem into an outage.
                self._pools_unavailable = True
                warnings.warn(
                    f"worker pools unavailable ({exc!r}); serving "
                    f"degrades to in-process execution",
                    RuntimeWarning,
                    stacklevel=2,
                )
        self._flusher = asyncio.create_task(self._flush_loop())
        return self

    async def stop(self) -> None:
        """Graceful shutdown: drain pending queries, then stop workers.

        Every future still pending once the drain is over — including
        futures stranded by a crashed flusher — fails with a typed
        :class:`~repro.serve.errors.ServerStopped`; no caller is ever
        left awaiting a future nobody will resolve.
        """
        if not self._started:
            return
        self._stopping = True
        assert self._wakeup is not None
        self._wakeup.set()
        flusher_error: Optional[BaseException] = None
        if self._flusher is not None:
            try:
                await self._flusher
            except BaseException as exc:  # noqa: BLE001 - still must fail futures
                flusher_error = exc
            self._flusher = None
        # The drain answers everything under normal operation; a
        # crashed flusher (or a submit racing the drain) can leave
        # futures behind — fail them typed instead of hanging callers.
        detail = (
            f" (flusher crashed: {flusher_error!r})" if flusher_error else ""
        )
        while self._pending:
            _, future = self._pending.popleft()
            if future.cancelled():  # its caller gave up while it queued
                self.stats.queries_cancelled += 1
            elif not future.done():
                self.stats.queries_failed += 1
                future.set_exception(ServerStopped(
                    f"server stopped before this query was flushed{detail}"
                ))
        self._sync_fault_counters()
        if self.config.pool_workers > 0:
            # Bounded shutdown: a local host stopped or hung mid-task
            # must not stall stop() forever (config.shutdown_timeout_s;
            # None waits unbounded).  Blocking the loop is intended: the
            # flusher has drained and no queries are in flight (the one
            # AB402 entry in tests/test_source_contracts.py's ALLOWED).
            # close_pools is idempotent, so a failed start is fine too.
            self.engine.close_pools(timeout_s=self.config.shutdown_timeout_s)
        # Unlink the arena after the hosts are gone (close_pools
        # already did; close_arena is idempotent) — a stopped server
        # leaves /dev/shm clean.
        self.engine.close_arena()
        self._started = False
        if flusher_error is not None:
            raise flusher_error

    async def __aenter__(self) -> "MaxBRSTkNNServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    async def submit(self, query: MaxBRSTkNNQuery) -> MaxBRSTkNNResult:
        """Answer one query; batches transparently with concurrent calls."""
        if not self._started:
            raise RuntimeError("server not started (use 'async with' or start())")
        if self._stopping:
            raise ServerStopped("server is stopping; no new queries accepted")
        if (
            self.config.max_pending is not None
            and len(self._pending) >= self.config.max_pending
        ):
            # Bounded admission: shedding now (typed, countable) beats
            # queueing unboundedly and timing out everyone later.
            self.stats.queries_shed += 1
            raise ServerOverloaded(
                f"admission queue full ({len(self._pending)} pending >= "
                f"max_pending={self.config.max_pending}); retry later"
            )
        assert self._loop is not None and self._wakeup is not None
        future: "asyncio.Future[MaxBRSTkNNResult]" = self._loop.create_future()
        if self._wait is not None:
            self._wait.observe(self._loop.time())
        self._pending.append((query, future))
        self.stats.queries_submitted += 1
        self._wakeup.set()
        return await future

    async def submit_many(
        self, queries: Sequence[MaxBRSTkNNQuery]
    ) -> List[MaxBRSTkNNResult]:
        """Submit concurrently; results come back in submission order."""
        return list(await asyncio.gather(*(self.submit(q) for q in queries)))

    def stats_snapshot(self) -> dict:
        """Server counters plus per-lane and adaptive-window detail.

        Extends :meth:`ServerStats.snapshot` with the engine's per-range
        refine counters (queue depth, flushes) and the adaptive
        controller's current state (when ``max_wait_ms="auto"``).
        """
        snap = self.stats.snapshot()
        snap["shards"] = self.engine.shard_stats()
        if self._wait is not None:
            snap["adaptive_wait_ms"] = round(self._wait.window_ms(), 3)
            if self._wait.ewma_ms is not None:
                snap["adaptive_ewma_ms"] = round(self._wait.ewma_ms, 3)
        if self._cache is not None:
            snap["cache_entries"] = len(self._cache)
        codec = self.engine.payload_codec
        if codec is not None:
            snap["shm_codec"] = codec.stats_snapshot()
        self._sync_fault_counters()
        pool_health = getattr(self.engine, "pool_health", None)
        if callable(pool_health):
            snap["pool_health"] = pool_health()
        return snap

    def _sync_fault_counters(self) -> None:
        """Mirror the engine's fault totals onto ``ServerStats``.

        The engine's host fleet owns the ground truth (its counters
        survive re-forks and are banked on close); the server copies the
        totals so one ``stats.snapshot()`` tells the whole recovery
        story.
        """
        engine_counters = getattr(self.engine, "fault_counters", None)
        totals = engine_counters() if callable(engine_counters) else {}
        stats = self.stats
        stats.pool_respawns = max(stats.pool_respawns, totals.get("respawns", 0))
        stats.worker_deaths = max(
            stats.worker_deaths, totals.get("worker_deaths", 0)
        )
        stats.deadline_hits = max(
            stats.deadline_hits, totals.get("deadline_hits", 0)
        )
        stats.flush_retries = max(
            stats.flush_retries, totals.get("retries", 0) + self._rescue_retries
        )

    def _account_flush_faults(self, error: Optional[Exception]) -> None:
        """Fold this flush's recovery work into the server counters."""
        self._sync_fault_counters()
        if self._pools_unavailable:
            # Pools never came up: every executed flush is a degraded
            # flush by definition.
            self.stats.degraded_flushes += 1
            return
        if error is not None:
            return  # the flush failed outright; no report to read
        report = self.engine.last_flush_report
        if report is None:
            return
        self.stats.bytes_shipped += (
            report.payload_bytes_out + report.payload_bytes_in
        )
        if report.degraded_lanes > 0:
            self.stats.degraded_flushes += 1

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    async def _flush_loop(self) -> None:
        assert self._loop is not None and self._wakeup is not None
        cfg = self.config
        while True:
            if not self._pending:
                if self._stopping:
                    return
                self._wakeup.clear()
                if self._pending or self._stopping:
                    continue  # raced with a submit between check and clear
                await self._wakeup.wait()
                continue
            # A batch is open: hold it for up to the flush window while
            # more queries trickle in, unless it fills or we are
            # draining.  The window is the configured max_wait_ms, or —
            # in "auto" mode — whatever the adaptive controller derives
            # from the observed arrival rate for *this* batch.
            timed_out = False
            wait_ms = self._wait.window_ms() if self._wait is not None \
                else cfg.max_wait_ms
            self.stats.last_wait_ms = wait_ms
            if wait_ms > 0:
                deadline = self._loop.time() + wait_ms / 1000.0
                while len(self._pending) < cfg.max_batch and not self._stopping:
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        timed_out = True
                        break
                    self._wakeup.clear()
                    try:
                        await asyncio.wait_for(self._wakeup.wait(), remaining)
                    except asyncio.TimeoutError:
                        timed_out = True
                        break
            self.stats.queue_depth_peak = max(
                self.stats.queue_depth_peak, len(self._pending)
            )
            size = min(cfg.max_batch, len(self._pending))
            batch = [self._pending.popleft() for _ in range(size)]
            if size >= cfg.max_batch:
                self.stats.full_flushes += 1
            elif self._stopping:
                self.stats.drain_flushes += 1
            elif timed_out:
                self.stats.timeout_flushes += 1
            else:  # zero window (fixed or adaptive): flush the pending burst
                self.stats.timeout_flushes += 1
            try:
                await self._execute(batch)
            except Exception as exc:  # noqa: BLE001 - fail the batch, not the loop
                # The flusher is the single consumer of the queue: if it
                # died, every later submit would hang forever.  Fail
                # this batch's futures and keep the loop alive.
                for _, future in batch:
                    if not future.done():
                        self.stats.queries_failed += 1
                        future.set_exception(exc)
            except BaseException as exc:
                # The flusher itself is dying (cancellation, interpreter
                # shutdown).  This batch already left the queue, so
                # stop()'s drain would never see its futures — fail them
                # typed here before propagating, or their callers hang.
                for _, future in batch:
                    if not future.done():
                        self.stats.queries_failed += 1
                        future.set_exception(ServerStopped(
                            f"server flusher crashed mid-flush ({exc!r})"
                        ))
                raise

    def _count_threshold_warm(self, queries: Sequence[MaxBRSTkNNQuery]) -> int:
        """Cache misses landing on an already-walked ``k`` (warm tier).

        These queries still execute, but the engine's memoized
        ``SharedTraversalPool`` serves their phase-1 thresholds without a
        tree walk — the cache's warmer tier, worth counting separately
        from exact-result hits.
        """
        if self.config.options.mode is not Mode.JOINT:
            return 0  # baseline has no cross-k pool
        pool_k = self.engine.capabilities().traversal_pool_k
        if pool_k is None:
            return 0
        return sum(1 for q in queries if q.k <= pool_k)

    async def _execute(self, batch: List[_PendingItem]) -> None:
        """Run one micro-batch in a worker thread and resolve futures."""
        assert self._loop is not None
        # Entries whose callers cancelled (client timeout) are dropped
        # here, unexecuted: their futures can take no result, and
        # counting them as completed/failed would drift in_flight
        # negative and never recover.
        live = [entry for entry in batch if not entry[1].done()]
        self.stats.queries_cancelled += len(batch) - len(live)
        if not live:
            return
        queries = [query for query, _ in live]
        self.stats.batches_executed += 1
        self.stats.batch_queries_sum += len(live)
        self.stats.largest_batch = max(self.stats.largest_batch, len(live))
        options = self.config.options
        epoch = getattr(self.engine.dataset, "epoch", 0)
        results: List[Optional[MaxBRSTkNNResult]] = [None] * len(live)
        misses = list(range(len(live)))
        if self._cache is not None:
            misses = []
            for i, query in enumerate(queries):
                hit = self._cache.lookup(query, options, epoch)
                if hit is not None:
                    results[i] = hit
                    self.stats.cache_hits += 1
                else:
                    misses.append(i)
                    self.stats.cache_misses += 1
            if misses and self._cache.policy.track_thresholds:
                self.stats.cache_threshold_hits += self._count_threshold_warm(
                    [queries[i] for i in misses]
                )
        error: Optional[Exception] = None
        if misses:
            run = partial(
                self.engine.query_batch, [queries[i] for i in misses], options
            )
            try:
                try:
                    miss_results = await self._loop.run_in_executor(None, run)
                except ScatterFailure:
                    # run_round degrades pool failures in-process
                    # itself; one escaping here means the flush
                    # died between layers — re-execute the whole flush
                    # once before failing it (identical inputs, so a
                    # success is the identical answer).
                    self._rescue_retries += 1
                    miss_results = await self._loop.run_in_executor(None, run)
            except Exception as exc:  # noqa: BLE001 - fail the batch, keep serving
                error = exc
            else:
                for i, result in zip(misses, miss_results):
                    results[i] = result
                    if self._cache is not None:
                        self.stats.cache_evictions += self._cache.store(
                            queries[i], options, epoch, result
                        )
            self._account_flush_faults(error)
        for (_, future), result in zip(live, results):
            if future.done():  # cancelled while the batch executed
                self.stats.queries_cancelled += 1
            elif result is not None:
                self.stats.queries_completed += 1
                future.set_result(result)
            else:
                self.stats.queries_failed += 1
                future.set_exception(error)
