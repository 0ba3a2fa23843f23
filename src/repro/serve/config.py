"""Typed configuration and stats counters for the serving layer."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..core.config import CachePolicy, QueryOptions, _require_int
from .faults import FaultPlan

__all__ = [
    "DeadlinePolicy",
    "RetryPolicy",
    "ServerConfig",
    "ServerStats",
]


def _require_positive_float(name: str, value, *, allow_zero: bool = False) -> None:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or not (value >= 0 if allow_zero else value > 0)
    ):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How many times a failed lane is re-sent, and how fast hosts
    come back.

    A lane whose host died or missed the deadline is re-scattered to a
    surviving host; one whose payload raised (an ``ERROR`` frame) is
    re-sent to the same host — up to ``max_retries`` times, then the
    lane degrades to in-process execution (``max_retries=0``: at the
    first failure).  Re-forking a dead local host first sleeps a capped
    exponential backoff in the host's consecutive deaths,
    ``min(backoff_cap_s, backoff_base_s * 2**(deaths - 1))``, so a host
    that keeps dying cannot fork-bomb the machine.
    """

    max_retries: int = 1
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 1.0

    def __post_init__(self) -> None:
        _require_int("max_retries", self.max_retries, minimum=0)
        _require_positive_float(
            "backoff_base_s", self.backoff_base_s, allow_zero=True
        )
        _require_positive_float("backoff_cap_s", self.backoff_cap_s)

    def backoff_s(self, consecutive_failures: int) -> float:
        """Sleep before the re-fork after the N-th consecutive death."""
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * (2 ** max(0, consecutive_failures - 1)),
        )


@dataclass(frozen=True, slots=True)
class DeadlinePolicy:
    """Read deadline of one lane's answer (the anti-wedge bound).

    Without it, a host hung mid-payload parks the flush — and with it
    every pending future in the server — forever.  The coordinator's
    read of a lane's answer raises
    :class:`~repro.serve.errors.FlushDeadlineExceeded` once
    ``flush_deadline_s`` has elapsed; the host is then treated as dead
    (a local one is killed and re-forked) and the lane takes the
    retry / degrade ladder.  ``flush_deadline_s=None`` disables the
    deadline (a dead host still surfaces as EOF).
    """

    flush_deadline_s: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.flush_deadline_s is not None:
            _require_positive_float("flush_deadline_s", self.flush_deadline_s)


@dataclass(frozen=True, slots=True)
class ServerConfig:
    """How a :class:`~repro.serve.server.MaxBRSTkNNServer` batches.

    Attributes
    ----------
    max_batch:
        Flush as soon as this many queries are pending.
    max_wait_ms:
        The fixed flush window, a finite number of milliseconds
        ``>= 0``: flush at most this long after the first query of a
        batch arrived; ``0`` flushes immediately (micro-batching still
        picks up everything already pending, so concurrent bursts
        batch).
    pool_workers:
        ``1`` forks the fleet of a
        :class:`~repro.serve.sharded.ShardedEngine` (the server calls
        its ``start_pools``, which forks ``EngineConfig.num_shards``
        hosts on socketpairs); ``0`` (default) runs every round
        in-process — right for CPU-starved machines.  Nothing above 1:
        the fleet is sized by ``num_shards`` alone.  A plain engine
        takes no fleet: the server refuses it with ``pool_workers=1``.
    options:
        The :class:`QueryOptions` every submitted query is answered
        with (one server = one contract; run several servers for mixed
        workloads).
    cache:
        Cross-flush result cache (:mod:`repro.core.cache`): ``None`` /
        ``False`` disables (the default), ``True`` enables with the
        default :class:`~repro.core.config.CachePolicy`, or pass a
        policy directly.  Normalized to ``None`` or a ``CachePolicy``.
    shutdown_timeout_s:
        Bound on the local hosts' shutdown in
        :meth:`MaxBRSTkNNServer.stop`: a host stopped or hung mid-task
        is SIGKILLed (with a warning) instead of waited for forever.
        ``None`` waits unbounded.
    retry:
        :class:`RetryPolicy` governing how failed lanes are re-sent
        (re-scatter / re-fork + retry before degrading).
    deadline:
        :class:`DeadlinePolicy` bounding every lane's answer, so a hung
        host can never wedge a flush.
    max_pending:
        Admission bound: ``submit()`` raises
        :class:`~repro.serve.errors.ServerOverloaded` (and counts the
        shed) once this many queries are queued unflushed.  ``None``
        (default) admits unboundedly.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` injected into
        the local hosts the server starts — test/CI hook; ``None`` in
        production.
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    pool_workers: int = 0
    options: QueryOptions = field(default_factory=QueryOptions.default)
    cache: Union[CachePolicy, bool, None] = None
    shutdown_timeout_s: Optional[float] = 10.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    max_pending: Optional[int] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        _require_int("max_batch", self.max_batch, minimum=1)
        # inf would make partial batches wait forever; NaN fails every
        # comparison and silently degrades to a zero window.
        _require_positive_float(
            "max_wait_ms (the fixed flush window)", self.max_wait_ms,
            allow_zero=True,
        )
        _require_int("pool_workers", self.pool_workers, minimum=0)
        if self.pool_workers > 1:
            raise ValueError(
                f"pool_workers must be 0 (in-process) or 1 (fork the "
                f"engine's fleet), got {self.pool_workers!r}: size the "
                f"fleet with make_engine(..., EngineConfig(num_shards=N))"
            )
        if not isinstance(self.options, QueryOptions):
            raise ValueError("options must be a QueryOptions")
        if self.cache is None or self.cache is False:
            object.__setattr__(self, "cache", None)
        elif self.cache is True:
            object.__setattr__(self, "cache", CachePolicy())
        elif not isinstance(self.cache, CachePolicy):
            raise ValueError(
                f"cache must be a CachePolicy, a bool or None, got {self.cache!r}"
            )
        if self.shutdown_timeout_s is not None and (
            isinstance(self.shutdown_timeout_s, bool)
            or not isinstance(self.shutdown_timeout_s, (int, float))
            or not math.isfinite(self.shutdown_timeout_s)
            or self.shutdown_timeout_s <= 0
        ):
            raise ValueError(
                f"shutdown_timeout_s must be a finite number > 0 or None, "
                f"got {self.shutdown_timeout_s!r}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(f"retry must be a RetryPolicy, got {self.retry!r}")
        if not isinstance(self.deadline, DeadlinePolicy):
            raise ValueError(
                f"deadline must be a DeadlinePolicy, got {self.deadline!r}"
            )
        if self.max_pending is not None:
            _require_int("max_pending", self.max_pending, minimum=1)
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise ValueError(
                f"faults must be a FaultPlan or None, got {self.faults!r}"
            )

    def with_(self, **kwargs) -> "ServerConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)


@dataclass(slots=True)
class ServerStats:
    """Mutable per-server counters (reset with a fresh server)."""

    queries_submitted: int = 0
    queries_completed: int = 0
    queries_failed: int = 0
    queries_cancelled: int = 0  # futures cancelled by callers, dropped at flush
    cache_hits: int = 0            # answered from the result cache
    cache_misses: int = 0          # executed (and stored) on a flush
    cache_evictions: int = 0       # LRU entries aged out by stores
    cache_threshold_hits: int = 0  # misses at an already-walked k (warm tier)
    batches_executed: int = 0
    batch_queries_sum: int = 0
    largest_batch: int = 0
    full_flushes: int = 0      # batch reached max_batch
    timeout_flushes: int = 0   # max_wait_ms elapsed first
    drain_flushes: int = 0     # flushed during shutdown drain
    queue_depth_peak: int = 0  # deepest pending queue seen at a flush
    # -- fault tolerance (the recovery ladder, made observable) --------
    pool_respawns: int = 0     # dead hosts brought back (re-fork / reconnect)
    worker_deaths: int = 0     # hosts found dead (EOF, reset, deadline)
    deadline_hits: int = 0     # lane answers past flush_deadline_s
    flush_retries: int = 0     # lane frames re-sent
    degraded_flushes: int = 0  # flushes that fell back to in-process
    queries_shed: int = 0      # rejected with ServerOverloaded
    #: Frame bytes that crossed the lanes' sockets (dispatched +
    #: collected), summed over executed flushes — the shared-memory
    #: payload tier's win is this counter shrinking, not a claim.
    bytes_shipped: int = 0

    @property
    def avg_batch_size(self) -> float:
        if self.batches_executed == 0:
            return 0.0
        return self.batch_queries_sum / self.batches_executed

    @property
    def in_flight(self) -> int:
        return (
            self.queries_submitted
            - self.queries_completed
            - self.queries_failed
            - self.queries_cancelled
        )

    def snapshot(self) -> dict:
        """Plain-dict view (CLI / logging friendly)."""
        return {
            "queries_submitted": self.queries_submitted,
            "queries_completed": self.queries_completed,
            "queries_failed": self.queries_failed,
            "queries_cancelled": self.queries_cancelled,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_threshold_hits": self.cache_threshold_hits,
            "batches_executed": self.batches_executed,
            "avg_batch_size": round(self.avg_batch_size, 2),
            "largest_batch": self.largest_batch,
            "full_flushes": self.full_flushes,
            "timeout_flushes": self.timeout_flushes,
            "drain_flushes": self.drain_flushes,
            "queue_depth_peak": self.queue_depth_peak,
            "pool_respawns": self.pool_respawns,
            "worker_deaths": self.worker_deaths,
            "deadline_hits": self.deadline_hits,
            "flush_retries": self.flush_retries,
            "degraded_flushes": self.degraded_flushes,
            "queries_shed": self.queries_shed,
            "bytes_shipped": self.bytes_shipped,
        }
