"""Supervised persistent fork pool — the pipe lane of a scatter round.

A serving layer answers many batches over one immutable dataset, so the
pool forks **once**: workers inherit the dataset and the pre-built
:class:`~repro.core.kernels.DatasetArrays` (built *before* the fork so
the arrays live in shared copy-on-write pages), and each round ships
only small per-chunk payloads through the pool's queues.  The one
owner of such a pool is :meth:`repro.serve.sharded.ShardedEngine.start_pools`.

Workers can also carry an optional **context** object inherited the
same way — the engine registers the MIUR-tree here so
``indexed_search`` payloads
(:func:`repro.core.pipeline.execute_shard_payload`) can run the
best-first search in-worker against read-only ledger stores.

**Supervision.**  A bare ``multiprocessing.Pool`` has a deadly failure
mode for serving: a worker that dies mid-task loses the task forever
and the round's ``AsyncResult`` simply *never* becomes ready — wedging
the flush and every future parked on it.  The pool therefore never
hands out raw async results on the serving path; rounds flow through

* :meth:`dispatch` — start a round, returning a :class:`PoolDispatch`
  ticket;
* :meth:`collect` — await one ticket with *supervision*: polls worker
  liveness (any exitcode outside {None, 0}, or a replacement pid
  appearing) and the :class:`~repro.serve.config.DeadlinePolicy`
  deadline, raising typed :class:`~repro.serve.errors.PoolFailure`
  subclasses instead of hanging;
* :meth:`run_supervised` — dispatch + collect + the
  :class:`~repro.serve.config.RetryPolicy` ladder: worker death ⇒
  :meth:`respawn` (capped exponential backoff) and re-dispatch; task
  exception ⇒ plain re-dispatch; budget exhausted or pool broken ⇒ a
  :class:`~repro.core.pipeline.ScatterFailure`, on which
  :func:`~repro.core.pipeline.run_round` degrades the lane in-process.

:class:`PoolTransport` adapts the sharded engine's pool to ``run_round``'s
:class:`~repro.core.pipeline.Transport` protocol.

Health is typed and observable: :class:`PoolHealth` carries the
:class:`PoolState` machine (HEALTHY → RESPAWNING → HEALTHY | BROKEN,
→ CLOSED) plus monotone counters (respawns, worker deaths, deadline
hits, retries) that the server aggregates onto ``ServerStats``.

Requires the ``fork`` start method (Linux/macOS).  Construction raises
:class:`RuntimeError` where unavailable — callers fall back to
in-process execution (``ServerConfig.pool_workers=0``).
"""

from __future__ import annotations

import contextlib
import enum
import itertools
import multiprocessing
import os
import signal
import threading
import time
import warnings
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..core.kernels import arrays_for
from ..core.payload import encode_gather_payload, payload_nbytes
from ..core.pipeline import (
    Lane,
    ScatterFailure,
    Ticket,
    execute_shard_payload,
)
from .config import DeadlinePolicy, RetryPolicy
from .errors import (
    FlushDeadlineExceeded,
    PoolUnavailable,
    ScatterTaskError,
    WorkerCrashed,
)
from .faults import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.dataset import Dataset

__all__ = [
    "PersistentWorkerPool",
    "PoolDispatch",
    "PoolHealth",
    "PoolState",
    "PoolTransport",
    "execute_shard_payload",
]

#: Parent-side registry of pool (dataset, context, faults, arena_name)
#: tuples, keyed by a per-pool token.  Forked workers inherit the whole
#: registry through copy-on-write and the initializer resolves their
#: token into ``_WORKER_DATASET`` / ``_WORKER_CONTEXT`` (plus the
#: fault-injection plan) — only the *token* and the
#: pool generation (two ints) ever cross the worker pipe.  Passing the
#: dataset itself as Pool ``initargs`` would *pickle* it per worker,
#: silently dropping the pre-built DatasetArrays (Dataset.__getstate__
#: excludes them, and DatasetArrays refuses to pickle outright) and
#: making every worker rebuild them: the exact waste this pool exists
#: to avoid.  A registry (rather than one module global) keeps late
#: worker respawns and concurrent pools correct — whenever a child
#: forks, its registry snapshot holds every live pool's dataset.  The
#: regression test ``tests/serve/test_pool.py`` asserts workers
#: inherit, not rebuild.
_WORKER_DATASET = None
_WORKER_CONTEXT = None
_WORKER_FAULTS: Optional[FaultPlan] = None
_WORKER_GENERATION = 0
_WORKER_TASK_INDEX = 0
#: Name of the shm arena this worker verified it can map (None when the
#: pool runs without one).  Set by the initializer's attach probe — on
#: the *first* generation it proves the fork inherited live mappings,
#: and on every respawned generation N+1 it proves the worker can
#: re-attach by name alone (the zero-copy tier's respawn contract).
_WORKER_ARENA_NAME: Optional[str] = None
_FORK_DATASETS: Dict[int, tuple] = {}
_FORK_TOKENS = itertools.count()


def _init_worker(token: int, generation: int = 0) -> None:
    global _WORKER_DATASET, _WORKER_CONTEXT, _WORKER_FAULTS
    global _WORKER_GENERATION, _WORKER_TASK_INDEX, _WORKER_ARENA_NAME
    (_WORKER_DATASET, _WORKER_CONTEXT, _WORKER_FAULTS,
     arena_name) = _FORK_DATASETS[token]
    _WORKER_GENERATION = generation
    _WORKER_TASK_INDEX = 0
    _WORKER_ARENA_NAME = None
    if arena_name is not None:
        # Re-attach by name, not by inherited state: a respawned worker
        # (generation > 0) was forked *after* SIGKILL recovery and must
        # be able to map the arena from its name alone.  The probe
        # raises if the arena is gone — failing the spawn loudly beats
        # serving refs that cannot resolve.
        from ..storage.shm import ShmArena

        ShmArena.attach(arena_name).close()
        _WORKER_ARENA_NAME = arena_name


def _payload_lane(payload: tuple) -> Optional[int]:
    """Refine lane (row range index) a scatter payload carries (None
    for selection / indexed-search payloads)."""
    if isinstance(payload, tuple) and payload and payload[0] == "refine":
        return payload[3]
    return None


def _maybe_inject(payload) -> None:
    """Worker-side fault hook: counts this worker's tasks and fires the
    inherited :class:`FaultPlan` (if any, and if armed for this pool
    generation).  One ``is None`` check when no plan is armed."""
    global _WORKER_TASK_INDEX
    if _WORKER_FAULTS is None:
        return
    index = _WORKER_TASK_INDEX
    _WORKER_TASK_INDEX = index + 1
    _WORKER_FAULTS.worker_hook(
        index, _WORKER_GENERATION, _payload_lane(payload)
    )


def _run_shard_payload(payload: tuple):
    """THE worker function: every payload kind of
    :func:`repro.core.pipeline.execute_shard_payload`.  The dataset
    itself never travels — workers hold it from the fork (COW)."""
    _maybe_inject(payload)
    chunk = execute_shard_payload(
        _WORKER_DATASET, payload, context=_WORKER_CONTEXT
    )
    # Gather funnel: refine chunks cross the worker->parent pipe as
    # ONE binary block; everything else returns unchanged.
    # run_round decodes at its collect site.
    return encode_gather_payload(chunk)


class PoolState(enum.Enum):
    """Supervision state machine of one :class:`PersistentWorkerPool`."""

    HEALTHY = "healthy"        # workers up, rounds dispatchable
    RESPAWNING = "respawning"  # old workers torn down, new ones forking
    BROKEN = "broken"          # respawn failed: terminal until rebuilt
    CLOSED = "closed"          # close() ran (terminal)


@dataclass(slots=True)
class PoolHealth:
    """Typed, observable health of one pool (monotone counters)."""

    state: PoolState = PoolState.HEALTHY
    generation: int = 0        # bumped by every successful respawn
    respawns: int = 0          # successful worker-set rebuilds
    worker_deaths: int = 0     # rounds aborted by a dead worker
    deadline_hits: int = 0     # rounds aborted by the flush deadline
    retries: int = 0           # rounds re-dispatched by run_supervised
    consecutive_failures: int = 0  # backoff driver; reset on success
    last_error: Optional[str] = None

    def snapshot(self) -> dict:
        return {
            "state": self.state.value,
            "generation": self.generation,
            "respawns": self.respawns,
            "worker_deaths": self.worker_deaths,
            "deadline_hits": self.deadline_hits,
            "retries": self.retries,
            "consecutive_failures": self.consecutive_failures,
            "last_error": self.last_error,
        }


@dataclass(slots=True)
class PoolDispatch:
    """Ticket for one in-flight scatter round (collect() redeems it)."""

    async_result: object
    payloads: list
    generation: int               # pool generation it was dispatched on
    deadline_s: Optional[float]   # per-round budget (None = unbounded)
    started_s: float = field(default_factory=time.monotonic)


class PersistentWorkerPool:
    """Long-lived supervised fork pool bound to one dataset.

    Parameters
    ----------
    dataset:
        The dataset every payload is answered against.  Must not be
        mutated after the pool is built (workers hold the pre-fork
        snapshot).
    workers:
        Number of worker processes (>= 1).
    context:
        Optional extra object workers inherit via copy-on-write (the
        sharded engine passes the MIUR-tree so indexed-search payloads
        can run in-worker).
    retry / deadline:
        Supervision policies (:class:`~repro.serve.config.RetryPolicy`,
        :class:`~repro.serve.config.DeadlinePolicy`); defaults retry
        once and bound every round at 30 s.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` inherited by the
        workers — deterministic fault injection for tests/CI.
    arena_name:
        Name of the engine-owned :class:`~repro.storage.shm.ShmArena`
        (``None`` without one).  Every worker generation's initializer
        probes an attach-by-name against it, so respawned workers prove
        they can map the arena without relying on fork inheritance.
    """

    def __init__(
        self,
        dataset: "Dataset",
        workers: int,
        context=None,
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[DeadlinePolicy] = None,
        faults: Optional[FaultPlan] = None,
        arena_name: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "PersistentWorkerPool requires the 'fork' start method"
            )
        arrays_for(dataset)  # build before forking: shared via COW
        self.dataset = dataset
        self.workers = workers
        self.context = context
        self.retry = retry if retry is not None else RetryPolicy()
        self.deadline = deadline if deadline is not None else DeadlinePolicy()
        self.faults = faults
        self.arena_name = arena_name
        self.health = PoolHealth()
        self._ctx = multiprocessing.get_context("fork")
        #: Reentrant: close() may run from a thread while respawn holds
        #: the lock, and respawn's spawn path re-enters helpers.
        self._lock = threading.RLock()
        self._token = next(_FORK_TOKENS)
        _FORK_DATASETS[self._token] = (dataset, context, faults, arena_name)
        self._closed = False
        self._pool = None
        self._known_pids: set = set()
        # Safety net for pools dropped without close(): the finalizer
        # evicts the registry entry so a leaked pool cannot pin the
        # dataset (and its dense arrays) for the process lifetime.
        self._registry_finalizer = weakref.finalize(
            self, _FORK_DATASETS.pop, self._token, None
        )
        self._spawn()

    # ------------------------------------------------------------------
    # Worker-set lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        """Fork a fresh worker set for the current generation.

        Workers fork inside Pool() and snapshot the registry (and the
        arrays hanging off the dataset) via copy-on-write; initargs
        carries only the token and generation.
        """
        self._pool = self._ctx.Pool(
            self.workers,
            initializer=_init_worker,
            initargs=(self._token, self.health.generation),
        )
        self._known_pids = {proc.pid for proc in self._pool._pool}

    def _worker_death_detected(self) -> bool:
        """Did any worker of the current set die abnormally?

        Two signals, because ``multiprocessing.Pool``'s own handler
        thread silently *replaces* dead workers: an exitcode outside
        {None, 0} still in the table, or a pid we did not fork (the
        replacement).  Either way the dying worker's task is lost and
        the in-flight round will never complete.
        """
        procs = list(getattr(self._pool, "_pool", None) or [])
        died = any(proc.exitcode not in (None, 0) for proc in procs)
        fresh = {proc.pid for proc in procs} - self._known_pids
        return died or bool(fresh)

    def respawn(self) -> None:
        """Tear the current worker set down and fork a new generation.

        Sleeps the :class:`RetryPolicy` backoff first (capped
        exponential in consecutive failures), so a persistently dying
        worker set cannot fork-bomb the host.  A failed respawn marks
        the pool BROKEN — terminal — and raises
        :class:`PoolUnavailable`.
        """
        with self._lock:
            if self._closed:
                raise PoolUnavailable("pool is closed; cannot respawn")
            if self.health.state is PoolState.BROKEN:
                raise PoolUnavailable("pool is broken (previous respawn failed)")
            plan = self.faults
            if plan is not None and plan.break_respawn and plan.armed(
                self.health.generation
            ):
                self.health.state = PoolState.BROKEN
                self.health.last_error = "injected respawn failure"
                raise PoolUnavailable(
                    "injected respawn failure (FaultPlan.break_respawn)"
                )
            self.health.state = PoolState.RESPAWNING
            old_pool, self._pool = self._pool, None
            if old_pool is not None:
                self._terminate_bounded(old_pool)
            backoff = self.retry.backoff_s(self.health.consecutive_failures)
            if backoff > 0:
                time.sleep(backoff)
            self.health.generation += 1
            try:
                self._spawn()
            except Exception as exc:
                self.health.state = PoolState.BROKEN
                self.health.last_error = f"respawn failed: {exc!r}"
                raise PoolUnavailable(
                    f"pool respawn failed: {exc!r}"
                ) from exc
            self.health.state = PoolState.HEALTHY
            self.health.respawns += 1

    def _terminate_bounded(self, pool, timeout_s: float = 5.0) -> None:
        """Terminate a (possibly wedged) worker set without hanging.

        ``Pool.terminate()`` joins its workers after SIGTERMing them,
        and a stopped worker leaves SIGTERM pending without dying — run
        it in a helper thread, then SIGKILL whatever survives (SIGKILL
        cannot be blocked and fells stopped processes too).
        """
        terminator = threading.Thread(target=pool.terminate, daemon=True)
        terminator.start()
        terminator.join(timeout_s)
        if terminator.is_alive():
            for proc in list(getattr(pool, "_pool", None) or []):
                if proc.is_alive():
                    with contextlib.suppress(ProcessLookupError, PermissionError):
                        os.kill(proc.pid, signal.SIGKILL)
            terminator.join(timeout_s)

    @property
    def available(self) -> bool:
        """Can a round be dispatched here right now?"""
        return not self._closed and self.health.state in (
            PoolState.HEALTHY, PoolState.RESPAWNING
        )

    # ------------------------------------------------------------------
    # Supervised rounds
    # ------------------------------------------------------------------
    def dispatch(self, payloads: Sequence) -> PoolDispatch:
        """Start one scatter round; returns the ticket for collect()."""
        payloads = list(payloads)
        with self._lock:
            if self._closed:
                raise PoolUnavailable("pool is closed")
            if self.health.state is PoolState.BROKEN:
                raise PoolUnavailable("pool is broken (respawn failed)")
            plan = self.faults
            if plan is not None and plan.break_dispatch and plan.armed(
                self.health.generation
            ):
                self.health.consecutive_failures += 1
                self.health.last_error = "injected pool loss at dispatch"
                raise WorkerCrashed(
                    "injected pool loss (FaultPlan.break_dispatch)"
                )
            async_result = self._pool.map_async(_run_shard_payload, payloads)
            return PoolDispatch(
                async_result=async_result,
                payloads=payloads,
                generation=self.health.generation,
                deadline_s=self.deadline.flush_deadline_s,
            )

    def collect(self, dispatch: PoolDispatch) -> list:
        """Await one round under supervision (never hangs).

        Polls the async result against worker liveness and the deadline;
        raises :class:`WorkerCrashed` / :class:`FlushDeadlineExceeded` /
        :class:`PoolUnavailable` instead of waiting on a result that
        can never arrive.  Task exceptions surface as
        :class:`ScatterTaskError` with the original chained.
        """
        async_result = dispatch.async_result
        end_s = (
            dispatch.started_s + dispatch.deadline_s
            if dispatch.deadline_s is not None else None
        )
        while True:
            if async_result.ready():
                try:
                    chunks = async_result.get()
                except Exception as exc:
                    self.health.consecutive_failures += 1
                    self.health.last_error = f"task raised: {exc!r}"
                    raise ScatterTaskError(
                        f"scatter task raised in worker: {exc!r}"
                    ) from exc
                self.health.consecutive_failures = 0
                return chunks
            if self._closed or dispatch.generation != self.health.generation:
                raise PoolUnavailable(
                    "pool closed or respawned under an in-flight round"
                )
            if self._worker_death_detected():
                self.health.worker_deaths += 1
                self.health.consecutive_failures += 1
                self.health.last_error = "worker process died mid-round"
                raise WorkerCrashed(
                    "worker process died mid-round; its tasks are lost"
                )
            if end_s is not None and time.monotonic() >= end_s:
                self.health.deadline_hits += 1
                self.health.consecutive_failures += 1
                self.health.last_error = (
                    f"round missed its {dispatch.deadline_s:.3f}s deadline"
                )
                raise FlushDeadlineExceeded(
                    f"scatter round exceeded its "
                    f"{dispatch.deadline_s:.3f}s flush deadline"
                )
            async_result.wait(self.deadline.poll_interval_s)

    def run_supervised(
        self,
        payloads: Sequence,
        dispatch: Optional[PoolDispatch] = None,
    ) -> list:
        """Dispatch + collect + the retry ladder, in one call.

        Worker death or a deadline hit respawns the worker set (capped
        backoff) and re-dispatches the same payloads; a task exception
        re-dispatches without respawn (the workers are fine).  Retries
        beyond ``RetryPolicy.max_retries``, or a pool gone terminal,
        raise the last failure — a
        :class:`~repro.core.pipeline.ScatterFailure` on which
        ``run_round`` degrades the lane to in-process execution.  Pass a
        pre-made ``dispatch`` ticket to supervise a round already
        started via :meth:`dispatch`.
        """
        payloads = list(payloads)
        attempts = self.retry.max_retries + 1
        failure: Optional[Exception] = None
        for attempt in range(attempts):
            try:
                ticket = (
                    dispatch if attempt == 0 and dispatch is not None
                    else self.dispatch(payloads)
                )
                return self.collect(ticket)
            except PoolUnavailable:
                raise  # terminal: no pool to retry on
            except (WorkerCrashed, FlushDeadlineExceeded) as exc:
                failure = exc
                if attempt + 1 >= attempts:
                    break
                self.respawn()  # PoolUnavailable from here propagates
                self.health.retries += 1
            except ScatterTaskError as exc:
                failure = exc
                if attempt + 1 >= attempts:
                    break
                self.health.retries += 1
        assert failure is not None
        raise failure

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self, timeout_s: Optional[float] = None) -> None:
        """Shut the workers down (idempotent, safe during respawn).

        ``timeout_s`` bounds the shutdown: ``Pool.join`` waits for every
        worker to read its close sentinel, so a worker killed or hung
        mid-task stalls an unbounded join *forever*.  With a timeout the
        join runs in a helper thread; if it misses the deadline the pool
        is ``terminate()``d with a warning, and workers that survive
        even that (e.g. stopped processes, which leave SIGTERM pending)
        are SIGKILLed.  ``None`` keeps the unbounded wait.

        Double-close is a no-op, and closing while a respawn has the
        worker set torn down (``_pool is None``) or mid-rebuild must
        not raise — the respawner's generation check surfaces
        :class:`PoolUnavailable` to its own caller.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self.health.state = PoolState.CLOSED
            pool, self._pool = self._pool, None
        try:
            if pool is not None:
                # Pool.close() raises ValueError if the pool is already
                # terminating (a respawn raced us); the terminate path
                # below still bounds the teardown.
                with contextlib.suppress(ValueError):
                    pool.close()
                if timeout_s is None:
                    pool.join()
                else:
                    self._join_bounded(pool, timeout_s)
        finally:
            self._registry_finalizer()

    def _join_bounded(self, pool, timeout_s: float) -> None:
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(timeout_s)
        if not joiner.is_alive():
            return
        warnings.warn(
            f"worker pool did not shut down within {timeout_s:.1f}s "
            f"(worker killed or hung mid-task?); terminating its workers",
            RuntimeWarning,
            stacklevel=3,
        )
        self._terminate_bounded(pool, timeout_s)
        joiner.join(timeout_s)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PoolTransport:
    """The pipe lane of :func:`repro.core.pipeline.run_round`: ONE lane
    — the supervised pool, whose workers pull the lane's payloads one
    by one."""

    remote = True
    serves_indexed = True  # a sharded engine's pool holds the MIUR-tree

    def __init__(self, pool: PersistentWorkerPool) -> None:
        self.pool = pool

    def chunk_width(self) -> int:
        # A closed/broken pool's lane degrades in-process: one chunk.
        return self.pool.workers if self.pool.available else 1

    def lanes(self) -> int:
        return 1

    def dispatch(self, lanes: Sequence[Lane]) -> List[Ticket]:
        pool = self.pool
        tickets = []
        for lane in lanes:
            ticket = Ticket(lane)
            if pool.available:
                # Pickle bytes — exactly what the pipe carries — on both
                # payload forms, so the codec's win shows as a smaller
                # number, not a different metric.
                ticket.bytes_out = sum(payload_nbytes(p) for p in lane.payloads)
            # A failed start is collect()'s to re-dispatch, supervised.
            with contextlib.suppress(ScatterFailure):
                ticket.handle = pool.dispatch(lane.payloads)
            tickets.append(ticket)
        return tickets

    def collect(self, ticket: Ticket) -> list:
        pool = self.pool
        retries_before = pool.health.retries
        try:
            chunks = pool.run_supervised(
                ticket.lane.payloads, dispatch=ticket.handle
            )
        finally:
            ticket.retries = pool.health.retries - retries_before
        ticket.bytes_in = sum(payload_nbytes(c) for c in chunks)
        return chunks
