"""Local lanes: shard hosts forked from the serving process.

A serving layer answers many batches over one immutable dataset, so the
local fleet forks **once**: :class:`PersistentWorkerPool` forks
``workers`` children after the dataset's
:class:`~repro.core.kernels.DatasetArrays` exist, each connected to the
coordinator by one end of a ``socket.socketpair()``.  A child inherits
the dataset and its arrays through copy-on-write, pads its heap
(:func:`~repro.serve.shardhost._pad_heap`), and runs the same
:class:`~repro.serve.shardhost.ShardHost` frame handling as ``repro
shard-host``, blocking on its socket, until the coordinator hangs up.
Only frames cross the socket: the payload tuples and the gather-encoded
answers, pickled once, by :class:`~repro.serve.transport.FrameCodec`.

The pool IS a :class:`~repro.serve.transport.ShardRegistry`: it is
reached through the same client, frame codec, transport and fault
ladder as remote hosts.  It differs in two things only — how a host
starts (fork instead of connect) and how a dead one comes back
(re-forked at once, after the :class:`~repro.serve.config.RetryPolicy`
backoff, instead of reconnected by a heartbeat).  A host that died,
stalled past the read deadline (it is SIGKILLed first) or could not be
re-forked leaves rotation; ``run_round`` degrades a lane with no host
left in-process.

The one owner of a pool is
:meth:`repro.serve.sharded.ShardedEngine.start_pools`.  Requires
``os.fork`` (Linux/macOS); construction raises :class:`RuntimeError`
where it is unavailable, and callers serve in-process instead
(``ServerConfig.pool_workers=0``).
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import threading
import time
import warnings
import weakref
from typing import TYPE_CHECKING, List, Optional

from ..core.kernels import arrays_for

# Re-exported: the gather funnel every host answers through, bound here
# by name for benchmarks/e2e/layers.py's probe.
from ..core.payload import encode_gather_payload
from .config import DeadlinePolicy, RetryPolicy
from .errors import PoolUnavailable
from .faults import FaultPlan
from .shardhost import ShardHost, _pad_heap
from .transport import ShardHostClient, ShardRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.dataset import Dataset

__all__ = ["LocalHostClient", "PersistentWorkerPool", "encode_gather_payload"]

#: Coordinator ends of every live local host's socketpair.  A child
#: closes the ones it inherited, so each host's socket is held by the
#: coordinator alone and the host sees EOF the moment it goes.
_COORDINATOR_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()

#: How long a killed host may take to be reaped.
_KILL_WAIT_S = 5.0


def _host_main(pool: "PersistentWorkerPool", sock: socket.socket, generation: int):
    """The forked child's whole life: serve frames, then exit hard (no
    inherited finalizer or atexit hook may run in a child)."""
    code = 1  # unless the frame loop ends with the coordinator's EOF
    try:
        for end in list(_COORDINATOR_ENDS):
            end.close()
        _pad_heap()
        ShardHost(pool.dataset, pool.faults, generation=generation).serve_socket(sock)
        code = 0
    finally:
        os._exit(code)


def _reap(pids: List[int], timeout_s: Optional[float]) -> List[int]:
    """Wait for forked hosts to exit (``None`` = unbounded); returns
    the pids still running when the time is up."""
    end = None if timeout_s is None else time.monotonic() + timeout_s
    waiting = list(pids)
    while waiting:
        for pid in list(waiting):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                waiting.remove(pid)
        if not waiting or (end is not None and time.monotonic() >= end):
            break
        time.sleep(0.001)
    return waiting


def _kill(pid: int) -> None:
    """SIGKILL one host (it fells stopped processes too) and reap it."""
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    _reap([pid], _KILL_WAIT_S)


class LocalHostClient(ShardHostClient):
    """A :class:`ShardHostClient` whose host is a child of this process:
    :meth:`connect` forks it (generation 0 first, +1 per re-fork) and
    :meth:`close` kills and reaps it."""

    forked = True

    def __init__(self, pool: "PersistentWorkerPool", index: int) -> None:
        super().__init__("local", index)
        self.pool = pool
        self.pid: Optional[int] = None
        self.generation = -1  # no host forked yet

    @property
    def addr(self) -> str:
        return f"local-{self.port}"

    def connect(self) -> None:
        if self._sock is not None:
            return
        pool = self.pool
        with pool._lock:
            if pool._closed:
                raise PoolUnavailable("pool is closed")
            ends = ()
            try:
                ends = ours, theirs = socket.socketpair()
                _COORDINATOR_ENDS.add(ours)
                pid = os.fork()
            except OSError as exc:
                for end in ends:
                    end.close()
                raise PoolUnavailable(f"cannot fork a shard host: {exc!r}") from exc
            if pid == 0:  # pragma: no cover - the child never returns
                _host_main(pool, theirs, self.generation + 1)
            theirs.close()
            self.pid, self.generation = pid, self.generation + 1
            self._sock = ours
            self.alive = True

    def close(self) -> None:
        super().close()
        pid, self.pid = self.pid, None
        if pid is not None:
            _kill(pid)


class PersistentWorkerPool(ShardRegistry):
    """``workers`` shard hosts forked from this process (module docstring).

    Parameters
    ----------
    dataset:
        The dataset every payload is answered against.  Must not be
        mutated after the pool is built (hosts hold the pre-fork
        snapshot).
    workers:
        Number of host processes (>= 1), one lane each.
    retry / deadline:
        The ladder's policies (:class:`~repro.serve.config.RetryPolicy`,
        :class:`~repro.serve.config.DeadlinePolicy`); defaults retry
        once and bound every read at 30 s.
    faults:
        Optional :class:`~repro.serve.faults.FaultPlan` — deterministic
        fault injection for tests/CI (hosts inherit it; the
        coordinator-side hooks fire here).
    """

    forked = True

    def __init__(
        self,
        dataset: "Dataset",
        workers: int,
        *,
        retry: Optional[RetryPolicy] = None,
        deadline: Optional[DeadlinePolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not hasattr(os, "fork"):
            raise RuntimeError("PersistentWorkerPool requires os.fork")
        arrays_for(dataset)  # build before forking: shared via COW
        self.workers = workers
        #: What hosts pass ``execute_shard_payload`` as ``context``:
        #: nothing (the traced benchmark probe reads the attribute).
        self.context = None
        #: Guards forks against a concurrent close().
        self._lock = threading.Lock()
        self._closed = False
        super().__init__(
            [LocalHostClient(self, i) for i in range(workers)], dataset,
            retry=retry, deadline=deadline, faults=faults,
        )
        try:
            for client in self.clients:
                client.connect()
        except BaseException:
            self.close(timeout_s=_KILL_WAIT_S)
            raise

    def pids(self) -> List[int]:
        """Process ids of the live hosts."""
        return [c.pid for c in self.clients if c.pid is not None]

    def close(self, timeout_s: Optional[float] = None) -> None:
        """Hang up on every host and reap it (idempotent).

        A healthy host sees EOF and exits at once.  ``timeout_s``
        bounds the wait (``None`` waits unbounded): a host stopped or
        hung mid-payload never reads its EOF, so past the timeout the
        pool warns and SIGKILLs what is left.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        pids = self.pids()
        for client in self.clients:
            client.pid = None  # hang up only; the reaping happens below
            client.close()
        stragglers = _reap(pids, timeout_s)
        if stragglers:
            warnings.warn(
                f"worker pool did not shut down within {timeout_s:.1f}s "
                f"(worker killed or hung mid-task?); killing its workers",
                RuntimeWarning,
                stacklevel=2,
            )
            for pid in stragglers:
                _kill(pid)

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
