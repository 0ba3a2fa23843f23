"""Typed errors of the serving layer's failure domains.

Three families, by who observes them:

* **Admission** (:class:`ServerStopped`, :class:`ServerOverloaded`) —
  raised to ``submit()`` callers.  Both subclass :class:`ServingError`
  (itself a ``RuntimeError``, so pre-existing ``except RuntimeError``
  call sites keep working) and are terminal for that request only.
* **Host transport** (:class:`PoolFailure` and its subclasses
  :class:`WorkerCrashed`, :class:`FlushDeadlineExceeded`,
  :class:`PoolUnavailable`) — raised on the coordinator when a lane's
  shard host fails for reasons *outside* the task code: the host died
  (EOF / reset), its answer missed the read deadline, no host is left
  or the fleet is closed.  They subclass
  :class:`~repro.core.pipeline.ScatterFailure`, which the pipeline
  executors catch to degrade the round to in-process execution —
  results stay bitwise-identical because the worker entry point is
  pure.
* **Task errors** (:class:`ScatterTaskError`) — a host answered an
  ``ERROR`` frame: the payload itself raised there.  Also a
  ``ScatterFailure`` (so a
  *transient* task error is retried on the same host and, past the
  budget, the lane degrades to in-process — where a genuine bug
  reproduces and propagates authentically).
"""

from __future__ import annotations

from ..core.pipeline import ScatterFailure

__all__ = [
    "ServingError",
    "ServerStopped",
    "ServerOverloaded",
    "PoolFailure",
    "WorkerCrashed",
    "FlushDeadlineExceeded",
    "PoolUnavailable",
    "ScatterTaskError",
]


class ServingError(RuntimeError):
    """Base of the errors ``submit()`` can raise to a caller."""


class ServerStopped(ServingError):
    """The server stopped before (or while) this query could execute.

    Raised by ``submit()`` once ``stop()`` has begun, and set on every
    still-pending future the drain could not answer — no future is ever
    left to hang.
    """


class ServerOverloaded(ServingError):
    """Admission queue full (``ServerConfig.max_pending``): load shed.

    The query was rejected *before* entering the queue; nothing was
    executed and the caller should back off and retry.
    """


class PoolFailure(ScatterFailure):
    """A lane's shard host failed for transport reasons."""


class WorkerCrashed(PoolFailure):
    """A shard host died mid-round (EOF or reset: its answer is lost)."""


class FlushDeadlineExceeded(PoolFailure):
    """A lane's answer outlived ``DeadlinePolicy.flush_deadline_s``."""


class PoolUnavailable(PoolFailure):
    """No host can take the lane: all are dead (or could not be
    brought back), the fleet is closed, or a host refused to connect.

    Terminal for the round: the ladder does not retry it, and
    ``run_round`` runs the lane in-process.
    """


class ScatterTaskError(ScatterFailure):
    """A payload raised on its host (answered with an ERROR frame)."""
