"""Deterministic fault injection for the fault-tolerant serving stack.

Recovery code that only runs when production breaks is recovery code
that has never run.  This module makes every failure domain of the
serving runtime *triggerable on demand*, deterministically, so the
seeded test suites (``tests/serve/test_faults_*``) and the CI
``fault-smoke`` job can drive worker death, task hangs, shard
exceptions and whole-pool loss through the exact code paths production
would take — and assert bitwise result identity on the other side.

A :class:`FaultPlan` is a frozen description of *what* to break and
*when*:

* ``kill_worker_on_task=N`` — the worker running its N-th task (0-based,
  counted per worker process) exits hard via ``os._exit``: no cleanup,
  no exception, exactly what the OOM killer or a segfault looks like to
  the parent.
* ``hang_on_task=N`` — the N-th task sleeps ``hang_s`` seconds instead
  of finishing, exercising the flush-deadline path.
* ``exception_on_shard=K`` — any refine task for lane ``K`` (the K-th
  user-row range) raises :class:`InjectedFault`, exercising the
  task-exception retry path.
* ``exception_on_task=N`` — the N-th task raises whatever it carries
  (covers selection / indexed-search payloads, which name no lane).
* ``break_dispatch`` / ``break_respawn`` — parent-side hooks: dispatch
  fails as if the pool transport were gone; respawn fails as if forking
  were impossible (driving the pool into its terminal BROKEN state and
  the executors into in-process degradation).

The **socket transport** (:mod:`repro.serve.transport`) adds a
host-side fault family, enforced inside the shard-host frame loop
(:mod:`repro.serve.shardhost`) so the coordinator's recovery runs over
real TCP failures, not simulated ones:

* ``drop_connection_on_frame=N`` — the host closes the connection
  abruptly instead of answering its N-th scatter frame (0-based,
  counted per host process, fires once): the coordinator sees EOF /
  reset, i.e. :class:`~repro.serve.errors.WorkerCrashed`.
* ``stall_read_on_frame=N`` — the host sleeps ``stall_s`` seconds
  before answering its N-th scatter frame (fires once), driving the
  coordinator's read timeout
  (:class:`~repro.serve.errors.FlushDeadlineExceeded`).
* ``refuse_accept`` — the host closes every accepted connection before
  reading a byte: persistent refusal of service, the socket analog of
  ``pool_loss`` (the coordinator degrades to in-process execution).

Determinism comes from **generation gating**: worker-side faults are
armed only while the pool is in one of the listed ``generations``
(default: only generation 0, the pool as first forked).  After the
supervisor respawns the pool, generation 1's workers run fault-free, so
"kill → respawn → retry succeeds" is a deterministic sequence, not a
race.  ``generations=None`` arms the fault forever (for tests of
persistent degradation).

The plan rides into workers through the same fork-registry mechanism as
the dataset (:mod:`repro.serve.pool`), so arming a fault costs nothing
on the payload path and a ``FaultPlan(...)``-free pool has zero
overhead beyond one ``is None`` check per task.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["FaultPlan", "InjectedFault", "KILL_EXIT_CODE"]

#: Exit status of a worker felled by ``kill_worker_on_task`` — distinct
#: from 0 so the supervisor's exitcode sweep sees an abnormal death.
KILL_EXIT_CODE = 3


class InjectedFault(RuntimeError):
    """Raised inside a worker (or parent hook) by an armed FaultPlan."""


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """What to break, and in which pool generations."""

    kill_worker_on_task: Optional[int] = None
    hang_on_task: Optional[int] = None
    hang_s: float = 30.0
    exception_on_shard: Optional[int] = None
    exception_on_task: Optional[int] = None
    break_dispatch: bool = False
    break_respawn: bool = False
    # -- socket transport faults (enforced host-side, fire once) -------
    drop_connection_on_frame: Optional[int] = None
    stall_read_on_frame: Optional[int] = None
    stall_s: float = 5.0
    refuse_accept: bool = False
    generations: Optional[Tuple[int, ...]] = (0,)

    def __post_init__(self) -> None:
        for name in ("kill_worker_on_task", "hang_on_task",
                     "exception_on_shard", "exception_on_task",
                     "drop_connection_on_frame", "stall_read_on_frame"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, int) or value < 0
            ):
                raise ValueError(f"{name} must be a non-negative int or None, "
                                 f"got {value!r}")
        if not (isinstance(self.hang_s, (int, float)) and self.hang_s >= 0):
            raise ValueError(f"hang_s must be >= 0, got {self.hang_s!r}")
        if not (isinstance(self.stall_s, (int, float)) and self.stall_s >= 0):
            raise ValueError(f"stall_s must be >= 0, got {self.stall_s!r}")
        if self.generations is not None:
            object.__setattr__(self, "generations", tuple(self.generations))

    # -- arming --------------------------------------------------------
    def armed(self, generation: int) -> bool:
        """Is this plan live in pool ``generation``?"""
        return self.generations is None or generation in self.generations

    # -- worker-side hook ----------------------------------------------
    def worker_hook(
        self,
        task_index: int,
        generation: int,
        lane: Optional[int],
    ) -> None:
        """Fire (or not) for one task about to run inside a worker.

        Called from the pool's worker entry points with the worker's
        own 0-based task counter; deterministic because each worker
        counts its own tasks and faults are generation-gated.
        """
        if not self.armed(generation):
            return
        if self.kill_worker_on_task is not None and \
                task_index == self.kill_worker_on_task:
            # A hard exit, not an exception: the parent must discover
            # the death from the process table, exactly as for a
            # segfault or the OOM killer.
            os._exit(KILL_EXIT_CODE)
        if self.hang_on_task is not None and task_index == self.hang_on_task:
            time.sleep(self.hang_s)
        if self.exception_on_task is not None and \
                task_index == self.exception_on_task:
            raise InjectedFault(
                f"injected exception on task {task_index} "
                f"(generation {generation})"
            )
        if self.exception_on_shard is not None and \
                lane == self.exception_on_shard:
            raise InjectedFault(
                f"injected exception on refine lane {lane} "
                f"(generation {generation})"
            )

    # -- convenience constructors (the CLI's --fault vocabulary) -------
    @classmethod
    def kill_worker(cls, task: int = 0, **kwargs) -> "FaultPlan":
        """First generation's worker dies on its ``task``-th task."""
        return cls(kill_worker_on_task=task, **kwargs)

    @classmethod
    def hang_task(cls, task: int = 0, hang_s: float = 30.0, **kwargs) -> "FaultPlan":
        """First generation's ``task``-th task outlives any deadline."""
        return cls(hang_on_task=task, hang_s=hang_s, **kwargs)

    @classmethod
    def shard_exception(cls, shard_id: int = 0, **kwargs) -> "FaultPlan":
        """Refine tasks for lane ``shard_id`` raise (first generation only)."""
        return cls(exception_on_shard=shard_id, **kwargs)

    @classmethod
    def pool_loss(cls, **kwargs) -> "FaultPlan":
        """Dispatch and respawn both fail, forever: pools are simply
        gone, and serving must degrade to in-process execution."""
        kwargs.setdefault("generations", None)
        return cls(break_dispatch=True, break_respawn=True, **kwargs)

    # -- socket transport faults (the shard-host --fault vocabulary) ---
    @classmethod
    def drop_connection(cls, frame: int = 0, **kwargs) -> "FaultPlan":
        """The host drops the connection on its ``frame``-th scatter
        frame instead of answering (fires once): coordinator-side EOF,
        i.e. ``WorkerCrashed`` over TCP."""
        return cls(drop_connection_on_frame=frame, **kwargs)

    @classmethod
    def stall_read(cls, frame: int = 0, stall_s: float = 5.0, **kwargs) -> "FaultPlan":
        """The host answers its ``frame``-th scatter frame ``stall_s``
        seconds late (fires once), outliving any read deadline."""
        return cls(stall_read_on_frame=frame, stall_s=stall_s, **kwargs)

    @classmethod
    def refuse(cls, **kwargs) -> "FaultPlan":
        """The host closes every accepted connection before reading:
        persistent refusal (the socket analog of ``pool_loss``)."""
        return cls(refuse_accept=True, **kwargs)
