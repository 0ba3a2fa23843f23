"""Deterministic fault injection for the fault-tolerant serving stack.

Recovery code that only runs when production breaks is recovery code
that has never run.  This module makes every failure domain of the
serving runtime *triggerable on demand*, deterministically, so the
seeded test suites (``tests/serve/test_faults_*``) and the CI
``fault-smoke`` job can drive host death, task hangs, task exceptions
and whole-fleet loss through the exact code paths production would
take — and assert bitwise result identity on the other side.

Every lane is a :class:`~repro.serve.shardhost.ShardHost` — a forked
local child on a socketpair or a ``repro shard-host`` process over TCP
— and a :class:`FaultPlan` is a frozen description of *what* to break
and *when*.  Host-side faults fire inside the ``ShardHost`` frame loop,
so local and remote hosts honour all of them:

* ``kill_worker_on_task=N`` — the host running its N-th payload
  (0-based, counted per host process) exits hard via ``os._exit``: no
  cleanup, no answer, exactly what the OOM killer or a segfault looks
  like to the coordinator (EOF, :class:`~repro.serve.errors.WorkerCrashed`).
* ``hang_on_task=N`` — the N-th payload sleeps ``hang_s`` seconds
  instead of finishing, exercising the read deadline.
* ``exception_on_shard=K`` — any refine payload for lane ``K`` (the
  K-th user-row range) raises :class:`InjectedFault`: an ``ERROR``
  frame, the task-error retry path.
* ``exception_on_task=N`` — the N-th payload raises (covers selection
  payloads, which name no lane).
* ``drop_connection_on_frame=N`` — the host closes the connection
  abruptly instead of answering its N-th scatter frame (fires once):
  the coordinator sees EOF / reset.
* ``stall_read_on_frame=N`` — the host sleeps ``stall_s`` seconds
  before answering its N-th scatter frame (fires once), driving the
  coordinator's read deadline
  (:class:`~repro.serve.errors.FlushDeadlineExceeded`).
* ``refuse_accept`` — the host closes every connection before reading
  a byte: persistent refusal of service.

Two faults fire on the coordinator, in the
:class:`~repro.serve.transport.ShardRegistry` that owns the hosts:

* ``break_dispatch`` — sending a frame fails as if the host were gone;
* ``break_respawn`` — bringing a dead host back (re-forking a local
  one, reconnecting a remote one) fails, so the host stays out of
  rotation for good and rounds degrade to in-process execution.

Determinism comes from **generation gating**: a plan is armed only
while the host runs one of the listed ``generations`` (default: only
generation 0, the host as first forked; a remote host is always
generation 0).  A re-forked local host is generation 1 and runs
fault-free, so "kill → re-fork → retry succeeds" is a deterministic
sequence, not a race.  ``generations=None`` arms the fault forever
(for tests of persistent degradation).

:func:`parse_fault` is the one ``--fault`` vocabulary of ``repro
serve`` and ``repro shard-host``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["FaultPlan", "InjectedFault", "KILL_EXIT_CODE", "parse_fault"]

#: Exit status of a host felled by ``kill_worker_on_task`` — distinct
#: from 0, so an exit status read after the fact shows the abnormal death.
KILL_EXIT_CODE = 3


class InjectedFault(RuntimeError):
    """Raised inside a shard host (or coordinator hook) by an armed FaultPlan."""


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """What to break, and in which host generations."""

    kill_worker_on_task: Optional[int] = None
    hang_on_task: Optional[int] = None
    hang_s: float = 30.0
    exception_on_shard: Optional[int] = None
    exception_on_task: Optional[int] = None
    break_dispatch: bool = False
    break_respawn: bool = False
    # -- frame faults (fire once per host process) ----------------------
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
        """Is this plan live in host ``generation``?"""
        return self.generations is None or generation in self.generations

    # -- worker-side hook ----------------------------------------------
    def worker_hook(
        self,
        task_index: int,
        generation: int,
        lane: Optional[int],
    ) -> None:
        """Fire (or not) for one payload about to run inside a host.

        Called from the ``ShardHost`` frame loop with the host's own
        0-based payload counter; deterministic because each host counts
        its own payloads and faults are generation-gated.
        """
        if not self.armed(generation):
            return
        if self.kill_worker_on_task is not None and \
                task_index == self.kill_worker_on_task:
            # A hard exit, not an exception: the coordinator must
            # discover the death from the dropped connection, exactly
            # as for a segfault or the OOM killer.
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
        """A first-generation host dies on its ``task``-th payload."""
        return cls(kill_worker_on_task=task, **kwargs)

    @classmethod
    def hang_task(cls, task: int = 0, hang_s: float = 30.0, **kwargs) -> "FaultPlan":
        """A first-generation host's ``task``-th payload outlives any
        deadline."""
        return cls(hang_on_task=task, hang_s=hang_s, **kwargs)

    @classmethod
    def shard_exception(cls, shard_id: int = 0, **kwargs) -> "FaultPlan":
        """Refine payloads for lane ``shard_id`` raise (first generation only)."""
        return cls(exception_on_shard=shard_id, **kwargs)

    @classmethod
    def pool_loss(cls, **kwargs) -> "FaultPlan":
        """Dispatch and re-fork both fail, forever: the hosts are simply
        gone, and serving must degrade to in-process execution."""
        kwargs.setdefault("generations", None)
        return cls(break_dispatch=True, break_respawn=True, **kwargs)

    # -- frame faults ---------------------------------------------------
    @classmethod
    def drop_connection(cls, frame: int = 0, **kwargs) -> "FaultPlan":
        """The host drops the connection on its ``frame``-th scatter
        frame instead of answering (fires once): coordinator-side EOF,
        i.e. ``WorkerCrashed``."""
        return cls(drop_connection_on_frame=frame, **kwargs)

    @classmethod
    def stall_read(cls, frame: int = 0, stall_s: float = 5.0, **kwargs) -> "FaultPlan":
        """The host answers its ``frame``-th scatter frame ``stall_s``
        seconds late (fires once), outliving any read deadline."""
        return cls(stall_read_on_frame=frame, stall_s=stall_s, **kwargs)

    @classmethod
    def refuse(cls, **kwargs) -> "FaultPlan":
        """The host closes every connection before reading: persistent
        refusal of service."""
        return cls(refuse_accept=True, **kwargs)


def parse_fault(spec: str) -> Optional[FaultPlan]:
    """The ``--fault`` vocabulary of ``repro serve`` and ``repro
    shard-host``: ``none`` | ``kill-worker[:N]`` | ``hang-task[:N[:S]]``
    | ``shard-exception[:K]`` | ``pool-loss`` | ``drop-frame[:N]`` |
    ``stall-read[:N[:S]]`` | ``refuse-accept`` → a :class:`FaultPlan`
    (``None`` for ``none``).  ``N`` counts payloads (frames for the
    frame faults) per host, ``S`` is seconds; malformed specs raise
    :class:`ValueError`."""
    name, _, rest = spec.strip().partition(":")
    index_s, _, seconds_s = rest.partition(":")
    try:
        index = int(index_s or 0)
        seconds = float(seconds_s) if seconds_s else None
    except ValueError:
        raise ValueError(f"malformed fault {spec!r}") from None
    timed = {} if seconds is None else {"hang_s": seconds}
    stalled = {} if seconds is None else {"stall_s": seconds}
    plans = {
        "kill-worker": lambda: FaultPlan.kill_worker(index),
        "hang-task": lambda: FaultPlan.hang_task(index, **timed),
        "shard-exception": lambda: FaultPlan.shard_exception(index),
        "pool-loss": FaultPlan.pool_loss,
        "drop-frame": lambda: FaultPlan.drop_connection(index),
        "stall-read": lambda: FaultPlan.stall_read(index, **stalled),
        "refuse-accept": FaultPlan.refuse,
    }
    if name == "none":
        return None
    if name not in plans:
        raise ValueError(
            f"unknown fault {spec!r} (expected none, "
            + ", ".join(plans) + ")"
        )
    return plans[name]()
