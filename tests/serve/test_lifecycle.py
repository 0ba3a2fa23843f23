"""Stateful property test: a served 2-lane engine through its lifecycle.

Hypothesis drives an arbitrary interleaving of submissions, host
faults and fleet changes against a :class:`MaxBRSTkNNServer` over a
2-lane :class:`ShardedEngine` with forked local hosts:

* ``submit`` — a burst of concurrent queries, left in flight;
* ``cancel`` — cancel one caller still awaiting its answer (queued,
  or in a flush running that moment);
* ``kill_host`` — SIGKILL one local host (possibly mid-flush);
* ``stall_host`` — SIGSTOP one, past the short read deadline;
* ``close_pools`` / ``start_pools`` — take the fleet down and back up
  under the running server (after the queries in flight resolved);
* ``drain`` — await everything in flight;
* ``stop`` — stop the server (it drains first); ``restart`` serves
  the same engine from a new server.

Invariants, after every step: every answer ``==`` a fresh sequential
engine's, ``submitted = completed + failed + cancelled + shed +
in_flight``, and the fault counters never go down.  After ``drain``
every query is completed or cancelled, and the server counts no more
cancellations than callers saw (a cancel landing just after the answer
counts as completed there).  After ``stop`` (and at teardown) every
future has resolved exactly once, nothing is in flight, and no child
process and no ``/dev/shm`` arena segment is left.
"""

import asyncio
import os
import signal
import time
import warnings

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.serve import (
    DeadlinePolicy,
    MaxBRSTkNNServer,
    RetryPolicy,
    ServerConfig,
    ShardedEngine,
)
from repro.storage.shm import SHM_PREFIX, arena_segments

from .conftest import build_dataset, live_children, make_queries

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and os.path.isdir("/proc")),
    reason="local shard hosts require os.fork and /proc",
)

OPTIONS = QueryOptions()
CONFIG = ServerConfig(
    max_batch=4, max_wait_ms=1.0, pool_workers=1, options=OPTIONS,
    retry=RetryPolicy(max_retries=1, backoff_base_s=0.0),
    deadline=DeadlinePolicy(flush_deadline_s=0.3),
    shutdown_timeout_s=0.5,
)


#: The outcome of a caller cancelled while awaiting its answer.
CANCELLED = "cancelled"


def key(result):
    return (result.location, result.keywords, result.brstknn)


def own_segments():
    """Arena segments this process created (other processes on the
    machine may hold arenas of their own meanwhile)."""
    return set(arena_segments(f"{SHM_PREFIX}{os.getpid()}-"))


class ServedLanes(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        dataset, rng, vocab = build_dataset(seed=21)
        self.queries = make_queries(rng, vocab, 12, ks=(3, 5))
        fresh = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
        self.expected = [key(fresh.query(q, OPTIONS)) for q in self.queries]
        self.children = set(live_children(zombies=True))
        self.segments = own_segments()
        self.engine = ShardedEngine(
            dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
        )
        self.loop = asyncio.new_event_loop()
        self.next_query = 0
        self.counters = self.engine.fault_counters()
        self._serve()

    def _serve(self):
        self.server = MaxBRSTkNNServer(self.engine, CONFIG)
        self.loop.run_until_complete(self.server.start())
        self.running = True
        self.tasks = []
        #: One entry per resolution of each submitted query's future.
        self.outcomes = {}
        #: Queries whose ``submit`` the server has taken.
        self.accepted = set()

    # -- helpers -------------------------------------------------------
    async def _one(self, index, query):
        self.accepted.add(index)
        try:
            result = await self.server.submit(query)
        except asyncio.CancelledError:
            self.outcomes[index].append(CANCELLED)
        except Exception as exc:  # noqa: BLE001 - recorded, checked below
            self.outcomes[index].append(exc)
        else:
            self.outcomes[index].append(key(result))

    def _drain(self):
        pending = [task for task in self.tasks if not task.done()]
        if pending:
            self.loop.run_until_complete(asyncio.gather(*pending))
        # A cancelled caller's entry stays in flight until the flusher
        # reaches it and drops it unexecuted: let the flusher catch up.
        deadline = time.monotonic() + 10.0
        while self.server.stats.in_flight and time.monotonic() < deadline:
            self.loop.run_until_complete(asyncio.sleep(0.005))

    def _hosts(self):
        registry = self.engine._registry
        return registry.pids() if registry is not None else []

    def _quiet(self, call, *args, **kwargs):
        # A host stopped past every round is killed at shutdown, with a
        # RuntimeWarning saying so: expected here.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return call(*args, **kwargs)

    # -- rules ---------------------------------------------------------
    @precondition(lambda self: self.running)
    @rule(n=st.integers(1, 6))
    def submit(self, n):
        for _ in range(n):
            index = self.next_query
            query = self.queries[index % len(self.queries)]
            self.outcomes[index] = []
            self.tasks.append(self.loop.create_task(
                self._one(index, query), name=str(index)
            ))
            self.next_query += 1
        self.loop.run_until_complete(asyncio.sleep(0.002))

    @precondition(lambda self: self.running)
    @rule(which=st.integers(0, 63))
    def cancel(self, which):
        waiting = [
            task for task in self.tasks
            if not task.done() and int(task.get_name()) in self.accepted
        ]
        if not waiting:
            return
        task = waiting[which % len(waiting)]
        task.cancel()
        self.loop.run_until_complete(asyncio.sleep(0))
        assert self.outcomes[int(task.get_name())] == [CANCELLED]

    @precondition(lambda self: self.running)
    @rule()
    def drain(self):
        self._drain()
        stats = self.server.stats
        assert stats.in_flight == 0
        assert stats.queries_completed + stats.queries_cancelled == len(self.outcomes)
        seen_cancelled = sum(seen == [CANCELLED] for seen in self.outcomes.values())
        assert stats.queries_cancelled <= seen_cancelled

    @precondition(lambda self: self.running and self._hosts())
    @rule(which=st.integers(0, 1))
    def kill_host(self, which):
        pids = self._hosts()
        os.kill(pids[which % len(pids)], signal.SIGKILL)

    @precondition(lambda self: self.running and self._hosts())
    @rule(which=st.integers(0, 1))
    def stall_host(self, which):
        pids = self._hosts()
        os.kill(pids[which % len(pids)], signal.SIGSTOP)

    @precondition(lambda self: self.running and self.engine._registry is not None)
    @rule()
    def close_pools(self):
        self._drain()
        self._quiet(self.engine.close_pools, timeout_s=CONFIG.shutdown_timeout_s)
        assert self.engine._registry is None

    @precondition(lambda self: self.running and self.engine._registry is None)
    @rule()
    def start_pools(self):
        self._drain()
        self.engine.start_pools(
            1, retry=CONFIG.retry, deadline=CONFIG.deadline
        )
        assert len(self._hosts()) == 2

    @precondition(lambda self: self.running)
    @rule()
    def stop(self):
        self._quiet(self.loop.run_until_complete, self.server.stop())
        self.running = False
        self._check_nothing_left()

    @precondition(lambda self: not self.running)
    @rule()
    def restart(self):
        self._serve()
        assert len(self._hosts()) == 2

    # -- invariants ----------------------------------------------------
    @invariant()
    def answers_equal_a_fresh_sequential_engine(self):
        for task in getattr(self, "tasks", []):
            index = int(task.get_name())
            for outcome in self.outcomes[index]:
                if outcome != CANCELLED:
                    assert outcome == self.expected[index % len(self.queries)]

    @invariant()
    def every_query_is_accounted_for(self):
        if not getattr(self, "running", False):
            return
        stats = self.server.stats
        assert stats.queries_submitted == (
            stats.queries_completed + stats.queries_failed
            + stats.queries_cancelled + stats.queries_shed + stats.in_flight
        )
        assert stats.queries_failed == stats.queries_shed == 0

    @invariant()
    def fault_counters_are_monotone(self):
        if not hasattr(self, "engine"):
            return
        now = self.engine.fault_counters()
        assert all(now[name] >= self.counters[name] for name in now)
        self.counters = now

    def _check_nothing_left(self):
        for index, seen in self.outcomes.items():
            assert len(seen) == 1, f"query {index} resolved {len(seen)} times"
        assert all(task.done() for task in self.tasks)
        assert self.server.stats.in_flight == 0
        assert set(live_children(zombies=True)) <= self.children
        assert own_segments() <= self.segments

    def teardown(self):
        if not hasattr(self, "loop"):
            return
        try:
            if self.running:
                self.stop()
        finally:
            self.loop.close()


TestServedLanesLifecycle = ServedLanes.TestCase
TestServedLanesLifecycle.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None
)
