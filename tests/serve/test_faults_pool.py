"""One fault ladder for every host: each failure class, local and remote.

Every lane is a :class:`~repro.serve.shardhost.ShardHost`, forked
locally on a socketpair (``start_pools``) or embedded as a TCP host on
a background thread (``connect_hosts``) — the coordinator reaches both
through the same :class:`~repro.serve.transport.ShardRegistry` ladder:

* death (EOF / reset)   -> ``WorkerCrashed``        -> host dead, lane
  re-scattered to a survivor (a local host is re-forked first);
* deadline              -> ``FlushDeadlineExceeded`` -> the same (a
  stalled local host is killed first);
* task error (ERROR frame) -> ``ScatterTaskError``  -> retry on the
  same host, which stays alive;
* dispatch loss / failed re-fork -> past the budget, or with no host
  left, ``run_round`` degrades the lane in-process.

Each class runs against both kinds of host and asserts exact counters
*and* bitwise result identity with in-process execution.  Determinism
comes from generation gating: host-side faults are armed only in
generation 0 by default, so "kill -> re-fork -> retry succeeds" is a
sequence, not a race.  Local faults hit every forked host (both are
generation 0); remote ones hit embedded host 0 only.
"""

import functools
import os
import signal
import time

import pytest

from repro import QueryOptions
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    PersistentWorkerPool,
    PoolUnavailable,
    RetryPolicy,
    ShardHost,
)
from repro.serve.transport import FrameCodec

from .conftest import HostThread, assert_results_equal, build_dataset, build_lanes, make_queries

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="local shard hosts require os.fork"
)

#: Fast ladder for tests: retry once, no backoff sleep.
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0)
SHORT_DEADLINE = DeadlinePolicy(flush_deadline_s=0.3)
OPTIONS = QueryOptions()


class Fleet:
    """A 2-lane engine whose in-process reference flush warmed every
    threshold, then attached to two hosts of one kind: its next flush
    is exactly one ``select`` round, one payload per host."""

    def __init__(self, kind, host_fault=None, coordinator_fault=None,
                 deadline=FAST_DEADLINE, seed=0, first_host=ShardHost):
        self.engine, rng, vocab = build_lanes(seed=seed)
        self.queries = make_queries(rng, vocab, 8)
        self.reference = self.engine.query_batch(self.queries, OPTIONS)
        self.hosts = []
        if kind == "local":
            plan = host_fault or coordinator_fault
            self.engine.start_pools(
                1, retry=FAST_RETRY, deadline=deadline, faults=plan
            )
        else:
            dataset = self.engine.dataset
            self.hosts = [
                HostThread(first_host(dataset, fault=host_fault)),
                HostThread(ShardHost(dataset)),
            ]
            self.engine.connect_hosts(
                [f"127.0.0.1:{h.port}" for h in self.hosts],
                retry=FAST_RETRY, deadline=deadline,
            )
            self.engine._registry.faults = coordinator_fault
        self.registry = self.engine._registry

    def flush(self):
        """The faulted flush: identity, then ``(counters, select stats)``."""
        served = self.engine.query_batch(self.queries, OPTIONS)
        assert_results_equal(served, self.reference)
        report = self.engine.last_flush_report
        assert report.stage("refine").items == 0  # warm: select is the one round
        select = report.stage("select")
        return self.engine.fault_counters(), (
            select.scatter_width, select.retries, select.degraded
        )

    def close(self):
        self.engine.close_pools(timeout_s=10.0)
        self.engine.close_hosts()
        for host in self.hosts:
            host.stop()


@pytest.fixture
def fleet():
    opened = []

    def open_(*args, **kwargs):
        opened.append(Fleet(*args, **kwargs))
        return opened[-1]

    try:
        yield open_
    finally:
        for made in opened:
            made.close()


def counts(totals):
    return (totals["worker_deaths"], totals["respawns"],
            totals["deadline_hits"], totals["retries"])


# ----------------------------------------------------------------------
# The matrix: failure class x kind of host
# ----------------------------------------------------------------------

class TestDeath:
    def test_local_hosts_are_reforked_and_the_lanes_retried(self, fleet):
        made = fleet("local", host_fault=FaultPlan.kill_worker())
        totals, select = made.flush()
        # Both generation-0 hosts die on their first payload; each is
        # re-forked (generation 1) and its lane retried there.
        assert counts(totals) == (2, 2, 0, 2)
        assert select == (2, 2, 0)
        assert [c.generation for c in made.registry.clients] == [1, 1]
        assert all(row["state"] == "healthy" for row in made.engine.pool_health())

    def test_a_remote_host_drop_rescatters_to_the_survivor(self, fleet):
        made = fleet("remote", host_fault=FaultPlan.drop_connection(0))
        totals, select = made.flush()
        assert counts(totals) == (1, 0, 0, 1)
        assert select == (2, 1, 0)
        assert [row["state"] for row in made.engine.pool_health()] == \
            ["dead", "healthy"]


class TestDeadline:
    def test_stalled_local_hosts_are_killed_and_reforked(self, fleet):
        made = fleet("local", host_fault=FaultPlan.hang_task(hang_s=30.0),
                     deadline=SHORT_DEADLINE)
        stalled = made.registry.pids()
        totals, select = made.flush()
        assert counts(totals) == (2, 2, 2, 2)
        assert select == (2, 2, 0)
        assert not set(stalled) & set(made.registry.pids())
        assert not any(os.path.exists(f"/proc/{pid}") for pid in stalled)

    def test_a_stalled_remote_host_leaves_rotation(self, fleet):
        made = fleet("remote", host_fault=FaultPlan.stall_read(0, stall_s=30.0),
                     deadline=SHORT_DEADLINE)
        totals, select = made.flush()
        assert counts(totals) == (1, 0, 1, 1)
        assert select == (2, 1, 0)


class TestTaskError:
    def test_a_local_task_error_retries_on_the_same_host(self, fleet):
        made = fleet("local", host_fault=FaultPlan(exception_on_task=0))
        pids = made.registry.pids()
        totals, select = made.flush()
        # Payload 0 raised on each host; the retry re-ran it there as
        # payload 1.  Nobody died, nobody was re-forked.
        assert counts(totals) == (0, 0, 0, 2)
        assert select == (2, 2, 0)
        assert made.registry.pids() == pids
        assert "InjectedFault" in made.registry.clients[0].last_error

    def test_a_remote_task_error_retries_on_the_same_host(self, fleet):
        made = fleet("remote", host_fault=FaultPlan(exception_on_task=0))
        totals, select = made.flush()
        assert counts(totals) == (0, 0, 0, 1)
        assert select == (2, 1, 0)
        assert all(row["state"] == "healthy" for row in made.engine.pool_health())


class TestDispatchLoss:
    PLAN = FaultPlan(break_dispatch=True, generations=None)

    def test_lost_local_dispatch_degrades_every_lane(self, fleet):
        made = fleet("local", coordinator_fault=self.PLAN)
        totals, select = made.flush()
        # Every send fails: each host is found dead and re-forked, the
        # retry's send fails again, and both lanes run in-process.
        assert select == (2, 2, 2)
        assert totals["retries"] == 2
        assert totals["respawns"] == totals["worker_deaths"] > 0
        assert all(row["state"] == "healthy" for row in made.engine.pool_health())

    def test_lost_remote_dispatch_degrades_every_lane(self, fleet):
        made = fleet("remote", coordinator_fault=self.PLAN)
        totals, select = made.flush()
        # Remote hosts are not revived in-band: after both sends fail
        # there is no host left, and nothing to retry on.
        assert counts(totals) == (2, 0, 0, 0)
        assert select == (2, 0, 2)


class TestFailedRefork:
    def test_a_local_host_that_cannot_come_back_is_broken(self, fleet, caplog):
        made = fleet("local", host_fault=FaultPlan(
            kill_worker_on_task=0, break_respawn=True
        ))
        totals, select = made.flush()
        assert (totals["worker_deaths"], totals["respawns"]) == (2, 0)
        assert select[0] == 2 and select[2] == 2  # both lanes in-process
        assert [row["state"] for row in made.engine.pool_health()] == \
            ["broken", "broken"]
        assert made.engine.capabilities().search_workers == 0
        # The next flush finds no host at all, and its plan says so: the
        # select round runs in-process — no round over the dead fleet,
        # so nothing degrades, warns or counts as a search flush.
        plan = made.engine.plan(OPTIONS, [q.k for q in made.queries])
        assert "phase 2 (candidate selection): in-process" in plan.explain()
        before = made.engine.gather_stats()["search_flushes"]
        made.engine.clear_topk_cache()
        caplog.clear()
        with caplog.at_level("WARNING", logger="repro.core.pipeline"):
            assert_results_equal(
                made.engine.query_batch(made.queries, OPTIONS), made.reference
            )
        select = made.engine.last_flush_report.stage("select")
        assert (select.scatter_width, select.retries, select.degraded) == (1, 0, 0)
        assert made.engine.gather_stats()["search_flushes"] == before
        assert not [r for r in caplog.records if "degrading select" in r.getMessage()]

    def test_a_remote_host_that_cannot_come_back_stays_out(self, fleet):
        made = fleet("remote", host_fault=FaultPlan.drop_connection(0),
                     coordinator_fault=FaultPlan(break_respawn=True))
        totals, select = made.flush()
        assert counts(totals) == (1, 0, 0, 1)
        sweep = made.registry.ping_all(timeout_s=1.0)
        assert list(sweep.values()) == [False, True]
        assert [row["state"] for row in made.engine.pool_health()] == \
            ["broken", "healthy"]
        assert made.engine.fault_counters()["respawns"] == 0


class GarblingHost(ShardHost):
    """A host whose first ``SCATTER`` answer arrives garbled: its frame
    magic (``part="header"``) or its pickled body (``part="body"``)."""

    def __init__(self, dataset, part, fault=None):
        super().__init__(dataset, fault=fault)
        self.part = part
        self.garbled = False

    def answer(self, kind, flush_seq, shard_id, epoch, body):
        frame = super().answer(kind, flush_seq, shard_id, epoch, body)
        if kind != FrameCodec.SCATTER or self.garbled:
            return frame
        self.garbled = True
        if self.part == "header":
            return b"JUNK" + frame[4:]
        size = FrameCodec.HEADER_SIZE
        return frame[:size] + b"\x00" * (len(frame) - size)


class TestGarbledFrame:
    @pytest.mark.parametrize("part", ["header", "body"])
    def test_a_garbled_answer_takes_its_host_out_of_rotation(self, fleet, part):
        """The garbling host is found dead once, its lane re-scattered
        to the survivor; the flush and every later one answer like the
        in-process run, and nothing counts again."""
        made = fleet("remote", first_host=functools.partial(GarblingHost, part=part))
        totals, select = made.flush()
        assert counts(totals) == (1, 0, 0, 1)
        assert select == (2, 1, 0)
        assert [row["state"] for row in made.engine.pool_health()] == \
            ["dead", "healthy"]
        for _ in range(2):
            totals, select = made.flush()
            assert counts(totals) == (1, 0, 0, 1)
            assert select[1:] == (0, 0)


# ----------------------------------------------------------------------
# Local-only mechanics
# ----------------------------------------------------------------------

class TestBackoff:
    def test_backoff_is_capped_exponential(self):
        retry = RetryPolicy(max_retries=2, backoff_base_s=0.1, backoff_cap_s=0.4)
        assert retry.backoff_s(0) == pytest.approx(0.1)
        assert retry.backoff_s(1) == pytest.approx(0.1)
        assert retry.backoff_s(2) == pytest.approx(0.2)
        assert retry.backoff_s(3) == pytest.approx(0.4)
        assert retry.backoff_s(10) == pytest.approx(0.4)  # capped


def _zombie(pid, timeout_s=5.0):
    """Wait until ``pid`` is dead but unreaped (its sockets closed)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as fh:
            if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.005)
    raise AssertionError(f"host {pid} did not die")


def test_a_host_killed_between_rounds_is_found_and_reforked(fleet):
    made = fleet("local")
    victim = made.registry.pids()[0]
    os.kill(victim, signal.SIGKILL)
    _zombie(victim)
    totals, select = made.flush()
    # The send finds the dead host, which is re-forked before the lane
    # is collected: the first attempt already runs on generation 1.
    assert counts(totals) == (1, 1, 0, 0)
    assert select == (2, 0, 0)
    assert victim not in made.registry.pids()
    assert made.registry.clients[0].generation == 1


class TestCloseLifecycle:
    def test_double_close_is_a_noop(self):
        dataset, _, _ = build_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, 1)
        pool.close(timeout_s=10.0)
        pool.close(timeout_s=10.0)  # must not raise
        assert [c.state for c in pool.clients] == ["dead"]

    def test_after_close_every_entry_point_is_typed_unavailable(self):
        dataset, _, _ = build_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, 1)
        pool.close(timeout_s=10.0)
        with pytest.raises(PoolUnavailable):
            pool.collect(pool.dispatch([]))
        with pytest.raises(PoolUnavailable):
            pool.clients[0].connect()  # no re-fork after close
        assert not pool.revive(pool.clients[0])
        assert pool.pids() == []


class TestParseFault:
    """One vocabulary for ``repro serve --fault`` and ``repro shard-host
    --fault``: every spec names one plan, malformed ones are refused."""

    @pytest.mark.parametrize("spec,plan", [
        ("none", None),
        ("kill-worker", FaultPlan.kill_worker(0)),
        ("kill-worker:2", FaultPlan.kill_worker(2)),
        ("hang-task:1:0.5", FaultPlan.hang_task(1, hang_s=0.5)),
        ("shard-exception:1", FaultPlan.shard_exception(1)),
        ("pool-loss", FaultPlan.pool_loss()),
        ("drop-frame:3", FaultPlan.drop_connection(3)),
        ("stall-read:0:2", FaultPlan.stall_read(0, stall_s=2.0)),
        ("refuse-accept", FaultPlan.refuse()),
    ])
    def test_every_spec_names_its_plan(self, spec, plan):
        from repro.serve.faults import parse_fault

        assert parse_fault(spec) == plan

    @pytest.mark.parametrize("spec", [
        "explode", "drop-frame:x", "stall-read:0:soon", "kill-worker:-1",
    ])
    def test_malformed_specs_are_refused(self, spec):
        from repro.serve.faults import parse_fault

        with pytest.raises(ValueError):
            parse_fault(spec)
