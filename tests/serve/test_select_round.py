"""A sharded joint flush is ONE query-axis round over full-dataset lanes.

Algorithm 3's keyword-coverage counts sum over all of a location's
``LU_l``, so it is never dealt by user: after the (cold-only) refine
round the whole selection goes out as one ``select`` round over the
same lanes, whose payloads carry each query's k's shared phase-1 state
by arena reference.  Held here, per transport:

* **one round, small gather** — a warm flush dispatches exactly once, a
  cold one twice, and what comes back is the answers, not ``LU_l``;
* **delta ship** — warm flushes re-send references only, and a cleared
  cache can never re-ship stale thresholds by identity;
* **the ladder on the round** — local hosts killed mid-``select`` are
  re-forked and the lanes retried, lost hosts degrade in-process (remote
  host drop / all-hosts-dead live in ``test_multihost.py``).
"""

import logging
import os
import pickle

import pytest

from repro import EngineConfig, QueryOptions
from repro.serve import (
    DeadlinePolicy,
    FaultPlan,
    RetryPolicy,
    ShardHost,
    ShardedEngine,
)

from .conftest import HostThread, assert_results_equal, build_dataset, make_queries

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="local shard hosts require os.fork"
)

OPTS = QueryOptions()
FAST_RETRY = RetryPolicy(max_retries=1, backoff_base_s=0.0)
FAST_DEADLINE = DeadlinePolicy(flush_deadline_s=10.0)


def pickled(obj) -> int:
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class Served:
    """A 2-lane engine on one transport, every dispatch recorded as
    its lanes' payload counts.  ``warm_first`` refines in-process before
    the transport exists, so the first served flush is select-only."""

    def __init__(self, kind, n_users=40, faults=None, warm_first=False):
        dataset, self.rng, self.vocab = build_dataset(
            3, n_obj=80, n_users=n_users, vocab=16
        )
        config = EngineConfig(fanout=4, num_shards=2, use_shm=True)
        self.engine = engine = ShardedEngine(dataset, config)
        self.reference = ShardedEngine(dataset, config)  # in-process twin
        self.hosts = []
        if warm_first:
            engine.query_batch(make_queries(self.rng, self.vocab, 2), OPTS)
        if kind == "pool":
            engine.start_pools(
                retry=FAST_RETRY, deadline=FAST_DEADLINE, faults=faults,
            )
        else:
            self.hosts = [HostThread(ShardHost(dataset)) for _ in range(2)]
            engine.connect_hosts(
                [f"127.0.0.1:{h.port}" for h in self.hosts],
                retry=FAST_RETRY, deadline=FAST_DEADLINE,
            )
        transport = engine._executor.transport
        dispatch, self.dispatched, self.states = transport.dispatch, [], []

        def spy(lanes):
            self.dispatched.append([len(lane.payloads) for lane in lanes])
            # distinct phase-1 states (references) per select payload
            self.states.append(sum(
                len({id(state) for state in p[2]})
                for lane in lanes for p in lane.payloads if p[0] == "select"
            ))
            return dispatch(lanes)

        transport.dispatch = spy

    def queries(self):
        """A fresh mixed-k flush of 8."""
        return make_queries(self.rng, self.vocab, 8, ks=(3, 5))

    def flush(self, queries):
        """One flush: ``(results, payload counts per dispatch)``, checked
        against the in-process twin."""
        del self.dispatched[:]
        results = self.engine.query_batch(queries, OPTS)
        assert_results_equal(results, self.reference.query_batch(queries, OPTS))
        return results, list(self.dispatched)

    def close(self):
        self.engine.close_pools(timeout_s=10.0)
        self.engine.close_hosts()
        for host in self.hosts:
            host.stop()


@pytest.fixture
def serve():
    opened = []

    def open_(*args, **kwargs):
        opened.append(Served(*args, **kwargs))
        return opened[-1]

    try:
        yield open_
    finally:
        for served in opened:
            served.close()


@pytest.mark.parametrize("kind", ["pool", "socket"])
def test_warm_flush_is_one_round_with_a_gather_of_answers(serve, kind):
    gathered = {}
    for n_users in (400, 800):
        served = serve(kind, n_users=n_users)
        queries = served.queries()
        _, cold = served.flush(queries)
        assert len(cold) == 2  # refine by row range, then select
        assert sum(cold[0]) == 2  # one range per lane
        results, warm = served.flush(queries)
        assert len(warm) == 1  # refine is memoized: select only
        report = served.engine.last_flush_report
        assert [s.stage for s in report.stages] == ["traverse", "refine", "select"]
        assert report.stage("refine").scatter_width == 0
        chunks = sum(warm[0])
        # What crosses back is the answers themselves (whose BRSTkNN
        # sets grow with |U|) plus per-chunk framing — never LU_l.
        assert report.payload_bytes_in <= pickled(results) + 256 * chunks
        assert report.payload_bytes_in < 16 * 1024
        assert report.payload_bytes_out < 16 * 1024
        gathered[n_users] = report.payload_bytes_in - pickled(results)
    # ... and the framing does not know |U| at all.
    assert gathered[800] <= gathered[400] + 64


@pytest.mark.parametrize("kind", ["pool", "socket"])
def test_warm_flushes_delta_ship_the_shared_state(serve, kind):
    served = serve(kind)
    codec = served.engine.payload_codec
    queries = served.queries()
    served.flush(queries)
    served.flush(queries)
    hits, written = codec.delta_hits, codec.arena_bytes_written
    served.flush(served.queries())
    # one ArenaRef per (payload, k), re-sent
    assert codec.delta_hits - hits == served.states[-1]
    assert codec.arena_bytes_written == written
    # A cleared cache re-walks and re-refines: fresh states, fresh
    # blocks — a memo outliving the walk would re-ship the old ones by
    # identity and the arena would stay as it was.
    served.engine.clear_topk_cache()
    served.reference.clear_topk_cache()
    _, cold = served.flush(queries)
    assert len(cold) == 2
    assert codec.arena_bytes_written > written


def test_pool_worker_killed_mid_select_respawns_and_retries(serve):
    served = serve("pool", faults=FaultPlan.kill_worker(), warm_first=True)
    served.flush(served.queries())
    report = served.engine.last_flush_report
    select = report.stage("select")
    assert (select.retries, select.degraded) == (2, 0)
    assert report.stage("refine").scatter_width == 0  # memoized: no round
    totals = served.engine.fault_counters()
    assert (totals["worker_deaths"], totals["respawns"], totals["retries"]) \
        == (2, 2, 2)
    served.flush(served.queries())  # the re-forked generation serves on
    assert served.engine.last_flush_report.total_retries == 0


def test_lost_pool_degrades_the_select_round_in_process(serve, caplog):
    served = serve("pool", faults=FaultPlan.pool_loss(), warm_first=True)
    with caplog.at_level(logging.WARNING, logger="repro.core.pipeline"):
        served.flush(served.queries())
    report = served.engine.last_flush_report
    select = report.stage("select")
    assert (select.scatter_width, select.degraded) == (2, 2)
    assert report.stage("refine").degraded == 0
    assert served.engine.fault_counters()["retries"] == 0
    messages = [r.getMessage() for r in caplog.records]
    assert any("degrading select round in-process: lane=0" in m for m in messages)


def test_lost_pool_degrades_the_refine_of_a_cold_flush(serve):
    """Refine and select ride the same hosts: losing them in the refine
    degrades both refine lanes, and the refine's counters say so;
    the select round after it finds no host left and runs
    in-process, as the plan then says — nothing left to degrade."""
    served = serve("pool", faults=FaultPlan.pool_loss())
    served.flush(served.queries())
    report = served.engine.last_flush_report
    assert report.stage("refine").degraded == 2
    select = report.stage("select")
    assert (select.scatter_width, select.degraded) == (1, 0)
    assert "phase 2 (candidate selection): in-process" in served.engine.plan(
        ks=[q.k for q in served.queries()]
    ).explain()
