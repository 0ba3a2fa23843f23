"""PersistentWorkerPool: forked hosts must *inherit* the kernel arrays.

The pool's whole point is forking after ``DatasetArrays`` is built so
its shard hosts share it through copy-on-write.  An earlier version
passed the dataset through pickled process arguments — and a pickled
dataset drops its arrays (``Dataset.__getstate__``), so every worker
silently rebuilt them.  These are the assertion-backed regression
tests: the build counter must not move inside a host (first forked or
re-forked), and the arrays must refuse pickling outright so the waste
can never come back quietly.

The probes run inside the real frame loop: the test swaps the host's
payload entry for a probe *before* the fork, so the forked host runs
it on the payloads the coordinator sends.
"""

import os
import pickle
import random
import signal
import time

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.core.kernels import (
    DatasetArrays, ObjectColumns, arrays_for, object_columns_for,
)
from repro.serve import PersistentWorkerPool, PoolUnavailable, RetryPolicy, make_engine

from ..conftest import make_random_objects, make_random_users

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="local shard hosts require os.fork"
)


def make_dataset(seed=0):
    rng = random.Random(seed)
    objects = make_random_objects(50, 15, rng)
    users = make_random_users(10, 15, rng)
    return Dataset(objects, users, relevance="LM", alpha=0.5), rng


def _array_probe(dataset, payload, context=None):
    """Runs inside a forked host: its view of the arrays."""
    return (
        DatasetArrays.build_count,
        ObjectColumns.build_count,
        getattr(dataset, "_kernel_arrays", None) is not None,
        "columns" in dataset._per_object_set,
        os.getpid(),
    )


@pytest.fixture
def probing(monkeypatch):
    """Hosts forked under this fixture answer every payload with
    :func:`_array_probe`."""
    monkeypatch.setattr(
        "repro.serve.shardhost.execute_shard_payload", _array_probe
    )


def probe_all(pool, per_host=2):
    """Two probe payloads on every host's lane; the answers per lane."""
    flights = [pool.dispatch([("probe",)] * per_host, lane)
               for lane in range(pool.workers)]
    return [pool.collect(flight) for flight in flights]


def test_workers_inherit_prebuilt_arrays_without_rebuilding(probing):
    dataset, _ = make_dataset()
    with PersistentWorkerPool(dataset, workers=2) as pool:
        # The pool pre-builds the arrays in the parent, pre-fork.
        assert getattr(dataset, "_kernel_arrays", None) is not None
        parent_builds = DatasetArrays.build_count
        lanes = probe_all(pool)
        pids = set(pool.pids())
    assert {probe[4] for lane in lanes for probe in lane} == pids
    for lane in lanes:
        for builds, _, has_arrays, _, _ in lane:
            assert has_arrays, "host dataset arrived without its arrays"
            # The counter a host sees is the parent's value snapshotted
            # at fork: any rebuild inside the host would push it past.
            assert builds == parent_builds


def test_arrays_for_memoizes_and_dataset_pickles_without_arrays():
    dataset, _ = make_dataset(seed=1)
    arrays = arrays_for(dataset)
    assert arrays_for(dataset) is arrays  # memoized per dataset
    # The arrays themselves must never cross a process boundary...
    with pytest.raises(TypeError, match="copy-on-write"):
        pickle.dumps(arrays)
    # ...but the dataset stays picklable: it sheds the arrays and the
    # far side rebuilds lazily on first vectorized use.
    clone = pickle.loads(pickle.dumps(dataset))
    assert getattr(clone, "_kernel_arrays", None) is None
    assert getattr(dataset, "_kernel_arrays", None) is arrays


def test_workers_inherit_object_columns_and_pickles_shed_them(probing):
    """The per-object-set columns Algorithm 2 gathers from follow the
    same rules as ``DatasetArrays``: built pre-fork, inherited, never
    rebuilt in a host, never pickled."""
    dataset, _ = make_dataset(seed=3)
    with PersistentWorkerPool(dataset, workers=2) as pool:
        columns = object_columns_for(dataset)
        assert arrays_for(dataset).objects is columns  # built pre-fork
        parent_builds = ObjectColumns.build_count
        lanes = probe_all(pool)
    assert [probe[1:4:2] for lane in lanes for probe in lane] == \
        [(parent_builds, True)] * 4
    with pytest.raises(TypeError, match="copy-on-write"):
        pickle.dumps(columns)
    clone = pickle.loads(pickle.dumps(dataset.with_users(dataset.users[:2])))
    assert clone._per_object_set == {}
    assert object_columns_for(dataset) is columns


def test_a_reforked_host_inherits_the_arrays_too(probing):
    """A host SIGKILLed between rounds is re-forked (generation 1) by
    the ladder, and the new child inherits the live arrays instead of
    rebuilding them."""
    dataset, _ = make_dataset(seed=6)
    with PersistentWorkerPool(
        dataset, workers=1, retry=RetryPolicy(max_retries=1, backoff_base_s=0.0)
    ) as pool:
        parent_builds = DatasetArrays.build_count
        (victim,) = pool.pids()
        os.kill(victim, signal.SIGKILL)
        (probe,) = pool.collect(pool.dispatch([("probe",)]))
        assert probe[0] == parent_builds and probe[2]
        assert probe[4] != victim
        assert pool.clients[0].generation == 1
        assert pool.counters["worker_deaths"] == 1
        assert pool.counters["respawns"] == 1


def test_pool_results_match_inprocess_batches():
    """The lanes' hosts answer what the plain engine answers in-process."""
    dataset, rng = make_dataset(seed=2)
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    from repro.core.query import MaxBRSTkNNQuery
    from repro.model.objects import STObject
    from repro.spatial.geometry import Point

    queries = [
        MaxBRSTkNNQuery(
            ox=STObject(
                item_id=-(i + 1),
                location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                terms={},
            ),
            locations=[Point(rng.uniform(0, 10), rng.uniform(0, 10))],
            keywords=sorted(rng.sample(range(15), 4)),
            ws=2,
            k=2 + (i % 2),
        )
        for i in range(4)
    ]
    inprocess = engine.query_batch(queries, QueryOptions())
    with make_engine(dataset, EngineConfig(fanout=4, num_shards=2)) as lanes:
        lanes.start_pools()
        assert isinstance(lanes._registry, PersistentWorkerPool)
        pooled = lanes.query_batch(queries, QueryOptions())
    assert lanes._registry is None
    for a, b in zip(inprocess, pooled):
        assert a.location == b.location
        assert a.keywords == b.keywords
        assert a.brstknn == b.brstknn


def _gone(pid, timeout_s=5.0):
    """Has ``pid`` exited and been reaped (no /proc entry, or a zombie
    no longer our child)?"""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not os.path.exists(f"/proc/{pid}"):
            return True
        time.sleep(0.01)
    return False


class TestBoundedShutdown:
    """close(timeout_s=...) must survive hosts that will never exit.

    A healthy host exits on the EOF of its socket; a host SIGSTOPped
    mid-task never reads it, so an unbounded close would hang the
    server's ``stop()`` forever.  SIGKILL fells even a stopped process
    — which is exactly the escalation ``close`` implements.
    """

    def test_close_with_stopped_worker_warns_and_returns(self):
        dataset, _ = make_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, workers=1)
        (victim,) = pool.pids()
        os.kill(victim, signal.SIGSTOP)
        t0 = time.monotonic()
        with pytest.warns(RuntimeWarning, match="did not shut down"):
            pool.close(timeout_s=0.5)
        # Bounded: the timeout plus a kill, nowhere near unbounded.
        assert time.monotonic() - t0 < 10.0
        assert _gone(victim), "SIGKILL escalation missed the host"

    def test_close_without_timeout_still_waits_unbounded_when_healthy(self):
        dataset, _ = make_dataset(seed=4)
        pool = PersistentWorkerPool(dataset, workers=1)
        (pid,) = pool.pids()
        pool.close()  # healthy hosts: the unbounded wait returns promptly
        assert _gone(pid)
        with pytest.raises(PoolUnavailable):
            pool.collect(pool.dispatch([]))

    def test_close_with_timeout_on_healthy_pool_does_not_warn(self):
        import warnings as warnings_mod

        dataset, _ = make_dataset(seed=5)
        pool = PersistentWorkerPool(dataset, workers=2)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            pool.close(timeout_s=30.0)


def test_flush_bytes_are_the_frames_on_the_wire():
    """What a flush reports shipping is what crossed the hosts'
    sockets — frame lengths, headers included, counted once, with no
    second pickle to measure them."""
    from ..serve.conftest import build_dataset, make_queries

    dataset, rng, vocab = build_dataset(seed=8)
    with make_engine(
        dataset, EngineConfig(fanout=4, num_shards=2, use_shm=True)
    ) as lanes:
        lanes.start_pools()
        registry = lanes._registry
        for queries in (make_queries(rng, vocab, 6), make_queries(rng, vocab, 6)):
            sent, received = registry.bytes_totals()
            lanes.query_batch(queries, QueryOptions())
            report = lanes.last_flush_report
            sent_after, received_after = registry.bytes_totals()
            assert report.payload_bytes_out == sent_after - sent > 0
            assert report.payload_bytes_in == received_after - received > 0
            assert report.payload_bytes_out + report.payload_bytes_in == (
                sent_after - sent + received_after - received
            )
            assert report.stage("select").scatter_width == 2
