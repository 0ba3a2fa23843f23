"""PersistentWorkerPool: workers must *inherit* the kernel arrays.

The pool's whole point is forking after ``DatasetArrays`` is built so
workers share it through copy-on-write.  PR 2 accidentally passed the
dataset through Pool ``initargs`` — which pickles it per worker, and a
pickled dataset drops its arrays (``Dataset.__getstate__``), so every
worker silently rebuilt them.  These are the assertion-backed
regression tests: the build counter must not move inside a worker, and
the arrays must refuse pickling outright so the waste can never come
back quietly.
"""

import multiprocessing
import pickle
import random

import pytest

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.core.kernels import (
    DatasetArrays, ObjectColumns, arrays_for, object_columns_for,
)
from repro.serve import make_engine
from repro.serve import pool as pool_mod
from repro.serve.pool import PersistentWorkerPool

from ..conftest import make_random_objects, make_random_users

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="PersistentWorkerPool requires the fork start method",
)


def make_dataset(seed=0):
    rng = random.Random(seed)
    objects = make_random_objects(50, 15, rng)
    users = make_random_users(10, 15, rng)
    return Dataset(objects, users, relevance="LM", alpha=0.5), rng


def _probe_worker(_):
    """Runs inside a forked worker: report its view of the arrays."""
    ds = pool_mod._WORKER_DATASET
    return (
        DatasetArrays.build_count,
        ds is not None,
        getattr(ds, "_kernel_arrays", None) is not None if ds is not None else False,
    )


def test_workers_inherit_prebuilt_arrays_without_rebuilding():
    dataset, _ = make_dataset()
    with PersistentWorkerPool(dataset, workers=2) as pool:
        # The pool pre-builds the arrays in the parent, pre-fork.
        assert getattr(dataset, "_kernel_arrays", None) is not None
        parent_builds = DatasetArrays.build_count
        probes = pool._pool.map(_probe_worker, range(4), chunksize=1)
    for worker_builds, has_dataset, has_arrays in probes:
        assert has_dataset, "worker lost the fork-inherited dataset"
        assert has_arrays, "worker dataset arrived without its arrays"
        # The counter a worker sees is the parent's value snapshotted at
        # fork: any rebuild inside the worker would push it past that.
        assert worker_builds == parent_builds


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


def _object_columns_probe(_):
    """Runs inside a forked worker: its view of the object columns."""
    ds = pool_mod._WORKER_DATASET
    return ObjectColumns.build_count, "columns" in ds._per_object_set


def test_workers_inherit_object_columns_and_pickles_shed_them():
    """The per-object-set columns Algorithm 2 gathers from follow the
    same rules as ``DatasetArrays``: built pre-fork, inherited, never
    rebuilt in a worker, never pickled."""
    dataset, _ = make_dataset(seed=3)
    with PersistentWorkerPool(dataset, workers=2) as pool:
        columns = object_columns_for(dataset)
        assert arrays_for(dataset).objects is columns  # built pre-fork
        parent_builds = ObjectColumns.build_count
        probes = pool._pool.map(_object_columns_probe, range(4), chunksize=1)
    assert probes == [(parent_builds, True)] * 4
    with pytest.raises(TypeError, match="copy-on-write"):
        pickle.dumps(columns)
    clone = pickle.loads(pickle.dumps(dataset.with_users(dataset.users[:2])))
    assert clone._per_object_set == {}
    assert object_columns_for(dataset) is columns


def test_pool_results_match_inprocess_batches():
    """The lanes' pool answers what the plain engine answers in-process."""
    dataset, rng = make_dataset(seed=2)
    engine = MaxBRSTkNNEngine(dataset, fanout=4)
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
        lanes.start_pools(1)
        assert isinstance(lanes._pool, PersistentWorkerPool)
        pooled = lanes.query_batch(queries, QueryOptions())
    assert lanes._pool is None
    for a, b in zip(inprocess, pooled):
        assert a.location == b.location
        assert a.keywords == b.keywords
        assert a.brstknn == b.brstknn


def _arena_probe_worker(_):
    """Runs inside a forked worker: its arena attachment + build view."""
    return (
        pool_mod._WORKER_ARENA_NAME,
        pool_mod._WORKER_GENERATION,
        DatasetArrays.build_count,
    )


class TestArenaReattach:
    """The zero-copy respawn contract: a generation-N+1 worker maps the
    arena *by name* (its fork happened after SIGKILL recovery, so it
    cannot rely on inherited state being the published state) and must
    not rebuild any kernel arrays doing so."""

    def test_respawned_workers_reattach_arena_by_name(self):
        from repro.storage.shm import ShmArena

        dataset, _ = make_dataset(seed=6)
        with ShmArena() as arena:
            with PersistentWorkerPool(
                dataset, workers=2, arena_name=arena.name
            ) as pool:
                parent_builds = DatasetArrays.build_count
                probes = pool._pool.map(_arena_probe_worker, range(4), chunksize=1)
                for name, generation, builds in probes:
                    assert name == arena.name  # generation 0: initial attach
                    assert generation == 0
                    assert builds == parent_builds

                pool.respawn()
                assert pool.health.generation == 1
                probes = pool._pool.map(_arena_probe_worker, range(4), chunksize=1)
                for name, generation, builds in probes:
                    # The initializer re-ran in the fresh worker set and
                    # proved attach-by-name against the live arena.
                    assert name == arena.name
                    assert generation == 1
                    # Flat build counter: re-attach maps existing
                    # segments, it never reconstructs DatasetArrays.
                    assert builds == parent_builds

    def test_pool_without_arena_leaves_workers_unattached(self):
        dataset, _ = make_dataset(seed=7)
        with PersistentWorkerPool(dataset, workers=1) as pool:
            (name, generation, _), = pool._pool.map(
                _arena_probe_worker, range(1), chunksize=1
            )
            assert name is None
            assert generation == 0


class TestBoundedShutdown:
    """close(timeout_s=...) must survive workers that will never exit.

    ``Pool.join`` waits for every worker to read its close sentinel; a
    worker SIGSTOPped (or SIGKILLed) mid-task leaves the sentinel
    unread and the pre-PR-6 ``close()`` hung the server's ``stop()``
    forever.  A stopped worker is the harshest case: SIGTERM parks as
    pending (so ``Pool.terminate()`` hangs too) and only SIGKILL fells
    it — which is exactly the escalation ``_join_bounded`` implements.
    """

    def test_close_with_stopped_worker_warns_and_returns(self):
        import contextlib
        import os
        import signal
        import time

        dataset, _ = make_dataset(seed=3)
        pool = PersistentWorkerPool(dataset, workers=1)
        victim = pool._pool._pool[0]
        os.kill(victim.pid, signal.SIGSTOP)
        try:
            t0 = time.monotonic()
            with pytest.warns(RuntimeWarning, match="did not shut down"):
                pool.close(timeout_s=0.5)
            # Bounded: a few escalation joins, nowhere near unbounded.
            assert time.monotonic() - t0 < 10.0
            deadline = time.monotonic() + 5.0
            while victim.is_alive() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not victim.is_alive(), "SIGKILL escalation missed the worker"
        finally:
            # Harmless if the worker is already gone.
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.kill(victim.pid, signal.SIGCONT)

    def test_close_without_timeout_still_waits_unbounded_when_healthy(self):
        dataset, _ = make_dataset(seed=4)
        pool = PersistentWorkerPool(dataset, workers=1)
        pool.close()  # healthy workers: the unbounded join returns promptly
        with pytest.raises(RuntimeError):
            pool.run_supervised([])

    def test_close_with_timeout_on_healthy_pool_does_not_warn(self):
        import warnings as warnings_mod

        dataset, _ = make_dataset(seed=5)
        pool = PersistentWorkerPool(dataset, workers=2)
        with warnings_mod.catch_warnings():
            warnings_mod.simplefilter("error")
            pool.close(timeout_s=30.0)
