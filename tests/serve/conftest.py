"""Shared builders for the serving suites (dataset, queries, identity).

The fault suites (``test_faults_*``) all need the same scaffolding: a
small randomized dataset, a batch of mixed-k queries, and a bitwise
result-identity assertion against in-process sequential execution —
the acceptance bar every recovery path must clear.
"""

import asyncio
import os
import random
import threading

from repro import (
    Dataset,
    EngineConfig,
    MaxBRSTkNNEngine,
    MaxBRSTkNNQuery,
    STObject,
)
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build_dataset(seed=0, n_obj=60, n_users=16, vocab=16):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    return Dataset(objects, users, relevance="LM", alpha=0.5), rng, vocab


def build_engine(seed=0, **dataset_kwargs):
    dataset, rng, vocab = build_dataset(seed, **dataset_kwargs)
    return MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4)), rng, vocab


def build_lanes(seed=0, num_shards=2, **dataset_kwargs):
    """``build_engine``'s dataset behind a ShardedEngine: the engine a
    server forks worker processes for (``pool_workers`` per lane)."""
    from repro.serve import ShardedEngine

    dataset, rng, vocab = build_dataset(seed, **dataset_kwargs)
    config = EngineConfig(fanout=4, num_shards=num_shards)
    return ShardedEngine(dataset, config), rng, vocab


def make_queries(rng, vocab, count, ks=(3, 5)):
    queries = []
    for i in range(count):
        queries.append(
            MaxBRSTkNNQuery(
                ox=STObject(
                    item_id=-(i + 1),
                    location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    terms={},
                ),
                locations=[
                    Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(3)
                ],
                keywords=sorted(rng.sample(range(vocab), 5)),
                ws=2,
                k=ks[i % len(ks)],
            )
        )
    return queries


def assert_results_equal(served, reference):
    """Bitwise identity: location, keywords and BRSTkNN set must match."""
    assert len(served) == len(reference)
    for got, want in zip(served, reference):
        assert got.location == want.location
        assert got.keywords == want.keywords
        assert got.brstknn == want.brstknn


class HostThread:
    """One embedded shard host on its own thread + event loop."""

    def __init__(self, host):
        self.host = host
        self.loop = None
        self.port = None
        self._ready = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        assert self._ready.wait(10), "shard host failed to bind"

    def _run(self):
        self.loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self.loop)
        self.port = self.loop.run_until_complete(self.host.start())
        self._ready.set()
        try:
            self.loop.run_until_complete(self.host.serve_forever())
        except (asyncio.CancelledError, RuntimeError):
            pass  # cancelled at stop()
        finally:
            self.loop.close()

    def stop(self):
        """Kill the host: every handler dies, connections reset."""
        if self.loop.is_closed():
            return

        def _cancel():
            for task in asyncio.all_tasks(self.loop):
                task.cancel()

        self.loop.call_soon_threadsafe(_cancel)
        self.thread.join(10)


def live_children(zombies=False):
    """``pid -> command line`` of this process's children, straight from
    /proc (live ones only, unless ``zombies``); multiprocessing's
    resource tracker — the interpreter's own helper, alive until exit —
    is left out."""
    me, children = os.getpid(), {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmd = handle.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue  # exited while we were listing
        if int(ppid) != me or "resource_tracker" in cmd:
            continue
        if zombies or state != "Z":
            children[int(entry)] = cmd
    return children
