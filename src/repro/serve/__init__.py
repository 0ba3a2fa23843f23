"""Async micro-batching serving layer on top of the batch query engine.

The top layer of the typed API (see ``repro/core/config.py`` and
``repro/core/planner.py`` for the two below):

* :class:`ServerConfig` — micro-batch window (``max_batch`` /
  ``max_wait_ms``), workers per lane, and the
  :class:`~repro.core.config.QueryOptions` every request runs with;
* :class:`ShardHost` — the one worker runtime: a full-dataset replica
  behind the frame loop, forked locally on a socketpair
  (:class:`PersistentWorkerPool`, inheriting the dataset and its
  pre-built ``DatasetArrays``) or run as a ``repro shard-host`` process
  over TCP — the lanes of a :class:`ShardedEngine`;
* :class:`MaxBRSTkNNServer` — asyncio front-end: ``await
  server.submit(query)`` futures are collected into micro-batches
  (flush on ``max_batch`` or ``max_wait_ms``; ``max_wait_ms="auto"``
  tunes the window from the observed arrival rate) and executed through
  ``query_batch``, so concurrent callers share the top-k phase without
  coordinating;
* :class:`ShardedEngine` — the engine plus its fleet: a
  :class:`~repro.core.engine.MaxBRSTkNNEngine` that can attach N
  full-dataset lanes (shard hosts, local or remote) to deal each flush
  over, with an exact scatter/gather merge, and the only owner of
  worker processes; the server takes either engine type unchanged
  (``make_engine`` picks by ``EngineConfig.num_shards``).

>>> async with MaxBRSTkNNServer(engine) as server:
...     results = await asyncio.gather(*(server.submit(q) for q in qs))
"""

from .config import (
    AdaptiveWaitController,
    DeadlinePolicy,
    RetryPolicy,
    ServerConfig,
    ServerStats,
)
from .errors import (
    FlushDeadlineExceeded,
    PoolFailure,
    PoolUnavailable,
    ScatterTaskError,
    ServerOverloaded,
    ServerStopped,
    ServingError,
    WorkerCrashed,
)
from .faults import FaultPlan, InjectedFault
from .pool import PersistentWorkerPool
from .server import MaxBRSTkNNServer
from .sharded import ShardedEngine, make_engine
from .shardhost import ShardHost, WorkloadSpec, make_workload
from .transport import FrameCodec, ShardHostClient, ShardRegistry, SocketTransport

__all__ = [
    "AdaptiveWaitController",
    "DeadlinePolicy",
    "FaultPlan",
    "FlushDeadlineExceeded",
    "FrameCodec",
    "InjectedFault",
    "MaxBRSTkNNServer",
    "PersistentWorkerPool",
    "PoolFailure",
    "PoolUnavailable",
    "RetryPolicy",
    "ScatterTaskError",
    "ServerConfig",
    "ServerOverloaded",
    "ServerStats",
    "ServerStopped",
    "ServingError",
    "ShardHost",
    "ShardHostClient",
    "ShardRegistry",
    "ShardedEngine",
    "SocketTransport",
    "WorkerCrashed",
    "WorkloadSpec",
    "make_engine",
    "make_workload",
]
