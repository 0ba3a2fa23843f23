"""Sharded execution: the engine plus its fleet.

A single :class:`~repro.core.engine.MaxBRSTkNNEngine` is the
scalability ceiling of the serving stack: however fast the kernels,
every query runs in one process.  A :class:`ShardedEngine` is that same
engine — one dataset, one object tree, one page store, one executor
and its memo — plus its **fleet**: the shard hosts its executor's
transport reaches, one **lane** each, each a full replica of the
dataset (a forked ``ShardHost`` that inherited it copy-on-write, or a
``repro shard-host`` process that rebuilt it from the workload spec).
Nothing is partitioned; work is *dealt*, at most one payload per lane
per round:

* **by user row range** — Algorithm 2's per-user ``RSk(u)`` refinement,
  the O(|U|·pool) phase of a cold flush, is per-user work against one
  shared traversal pool, so with ``n`` lanes range ``i`` covers rows
  ``[i·|U|/n, (i+1)·|U|/n)`` of ``dataset.users`` and the per-range
  vectors merge back into the exact sequential threshold vector
  (:mod:`repro.core.partial`): a disjoint union, checked to cover every
  user exactly once, memoized per k, so only a cold flush pays the
  round;
* **by query** — Algorithm 3 runs whole per query (its keyword-coverage
  counts sum over all of a location's ``LU_l``), so a flush's
  selections go out as ONE ``select`` round over the same lanes, one
  payload per host whatever the queries' k, each query carrying its
  k's phase-1 state (the arena codec ships each state's block once
  and names it on later flushes);
* everything **aggregate**-dependent stays on the coordinator: the one
  tree walk (same I/O trace as a single engine) and the group threshold
  ``RSk(us)``.

The flow is the engine's one :class:`~repro.core.pipeline.Executor`,
whose rounds :func:`~repro.core.pipeline.run_round` carries over the
installed transport: one inline lane until a fleet attaches, then a
:class:`~repro.serve.transport.SocketTransport` over ONE fleet of shard
hosts (:class:`~repro.serve.shardhost.ShardHost`) — ``num_shards``
forked local hosts after :meth:`ShardedEngine.start_pools`, remote
``repro shard-host`` processes after :meth:`ShardedEngine.connect_hosts`.

The headline guarantee is **result identity**: locations, keyword
sets, BRSTkNN sets, I/O counters and selection stats all equal the
single-engine answer, for any lane count and every transport —
property-tested in ``tests/serve/test_lanes.py``.

Execution is in-process by default (deterministic, zero setup); the
hosts :meth:`ShardedEngine.start_pools` forks inherit the dataset and
its pre-built ``DatasetArrays`` through copy-on-write.  A cold
micro-batch fans out twice over them (refine, then select) and a warm
one once, which is what the
:class:`~repro.serve.server.MaxBRSTkNNServer` flush path rides
(``ServerConfig.pool_workers=1`` starts the fleet).  These hosts are
the only worker processes a query ever reaches; a plain
:class:`MaxBRSTkNNEngine` answers in-process.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Union

from ..core.config import EngineConfig
from ..core.engine import MaxBRSTkNNEngine
from ..core.pipeline import INLINE

# Re-exported: the planner entry points, bound here by name for
# benchmarks/e2e/layers.py's probe.
from ..core.planner import plan_batch, plan_query
from ..model.dataset import Dataset
from .errors import PoolUnavailable
from .pool import PersistentWorkerPool
from .transport import ShardRegistry, SocketTransport

__all__ = ["ShardedEngine", "make_engine", "plan_batch", "plan_query"]


def _add_counters(totals: Dict[str, int], counters: Dict[str, int]) -> None:
    """Add a fleet's fault counters onto ``totals`` (closing fleets
    are banked so totals stay monotone)."""
    for key in totals:
        totals[key] += counters[key]


class ShardedEngine(MaxBRSTkNNEngine):
    """The engine plus its fleet of full-dataset lanes, one per host.

    Everything a query touches is :class:`MaxBRSTkNNEngine`'s; this
    class adds only the fleet's lifecycle — :meth:`start_pools` /
    :meth:`close_pools`, :meth:`connect_hosts` / :meth:`close_hosts` —
    and its counters.  :class:`~repro.serve.server.MaxBRSTkNNServer`
    takes either engine type unchanged.

    Parameters
    ----------
    dataset:
        The full bichromatic dataset.
    config:
        :class:`EngineConfig` with ``num_shards`` (>= 1), the hosts
        :meth:`start_pools` forks.
    """

    def __init__(self, dataset: Dataset, config: Optional[EngineConfig] = None) -> None:
        super().__init__(dataset, config)
        # The global super-user, built now so forked hosts inherit it
        # instead of each building its own.
        if dataset.users:
            dataset.super_user
        #: The ONE fleet the lanes run on: forked local hosts
        #: (start_pools) or remote shard-host processes (connect_hosts);
        #: None while every round runs in-process.
        self._registry: Optional[ShardRegistry] = None
        #: Fault counters of fleets already closed, so `fault_counters()`
        #: stays monotone across restarts.
        self._closed_fault_totals: Dict[str, int] = {
            "respawns": 0, "worker_deaths": 0, "deadline_hits": 0, "retries": 0,
        }

    # ------------------------------------------------------------------
    # Fleet lifecycle: forked local hosts or remote shard hosts
    # ------------------------------------------------------------------
    def start_pools(
        self, *, retry=None, deadline=None, faults=None
    ) -> "ShardedEngine":
        """Fork the local fleet: ``num_shards``
        :class:`~repro.serve.shardhost.ShardHost` processes, each a
        full-dataset lane on a socketpair.

        Hosts inherit the dataset (and its pre-built ``DatasetArrays``)
        via copy-on-write at fork time and answer every scatter round:
        the cold refine (which ships only the traversal pool's
        reference and a row range) and the ``select``.  Idempotent start is an
        error (mirrors the server lifecycle); a failed construction
        leaves the engine in its in-process state.

        ``retry`` / ``deadline`` are the ladder's policies
        (:class:`~repro.serve.config.RetryPolicy` /
        :class:`~repro.serve.config.DeadlinePolicy`); ``faults`` is an
        optional :class:`~repro.serve.faults.FaultPlan` for
        deterministic fault injection.
        """
        if self._registry is not None:
            raise RuntimeError(
                "worker pool already started" if self._forked()
                else "cannot start pools: shard hosts are connected"
            )
        try:
            # The payload arena (config.use_shm) BEFORE the fork: it
            # starts the resource tracker the hosts must share (see
            # repro.storage.shm); they copy its blocks out by name.
            self.ensure_arena()
            pool = PersistentWorkerPool(
                self.dataset, self.config.num_shards,
                retry=retry, deadline=deadline, faults=faults,
            )
        except BaseException:
            # No fleet is attached, so the caller (e.g. the server's
            # start()) will never close one for us — release the arena.
            self.close_arena()
            raise
        self._attach(pool)
        return self

    def close_pools(self, timeout_s: Optional[float] = None) -> None:
        """Shut the local fleet down (idempotent).

        ``timeout_s`` bounds the shutdown (see
        :meth:`~repro.serve.pool.PersistentWorkerPool.close`); ``None``
        waits unbounded.  A close error surfaces as a
        ``RuntimeWarning``, never an exception, so the arena is always
        released behind it.
        """
        if self._forked():
            self._detach(timeout_s)
        elif self._registry is None:
            self.close_arena()

    def connect_hosts(
        self, hosts, *, retry=None, deadline=None, connect_timeout_s: float = 5.0
    ) -> "ShardedEngine":
        """Scatter to remote shard host processes over TCP.

        ``hosts`` is a ``"host:port,host:port"`` string or a sequence
        of specs/pairs — one entry per ``repro shard-host`` process,
        each of which rebuilt this engine's exact dataset from the
        shared workload spec (:mod:`repro.serve.shardhost`).  The
        executor's transport becomes a
        :class:`~repro.serve.transport.SocketTransport` over them, the
        same one local hosts run behind; the flush's phases run unchanged,
        scatter rounds — refine ranges and joint selections alike, one
        lane per alive host — cross TCP as
        :class:`~repro.serve.transport.FrameCodec` frames carrying the
        arena-codec payloads verbatim.  ``retry`` / ``deadline`` are the
        ladder's policies; a dead host comes back only through a
        heartbeat (``_registry.ping_all()``).  A host whose ``PONG``
        carries another dataset's digest
        (:meth:`~repro.model.dataset.Dataset.fingerprint`) is refused
        with :class:`~repro.serve.errors.PoolUnavailable`.

        Mutually exclusive with :meth:`start_pools` (one fleet at a
        time); undo with :meth:`close_hosts`.
        """
        if self._registry is not None:
            raise RuntimeError(
                "cannot connect hosts: local hosts are running" if self._forked()
                else "shard hosts already connected"
            )
        # The payload arena (config.use_shm), so the first scatter has
        # somewhere to write its blocks; hosts copy them out by name.
        self.ensure_arena()
        registry = ShardRegistry.from_specs(
            hosts, connect_timeout_s=connect_timeout_s,
            dataset=self.dataset, retry=retry, deadline=deadline,
        )
        try:
            registry.connect_all()
            registry.verify_replicas(self.dataset.fingerprint())
        except PoolUnavailable:
            registry.close()
            self.close_arena()
            raise
        self._attach(registry)
        return self

    def close_hosts(self) -> None:
        """Drop the remote host connections and restore in-process
        scatter (idempotent)."""
        if self._registry is not None and not self._forked():
            self._detach(None)

    def _forked(self) -> bool:
        return self._registry is not None and self._registry.forked

    def _attach(self, registry: ShardRegistry) -> None:
        self._registry = registry
        self._executor.transport = SocketTransport(registry)

    def _detach(self, timeout_s: Optional[float]) -> None:
        """Close the fleet (its counters banked, so
        :meth:`fault_counters` stays monotone), then release the arena
        — only after every host is gone, so no host is left reading a
        block by name, and a clean close leaves /dev/shm empty."""
        registry, self._registry = self._registry, None
        self._executor.transport = INLINE
        _add_counters(self._closed_fault_totals, registry.fault_counters())
        try:
            registry.close(timeout_s)
        except Exception as exc:  # noqa: BLE001 - warn, keep tearing down
            warnings.warn(
                f"worker pool failed to close cleanly: {exc!r}",
                RuntimeWarning,
                stacklevel=3,
            )
        self.close_arena()

    def fault_counters(self) -> Dict[str, int]:
        """Respawn/death/deadline/retry totals across every fleet this
        engine ever ran (live plus banked)."""
        totals = dict(self._closed_fault_totals)
        if self._registry is not None:
            _add_counters(totals, self._registry.fault_counters())
        return totals

    def pool_health(self) -> List[dict]:
        """One health row per host of the live fleet."""
        return self._registry.health_rows() if self._registry is not None else []

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close_pools()
        self.close_hosts()


def make_engine(
    dataset: Dataset, config: Optional[EngineConfig] = None
) -> Union[MaxBRSTkNNEngine, ShardedEngine]:
    """Build the right engine for ``config``: sharded iff ``num_shards > 1``."""
    config = config if config is not None else EngineConfig()
    if config.num_shards > 1:
        return ShardedEngine(dataset, config)
    return MaxBRSTkNNEngine(dataset, config)
