"""High-level facade: build indexes once, answer queries many times.

``MaxBRSTkNNEngine`` wires together everything the paper's pipeline
needs — the MIR-tree over objects, the simulated page store, the joint
top-k, and the candidate selection — behind the layered typed API:

>>> engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=8))
>>> result = engine.query(q, options=QueryOptions(method=Method.EXACT))
>>> result.cardinality, sorted(result.keywords)

The three layers (see also ``repro/serve`` for the one above):

* :class:`~repro.core.config.QueryOptions` / ``EngineConfig`` — typed,
  validated configuration (enum fields accept their string values);
* :mod:`repro.core.planner` — resolves options against the engine's
  capabilities into an executable :class:`QueryPlan`;
* execution — one :class:`~repro.core.pipeline.Executor` per engine,
  which runs every flush and owns the phase-1 memo.  It deals the
  refine as one user-row range per lane of its transport: one, run
  inline, until a fleet of shard hosts attaches (worker processes
  belong to the fleet of :class:`~repro.serve.sharded.ShardedEngine`,
  which is this engine plus its fleet).  :meth:`MaxBRSTkNNEngine.query`
  is a batch of one on a fresh executor: its empty memo makes the query
  cold, as in the paper's per-query setting.

Every query runs one pipeline: users in memory, joint top-k
(Section 5), then Algorithm 3 candidate selection.  The paper's other
two strategies are reference code, not engine options:

* Section 4's baseline (per-user top-k + exhaustive scan) is
  :func:`repro.core.baseline.baseline_maxbrstknn`; its top-k half,
  the per-user scans Figure 5 measures, is also
  :meth:`MaxBRSTkNNEngine.topk_baseline`.
* Section 7 (users on disk under an MIUR-tree) never beat the joint
  pipeline in time or I/O on a measured cell; it is
  :func:`repro.oracle.indexed_users_maxbrstknn`, which runs against an
  engine's MIR-tree and page store and which Figure 15 measures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..index.irtree import MIRTree
from ..model.dataset import Dataset
from ..storage.iostats import IOCounter
from ..storage.pager import LRUBuffer, PageStore
from ..topk.single import TopKResult, topk_all_users_individually
from .batch import query_batch
from .candidate_selection import select_candidate
from .config import EngineConfig, QueryOptions, coerce_options
from .joint_topk import TopKTable, individual_topk, joint_traversal
from .pipeline import Executor
from .planner import EngineCapabilities, QueryPlan, plan_batch, plan_query
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult

__all__ = [
    "MaxBRSTkNNEngine",
    # Not called here any more (selection runs in repro.core.batch):
    # benchmarks/e2e/layers.py still patches it on this module, by name.
    "select_candidate",
]


class MaxBRSTkNNEngine:
    """Index container + query dispatcher for MaxBRSTkNN queries.

    Parameters
    ----------
    dataset:
        The bichromatic dataset (objects, users, relevance, alpha).
    config:
        Typed build configuration (:class:`EngineConfig`; ``None``: the
        defaults).
    object_tree:
        Optional pre-built MIR-tree over the *same* object set to share
        instead of building one (``repro serve --verify`` builds its
        reference engine over the served engine's tree).
    """

    def __init__(
        self,
        dataset: Dataset,
        config: Optional[EngineConfig] = None,
        *,
        object_tree: Optional[MIRTree] = None,
    ) -> None:
        config = config if config is not None else EngineConfig()
        if not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        self.config = config
        self.dataset = dataset
        self.io = IOCounter()
        buffer = LRUBuffer(config.buffer_pages) if config.buffer_pages > 0 else None
        self.store = PageStore(counter=self.io, buffer=buffer)
        if object_tree is not None:
            # Share an existing (immutable at query time) MIR-tree built
            # over the same object set instead of paying an identical
            # build.  I/O still charges to *this* engine's store
            # (read_node takes the store per call).
            if object_tree.table is not dataset.table and not np.array_equal(
                np.sort(object_tree.table.ids), np.sort(dataset.table.ids)
            ):
                raise ValueError(
                    "shared object_tree was built over a different object set "
                    "(object ids do not match this dataset)"
                )
            if object_tree.relevance is not dataset.relevance:
                raise ValueError(
                    "shared object_tree was built with a different relevance "
                    "model; its baked-in term weights would disagree with "
                    "this dataset's scoring"
                )
            if object_tree.fanout != config.fanout:
                raise ValueError(
                    f"shared object_tree fanout {object_tree.fanout} != "
                    f"config fanout {config.fanout}"
                )
            self.object_tree = object_tree
        else:
            self.object_tree = MIRTree(
                dataset.objects, dataset.relevance, fanout=config.fanout
            )
        #: Runs every flush of :meth:`query_batch`, its refine dealt as
        #: one row range per lane of its transport, and owns the memo it
        #: reuses across batches: the cross-k traversal pool and the
        #: merged thresholds (:meth:`clear_topk_cache` drops them).
        self._executor = Executor(self)
        #: Gather-side time of every flush, ``engine.query``'s own
        #: executors included (:meth:`gather_stats`): the refine merge,
        #: the query-axis phase, and the query-axis rounds that left
        #: the process.
        self.merge_s = 0.0
        self.search_s = 0.0
        self.search_flushes = 0
        #: Joint tree walks this engine has executed (single queries
        #: and batch shared phases alike) — the batch benchmarks
        #: assert a mixed-k batch pays exactly one.
        self.traversal_runs = 0
        #: Per-stage accounting of the most recent pipeline flush
        #: (:class:`repro.core.pipeline.FlushReport`), introspection.
        self.last_flush_report = None
        #: Shared-memory payload tier (``config.use_shm``): the owned
        #: :class:`~repro.storage.shm.ShmArena` the
        #: :class:`~repro.core.payload.PayloadCodec` writes scatter
        #: payload blocks into.  Both stay ``None`` until
        #: :meth:`ensure_arena` (fleet start-up) runs.
        self._arena = None
        self._payload_codec = None

    # ------------------------------------------------------------------
    # Planning / introspection
    # ------------------------------------------------------------------
    def capabilities(self) -> EngineCapabilities:
        """What this engine can execute (feeds the planner)."""
        return EngineCapabilities.of(self._executor)

    def plan(
        self,
        options: Optional[QueryOptions] = None,
        ks: Sequence[int] = (),
    ) -> QueryPlan:
        """Resolve ``options`` against this engine without executing.

        ``ks`` are the ``k`` values of a prospective batch; empty means
        a single query.  ``plan(...).explain()`` describes the decision.
        """
        options = options if options is not None else QueryOptions.default()
        caps = self.capabilities()
        if ks:
            return plan_batch(options, caps, list(ks))
        return plan_query(options, caps)

    # ------------------------------------------------------------------
    # Top-k entry points (benchmarked separately: Figures 5a/5b etc.)
    # ------------------------------------------------------------------
    def topk_joint(self, k: int) -> TopKTable:
        """Joint top-k (Algorithms 1+2) for every user (a mapping from
        user id to their ranked list)."""
        traversal = joint_traversal(self.object_tree, self.dataset, k, store=self.store)
        return individual_topk(traversal, self.dataset, k)

    def topk_baseline(self, k: int) -> Dict[int, TopKResult]:
        """Per-user top-k over the same tree (baseline B)."""
        return topk_all_users_individually(
            self.object_tree, self.dataset, k, store=self.store
        )

    # ------------------------------------------------------------------
    # Full query
    # ------------------------------------------------------------------
    def query(
        self,
        query: MaxBRSTkNNQuery,
        options: Optional[QueryOptions] = None,
    ) -> MaxBRSTkNNResult:
        """Answer one MaxBRSTkNN query.

        ``options`` is a :class:`QueryOptions` (``None``: the shared
        default).  :func:`repro.oracle.query` answers the same query
        with the scalar reference kernels.
        """
        opts = coerce_options(options, api="MaxBRSTkNNEngine.query")
        # A fresh executor has an empty memo, so the query is cold by
        # construction: it walks at query.k and memoizes nothing, and
        # its I/O is the paper's per-query trace (Figure 15 measures it).
        # It deals the refine like the engine's own, over its transport,
        # and keeps its one-shot pool out of the codec's delta memo.
        executor = Executor(self, self._executor.transport, one_shot=True)
        plan = plan_batch(opts, EngineCapabilities.of(executor), [query.k])
        return executor.execute([query], plan)[0]

    def query_batch(
        self,
        queries: Sequence[MaxBRSTkNNQuery],
        options: Optional[QueryOptions] = None,
    ) -> List[MaxBRSTkNNResult]:
        """Answer a batch of queries, sharing phase 1 per distinct k.

        See :func:`repro.core.batch.query_batch`; the shared phase is
        memoized on the engine's executor, so consecutive batches with the same k
        skip it entirely (:meth:`clear_topk_cache` drops it).  The batch
        runs in this process unless a fleet is attached.
        """
        return query_batch(self, queries, options)

    def clear_topk_cache(self) -> None:
        """Drop the shared phase-1 memo used by ``query_batch``."""
        self._executor.clear()

    def prewarm_kernels(self) -> None:
        """Build the kernel caches up front (server startup hook).

        ``DatasetArrays`` (with the per-object-set ``ObjectColumns``
        Algorithm 2 gathers from), the object tree's ``TreeArrays`` and
        their bound wave for the dataset-wide super-user at the current
        epoch (``TreeArrays.wave``, what every walk of this engine
        reads) — so the first query pays no build cost and lane workers
        forked later inherit them through copy-on-write.
        """
        from .kernels import arrays_for, tree_arrays_for

        arrays_for(self.dataset)
        tree_arrays_for(self.object_tree).wave(self.dataset, self.store)

    # ------------------------------------------------------------------
    # Shared-memory payload tier (config.use_shm)
    # ------------------------------------------------------------------
    @property
    def payload_codec(self):
        """The arena-backed scatter codec, or ``None`` (pickle path)."""
        return self._payload_codec

    @property
    def arena_name(self) -> Optional[str]:
        """Name of the owned shm arena, or ``None`` when not materialized."""
        return self._arena.name if self._arena is not None else None

    def ensure_arena(self):
        """Create the shm arena + payload codec (idempotent).

        Returns the arena, or ``None`` when ``config.use_shm`` is off.
        The arena starts empty: it only ever holds the codec's payload
        blocks, which hosts copy out by name.
        """
        if not self.config.use_shm:
            return None
        if self._arena is not None:
            return self._arena
        from .payload import PayloadCodec
        from ..storage.shm import ShmArena

        arena = self._arena = ShmArena()
        self._payload_codec = PayloadCodec(
            arena, epoch_fn=lambda: getattr(self.dataset, "epoch", 0)
        )
        return arena

    def close_arena(self) -> None:
        """Unlink and drop the arena (idempotent; safe without one)."""
        arena, self._arena = self._arena, None
        self._payload_codec = None
        if arena is not None:
            arena.destroy()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def gather_stats(self) -> dict:
        """Gather-side counters: ``merge_ms`` is the cross-range ``RSk``
        union of refine rounds; ``search_ms`` / ``search_flushes`` time
        / count the query-axis round (select); ``search_workers`` is
        the hosts that round can leave to.  ``side_hits`` /
        ``side_misses`` / ``side_entries`` / ``side_bytes`` are this
        process's keyword-side map (``DatasetArrays.side``): how often
        a selection found its side stored, how many sides are, and the
        bytes their arrays hold (each shard host keeps its own map)."""
        from .kernels import arrays_for

        sides = arrays_for(self.dataset).side_stats()
        return {
            "merge_ms": round(1000 * self.merge_s, 2),
            "search_ms": round(1000 * self.search_s, 2),
            "search_flushes": self.search_flushes,
            "search_workers": self._executor.transport.hosts(),
            **{f"side_{name}": value for name, value in sides.items()},
        }

    def reset_io(self) -> None:
        self.io.reset()
        if self.store.buffer is not None:
            self.store.buffer.clear()
