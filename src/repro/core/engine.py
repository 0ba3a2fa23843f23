"""High-level facade: build indexes once, answer queries many times.

``MaxBRSTkNNEngine`` wires together everything the paper's pipeline
needs — the MIR-tree over objects, optionally an MIUR-tree over users,
the simulated page store, the joint top-k, and the candidate selection
— behind the layered typed API:

>>> engine = MaxBRSTkNNEngine(dataset, EngineConfig(index_users=True))
>>> result = engine.query(q, options=QueryOptions(method=Method.EXACT))
>>> result.cardinality, sorted(result.keywords)

The three layers (see also ``repro/serve`` for the one above):

* :class:`~repro.core.config.QueryOptions` / ``EngineConfig`` — typed,
  validated configuration (enum fields accept their string values);
* :mod:`repro.core.planner` — resolves options against the engine's
  capabilities into an executable :class:`QueryPlan`;
* execution — this facade plus :mod:`repro.core.batch`, always in this
  process (worker processes belong to the lanes of
  :class:`~repro.serve.sharded.ShardedEngine`).

Modes
-----
* ``Mode.JOINT`` (default): users in memory, joint top-k (Section 5)
  then Algorithm 3 candidate selection.
* ``Mode.BASELINE``: Section 4's per-user top-k + exhaustive scan.
* ``Mode.INDEXED``: users on disk under the MIUR-tree (Section 7).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..index.irtree import MIRTree
from ..index.miurtree import MIURTree
from ..model.dataset import Dataset
from ..storage.iostats import IOCounter
from ..storage.pager import LRUBuffer, PageStore
from ..topk.single import TopKResult, topk_all_users_individually
from .baseline import baseline_maxbrstknn
from .batch import query_batch
from .candidate_selection import select_candidate
from .config import EngineConfig, Mode, QueryOptions, coerce_options
from .indexed_users import indexed_users_maxbrstknn
from .joint_topk import TopKTable, individual_topk, joint_traversal
from .planner import EngineCapabilities, QueryPlan, plan_batch, plan_query
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

__all__ = ["MaxBRSTkNNEngine"]


class MaxBRSTkNNEngine:
    """Index container + query dispatcher for MaxBRSTkNN queries.

    Parameters
    ----------
    dataset:
        The bichromatic dataset (objects, users, relevance, alpha).
    config:
        Typed build configuration (:class:`EngineConfig`).  The legacy
        ``fanout`` / ``index_users`` / ``buffer_pages`` kwargs still
        work and map onto an :class:`EngineConfig`; passing both is an
        error.
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
        fanout: Optional[int] = None,
        index_users: Optional[bool] = None,
        buffer_pages: Optional[int] = None,
        object_tree: Optional[MIRTree] = None,
    ) -> None:
        legacy = {
            name: value
            for name, value in (
                ("fanout", fanout),
                ("index_users", index_users),
                ("buffer_pages", buffer_pages),
            )
            if value is not None
        }
        if isinstance(config, int):
            # Legacy positional fanout: MaxBRSTkNNEngine(ds, 8).
            if "fanout" in legacy:
                raise TypeError("MaxBRSTkNNEngine() got two values for 'fanout'")
            legacy["fanout"] = config
            config = None
        if config is not None and not isinstance(config, EngineConfig):
            raise TypeError(
                f"config must be an EngineConfig, got {type(config).__name__}"
            )
        if config is not None and legacy:
            raise TypeError(
                "pass either config=EngineConfig(...) or legacy kwargs, "
                f"not both (got {sorted(legacy)})"
            )
        if config is None:
            config = EngineConfig(**legacy)
        if config.num_shards != 1:
            raise ValueError(
                "MaxBRSTkNNEngine runs in one process; for "
                f"num_shards={config.num_shards} build a "
                "repro.serve.sharded.ShardedEngine (or make_engine(dataset, config))"
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
        self.user_tree: Optional[MIURTree] = None
        if config.index_users:
            if not dataset.users:
                raise ValueError("cannot index an empty user set")
            self.user_tree = MIURTree(
                dataset.users, dataset.relevance, fanout=config.fanout
            )
        #: Per-dataset baseline phase-1 cache: ("baseline", k) -> shared
        #: per-user top-k state, filled and reused by :meth:`query_batch`.
        self._shared_topk_cache: Dict[Tuple[str, int], object] = {}
        #: Cross-k candidate-pool cache for joint batches: one tree
        #: walk at the largest k seen serves every smaller k (see
        #: :class:`repro.core.batch.SharedTraversalPool`).
        self._traversal_pool = None
        #: Cross-k MIUR-root pool for indexed batches — the indexed
        #: twin of ``_traversal_pool`` (see
        #: :class:`repro.core.indexed_users.RootTraversal`): one walk
        #: at the largest k seen serves every smaller k, since node-RSk
        #: pruning derives pool-independently.
        self._root_pool = None
        #: Joint/MIUR-root tree walks this engine has executed (single
        #: queries and batch shared phases alike) — the batch benchmarks
        #: assert a mixed-k batch pays exactly one.
        self.traversal_runs = 0
        #: Per-stage accounting of the most recent pipeline flush
        #: (:class:`repro.core.pipeline.FlushReport`), introspection.
        self.last_flush_report = None
        #: Zero-copy storage tier (``config.use_shm``): the owned
        #: :class:`~repro.storage.shm.ShmArena` holding this engine's
        #: dense columns, and the :class:`~repro.core.payload.PayloadCodec`
        #: that ships scatter payloads through it.  Both stay ``None``
        #: until :meth:`ensure_arena` (pool startup / prewarm) runs.
        self._arena = None
        self._payload_codec = None

    # ------------------------------------------------------------------
    # Planning / introspection
    # ------------------------------------------------------------------
    def capabilities(self) -> EngineCapabilities:
        """What this engine can execute (feeds the planner)."""
        return EngineCapabilities.of(self)

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
        plan = plan_query(opts, self.capabilities(), k=query.k)
        return self._execute_single(query, plan)

    def _execute_single(
        self, query: MaxBRSTkNNQuery, plan: QueryPlan
    ) -> MaxBRSTkNNResult:
        """Run one planned query (always cold: no shared-phase cache)."""
        if plan.mode is Mode.BASELINE:
            return baseline_maxbrstknn(
                self.object_tree, self.dataset, query, store=self.store
            )
        if plan.mode is Mode.INDEXED:
            assert self.user_tree is not None  # planner validated
            self.traversal_runs += 1
            return indexed_users_maxbrstknn(
                self.object_tree,
                self.user_tree,
                self.dataset,
                query,
                method=plan.method.value,
                store=self.store,
            )

        # Deliberately cold (no shared-phase cache): single-query cost
        # and I/O accounting must match the paper's per-query setting
        # (Figure 15 measures it).  batch._ensure_traversal_pool mirrors
        # this block — keep the stats accounting in sync when editing.
        stats = QueryStats(users_total=len(self.dataset.users))
        before = self.io.snapshot()
        t0 = time.perf_counter()
        self.traversal_runs += 1
        traversal = joint_traversal(
            self.object_tree, self.dataset, query.k, store=self.store
        )
        table = individual_topk(traversal, self.dataset, query.k)
        stats.topk_time_s = time.perf_counter() - t0
        delta = self.io.snapshot() - before
        stats.io_node_visits = delta.node_visits
        stats.io_invfile_blocks = delta.invfile_blocks

        rsk = table.rsk(query.k)  # RSk(u) by user row, one vector
        return select_candidate(  # sets stats.selection_time_s
            self.dataset,
            query,
            rsk,
            rsk_group=traversal.rsk_group,
            method=plan.method.value,
            stats=stats,
        )

    def query_batch(
        self,
        queries: Sequence[MaxBRSTkNNQuery],
        options: Optional[QueryOptions] = None,
    ) -> List[MaxBRSTkNNResult]:
        """Answer a batch of queries, sharing phase 1 per distinct k.

        See :func:`repro.core.batch.query_batch`; the shared phase is
        memoized on the engine, so consecutive batches with the same k
        skip it entirely (:meth:`clear_topk_cache` drops it).  The whole
        batch runs in this process.
        """
        return query_batch(self, queries, options)

    def clear_topk_cache(self) -> None:
        """Drop the shared phase-1 caches used by ``query_batch``."""
        self._shared_topk_cache.clear()
        self._traversal_pool = None
        self._root_pool = None

    def prewarm_kernels(self) -> None:
        """Build the kernel caches up front (server startup hook).

        ``DatasetArrays`` (with the per-object-set ``ObjectColumns``
        Algorithm 2 gathers from) plus the object tree's ``TreeArrays``
        — so the first query pays no build cost and lane workers forked
        later inherit them through copy-on-write.
        """
        from .kernels import arrays_for, tree_arrays_for

        arrays_for(self.dataset)
        tree_arrays_for(self.object_tree)
        self.ensure_arena()

    # ------------------------------------------------------------------
    # Zero-copy storage tier (config.use_shm)
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
        """Materialize the shm arena + payload codec (idempotent).

        Returns the arena, or ``None`` when ``config.use_shm`` is off.
        Must run before local shard hosts fork so they inherit the
        shm-backed views through copy-on-write (a re-forked host
        inherits them the same way).
        """
        if not self.config.use_shm:
            return None
        if self._arena is not None:
            return self._arena
        from .kernels import arrays_for, tree_arrays_for
        from .payload import PayloadCodec
        from ..storage.shm import ShmArena

        arena = ShmArena()
        try:
            arrays_for(self.dataset).share_into(arena)
            tree_arrays_for(self.object_tree).share_into(arena)
        except BaseException:
            arena.destroy()
            raise
        self._arena = arena
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
    def reset_io(self) -> None:
        self.io.reset()
        if self.store.buffer is not None:
            self.store.buffer.clear()
