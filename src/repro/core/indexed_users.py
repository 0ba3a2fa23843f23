"""MaxBRSTkNN with users on disk under an MIUR-tree (Section 7).

With the flat super-user, ``RSk(u)`` is computed for *every* user, even
those no candidate location can ever win.  Section 7 replaces the flat
group by a hierarchy: the MIUR-tree, whose root is exactly the
super-user and whose every node acts as the super-user of its subtree.

The processing is best-first over *locations* exactly as Algorithm 3,
except that a location's shortlist ``LU_l`` may contain whole user
*nodes*.  The node-level admission test uses

    ``UBL(l, node) >= RSk(node)``

where ``RSk(node)`` is the k-th best *lower* bound over the traversal's
**canonical** candidate pool w.r.t. the node's summary.  Both sides
bound every user in the subtree (``UBL(l, node) >= UBL(l, u)`` and
``RSk(node) <= RSk(u)``), so failing the test proves no user below can
be a BRSTkNN at ``l`` — the subtree is pruned without ever computing
individual top-k results.  Only nodes surviving for the currently most
promising location are expanded; leaves yield real users whose exact
``RSk(u)`` is then resolved from the joint traversal's pools
(Algorithm 2 on the node's user group).

Pool-independence (the PR 5 reformulation)
------------------------------------------
``RSk(node)`` used to be an order statistic over *whatever* candidate
pool the walk happened to keep — a ``k_max`` walk keeps a superset of a
dedicated ``k``-walk's pool, so sharing one walk across a mixed-k batch
would silently change node pruning thresholds, best-first visit order,
and tie winners.  The bound is now computed over the **canonical**
candidate set ``{o : UB(o, us) >= RSk_k(us)}`` in a total
(lower-bound desc, object id asc) order
(:func:`repro.core.joint_topk.canonical_candidates`): identical under
any qualifying walk, which is what lets indexed batches share one
``k_max`` pool (:class:`RootTraversal` now carries per-k derivations,
exactly like the joint :class:`~repro.core.batch.SharedTraversalPool`)
and lets the sharded engine fan the search out without changing a
single decision.

The search itself (:func:`indexed_search`) is a pure function of
``(user_tree, dataset, query, traversal, rsk_group)`` plus a page
store: forked workers run it against a
:meth:`~repro.storage.pager.PageStore.ledger_view` and return the
:class:`~repro.storage.pager.IOCharge` alongside the result, so the
engine's shared counter sees exactly the charges an in-process run
would have made.

The fraction of users whose top-k was never resolved is the paper's
"Users pruned (%)" metric (Figure 15).

The search's leaves — Algorithm 2 per leaf group, ``RSk(node)``, the
keyword selector — are the engine's kernels; the oracle
(:func:`repro.oracle.indexed_search`) runs the same best-first loop with
its scalar leaves passed in as arguments.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..index.irtree import MIRTree
from ..index.miurtree import MIURTree, UserNodeView
from ..model.dataset import Dataset
from ..model.objects import User
from ..spatial.geometry import Point
from ..storage.pager import PageStore
from .bounds import BoundCalculator
from .joint_topk import (
    CandidatePool,
    JointTraversalResult,
    canonical_candidates,
    derive_rsk_group,
    individual_topk,
    joint_traversal,
)
from .kernels import CandidatePoolArrays, np
from .keyword_selection import select_keywords_exact, select_keywords_greedy
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats
from .thresholds import Thresholds

__all__ = [
    "RootTraversal",
    "compute_root_traversal",
    "ensure_root_pool",
    "indexed_search",
    "indexed_users_maxbrstknn",
]

#: A shortlist entry: either a resolved user or a whole user node.
_Entry = Union[User, UserNodeView]


@dataclass
class _LocationState:
    """Mutable per-location shortlist during the best-first search."""

    location: Point
    entries: List[_Entry]

    def user_count(self) -> int:
        return sum(
            e.user_count if isinstance(e, UserNodeView) else 1 for e in self.entries
        )

    def has_nodes(self) -> bool:
        return any(isinstance(e, UserNodeView) for e in self.entries)


@dataclass
class RootTraversal:
    """Query-independent phase-1 state for indexed queries — cross-k.

    The joint traversal of the object tree against the MIUR-tree root
    summary depends only on ``(dataset, k)`` — the root's summary *is*
    the super-user of all users — and, since the node-RSk
    reformulation, its ``k``-walk pool serves **every smaller k** too:
    per-user thresholds resolve by subsumption (Algorithm 2 over a
    qualifying superset pool is value-identical), the group threshold
    derives per k, and node-level pruning reads the canonical per-k
    candidate set.  Batched indexed queries therefore share ONE walk at
    ``k_max`` (planned by :func:`repro.core.planner.plan_batch`,
    memoized on the engine exactly like the joint-mode
    :class:`~repro.core.batch.SharedTraversalPool`).
    """

    k: int
    traversal: JointTraversalResult
    topk_time_s: float
    io_node_visits: int
    io_invfile_blocks: int
    hits: int = 0  # queries served from this entry (introspection)
    #: Per-k derivations, memoized: group threshold, canonical pool,
    #: and the flattened pool arrays the node-RSk kernel reads.
    _rsk_group_by_k: Dict[int, float] = field(default_factory=dict)
    _canonical_by_k: Dict[int, CandidatePool] = field(default_factory=dict)
    _arrays_by_k: Dict[int, object] = field(default_factory=dict)

    def rsk_group_for(self, k: int) -> float:
        value = self._rsk_group_by_k.get(k)
        if value is None:
            value = derive_rsk_group(self.traversal, self.k, k)
            self._rsk_group_by_k[k] = value
        return value

    def canonical_for(self, k: int) -> CandidatePool:
        pool = self._canonical_by_k.get(k)
        if pool is None:
            pool = canonical_candidates(self.traversal, self.rsk_group_for(k))
            self._canonical_by_k[k] = pool
        return pool

    def pool_arrays_for(self, dataset: Dataset, k: int):
        arrays = self._arrays_by_k.get(k)
        if arrays is None:
            arrays = CandidatePoolArrays(dataset, self.canonical_for(k))
            self._arrays_by_k[k] = arrays
        return arrays


def compute_root_traversal(
    object_tree: MIRTree,
    user_tree: MIURTree,
    dataset: Dataset,
    k: int,
    store: Optional[PageStore] = None,
) -> RootTraversal:
    """Run the shared phase once: joint traversal vs the root summary."""
    counter = store.counter if store is not None else None
    before = counter.snapshot() if counter is not None else None
    t0 = time.perf_counter()
    traversal = joint_traversal(
        object_tree, dataset, k, super_user=user_tree.root.summary, store=store
    )
    elapsed = time.perf_counter() - t0
    if counter is not None:
        delta = counter.snapshot() - before
        node_visits, invfile_blocks = delta.node_visits, delta.invfile_blocks
    else:
        node_visits = invfile_blocks = 0
    return RootTraversal(
        k=k,
        traversal=traversal,
        topk_time_s=elapsed,
        io_node_visits=node_visits,
        io_invfile_blocks=invfile_blocks,
    )


def ensure_root_pool(engine, k: int) -> RootTraversal:
    """The engine's cross-k MIUR-root pool, (re)walked only when ``k``
    outgrows it — the indexed twin of
    :func:`repro.core.batch._ensure_traversal_pool`."""
    pool = engine._root_pool
    if pool is None or pool.k < k:
        assert engine.user_tree is not None  # planner validated
        pool = compute_root_traversal(
            engine.object_tree, engine.user_tree, engine.dataset, k,
            store=engine.store,
        )
        engine.traversal_runs += 1
        engine._root_pool = pool
    return pool


def indexed_search(
    user_tree: MIURTree,
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    traversal: JointTraversalResult,
    rsk_group: float,
    stats: QueryStats,
    method: str = "approx",
    store: Optional[PageStore] = None,
    canonical: Optional[CandidatePool] = None,
    pool_arrays=None,
    refine: Optional[Callable] = None,
    select: Optional[Callable] = None,
) -> MaxBRSTkNNResult:
    """The per-query best-first MIUR search (Section 7, phase 2).

    A pure function of its arguments plus the page store it charges:
    ``traversal`` is any qualifying walk's pool (``walk k >= query.k``),
    ``rsk_group`` the per-k group threshold derived from it, and
    ``canonical`` / ``pool_arrays`` optionally inject the (memoized)
    canonical per-k candidate set — every decision is identical for any
    qualifying pool, which is what lets batch execution share one
    ``k_max`` walk and fan this search out to forked workers against
    :meth:`~repro.storage.pager.PageStore.ledger_view` stores.

    ``pool_arrays`` answers ``node_rsk(summary, k)`` — ``RSk(node)``,
    the k-th best canonical-candidate lower bound w.r.t. a node
    summary (a :class:`~repro.core.kernels.CandidatePoolArrays` over
    ``canonical`` when omitted).  ``refine`` (Algorithm 2, with
    :func:`~repro.core.joint_topk.individual_topk`'s signature) and
    ``select`` (the keyword selector, with
    :func:`~repro.core.keyword_selection.select_keywords_greedy`'s) default
    to the engine's kernels for ``method``; the oracle passes its scalar
    ones.

    ``stats`` must arrive primed with the phase-1 fields
    (``users_total``, ``topk_time_s``, ``io_*``); the search adds its
    own selection time, I/O delta, and pruning counters.
    """
    bounds = BoundCalculator(dataset)
    root = user_tree.root
    io_counter = store.counter if store is not None else None
    search_before = io_counter.snapshot() if io_counter is not None else None
    search_t0 = time.perf_counter()

    if canonical is None:
        canonical = canonical_candidates(traversal, rsk_group)
    if pool_arrays is None:
        pool_arrays = CandidatePoolArrays(dataset, canonical)
    refine = individual_topk if refine is None else refine
    if select is None:
        if method == "approx":
            # Per-query scratch shared across the greedy calls (HW sets
            # and optimistic weights are location-independent).
            select = partial(select_keywords_greedy, cache={})
        else:
            select = select_keywords_exact

    # Per-resolved-user exact thresholds, filled lazily per leaf group:
    # by id for the scalar admission test, and by user row (NaN = not
    # refined yet) for the per-location Thresholds selection reads.
    rsk: Dict[int, float] = {}
    user_ids = np.fromiter(
        (u.item_id for u in dataset.users), np.int64, len(dataset.users)
    )
    row_of = {uid: row for row, uid in enumerate(user_ids.tolist())}
    rsk_by_row = np.full(len(user_ids), np.nan)

    def resolve_users(users: Sequence[User]) -> None:
        """Algorithm 2 restricted to one leaf's user group."""
        fresh = [u for u in users if u.item_id not in rsk]
        if not fresh:
            return
        got = refine(traversal, dataset, query.k, users=fresh).rsk(query.k)
        rsk.update(zip(got.ids.tolist(), got.values.tolist()))
        rsk_by_row[[row_of[u.item_id] for u in fresh]] = got.values

    # Node-level RSk cache over the canonical per-k candidate set.  The
    # k-th best lower bound w.r.t. a subtree summary under-estimates
    # every member user's STS, so it is <= every member's true RSk(u);
    # over the canonical set it is the same whichever walk kept the pool.
    node_rsk_cache: Dict[int, float] = {}

    def rsk_of_node(view: UserNodeView) -> float:
        val = node_rsk_cache.get(view.page_id)
        if val is None:
            val = pool_arrays.node_rsk(view.summary, query.k)
            node_rsk_cache[view.page_id] = val
        return val

    def admits(loc: Point, entry: _Entry) -> bool:
        if isinstance(entry, UserNodeView):
            ub = bounds.location_upper_group(
                loc, query.ox, query.keywords, query.ws, entry.summary
            )
            return ub >= rsk_of_node(entry)
        ub = bounds.location_upper_user(loc, query.ox, query.keywords, query.ws, entry)
        return ub >= rsk[entry.item_id]

    # Step 2: initialize every location's shortlist with the root,
    # pruning whole locations by the group bound first.
    states: List[_LocationState] = []
    for loc in query.locations:
        ub = bounds.location_upper_group(
            loc, query.ox, query.keywords, query.ws, root.summary
        )
        if ub < rsk_group:
            stats.locations_pruned += 1
            continue
        states.append(_LocationState(location=loc, entries=[root]))

    counter = itertools.count()
    heap: List[Tuple[int, int, _LocationState]] = []
    for st in states:
        heapq.heappush(heap, (-st.user_count(), next(counter), st))

    best_location: Optional[Point] = None
    best_keywords: FrozenSet[int] = frozenset()
    best_users: FrozenSet[int] = frozenset()

    while heap:
        neg_count, _, st = heapq.heappop(heap)
        if -neg_count <= len(best_users):
            break  # early termination on the cardinality upper bound
        if st.has_nodes():
            # Expand the node with the most users below it (Section 7,
            # step 1), then refresh *every* state containing it so each
            # MIUR-tree node is read at most once.
            node = max(
                (e for e in st.entries if isinstance(e, UserNodeView)),
                key=lambda v: v.user_count,
            )
            child_views, leaf_users = user_tree.read_children(node, store)
            if leaf_users:
                resolve_users(leaf_users)
            replacements: List[_Entry] = list(child_views) + list(leaf_users)
            for other in states:
                if any(
                    isinstance(e, UserNodeView) and e.page_id == node.page_id
                    for e in other.entries
                ):
                    kept = [
                        e
                        for e in other.entries
                        if not (
                            isinstance(e, UserNodeView) and e.page_id == node.page_id
                        )
                    ]
                    kept.extend(
                        r for r in replacements if admits(other.location, r)
                    )
                    other.entries = kept
            # Re-enqueue this state with its refreshed count.
            heapq.heappush(heap, (-st.user_count(), next(counter), st))
            continue
        # All entries are resolved users: run keyword selection.
        users_l = [e for e in st.entries if isinstance(e, User)]
        if not users_l:
            continue
        keywords, winners, scored = select(
            dataset, query.ox, st.location, query.keywords, query.ws, users_l,
            Thresholds(user_ids, rsk_by_row.copy()),
        )
        stats.keyword_combinations_scored += scored
        if len(winners) > len(best_users):
            best_location, best_keywords, best_users = st.location, keywords, winners

    stats.users_pruned = stats.users_total - len(rsk)
    stats.selection_time_s = time.perf_counter() - search_t0
    if io_counter is not None:
        search_delta = io_counter.snapshot() - search_before
        stats.io_node_visits += search_delta.node_visits
        stats.io_invfile_blocks += search_delta.invfile_blocks
    if best_location is None and query.locations:
        best_location = query.locations[0]
    return MaxBRSTkNNResult(
        location=best_location,
        keywords=best_keywords,
        brstknn=best_users,
        stats=stats,
    )


def indexed_users_maxbrstknn(
    object_tree: MIRTree,
    user_tree: MIURTree,
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    method: str = "approx",
    store: Optional[PageStore] = None,
    shared: Optional[RootTraversal] = None,
) -> MaxBRSTkNNResult:
    """Answer a MaxBRSTkNN query with both sets on (simulated) disk.

    ``shared`` injects a precomputed phase-1 :class:`RootTraversal`
    walked at any ``k >= query.k`` (batch execution: the cross-k pool);
    when omitted the traversal runs here, cold, at ``query.k``.  The
    per-query best-first search always starts from fresh caches, and
    every per-k quantity it reads is derived pool-independently, so
    results *and stats* are identical either way (top-k phase I/O
    reports the walk that actually produced the pool, like joint-mode
    batches).
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown keyword-selection method {method!r}")
    if shared is None:
        shared = compute_root_traversal(
            object_tree, user_tree, dataset, query.k, store=store
        )
    stats = QueryStats(
        users_total=len(user_tree),
        topk_time_s=shared.topk_time_s,
        io_node_visits=shared.io_node_visits,
        io_invfile_blocks=shared.io_invfile_blocks,
    )
    return indexed_search(
        user_tree,
        dataset,
        query,
        shared.traversal,
        shared.rsk_group_for(query.k),
        stats,
        method=method,
        store=store,
        canonical=shared.canonical_for(query.k),
        pool_arrays=shared.pool_arrays_for(dataset, query.k),
    )
