"""Joint top-k processing over the MIR-tree (Section 5, Algorithms 1–2).

The baseline runs one top-k query per user and pays for every page again
and again.  The joint algorithm traverses the MIR-tree **once** for the
whole user group:

1. **Tree traversal (Algorithm 1).**  The group is summarized by the
   super-user ``us``.  Nodes are dequeued from a max-priority queue
   keyed by their *lower bound* ``LB(E, us)`` (best-lower-bound first,
   so strong thresholds form early).  Two object pools are maintained:

   * ``LO`` — a min-heap of the k objects with the best lower bounds
     seen so far; ``RSk(us)``, the k-th best lower bound, is the global
     pruning threshold;
   * ``RO`` — objects displaced from (or never admitted to) ``LO``
     whose *upper* bound still reaches ``RSk(us)``; they may yet belong
     to some individual user's top-k.

   A node or object whose upper bound falls below ``RSk(us)`` is
   discarded: ``LO`` already holds k objects that every user scores at
   least ``RSk(us)``, while no user can score the discarded entry that
   high (Lemma 2), so it can appear in nobody's top-k.

2. **Individual refinement (Algorithm 2).**  For each user the exact
   STS is computed against the ``LO`` objects, then the ``RO`` objects
   are scanned in descending upper bound with a per-user early break
   once ``UB(o, us) < RSk(u)`` (Example 4's stopping rule — every later
   object has an even smaller upper bound).

The result is identical to running the baseline per user (the gold
tests check this), at a fraction of the I/O.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..index.irtree import IRTree, MIRTree
from ..model.dataset import Dataset
from ..model.objects import STObject, SuperUser, User
from ..spatial.geometry import Rect
from ..storage.pager import PageStore
from ..topk.single import TopKResult
from .bounds import BoundCalculator
from .kernels import arrays_for, resolve_backend

#: ``RO`` objects Algorithm 2's numpy backend scores before it evaluates
#: Example 4's stop (``_individual_topk_numpy``).
RO_BLOCK = 256

__all__ = [
    "CandidateObject",
    "JointTraversalResult",
    "joint_traversal",
    "individual_topk",
    "joint_topk",
    "derive_rsk_group",
    "canonical_candidates",
]


@dataclass(slots=True)
class CandidateObject:
    """An object surviving the traversal, with its group-level bounds."""

    obj: STObject
    lower: float
    upper: float
    #: Actual term weights restricted to the group's union keywords.
    weights: Dict[int, Tuple[float, float]] = field(default_factory=dict)


@dataclass(slots=True)
class JointTraversalResult:
    """Output of Algorithm 1: the candidate pools and the threshold."""

    lo: List[CandidateObject]  # the k best-lower-bound objects
    ro: List[CandidateObject]  # descending upper bound
    rsk_group: float  # RSk(us)

    def all_candidates(self) -> List[CandidateObject]:
        return self.lo + self.ro


def joint_traversal(
    tree: MIRTree | IRTree,
    dataset: Dataset,
    k: int,
    super_user: Optional[SuperUser] = None,
    store: Optional[PageStore] = None,
    backend: str = "python",
) -> JointTraversalResult:
    """Algorithm 1: single best-lower-bound-first traversal for a group.

    ``super_user`` defaults to the dataset-wide super-user; the
    MIUR-tree mode of Section 7 passes node summaries instead.

    ``backend="numpy"`` runs the wave-vectorized frontier traversal: the
    tree's entry bounds are evaluated against ``su`` in a handful of
    array passes over the flattened :class:`~repro.core.kernels.TreeArrays`
    (built once per tree), and the frontier loop prunes each expanded
    node's children as one vectorized wave.  The kernels are bitwise
    identical to the scalar :class:`BoundCalculator` (see the exactness
    contract in :mod:`repro.core.kernels`), so the returned pools,
    ``rsk_group``, and every simulated-I/O charge match the python
    backend exactly.
    """
    if k <= 0:
        return JointTraversalResult(lo=[], ro=[], rsk_group=0.0)
    su = dataset.super_user if super_user is None else super_user
    if resolve_backend(backend) == "numpy":
        return _joint_traversal_numpy(tree, dataset, k, su, store)
    bounds = BoundCalculator(dataset)

    counter = itertools.count()
    # Max-heap on the lower bound (negated); holds nodes and objects.
    pq: List[Tuple[float, int, object]] = []
    root = tree.root
    heapq.heappush(pq, (0.0, next(counter), ("node", root)))

    # LO: min-heap of (lower_bound, tiebreak, CandidateObject), size <= k.
    lo_heap: List[Tuple[float, int, CandidateObject]] = []
    ro: List[CandidateObject] = []
    rsk = float("-inf")

    def admit(cand: CandidateObject) -> None:
        """Lines 1.9–1.18: maintain LO/RO and the RSk(us) threshold."""
        nonlocal rsk
        if len(lo_heap) < k:
            heapq.heappush(lo_heap, (cand.lower, next(counter), cand))
            if len(lo_heap) == k:
                rsk = lo_heap[0][0]
            return
        if cand.upper < rsk:
            return  # cannot be in any user's top-k
        if cand.lower > lo_heap[0][0]:
            _, __, displaced = heapq.heapreplace(
                lo_heap, (cand.lower, next(counter), cand)
            )
            rsk = lo_heap[0][0]
            if displaced.upper >= rsk:
                ro.append(displaced)
        else:
            ro.append(cand)

    while pq:
        neg_lb, _, payload = heapq.heappop(pq)
        kind, item = payload  # type: ignore[misc]
        if kind == "object":
            admit(item)  # type: ignore[arg-type]
            continue
        node = item
        # Line 1.20: expand only while the node may contribute.
        children, objects = tree.read_node(node, su.union_terms, store)
        for ov in objects:
            rect = Rect.from_point(ov.obj.location)
            ub = bounds.node_upper(rect, ov.weights, su)
            if len(lo_heap) >= k and ub < rsk:
                continue
            lb = bounds.node_lower(rect, ov.weights, su)
            cand = CandidateObject(obj=ov.obj, lower=lb, upper=ub, weights=ov.weights)
            heapq.heappush(pq, (-lb, next(counter), ("object", cand)))
        for cv in children:
            ub = bounds.node_upper(cv.node.rect, cv.weights, su)
            if len(lo_heap) >= k and ub < rsk:
                continue
            lb = bounds.node_lower(cv.node.rect, cv.weights, su)
            heapq.heappush(pq, (-lb, next(counter), ("node", cv.node)))

    lo = [cand for _, __, cand in sorted(lo_heap, key=lambda t: -t[0])]
    ro.sort(key=lambda c: -c.upper)
    return JointTraversalResult(
        lo=lo, ro=ro, rsk_group=(rsk if rsk != float("-inf") else 0.0)
    )


def _joint_traversal_numpy(
    tree: MIRTree | IRTree,
    dataset: Dataset,
    k: int,
    su: SuperUser,
    store: Optional[PageStore],
) -> JointTraversalResult:
    """Wave-vectorized Algorithm 1 over the flattened tree arrays.

    The control flow mirrors the scalar traversal statement for
    statement — same priority-queue discipline, same tie-breaking
    counter sequence, same admit logic — but every bound is an O(1)
    lookup into :meth:`TreeArrays.frontier_bounds` (one vectorized wave
    over all tree entries per traversal), each expanded node's children
    are pruned with one array comparison, and node visits charge their
    precomputed inverted-list blocks instead of walking the inverted
    files.  Because the bound values are bitwise identical to the
    scalar path, every decision — and therefore the pools, the
    threshold, and the I/O trace — is identical too.
    """
    from .kernels import tree_arrays_for

    ta = tree_arrays_for(tree)
    fb = ta.frontier_bounds(dataset, su, store=store)
    lb_arr, ub_arr = fb.lb, fb.ub  # python lists: O(1) cheap reads

    counter = itertools.count()
    # PQ payload encoding: >= 0 is an object's entry index; < 0 is a
    # node encoded as -(node_index + 1).  Unique counters mean payloads
    # are never compared.
    pq: List[Tuple[float, int, int]] = []
    heapq.heappush(pq, (0.0, next(counter), -(ta.root_index + 1)))

    lo_heap: List[Tuple[float, int, CandidateObject]] = []
    ro: List[CandidateObject] = []
    rsk = float("-inf")

    def make_cand(idx: int, lower: float, upper: float) -> CandidateObject:
        return CandidateObject(
            obj=ta.ent_payload[idx], lower=lower, upper=upper,
            weights=fb.weights_of(idx),
        )

    def admit(lower: float, upper: float, idx: int) -> None:
        """Lines 1.9–1.18, with the CandidateObject built only when the
        entry actually enters a pool (dropped entries never need the
        weight dict)."""
        nonlocal rsk
        if len(lo_heap) < k:
            heapq.heappush(lo_heap, (lower, next(counter), make_cand(idx, lower, upper)))
            if len(lo_heap) == k:
                rsk = lo_heap[0][0]
            return
        if upper < rsk:
            return
        if lower > lo_heap[0][0]:
            _, __, displaced = heapq.heapreplace(
                lo_heap, (lower, next(counter), make_cand(idx, lower, upper))
            )
            rsk = lo_heap[0][0]
            if displaced.upper >= rsk:
                ro.append(displaced)
        else:
            ro.append(make_cand(idx, lower, upper))

    while pq:
        neg_lb, _, code = heapq.heappop(pq)
        if code >= 0:
            admit(lb_arr[code], ub_arr[code], code)
            continue
        nidx = -code - 1
        node = ta.nodes[nidx]
        if store is not None:
            if fb.node_blocks is not None:
                # Cold store: charge the node visit plus the exact block
                # count the scalar read_node would have accumulated.
                store.counter.visit_node()
                store.counter.load_blocks(fb.node_blocks[nidx])
            else:
                store.read_node(ta.index_name, node.page_id)
                tree.invfile_of(node).charge_lists(
                    store, ta.index_name, node.page_id, su.union_terms
                )
        start, end = ta.node_start[nidx], ta.node_end[nidx]
        if len(lo_heap) >= k:
            # Prune the node's whole child wave against RSk(us); the
            # bounds themselves were one vectorized evaluation.
            survivors = [i for i in range(start, end) if ub_arr[i] >= rsk]
        else:
            survivors = range(start, end)
        if ta.node_is_leaf[nidx]:
            for i in survivors:
                heapq.heappush(pq, (-lb_arr[i], next(counter), i))
        else:
            child = ta.ent_child
            for i in survivors:
                heapq.heappush(pq, (-lb_arr[i], next(counter), -(child[i] + 1)))

    lo = [cand for _, __, cand in sorted(lo_heap, key=lambda t: -t[0])]
    ro.sort(key=lambda c: -c.upper)
    return JointTraversalResult(
        lo=lo, ro=ro, rsk_group=(rsk if rsk != float("-inf") else 0.0)
    )


def derive_rsk_group(traversal: JointTraversalResult, walk_k: int, k: int) -> float:
    """``RSk(us)`` at ``k`` from a traversal walked at ``walk_k >= k``.

    For ``k == walk_k`` it is the walk's own threshold; for smaller
    ``k`` it is the k-th best candidate lower bound over the pool —
    exactly the value a dedicated ``k``-walk converges to.  The value
    is **pool-independent**: any pool superset still contains every
    object whose lower bound ranks top-``k`` (such an object has
    ``UB >= LB >= RSk(us) >= RSk_walk(us)``, so no walk at ``walk_k``
    prunes it), and extra candidates sit strictly below the k-th rank.
    Shared by joint cross-k pool sharing (:mod:`repro.core.batch`), the
    sharded gather, and the indexed MIUR-root pool
    (:mod:`repro.core.indexed_users`).
    """
    if k > walk_k:
        raise ValueError(f"pool walked at k={walk_k} cannot serve k={k}")
    if k == walk_k:
        return traversal.rsk_group
    lows = sorted((c.lower for c in traversal.all_candidates()), reverse=True)
    return lows[k - 1] if 0 < k <= len(lows) else 0.0


def canonical_candidates(
    traversal: JointTraversalResult, rsk_group: float
) -> List[CandidateObject]:
    """The pool-independent candidate set at one ``k``.

    ``{o : UB(o, us) >= RSk_k(us)}``, read off any pool walked at
    ``walk_k >= k`` by filtering on the group upper bound.  The
    traversal only ever prunes entries whose upper bound is below its
    (monotone-increasing, hence final) threshold, so every object in
    this set survives *any* qualifying walk — the filtered set, and
    therefore every bound computed over it, is identical whether the
    pool came from a dedicated ``k``-walk or a shared ``k_max`` walk.
    This is what makes node-level ``RSk`` pruning (Section 7)
    tie-break-stable under cross-k pool sharing: the k-th best node
    lower bound is an order statistic of a *canonical* multiset.
    Candidates are returned in a total, pool-independent order —
    (lower bound desc, object id asc) — so downstream consumers never
    see pool-dependent tie ordering.
    """
    kept = [c for c in traversal.all_candidates() if c.upper >= rsk_group]
    kept.sort(key=lambda c: (-c.lower, c.obj.item_id))
    return kept


def individual_topk(
    traversal: JointTraversalResult,
    dataset: Dataset,
    k: int,
    users: Optional[Sequence[User]] = None,
    backend: str = "python",
) -> Dict[int, TopKResult]:
    """Algorithm 2: refine the candidate pools into per-user top-k lists.

    ``LO`` objects are scored exactly for every user; ``RO`` objects are
    scanned in descending group upper bound and the scan stops per user
    as soon as ``UB(o, us) < RSk(u)`` — no later object can qualify.

    ``backend="numpy"`` applies the stop to whole blocks of ``RO`` and
    scores users x objects as matrices (see :mod:`repro.core.kernels`);
    the top-k contenders are re-scored by a bitwise-exact pair kernel
    so the returned scores — and hence every downstream ``RSk(u)``
    threshold — are identical floats to the python backend's.
    """
    users = dataset.users if users is None else users
    out: Dict[int, TopKResult] = {}
    if k <= 0:
        return {u.item_id: TopKResult(user_id=u.item_id, ranked=[]) for u in users}
    if resolve_backend(backend) == "numpy":
        return _individual_topk_numpy(traversal, dataset, k, users)
    for user in users:
        # Min-heap of the k best (score, -object_id).
        best: List[Tuple[float, int]] = []
        for cand in traversal.lo:
            score = dataset.sts(cand.obj, user)
            entry = (score, -cand.obj.item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
        rsk_u = best[0][0] if len(best) >= k else float("-inf")
        for cand in traversal.ro:
            if len(best) >= k and cand.upper < rsk_u:
                break  # Example 4's per-user early termination
            score = dataset.sts(cand.obj, user)
            entry = (score, -cand.obj.item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            rsk_u = best[0][0] if len(best) >= k else float("-inf")
        ranked = sorted(((s, -negid) for s, negid in best), key=lambda t: (-t[0], t[1]))
        out[user.item_id] = TopKResult(user_id=user.item_id, ranked=ranked)
    return out


def _individual_topk_numpy(
    traversal: JointTraversalResult,
    dataset: Dataset,
    k: int,
    users: Sequence[User],
) -> Dict[int, TopKResult]:
    """Vectorized Algorithm 2: guard-banded matrix, exact contenders.

    **Example 4's stop.**  ``LO`` and the first ``RO_BLOCK`` objects of
    ``RO`` are scored for every user as one matrix; each user's k-th
    best score so far is a lower bound of their final ``RSk(u)``, and
    ``RO`` is in descending ``UB(o, us)``, so only its prefix with
    ``UB(o, us) >= min_u kth_u - GUARD_EPS`` is scored next.  The guard
    sits on the conservative side: the matrix scores carry BLAS
    rounding, so the cut is lowered by the band and the scored prefix
    is a superset of every object the scalar scan visits for any user —
    an object left out has ``STS(o, u) <= UB(o, us) < RSk(u)`` for all
    of them.

    **Contenders.**  Per user, everything whose matrix score reaches
    the k-th best minus ``GUARD_EPS`` — a superset of the scalar top-k,
    ties included — is re-scored by the bitwise pair kernel
    (:meth:`DatasetArrays.sts_pairs`) and ordered by the scalar heap's
    exact key ``(-score, id)``, so the returned lists (and the
    ``RSk(u)`` thresholds read from them) are the python backend's
    floats in the python backend's order.
    """
    import numpy as np

    from .kernels import GUARD_EPS

    cands = traversal.all_candidates()
    if not cands or not users:
        return {u.item_id: TopKResult(user_id=u.item_id, ranked=[]) for u in users}
    arrays = arrays_for(dataset)
    user_rows = arrays.rows_for(users)
    obj_rows = arrays.objects.rows_for(c.obj.item_id for c in cands)

    def kth_best(scores):
        n = scores.shape[1]
        return np.partition(scores, n - k, axis=1)[:, n - k]

    head = min(len(cands), len(traversal.lo) + RO_BLOCK)
    scores = arrays.candidate_score_matrix(obj_rows[:head], user_rows)
    if head < len(cands):
        floor = kth_best(scores).min() - GUARD_EPS if head >= k else -math.inf
        # First candidate past the head with UB(o, us) < floor.
        reach = bisect_right(cands, -floor, lo=head, key=lambda c: -c.upper)
        if reach > head:
            scores = np.hstack((
                scores,
                arrays.candidate_score_matrix(obj_rows[head:reach], user_rows),
            ))
    if scores.shape[1] > k:
        keep = scores >= (kth_best(scores) - GUARD_EPS)[:, None]
    else:
        keep = np.ones(scores.shape, dtype=bool)
    user_pos, col = np.nonzero(keep)
    exact = arrays.sts_pairs(obj_rows[col], user_rows[user_pos])
    ids = arrays.objects.ids[obj_rows[col]]
    order = np.lexsort((ids, -exact, user_pos))
    pairs = list(zip(exact[order].tolist(), ids[order].tolist()))
    starts = np.concatenate(([0], np.cumsum(keep.sum(axis=1)))).tolist()
    return {
        user.item_id: TopKResult(
            user_id=user.item_id, ranked=pairs[start:min(start + k, stop)]
        )
        for user, start, stop in zip(users, starts, starts[1:])
    }


def joint_topk(
    tree: MIRTree | IRTree,
    dataset: Dataset,
    k: int,
    store: Optional[PageStore] = None,
    backend: str = "python",
) -> Dict[int, TopKResult]:
    """Sections 5.4's full pipeline: traversal + individual refinement."""
    traversal = joint_traversal(tree, dataset, k, store=store, backend=backend)
    return individual_topk(traversal, dataset, k, backend=backend)
