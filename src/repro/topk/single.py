"""Per-user top-k spatial-textual search — the baseline ``B``.

Section 4's baseline computes, for every user individually, the top-k
objects under Eq. 1 using the IR-tree exactly as in Cong et al. (2009):
a best-first traversal ordered by the node *upper bound* score (minimum
distance to the user, maximum term weights of the pseudo-document).
A node is expanded only while its upper bound can still beat the k-th
best object found so far; the search is correct because pseudo-document
maxima upper-bound every document in the subtree.

The joint top-k of Section 5 exists precisely because running this per
user re-reads the same pages over and over; the benchmarks contrast the
two (MRPU / MIOCPU, Figures 5–9 and 12–14).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..index.irtree import IRTree
from ..model.dataset import Dataset
from ..model.objects import User
from ..storage.pager import PageStore

__all__ = ["TopKResult", "topk_single_user", "topk_all_users_individually"]


@dataclass(slots=True)
class TopKResult:
    """Top-k objects of one user, best first, with their STS scores."""

    user_id: int
    ranked: List[Tuple[float, int]]  # (score, object_id), descending score

    @property
    def kth_score(self) -> float:
        """``RSk(u)``: score of the last ranked object (0 if none)."""
        return self.ranked[-1][0] if self.ranked else 0.0

    def object_ids(self) -> List[int]:
        return [oid for _, oid in self.ranked]


def topk_single_user(
    tree: IRTree,
    dataset: Dataset,
    user: User,
    k: int,
    store: Optional[PageStore] = None,
) -> TopKResult:
    """Best-first top-k search for one user over an IR-tree/MIR-tree.

    Returns the ``min(k, |O|)`` best objects.  Ties are broken by object
    id for determinism.
    """
    if k <= 0:
        return TopKResult(user_id=user.item_id, ranked=[])
    alpha = dataset.alpha
    rel = dataset.relevance
    user_terms = user.keyword_set
    z = rel.user_normalizer(user_terms)

    counter = itertools.count()
    # Max-heap via negated keys: (-upper_bound, tiebreak, payload).
    heap: List[Tuple[float, int, object]] = []
    root = tree.root
    heapq.heappush(heap, (-1.0, next(counter), ("node", root)))

    # Min-heap of the k best (score, -object_id) found so far.
    best: List[Tuple[float, int]] = []

    def threshold() -> float:
        return best[0][0] if len(best) >= k else float("-inf")

    while heap:
        neg_ub, _, payload = heapq.heappop(heap)
        if -neg_ub < threshold():
            break  # nothing left can beat the current top-k
        kind, item = payload  # type: ignore[misc]
        if kind == "object":
            score, obj = item  # type: ignore[misc]
            entry = (score, -obj.item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
            continue
        node = item
        children, objects = tree.read_node(node, user_terms, store)
        for ov in objects:
            ss = dataset.spatial_score(ov.obj.location, user.location)
            # Score through the same relevance code path as Dataset.sts
            # so joint and per-user pipelines agree bit-for-bit on ties.
            ts = rel.score_with_weights(
                {t: mw for t, (mw, _) in ov.weights.items()}, user_terms
            )
            score = alpha * ss + (1.0 - alpha) * ts
            if len(best) >= k and score < threshold():
                continue
            heapq.heappush(heap, (-score, next(counter), ("object", (score, ov.obj))))
        for cv in children:
            ss_ub = dataset.spatial_score_from_distance(
                dataset.metric.min_distance_point_rect(user.location, cv.node.rect)
            )
            ts_ub = 0.0
            if z > 0.0:
                ts_ub = min(1.0, sum(mw for mw, _ in cv.weights.values()) / z)
            ub = alpha * ss_ub + (1.0 - alpha) * ts_ub
            if len(best) >= k and ub < threshold():
                continue
            heapq.heappush(heap, (-ub, next(counter), ("node", cv.node)))

    ranked = sorted(((s, -negid) for s, negid in best), key=lambda t: (-t[0], t[1]))
    return TopKResult(user_id=user.item_id, ranked=[(s, oid) for s, oid in ranked])


def topk_all_users_individually(
    tree: IRTree,
    dataset: Dataset,
    k: int,
    users: Optional[Sequence[User]] = None,
    store: Optional[PageStore] = None,
) -> Dict[int, TopKResult]:
    """Baseline ``B``: run :func:`topk_single_user` for every user.

    Every query is cold — pages read for one user are charged again for
    the next, which is exactly the redundancy the joint algorithm of
    Section 5 removes.
    """
    users = dataset.users if users is None else users
    return {
        u.item_id: topk_single_user(tree, dataset, u, k, store) for u in users
    }
