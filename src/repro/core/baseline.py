"""The exhaustive baseline of Section 4.

The baseline answers a MaxBRSTkNN query in two computationally heavy
steps, with no pruning beyond the relevance condition itself:

1. **Per-user top-k.**  Every user's top-k objects are computed
   individually over the IR-tree (``repro.topk.single``), yielding
   ``RSk(u)`` for each user.
2. **Exhaustive candidate scan.**  Every tuple ``<l, c>`` of a candidate
   location and a keyword combination is scored against every user;
   the tuple with the most BRSTkNNs wins.  The paper's baseline scores
   size-``ws`` combinations only; this one scans every size from 0 to
   ``ws`` (see :func:`baseline_select_candidate`), so it is a true
   optimum.

It is reference code, not an engine option: the engine's exact method
must match its cardinality on every input
(``tests/core/test_whole_query_bounds.py`` and the cross-checks that
call it directly).
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import FrozenSet, Mapping, Optional, Sequence

from ..index.irtree import IRTree
from ..model.dataset import Dataset
from ..model.objects import User
from ..storage.pager import PageStore
from ..topk.single import topk_all_users_individually
from .bounds import augmented_document
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

__all__ = ["baseline_maxbrstknn", "baseline_select_candidate"]


def baseline_select_candidate(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    users: Optional[Sequence[User]] = None,
    stats: Optional[QueryStats] = None,
) -> MaxBRSTkNNResult:
    """Exhaustive scan over all candidate tuples.

    Definition 1 allows ``|W'| <= ws``, and under length-normalized
    text measures a smaller keyword set can strictly dominate, so the
    scan covers every combination size from 0 to ``ws`` (the paper's
    baseline returns exactly ``ws`` keywords; widening it keeps the
    baseline a true optimum and therefore a usable correctness oracle
    for the pruned exact algorithm).
    """
    users = dataset.users if users is None else users
    stats = stats if stats is not None else QueryStats()
    pool = sorted(set(query.keywords))
    max_size = min(query.ws, len(pool))
    combos = [()]
    for size in range(1, max_size + 1):
        combos.extend(combinations(pool, size))

    best_location = query.locations[0]
    best_keywords: FrozenSet[int] = frozenset()
    best_users: FrozenSet[int] = frozenset()
    have_best = False

    for loc in query.locations:
        for combo in combos:
            doc = augmented_document(query.ox.terms, combo)
            winners = set()
            for u in users:
                # NB: the paper's baseline only scores users sharing a
                # keyword with ox.d ∪ c, but with alpha-weighted scoring
                # a user can be won purely spatially (TS = 0), so the
                # scan must evaluate everyone to stay an exact oracle.
                if dataset.sts_parts(loc, doc, u) >= rsk[u.item_id]:
                    winners.add(u.item_id)
            stats.keyword_combinations_scored += 1
            if not have_best or len(winners) > len(best_users):
                best_location, best_keywords, best_users = (
                    loc,
                    frozenset(combo),
                    frozenset(winners),
                )
                have_best = True
    return MaxBRSTkNNResult(
        location=best_location,
        keywords=best_keywords,
        brstknn=best_users,
        stats=stats,
    )


def baseline_maxbrstknn(
    tree: IRTree,
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    store: Optional[PageStore] = None,
) -> MaxBRSTkNNResult:
    """Full baseline: individual top-k for all users + exhaustive scan."""
    stats = QueryStats(users_total=len(dataset.users))
    t0 = time.perf_counter()
    before = store.counter.snapshot() if store is not None else None
    topk = topk_all_users_individually(tree, dataset, query.k, store=store)
    stats.topk_time_s = time.perf_counter() - t0
    if store is not None and before is not None:
        delta = store.counter.snapshot() - before
        stats.io_node_visits = delta.node_visits
        stats.io_invfile_blocks = delta.invfile_blocks
    rsk = {uid: res.kth_score for uid, res in topk.items()}
    t1 = time.perf_counter()
    result = baseline_select_candidate(dataset, query, rsk, stats=stats)
    stats.selection_time_s = time.perf_counter() - t1
    result.stats = stats
    return result
