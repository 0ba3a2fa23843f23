"""Candidate location selection (Section 6.1, Algorithm 3).

Keyword selection being NP-hard even for a single location, the paper
prunes *spatially first*: candidate locations are shortlisted and
ordered before any keyword combination is touched.

For every candidate location ``l``:

1. ``UBL(l, us)`` — the best STS any user could give ``ox`` at ``l``
   under the best keyword augmentation (Lemma 3).  If it cannot reach
   the group threshold ``RSk(us)``, no user can be a BRSTkNN at ``l``
   and the location is dropped outright.
2. Otherwise the per-user bound ``UBL(l, u)`` shortlists ``LU_l``, the
   users that might be BRSTkNNs at ``l``.

Locations are then processed best-first by ``|LU_l|`` with two more
rules:

* **Early termination** — ``|LU_l|`` upper-bounds the achievable
  cardinality, so once the best tuple found beats the head of the
  queue, the search stops.
* **Keyword-free acceptance** — if the *lower* bound ``LBL(l, us)``
  already reaches ``RSk(us)``, every shortlisted user is a BRSTkNN
  regardless of keywords, and keyword selection is skipped.  (We still
  verify against the actual user thresholds, since the group threshold
  is conservative.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..model.dataset import Dataset
from ..model.objects import SuperUser, User
from ..spatial.geometry import Point
from .bounds import BoundCalculator
from .kernels import SelectionContext, arrays_for, resolve_backend
from .keyword_selection import (
    KeywordSelection,
    compute_brstknn,
    select_keywords_exact,
    select_keywords_greedy,
)
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

__all__ = [
    "select_candidate",
    "LocationShortlist",
    "shortlist_locations",
    "search_shortlists",
]


@dataclass(slots=True)
class LocationShortlist:
    """One candidate location with its shortlisted users ``LU_l``.

    ``index`` is the location's position in ``query.locations`` — the
    sequential tie-break order of Algorithm 3's priority queue, which
    the sharded merge (``repro.core.partial``) must reproduce exactly.
    """

    location: Point
    users: List[User]
    upper_group: float
    lower_group: float
    index: int = -1


def shortlist_locations(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
    bounds: Optional[BoundCalculator] = None,
    backend: str = "python",
) -> Tuple[List[LocationShortlist], int]:
    """Build ``LU_l`` for every surviving location.

    Returns the shortlists plus the number of locations pruned by the
    group bound.  ``rsk_group`` is ``RSk(us)`` from the joint traversal
    (pass 0.0 to disable group pruning, e.g. when thresholds come from
    the per-user baseline).  Only the spatial term of either bound
    depends on the location: the group's text term is computed once
    here, and with ``backend="numpy"`` the per-user ``UBL(l, u) >=
    RSk(u)`` test — the hot loop of Algorithm 3 — runs against a
    per-query :class:`~repro.core.kernels.SelectionContext` holding the
    users' rows, thresholds and text term; membership is guaranteed
    identical to the scalar path (guard-banded re-check).
    """
    su = dataset.super_user if super_user is None else super_user
    users = dataset.users if users is None else users
    bounds = bounds or BoundCalculator(dataset)
    numpy = resolve_backend(backend) == "numpy"
    ctx: Optional[SelectionContext] = None  # built at the first surviving location
    group_text = bounds.group_upper_text(query.ox, query.keywords, query.ws, su)
    shortlists: List[LocationShortlist] = []
    pruned = 0
    for idx, loc in enumerate(query.locations):
        ub_group = bounds.location_upper_group(
            loc, query.ox, query.keywords, query.ws, su, text=group_text
        )
        if ub_group < rsk_group:
            pruned += 1
            continue
        if numpy:
            if ctx is None:
                ctx = SelectionContext(
                    arrays_for(dataset), query.ox, query.keywords, query.ws
                )
                ctx.bind(users, rsk)
            ctx.move_to(loc)
            lu = ctx.shortlist()
        else:
            lu = [
                u
                for u in users
                if bounds.location_upper_user(loc, query.ox, query.keywords, query.ws, u)
                >= rsk[u.item_id]
            ]
        shortlists.append(
            LocationShortlist(
                location=loc,
                users=lu,
                upper_group=ub_group,
                lower_group=bounds.location_lower_group(loc, query.ox, su),
                index=idx,
            )
        )
    return shortlists, pruned


def select_candidate(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float = 0.0,
    method: str = "approx",
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
    stats: Optional[QueryStats] = None,
    backend: str = "python",
) -> MaxBRSTkNNResult:
    """Algorithm 3: best-first search over candidate locations.

    Parameters
    ----------
    rsk:
        ``RSk(u)`` per user id (from joint or individual top-k).
    rsk_group:
        ``RSk(us)`` group threshold for whole-location pruning.
    method:
        ``"approx"`` (greedy, Section 6.2.1) or ``"exact"``
        (Algorithm 4).
    backend:
        ``"python"`` (scalar reference) or ``"numpy"`` (vectorized
        kernels, identical results).
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown keyword-selection method {method!r}")
    backend = resolve_backend(backend)
    stats = stats if stats is not None else QueryStats()
    su = dataset.super_user if super_user is None else super_user
    users = dataset.users if users is None else users
    bounds = BoundCalculator(dataset)

    shortlists, pruned = shortlist_locations(
        dataset,
        query,
        rsk,
        rsk_group,
        super_user=su,
        users=users,
        bounds=bounds,
        backend=backend,
    )
    stats.locations_pruned += pruned
    return search_shortlists(
        dataset, query, rsk, rsk_group, shortlists,
        method=method, stats=stats, backend=backend,
    )


def search_shortlists(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    shortlists: Sequence[LocationShortlist],
    *,
    method: str = "approx",
    stats: Optional[QueryStats] = None,
    backend: str = "python",
) -> MaxBRSTkNNResult:
    """Algorithm 3's best-first search over pre-built shortlists.

    Split out of :func:`select_candidate` so the sharded execution path
    (``repro.serve.sharded``) can scatter the O(|U|) shortlist phase
    across shards, merge the per-shard contributions
    (:func:`repro.core.partial.merge_query_shortlists`), and run this
    — the aggregate-dependent search — once over the merged lists.  The
    search's every decision (heap order, early termination, the
    keyword-free acceptance path, strict-improvement tie-breaking)
    depends only on the shortlists, ``rsk`` and ``rsk_group``, so
    identical inputs reproduce the sequential answer and the selection
    stats exactly.  ``shortlists`` must be ordered by location
    ``index`` (the order :func:`shortlist_locations` emits).
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown keyword-selection method {method!r}")
    backend = resolve_backend(backend)
    stats = stats if stats is not None else QueryStats()

    # Max-priority queue on |LU_l| (Algorithm 3's QL).
    heap: List[Tuple[int, int, LocationShortlist]] = []
    for idx, sl in enumerate(shortlists):
        heapq.heappush(heap, (-len(sl.users), idx, sl))

    best_location: Optional[Point] = None
    best_keywords: FrozenSet[int] = frozenset()
    best_users: FrozenSet[int] = frozenset()

    selector: Callable[..., KeywordSelection] = (
        select_keywords_greedy if method == "approx" else select_keywords_exact
    )
    # Per-query scratch shared across the greedy calls (HW sets and
    # optimistic weights are location-independent).
    selector_kwargs = {"backend": backend}
    if method == "approx":
        selector_kwargs["cache"] = {}

    while heap:
        neg_size, _, sl = heapq.heappop(heap)
        if -neg_size <= len(best_users):
            break  # Line 3.10: upper bound cannot beat the incumbent
        if sl.lower_group >= rsk_group and rsk_group > 0.0:
            # Lines 3.11–3.13: keyword-free acceptance path.  The group
            # lower bound is conservative, so confirm per user with the
            # original description only.
            winners = compute_brstknn(
                dataset, query.ox, sl.location, frozenset(), sl.users, rsk,
                backend=backend,
            )
            stats.keyword_combinations_scored += 1
            if len(winners) > len(best_users):
                best_location, best_keywords, best_users = (
                    sl.location,
                    frozenset(),
                    winners,
                )
            # Keywords can only add winners; still try selection below
            # unless nothing can improve.
            if len(winners) == len(sl.users):
                continue
        keywords, winners, scored = selector(
            dataset, query.ox, sl.location, query.keywords, query.ws, sl.users, rsk,
            **selector_kwargs,
        )
        stats.keyword_combinations_scored += scored
        if len(winners) > len(best_users):
            best_location, best_keywords, best_users = sl.location, keywords, winners

    if best_location is None and query.locations:
        # Nothing reached any user's top-k; return the first location
        # with the empty keyword set and an empty BRSTkNN (the maximum).
        best_location = query.locations[0]

    return MaxBRSTkNNResult(
        location=best_location,
        keywords=best_keywords,
        brstknn=best_users,
        stats=stats,
    )
