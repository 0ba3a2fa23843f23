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

**The engine replays the queue over batched outcomes.**  Nothing is
ever pushed back on the queue, so its pop order is a sort, known
before any keyword is touched; and between locations only the spatial
score changes.  The greedy search therefore evaluates the queue
``LOCATION_BLOCK`` entries at a time — shortlist mask, ``LUW`` pass,
greedy max-coverage and recounts as rows of one matrix
(:class:`~repro.core.kernels.SelectionContext`,
:func:`~repro.core.keyword_selection.select_greedy_block`) — and then
walks those outcomes with exactly the rules above, counters included.
The block is what keeps early termination a *work* saver and not only
a counting rule: the stop is tested before each block is paid for, so
at most one block's tail is computed in vain, and the per-block
temporaries stay bounded however many locations a query brings.  The
queue loop itself — what the exact selector runs, and what the oracle
(:mod:`repro.oracle`) runs with its scalar selectors — is
:func:`_search_queue`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..model.dataset import Dataset
from ..model.objects import SuperUser, User
from ..spatial.geometry import Point
from .bounds import BoundCalculator
from .kernels import SelectionContext, arrays_for
from .keyword_selection import (
    KeywordSelection,
    compute_brstknn,
    select_greedy_block,
    select_keywords_exact,
)
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

#: Candidate locations scored per kernel pass.  Algorithm 3 stops early
#: (line 3.10) and a Fig. 10 query holds |L| = 300 locations, so the
#: queue is evaluated a block at a time: at most this many selections
#: are computed past the stop, and the ``L x P`` / ``L x U`` temporaries
#: stay under ~1 MB at the benchmark's |U| = 400.
LOCATION_BLOCK = 32

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
    #: Rows of ``users`` in the dataset's ``DatasetArrays`` when the
    #: producer already had them (``None``: hand-built, or the oracle's).
    rows: Optional[Sequence[int]] = field(default=None, compare=False, repr=False)


def shortlist_locations(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
    bounds: Optional[BoundCalculator] = None,
) -> Tuple[List[LocationShortlist], int]:
    """Build ``LU_l`` for every surviving location.

    Returns the shortlists plus the number of locations pruned by the
    group bound.  ``rsk_group`` is ``RSk(us)`` from the joint traversal
    (pass 0.0 to disable group pruning, e.g. when thresholds come from
    the per-user baseline).  Only the spatial term of either bound
    depends on the location: both group text terms are computed once
    here, and the per-user ``UBL(l, u) >= RSk(u)`` test — the hot loop
    of Algorithm 3 — is one ``L x U`` mask per block of surviving
    locations from a per-query
    :class:`~repro.core.kernels.SelectionContext`; membership is
    guaranteed identical to the oracle's user-by-user scan (guard-banded
    re-check), and the shortlists carry their users' array rows for the
    search.
    """
    su = dataset.super_user if super_user is None else super_user
    users = dataset.users if users is None else users
    bounds = bounds or BoundCalculator(dataset)
    group_text = bounds.group_upper_text(query.ox, query.keywords, query.ws, su)
    lower_text = bounds.group_lower_text(query.ox, su)
    shortlists: List[LocationShortlist] = []
    pruned = 0
    for idx, loc in enumerate(query.locations):
        ub_group = bounds.location_upper_group(
            loc, query.ox, query.keywords, query.ws, su, text=group_text
        )
        if ub_group < rsk_group:
            pruned += 1
            continue
        shortlists.append(
            LocationShortlist(
                location=loc,
                users=[],  # filled below: every surviving location in one pass
                upper_group=ub_group,
                lower_group=bounds.location_lower_group(
                    loc, query.ox, su, text=lower_text
                ),
                index=idx,
            )
        )
    if shortlists:
        _fill_shortlists(dataset, query, rsk, users, shortlists)
    return shortlists, pruned


def _fill_shortlists(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    users: Sequence[User],
    shortlists: Sequence[LocationShortlist],
) -> None:
    """``LU_l`` of every surviving location, as users and as array rows:
    the mask ``UBL(l, u) >= RSk(u)``, ``LOCATION_BLOCK`` locations per
    kernel pass."""
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, query.ox, query.keywords, query.ws)
    rows = arrays.rows_for(users)
    ctx.admit(rows, rsk)
    for start in range(0, len(shortlists), LOCATION_BLOCK):
        block = shortlists[start : start + LOCATION_BLOCK]
        ctx.move_to([sl.location for sl in block])
        for sl, keep in zip(block, ctx.shortlist(rows)):
            sl.rows = rows[keep]
            sl.users = arrays.users[sl.rows].tolist()


def select_candidate(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float = 0.0,
    method: str = "approx",
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
    stats: Optional[QueryStats] = None,
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
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown keyword-selection method {method!r}")
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
    )
    stats.locations_pruned += pruned
    return search_shortlists(
        dataset, query, rsk, rsk_group, shortlists, method=method, stats=stats
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
) -> MaxBRSTkNNResult:
    """Algorithm 3's best-first search over pre-built shortlists.

    The aggregate-dependent half of :func:`select_candidate` (which is
    :func:`shortlist_locations` + this), kept callable on its own.  The
    search's every decision (heap order, early termination, the
    keyword-free acceptance path, strict-improvement tie-breaking)
    depends only on the shortlists, ``rsk`` and ``rsk_group``, so
    identical inputs reproduce the sequential answer and the selection
    stats exactly.  ``shortlists`` must be ordered by location
    ``index`` (the order :func:`shortlist_locations` emits).  The greedy
    search runs block-wise (:func:`_search_blocks`), the exact one
    location by location (:func:`_search_queue`).
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown keyword-selection method {method!r}")
    stats = stats if stats is not None else QueryStats()
    if method == "approx":
        return _search_blocks(dataset, query, rsk, rsk_group, shortlists, stats)
    return _search_queue(
        dataset, query, rsk, rsk_group, shortlists, stats,
        select=select_keywords_exact, brstknn=compute_brstknn,
    )


def _search_queue(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    shortlists: Sequence[LocationShortlist],
    stats: QueryStats,
    *,
    select: Callable[..., KeywordSelection],
    brstknn: Callable[..., FrozenSet[int]],
) -> MaxBRSTkNNResult:
    """:func:`search_shortlists` popping Algorithm 3's queue location by
    location, scoring with ``select`` (:func:`select_keywords_exact`'s
    signature) and, on the keyword-free acceptance path, ``brstknn``
    (:func:`compute_brstknn`'s).  The exact search runs it with those
    two; the oracle with its scalar selectors, for either method.
    """
    # Max-priority queue on |LU_l| (Algorithm 3's QL).
    heap: List[Tuple[int, int, LocationShortlist]] = []
    for idx, sl in enumerate(shortlists):
        heapq.heappush(heap, (-len(sl.users), idx, sl))

    best_location: Optional[Point] = None
    best_keywords: FrozenSet[int] = frozenset()
    best_users: FrozenSet[int] = frozenset()

    while heap:
        neg_size, _, sl = heapq.heappop(heap)
        if -neg_size <= len(best_users):
            break  # Line 3.10: upper bound cannot beat the incumbent
        if sl.lower_group >= rsk_group and rsk_group > 0.0:
            # Lines 3.11–3.13: keyword-free acceptance path.  The group
            # lower bound is conservative, so confirm per user with the
            # original description only.
            winners = brstknn(
                dataset, query.ox, sl.location, frozenset(), sl.users, rsk
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
        keywords, winners, scored = select(
            dataset, query.ox, sl.location, query.keywords, query.ws, sl.users, rsk
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


def _search_blocks(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    shortlists: Sequence[LocationShortlist],
    stats: QueryStats,
) -> MaxBRSTkNNResult:
    """:func:`search_shortlists` for the greedy selector, block-wise.

    Nothing is ever pushed back on Algorithm 3's queue, so its pop order
    is the sort by ``(-|LU_l|, position)``.  The loop below is the
    scalar loop decision for decision — line 3.10, the keyword-free
    acceptance path, strict improvement, ``keyword_combinations_scored``
    counted for popped locations only — except that what it reads at a
    location (the bare ``ox.d`` recount, the greedy selection) was
    computed for ``LOCATION_BLOCK`` queue entries at once, on reaching
    the block's first entry: line 3.10 is tested before a block is paid
    for, so it still saves the work behind it.
    """
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, query.ox, query.keywords, query.ws)
    queue = sorted(shortlists, key=lambda sl: -len(sl.users))  # stable sort
    best_location: Optional[Point] = None
    best_keywords: FrozenSet[int] = frozenset()
    best_count, best_won = 0, None
    for pos, sl in enumerate(queue):
        if len(sl.users) <= best_count:
            break  # Line 3.10: upper bound cannot beat the incumbent
        i = pos % LOCATION_BLOCK
        if i == 0:
            block = queue[pos : pos + LOCATION_BLOCK]
            selection = select_greedy_block(
                ctx,
                [b.location for b in block],
                [arrays.rows_for(b.users) if b.rows is None else b.rows for b in block],
                rsk,
            )
            base_counts = selection.base.sum(axis=1).tolist()
            counts = selection.won.sum(axis=1).tolist()
        if sl.lower_group >= rsk_group and rsk_group > 0.0:
            # Lines 3.11–3.13: keyword-free acceptance path.
            stats.keyword_combinations_scored += 1
            if base_counts[i] > best_count:
                best_location, best_keywords = sl.location, frozenset()
                best_count, best_won = base_counts[i], selection.base[i]
            if base_counts[i] == len(sl.users):
                continue
        stats.keyword_combinations_scored += selection.scored[i]
        if counts[i] > best_count:
            best_location, best_keywords = sl.location, selection.keywords[i]
            best_count, best_won = counts[i], selection.won[i]

    if best_location is None and query.locations:
        best_location = query.locations[0]  # as search_shortlists: nothing won
    return MaxBRSTkNNResult(
        location=best_location,
        keywords=best_keywords,
        brstknn=frozenset(
            () if best_won is None else arrays.user_ids[best_won].tolist()
        ),
        stats=stats,
    )
