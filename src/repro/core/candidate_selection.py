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

**The engine replays the queue over batched outcomes, across the
payload's queries.**  Nothing is ever pushed back on the queue, so its
pop order is a sort, known before any keyword is touched; and between
locations only the spatial score changes.  The search therefore
evaluates the queue ``LOCATION_BLOCK`` entries at a time — shortlist
mask, keyword selection and recounts as rows of one matrix
(:class:`~repro.core.kernels.SelectionContext`) — and then walks those
outcomes with exactly the rules above, counters included.  The
selector is the one thing the method changes: Section 6.2.1's greedy
(:func:`~repro.core.keyword_selection.select_greedy_block`) or
Algorithm 4's exact enumeration
(:func:`~repro.core.keyword_selection.select_exact_block`), two block
kernels with one answer shape.  The block is what keeps early
termination a *work* saver and not only a counting rule: the stop is
tested before each block is paid for, so at most one block's tail is
computed in vain, and the per-block temporaries stay bounded however
many locations a query brings.

The rows need not belong to one query, nor to one ``k``.  Queries
that share ``(ox.d, W, ws)`` differ only in their locations and their
thresholds — so a :class:`SelectionBatch` answers each such group of a
``select`` payload with ONE context (one keyword side — stored per
dataset epoch and side, so later payloads and flushes of the side
rebuild none of it — one threshold row per distinct ``RSk(u)``
vector, each location row reading its own query's), one spatial row
per surviving location per pass, one shortlist mask over all of them
— which is also every round's membership — and, round by round, one
selector call over block ``r`` of every query that line 3.10 has not
stopped; each query then replays its own rows.  A pass holds as many
locations as ``PASS_BYTES`` of their ``L x U`` / ``L x P`` temporaries
allow (:func:`_pass_rows`), so a batch of any size keeps its
temporaries bounded, and a served micro-batch is one pass: a pass
costs a fixed part (its calls, whatever their size) plus a part per
location, and the fixed part is paid once.  A single query is the
one-query batch: there is one search, for both methods.  The oracle
(:mod:`repro.oracle`) pops the queue location by location with its
scalar selectors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple,
)

from ..model.dataset import Dataset
from ..model.objects import SuperUser, User
from ..spatial.geometry import Point
from .kernels import SelectionContext, _row_counts, arrays_for, keyword_side_key, np
from .keyword_selection import BlockSelection, select_exact_block, select_greedy_block
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

#: Candidate locations scored per selector call of one query.  Algorithm
#: 3 stops early (line 3.10) and a Fig. 10 query holds |L| = 300
#: locations, so the queue is evaluated a block at a time: at most this
#: many selections are computed past the stop.
LOCATION_BLOCK = 32

#: Bytes of ``L x U`` / ``L x P`` temporaries one stacked pass of a
#: :class:`SelectionBatch` may hold (:func:`_pass_rows`): queries join a
#: pass while their surviving locations fit, the rest go into the next
#: pass, so a batch of any size allocates no more than this at once.  A
#: query with more locations than a pass holds is a pass of its own,
#: searched a block at a time as always.  At |U| = 4 000 users with the
#: benchmark's 3 pairs each (|P| = 12 000) a row takes 64 KB, so 8 MB
#: hold 125 rows — no more than the 128 a pass held when passes were
#: counted in rows; at |U| = 400 they hold 1 250, so a served
#: micro-batch of 8 queries x 20 locations is one pass.
PASS_BYTES = 8_000_000

__all__ = [
    "select_candidate",
    "SelectionBatch",
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


def _keyword_side(query: MaxBRSTkNNQuery) -> tuple:
    """``query``'s :func:`~repro.core.kernels.keyword_side_key`: what a
    :class:`~repro.core.kernels.SelectionContext` fixes besides
    ``RSk(u)``.  Queries with equal keys share one context, and every
    context of a key reads one stored
    :class:`~repro.core.kernels.KeywordSide`."""
    return keyword_side_key(query.ox, query.keywords, query.ws)


def _group_bounds(
    arrays,
    queries: Sequence[MaxBRSTkNNQuery],
    su: SuperUser,
    rsk_groups: Sequence[float],
    texts: Tuple[float, float],
) -> list:
    """The group bounds ``UBL(l, us)`` / ``LBL(l, us)`` of every location
    of ``queries`` (one keyword side: ``texts`` are its
    location-independent text terms of both bounds) as one array
    expression, bitwise ``BoundCalculator``'s ``location_upper_group`` /
    ``location_lower_group``.  Per query, against its own ``RSk(us)``
    ``rsk_groups[i]``: the positions in ``query.locations`` of the
    survivors (``UBL(l, us) >= RSk(us)``), their ``UBL`` and ``LBL``,
    and the pruned count."""
    alpha = arrays.dataset.alpha
    near, far = arrays.group_spatial_bounds(
        [loc for query in queries for loc in query.locations], su.mbr
    )
    upper = alpha * near + texts[0]
    lower = alpha * far + texts[1]
    found, start = [], 0
    for query, rsk_group in zip(queries, rsk_groups):
        end = start + len(query.locations)
        keep = np.flatnonzero(~(upper[start:end] < rsk_group))
        found.append((
            keep, upper[start:end][keep], lower[start:end][keep],
            end - start - len(keep),
        ))
        start = end
    return found


def _pass_rows(arrays, pairs: int = 0) -> int:
    """Location rows one pass holds: ``PASS_BYTES`` over what a row's
    temporaries take — its float32 ``alpha * SS`` row over the users
    and, for the greedy selector, its float32 ``LUW`` row over the
    ``pairs`` of the side's pair table (the bool masks beside them are a
    quarter of that) — and at least one."""
    return max(1, PASS_BYTES // (4 * max(1, arrays.num_users + pairs)))


def _shortlist_mask(
    ctx: SelectionContext, rows, locations: Sequence[Point], at: Sequence[int],
    cap: int,
):
    """``LU_l`` of every location as one ``L x U`` mask: ``UBL(l, u) >=
    RSk(u)`` for the users at ``rows``, against threshold row ``at[i]``
    of ``ctx`` for location ``i``, at most ``cap`` locations
    (:func:`_pass_rows`) per kernel pass."""
    if len(locations) <= cap:
        ctx.move_to(locations, at)  # the sequence itself: a pinned one is read whole
        return ctx.shortlist(rows)
    masks = []
    for start in range(0, len(locations), cap):
        end = start + cap
        ctx.move_to(locations[start:end], at[start:end])
        masks.append(ctx.shortlist(rows))
    return np.concatenate(masks)


def shortlist_locations(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
) -> Tuple[List[LocationShortlist], int]:
    """Build ``LU_l`` for every surviving location.

    Returns the shortlists plus the number of locations pruned by the
    group bound.  ``rsk_group`` is ``RSk(us)`` from the joint traversal
    (pass 0.0 to disable group pruning, e.g. for thresholds not derived
    from one traversal pool).  Only the spatial term of either bound
    depends on the location: both group text terms are read off the
    query's stored keyword side, the group bounds of every location are
    one array expression, and the per-user ``UBL(l, u) >= RSk(u)`` test
    — the hot loop of Algorithm 3 — is one ``L x U`` mask per block of
    surviving locations from a :class:`~repro.core.kernels.SelectionContext`;
    membership is guaranteed identical to the oracle's user-by-user
    scan (guard-banded re-check), and the shortlists carry their users'
    array rows for the search.
    """
    su = dataset.super_user if super_user is None else super_user
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, query.ox, query.keywords, query.ws)
    [(keep, upper, lower, pruned)] = _group_bounds(
        arrays, [query], su, [rsk_group], ctx.side.group_texts(su)
    )
    shortlists = [
        LocationShortlist(
            location=query.locations[idx], users=[], upper_group=ub,
            lower_group=lb, index=idx,
        )
        for idx, ub, lb in zip(keep.tolist(), upper.tolist(), lower.tolist())
    ]
    if shortlists:
        rows = arrays.rows_for(users)
        at = ctx.admit(rows, rsk)
        mask = _shortlist_mask(
            ctx, rows, [sl.location for sl in shortlists], [at] * len(shortlists),
            _pass_rows(arrays),
        )
        for sl, lu in zip(shortlists, mask[:, rows]):
            sl.rows = rows[lu]
            sl.users = arrays.users[sl.rows].tolist()
    return shortlists, pruned


def _selector(method: str) -> Callable[..., BlockSelection]:
    """The block kernel of ``method``: ``"approx"`` (greedy, Section
    6.2.1) or ``"exact"`` (Algorithm 4, Section 6.2.2)."""
    if method == "approx":
        return select_greedy_block
    if method == "exact":
        return select_exact_block
    raise ValueError(f"unknown keyword-selection method {method!r}")


def select_candidate(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float = 0.0,
    method: str = "approx",
    super_user: Optional[SuperUser] = None,
    users: Optional[Sequence[User]] = None,
    stats: Optional[QueryStats] = None,
    batch: Optional["SelectionBatch"] = None,
) -> MaxBRSTkNNResult:
    """Algorithm 3: best-first search over candidate locations, one
    search for both keyword selectors.

    Parameters
    ----------
    rsk:
        ``RSk(u)`` per user id (from joint or individual top-k).
    rsk_group:
        ``RSk(us)`` group threshold for whole-location pruning.
    method:
        The selector: ``"approx"`` (greedy, Section 6.2.1) or
        ``"exact"`` (Algorithm 4, Section 6.2.2).
    batch:
        The :class:`SelectionBatch` ``query`` belongs to, which must
        select by ``method``: the first call naming it answers every
        query in it (with these ``dataset`` / ``super_user`` /
        ``users``, which later calls must repeat), the others read their
        answer.  ``rsk`` / ``rsk_group`` must be the pair the batch
        registered for ``query``.  ``None``: the one-query batch.

    Sets ``stats.selection_time_s`` (see :class:`QueryStats` for how a
    batch shares its passes out) and adds to the selection counters.
    """
    stats = stats if stats is not None else QueryStats()
    if batch is None:
        batch = SelectionBatch([query], [(rsk, rsk_group)], method)
    elif batch.method != method:
        raise ValueError(f"this selection batch selects by {batch.method!r}")
    return batch.answer(dataset, query, rsk, rsk_group, super_user, users, stats)


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
    search's every decision (queue order, early termination, the
    keyword-free acceptance path, strict-improvement tie-breaking)
    depends only on the shortlists, ``rsk`` and ``rsk_group``, so
    identical inputs reproduce the sequential answer and the selection
    stats exactly.  ``shortlists`` must be ordered by location
    ``index`` (the order :func:`shortlist_locations` emits).  It runs
    block-wise (:func:`_search_rounds`, one query) with ``method``'s
    selector.
    """
    select = _selector(method)
    stats = stats if stats is not None else QueryStats()
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, query.ox, query.keywords, query.ws)
    lu = [arrays.rows_for(sl.users) if sl.rows is None else sl.rows for sl in shortlists]
    at = ctx.admit(np.concatenate([np.empty(0, dtype=np.intp), *lu]), rsk)
    search = _Search(
        query, rsk_group, at, [sl.location for sl in shortlists],
        [sl.lower_group for sl in shortlists], 0,
    )
    search.enqueue([len(rows) for rows in lu], range(len(lu)))
    _search_rounds(ctx, [search], arrays.membership(lu), select)
    return search.result(arrays, stats)


class _Search:
    """One query's walk down Algorithm 3's queue, either selector.

    Nothing is ever pushed back on the queue, so its pop order is the
    sort by ``(-|LU_l|, position)``.  :meth:`replay` is the scalar loop
    (:func:`repro.oracle.search_shortlists`) decision for decision —
    line 3.10, the keyword-free acceptance path, strict improvement,
    ``keyword_combinations_scored`` counted for popped locations only —
    except that what it reads at a location (the bare ``ox.d`` recount,
    the keyword selection) was computed for
    :meth:`block`'s ``LOCATION_BLOCK`` queue entries at once, possibly
    stacked with other queries' blocks: line 3.10 is tested before a
    block joins a round, so it still saves the work behind it.
    """

    __slots__ = (
        "query", "rsk_group", "at", "locations", "lower", "pruned", "scored",
        "time_s", "queue", "pos", "best_location", "best_keywords", "best_count",
        "best_won",
    )

    def __init__(
        self,
        query: MaxBRSTkNNQuery,
        rsk_group: float,
        at: int,
        locations: List[Point],
        lower: List[float],
        pruned: int,
    ) -> None:
        self.query = query
        self.rsk_group = rsk_group  # this query's own RSk(us)
        self.at = at  # the context's threshold row of this query's RSk(u)
        self.locations = locations  # the group bound's survivors
        self.lower = lower  # and their LBL(l, us)
        self.pruned = pruned
        self.scored = 0
        self.time_s = 0.0  # selection time charged to this query
        self.queue: List[tuple] = []
        self.pos = 0
        self.best_location: Optional[Point] = None
        self.best_keywords: FrozenSet[int] = frozenset()
        self.best_count = 0
        self.best_won = None

    def enqueue(self, sizes: Sequence[int], rows: Sequence[int]) -> None:
        """Algorithm 3's queue over the survivors, ``sizes[i]`` being
        ``|LU_l|`` of ``locations[i]`` and ``rows[i]`` its row of the
        membership mask: ``(|LU_l|, location, LBL(l, us), row)``
        entries, stably sorted by size."""
        self.queue = sorted(
            zip(sizes, self.locations, self.lower, rows), key=lambda entry: -entry[0]
        )

    def block(self) -> List[tuple]:
        """The next ``LOCATION_BLOCK`` queue entries — none once line
        3.10 stops the search."""
        if self.pos < len(self.queue) and self.queue[self.pos][0] > self.best_count:
            return self.queue[self.pos : self.pos + LOCATION_BLOCK]
        return []

    def replay(self, block: List[tuple], selection: BlockSelection, rows) -> None:
        """Pop ``block``, whose entries are rows ``rows`` of
        ``selection``."""
        rsk_group = self.rsk_group
        base_counts, counts = selection.base_counts, selection.counts
        for i, (size, location, lower_group, _) in zip(rows, block):
            if size <= self.best_count:
                self.pos = len(self.queue)  # Line 3.10: cannot beat the incumbent
                return
            self.pos += 1
            if lower_group >= rsk_group and rsk_group > 0.0:
                # Lines 3.11–3.13: keyword-free acceptance path.
                self.scored += 1
                if base_counts[i] > self.best_count:
                    self.best_location, self.best_keywords = location, frozenset()
                    self.best_count, self.best_won = base_counts[i], selection.base[i]
                if base_counts[i] == size:
                    continue
            self.scored += selection.scored[i]
            if counts[i] > self.best_count:
                self.best_location = location
                self.best_keywords = selection.keywords[i]
                self.best_count, self.best_won = counts[i], selection.won[i]

    def result(self, arrays, stats: QueryStats) -> MaxBRSTkNNResult:
        """The answer, its counters added to ``stats``."""
        stats.locations_pruned += self.pruned
        stats.keyword_combinations_scored += self.scored
        location = self.best_location
        if location is None and self.query.locations:
            location = self.query.locations[0]  # nothing won: the first
        return MaxBRSTkNNResult(
            location=location,
            keywords=self.best_keywords,
            brstknn=frozenset(
                () if self.best_won is None
                else arrays.user_ids[self.best_won].tolist()
            ),
            stats=stats,
        )


def _search_rounds(
    ctx: SelectionContext,
    searches: Sequence[_Search],
    member,
    select: Callable[..., BlockSelection],
    locations: Optional[Sequence[Point]] = None,
    at: Optional[Sequence[int]] = None,
) -> None:
    """Walk every search's queue, stacked: round ``r`` scores block
    ``r`` of each search line 3.10 has not stopped in ONE ``select``
    call (a block kernel of :func:`_selector`), each location against its own
    search's threshold row and with its own row of ``member`` (the
    searches' ``LU_l`` masks, which the queue entries index), then each
    search replays its own rows.  ``locations`` / ``at`` (optional) are
    the locations of ``member``'s rows and their threshold rows, in
    order: a round that holds every row then reads ``member`` whole, in
    that order, instead of gathering its rows in queue order.  Replay
    time is charged to its search."""
    while True:
        blocks = [(search, search.block()) for search in searches]
        blocks = [(search, block) for search, block in blocks if block]
        if not blocks:
            return
        rows = [entry[3] for _, block in blocks for entry in block]
        if locations is not None and len(rows) == len(member):
            selection = select(ctx, locations, member, at)
        else:
            selection = select(
                ctx, [entry[1] for _, block in blocks for entry in block], member[rows],
                [search.at for search, block in blocks for _ in block],
            )
            rows = range(len(rows))
        start = 0
        for search, block in blocks:
            t0 = time.perf_counter()
            search.replay(block, selection, rows[start : start + len(block)])
            search.time_s += time.perf_counter() - t0
            start += len(block)


def _passes(searches: Sequence[_Search], cap: int) -> Iterator[List[_Search]]:
    """Consecutive searches, dealt into passes of at most ``cap``
    (:func:`_pass_rows`) surviving locations (a search with more is a
    pass of its own)."""
    part: List[_Search] = []
    rows = 0
    for search in searches:
        n = len(search.locations)
        if part and rows + n > cap:
            yield part
            part, rows = [], 0
        part.append(search)
        rows += n
    if part:
        yield part


class SelectionBatch:
    """The queries of one ``select`` payload, selected together by one
    method's selector.

    Algorithm 3 varies only the location, and ``k`` enters it only
    through the thresholds — so queries that share their keyword side
    ``(ox.d, W, ws)`` are answered by ONE
    :class:`~repro.core.kernels.SelectionContext`, whatever their ``k``:
    the keyword side (``UBL`` text half, ``HW_{w,u}`` pair table,
    recounted keyword sets, group text terms) is read off the
    :class:`~repro.core.kernels.KeywordSide` the dataset's arrays keep
    for it — built by the first payload of that side in this process,
    not by each payload — every query's ``RSk(u)`` vector is one
    threshold row of the context (queries of
    equal ``k`` share theirs), the group bounds of all the group's
    locations are one array expression (each query pruned against its
    own ``RSk(us)``), and each pass — as many locations as
    ``PASS_BYTES`` of temporaries hold (:func:`_pass_rows`) — computes
    ``alpha * SS(l, u)`` once, shortlists every location in one
    mask and runs its rounds as single selector calls
    (:func:`_search_rounds`) that read those rows and that mask in
    place, each location row against its own query's thresholds.  Every
    answer and counter is the query's own, ``==`` to the one-query run.

    ``thresholds[i]`` is query ``i``'s ``(RSk(u), RSk(us))`` pair;
    ``method`` names the selector every query of the batch runs
    (``"approx"`` or ``"exact"``, as :func:`select_candidate`'s).
    :func:`select_candidate` is the entry: the first call naming the
    batch computes every answer, later calls read theirs, and each call
    must pass the pair registered for its query — so the stacked work
    runs inside a ``select_candidate`` call, like one query's work does.
    Queries are found by identity.
    """

    def __init__(
        self,
        queries: Sequence[MaxBRSTkNNQuery],
        thresholds: Sequence[Tuple[Mapping[int, float], float]],
        method: str = "approx",
    ) -> None:
        self.select = _selector(method)
        self.method = method
        self.queries = list(queries)
        self.thresholds = list(thresholds)
        if len(self.thresholds) != len(self.queries):
            raise ValueError("a selection batch needs one (RSk(u), RSk(us)) per query")
        self._at: Dict[int, int] = {}
        for i, query in enumerate(self.queries):
            self._at.setdefault(id(query), i)
        self._inputs: Optional[tuple] = None
        self._searches: Optional[List[_Search]] = None

    def answer(
        self,
        dataset: Dataset,
        query: MaxBRSTkNNQuery,
        rsk: Mapping[int, float],
        rsk_group: float,
        super_user: Optional[SuperUser],
        users: Optional[Sequence[User]],
        stats: QueryStats,
    ) -> MaxBRSTkNNResult:
        """``query``'s answer, computing the whole batch on first use."""
        at = self._at.get(id(query))
        if at is None:
            raise ValueError("query is not part of this selection batch")
        registered, registered_group = self.thresholds[at]
        if rsk is not registered or rsk_group != registered_group:
            raise ValueError(
                "not the RSk(u) / RSk(us) this selection batch registered "
                "for the query"
            )
        inputs = (dataset, super_user, users)
        if self._searches is None:
            self._inputs = inputs
            self._searches = self._select(dataset, super_user, users)
        elif any(a is not b for a, b in zip(inputs, self._inputs)):
            raise ValueError("a selection batch answers one dataset")
        search = self._searches[at]
        stats.selection_time_s = search.time_s
        return search.result(arrays_for(dataset), stats)

    def _select(self, dataset, super_user, users) -> List[_Search]:
        """Every query's finished search.  ``time_s`` charges each query
        its own admission and replays plus an equal share of its group's
        setup (the group bounds included) and of every pass it took part
        in."""
        arrays = arrays_for(dataset)
        su = dataset.super_user if super_user is None else super_user
        rows = arrays.rows_for(users)
        queries = self.queries
        groups: Dict[tuple, List[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault(_keyword_side(query), []).append(i)
        searches: List[Optional[_Search]] = [None] * len(queries)
        for members in groups.values():
            t0 = time.perf_counter()
            first = queries[members[0]]
            ctx = SelectionContext(arrays, first.ox, first.keywords, first.ws)
            survivors = _group_bounds(
                arrays, [queries[i] for i in members], su,
                [self.thresholds[i][1] for i in members],
                ctx.side.group_texts(su),
            )
            shared = (time.perf_counter() - t0) / len(members)
            for i, (keep, _, lower, pruned) in zip(members, survivors):
                t0 = time.perf_counter()
                rsk, rsk_group = self.thresholds[i]
                searches[i] = _Search(
                    queries[i], rsk_group, ctx.admit(rows, rsk),
                    [queries[i].locations[idx] for idx in keep.tolist()],
                    lower.tolist(), pruned,
                )
                searches[i].time_s = shared + time.perf_counter() - t0
            # Grouped by threshold row, a round's locations read their
            # thresholds in one run per k.
            ordered = sorted((searches[i] for i in members), key=lambda s: s.at)
            cap = _pass_rows(
                arrays,
                len(ctx.side.pairs().row) if self.method == "approx" else 0,
            )
            for part in _passes(ordered, cap):
                own = sum(search.time_s for search in part)
                t0 = time.perf_counter()
                _run_pass(ctx, rows, part, self.select, cap)
                shared = time.perf_counter() - t0 - (
                    sum(search.time_s for search in part) - own
                )
                for search in part:
                    search.time_s += shared / len(part)
        return searches


def _run_pass(
    ctx: SelectionContext,
    rows,
    part: List[_Search],
    select: Callable[..., BlockSelection],
    cap: int,
) -> None:
    """One stacked pass: ``alpha * SS(l, u)`` of the pass's locations
    once (every decision of the pass reads its rows) if they fit in
    ``cap`` rows, ``LU_l`` of all of them in one mask, each against its
    own query's threshold row, then the rounds, each reading its
    locations' rows of that mask."""
    locations = [loc for search in part for loc in search.locations]
    if not locations:
        return
    ctx.pin(locations if len(locations) <= cap else ())
    at = [search.at for search in part for _ in search.locations]
    member = _shortlist_mask(ctx, rows, locations, at, cap)
    sizes = _row_counts(member).tolist()
    start = 0
    for search in part:
        end = start + len(search.locations)
        search.enqueue(sizes[start:end], range(start, end))
        start = end
    _search_rounds(ctx, part, member, select, locations, at)
    ctx.pin(())
