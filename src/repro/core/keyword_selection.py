"""Candidate keyword selection: greedy approximation and exact.

Lemma 1 reduces Maximum Coverage to keyword selection, so even with one
candidate location the problem is NP-hard.  Section 6.2 gives two
solvers, both implemented here as block kernels over a
:class:`~repro.core.kernels.SelectionContext` — several locations in
one pass, one answer shape (:class:`BlockSelection`) — so Algorithm 3's
one search (:mod:`repro.core.candidate_selection`) runs either:

**Greedy approximation (Section 6.2.1, :func:`select_greedy_block`).**
For each candidate keyword ``w`` a user list ``LUW_w`` is precomputed:
user ``u`` enters the list when placing ``ox`` at the chosen location
with the *most optimistic* keyword set containing ``w`` (``HW_{w,u}``:
the ``ws`` highest-weight candidates from ``W ∩ u.d`` including ``w``)
reaches ``RSk(u)``.  The classic max-coverage greedy then picks ``ws``
keywords maximizing the union of their lists; since the lists are
optimistic, the *actual* BRSTkNN of the chosen set is recomputed before
the caller compares candidates.  Greedy max coverage is the best
possible polynomial approximation (``1 − 1/e``) unless P = NP.

**Exact (Section 6.2.2, Algorithm 4, :func:`select_exact_block`).**
Enumerates the combinations of size up to ``ws`` ("up to" rather than
the paper's "exactly": Definition 1 asks for ``|W'| <= ws``, and under
length-normalized measures a smaller set can strictly beat every
size-``ws`` set) of the *useful* candidates (``W ∩ Wu`` where ``Wu`` is
the union of the shortlisted users' keywords); users outside ``LU_l``
are never touched.  Every combination is recounted exactly.  The
paper's further shortcut (users won by location alone count for every
combination, lines 4.6–4.7) is not taken: under length-normalized
measures a bare-document win can be lost again once unmatched keywords
dilute the document, so it over-counts (the cross-method equivalence
tests caught it against the exhaustive baseline).

:func:`select_keywords_greedy` and :func:`select_keywords_exact` are
the one-location cases; :mod:`repro.oracle` holds the scalar selectors
they are tested against.
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Sequence, Tuple,
)

from ..model.dataset import Dataset
from ..model.objects import STObject, User
from ..spatial.geometry import Point
from .kernels import SelectionContext, _row_counts, arrays_for, np

__all__ = [
    "KeywordSelection",
    "BlockSelection",
    "compute_brstknn",
    "select_greedy_block",
    "select_exact_block",
    "select_keywords_greedy",
    "select_keywords_exact",
]

#: Recount rows one :func:`select_exact_block` call scores at once.
#: Algorithm 4 enumerates up to ``C(|W|, ws)`` keyword sets per location
#: (6 195 at |W| = 20, ws <= 4), so a block's (location, set) rows go
#: this many at a time and each set's ``θ`` row lives for one recount
#: call: at |U| = 400 a call's ``rows x U`` temporaries stay under ~4 MB.
EXACT_ROWS = 1024


#: Result of one keyword-selection call: the chosen keyword set, the
#: users it actually wins, and how many combinations were scored (for
#: the benchmark instrumentation).
KeywordSelection = Tuple[FrozenSet[int], FrozenSet[int], int]


def compute_brstknn(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    keywords: Iterable[int],
    users: Sequence[User],
    rsk: Mapping[int, float],
) -> FrozenSet[int]:
    """Users for whom ``ox`` at ``location`` with ``ox.d ∪ keywords``
    enters the top-k (``STS >= RSk(u)``, ties admit as in the paper).

    All users are scored as one kernel call; the winner set is the
    scalar scan's (guard-banded; :func:`repro.oracle.compute_brstknn`).
    """
    return arrays_for(dataset).brstknn(ox, location, keywords, users, rsk)


def select_keywords_greedy(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    candidate_keywords: Sequence[int],
    ws: int,
    users: Sequence[User],
    rsk: Mapping[int, float],
) -> KeywordSelection:
    """Section 6.2.1: greedy approximate keyword selection at ``location``.

    ``users`` is the shortlist ``LU_l`` of Algorithm 3 (only they can be
    BRSTkNNs by the location upper bound); ``rsk`` maps user id to
    ``RSk(u)``.  The call runs as the one-location case of
    :func:`select_greedy_block`, the kernel Algorithm 3 feeds a block of
    locations at a time.  The scalar selector scoring pair by pair at
    every location (:func:`repro.oracle.select_keywords_greedy`) is the
    oracle that kernel is tested against.
    """
    return _one_location(
        select_greedy_block, dataset, ox, location, candidate_keywords, ws, users, rsk
    )


class BlockSelection(NamedTuple):
    """:func:`select_greedy_block`'s answer, one entry per location."""

    keywords: List[FrozenSet[int]]
    #: ``L x U`` boolean: the users ``keywords[l]`` actually wins at ``l``.
    won: "np.ndarray"
    scored: List[int]
    #: ``L x U`` boolean: the users the bare ``ox.d`` wins (Algorithm 3's
    #: keyword-free acceptance path asks for exactly this recount).
    base: "np.ndarray"
    #: ``|won[l]|`` and ``|base[l]|``.
    counts: List[int]
    base_counts: List[int]


def _prefixes(chosen, terms: Sequence[int]):
    """Every greedy prefix of every location, as recount rows: per row
    its location, its length and its set (an index into the returned
    sets), grouped by set — the empty prefix first, row ``l`` of
    location ``l``.  ``chosen`` is :meth:`SelectionContext.cover`'s ``L
    x ws`` keys, ``-1`` past a location's stop.  A prefix one key longer
    is one integer, its shorter prefix's set times the key count plus
    the key, so one stable ``argsort`` per length groups its rows (a
    set reached in two pick orders gets two ids: the recount compares
    its rows as two runs, to the same answer)."""
    n = len(chosen)
    depth = np.count_nonzero(chosen >= 0, axis=1)
    keys = len(terms)
    sets: List[FrozenSet[int]] = [frozenset()]
    locs, which = [np.arange(n)], [np.zeros(n, dtype=np.intp)]
    prefix = which[0].copy()  # each location's set so far
    for end in range(1, chosen.shape[1] + 1):
        live = np.flatnonzero(depth >= end)
        if not len(live):
            break
        code = chosen[live, end - 1]
        if end > 1:
            code = code + prefix[live] * keys
        order = np.argsort(code, kind="stable")
        code = code[order]
        first = np.ones(len(code), dtype=bool)
        np.not_equal(code[1:], code[:-1], out=first[1:])
        ids = np.cumsum(first)
        ids += len(sets) - 1
        for grown in code[first].tolist():
            shorter, key = divmod(grown, keys)
            sets.append(sets[shorter] | {terms[key]})
        live = live[order]
        prefix[live] = ids
        locs.append(live)
        which.append(ids)
    lengths = np.repeat(np.arange(len(locs)), [len(rows) for rows in locs])
    return np.concatenate(locs), lengths, np.concatenate(which), sets, depth


def select_greedy_block(
    ctx: SelectionContext,
    locations: Sequence[Point],
    member,
    rsk: Mapping[int, float] | Sequence[int],
) -> BlockSelection:
    """:func:`select_keywords_greedy` at several locations in one pass.

    The engine's whole Section 6.2.1: ``member`` is ``L x U`` boolean,
    row ``l`` the users of ``LU_l`` (:meth:`DatasetArrays.membership`
    lays row lists out so); ``rsk`` is the ``RSk(u)`` mapping every
    location reads, or — locations of queries with different ``k`` —
    the threshold row ``ctx`` admitted each location's vector as
    (:meth:`SelectionContext.admit`).  One ``LUW`` pass, one batched
    greedy max-coverage and one recount call cover the block; winner
    sets stay boolean rows.  Only the fallback pass — rare, and
    sequential by nature — runs per location, each of its steps one
    recount call.  Same decisions, ``scored`` included, as the scalar
    selector called once per location.
    """
    ws = ctx.ws
    if isinstance(rsk, Mapping):
        rsk = ctx.admit(np.flatnonzero(member.any(axis=0)), rsk)
    ctx.move_to(locations, rsk)
    table = ctx.side.pairs()
    passed = ctx.luw(member)
    chosen, coverage = ctx.cover(passed)

    # The LUW lists are optimistic, and under length-normalized measures
    # a longer keyword set can score *worse*: every greedy prefix is
    # recounted, the empty one first.
    locs, lengths, which, sets, depth = _prefixes(chosen, table.terms)
    won = ctx.recount(member, locs, sets, which)
    n = len(locations)
    counts = np.full((n, ws + 1), -1, dtype=np.intp)
    counts[locs, lengths] = _row_counts(won)
    at = np.empty((n, ws + 1), dtype=np.intp)
    at[locs, lengths] = np.arange(len(locs))
    lanes = np.arange(n)
    longest = counts.argmax(axis=1)  # strict improvement: the first maximum
    best = at[lanes, longest]
    keywords = [sets[i] for i in which[best].tolist()]
    base = won[:n]  # the empty prefixes, location by location
    best_counts = counts[lanes, longest]
    scored = (_row_counts(member, table.per_user) + depth).tolist()
    won = won[best]

    # Fallback pass: greedy on the *true* objective where the LUW
    # optimism demonstrably misled (see the scalar selector,
    # repro.oracle.select_keywords_greedy); the better of the two greedy
    # answers is kept.  Without ws it has no step to take.
    fallback = (
        np.flatnonzero((chosen[:, 0] < 0) | (best_counts < 0.8 * coverage)).tolist()
        if ws > 0 else []
    )
    best_counts = best_counts.tolist()
    for l in fallback:
        sizes = np.bincount(table.key[passed[l]], minlength=len(table.terms))
        pool = sorted(
            np.nonzero(table.held[member[l]].any(axis=0))[0].tolist(),
            key=lambda k: (-sizes[k], table.terms[k]),
        )[: 2 * ws + 6]
        current: FrozenSet[int] = frozenset()
        current_won = base[l]
        current_count = int(counts[l, 0])
        for _ in range(ws):
            trials = [
                current | {table.terms[k]} for k in pool
                if table.terms[k] not in current
            ]
            if not trials:
                break
            trial_won = ctx.recount(member, [l] * len(trials), trials, range(len(trials)))
            scored[l] += len(trials)
            trial_counts = _row_counts(trial_won)
            step = int(trial_counts.argmax())  # first maximum, in pool order
            if trial_counts[step] <= current_count:
                break
            current, current_won = trials[step], trial_won[step]
            current_count = int(trial_counts[step])
        if current_count > best_counts[l]:
            keywords[l], won[l], best_counts[l] = current, current_won, current_count
    return BlockSelection(
        keywords, won, scored, base, best_counts, counts[:, 0].tolist()
    )


def select_exact_block(
    ctx: SelectionContext,
    locations: Sequence[Point],
    member,
    rsk: Mapping[int, float] | Sequence[int],
) -> BlockSelection:
    """:func:`select_keywords_exact` at several locations in one pass:
    Section 6.2.2 on :func:`select_greedy_block`'s arguments and answer.

    Per location, ``useful_l`` is ``W ∩`` the keywords of its users (row
    ``l`` of ``member``), and every combination of ``useful_l`` of size
    1 to ``min(ws, |useful_l|)``, in ``itertools.combinations`` order,
    is one recount row beside the bare ``ox.d``'s; the first maximum
    wins, so a set must beat the bare count strictly.  The recount is
    exact, so no memo of padded documents stands in for it.  Rows are
    scored ``EXACT_ROWS`` at a time, sorted by threshold row and set, so
    rows sharing both compare as one run.  ``scored`` is 1 (the bare
    recount) plus the location's combinations.
    """
    if isinstance(rsk, Mapping):
        rsk = ctx.admit(np.flatnonzero(member.any(axis=0)), rsk)
    ctx.move_to(locations, rsk)
    arrays, n = ctx.arrays, len(locations)
    terms = sorted(t for t in set(ctx.candidate_terms) if t in arrays.term_col)
    holders = arrays.user_terms[:, [arrays.term_col[t] for t in terms]].astype(np.float32)
    useful = (member.astype(np.float32) @ holders) > 0

    # Every location's keyword sets as ids into ``sets``, the bare ox.d
    # (id 0) first, then Algorithm 4's combinations in enumeration order.
    set_id: Dict[FrozenSet[int], int] = {frozenset(): 0}
    enumerated: Dict[Tuple[int, ...], List[int]] = {}
    per_location = []
    for row in useful.tolist():
        key = tuple(t for t, held in zip(terms, row) if held)
        if key not in enumerated:
            enumerated[key] = [0] + [
                set_id.setdefault(frozenset(combo), len(set_id))
                for size in range(1, min(ctx.ws, len(key)) + 1)
                for combo in combinations(key, size)
            ]
        per_location.append(enumerated[key])
    sets = list(set_id)
    scored = [len(ids) for ids in per_location]
    loc = np.repeat(np.arange(n), scored)
    which = np.array([i for ids in per_location for i in ids], dtype=np.intp)
    pos = np.arange(len(loc)) - np.repeat(np.cumsum([0, *scored])[:-1], scored)
    at = np.broadcast_to(np.asarray(rsk, dtype=np.intp), (n,))
    order = np.lexsort((loc, which, at[loc]))

    # Per location, the best row so far keyed by (count, earliest
    # position): rows of one location hold distinct positions, so the
    # largest key is the first maximum in enumeration order.
    span = max(scored, default=1)
    best = np.full(n, -1, dtype=np.int64)
    won = np.zeros(member.shape, dtype=bool)
    base = np.zeros(member.shape, dtype=bool)
    chosen = np.zeros(n, dtype=np.intp)
    for start in range(0, len(order), EXACT_ROWS):
        rows = order[start : start + EXACT_ROWS]
        at_row = loc[rows]
        ids, local = np.unique(which[rows], return_inverse=True)
        rows_won = ctx.recount(member, at_row, [sets[i] for i in ids.tolist()], local)
        key = _row_counts(rows_won) * span + (span - 1 - pos[rows])
        top = best.copy()
        np.maximum.at(top, at_row, key)
        hit = key == top[at_row]
        best[at_row[hit]], won[at_row[hit]] = key[hit], rows_won[hit]
        chosen[at_row[hit]] = which[rows[hit]]
        bare = pos[rows] == 0
        base[at_row[bare]] = rows_won[bare]
    return BlockSelection(
        [sets[i] for i in chosen.tolist()], won, scored, base,
        (best // span).tolist(), _row_counts(base).tolist(),
    )


def _one_location(select, dataset, ox, location, candidate_keywords, ws, users, rsk):
    """``select`` (:func:`select_greedy_block` or
    :func:`select_exact_block`) at ``location`` alone, over a fresh
    :class:`~repro.core.kernels.SelectionContext` whose keyword side is
    the one the dataset's arrays keep for ``(ox, candidate_keywords,
    ws)``: a caller visiting location after location builds it once."""
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, ox, candidate_keywords, ws)
    block = select(ctx, [location], arrays.membership([arrays.rows_for(users)]), rsk)
    winners = frozenset(arrays.user_ids[block.won[0]].tolist())
    return block.keywords[0], winners, block.scored[0]


def select_keywords_exact(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    candidate_keywords: Sequence[int],
    ws: int,
    users: Sequence[User],
    rsk: Mapping[int, float],
) -> KeywordSelection:
    """Algorithm 4: exact keyword selection at ``location``, the
    one-location case of :func:`select_exact_block`.  The scalar
    selector (:func:`repro.oracle.select_keywords_exact`) is the oracle
    that kernel is tested against."""
    return _one_location(
        select_exact_block, dataset, ox, location, candidate_keywords, ws, users, rsk
    )
