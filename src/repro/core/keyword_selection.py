"""Candidate keyword selection: greedy approximation and pruned exact.

Lemma 1 reduces Maximum Coverage to keyword selection, so even with one
candidate location the problem is NP-hard.  Section 6.2 gives two
solvers, both implemented here:

**Greedy approximation (Section 6.2.1).**  For each candidate keyword
``w`` a user list ``LUW_w`` is precomputed: user ``u`` enters the list
when placing ``ox`` at the chosen location with the *most optimistic*
keyword set containing ``w`` (``HW_{w,u}``: the ``ws`` highest-weight
candidates from ``W ∩ u.d`` including ``w``) reaches ``RSk(u)``.  The
classic max-coverage greedy then picks ``ws`` keywords maximizing the
union of their lists; since the lists are optimistic, the *actual*
BRSTkNN of the chosen set is recomputed before the caller compares
candidates.  Greedy max coverage is the best possible polynomial
approximation (``1 − 1/e``) unless P = NP.

**Exact (Section 6.2.2, Algorithm 4).**  Enumerates combinations of
size up to ``ws`` ("up to" rather than the paper's "exactly":
Definition 1 asks for ``|W'| <= ws``, and under length-normalized
measures a smaller set can strictly beat every size-``ws`` set) of the
*useful* candidates (``W ∩ Wu`` where ``Wu`` is the union of the
shortlisted users' keywords) with the paper's prunings — users outside
``LU_l`` are never touched; a combination is scored against a user only
through a memoized per-user won/lost table keyed by ``(combo ∩ u.d,
|combo|)`` (at a fixed location a user's STS depends on nothing else;
see the comment in :func:`select_keywords_exact`), which
turns the scan into set intersections.  The paper's further shortcut
(users won by location alone count for every combination, lines
4.6–4.7) is applied *per combination size* instead of globally: under
length-normalized measures a bare-document win can be lost again once
unmatched keywords dilute the document, so the global version
over-counts (the cross-method equivalence tests caught it against the
exhaustive baseline).
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional,
    Sequence, Set, Tuple,
)

from ..model.dataset import Dataset
from ..model.objects import STObject, User
from ..spatial.geometry import Point
from .bounds import augmented_document
from .kernels import SelectionContext, _distinct_rows, _row_counts, arrays_for, np

__all__ = [
    "KeywordSelection",
    "BlockSelection",
    "compute_brstknn",
    "select_greedy_block",
    "select_keywords_greedy",
    "select_keywords_exact",
]


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
    locations at a time, over a fresh
    :class:`~repro.core.kernels.SelectionContext` whose keyword side —
    the optimistic keyword weights and ``HW`` sets, which depend only
    on ``(ox, candidate_keywords, ws)`` — is the one the dataset's
    arrays keep for it: a caller visiting location after location
    builds it once.  The scalar selector scoring pair by pair at every
    location (:func:`repro.oracle.select_keywords_greedy`) is the
    oracle that kernel is tested against.
    """
    arrays = arrays_for(dataset)
    ctx = SelectionContext(arrays, ox, candidate_keywords, ws)
    block = select_greedy_block(
        ctx, [location], arrays.membership([arrays.rows_for(users)]), rsk
    )
    winners = frozenset(arrays.user_ids[block.won[0]].tolist())
    return block.keywords[0], winners, block.scored[0]


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
    distinct sets), grouped by set — the empty prefix first.  ``chosen``
    is :meth:`SelectionContext.cover`'s ``L x ws`` keys, ``-1`` past a
    location's stop."""
    depth = np.count_nonzero(chosen >= 0, axis=1)
    sets: List[FrozenSet[int]] = [frozenset()]
    locs, ends, which = [np.arange(len(chosen))], [0], [np.zeros(len(chosen), dtype=np.intp)]
    for end in range(1, chosen.shape[1] + 1):
        live = np.flatnonzero(depth >= end)
        if not len(live):
            break
        unique, ids = _distinct_rows(np.sort(chosen[live, :end], axis=1))
        order = np.argsort(ids, kind="stable")
        locs.append(live[order])
        ends.append(end)
        which.append(ids[order] + len(sets))
        sets.extend(frozenset(terms[k] for k in keys) for keys in unique.tolist())
    lengths = np.repeat(ends, [len(rows) for rows in locs])
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
    at = np.zeros((n, ws + 1), dtype=np.intp)
    at[locs, lengths] = np.arange(len(locs))
    best = at[np.arange(n), counts.argmax(axis=1)]  # strict improvement: the first maximum
    keywords = [sets[i] for i in which[best].tolist()]
    base = won[at[:, 0]]
    best_counts = counts.max(axis=1)
    scored = (_row_counts(member, table.held.sum(axis=1)) + depth).tolist()
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


def select_keywords_exact(
    dataset: Dataset,
    ox: STObject,
    location: Point,
    candidate_keywords: Sequence[int],
    ws: int,
    users: Sequence[User],
    rsk: Mapping[int, float],
    mask_many: Optional[Callable[..., List[List[bool]]]] = None,
) -> KeywordSelection:
    """Algorithm 4: exact keyword selection with pruning at ``location``.

    ``mask_many(location, [(document, users), ...], rsk)`` decides
    ``STS(location, document, u) >= RSk(u)`` for groups of users; it
    defaults to the guard-banded
    :meth:`~repro.core.kernels.DatasetArrays.threshold_mask_many`, and
    the oracle passes its pair-by-pair scan
    (:func:`repro.oracle.select_keywords_exact`).
    """
    if mask_many is None:
        mask_many = arrays_for(dataset).threshold_mask_many
    # Pruning 1+2: only shortlisted users; only candidates some
    # shortlisted user actually has.
    wu: Set[int] = set()
    for u in users:
        wu |= u.keyword_set
    useful = sorted(set(candidate_keywords) & wu)

    # Definition 1 asks for |W'| <= ws, and under length-normalized
    # measures (LM) adding a keyword can *lower* other term weights, so
    # a smaller set can strictly beat every size-ws set.  The paper's
    # Algorithm 4 enumerates only size-ws combinations (implicitly
    # assuming monotone text scores); to stay exact for all three
    # measures we enumerate every size from 0 up to ws.
    #
    # Scoring is memoized: for a fixed location and combo size s, a
    # user's STS depends only on (combo ∩ u.d, s) — the other combo
    # keywords contribute nothing but document length, which filler
    # terms outside every u.d simulate exactly.  Each user has at most
    # 2^|W ∩ u.d| * ws reachable states, precomputed once, so the
    # combinatorial loop reduces to set intersections and lookups.
    #
    # NB: Algorithm 4's lines 4.6–4.7 count users whose location-only
    # lower bound meets RSk(u) for *every* combination.  That shortcut
    # is unsound for length-normalized measures: a user won by the bare
    # ``ox.d`` can lose it again once unmatched keywords dilute the
    # document.  The memo therefore also carries the *empty* matched
    # subset per size — the user's fate under a combination sharing
    # nothing with them — and per-size base counts replace the
    # "always in" set.
    best_set: FrozenSet[int] = frozenset()
    bare = mask_many(location, [(augmented_document(ox.terms, ()), users)], rsk)[0]
    best_users: FrozenSet[int] = frozenset(
        u.item_id for u, ok in zip(users, bare) if ok
    )
    scored = 1
    max_size = min(ws, len(useful))

    # won[user_index][(matched_subset, size)] -> bool.  Entries are
    # grouped by their (subset, size) document first: ``mask_many``
    # scores each distinct padded document once against every user that
    # reaches that state.
    won: List[Dict[Tuple[FrozenSet[int], int], bool]] = [{} for _ in users]
    user_useful: List[FrozenSet[int]] = []
    by_keyword: Dict[int, List[int]] = {t: [] for t in useful}
    fillers = [-(i + 1) for i in range(max_size)]  # pad terms outside any u.d
    states: Dict[Tuple[FrozenSet[int], int], List[int]] = {}
    for idx, u in enumerate(users):
        ku = frozenset(set(useful) & u.keyword_set)
        user_useful.append(ku)
        subsets: List[Tuple[int, ...]] = [()]
        for t in sorted(ku):
            subsets += [s + (t,) for s in subsets]
        for sub in subsets:
            for size in range(max(len(sub), 1), max_size + 1):
                states.setdefault((frozenset(sub), size), []).append(idx)
        for t in ku:
            by_keyword[t].append(idx)

    state_docs = []
    for (sub, size), indices in states.items():
        doc = augmented_document(ox.terms, sub)
        for f in fillers[: size - len(sub)]:
            doc[f] = 1
        state_docs.append(((sub, size), doc, indices))
    masks = mask_many(
        location,
        [(doc, [users[idx] for idx in indices]) for _, doc, indices in state_docs],
        rsk,
    )
    for (key, _doc, indices), passed in zip(state_docs, masks):
        for idx, ok in zip(indices, passed):
            won[idx][key] = ok

    # Users winning a size-s combination they share no keyword with.
    empty = frozenset()
    base_wins = [0] * (max_size + 1)
    for size in range(1, max_size + 1):
        base_wins[size] = sum(1 for table in won if table[(empty, size)])

    for size in range(1, max_size + 1):
        for combo in combinations(useful, size):
            combo_set = frozenset(combo)
            count = base_wins[size]
            touched: Set[int] = set()
            for t in combo:
                for idx in by_keyword[t]:
                    if idx in touched:
                        continue
                    touched.add(idx)
                    matched = combo_set & user_useful[idx]
                    count += won[idx][(matched, size)] - won[idx][(empty, size)]
            scored += 1
            if count > len(best_users):
                winners = set()
                doc = augmented_document(ox.terms, combo_set)
                for idx, u in enumerate(users):
                    if combo_set & u.keyword_set:
                        if dataset.sts_parts(location, doc, u) >= rsk[u.item_id]:
                            winners.add(u.item_id)
                    elif won[idx][(empty, size)]:
                        # Sharing nothing with the combo, the padded
                        # memo document scores term-for-term identically
                        # to the real augmented one.
                        winners.add(u.item_id)
                best_set = combo_set
                best_users = frozenset(winners)
    return best_set, best_users, scored
