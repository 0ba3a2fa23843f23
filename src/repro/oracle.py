"""The scalar reference the engine's kernels are held to.

The engine (:mod:`repro.core`) runs Algorithms 1–3 as numpy kernels.
This module states them one ``(user, object/location)`` pair at a time
through ``Dataset.sts`` / ``sts_parts`` and
:class:`~repro.core.bounds.BoundCalculator`, as the paper does; every
kernel must equal it — pools, I/O and ``RSk(u)`` bitwise, every
selection decision and counter exactly.  Only tests, ``repro serve
--verify`` and :mod:`repro.bench` import it.  Algorithm 3's queue
pops one location at a time here (:func:`search_shortlists`), scored by
a scalar selector; the engine runs the same decisions over blocks of
locations.  :func:`query` is the cold, sequential, all-scalar
answer to one query, its I/O charged to the engine's page store.

Section 7 — users on disk under an MIUR-tree — lives only here
(:func:`canonical_candidates`, :func:`indexed_search`,
:func:`indexed_users_maxbrstknn`): its best-first search over user
nodes never beat ``Mode.JOINT`` in time or I/O on any measured cell, so
it is not an engine mode.  Figure 15
(:func:`repro.bench.harness.measure_user_index`) runs it against an
engine's MIR-tree and page store and a caller-built
:class:`~repro.index.miurtree.MIURTree`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .core.baseline import baseline_maxbrstknn
from .core.bounds import BoundCalculator, augmented_document, candidate_term_weight
from .core.config import Mode, QueryOptions, coerce_options
from .core.candidate_selection import LocationShortlist
from .core.joint_topk import (
    CandidateObject, CandidatePool, JointTraversalResult, TopKTable,
)
from .core.keyword_selection import KeywordSelection
from .core.planner import plan_query
from .core.query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats
from .index.miurtree import UserNodeView
from .model.dataset import Dataset
from .model.objects import SuperUser, User
from .spatial.geometry import Point, Rect
from .topk.single import TopKResult

__all__ = [
    "joint_traversal",
    "individual_topk",
    "shortlist_locations",
    "compute_brstknn",
    "greedy_max_coverage",
    "select_keywords_greedy",
    "select_keywords_exact",
    "search_shortlists",
    "select_candidate",
    "canonical_candidates",
    "indexed_search",
    "indexed_users_maxbrstknn",
    "query",
]


# ----------------------------------------------------------------------
# Algorithms 1–2: the joint top-k
# ----------------------------------------------------------------------

def joint_traversal(
    tree, dataset: Dataset, k: int, super_user: Optional[SuperUser] = None, store=None
) -> JointTraversalResult:
    """Algorithm 1: single best-lower-bound-first traversal for a group,
    one :class:`BoundCalculator` call per entry and one
    :class:`CandidateObject` per pooled object."""
    if k <= 0:
        return JointTraversalResult(lo=[], ro=[], rsk_group=0.0)
    su = dataset.super_user if super_user is None else super_user
    bounds = BoundCalculator(dataset)
    counter = itertools.count()
    # Max-heap on the lower bound (negated); holds nodes and objects.
    pq: List[Tuple[float, int, tuple]] = [(0.0, next(counter), ("node", tree.root))]
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
        elif cand.upper < rsk:
            pass  # cannot be in any user's top-k
        elif cand.lower > lo_heap[0][0]:
            displaced = heapq.heapreplace(lo_heap, (cand.lower, next(counter), cand))[2]
            rsk = lo_heap[0][0]
            if displaced.upper >= rsk:
                ro.append(displaced)
        else:
            ro.append(cand)

    while pq:
        kind, item = heapq.heappop(pq)[2]
        if kind == "object":
            admit(item)
            continue
        # Line 1.20: expand only while the node may contribute.
        children, objects = tree.read_node(item, su.union_terms, store)
        entries = [
            ("object", ov.obj, Rect.from_point(ov.obj.location), ov.weights)
            for ov in objects
        ] + [("node", cv.node, cv.node.rect, cv.weights) for cv in children]
        for child_kind, child, rect, weights in entries:
            ub = bounds.node_upper(rect, weights, su)
            if len(lo_heap) >= k and ub < rsk:
                continue
            lb = bounds.node_lower(rect, weights, su)
            if child_kind == "object":
                child = CandidateObject(child, lb, ub, weights)
            heapq.heappush(pq, (-lb, next(counter), (child_kind, child)))

    lo = [cand for _, __, cand in sorted(lo_heap, key=lambda t: -t[0])]
    ro.sort(key=lambda c: -c.upper)
    return JointTraversalResult(lo, ro, rsk if rsk != float("-inf") else 0.0)


def individual_topk(
    traversal: JointTraversalResult, dataset: Dataset, k: int,
    users: Optional[Sequence[User]] = None,
) -> TopKTable:
    """Algorithm 2: per user, exact STS against ``LO``, then ``RO`` in
    descending upper bound until Example 4's stop ``UB(o, us) <
    RSk(u)``; ties ranked by ``(score desc, object id asc)``.  Reads the
    pool as objects, so it must have been walked in this process."""
    users = dataset.users if users is None else users
    ids = np.fromiter((u.item_id for u in users), np.int64, len(users))
    k = max(k, 0)
    candidates = list(traversal.pool) if k else []
    out: Dict[int, TopKResult] = {}
    for user in users:
        best: List[Tuple[float, int]] = []  # min-heap of the k best (score, -id)
        for i, cand in enumerate(candidates):
            if i >= traversal.n_lo and len(best) >= k and cand.upper < best[0][0]:
                break  # Example 4's per-user early termination
            entry = (dataset.sts(cand.obj, user), -cand.obj.item_id)
            if len(best) < k:
                heapq.heappush(best, entry)
            elif entry > best[0]:
                heapq.heapreplace(best, entry)
        ranked = sorted(((s, -negid) for s, negid in best), key=lambda t: (-t[0], t[1]))
        out[user.item_id] = TopKResult(user_id=user.item_id, ranked=ranked)
    return TopKTable.of_results(ids, k, out)


# ----------------------------------------------------------------------
# Algorithm 3 and Section 6.2: candidate and keyword selection
# ----------------------------------------------------------------------

def shortlist_locations(dataset, query, rsk, rsk_group, super_user=None, users=None):
    """Algorithm 3's shortlists: the locations the group bound keeps,
    each with ``LU_l`` scanned user by user (``UBL(l, u) >= RSk(u)``);
    the pruned-location count alongside."""
    su = dataset.super_user if super_user is None else super_user
    users = dataset.users if users is None else users
    bounds = BoundCalculator(dataset)
    ox, keywords, ws = query.ox, query.keywords, query.ws
    group_text = bounds.group_upper_text(ox, keywords, ws, su)
    lower_text = bounds.group_lower_text(ox, su)
    shortlists, pruned = [], 0
    for idx, loc in enumerate(query.locations):
        ub_group = bounds.location_upper_group(loc, ox, keywords, ws, su, text=group_text)
        if ub_group < rsk_group:
            pruned += 1
            continue
        shortlists.append(LocationShortlist(
            location=loc,
            users=[
                u for u in users
                if bounds.location_upper_user(loc, ox, keywords, ws, u) >= rsk[u.item_id]
            ],
            upper_group=ub_group,
            lower_group=bounds.location_lower_group(loc, ox, su, text=lower_text),
            index=idx,
        ))
    return shortlists, pruned


def compute_brstknn(dataset, ox, location, keywords, users, rsk) -> FrozenSet[int]:
    """Users for whom ``ox`` at ``location`` with ``ox.d ∪ keywords``
    scores ``STS >= RSk(u)``, one ``sts_parts`` call each."""
    doc = augmented_document(ox.terms, keywords)
    return frozenset(
        u.item_id for u in users if dataset.sts_parts(location, doc, u) >= rsk[u.item_id]
    )


def greedy_max_coverage(
    sets: Mapping[int, Set[int]], budget: int
) -> Tuple[List[int], Set[int]]:
    """Plain greedy Maximum Coverage over ``{key: element-set}``: up to
    ``budget`` keys, each covering the most yet-uncovered elements (ties
    to the smaller key); stops when no key adds coverage."""
    chosen: List[int] = []
    covered: Set[int] = set()
    remaining = dict(sets)
    for _ in range(max(0, budget)):
        best_key, best_gain = None, 0
        for key in sorted(remaining):
            gain = len(remaining[key] - covered)
            if gain > best_gain:
                best_key, best_gain = key, gain
        if best_key is None:
            break
        chosen.append(best_key)
        covered |= remaining.pop(best_key)
    return chosen, covered


def _hw_entries(
    user: User, cand_set: Set[int], opt_weight: Mapping[int, float], ws: int
) -> List[Tuple[FrozenSet[int], int]]:
    """``(HW_{w,u}, w)`` for every candidate ``w`` the user holds: the
    ``ws`` highest-weight useful candidates, forced to contain ``w``."""
    useful = sorted(cand_set & user.keyword_set, key=lambda t: (-opt_weight[t], t))
    top = frozenset(useful[:ws])
    head = useful[: max(ws - 1, 0)]
    return [(top if w in top else frozenset(head + [w]), w) for w in useful]


def select_keywords_greedy(
    dataset, ox, location, candidate_keywords, ws, users, rsk, cache=None
) -> KeywordSelection:
    """Section 6.2.1 at one location, pair by pair.

    ``LUW_w`` holds the users ``HW_{w,u}`` — the most optimistic set
    containing ``w`` — wins; greedy max coverage picks ``ws`` keywords
    over those lists and every greedy prefix is recounted.  ``cache``
    (per query) keeps the location-independent weights and ``HW`` sets.
    """
    cache = cache if cache is not None else {}
    if "cand_set" not in cache:
        cache["cand_set"] = set(candidate_keywords)
        # Optimistic per-keyword weight (Lemma 3): the candidate added
        # to ox.d alone.  Ranks the candidates inside HW_{w,u}.
        cache["opt_weight"] = {
            t: candidate_term_weight(dataset.relevance, ox.terms, t)
            for t in cache["cand_set"]
        }
    cand_set, opt_weight = cache["cand_set"], cache["opt_weight"]
    hw_by_user = cache.setdefault("hw_by_user", {})
    luw: Dict[int, Set[int]] = {}
    scored = 0
    for user in users:
        entries = hw_by_user.get(user.item_id)
        if entries is None:
            entries = hw_by_user[user.item_id] = _hw_entries(
                user, cand_set, opt_weight, ws
            )
        for hw_set, w in entries:
            scored += 1
            doc = augmented_document(ox.terms, hw_set)
            if dataset.sts_parts(location, doc, user) >= rsk[user.item_id]:
                luw.setdefault(w, set()).add(user.item_id)

    def recount(keywords: FrozenSet[int]) -> FrozenSet[int]:
        return compute_brstknn(dataset, ox, location, keywords, users, rsk)

    best_set: FrozenSet[int] = frozenset()
    best_users = recount(best_set)
    coverage_estimate = 0
    if luw:
        chosen, covered = greedy_max_coverage(luw, ws)
        coverage_estimate = len(covered)
        # The LUW lists are optimistic, and under length-normalized
        # measures a longer keyword set can score *worse*: every greedy
        # prefix is evaluated (the full set remains a candidate).
        for end in range(1, len(chosen) + 1):
            prefix = frozenset(chosen[:end])
            actual = recount(prefix)
            scored += 1
            if len(actual) > len(best_users):
                best_set, best_users = prefix, actual
    # Fallback pass: greedy on the *true* objective, only where the LUW
    # optimism demonstrably misled (skewed TF-IDF weights, heavily tied
    # KO), over the 2 * ws + 6 candidates with the largest LUW lists;
    # the better of the two greedy answers is returned.
    if luw and len(best_users) >= 0.8 * coverage_estimate:
        return best_set, best_users, scored
    ranked_pool = sorted(
        cand_set & {t for u in users for t in u.keyword_set},
        key=lambda t: (-len(luw.get(t, ())), t),
    )[: 2 * ws + 6]
    current: FrozenSet[int] = frozenset()
    current_users = recount(current)
    for _ in range(ws):
        step_set, step_users = None, current_users
        for w in ranked_pool:
            if w in current:
                continue
            trial = current | {w}
            winners = recount(trial)
            scored += 1
            if len(winners) > len(step_users):
                step_set, step_users = trial, winners
        if step_set is None:
            break
        current, current_users = step_set, step_users
    if len(current_users) > len(best_users):
        best_set, best_users = current, current_users
    return best_set, best_users, scored


def select_keywords_exact(
    dataset, ox, location, candidate_keywords, ws, users, rsk
) -> KeywordSelection:
    """Algorithm 4 at one location (sets of size up to ``ws`` of the
    useful candidates, as :mod:`repro.core.keyword_selection` states
    it), every decision one ``sts_parts`` call.

    Scoring is memoized: for a fixed location and combo size ``s``, a
    user's ``STS`` depends only on ``(combo ∩ u.d, s)`` — the other
    combo keywords contribute nothing but document length, which filler
    terms outside every ``u.d`` simulate exactly.  Each user has at most
    ``2^|W ∩ u.d| * ws`` reachable states, precomputed once, so the
    combinatorial loop reduces to set intersections and look-ups.  The
    memo also carries the *empty* matched subset per size — the user's
    fate under a combination sharing nothing with them — and per-size
    base counts replace lines 4.6–4.7's "always in" set, which LM's
    length normalization makes unsound.
    """
    def scan(evals) -> List[List[bool]]:
        """``STS(location, doc, u) >= RSk(u)`` per ``(doc, users)``."""
        return [
            [dataset.sts_parts(location, doc, u) >= rsk[u.item_id] for u in members]
            for doc, members in evals
        ]

    wu: Set[int] = set()
    for u in users:
        wu |= u.keyword_set
    useful = sorted(set(candidate_keywords) & wu)

    best_set: FrozenSet[int] = frozenset()
    bare = scan([(augmented_document(ox.terms, ()), users)])[0]
    best_users: FrozenSet[int] = frozenset(
        u.item_id for u, ok in zip(users, bare) if ok
    )
    scored = 1
    max_size = min(ws, len(useful))

    # won[user_index][(matched_subset, size)] -> bool.  Entries are
    # grouped by their (subset, size) document first: each distinct
    # padded document is built once for every user reaching that state.
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
            subsets += [sub + (t,) for sub in subsets]
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
    masks = scan(
        [(doc, [users[idx] for idx in indices]) for _, doc, indices in state_docs]
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
        for combo in itertools.combinations(useful, size):
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


def _selector(method: str):
    """The scalar keyword selector for ``method`` (a fresh per-query
    cache for the greedy one)."""
    if method == "approx":
        return partial(select_keywords_greedy, cache={})
    if method == "exact":
        return select_keywords_exact
    raise ValueError(f"unknown keyword-selection method {method!r}")


def search_shortlists(
    dataset, query, rsk, rsk_group, shortlists, *, method="approx", stats=None
) -> MaxBRSTkNNResult:
    """Algorithm 3's best-first search (the arguments of
    :func:`repro.core.candidate_selection.search_shortlists`), its queue
    popped location by location and scored with the scalar selectors."""
    select = _selector(method)
    stats = stats if stats is not None else QueryStats()
    # Max-priority queue on |LU_l| (Algorithm 3's QL).
    heap = [(-len(sl.users), idx, sl) for idx, sl in enumerate(shortlists)]
    heapq.heapify(heap)
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
            winners = compute_brstknn(
                dataset, query.ox, sl.location, frozenset(), sl.users, rsk
            )
            stats.keyword_combinations_scored += 1
            if len(winners) > len(best_users):
                best_location, best_keywords, best_users = sl.location, frozenset(), winners
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
        location=best_location, keywords=best_keywords, brstknn=best_users,
        stats=stats,
    )


def select_candidate(
    dataset, query, rsk, rsk_group=0.0, method="approx", super_user=None,
    users=None, stats=None,
) -> MaxBRSTkNNResult:
    """Algorithm 3: :func:`shortlist_locations` + :func:`search_shortlists`."""
    _selector(method)  # an unknown method fails before any work
    stats = stats if stats is not None else QueryStats()
    shortlists, pruned = shortlist_locations(
        dataset, query, rsk, rsk_group, super_user=super_user, users=users
    )
    stats.locations_pruned += pruned
    return search_shortlists(
        dataset, query, rsk, rsk_group, shortlists, method=method, stats=stats
    )


# ----------------------------------------------------------------------
# Section 7: users under the MIUR-tree
# ----------------------------------------------------------------------

def _node_rsk(
    candidates: Sequence[CandidateObject], bounds: BoundCalculator,
    summary: SuperUser, k: int,
) -> float:
    """``RSk(node)``: the k-th best canonical-candidate lower bound
    w.r.t. a node summary, one ``node_lower`` call per candidate."""
    lows = sorted(
        (bounds.node_lower(Rect.from_point(c.obj.location), c.weights, summary)
         for c in candidates),
        reverse=True,
    )
    return lows[k - 1] if len(lows) >= k else 0.0


@dataclass
class _LocationState:
    """One location's shortlist ``LU_l`` during the MIUR search: resolved
    users and whole user nodes."""

    location: Point
    entries: List[object]

    def user_count(self) -> int:
        return sum(
            e.user_count if isinstance(e, UserNodeView) else 1 for e in self.entries
        )

    def nodes(self) -> List[UserNodeView]:
        return [e for e in self.entries if isinstance(e, UserNodeView)]


def canonical_candidates(  # repro: identity-kernel
    traversal: JointTraversalResult, rsk_group: float
) -> CandidatePool:
    """The pool-independent candidate set at one ``k``.

    ``{o : UB(o, us) >= RSk_k(us)}``, read off any pool walked at
    ``walk_k >= k`` by filtering on the group upper bound.  The
    traversal only ever prunes entries whose upper bound is below its
    (monotone-increasing, hence final) threshold, so every object in
    this set survives *any* qualifying walk — the filtered set, and
    therefore every bound computed over it, is identical whether the
    pool came from a dedicated ``k``-walk or a shared ``k_max`` walk.
    This is what makes node-level ``RSk`` pruning (Section 7,
    :func:`indexed_search`) tie-break-stable under any qualifying walk:
    the k-th best node lower bound is an order statistic of a
    *canonical* multiset.
    Candidates are returned in a total, pool-independent order —
    (lower bound desc, object id asc) — so downstream consumers never
    see pool-dependent tie ordering.  The pool is filtered and ordered
    by array operations.
    """
    pool = traversal.pool
    kept = np.flatnonzero(pool.upper >= rsk_group)
    return pool.take(kept[np.lexsort((pool.ids[kept], -pool.lower[kept]))])


def indexed_search(
    user_tree, dataset, query, traversal, rsk_group, stats, method="approx",
    store=None,
) -> MaxBRSTkNNResult:
    """Section 7's best-first MIUR search (phase 2), pair by pair.

    Best-first over locations as Algorithm 3, except that a location's
    shortlist may hold whole user *nodes*, admitted by ``UBL(l, node) >=
    RSk(node)``: both sides bound every user below (``UBL(l, node) >=
    UBL(l, u)``, ``RSk(node) <= RSk(u)``), so a failed test prunes the
    subtree without resolving any user's top-k.  ``RSk(node)`` is the
    k-th best lower bound w.r.t. the node's summary over the
    **canonical** candidate set of ``traversal`` (any walk at ``k >=
    query.k``), so every decision is the same whichever qualifying walk
    kept the pool.  Expanding a node resolves its leaf users' ``RSk(u)``
    by Algorithm 2.  ``stats`` arrives primed with the phase-1 fields;
    the search adds its selection counters, its I/O and
    ``users_pruned`` — the users whose top-k was never resolved, Figure
    15's metric.
    """
    select = _selector(method)
    bounds = BoundCalculator(dataset)
    canonical = canonical_candidates(traversal, rsk_group)
    counter = store.counter if store is not None else None
    before = counter.snapshot() if counter is not None else None
    t0 = time.perf_counter()
    ox, keywords, ws = query.ox, query.keywords, query.ws

    rsk: Dict[int, float] = {}  # resolved users' exact RSk(u)
    node_rsk: Dict[int, float] = {}  # by page id

    def admits(loc, entry) -> bool:
        if isinstance(entry, UserNodeView):
            if entry.page_id not in node_rsk:
                node_rsk[entry.page_id] = _node_rsk(
                    canonical, bounds, entry.summary, query.k
                )
            ub = bounds.location_upper_group(loc, ox, keywords, ws, entry.summary)
            return ub >= node_rsk[entry.page_id]
        return bounds.location_upper_user(loc, ox, keywords, ws, entry) >= rsk[entry.item_id]

    # Every location starts from the root, once the group bound keeps it.
    root = user_tree.root
    states: List[_LocationState] = []
    for loc in query.locations:
        if bounds.location_upper_group(loc, ox, keywords, ws, root.summary) < rsk_group:
            stats.locations_pruned += 1
        else:
            states.append(_LocationState(loc, [root]))
    order = itertools.count()
    heap = [(-st.user_count(), next(order), st) for st in states]
    heapq.heapify(heap)

    best_location, best_keywords, best_users = None, frozenset(), frozenset()
    while heap:
        neg_count, _, st = heapq.heappop(heap)
        if -neg_count <= len(best_users):
            break  # no shortlist left can beat the best answer
        nodes = st.nodes()
        if nodes:
            # Expand the node with the most users below it, and refresh
            # every state holding it, so each node is read at most once.
            node = max(nodes, key=lambda v: v.user_count)
            child_views, leaf_users = user_tree.read_children(node, store)
            fresh = [u for u in leaf_users if u.item_id not in rsk]
            if fresh:
                got = individual_topk(traversal, dataset, query.k, users=fresh)
                rsk.update(got.rsk(query.k).items())
            replacements = list(child_views) + list(leaf_users)
            for other in states:
                if any(e.page_id == node.page_id for e in other.nodes()):
                    other.entries = [
                        e for e in other.entries
                        if not (isinstance(e, UserNodeView) and e.page_id == node.page_id)
                    ] + [r for r in replacements if admits(other.location, r)]
            heapq.heappush(heap, (-st.user_count(), next(order), st))
            continue
        if not st.entries:
            continue
        chosen, winners, scored = select(
            dataset, ox, st.location, keywords, ws, st.entries, rsk
        )
        stats.keyword_combinations_scored += scored
        if len(winners) > len(best_users):
            best_location, best_keywords, best_users = st.location, chosen, winners

    stats.users_pruned = stats.users_total - len(rsk)
    stats.selection_time_s = time.perf_counter() - t0
    if counter is not None:
        delta = counter.snapshot() - before
        stats.io_node_visits += delta.node_visits
        stats.io_invfile_blocks += delta.invfile_blocks
    if best_location is None and query.locations:
        best_location = query.locations[0]
    return MaxBRSTkNNResult(
        location=best_location, keywords=best_keywords, brstknn=best_users,
        stats=stats,
    )


def indexed_users_maxbrstknn(
    object_tree, user_tree, dataset, query, method="approx", store=None
) -> MaxBRSTkNNResult:
    """A cold Section 7 query: the scalar walk against the MIUR-tree
    root summary, then :func:`indexed_search`."""
    counter = store.counter if store is not None else None
    before = counter.snapshot() if counter is not None else None
    t0 = time.perf_counter()
    traversal = joint_traversal(
        object_tree, dataset, query.k, super_user=user_tree.root.summary, store=store
    )
    stats = QueryStats(users_total=len(user_tree), topk_time_s=time.perf_counter() - t0)
    if counter is not None:
        delta = counter.snapshot() - before
        stats.io_node_visits = delta.node_visits
        stats.io_invfile_blocks = delta.invfile_blocks
    return indexed_search(
        user_tree, dataset, query, traversal, traversal.rsk_group, stats,
        method=method, store=store,
    )


# ----------------------------------------------------------------------
# One whole query
# ----------------------------------------------------------------------

def query(
    engine, query: MaxBRSTkNNQuery, options: Optional[QueryOptions] = None
) -> MaxBRSTkNNResult:
    """The cold, sequential, all-scalar answer to ``query`` on ``engine``
    (a :class:`~repro.core.engine.MaxBRSTkNNEngine`): what
    ``engine.query(query, options)`` must return, stats included, with
    the simulated I/O charged to ``engine``'s page store.
    ``Mode.BASELINE`` is scalar in the engine too and runs as such."""
    opts = coerce_options(options, api="repro.oracle.query")
    plan = plan_query(opts, engine.capabilities(), k=query.k)
    dataset, store, method = engine.dataset, engine.store, plan.method.value
    if plan.mode is Mode.BASELINE:
        return baseline_maxbrstknn(engine.object_tree, dataset, query, store=store)
    stats = QueryStats(users_total=len(dataset.users))
    before = engine.io.snapshot()
    t0 = time.perf_counter()
    traversal = joint_traversal(engine.object_tree, dataset, query.k, store=store)
    table = individual_topk(traversal, dataset, query.k)
    stats.topk_time_s = time.perf_counter() - t0
    delta = engine.io.snapshot() - before
    stats.io_node_visits = delta.node_visits
    stats.io_invfile_blocks = delta.invfile_blocks
    t1 = time.perf_counter()
    result = select_candidate(
        dataset, query, table.rsk(query.k), rsk_group=traversal.rsk_group,
        method=method, stats=stats,
    )
    stats.selection_time_s = time.perf_counter() - t1
    result.stats = stats
    return result
