"""Algorithm 3's location-batched selection kernels against their oracle.

The engine evaluates a query's candidate locations as rows of one
matrix (``repro.core.kernels.SelectionContext``,
``keyword_selection.select_greedy_block`` /
``keyword_selection.select_exact_block``,
``candidate_selection._search_rounds``); :mod:`repro.oracle` scores
pair by pair, location by location.  Everything here
compares the two with ``==`` — keyword sets, winner sets, the
``scored`` / ``keyword_combinations_scored`` counters, the pruned
count — for both selectors, on drawn instances whose thresholds are
*planted ties* (``RSk(u)`` set to the very float some evaluated ``STS``
/ ``UBL`` produces), so the guard band's scalar re-check is exercised,
not just present.  The last classes seed mutants the properties must
catch.
"""

import contextlib
import inspect
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, MaxBRSTkNNQuery, oracle
from repro.core import candidate_selection, keyword_selection, kernels
from repro.core.bounds import (
    BoundCalculator, augmented_document, candidate_term_weight,
)
from repro.core.candidate_selection import (
    LocationShortlist, search_shortlists, select_candidate, shortlist_locations,
)
from repro.core.kernels import SelectionContext, arrays_for
from repro.core.keyword_selection import select_greedy_block, select_keywords_greedy
from repro.core.query import QueryStats
from repro.model.objects import STObject
from repro.oracle import _hw_entries
from repro.spatial.geometry import Point
from repro.spatial.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN

from ..conftest import make_random_objects, make_random_users

MEASURES = ["LM", "TF", "KO"]
#: The weights of the spatial half drawn: both ends (text only, space
#: only) and two mixes.
ALPHAS = [0.0, 0.3, 0.5, 1.0]
#: L1, L2 and L-infinity.
METRICS = [MANHATTAN, EUCLIDEAN, CHEBYSHEV]


class Case(NamedTuple):
    ds: Dataset
    query: MaxBRSTkNNQuery
    rsk: dict
    rng: random.Random


def build_case(
    seed, measure="LM", ws=2, ox_terms=False, wide=False, n_locations=6, plant="mixed",
    alpha=0.5, metric=EUCLIDEAN,
):
    """One selection problem under ``alpha`` and ``metric``.  ``wide``:
    |W| = 100 candidates of which more than 62 are held by some user.
    The candidate list always carries two terms no user holds.

    Thresholds (``plant="mixed"``) mix the realistic (k-th best object
    score), the extreme (0 — won by everyone; 2 — out of reach) and
    planted exact ties with an ``STS`` or ``UBL`` the selection is going
    to evaluate.  ``plant="hw"`` puts *every* user's threshold on one of
    their own ``HW_{w,u}`` scores at the first location: the LUW lists
    then promise users the greedy prefixes do not deliver, which is what
    sends Section 6.2.1 into its fallback pass.  Every planted tie is
    computed by the dataset itself, so it sits on the drawn ``alpha``
    and metric."""
    rng = random.Random(seed)
    vocab = 100 if wide else 14
    objects = make_random_objects(40, vocab, rng)
    users = make_random_users(60 if wide else 14, vocab, rng)
    ds = Dataset(objects, users, relevance=measure, alpha=alpha, metric=metric)
    ox = STObject(
        item_id=-1,
        location=Point(5, 5),
        terms={t: rng.randint(1, 2) for t in rng.sample(range(vocab), 3)} if ox_terms else {},
    )
    held = sorted(range(vocab) if wide else rng.sample(range(vocab), 9))
    candidates = held + [vocab + 100, vocab + 101]
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n_locations)]
    query = MaxBRSTkNNQuery(ox=ox, locations=locations, keywords=candidates, ws=ws, k=3)

    rel, bounds = ds.relevance, BoundCalculator(ds)
    weight = {t: candidate_term_weight(rel, ox.terms, t) for t in candidates}
    rsk = {}
    for u in users:
        loc = locations[0] if plant == "hw" else rng.choice(locations)
        entries = _hw_entries(u, set(candidates), weight, query.ws)
        kind = plant if plant == "hw" else rng.choice(
            ["kth", "kth", "zero", "far", "base", "hw", "ubl"]
        )
        if kind == "hw" and not entries:
            kind = "far" if plant == "hw" else "base"
        if kind == "kth":
            value = sorted((ds.sts(o, u) for o in objects), reverse=True)[2]
        elif kind == "zero":
            value = 0.0
        elif kind == "far":
            value = 2.0
        elif kind == "base":
            value = ds.sts_parts(loc, ox.terms, u)
        elif kind == "hw":
            hw_set, _w = rng.choice(entries)
            value = ds.sts_parts(loc, augmented_document(ox.terms, hw_set), u)
        else:
            value = bounds.location_upper_user(loc, ox, candidates, query.ws, u)
        rsk[u.item_id] = value
    return Case(ds, query, rsk, rng)


def answer(result):
    return (
        result.location, result.keywords, result.brstknn,
        result.stats.keyword_combinations_scored, result.stats.locations_pruned,
    )


def query_answers(case, rsk_group=0.0, method="approx"):
    """``select_candidate``, engine then oracle: the per-query ``==``
    tuple."""
    return [
        answer(select(
            case.ds, case.query, case.rsk, rsk_group=rsk_group, method=method,
            stats=QueryStats(),
        ))
        for select in (select_candidate, oracle.select_candidate)
    ]


def location_answers(case, subsets):
    """``select_keywords_greedy`` at every location over that location's
    user subset: the engine through ONE stored keyword side (built at
    the first location, read at the rest), the oracle fresh each time.
    The per-location ``==`` triples."""
    q = case.query
    got, want = [], []
    for loc, users in zip(q.locations, subsets):
        args = (case.ds, q.ox, loc, q.keywords, q.ws, users, case.rsk)
        got.append(select_keywords_greedy(*args))
        want.append(oracle.select_keywords_greedy(*args))
    return got, want


def exact_block_answers(case, subsets):
    """``select_exact_block`` over every location at once, each with its
    own user subset, against ``oracle.select_keywords_exact`` location
    by location; the bare ``ox.d`` recount rides along, against
    ``oracle.compute_brstknn``.  The per-location ``==`` tuples."""
    ds, q = case.ds, case.query
    arrays = arrays_for(ds)
    block = keyword_selection.select_exact_block(
        SelectionContext(arrays, q.ox, q.keywords, q.ws), q.locations,
        arrays.membership([arrays.rows_for(users) for users in subsets]), case.rsk,
    )
    ids = arrays.user_ids
    got = [
        (block.keywords[l], frozenset(ids[block.won[l]].tolist()), block.scored[l],
         frozenset(ids[block.base[l]].tolist()), block.counts[l], block.base_counts[l])
        for l in range(len(q.locations))
    ]
    want = []
    for loc, users in zip(q.locations, subsets):
        keywords, won, scored = oracle.select_keywords_exact(
            ds, q.ox, loc, q.keywords, q.ws, users, case.rsk
        )
        base = oracle.compute_brstknn(ds, q.ox, loc, (), users, case.rsk)
        want.append((keywords, won, scored, base, len(won), len(base)))
    return got, want


@contextlib.contextmanager
def exact_rows(rows):
    """``keyword_selection.EXACT_ROWS`` at ``rows`` while inside."""
    saved = keyword_selection.EXACT_ROWS
    keyword_selection.EXACT_ROWS = rows
    try:
        yield
    finally:
        keyword_selection.EXACT_ROWS = saved


def exact_ws(ws, wide):
    """``ws`` capped at 1 on ``wide`` cases: at 2 or 3, Algorithm 4
    recounts thousands of sets a location there."""
    return min(ws, 1) if wide else ws


def draw_subsets(case, data):
    """A user subset per location: any, empty, or a single user."""
    users = case.ds.users
    return [
        data.draw(st.one_of(
            st.just(list(users)),
            st.just([]),
            st.sampled_from(users).map(lambda u: [u]),
            st.sets(st.sampled_from(range(len(users)))).map(
                lambda picked: [u for i, u in enumerate(users) if i in picked]
            ),
        ))
        for _ in case.query.locations
    ]


def seeded_subsets(case):
    users, rng = case.ds.users, case.rng
    return [
        [u for u in users if rng.random() < rng.choice([0.0, 0.3, 0.7, 1.0])]
        for _ in case.query.locations
    ]


# ----------------------------------------------------------------------
# Properties: engine == oracle
# ----------------------------------------------------------------------

class TestKernelEqualsOracle:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        ox_terms=st.booleans(),
        wide=st.booleans(),
        plant=st.sampled_from(["mixed", "hw"]),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_location_selection(
        self, seed, measure, ws, ox_terms, wide, plant, alpha, metric, data
    ):
        case = build_case(
            seed, measure, ws, ox_terms, wide, plant=plant, alpha=alpha, metric=metric
        )
        got, want = location_answers(case, draw_subsets(case, data))
        assert got == want

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        ox_terms=st.booleans(),
        wide=st.booleans(),
        plant=st.sampled_from(["mixed", "hw"]),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
        rows=st.sampled_from([3, keyword_selection.EXACT_ROWS]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_location_exact_selection(
        self, seed, measure, ws, ox_terms, wide, plant, alpha, metric, rows, data
    ):
        """Algorithm 4 over a block of locations, its recount rows going
        3 at a time (a location's sets split across calls) or
        ``EXACT_ROWS`` at a time: each location's answer, ``scored``
        and bare recount are the scalar selector's there."""
        case = build_case(
            seed, measure, exact_ws(ws, wide), ox_terms, wide, plant=plant,
            alpha=alpha, metric=metric,
        )
        with exact_rows(rows):
            got, want = exact_block_answers(case, draw_subsets(case, data))
        assert got == want

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        ox_terms=st.booleans(),
        wide=st.booleans(),
        plant=st.sampled_from(["mixed", "hw"]),
        group=st.sampled_from(["off", "low", "min"]),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
        method=st.sampled_from(["approx", "exact"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_query_answer_and_counters(
        self, seed, measure, ws, ox_terms, wide, plant, group, alpha, metric, method
    ):
        """``rsk_group`` off (0), low (the keyword-free acceptance path
        opens: ``lower_group >= rsk_group > 0``) or ``min RSk(u)``
        (locations get pruned), either selector."""
        if method == "exact":
            ws = exact_ws(ws, wide)
        case = build_case(
            seed, measure, ws, ox_terms, wide, plant=plant, alpha=alpha, metric=metric
        )
        rsk_group = {"off": 0.0, "low": 0.02, "min": min(case.rsk.values())}[group]
        got, want = query_answers(case, rsk_group, method)
        assert got == want

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        accept=st.booleans(),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
        method=st.sampled_from(["approx", "exact"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_search_over_hand_built_shortlists(
        self, seed, measure, ws, accept, alpha, metric, method, data
    ):
        """Shortlists that differ per location, are empty or hold one
        user, carry no array rows, and (``accept``) open the
        keyword-free acceptance path at every location."""
        case = build_case(seed, measure, ws, alpha=alpha, metric=metric)
        shortlists = [
            LocationShortlist(
                location=loc, users=users, upper_group=1.0,
                lower_group=1.0 if accept else 0.0, index=i,
            )
            for i, (loc, users) in enumerate(
                zip(case.query.locations, draw_subsets(case, data))
            )
        ]
        got, want = [
            answer(search(
                case.ds, case.query, case.rsk, 0.5, shortlists, method=method,
                stats=QueryStats(),
            ))
            for search in (search_shortlists, oracle.search_shortlists)
        ]
        assert got == want

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        wide=st.booleans(),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
    )
    @settings(max_examples=40, deadline=None)
    def test_locations_at_once_equal_one_by_one(self, seed, measure, ws, wide, alpha, metric):
        case = build_case(seed, measure, ws, wide=wide, alpha=alpha, metric=metric)
        ds, q = case.ds, case.query
        arrays = arrays_for(ds)
        rows = [arrays.rows_for(users) for users in seeded_subsets(case)]
        at_once = select_greedy_block(
            SelectionContext(arrays, q.ox, q.keywords, q.ws), q.locations,
            arrays.membership(rows), case.rsk,
        )
        single = SelectionContext(arrays, q.ox, q.keywords, q.ws)
        for l, (loc, r) in enumerate(zip(q.locations, rows)):
            one = select_greedy_block(single, [loc], arrays.membership([r]), case.rsk)
            assert one.keywords[0] == at_once.keywords[l]
            assert one.scored[0] == at_once.scored[l]
            assert (one.won[0] == at_once.won[l]).all()
            assert (one.base[0] == at_once.base[l]).all()
            assert (one.counts[0], one.base_counts[0]) == (
                at_once.counts[l], at_once.base_counts[l]
            )

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        ox_terms=st.booleans(),
        wide=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pair_table_is_hw_entries(self, seed, measure, ws, ox_terms, wide):
        """The vectorised table lists the ``(user, w, HW_{w,u})`` triples
        ``_hw_entries`` lists user by user — KO's all-equal optimistic
        weights make every rank a tie broken by term id."""
        case = build_case(seed, measure, ws, ox_terms, wide)
        ds, q = case.ds, case.query
        arrays = arrays_for(ds)
        table = SelectionContext(arrays, q.ox, q.keywords, q.ws).side.pairs()
        got = sorted(
            (int(arrays.user_ids[r]), table.terms[k], sorted(table.hw[d]))
            for r, k, d in zip(table.row.tolist(), table.key.tolist(), table.doc.tolist())
        )
        weight = {
            t: candidate_term_weight(ds.relevance, q.ox.terms, t) for t in q.keywords
        }
        want = sorted(
            (u.item_id, w, sorted(hw_set))
            for u in ds.users
            for hw_set, w in _hw_entries(u, set(q.keywords), weight, q.ws)
        )
        assert got == want
        assert len(set(map(frozenset, (hw for _, _, hw in want)))) == len(table.hw)


def test_wide_case_holds_more_candidates_than_an_int64_has_bits():
    """The ``wide`` cases above really hold a candidate table wider than
    any one-word bit set of the keys could be."""
    case = build_case(1, wide=True)
    q = case.query
    ctx = SelectionContext(arrays_for(case.ds), q.ox, q.keywords, q.ws)
    assert len(ctx.side.pairs().terms) > 64


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_distinct_rows_are_np_unique_rows(width):
    """The pair table's and the prefixes' de-duplication is
    ``np.unique(axis=0, return_inverse=True)``, rows and labels alike."""
    rng = np.random.default_rng(width)
    keys = rng.integers(0, 4, size=(300, width))
    keys[100:200] = keys[:100]  # guaranteed repeats
    rows, ids = kernels._distinct_rows(keys)
    want_rows, want_ids = np.unique(keys, axis=0, return_inverse=True)
    assert rows.tolist() == want_rows.tolist()
    assert ids.tolist() == want_ids.reshape(-1).tolist()


@pytest.mark.parametrize("users", [0, 1, 400, 70_000])
def test_row_counts_are_exact(users):
    """Counts (and weighted counts, past the ``float32`` bound) as one
    product are the integer sums, to the unit."""
    rng = np.random.default_rng(users)
    mask = rng.random((5, users)) < 0.7
    weights = rng.integers(0, 300, size=users)
    assert kernels._row_counts(mask).tolist() == mask.sum(axis=1).tolist()
    assert kernels._row_counts(mask, weights).tolist() == (mask @ weights).tolist()


@pytest.mark.parametrize("alpha", ALPHAS)
def test_band_holds_every_entry_within_guard_eps_of_the_threshold(alpha):
    """``_banded`` in ``STS`` units at every alpha: entries of ``alpha *
    SS`` strictly within ``GUARD_EPS`` of ``θ`` reach the scalar
    decision, the rest are decided by the comparison alone; a
    ``where`` row asks only its members."""
    eps = kernels.GUARD_EPS
    theta = np.array([0.25, 0.5, 0.75])
    offsets = np.array([-2 * eps, -0.5 * eps, 0.0, 0.5 * eps, 2 * eps])
    scores = alpha * 0.5 + offsets[:, None] + (theta - alpha * 0.5)  # 5 x 3
    asked = []
    passed = kernels._banded(
        scores, [(0, 5, (theta - eps, theta + eps))],
        lambda i, j: asked.append((i, j)) or j == 0,
    )
    inside = np.abs(scores - theta) < eps
    assert sorted(asked) == sorted(map(tuple, np.argwhere(inside).tolist()))
    outside = ~inside
    assert (passed[outside] == (scores >= theta)[outside]).all()
    assert (passed[inside] == (np.arange(3) == 0)[None, :].repeat(5, 0)[inside]).all()

    asked.clear()
    where = (np.array([2]), np.array([[False, True, False]]))
    masked = kernels._banded(
        scores, [(0, 5, (theta - eps, theta + eps))], lambda i, j: asked.append((i, j)) or True,
        where,
    )
    assert (2, 0) not in asked and (2, 2) not in asked and (2, 1) in asked
    assert not masked[2, 0] and not masked[2, 2]


# ----------------------------------------------------------------------
# Named paths
# ----------------------------------------------------------------------

class TestFallbackPass:
    """Section 6.2.1's second greedy, on the true objective: it runs when
    no LUW list exists or the best prefix wins less than 0.8 of the
    coverage estimate — seen here as recount calls beyond the block's one."""

    def run(self, case, monkeypatch):
        recounts, estimates = [], []
        recount, cover = SelectionContext.recount, SelectionContext.cover
        monkeypatch.setattr(
            SelectionContext, "recount",
            lambda self, *args: recounts.append(1) or recount(self, *args),
        )
        monkeypatch.setattr(
            SelectionContext, "cover",
            lambda self, passed: estimates.append(cover(self, passed)) or estimates[-1],
        )
        q, loc = case.query, case.query.locations[0]
        args = (case.ds, q.ox, loc, q.keywords, q.ws, case.ds.users, case.rsk)
        got = select_keywords_greedy(*args)
        assert got == oracle.select_keywords_greedy(*args)
        return len(recounts) - 1, int(estimates[0][1][0])

    @pytest.mark.parametrize("seed", range(6))
    def test_fires_when_luw_optimism_misleads(self, seed, monkeypatch):
        """TF-IDF's skewed weights, ``ws = 3``, thresholds on HW scores:
        a coverage estimate the prefixes fall well short of, then one
        recount call per fallback step."""
        steps, estimate = self.run(
            build_case(seed, "TF", 3, ox_terms=True, plant="hw"), monkeypatch
        )
        assert estimate > 0 and steps > 1

    def test_fires_when_there_is_no_luw_list(self, monkeypatch):
        case = build_case(2, "TF", 2)
        case.rsk.update({uid: 2.0 for uid in case.rsk})  # nobody reachable
        steps, estimate = self.run(case, monkeypatch)
        assert estimate == 0 and steps == 1  # one round of trials, none wins

    def test_does_not_fire_when_prefixes_deliver(self, monkeypatch):
        case = build_case(3, "LM", 2)
        case.rsk.update({uid: 0.0 for uid in case.rsk})  # everyone wins anyway
        steps, estimate = self.run(case, monkeypatch)
        assert estimate > 0 and steps == 0


class TestEarlyTermination:
    def shortlists(self, case):
        users = case.ds.users
        sizes = [len(users), 5, 5, 3, 2, 0]
        return [
            LocationShortlist(
                location=loc, users=users[:n], upper_group=1.0, lower_group=0.0, index=i
            )
            for i, (loc, n) in enumerate(zip(case.query.locations, sizes))
        ]

    @pytest.mark.parametrize("block", [1, 4, 32])
    def test_line_3_10_stops_counting_and_stops_work(self, block, monkeypatch):
        """Every user wins everywhere, so the first location popped (the
        longest shortlist) takes them all: no other ``|LU_l|`` beats the
        incumbent, nothing else is counted — and with a block of one,
        nothing else is computed."""
        case = build_case(5, "LM", 2)
        case.rsk.update({uid: 0.0 for uid in case.rsk})
        shortlists = self.shortlists(case)
        first = oracle.select_keywords_greedy(
            case.ds, case.query.ox, shortlists[0].location, case.query.keywords,
            case.query.ws, shortlists[0].users, case.rsk,
        )
        want = oracle.search_shortlists(
            case.ds, case.query, case.rsk, 0.0, shortlists, stats=QueryStats(),
        )
        assert want.stats.keyword_combinations_scored == first[2]

        monkeypatch.setattr(candidate_selection, "LOCATION_BLOCK", block)
        evaluated = []
        original = candidate_selection.select_greedy_block
        monkeypatch.setattr(
            candidate_selection, "select_greedy_block",
            lambda ctx, locations, rows, rsk: evaluated.append(len(locations))
            or original(ctx, locations, rows, rsk),
        )
        got = search_shortlists(
            case.ds, case.query, case.rsk, 0.0, shortlists, stats=QueryStats(),
        )
        assert answer(got) == answer(want)
        assert evaluated == [min(block, len(shortlists))]

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(0, 3),
        alpha=st.sampled_from(ALPHAS),
        metric=st.sampled_from(METRICS),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_size_never_changes_the_answer(self, seed, measure, ws, alpha, metric):
        case = build_case(seed, measure, ws, n_locations=9, alpha=alpha, metric=metric)
        answers = []
        for block in (1, 4, 32):
            saved = candidate_selection.LOCATION_BLOCK
            candidate_selection.LOCATION_BLOCK = block
            try:
                answers.append(query_answers(case, 0.02)[0])
            finally:
                candidate_selection.LOCATION_BLOCK = saved
        assert answers[0] == answers[1] == answers[2] == query_answers(case, 0.02)[1]


def test_keyword_free_acceptance_path(monkeypatch):
    """``rsk_group > 0`` and ``lower_group >= rsk_group``: the bare
    ``ox.d`` recount is counted (+1), and where it wins the whole
    shortlist the location's selection is skipped — not counted."""
    case = build_case(11, "LM", 2)
    case.rsk.update({uid: 0.0 for uid in case.rsk})
    users = case.ds.users
    shortlists = [
        LocationShortlist(
            location=loc, users=users[: len(users) - i], upper_group=1.0,
            lower_group=0.9, index=i,
        )
        for i, loc in enumerate(case.query.locations)
    ]
    got, want = [
        search(case.ds, case.query, case.rsk, 0.5, shortlists, stats=QueryStats())
        for search in (search_shortlists, oracle.search_shortlists)
    ]
    assert answer(got) == answer(want)
    assert got.keywords == frozenset() and len(got.brstknn) == len(users)
    assert got.stats.keyword_combinations_scored == 1


def test_exact_ties_at_one_location_of_several(monkeypatch):
    """``STS == RSk(u)`` for one HW pair and one recount, ``UBL == RSk(u)``
    for one shortlist row — all at the middle location of three.  The
    2-D band hands exactly those entries to the scalar path: the tied
    users, at that location, nowhere else; admitted on the tie
    (``>=``), rejected one ulp above it."""
    rng = random.Random(23)
    ds = Dataset(
        make_random_objects(50, 20, rng), make_random_users(12, 20, rng),
        relevance="LM", alpha=0.5,
    )
    bounds = BoundCalculator(ds)
    ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 1})
    candidates = sorted(rng.sample(range(20), 8))
    locations, ws = [Point(1, 2), Point(4, 6), Point(8, 3)], 1
    tied = locations[1]
    query = MaxBRSTkNNQuery(ox=ox, locations=locations, keywords=candidates, ws=ws, k=1)
    by_pairs = sorted(ds.users, key=lambda u: -len(set(candidates) & u.keyword_set))
    pair_user, recount_user, bound_user = by_pairs[:3]
    w = min(set(candidates) & pair_user.keyword_set)
    exact = {
        pair_user.item_id: ds.sts_parts(tied, augmented_document(ox.terms, {w}), pair_user),
        recount_user.item_id: ds.sts_parts(tied, ox.terms, recount_user),
        bound_user.item_id: bounds.location_upper_user(tied, ox, candidates, ws, bound_user),
    }

    rescored = []
    scalar_sts, scalar_ubl = ds.sts_parts, BoundCalculator.location_upper_user
    monkeypatch.setattr(
        ds, "sts_parts",
        lambda l, doc, u: rescored.append((l, u.item_id)) or scalar_sts(l, doc, u),
    )
    monkeypatch.setattr(
        BoundCalculator, "location_upper_user",
        lambda self, l, o, c, n, u: rescored.append((l, u.item_id))
        or scalar_ubl(self, l, o, c, n, u),
    )
    everyone = [
        LocationShortlist(location=loc, users=list(ds.users), upper_group=1.0,
                          lower_group=0.0, index=i)
        for i, loc in enumerate(locations)
    ]
    for bump, admitted in ((lambda x: x, True), (lambda x: math.nextafter(x, 2.0), False)):
        rsk = {u.item_id: 2.0 for u in ds.users}  # out of reach: never banded
        rsk.update({uid: bump(score) for uid, score in exact.items()})
        want = oracle.search_shortlists(
            ds, query, rsk, 0.0, everyone, stats=QueryStats()
        )
        del rescored[:]
        got = search_shortlists(
            ds, query, rsk, 0.0, everyone, stats=QueryStats()
        )
        assert answer(got) == answer(want)
        assert set(rescored) == {(tied, pair_user.item_id), (tied, recount_user.item_id)}
        assert ({pair_user.item_id, recount_user.item_id} <= got.brstknn) == admitted

        lists_py, _ = oracle.shortlist_locations(ds, query, rsk, 0.0)
        del rescored[:]
        lists_np, _ = shortlist_locations(ds, query, rsk, 0.0)
        assert [[u.item_id for u in sl.users] for sl in lists_np] == [
            [u.item_id for u in sl.users] for sl in lists_py
        ]
        assert rescored == [(tied, bound_user.item_id)]  # the one banded entry
        assert (bound_user in lists_np[1].users) == admitted


# ----------------------------------------------------------------------
# Seeded mutants: the properties have teeth
# ----------------------------------------------------------------------

def seeded_cases(exact=False):
    """36 cases: every (alpha, metric) pair three times over (``exact``:
    ``ws`` as :func:`exact_ws` caps it)."""
    for seed in range(36):
        ws, wide = 1 + seed % 3, seed % 4 == 3
        yield build_case(
            seed, MEASURES[seed % 3], ws=exact_ws(ws, wide) if exact else ws,
            ox_terms=bool(seed % 2), wide=wide, plant="hw" if seed % 5 == 4 else "mixed",
            alpha=ALPHAS[(seed + seed // 4) % 4], metric=METRICS[seed // 12 % 3],
        )


def mismatches():
    """Seeded cases on which some engine answer differs from the oracle's."""
    bad = 0
    for case in seeded_cases():
        got, want = location_answers(case, seeded_subsets(case))
        bad += got != want or len(set(query_answers(case, 0.02))) > 1
    return bad


class TestMutantsAreCaught:
    def test_unmutated_kernel_is_clean(self):
        assert mismatches() == 0

    def test_argmax_in_weight_order(self, monkeypatch):
        """Greedy ties broken in ``(-optimistic weight, term)`` order —
        the order HW sets rank candidates by — instead of ascending term
        id, ``repro.oracle.greedy_max_coverage``'s."""

        def cover(self, passed):
            t = self.side.pairs()
            rel = self.arrays.dataset.relevance
            order = np.array(sorted(
                range(len(t.terms)),
                key=lambda k: (
                    -candidate_term_weight(rel, self.ox.terms, t.terms[k]), t.terms[k]
                ),
            ), dtype=np.intp)
            lanes = np.arange(len(passed))
            chosen = np.full((len(passed), max(self.ws, 0)), -1, dtype=np.intp)
            coverage = np.zeros(len(passed), dtype=np.intp)
            covered = np.zeros((len(passed), self.arrays.num_users), dtype=bool)
            padded = np.concatenate(
                (passed, np.zeros((len(passed), 1), dtype=bool)), axis=1
            )
            for step in range(self.ws if passed.any() else 0):
                fresh = passed & ~covered[:, t.row]
                gains = fresh.astype(np.float32) @ t.onehot
                pick = order[gains[:, order].argmax(axis=1)]  # the mutation
                gain = gains[lanes, pick].astype(np.intp)
                pick[gain == 0] = -1
                chosen[:, step] = pick
                coverage += gain
                covered |= np.take_along_axis(padded, t.pair_of[pick], axis=1)
            return chosen, coverage

        monkeypatch.setattr(SelectionContext, "cover", cover)
        assert mismatches()

    def test_membership_mask_dropped_from_the_pair_pass(self, monkeypatch):
        original = SelectionContext.luw
        monkeypatch.setattr(
            SelectionContext, "luw",
            lambda self, member: original(self, np.ones_like(member)),
        )
        assert mismatches()

    def test_strict_greater_than(self, monkeypatch):
        def wins(self, l, keywords, row):
            ds = self.arrays.dataset
            doc = augmented_document(self.ox.terms, keywords)
            return ds.sts_parts(self.locations[l], doc, ds.users[row]) > self.rsk[row]

        monkeypatch.setattr(SelectionContext, "_wins", wins)
        assert mismatches()


def exact_mismatches():
    """Seeded cases on which ``select_exact_block`` differs from the
    scalar Algorithm 4 somewhere, or an exact query from the oracle's."""
    bad = 0
    for case in seeded_cases(exact=True):
        got, want = exact_block_answers(case, seeded_subsets(case))
        bad += got != want or len(set(query_answers(case, 0.02, "exact"))) > 1
    return bad


def mutate(monkeypatch, old, new):
    """``select_exact_block`` rebuilt from its source with ``old``
    replaced by ``new``, installed where the engine and the tests above
    look it up."""
    source = inspect.getsource(keyword_selection.select_exact_block)
    assert source.count(old) == 1
    namespace = dict(vars(keyword_selection))
    exec("from __future__ import annotations\n" + source.replace(old, new), namespace)
    for module in (keyword_selection, candidate_selection):
        monkeypatch.setattr(module, "select_exact_block", namespace["select_exact_block"])


class TestExactMutantsAreCaught:
    def test_unmutated_exact_kernel_is_clean(self):
        assert exact_mismatches() == 0

    def test_last_maximum_wins(self, monkeypatch):
        """Ties to the latest row (a combination tying the bare count
        replaces it) instead of the first maximum."""
        mutate(monkeypatch, "(span - 1 - pos[rows])", "pos[rows]")
        assert exact_mismatches()

    def test_combinations_of_all_of_w(self, monkeypatch):
        """Every candidate some user holds, not only ``LU_l``'s: the
        same winners, more sets scored."""
        mutate(
            monkeypatch, "useful = (member.astype(np.float32) @ holders) > 0",
            "useful = np.ones((n, len(terms)), dtype=bool)",
        )
        assert exact_mismatches()
