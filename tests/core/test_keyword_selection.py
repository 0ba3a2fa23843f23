"""Tests for greedy and exact keyword selection (Section 6.2)."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, oracle
from repro.core.joint_topk import joint_topk
from repro.core.keyword_selection import (
    compute_brstknn,
    select_keywords_exact,
    select_keywords_greedy,
)
from repro.oracle import greedy_max_coverage
from repro.index.irtree import MIRTree
from repro.model.objects import STObject
from repro.spatial.geometry import Point

from ..conftest import make_random_objects, make_random_users


def build_selection_problem(seed, n_obj=70, n_users=14, vocab=14, k=5):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    tree = MIRTree(objects, ds.relevance, fanout=4)
    topk = joint_topk(tree, ds, k)
    rsk = {uid: r.kth_score for uid, r in topk.items()}
    ox = STObject(item_id=-1, location=Point(5, 5), terms={})
    location = Point(rng.uniform(2, 8), rng.uniform(2, 8))
    candidates = sorted(rng.sample(range(vocab), 8))
    return ds, ox, location, candidates, rsk


def brute_force_best(ds, ox, location, candidates, ws, users, rsk):
    """Reference: scan every combination of size <= ws."""
    best = frozenset()
    best_n = -1
    pool = sorted(candidates)
    for size in range(0, ws + 1):
        for combo in combinations(pool, size):
            winners = oracle.compute_brstknn(ds, ox, location, combo, users, rsk)
            if len(winners) > best_n:
                best, best_n = frozenset(winners), len(winners)
    return best_n


class TestGreedyMaxCoverage:
    def test_simple_instance(self):
        sets = {0: {1, 2, 3}, 1: {3, 4}, 2: {5}}
        chosen, covered = greedy_max_coverage(sets, 2)
        assert chosen[0] == 0
        assert covered == {1, 2, 3, 4} or covered == {1, 2, 3, 5}

    def test_budget_zero(self):
        assert greedy_max_coverage({0: {1}}, 0) == ([], set())

    def test_stops_when_nothing_gained(self):
        chosen, covered = greedy_max_coverage({0: {1}, 1: {1}}, 5)
        assert len(chosen) == 1

    def test_deterministic_tiebreak(self):
        sets = {2: {1, 2}, 1: {3, 4}}
        chosen, _ = greedy_max_coverage(sets, 1)
        assert chosen == [1]  # smallest key wins the tie

    @given(
        st.dictionaries(
            st.integers(0, 8),
            st.sets(st.integers(0, 12), min_size=0, max_size=6),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_greedy_ratio(self, sets, budget):
        """Greedy coverage >= (1 - 1/e) * optimal coverage."""
        _, covered = greedy_max_coverage(sets, budget)
        best_opt = 0
        keys = sorted(sets)
        for size in range(1, min(budget, len(keys)) + 1):
            for combo in combinations(keys, size):
                u = set().union(*(sets[k] for k in combo))
                best_opt = max(best_opt, len(u))
        assert len(covered) >= (1 - 1 / 2.718281828) * best_opt - 1e-9


class TestComputeBrstknn:
    def test_threshold_is_inclusive(self, tiny_dataset):
        ds = tiny_dataset
        u = ds.users[0]
        o = ds.objects[0]
        score = ds.sts(o, u)
        winners = compute_brstknn(
            ds, o, o.location, frozenset(), [u], {u.item_id: score}
        )
        assert u.item_id in winners  # ties admit (>=)

    def test_above_threshold_excluded(self, tiny_dataset):
        ds = tiny_dataset
        u = ds.users[0]
        o = ds.objects[0]
        score = ds.sts(o, u)
        winners = compute_brstknn(
            ds, o, o.location, frozenset(), [u], {u.item_id: score + 1e-6}
        )
        assert u.item_id not in winners


class TestExactSelection:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ws", [1, 2, 3])
    def test_exact_matches_brute_force(self, seed, ws):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        chosen, winners, _ = select_keywords_exact(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        gold = brute_force_best(ds, ox, loc, cands, ws, ds.users, rsk)
        assert len(winners) == gold
        # chosen set must actually achieve the reported winners
        actual = compute_brstknn(ds, ox, loc, chosen, ds.users, rsk)
        assert actual == winners

    def test_small_pool_enumerates_all_subsets(self):
        ds, ox, loc, cands, rsk = build_selection_problem(60)
        # Restrict to 2 candidates with ws 5: the exact method scans all
        # 2^|useful| subsets (smaller sets can win under LM, so there is
        # no single forced answer) and matches the brute-force optimum.
        chosen, winners, scored = select_keywords_exact(
            ds, ox, loc, cands[:2], 5, ds.users, rsk
        )
        useful = set(cands[:2]) & {t for u in ds.users for t in u.keyword_set}
        assert chosen <= useful
        assert scored <= 2 ** len(useful)
        gold = brute_force_best(ds, ox, loc, cands[:2], 5, ds.users, rsk)
        assert len(winners) == gold

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("ws", [1, 2, 3])
    def test_identical_to_the_oracle(self, seed, ws):
        """The memo states scored by the guard-banded kernel decide
        exactly as the oracle's pair-by-pair scan."""
        ds, ox, loc, cands, rsk = build_selection_problem(seed + 30)
        for users in (ds.users, ds.users[::2], []):
            assert select_keywords_exact(
                ds, ox, loc, cands, ws, users, rsk
            ) == oracle.select_keywords_exact(ds, ox, loc, cands, ws, users, rsk)

    def test_respects_ws_budget(self):
        ds, ox, loc, cands, rsk = build_selection_problem(61)
        for ws in (1, 2, 3):
            chosen, _, _ = select_keywords_exact(ds, ox, loc, cands, ws, ds.users, rsk)
            assert len(chosen) <= ws


class TestGreedySelection:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("ws", [1, 2, 3])
    def test_never_beats_exact_and_is_consistent(self, seed, ws):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        g_chosen, g_winners, _ = select_keywords_greedy(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        e_chosen, e_winners, _ = select_keywords_exact(
            ds, ox, loc, cands, ws, ds.users, rsk
        )
        assert len(g_chosen) <= ws
        assert len(g_winners) <= len(e_winners)
        # reported winners are the actual BRSTkNN of the chosen set
        actual = compute_brstknn(ds, ox, loc, g_chosen, ds.users, rsk)
        assert actual == g_winners

    @pytest.mark.parametrize("seed", range(5))
    def test_reasonable_approximation_quality(self, seed):
        ds, ox, loc, cands, rsk = build_selection_problem(seed)
        ws = 2
        _, g_winners, _ = select_keywords_greedy(ds, ox, loc, cands, ws, ds.users, rsk)
        _, e_winners, _ = select_keywords_exact(ds, ox, loc, cands, ws, ds.users, rsk)
        if e_winners:
            assert len(g_winners) / len(e_winners) >= 0.5

    def test_empty_candidates(self):
        ds, ox, loc, _, rsk = build_selection_problem(62)
        chosen, winners, _ = select_keywords_greedy(ds, ox, loc, [], 2, ds.users, rsk)
        assert chosen == frozenset()

    def test_no_users(self):
        ds, ox, loc, cands, rsk = build_selection_problem(63)
        chosen, winners, _ = select_keywords_greedy(ds, ox, loc, cands, 2, [], rsk)
        assert winners == frozenset()


class TestSelectionContextReuse:
    """The engine's selector reads the keyword side the dataset's arrays
    keep, so every call after the first at a new location reuses it;
    the oracle's, called fresh at every location, is its reference."""

    @given(
        seed=st.integers(0, 40),
        ws=st.integers(0, 3),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_context_over_shuffled_locations_and_user_subsets(
        self, seed, ws, measure, data
    ):
        ds, ox, _, cands, rsk = build_selection_problem(seed)
        ds = Dataset(ds.objects, ds.users, relevance=measure, alpha=0.5)
        rng = random.Random(seed)
        locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(5)]
        ids = [u.item_id for u in ds.users]
        latecomers = data.draw(st.sets(st.sampled_from(ids), max_size=4))
        visits = []
        for i, loc in enumerate(data.draw(st.permutations(locations))):
            pool = [uid for uid in ids if i >= 3 or uid not in latecomers]
            chosen = data.draw(st.sets(st.sampled_from(pool)))
            subset = [u for u in ds.users if u.item_id in chosen]
            # Section 7's shape: a mapping holding this location's users only
            visits.append((loc, subset, {u.item_id: rsk[u.item_id] for u in subset}))
        for loc, subset, local_rsk in visits:
            got = select_keywords_greedy(ds, ox, loc, cands, ws, subset, local_rsk)
            want = oracle.select_keywords_greedy(
                ds, ox, loc, cands, ws, subset, local_rsk
            )
            assert got == want

    @pytest.mark.parametrize("case", ["no_users", "ws_zero", "unheld_candidates"])
    def test_degenerate_inputs_match_the_oracle(self, case):
        ds, ox, loc, cands, rsk = build_selection_problem(64)
        users, ws = ds.users, 2
        if case == "no_users":
            users = []
        elif case == "ws_zero":
            ws = 0
        else:
            cands = [1000, 1001]  # terms no user holds
        for location in (loc, Point(1, 1)):
            got = select_keywords_greedy(ds, ox, location, cands, ws, users, rsk)
            want = oracle.select_keywords_greedy(
                ds, ox, location, cands, ws, users, rsk
            )
            assert got == want
