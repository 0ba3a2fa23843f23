"""Section 6.2.1's greedy max coverage against an exact solver.

Algorithm 3 picks keywords by greedy Maximum Coverage over the ``LUW_w``
lists (key ``w`` -> the users ``HW_{w,u}`` wins), whose guarantee is
``(1 - 1/e)`` of the optimum.  Here the instances the engine's ``cover``
kernel and ``repro.oracle.greedy_max_coverage`` actually solve — drawn
from datasets with planted threshold ties, plus arbitrary set systems
fed to the same kernel — are solved exactly as the max-coverage ILP
(``x_j`` per key, ``y_i <= sum of the x_j covering i``, ``sum x_j =
ws``, maximise ``sum y_i``; ``scipy.optimize.milp``), and:

* both greedy implementations pick the identical keys, in order;
* a lazy greedy — a max-heap of stale marginal gains, re-evaluated on
  pop, ties to the smaller key — picks them too;
* the greedy coverage reaches ``(1 - 1/e) * OPT``.

The exact solver needs scipy; without it only the last check is left
out, and the agreement of the three greedies still runs.
"""

import heapq
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.core.kernels import PairTable, SelectionContext, arrays_for

from .test_selection_kernel import MEASURES, build_case, seeded_subsets

BOUND = 1.0 - 1.0 / math.e


def optimum(sets, budget):
    """Exact max coverage of ``{key: element-set}`` with ``budget`` keys:
    the ILP, solved by HiGHS; ``None`` where scipy is not installed."""
    try:
        from scipy import optimize
    except ImportError:
        return None
    keys = sorted(sets)
    elements = sorted(set().union(*sets.values())) if sets else []
    if not keys or not elements or budget <= 0:
        return 0
    nk, ne = len(keys), len(elements)
    col = {e: i for i, e in enumerate(elements)}
    a = np.zeros((ne + 1, nk + ne))
    for j, key in enumerate(keys):
        for e in sets[key]:
            a[col[e], j] = -1.0
    a[np.arange(ne), nk + np.arange(ne)] = 1.0  # y_i - sum_j x_j <= 0
    a[ne, :nk] = 1.0                            # sum_j x_j == budget
    picks = min(budget, nk)
    result = optimize.milp(
        np.concatenate((np.zeros(nk), -np.ones(ne))),
        constraints=optimize.LinearConstraint(
            a,
            np.concatenate((np.full(ne, -np.inf), [picks])),
            np.concatenate((np.zeros(ne), [picks])),
        ),
        integrality=np.ones(nk + ne),
        bounds=optimize.Bounds(0, 1),
    )
    assert result.success, result.message
    return round(-result.fun)


def lazy_greedy(sets, budget):
    """Greedy max coverage with a max-heap of marginal gains, each
    re-evaluated when popped and pushed back while stale; ties pop the
    smaller key.  Stops, like the other two, when no key adds coverage."""
    covered, chosen = set(), []
    heap = [(-len(elements), key) for key, elements in sets.items()]
    heapq.heapify(heap)
    while len(chosen) < budget and heap:
        stale, key = heapq.heappop(heap)
        gain = len(sets[key] - covered)
        if heap and -stale > gain:
            heapq.heappush(heap, (-gain, key))
            continue
        if gain == 0:
            break
        chosen.append(key)
        covered |= sets[key]
    return chosen, covered


def kernel_cover(sets, budget):
    """``SelectionContext.cover`` on an arbitrary set system: its pair
    table is one pair per (key, element), every pair passed."""
    keys = sorted(k for k, elements in sets.items() if elements)
    universe = sorted(set().union(*sets.values())) if sets else []
    col = {e: i for i, e in enumerate(universe)}
    pairs = [(j, col[e]) for j, k in enumerate(keys) for e in sorted(sets[k])]
    key = np.array([j for j, _ in pairs], dtype=np.intp)
    row = np.array([r for _, r in pairs], dtype=np.intp)
    pair_of = np.full((len(keys) + 1, len(universe)), len(row), dtype=np.intp)
    pair_of[key, row] = np.arange(len(row))
    onehot = np.zeros((len(row), len(keys)), dtype=np.float32)
    onehot[np.arange(len(row)), key] = 1.0
    table = PairTable(
        terms=keys, held=None, row=row, key=key, onehot=onehot,
        pair_of=pair_of, doc=None, hw=None, ts=None,
    )
    ctx = SimpleNamespace(
        side=SimpleNamespace(pairs=lambda: table),
        arrays=SimpleNamespace(num_users=len(universe)),
        ws=budget,
    )
    chosen, coverage = SelectionContext.cover(ctx, np.ones((1, len(row)), dtype=bool))
    return [keys[k] for k in chosen[0].tolist() if k >= 0], int(coverage[0])


def check(sets, budget, kernel_keys, kernel_coverage):
    """The three greedies agree; the answer is within the bound.
    Returns greedy / optimum (1.0 on an empty instance), or ``None``
    without scipy, where only the agreement is checked."""
    keys, covered = oracle.greedy_max_coverage(sets, budget)
    assert kernel_keys == keys
    assert kernel_coverage == len(covered)
    assert lazy_greedy(sets, budget) == (keys, covered)
    best = optimum(sets, budget)
    if best is None:
        return None
    assert len(covered) <= best
    assert len(covered) >= BOUND * best - 1e-9
    return len(covered) / best if best else 1.0


def luw_instances(case, subsets):
    """Per candidate location of ``case``: its ``LUW`` set system (term
    -> user rows) and what the engine's ``cover`` chose on it."""
    ds, q = case.ds, case.query
    arrays = arrays_for(ds)
    ctx = SelectionContext(arrays, q.ox, q.keywords, q.ws)
    member = arrays.membership([arrays.rows_for(users) for users in subsets])
    ctx.admit(np.nonzero(member.any(axis=0))[0], case.rsk)
    ctx.move_to(q.locations)
    table = ctx.side.pairs()
    passed = ctx.luw(member)
    chosen, coverage = ctx.cover(passed)
    for l in range(len(q.locations)):
        sets = {}
        for p in np.nonzero(passed[l])[0].tolist():
            sets.setdefault(table.terms[table.key[p]], set()).add(int(table.row[p]))
        keys = [table.terms[k] for k in chosen[l].tolist() if k >= 0]
        yield sets, keys, int(coverage[l])


class TestGreedyAgainstTheOptimum:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(MEASURES),
        ws=st.integers(1, 4),
        ox_terms=st.booleans(),
        wide=st.booleans(),
        plant=st.sampled_from(["mixed", "hw"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_luw_instances_of_drawn_datasets(
        self, seed, measure, ws, ox_terms, wide, plant
    ):
        case = build_case(seed, measure, ws, ox_terms, wide, plant=plant)
        for sets, keys, coverage in luw_instances(case, seeded_subsets(case)):
            check(sets, ws, keys, coverage)

    @given(
        sets=st.dictionaries(
            st.integers(0, 40),
            st.sets(st.integers(0, 30), min_size=1, max_size=10),
            min_size=1, max_size=12,
        ),
        budget=st.integers(1, 5),
    )
    @settings(max_examples=150, deadline=None)
    def test_random_set_systems(self, sets, budget):
        check(sets, budget, *kernel_cover(sets, budget))

    def test_greedy_taking_the_wide_set_first(self):
        """The textbook trap: the largest set overlaps both halves of the
        optimum, so greedy covers 5 where two keys cover 6."""
        pytest.importorskip("scipy.optimize")
        sets = {0: {1, 2, 3}, 1: {4, 5, 6}, 2: {2, 3, 4, 5}}
        assert check(sets, 2, *kernel_cover(sets, 2)) == pytest.approx(5 / 6)

    def test_ties_go_to_the_smaller_key_everywhere(self):
        sets = {7: {1, 2}, 3: {3, 4}, 5: {5, 6}}
        assert kernel_cover(sets, 2)[0] == [3, 5]
        check(sets, 2, *kernel_cover(sets, 2))
