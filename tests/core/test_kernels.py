"""Vectorized kernels vs the scalar reference, value for value.

The equivalence suite (``test_oracle_equivalence``) checks whole-query
results; these tests pin the kernel layer itself: every array a
:class:`DatasetArrays` kernel returns must match the scalar code path
element-wise, and every guard-banded *decision* kernel must match the
oracle's decision exactly.
"""

import math
import random

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, MaxBRSTkNNQuery, oracle
from repro.core import candidate_selection
from repro.core.bounds import BoundCalculator, augmented_document
from repro.core.candidate_selection import shortlist_locations
from repro.core.joint_topk import individual_topk, joint_traversal
from repro.core import kernels
from repro.core.kernels import KeywordSide, SelectionContext, arrays_for
from repro.core.keyword_selection import compute_brstknn, select_keywords_greedy
from repro.index.irtree import MIRTree
from repro.model.objects import STObject, SuperUser
from repro.spatial.geometry import Point
from repro.spatial.metrics import CHEBYSHEV, EUCLIDEAN, MANHATTAN

from ..conftest import make_random_objects, make_random_users

def build(seed, measure="LM", alpha=0.5, vocab=20, n_obj=50, n_users=14, metric=EUCLIDEAN):
    rng = random.Random(seed)
    objects = make_random_objects(n_obj, vocab, rng)
    users = make_random_users(n_users, vocab, rng)
    ds = Dataset(objects, users, relevance=measure, alpha=alpha, metric=metric)
    return ds, rng


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("seed", [0, 1])
def test_sts_kernel_matches_scalar(measure, alpha, seed):
    ds, rng = build(seed, measure=measure, alpha=alpha)
    arrays = arrays_for(ds)
    for _ in range(5):
        loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
        doc = {t: rng.randint(1, 3) for t in rng.sample(range(20), rng.randint(0, 5))}
        ctx = SelectionContext(arrays, STObject(item_id=-1, location=loc, terms=doc))
        ctx.move_to([loc])
        # What a recount compares: alpha * SS (float32, off by at most a
        # quarter guard) against RSk(u) less the (1 - alpha) * TS half.
        scores = ctx.spatial()[0] + (1.0 - alpha) * ctx.side.text([frozenset()])[0]
        for i, u in enumerate(ds.users):
            assert math.isclose(
                scores[i], ds.sts_parts(loc, doc, u), rel_tol=0.0, abs_tol=ctx.guard / 4
            )


@pytest.mark.parametrize("metric", [EUCLIDEAN, MANHATTAN, CHEBYSHEV])
def test_spatial_kernel_matches_all_metrics(metric):
    ds, rng = build(3, metric=metric)
    arrays = arrays_for(ds)
    loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
    (ss,), guard = arrays.spatial_matrix([loc])
    for i, u in enumerate(ds.users):
        assert math.isclose(
            ss[i], ds.alpha * ds.spatial_score(loc, u.location),
            rel_tol=0.0, abs_tol=guard / 4,
        )


@pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
@pytest.mark.parametrize("vocab", [8, 40])
@pytest.mark.parametrize("ws", [0, 1, 3])
def test_location_bounds_match_scalar(measure, vocab, ws):
    ds, rng = build(7, measure=measure, vocab=vocab)
    arrays = arrays_for(ds)
    bounds = BoundCalculator(ds)
    ox = STObject(
        item_id=-1,
        location=Point(5, 5),
        terms={t: 1 for t in rng.sample(range(vocab), 3)},
    )
    candidates = sorted(rng.sample(range(vocab), min(6, vocab)))
    ctx = SelectionContext(arrays, ox, candidates, ws)
    rows = arrays.rows_for(ds.users)
    ctx.admit(rows, {u.item_id: 0.5 for u in ds.users})
    locations = [Point(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(4)]
    ctx.move_to(locations)
    spatial, rest = ctx.spatial(), 1.0 - ds.alpha
    upper = spatial + rest * ctx.side.upper_text()
    lower = spatial + rest * ctx.side.text([frozenset()])[0]
    for loc, ub, lb in zip(locations, upper, lower):
        for i, u in enumerate(ds.users):
            assert math.isclose(
                ub[i],
                bounds.location_upper_user(loc, ox, candidates, ws, u),
                rel_tol=0.0,
                abs_tol=ctx.guard / 4,
            )
            assert math.isclose(
                lb[i],
                bounds.location_lower_user(loc, ox, u),
                rel_tol=0.0,
                abs_tol=ctx.guard / 4,
            )


@pytest.mark.parametrize("seed", range(4))
def test_brstknn_kernel_exact_membership(seed):
    """The decision kernel must agree with the scalar scan *exactly*,
    including RSk thresholds of 0.0 (everyone ties at score >= 0)."""
    ds, rng = build(seed)
    ox = STObject(item_id=-1, location=Point(5, 5), terms={})
    loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
    keywords = frozenset(rng.sample(range(20), 2))
    for rsk_value in (0.0, 0.3, 0.7):
        rsk = {u.item_id: rsk_value for u in ds.users}
        scalar = oracle.compute_brstknn(ds, ox, loc, keywords, ds.users, rsk)
        vectorized = compute_brstknn(
            ds, ox, loc, keywords, ds.users, rsk
        )
        assert scalar == vectorized


@pytest.mark.parametrize("seed", range(4))
def test_shortlist_kernel_exact_membership(seed):
    ds, rng = build(seed, n_users=20)
    arrays = arrays_for(ds)
    bounds = BoundCalculator(ds)
    ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 1})
    candidates = sorted(rng.sample(range(20), 5))
    loc = Point(rng.uniform(0, 10), rng.uniform(0, 10))
    rsk = {u.item_id: rng.uniform(0.0, 1.0) for u in ds.users}
    scalar = [
        u.item_id
        for u in ds.users
        if bounds.location_upper_user(loc, ox, candidates, 2, u) >= rsk[u.item_id]
    ]
    ctx = SelectionContext(arrays, ox, candidates, 2)
    rows = arrays.rows_for(ds.users)
    ctx.admit(rows, rsk)
    ctx.move_to([loc])
    vectorized = [u.item_id for u in arrays.users[ctx.shortlist(rows)[0]]]
    assert scalar == vectorized


def test_side_text_rows_stay_within_their_bytes(monkeypatch):
    """A keyword side keeps at most ``SIDE_TEXT_BYTES`` of ``TS`` rows:
    a set that would pass it starts the rows over from the sets asked
    for, and every row read is still the one an unbounded side holds (to the
    last bits a different stacking may round)."""
    ds, rng = build(3)
    arrays = arrays_for(ds)
    ox = STObject(item_id=-1, location=Point(5, 5), terms={1: 1})
    candidates = list(range(8))
    sets = [frozenset(rng.sample(candidates, rng.randint(0, 2))) for _ in range(12)]
    assert len(set(sets)) > 3
    want = dict(zip(sets, KeywordSide(arrays, ox, candidates, 2).text(sets)))
    monkeypatch.setattr(kernels, "SIDE_TEXT_BYTES", 3 * 8 * arrays.num_users)
    side = KeywordSide(arrays, ox, candidates, 2)
    for i in range(len(sets)):
        asked = sets[i : i + 2]
        got = side.text(asked)
        assert np.allclose(got, [want[ks] for ks in asked], rtol=0, atol=1e-12)
        rows, row_of = side._texts
        assert len(rows) <= 3 and sorted(row_of.values()) == list(range(len(rows)))


def test_exact_ties_take_the_scalar_recheck(monkeypatch):
    """``STS == RSk(u)`` for one HW pair and one recount, ``UBL == RSk(u)``
    for one shortlist row: each banded pair is re-scored by the scalar
    path and admitted (``>=``); one ulp above the score, it is rejected."""
    ds, rng = build(23, n_users=12)
    bounds = BoundCalculator(ds)
    ox = STObject(item_id=-1, location=Point(5, 5), terms={0: 1})
    candidates = sorted(rng.sample(range(20), 8))
    loc, ws = Point(4, 6), 2
    query = MaxBRSTkNNQuery(ox=ox, locations=[loc], keywords=candidates, ws=ws, k=1)
    by_pairs = sorted(ds.users, key=lambda u: -len(set(candidates) & u.keyword_set))
    pair_user, recount_user, bound_user = by_pairs[:3]
    w = min(set(candidates) & pair_user.keyword_set)
    hw_doc = augmented_document(ox.terms, {w})  # HW_{w,u} for ws = 1
    exact = {
        pair_user.item_id: ds.sts_parts(loc, hw_doc, pair_user),
        recount_user.item_id: ds.sts_parts(loc, ox.terms, recount_user),
        bound_user.item_id: bounds.location_upper_user(loc, ox, candidates, ws, bound_user),
    }

    rescored = []
    scalar_sts, scalar_ubl = ds.sts_parts, BoundCalculator.location_upper_user
    monkeypatch.setattr(
        ds, "sts_parts",
        lambda l, doc, u: rescored.append(u.item_id) or scalar_sts(l, doc, u),
    )
    monkeypatch.setattr(
        BoundCalculator, "location_upper_user",
        lambda self, l, o, c, n, u: rescored.append(u.item_id) or scalar_ubl(self, l, o, c, n, u),
    )
    for bump, admitted in ((lambda x: x, True), (lambda x: math.nextafter(x, 2.0), False)):
        rsk = {u.item_id: 2.0 for u in ds.users}  # out of reach: never banded
        rsk.update({uid: bump(score) for uid, score in exact.items()})
        py = oracle.select_keywords_greedy(ds, ox, loc, candidates, 1, ds.users, rsk)
        del rescored[:]
        assert select_keywords_greedy(
            ds, ox, loc, candidates, 1, ds.users, rsk
        ) == py
        assert {pair_user.item_id, recount_user.item_id} <= set(rescored)
        import numpy as np

        # A context over the keyword side the selector stored.
        arrays = arrays_for(ds)
        ctx = SelectionContext(arrays, ox, candidates, 1)
        ctx.admit(arrays.rows_for(ds.users), rsk)
        ctx.move_to([loc])
        table = ctx.side.pairs()
        (pair,) = np.nonzero(
            (table.row == arrays.user_row[pair_user.item_id])
            & (table.key == table.terms.index(w))
        )[0]
        luw = ctx.luw(arrays.membership([arrays.rows_for(ds.users)]))
        assert luw[0, pair] == admitted
        assert compute_brstknn(
            ds, ox, loc, frozenset(), [recount_user], rsk
        ) == (frozenset([recount_user.item_id]) if admitted else frozenset())

        lists_py, _ = oracle.shortlist_locations(ds, query, rsk, 0.0)
        del rescored[:]
        lists_np, _ = shortlist_locations(ds, query, rsk, 0.0)
        assert [u.item_id for u in lists_np[0].users] == [u.item_id for u in lists_py[0].users]
        assert rescored == [bound_user.item_id]  # only the banded row is re-checked
        assert (bound_user in lists_np[0].users) == admitted


def test_individual_topk_identical_to_oracle():
    """Vectorized Algorithm 2 returns bitwise-identical TopKResults."""
    ds, _ = build(11, n_obj=80, n_users=16)
    tree = MIRTree(ds.objects, ds.relevance, fanout=4)
    for k in (1, 4, 10):
        traversal = joint_traversal(tree, ds, k)
        py = oracle.individual_topk(traversal, ds, k)
        np_ = individual_topk(traversal, ds, k)
        assert py.keys() == np_.keys()
        for uid in py:
            assert py[uid].ranked == np_[uid].ranked


def test_user_subset_rows():
    ds, rng = build(13)
    arrays = arrays_for(ds)
    subset = rng.sample(ds.users, 5)
    loc = Point(2, 2)
    (ss,), guard = arrays.spatial_matrix([loc])
    for i, u in zip(arrays.rows_for(subset), subset):
        assert math.isclose(
            ss[i], ds.alpha * ds.spatial_score(loc, u.location),
            rel_tol=0.0, abs_tol=guard / 4,
        )


def test_arrays_cache_per_dataset():
    ds, _ = build(17)
    assert arrays_for(ds) is arrays_for(ds)
    clone = ds.with_alpha(0.9)
    assert arrays_for(clone) is not arrays_for(ds)


def test_arrays_cache_does_not_leak_datasets():
    """Datasets (and their dense array mirrors) must be collectable
    once the caller drops them — a serving sweep builds many."""
    import gc
    import weakref

    ds, _ = build(19)
    arrays_for(ds)
    ref = weakref.ref(ds)
    del ds
    gc.collect()
    assert ref() is None



# ----------------------------------------------------------------------
# Group bounds: all of a query's locations at once, bit for bit
# ----------------------------------------------------------------------

def around_mbr(mbr, rng):
    """Locations inside the MBR, on its corners and edges, just outside
    it and far outside it (past ``dmax`` of every user)."""
    xs = (mbr.min_x, mbr.max_x, (mbr.min_x + mbr.max_x) / 2)
    ys = (mbr.min_y, mbr.max_y, (mbr.min_y + mbr.max_y) / 2)
    on = [Point(x, y) for x in xs for y in ys]
    inside = [
        Point(rng.uniform(mbr.min_x, mbr.max_x), rng.uniform(mbr.min_y, mbr.max_y))
        for _ in range(4)
    ]
    outside = [
        Point(mbr.min_x - rng.uniform(0.0, 2.0), rng.uniform(-5.0, 15.0)),
        Point(rng.uniform(-5.0, 15.0), mbr.max_y + rng.uniform(0.0, 2.0)),
        Point(math.nextafter(mbr.max_x, math.inf), mbr.min_y),
        Point(-1000.0, 1000.0),
    ]
    return on + inside + outside


@given(
    seed=st.integers(0, 10_000),
    measure=st.sampled_from(["LM", "TF", "KO"]),
    alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
    metric=st.sampled_from([MANHATTAN, EUCLIDEAN, CHEBYSHEV]),
    ws=st.integers(0, 3),
    ox_terms=st.booleans(),
    group=st.sampled_from(["dataset", "subset"]),
)
@settings(max_examples=80, deadline=None)
def test_group_bounds_equal_the_scalar_ones_bitwise(
    seed, measure, alpha, metric, ws, ox_terms, group
):
    """``UBL(l, us)`` / ``LBL(l, us)`` of every location as one array
    expression are ``BoundCalculator``'s floats — inside, on and outside
    the MBR, under every drawn alpha and metric — and the survivors are
    the locations the scalar test keeps, ties at ``RSk(us)`` included."""
    ds, rng = build(seed, measure=measure, alpha=alpha, metric=metric)
    su = ds.super_user if group == "dataset" else SuperUser.from_users(
        rng.sample(ds.users, rng.randint(1, 5)), ds.relevance
    )
    ox = STObject(
        item_id=-1, location=Point(5, 5),
        terms={t: rng.randint(1, 2) for t in rng.sample(range(20), 3)} if ox_terms else {},
    )
    candidates = sorted(rng.sample(range(20), 6))
    locations = around_mbr(su.mbr, rng)
    rng.shuffle(locations)
    query = MaxBRSTkNNQuery(ox=ox, locations=locations, keywords=candidates, ws=ws, k=1)
    bounds = BoundCalculator(ds)
    # The text terms the query's stored keyword side holds for ``su``.
    texts = arrays_for(ds).side(ox, candidates, ws).group_texts(su)
    assert texts == (
        bounds.group_upper_text(ox, candidates, ws, su), bounds.group_lower_text(ox, su)
    )
    upper = [
        bounds.location_upper_group(loc, ox, candidates, ws, su, text=texts[0])
        for loc in locations
    ]
    lower = [bounds.location_lower_group(loc, ox, su, text=texts[1]) for loc in locations]

    near, far = arrays_for(ds).group_spatial_bounds(locations, su.mbr)
    assert near.tolist() == [bounds.min_spatial_pr(loc, su.mbr) for loc in locations]
    assert far.tolist() == [bounds.max_spatial_pr(loc, su.mbr) for loc in locations]
    rsk_groups = (0.0, rng.choice(upper), 2.0)
    # One call for a keyword side's queries: here one query three times,
    # under three RSk(us).
    found = candidate_selection._group_bounds(
        arrays_for(ds), [query] * 3, su, rsk_groups, texts
    )
    for rsk_group, (keep, ub, lb, pruned) in zip(rsk_groups, found):
        want = [i for i, value in enumerate(upper) if not value < rsk_group]
        assert keep.tolist() == want
        assert pruned == len(locations) - len(want)
        assert ub.tolist() == [upper[i] for i in want]
        assert lb.tolist() == [lower[i] for i in want]
