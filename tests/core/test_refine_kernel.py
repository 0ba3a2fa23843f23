"""Algorithm 2's kernels: the exactness contract, generatively.

Two kernels carry the refinement (``repro.core.kernels``):

* :meth:`DatasetArrays.sts_pairs` — the **bitwise** pair kernel whose
  floats ``individual_topk`` returns.  Its property is ``==`` against
  :meth:`Dataset.sts`, never ``approx``;
* :meth:`DatasetArrays.candidate_score_matrix` — the guard-banded
  single-precision matrix that only decides which pairs the pair
  kernel sees (Example 4's stop, taken per user block by block, and
  the contender sets), within the derived ``refine_guard`` of the
  exact scores.

:mod:`repro.oracle` is the reference throughout; the last classes hold what
the array hand-off is *for* (no per-candidate object on the cold path,
a pool that ships as columns) and seeded mutants of the stop and its
guard.
"""

import importlib
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, MaxBRSTkNNEngine, QueryOptions, oracle
from repro.core.joint_topk import (
    CandidateObject, CandidatePool, CandidatePoolError, JointTraversalResult,
    individual_topk, joint_traversal,
)
from repro.core.kernels import (
    DatasetArrays, FrontierBounds, ObjectColumns, arrays_for, object_columns_for,
)
from repro.core.partial import compute_partials
from repro.index.irtree import MIRTree
from repro.model.objects import STObject, User
from repro.spatial.geometry import Point
from repro.spatial.metrics import LpMetric

from ..conftest import make_random_objects, make_random_users

# ``repro.core`` re-exports the joint_topk *function* under the
# submodule's own name; fetch the module itself (for RO_BLOCK).
joint_topk_module = importlib.import_module("repro.core.joint_topk")

#: Term ids spread over the hash slots of a small ``set``, so its
#: iteration order — the scalar summation order — is rarely ascending.
TERMS = [3 + 7 * i for i in range(24)]
COMMON_TERM = 1       # in every object: TF-IDF weight log(N / N) = 0
UNSEEN_TERM = 10_000  # in no object: Z(u.d) = 0 for whoever holds only it


def build_dataset(seed, measure="LM", p=2.0, alpha=0.5, n_obj=30):
    """Random objects with documents long enough to share several terms
    with a user (fewer than three addends cannot tell one summation
    order from another) and users of unequal keyword counts (padding),
    one of them with 8+ keywords (a numpy reduction would re-associate).

    Plus what neither the pair kernel nor the group bounds may trip on:
    a term every object holds (TF-IDF weight 0), users with no scorable
    term (``Z = 0``: no keyword, unseen keywords only, the weight-0 term
    only) and a user mixing all three kinds.
    """
    rng = random.Random(seed)

    def item(cls, item_id, terms, tf_max):
        return cls(
            item_id=item_id,
            location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            terms={t: rng.randint(1, tf_max) for t in terms},
        )

    objects = [
        item(STObject, i, rng.sample(TERMS, rng.randint(1, 12)), 3)
        for i in range(n_obj)
    ]
    keyword_sets = [rng.sample(TERMS, rng.randint(1, 6)) for _ in range(8)]
    keyword_sets.append(rng.sample(TERMS, rng.randint(8, 12)))
    for o in objects:
        o.terms[COMMON_TERM] = rng.randint(1, 2)
    keyword_sets += [
        [], [UNSEEN_TERM, UNSEEN_TERM + 1], [COMMON_TERM],
        [COMMON_TERM, UNSEEN_TERM, rng.choice(TERMS)],
    ]
    users = [item(User, i, terms, 1) for i, terms in enumerate(keyword_sets)]
    return Dataset(
        objects, users, relevance=measure, alpha=alpha, metric=LpMetric(p)
    )


def build_shared_dataset(seed, p, alpha, one_point=False, n_obj=60):
    """:func:`build_dataset`'s objects, users drawn *per keyword set*, so
    Example 4's set-wise stop has groups to get wrong: several holders
    of one set at different locations, a set held only by ``Z = 0``
    users (no keyword / unseen keywords only), a set held by one user —
    and, with ``one_point``, every user on the same point (the MBR of
    the users being refined has zero area)."""
    base = build_dataset(seed, p=p, alpha=alpha, n_obj=n_obj)
    rng = random.Random(seed)
    spot = Point(rng.uniform(0, 10), rng.uniform(0, 10))
    shared = [rng.sample(TERMS, rng.randint(1, 5)) for _ in range(4)]
    holders = [(terms, rng.randint(2, 5)) for terms in shared]
    holders += [([], 2), ([UNSEEN_TERM], 2), (rng.sample(TERMS, 9), 1)]
    users = []
    for terms, count in holders:
        for _ in range(count):
            location = spot if one_point else Point(rng.uniform(0, 10), rng.uniform(0, 10))
            users.append(User(item_id=len(users), location=location, terms=dict.fromkeys(terms, 1)))
    rng.shuffle(users)
    return Dataset(base.objects, users, alpha=alpha, metric=LpMetric(p))


def pair_mismatches(scored, arrays, users):
    """(object, user) pairs where ``sts_pairs`` is not *bitwise* the
    scalar ``scored.sts`` — every object of the set x ``users``."""
    import numpy as np

    objects = scored.objects
    obj_rows = np.repeat(np.arange(len(objects)), len(users))
    user_rows = np.tile(arrays.rows_for(users), len(objects))
    got = arrays.sts_pairs(obj_rows, user_rows).tolist()
    want = [scored.sts(o, u) for o in objects for u in users]
    return [i for i, (g, w) in enumerate(zip(got, want)) if g != w]


class TestPairKernelBitwise:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        p=st.sampled_from([1.0, 2.0, math.inf]),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_sts_on_full_and_lane_rows(
        self, seed, measure, p, alpha, data
    ):
        ds = build_dataset(seed, measure, p, alpha)
        assert pair_mismatches(ds, arrays_for(ds), ds.users) == []
        # The sharded call: a lane's contiguous row range of the users.
        lo = data.draw(st.integers(0, len(ds.users)))
        hi = data.draw(st.integers(lo, len(ds.users)))
        assert pair_mismatches(ds, arrays_for(ds), ds.users[lo:hi]) == []

    def test_ascending_term_order_mutant_is_caught(self):
        """The property has teeth: summing each user's terms in
        ascending id order — the bound kernels' order — instead of the
        order ``TextRelevance.score`` walks differs in the last ulp
        somewhere on these seeded cases."""
        import numpy as np

        caught = 0
        for seed in range(12):
            ds = build_dataset(seed)
            arrays = arrays_for(ds)
            assert pair_mismatches(ds, arrays, ds.users) == []
            arrays.user_term_cols = np.sort(arrays.user_term_cols, axis=1)
            caught += bool(pair_mismatches(ds, arrays, ds.users))
        assert caught


#: A vocabulary wide enough that the users' union spans >= 150 term
#: columns: the guard grows with T, so the property must reach a wide T.
WIDE_TERMS = [5 + 11 * i for i in range(180)]


def build_wide_dataset(seed, measure, p, alpha, clustered, duplicates):
    """Objects with long documents over :data:`WIDE_TERMS`, users whose
    keyword sets cover every one of them (``T = 180``) plus a user with
    none (``Z = 0``).  ``clustered`` puts every point in a box a
    thousandth of the space wide; ``duplicates`` repeats objects (same
    point, same document) and puts users on object points."""
    rng = random.Random(seed)
    centre = Point(rng.uniform(0, 10), rng.uniform(0, 10))

    def point():
        if clustered:
            return Point(centre.x + rng.uniform(0, 1e-2), centre.y + rng.uniform(0, 1e-2))
        return Point(rng.uniform(0, 10), rng.uniform(0, 10))

    objects = [
        STObject(
            item_id=i, location=point(),
            terms={t: rng.randint(1, 4) for t in rng.sample(WIDE_TERMS, rng.randint(1, 40))},
        )
        for i in range(50)
    ]
    if duplicates:
        objects += [
            STObject(item_id=50 + i, location=o.location, terms=dict(o.terms))
            for i, o in enumerate(rng.sample(objects, 10))
        ]
    users = []
    for i in range(30):
        terms = WIDE_TERMS[6 * i : 6 * i + 6] + rng.sample(WIDE_TERMS, rng.randint(0, 8))
        location = rng.choice(objects).location if duplicates and i % 3 == 0 else point()
        users.append(User(item_id=i, location=location, terms=dict.fromkeys(terms, 1)))
    users.append(User(item_id=30, location=point(), terms={}))
    return Dataset(objects, users, relevance=measure, alpha=alpha, metric=LpMetric(p))


class TestRefineGuardIsSound:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        p=st.sampled_from([1.0, 2.0, 3.0, math.inf]),
        clustered=st.booleans(),
        duplicates=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matrix_and_set_bounds_within_a_quarter_guard(
        self, seed, measure, alpha, p, clustered, duplicates, data
    ):
        """``refine_guard / 4`` is the per-score error bound the guard is
        derived from: the float32 matrix stays within it of the exact
        ``sts_pairs`` on every (user, object) cell, and the float32 set
        bound stays above every holder's exact ``STS`` less it — over
        all users and over a lane's row range (its own MBR)."""
        import numpy as np

        ds = build_wide_dataset(seed, measure, p, alpha, clustered, duplicates)
        arrays = arrays_for(ds)
        assert arrays.num_terms >= 150
        quarter = arrays.refine_guard / 4
        objects = np.arange(len(ds.objects))
        users = np.arange(len(ds.users))
        exact = arrays.sts_pairs(
            np.tile(objects, len(users)), np.repeat(users, len(objects))
        ).reshape(len(users), len(objects))
        matrix = arrays.candidate_score_matrix(objects)
        assert np.abs(matrix - exact).max() <= quarter
        lo = data.draw(st.integers(0, len(users) - 1))
        hi = data.draw(st.integers(lo + 1, len(users)))
        for rows in (users, users[lo:hi]):
            bounds, column = arrays.set_bound_matrix(objects, rows)
            assert (bounds[column] >= exact[rows] - quarter).all()


#: Algorithm 2 and Algorithm 1 by side: the engine's kernels, the oracle's
#: scalar scan.
REFINE = {"engine": individual_topk, "oracle": oracle.individual_topk}
WALK = {"engine": joint_traversal, "oracle": oracle.joint_traversal}


def ranked_lists(traversal, ds, k, side, users=None):
    result = REFINE[side](traversal, ds, k, users=users)
    return {uid: res.ranked for uid, res in result.items()}


def oracle_partials(ds, walked, ks, rows=None):
    """``(k, RSk(u))`` per ``k`` that ``compute_partials`` must answer:
    the oracle's Algorithm 2 over the lane's rows, refined at ``max(ks)``
    (``walked`` must be the walk of this process: the oracle reads
    objects)."""
    lo, hi = (0, len(ds.users)) if rows is None else rows
    table = oracle.individual_topk(walked, ds, max(ks), users=ds.users[lo:hi])
    return [(k, table.rsk(k)) for k in ks]


class TestRefineEqualsOracle:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        k=st.sampled_from([1, 3, 8, 200]),
        block=st.sampled_from([1, 4, 256]),
        walk=st.sampled_from(["oracle", "engine"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_ranked_lists_identical(self, seed, measure, k, block, walk, data):
        """Scores as identical floats, ties by id — for every k
        (``200`` exceeds the pool), any ``users=`` subset (keyword-less
        users among them), a pool of either walk, and blocks of 1, 4 or
        256 ``RO`` objects (the last longer than ``RO`` itself)."""
        ds = build_dataset(seed, measure, n_obj=60)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        traversal = WALK[walk](tree, ds, k)
        users = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(ds.users), unique_by=id)
        ))
        saved, joint_topk_module.RO_BLOCK = joint_topk_module.RO_BLOCK, block
        try:
            got = ranked_lists(traversal, ds, k, "engine", users)
        finally:
            joint_topk_module.RO_BLOCK = saved
        assert got == ranked_lists(traversal, ds, k, "oracle", users)

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        block=st.sampled_from([2, 256]),
        data=st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_lane_refines_mixed_k_off_one_pool(self, seed, measure, block, data):
        """The sharded call: a lane refines its row range of the full
        dataset against the pool — as it arrives off the wire, columns
        only — once at ``max(ks)`` and reads every ``k`` off that."""
        ds = build_dataset(seed, measure, n_obj=60)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        ks = data.draw(st.lists(st.sampled_from([1, 2, 5, 9]), min_size=1, unique=True))
        walked = joint_traversal(tree, ds, max(ks))
        lo = data.draw(st.integers(0, len(ds.users)))
        rows = (lo, data.draw(st.integers(lo, len(ds.users))))
        saved, joint_topk_module.RO_BLOCK = joint_topk_module.RO_BLOCK, block
        try:
            got = compute_partials(
                ds, pickle.loads(pickle.dumps(walked)), ks, rows=rows
            )
        finally:
            joint_topk_module.RO_BLOCK = saved
        want = oracle_partials(ds, walked, ks, rows)
        assert [(p.k, p.rsk) for p in got] == want
        lane_users = ds.users[rows[0]:rows[1]]
        for k, rsk in want:  # ... and a dedicated k-refine agrees
            dedicated = oracle.individual_topk(
                oracle.joint_traversal(tree, ds, k), ds, k, users=lane_users
            )
            assert rsk == {u: r.kth_score for u, r in dedicated.items()}

    @given(
        seed=st.integers(0, 10_000),
        p=st.sampled_from([1.0, 2.0, math.inf]),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        one_point=st.booleans(),
        k=st.sampled_from([1, 3, 8]),
        block=st.sampled_from([1, 4, 256]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_users_sharing_keyword_sets(self, seed, p, alpha, one_point, k, block, data):
        """Example 4's stop per keyword set, where sets group users:
        ranked lists ``==`` the oracle's for all users and for a lane's
        row range (its own, smaller MBR), whose ``compute_partials`` off
        the pool as it arrives over the wire ``==`` the oracle's too."""
        ds = build_shared_dataset(seed, p, alpha, one_point)
        assert len(set(arrays_for(ds).user_set.tolist())) < len(ds.users)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        walked = joint_traversal(tree, ds, k)
        arrived = pickle.loads(pickle.dumps(walked))
        lo = data.draw(st.integers(0, len(ds.users)))
        rows = (lo, data.draw(st.integers(lo, len(ds.users))))
        lane_users = ds.users[rows[0]:rows[1]]
        saved, joint_topk_module.RO_BLOCK = joint_topk_module.RO_BLOCK, block
        try:
            got = ranked_lists(walked, ds, k, "engine")
            got_lane = ranked_lists(arrived, ds, k, "engine", lane_users)
            partials = compute_partials(ds, arrived, [k], rows=rows)
        finally:
            joint_topk_module.RO_BLOCK = saved
        assert got == ranked_lists(walked, ds, k, "oracle")
        assert got_lane == ranked_lists(walked, ds, k, "oracle", lane_users)
        assert [(p.k, p.rsk) for p in partials] == oracle_partials(ds, walked, [k], rows)

    def test_exact_ties_order_by_id(self):
        """Duplicate objects — one point, one document — score the same
        float for every user: the lists must order them by id, and a
        tie straddling rank k must keep the smaller ids."""
        rng = random.Random(5)
        twins = [
            STObject(item_id=i, location=Point(4.0, 6.0), terms={1: 2, 3: 1})
            for i in (9, 2, 7, 4, 11, 3)
        ]
        objects = twins + [
            o for o in make_random_objects(40, 12, rng) if o.item_id >= 20
        ]
        ds = Dataset(objects, make_random_users(10, 12, rng), alpha=0.5)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        for k in (1, 2, 4, 6, 9):
            traversal = joint_traversal(tree, ds, k)
            got = ranked_lists(traversal, ds, k, "engine")
            assert got == ranked_lists(traversal, ds, k, "oracle")
        nearest = min(ds.users, key=lambda u: ds.metric.distance(u.location, Point(4, 6)))
        top = ranked_lists(joint_traversal(tree, ds, 4), ds, 4, "engine")[nearest.item_id]
        tied = [oid for score, oid in top if score == ds.sts(twins[0], nearest)]
        assert tied == sorted(tied)

    def test_object_deep_in_ro_wanted_by_one_user_survives_the_stop(
        self, monkeypatch
    ):
        """Adversarial pool.  Every user but one sits in a crowd of
        objects.  The loner's best object is in ``LO``; its twin — same
        point, same document, smaller id, so it wins the tie — is the
        *last* of ``RO``, with ``UB(o, us)`` exactly the loner's
        ``RSk(u)``: barely not prunable.  The cut must follow the
        weakest user's threshold, with the guard on the lower side:
        taken from anyone else's, raised by the band, or one block
        short, the loner's list comes back wrong."""
        monkeypatch.setattr(joint_topk_module, "RO_BLOCK", 4)
        rng = random.Random(3)

        def near_origin(cls, item_id):
            return cls(
                item_id=item_id, terms={1: 1},
                location=Point(rng.uniform(0, 1), rng.uniform(0, 1)),
            )

        crowd = [near_origin(STObject, i) for i in range(40)]
        far = STObject(item_id=99, location=Point(9.0, 9.0), terms={1: 1})
        twin = STObject(item_id=98, location=Point(9.0, 9.0), terms={1: 1})
        loner = User(item_id=6, location=Point(9.5, 9.5), terms={1: 1})
        ds = Dataset(
            crowd + [far, twin], [near_origin(User, i) for i in range(6)] + [loner],
            alpha=1.0,
        )

        def candidate(o):
            scores = [ds.sts(o, u) for u in ds.users]
            return CandidateObject(obj=o, lower=min(scores), upper=max(scores))

        traversal = JointTraversalResult(
            lo=[candidate(far)],
            ro=sorted(map(candidate, crowd + [twin]), key=lambda c: -c.upper),
            rsk_group=0.0,
        )
        assert traversal.ro[-1].obj is twin  # 10 blocks deep
        got = ranked_lists(traversal, ds, 1, "engine")
        assert got == ranked_lists(traversal, ds, 1, "oracle")
        assert got[loner.item_id] == [(traversal.ro[-1].upper, twin.item_id)]


def twinned(ds, measure):
    """``ds`` with every object twice — same point, same document, the
    twin under the next id: exact ties for every user at every rank."""
    objects = [
        STObject(item_id=2 * o.item_id + twin, location=o.location, terms=dict(o.terms))
        for o in ds.objects for twin in (0, 1)
    ]
    return Dataset(objects, ds.users, relevance=measure, alpha=ds.alpha, metric=ds.metric)


def oracle_rsk(ranked, k):
    """``RSk(u)`` at ``k`` read off the oracle's ranked list."""
    return ranked[min(k, len(ranked)) - 1][0] if ranked else 0.0


def table_mismatches(traversal, ds, k, side, users=None):
    """Where ``side``'s table disagrees with the oracle's ranked lists:
    its user order, ``rsk(k')`` for every ``1 <= k' <= k`` (``==`` on
    the floats), or its mapping view."""
    order = [u.item_id for u in (ds.users if users is None else users)]
    want = ranked_lists(traversal, ds, k, "oracle", users)
    table = REFINE[side](traversal, ds, k, users=users)
    bad = [] if table.users.tolist() == order else ["users"]
    for at in range(1, k + 1):
        got = table.rsk(at)
        if got.ids.tolist() != order or got.values.tolist() != [
            oracle_rsk(want[uid], at) for uid in order
        ]:
            bad.append(at)
    if {uid: res.ranked for uid, res in table.items()} != want:
        bad.append("ranked")
    return bad


def dataset_draw(seed, measure, n_obj, twins):
    ds = build_dataset(seed, measure, n_obj=n_obj)
    return twinned(ds, measure) if twins else ds


class TestTopKTableExact:
    """Algorithm 2's output is a table; every threshold read off it is
    the oracle's float."""

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        n_obj=st.sampled_from([3, 12, 40]),
        twins=st.booleans(),
        k=st.sampled_from([1, 2, 5, 20]),
        walk=st.sampled_from(["oracle", "engine"]),
        side=st.sampled_from(["oracle", "engine"]),
        data=st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_rsk_at_every_k_equals_the_oracle(
        self, seed, measure, n_obj, twins, k, walk, side, data
    ):
        """Keyword-less users (``build_dataset``), exact ties (twins),
        pools smaller than ``k`` (short rows) and any ``users=`` subset."""
        ds = dataset_draw(seed, measure, n_obj, twins)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        traversal = WALK[walk](tree, ds, k)
        users = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(ds.users), unique_by=id)
        ))
        assert table_mismatches(traversal, ds, k, side, users) == []

    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        twins=st.booleans(),
        lanes=st.integers(1, 5),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_merged_lane_vectors_equal_the_oracle(
        self, seed, measure, twins, lanes, data
    ):
        """The sharded call: lanes refine row ranges off the pool as it
        arrives off the wire, one refinement at ``max(ks)`` each; the
        merged vector per ``k`` is the oracle's, by user row."""
        from repro.core.partial import merge_partials
        from repro.core.pipeline import user_row_ranges

        ds = dataset_draw(seed, measure, 30, twins)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        ks = sorted(data.draw(st.sets(st.integers(1, 9), min_size=1)))
        walked = joint_traversal(tree, ds, max(ks))
        arrived = pickle.loads(pickle.dumps(walked))
        partials = [
            p
            for lane, rows in enumerate(user_row_ranges(len(ds.users), lanes))
            for p in compute_partials(ds, arrived, ks, shard_id=lane, rows=rows)
        ]
        want = ranked_lists(walked, ds, max(ks), "oracle")
        order = [u.item_id for u in ds.users]
        for k in ks:
            merged = merge_partials(
                [p for p in partials if p.k == k], arrays_for(ds).user_ids
            ).rsk
            assert merged.ids.tolist() == order
            assert merged.values.tolist() == [oracle_rsk(want[uid], k) for uid in order]

    @pytest.mark.parametrize("side", ["oracle", "engine"])
    def test_rsk_refuses_a_k_outside_the_refined_one(self, side):
        """``kth_score_at(0)`` used to answer the *last* entry's score,
        and a ``k`` above the refined one the refined ``k``'s threshold."""
        ds = build_dataset(3)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        table = REFINE[side](joint_traversal(tree, ds, 4), ds, 4)
        assert len(table.rsk(4)) == len(ds.users)
        for k in (0, -1, 5):
            with pytest.raises(ValueError, match="outside 1..4"):
                table.rsk(k)


def table_mismatch_count(seeds):
    """Seeded draws on which the engine's table disagrees with the oracle."""
    caught = 0
    for seed in seeds:
        ds = dataset_draw(seed, ["LM", "TF", "KO"][seed % 3], 40, seed % 2)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        k = 1 + seed % 5
        caught += bool(table_mismatches(joint_traversal(tree, ds, k), ds, k, "engine"))
    return caught


class TestTopKTableMutantsAreCaught:
    def test_unmutated_table_is_clean(self):
        assert table_mismatch_count(range(12)) == 0

    def test_thresholds_read_from_the_banded_matrix(self, monkeypatch):
        """Contenders scored by the guard-banded BLAS matrix — the
        ``best`` matrix's floats — instead of the exact pair kernel."""
        import numpy as np

        def banded(self, obj_rows, user_rows):
            every = np.arange(self.objects.num_objects)
            return self.candidate_score_matrix(every)[user_rows, obj_rows]

        monkeypatch.setattr(DatasetArrays, "sts_pairs", banded)
        assert table_mismatch_count(range(12))

    def test_dense_slot_shifted_by_one(self, monkeypatch):
        """Every contender written one slot further along the flattened
        ``users x width`` buffer: a full row's last contender lands in
        the next user's row."""
        import numpy as np

        def shifted(user_pos, values, n_rows):
            order = np.argsort(user_pos, kind="stable")
            rows = user_pos[order]
            counts = np.bincount(user_pos, minlength=n_rows)
            width = int(counts.max()) if len(rows) else 0
            starts = np.cumsum(counts) - counts
            dense = np.full(n_rows * width, -math.inf)
            slot = np.arange(len(rows)) - starts[rows] + 1  # the mutation
            dense[np.minimum(rows * width + slot, len(dense) - 1)] = values[order]
            return dense.reshape(n_rows, width), counts

        monkeypatch.setattr(joint_topk_module, "_ragged_rows", shifted)
        assert table_mismatch_count(range(12))


def flickr_engine(objects, users):
    """The benchmark's dataset shape (``benchmarks/e2e``), smaller."""
    from repro.serve import WorkloadSpec
    from repro.serve.shardhost import make_workload

    dataset, workload = make_workload(
        WorkloadSpec(objects=objects, users=users, seed=0)
    )
    return MaxBRSTkNNEngine(dataset), workload


class TestStopAndHoists:
    def test_stop_scores_fewer_columns_than_the_pool_holds(self, monkeypatch):
        engine, _ = flickr_engine(objects=1500, users=60)
        ds = engine.dataset
        traversal = joint_traversal(engine.object_tree, ds, 5)
        pool = len(traversal.all_candidates())
        scored = []
        kernel = DatasetArrays.candidate_score_matrix

        def spy(self, obj_rows, rows=None):
            scored.append(len(obj_rows))
            return kernel(self, obj_rows, rows)

        monkeypatch.setattr(DatasetArrays, "candidate_score_matrix", spy)
        got = ranked_lists(traversal, ds, 5, "engine")
        assert pool > joint_topk_module.RO_BLOCK + 5  # the stop had a say
        assert sum(scored) < pool
        monkeypatch.undo()
        assert got == ranked_lists(traversal, ds, 5, "oracle")

    def test_object_columns_are_built_once_per_object_set(self):
        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        before = ObjectColumns.build_count
        engine.prewarm_kernels()
        assert ObjectColumns.build_count == before + 1
        columns = object_columns_for(ds)
        for clone in (ds.with_alpha(0.9), ds.with_users(ds.users[:7])):
            assert arrays_for(clone).objects is columns
        assert ObjectColumns.build_count == before + 1

    def test_cold_queries_leave_the_document_memo_to_selection(self, monkeypatch):
        """Candidate-pool objects used to pass through
        ``_doc_weight_vector`` — ~a pool's worth of calls per cold query
        for documents whose weights ``obj_weights`` already holds.  Only
        query-time documents (``ox.d`` and its augmentations, which the
        keyword side scores and keeps) may go through it."""
        from repro.datagen import query_pool

        engine, workload = flickr_engine(objects=600, users=40)
        ds = engine.dataset
        object_docs = {frozenset(o.terms.items()) for o in ds.objects}
        seen = []
        weigh = DatasetArrays._doc_weight_vector

        def spy(self, doc):
            seen.append(frozenset(doc.items()))
            return weigh(self, doc)

        monkeypatch.setattr(DatasetArrays, "_doc_weight_vector", spy)
        queries = query_pool(workload, 2, num_locations=5, ws=2, seed=0, seed_stride=101)
        calls = []
        for query in queries:
            # A tf no object carries: ox.d and its augmentations cannot
            # coincide with an object's document.
            query.ox.terms[next(iter(query.keywords))] = 99
            engine.query(query, QueryOptions())
            calls.append(len(seen))
        assert seen and not (set(seen) & object_docs)
        assert calls[0] <= calls[1] < 200  # selection documents only


class TestArrayHandOff:
    """What the column pool is for."""

    def test_cold_queries_build_no_candidate_object(self, monkeypatch):
        from repro.datagen import query_pool

        engine, workload = flickr_engine(objects=600, users=40)
        queries = query_pool(workload, 3, num_locations=5, ws=2, seed=0, seed_stride=101)
        for i, query in enumerate(queries):
            query.k = (5, 10, 20)[i]
        built = []

        class Counted(CandidateObject):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        weights_of = FrontierBounds.weights_of
        monkeypatch.setattr(joint_topk_module, "CandidateObject", Counted)
        monkeypatch.setattr(
            FrontierBounds, "weights_of",
            lambda self, entry: built.append(1) or weights_of(self, entry),
        )
        options = QueryOptions()
        cold = [engine.query(q, options) for q in queries]
        batched = engine.query_batch(queries, options)
        assert built == []
        # The same counters do see the oracle build its pool.
        monkeypatch.setattr(oracle, "CandidateObject", Counted)
        reference = [oracle.query(engine, q, options) for q in queries]
        assert built
        for got in (cold, batched):
            assert [(r.location, r.keywords, r.brstknn) for r in got] == [
                (r.location, r.keywords, r.brstknn) for r in reference
            ]

    @pytest.mark.parametrize("path", ["query", "batch", "lanes-inline", "lanes-pool"])
    def test_no_per_user_object_between_refine_and_select(self, path, monkeypatch):
        """Refine hands select one ``RSk(u)`` vector on every cold path:
        no ``TopKResult`` is built, in this process or in a pool worker
        (the counters are shared memory, so forked workers count too),
        and ``SelectionContext.admit`` is handed a ``Thresholds``."""
        import multiprocessing

        from repro import EngineConfig
        from repro.core.kernels import SelectionContext
        from repro.core.thresholds import Thresholds
        from repro.datagen import query_pool
        from repro.serve import ShardedEngine
        from repro.topk import single

        if path == "lanes-pool" and "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the pool transport forks")
        built = multiprocessing.Value("i", 0)
        admitted = multiprocessing.Value("i", 0)
        not_vectors = multiprocessing.Value("i", 0)

        class Counted(single.TopKResult):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                with built.get_lock():
                    built.value += 1
                super().__init__(*args, **kwargs)

        admit = SelectionContext.admit

        def spy(self, rows, rsk):
            with admitted.get_lock():
                admitted.value += 1
                not_vectors.value += not isinstance(rsk, Thresholds)
            return admit(self, rows, rsk)

        monkeypatch.setattr(joint_topk_module, "TopKResult", Counted)
        monkeypatch.setattr(single, "TopKResult", Counted)
        monkeypatch.setattr(oracle, "TopKResult", Counted)
        monkeypatch.setattr(SelectionContext, "admit", spy)

        engine, workload = flickr_engine(objects=600, users=40)
        queries = query_pool(workload, 3, num_locations=5, ws=2, seed=0, seed_stride=101)
        for i, query in enumerate(queries):
            query.k = (5, 10, 20)[i]
        options = QueryOptions()
        if path == "query":
            got = [engine.query(q, options) for q in queries]
        elif path == "batch":
            got = engine.query_batch(queries, options)
        else:
            sharded = ShardedEngine(engine.dataset, EngineConfig(num_shards=2))
            try:
                if path == "lanes-pool":
                    sharded.start_pools(1)
                got = sharded.query_batch(queries, options)
                assert sharded.last_flush_report.degraded_lanes == 0
            finally:
                sharded.close_pools()
        assert built.value == 0
        assert admitted.value > 0 and not_vectors.value == 0
        # The counter does count: the scalar oracle builds its lists.
        want = [oracle.query(engine, q, options) for q in queries]
        assert built.value > 0
        assert [(r.location, r.keywords, r.brstknn) for r in got] == [
            (r.location, r.keywords, r.brstknn) for r in want
        ]

    def test_default_cell_pool_ships_under_100_kb(self):
        """O4000/U400 at k = 20: ~2.5k candidates, 440 105 bytes as
        pickled ``CandidateObject``\\ s — a shard host paid that to
        ``loads`` on every cold round."""
        engine, _ = flickr_engine(objects=4000, users=400)
        walked = joint_traversal(
            engine.object_tree, engine.dataset, 20
        )
        assert len(walked.pool) > 2000
        blob = pickle.dumps(walked, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 100_000
        assert b"STObject" not in blob

    def test_pool_round_trips_both_wire_forms_to_a_replica(self):
        """Arena-encoded shard payload and socket frame body alike: a
        replica dataset (its own objects, rows and columns) refines the
        arrived pool to the coordinator's thresholds."""
        from repro.core.payload import (
            PayloadCodec, decode_shard_payload, encode_shard_payload,
        )
        from repro.serve.transport import FrameCodec
        from repro.storage.shm import ShmArena

        engine, _ = flickr_engine(objects=500, users=40)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 10)
        want = oracle_partials(ds, walked, [5, 10])
        replica = pickle.loads(pickle.dumps(ds))
        assert replica.objects[0] is not ds.objects[0]
        payload = ("refine", walked, [5, 10], 0, None)
        with ShmArena() as arena:
            encoded = encode_shard_payload(PayloadCodec(arena), payload)
            forms = [
                decode_shard_payload(encoded),
                FrameCodec.decode_body(FrameCodec.encode_body([payload]))[0],
                FrameCodec.decode_body(FrameCodec.encode_body([encoded]))[0],
            ]
            for form in forms:
                _, arrived, ks, _, _ = decode_shard_payload(form)
                assert arrived is not walked and arrived.pool._source is None
                got = compute_partials(replica, arrived, ks)
                assert [(p.k, p.rsk) for p in got] == want

    def test_a_pool_that_does_not_fit_the_replica_is_refused(self):
        """Typed, and before any gather: an id the replica lacks must
        not wrap to some other row, short columns must not slice."""
        import numpy as np

        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 5)
        ids, lower, upper = walked.pool.ids, walked.pool.lower, walked.pool.upper

        def arrived(ids=ids, lower=lower, upper=upper, n_lo=walked.n_lo):
            return JointTraversalResult.of_pool(
                CandidatePool.from_columns(ids, lower, upper), n_lo, walked.rsk_group
            )

        unknown = ids.copy()
        unknown[3] = -1
        beyond = ids.copy()
        beyond[-1] = max(o.item_id for o in ds.objects) + 7
        for bad in (
            arrived(ids=unknown),
            arrived(ids=beyond),
            arrived(lower=lower[:-1]),
            arrived(upper=np.concatenate((upper, upper))),
            arrived(n_lo=len(ids) + 1),
            arrived(n_lo=-1),
        ):
            with pytest.raises(CandidatePoolError):
                compute_partials(ds, bad, [5])
        assert compute_partials(ds, arrived(), [5])[0].rsk == (
            oracle_partials(ds, walked, [5])[0][1]
        )

    def test_a_pool_whose_bounds_cannot_hold_is_refused(self):
        """Example 4's stop bisects ``RO``'s ``upper`` column as a
        non-increasing one: reversed, or with a ``NaN`` in either
        column, it would refine silently to wrong ``RSk(u)``."""
        import numpy as np

        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 5)
        pool, n_lo = walked.pool, walked.n_lo
        assert len(np.unique(pool.upper[n_lo:])) > 1

        def arrived(order=None, lower=pool.lower, upper=pool.upper):
            index = np.arange(len(pool.ids)) if order is None else order
            return JointTraversalResult.of_pool(
                CandidatePool.from_columns(pool.ids[index], lower[index], upper[index]),
                n_lo, walked.rsk_group,
            )

        n = len(pool.ids)
        reversed_ro = np.concatenate((np.arange(n_lo), np.arange(n - 1, n_lo - 1, -1)))
        nan_lower, nan_upper, inf_upper = (
            pool.lower.copy(), pool.upper.copy(), pool.upper.copy()
        )
        nan_lower[n_lo + 1] = np.nan
        nan_upper[0] = np.nan
        inf_upper[n_lo] = np.inf
        for bad, match in (
            (arrived(order=reversed_ro), "rise"),
            (arrived(lower=nan_lower), "non-finite"),
            (arrived(upper=nan_upper), "non-finite"),
            (arrived(upper=inf_upper), "non-finite"),
        ):
            with pytest.raises(CandidatePoolError, match=match):
                compute_partials(ds, bad, [5])
        assert compute_partials(ds, arrived(), [5])[0].rsk == (
            oracle_partials(ds, walked, [5])[0][1]
        )


def count_object_look_ups(monkeypatch):
    """The sizes of every ``ObjectColumns.rows_of_ids`` call from here on."""
    looked_up = []
    rows_of_ids = ObjectColumns.rows_of_ids

    def spy(self, object_ids):
        looked_up.append(len(object_ids))
        return rows_of_ids(self, object_ids)

    monkeypatch.setattr(ObjectColumns, "rows_of_ids", spy)
    return looked_up


class TestRowsFromTheWalk:
    """The engine's walk hands its pool each candidate's object row; the
    id look-up runs only on a pool without them."""

    @pytest.mark.parametrize("ranges", [1, 2])
    def test_cold_queries_look_up_no_object_id(self, ranges, monkeypatch):
        """One refine range or two dealt inline (no fleet): every cold
        ``engine.query`` reads the walk's rows."""
        from repro import EngineConfig
        from repro.datagen import query_pool

        base, workload = flickr_engine(objects=600, users=40)
        engine = MaxBRSTkNNEngine(base.dataset, EngineConfig(num_shards=ranges))
        queries = query_pool(workload, 3, num_locations=5, ws=2, seed=0, seed_stride=101)
        for i, query in enumerate(queries):
            query.k = (5, 10, 20)[i]
        looked_up = count_object_look_ups(monkeypatch)
        options = QueryOptions()
        got = [engine.query(q, options) for q in queries]
        assert looked_up == []
        want = [oracle.query(engine, q, options) for q in queries]
        assert [(r.location, r.keywords, r.brstknn) for r in got] == [
            (r.location, r.keywords, r.brstknn) for r in want
        ]

    def test_clones_of_the_object_set_read_the_rows(self, monkeypatch):
        """``with_alpha`` / ``with_users`` clones share the table, so
        their refines read the walk's rows too."""
        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 5)
        looked_up = count_object_look_ups(monkeypatch)
        for clone in (ds.with_alpha(0.3), ds.with_users(ds.users[:10])):
            compute_partials(clone, walked, [5])
        assert looked_up == []

    def test_a_pool_off_the_wire_looks_its_ids_up_once(self, monkeypatch):
        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 5)
        arrived = pickle.loads(pickle.dumps(walked))
        looked_up = count_object_look_ups(monkeypatch)
        lanes = [compute_partials(ds, arrived, [5], rows=rows)[0].rsk
                 for rows in ((0, 12), (12, 30))]
        assert looked_up == [len(walked.pool)]
        whole = oracle_partials(ds, walked, [5])[0][1]
        assert {**lanes[0], **lanes[1]} == dict(whole)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_pool_refined_against_another_row_order_is_looked_up(
        self, seed, monkeypatch
    ):
        """The same objects in another row order: the walk's rows index
        the walked table, not this one, so the refine looks the ids up
        and answers the oracle's thresholds (the pool must leave objects
        out, or a wrong row map would only permute the same scores)."""
        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        objects = list(ds.objects)
        random.Random(seed).shuffle(objects)
        moved = Dataset(objects, ds.users, relevance="LM", alpha=ds.alpha)
        assert moved.table.ids.tolist() != ds.table.ids.tolist()
        walked = joint_traversal(engine.object_tree, ds, 5)
        assert len(walked.pool) < len(objects)
        looked_up = count_object_look_ups(monkeypatch)
        got = [(p.k, p.rsk) for p in compute_partials(moved, walked, [1, 5])]
        assert looked_up == [len(walked.pool)]
        assert got == oracle_partials(moved, walked, [1, 5])


# ----------------------------------------------------------------------
# Seeded mutants of the per-user stop: the properties have teeth
# ----------------------------------------------------------------------

def tight_pool(seed):
    """Every object twice — the twin under the smaller id, later in
    ``RO`` — in a hand-built pool whose bounds are *tight*
    (``upper = max_u STS(o, u)``): some user's running k-th best sits
    exactly on the ``UB(o, us)`` of a twin that wins the tie."""
    measure = ["LM", "TF", "KO"][seed % 3]
    base = build_dataset(seed, measure, n_obj=40)
    objects = [
        STObject(item_id=2 * o.item_id + 1 - twin, location=o.location, terms=dict(o.terms))
        for o in base.objects for twin in (0, 1)
    ]
    ds = Dataset(objects, base.users, relevance=measure, alpha=0.5)
    k = 1 + seed % 3

    def candidate(o):
        scores = [ds.sts(o, u) for u in ds.users]
        return CandidateObject(obj=o, lower=min(scores), upper=max(scores))

    by_lower = sorted(map(candidate, objects), key=lambda c: -c.lower)
    pool = JointTraversalResult(
        by_lower[:k], sorted(by_lower[k:], key=lambda c: -c.upper), 0.0
    )
    return ds, pool, k, None


def rounded_up_pools(seeds=range(40)):
    """Pools planted on a cell ``(o, u)`` the guard band exists for: the
    single-precision matrix scores it above ``STS(o, u)``.  ``o`` is
    ``LO``; its twin — smaller id, so it wins the tie — closes ``RO``
    behind a crowd ``u`` scores lower, with ``UB`` exactly ``STS(o,
    u)``: barely not prunable."""
    import numpy as np

    def planted(ds, matrix):
        for u, user in enumerate(ds.users):
            for j in range(0, len(ds.objects), 2):
                first, twin = ds.objects[j], ds.objects[j + 1]
                score = ds.sts(first, user)
                if matrix[u, j] <= score:
                    continue
                crowd = [c for c in ds.objects if ds.sts(c, user) < score]
                if crowd:
                    return JointTraversalResult(
                        [CandidateObject(obj=first, lower=0.0, upper=1.0)],
                        [CandidateObject(obj=c, lower=0.0, upper=1.0) for c in crowd]
                        + [CandidateObject(obj=twin, lower=0.0, upper=score)],
                        0.0,
                    ), [user]
        return None

    for seed in seeds:
        ds, _, _, _ = tight_pool(seed)
        matrix = arrays_for(ds).candidate_score_matrix(np.arange(len(ds.objects)))
        plant = planted(ds, matrix)
        if plant is not None:
            yield ds, plant[0], 1, plant[1]


def stop_mismatches(pools, block):
    """Seeded pools on which the engine's lists differ from the oracle's."""
    bad = cases = 0
    saved, joint_topk_module.RO_BLOCK = joint_topk_module.RO_BLOCK, block
    try:
        for ds, pool, k, users in pools:
            cases += 1
            bad += ranked_lists(pool, ds, k, "engine", users) != ranked_lists(
                pool, ds, k, "oracle", users
            )
    finally:
        joint_topk_module.RO_BLOCK = saved
    assert cases
    return bad


class TestStopMutantsAreCaught:
    def test_unmutated_stop_is_clean(self):
        for block in (1, 3):
            assert stop_mismatches(map(tight_pool, range(24)), block) == 0
        assert stop_mismatches(rounded_up_pools(), 1) == 0

    def test_guard_band_dropped_from_the_activity_test(self, monkeypatch):
        """``kth <= UB`` on matrix scores: a k-th best float32 rounded up
        retires its user one object before the tie winner."""
        monkeypatch.setattr(
            joint_topk_module, "_still_active",
            lambda kth, sets, reaches, block, guard: kth <= reaches[sets, block],
        )
        assert stop_mismatches(rounded_up_pools(), 1)

    def test_single_precision_under_the_double_precision_guard(self, monkeypatch):
        """The float32 operands read against the old float64 band
        (``1e-9``): a score float32 rounded up by more than that cuts the
        reach before the tie winner."""
        from repro.core import kernels

        monkeypatch.setattr(kernels, "refine_guard", lambda num_terms, span: 1e-9)
        assert stop_mismatches(rounded_up_pools(), 1)

    def test_user_retired_one_block_early(self, monkeypatch):
        """The stop read off the *next* block's bound."""

        def early(kth, sets, reaches, block, guard):
            ahead = min(block + 1, reaches.shape[1] - 1)
            return kth - guard <= reaches[sets, ahead]

        monkeypatch.setattr(joint_topk_module, "_still_active", early)
        assert stop_mismatches(map(tight_pool, range(24)), 3)

    def test_set_bound_without_its_spatial_half(self, monkeypatch):
        """``UB(o, S)`` as ``(1 - alpha) * TS(o, S)`` alone: no longer a
        bound of ``STS(o, u)`` wherever ``u`` scores ``o`` spatially."""
        import numpy as np

        def text_only(self, obj_rows, user_rows):
            sets, column = np.unique(self.user_set[user_rows], return_inverse=True)
            # obj_weights32's last column is zero: the spatial column left out.
            return self.set_text32[sets] @ self.obj_weights32[obj_rows].T, column

        monkeypatch.setattr(DatasetArrays, "set_bound_matrix", text_only)
        assert stop_mismatches(map(tight_pool, range(24)), 3)

    def test_bound_read_at_the_block_own_max(self, monkeypatch):
        """Each block's own max in place of the suffix max: an object a
        user still needs two blocks on no longer keeps them active."""
        monkeypatch.setattr(joint_topk_module, "_suffix_max", lambda block_max: block_max)
        assert stop_mismatches(map(tight_pool, range(24)), 1)

    def test_user_read_against_a_neighbouring_set(self, monkeypatch):
        """Column off by one: a user stopped on another set's bound."""

        def neighbour(kth, sets, reaches, block, guard):
            return kth - guard <= reaches[(sets + 1) % len(reaches), block]

        monkeypatch.setattr(joint_topk_module, "_still_active", neighbour)
        assert stop_mismatches(map(tight_pool, range(24)), 3)

    def test_block_contenders_credited_to_block_local_users(self, monkeypatch):
        """A later block's rows are the still-active users only; taking
        its contenders' row numbers for user positions hands them to
        whoever sits at those positions in the full user list.

        (ISSUE 22 asked for "contenders taken against the running
        instead of the final k-th" here.  That mutant cannot fail: a
        running k-th best never exceeds the final one, so it selects a
        superset and the exact re-score returns the same lists.)"""
        import numpy as np

        def block_local(blocks, kth, guard):
            user_pos, col = [], []
            for block_users, start, scores in blocks:
                u, c = np.divmod(
                    np.flatnonzero(scores >= (kth[block_users] - guard)[:, None]),
                    scores.shape[1],
                )
                user_pos.append(u)  # the mutation: not block_users[u]
                col.append(start + c)
            return np.concatenate(user_pos), np.concatenate(col)

        monkeypatch.setattr(joint_topk_module, "_contenders", block_local)
        assert stop_mismatches(map(tight_pool, range(24)), 3)
