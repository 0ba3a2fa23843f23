"""Algorithm 2's numpy backend: the exactness contract, generatively.

Two kernels carry the refinement (``repro.core.kernels``):

* :meth:`DatasetArrays.sts_pairs` — the **bitwise** pair kernel whose
  floats ``individual_topk`` returns.  Its property is ``==`` against
  :meth:`Dataset.sts`, never ``approx``;
* :meth:`DatasetArrays.candidate_score_matrix` — the guard-banded
  matrix that only decides which pairs the pair kernel sees (Example
  4's stop and the contender sets).

The python backend is the oracle throughout.
"""

import importlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, MaxBRSTkNNEngine, QueryOptions
from repro.core.joint_topk import (
    CandidateObject, JointTraversalResult, individual_topk, joint_traversal,
)
from repro.core.kernels import (
    HAS_NUMPY, DatasetArrays, ObjectColumns, arrays_for, object_columns_for,
)
from repro.index.irtree import MIRTree
from repro.model.objects import STObject, User
from repro.spatial.geometry import Point
from repro.spatial.metrics import LpMetric

from ..conftest import make_random_objects, make_random_users

pytestmark = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")

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
    def test_equals_scalar_sts_on_full_and_sharded_rows(
        self, seed, measure, p, alpha, data
    ):
        ds = build_dataset(seed, measure, p, alpha)
        assert pair_mismatches(ds, arrays_for(ds), ds.users) == []
        # The sharded call: a subset dataset has its own rows and term
        # columns over the same object columns, and a user-row subset.
        ids = data.draw(st.sets(st.sampled_from([u.item_id for u in ds.users])))
        shard = ds.subset_users(ids)
        shard_arrays = arrays_for(shard)
        assert shard_arrays.objects is arrays_for(ds).objects
        some = data.draw(st.lists(st.sampled_from(shard.users))) if ids else []
        assert pair_mismatches(ds, shard_arrays, some) == []

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


def ranked_lists(traversal, ds, k, backend, users=None):
    result = individual_topk(traversal, ds, k, users=users, backend=backend)
    return {uid: res.ranked for uid, res in result.items()}


class TestRefineEqualsPythonBackend:
    @given(
        seed=st.integers(0, 10_000),
        measure=st.sampled_from(["LM", "TF", "KO"]),
        k=st.sampled_from([1, 3, 8, 200]),
        block=st.sampled_from([1, 4, 256]),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_ranked_lists_identical(self, seed, measure, k, block, data):
        """Scores as identical floats, ties by id — for every k
        (``200`` exceeds the pool), any ``users=`` subset, and a stop
        that cuts after 1, 4 or 256 ``RO`` objects."""
        ds = build_dataset(seed, measure, n_obj=60)
        tree = MIRTree(ds.objects, ds.relevance, fanout=4)
        traversal = joint_traversal(tree, ds, k)
        users = data.draw(st.one_of(
            st.none(), st.lists(st.sampled_from(ds.users), unique_by=id)
        ))
        saved, joint_topk_module.RO_BLOCK = joint_topk_module.RO_BLOCK, block
        try:
            got = ranked_lists(traversal, ds, k, "numpy", users)
        finally:
            joint_topk_module.RO_BLOCK = saved
        assert got == ranked_lists(traversal, ds, k, "python", users)

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
            got = ranked_lists(traversal, ds, k, "numpy")
            assert got == ranked_lists(traversal, ds, k, "python")
        nearest = min(ds.users, key=lambda u: ds.metric.distance(u.location, Point(4, 6)))
        top = ranked_lists(joint_traversal(tree, ds, 4), ds, 4, "numpy")[nearest.item_id]
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
        got = ranked_lists(traversal, ds, 1, "numpy")
        assert got == ranked_lists(traversal, ds, 1, "python")
        assert got[loner.item_id] == [(traversal.ro[-1].upper, twin.item_id)]


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
        traversal = joint_traversal(engine.object_tree, ds, 5, backend="numpy")
        pool = len(traversal.all_candidates())
        scored = []
        kernel = DatasetArrays.candidate_score_matrix

        def spy(self, obj_rows, rows=None):
            scored.append(len(obj_rows))
            return kernel(self, obj_rows, rows)

        monkeypatch.setattr(DatasetArrays, "candidate_score_matrix", spy)
        got = ranked_lists(traversal, ds, 5, "numpy")
        assert pool > joint_topk_module.RO_BLOCK + 5  # the stop had a say
        assert sum(scored) < pool
        monkeypatch.undo()
        assert got == ranked_lists(traversal, ds, 5, "python")

    def test_object_columns_are_built_once_per_object_set(self):
        engine, _ = flickr_engine(objects=300, users=30)
        ds = engine.dataset
        before = ObjectColumns.build_count
        engine.prewarm_kernels()
        assert ObjectColumns.build_count == before + 1
        columns = object_columns_for(ds)
        for clone in (ds.with_alpha(0.9), ds.subset_users([u.item_id for u in ds.users[:7]])):
            assert arrays_for(clone).objects is columns
        assert ObjectColumns.build_count == before + 1

    def test_cold_queries_leave_the_document_memo_to_selection(self):
        """Candidate-pool objects used to pass through
        ``_doc_weight_vector`` — ~a pool's worth of inserts per cold
        query against a memo that ``clear()``s wholesale at 4096, which
        evicted the augmented-document vectors it exists for."""
        from repro.datagen import query_pool

        engine, workload = flickr_engine(objects=600, users=40)
        ds = engine.dataset
        object_docs = {frozenset(o.terms.items()) for o in ds.objects}

        class Memo(dict):
            clears = 0

            def clear(self):
                Memo.clears += 1
                super().clear()

        arrays = arrays_for(ds)
        arrays._doc_vec_cache = memo = Memo()
        queries = query_pool(workload, 2, num_locations=5, ws=2, seed=0, seed_stride=101)
        sizes = []
        for query in queries:
            # A tf no object carries: ox.d and its augmentations cannot
            # coincide with an object's document.
            query.ox.terms[next(iter(query.keywords))] = 99
            engine.query(query, QueryOptions(backend="numpy"))
            sizes.append(len(memo))
        assert Memo.clears == 0
        assert memo and not (memo.keys() & object_docs)
        assert sizes[0] <= sizes[1] < 200  # selection documents only, kept
