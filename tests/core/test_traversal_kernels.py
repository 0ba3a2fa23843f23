"""Property tests for the wave-vectorized frontier traversal (PR 3).

Two families of guarantees:

* **Oracle identity.**  ``joint_traversal`` must reproduce the
  oracle's scalar walk (``repro.oracle.joint_traversal``) *bitwise*:
  same LO/RO pools (object ids, lower/upper bounds, weight dicts,
  order), same ``rsk_group``, and the same simulated-I/O trace — the
  frontier kernels sum in the scalar association order on purpose (see
  repro/core/kernels.py, "Exactness contract"), so these asserts use
  ``==``, never approx.  The engine's pool is three columns filled from
  entry-index heaps (``CandidatePool``); its object views are built on
  demand and must be the oracle walk's objects.

* **Cross-k subsumption.**  The candidate pool of a ``k_max``
  traversal subsumes the pool of every smaller ``k`` and yields
  value-identical per-k thresholds, which is what lets a mixed-k batch
  pay for a single tree walk (``repro.core.batch.SharedTraversalPool``).
"""

import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle
from repro.core.joint_topk import (
    CandidatePoolError, canonical_candidates, derive_rsk_group, individual_topk,
    joint_traversal,
)
from repro.core.kernels import TreeArrays, tree_arrays_for
from repro.index.miurtree import MIURTree
from repro.model.objects import STObject, SuperUser, User
from repro.spatial.geometry import Point
from repro.storage.iostats import IOCounter
from repro.storage.pager import LRUBuffer, PageStore

from ..conftest import make_random_objects, make_random_users

#: Algorithms 1 and 2 by side: the oracle's scalar forms, the engine's.
WALK = {"oracle": oracle.joint_traversal, "engine": joint_traversal}
REFINE = {"oracle": oracle.individual_topk, "engine": individual_topk}


def random_engine(seed, twins=0):
    rng = random.Random(seed)
    vocab = rng.choice([8, 20, 60])
    objects = make_random_objects(rng.randint(30, 140), vocab, rng)
    # Twins — one point, one document, a fresh id: equal LB and UB, so
    # only the stable sorts and the heap's tie-break counter order them.
    objects += [
        STObject(item_id=len(objects) + i, location=o.location, terms=dict(o.terms))
        for i, o in enumerate(rng.choices(objects, k=twins))
    ]
    users = make_random_users(rng.randint(5, 28), vocab, rng)
    # Z(u.d) = 0 users — no keyword; one no object holds — sit in the
    # same groups: their TS is 0, the group's text bound must not be.
    users += [
        User(
            item_id=len(users) + i,
            location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
            terms=terms,
        )
        for i, terms in enumerate(({}, {vocab + 5: 1}))
    ]
    dataset = Dataset(
        objects,
        users,
        relevance=rng.choice(["LM", "TF", "KO"]),
        alpha=rng.choice([0.0, 0.25, 0.5, 0.9, 1.0]),
    )
    engine = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=rng.choice([3, 4, 8])))
    return engine, rng


def miur_root(engine):
    """Section 7's super-user: the root summary of a MIUR-tree over the
    engine's users."""
    ds = engine.dataset
    return MIURTree(ds.users, ds.relevance, fanout=engine.config.fanout).root.summary


def assert_traversals_identical(a, b):
    """Pool-level bitwise equality (CandidateObject is an eq dataclass)."""
    assert a.rsk_group == b.rsk_group
    for name in ("lo", "ro"):
        pa, pb = getattr(a, name), getattr(b, name)
        assert len(pa) == len(pb), name
        for x, y in zip(pa, pb):
            assert x.obj.item_id == y.obj.item_id, name
            assert x.lower == y.lower, name
            assert x.upper == y.upper, name
            assert x.weights == y.weights, name


@pytest.mark.parametrize("seed", range(8))
def test_traversal_identical_to_oracle_on_random_trees(seed):
    """engine == oracle: pools, threshold, and I/O trace, bitwise."""
    engine, rng = random_engine(seed)
    summaries = [
        None,  # dataset-wide super-user
        miur_root(engine),  # MIUR root (Section 7's walk)
        SuperUser.from_users(  # a proper subgroup
            engine.dataset.users[: max(2, len(engine.dataset.users) // 2)],
            engine.dataset.relevance,
        ),
    ]
    for k in (1, 2, 5, 11):
        for su in summaries:
            counters = []
            results = []
            for walk in (oracle.joint_traversal, joint_traversal):
                counter = IOCounter()
                results.append(
                    walk(
                        engine.object_tree,
                        engine.dataset,
                        k,
                        super_user=su,
                        store=PageStore(counter=counter),
                    )
                )
                counters.append(counter)
            assert_traversals_identical(results[0], results[1])
            assert counters[0].node_visits == counters[1].node_visits
            assert counters[0].invfile_blocks == counters[1].invfile_blocks


def test_traversal_identical_to_oracle_with_buffered_store():
    """The LRU-buffer fallback path charges exactly like the scalar one."""
    engine, _ = random_engine(3)
    for capacity in (0, 16):
        stores = []
        for _ in range(2):
            counter = IOCounter()
            stores.append(PageStore(counter=counter, buffer=LRUBuffer(capacity)))
        py = oracle.joint_traversal(
            engine.object_tree, engine.dataset, 4, store=stores[0]
        )
        np_ = joint_traversal(engine.object_tree, engine.dataset, 4, store=stores[1])
        assert_traversals_identical(py, np_)
        assert stores[0].counter.node_visits == stores[1].counter.node_visits
        assert stores[0].counter.invfile_blocks == stores[1].counter.invfile_blocks
        assert stores[0].buffer.hits == stores[1].buffer.hits
        assert stores[0].buffer.misses == stores[1].buffer.misses


class TestColumnPool:
    """The engine walk's hand-off: id / bound columns off index heaps."""

    @given(
        seed=st.integers(0, 10_000),
        k=st.sampled_from([1, 2, 5, 11, 400]),
        twins=st.sampled_from([0, 12, 60]),
        group=st.sampled_from(["all", "miur-root", "half"]),
        buffer=st.sampled_from([None, 0, 16]),
    )
    @settings(max_examples=40, deadline=None)
    def test_columns_and_views_equal_the_oracle_walk(
        self, seed, k, twins, group, buffer
    ):
        engine, _ = random_engine(seed, twins=twins)
        ds = engine.dataset
        su = {
            "all": None,
            "miur-root": miur_root(engine),
            "half": SuperUser.from_users(
                ds.users[: max(2, len(ds.users) // 2)], ds.relevance
            ),
        }[group]
        stores = [
            PageStore(
                counter=IOCounter(),
                buffer=None if buffer is None else LRUBuffer(buffer),
            )
            for _ in range(2)
        ]
        py, columns = (
            walk(engine.object_tree, ds, k, super_user=su, store=store)
            for store, walk in zip(stores, (oracle.joint_traversal, joint_traversal))
        )
        pool = columns.pool
        assert pool.ids.tolist() == [c.obj.item_id for c in py.pool]
        assert pool.lower.tolist() == [c.lower for c in py.pool]
        assert pool.upper.tolist() == [c.upper for c in py.pool]
        assert (columns.n_lo, columns.rsk_group) == (py.n_lo, py.rsk_group)
        for a, b in zip(stores, stores[1:]):
            assert a.counter.node_visits == b.counter.node_visits
            assert a.counter.invfile_blocks == b.counter.invfile_blocks
            if buffer is not None:
                assert (a.buffer.hits, a.buffer.misses) == (
                    b.buffer.hits, b.buffer.misses
                )
        # Everything above — and sizing LO / RO, as the pool-size probe
        # does — read columns only; the views are the oracle walk's.
        assert len(columns.lo) + len(columns.ro) == len(py.pool)
        assert pool._views is None
        assert_traversals_identical(py, columns)
        assert list(pool) == list(py.pool)
        # Per-k derivations read the same pool off either walk.
        for small in {1, min(k, 3), k}:
            group_rsk = derive_rsk_group(columns, k, small)
            assert group_rsk == derive_rsk_group(py, k, small)
            canonical = canonical_candidates(columns, group_rsk)
            assert list(canonical) == list(canonical_candidates(py, group_rsk))

    def test_pool_crosses_a_process_boundary_as_columns_only(self):
        engine, _ = random_engine(6)
        ds = engine.dataset
        walked = joint_traversal(engine.object_tree, ds, 5)
        blob = pickle.dumps(walked, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"STObject" not in blob and b"CandidateObject" not in blob
        arrived = pickle.loads(blob)
        assert arrived.pool.ids.tolist() == walked.pool.ids.tolist()
        assert arrived.pool.lower.tolist() == walked.pool.lower.tolist()
        assert arrived.pool.upper.tolist() == walked.pool.upper.tolist()
        assert (arrived.n_lo, arrived.rsk_group) == (walked.n_lo, walked.rsk_group)
        ranked = {
            uid: res.ranked
            for uid, res in individual_topk(arrived, ds, 5).items()
        }
        assert ranked == {
            uid: res.ranked
            for uid, res in oracle.individual_topk(walked, ds, 5).items()
        }
        # No tree on the far side: sized, sliced, refined — never viewed.
        assert len(arrived.lo) == walked.n_lo
        with pytest.raises(CandidatePoolError, match="process boundary"):
            arrived.ro[0]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("side", ["oracle", "engine"])
def test_kmax_pool_subsumes_every_smaller_k(seed, side):
    """Objects any k-traversal keeps are all in the k_max pool, and the
    derived per-k thresholds are value-identical to dedicated runs."""
    engine, _ = random_engine(seed)
    kmax = 9
    pool = WALK[side](engine.object_tree, engine.dataset, kmax)
    pool_ids = {c.obj.item_id for c in pool.all_candidates()}
    lows = sorted((c.lower for c in pool.all_candidates()), reverse=True)
    for k in (1, 2, 4, kmax):
        dedicated = WALK[side](engine.object_tree, engine.dataset, k)
        dedicated_ids = {c.obj.item_id for c in dedicated.all_candidates()}
        assert dedicated_ids <= pool_ids
        # RSk(us) derived from the pool == the dedicated traversal's.
        derived_rsk_group = lows[k - 1] if k <= len(lows) else 0.0
        assert derived_rsk_group == dedicated.rsk_group
        # Algorithm 2 over the k_max pool == over the dedicated pool.
        via_pool = REFINE[side](pool, engine.dataset, k)
        via_dedicated = REFINE[side](dedicated, engine.dataset, k)
        for uid, res in via_dedicated.items():
            assert via_pool[uid].ranked == res.ranked


def test_mixed_k_batch_runs_one_traversal_and_matches_sequential():
    """The PR-3 acceptance shape: k in {1, 5, 10} -> one tree walk."""
    engine, rng = random_engine(17)
    from repro.core.query import MaxBRSTkNNQuery
    from repro.model.objects import STObject
    from repro.spatial.geometry import Point

    queries = []
    for i, k in enumerate([1, 5, 10, 5, 1]):
        queries.append(
            MaxBRSTkNNQuery(
                ox=STObject(
                    item_id=-(i + 1),
                    location=Point(rng.uniform(0, 10), rng.uniform(0, 10)),
                    terms={},
                ),
                locations=[
                    Point(rng.uniform(0, 10), rng.uniform(0, 10))
                    for _ in range(3)
                ],
                keywords=sorted(rng.sample(range(8), 4)),
                ws=2,
                k=k,
            )
        )
    sequential = [oracle.query(engine, q, QueryOptions()) for q in queries]
    runs_before = engine.traversal_runs
    batched = engine.query_batch(queries, QueryOptions())
    assert engine.traversal_runs == runs_before + 1  # exactly one walk
    assert engine._executor.traversal_pool.k == 10
    for solo, bat in zip(sequential, batched):
        assert solo.location == bat.location
        assert solo.keywords == bat.keywords
        assert solo.brstknn == bat.brstknn


def test_tree_arrays_memoized_per_tree_and_refuse_pickling():
    engine, _ = random_engine(1)
    arrays = tree_arrays_for(engine.object_tree)
    assert isinstance(arrays, TreeArrays)
    assert tree_arrays_for(engine.object_tree) is arrays
    other, _ = random_engine(2)
    assert tree_arrays_for(other.object_tree) is not arrays
    with pytest.raises(TypeError, match="copy-on-write"):
        pickle.dumps(arrays)


def test_tree_arrays_flatten_the_whole_tree():
    engine, _ = random_engine(4)
    arrays = tree_arrays_for(engine.object_tree)
    # Leaf entries = objects; every node owns a contiguous entry span.
    object_entries = sum(
        arrays.node_end[i] - arrays.node_start[i]
        for i, leaf in enumerate(arrays.node_is_leaf)
        if leaf
    )
    assert object_entries == len(engine.dataset.objects)
    assert arrays.num_entries == len(arrays.ent_indptr) - 1
    # CSR terms are ascending within every entry (the canonical order).
    for e in range(arrays.num_entries):
        seg = arrays.ent_term_np[arrays.ent_indptr[e]:arrays.ent_indptr[e + 1]].tolist()
        assert list(seg) == sorted(seg)


# ----------------------------------------------------------------------
# The segment-sum kernel on its own: bitwise the scalar loop, O(nnz)
# ----------------------------------------------------------------------

def scalar_segment_sums(values, mask, indptr):
    """The scalar reference: ``total = 0.0; total += w`` per segment,
    left to right over its kept entries."""
    out = []
    for start, end in zip(indptr[:-1].tolist(), indptr[1:].tolist()):
        total = 0.0
        for w, kept in zip(values[start:end].tolist(), mask[start:end].tolist()):
            if kept:
                total += w
        out.append(total)
    return out


@st.composite
def csr_draws(draw):
    """Segments of 0..12 entries (empty ones included), weights from
    1e-8 to 1e2, and a mask anywhere from all-kept to all-dropped."""
    import numpy as np

    lengths = draw(st.lists(st.integers(0, 12), max_size=40))
    nnz = sum(lengths)
    values = draw(st.lists(
        st.floats(1e-8, 1e2, allow_nan=False, allow_infinity=False),
        min_size=nnz, max_size=nnz,
    ))
    kind = draw(st.sampled_from(["random", "none", "all"]))
    if kind == "random":
        mask = draw(st.lists(st.booleans(), min_size=nnz, max_size=nnz))
    else:
        mask = [kind == "all"] * nnz
    indptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.intp))).astype(np.intp)
    return (
        np.array(values, dtype=np.float64).reshape(nnz),
        np.array(mask, dtype=bool).reshape(nnz),
        indptr,
    )


class TestMaskedSegmentSums:
    @given(csr=csr_draws())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_the_scalar_loop(self, csr):
        import numpy as np

        from repro.core.kernels import _masked_segment_sums

        values, mask, indptr = csr
        got = _masked_segment_sums(values, mask, indptr)
        want = np.array(scalar_segment_sums(values, mask, indptr), dtype=np.float64)
        assert got.shape == want.shape
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_one_long_segment_among_empty_ones_stays_o_nnz(self):
        """100 k entries in one segment beside 100 k empty segments: a
        ``segments x longest`` temporary would be 10^10 floats.  Peak
        traced memory stays a small multiple of the input size."""
        import tracemalloc

        import numpy as np

        from repro.core.kernels import _masked_segment_sums

        n = 100_000
        rng = np.random.default_rng(7)
        values = rng.uniform(1e-8, 1e2, n)
        mask = rng.random(n) < 0.9
        lengths = np.zeros(n + 1, dtype=np.intp)
        lengths[n // 2] = n
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.intp)
        tracemalloc.start()
        try:
            got = _masked_segment_sums(values, mask, indptr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        input_bytes = values.nbytes + mask.nbytes + indptr.nbytes
        assert peak < 8 * input_bytes
        total = 0.0
        for w in values[mask].tolist():
            total += w
        assert got[n // 2] == total and not got[: n // 2].any() and not got[n // 2 + 1:].any()
