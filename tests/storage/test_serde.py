"""Round-trip tests for the binary index serialization."""

import random

import pytest

from repro import Dataset
from repro.core.joint_topk import joint_topk
from repro.index.irtree import IRTree, MIRTree
from repro.storage.serde import (
    SerdeError,
    deserialize_irtree,
    image_size,
    serialize_irtree,
)
from repro.text.relevance import make_relevance

from ..conftest import make_random_objects, make_random_users


@pytest.fixture(scope="module")
def world():
    rng = random.Random(71)
    objects = make_random_objects(120, 20, rng)
    users = make_random_users(12, 20, rng)
    ds = Dataset(objects, users, relevance="LM", alpha=0.5)
    tree = MIRTree(objects, ds.relevance, fanout=8)
    return ds, tree


class TestRoundTrip:
    def test_structure_preserved(self, world):
        ds, tree = world
        image = serialize_irtree(tree)
        loaded = deserialize_irtree(image, ds.relevance)
        loaded.check_invariants()
        assert len(loaded) == len(tree)
        assert loaded.fanout == tree.fanout
        assert loaded.minmax == tree.minmax
        assert loaded.root.page_id == tree.root.page_id

    def test_documents_preserved(self, world):
        ds, tree = world
        loaded = deserialize_irtree(serialize_irtree(tree), ds.relevance)
        for o in ds.objects:
            lo = loaded.object_by_id(o.item_id)
            assert lo.terms == o.terms
            assert lo.location == o.location

    def test_posting_lists_bit_identical(self, world):
        ds, tree = world
        loaded = deserialize_irtree(serialize_irtree(tree), ds.relevance)
        for node in tree.rtree.iter_nodes():
            orig = tree.invfile_of(node)
            got = loaded.invfile_at(node.page_id)
            assert sorted(orig.terms()) == sorted(got.terms())
            for tid in orig.terms():
                a = [(p.entry_key, p.max_weight, p.min_weight) for p in orig.postings(tid)]
                b = [(p.entry_key, p.max_weight, p.min_weight) for p in got.postings(tid)]
                assert sorted(a) == sorted(b)

    def test_queries_identical_after_reload(self, world):
        """The reproduction-critical property: a reloaded tree answers
        joint top-k with bit-identical thresholds."""
        ds, tree = world
        loaded = deserialize_irtree(serialize_irtree(tree), ds.relevance)
        before = joint_topk(tree, ds, 5)
        after = joint_topk(loaded, ds, 5)
        for uid in before:
            assert before[uid].kth_score == after[uid].kth_score
            assert before[uid].object_ids() == after[uid].object_ids()

    def test_plain_irtree_roundtrip(self):
        rng = random.Random(73)
        objects = make_random_objects(60, 10, rng)
        rel = make_relevance("TF").fit([o.terms for o in objects])
        tree = IRTree(objects, rel, fanout=8, minmax=False)
        loaded = deserialize_irtree(serialize_irtree(tree), rel)
        assert not loaded.minmax
        assert isinstance(loaded, IRTree) and not isinstance(loaded, MIRTree)
        loaded.check_invariants()


class TestCorruption:
    def test_checksum_detects_bit_flip(self, world):
        _, tree = world
        image = bytearray(serialize_irtree(tree))
        image[len(image) // 2] ^= 0xFF
        with pytest.raises(SerdeError, match="checksum"):
            deserialize_irtree(bytes(image), tree.relevance)

    def test_truncated_image(self, world):
        _, tree = world
        image = serialize_irtree(tree)
        with pytest.raises(SerdeError):
            deserialize_irtree(image[: len(image) // 2], tree.relevance)

    def test_bad_magic(self, world):
        _, tree = world
        image = bytearray(serialize_irtree(tree))
        image[0:4] = b"NOPE"
        # checksum is over the payload including magic, so recompute
        import struct
        import zlib

        payload = bytes(image[:-4])
        fixed = payload + struct.pack("<I", zlib.crc32(payload))
        with pytest.raises(SerdeError, match="magic"):
            deserialize_irtree(fixed, tree.relevance)

    def test_empty_input(self, world):
        with pytest.raises(SerdeError):
            deserialize_irtree(b"", world[1].relevance)


class TestSizeModel:
    def test_image_size_positive_and_consistent(self, world):
        _, tree = world
        assert image_size(tree) == len(serialize_irtree(tree))

    def test_minmax_layout_larger(self):
        """The concrete encoding confirms the MIR-tree space overhead."""
        rng = random.Random(74)
        objects = make_random_objects(80, 15, rng)
        rel = make_relevance("LM").fit([o.terms for o in objects])
        ir = IRTree(objects, rel, fanout=8, minmax=False)
        mir = MIRTree(objects, rel, fanout=8)
        assert image_size(mir) > image_size(ir)


class TestSerdeProperties:
    """Randomized round-trips over many tree shapes."""

    def test_roundtrip_many_shapes(self):
        import random as _random

        from hypothesis import given, settings
        from hypothesis import strategies as st

        @given(
            n=st.integers(min_value=1, max_value=60),
            fanout=st.integers(min_value=2, max_value=10),
            seed=st.integers(min_value=0, max_value=10_000),
        )
        @settings(max_examples=25, deadline=None)
        def check(n, fanout, seed):
            rng = _random.Random(seed)
            objects = make_random_objects(n, 8, rng)
            rel = make_relevance("LM").fit([o.terms for o in objects])
            tree = MIRTree(objects, rel, fanout=fanout)
            loaded = deserialize_irtree(serialize_irtree(tree), rel)
            loaded.check_invariants()
            assert len(loaded) == n
            for o in objects:
                assert loaded.object_by_id(o.item_id).terms == o.terms

        check()
