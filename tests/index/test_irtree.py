"""Tests for the IR-tree / MIR-tree: structure, summaries, I/O charging."""

import random

import pytest

from repro.index.irtree import IRTree, MIRTree
from repro.spatial.rtree import str_groups
from repro.storage.iostats import IOCounter
from repro.storage.pager import PageStore
from repro.text.relevance import make_relevance

from ..conftest import make_random_objects


@pytest.fixture(scope="module")
def built():
    rng = random.Random(99)
    objects = make_random_objects(120, 25, rng)
    rel = make_relevance("LM").fit([o.terms for o in objects])
    tree = MIRTree(objects, rel, fanout=8)
    return objects, rel, tree


class TestConstruction:
    def test_invariants(self, built):
        _, _, tree = built
        tree.check_invariants()

    def test_empty_rejected(self):
        rel = make_relevance("LM")
        with pytest.raises(ValueError):
            MIRTree([], rel)

    def test_duplicate_ids_rejected(self):
        rng = random.Random(1)
        objects = make_random_objects(4, 10, rng)
        objects[3].item_id = objects[0].item_id
        rel = make_relevance("LM").fit([o.terms for o in objects])
        with pytest.raises(ValueError):
            MIRTree(objects, rel)

    def test_single_object_tree(self):
        rng = random.Random(2)
        objects = make_random_objects(1, 10, rng)
        rel = make_relevance("LM").fit([o.terms for o in objects])
        tree = MIRTree(objects, rel)
        tree.check_invariants()
        assert tree.root.is_leaf

    def test_minmax_flag(self, built):
        _, _, tree = built
        assert tree.minmax
        assert tree.invfile_of(tree.root).minmax

    @pytest.mark.parametrize("n", [2, 7, 8, 9, 65])
    def test_leaves_are_the_str_groups(self, n):
        """Below, at and past the fanout: the tree checks out, every
        object sits in exactly one leaf, and the leaves are the STR
        partition of the objects' points — the one leaf packing."""
        rng = random.Random(n)
        objects = make_random_objects(n, 10, rng)
        rel = make_relevance("LM").fit([o.terms for o in objects])
        tree = MIRTree(objects, rel, fanout=8)
        tree.check_invariants()
        leaves = sorted(
            tuple(sorted(e.item for e in node.entries))
            for node in tree.rtree.iter_nodes()
            if node.is_leaf
        )
        assert sorted(i for leaf in leaves for i in leaf) == \
            sorted(o.item_id for o in objects)
        order, ptr = str_groups(tree.table.x, tree.table.y, 8)
        ids = tree.table.ids
        assert leaves == sorted(
            tuple(sorted(ids[order[a:b]].tolist()))
            for a, b in zip(ptr[:-1], ptr[1:])
        )

    @pytest.mark.parametrize("measure", ["LM", "TF", "KO"])
    def test_all_measures_build(self, measure):
        rng = random.Random(3)
        objects = make_random_objects(60, 15, rng)
        rel = make_relevance(measure).fit([o.terms for o in objects])
        MIRTree(objects, rel, fanout=8).check_invariants()


class TestSummaries:
    def test_root_summary_bounds_every_document(self, built):
        objects, rel, tree = built
        max_w, min_w = tree.subtree_summary(tree.root)
        for o in objects:
            for tid, w in rel.document_weights(o.terms).items():
                assert w <= max_w[tid] + 1e-12
        # Min weights only for terms in *every* document.
        inter = set(objects[0].terms)
        for o in objects[1:]:
            inter &= set(o.terms)
        assert set(min_w) == inter

    def test_leaf_postings_are_actual_weights(self, built):
        objects, rel, tree = built
        node = tree.root
        while not node.is_leaf:
            node = node.children[0]
        inv = tree.invfile_of(node)
        for entry in node.entries:
            weights = rel.document_weights(tree.object_by_id(entry.item).terms)
            for tid, w in weights.items():
                posting = [p for p in inv.postings(tid) if p.entry_key == entry.item]
                assert len(posting) == 1
                assert posting[0].max_weight == pytest.approx(w)
                assert posting[0].min_weight == pytest.approx(w)


class TestReadNode:
    def test_read_internal_returns_children(self, built):
        _, _, tree = built
        terms = set(range(25))
        children, objects = tree.read_node(tree.root, terms)
        assert objects == []
        assert {c.node.page_id for c in children} == {
            ch.page_id for ch in tree.root.children
        }

    def test_read_leaf_returns_objects(self, built):
        _, _, tree = built
        node = tree.root
        while not node.is_leaf:
            node = node.children[0]
        children, objects = tree.read_node(node, set(range(25)))
        assert children == []
        assert {o.obj.item_id for o in objects} == {e.item for e in node.entries}

    def test_weights_restricted_to_requested_terms(self, built):
        _, _, tree = built
        children, _ = tree.read_node(tree.root, {0, 1})
        for cv in children:
            assert set(cv.weights) <= {0, 1}

    def test_io_charging(self, built):
        _, _, tree = built
        counter = IOCounter()
        store = PageStore(counter=counter)
        tree.read_node(tree.root, {0, 1, 2}, store)
        assert counter.node_visits == 1
        assert counter.invfile_blocks >= 1

    def test_no_store_is_free(self, built):
        _, _, tree = built
        tree.read_node(tree.root, {0})  # must not raise


class TestIRvsMIRSize:
    def test_mir_tree_larger_on_disk(self):
        """The MIR-tree pays exactly the extra min-weight per posting."""
        rng = random.Random(5)
        objects = make_random_objects(100, 20, rng)
        rel = make_relevance("LM").fit([o.terms for o in objects])
        ir = IRTree(objects, rel, fanout=8, minmax=False)
        mir = MIRTree(objects, rel, fanout=8)
        assert mir.total_inverted_bytes() > ir.total_inverted_bytes()
