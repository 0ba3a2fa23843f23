"""The IR-tree and the MIR-tree (Min-max IR-tree) over the object set.

The **IR-tree** (Cong et al., PVLDB 2009) is an R-tree in which every
node references an inverted file over its entries.  For a leaf node the
postings carry the actual document term weights; for an internal node
each child is summarized by a *pseudo-document* — the union of the
documents in the child's subtree, a term weighing the **maximum** weight
it attains there.  This gives upper bounds for best-first top-k search.

The **MIR-tree** (Section 5.1 of the paper, the reproduction target)
additionally stores the **minimum** weight of each term over the
*intersection* of the subtree's documents (0 when any document misses
the term).  The extra field is what enables the *lower* bound
estimations of Section 5.3, which drive the joint top-k traversal.

Both trees share this implementation; ``minmax=False`` gives the classic
IR-tree (8-byte postings), ``minmax=True`` the MIR-tree (12-byte
postings).  Construction, splitting and updates are identical to the
R-tree substrate, matching the paper's cost analysis.

Construction is columnar.  The tree reads the object table
(:class:`~repro.model.columns.ObjectTable`) and its relevance weights as
arrays, packs the leaves by STR on the coordinate columns
(:class:`~repro.spatial.rtree.PackedLevels`) and computes, level by
level, every node's summary as one CSR of ``(term, max weight, min
weight, posting count)`` by segment reductions over its entries — the
summary a parent's postings carry, and the sizes of the node's own
posting lists.  :class:`~repro.core.kernels.TreeArrays` flattens those
arrays directly.  Node objects (:attr:`IRTree.rtree`), per-node
:class:`~repro.index.invfile.InvertedFile` views and the objects
themselves are built on first access, for the scalar walks (the oracle,
the baseline) and tests; answering a query through the kernels needs
none of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..model.columns import ObjectTable, group_order, segment_rows
from ..model.objects import STObject
from ..spatial.geometry import Point, Rect
from ..spatial.rtree import DEFAULT_FANOUT, PackedLevels, RTree, RTreeEntry, RTreeNode
from ..storage.pager import (
    POSTING_ENTRY_BYTES_IR,
    POSTING_ENTRY_BYTES_MIR,
    PageStore,
    TERM_HEADER_BYTES,
)
from ..text.relevance import TextRelevance
from .invfile import InvertedFile, merge_minmax

__all__ = ["IRTree", "MIRTree", "ChildView", "ObjectView", "NodeSummaries"]


@dataclass(slots=True)
class ChildView:
    """An internal-node entry as seen after loading the inverted lists.

    ``weights`` maps term id -> (max weight, min weight) restricted to
    the terms the caller asked for; terms absent from the subtree's
    union are simply missing (both bounds 0).
    """

    node: RTreeNode[int]
    weights: Dict[int, Tuple[float, float]]


@dataclass(slots=True)
class ObjectView:
    """A leaf entry (an actual object) with its loaded term weights."""

    obj: STObject
    weights: Dict[int, Tuple[float, float]]

    @property
    def rect(self) -> Rect:
        return Rect.from_point(self.obj.location)


class NodeSummaries(NamedTuple):
    """One level's subtree summaries as a CSR over its nodes.

    Node ``g`` owns ``term[ptr[g]:ptr[g + 1]]`` (ascending): ``maxw`` is
    the term's maximum weight in the subtree, ``minw`` its minimum over
    the subtree's documents when every one of them holds it (``inter``)
    and 0 otherwise, ``count`` the number of the node's entries holding
    it — the length of the node's posting list for the term.
    """

    ptr: np.ndarray
    term: np.ndarray
    maxw: np.ndarray
    minw: np.ndarray
    inter: np.ndarray
    count: np.ndarray


def _summarize(group, term, maxw, minw, inter, entries_per_node) -> NodeSummaries:
    """Merge entry summaries into node summaries: per ``(group, term)``
    the max of the maxima, the min of the minima, and intersection only
    where every one of the node's entries is in it."""
    order = group_order(group, term)
    g, t = group[order], term[order]
    fresh = np.ones(len(g), dtype=bool)
    fresh[1:] = (g[1:] != g[:-1]) | (t[1:] != t[:-1])
    starts = np.flatnonzero(fresh)
    nodes = len(entries_per_node)
    if not len(starts):
        empty = np.zeros(0)
        return NodeSummaries(
            np.zeros(nodes + 1, dtype=np.int64), np.zeros(0, dtype=np.int64),
            empty, empty, np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64),
        )
    count = np.diff(np.append(starts, len(g)))
    node = g[starts]
    held = np.add.reduceat(inter[order].astype(np.int64), starts)
    both = held == entries_per_node[node]
    low = np.minimum.reduceat(minw[order], starts)
    return NodeSummaries(
        ptr=np.concatenate(([0], np.cumsum(np.bincount(node, minlength=nodes)))),
        term=t[starts],
        maxw=np.maximum.reduceat(maxw[order], starts),
        minw=np.where(both, low, 0.0),
        inter=both,
        count=count,
    )


class IRTree:
    """Spatial-textual tree over objects; see module docstring.

    Parameters
    ----------
    objects:
        The object set ``O``: an :class:`ObjectTable` (a sequence of
        objects is converted).
    relevance:
        A *fitted* text relevance measure; its weights of the objects'
        documents are what the posting lists store.
    fanout:
        R-tree fanout.
    minmax:
        True builds the MIR-tree layout (min and max weights).
    """

    index_name = "ir-tree"

    def __init__(
        self,
        objects: Union[ObjectTable, Sequence[STObject]],
        relevance: TextRelevance,
        fanout: int = DEFAULT_FANOUT,
        minmax: bool = False,
    ) -> None:
        self._setup(ObjectTable.of(objects), relevance, fanout, minmax)
        self._index()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _setup(
        self, table: ObjectTable, relevance: TextRelevance, fanout: int, minmax: bool
    ) -> None:
        if not len(table):
            raise ValueError("cannot index an empty object set")
        if not table.has_unique_ids():
            raise ValueError("duplicate object ids in the object set")
        self.table = table
        self.relevance = relevance
        self.minmax = minmax
        self.fanout = fanout
        #: ``w(t, o.d)`` aligned with the table's document CSR.
        self.weights = table.weights(relevance)
        self._rtree: Optional[RTree[int]] = None
        self._invfiles: Dict[int, InvertedFile] = {}

    def _index(self, leaves=None, upper=None) -> None:
        """Pack the levels and summarise every node, bottom-up."""
        table = self.table
        self.shape = PackedLevels(
            table.x, table.y, self.fanout, leaves=leaves, upper=upper
        )
        shape = self.shape
        doc_len = np.diff(table.indptr)
        # Leaves: the objects' own weights; min == max, all in the
        # intersection of their one-document subtree.
        members = shape.members[0]
        sizes = shape.sizes(0)
        entries = segment_rows(table.indptr, members)
        slot_node = np.repeat(np.arange(len(sizes)), sizes)
        group = np.repeat(slot_node, doc_len[members])
        w = self.weights[entries]
        summaries = [_summarize(
            group, table.terms[entries], w, w, np.ones(len(w), dtype=bool), sizes
        )]
        for level in range(1, shape.height):
            below = summaries[-1]
            members, sizes = shape.members[level], shape.sizes(level)
            entries = segment_rows(below.ptr, members)
            slot_node = np.repeat(np.arange(len(sizes)), sizes)
            group = np.repeat(slot_node, np.diff(below.ptr)[members])
            summaries.append(_summarize(
                group, below.term[entries], below.maxw[entries],
                below.minw[entries], below.inter[entries], sizes,
            ))
        #: Per level, every node's :class:`NodeSummaries` row.
        self.summaries: List[NodeSummaries] = summaries
        page_level = np.empty(shape.num_nodes, dtype=np.int64)
        page_node = np.empty(shape.num_nodes, dtype=np.int64)
        for level, pages in enumerate(shape.page):
            page_level[pages] = level
            page_node[pages] = np.arange(len(pages))
        self._page_level = page_level
        self._page_node = page_node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rtree(self) -> RTree[int]:
        """The tree as node objects (built on first access)."""
        if self._rtree is None:
            table = self.table
            entries = [
                RTreeEntry(point=Point(x, y), item=oid)
                for oid, x, y in zip(table.ids.tolist(), table.x.tolist(), table.y.tolist())
            ]
            rtree: RTree[int] = RTree(fanout=self.fanout)
            self.shape.fill(rtree, entries)
            self._rtree = rtree
        return self._rtree

    @property
    def root(self) -> RTreeNode[int]:
        root = self.rtree.root
        assert root is not None
        return root

    def __len__(self) -> int:
        return len(self.table)

    def object_by_id(self, object_id: int) -> STObject:
        return self.table.object(object_id)

    def document_weights(self, object_id: int) -> Dict[int, float]:
        """Actual term weights of one object's document."""
        row = self.table.row_of(object_id)
        a, b = int(self.table.indptr[row]), int(self.table.indptr[row + 1])
        return dict(zip(self.table.terms[a:b].tolist(), self.weights[a:b].tolist()))

    def ascending_weights(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, term, weight)``: every object's weights with its
        terms ascending (what a leaf entry's bounds sum over)."""
        ascending = self.table.ascending()
        return self.table.indptr, self.table.terms[ascending], self.weights[ascending]

    @property
    def posting_entry_bytes(self) -> int:
        return POSTING_ENTRY_BYTES_MIR if self.minmax else POSTING_ENTRY_BYTES_IR

    def invfile_of(self, node: RTreeNode[int]) -> InvertedFile:
        return self.invfile_at(node.page_id)

    def invfile_at(self, page_id: int) -> InvertedFile:
        """The inverted file of the node with this page id, as a view
        over the level arrays (built on first access)."""
        inv = self._invfiles.get(page_id)
        if inv is None:
            level = int(self._page_level[page_id])
            node = int(self._page_node[page_id])
            ptr, members = self.shape.ptr[level], self.shape.members[level]
            slots = members[ptr[node]:ptr[node + 1]]
            if level == 0:
                src_ptr, term = self.table.indptr, self.table.terms
                maxw = minw = self.weights
                keys = self.table.ids[slots]
            else:
                below = self.summaries[level - 1]
                src_ptr, term, maxw, minw = below.ptr, below.term, below.maxw, below.minw
                keys = self.shape.page[level - 1][slots]
            entries = segment_rows(src_ptr, slots)
            inv = InvertedFile.from_arrays(
                self.minmax, term[entries],
                np.repeat(keys, np.diff(src_ptr)[slots]),
                maxw[entries], minw[entries],
            )
            self._invfiles[page_id] = inv
        return inv

    def subtree_summary(
        self, node: RTreeNode[int]
    ) -> Tuple[Dict[int, float], Dict[int, float]]:
        """(max weights over union, min weights over intersection)."""
        level = int(self._page_level[node.page_id])
        g = int(self._page_node[node.page_id])
        s = self.summaries[level]
        a, b = int(s.ptr[g]), int(s.ptr[g + 1])
        terms = s.term[a:b].tolist()
        max_w = dict(zip(terms, s.maxw[a:b].tolist()))
        min_w = {
            t: m for t, m, both in zip(terms, s.minw[a:b].tolist(), s.inter[a:b].tolist())
            if both
        }
        return max_w, min_w

    def total_inverted_bytes(self) -> int:
        return sum(
            len(s.term) * TERM_HEADER_BYTES
            + int(s.count.sum()) * self.posting_entry_bytes
            for s in self.summaries
        )

    # ------------------------------------------------------------------
    # Charged access (the only path algorithms use)
    # ------------------------------------------------------------------
    def read_node(
        self,
        node: RTreeNode[int],
        term_ids: Iterable[int],
        store: Optional[PageStore] = None,
    ) -> Tuple[List[ChildView], List[ObjectView]]:
        """Visit ``node``: charge I/O, load posting lists, view entries.

        Returns ``(child_views, object_views)`` — one of the two lists is
        empty depending on the node kind.  Every entry of the node is
        returned even if it matches none of ``term_ids`` (its weight map
        is then empty): the spatial part of the score still applies.
        """
        terms = set(term_ids)
        if store is not None:
            store.read_node(self.index_name, node.page_id)
        inv = self.invfile_at(node.page_id)
        inv.charge_lists(store, self.index_name, node.page_id, terms)
        by_entry = inv.entry_weights(terms)
        if node.is_leaf:
            objects = [
                ObjectView(
                    obj=self.object_by_id(entry.item),
                    weights=by_entry.get(entry.item, {}),
                )
                for entry in node.entries
            ]
            return [], objects
        children = [
            ChildView(node=child, weights=by_entry.get(child.page_id, {}))
            for child in node.children
        ]
        return children, []

    # ------------------------------------------------------------------
    # Invariants (tests call this)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Structural + weight-bound invariants of the (M)IR-tree."""
        self.rtree.check_invariants()
        root = self.root
        self._check_node(root)

    def _check_node(self, node: RTreeNode[int]) -> Tuple[Dict[int, float], Dict[int, float]]:
        max_w, min_w = self.subtree_summary(node)
        if node.is_leaf:
            expect = merge_minmax([self.document_weights(e.item) for e in node.entries])
        else:
            expect = _merge_summaries([self._check_node(c) for c in node.children])
        assert _weights_close(max_w, expect[0]), "stale max summary"
        assert _weights_close(min_w, expect[1]), "stale min summary"
        for tid, maxw in max_w.items():
            minw = min_w.get(tid, 0.0)
            assert minw <= maxw + 1e-9, "min exceeds max in summary"
        return max_w, min_w


class MIRTree(IRTree):
    """The Min-max IR-tree of Section 5.1 (``minmax=True`` IR-tree)."""

    index_name = "mir-tree"

    def __init__(
        self,
        objects: Union[ObjectTable, Sequence[STObject]],
        relevance: TextRelevance,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        super().__init__(objects, relevance, fanout=fanout, minmax=True)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def _merge_summaries(
    summaries: Sequence[Tuple[Dict[int, float], Dict[int, float]]],
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Merge child (max, min) summaries into the parent summary.

    Max weights merge over the union; min weights survive only for terms
    present in the intersection of *every* child (with the smallest
    value), because a term absent anywhere in the subtree has minimum
    weight 0 and is dropped.
    """
    max_w: Dict[int, float] = {}
    for child_max, _ in summaries:
        for tid, w in child_max.items():
            if w > max_w.get(tid, float("-inf")):
                max_w[tid] = w
    min_w: Dict[int, float] = {}
    first = True
    for _, child_min in summaries:
        if first:
            min_w = dict(child_min)
            first = False
            continue
        for tid in list(min_w):
            w = child_min.get(tid)
            if w is None:
                del min_w[tid]
            elif w < min_w[tid]:
                min_w[tid] = w
    return max_w, min_w


def _weights_close(a: Mapping[int, float], b: Mapping[int, float]) -> bool:
    if set(a) != set(b):
        return False
    return all(abs(a[t] - b[t]) <= 1e-9 for t in a)
