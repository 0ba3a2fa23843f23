"""A classic R-tree over point data.

This is the spatial substrate under every index in the paper: the
IR-tree, MIR-tree, and MIUR-tree all share the same R-tree skeleton and
only differ in the textual augmentation attached to each node.  The tree
supports:

* **STR bulk loading** (Sort-Tile-Recursive), the standard way to build a
  packed tree from a static dataset — matching the paper's setting where
  the object set ``O`` is indexed once and queried many times.  The
  packing runs on coordinate arrays (:class:`PackedLevels`: two stable
  ``lexsort``s per level, MBRs by segment reductions, page ids and the
  pre-order numbered by array arithmetic); node objects are one view of
  that shape, built for whoever walks the tree;
* **dynamic insertion** with Guttman's quadratic split, so incremental
  updates behave like the original IR-tree ("the update costs of the
  MIR-tree are the same as the IR-tree");
* range and point queries used by the test suite as a correctness oracle.

Nodes carry opaque integer ``page_id``s handed out by a
:class:`repro.storage.pager.PageStore` so that simulated I/O accounting
(Section 8 of the paper) can charge one I/O per node visit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .geometry import Point, Rect

__all__ = [
    "RTreeEntry", "RTreeNode", "RTree", "DEFAULT_FANOUT", "PackedLevels", "str_groups",
]

T = TypeVar("T")

#: Default maximum entries per node.  With a 4 kB page and ~40 byte
#: spatial entries a real system would pack ~100 entries; the paper's
#: trees are shallow and wide.  The test/bench datasets are small, so a
#: moderate fanout keeps the trees a few levels deep, which is what the
#: pruning logic needs to show its effect.
DEFAULT_FANOUT = 32


@dataclass(slots=True)
class RTreeEntry(Generic[T]):
    """Leaf payload: a point plus an opaque item (object id, user id...)."""

    point: Point
    item: T

    @property
    def rect(self) -> Rect:
        return Rect.from_point(self.point)


@dataclass(slots=True)
class RTreeNode(Generic[T]):
    """One R-tree node.

    ``children`` is populated for internal nodes, ``entries`` for leaves.
    ``page_id`` is assigned by the owning tree for I/O accounting.
    """

    is_leaf: bool
    rect: Rect
    children: List["RTreeNode[T]"] = field(default_factory=list)
    entries: List[RTreeEntry[T]] = field(default_factory=list)
    page_id: int = -1
    #: Number of leaf entries in the subtree (the MIUR-tree stores this
    #: as ``cp.num``; keeping it on the base node costs nothing).
    subtree_count: int = 0

    def recompute_rect(self) -> None:
        if self.is_leaf:
            self.rect = Rect.from_rects([e.rect for e in self.entries])
        else:
            self.rect = Rect.from_rects([c.rect for c in self.children])

    def recompute_count(self) -> None:
        if self.is_leaf:
            self.subtree_count = len(self.entries)
        else:
            self.subtree_count = sum(c.subtree_count for c in self.children)

    def fanout(self) -> int:
        return len(self.entries) if self.is_leaf else len(self.children)


class RTree(Generic[T]):
    """R-tree over point-located items.

    Parameters
    ----------
    fanout:
        Maximum number of entries/children per node.  The minimum fill is
        ``ceil(fanout * 0.4)`` as in Guttman's original heuristics.
    """

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 2:
            raise ValueError("R-tree fanout must be >= 2")
        self.fanout = fanout
        self.min_fill = max(1, math.ceil(fanout * 0.4))
        self.root: Optional[RTreeNode[T]] = None
        self._size = 0
        self._next_page = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree)."""
        h, node = 0, self.root
        while node is not None:
            h += 1
            node = None if node.is_leaf else node.children[0]
        return h

    def iter_nodes(self) -> Iterator[RTreeNode[T]]:
        """Pre-order traversal of every node."""
        if self.root is None:
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def iter_entries(self) -> Iterator[RTreeEntry[T]]:
        for node in self.iter_nodes():
            if node.is_leaf:
                yield from node.entries

    def node_count(self) -> int:
        return sum(1 for _ in self.iter_nodes())

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls, entries: Sequence[RTreeEntry[T]], fanout: int = DEFAULT_FANOUT
    ) -> "RTree[T]":
        """Build a packed tree with the STR algorithm.

        Entries are sorted by x, cut into vertical slabs of
        ``ceil(sqrt(n / fanout))`` runs, each slab sorted by y and packed
        into leaves of ``fanout`` entries; the process recurses upward
        (:class:`PackedLevels` does it on coordinate arrays).
        """
        tree = cls(fanout=fanout)
        if not entries:
            return tree
        x = np.array([e.point.x for e in entries], dtype=np.float64)
        y = np.array([e.point.y for e in entries], dtype=np.float64)
        PackedLevels(x, y, fanout).fill(tree, list(entries))
        return tree

    def _assign_page_ids(self) -> None:
        """Number nodes breadth-first so page ids are deterministic."""
        self._next_page = 0
        if self.root is None:
            return
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            node.page_id = self._next_page
            self._next_page += 1
            if not node.is_leaf:
                queue.extend(node.children)

    # ------------------------------------------------------------------
    # Dynamic insertion (Guttman, quadratic split)
    # ------------------------------------------------------------------
    def insert(self, point: Point, item: T) -> None:
        entry = RTreeEntry(point=point, item=item)
        if self.root is None:
            self.root = RTreeNode[T](is_leaf=True, rect=entry.rect, entries=[entry])
            self.root.subtree_count = 1
            self.root.page_id = self._next_page
            self._next_page += 1
            self._size = 1
            return
        split = self._insert_into(self.root, entry)
        if split is not None:
            old_root = self.root
            self.root = RTreeNode[T](
                is_leaf=False,
                rect=old_root.rect.union(split.rect),
                children=[old_root, split],
            )
            self.root.subtree_count = old_root.subtree_count + split.subtree_count
            self.root.page_id = self._next_page
            self._next_page += 1
        self._size += 1

    def _insert_into(
        self, node: RTreeNode[T], entry: RTreeEntry[T]
    ) -> Optional[RTreeNode[T]]:
        """Insert recursively; return the sibling created by a split."""
        node.rect = node.rect.union(entry.rect)
        node.subtree_count += 1
        if node.is_leaf:
            node.entries.append(entry)
            if len(node.entries) > self.fanout:
                return self._split_leaf(node)
            return None
        child = _choose_subtree(node.children, entry.rect)
        split = self._insert_into(child, entry)
        if split is not None:
            split.page_id = self._next_page
            self._next_page += 1
            node.children.append(split)
            if len(node.children) > self.fanout:
                return self._split_internal(node)
        return None

    def _split_leaf(self, node: RTreeNode[T]) -> RTreeNode[T]:
        group_a, group_b = _quadratic_split(
            node.entries, self.min_fill, key=lambda e: e.rect
        )
        node.entries = group_a
        node.recompute_rect()
        node.recompute_count()
        sibling = RTreeNode[T](
            is_leaf=True,
            rect=Rect.from_rects([e.rect for e in group_b]),
            entries=group_b,
        )
        sibling.subtree_count = len(group_b)
        return sibling

    def _split_internal(self, node: RTreeNode[T]) -> RTreeNode[T]:
        group_a, group_b = _quadratic_split(
            node.children, self.min_fill, key=lambda c: c.rect
        )
        node.children = group_a
        node.recompute_rect()
        node.recompute_count()
        sibling = RTreeNode[T](
            is_leaf=False,
            rect=Rect.from_rects([c.rect for c in group_b]),
            children=group_b,
        )
        sibling.subtree_count = sum(c.subtree_count for c in group_b)
        return sibling

    # ------------------------------------------------------------------
    # Queries (correctness oracles for the fancier indexes)
    # ------------------------------------------------------------------
    def range_query(self, rect: Rect) -> List[RTreeEntry[T]]:
        """All entries whose point lies inside ``rect``."""
        out: List[RTreeEntry[T]] = []
        if self.root is None:
            return out
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(rect):
                continue
            if node.is_leaf:
                out.extend(e for e in node.entries if rect.contains_point(e.point))
            else:
                stack.extend(node.children)
        return out

    def nearest(self, point: Point, n: int = 1) -> List[RTreeEntry[T]]:
        """``n`` nearest entries to ``point`` by best-first search."""
        import heapq

        if self.root is None or n <= 0:
            return []
        heap: List[Tuple[float, int, object]] = []
        counter = 0
        heapq.heappush(heap, (self.root.rect.min_distance_point(point), counter, self.root))
        out: List[RTreeEntry[T]] = []
        while heap and len(out) < n:
            _, __, item = heapq.heappop(heap)
            if isinstance(item, RTreeEntry):
                out.append(item)
            elif item.is_leaf:  # type: ignore[union-attr]
                for e in item.entries:  # type: ignore[union-attr]
                    counter += 1
                    heapq.heappush(heap, (e.point.distance_to(point), counter, e))
            else:
                for c in item.children:  # type: ignore[union-attr]
                    counter += 1
                    heapq.heappush(heap, (c.rect.min_distance_point(point), counter, c))
        return out

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise ``AssertionError`` if any structural invariant is broken."""
        if self.root is None:
            assert self._size == 0, "empty tree must have size 0"
            return
        total = _check_node(self.root, self.fanout, is_root=True)
        assert total == self._size, f"size mismatch: counted {total}, stored {self._size}"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

def str_groups(x: np.ndarray, y: np.ndarray, fanout: int) -> Tuple[np.ndarray, np.ndarray]:
    """Sort-Tile-Recursive partition of points given as two arrays.

    Returns ``(order, ptr)``: group ``g`` holds the points
    ``order[ptr[g]:ptr[g + 1]]``.  The points are sorted by ``(x, y)``,
    cut into slabs of ``ceil(sqrt(pages)) * fanout``, each slab sorted
    by ``(y, x)`` and cut into runs of ``fanout`` — both sorts stable,
    so ties keep their input order.  ``n <= fanout`` is one group in
    input order.
    """
    n = len(x)
    if n <= fanout:
        return np.arange(n), np.array([0, n])
    pages = math.ceil(n / fanout)
    per_slab = math.ceil(math.sqrt(pages)) * fanout
    by_x = np.lexsort((y, x))
    slab = np.arange(n) // per_slab
    order = by_x[np.lexsort((x[by_x], y[by_x], slab))]
    starts = np.flatnonzero(np.arange(n) % per_slab % fanout == 0)
    return order, np.append(starts, n)


def _segment_rects(min_x, min_y, max_x, max_y, ptr) -> np.ndarray:
    """``(groups, 4)`` MBRs of consecutive segments ``ptr``."""
    at = ptr[:-1]
    return np.column_stack((
        np.minimum.reduceat(min_x, at), np.minimum.reduceat(min_y, at),
        np.maximum.reduceat(max_x, at), np.maximum.reduceat(max_y, at),
    ))


class PackedLevels:
    """A packed tree's shape as arrays, built bottom-up from points.

    Level 0 groups the points into leaves (STR unless ``leaves`` gives
    the grouping); every level above groups the one below by STR over
    the nodes' MBR centres (unless ``upper`` gives each level's
    grouping), until one node is left.  Per level ``L``:

    * ``members[L]`` / ``ptr[L]``: node ``g``'s entries are
      ``members[L][ptr[L][g]:ptr[L][g + 1]]`` — point rows at level 0,
      node indices of level ``L - 1`` above it;
    * ``rects[L]``: ``(nodes, 4)`` MBRs ``(min_x, min_y, max_x, max_y)``;
    * ``page[L]``: page ids, breadth-first from the root as
      :meth:`RTree._assign_page_ids` numbers them;
    * ``pre[L]``: the node's position in a depth-first pre-order walk
      (children in order).

    Node objects are not needed to answer queries from the arrays;
    :meth:`fill` builds them for the callers that walk a tree.
    """

    def __init__(self, x, y, fanout: int, leaves=None, upper=None) -> None:
        order, ptr = leaves if leaves is not None else str_groups(x, y, fanout)
        self.fanout = fanout
        self.members: List[np.ndarray] = [np.asarray(order)]
        self.ptr: List[np.ndarray] = [np.asarray(ptr)]
        px, py = x[order], y[order]
        self.rects: List[np.ndarray] = [_segment_rects(px, py, px, py, ptr)]
        planned = iter(upper or ())
        while len(self.ptr[-1]) > 2:
            rect = self.rects[-1]
            if upper is not None:
                order, ptr = next(planned)
            else:
                order, ptr = str_groups(
                    (rect[:, 0] + rect[:, 2]) / 2.0, (rect[:, 1] + rect[:, 3]) / 2.0,
                    fanout,
                )
            self.members.append(np.asarray(order))
            self.ptr.append(np.asarray(ptr))
            r = rect[order]
            self.rects.append(_segment_rects(r[:, 0], r[:, 1], r[:, 2], r[:, 3], ptr))
        self._number()

    @property
    def height(self) -> int:
        return len(self.members)

    def sizes(self, level: int) -> np.ndarray:
        """Entries per node of ``level``."""
        return np.diff(self.ptr[level])

    def _number(self) -> None:
        top = len(self.members) - 1
        self.page: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * (top + 1)
        self.pre: List[np.ndarray] = [np.zeros(0, dtype=np.int64)] * (top + 1)
        subtree = [np.ones(len(self.ptr[0]) - 1, dtype=np.int64)]
        for level in range(1, top + 1):
            below = subtree[-1][self.members[level]]
            subtree.append(1 + np.add.reduceat(below, self.ptr[level][:-1]))
        self.page[top] = np.zeros(1, dtype=np.int64)
        self.pre[top] = np.zeros(1, dtype=np.int64)
        offset = 1
        for level in range(top, 0, -1):
            members, counts = self.members[level], self.sizes(level)
            slot_parent = np.repeat(np.arange(len(counts)), counts)
            bfs = members[np.argsort(self.page[level][slot_parent], kind="stable")]
            page = np.empty(len(members), dtype=np.int64)
            page[bfs] = offset + np.arange(len(bfs))
            offset += len(bfs)
            size = subtree[level - 1][members]
            before = np.cumsum(size) - size
            pre = np.empty(len(members), dtype=np.int64)
            pre[members] = (
                np.repeat(self.pre[level] + 1 - before[self.ptr[level][:-1]], counts)
                + before
            )
            self.page[level - 1] = page
            self.pre[level - 1] = pre
        self.num_nodes = offset

    def fill(self, tree: "RTree[T]", entries: List[RTreeEntry[T]]) -> None:
        """Give ``tree`` this shape as node objects over ``entries``
        (point row ``r`` is ``entries[r]``)."""
        nodes: List = []
        for level in range(self.height):
            members = self.members[level].tolist()
            bounds = self.ptr[level].tolist()
            rects = self.rects[level].tolist()
            pages = self.page[level].tolist()
            built = []
            for g, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
                if level == 0:
                    node = RTreeNode[T](
                        is_leaf=True, rect=Rect(*rects[g]),
                        entries=[entries[r] for r in members[a:b]],
                    )
                    node.subtree_count = b - a
                else:
                    children = [nodes[c] for c in members[a:b]]
                    node = RTreeNode[T](
                        is_leaf=False, rect=Rect(*rects[g]), children=children
                    )
                    node.subtree_count = sum(c.subtree_count for c in children)
                node.page_id = pages[g]
                built.append(node)
            nodes = built
        tree.root = nodes[0]
        tree._size = len(entries)
        tree._next_page = self.num_nodes


def _choose_subtree(children: List[RTreeNode], rect: Rect) -> RTreeNode:
    """Guttman's least-enlargement rule with area tiebreak."""
    best = children[0]
    best_growth = best.rect.enlargement(rect)
    for child in children[1:]:
        growth = child.rect.enlargement(rect)
        if growth < best_growth or (
            growth == best_growth and child.rect.area < best.rect.area
        ):
            best, best_growth = child, growth
    return best


def _quadratic_split(items: List, min_fill: int, key: Callable) -> Tuple[List, List]:
    """Guttman's quadratic split: seeds = most wasteful pair."""
    assert len(items) >= 2
    worst, seeds = -1.0, (0, 1)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            waste = (
                key(items[i]).union(key(items[j])).area
                - key(items[i]).area
                - key(items[j]).area
            )
            if waste > worst:
                worst, seeds = waste, (i, j)
    i, j = seeds
    group_a, group_b = [items[i]], [items[j]]
    rect_a, rect_b = key(items[i]), key(items[j])
    rest = [it for idx, it in enumerate(items) if idx not in (i, j)]
    for it in rest:
        remaining = len(rest) - (len(group_a) + len(group_b) - 2)
        if len(group_a) + remaining <= min_fill:
            group_a.append(it)
            rect_a = rect_a.union(key(it))
            continue
        if len(group_b) + remaining <= min_fill:
            group_b.append(it)
            rect_b = rect_b.union(key(it))
            continue
        growth_a = rect_a.enlargement(key(it))
        growth_b = rect_b.enlargement(key(it))
        if growth_a < growth_b or (growth_a == growth_b and rect_a.area <= rect_b.area):
            group_a.append(it)
            rect_a = rect_a.union(key(it))
        else:
            group_b.append(it)
            rect_b = rect_b.union(key(it))
    return group_a, group_b


def _check_node(node: RTreeNode, fanout: int, is_root: bool) -> int:
    assert node.fanout() <= fanout, "node exceeds fanout"
    if not is_root:
        assert node.fanout() >= 1, "non-root node is empty"
    if node.is_leaf:
        for e in node.entries:
            assert node.rect.contains_point(e.point), "leaf MBR misses an entry"
        assert node.subtree_count == len(node.entries)
        return len(node.entries)
    total = 0
    for child in node.children:
        assert node.rect.contains_rect(child.rect), "parent MBR misses a child"
        total += _check_node(child, fanout, is_root=False)
    assert node.subtree_count == total, "subtree_count stale"
    return total
