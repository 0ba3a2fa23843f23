"""The MIUR-tree (Modified IUR-tree) over the user set (Section 7).

When the user set is large (or sparse) the flat super-user of Section
5.2 is too coarse and the users themselves should live on disk.  The
MIUR-tree is an R-tree in which every node is augmented with:

* the **union** and the **intersection** of the keyword sets appearing
  in its subtree (binary vectors in the paper's Figure 4);
* ``cp.num`` — the number of actual users stored in the subtree.

Every node therefore *is* a super-user for the users below it: the
bound machinery of Section 5.3 applies unchanged with the node's MBR,
union and intersection vectors.  We also propagate the min/max
user-side normalizer per subtree: the paper's group-side normalizer can
under-estimate a member's text score, so upper bounds divide by the
smallest ``Z(u.d)`` below the node and lower bounds by the largest (the
"normalization fix" of :mod:`repro.core.bounds`' module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..model.objects import SuperUser, User
from ..spatial.rtree import RTree, RTreeEntry, RTreeNode, DEFAULT_FANOUT
from ..storage.pager import PageStore
from ..text.relevance import TextRelevance

__all__ = ["MIURTree", "UserNodeView"]


@dataclass(slots=True)
class UserNodeView:
    """One MIUR-tree node with its textual augmentation, as a super-user."""

    node: RTreeNode[int]
    summary: SuperUser

    @property
    def page_id(self) -> int:
        return self.node.page_id

    @property
    def is_leaf(self) -> bool:
        return self.node.is_leaf

    @property
    def user_count(self) -> int:
        return self.summary.count


class MIURTree:
    """R-tree over users with union/intersection keyword augmentation."""

    index_name = "miur-tree"

    def __init__(
        self,
        users: Sequence[User],
        relevance: TextRelevance,
        fanout: int = DEFAULT_FANOUT,
    ) -> None:
        if not users:
            raise ValueError("cannot index an empty user set")
        self.relevance = relevance
        self.fanout = fanout
        self._users: Dict[int, User] = {u.item_id: u for u in users}
        if len(self._users) != len(users):
            raise ValueError("duplicate user ids in the user set")
        entries = [RTreeEntry(point=u.location, item=u.item_id) for u in users]
        self.rtree: RTree[int] = RTree.bulk_load(entries, fanout=fanout)
        self._summaries: Dict[int, SuperUser] = {}
        root = self.rtree.root
        assert root is not None
        self._build_node(root)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_node(self, node: RTreeNode[int]) -> SuperUser:
        if node.is_leaf:
            group = [self._users[e.item] for e in node.entries]
            summary = SuperUser.from_users(group, self.relevance)
        else:
            parts = [self._build_node(c) for c in node.children]
            union: Set[int] = set()
            inter: Optional[Set[int]] = None
            min_z = float("inf")
            max_z = 0.0
            count = 0
            for p in parts:
                union |= p.union_terms
                inter = (
                    set(p.intersection_terms)
                    if inter is None
                    else inter & p.intersection_terms
                )
                if p.min_normalizer > 0.0:  # positive ones only, as from_users
                    min_z = min(min_z, p.min_normalizer)
                max_z = max(max_z, p.max_normalizer)
                count += p.count
            summary = SuperUser.from_parts(
                mbr=node.rect,
                union_terms=union,
                intersection_terms=inter or set(),
                min_normalizer=min_z if max_z > 0.0 else 0.0,
                max_normalizer=max_z,
                count=count,
            )
        self._summaries[node.page_id] = summary
        return summary

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def root(self) -> UserNodeView:
        root = self.rtree.root
        assert root is not None
        return UserNodeView(node=root, summary=self._summaries[root.page_id])

    def __len__(self) -> int:
        return len(self.rtree)

    def user_by_id(self, user_id: int) -> User:
        return self._users[user_id]

    def summary_of(self, node: RTreeNode[int]) -> SuperUser:
        return self._summaries[node.page_id]

    # ------------------------------------------------------------------
    # Charged access
    # ------------------------------------------------------------------
    def read_children(
        self, view: UserNodeView, store: Optional[PageStore] = None
    ) -> Tuple[List[UserNodeView], List[User]]:
        """Visit a node and return its children.

        For a leaf node the second list holds the actual users; for an
        internal node the first list holds the child views.  Charges one
        node I/O plus the node's keyword-vector payload.
        """
        node = view.node
        if store is not None:
            store.read_node(self.index_name, node.page_id)
            # The union/intersection vectors of the children are part of
            # the node payload; charge them like a small inverted file
            # (4 bytes per term id, two vectors per child).
            vec_terms = sum(
                len(self._summaries[c.page_id].union_terms)
                + len(self._summaries[c.page_id].intersection_terms)
                for c in node.children
            ) if not node.is_leaf else sum(
                len(self._users[e.item].keyword_set) for e in node.entries
            )
            store.read_inverted_list(
                self.index_name, node.page_id, -1, 4 * vec_terms
            )
        if node.is_leaf:
            return [], [self._users[e.item] for e in node.entries]
        children = [
            UserNodeView(node=c, summary=self._summaries[c.page_id])
            for c in node.children
        ]
        return children, []

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        self.rtree.check_invariants()
        root = self.rtree.root
        assert root is not None
        self._check_node(root)

    def _check_node(self, node: RTreeNode[int]) -> SuperUser:
        summary = self._summaries[node.page_id]
        if node.is_leaf:
            users = [self._users[e.item] for e in node.entries]
            union: Set[int] = set()
            inter: Optional[Set[int]] = None
            for u in users:
                union |= u.keyword_set
                inter = set(u.keyword_set) if inter is None else inter & u.keyword_set
            assert summary.count == len(users), "leaf count stale"
        else:
            union = set()
            inter = None
            count = 0
            for child in node.children:
                cs = self._check_node(child)
                union |= cs.union_terms
                inter = (
                    set(cs.intersection_terms)
                    if inter is None
                    else inter & cs.intersection_terms
                )
                count += cs.count
            assert summary.count == count, "internal count stale"
        assert summary.union_terms == frozenset(union), "union vector stale"
        assert summary.intersection_terms == frozenset(inter or set()), (
            "intersection vector stale"
        )
        assert summary.intersection_terms <= summary.union_terms
        assert summary.min_normalizer <= summary.max_normalizer + 1e-9
        return summary
