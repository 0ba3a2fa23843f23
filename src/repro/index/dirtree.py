"""The DIR-tree variant: text-aware node construction (Section 5.1).

Cong et al. (2009) proposed the DIR-tree alongside the IR-tree: nodes
are built considering *both* spatial enlargement and textual similarity
so that documents grouped under one node share vocabulary.  Tighter
textual cohesion shrinks each node's pseudo-document (the union of its
subtree's terms), which shrinks posting lists and sharpens the min/max
bounds.  The paper notes its min-max extension "can be constructed in
the same manner as the DIR-tree"; this module is that combination — a
**min-max DIR-tree** (``MDIRTree``).

Construction here is bulk: a spatial STR packing is refined by a few
passes of greedy leaf reassignment.  Moving object ``o`` from leaf
``A`` to nearby leaf ``B`` is accepted when it lowers the weighted cost

    ``beta * spatial_cost + (1 - beta) * textual_cost``

where the spatial cost is the total leaf-MBR margin and the textual
cost counts vocabulary terms that are *not* shared by the whole leaf
(union minus intersection size — exactly what widens the min/max gap in
the posting lists).  ``beta = 1`` degenerates to the plain MIR-tree
packing; the tests verify query results are identical regardless of
grouping (the bounds stay sound), only the I/O changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Union

import numpy as np

from ..model.columns import ObjectTable
from ..model.objects import STObject
from ..spatial.geometry import Rect
from ..spatial.rtree import DEFAULT_FANOUT, PackedLevels
from ..text.relevance import TextRelevance
from .irtree import IRTree

__all__ = ["MDIRTree", "leaf_cohesion"]


def leaf_cohesion(tree: IRTree, objects: Dict[int, STObject]) -> float:
    """Mean pairwise Jaccard similarity of documents within each leaf.

    Works for any IR-tree-shaped index, so the plain MIR-tree and the
    MDIR-tree can be compared on identical data.
    """
    scores: List[float] = []
    for node in tree.rtree.iter_nodes():
        if not node.is_leaf or len(node.entries) < 2:
            continue
        term_sets = [objects[e.item].keyword_set for e in node.entries]
        total, pairs = 0.0, 0
        for i in range(len(term_sets)):
            for j in range(i + 1, len(term_sets)):
                union = term_sets[i] | term_sets[j]
                if union:
                    total += len(term_sets[i] & term_sets[j]) / len(union)
                    pairs += 1
        if pairs:
            scores.append(total / pairs)
    return sum(scores) / len(scores) if scores else 0.0


class MDIRTree(IRTree):
    """Min-max IR-tree with DIR-style (spatial + textual) leaf grouping.

    Parameters
    ----------
    beta:
        Weight of the spatial cost in [0, 1]; lower values let textual
        cohesion reshape leaves more aggressively.
    refinement_passes:
        Number of greedy reassignment sweeps over all objects.
    """

    index_name = "mdir-tree"

    def __init__(
        self,
        objects: Union[ObjectTable, Sequence[STObject]],
        relevance: TextRelevance,
        fanout: int = DEFAULT_FANOUT,
        beta: float = 0.5,
        refinement_passes: int = 2,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")
        if refinement_passes < 0:
            raise ValueError("refinement_passes must be non-negative")
        self.beta = beta
        self.refinement_passes = refinement_passes
        super().__init__(objects, relevance, fanout=fanout, minmax=True)

    # ------------------------------------------------------------------
    def _leaf_groups(self):
        """STR leaves, refined by cost-improving swaps; the levels above
        are packed by STR over the refined leaves, as for any tree."""
        table = self.table
        base = PackedLevels(table.x, table.y, self.fanout)
        if base.height == 1 or self.refinement_passes == 0:
            return None
        self._xs, self._ys = table.x.tolist(), table.y.tolist()
        terms, bounds = table.terms.tolist(), table.indptr.tolist()
        self._keywords = [set(terms[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        members, bounds = base.members[0].tolist(), base.ptr[0].tolist()
        # The leaves right to left: the order a stack walk of the STR
        # tree's nodes meets them, which the swap passes start from.
        leaves = np.argsort(base.page[0])[::-1].tolist()
        groups = [members[bounds[g]:bounds[g + 1]] for g in leaves]
        groups = self._refine_groups(groups, self.fanout)
        del self._xs, self._ys, self._keywords
        sizes = [len(g) for g in groups]
        return (
            np.array([row for g in groups for row in g], dtype=np.int64),
            np.concatenate(([0], np.cumsum(sizes))),
        )

    def _rect(self, group: List[int]) -> Rect:
        xs = [self._xs[r] for r in group]
        ys = [self._ys[r] for r in group]
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def _group_cost(self, group: List[int]) -> float:
        """beta * margin + (1 - beta) * unshared vocabulary size."""
        if not group:
            return 0.0
        rect = self._rect(group)
        union: Set[int] = set()
        inter: Set[int] | None = None
        for row in group:
            terms = self._keywords[row]
            union |= terms
            inter = set(terms) if inter is None else inter & terms
        unshared = len(union) - len(inter or set())
        return self.beta * rect.margin + (1.0 - self.beta) * float(unshared)

    def _refine_groups(
        self, groups: List[List[int]], fanout: int
    ) -> List[List[int]]:
        """Greedy cost-improving *swaps* of objects between nearby leaves.

        STR leaves are packed to capacity, so one-way moves rarely have
        room; exchanging a pair keeps every leaf at its size while still
        letting textual cohesion reshape membership.
        """
        if len(groups) < 2:
            return groups
        for _ in range(self.refinement_passes):
            swapped = 0
            centers = [self._rect(g).center for g in groups]
            for gi, group in enumerate(groups):
                neighbors = sorted(
                    (j for j in range(len(groups)) if j != gi),
                    key=lambda j, centers=centers, gi=gi: (
                        centers[j].distance_to(centers[gi])
                    ),
                )[:4]
                for entry in list(group):
                    best = None  # (cost_delta, j, partner)
                    cost_gi = self._group_cost(group)
                    for j in neighbors:
                        cost_j = self._group_cost(groups[j])
                        for partner in groups[j]:
                            group.remove(entry)
                            groups[j].remove(partner)
                            group.append(partner)
                            groups[j].append(entry)
                            delta = (
                                self._group_cost(group)
                                + self._group_cost(groups[j])
                                - cost_gi
                                - cost_j
                            )
                            groups[j].remove(entry)
                            group.remove(partner)
                            groups[j].append(partner)
                            group.append(entry)
                            if delta < -1e-12 and (best is None or delta < best[0]):
                                best = (delta, j, partner)
                    if best is not None:
                        _, j, partner = best
                        group.remove(entry)
                        groups[j].remove(partner)
                        group.append(partner)
                        groups[j].append(entry)
                        centers[gi] = self._rect(group).center
                        centers[j] = self._rect(groups[j]).center
                        swapped += 1
            if swapped == 0:
                break
        return [g for g in groups if g]

    # ------------------------------------------------------------------
    def textual_cohesion(self) -> float:
        """Mean pairwise Jaccard similarity of documents within leaves.

        Higher is better; the DIR grouping should beat the plain STR
        packing on this metric when text is topically clustered (tests
        assert it).  Defined on any IR-tree-shaped index via
        :func:`leaf_cohesion`.
        """
        return leaf_cohesion(self, {o.item_id: o for o in self.table})
