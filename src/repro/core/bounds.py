"""Upper and lower bound estimations (Section 5.3 and Section 6.1).

All pruning in the system rests on two families of bounds:

**Node-vs-group bounds (Lemma 2).**  For an MIR-tree node ``E`` and a
group of users summarized by a super-user ``us``::

    UB(E, us) = alpha * MinSS(E.l, us.l) + (1-alpha) * MaxTS(E.d, us.dUni)
    LB(E, us) = alpha * MaxSS(E.l, us.l) + (1-alpha) * MinTS(E.d, us.dInt)

``MinSS`` converts the *minimum* rect-to-rect distance (closest possible
pair) into the *largest* possible spatial score and vice versa.
``MaxTS`` sums the node's **maximum** term weights over the union of the
group's keywords; ``MinTS`` sums the node's **minimum** weights over the
intersection.

**Normalization fix.**  The paper normalizes text scores per user
(``Z(u.d)``, the Pmax of Eq. 4), but states the group bounds with a
group-side normalizer.  As written that can *under*-estimate: a user
whose single keyword is matched at collection-max weight has
``TS = 1``, yet dividing the group numerator by ``Pmax(us.dUni)`` can
yield less.  We therefore carry ``Zmin = min_u Z(u.d)`` and
``Zmax = max_u Z(u.d)`` in every :class:`~repro.model.objects.SuperUser`
and divide upper bounds by ``Zmin`` (largest quotient) and lower bounds
by ``Zmax`` (smallest quotient).  Then for every user ``u`` in the
group and every object ``o`` under ``E``::

    LB(E, us) <= STS(o, u) <= UB(E, us)

The property tests in ``tests/core/test_bounds.py`` verify this on
randomized instances, and ``examples``/benchmarks rely on it.

**Candidate-location bounds (Section 6.1, Lemma 3).**  For a candidate
location ``l`` the text side must additionally account for the *best
possible keyword augmentation*: at most ``ws`` candidate keywords can be
added to ``ox.d``.  ``best_augmentation_weights`` implements Lemma 3's
``Wh`` — the ``ws`` highest-weight candidate keywords (restricted to
keywords the user group actually has), each weighted optimistically as
if it were the only addition.  Both over-estimates keep the bound sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from ..model.dataset import Dataset
from ..model.objects import STObject, SuperUser, User
from ..spatial.geometry import Point, Rect
from ..text.relevance import TextRelevance

__all__ = [
    "BoundCalculator",
    "candidate_term_weight",
    "best_augmentation_weights",
    "augmented_document",
]


def augmented_document(base: Mapping[int, int], added: Iterable[int]) -> Dict[int, int]:
    """``ox.d ∪ W'``: add each candidate keyword once (tf += 1)."""
    doc = dict(base)
    for tid in added:
        doc[tid] = doc.get(tid, 0) + 1
    return doc


def candidate_term_weight(
    relevance: TextRelevance, base_doc: Mapping[int, int], term_id: int
) -> float:
    """Optimistic weight of adding ``term_id`` once to ``base_doc``.

    The weight is computed as if this were the *only* addition (document
    length ``|ox.d| + 1``).  Adding more keywords can only lengthen the
    document and hence (for length-normalized measures like the LM)
    shrink every term's weight, so per-term this is an upper bound on
    the weight the term can have in any augmented document.
    """
    doc = augmented_document(base_doc, [term_id])
    return relevance.term_weight(term_id, doc)


def best_augmentation_weights(
    relevance: TextRelevance,
    base_doc: Mapping[int, int],
    candidate_terms: Iterable[int],
    group_terms: FrozenSet[int] | Set[int],
    ws: int,
) -> float:
    """Lemma 3: optimistic text mass addable with <= ``ws`` keywords.

    Only candidate keywords present in the group's union can raise any
    group member's score.  Each useful candidate contributes its
    optimistic *gain*:

    * a keyword absent from ``ox.d`` contributes its full optimistic
      weight (:func:`candidate_term_weight`);
    * a keyword already in ``ox.d`` contributes the weight *increase*
      from one more occurrence (its base weight is already counted in
      the caller's base sum) — for TF-IDF this doubles the tf component,
      so ignoring it would break the upper bound.

    The ``ws`` largest gains are summed.  Every per-term gain is an
    over-estimate of the term's contribution in any real augmented
    document (longer documents only shrink length-normalized weights),
    so the sum is a sound upper bound.
    """
    if ws <= 0:
        return 0.0
    gains: List[float] = []
    for t in set(candidate_terms):
        if t not in group_terms:
            continue
        optimistic = candidate_term_weight(relevance, base_doc, t)
        if t in base_doc:
            gain = optimistic - relevance.term_weight(t, base_doc)
        else:
            gain = optimistic
        if gain > 0.0:
            gains.append(gain)
    if not gains:
        return 0.0
    gains.sort(reverse=True)
    return sum(gains[:ws])


@dataclass
class BoundCalculator:
    """Bound computations shared by the joint top-k and candidate search.

    One instance per query; it caches the per-user normalizer and the
    base document's term weights because they are reused for every node
    and candidate.
    """

    dataset: Dataset

    # ------------------------------------------------------------------
    # Spatial components
    # ------------------------------------------------------------------
    def min_spatial_rr(self, a: Rect, b: Rect) -> float:
        """Largest possible SS between a point in ``a`` and one in ``b``."""
        return self.dataset.spatial_score_from_distance(
            self.dataset.metric.min_distance_rects(a, b)
        )

    def max_spatial_rr(self, a: Rect, b: Rect) -> float:
        """Smallest possible SS between points of the two rects."""
        return self.dataset.spatial_score_from_distance(
            self.dataset.metric.max_distance_rects(a, b)
        )

    def min_spatial_pr(self, p: Point, r: Rect) -> float:
        return self.dataset.spatial_score_from_distance(
            self.dataset.metric.min_distance_point_rect(p, r)
        )

    def max_spatial_pr(self, p: Point, r: Rect) -> float:
        return self.dataset.spatial_score_from_distance(
            self.dataset.metric.max_distance_point_rect(p, r)
        )

    # ------------------------------------------------------------------
    # Textual components against a super-user
    # ------------------------------------------------------------------
    def max_text(
        self, weights: Mapping[int, Tuple[float, float]], su: SuperUser
    ) -> float:
        """``MaxTS``: max weights over the union / smallest normalizer.

        Terms are summed in ascending id order — the canonical
        association the numpy frontier kernels reproduce exactly, so
        the engine and the oracle compute bitwise-identical bounds
        (floating-point addition is not associative; a shared order
        makes the two traversals agree down to heap tie-breaks).
        """
        if su.min_normalizer <= 0.0:
            return 0.0
        total = 0.0
        if len(weights) <= len(su.union_terms):
            for tid in sorted(weights):
                if tid in su.union_terms:
                    total += weights[tid][0]
        else:
            for tid in su.sorted_union():
                pair = weights.get(tid)
                if pair is not None:
                    total += pair[0]
        return min(1.0, total / su.min_normalizer)

    def min_text(
        self, weights: Mapping[int, Tuple[float, float]], su: SuperUser
    ) -> float:
        """``MinTS``: min weights over the intersection / largest normalizer.

        Ascending-id summation order, like :meth:`max_text`.
        """
        if su.max_normalizer <= 0.0 or not su.intersection_terms:
            return 0.0
        total = 0.0
        for tid in su.sorted_intersection():
            pair = weights.get(tid)
            if pair is not None:
                total += pair[1]
        return min(1.0, total / su.max_normalizer)

    # ------------------------------------------------------------------
    # Node bounds (Lemma 2)
    # ------------------------------------------------------------------
    def node_upper(
        self, rect: Rect, weights: Mapping[int, Tuple[float, float]], su: SuperUser
    ) -> float:
        """``UB(E, us)`` — no user in the group can score ``E`` higher."""
        alpha = self.dataset.alpha
        return alpha * self.min_spatial_rr(rect, su.mbr) + (1.0 - alpha) * self.max_text(
            weights, su
        )

    def node_lower(
        self, rect: Rect, weights: Mapping[int, Tuple[float, float]], su: SuperUser
    ) -> float:
        """``LB(E, us)`` — every user in the group scores ``E`` at least this."""
        alpha = self.dataset.alpha
        return alpha * self.max_spatial_rr(rect, su.mbr) + (1.0 - alpha) * self.min_text(
            weights, su
        )

    # ------------------------------------------------------------------
    # Candidate-location bounds (Section 6.1)
    # ------------------------------------------------------------------
    def group_upper_text(
        self, ox: STObject, candidate_terms: Iterable[int], ws: int, su: SuperUser
    ) -> float:
        """The text term of ``UBL(l, us)``, ``(1 - alpha)`` included: the
        same at every location, so the engine computes it once per keyword
        side and super-user (``KeywordSide.group_texts``)."""
        if su.min_normalizer <= 0.0:
            return 0.0
        rel = self.dataset.relevance
        base = sum(
            w
            for tid, w in rel.document_weights(ox.terms).items()
            if tid in su.union_terms
        ) if ox.terms else 0.0
        extra = best_augmentation_weights(
            rel, ox.terms, candidate_terms, su.union_terms, ws
        )
        ts = min(1.0, (base + extra) / su.min_normalizer)
        return (1.0 - self.dataset.alpha) * ts

    def location_upper_group(
        self,
        location: Point,
        ox: STObject,
        candidate_terms: Iterable[int],
        ws: int,
        su: SuperUser,
        text: Optional[float] = None,
    ) -> float:
        """``UBL(l, us)``: best achievable STS of ``ox`` at ``l`` for any
        grouped user, under the best possible keyword augmentation.
        ``text`` is a precomputed :meth:`group_upper_text`."""
        if text is None:
            text = self.group_upper_text(ox, candidate_terms, ws, su)
        return self.dataset.alpha * self.min_spatial_pr(location, su.mbr) + text

    def location_upper_user(
        self,
        location: Point,
        ox: STObject,
        candidate_terms: Iterable[int],
        ws: int,
        user: User,
    ) -> float:
        """``UBL(l, u)``: per-user variant using ``Wu ⊆ u.d`` (Section 6.1)."""
        alpha = self.dataset.alpha
        ss = self.dataset.spatial_score(location, user.location)
        rel = self.dataset.relevance
        kws = user.keyword_set
        z = rel.user_normalizer(kws)
        if z <= 0.0:
            return alpha * ss
        base = sum(
            w for tid, w in rel.document_weights(ox.terms).items() if tid in kws
        ) if ox.terms else 0.0
        extra = best_augmentation_weights(rel, ox.terms, candidate_terms, kws, ws)
        ts = min(1.0, (base + extra) / z)
        return alpha * ss + (1.0 - alpha) * ts

    def group_lower_text(self, ox: STObject, su: SuperUser) -> float:
        """The text term of ``LBL(l, us)``, ``(1 - alpha)`` included: like
        :meth:`group_upper_text`, the same at every location."""
        if su.max_normalizer <= 0.0 or not su.intersection_terms:
            return 0.0
        rel = self.dataset.relevance
        total = sum(
            w
            for tid, w in rel.document_weights(ox.terms).items()
            if tid in su.intersection_terms
        ) if ox.terms else 0.0
        ts = min(1.0, total / su.max_normalizer)
        return (1.0 - self.dataset.alpha) * ts

    def location_lower_group(
        self,
        location: Point,
        ox: STObject,
        su: SuperUser,
        text: Optional[float] = None,
    ) -> float:
        """``LBL(l, us)``: guaranteed STS with *no* added keywords.

        Spatial part uses the max distance to the group MBR; text part
        scores only the original ``ox.d`` against the intersection of the
        group's keywords (every grouped user has at least those terms).
        ``text`` is a precomputed :meth:`group_lower_text`.
        """
        if text is None:
            text = self.group_lower_text(ox, su)
        return self.dataset.alpha * self.max_spatial_pr(location, su.mbr) + text

    def location_lower_user(self, location: Point, ox: STObject, user: User) -> float:
        """``LBL(l, u)``: exact STS of un-augmented ``ox`` at ``l`` for ``u``."""
        return self.dataset.sts_parts(location, ox.terms, user)
