"""Core data model: spatial-textual objects, users, and the super-user.

Definition 1 of the paper works over a bichromatic dataset
``D = (U, O)`` where each user ``u`` and each object ``o`` is a pair of
a location and a set of keywords.  Both sides share one representation,
:class:`SpatialTextualItem`; :class:`STObject` and :class:`User` are the
two colors.

The *super-user* of Section 5.2 aggregates the whole user set: its
location is the MBR of all user locations, its text is both the union
and the intersection of the users' keyword sets.  We additionally store
the smallest and largest user-side normalizer ``Z(u.d)`` across the
grouped users — see ``repro/core/bounds.py`` for why this is needed to
keep Lemma 2 sound under per-user score normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set

from ..spatial.geometry import Point, Rect
from ..text.relevance import TextRelevance

__all__ = ["SpatialTextualItem", "STObject", "User", "SuperUser"]


@dataclass(slots=True)
class SpatialTextualItem:
    """A located document: ``(id, location, term-frequency map)``."""

    item_id: int
    location: Point
    #: Term-frequency map ``{term_id: count}``; counts are positive.
    terms: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for tid, tf in self.terms.items():
            if tf <= 0:
                raise ValueError(
                    f"item {self.item_id}: non-positive tf {tf} for term {tid}"
                )

    @property
    def keyword_set(self) -> Set[int]:
        """Distinct term ids of the description."""
        return set(self.terms)

    @property
    def doc_length(self) -> int:
        """Total number of term occurrences (``|o.d|`` in Eq. 3)."""
        return sum(self.terms.values())

    def has_any_keyword(self, keywords: Iterable[int]) -> bool:
        return any(t in self.terms for t in keywords)


class STObject(SpatialTextualItem):
    """An object ``o ∈ O`` (restaurant, advertisement, business...)."""

    __slots__ = ()


class User(SpatialTextualItem):
    """A user ``u ∈ U`` (potential customer)."""

    __slots__ = ()


@dataclass(slots=True)
class SuperUser:
    """Aggregate of a user group (Section 5.2).

    Attributes
    ----------
    mbr:
        MBR enclosing the grouped users' locations (``us.l``).
    union_terms:
        Union of the users' keyword sets (``us.dUni``).
    intersection_terms:
        Intersection of the users' keyword sets (``us.dInt``).
    min_normalizer / max_normalizer:
        ``min_u Z(u.d)`` and ``max_u Z(u.d)`` over the grouped users,
        where ``Z`` is the measure's user-side normalizer.  Upper bounds
        divide by the min, lower bounds by the max, which restores the
        soundness of Lemma 2 for per-user normalized scores.  The min is
        taken over the *positive* normalizers only (0.0 when there is
        none): a user with ``Z(u.d) = 0`` scores ``TS = 0`` under every
        document, so they cannot raise the group's upper bound — and
        must not zero it for the users who can.
    count:
        Number of users aggregated.
    """

    mbr: Rect
    union_terms: FrozenSet[int]
    intersection_terms: FrozenSet[int]
    min_normalizer: float
    max_normalizer: float
    count: int
    #: Lazily cached ascending term lists.  Bound computations sum term
    #: weights in this canonical order so the oracle and the numpy
    #: frontier kernels produce bitwise-identical bounds (see
    #: repro/core/kernels.py, "Exactness contract").
    _sorted_union: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )
    _sorted_intersection: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def sorted_union(self) -> tuple:
        if self._sorted_union is None:
            self._sorted_union = tuple(sorted(self.union_terms))
        return self._sorted_union

    def sorted_intersection(self) -> tuple:
        if self._sorted_intersection is None:
            self._sorted_intersection = tuple(sorted(self.intersection_terms))
        return self._sorted_intersection

    @classmethod
    def from_users(
        cls, users: Sequence[User], relevance: TextRelevance
    ) -> "SuperUser":
        """Build the super-user of ``users`` (must be non-empty)."""
        if not users:
            raise ValueError("cannot build a super-user from zero users")
        mbr = Rect.from_points(u.location for u in users)
        union: Set[int] = set()
        inter: Optional[Set[int]] = None
        min_z = float("inf")
        max_z = 0.0
        for u in users:
            kws = u.keyword_set
            union |= kws
            inter = set(kws) if inter is None else (inter & kws)
            z = relevance.user_normalizer(kws)
            if z > 0.0:
                min_z = min(min_z, z)
            max_z = max(max_z, z)
        return cls(
            mbr=mbr,
            union_terms=frozenset(union),
            intersection_terms=frozenset(inter or set()),
            min_normalizer=min_z if max_z > 0.0 else 0.0,
            max_normalizer=max_z,
            count=len(users),
        )

    @classmethod
    def from_parts(
        cls,
        mbr: Rect,
        union_terms: Iterable[int],
        intersection_terms: Iterable[int],
        min_normalizer: float,
        max_normalizer: float,
        count: int,
    ) -> "SuperUser":
        """Assemble a super-user from precomputed parts.

        Used by the MIUR-tree (Section 7), where every tree node is
        treated as the super-user of the users below it.
        """
        return cls(
            mbr=mbr,
            union_terms=frozenset(union_terms),
            intersection_terms=frozenset(intersection_terms),
            min_normalizer=min_normalizer,
            max_normalizer=max_normalizer,
            count=count,
        )
