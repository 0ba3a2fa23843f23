"""Planar geometry primitives used by every index in the library.

The paper works in a two-dimensional Euclidean dataspace.  Spatial
proximity between an object ``o`` and a user ``u`` is

    ``SS(o.l, u.l) = 1 - dist(o.l, u.l) / dmax``

where ``dmax`` normalizes distances into ``[0, 1]``.  Index nodes are
minimum bounding rectangles (MBRs); the bound estimations of Section 5.3
need the *minimum* and *maximum* Euclidean distance between two
rectangles, both of which are provided here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

__all__ = ["Point", "Rect", "EPSILON"]

#: Tolerance used when comparing floating point geometry results.
EPSILON = 1e-9


@dataclass(frozen=True, slots=True)
class Point:
    """A point in the two-dimensional dataspace."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_rect(self) -> "Rect":
        """Degenerate rectangle covering exactly this point."""
        return Rect(self.x, self.y, self.x, self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    # The state a frozen slots dataclass pickles by default ([x, y]; the
    # same bytes), without its per-object ``fields()`` walk: every query
    # a scatter round ships carries |L| points, and the pool transport
    # also pickles its payloads once more to count their bytes.
    def __getstate__(self) -> list:
        return [self.x, self.y]

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "x", state[0])
        object.__setattr__(self, "y", state[1])


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[min_x, max_x] x [min_y, max_y]``.

    ``Rect`` is immutable; all combinators return new rectangles.  A
    degenerate rectangle (``min == max`` on both axes) represents a point
    and is how leaf entries are stored in the trees.
    """

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(
                f"degenerate rect bounds: ({self.min_x}, {self.min_y}, "
                f"{self.max_x}, {self.max_y})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def margin(self) -> float:
        """Half-perimeter, used by R*-style split heuristics."""
        return self.width + self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    @property
    def diagonal(self) -> float:
        """Length of the rectangle diagonal.

        The diagonal of the dataset MBR is the library's ``dmax``
        normalizer: it upper-bounds the distance between any two points
        inside the rectangle, so ``SS`` stays within ``[0, 1]``.
        """
        return math.hypot(self.width, self.height)

    def is_point(self) -> bool:
        return self.width <= EPSILON and self.height <= EPSILON

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def contains_point(self, p: Point) -> bool:
        return (
            self.min_x - EPSILON <= p.x <= self.max_x + EPSILON
            and self.min_y - EPSILON <= p.y <= self.max_y + EPSILON
        )

    def contains_rect(self, other: "Rect") -> bool:
        return (
            self.min_x - EPSILON <= other.min_x
            and self.min_y - EPSILON <= other.min_y
            and self.max_x + EPSILON >= other.max_x
            and self.max_y + EPSILON >= other.max_y
        )

    def intersects(self, other: "Rect") -> bool:
        # The same EPSILON tolerance as contains_point, so tree pruning
        # (which tests node MBRs with intersects) can never discard a
        # point that contains_point would report inside the query rect.
        return not (
            self.max_x < other.min_x - EPSILON
            or other.max_x < self.min_x - EPSILON
            or self.max_y < other.min_y - EPSILON
            or other.max_y < self.min_y - EPSILON
        )

    # ------------------------------------------------------------------
    # Combinators
    # ------------------------------------------------------------------
    def union(self, other: "Rect") -> "Rect":
        return Rect(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to also cover ``other`` (R-tree heuristic)."""
        return self.union(other).area - self.area

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    def min_distance_point(self, p: Point) -> float:
        """Minimum Euclidean distance from ``p`` to this rectangle.

        Zero when the point lies inside the rectangle.
        """
        dx = max(self.min_x - p.x, 0.0, p.x - self.max_x)
        dy = max(self.min_y - p.y, 0.0, p.y - self.max_y)
        return math.hypot(dx, dy)

    def max_distance_point(self, p: Point) -> float:
        """Maximum Euclidean distance from ``p`` to any point of the rect."""
        dx = max(abs(p.x - self.min_x), abs(p.x - self.max_x))
        dy = max(abs(p.y - self.min_y), abs(p.y - self.max_y))
        return math.hypot(dx, dy)

    def min_distance_rect(self, other: "Rect") -> float:
        """Minimum distance between any pair of points of the two rects.

        This is ``MinSS``'s distance input in Lemma 2: for every user
        located inside ``other`` and every object inside ``self`` the true
        point distance is at least this value... (it is a *lower* bound on
        the point distance, hence an *upper* bound on spatial proximity).
        """
        dx = max(self.min_x - other.max_x, 0.0, other.min_x - self.max_x)
        dy = max(self.min_y - other.max_y, 0.0, other.min_y - self.max_y)
        return math.hypot(dx, dy)

    def max_distance_rect(self, other: "Rect") -> float:
        """Maximum distance between any pair of points of the two rects.

        Used by the lower-bound estimation ``LB(E, us)``: no user in
        ``other`` can be farther than this from any object in ``self``.
        """
        dx = max(abs(self.max_x - other.min_x), abs(other.max_x - self.min_x))
        dy = max(abs(self.max_y - other.min_y), abs(other.max_y - self.min_y))
        return math.hypot(dx, dy)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_point(p: Point) -> "Rect":
        return Rect(p.x, p.y, p.x, p.y)

    @staticmethod
    def from_points(points: Iterable[Point]) -> "Rect":
        """Tightest rectangle covering ``points`` (must be non-empty)."""
        it = iter(points)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("Rect.from_points requires at least one point") from None
        min_x = max_x = first.x
        min_y = max_y = first.y
        for p in it:
            min_x = min(min_x, p.x)
            min_y = min(min_y, p.y)
            max_x = max(max_x, p.x)
            max_y = max(max_y, p.y)
        return Rect(min_x, min_y, max_x, max_y)

    @staticmethod
    def from_rects(rects: Sequence["Rect"]) -> "Rect":
        """Tightest rectangle covering ``rects`` (must be non-empty)."""
        if not rects:
            raise ValueError("Rect.from_rects requires at least one rect")
        return Rect(
            min(r.min_x for r in rects),
            min(r.min_y for r in rects),
            max(r.max_x for r in rects),
            max(r.max_y for r in rects),
        )
