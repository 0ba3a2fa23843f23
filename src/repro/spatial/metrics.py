"""Pluggable Lp (Minkowski) spatial metrics.

The paper's spatial proximity uses the Euclidean distance (Eq. 2), and
its related work (Wong et al., PVLDB 2011) extends the purely spatial
MaxBRkNN to arbitrary Lp norms.  This module carries that extension to
the spatial-textual setting: a :class:`LpMetric` computes point
distances and — crucially for the index bounds — *minimum and maximum
rectangle-to-rectangle distances* that stay sound for any ``p >= 1``
(including ``p = inf``).

Soundness of the rect bounds: for axis-aligned rectangles the per-axis
minimum gap ``dx, dy`` and maximum span ``Dx, Dy`` bound the per-axis
coordinate differences of *any* point pair, and every p-norm is
monotone in the absolute value of each component, so
``||(dx, dy)||_p <= ||(px - qx, py - qy)||_p <= ||(Dx, Dy)||_p``.
The property tests verify this on random rectangles for several p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .geometry import Point, Rect

__all__ = ["LpMetric", "EUCLIDEAN", "MANHATTAN", "CHEBYSHEV"]


@dataclass(frozen=True)
class LpMetric:
    """Minkowski distance of order ``p`` (``p >= 1`` or ``math.inf``)."""

    p: Union[float, int] = 2.0

    def __post_init__(self) -> None:
        if self.p != math.inf and self.p < 1:
            raise ValueError("Lp metrics require p >= 1 (or math.inf)")

    # ------------------------------------------------------------------
    def _norm(self, dx: float, dy: float) -> float:
        dx, dy = abs(dx), abs(dy)
        if self.p == math.inf:
            return max(dx, dy)
        if self.p == 1:
            return dx + dy
        if self.p == 2:
            # sqrt(dx*dx + dy*dy) instead of math.hypot: *, + and sqrt
            # are all correctly rounded under IEEE-754, so the numpy
            # kernels reproduce this value bit for bit by writing the
            # same expression — math.hypot is correctly rounded too
            # (CPython >= 3.8) but C libm's hypot, which numpy calls,
            # is not, and the engine must agree with the oracle exactly.
            # Coordinates are dataspace-sized, so the classic
            # overflow/underflow caveat of the naive form cannot bite.
            return math.sqrt(dx * dx + dy * dy)
        return (dx**self.p + dy**self.p) ** (1.0 / self.p)

    # ------------------------------------------------------------------
    def distance(self, a: Point, b: Point) -> float:
        """Distance between two points."""
        return self._norm(a.x - b.x, a.y - b.y)

    def min_distance_point_rect(self, p: Point, r: Rect) -> float:
        dx = max(r.min_x - p.x, 0.0, p.x - r.max_x)
        dy = max(r.min_y - p.y, 0.0, p.y - r.max_y)
        return self._norm(dx, dy)

    def max_distance_point_rect(self, p: Point, r: Rect) -> float:
        dx = max(abs(p.x - r.min_x), abs(p.x - r.max_x))
        dy = max(abs(p.y - r.min_y), abs(p.y - r.max_y))
        return self._norm(dx, dy)

    def min_distance_rects(self, a: Rect, b: Rect) -> float:
        dx = max(a.min_x - b.max_x, 0.0, b.min_x - a.max_x)
        dy = max(a.min_y - b.max_y, 0.0, b.min_y - a.max_y)
        return self._norm(dx, dy)

    def max_distance_rects(self, a: Rect, b: Rect) -> float:
        dx = max(abs(a.max_x - b.min_x), abs(b.max_x - a.min_x))
        dy = max(abs(a.max_y - b.min_y), abs(b.max_y - a.min_y))
        return self._norm(dx, dy)

    def diameter(self, r: Rect) -> float:
        """Largest distance between two points inside ``r`` — the
        ``dmax`` normalizer for this metric."""
        return self._norm(r.width, r.height)

    def name(self) -> str:
        if self.p == math.inf:
            return "Linf"
        p = int(self.p) if float(self.p).is_integer() else self.p
        return f"L{p}"


#: Common instances.
EUCLIDEAN = LpMetric(2.0)
MANHATTAN = LpMetric(1.0)
CHEBYSHEV = LpMetric(math.inf)
