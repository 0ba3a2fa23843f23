"""Query and result types of the MaxBRSTkNN problem (Definition 1)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..model.objects import STObject
from ..spatial.geometry import Point

__all__ = ["MaxBRSTkNNQuery", "MaxBRSTkNNResult", "QueryStats"]


@dataclass(slots=True)
class MaxBRSTkNNQuery:
    """``q(ox, L, W, ws, k)`` of Definition 1.

    Attributes
    ----------
    ox:
        The query object to place.  Its existing text description
        ``ox.d`` (possibly empty) is always kept; chosen candidate
        keywords are added to it.
    locations:
        Candidate locations ``L`` (non-empty).
    keywords:
        Candidate keyword ids ``W``.
    ws:
        Maximum number of candidate keywords to select (``|W'| <= ws``).
    k:
        Top-k horizon of the reverse query.
    """

    ox: STObject
    locations: List[Point]
    keywords: List[int]
    ws: int
    k: int

    def __post_init__(self) -> None:
        if not self.locations:
            raise ValueError("MaxBRSTkNN query needs at least one candidate location")
        if self.ws < 0:
            raise ValueError("ws must be non-negative")
        if self.ws > len(set(self.keywords)):
            # Definition 1 requires ws <= |W|; clamping keeps the query
            # well-formed without forcing callers to special-case.
            self.ws = len(set(self.keywords))
        if self.k <= 0:
            raise ValueError("k must be positive")
        if len(set(self.keywords)) != len(self.keywords):
            self.keywords = list(dict.fromkeys(self.keywords))


@dataclass(slots=True)
class QueryStats:
    """Instrumentation collected while answering one query.

    ``selection_time_s`` is Algorithm 3's time for this query.  A query
    selected in a stacked batch (one ``select`` payload,
    :class:`~repro.core.candidate_selection.SelectionBatch`) shares its
    kernel passes with the others: it is charged its own group bounds
    and queue replay plus an equal share of its keyword side's setup
    and of every stacked pass it took part in, so a payload's times add
    up to its selection wall time.  The selection counters
    (``locations_pruned``, ``keyword_combinations_scored``) are always
    the query's own.
    """

    topk_time_s: float = 0.0
    selection_time_s: float = 0.0
    io_node_visits: int = 0
    io_invfile_blocks: int = 0
    users_pruned: int = 0
    users_total: int = 0
    locations_pruned: int = 0
    keyword_combinations_scored: int = 0

    @property
    def io_total(self) -> int:
        return self.io_node_visits + self.io_invfile_blocks

    @property
    def users_pruned_pct(self) -> float:
        if self.users_total == 0:
            return 0.0
        return 100.0 * self.users_pruned / self.users_total


@dataclass(slots=True)
class MaxBRSTkNNResult:
    """The optimal placement: location, keyword set, and its BRSTkNN."""

    location: Optional[Point]
    keywords: FrozenSet[int]
    brstknn: FrozenSet[int]  # user ids that now rank ox in their top-k
    stats: QueryStats = field(default_factory=QueryStats)

    @property
    def cardinality(self) -> int:
        return len(self.brstknn)

    def summary(self) -> str:
        loc = (
            f"({self.location.x:.3f}, {self.location.y:.3f})"
            if self.location is not None
            else "<none>"
        )
        return (
            f"location={loc} keywords={sorted(self.keywords)} "
            f"|BRSTkNN|={self.cardinality}"
        )
