"""Extensions beyond the paper's core query, from its related work.

The paper's Section 2 surveys two natural generalizations that its own
machinery supports directly; both are implemented here on top of the
joint top-k thresholds:

* **ℓ-best placements** (Wong et al.'s ℓ-MaxBRkNN, carried to the
  spatial-textual setting): return the ℓ best (location, keyword set)
  tuples ranked by BRSTkNN cardinality rather than only the optimum —
  useful when the best lot is unavailable or placements must be
  short-listed for a human.
* **Collective placement** (Yan et al.'s FILM extension): place ``m``
  *new* objects — each with its own location and keyword set — so the
  number of users won by *at least one* of them is maximized.  The
  problem inherits NP-hardness from single-placement keyword selection,
  so a greedy algorithm places objects one at a time, each step winning
  the most not-yet-covered users.  The classic max-coverage argument
  gives the usual ``1 - 1/e`` factor w.r.t. the best greedy-step
  oracle.

Both functions take precomputed per-user thresholds (``rsk``), so they
compose with the joint top-k exactly like ``select_candidate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..model.dataset import Dataset
from ..model.objects import User
from ..spatial.geometry import Point
from .candidate_selection import shortlist_locations
from .keyword_selection import select_keywords_exact, select_keywords_greedy
from .query import MaxBRSTkNNQuery

__all__ = ["Placement", "top_placements", "collective_placement"]


@dataclass(frozen=True, slots=True)
class Placement:
    """One (location, keyword set) tuple with the users it wins."""

    location: Point
    keywords: FrozenSet[int]
    brstknn: FrozenSet[int]

    @property
    def cardinality(self) -> int:
        return len(self.brstknn)


def top_placements(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    limit: int = 3,
    rsk_group: float = 0.0,
    method: str = "approx",
    users: Optional[Sequence[User]] = None,
) -> List[Placement]:
    """The ℓ best placements, one per candidate location, best first.

    Each surviving location gets its best keyword set (greedy or exact);
    the resulting placements are ranked by cardinality.  Locations whose
    shortlist upper bound cannot beat the current ℓ-th best are skipped,
    mirroring Algorithm 3's early termination but with an ℓ-deep
    incumbent list.  ``users`` (``None``: all) restricts the users a
    placement can win, as :func:`shortlist_locations`'s.
    """
    if method not in ("approx", "exact"):
        raise ValueError(f"unknown method {method!r}")
    if limit <= 0:
        return []
    selector = select_keywords_greedy if method == "approx" else select_keywords_exact
    shortlists, _ = shortlist_locations(dataset, query, rsk, rsk_group, users=users)
    shortlists.sort(key=lambda sl: -len(sl.users))

    placements: List[Placement] = []

    def worst_kept() -> int:
        return placements[-1].cardinality if len(placements) >= limit else -1

    for sl in shortlists:
        if len(sl.users) <= worst_kept():
            break  # no later location can enter the top-ℓ
        keywords, winners, _ = selector(
            dataset, query.ox, sl.location, query.keywords, query.ws, sl.users, rsk
        )
        placements.append(
            Placement(location=sl.location, keywords=keywords, brstknn=winners)
        )
        placements.sort(key=lambda p: -p.cardinality)
        del placements[limit:]
    return placements


def collective_placement(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    num_objects: int,
    rsk_group: float = 0.0,
    method: str = "approx",
    reuse_locations: bool = False,
) -> Tuple[List[Placement], FrozenSet[int]]:
    """Greedy placement of ``num_objects`` new objects.

    Each round finds the placement winning the most *uncovered* users,
    commits it, removes its users and (unless ``reuse_locations``) its
    location, and repeats.  Returns the chosen placements and the union
    of users covered.  A round restricts the one ``dataset``'s shortlists
    to the uncovered users, so ``rsk`` — a mapping by user id or the
    engine's :class:`~repro.core.thresholds.Thresholds` by user row —
    is read as it is laid out.
    """
    if num_objects <= 0:
        return [], frozenset()
    covered: set = set()
    remaining_locations = list(query.locations)
    chosen: List[Placement] = []
    for _ in range(num_objects):
        if not remaining_locations:
            break
        uncovered_users = [u for u in dataset.users if u.item_id not in covered]
        if not uncovered_users:
            break
        sub_query = MaxBRSTkNNQuery(
            ox=query.ox,
            locations=list(remaining_locations),
            keywords=list(query.keywords),
            ws=query.ws,
            k=query.k,
        )
        best = top_placements(
            dataset, sub_query, rsk, limit=1, rsk_group=0.0, method=method,
            users=uncovered_users,
        )
        if not best or best[0].cardinality == 0:
            break
        placement = best[0]
        chosen.append(placement)
        covered |= set(placement.brstknn)
        if not reuse_locations:
            remaining_locations = [
                loc for loc in remaining_locations if loc != placement.location
            ]
    return chosen, frozenset(covered)
