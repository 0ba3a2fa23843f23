"""User generation following the paper's protocol (Section 8).

For the Flickr dataset the paper generates users like this: pick an
area of fixed size (default 5x5 degrees), sample ``|U|`` objects inside
it and take their locations as user locations; pool ``UW`` keywords
sampled from those objects' tags; distribute the pool over the users so
each user carries ``UL`` keywords following the pool's own term
distribution.  The pooled ``UW`` keywords double as the candidate
keyword set ``W`` of the query, and candidate locations are drawn from
the same area.

:func:`generate_users` reproduces that protocol; the returned
:class:`UserWorkload` also carries everything a MaxBRSTkNN query needs
(candidate keywords, candidate locations, and a fresh query object).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..model.columns import ObjectTable, segment_rows
from ..model.objects import STObject, User
from ..spatial.geometry import EPSILON, Point, Rect
from .synthetic import ExactChoice

__all__ = ["UserWorkload", "generate_users", "candidate_locations", "query_pool"]


@dataclass(slots=True)
class UserWorkload:
    """Users plus the query ingredients derived with them."""

    users: List[User]
    #: Candidate keyword ids ``W`` (the pooled UW keywords).
    candidate_keywords: List[int]
    #: The area users were drawn from.
    area: Rect
    #: Candidate locations ``L`` inside the area.
    locations: List[Point] = field(default_factory=list)

    def query_object(self, object_id: int = -1, terms: Optional[Dict[int, int]] = None) -> STObject:
        """A fresh query object ``ox`` centred in the user area.

        ``ox`` starts with an empty description unless ``terms`` given —
        Definition 1 allows both; the chosen keywords are added on top.
        """
        return STObject(
            item_id=object_id, location=self.area.center, terms=dict(terms or {})
        )


def _pick_area(
    rng: np.random.Generator, table: ObjectTable, area_side: float
) -> Tuple[Rect, np.ndarray]:
    """Pick an area of side ``area_side`` containing enough objects;
    returns it with the rows of the objects inside.

    Areas are centred on randomly chosen objects so dense regions are
    preferred, like picking a populated 5x5-degree window on Flickr.
    Each candidate is one vectorised ``Rect.contains_point`` over the
    location columns.
    """
    x, y = table.x, table.y
    xs, ys = x.tolist(), y.tolist()
    best: Tuple[int, Rect, np.ndarray] = (
        -1, Rect(0, 0, area_side, area_side), np.zeros(0, dtype=np.int64)
    )
    for _ in range(32):
        anchor = int(rng.integers(0, len(table)))
        half = area_side / 2.0
        rect = Rect(
            xs[anchor] - half, ys[anchor] - half, xs[anchor] + half, ys[anchor] + half
        )
        inside = np.flatnonzero(
            (rect.min_x - EPSILON <= x) & (x <= rect.max_x + EPSILON)
            & (rect.min_y - EPSILON <= y) & (y <= rect.max_y + EPSILON)
        )
        if len(inside) > best[0]:
            best = (len(inside), rect, inside)
    return best[1], best[2]


def generate_users(
    objects: Union[ObjectTable, Sequence[STObject]],
    num_users: int = 400,
    keywords_per_user: int = 3,
    unique_keywords: int = 20,
    area_side: float = 5.0,
    seed: int = 0,
) -> UserWorkload:
    """Generate users per the paper's Section 8 protocol.

    Parameters map one-to-one onto the paper's knobs: ``num_users`` is
    ``|U|``, ``keywords_per_user`` is ``UL``, ``unique_keywords`` is
    ``UW``, ``area_side`` is ``Area`` (the user-MBR side length).
    ``objects`` is read as columns (a list of objects is converted).
    """
    if not len(objects):
        raise ValueError("cannot generate users from an empty object set")
    if keywords_per_user > unique_keywords:
        raise ValueError("UL cannot exceed UW (users draw from the pooled keywords)")
    table = ObjectTable.of(objects)
    rng = np.random.default_rng(seed)
    area, rows = _pick_area(rng, table, area_side)
    if not len(rows):
        rows = np.arange(len(table))

    # User locations: |U| object locations from the area (with
    # replacement when the area holds fewer objects than users).
    replace = len(rows) < num_users
    idx = rows[rng.choice(len(rows), size=num_users, replace=replace)]
    locations = [Point(x, y) for x, y in zip(table.x[idx].tolist(), table.y[idx].tolist())]

    # Keyword pool: UW distinct keywords sampled from the area's
    # objects, weighted by how often they occur there (so the pool
    # follows the local tag distribution).
    entries = segment_rows(table.indptr, rows)
    term_freq = np.bincount(
        table.terms[entries], weights=table.tfs[entries]
    ).astype(np.int64)
    all_terms = np.flatnonzero(term_freq)
    if not len(all_terms):
        raise ValueError("area objects carry no keywords")
    weights = term_freq[all_terms].astype(np.float64)
    weights /= weights.sum()
    take = min(unique_keywords, len(all_terms))
    pool = rng.choice(all_terms, size=take, replace=False, p=weights)
    pool = [int(t) for t in pool]

    # Distribute pool keywords to users following the pool distribution.
    pool_w = term_freq[pool].astype(np.float64)
    pool_w /= pool_w.sum()
    choose = ExactChoice(pool_w)
    ul = min(keywords_per_user, len(pool))
    users: List[User] = []
    for uid, loc in enumerate(locations):
        terms = {pool[c]: 1 for c in choose(rng, ul).tolist()}
        users.append(User(item_id=uid, location=loc, terms=terms))

    return UserWorkload(users=users, candidate_keywords=sorted(pool), area=area)


def candidate_locations(
    workload: UserWorkload, num_locations: int = 20, seed: int = 0
) -> List[Point]:
    """Draw candidate locations ``L`` uniformly inside the user area."""
    rng = np.random.default_rng(seed + 1_000_003)
    area = workload.area
    xs = rng.uniform(area.min_x, area.max_x, size=num_locations)
    ys = rng.uniform(area.min_y, area.max_y, size=num_locations)
    locs = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
    workload.locations = locs
    return locs


def query_pool(
    workload: UserWorkload,
    count: int,
    *,
    num_locations: int = 20,
    ws: int = 2,
    k: int = 10,
    seed: int = 0,
    seed_stride: int = 1,
):
    """``count`` distinct MaxBRSTkNN queries over one workload.

    Each query gets fresh candidate locations (re-seeded with
    ``seed + seed_stride * i``, mutating ``workload.locations`` like
    :func:`candidate_locations` does) and a fresh negative-id query
    object.  The CLI, the serving benchmarks, and the examples all
    build their pools here.
    """
    from ..core.query import MaxBRSTkNNQuery

    queries = []
    for i in range(count):
        candidate_locations(
            workload, num_locations=num_locations, seed=seed + seed_stride * i
        )
        queries.append(
            MaxBRSTkNNQuery(
                ox=workload.query_object(object_id=-(i + 1)),
                locations=list(workload.locations),
                keywords=list(workload.candidate_keywords),
                ws=ws,
                k=k,
            )
        )
    return queries
