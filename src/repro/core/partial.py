"""Mergeable per-shard results for sharded MaxBRSTkNN execution.

The sharded serving layer (``repro.serve.sharded``) partitions the
*user* set across N engines and runs the two O(|U|) phases per shard:

* **refine** (Algorithm 2): each shard resolves exact ``RSk(u)``
  thresholds for *its* users against the one shared traversal pool —
  per-user work, independent across users, so per-shard maps are a
  disjoint cover of the sequential map and merge by plain union;
* **shortlist** (Algorithm 3's per-user admission test): each shard
  evaluates ``UBL(l, u) >= RSk(u)`` for its users at every surviving
  candidate location — again per-user, so per-shard shortlists
  concatenate into the sequential ``LU_l`` exactly.

Everything *aggregate*-dependent (the group threshold ``RSk(us)``, the
best-first search with its ``|LU_l|`` heap and tie-breaks) runs once on
the merged data, which is why sharded answers are identical to the
single-engine answers: the merge reconstructs the sequential inputs bit
for bit, and the sequential code consumes them.

Determinism contract of the merge
---------------------------------
* ``RSk(u)`` values merge keyed by original user id (stable remapping:
  shards never renumber users), and a user id appearing in two partials
  is an error, not a last-write-wins.
* Each merged ``LU_l`` is ordered by the user's position in the full
  dataset — the exact order the sequential shortlist scan emits — so
  every downstream consumer (greedy coverage ties, winner scans) sees
  the sequential iteration order regardless of shard count.  Within the
  per-user top-k lists behind each ``RSk(u)``, ties were already broken
  by (score desc, object id asc); the merge preserves those values
  untouched, so the summed-RSk / object-id tie-breaking of the
  sequential pipeline survives sharding exactly.
* Per-phase times and I/O charges are *summed* across partials; the
  counters a sequential run reports once (group pruning, location
  survivors) must agree across shards and are asserted, then counted
  once.
"""

from __future__ import annotations

import itertools
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..model.dataset import Dataset
from ..model.objects import SuperUser
from .candidate_selection import (
    LocationShortlist,
    search_shortlists,
    shortlist_locations,
)
from .joint_topk import JointTraversalResult, individual_topk
from .kernels import arrays_for, np, resolve_backend
from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult, QueryStats

__all__ = [
    "PartialResult",
    "ShortlistPartial",
    "MergedThresholds",
    "compute_partial",
    "compute_partials",
    "compute_shortlist_partial",
    "merge_partials",
    "merge_query_shortlist_ids",
    "materialize_shortlists",
    "merge_query_shortlists",
    "run_merged_search",
]


@dataclass(slots=True)
class PartialResult:
    """One shard's phase-1 contribution at one ``k``.

    ``rsk`` holds the exact ``RSk(u)`` of every user living on the
    shard (original ids).  The values are computed against the globally
    shared traversal pool, so they are bitwise identical to what the
    sequential Algorithm 2 produces for the same users.
    """

    shard_id: int
    k: int
    rsk: Dict[int, float]
    users_total: int
    time_s: float

    def __reduce__(self):
        # Compact wire form: the rsk map — the payload's bulk — crosses
        # the worker->parent pipe as one RSK1 binary block instead of a
        # pickled dict (repro.core.payload).  Decode restores the dict
        # in insertion order, so the merge sees identical inputs.
        from .payload import encode_rsk

        try:
            blob = encode_rsk(self.rsk)
        except (TypeError, OverflowError):
            return (
                PartialResult,
                (self.shard_id, self.k, self.rsk, self.users_total, self.time_s),
            )
        return (
            _rebuild_partial,
            (self.shard_id, self.k, blob, self.users_total, self.time_s),
        )


@dataclass(slots=True)
class ShortlistPartial:
    """One shard's phase-2 shortlist contribution for one query.

    ``kept`` lists the surviving candidate locations as
    ``(location index, UBL(l, us), LBL(l, us))`` — identical on every
    shard because the group bounds read only the *global* super-user
    and threshold; ``users`` holds, per surviving location, the shard's
    shortlisted user ids in the shard's (= dataset's) user order.
    """

    shard_id: int
    kept: List[Tuple[int, float, float]]
    users: List[List[int]]
    locations_pruned: int
    time_s: float

    def __reduce__(self):
        # Same wire-compaction as PartialResult: kept becomes three
        # parallel primitive arrays, users one PackedIds block.  The
        # rebuild restores exact python tuples/lists, so the merge's
        # ``p.kept == first.kept`` agreement check still holds.
        from .payload import PackedIds

        try:
            loc = array("q", [t[0] for t in self.kept])
            ub = array("d", [t[1] for t in self.kept])
            lb = array("d", [t[2] for t in self.kept])
            users = PackedIds.pack(self.users)
        except (TypeError, OverflowError):
            return (
                ShortlistPartial,
                (
                    self.shard_id, self.kept, self.users,
                    self.locations_pruned, self.time_s,
                ),
            )
        return (
            _rebuild_shortlist_partial,
            (
                self.shard_id,
                loc.tobytes(), ub.tobytes(), lb.tobytes(),
                (users.offsets, users.flat),
                self.locations_pruned, self.time_s,
            ),
        )


@dataclass(slots=True)
class MergedThresholds:
    """The gathered phase-1 state: a full, sequential-identical rsk map."""

    k: int
    rsk: Dict[int, float]
    users_total: int
    time_s: float  # summed shard refine time (scatter work, not wall clock)
    shards: int = 0
    per_shard_users: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Wire-form rebuilders (module-level so pickles resolve them by name)
# ----------------------------------------------------------------------

def _rebuild_partial(shard_id, k, rsk_blob, users_total, time_s):
    from .payload import decode_rsk

    return PartialResult(
        shard_id=shard_id, k=k, rsk=decode_rsk(rsk_blob),
        users_total=users_total, time_s=time_s,
    )


def _rebuild_shortlist_partial(
    shard_id, kept_loc, kept_ub, kept_lb, users, locations_pruned, time_s
):
    from .payload import PackedIds

    loc = array("q")
    loc.frombytes(kept_loc)
    ub = array("d")
    ub.frombytes(kept_ub)
    lb = array("d")
    lb.frombytes(kept_lb)
    return ShortlistPartial(
        shard_id=shard_id,
        kept=list(zip(loc, ub, lb)),
        users=PackedIds(*users).unpack(),
        locations_pruned=locations_pruned,
        time_s=time_s,
    )


# ----------------------------------------------------------------------
# Shard-side computations (run in-process or inside pool workers)
# ----------------------------------------------------------------------

def compute_partials(
    dataset: Dataset,
    traversal: JointTraversalResult,
    ks: Sequence[int],
    backend: str = "python",
    shard_id: int = 0,
) -> List[PartialResult]:
    """Algorithm 2 for one shard: exact ``RSk(u)`` for the shard's users
    at every ``k`` of ``ks``, from ONE refinement at ``max(ks)``.

    ``dataset`` is the shard's subset dataset (shared objects/relevance
    /``dmax``); ``traversal`` is the *global* pool walked at
    ``k_pool >= max(ks)`` (subsumption: every object any user can rank
    in a top-``k`` survives the larger walk, see
    :class:`repro.core.batch.SharedTraversalPool`).  A top-``k`` list is
    the first ``k`` entries of the top-``max(ks)`` list over the same
    pool (:meth:`TopKResult.kth_score_at`), so each ``k`` still gets its
    own :class:`PartialResult`; the first carries the refinement's time.
    """
    partials: List[PartialResult] = []
    t0 = time.perf_counter()
    per_user = individual_topk(traversal, dataset, max(ks), backend=backend)
    for k in ks:
        rsk = {uid: res.kth_score_at(k) for uid, res in per_user.items()}
        t1 = time.perf_counter()
        partials.append(PartialResult(
            shard_id=shard_id, k=k, rsk=rsk,
            users_total=len(dataset.users), time_s=t1 - t0,
        ))
        t0 = t1
    return partials


def compute_partial(
    dataset: Dataset,
    traversal: JointTraversalResult,
    k: int,
    backend: str = "python",
    shard_id: int = 0,
) -> PartialResult:
    """:func:`compute_partials` at a single ``k``."""
    return compute_partials(dataset, traversal, [k], backend, shard_id)[0]


def compute_shortlist_partial(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    rsk: Mapping[int, float],
    rsk_group: float,
    super_user: SuperUser,
    backend: str = "python",
    shard_id: int = 0,
) -> ShortlistPartial:
    """Algorithm 3's shortlist phase for one shard.

    ``super_user`` and ``rsk_group`` are the *global* aggregates: every
    shard prunes the same locations (the group bound does not depend on
    which users live here) and admits its own users with the same
    per-user test the sequential scan applies.
    """
    t0 = time.perf_counter()
    shortlists, pruned = shortlist_locations(
        dataset, query, rsk, rsk_group, super_user=super_user, backend=backend
    )
    return ShortlistPartial(
        shard_id=shard_id,
        kept=[(sl.index, sl.upper_group, sl.lower_group) for sl in shortlists],
        users=[[u.item_id for u in sl.users] for sl in shortlists],
        locations_pruned=pruned,
        time_s=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# Gather-side reducers
# ----------------------------------------------------------------------

def merge_partials(partials: Sequence[PartialResult]) -> MergedThresholds:
    """Union the per-shard ``RSk(u)`` maps into the sequential map.

    Shard contributions are disjoint by construction (each user lives
    on exactly one shard); an overlap means the partitioner or the
    scatter is broken, so it raises instead of silently preferring one
    shard's value.  Per-shard times are summed — the total refine work,
    which equals the sequential refine cost modulo parallelism.
    """
    if not partials:
        raise ValueError("merge_partials needs at least one partial")
    ks = {p.k for p in partials}
    if len(ks) > 1:
        raise ValueError(f"cannot merge partials across k values {sorted(ks)}")
    merged: Dict[int, float] = {}
    total = 0
    time_s = 0.0
    per_shard: List[int] = []
    for p in sorted(partials, key=lambda p: p.shard_id):
        overlap = merged.keys() & p.rsk.keys()
        if overlap:
            raise ValueError(
                f"shard {p.shard_id} re-reports users {sorted(overlap)[:5]} "
                "already merged from another shard"
            )
        merged.update(p.rsk)
        total += p.users_total
        time_s += p.time_s
        per_shard.append(p.users_total)
    return MergedThresholds(
        k=next(iter(ks)),
        rsk=merged,
        users_total=total,
        time_s=time_s,
        shards=len(partials),
        per_shard_users=per_shard,
    )


def merge_query_shortlist_ids(
    partials: Sequence[ShortlistPartial],
    user_pos: Mapping[int, int],
) -> Tuple[List[Tuple[int, float, float]], List[List[int]], int]:
    """Merge shard shortlists at the user-*id* level.

    Every shard must have kept the same locations with the same group
    bounds (they compute them from identical global inputs; a mismatch
    is a bug and raises).  The merged id list of each location is
    ordered by position in the full dataset's user list — exactly the
    order the sequential scan ``[u for u in users if ...]`` produces.
    Returns ``(kept, ids_per_location, locations_pruned)`` — the
    pickle-light form the root search pool ships to workers, which
    re-materialize :class:`LocationShortlist`\\ s against their
    copy-on-write full dataset.
    """
    if not partials:
        raise ValueError("merge_query_shortlist_ids needs at least one partial")
    first = partials[0]
    for p in partials[1:]:
        if p.kept != first.kept or p.locations_pruned != first.locations_pruned:
            raise ValueError(
                f"shard {p.shard_id} disagrees with shard {first.shard_id} on "
                "group pruning — global super-user/threshold not shared?"
            )
    ids_per_location: List[List[int]] = []
    for pos in range(len(first.kept)):
        ids: List[int] = []
        for p in partials:
            ids.extend(p.users[pos])
        ids.sort(key=lambda uid: user_pos[uid])
        ids_per_location.append(ids)
    return list(first.kept), ids_per_location, first.locations_pruned


def materialize_shortlists(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    kept: Sequence[Tuple[int, float, float]],
    ids_per_location: Sequence[Sequence[int]],
    backend: str = "python",
) -> List[LocationShortlist]:
    """Id-level merged shortlists -> the :class:`LocationShortlist`\\ s
    :func:`~repro.core.candidate_selection.search_shortlists` consumes.

    ``dataset`` must be the *full* dataset (ids resolve against it).
    With ``backend="numpy"`` every id of the query is mapped to its
    array row in one vectorised look-up and the shortlists carry those
    rows, so the search kernel does not derive them again.
    """
    rows_per_location: Sequence = [None] * len(kept)
    if resolve_backend(backend) == "numpy":
        arrays = arrays_for(dataset)
        flat = np.fromiter(
            itertools.chain.from_iterable(ids_per_location), dtype=np.int64
        )
        ends = np.cumsum([len(ids) for ids in ids_per_location])
        rows_per_location = np.split(arrays.rows_of_ids(flat), ends[:-1])
        users_per_location = [arrays.users[rows].tolist() for rows in rows_per_location]
    else:
        users_per_location = [
            [dataset.user_by_id(uid) for uid in ids] for ids in ids_per_location
        ]
    return [
        LocationShortlist(
            location=query.locations[loc_index],
            users=users,
            upper_group=upper_group,
            lower_group=lower_group,
            index=loc_index,
            rows=rows,
        )
        for (loc_index, upper_group, lower_group), users, rows in zip(
            kept, users_per_location, rows_per_location
        )
    ]


def run_merged_search(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    kept: Sequence[Tuple[int, float, float]],
    ids_per_location: Sequence[Sequence[int]],
    pruned: int,
    stats: QueryStats,
    base_selection_s: float,
    rsk: Mapping[int, float],
    rsk_group: float,
    method: str,
    backend: str,
) -> Tuple[MaxBRSTkNNResult, float]:
    """Gather-side central search for one query over merged shortlists.

    The ONE implementation both execution modes run — the sharded
    engine's in-process loop and the root search pool's workers — so
    pooled and in-process execution stay the same code path
    structurally, not by hand-synced copies.  Materialization is timed
    inside the search window; ``selection_time_s`` ends up as the
    shards' shortlist work (``base_selection_s``) plus this call.
    Returns ``(result, elapsed_s)``.
    """
    t0 = time.perf_counter()
    shortlists = materialize_shortlists(
        dataset, query, kept, ids_per_location, backend=backend
    )
    stats.locations_pruned += pruned
    result = search_shortlists(
        dataset, query, rsk, rsk_group, shortlists,
        method=method, stats=stats, backend=backend,
    )
    elapsed = time.perf_counter() - t0
    stats.selection_time_s = base_selection_s + elapsed
    result.stats = stats
    return result, elapsed


def merge_query_shortlists(
    dataset: Dataset,
    query: MaxBRSTkNNQuery,
    partials: Sequence[ShortlistPartial],
    user_pos: Optional[Mapping[int, int]] = None,
) -> Tuple[List[LocationShortlist], int]:
    """Rebuild the sequential ``LU_l`` shortlists from shard partials.

    Composition of :func:`merge_query_shortlist_ids` (ordering and
    agreement checks live there) and :func:`materialize_shortlists`.
    Returns ``(shortlists, locations_pruned)`` with the pruned count
    taken once (it is a per-query, not per-shard, statistic).
    """
    if user_pos is None:
        user_pos = {u.item_id: i for i, u in enumerate(dataset.users)}
    kept, ids_per_location, pruned = merge_query_shortlist_ids(partials, user_pos)
    return materialize_shortlists(dataset, query, kept, ids_per_location), pruned
