"""Mergeable per-lane results of the sharded cold refine.

Algorithm 2 — the **refine**, the one O(|U|·pool) phase — is per-user
work against one shared traversal pool, independent across users.  A
sharded engine (``repro.serve.sharded``) therefore deals the rows of
``dataset.users`` over its full-dataset lanes as contiguous half-open
ranges: each lane resolves exact ``RSk(u)`` thresholds for *its* rows
(a :class:`~repro.core.thresholds.Thresholds` — id and value columns),
and the per-lane vectors are a disjoint cover of the sequential vector
that merges by concatenation.  Which lane refined which user cannot change a
value — every lane holds the same dataset and the same pool.

Everything *aggregate*-dependent (the group threshold ``RSk(us)``, and
the whole of Algorithm 3, whose keyword-coverage counts sum over every
user of a location's ``LU_l``) runs on the merged map, which is why
sharded answers are identical to the single-engine answers: the merge
reconstructs the sequential thresholds bit for bit, and the sequential
code consumes them.

Determinism contract of the merge
---------------------------------
* ``RSk(u)`` values merge in user-row order — ranges are dealt in row
  order, so the lane-order concatenation already is; any other order
  is put back into it — and the merge is the guard on what came off
  the wire: a user reported twice, or a user of the dataset reported
  by no lane, is an error, not a last-write-wins or a silent gap.
* Within the per-user top-k lists behind each ``RSk(u)``, ties were
  already broken by (score desc, object id asc); the merge preserves
  those values untouched, so the summed-RSk / object-id tie-breaking of
  the sequential pipeline survives exactly.
* Per-lane refine times are *summed* across partials (the total
  scatter work, not wall clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..model.dataset import Dataset
from ..model.objects import User
from .candidate_selection import search_shortlists, shortlist_locations
from .joint_topk import JointTraversalResult, individual_topk
from .thresholds import Thresholds

__all__ = [
    "PartialResult",
    "MergedThresholds",
    "UserRangeError",
    "compute_partials",
    "merge_partials",
    # Not used here any more: benchmarks/e2e/layers.py still patches
    # these two as attributes of this module, by name.
    "shortlist_locations",
    "search_shortlists",
]


class UserRangeError(ValueError):
    """A refine payload's user-row range does not fit this replica's
    ``dataset.users`` (a host started with a different ``--users``, a
    stale or hostile frame)."""


@dataclass(slots=True)
class PartialResult:
    """One lane's phase-1 contribution at one ``k``.

    ``rsk`` holds the exact ``RSk(u)`` of every user in the lane's row
    range, in row order (a :class:`~repro.core.thresholds.Thresholds`;
    any ``Mapping`` by user id is accepted); ``shard_id`` is the lane's
    index.  The
    values are computed against the globally shared traversal pool, so
    they are bitwise identical to what the sequential Algorithm 2
    produces for the same users.  A refine chunk crosses a process
    boundary as one ``GPR1`` block (:func:`repro.core.payload.
    encode_gather_payload`), never as pickled instances.
    """

    shard_id: int
    k: int
    rsk: Mapping[int, float]
    users_total: int
    time_s: float


@dataclass(slots=True)
class MergedThresholds:
    """The gathered phase-1 state: the full, sequential-identical
    ``RSk(u)`` vector, by user row."""

    k: int
    rsk: Thresholds
    users_total: int
    time_s: float  # summed lane refine time (scatter work, not wall clock)


# ----------------------------------------------------------------------
# Lane-side computation (runs in-process or inside pool workers / hosts)
# ----------------------------------------------------------------------

def compute_partials(
    dataset: Dataset,
    traversal: JointTraversalResult,
    ks: Sequence[int],
    shard_id: int = 0,
    rows: Optional[Tuple[int, int]] = None,
) -> List[PartialResult]:
    """Algorithm 2 for one lane: exact ``RSk(u)`` for the users in rows
    ``[lo, hi)`` of ``dataset.users`` (``rows=None``: all of them) at
    every ``k`` of ``ks``, from ONE refinement at ``max(ks)``.

    ``dataset`` is the full dataset; ``traversal`` is the *global* pool
    walked at ``k_pool >= max(ks)`` (subsumption: every object any user
    can rank in a top-``k`` survives the larger walk, see
    :class:`repro.core.batch.SharedTraversalPool`).  A top-``k`` list is
    the first ``k`` entries of the top-``max(ks)`` list over the same
    pool (:meth:`~repro.core.joint_topk.TopKTable.rsk`), so each ``k``
    still gets its own :class:`PartialResult`; the first carries the
    refinement's time.  The table stays on the pool
    (``traversal.refined``), so a later call for the same replica and
    rows at no larger a ``k`` reads it instead of refining again — a
    flush that adds a smaller ``k`` to a walk pays no second pass.
    Example 4's stop is taken per user, so a user's list does not
    depend on which rows it was refined with.

    Pool and range may have crossed a process boundary: both are
    checked first, so a pool that does not fit this replica — columns
    of unequal length, ``n_lo`` outside them, an object id ``dataset``
    does not hold — raises
    :class:`~repro.core.joint_topk.CandidatePoolError`, and a range
    outside ``0 <= lo <= hi <= len(dataset.users)`` raises
    :class:`UserRangeError` (an ``ERROR`` frame from a shard host, the
    degrade ladder of a worker pool) instead of gathering by a bad
    index.  An empty range answers empty partials.
    """
    traversal.check(dataset)
    lo, hi = (0, len(dataset.users)) if rows is None else rows
    if not (
        isinstance(lo, int) and isinstance(hi, int)
        and 0 <= lo <= hi <= len(dataset.users)
    ):
        raise UserRangeError(
            f"user rows [{lo!r}, {hi!r}) do not fit this replica's "
            f"{len(dataset.users)} users"
        )
    users = dataset.users[lo:hi]
    partials: List[PartialResult] = []
    t0 = time.perf_counter()
    refined = traversal.refined
    if refined is None or refined[:2] != (dataset, (lo, hi)) or refined[2].k < max(ks):
        refined = traversal.refined = (
            dataset, (lo, hi), individual_topk(traversal, dataset, max(ks), users=users)
        )
    table = refined[2]
    for k in ks:
        rsk = table.rsk(k)
        t1 = time.perf_counter()
        partials.append(PartialResult(
            shard_id=shard_id, k=k, rsk=rsk,
            users_total=len(users), time_s=t1 - t0,
        ))
        t0 = t1
    return partials


# ----------------------------------------------------------------------
# Gather-side reducer
# ----------------------------------------------------------------------

def merge_partials(
    partials: Sequence[PartialResult], users: Sequence[User]
) -> MergedThresholds:
    """Concatenate the per-lane ``RSk(u)`` vectors into the sequential
    vector over ``users`` (the coordinator's ``dataset.users``), by row.

    Lane contributions are a disjoint cover by construction (each row
    falls in exactly one range); a user reported twice, or one of
    ``users`` reported by no lane, means the dealing or a remote
    replica is broken, so it raises instead of silently preferring one
    lane's value or serving a short vector.  Both checks are array
    operations on the id columns.  Per-lane times are summed — the
    total refine work, which equals the sequential refine cost modulo
    parallelism.
    """
    if not partials:
        raise ValueError("merge_partials needs at least one partial")
    ks = {p.k for p in partials}
    if len(ks) > 1:
        raise ValueError(f"cannot merge partials across k values {sorted(ks)}")
    lanes = sorted(partials, key=lambda p: p.shard_id)
    columns = [Thresholds.of(p.rsk) for p in lanes]
    ids = np.concatenate([c.ids for c in columns])
    values = np.concatenate([c.values for c in columns])
    time_s = sum(p.time_s for p in lanes)
    want = np.fromiter((u.item_id for u in users), np.int64, len(users))
    if not np.array_equal(ids, want):
        unique, seen = np.unique(ids, return_counts=True)
        if (seen > 1).any():
            raise ValueError(
                f"a lane re-reports users {unique[seen > 1][:5].tolist()} "
                "already merged from another lane"
            )
        missing = want[~np.isin(want, ids)]
        if len(missing) or len(ids) != len(want):
            raise ValueError(
                f"refine lanes cover {len(ids)} users, the dataset holds "
                f"{len(users)} (first missing: {missing[:5].tolist()})"
            )
        # The same users in another order: back into row order.
        by_id = np.argsort(ids)
        values = values[by_id[np.searchsorted(ids, want, sorter=by_id)]]
    return MergedThresholds(
        k=next(iter(ks)), rsk=Thresholds(want, values), users_total=len(want),
        time_s=time_s,
    )
