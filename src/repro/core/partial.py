"""Mergeable per-shard results for sharded MaxBRSTkNN execution.

The sharded serving layer (``repro.serve.sharded``) partitions the
*user* set across N engines and runs Algorithm 2 — the **refine**, the
one O(|U|·pool) phase — per shard: each shard resolves exact ``RSk(u)``
thresholds for *its* users against the one shared traversal pool.  That
is per-user work, independent across users, so per-shard maps are a
disjoint cover of the sequential map and merge by plain union.

Everything *aggregate*-dependent (the group threshold ``RSk(us)``, and
the whole of Algorithm 3, whose keyword-coverage counts sum over every
user of a location's ``LU_l``) runs on the merged map against the full
dataset, which is why sharded answers are identical to the
single-engine answers: the merge reconstructs the sequential thresholds
bit for bit, and the sequential code consumes them.

Determinism contract of the merge
---------------------------------
* ``RSk(u)`` values merge keyed by original user id (stable remapping:
  shards never renumber users), and a user id appearing in two partials
  is an error, not a last-write-wins.
* Within the per-user top-k lists behind each ``RSk(u)``, ties were
  already broken by (score desc, object id asc); the merge preserves
  those values untouched, so the summed-RSk / object-id tie-breaking of
  the sequential pipeline survives sharding exactly.
* Per-shard refine times are *summed* across partials (the total
  scatter work, not wall clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..model.dataset import Dataset
from .candidate_selection import search_shortlists, shortlist_locations
from .joint_topk import JointTraversalResult, individual_topk

__all__ = [
    "PartialResult",
    "MergedThresholds",
    "compute_partial",
    "compute_partials",
    "merge_partials",
    # Not used here any more: benchmarks/e2e/layers.py still patches
    # these two as attributes of this module, by name.
    "shortlist_locations",
    "search_shortlists",
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
class MergedThresholds:
    """The gathered phase-1 state: a full, sequential-identical rsk map."""

    k: int
    rsk: Dict[int, float]
    users_total: int
    time_s: float  # summed shard refine time (scatter work, not wall clock)
    shards: int = 0
    per_shard_users: List[int] = field(default_factory=list)


# ----------------------------------------------------------------------
# Wire-form rebuilder (module-level so pickles resolve it by name)
# ----------------------------------------------------------------------

def _rebuild_partial(shard_id, k, rsk_blob, users_total, time_s):
    from .payload import decode_rsk

    return PartialResult(
        shard_id=shard_id, k=k, rsk=decode_rsk(rsk_blob),
        users_total=users_total, time_s=time_s,
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

    The pool may have crossed a process boundary: it is checked first,
    so one that does not fit this replica — columns of unequal length,
    ``n_lo`` outside them, an object id ``dataset`` does not hold —
    raises :class:`~repro.core.joint_topk.CandidatePoolError` (an
    ``ERROR`` frame from a shard host, the degrade ladder of a worker
    pool) instead of gathering by a bad index.
    """
    traversal.check(dataset)
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


# ----------------------------------------------------------------------
# Gather-side reducer
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
