"""User-set partitioning for sharded serving.

The MaxBRSTkNN answer aggregates over the *entire* user set, but the
``RSk(u)`` thresholds (Algorithm 2, the O(|U|·pool) phase) depend only
on the object side and on ``u`` itself.  The user set can therefore be
split across shards for that phase and the per-shard contributions
merged back exactly (see ``repro.core.partial``).  This module owns the
splitting.

Two strategies:

* ``hash`` — a deterministic integer mix of the user id.  Shards get
  statistically equal user counts regardless of geometry; the baseline
  strategy, and the right one when queries touch users everywhere.
* ``grid`` — a spatial grid over the users' bounding box; cells are
  dealt to shards round-robin in row-major order.  Co-located users
  land on the same shard, which keeps each shard's working set spatially
  coherent (cache-friendly refinement) at the cost of skew when users
  cluster.

Both are **stable**: the assignment is a pure function of (user ids,
locations, shard count), independent of iteration order, Python hash
randomization, or process boundaries — the same dataset partitions the
same way in every worker of a fork pool and across runs.  Users keep
their original ids (the merge relies on it); a shard's user list
preserves the dataset's user order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..model.dataset import Dataset
from ..model.objects import User
from ..spatial.geometry import Rect

__all__ = ["PARTITIONERS", "ShardAssignment", "UserPartitioner", "partition_users"]

#: Recognized strategy names (mirrored by ``core.config.Partitioner``).
PARTITIONERS = ("hash", "grid")


def _mix64(x: int) -> int:
    """SplitMix64 finalizer: a deterministic, well-spread 64-bit mix.

    Python's builtin ``hash`` is identity on small ints (so ``uid % n``
    would stripe consecutive ids) and salted on strings; this mix gives
    hash-partitioning its "statistically equal shards" property while
    staying reproducible everywhere.
    """
    x &= 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(slots=True)
class ShardAssignment:
    """The result of partitioning: who lives where.

    Attributes
    ----------
    num_shards:
        Requested shard count; ``shard_user_ids`` always has this many
        entries (some possibly empty — the execution layer must cope).
    strategy:
        The strategy that produced the assignment ("hash" / "grid").
    shard_user_ids:
        Per shard, the assigned user ids **in the dataset's user
        order** — the stable remapping the merge step keys on.
    shard_of:
        ``user_id -> shard`` lookup.
    """

    num_shards: int
    strategy: str
    shard_user_ids: List[List[int]]
    shard_of: Dict[int, int]

    def counts(self) -> List[int]:
        return [len(ids) for ids in self.shard_user_ids]

    def largest_skew(self) -> float:
        """Largest shard size over the ideal equal share (1.0 = even)."""
        total = sum(self.counts())
        if total == 0 or self.num_shards == 0:
            return 1.0
        ideal = total / self.num_shards
        return max(self.counts()) / ideal if ideal > 0 else 1.0


class UserPartitioner:
    """Splits a dataset's users into ``num_shards`` stable partitions.

    >>> assignment = UserPartitioner("grid", 4).assign(dataset)
    >>> assignment, shard_datasets = UserPartitioner("grid", 4).split(dataset)

    ``split`` returns per-shard :class:`~repro.model.dataset.Dataset`
    clones built with :meth:`Dataset.subset_users`, so every shard
    shares the parent's objects, relevance model and ``dmax`` — scores
    computed on a shard are bitwise identical to the full dataset's.
    """

    def __init__(self, strategy: str = "hash", num_shards: int = 1) -> None:
        strategy = str(strategy).lower()
        if strategy not in PARTITIONERS:
            raise ValueError(
                f"unknown partitioner {strategy!r}; expected one of {PARTITIONERS}"
            )
        if not isinstance(num_shards, int) or num_shards < 1:
            raise ValueError(f"num_shards must be an int >= 1, got {num_shards!r}")
        self.strategy = strategy
        self.num_shards = num_shards

    # ------------------------------------------------------------------
    def assign(self, dataset: Dataset) -> ShardAssignment:
        users = dataset.users
        if self.strategy == "hash":
            shard_of = {u.item_id: _mix64(u.item_id) % self.num_shards for u in users}
        else:
            shard_of = self._grid_assign(users)
        shard_user_ids: List[List[int]] = [[] for _ in range(self.num_shards)]
        for u in users:  # dataset order -> per-shard lists stay ordered
            shard_user_ids[shard_of[u.item_id]].append(u.item_id)
        return ShardAssignment(
            num_shards=self.num_shards,
            strategy=self.strategy,
            shard_user_ids=shard_user_ids,
            shard_of=shard_of,
        )

    def split(self, dataset: Dataset) -> Tuple[ShardAssignment, List[Dataset]]:
        """Assignment plus the per-shard dataset clones."""
        assignment = self.assign(dataset)
        return assignment, [
            dataset.subset_users(ids) for ids in assignment.shard_user_ids
        ]

    # ------------------------------------------------------------------
    def _grid_assign(self, users: Sequence[User]) -> Dict[int, int]:
        """Row-major grid cells dealt round-robin to shards.

        The grid is ``g x g`` with ``g = ceil(sqrt(num_shards))`` so
        there are at least as many cells as shards; dealing cells
        round-robin keeps every shard reachable even when all users
        collapse into one cell (they then share a single shard, the
        degenerate-but-correct outcome the edge-case tests pin).
        """
        if not users:
            return {}
        box = Rect.from_points(u.location for u in users)
        g = max(1, math.isqrt(self.num_shards - 1) + 1)
        width = box.max_x - box.min_x
        height = box.max_y - box.min_y
        shard_of: Dict[int, int] = {}
        for u in users:
            cx = 0 if width <= 0 else min(g - 1, int((u.location.x - box.min_x) / width * g))
            cy = 0 if height <= 0 else min(g - 1, int((u.location.y - box.min_y) / height * g))
            shard_of[u.item_id] = (cy * g + cx) % self.num_shards
        return shard_of


def partition_users(
    dataset: Dataset, num_shards: int, strategy: str = "hash"
) -> Tuple[ShardAssignment, List[Dataset]]:
    """One-call convenience: ``UserPartitioner(strategy, n).split(dataset)``."""
    return UserPartitioner(strategy, num_shards).split(dataset)
