"""Cross-flush result cache: repeated queries skip the pipeline whole.

Under repeated traffic (the Zipf-shaped streams
``benchmarks/bench_repeat_traffic.py`` models) most flushes re-answer
queries the server has answered before.  The engine-level memoization
(:class:`~repro.core.batch.SharedTraversalPool`) already removes the
*query-independent* phase-1 work across flushes; this module removes
the rest for exact repeats: a bounded LRU of full
:class:`~repro.core.query.MaxBRSTkNNResult` objects keyed by

    (canonical query signature, QueryOptions, dataset epoch)

* The **canonical signature** (:func:`canonical_signature`) is a
  value-tuple of everything the answer depends on — the query object's
  identity, location and document, the candidate locations *in order*
  (shortlist tie-breaks scan locations in the given order), the
  deduplicated keyword candidates in order, ``ws`` and ``k`` — so two
  query objects with equal content hit the same entry, while anything
  answer-relevant keeps distinct entries apart.
* :class:`~repro.core.config.QueryOptions` is a frozen (hashable)
  dataclass; including it keeps e.g. ``method=approx`` and
  ``method=exact`` answers separate (they may legitimately differ).
* The **dataset epoch** (``Dataset.epoch``, bumped by
  ``Dataset.bump_epoch()``) invalidates wholesale: any mutation bumps
  the epoch, every existing key stops matching, and the LRU ages the
  stale generation out without a scan.

Hits return the *same* result object the engine produced — results are
treated as immutable by every consumer (the serving layer hands them
to independent futures already).  Hit/miss/eviction accounting lives
with the caller (:class:`~repro.serve.config.ServerStats`); the cache
itself only stores and evicts, returning eviction counts from
:meth:`ResultCache.store`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional, Tuple

from .config import CachePolicy, QueryOptions

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query import MaxBRSTkNNQuery, MaxBRSTkNNResult

__all__ = ["canonical_signature", "ResultCache"]


def canonical_signature(query: "MaxBRSTkNNQuery") -> Tuple:
    """Hashable value-identity of one query.

    Everything the result depends on, nothing else.  Candidate
    locations and keywords stay *in order* — Algorithm 3's shortlist
    scan and the keyword selectors break ties positionally, so
    reordering either can legitimately change the reported optimum
    among equal-cardinality answers.
    """
    ox = query.ox
    return (
        ox.item_id,
        (ox.location.x, ox.location.y),
        tuple(sorted(ox.terms.items())),
        tuple((p.x, p.y) for p in query.locations),
        tuple(query.keywords),
        query.ws,
        query.k,
    )


class ResultCache:
    """Bounded LRU of exact MaxBRSTkNN results (one dataset, one server).

    Not thread-safe by itself; the micro-batching server does every
    lookup/store on the event-loop thread, which is the one writer.
    """

    def __init__(self, policy: Optional[CachePolicy] = None) -> None:
        policy = policy if policy is not None else CachePolicy()
        if not isinstance(policy, CachePolicy):
            raise TypeError(
                f"policy must be a CachePolicy, got {type(policy).__name__}"
            )
        self.policy = policy
        self._entries: "OrderedDict[Tuple, MaxBRSTkNNResult]" = OrderedDict()

    @staticmethod
    def _key(query: "MaxBRSTkNNQuery", options: QueryOptions, epoch: int) -> Tuple:
        return (canonical_signature(query), options, epoch)

    def lookup(
        self, query: "MaxBRSTkNNQuery", options: QueryOptions, epoch: int
    ) -> Optional["MaxBRSTkNNResult"]:
        """The cached result for an exact repeat, or ``None`` (a miss)."""
        entry = self._entries.get(self._key(query, options, epoch))
        if entry is None:
            return None
        self._entries.move_to_end(self._key(query, options, epoch))
        return entry

    def store(
        self,
        query: "MaxBRSTkNNQuery",
        options: QueryOptions,
        epoch: int,
        result: "MaxBRSTkNNResult",
    ) -> int:
        """Insert (or refresh) one result; returns evictions performed."""
        key = self._key(query, options, epoch)
        self._entries[key] = result
        self._entries.move_to_end(key)
        evicted = 0
        while len(self._entries) > self.policy.max_entries:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
