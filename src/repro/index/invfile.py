"""Per-node inverted files with minimum and maximum term weights.

Every node of an IR-tree references an inverted file over the documents
(or pseudo-documents) of its entries.  The MIR-tree of Section 5.1
extends each posting from ``<d, w>`` to ``<d, maxw, minw>``:

* for a **leaf** node both weights equal the document's term weight;
* for a **non-leaf** node the pseudo-document of a child is the union of
  the documents in the child's subtree — ``maxw`` is the maximum weight
  of the term in that union, ``minw`` the minimum weight over the
  *intersection* (0 when some document in the subtree misses the term).

The same class serves the plain IR-tree (callers simply ignore ``minw``
and the size model drops the extra field).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from ..storage.pager import (
    PageStore,
    POSTING_ENTRY_BYTES_IR,
    POSTING_ENTRY_BYTES_MIR,
)

__all__ = ["Posting", "InvertedFile", "merge_minmax"]


@dataclass(frozen=True, slots=True)
class Posting:
    """One posting ``<entry_key, maxw, minw>``.

    ``entry_key`` identifies an entry of the owning node: the object id
    in a leaf, the child node's page id in an internal node.
    """

    entry_key: int
    max_weight: float
    min_weight: float

    def __post_init__(self) -> None:
        if self.min_weight > self.max_weight + 1e-12:
            raise ValueError(
                f"posting min weight {self.min_weight} exceeds max {self.max_weight}"
            )


class InvertedFile:
    """Inverted file of one tree node: term id -> list of postings.

    The postings live in four parallel arrays (term, entry key, max
    weight, min weight), ordered by term and, within a term, by the
    node's entry order — the order the lists are written in.  The
    MIR-tree hands each node's arrays over from its columnar build
    (:meth:`from_arrays`); :class:`Posting` objects are built only when
    :meth:`postings` is asked for a list.
    """

    def __init__(self, minmax: bool = True) -> None:
        #: True for MIR-tree layout (12-byte postings), False for IR-tree.
        self.minmax = minmax
        self._set(np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), np.zeros(0))

    @classmethod
    def from_arrays(cls, minmax: bool, term, key, max_weight, min_weight) -> "InvertedFile":
        """Postings given in entry order (any term order within an entry)."""
        inv = cls.__new__(cls)
        inv.minmax = minmax
        inv._set(
            np.asarray(term, dtype=np.int64), np.asarray(key, dtype=np.int64),
            np.asarray(max_weight, dtype=np.float64),
            np.asarray(min_weight, dtype=np.float64),
        )
        return inv

    def _set(self, term, key, max_weight, min_weight) -> None:
        if len(term) and bool(np.any(min_weight > max_weight + 1e-12)):
            raise ValueError("posting min weight exceeds its max weight")
        order = np.argsort(term, kind="stable")
        self._term = term[order]
        self._key = key[order]
        self._max = max_weight[order]
        self._min = min_weight[order]
        self._terms, starts = np.unique(self._term, return_index=True)
        self._bounds = np.append(starts, len(self._term))
        self._where: Optional[Dict[int, Tuple[int, int]]] = None

    def _append(self, term, key, max_weight, min_weight) -> None:
        self._set(
            np.concatenate((self._term, np.asarray(term, dtype=np.int64))),
            np.concatenate((self._key, np.asarray(key, dtype=np.int64))),
            np.concatenate((self._max, np.asarray(max_weight, dtype=np.float64))),
            np.concatenate((self._min, np.asarray(min_weight, dtype=np.float64))),
        )

    def _range(self, term_id: int) -> Tuple[int, int]:
        if self._where is None:
            bounds = self._bounds.tolist()
            self._where = {
                t: (a, b) for t, a, b in zip(self._terms.tolist(), bounds[:-1], bounds[1:])
            }
        return self._where.get(term_id, (0, 0))

    # ------------------------------------------------------------------
    # Construction (one entry at a time)
    # ------------------------------------------------------------------
    def add_document(self, entry_key: int, weights: Mapping[int, float]) -> None:
        """Add a leaf document: min == max == actual weight."""
        w = list(weights.values())
        self._append(list(weights), [entry_key] * len(w), w, w)

    def add_summary(
        self,
        entry_key: int,
        max_weights: Mapping[int, float],
        min_weights: Mapping[int, float],
    ) -> None:
        """Add an internal entry's pseudo-document summary.

        ``max_weights`` covers the union of subtree terms; a term absent
        from ``min_weights`` has minimum weight 0 (not in intersection).
        """
        self._append(
            list(max_weights), [entry_key] * len(max_weights),
            list(max_weights.values()),
            [min_weights.get(tid, 0.0) for tid in max_weights],
        )

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def postings(self, term_id: int) -> List[Posting]:
        """Posting list of ``term_id`` (empty when absent), as objects."""
        a, b = self._range(term_id)
        return [
            Posting(key, maxw, minw)
            for key, maxw, minw in zip(
                self._key[a:b].tolist(), self._max[a:b].tolist(), self._min[a:b].tolist()
            )
        ]

    def terms(self) -> Iterator[int]:
        """Distinct term ids, ascending."""
        return iter(self._terms.tolist())

    def __contains__(self, term_id: int) -> bool:
        return self._range(term_id)[1] > 0

    def __len__(self) -> int:
        """Number of distinct terms."""
        return len(self._terms)

    def num_postings(self) -> int:
        return len(self._term)

    # ------------------------------------------------------------------
    # Per-entry views (what the traversal needs after loading lists)
    # ------------------------------------------------------------------
    def entry_weights(
        self, term_ids: Iterable[int]
    ) -> Dict[int, Dict[int, Tuple[float, float]]]:
        """Group postings of ``term_ids`` by entry key.

        Returns ``{entry_key: {term_id: (maxw, minw)}}`` — the traversal
        loads the lists for the super-user's terms once and then scores
        every child entry from this view.
        """
        out: Dict[int, Dict[int, Tuple[float, float]]] = {}
        for tid in set(term_ids):
            a, b = self._range(tid)
            for key, maxw, minw in zip(
                self._key[a:b].tolist(), self._max[a:b].tolist(), self._min[a:b].tolist()
            ):
                out.setdefault(key, {})[tid] = (maxw, minw)
        return out

    # ------------------------------------------------------------------
    # Size model and I/O charging
    # ------------------------------------------------------------------
    @property
    def posting_entry_bytes(self) -> int:
        return POSTING_ENTRY_BYTES_MIR if self.minmax else POSTING_ENTRY_BYTES_IR

    def list_bytes(self, term_id: int) -> int:
        a, b = self._range(term_id)
        if b == a:
            return 0
        return PageStore.posting_list_bytes(b - a, self.posting_entry_bytes)

    def total_bytes(self) -> int:
        return sum(self.list_bytes(t) for t in self.terms())

    def charge_lists(
        self,
        store: Optional[PageStore],
        index_name: str,
        page_id: int,
        term_ids: Iterable[int],
    ) -> None:
        """Charge the I/O of loading the posting lists for ``term_ids``."""
        if store is None:
            return
        for tid in set(term_ids):
            nbytes = self.list_bytes(tid)
            if nbytes:
                store.read_inverted_list(index_name, page_id, tid, nbytes)


def merge_minmax(
    documents: Iterable[Mapping[int, float]],
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Min/max merge of term-weight maps, the MIR-tree node summary rule.

    Returns ``(max_weights, min_weights)`` where ``max_weights`` holds
    the maximum weight of each term over the union of the inputs and
    ``min_weights`` holds the minimum over their intersection only —
    a term missing from any input document is dropped from
    ``min_weights`` (its effective minimum is 0).
    """
    max_w: Dict[int, float] = {}
    min_w: Dict[int, float] = {}
    first = True
    for doc in documents:
        for tid, w in doc.items():
            if w > max_w.get(tid, float("-inf")):
                max_w[tid] = w
        if first:
            min_w = dict(doc)
            first = False
        else:
            for tid in list(min_w):
                w = doc.get(tid)
                if w is None:
                    del min_w[tid]
                elif w < min_w[tid]:
                    min_w[tid] = w
    return max_w, min_w
