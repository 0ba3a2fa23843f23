"""The object set ``O`` as columns: the one object table of a dataset.

An :class:`ObjectTable` holds what Definition 1 says an object is — an
id, a location and a term multiset — as six arrays:

* ``ids`` (int64), ``x`` and ``y`` (float64), one entry per object;
* a CSR of the documents: object row ``r`` owns
  ``terms[indptr[r]:indptr[r + 1]]`` with the matching ``tfs``, in the
  order the generator drew them (the order a term dict iterates).

The generators (:mod:`repro.datagen`) emit a table, :class:`Dataset`
keeps it as its only object table, and the relevance model, the
MIR-tree and the kernel columns all read it as arrays.  An
:class:`~repro.model.objects.STObject` exists only once something asks
for one — the oracle, the baseline, tests and examples — and then all
of them are built at once, from these columns, and kept.  The table is
also a read-only ``Sequence[STObject]``: ``len`` reads the columns,
indexing and iteration build the objects.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from typing import Dict, Iterable, List, Optional

import numpy as np

from ..spatial.geometry import Point
from .objects import STObject

__all__ = ["ObjectTable", "group_order", "segment_rows"]


def group_order(group: np.ndarray, key: np.ndarray) -> np.ndarray:
    """``np.lexsort((key, group))`` for non-negative integer columns, as
    one stable argsort of a composite key — several times faster when
    ``group`` is already ascending (timsort runs)."""
    if not len(key):
        return np.zeros(0, dtype=np.int64)
    return np.argsort(group * (int(key.max()) + 1) + key, kind="stable")


def segment_rows(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """CSR entry indices of ``rows``, segment after segment, in order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(total)


class ObjectTable(Sequence):
    """Columns of an object set; see the module docstring."""

    def __init__(self, ids, x, y, indptr, terms, tfs) -> None:
        self.ids = np.ascontiguousarray(ids, dtype=np.int64)
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.terms = np.ascontiguousarray(terms, dtype=np.int64)
        self.tfs = np.ascontiguousarray(tfs, dtype=np.int64)
        n = len(self.ids)
        if not (len(self.x) == len(self.y) == n and len(self.indptr) == n + 1):
            raise ValueError("object columns disagree on the object count")
        if (
            self.indptr[0] != 0
            or self.indptr[-1] != len(self.terms)
            or len(self.terms) != len(self.tfs)
        ):
            raise ValueError("document CSR does not cover its term columns")
        if len(self.tfs) and int(self.tfs.min()) <= 0:
            raise ValueError("non-positive term frequency in the object documents")
        if len(self.terms) and int(self.terms.min()) < 0:
            raise ValueError("negative term id in the object documents")
        self._objects: Optional[List[STObject]] = None
        self._row_of: Optional[Dict[int, int]] = None
        self._ascending: Optional[np.ndarray] = None
        #: Relevance weights by measure instance (see :meth:`weights`).
        self._weights: Dict[int, tuple] = {}

    @classmethod
    def from_objects(cls, objects: Iterable[STObject]) -> "ObjectTable":
        """Columns of a list of objects (``Dataset(objects, users)``'s
        door); the objects themselves are kept as the materialized rows."""
        objects = list(objects)
        counts = [len(o.terms) for o in objects]
        table = cls(
            [o.item_id for o in objects],
            [o.location.x for o in objects],
            [o.location.y for o in objects],
            np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
            [t for o in objects for t in o.terms],
            [f for o in objects for f in o.terms.values()],
        )
        table._objects = objects
        return table

    @classmethod
    def of(cls, objects) -> "ObjectTable":
        """``objects`` if it is a table, else its columns."""
        return objects if isinstance(objects, ObjectTable) else cls.from_objects(objects)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_objects"] = None
        state["_row_of"] = None
        state["_ascending"] = None
        state["_weights"] = {}
        return state

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ids)

    @property
    def xy(self) -> np.ndarray:
        """``(N, 2)`` locations."""
        return np.column_stack((self.x, self.y))

    @property
    def entry_row(self) -> np.ndarray:
        """Object row of every CSR entry."""
        return np.repeat(np.arange(len(self.ids)), np.diff(self.indptr))

    def ascending(self) -> np.ndarray:
        """Permutation of the CSR entries that sorts each document's
        terms ascending (rows keep their order) — the bound kernels'
        summation order.  Computed once."""
        if self._ascending is None:
            self._ascending = group_order(self.entry_row, self.terms)
        return self._ascending

    def row_of(self, object_id: int) -> int:
        """Row of the object with this id (``KeyError`` if none)."""
        if self._row_of is None:
            self._row_of = {oid: r for r, oid in enumerate(self.ids.tolist())}
        return self._row_of[object_id]

    def has_unique_ids(self) -> bool:
        return len(np.unique(self.ids)) == len(self.ids)

    def fit(self, relevance) -> np.ndarray:
        """Fit ``relevance`` on these documents; returns (and keeps) the
        weights of every CSR entry."""
        weights = relevance.fit_columns(self.indptr, self.terms, self.tfs)
        self._weights[id(relevance)] = (relevance, relevance.stats, weights)
        return weights

    def weights(self, relevance) -> np.ndarray:
        """``w(t, o.d)`` of every CSR entry under a *fitted* measure.

        Computed once per (measure, fit) and kept: the dataset, its
        MIR-trees and its kernel columns all read the same array.
        """
        cached = self._weights.get(id(relevance))
        if (
            cached is not None
            and cached[0] is relevance
            and cached[1] is relevance.stats
        ):
            return cached[2]
        weights = relevance.column_weights(self.indptr, self.terms, self.tfs)
        self._weights[id(relevance)] = (relevance, relevance.stats, weights)
        return weights

    def digest(self) -> str:
        """SHA-256 over the six columns' bits — a replica fingerprint."""
        h = hashlib.sha256()
        for column in (self.ids, self.x, self.y, self.indptr, self.terms, self.tfs):
            h.update(column.tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Objects, on first access only
    # ------------------------------------------------------------------
    def materialize(self) -> List[STObject]:
        """Every row as an :class:`STObject` (built once, then kept)."""
        if self._objects is None:
            terms, tfs = self.terms.tolist(), self.tfs.tolist()
            bounds = self.indptr.tolist()
            self._objects = [
                STObject(
                    item_id=oid,
                    location=Point(x, y),
                    terms=dict(zip(terms[a:b], tfs[a:b])),
                )
                for oid, x, y, a, b in zip(
                    self.ids.tolist(), self.x.tolist(), self.y.tolist(),
                    bounds[:-1], bounds[1:],
                )
            ]
        return self._objects

    def object(self, object_id: int) -> STObject:
        """The object with this id."""
        return self.materialize()[self.row_of(object_id)]

    def __getitem__(self, index):
        return self.materialize()[index]

    def __iter__(self):
        return iter(self.materialize())
