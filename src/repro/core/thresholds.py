"""``RSk(u)`` as two columns: what Algorithm 2 hands Algorithm 3.

Algorithm 3 reads one float per user — their threshold ``RSk(u)`` —
and its kernels read it *by user row*
(:class:`~repro.core.kernels.SelectionContext`).  A
:class:`Thresholds` is that vector with its id column beside it:
``ids`` (int64) and ``values`` (float64), aligned.  Algorithm 2's
:class:`~repro.core.joint_topk.TopKTable` emits one per ``k``
(:meth:`~repro.core.joint_topk.TopKTable.rsk`), a lane's
:class:`~repro.core.partial.PartialResult` carries one for its row
range, the merge concatenates them, and the ``RSK1`` block
(:mod:`repro.core.payload`) is the two columns' bytes.

The scalar code paths (the oracle, :mod:`repro.oracle`; the baseline;
tests) read thresholds by user id, so a :class:`Thresholds` is also a read-only
``Mapping[int, float]``; the dict behind that view is built on first
use only.  (``values`` is the value column, which takes the place of
the ``Mapping.values()`` view.)  It holds no
:class:`~repro.model.objects.User`, so it pickles as its two arrays.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

import numpy as np

__all__ = ["Thresholds"]


class Thresholds(Mapping[int, float]):
    """``RSk(u)`` per user: ``values[i]`` is the threshold of user
    ``ids[i]``."""

    __slots__ = ("ids", "values", "_by_id")

    def __init__(self, ids, values) -> None:
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if ids.ndim != 1 or ids.shape != values.shape:
            raise ValueError(
                f"thresholds need aligned 1-D columns, got ids {ids.shape} "
                f"and values {values.shape}"
            )
        self.ids = ids
        self.values = values
        self._by_id: Optional[Dict[int, float]] = None

    @classmethod
    def of(cls, rsk: Mapping[int, float]) -> "Thresholds":
        """``rsk`` itself if it is one, else its items as columns in
        iteration order (``OverflowError`` for an id outside int64)."""
        if isinstance(rsk, Thresholds):
            return rsk
        n = len(rsk)
        return cls(
            np.fromiter(rsk.keys(), np.int64, n),
            np.fromiter(rsk.values(), np.float64, n),
        )

    @classmethod
    def over(cls, ids, rsk: Mapping[int, float]) -> "Thresholds":
        """The thresholds of ``rsk`` laid out along ``ids``: NaN where
        ``rsk`` holds no value for an id."""
        nan = float("nan")
        values = np.fromiter(
            (rsk.get(uid, nan) for uid in ids.tolist()), np.float64, len(ids)
        )
        return cls(ids, values)

    def __reduce__(self):
        return Thresholds, (self.ids, self.values)

    def _lookup(self) -> Dict[int, float]:
        if self._by_id is None:
            self._by_id = dict(zip(self.ids.tolist(), self.values.tolist()))
        return self._by_id

    def __getitem__(self, uid: int) -> float:
        return self._lookup()[uid]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return f"Thresholds({len(self)} users)"
