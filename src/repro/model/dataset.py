"""The bichromatic dataset ``D = (U, O)`` and its derived context.

A :class:`Dataset` bundles the two object colors with the fitted text
relevance measure and the spatial normalizer ``dmax``, because every
score in the system — Eq. 1's ``STS`` — needs all three.  The scoring
helpers live here so that algorithms, indexes and tests all share one
definition of the ranking function.

The objects are held as columns (:class:`~repro.model.columns.ObjectTable`,
what the generators emit; a list of objects is converted at the door).
From them the dataset fits the relevance model and derives every
object's term weights once, one array aligned with the table's
document CSR (:attr:`Dataset.object_weights`) that the MIR-tree and
the kernel columns read.  ``dataset.objects`` is the table itself: its
length needs no object, and iterating it builds the
:class:`~repro.model.objects.STObject` rows once, for the callers that
want them (the oracle, the baseline, tests, examples).  Users stay
objects.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..spatial.geometry import Point, Rect
from ..spatial.metrics import EUCLIDEAN, LpMetric
from ..text.relevance import TextRelevance, make_relevance
from ..text.vocabulary import Vocabulary
from .columns import ObjectTable
from .objects import STObject, SuperUser, User

__all__ = ["Dataset", "DatasetStats"]


@dataclass(slots=True)
class DatasetStats:
    """Table 4-style summary of a dataset."""

    num_objects: int
    num_users: int
    num_unique_terms: int
    avg_unique_terms_per_object: float
    total_terms: int

    def rows(self) -> List[tuple]:
        """(property, value) rows for report printing."""
        return [
            ("Total objects", self.num_objects),
            ("Total users", self.num_users),
            ("Total unique terms", self.num_unique_terms),
            ("Avg unique terms per object", round(self.avg_unique_terms_per_object, 1)),
            ("Total terms in dataset", self.total_terms),
        ]


class Dataset:
    """A bichromatic spatial-textual dataset with its scoring context.

    Parameters
    ----------
    objects / users:
        The two colors of Definition 1; ``objects`` as an
        :class:`ObjectTable` or a sequence of :class:`STObject`.
    relevance:
        A text relevance measure instance or its short name
        ("LM" / "TF" / "KO").  It is fit on the *object* documents —
        collection statistics in the paper are always over ``O``.
    alpha:
        Spatial-vs-textual preference of Eq. 1 (``alpha = 1`` means
        purely spatial ranking).
    vocabulary:
        Optional shared vocabulary (kept for decoding term ids in
        reports and examples).
    metric:
        Spatial metric; Euclidean by default (Eq. 2).  Any Lp metric is
        supported — the Wong et al. extension carried over to the
        spatial-textual setting (see ``repro.spatial.metrics``).
    """

    def __init__(
        self,
        objects: Union[ObjectTable, Sequence[STObject]],
        users: Sequence[User],
        relevance: TextRelevance | str = "LM",
        alpha: float = 0.5,
        vocabulary: Optional[Vocabulary] = None,
        metric: LpMetric = EUCLIDEAN,
    ) -> None:
        if not len(objects):
            raise ValueError("dataset requires at least one object")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        #: The object set as columns — the dataset's only object table.
        self.table: ObjectTable = ObjectTable.of(objects)
        self.users: List[User] = list(users)
        self.alpha = alpha
        self.vocabulary = vocabulary
        self.metric = metric
        if isinstance(relevance, str):
            relevance = make_relevance(relevance)
        self.table.fit(relevance)
        self.relevance: TextRelevance = relevance
        self.dmax = self._compute_dmax()
        self._users_by_id: Dict[int, User] = {u.item_id: u for u in self.users}
        self._super_user: Optional[SuperUser] = None
        #: Kernel state that depends on the objects and the relevance
        #: model only (``repro.core.kernels.ObjectColumns``).  The
        #: holder is shared by reference with every ``with_alpha`` /
        #: ``with_users`` clone, so one build serves the whole family.
        self._per_object_set: Dict[str, object] = {}
        #: Mutation generation.  Result caches key on it
        #: (:mod:`repro.core.cache`): any future in-place mutation must
        #: call :meth:`bump_epoch`, and every cached answer derived from
        #: the previous generation stops matching wholesale.
        self.epoch = 0

    def __getstate__(self):
        """Pickle without the cached numpy kernel arrays.

        The arrays (``repro.core.kernels.DatasetArrays`` and the
        per-object-set ``ObjectColumns``) refuse to be pickled — forked
        shard hosts inherit them via copy-on-write, never through a
        socket — so a dataset crossing a process boundary drops
        them and rebuilds lazily on first vectorized use.
        """
        state = self.__dict__.copy()
        state.pop("_kernel_arrays", None)
        state["_per_object_set"] = {}
        return state

    # ------------------------------------------------------------------
    # Derived context
    # ------------------------------------------------------------------
    def _compute_dmax(self) -> float:
        """Diameter of the bounding box of every location in ``D``.

        The paper defines ``dmax`` as the maximum distance between any
        two points in ``D``; the bounding-box diameter under the chosen
        metric upper-bounds it (and equals it when extreme points sit
        at opposite corners), which keeps ``SS`` within [0, 1] for
        every pair.
        """
        xs = np.concatenate((self.table.x, [u.location.x for u in self.users]))
        ys = np.concatenate((self.table.y, [u.location.y for u in self.users]))
        rect = Rect(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
        diam = self.metric.diameter(rect)
        return diam if diam > 0 else 1.0

    @property
    def objects(self) -> ObjectTable:
        """``O`` as a ``Sequence[STObject]`` — the columns themselves;
        iterating builds the objects (once)."""
        return self.table

    @property
    def num_objects(self) -> int:
        return len(self.table)

    @property
    def object_weights(self) -> np.ndarray:
        """``w(t, o.d)`` of every entry of the table's document CSR."""
        return self.table.weights(self.relevance)

    @property
    def super_user(self) -> SuperUser:
        """Super-user over the full user set (cached)."""
        if self._super_user is None:
            if not self.users:
                raise ValueError("dataset has no users to aggregate")
            self._super_user = SuperUser.from_users(self.users, self.relevance)
        return self._super_user

    def fingerprint(self) -> str:
        """SHA-256 over what replicas must agree on: the object columns,
        the users (ids, locations, terms), ``alpha`` and the measure."""
        users = self.users
        h = hashlib.sha256(self.table.digest().encode("ascii"))
        h.update(np.array([u.item_id for u in users], dtype=np.int64).tobytes())
        h.update(np.array(
            [(u.location.x, u.location.y) for u in users], dtype=np.float64
        ).tobytes())
        h.update(np.array(
            [len(u.terms) for u in users] + [t for u in users for t in u.terms],
            dtype=np.int64,
        ).tobytes())
        h.update(repr((self.alpha, self.relevance.name, self.metric.p)).encode())
        return h.hexdigest()

    def bump_epoch(self) -> int:
        """Advance the mutation generation, invalidating keyed caches."""
        self.epoch += 1
        return self.epoch

    def object_by_id(self, object_id: int) -> STObject:
        return self.table.object(object_id)

    def user_by_id(self, user_id: int) -> User:
        return self._users_by_id[user_id]

    # ------------------------------------------------------------------
    # Scoring (Eq. 1 and 2)
    # ------------------------------------------------------------------
    def spatial_score(self, a: Point, b: Point) -> float:
        """``SS = 1 - dist / dmax``, clamped into [0, 1]."""
        ss = 1.0 - self.metric.distance(a, b) / self.dmax
        return max(0.0, min(1.0, ss))

    def spatial_score_from_distance(self, distance: float) -> float:
        ss = 1.0 - distance / self.dmax
        return max(0.0, min(1.0, ss))

    def text_score(self, doc: Mapping[int, int], user_terms: Iterable[int]) -> float:
        """``TS(o.d, u.d)`` under the dataset's relevance measure."""
        return self.relevance.score(doc, user_terms)

    def sts(self, obj: STObject, user: User) -> float:
        """Spatial-textual score ``STS(o, u)`` of Eq. 1."""
        return self.sts_parts(obj.location, obj.terms, user)

    def sts_parts(
        self, location: Point, doc: Mapping[int, int], user: User
    ) -> float:
        """``STS`` for an arbitrary (location, document) pair vs a user.

        This is the form candidate evaluation needs: the query object
        ``ox`` takes on candidate locations and augmented documents that
        are not part of ``O``.
        """
        ss = self.spatial_score(location, user.location)
        ts = self.relevance.score(doc, user.keyword_set)
        return self.alpha * ss + (1.0 - self.alpha) * ts

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> DatasetStats:
        table = self.table
        return DatasetStats(
            num_objects=len(table),
            num_users=len(self.users),
            num_unique_terms=len(np.unique(table.terms)),
            avg_unique_terms_per_object=len(table.terms) / len(table),
            total_terms=int(table.tfs.sum()),
        )

    def with_alpha(self, alpha: float) -> "Dataset":
        """Cheap re-parameterization sharing the fitted relevance model."""
        clone = object.__new__(Dataset)
        clone.table = self.table
        clone.users = self.users
        clone.alpha = alpha
        clone.vocabulary = self.vocabulary
        clone.metric = self.metric
        clone.relevance = self.relevance
        clone.dmax = self.dmax
        clone._users_by_id = self._users_by_id
        clone._super_user = None
        clone._per_object_set = self._per_object_set
        clone.epoch = 0
        return clone

    def with_users(self, users: Sequence[User]) -> "Dataset":
        """Clone with a different user set (same objects and relevance)."""
        clone = object.__new__(Dataset)
        clone.table = self.table
        clone.users = list(users)
        clone.alpha = self.alpha
        clone.vocabulary = self.vocabulary
        clone.metric = self.metric
        clone.relevance = self.relevance
        clone.dmax = self.dmax
        clone._users_by_id = {u.item_id: u for u in clone.users}
        clone._super_user = None
        clone._per_object_set = self._per_object_set
        clone.epoch = 0
        return clone
