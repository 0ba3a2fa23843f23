"""The bichromatic dataset ``D = (U, O)`` and its derived context.

A :class:`Dataset` bundles the two object colors with the fitted text
relevance measure and the spatial normalizer ``dmax``, because every
score in the system — Eq. 1's ``STS`` — needs all three.  The scoring
helpers live here so that algorithms, indexes and tests all share one
definition of the ranking function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from ..spatial.geometry import Point, Rect
from ..spatial.metrics import EUCLIDEAN, LpMetric
from ..text.relevance import TextRelevance, make_relevance
from ..text.vocabulary import Vocabulary
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
        The two colors of Definition 1.
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
        objects: Sequence[STObject],
        users: Sequence[User],
        relevance: TextRelevance | str = "LM",
        alpha: float = 0.5,
        vocabulary: Optional[Vocabulary] = None,
        metric: LpMetric = EUCLIDEAN,
    ) -> None:
        if not objects:
            raise ValueError("dataset requires at least one object")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        self.objects: List[STObject] = list(objects)
        self.users: List[User] = list(users)
        self.alpha = alpha
        self.vocabulary = vocabulary
        self.metric = metric
        if isinstance(relevance, str):
            relevance = make_relevance(relevance)
        self.relevance: TextRelevance = relevance.fit([o.terms for o in self.objects])
        self.dmax = self._compute_dmax()
        self._objects_by_id: Dict[int, STObject] = {o.item_id: o for o in self.objects}
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
        per-object-set ``ObjectColumns``) refuse to be pickled —
        fork-pool workers must inherit them via copy-on-write, never
        through a pipe — so a dataset crossing a process boundary drops
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
        points = [o.location for o in self.objects] + [u.location for u in self.users]
        diam = self.metric.diameter(Rect.from_points(points))
        return diam if diam > 0 else 1.0

    @property
    def super_user(self) -> SuperUser:
        """Super-user over the full user set (cached)."""
        if self._super_user is None:
            if not self.users:
                raise ValueError("dataset has no users to aggregate")
            self._super_user = SuperUser.from_users(self.users, self.relevance)
        return self._super_user

    def bump_epoch(self) -> int:
        """Advance the mutation generation, invalidating keyed caches."""
        self.epoch += 1
        return self.epoch

    def object_by_id(self, object_id: int) -> STObject:
        return self._objects_by_id[object_id]

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
        unique: set = set()
        total_terms = 0
        unique_per_obj = 0
        for o in self.objects:
            unique |= o.keyword_set
            unique_per_obj += len(o.keyword_set)
            total_terms += o.doc_length
        return DatasetStats(
            num_objects=len(self.objects),
            num_users=len(self.users),
            num_unique_terms=len(unique),
            avg_unique_terms_per_object=(
                unique_per_obj / len(self.objects) if self.objects else 0.0
            ),
            total_terms=total_terms,
        )

    def with_alpha(self, alpha: float) -> "Dataset":
        """Cheap re-parameterization sharing the fitted relevance model."""
        clone = object.__new__(Dataset)
        clone.objects = self.objects
        clone.users = self.users
        clone.alpha = alpha
        clone.vocabulary = self.vocabulary
        clone.metric = self.metric
        clone.relevance = self.relevance
        clone.dmax = self.dmax
        clone._objects_by_id = self._objects_by_id
        clone._users_by_id = self._users_by_id
        clone._super_user = None
        clone._per_object_set = self._per_object_set
        clone.epoch = 0
        return clone

    def with_users(self, users: Sequence[User]) -> "Dataset":
        """Clone with a different user set (same objects and relevance)."""
        clone = object.__new__(Dataset)
        clone.objects = self.objects
        clone.users = list(users)
        clone.alpha = self.alpha
        clone.vocabulary = self.vocabulary
        clone.metric = self.metric
        clone.relevance = self.relevance
        clone.dmax = self.dmax
        clone._objects_by_id = self._objects_by_id
        clone._users_by_id = {u.item_id: u for u in clone.users}
        clone._super_user = None
        clone._per_object_set = self._per_object_set
        clone.epoch = 0
        return clone
