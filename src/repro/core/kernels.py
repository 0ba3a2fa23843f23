"""NumPy-vectorized scoring kernels: the engine's query processing.

The scalar reference, the oracle (:mod:`repro.oracle`), scores one
``(user, object/location)`` pair at a time through
:meth:`repro.model.dataset.Dataset.sts_parts` and the
:class:`~repro.core.bounds.BoundCalculator` methods.  Every per-query
hot loop in the system — the per-user shortlist test ``UBL(l, u) >=
RSk(u)`` of Algorithm 3, the BRSTkNN winner scan of the keyword
selectors, and the Algorithm 2 refinement of the candidate pools — is a
dense "one location/document against *all* users" computation, which
this module evaluates as array arithmetic instead of Python loops.

Exactness contract
------------------
The engine must return *identical results* to the oracle (the
equivalence tests enforce it).  Two kinds of kernel keep that promise
in two ways.

**Single-precision guard-banded kernels** (the matrix kernels that
feed a *decision* ``score >= threshold``: Algorithm 2's
:meth:`DatasetArrays.candidate_score_matrix` and
:meth:`DatasetArrays.set_bound_matrix`, Algorithm 3's
:meth:`DatasetArrays.spatial_matrix`).  Their decisions never need
more than a few significant digits, so they run on float32 copies of
the folded operands (``obj_xy32``, ``obj_weights32``, ``user_xy32``,
``user_text32``, ``set_text32``: each the float64 fold rounded once),
half the bytes per pass and twice the values per vector op.  A
comparison decided by a margin wider than a **guard band** is trusted;
an entry inside the band is re-checked by an exact code path, which
decides it exactly as the oracle does.  Each band is derived from
float32's unit roundoff ``u = 2**-24`` as four times the worst-case
error of one score: Algorithm 2's ``DatasetArrays.refine_guard``
(:func:`refine_guard`, ``(T + 16) * u`` at unit coordinate span and
``T`` term columns, ``8.6e-6`` at the benchmark's default cell) and
Algorithm 3's ``select_guard`` (:func:`select_guard`, the space half:
``(4X + 8) * u``, ``2.9e-6`` at ``X = 1``).  Their values are never
returned: every cell an Algorithm 2 decision keeps is re-scored by the
bitwise :meth:`DatasetArrays.sts_pairs`, and only those floats leave
Algorithm 2.

Algorithm 3's selection (:class:`SelectionContext`) is of this kind
throughout, and its decisions are matrices — one row per candidate
location — so the band is two-dimensional (:func:`_banded`): each
decision compares ``alpha * SS(l, u)`` with ``θ = RSk(u) - (1 - alpha)
* TS`` moved to the right (the same ``STS`` units, so the band covers
the same ``STS`` interval at every ``alpha``, 0 and 1 included), ``θ``
in float64 and its edges ``θ ± guard`` rounded outward to float32
(:func:`_edges32`), and an entry reaches the scalar re-check
(``dataset.sts_parts`` for a ``LUW`` pair or a recount,
``BoundCalculator.location_upper_user`` for a shortlist row) only if it
lies strictly inside the band *and* its user belongs to that row's
location; every other entry of the matrix is trusted or masked.  The
wider band costs little: a warm flush of 8 queries of the benchmark's
shape (O4000/U400) re-checks 5 entries in all, and Algorithm 4's
flush of them 408 (``bench_traversal.py``'s ``select-flush`` rows print
the counts).

**Bitwise kernels** (:meth:`DatasetArrays.sts_pairs`, the traversal
kernels of :class:`TreeArrays`).  Their
floats *are* the scalar path's floats, so they may be returned and
compared with ``==``.  That holds because every operation is a
correctly-rounded IEEE-754 op written as the scalar code writes it
(``sqrt(dx*dx + dy*dy)``, never ``hypot``) and because the
**summation order is fixed to the scalar one**: strictly left to
right, one elementwise add per term, never a reduction.  What fixes
the order differs by kernel — the bound kernels sum ascending term ids
(``SuperUser.sorted_union``, :func:`_masked_segment_sums`);
``sts_pairs`` walks each user's terms in the iteration order of
``set(user.keyword_set)``, the very set ``TextRelevance.score`` loops
over, captured once at build time.  Terms the scalar loop skips enter
as ``+ 0.0``, which is exact.  :func:`_masked_segment_sums` adds no
such term at all: it orders the CSR segments by how many of their
entries the mask keeps, longest first, so the segments that still have
a ``j``-th kept entry are a prefix of that order, and column ``j`` is
one add of those entries into that prefix of accumulators — each
segment's kept weights enter its ``0.0`` accumulator once each, left to
right, exactly the scalar ``total += w`` sequence.  KI301/KI302 in
``tests/test_source_contracts.py`` ban ``hypot`` / ``fsum`` / ``@`` /
``.sum`` / ``einsum`` inside them, and KI303 any single-precision
dtype or float32 operand.

Array layout
------------
:class:`ObjectColumns` caches, per *object set* (shared by
``with_alpha``/``with_users`` clones): object locations ``(N, 2)``, a
vectorised id -> row look-up (how a candidate pool, which names objects
by id, becomes rows) and a CSR of every object's term weights.

:class:`DatasetArrays` caches, per dataset (stored on the dataset
itself, so clones from ``with_alpha``/``with_users`` get their own):

* user locations ``(M, 2)`` and user-side normalizers ``Z(u.d)``;
* a dense user/term incidence matrix over the *union of user keywords*
  (terms no user holds can never contribute to any text score);
* the object weights mapped onto those term columns ``(N, T + 1)``, so
  a refinement gathers candidate rows by id;
* Algorithm 2's single-precision operands: folded object and user
  coordinates, object weights, users' and keyword sets' folded term
  rows (``N x (T + 3)`` + ``U x (T + 2)`` + ``S x (T + 1)`` float32).

Query-time documents become weight vectors over the same term columns
and text sums become one mat-vec per location/document.

:class:`SelectionContext` is Algorithm 3's selection for one keyword
side ``(ox.d, W, ws)`` — every query of a ``select`` payload that shares
it, whatever its ``k`` — laid out location-major.  **Per (dataset
epoch, keyword side) per process** (:class:`KeywordSide`, kept in
:meth:`DatasetArrays.side`'s bounded map and read by every context of
that side, in any payload and any later flush): the text half of
``UBL(l, u)``, one full-length text-score row per distinct augmented
document (new ones scored in one stacked pass), the greedy selector's
``HW_{w,u}`` pair table (:class:`PairTable`) built by array operations
— candidate ranks from a row-wise ``cumsum``, each pair's set a short
row of key indices, de-duplicated by one ``lexsort`` — and the group
bounds' text terms.  **Per context** (dropped with it): one ``RSk(u)``
row per distinct threshold vector (one per k) and, per threshold row,
the ``θ`` of the shortlist's and the ``LUW`` pass's decisions.  **Per
pass of candidate locations**: ``alpha * SS`` as one float32 ``L x U``
matrix and its guard, computed once, which every decision reads in
place: the shortlist mask
(``L x U``), the ``LUW`` pass (``L x P`` over the pairs), the greedy
max-coverage of all ``L`` locations at once (gains counted by an exact
product with a pair-to-key one-hot) and the recounts of either
selector's keyword sets (one row per ``(location, keyword set)``, the
rows of one set and threshold row compared as one run, their ``θ``
kept for the call).  Winner sets stay boolean rows; only a query's
final answer becomes a ``frozenset``.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from typing import (
    TYPE_CHECKING, Callable, Dict, FrozenSet, Iterable, List, Mapping,
    NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..model.columns import segment_rows
from ..model.objects import STObject, User
from ..spatial.geometry import Point
from ..storage.pager import TERM_HEADER_BYTES
from .bounds import BoundCalculator, augmented_document, candidate_term_weight
from .thresholds import Thresholds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.dataset import Dataset

__all__ = [
    "SIDES_MAX",
    "SIDE_TEXT_BYTES",
    "DatasetArrays",
    "KeywordSide",
    "ObjectColumns",
    "SelectionContext",
    "TreeArrays",
    "FrontierBounds",
    "arrays_for",
    "keyword_side_key",
    "object_columns_for",
    "tree_arrays_for",
]

def refine_guard(num_terms: int, span: float) -> float:
    """The guard band of Algorithm 2's decisions on single-precision
    scores: ``4 * (T + 16 * X) * u``, with ``u = 2**-24`` the unit
    roundoff of IEEE-754 single precision, ``T`` the term columns and
    ``X = max(1, span)``, ``span`` the largest folded coordinate
    (``alpha * extent / dmax``: at most ``alpha`` wherever ``dmax``
    spans the users too).

    **Per score** (:meth:`DatasetArrays.candidate_score_matrix`), to
    first order in ``u``:

    * *text* — every product ``t_j * w_j`` of a user's folded row and an
      object's weights carries three roundings (both inputs rounded to
      float32, the product), and a sum of at most ``T`` non-negative
      addends, in any association order, at most ``T - 1`` more, each
      relative to the exact sum.  That sum is ``(1 - alpha) * sums / Z``,
      at most ``1 - alpha`` (an object's weight never exceeds the
      collection maximum ``Z`` sums), and the cap at ``1 - alpha``
      rounded to float32 adds one more: ``(T + 3) * u * (1 - alpha)``;
    * *space* — a folded coordinate is off by ``u * X``, a difference of
      two by ``2uX`` plus its own rounding, ``u`` times itself; the norm
      of the differences (``||e||_p <= ||e||_1`` for the error vector)
      is then off by ``4uX + 2u * n``, and evaluating it (squares, add,
      ``sqrt``; or ``**p``, add, ``**(1/p)`` with ``1/p`` itself rounded,
      which adds ``u * n * |ln n| <= u / e``) by ``3u * n + u / 2``.
      Only ``n <= alpha + O(u)`` reaches the score — ``max(0, alpha -
      n)`` clips the rest on both sides — and ``alpha - n`` with
      ``alpha`` rounded adds ``2u * alpha``: ``u * (4X + 8)`` in all;
    * the final add: ``u`` (the score is at most 1).

    So ``|score - STS| <= E = (T + 16 * X) * u``.  The set bound
    (:meth:`DatasetArrays.set_bound_matrix`) sums ``T + 1`` terms whose
    last is the spatial half (times an exact ``1``) and reads the same
    gap arithmetic: it is off by at most ``E`` too.

    **Per decision** (:func:`repro.core.joint_topk.individual_topk`),
    ``4E`` covers each comparison's worst case: a contender test
    compares two scores (``2E``), a stop compares a score with a set
    bound (``2E``) capped by ``UB(o, us)`` rounded to float32 (``u``),
    and ``θ - guard`` rounds once more (``u``).  At the benchmark's
    default cell (``T = 20``, ``X = 1``) the guard is ``8.6e-6``.
    """
    return 4.0 * (num_terms + 16.0 * max(1.0, span)) * 2.0 ** -24


#: The bits of float32's quiet NaN: or-ed into any float32's bits, they
#: set every exponent bit and the leading mantissa bit — a NaN
#: (:meth:`SelectionContext._within`).
QNAN32 = np.int32(0x7FC00000)

#: What rounding ``θ``, then ``θ ± guard``, to float32 may move a band
#: edge by at ``|θ| < 2``, with room to spare (:func:`_edges32`).
EDGE_SLACK = 2.0 ** -22


def select_guard(span: float) -> float:
    """The guard band of Algorithm 3's decisions on single-precision
    ``alpha * SS`` rows (:meth:`DatasetArrays.spatial_matrix`): ``4 * (4X
    + 8) * u``, with ``u = 2**-24`` and ``X = max(1, span)``, ``span``
    the largest folded coordinate magnitude among the users *and the
    pass's locations* (a candidate location may lie outside the data's
    box, and a folded coordinate is off by ``u * |c|``).

    The space half of :func:`refine_guard`'s analysis: a cell is off the
    scalar ``alpha * SS(l, u)`` by at most ``E = (4X + 8) * u`` (the
    coordinate differences, their norm and ``max(0, alpha - n)``; the
    scalar's own float64 roundings are ~1e-16).  A decision compares one
    cell with a float64 ``θ`` whose band edges are rounded outward to
    float32 (:func:`_edges32`), so ``E`` alone separates a trusted
    comparison from the scalar one; the factor 4 is the margin
    :func:`refine_guard` keeps.  At ``X = 1`` the guard is ``2.9e-6``.
    """
    return 4.0 * (4.0 * max(1.0, span) + 8.0) * 2.0 ** -24


#: Keyword sides one :class:`DatasetArrays` keeps (:meth:`DatasetArrays.side`),
#: least recently used first out.  A served workload repeats a handful
#: of sides; an evicted side only costs its rebuild on next use.
SIDES_MAX = 16

#: Bytes of ``TS`` rows one :class:`KeywordSide` keeps
#: (:meth:`KeywordSide.text`): a new row that would pass it starts the
#: rows over from the sets asked for.
SIDE_TEXT_BYTES = 1 << 20


def _pairwise_norm(dx, dy, p: float):
    """Vectorized Lp norm mirroring ``LpMetric._norm`` op for op.

    ``dx`` / ``dy`` are arrays.  The two ``abs`` results are this
    function's own buffers and every later step writes into them: the
    same ufuncs in the same order, so the same bits, without a fresh
    full-size temporary per operation.
    """
    dx = np.abs(dx)
    dy = np.abs(dy)
    if p == float("inf"):
        return np.maximum(dx, dy, out=dx)
    if p == 1:
        dx += dy
        return dx
    if p == 2:
        # Same expression as LpMetric._norm: *, + and sqrt are all
        # correctly rounded under IEEE-754, so this is bitwise-equal to
        # the scalar metric on every platform (np.hypot/C hypot is not).
        dx *= dx
        dy *= dy
        dx += dy
        return np.sqrt(dx, out=dx)
    dx **= p
    dy **= p
    dx += dy
    dx **= 1.0 / p
    return dx


def _norm_of_differences(dx, dy, p: float):
    """The Lp norm of the coordinate differences ``dx`` / ``dy``, in
    place, for the guard-banded kernels only: at ``p = 2`` the squares
    need no ``abs``; otherwise :func:`_pairwise_norm`."""
    if p != 2:
        return _pairwise_norm(dx, dy, p)
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _normalized_text(sums, z):
    """``min(1, sums / Z(u.d))`` per user; 0 for users without a normalizer."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z > 0.0, np.minimum(1.0, sums / np.where(z > 0.0, z, 1.0)), 0.0)


def _distinct_rows(keys) -> Tuple["np.ndarray", "np.ndarray"]:
    """The distinct rows of an integer matrix with at least one column,
    in lexicographic order, and each row's index among them — what
    ``np.unique(keys, axis=0, return_inverse=True)`` returns, from one
    ``lexsort`` instead of a sort of structured rows."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(keys), dtype=np.intp)
    ids[order] = np.cumsum(first) - 1
    return ordered[first], ids


def _xy_of(locations: Sequence[Point]) -> "np.ndarray":
    """Coordinates of ``locations``, ``L x 2`` (each column contiguous)."""
    return np.array(
        [[loc.x for loc in locations], [loc.y for loc in locations]], dtype=np.float64
    ).T


class ObjectColumns:
    """Array mirror of a dataset's *objects*: built once per object set.

    Point coordinates, a vectorised id -> row look-up and one CSR of
    every object's term weights — the dataset's
    :attr:`~repro.model.dataset.Dataset.object_weights`, bitwise the
    floats ``relevance.document_weights`` returns, which is what
    :meth:`TextRelevance.score` adds up — each object's entries in
    ascending term order, the bound kernels' summation order.
    Nothing here depends on the users or on ``alpha``, so ``with_alpha``
    / ``with_users`` clones share one instance through
    ``Dataset._per_object_set`` (see :func:`object_columns_for`), and
    workers forked after
    ``prewarm_kernels`` inherit it like :class:`TreeArrays`.
    """

    #: Process-wide construction counter (see DatasetArrays.build_count).
    build_count = 0

    def __init__(self, dataset: "Dataset") -> None:
        ObjectColumns.build_count += 1
        table = dataset.table
        self.num_objects = len(table)
        self.ids = table.ids
        #: ``ids``' stable argsort and ``ids`` in that order, for
        #: :meth:`rows_of_ids`.
        self._id_order = np.argsort(self.ids, kind="stable")
        self._ids_ascending = self.ids[self._id_order]
        self.xy = table.xy
        #: Object row of every CSR entry; row ``r`` owns
        #: ``indptr[r]:indptr[r + 1]``.
        self.entry_row = table.entry_row
        self.indptr = table.indptr.astype(np.intp)
        ascending = table.ascending()
        self.term = table.terms[ascending]
        self.weight = dataset.object_weights[ascending]

    def __reduce__(self):
        raise TypeError(
            "ObjectColumns must never be pickled: build once per object set "
            "and let forked workers inherit it via copy-on-write "
            "(object_columns_for)."
        )

    def rows_of_ids(self, object_ids) -> "np.ndarray":
        """Row-index array of the objects with these ids, one vectorised
        look-up; ``KeyError`` if this object set lacks any of them —
        never a clamped or wrapped neighbour's row.

        The wanted ids are sorted first, so one ``searchsorted`` walks
        two ascending arrays in step, and the rows are scattered back to
        the wanted order: ~10x faster than searching unsorted ids through
        ``sorter=`` for a 405k-id pool over 1M objects, ~3x for a 2.5k-id
        pool over 4k.  Equal ids get equal rows, so the sort need not be
        stable."""
        wanted = np.asarray(object_ids, dtype=np.int64)
        by = np.argsort(wanted)
        sought = wanted[by]
        ascending = self._ids_ascending
        found = np.minimum(np.searchsorted(ascending, sought), len(ascending) - 1)
        if not np.array_equal(ascending[found], sought):
            raise KeyError("object id not in this dataset")
        rows = np.empty(len(wanted), dtype=np.intp)
        rows[by] = self._id_order[found]
        return rows

    def weights_over(self, terms: Sequence[int]) -> "np.ndarray":
        """Dense ``(objects, len(terms) + 1)`` weights over ascending
        ``terms``, one vectorised pass over the CSR.

        Column ``j`` holds ``w(terms[j], o.d)`` (0 where the object
        lacks the term); the extra last column is all zeros — the
        padding target of :meth:`DatasetArrays.sts_pairs`.
        """
        dense = np.zeros((self.num_objects, len(terms) + 1), dtype=np.float64)
        if len(terms) and len(self.term):
            wanted = np.array(terms, dtype=np.int64)
            col = np.minimum(np.searchsorted(wanted, self.term), len(terms) - 1)
            held = wanted[col] == self.term
            dense[self.entry_row[held], col[held]] = self.weight[held]
        return dense


class DatasetArrays:
    """Array mirror of a :class:`Dataset`'s users for vectorized scoring.

    Built once per dataset and cached (see :func:`arrays_for`); all
    kernels are methods so the term-column mapping stays private.
    """

    #: Process-wide construction counter.  Fork-pool regression tests
    #: compare a worker's value against the parent's pre-fork value to
    #: prove the arrays were inherited through copy-on-write memory
    #: instead of being rebuilt (or worse, pickled) per worker.
    build_count = 0

    def __init__(self, dataset: "Dataset") -> None:
        DatasetArrays.build_count += 1
        self.dataset = dataset
        users = dataset.users
        self.num_users = len(users)
        self.user_ids = np.array([u.item_id for u in users], dtype=np.int64)
        self.user_row: Dict[int, int] = {
            u.item_id: i for i, u in enumerate(users)
        }
        self.user_xy = np.array(
            [(u.location.x, u.location.y) for u in users], dtype=np.float64
        ).reshape(self.num_users, 2)
        #: ``dataset.users`` as an object column: ``users[rows].tolist()``
        #: gathers a shortlist in one C loop.
        self.users = np.empty(self.num_users, dtype=object)
        self.users[:] = users

        rel = dataset.relevance
        # Each user's terms as the very set TextRelevance.score builds:
        # its iteration order is the scalar summation order, and Z(u.d)
        # is the scalar normalizer of that same set (see sts_pairs).
        term_sets = [set(u.keyword_set) for u in users]
        self.user_z = np.array(
            [rel.user_normalizer(terms) for terms in term_sets], dtype=np.float64
        )
        # Term columns: union of all user keywords, ascending for
        # deterministic summation order inside reductions.
        union = sorted(set().union(*term_sets))
        self.term_col: Dict[int, int] = {t: j for j, t in enumerate(union)}
        self.num_terms = len(self.term_col)
        self.user_terms = np.zeros((self.num_users, self.num_terms), dtype=np.float64)
        #: Per user, the columns of their terms in scalar summation
        #: order, padded with ``num_terms`` — the all-zero last column
        #: of ``obj_weights``.
        self.user_term_cols = np.full(
            (self.num_users, max(map(len, term_sets), default=0)),
            self.num_terms, dtype=np.intp,
        )
        for i, terms in enumerate(term_sets):
            cols = [self.term_col[t] for t in terms]
            self.user_terms[i, cols] = 1.0
            self.user_term_cols[i, : len(cols)] = cols
        self.objects = object_columns_for(dataset)
        #: ``w(t, o.d)`` by (object row, term column) + one zero column.
        self.obj_weights = self.objects.weights_over(union)

        # The guard-banded kernels' operands with alpha folded in
        # (Algorithm 2's candidate_score_matrix and set_bound_matrix,
        # Algorithm 3's spatial_matrix), in single precision: each is the
        # float64 fold rounded once to float32.  Coordinates are moved to
        # the data's own corner, then scaled by alpha / dmax: norms of
        # them are alpha * dist / dmax.
        alpha = dataset.alpha
        points = np.concatenate((self.objects.xy, self.user_xy))
        #: The fold of a point: ``(xy - corner) * scale``.
        self.corner = points.min(axis=0) if len(points) else np.zeros(2)
        self.scale = alpha / dataset.dmax
        obj_xy = (self.objects.xy - self.corner) * self.scale
        user_xy = (self.user_xy - self.corner) * self.scale
        self.obj_xy32 = obj_xy.astype(np.float32)
        self.user_xy32 = user_xy.astype(np.float32)
        #: Its two columns, each contiguous (:meth:`spatial_matrix`).
        self.user_x32, self.user_y32 = np.ascontiguousarray(self.user_xy32.T)
        #: ``obj_weights`` rounded to float32, its zero column included
        #: (:meth:`set_bound_matrix` writes the spatial half there).
        self.obj_weights32 = self.obj_weights.astype(np.float32)
        #: Each user's term row times ``(1 - alpha) / Z(u.d)`` (zero where
        #: ``Z = 0``): one product gives ``(1 - alpha) * sums / Z``.
        fold = np.divide(
            1.0 - alpha, self.user_z, out=np.zeros(self.num_users), where=self.user_z > 0.0
        )
        user_text = self.user_terms * fold[:, None]
        self.user_text32 = user_text.astype(np.float32)
        #: Keyword-set id of every user: equal sets share ``Z(u.d)``, so a
        #: set's folded row scores the text half of all its holders.
        set_ids: Dict[FrozenSet[int], int] = {}
        self.user_set = np.array(
            [set_ids.setdefault(frozenset(terms), len(set_ids)) for terms in term_sets],
            dtype=np.intp,
        )
        #: One folded row per set, plus a last column of ones that adds
        #: whatever an object row carries in ``obj_weights32``' zero column.
        self.set_text32 = np.hstack((
            user_text[np.unique(self.user_set, return_index=True)[1]],
            np.ones((len(set_ids), 1)),
        )).astype(np.float32)
        #: The largest folded coordinate (all are non-negative).
        self.span = max(float(obj_xy.max(initial=0.0)), float(user_xy.max(initial=0.0)))
        #: The band Algorithm 2's decisions read around these operands'
        #: scores (:func:`refine_guard`).
        self.refine_guard = refine_guard(self.num_terms, self.span)
        #: Algorithm 3's keyword sides by (dataset epoch, side key), at
        #: most ``SIDES_MAX``; see :meth:`side`.
        self._sides: "OrderedDict[tuple, KeywordSide]" = OrderedDict()
        self._sides_lock = threading.Lock()
        self.side_hits = 0
        self.side_misses = 0

    def __reduce__(self):
        raise TypeError(
            "DatasetArrays must never be pickled: workers inherit the arrays "
            "through fork/copy-on-write (repro.serve.pool), and shipping the "
            "dense matrices through a pipe would silently undo that.  Pickle "
            "the Dataset instead; arrays_for() rebuilds lazily on the far side."
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def rows_for(self, users: Optional[Sequence[User]]):
        """Row-index array for a user subset (None = all users)."""
        if users is None:
            return np.arange(self.num_users)
        return np.array([self.user_row[u.item_id] for u in users], dtype=np.intp)

    def side(
        self, ox: STObject, candidate_terms: Iterable[int] = (), ws: int = 0
    ) -> "KeywordSide":
        """The :class:`KeywordSide` of ``(ox.d, candidate_terms, ws)`` at
        the dataset's current epoch: the stored one (a hit), else a new
        one stored (a miss).  Storing a side drops every side of an
        older epoch — a mutated dataset never matches them again — and,
        past ``SIDES_MAX``, the least recently used one."""
        key = (self.dataset.epoch, keyword_side_key(ox, candidate_terms, ws))
        with self._sides_lock:
            side = self._sides.get(key)
            if side is not None:
                self.side_hits += 1
                self._sides.move_to_end(key)
                return side
            self.side_misses += 1
            for stale in [k for k in self._sides if k[0] != key[0]]:
                del self._sides[stale]
            side = self._sides[key] = KeywordSide(self, ox, candidate_terms, ws)
            if len(self._sides) > SIDES_MAX:
                self._sides.popitem(last=False)
            return side

    def side_stats(self) -> dict:
        """The side map's ``hits``, ``misses``, ``entries`` and the
        ``bytes`` its sides' arrays hold."""
        with self._sides_lock:
            sides = list(self._sides.values())
        return {
            "hits": self.side_hits,
            "misses": self.side_misses,
            "entries": len(sides),
            "bytes": sum(side.nbytes() for side in sides),
        }

    def membership(self, rows_per_location: Sequence) -> "np.ndarray":
        """``L x U`` boolean: which user rows belong to which location."""
        member = np.zeros((len(rows_per_location), self.num_users), dtype=bool)
        for i, rows in enumerate(rows_per_location):
            member[i, rows] = True
        return member

    def _doc_weight_vector(self, doc: Mapping[int, int]):
        """Document term weights as a vector over the user-term columns.

        For query-time documents only (``ox.d`` and its augmentations),
        which a :class:`KeywordSide` build scores and the side keeps;
        objects of ``O`` have their rows in ``obj_weights``.
        """
        w = np.zeros(self.num_terms, dtype=np.float64)
        if doc:
            for tid, wt in self.dataset.relevance.document_weights(doc).items():
                col = self.term_col.get(tid)
                if col is not None:
                    w[col] = wt
        return w

    # ------------------------------------------------------------------
    # Score kernels (vectorized over users)
    # ------------------------------------------------------------------
    def spatial_matrix(self, locations: Sequence[Point]) -> Tuple["np.ndarray", float]:
        """``alpha * SS(l, u)`` of every user at every location, ``L x
        U``, guard-banded and in single precision, and the guard its
        decisions read (:func:`select_guard`).

        The locations are folded as the users are (the data's corner,
        times ``alpha / dmax``) and rounded once to float32; a cell is
        ``max(0, alpha - n)`` of the norm ``n`` of the folded
        differences against ``user_xy32``, so it is off the scalar
        ``alpha * SS`` by at most a quarter of the returned guard, whose
        ``X`` covers these locations' folded coordinates too.  It feeds
        Algorithm 3's decisions only; every step after the two
        coordinate differences writes into their buffer."""
        ds = self.dataset
        xy = (_xy_of(locations) - self.corner) * self.scale
        guard = select_guard(max(self.span, float(np.abs(xy).max(initial=0.0))))
        xy = xy.astype(np.float32)
        ss = _norm_of_differences(
            self.user_x32 - xy[:, 0:1], self.user_y32 - xy[:, 1:2],
            ds.metric.p,
        )
        # alpha * max(0, 1 - dist / dmax), from alpha * dist / dmax.
        np.subtract(ds.alpha, ss, out=ss)
        return np.maximum(ss, 0.0, out=ss), guard

    def group_spatial_bounds(self, locations: Sequence[Point], rect):
        """``SS`` of every location to the nearest and to the farthest
        point of ``rect`` (a super-user MBR): the spatial halves of
        ``UBL(l, us)`` / ``LBL(l, us)`` for all of a query's locations —
        **bitwise** :meth:`BoundCalculator.min_spatial_pr` /
        :meth:`~BoundCalculator.max_spatial_pr`, operation for operation
        as ``LpMetric``'s point-to-rect distances and
        ``Dataset.spatial_score_from_distance``."""
        xy = _xy_of(locations)
        x, y = xy[:, 0], xy[:, 1]
        p, dmax = self.dataset.metric.p, self.dataset.dmax
        near = _pairwise_norm(
            np.maximum(np.maximum(rect.min_x - x, 0.0), x - rect.max_x),
            np.maximum(np.maximum(rect.min_y - y, 0.0), y - rect.max_y),
            p,
        )
        far = _pairwise_norm(
            np.maximum(np.abs(x - rect.min_x), np.abs(x - rect.max_x)),
            np.maximum(np.abs(y - rect.min_y), np.abs(y - rect.max_y)),
            p,
        )
        return (
            np.maximum(0.0, np.minimum(1.0, 1.0 - near / dmax)),
            np.maximum(0.0, np.minimum(1.0, 1.0 - far / dmax)),
        )

    # ------------------------------------------------------------------
    # Decision kernels (guard-banded; results match the oracle)
    # ------------------------------------------------------------------
    def brstknn(
        self,
        ox: STObject,
        location: Point,
        keywords: Iterable[int],
        users: Sequence[User],
        rsk: Mapping[int, float],
    ) -> frozenset:
        """Vectorized :func:`~repro.core.keyword_selection.compute_brstknn`:
        one recount row through a throw-away :class:`SelectionContext`
        over the stored side of ``(ox.d, (), 0)``."""
        ctx = SelectionContext(self, ox)
        rows = self.rows_for(users)
        ctx.admit(rows, rsk)
        ctx.move_to([location])
        won = ctx.recount(self.membership([rows]), [0], [frozenset(keywords)], [0])
        return frozenset(self.user_ids[won[0]].tolist())

    # ------------------------------------------------------------------
    # Candidate-pool scoring (Algorithm 2 refinement)
    # ------------------------------------------------------------------
    def candidate_score_matrix(self, obj_rows, rows=None) -> "np.ndarray":
        """``STS(o, u)`` for selected users x object rows, guard-banded,
        in single precision.

        One float32 BLAS product for the text sums over rows that fold
        in ``(1 - alpha) / Z(u.d)``, and distances between coordinates
        pre-scaled by ``alpha / dmax`` — so a value is off the scalar
        score by at most ``refine_guard / 4`` (:func:`refine_guard`
        derives it) and only ever feeds decisions taken ``refine_guard``
        on the safe side (Algorithm 2's stop and its contender
        selection); returned scores come from :meth:`sts_pairs`.  Every
        step after the two coordinate differences and the product writes
        into one of those buffers.
        """
        alpha = self.dataset.alpha
        user_xy = self.user_xy32 if rows is None else np.take(self.user_xy32, rows, axis=0)
        user_text = (
            self.user_text32 if rows is None else np.take(self.user_text32, rows, axis=0)
        )
        obj_xy = np.take(self.obj_xy32, obj_rows, axis=0)
        score = _norm_of_differences(
            user_xy[:, 0:1] - obj_xy[:, 0], user_xy[:, 1:2] - obj_xy[:, 1],
            self.dataset.metric.p,
        )
        # alpha * max(0, 1 - dist / dmax), from alpha * dist / dmax.
        np.subtract(alpha, score, out=score)
        np.maximum(score, 0.0, out=score)
        weights = np.take(self.obj_weights32, obj_rows, axis=0)
        text = user_text @ weights[:, : self.num_terms].T
        np.minimum(text, 1.0 - alpha, out=text)
        score += text
        return score

    def set_bound_matrix(self, obj_rows, user_rows):
        """``UB(o, S) = alpha * SS_best(o, MBR) + (1 - alpha) * TS(o, S)``
        per keyword set ``S`` held at ``user_rows`` x object row, with
        ``MBR`` the box of those users — guard-banded and in single
        precision, like :meth:`candidate_score_matrix`.  Returns the
        matrix and each user row's row in it.

        Every holder ``u`` of ``S`` among ``user_rows`` has
        ``SS(o, u) <= SS_best(o, MBR)`` and ``TS(o, u) = TS(o, S)`` (the
        text score reads only the set and its ``Z``), so
        ``STS(o, u) <= UB(o, S)``: Example 4's stop per keyword set.
        ``TS`` enters without its ``min(1, .)``, which only lowers it,
        so the spatial half rides in the product as one more column.
        """
        users = np.take(self.user_xy32, user_rows, axis=0)
        obj_xy = np.take(self.obj_xy32, obj_rows, axis=0)
        gap = np.maximum(users.min(axis=0) - obj_xy, obj_xy - users.max(axis=0))
        np.maximum(gap, 0.0, out=gap)
        spatial = _norm_of_differences(gap[:, 0], gap[:, 1], self.dataset.metric.p)
        weights = np.take(self.obj_weights32, obj_rows, axis=0)  # its zero column is ours
        np.subtract(self.dataset.alpha, spatial, out=weights[:, -1])
        np.maximum(weights[:, -1], 0.0, out=weights[:, -1])
        sets, column = np.unique(self.user_set[user_rows], return_inverse=True)
        return np.take(self.set_text32, sets, axis=0) @ weights.T, column

    def sts_pairs(self, obj_rows, user_rows) -> "np.ndarray":
        """``STS(o, u)`` per (object row, user row) pair — **bitwise**
        the float :meth:`Dataset.sts` returns.

        The other kind of kernel (module docstring, "Exactness
        contract"): the spatial half is ``LpMetric._norm`` /
        ``Dataset.spatial_score`` op for op; the text half adds the
        object's weights of the user's terms strictly left to right in
        the order ``TextRelevance.score`` iterates them
        (``user_term_cols``, captured from the same ``set`` at build
        time), where a term the object lacks — or a padding slot —
        adds an exact ``+ 0.0``; ``Z(u.d)`` is the scalar normalizer of
        that set.  No reduction, no matrix product, no ``hypot``.  Every
        gather is a ``take`` (the pair weights one flat ``take`` of the
        ``(pair, term slot)`` cells), which moves the same bits.
        """
        ds = self.dataset
        alpha = ds.alpha
        obj_xy = np.take(self.objects.xy, obj_rows, axis=0)
        user_xy = np.take(self.user_xy, user_rows, axis=0)
        d = _pairwise_norm(
            obj_xy[:, 0] - user_xy[:, 0], obj_xy[:, 1] - user_xy[:, 1], ds.metric.p
        )
        ss = np.maximum(0.0, np.minimum(1.0, 1.0 - d / ds.dmax))
        cells = np.take(self.user_term_cols, user_rows, axis=0)
        cells += (np.asarray(obj_rows) * self.obj_weights.shape[1])[:, None]
        weights = np.take(self.obj_weights, cells)
        total = np.zeros(len(obj_rows))
        for column in weights.T:
            total += column
        ts = _normalized_text(total, self.user_z[user_rows])
        return alpha * ss + (1.0 - alpha) * ts


class PairTable(NamedTuple):
    """The greedy selector's ``HW_{w,u}`` pairs of one keyword side, flat.

    Pair ``p`` is (user row ``row[p]``, candidate ``terms[key[p]]``);
    its most optimistic keyword set ``HW_{w,u}`` is ``hw[doc[p]]`` and
    scores ``ts[p]`` against that user's keywords.  ``terms`` ascends,
    so an ``argmax`` over the key axis breaks ties the way
    ``greedy_max_coverage`` does.  ``held[u, k]`` says whether user row
    ``u`` holds ``terms[k]``; ``pair_of[k, u]`` is that pair's index,
    ``len(row)`` where there is none (row ``-1``: all none).
    ``onehot[p, k]`` is 1 where ``key[p] == k``: a ``float32`` product
    with it counts the pairs of every key exactly (counts stay far below
    ``2**24``).  ``per_user[u]`` is user row ``u``'s pair count.
    """

    terms: List[int]
    held: "np.ndarray"
    row: "np.ndarray"
    key: "np.ndarray"
    onehot: "np.ndarray"
    pair_of: "np.ndarray"
    doc: "np.ndarray"
    hw: List[FrozenSet[int]]
    ts: "np.ndarray"
    per_user: "np.ndarray" = None


def _edges32(theta, guard: float):
    """The band edges ``(θ - guard, θ + guard)`` as float32, rounded
    outward: ``θ`` rounds once to float32 and each edge once more, and
    for ``|θ| < 2`` the two roundings move an edge by at most ``2**-24 +
    2**-23`` — so the guard widened by :data:`EDGE_SLACK` keeps both
    edges outside the band.  A ``θ`` at 2 or beyond (``-2`` or below)
    puts both edges above 1 (below 0), where no ``alpha * SS`` in ``[0,
    alpha]`` lies: every cell then fails (passes) by the comparison
    alone, as its exact value does."""
    theta = theta.astype(np.float32)
    wide = np.float32(guard + EDGE_SLACK)
    return theta - wide, theta + wide


def _banded(scores, runs, exact: Callable[[int, int], bool], where=None):
    """Guard-banded ``scores >= θ``, where rows ``lo:hi`` of ``scores``
    share one threshold vector ``θ``: ``runs`` lists ``(lo, hi, (low,
    high))`` with ``(low, high)`` the band's edges (:func:`_edges32`).

    An entry at or above ``high`` passes and one at or below ``low``
    fails, trusted; an entry strictly between is decided by ``exact(i,
    j)`` — the scalar path.  ``where`` (optional) is ``(rows, mask)``:
    entries of those rows are asked only where the matching ``mask`` row
    is true (the rest fail and never reach ``exact``); other rows are
    asked whole.  The band's entries are found by one ``flatnonzero``:
    a 2-D ``argwhere`` over the whole matrix costs several times more.
    """
    passed = np.empty(scores.shape, dtype=bool)
    band = np.empty(scores.shape, dtype=bool)
    for lo, hi, (low, high) in runs:
        np.greater_equal(scores[lo:hi], high, out=passed[lo:hi])
        np.greater(scores[lo:hi], low, out=band[lo:hi])
    band ^= passed  # passed entries are above ``low`` too
    if where is not None:
        rows, mask = where
        passed[rows] &= mask
        band[rows] &= mask
    cells = np.flatnonzero(band)
    if len(cells):
        rows, cols = np.divmod(cells, scores.shape[1])
        for i, j in zip(rows.tolist(), cols.tolist()):
            passed[i, j] = exact(i, j)
    return passed


def _row_counts(mask, weights=None) -> "np.ndarray":
    """``True`` entries per row of a boolean matrix (an entry of column
    ``j`` counted ``weights[j]`` times: non-negative integers), as one
    floating-point product — exact, every partial sum being an integer
    the float type holds (``float32`` below ``2**24``)."""
    bound = mask.shape[1] * (1 if weights is None else int(weights.max(initial=1)))
    dtype = np.float32 if bound < 2**24 else np.float64
    weights = np.ones(mask.shape[1], dtype=dtype) if weights is None else weights.astype(dtype)
    return (mask.astype(dtype) @ weights).astype(np.intp)


def keyword_side_key(ox: STObject, keywords: Iterable[int], ws: int) -> tuple:
    """What a :class:`KeywordSide` is: ``ox.d`` (in its own order, which
    scalar sums follow), ``W`` and ``ws``.  The one key of the side map
    (:meth:`DatasetArrays.side`) and of the selection's grouping by side
    (``candidate_selection._keyword_side``): equal keys, one side."""
    return (tuple(ox.terms.items()), tuple(keywords), ws)


class KeywordSide:
    """What Algorithm 3 computes from ``ox.d``, ``W`` and ``ws`` alone.

    Only the location and ``RSk(u)`` vary while Algorithm 3 runs, so
    everything that reads neither is a function of the keyword side and
    the dataset: built once per (dataset epoch, keyword side) per
    process and kept in :meth:`DatasetArrays.side`'s bounded map, where
    every :class:`SelectionContext` of that side — any payload, any
    ``k``, any later flush — reads it.  Filled lazily, all by array
    operations:

    * the candidates' optimistic weights (:meth:`_candidates`), read by
      both of the next two;
    * the text half of ``UBL(l, u)`` (:meth:`upper_text`);
    * the :class:`PairTable` of every user's ``HW_{w,u}`` pairs
      (:meth:`pairs`);
    * one full-length ``TS`` vector per distinct keyword set
      (:meth:`text`), any number of new sets scored in one stacked pass,
      at most ``SIDE_TEXT_BYTES`` of them;
    * the location-independent text terms of ``UBL(l, us)`` /
      ``LBL(l, us)`` for the super-user last asked for
      (:meth:`group_texts`; the engine asks for ``dataset.super_user``).

    Fills run under the side's lock.  The weights, ``upper_text`` and
    the pair table never change once filled; the text rows and the index
    naming them are replaced together, as one tuple, so a thread
    selecting on the side never reads a row index against other rows.
    """

    def __init__(
        self,
        arrays: "DatasetArrays",
        ox: STObject,
        candidate_terms: Iterable[int] = (),
        ws: int = 0,
    ) -> None:
        self.arrays = arrays
        # Copies: the side must keep holding what its key says, whatever
        # the caller does with its query afterwards.  (``copy`` builds no
        # new object through ``__init__``: the query's ox is not part of
        # ``O``.)
        self.ox = copy.copy(ox)
        self.ox.terms = dict(ox.terms)
        self.candidate_terms = tuple(candidate_terms)
        self.ws = ws
        self._lock = threading.RLock()
        self._weights: Optional[Tuple[List[int], List[float]]] = None
        self._upper_text = None
        self._pairs: Optional[PairTable] = None
        #: One row per keyword set, and each set's row.
        self._texts: Tuple["np.ndarray", Dict[FrozenSet[int], int]] = (
            np.empty((0, arrays.num_users)), {}
        )
        #: ``(su, (upper, lower))``: the group text terms of ``su``.
        self._group: Optional[tuple] = None

    def _once(self, attr: str, build: Callable[[], object]):
        """``attr``, built by ``build`` on first use, under the lock."""
        value = getattr(self, attr)
        if value is None:
            with self._lock:
                value = getattr(self, attr)
                if value is None:
                    value = build()
                    setattr(self, attr, value)
        return value

    def nbytes(self) -> int:
        """Bytes of the arrays this side holds so far."""
        parts = [self._texts[0], self._upper_text]
        if self._pairs is not None:
            parts.extend(v for v in self._pairs if isinstance(v, np.ndarray))
        return sum(part.nbytes for part in parts if part is not None)

    def text(self, keyword_sets: Sequence[FrozenSet[int]]):
        """``TS(ox.d ∪ keywords, u.d)`` of every user: one row per set.
        Sets not met before on this side are scored in one stacked
        pass; if that would keep more than ``SIDE_TEXT_BYTES``, the
        side's rows start over from ``keyword_sets``."""
        rows, row_of = self._texts
        if any(ks not in row_of for ks in keyword_sets):
            with self._lock:
                rows, row_of = self._texts
                missing = [ks for ks in dict.fromkeys(keyword_sets) if ks not in row_of]
                if missing:
                    a = self.arrays
                    row_bytes = rows.itemsize * a.num_users
                    if (len(rows) + len(missing)) * row_bytes > SIDE_TEXT_BYTES:
                        rows, row_of = rows[:0], {}
                        missing = list(dict.fromkeys(keyword_sets))
                    weights = np.stack([
                        a._doc_weight_vector(augmented_document(self.ox.terms, ks))
                        for ks in missing
                    ])
                    row_of = {**row_of, **{ks: len(rows) + i for i, ks in enumerate(missing)}}
                    rows = np.concatenate(
                        (rows, _normalized_text(weights @ a.user_terms.T, a.user_z))
                    )
                    self._texts = (rows, row_of)
        return rows[[row_of[ks] for ks in keyword_sets]]

    def _candidates(self) -> Tuple[List[int], List[float]]:
        """The candidates some user holds, ascending, and the optimistic
        weight of adding each to ``ox.d`` alone (Lemma 3's per-term
        bound, :func:`~repro.core.bounds.candidate_term_weight`)."""
        def build():
            a = self.arrays
            rel = a.dataset.relevance
            terms = sorted(t for t in set(self.candidate_terms) if t in a.term_col)
            return terms, [candidate_term_weight(rel, self.ox.terms, t) for t in terms]

        return self._once("_weights", build)

    def upper_text(self):
        """Text half of ``UBL(l, u)`` for every user (Lemma 3, per-user):
        ``ox.d``'s weights plus the user's ``ws`` largest candidate gains
        — a candidate already in ``ox.d`` gains only its increase."""
        def build():
            a = self.arrays
            sums = a.user_terms @ a._doc_weight_vector(self.ox.terms)
            if self.ws > 0:
                rel, base = a.dataset.relevance, self.ox.terms
                cols, gains = [], []
                for t, optimistic in zip(*self._candidates()):
                    gain = (
                        optimistic - rel.term_weight(t, base) if t in base
                        else optimistic
                    )
                    if gain > 0.0:
                        cols.append(a.term_col[t])
                        gains.append(gain)
                if cols:
                    per_user = a.user_terms[:, cols] * np.array(gains)
                    if len(cols) > self.ws:
                        per_user = -np.sort(-per_user, axis=1)[:, : self.ws]
                    sums = sums + per_user.sum(axis=1)
            return _normalized_text(sums, a.user_z)

        return self._once("_upper_text", build)

    def pairs(self) -> PairTable:
        """Every user's ``(HW_{w,u}, w)`` entries — what
        ``repro.oracle._hw_entries`` lists user by user — at once.

        Candidates are ranked once by ``(-optimistic weight, term)``
        (the user-independent key ``_hw_entries`` sorts by); a row-wise
        ``cumsum`` over the held ones is each user's rank among their
        useful candidates.  A pair whose ``w`` ranks within ``ws`` takes
        the user's ``ws`` best as its set, any other pair the ``ws - 1``
        best and ``w``: each set is a row of at most ``max(ws, 1)`` key
        indices, sorted, and the distinct rows are the documents.  A
        pair's ``TS`` reads one user's terms of its document's weights.
        """
        return self._once("_pairs", self._build_pairs)

    def _build_pairs(self) -> PairTable:
        a = self.arrays
        terms, weight = self._candidates()
        n = len(terms)
        ranked = sorted(range(n), key=lambda k: (-weight[k], terms[k]))
        held = a.user_terms[:, [a.term_col[t] for t in terms]] > 0.0
        rank = np.zeros(held.shape, dtype=np.intp)
        rank[:, ranked] = np.cumsum(held[:, ranked], axis=1)
        row, key = np.nonzero(held)
        width = max(self.ws, 1)
        # best[u, j]: the user's held candidate of rank j + 1 (n: none).
        best = np.full((a.num_users, width), n, dtype=np.intp)
        top = held & (rank <= width)
        u, k = np.nonzero(top)
        best[u, rank[u, k] - 1] = k
        keys = best[row]
        outside = rank[row, key] > self.ws
        keys[outside, width - 1] = key[outside]
        unique, doc = _distinct_rows(np.sort(keys, axis=1))
        hw = [frozenset(terms[k] for k in keys if k < n) for keys in unique.tolist()]
        pair_of = np.full((n + 1, a.num_users), len(row), dtype=np.intp)
        pair_of[key, row] = np.arange(len(row))
        onehot = np.zeros((len(row), n), dtype=np.float32)
        onehot[np.arange(len(row)), key] = 1.0
        # Document weights over the user-term columns, plus the zero
        # column ``user_term_cols`` pads with.
        weights = np.zeros((len(hw), a.num_terms + 1))
        for d, hw_set in enumerate(hw):
            weights[d, :-1] = a._doc_weight_vector(augmented_document(self.ox.terms, hw_set))
        sums = weights[doc[:, None], a.user_term_cols[row]].sum(axis=1)
        return PairTable(
            terms, held, row, key, onehot, pair_of, doc, hw,
            ts=_normalized_text(sums, a.user_z[row]), per_user=held.sum(axis=1),
        )

    def group_texts(self, su) -> Tuple[float, float]:
        """The text terms of ``UBL(l, us)`` and ``LBL(l, us)`` for the
        super-user ``su``: the same at every location, so computed once
        per side while ``su`` is the super-user asked for —
        :class:`BoundCalculator`'s ``group_upper_text`` /
        ``group_lower_text``."""
        entry = self._group
        if entry is None or entry[0] is not su:
            bounds = BoundCalculator(self.arrays.dataset)
            entry = self._group = (su, (
                bounds.group_upper_text(self.ox, self.candidate_terms, self.ws, su),
                bounds.group_lower_text(self.ox, su),
            ))
        return entry[1]


class SelectionContext:
    """Algorithm 3's selection for one keyword side, location-major.

    ``STS = alpha * SS + (1 - alpha) * TS`` and Algorithm 3 walks the
    candidate locations with ``ox.d``, ``W``, ``ws`` and every ``RSk(u)``
    fixed, so only the spatial term differs between locations: the
    per-location arrays of the selection are rows of one matrix — and
    the locations may as well belong to several queries, as long as
    they share ``(ox.d, W, ws)``, whatever their ``k``
    (:class:`~repro.core.candidate_selection.SelectionBatch` stacks the
    queries of one ``select`` payload so): ``k`` only decides which
    ``RSk(u)`` row a location reads.

    Every decision is therefore one compare of ``alpha * SS(l, u)``
    against a location-independent threshold ``θ = RSk(u) - (1 - alpha)
    * TS(u)`` — ``STS >= RSk(u)`` with the text half moved to the right.

    **Once per (dataset epoch, keyword side) per process**: the
    :class:`KeywordSide` — candidate weights, the text half of ``UBL(l,
    u)``, the :class:`PairTable`, one ``TS`` row per keyword set and the
    group text terms — which the context takes from
    :meth:`DatasetArrays.side`'s map and reads as :attr:`side`.

    **Once per context**, filled lazily, all by array operations:

    * one threshold row per distinct
      :class:`~repro.core.thresholds.Thresholds` admitted
      (:meth:`admit`: ``RSk(u)`` by user row, the vector's own column),
      and per current location the row it reads (:meth:`move_to`);
    * per threshold row, the ``θ`` of ``UBL``'s decisions (per user)
      and ``LUW``'s (per pair) as the two float32 edges of its guard
      band, per guard (:meth:`_bar`); a recount's, per user and keyword
      set, live for its call only.

    **Once per pass of locations** (:meth:`pin`): ``alpha * SS`` as a
    float32 ``L x U`` matrix, one row per location, and the
    :func:`select_guard` that covers it
    (:meth:`DatasetArrays.spatial_matrix`), which every decision then
    reads in place — :meth:`shortlist` (``L x U``), the greedy
    selector's :meth:`luw` (``L x P`` over the pairs) and :meth:`cover`
    (greedy max-coverage for all ``L`` at once), and :meth:`recount`
    (one row per ``(location, keyword set)``), which scores the greedy
    prefixes and Algorithm 4's combinations alike.  Every decision goes
    through :func:`_banded`, float32 cells against float32 band edges;
    an entry inside the band — and only such an entry, of a user that
    belongs to the location — is decided by the scalar
    ``dataset.sts_parts`` / ``BoundCalculator.location_upper_user`` call
    the oracle makes, in float64.
    """

    def __init__(
        self,
        arrays: DatasetArrays,
        ox: STObject,
        candidate_terms: Sequence[int] = (),
        ws: int = 0,
    ) -> None:
        self.arrays = arrays
        self.side = arrays.side(ox, candidate_terms, ws)
        self.ox = self.side.ox
        self.candidate_terms = self.side.candidate_terms
        self.ws = ws
        #: Threshold rows: row ``r`` is the ``values`` of the ``r``-th
        #: distinct :class:`Thresholds` admitted (identity-keyed, held).
        self._rows: List[np.ndarray] = []
        self._row_of: Dict[int, Tuple[int, Thresholds]] = {}
        #: ``_rows`` as one matrix, restacked when a row is admitted.
        self._stacked = None
        #: What the current locations read (:meth:`move_to`): the one
        #: row ``_row`` they share (``_loc_rows`` None), else each one's.
        self.rsk = None
        self._row = -1
        self._loc_rows = None
        self._bars: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        #: The pinned locations (held, so their ids stay theirs), the
        #: row of each, by ``id`` (built on the first look-up), and their
        #: matrix and guard.
        self._pinned_locations: Sequence[Point] = ()
        self._pinned: Optional[Dict[int, int]] = None
        self._pinned_ss = None
        self._pinned_guard = 0.0
        #: ``alpha * SS`` rows the current locations read: ``_ss`` itself
        #: (``_ss_rows`` None) or its rows ``_ss_rows``; ``guard`` is the
        #: band their decisions read (:func:`select_guard`).
        self._ss = None
        self._ss_rows = None
        self.guard = 0.0
        #: ``(member, rows)``: the rows :meth:`_within` read for ``member``.
        self._masked = None

    # -- once per context ----------------------------------------------
    def admit(self, rows, rsk: Thresholds) -> int:
        """The threshold row holding ``rsk``, which must be laid out by
        user row — its ``ids`` are checked against this dataset's once
        per threshold object, so a vector of some other user order
        raises instead of mis-reading — and hold a value for every user
        at ``rows``.  (A plain mapping by user id is laid out first, as
        a row of its own, for callers off the refine path: tests,
        scalar-oracle helpers.)"""
        if not isinstance(rsk, Thresholds):
            rsk = Thresholds.over(self.arrays.user_ids, rsk)
        entry = self._row_of.get(id(rsk))
        if entry is None:
            ids = self.arrays.user_ids
            if rsk.ids is not ids and not np.array_equal(rsk.ids, ids):
                raise ValueError(
                    "thresholds are not laid out by this dataset's user rows"
                )
            entry = self._row_of[id(rsk)] = (len(self._rows), rsk)
            self._rows.append(rsk.values)
        values = rsk.values[rows]
        if np.isnan(values).any():
            missing = self.arrays.user_ids[rows[np.isnan(values)]]
            raise KeyError(f"no RSk(u) for users {missing[:5].tolist()}")
        return entry[0]

    def _bar(self, kind, row: int):
        """The guard band's float32 edges ``(θ - guard, θ + guard)``,
        rounded outward (:func:`_edges32`), of one decision against
        threshold row ``row`` under the current locations' ``guard``:
        ``θ = RSk(u) - (1 - alpha) * TS`` with the text half of ``kind``,
        ``"ubl"`` (per user, :meth:`KeywordSide.upper_text`) or
        ``"pairs"`` (per pair, its ``HW_{w,u}``).  Kept per guard; a
        recount's per-set edges live for its call (:meth:`recount`)."""
        cache_key = (kind, row, self.guard)
        edges = self._bars.get(cache_key)
        if edges is None:
            rest = 1.0 - self.arrays.dataset.alpha
            rsk = self._rows[row]
            if kind == "ubl":
                theta = rsk - rest * self.side.upper_text()
            else:
                t = self.side.pairs()
                theta = rsk[t.row] - rest * t.ts
            edges = self._bars[cache_key] = _edges32(theta, self.guard)
        return edges

    # -- once per pass of locations ------------------------------------
    def pin(self, locations: Sequence[Point]) -> None:
        """Compute ``alpha * SS(l, u)`` of ``locations`` now and keep it,
        with its guard (:meth:`DatasetArrays.spatial_matrix`): until the
        next pin, :meth:`move_to` reads their rows in place instead of
        recomputing them (every row is its location's alone) when it is
        handed these very ``Point`` objects — the matrix whole, without a
        look-up, when handed the pinned sequence itself.  ``pin(())``
        releases the matrix."""
        self._pinned_locations = locations
        self._pinned = None
        self._pinned_ss, self._pinned_guard = (
            self.arrays.spatial_matrix(locations) if locations else (None, 0.0)
        )

    def move_to(self, locations: Sequence[Point], at=None) -> None:
        """Make ``locations`` the subject of the decisions that follow:
        the one computation a location costs, ``alpha * SS(l, u)`` (rows
        of the pinned matrix where every location is a pinned one), and the
        threshold row each reads — ``at``, a row :meth:`admit` returned,
        for all of them or one per location (``None``: the row admitted
        last).  Locations that all read one row keep it as ``rsk``, the
        one-query case."""
        self.locations = locations
        per_location = None
        if at is None:
            at = len(self._rows) - 1  # -1: nothing admitted, no thresholds
        elif not isinstance(at, int):
            per_location = np.asarray(at, dtype=np.intp)
            at = int(per_location[0]) if len(per_location) else -1
            if (per_location == at).all():
                per_location = None
        self._loc_rows = per_location
        self._row = at
        self.rsk = self._rows[at] if per_location is None and at >= 0 else None
        self._ss_rows = None
        self._masked = None
        if self._pinned_ss is not None:
            self._ss, self.guard = self._pinned_ss, self._pinned_guard
            if locations is self._pinned_locations:
                return
            if self._pinned is None:
                self._pinned = {id(loc): i for i, loc in enumerate(self._pinned_locations)}
            where = [self._pinned.get(id(loc), -1) for loc in locations]
            if -1 not in where:
                if where != list(range(len(self._pinned_ss))):
                    self._ss_rows = np.array(where)
                return
        self._ss, self.guard = self.arrays.spatial_matrix(locations)

    def spatial(self, index=None):
        """``alpha * SS(l, u)`` of every user at the current locations
        (rows ``index`` of them): a copy unless read whole in pin order."""
        rows = self._ss_rows
        if index is None:
            return self._ss if rows is None else self._ss[rows]
        return self._ss[index if rows is None else rows[np.asarray(index)]]

    def _within(self, member):
        """:meth:`spatial` with NaN wherever ``member`` (``L x U``) leaves
        the user out of the location's ``LU_l``: a NaN fails every
        comparison, so such an entry neither passes nor reaches the
        scalar re-check.  Built bitwise (``QNAN32`` or-ed into the
        float32 bits makes any value a NaN; a masked select costs
        several times more) and kept for ``member`` until the next
        :meth:`move_to`: :meth:`luw` and every :meth:`recount` of a
        block gather from one copy."""
        masked = self._masked
        if masked is None or masked[0] is not member:
            out = np.invert(member).astype(np.int32)
            out *= QNAN32
            out |= self.spatial().view(np.int32)
            masked = self._masked = (member, out.view(np.float32))
        return masked[1]

    def _threshold(self, l: int, row: int) -> float:
        """``RSk(u)`` of user row ``row`` as location ``l`` reads it."""
        if self._loc_rows is None:
            return self.rsk[row]
        return self._rows[self._loc_rows[l]][row]

    def _runs(self, n: int, index=None):
        """``(lo, hi, threshold row)`` runs over ``n`` decision rows, row
        ``i`` being current location ``index[i]`` (``index`` None: row
        ``i`` is location ``i``): locations that share a threshold row
        compare with it as one broadcast vector, run by run."""
        if self._loc_rows is None:
            return [(0, n, self._row)]
        rows = self._loc_rows if index is None else self._loc_rows[index]
        cuts = (np.flatnonzero(rows[1:] != rows[:-1]) + 1).tolist()
        return [(lo, hi, int(rows[lo])) for lo, hi in zip([0, *cuts], [*cuts, n])]

    def shortlist(self, rows):
        """``UBL(l, u) >= RSk(u)`` of every current location and user, ``L
        x U``, scalar-exact; users outside ``rows`` are never asked."""
        ds = self.arrays.dataset
        ss = self.spatial()

        def exact(l: int, u: int) -> bool:
            ub = BoundCalculator(ds).location_upper_user(
                self.locations[l], self.ox, self.candidate_terms, self.ws, ds.users[u],
            )
            return ub >= self._threshold(l, u)

        cols = np.zeros((1, self.arrays.num_users), dtype=bool)
        cols[0, rows] = True
        where = None if cols.all() else (np.arange(len(ss)), cols)
        runs = [(lo, hi, self._bar("ubl", r)) for lo, hi, r in self._runs(len(ss))]
        return _banded(ss, runs, exact, where)

    def _wins(self, l: int, keywords: FrozenSet[int], row: int) -> bool:
        """The scalar decision behind every banded ``STS >= RSk(u)``."""
        ds = self.arrays.dataset
        doc = augmented_document(self.ox.terms, keywords)
        return ds.sts_parts(self.locations[l], doc, ds.users[row]) >= self._threshold(l, row)

    def luw(self, member):
        """Section 6.2.1's ``LUW_w`` pass over the pair table, ``L x P``:
        entry ``(l, p)`` says user ``row[p]`` — one of location ``l``'s
        users by ``member`` (``L x U``) — reaches ``RSk(u)`` there under
        ``HW_{w,u}``, i.e. is in ``LUW_w`` for ``w = terms[key[p]]``."""
        t = self.side.pairs()
        # ``take``, not ``[:, t.row]``: indexing columns lays the result
        # out column-major, and every decision after it reads rows.
        ss = np.take(self._within(member), t.row, axis=1)

        def exact(l: int, p: int) -> bool:
            return self._wins(l, t.hw[t.doc[p]], t.row[p])

        runs = [(lo, hi, self._bar("pairs", r)) for lo, hi, r in self._runs(len(ss))]
        return _banded(ss, runs, exact)

    def cover(self, passed):
        """Greedy max-coverage over the ``LUW_w`` sets of :meth:`luw`,
        every location at once: ``ws`` rounds of "count each key's
        not-yet-covered users, take the ``argmax``" — ties to the lowest
        term id, a location stops when no key adds a user, exactly as
        ``greedy_max_coverage``.  A key's count is its users' pairs, one
        each, so the pick's count is what it adds to ``|covered|``; a
        pick covers its users' pairs of every key (``pair_of`` of the
        picked key, read at each pair's user), one gather of ``passed``'s
        columns per distinct pick.  Returns the chosen keys (``L x ws``
        indices into ``terms``, ``-1`` = stopped) and ``|covered|``."""
        t = self.side.pairs()
        none = len(t.row)  # pair_of's "no pair"

        def covered(rows, key):
            # The pairs whose user the pick ``key`` covers at ``rows``
            # (row-major, as ``passed``: see :meth:`luw`).
            cols = t.pair_of[key][t.row]
            gone = np.take(rows, cols, axis=1, mode="clip")
            gone &= cols < none
            return gone

        lanes = np.arange(len(passed))
        chosen = np.full((len(passed), max(self.ws, 0)), -1, dtype=np.intp)
        coverage = np.zeros(len(passed), dtype=np.intp)
        fresh = passed
        for step in range(self.ws if len(t.terms) else 0):
            gains = fresh.astype(np.float32) @ t.onehot
            pick = gains.argmax(axis=1)
            gain = gains[lanes, pick].astype(np.intp)
            pick[gain == 0] = -1
            if (pick < 0).all():
                break
            chosen[:, step] = pick
            coverage += gain
            if step + 1 < self.ws:
                keys = np.unique(pick).tolist()
                if len(keys) == 1:
                    gone = covered(passed, keys[0])
                else:
                    gone = np.empty(passed.shape, dtype=bool)
                    for key in keys:
                        picked = np.flatnonzero(pick == key)
                        gone[picked] = covered(passed[picked], key)
                fresh = np.greater(fresh, gone, out=gone)  # fresh and not gone
        return chosen, coverage

    def recount(self, member, index, keyword_sets: Sequence[FrozenSet[int]], which):
        """Actual BRSTkNN rows: entry ``(i, u)`` says user row ``u`` — one
        of location ``index[i]``'s users by ``member`` — has ``STS >=
        RSk(u)`` there with ``keyword_sets[which[i]]`` added to ``ox.d``.
        Rows that share their set and threshold row compare as one run,
        so callers list those together."""
        index = np.asarray(index, dtype=np.intp)
        which = np.asarray(which, dtype=np.intp)
        ss = np.take(self._within(member), index, axis=0)

        def exact(i: int, row: int) -> bool:
            return self._wins(int(index[i]), keyword_sets[which[i]], row)

        spans, rows, sets = [], [], []
        for lo, hi, r in self._runs(len(index), index):
            cuts = (np.flatnonzero(which[lo + 1 : hi] != which[lo : hi - 1]) + lo + 1).tolist()
            for a, b in zip([lo, *cuts], [*cuts, hi]):
                spans.append((a, b))
                rows.append(r)
                sets.append(which[a])
        # Every run's θ in one expression, kept for this call only: a
        # recount of Algorithm 4's combinations meets thousands of sets.
        texts = self.side.text(keyword_sets)  # every new set in one stacked pass
        if self._stacked is None or len(self._stacked) != len(self._rows):
            self._stacked = np.stack(self._rows)
        theta = self._stacked[rows] - (1.0 - self.arrays.dataset.alpha) * texts[sets]
        low, high = _edges32(theta, self.guard)
        runs = [(a, b, (low[i], high[i])) for i, (a, b) in enumerate(spans)]
        return _banded(ss, runs, exact)


# ----------------------------------------------------------------------
# MIR-tree frontier kernels (Algorithm 1's wave-based traversal)
# ----------------------------------------------------------------------

class TreeArrays:
    """Flattened (M)IR-tree entry bounds and term summaries.

    The joint traversal (Algorithm 1) spends its time computing
    ``LB(E, us)`` / ``UB(E, us)`` for every entry of every node it
    expands — in the scalar path that means rebuilding per-entry weight
    dicts from the node's inverted file and summing them one Python
    float at a time, per traversal.  ``TreeArrays`` flattens the tree
    **once per tree**: every entry (a child pointer of an internal node
    or an object of a leaf) gets a row in dense MBR arrays and a slice
    of one CSR holding its ``(term, max weight, min weight)`` summary in
    ascending term order; every node gets a CSR of its inverted-list
    sizes for exact I/O charging.  A traversal then derives the bounds
    of *all* entries with a handful of array passes
    (:meth:`frontier_bounds`; the dataset-wide super-user's is kept per
    dataset epoch, :meth:`wave`) and the frontier loop does O(1) lookups
    and bulk pruning instead of per-entry dict arithmetic.  The
    flattening itself is gathers from the tree's columnar build
    (``IRTree.shape`` / ``IRTree.summaries``): no node object, inverted
    file or posting is visited.

    Exactness contract
    ------------------
    Stronger than the guard-banded kernels above: the frontier kernels
    are **bitwise identical** to the scalar
    :class:`~repro.core.bounds.BoundCalculator`.  Both sides sum term
    weights in ascending term order with strictly left-to-right
    association (the column-accumulation loop in
    :func:`_masked_segment_sums`; ``np.add.reduceat`` would re-associate
    long segments), spatial terms use only correctly-rounded IEEE ops
    written exactly as the scalar metric writes them, and the combining
    expressions mirror the scalar ones operation for operation.
    Identical bound values make
    every pruning decision, pool admission, and I/O charge of the numpy
    traversal identical to the oracle's (its heap holds only the
    entries that can still change ``LO``: see
    :func:`repro.core.joint_topk.joint_traversal`) — the property tests
    in ``tests/core/test_traversal_kernels.py`` assert pool-level
    equality (LO/RO, ``rsk_group``, per-phase stats) on randomized
    MIR-trees.
    """

    #: Process-wide construction counter (see DatasetArrays.build_count).
    build_count = 0

    def __init__(self, tree) -> None:
        TreeArrays.build_count += 1
        self.tree = tree
        self.index_name = tree.index_name
        shape, summaries, table = tree.shape, tree.summaries, tree.table

        # Nodes in depth-first pre-order (children in order); a node's
        # entries form a contiguous row span in its own child/entry
        # order (the order the scalar traversal pushes them, which
        # tie-breaks the heap).  Everything below gathers from the
        # tree's level arrays; nodes are numbered globally level by
        # level, bottom-up.
        level_nodes = [len(pages) for pages in shape.page]
        node_offset = np.concatenate(([0], np.cumsum(level_nodes)))
        by_pre = np.empty(shape.num_nodes, dtype=np.int64)
        for level, pre in enumerate(shape.pre):
            by_pre[pre] = node_offset[level] + np.arange(len(pre))
        node_level = np.repeat(np.arange(shape.height), level_nodes)[by_pre]

        # Entries: every node's slots, in pre-order.
        slot_offset = np.concatenate(([0], np.cumsum([len(m) for m in shape.members])))
        slot_ptr = np.concatenate([[0]] + [
            shape.ptr[level][1:] + slot_offset[level] for level in range(shape.height)
        ])
        slots = segment_rows(slot_ptr, by_pre)
        sizes = np.diff(slot_ptr)[by_pre]
        member = np.concatenate(shape.members)[slots]
        slot_level = np.searchsorted(slot_offset, slots, side="right") - 1
        is_object = slot_level == 0

        # One combined CSR of summary rows: the objects' weights (min ==
        # max, ascending terms within an object), then each level's node
        # summaries.  An entry reads the row of its object or its child.
        object_ptr, object_term, object_weight = tree.ascending_weights()
        parts = [(object_ptr, object_term, object_weight, object_weight)] + [
            (s.ptr, s.term, s.maxw, s.minw) for s in summaries
        ]
        row_offset = np.concatenate(([0], np.cumsum([len(p[0]) - 1 for p in parts])))
        at = np.concatenate(([0], np.cumsum([p[0][-1] for p in parts])))
        src_ptr = np.concatenate([[0]] + [p[0][1:] + at[i] for i, p in enumerate(parts)])
        src_term, src_max, src_min = (
            np.concatenate([p[k] for p in parts]) for k in (1, 2, 3)
        )
        del parts
        src_row = row_offset[slot_level] + member
        entries = segment_rows(src_ptr, src_row)

        rect = np.empty((len(slots), 4))
        child = np.full(len(slots), -1, dtype=np.int64)
        rows = member[is_object]
        rect[is_object] = np.column_stack(
            (table.x[rows], table.y[rows], table.x[rows], table.y[rows])
        )
        for level in range(1, shape.height):
            here = slot_level == level
            rect[here] = shape.rects[level - 1][member[here]]
            child[here] = shape.pre[level - 1][member[here]]
        object_id = np.full(len(slots), -1, dtype=np.int64)
        object_id[is_object] = table.ids[rows]
        object_row = np.full(len(slots), -1, dtype=np.intp)
        object_row[is_object] = rows

        self.root_index = 0
        node_end = np.cumsum(sizes)
        # Plain-python twins of the per-node / per-entry structures the
        # frontier loop reads element-wise, where list indexing is
        # several times faster than numpy scalar indexing.
        self.node_start = (node_end - sizes).tolist()
        self.node_end = node_end.tolist()
        self.node_is_leaf = (node_level == 0).tolist()
        self.ent_child = child.tolist()
        #: Page id of every node, by node index.
        self.node_page = np.concatenate(shape.page)[by_pre].tolist()
        self.ent_rect = rect
        #: What a candidate pool names its objects by: every replica of
        #: the object set shares the ids, not this tree's entry numbering.
        self.ent_object_id = object_id
        #: Each leaf entry's row in ``tree.table`` (-1 for a child
        #: pointer): what a walk hands its pool beside the ids, read as
        #: the pool's object rows wherever the refine's object set is
        #: this table (:meth:`CandidatePool.object_rows
        #: <repro.core.joint_topk.CandidatePool.object_rows>`).
        self.ent_object_row = object_row
        self.ent_indptr_np = np.concatenate(
            ([0], np.cumsum(np.diff(src_ptr)[src_row]))
        ).astype(np.intp)
        self.ent_term_np = src_term[entries]
        self.ent_maxw_np = src_max[entries]
        self.ent_minw_np = src_min[entries]
        self.ent_indptr = self.ent_indptr_np.tolist()

        # Every node's own posting-list sizes (its summary's counts), for
        # exact I/O charging.
        nodes_ptr = np.concatenate([[0]] + [
            s.ptr[1:] + at[level + 1] - at[1] for level, s in enumerate(summaries)
        ])
        own = segment_rows(nodes_ptr, by_pre)
        self.nio_indptr = np.concatenate(
            ([0], np.cumsum(np.diff(nodes_ptr)[by_pre]))
        ).astype(np.intp)
        counts = np.concatenate([s.count for s in summaries])[own]
        self.nio_term = src_term[at[1] + own]
        self.nio_bytes = TERM_HEADER_BYTES + counts * tree.posting_entry_bytes
        self.max_term = int(self.ent_term_np.max()) if len(self.ent_term_np) else -1
        self.num_entries = len(slots)
        #: The dataset-wide super-user's bounds, kept per (dataset, epoch,
        #: cold-store page size); see :meth:`wave`.
        self._wave = None
        self._wave_lock = threading.Lock()

    def payload(self, entry: int) -> STObject:
        """The object behind a leaf entry."""
        return self.tree.object_by_id(int(self.ent_object_id[entry]))

    def __reduce__(self):
        raise TypeError(
            "TreeArrays must never be pickled: build once per engine and let "
            "forked workers inherit it via copy-on-write (tree_arrays_for)."
        )

    # ------------------------------------------------------------------
    def _term_mask(self, terms) -> "np.ndarray":
        """Boolean lookup over term ids; index -1 (padding) stays False."""
        mask = np.zeros(self.max_term + 2, dtype=bool)
        for t in terms:
            if 0 <= t <= self.max_term:
                mask[t] = True
        return mask

    def wave(self, dataset: "Dataset", store=None) -> "FrontierBounds":
        """:meth:`frontier_bounds` of ``dataset``'s own super-user, kept.

        Its inputs are this tree, the dataset, its epoch and — for the
        per-node block charges — the page size of a cold ``store``: no
        query input reaches it.  So it is built once per (dataset,
        epoch, cold-store page size) — by ``prewarm_kernels`` or the
        first walk — and read by every later walk; a new key (an epoch
        bump, another dataset or page size) replaces it.  A walk still
        charges every node visit and inverted-list block it makes.
        """
        page = (
            store.counter.page_size
            if store is not None and store.buffer is None else None
        )
        key = (dataset.epoch, page)
        with self._wave_lock:
            kept = self._wave
            if kept is not None and kept[0] is dataset and kept[1] == key:
                return kept[2]
            bounds = self.frontier_bounds(dataset, dataset.super_user, store=store)
            self._wave = (dataset, key, bounds)
            return bounds

    def frontier_bounds(self, dataset: "Dataset", su, store=None) -> "FrontierBounds":
        """Evaluate ``LB``/``UB`` of every tree entry against ``su``.

        One vectorized wave over the flattened tree replaces the scalar
        per-entry bound computations of an entire traversal.  Also
        precomputes, per node, the inverted-list blocks a visit charges
        (exact ``ceil`` arithmetic of ``IOCounter.load_bytes``) so the
        traversal can charge I/O without touching the inverted files.
        Built fresh on every call; :meth:`wave` keeps the dataset-wide
        super-user's.
        """
        alpha = dataset.alpha
        mbr = su.mbr
        rect = self.ent_rect
        p = dataset.metric.p

        # Spatial sides of Lemma 2, operation for operation as the
        # scalar LpMetric rect-to-rect distances.
        dx_min = np.maximum(np.maximum(rect[:, 0] - mbr.max_x, 0.0), mbr.min_x - rect[:, 2])
        dy_min = np.maximum(np.maximum(rect[:, 1] - mbr.max_y, 0.0), mbr.min_y - rect[:, 3])
        dx_max = np.maximum(np.abs(rect[:, 2] - mbr.min_x), np.abs(mbr.max_x - rect[:, 0]))
        dy_max = np.maximum(np.abs(rect[:, 3] - mbr.min_y), np.abs(mbr.max_y - rect[:, 1]))
        dmax = dataset.dmax
        ss_best = np.maximum(0.0, np.minimum(1.0, 1.0 - _pairwise_norm(dx_min, dy_min, p) / dmax))
        ss_worst = np.maximum(0.0, np.minimum(1.0, 1.0 - _pairwise_norm(dx_max, dy_max, p) / dmax))

        # Text sides: MaxTS over the union, MinTS over the intersection,
        # summed in the scalar association order (ascending term ids,
        # strictly left to right).
        union_mask = self._term_mask(su.union_terms)
        in_union = union_mask[self.ent_term_np]
        if su.min_normalizer > 0.0:
            sums = _masked_segment_sums(self.ent_maxw_np, in_union, self.ent_indptr_np)
            maxts = np.minimum(1.0, sums / su.min_normalizer)
        else:
            maxts = np.zeros(self.num_entries)
        if su.max_normalizer > 0.0 and su.intersection_terms:
            in_inter = self._term_mask(su.intersection_terms)[self.ent_term_np]
            sums = _masked_segment_sums(self.ent_minw_np, in_inter, self.ent_indptr_np)
            mints = np.minimum(1.0, sums / su.max_normalizer)
        else:
            mints = np.zeros(self.num_entries)

        lb = alpha * ss_worst + (1.0 - alpha) * mints
        ub = alpha * ss_best + (1.0 - alpha) * maxts

        node_blocks = None
        if store is not None and store.buffer is None and len(self.nio_term):
            page = np.int64(store.counter.page_size)
            masked = np.where(
                union_mask[self.nio_term],
                (self.nio_bytes + page - 1) // page,
                np.int64(0),
            )
            csum = np.concatenate(([0], np.cumsum(masked)))
            node_blocks = csum[self.nio_indptr[1:]] - csum[self.nio_indptr[:-1]]
        return FrontierBounds(self, lb, ub, in_union, node_blocks)


class FrontierBounds:
    """One super-user's bounds over :class:`TreeArrays` + I/O charges.

    ``lb`` / ``ub`` are arrays by entry index — the candidate pool
    gathers its ``lower`` / ``upper`` columns from them, the walk's
    array passes read them whole.  The frontier loop reads their list
    twins ``lb_list`` / ``ub_list`` / ``keys`` (``-lb``, the priority
    queue's keys) element-wise, and per expanded leaf ``leaf_max_lb``
    (every node's largest entry ``LB``, ``inf`` for an empty one) and
    ``ub_sorted`` (``ub`` ascending within every node's entry span).
    ``RO``'s final order reads ``ub_rank`` (each entry's dense rank by
    descending ``ub``: equal ``ub``, equal rank — ``uint16`` while the
    ranks fit, so its stable sort is a radix sort) and ``ub_tied``
    (whether another entry has the same ``ub``).
    ``node_blocks`` is a plain list (read one node at a time).  Nothing
    here changes after the build, so one instance serves any number of
    walks (:meth:`TreeArrays.wave`).
    """

    __slots__ = (
        "arrays", "lb", "ub", "in_union", "node_blocks",
        "lb_list", "ub_list", "keys", "leaf_max_lb", "ub_sorted", "ub_rank",
        "ub_tied",
    )

    #: Process-wide construction counter (see DatasetArrays.build_count).
    build_count = 0

    def __init__(self, arrays: TreeArrays, lb, ub, in_union, node_blocks) -> None:
        FrontierBounds.build_count += 1
        self.arrays = arrays
        self.lb = lb
        self.ub = ub
        self.in_union = in_union
        self.node_blocks = node_blocks.tolist() if node_blocks is not None else None
        self.lb_list = lb.tolist()
        self.ub_list = ub.tolist()
        self.keys = (-lb).tolist()
        starts = np.array(arrays.node_start, dtype=np.intp)
        sizes = np.array(arrays.node_end, dtype=np.intp) - starts
        held = sizes > 0
        leaf_max = np.full(len(starts), np.inf)
        if held.any():
            leaf_max[held] = np.maximum.reduceat(lb, starts[held])
        self.leaf_max_lb = leaf_max.tolist()
        # Ascending within each node's span: by ub, then (stable) by node.
        order = np.argsort(ub)
        node = np.repeat(np.arange(len(starts)), sizes)[order]
        self.ub_sorted = ub[order[np.argsort(node, kind="stable")]].tolist()
        distinct, rank, counts = np.unique(-ub, return_inverse=True, return_counts=True)
        self.ub_rank = rank.astype(np.uint16 if len(distinct) <= 1 << 16 else np.intp)
        self.ub_tied = counts[rank] > 1

    def weights_of(self, entry: int) -> Dict[int, Tuple[float, float]]:
        """The entry's ``{term: (maxw, minw)}`` restricted to the union —
        exactly what ``InvertedFile.entry_weights`` hands the scalar path.
        Built on demand, for the object views of a pool
        (:class:`repro.core.joint_topk.CandidatePool`); the walk itself
        never reads it."""
        ta = self.arrays
        start, end = ta.ent_indptr[entry], ta.ent_indptr[entry + 1]
        return {
            term: (maxw, minw)
            for term, maxw, minw, held in zip(
                ta.ent_term_np[start:end].tolist(), ta.ent_maxw_np[start:end].tolist(),
                ta.ent_minw_np[start:end].tolist(), self.in_union[start:end].tolist(),
            )
            if held
        }


def _masked_segment_sums(values, mask, indptr):
    """Per-segment sums of ``values[mask]`` with scalar-exact association.

    Each CSR segment's kept values are summed **strictly left to right**
    (ascending term order) into a ``0.0`` accumulator, reproducing the
    scalar ``total += w`` loop bit for bit — ``np.add.reduceat``
    re-associates segments longer than a few elements and is *not*
    usable here.  The kept positions come from one ``flatnonzero`` and
    each segment's share of them from one ``searchsorted`` of ``indptr``;
    the segments are then ordered by kept count, longest first, so the
    segments that still have a ``j``-th kept value are a prefix of that
    order and column ``j`` is one slice-wise add.  Every kept value is
    read once, no addend is padding, and the working memory is O(nnz): no
    ``segments x longest`` temporary.
    """
    kept = np.flatnonzero(mask)
    bounds = np.searchsorted(kept, indptr)
    counts = bounds[1:] - bounds[:-1]
    order = np.argsort(-counts)
    ranked = counts[order]
    pos = bounds[:-1][order]
    totals = np.zeros(len(counts))
    longest = int(ranked[0]) if len(ranked) else 0
    # active[j]: how many segments hold more than j kept values.
    active = np.searchsorted(-ranked, -np.arange(longest), side="left").tolist()
    vals = values[kept]
    for width in active:
        totals[:width] += vals[pos[:width]]
        pos[:width] += 1
    out = np.empty(len(counts))
    out[order] = totals
    return out


def arrays_for(dataset: "Dataset") -> DatasetArrays:
    """The cached :class:`DatasetArrays` of ``dataset`` (built lazily).

    The arrays hang off the dataset itself, so their lifetime is the
    dataset's own: clones from ``with_alpha``/``with_users`` build
    fresh arrays, and a collected dataset takes its arrays with it (the
    dataset<->arrays reference cycle is ordinary gc fodder).
    """
    arrays = getattr(dataset, "_kernel_arrays", None)
    if arrays is None:
        arrays = DatasetArrays(dataset)
        dataset._kernel_arrays = arrays  # type: ignore[attr-defined]
    return arrays


def object_columns_for(dataset: "Dataset") -> ObjectColumns:
    """The :class:`ObjectColumns` of ``dataset``'s object set.

    Built on first use and kept in ``Dataset._per_object_set``, which
    ``with_alpha`` / ``with_users`` clones share by reference.
    """
    shared = dataset._per_object_set
    columns = shared.get("columns")
    if columns is None:
        columns = shared["columns"] = ObjectColumns(dataset)
    return columns


def tree_arrays_for(tree) -> TreeArrays:
    """The cached :class:`TreeArrays` of ``tree`` (built lazily).

    Like :func:`arrays_for`, the arrays hang off the tree itself so they
    are built exactly once per engine (the serving layer builds them
    eagerly at startup, before the worker pool forks).
    """
    arrays = getattr(tree, "_tree_arrays", None)
    if arrays is None:
        arrays = TreeArrays(tree)
        tree._tree_arrays = arrays
    return arrays
