"""Joint top-k processing over the MIR-tree (Section 5, Algorithms 1–2).

The baseline runs one top-k query per user and pays for every page again
and again.  The joint algorithm traverses the MIR-tree **once** for the
whole user group:

1. **Tree traversal (Algorithm 1).**  The group is summarized by the
   super-user ``us``.  Nodes are dequeued from a max-priority queue
   keyed by their *lower bound* ``LB(E, us)`` (best-lower-bound first,
   so strong thresholds form early).  Two object pools are maintained:

   * ``LO`` — a min-heap of the k objects with the best lower bounds
     seen so far; ``RSk(us)``, the k-th best lower bound, is the global
     pruning threshold;
   * ``RO`` — objects displaced from (or never admitted to) ``LO``
     whose *upper* bound still reaches ``RSk(us)``; they may yet belong
     to some individual user's top-k.

   A node or object whose upper bound falls below ``RSk(us)`` is
   discarded: ``LO`` already holds k objects that every user scores at
   least ``RSk(us)``, while no user can score the discarded entry that
   high (Lemma 2), so it can appear in nobody's top-k.

2. **Individual refinement (Algorithm 2).**  For each user the exact
   STS is computed against the ``LO`` objects, then the ``RO`` objects
   are scanned in descending upper bound with a per-user early break
   once ``UB(o, us) < RSk(u)`` (Example 4's stopping rule — every later
   object has an even smaller upper bound).

The result is identical to running the baseline per user (the gold
tests check this), at a fraction of the I/O.

**The hand-off between the two** is a :class:`CandidatePool`: three
columns — object ids, ``lower``, ``upper`` — that the walk fills from
its heaps of tree-entry indices without building one object, and that
are all a pool carries across a process boundary (object ids are what
every replica of the object set shares).  The walk also hands the pool
each candidate's object row, which its tree fixes per leaf entry, so
Algorithm 2 reads ``ObjectColumns`` rows without a look-up; only a
pool without rows (off the wire, the oracle's, or refined against
another object set) maps its ids to rows.  The scalar reference of
both algorithms is :mod:`repro.oracle`.

**What Algorithm 2 hands Algorithm 3** is a :class:`TopKTable` — every
refined user's top-k exact scores as one ``users x k`` matrix — off
which :meth:`TopKTable.rsk` reads ``RSk(u)`` at any ``k`` as one gather:
a :class:`~repro.core.thresholds.Thresholds` vector by user row, what
the selection kernels read.  Per-user ranked lists are built only for
a reader of the table as a mapping.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..index.irtree import IRTree, MIRTree
from ..model.dataset import Dataset
from ..model.objects import STObject, SuperUser, User
from ..storage.pager import PageStore
from ..topk.single import TopKResult
from .kernels import arrays_for, object_columns_for, tree_arrays_for
from .thresholds import Thresholds

#: ``RO`` objects per block of Algorithm 2: Example 4's stop is
#: evaluated per user between blocks (:func:`individual_topk`).
RO_BLOCK = 256

__all__ = [
    "CandidateObject",
    "CandidatePool",
    "CandidatePoolError",
    "JointTraversalResult",
    "TopKTable",
    "joint_traversal",
    "individual_topk",
    "joint_topk",
    "derive_rsk_group",
]


class CandidatePoolError(ValueError):
    """A candidate pool does not fit the dataset it is refined against:
    its columns disagree in length, ``n_lo`` lies outside them, a bound
    is not finite or ``RO``'s upper bounds rise, or it names an object
    id the object set does not hold (a pool that crossed a process
    boundary meets a replica's dataset, not the walk's)."""


@dataclass(slots=True)
class CandidateObject:
    """An object surviving the traversal, with its group-level bounds.

    The oracle's walk builds one per pooled object.  The engine's pool
    builds them only for whoever reads it as a sequence (the oracle's
    Algorithm 2 and Section 7 search, tests) — see :class:`CandidatePool`.
    """

    obj: STObject
    lower: float
    upper: float
    #: Actual term weights restricted to the group's union keywords.
    weights: Dict[int, Tuple[float, float]] = field(default_factory=dict)


class CandidatePool(Sequence[CandidateObject]):
    """Candidates in pool order: a sequence of :class:`CandidateObject`.

    Always three columns — ``ids`` / ``lower`` / ``upper`` arrays — what
    the walk produces and every consumer reads (:meth:`object_rows`).
    :meth:`from_columns` is how the walk builds one;
    ``CandidatePool(candidates)`` (the oracle's walk, hand-built test
    pools) fills the columns from the objects and keeps them as its
    views.  Otherwise the :class:`CandidateObject` views — weight dicts
    included — are built on first sequence access, from the walk's
    :class:`~repro.core.kernels.FrontierBounds`, and only in the process
    the walk ran in: pickling ships the three columns (``STObject``-free),
    so a pool that crossed a process boundary has no views to give.

    The walk also hands over each candidate's row in its tree's object
    table (``TreeArrays.ent_object_row``), keyed by that table's id
    column; slices and :meth:`take` carry the rows, pickling drops them.
    :meth:`object_rows` reads them when the refine's object set is that
    table, and looks the ids up otherwise.

    ``len()``, slices and :meth:`take` never build a view.
    """

    __slots__ = ("ids", "lower", "upper", "_views", "_source", "_rows")

    def __init__(self, candidates: Sequence[CandidateObject] = ()) -> None:
        views = list(candidates)
        n = len(views)
        self.ids = np.fromiter((c.obj.item_id for c in views), np.int64, n)
        self.lower = np.fromiter((c.lower for c in views), np.float64, n)
        self.upper = np.fromiter((c.upper for c in views), np.float64, n)
        self._views: Optional[List[CandidateObject]] = views
        self._source = None  # (FrontierBounds, tree-entry index array)
        self._rows = None    # (id column, each candidate's row in it)

    @classmethod
    def from_columns(
        cls, ids, lower, upper, source=None, rows=None
    ) -> "CandidatePool":
        pool = cls.__new__(cls)
        pool.ids, pool.lower, pool.upper = ids, lower, upper
        pool._views = None
        pool._source = source
        pool._rows = rows
        return pool

    def __reduce__(self):
        return CandidatePool.from_columns, (self.ids, self.lower, self.upper)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        return self._candidates()[index]

    def __iter__(self):
        return iter(self._candidates())

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None  # type: ignore[assignment]

    def _candidates(self) -> List[CandidateObject]:
        if self._views is None:
            if self._source is None:
                raise CandidatePoolError(
                    "this pool crossed a process boundary as id/bound columns; "
                    "CandidateObject views exist only where the walk ran"
                )
            bounds, entries = self._source
            payload = bounds.arrays.payload
            self._views = [
                CandidateObject(payload(e), lo, up, bounds.weights_of(e))
                for e, lo, up in zip(
                    entries.tolist(), self.lower.tolist(), self.upper.tolist()
                )
            ]
        return self._views

    def take(self, index) -> "CandidatePool":
        """The sub-pool at ``index`` — a slice or an index array — with
        no view built (views already built are carried over)."""
        source, rows = self._source, self._rows
        if source is not None:
            source = (source[0], source[1][index])
        if rows is not None:
            rows = (rows[0], rows[1][index])
        pool = CandidatePool.from_columns(
            self.ids[index], self.lower[index], self.upper[index], source, rows
        )
        views = self._views
        if views is not None:
            pool._views = (
                views[index] if isinstance(index, slice)
                else [views[i] for i in np.asarray(index).tolist()]
            )
        return pool

    def object_rows(self, objects):
        """Each candidate's row in ``objects`` (an
        :class:`~repro.core.kernels.ObjectColumns`).

        A read when the pool holds rows in ``objects``' id column — the
        engine's walk over a tree of this object set (the engine's
        dataset and its ``with_alpha`` / ``with_users`` clones share
        the table): no id is looked up.  Otherwise — a pool off the
        wire, the oracle's, or one refined against another object set —
        one vectorised id look-up (``ObjectColumns.rows_of_ids``), kept
        in place of the rows it had; an id ``objects`` lacks raises
        :class:`CandidatePoolError`."""
        held = self._rows
        if held is not None and held[0] is objects.ids:
            return held[1]
        try:
            rows = objects.rows_of_ids(self.ids)
        except KeyError as exc:
            raise CandidatePoolError(
                "candidate pool names an object id this dataset does not hold"
            ) from exc
        self._rows = (objects.ids, rows)
        return rows


class JointTraversalResult:
    """Output of Algorithm 1: the candidate pool and the threshold.

    ``pool`` holds ``LO`` — the ``n_lo`` best-lower-bound objects, best
    first — then ``RO`` in (stable) descending upper bound.
    ``JointTraversalResult(lo=..., ro=..., rsk_group=...)`` builds the
    pool from two candidate lists (the oracle's walk); the engine's walk
    hands its column pool to :meth:`of_pool`.  ``refined`` is the last
    Algorithm 2 table a lane refined from this pool
    (:func:`repro.core.partial.compute_partials`), kept with the pool
    like its object rows and never pickled.
    """

    __slots__ = ("pool", "n_lo", "rsk_group", "refined")

    def __init__(
        self,
        lo: Sequence[CandidateObject],
        ro: Sequence[CandidateObject],
        rsk_group: float,
    ) -> None:
        self.pool = CandidatePool([*lo, *ro])
        self.n_lo = len(lo)
        self.rsk_group = rsk_group  # RSk(us)
        self.refined = None

    @classmethod
    def of_pool(
        cls, pool: CandidatePool, n_lo: int, rsk_group: float
    ) -> "JointTraversalResult":
        result = cls.__new__(cls)
        result.pool, result.n_lo, result.rsk_group = pool, n_lo, rsk_group
        result.refined = None
        return result

    def __reduce__(self):
        return JointTraversalResult.of_pool, (self.pool, self.n_lo, self.rsk_group)

    @property
    def lo(self) -> CandidatePool:
        """The k best-lower-bound objects (sized without building views)."""
        return self.pool[: self.n_lo]

    @property
    def ro(self) -> CandidatePool:
        """The rest, in descending upper bound."""
        return self.pool[self.n_lo :]

    def all_candidates(self) -> CandidatePool:
        return self.pool

    def check(self, dataset: Dataset) -> None:
        """Raise :class:`CandidatePoolError` unless this pool can be
        refined against ``dataset``: the columns agree in length,
        ``n_lo`` lies inside them, every bound is finite, ``RO``'s
        ``upper`` column never rises (Example 4's stop bisects it) and
        ``dataset`` holds every object they name — what must hold before
        anything slices or gathers by them (a pool off the wire is
        outside input).

        The column, ``n_lo`` and bound checks run on every pool.  The
        last one is :meth:`CandidatePool.object_rows`: a read for the
        engine's own walk over this object set, whose rows come from
        its tree, and an id look-up only for a pool without them — one
        that crossed a process boundary, the oracle's, or one walked
        over another object set."""
        pool = self.pool
        if not 0 <= self.n_lo <= len(pool):
            raise CandidatePoolError(
                f"n_lo={self.n_lo} outside a pool of {len(pool)} candidates"
            )
        if not len(pool.ids) == len(pool.lower) == len(pool.upper):
            raise CandidatePoolError(
                f"candidate pool columns disagree: {len(pool.ids)} ids, "
                f"{len(pool.lower)} lower, {len(pool.upper)} upper bounds"
            )
        if not (np.isfinite(pool.lower).all() and np.isfinite(pool.upper).all()):
            raise CandidatePoolError("candidate pool holds a non-finite bound")
        ro_upper = pool.upper[self.n_lo:]
        if (ro_upper[1:] > ro_upper[:-1]).any():
            raise CandidatePoolError(
                "candidate pool's RO upper bounds rise: Example 4's stop "
                "needs them in descending order"
            )
        pool.object_rows(object_columns_for(dataset))


def joint_traversal(
    tree: MIRTree | IRTree,
    dataset: Dataset,
    k: int,
    super_user: Optional[SuperUser] = None,
    store: Optional[PageStore] = None,
) -> JointTraversalResult:
    """Algorithm 1: single best-lower-bound-first traversal for a group.

    ``super_user`` defaults to the dataset-wide super-user; Section 7's
    search (:mod:`repro.oracle`) passes the MIUR-tree root's summary.

    Every entry bound is an O(1) lookup into one
    :class:`~repro.core.kernels.FrontierBounds` — a vectorized wave over
    all entries of the flattened :class:`~repro.core.kernels.TreeArrays`,
    bitwise the scalar :class:`~repro.core.bounds.BoundCalculator`'s
    values (the exactness contract in :mod:`repro.core.kernels`).  The
    dataset-wide super-user's wave is kept per dataset epoch
    (:meth:`TreeArrays.wave`); an explicit ``super_user`` gets its own.
    Each expanded node's children are pruned against ``RSk(us)`` and
    node visits charge their precomputed inverted-list blocks, so the
    I/O trace is the scalar walk's (:func:`repro.oracle.joint_traversal`).

    The walk returns the scalar walk's pool, ``rsk_group`` and I/O
    bitwise, but pushes fewer entries.  Once ``LO`` is full, ``RSk(us)``
    only rises, so a leaf entry with ``LB <= RSk(us)`` at its push can
    never enter ``LO``: its pop changes no state, and decides only
    whether it joins ``RO`` (``UB >= RSk(us)`` then) and where.  Such an
    entry is *deferred*: it takes its tie-break ``count`` as the scalar
    walk would, but is not pushed; a leaf whose largest ``LB`` is at most
    ``RSk(us)`` defers all its survivors at once.  After the walk
    :func:`_settle_deferred` finds, as array passes, the main pop each
    deferred entry's scalar pop precedes — the first later one whose
    ``(key, count)`` exceeds its own (pops are not monotone in key: a
    child's ``LB`` is at least its parent's) — reads ``RSk(us)`` there,
    and places its ``RO`` append before that pop's own
    (:func:`_append_order`), which is what ``RO``'s stable sort by
    ``-UB`` reads among twins.  Only an entry that can read either is
    placed so; every other one joins ``RO`` where its ``UB`` alone puts
    it (``RO``'s sort reads ``FrontierBounds.ub_rank``).

    ``LO`` and ``RO`` hold tree-entry indices where the scalar walk
    holds :class:`CandidateObject` values; the result's id / bound columns
    and its object rows (``TreeArrays.ent_object_row``, rows of the
    tree's object table) are four gathers by those indices at the end.
    """
    if k <= 0:
        return JointTraversalResult(lo=[], ro=[], rsk_group=0.0)
    ta = tree_arrays_for(tree)
    if super_user is None:
        su = dataset.super_user
        fb = ta.wave(dataset, store)
    else:
        su = super_user
        fb = ta.frontier_bounds(dataset, su, store=store)
    lb_arr, ub_arr, neg_lb = fb.lb_list, fb.ub_list, fb.keys
    leaf_max_lb, ub_sorted = fb.leaf_max_lb, fb.ub_sorted
    node_start, node_end = ta.node_start, ta.node_end
    node_is_leaf, child = ta.node_is_leaf, ta.ent_child
    push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace

    # PQ payload encoding: >= 0 is an object's entry index; < 0 is a
    # node encoded as -(node_index + 1).  Unique tie-breaks mean payloads
    # are never compared: ``count`` takes the values the scalar walk's
    # ``itertools.count`` takes, at the same pushes (deferred ones too).
    pq: List[Tuple[float, int, int]] = [(0.0, 0, -(ta.root_index + 1))]
    count = 1

    # LO: min-heap of (lower_bound, tiebreak, entry index), size <= k.
    # Once it holds k entries, ``rsk`` is its minimum, lo_heap[0][0].
    lo_heap: List[Tuple[float, int, int]] = []
    ro: List[int] = []
    ro_at: List[int] = []   # the main pop each RO append happened at
    rsk = float("-inf")
    full = False
    popped: List[Tuple[float, int, int]] = []  # every main pop, in order
    bars: List[float] = []  # RSk(us) as each main pop meets it
    leaves: List[Tuple[int, int, int, int, float]] = []  # see _settle_deferred

    while pq:
        item = pop(pq)
        at = len(popped)
        popped.append(item)
        bars.append(rsk)
        code = item[2]
        if code >= 0:
            # Lines 1.9–1.18 over entry indices (the scalar ``admit``).
            lower = lb_arr[code]
            if not full:
                push(lo_heap, (lower, count, code))
                count += 1
                if len(lo_heap) == k:
                    full = True
                    rsk = lo_heap[0][0]
            elif ub_arr[code] < rsk:
                pass  # cannot be in any user's top-k
            elif lower > rsk:
                displaced = replace(lo_heap, (lower, count, code))[2]
                count += 1
                rsk = lo_heap[0][0]
                if ub_arr[displaced] >= rsk:
                    ro.append(displaced)
                    ro_at.append(at)
            else:
                ro.append(code)
                ro_at.append(at)
            continue
        nidx = -code - 1
        if store is not None:
            if fb.node_blocks is not None:
                # Cold store: charge the node visit plus the exact block
                # count the scalar read_node would have accumulated.
                store.counter.visit_node()
                store.counter.load_blocks(fb.node_blocks[nidx])
            else:
                page = ta.node_page[nidx]
                store.read_node(ta.index_name, page)
                tree.invfile_at(page).charge_lists(
                    store, ta.index_name, page, su.union_terms
                )
        # The node's whole child wave, pruned against RSk(us) — -inf, so
        # pruning nothing, until LO is full.
        start, end = node_start[nidx], node_end[nidx]
        if not node_is_leaf[nidx]:
            for i in range(start, end):
                if ub_arr[i] >= rsk:
                    push(pq, (neg_lb[i], count, -(child[i] + 1)))
                    count += 1
        elif not full:
            for i in range(start, end):
                push(pq, (neg_lb[i], count, i))
                count += 1
        else:
            leaves.append((at, start, end, count, rsk))
            if leaf_max_lb[nidx] <= rsk:
                count += _leaf_survivors(ub_sorted, start, end, rsk)
            else:
                for i in range(start, end):
                    if ub_arr[i] >= rsk:
                        if lb_arr[i] > rsk:
                            push(pq, (neg_lb[i], count, i))
                        count += 1

    # The scalar walk's two stable sorts, on the same keys (RO's as one
    # stable argsort of its appends in the scalar order: the same
    # permutation).
    lo = [idx for _, __, idx in sorted(lo_heap, key=lambda t: -t[0])]
    ro = np.array(ro, dtype=np.intp)
    if leaves:
        deferred, before, rank, rest = _settle_deferred(fb, popped, bars + [rsk], leaves)
        order = _append_order(np.array(ro_at, dtype=np.intp), before, rank)
        ro = np.concatenate((np.concatenate((ro, deferred))[order], rest))
    ro = ro[np.argsort(fb.ub_rank[ro], kind="stable")]
    entries = np.concatenate((np.array(lo, dtype=np.intp), ro))
    pool = CandidatePool.from_columns(
        ta.ent_object_id[entries], fb.lb[entries], fb.ub[entries],
        source=(fb, entries), rows=(tree.table.ids, ta.ent_object_row[entries]),
    )
    return JointTraversalResult.of_pool(
        pool, len(lo), rsk if rsk != float("-inf") else 0.0
    )


def _leaf_survivors(ub_sorted, start: int, end: int, rsk: float) -> int:
    """How many entries of a leaf's span the scalar walk pushes — those
    with ``UB >= RSk(us)``, what ``count`` advances by — as one bisection
    of the span's ascending ``UB`` (``FrontierBounds.ub_sorted``)."""
    return end - bisect_left(ub_sorted, rsk, start, end)


def _settle_deferred(fb, popped, bars, leaves):
    """The deferred leaf entries that join ``RO``, where, and in what
    order among themselves.

    ``leaves`` holds one ``(pop, start, end, count, rsk)`` per leaf the
    walk expanded with ``LO`` full: the index of the main pop that
    expanded it, its entry span, ``count`` and ``RSk(us)`` then.  Its
    survivors (``UB >= rsk``) took consecutive counts from ``count``; the
    deferred ones among them are those with ``LB <= rsk``.  ``popped`` is
    every main pop's ``(key, count, code)`` and ``bars[j]`` the
    ``RSk(us)`` main pop ``j`` met (one more: the final one).

    A deferred entry pops, in the scalar walk, just before the first
    main pop after its leaf's whose ``(key, count)`` exceeds its own (or
    after the last), so it joins ``RO`` iff ``UB >= bars`` there.
    Only the entries whose join test or append position the scalar walk
    can read are placed so: ``UB`` below the final ``RSk(us)`` (the
    test reads the bar at the pop; ``RSk(us)`` only rises, so ``UB`` at
    or above the final one joins wherever it pops), or a ``UB`` another
    entry shares (``FrontierBounds.ub_tied``: ``RO`` is sorted by
    ``-UB``, stable, so the append order survives only among ties).
    Returns, for the placed ones that join, the entry indices, the main
    pop each precedes, and their rank among those pops in ``(key,
    count)`` order — the order of deferred pops between two main pops —
    and the entry indices of the rest, which all join.
    """
    pops, starts, ends, counts, rsks = (np.array(column) for column in zip(*leaves))
    lengths = ends - starts
    leaf = np.repeat(np.arange(len(leaves)), lengths)
    first = np.cumsum(lengths) - lengths
    entry = starts[leaf] + np.arange(int(lengths.sum())) - first[leaf]
    bar = rsks[leaf]
    survives = fb.ub[entry] >= bar
    taken = np.concatenate(([0], np.cumsum(survives)))
    given = counts[leaf] + taken[:-1] - taken[first][leaf]
    deferred = survives & (fb.lb[entry] <= bar)
    placed = (fb.ub[entry] < bars[-1]) | fb.ub_tied[entry]
    rest = entry[deferred & ~placed]
    deferred &= placed
    entry, given, after = entry[deferred], given[deferred], pops[leaf][deferred]

    # Ranks over main and deferred pops together, in (key, count) order:
    # counts are unique, so key rank x (count bound) + count is one
    # distinct integer per pop, in that order (no float lexsort).
    n_main = len(popped)
    keys = np.concatenate((np.fromiter((p[0] for p in popped), np.float64, n_main),
                           -fb.lb[entry]))
    ticks = np.concatenate((np.fromiter((p[1] for p in popped), np.int64, n_main),
                            given))
    key_rank = np.unique(keys, return_inverse=True)[1].reshape(-1)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[np.argsort(key_rank * (int(ticks.max()) + 1) + ticks)] = np.arange(len(keys))
    before = _first_greater_after(rank[:n_main], after + 1, rank[n_main:])
    joins = fb.ub[entry] >= np.array(bars)[before]
    return entry[joins], before[joins], rank[n_main:][joins], rest


def _first_greater_after(values, starts, bars):
    """Per query ``i``, the first index ``j >= starts[i]`` with
    ``values[j] > bars[i]``, or ``len(values)``: binary lifting over a
    sparse table of window maxima, ``log2(len(values))`` array steps."""
    n = len(values)
    tables = [values]  # tables[L][j] = max(values[j : j + 2**L])
    while 1 << len(tables) <= n:
        prev, width = tables[-1], 1 << (len(tables) - 1)
        tables.append(np.maximum(prev[:-width], prev[width:]))
    pos = np.asarray(starts, dtype=np.intp).copy()
    for level in range(len(tables) - 1, -1, -1):
        table = tables[level]
        fits = pos < len(table)
        clear = fits & (table[np.minimum(pos, len(table) - 1)] <= bars)
        pos[clear] += 1 << level
    return pos


def _append_order(main_at, deferred_at, deferred_rank):
    """The permutation of ``[main appends, deferred appends]`` into the
    scalar walk's ``RO`` append order: by the main pop each happened at
    or precedes — a deferred pop comes before that pop, a main append
    (the popped object or the one it displaced) at it — and deferred
    pops between two main pops in ``(key, count)`` order (their rank
    among all pops).  At most one main append happens per pop, so every
    sort key is distinct."""
    bound = int(deferred_rank.max()) + 1 if len(deferred_rank) else 0
    pos = np.concatenate((main_at, deferred_at))
    sub = np.concatenate((np.full(len(main_at), bound), deferred_rank))
    return np.argsort(pos * (bound + 1) + sub)


def derive_rsk_group(traversal: JointTraversalResult, walk_k: int, k: int) -> float:  # repro: identity-kernel
    """``RSk(us)`` at ``k`` from a traversal walked at ``walk_k >= k``.

    For ``k == walk_k`` it is the walk's own threshold; for smaller
    ``k`` it is the k-th best candidate lower bound over the pool —
    exactly the value a dedicated ``k``-walk converges to.  The value
    is **pool-independent**: any pool superset still contains every
    object whose lower bound ranks top-``k`` (such an object has
    ``UB >= LB >= RSk(us) >= RSk_walk(us)``, so no walk at ``walk_k``
    prunes it), and extra candidates sit strictly below the k-th rank.
    Shared by joint cross-k pool sharing (:mod:`repro.core.batch`) and
    the sharded gather.

    The order statistic is one ``np.partition`` of the ``lower``
    column: the same element of the same multiset a sort picks, so the
    same float.
    """
    if k > walk_k:
        raise ValueError(f"pool walked at k={walk_k} cannot serve k={k}")
    if k == walk_k:
        return traversal.rsk_group
    pool = traversal.pool
    if not 0 < k <= len(pool):
        return 0.0
    return float(np.partition(pool.lower, len(pool) - k)[len(pool) - k])


def _ragged_rows(user_pos, values, n_rows: int):
    """``values`` grouped into rows by ``user_pos``: an ``n_rows x
    width`` matrix holding each row's values left-aligned, in their
    given order, ``-inf`` beyond — one stable integer sort and one
    scatter — and the count per row.  ``width`` is the longest row."""
    order = np.argsort(user_pos, kind="stable")
    rows = user_pos[order]
    counts = np.bincount(user_pos, minlength=n_rows)
    width = int(counts.max()) if len(rows) else 0
    starts = np.cumsum(counts) - counts
    dense = np.full(n_rows * width, -math.inf)
    dense[rows * width + (np.arange(len(rows)) - starts[rows])] = values[order]
    return dense.reshape(n_rows, width), counts


class TopKTable(Mapping[int, TopKResult]):
    """Algorithm 2's output: every refined user's top-k scores as arrays.

    ``users`` holds the user ids (int64) in the order they were refined;
    ``scores`` is a ``users x k`` matrix of exact STS floats, descending
    per row, ``-inf`` past ``counts[u]`` — the length of user ``u``'s
    top-k list (short when the pool holds fewer than ``k`` objects).
    :meth:`rsk` reads ``RSk(u)`` at any ``k' <= k`` off it as one
    gather: a :class:`~repro.core.thresholds.Thresholds`, what Algorithm
    3 reads.

    The table is also a ``Mapping`` from user id to
    :class:`~repro.topk.single.TopKResult`, the ranked ``(score, id)``
    lists ordered by ``(-score, id)``.  Those lists are built on first
    mapping access only (tests, ``MaxBRSTkNNEngine.topk_joint``, the
    bench harness) from the contenders the refine kept — or, for a
    table of the oracle's Algorithm 2 (:meth:`of_results`), they are its
    own lists, whose floats the matrix copies.
    """

    __slots__ = ("users", "k", "counts", "scores", "_contenders", "_results")

    def __init__(self, users, k: int, counts, scores) -> None:
        self.users = users
        self.k = k
        self.counts = counts
        self.scores = scores
        self._contenders = None  # (user positions, scores, object ids)
        self._results: Optional[Dict[int, TopKResult]] = None

    @classmethod
    def of_contenders(
        cls, users, k: int, user_pos, scores, object_ids
    ) -> "TopKTable":
        """The table over contender cells ``(user_pos[i], object_ids[i])``
        scoring ``scores[i]`` — per user a superset of their top-k, ties
        included: the cells grouped into rows (:func:`_ragged_rows`),
        each row sorted, the first ``k`` columns kept."""
        dense, counts = _ragged_rows(user_pos, scores, len(users))
        if dense.shape[1] < k:  # every row short: pad to k columns
            pad = np.full((len(users), k - dense.shape[1]), -math.inf)
            dense = np.hstack((dense, pad))
        dense.sort(axis=1)
        table = cls(users, k, np.minimum(counts, k), dense[:, ::-1][:, :k])
        table._contenders = (user_pos, scores, object_ids)
        return table

    @classmethod
    def of_results(cls, users, k: int, results: Dict[int, TopKResult]) -> "TopKTable":
        """The table over ranked lists ``results`` (by user id)."""
        scores = np.full((len(users), k), -math.inf)
        counts = np.zeros(len(users), dtype=np.intp)
        for row, uid in enumerate(users.tolist()):
            ranked = results[uid].ranked
            counts[row] = len(ranked)
            scores[row, : len(ranked)] = [score for score, _ in ranked]
        table = cls(users, k, counts, scores)
        table._results = results
        return table

    def rsk(self, k: int) -> Thresholds:
        """``RSk(u)`` at ``k`` for every user of the table: the entry at
        position ``min(k, counts[u]) - 1`` of each row, ``0.0`` for an
        empty row.  A top-``k`` list is the first ``k`` entries of the
        top-``self.k`` list over the same pool (the order is total), so
        any ``1 <= k <= self.k`` is answered; anything else raises."""
        if not 1 <= k <= self.k:
            raise ValueError(
                f"RSk at k={k} is outside 1..{self.k}, the k this table was "
                "refined at"
            )
        last = np.minimum(self.counts, k) - 1
        values = self.scores[np.arange(len(last)), last]
        values[last < 0] = 0.0
        return Thresholds(self.users, values)

    def _by_id(self) -> Dict[int, TopKResult]:
        if self._results is None:
            user_pos, scores, ids = self._contenders
            order = np.lexsort((ids, -scores, user_pos))
            pairs = list(zip(scores[order].tolist(), ids[order].tolist()))
            starts = np.concatenate(
                ([0], np.cumsum(np.bincount(user_pos, minlength=len(self.users))))
            ).tolist()
            k = self.k
            self._results = {
                uid: TopKResult(user_id=uid, ranked=pairs[start:min(start + k, end)])
                for uid, start, end in zip(self.users.tolist(), starts, starts[1:])
            }
        return self._results

    def __getitem__(self, uid: int) -> TopKResult:
        return self._by_id()[uid]

    def __iter__(self) -> Iterator[int]:
        return iter(self.users.tolist())

    def __len__(self) -> int:
        return len(self.users)


def _suffix_max(block_max):
    """Per keyword set (row), the max over block ``j`` and every later
    block (column) of ``block_max``: one ``np.maximum.accumulate``
    taken back to front."""
    backward = block_max[:, ::-1]
    return np.maximum.accumulate(backward, axis=1, out=backward)[:, ::-1]


def _still_active(kth, sets, reaches, block: int, guard: float):
    """Example 4's stop per keyword set, for ``RO`` block ``block``:
    which of these users — ``kth`` their running k-th best matrix
    scores, ``sets`` their rows of ``reaches`` (:func:`_suffix_max` of
    the set bounds) — some object from that block on may still reach.
    The guard (``DatasetArrays.refine_guard``) sits on the conservative
    side (scores and bounds carry single-precision rounding): a user is
    retired only when every object from here on has ``STS(o, u) <=
    UB(o, S(u)) < RSk(u)``."""
    return kth - guard <= reaches[sets, block]


def _contenders(blocks, kth, guard: float):
    """``(user position, pool position)`` of every scored cell that
    reaches its user's final k-th best matrix score minus ``guard`` —
    per user a superset of the scalar top-k, ties included.
    ``blocks`` holds ``(user positions, first pool position, scores)``
    per scored block."""
    user_pos, col = [], []
    for block_users, start, scores in blocks:
        # One flat index per cell: a 2-D np.nonzero costs ~3x as much.
        u, c = np.divmod(
            np.flatnonzero(scores >= (kth[block_users] - guard)[:, None]), scores.shape[1]
        )
        user_pos.append(block_users[u])
        col.append(start + c)
    return np.concatenate(user_pos), np.concatenate(col)


def individual_topk(
    traversal: JointTraversalResult,
    dataset: Dataset,
    k: int,
    users: Optional[Sequence[User]] = None,
) -> TopKTable:
    """Algorithm 2: refine the candidate pools into per-user top-k lists.

    ``LO`` objects are scored exactly for every user; ``RO`` objects are
    scanned in descending group upper bound and the scan stops per user
    as soon as ``UB(o, us) < RSk(u)`` — no later object can qualify.
    Users x objects are scored as matrices, one block of ``RO`` at a
    time — guard-banded single-precision blocks
    (:meth:`DatasetArrays.candidate_score_matrix`), exact contenders —
    and the answer is a
    :class:`TopKTable` whose floats are the scalar scan's
    (:func:`repro.oracle.individual_topk`).

    **Example 4's stop, per user, block by block.**  ``LO`` and the
    first ``RO_BLOCK`` objects of ``RO`` are scored for every user as
    one matrix.  Each user's k-th best score so far (kept in a ``users x
    k`` best-so-far matrix, re-``partition``\\ ed only for the rows a
    block improves) is a lower bound of their final ``RSk(u)``, and
    ``RO`` is in descending ``UB(o, us)``: nothing past the first
    ``UB(o, us)`` below the weakest of them (the *reach*) is scored.
    Up to the reach the stop reads a tighter bound that keeps each
    user's own keyword set ``S`` — ``UB(o, S)``
    (:meth:`DatasetArrays.set_bound_matrix`, capped at ``UB(o, us)``),
    one ``objects x sets`` matrix whose suffix max (:func:`_suffix_max`)
    bounds every object from a block on.  A further block is scored
    only for the users :func:`_still_active` keeps, and only as far as
    the weakest of them reaches by ``UB(o, us)``.  The set scored for a
    user is a superset of what the scalar scan visits for them: an
    object left out has ``STS(o, u) <= UB(o, S(u)) < RSk(u)``.

    **The guard.**  Every decision on matrix scores and set bounds —
    the stop, the reach, each block's floor and the contenders — is
    taken ``DatasetArrays.refine_guard`` on the safe side: four times
    the worst-case float32 error of one score
    (:func:`~repro.core.kernels.refine_guard` derives it from the unit
    roundoff and the term-column count).

    **Contenders.**  Per user, every scored cell within the guard of
    the *final* k-th best (:func:`_contenders`) is re-scored by the
    bitwise pair kernel (:meth:`DatasetArrays.sts_pairs`); the
    :class:`TopKTable` sorts each user's exact scores, so the ``RSk(u)``
    thresholds read off it (and its ranked lists, ordered by the scalar
    heap's exact key ``(-score, id)`` when asked for) are the oracle's
    floats.
    """
    users = dataset.users if users is None else users
    k = max(k, 0)
    arrays = arrays_for(dataset)
    if users is dataset.users:
        user_rows, user_ids = np.arange(arrays.num_users), arrays.user_ids
    else:
        user_rows = arrays.rows_for(users)
        user_ids = arrays.user_ids[user_rows]
    pool = traversal.pool
    if k <= 0 or not len(pool) or not len(users):
        none = np.empty(0, dtype=np.intp)
        return TopKTable.of_contenders(
            user_ids, k, none, np.empty(0), np.empty(0, dtype=np.int64)
        )
    obj_rows = pool.object_rows(arrays.objects)
    ids, upper = pool.ids, pool.upper
    n = len(obj_rows)
    guard = arrays.refine_guard

    def top_k(best, scores):
        """The k best of every row of ``best`` and ``scores`` side by
        side, the k-th best first."""
        both = np.hstack((best, scores)) if best.shape[1] else scores.copy()
        both.partition(both.shape[1] - k, axis=1)
        return both[:, -k:]

    stop = min(n, traversal.n_lo + RO_BLOCK)
    active = np.arange(len(users))
    scores = arrays.candidate_score_matrix(
        obj_rows[:stop], None if users is dataset.users else user_rows
    )
    blocks = [(active, 0, scores)]
    # -inf until a user has k scores: nobody stops on fewer.
    best = top_k(np.full((len(users), max(k - stop, 0)), -math.inf, dtype=scores.dtype), scores)
    kth = best[:, 0].copy()
    neg_upper = -upper
    first = stop
    # No user needs an object past the first UB(o, us) below the weakest
    # k-th best: the reach, which only shrinks from here.
    reach = first + int(
        np.searchsorted(neg_upper[first:], guard - kth.min(), side="right")
    )
    if first < reach:
        # Every block but a last cut short starts at first + j * RO_BLOCK.
        bounds, sets = arrays.set_bound_matrix(obj_rows[first:reach], user_rows)
        block_starts = np.arange(0, reach - first, RO_BLOCK)
        block_max = np.maximum.reduceat(bounds, block_starts, axis=1)
        np.minimum(block_max, upper[first + block_starts], out=block_max)
        reaches = _suffix_max(block_max)
    while stop < reach:
        start = stop
        block = (start - first) // RO_BLOCK
        active = active[_still_active(kth[active], sets[active], reaches, block, guard)]
        if not len(active):
            break
        # ... and only up to the first UB(o, us) no active user reaches
        # (at least one object: reaches[:, block] <= UB(o, us) at start).
        floor = kth[active].min() - guard
        reach = start + int(np.searchsorted(neg_upper[start:reach], -floor, side="right"))
        stop = min(reach, start + RO_BLOCK)
        scores = arrays.candidate_score_matrix(obj_rows[start:stop], user_rows[active])
        blocks.append((active, start, scores))
        # Only a row the block beats its k-th best in is re-partitioned.
        improved = scores.max(axis=1) > kth[active]
        if improved.any():
            grew = active[improved]
            best[grew] = top_k(best[grew], scores[improved])
            kth[grew] = best[grew, 0]

    user_pos, col = _contenders(blocks, kth, guard)
    exact = arrays.sts_pairs(obj_rows[col], user_rows[user_pos])
    return TopKTable.of_contenders(user_ids, k, user_pos, exact, ids[col])


def joint_topk(
    tree: MIRTree | IRTree,
    dataset: Dataset,
    k: int,
    store: Optional[PageStore] = None,
) -> TopKTable:
    """Sections 5.4's full pipeline: traversal + individual refinement."""
    traversal = joint_traversal(tree, dataset, k, store=store)
    return individual_topk(traversal, dataset, k)
