"""Kernel isolation: the joint MIR-tree traversal, its refinement and
the candidate selection over its thresholds, oracle vs engine.

Not a paper figure — this isolates the three kernels of every query:
Algorithm 1's frontier traversal (the cost PR 3 attacked), Algorithm
2's per-user refinement of the pools it returns, and Algorithm 3's
location/keyword selection over the thresholds that yields, each as the
engine's numpy kernels and as the scalar oracle (``repro.oracle``).  Six
sections:

1. **TreeArrays build** — the once-per-engine flattening cost the
   engine amortizes over every traversal.
2. **Traversal** — best-of-N wall time of a cold ``joint_traversal``,
   oracle and engine, at the default ``k``, with a
   built-in check that the pools are *bitwise identical* (the frontier
   kernels' exactness contract) and a ≥ 2x speedup acceptance bar on
   the full-size run.  The engine side bumps the dataset epoch before
   each walk, so its time includes the bound wave the scalar walk does
   inside its loop (the bar and the slowdown gate compare the same
   work); beside it, the walk that reads the kept wave
   (``TreeArrays.wave``), as every walk of a dataset epoch but its
   first does.
3. **Refinement** — best-of-N ``individual_topk``, oracle and engine,
   on those same pools, with a built-in check that the per-user ranked
   lists are *identical* (scores as floats, ties by id) and that the
   ``RSk(u)`` vectors read off the two tables (``table.rsk(k)``) are
   ``==``.  Beside it, per side, the time of the hand-off itself —
   ``individual_topk`` + ``rsk(k)``, refine output to the vector
   Algorithm 3 reads — and of ``frontier_bounds``, Algorithm 1's one
   vectorised bound wave (engine only: the scalar walk computes each
   entry's bounds inside its loop).
4. **The hand-off** — per ``k`` in {5, 10, 20}: the cells Algorithm 2's
   block-wise per-user stop scores against ``users x pool`` and against
   the one-shot cut it replaced (PR 17: one prefix of ``RO`` for every
   user — the block-wise stop must never score more), and the bytes
   the engine walk's pool pickles to (id / bound columns, no
   ``STObject``) against its objects.
5. **Selection** — best-of-N ``select_candidate``, oracle and engine,
   over a handful of queries against those fixed thresholds, with a
   built-in check that ``(location, keywords, brstknn,
   locations_pruned, keyword_combinations_scored)`` are *identical*
   query by query; and the ``select-batch`` row — the same queries
   answered by the engine as one ``SelectionBatch`` (a ``select``
   payload's stacked pass: one selection context per keyword side),
   checked the same way against the oracle's per-query answers; its
   mixed-k variant — the same queries at their own ks, each reading its
   k's thresholds, still one ``SelectionBatch`` — checked against the
   oracle run with each query's own thresholds; and, where stacking
   cannot share, the queries given one keyword side each, one by one
   and as one batch.  Every engine run of these rows starts after a
   dataset epoch bump, so it builds its keyword sides itself (the side
   map's miss path) instead of reading the sides an earlier repeat
   stored.  The ``select-flush`` row is the warm select of a served
   flush: 8 queries of the end-to-end benchmark's shape (|L| = 20, ws =
   2, k cycling 5/10/20, one keyword side: ``shared``) as one
   ``SelectionBatch``, reported as best-of-N ms per query and as the
   ``SS(l, u)`` rows computed per location — 1 when each pass computes
   a location's spatial row once and every decision reads it in place;
   the run fails above 1 (a decision recomputing it has crept back)
   or on any answer that differs from ``oracle.select_candidate``.
   Beside it the same flush with no keyword side repeated (``mixed``:
   a distinct ``ox.d``, a drawn ``|W|`` and ``ws`` in {1, 2, 3} per
   query).  Both print ms per query, the share of the flush spent in
   the keyword side (what a stored side saves a flush that repeats
   it) and the side map's hits and misses per flush, and fail on any
   answer that differs from the oracle's.  The ``select-flush exact``
   row selects the shared flush with ``method="exact"`` (Algorithm 4
   on the same block search), engine as one ``SelectionBatch`` against
   ``oracle.select_candidate(method="exact")`` query by query, ``==``
   and timed.  Each of the three select-flush rows also runs one flush
   under :func:`selection_passes`: it prints the largest ``|alpha * SS32
   - alpha * SS|`` over every cell of its single-precision spatial
   rows, in units of the ``select_guard`` each pass read, the in-band
   entries ``_banded`` handed to the scalar re-check and ``_banded``'s
   ms per flush (``--json``: ``select_flush_keyword_sides.<mix>.passes``,
   ``select_flush_exact_passes``); above ``MAX_GUARD_RATIO`` (0.25, the
   derived per-cell bound) the run fails.
6. **Cross-k pool sharing** — a mixed-k batch (k in {1, 5, 10}) must
   run exactly **one** traversal (asserted via ``engine.traversal_runs``)
   and return results identical to the oracle's per-k sequential
   queries.
7. **Cold query** — sequential ``engine.query`` calls in the end-to-end
   benchmark's shape (|L| = 20, ws = 2, k cycling 5/10/20), each query
   cold (its own walk, refine and selection, as ``paper-cold`` runs
   them): best-of-N ms per query, its traverse / refine / select split
   (the engine's ``last_flush_report``), the time outside the three
   algorithms (wall time minus the time inside ``joint_traversal``,
   ``individual_topk`` and ``select_candidate``:
   :func:`inside_algorithms`), minor page faults per query
   (``ru_minflt``), object id look-ups per query
   (``ObjectColumns.rows_of_ids`` calls: the run fails on any, since an
   in-process refine reads the rows its walk handed the pool) and
   answers ``==`` ``oracle.query``'s.  It runs
   first, on a fresh process's heap: after the other rows grow the
   heap, the faults a cold refine takes no longer show.  No speed
   gate: a tiny dataset's query is all fixed cost.  Beside it, the same
   queries' refine split by part (:func:`refine_split`: block-0
   matrix, top-k, set bounds, later blocks, contenders, exact re-score,
   table; ``--json``: ``cold_query.refine_split``) and the largest
   ``|candidate_score_matrix - sts_pairs|`` over every cell they
   scored, in units of ``DatasetArrays.refine_guard``: above
   ``MAX_GUARD_RATIO`` (0.25, the derived per-score bound) the run
   fails.

Run::

    python benchmarks/bench_traversal.py              # full, 2x bar
    python benchmarks/bench_traversal.py --tiny       # CI smoke
    python benchmarks/bench_traversal.py --json out.json

``--max-slowdown X`` (used by the CI bench-smoke job) fails the run if
the engine is more than X times slower than the oracle on the walk,
the refinement, the selection, the stacked selection (same-k and
mixed-k) or the exact select-flush — a tiny dataset cannot show the
speedup, but it catches kernel regressions that make vectorization a
net loss (a refinement back at per-candidate Python work, a selection
back at a per-location loop).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import os
import pickle
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

# One BLAS thread where the caller left it unset, before numpy loads (as
# ``python -m repro serve`` pins it; importing ``repro.__main__`` loads
# no numpy): on a small box, OpenBLAS's thread per CPU stalls the small
# products of these rows intermittently.
from repro.__main__ import BLAS_THREAD_VARS  # noqa: E402

for _name in BLAS_THREAD_VARS:
    os.environ.setdefault(_name, "1")

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle  # noqa: E402
from repro.bench.harness import build_workbench  # noqa: E402
from repro.bench.params import DEFAULTS  # noqa: E402
from repro.core.candidate_selection import (  # noqa: E402
    SelectionBatch, _keyword_side, select_candidate,
)
from repro.core.joint_topk import (  # noqa: E402
    RO_BLOCK, individual_topk, joint_traversal,
)
from repro.core import kernels  # noqa: E402
from repro.core.kernels import (  # noqa: E402
    DatasetArrays, KeywordSide, ObjectColumns, arrays_for, tree_arrays_for,
)
from repro.core.pipeline import FlushReport  # noqa: E402
from repro.core.planner import plan_batch  # noqa: E402
from repro.core.query import QueryStats  # noqa: E402
from repro.datagen.users import generate_users, query_pool  # noqa: E402
from repro.storage.iostats import IOCounter  # noqa: E402
from repro.storage.pager import PageStore  # noqa: E402

# ``repro.core`` re-exports the joint_topk *function* under the
# submodule's own name; fetch the module itself.
joint_topk_module = importlib.import_module("repro.core.joint_topk")


#: The two sides of every comparison: the scalar oracle, the engine.
SIDES = ("oracle", "engine")
WALK = {"oracle": oracle.joint_traversal, "engine": joint_traversal}
REFINE = {"oracle": oracle.individual_topk, "engine": individual_topk}
SELECT = {"oracle": oracle.select_candidate, "engine": select_candidate}


def traversals_identical(a, b) -> bool:
    if a.rsk_group != b.rsk_group:
        return False
    for name in ("lo", "ro"):
        pa, pb = getattr(a, name), getattr(b, name)
        if len(pa) != len(pb):
            return False
        for x, y in zip(pa, pb):
            if (
                x.obj.item_id != y.obj.item_id
                or x.lower != y.lower
                or x.upper != y.upper
            ):
                return False
    return True


def best_of(repeats, run):
    """Best-of-N wall time of ``run()``, and its last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best, result


def time_traversal(engine, k, side, repeats, kept_wave=False):
    """Cold traversal (fresh I/O counter per run).  The engine bumps the
    dataset epoch first, so the timed walk builds its bound wave, unless
    ``kept_wave``: then it reads the one the previous run kept."""
    dataset = engine.dataset

    def run():
        if side == "engine" and not kept_wave:
            dataset.bump_epoch()
        return WALK[side](
            engine.object_tree, dataset, k, store=PageStore(counter=IOCounter()),
        )

    return best_of(repeats, run)


def time_refine(traversal, dataset, k, side, repeats):
    """Algorithm 2 over one traversal's pools."""
    return best_of(repeats, lambda: REFINE[side](traversal, dataset, k))


def time_handoff(traversal, dataset, k, side, repeats):
    """Algorithm 2 to the ``RSk(u)`` vector Algorithm 3 reads."""
    return best_of(repeats, lambda: REFINE[side](traversal, dataset, k).rsk(k))


def time_frontier_bounds(engine, repeats):
    """Algorithm 1's bound wave over every tree entry (engine walk)."""
    arrays = tree_arrays_for(engine.object_tree)
    dataset = engine.dataset
    return best_of(repeats, lambda: arrays.frontier_bounds(
        dataset, dataset.super_user, store=PageStore(counter=IOCounter())
    ))[0]


def time_select(queries, dataset, pairs, side, repeats, stacked=False, method="approx"):
    """Algorithm 3 over fixed thresholds — ``pairs[i]`` is query ``i``'s
    ``(RSk(u), RSk(us))`` — one answer tuple per query, keywords chosen
    by ``method`` (``stacked``: the engine's queries as one
    ``SelectionBatch``, whatever their k).  Each engine run starts after
    a dataset epoch bump, so it finds none of its keyword sides stored
    and builds each once, as a select payload on a new side does."""
    def run():
        if side == "engine":
            dataset.bump_epoch()
        batch = SelectionBatch(queries, pairs, method) if stacked else None
        extra = {} if batch is None else {"batch": batch}
        answers = []
        for query, (rsk, rsk_group) in zip(queries, pairs):
            stats = QueryStats()
            result = SELECT[side](
                dataset, query, rsk, rsk_group=rsk_group, method=method, stats=stats,
                **extra,
            )
            answers.append((
                result.location, result.keywords, result.brstknn,
                stats.locations_pruned, stats.keyword_combinations_scored,
            ))
        return answers

    return best_of(repeats, run)


#: The end-to-end benchmark's query shape (``benchmarks/e2e``): 20
#: candidate locations, ``ws = 2``, ``k`` cycling over these; one flush
#: of 8 is what the ``select-flush`` row selects.
FLUSH_KS = (5, 10, 20)
FLUSH_QUERIES = 8


def keyword_side_cost(dataset, run):
    """One ``run()``: the share of its wall time spent in
    ``KeywordSide``'s fills and reads (text rows, ``UBL`` text half, pair
    table, group text terms) and the side map's hits and misses."""
    spent, depth = [0.0], [0]
    names = ("text", "upper_text", "pairs", "group_texts")
    originals = {name: getattr(KeywordSide, name) for name in names}

    def timed(method):
        def wrapper(self, *args):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    spent[0] += time.perf_counter() - t0
        return wrapper

    for name, method in originals.items():
        setattr(KeywordSide, name, timed(method))
    before = arrays_for(dataset).side_stats()
    try:
        t0 = time.perf_counter()
        run()
        total = time.perf_counter() - t0
    finally:
        for name, method in originals.items():
            setattr(KeywordSide, name, method)
    after = arrays_for(dataset).side_stats()
    return {
        "side_share": spent[0] / total if total else 0.0,
        "side_hits": after["hits"] - before["hits"],
        "side_misses": after["misses"] - before["misses"],
    }


def user_workload(bench, config):
    """The workbench's objects with ``config``'s users drawn on them."""
    return generate_users(
        bench.dataset.objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )


def e2e_queries(workload, config):
    """``FLUSH_QUERIES`` queries of the end-to-end benchmark's shape."""
    return [
        dataclasses.replace(q, k=FLUSH_KS[i % len(FLUSH_KS)])
        for i, q in enumerate(query_pool(
            workload, FLUSH_QUERIES, num_locations=20, ws=2, k=config.k,
            seed=config.seed, seed_stride=101,
        ))
    ]


def mixed_sides(flush, seed):
    """``flush`` with no keyword side repeated: per query a distinct
    ``ox.d`` (one or two of its candidates, drawn), a drawn prefix of
    ``W`` (two keywords at least) and ``ws`` drawn from 1, 2, 3."""
    rng = random.Random(seed)
    keywords = flush[0].keywords
    seen, mixed = set(), []
    for q in flush:
        while True:
            terms = {t: rng.randint(1, 2) for t in rng.sample(keywords, rng.randint(1, 2))}
            query = dataclasses.replace(
                q, ox=dataclasses.replace(q.ox, terms=terms),
                keywords=keywords[: rng.randint(2, len(keywords))],
                ws=rng.choice((1, 2, 3)),
            )
            if tuple(terms.items()) not in seen:
                seen.add(tuple(terms.items()))
                mixed.append(query)
                break
    return mixed


#: Where a cold ``engine.query`` calls Algorithms 1, 2 and 3: (module,
#: name) of each call site :func:`inside_algorithms` times.
ALGORITHM_SITES = (
    ("repro.core.batch", "joint_traversal"),
    ("repro.core.partial", "individual_topk"),
    ("repro.core.batch", "select_candidate"),
)


@contextlib.contextmanager
def inside_algorithms():
    """While the block runs: seconds spent inside ``joint_traversal``,
    ``individual_topk`` and ``select_candidate`` (``"inside_s"``), and
    the object id look-ups made (``ObjectColumns.rows_of_ids`` calls,
    ``"look_ups"``)."""
    seen = {"inside_s": 0.0, "look_ups": 0}

    def timed(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seen["inside_s"] += time.perf_counter() - t0
        return wrapper

    rows_of_ids = ObjectColumns.rows_of_ids

    def counted(self, object_ids):
        seen["look_ups"] += 1
        return rows_of_ids(self, object_ids)

    saved = [
        (module, name, getattr(module, name))
        for module, name in (
            (importlib.import_module(path), name) for path, name in ALGORITHM_SITES
        )
    ]
    try:
        for module, name, fn in saved:
            setattr(module, name, timed(fn))
        ObjectColumns.rows_of_ids = counted
        yield seen
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
        ObjectColumns.rows_of_ids = rows_of_ids


def time_cold_queries(engine, queries, repeats):
    """Sequential cold ``engine.query`` calls, ``repeats`` rounds of
    ``queries``: per query its fastest round's wall time and that
    round's traverse / refine / select split and time outside the three
    algorithms (:func:`inside_algorithms`), the minor page faults and
    object id look-ups per query over all rounds, and the last round's
    answers."""
    import resource

    best = [None] * len(queries)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    answers = []
    with inside_algorithms() as seen:
        for _ in range(repeats):
            answers = []
            for i, query in enumerate(queries):
                inside = seen["inside_s"]
                t0 = time.perf_counter()
                result = engine.query(query, QueryOptions())
                took = time.perf_counter() - t0
                answers.append((result.location, result.keywords, result.brstknn))
                if best[i] is None or took < best[i][0]:
                    stages = engine.last_flush_report.stages
                    split = {st.stage: st.time_s for st in stages}
                    split["outside"] = took - (seen["inside_s"] - inside)
                    best[i] = (took, split)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    n = len(queries)
    split = {
        phase: 1000 * sum(stages.get(phase, 0.0) for _, stages in best) / n
        for phase in ("traverse", "refine", "select", "outside")
    }
    return {
        "ms_per_query": 1000 * sum(took for took, _ in best) / n,
        "split_ms_per_query": split,
        "minor_faults_per_query": faults / (n * repeats),
        "object_look_ups_per_query": seen["look_ups"] / (n * repeats),
        "queries": n,
    }, answers


#: Algorithm 2's parts, in the order one refine runs them.
REFINE_PARTS = (
    "block0_matrix", "topk", "set_bounds", "later_blocks", "contenders",
    "exact_rescore", "table",
)

#: Largest ``max |matrix - exact| / guard`` the cold-query row (over
#: ``refine_guard``) and the select-flush rows (over ``select_guard``)
#: accept: each guard is four times its derived per-score error bound.
MAX_GUARD_RATIO = 0.25


def refine_split(engine, queries, repeats):
    """Algorithm 2's time in sequential cold ``engine.query`` calls, by
    part (:data:`REFINE_PARTS`), and how close its single-precision
    matrices come to the guard.

    The parts are cut from a timeline of one refine: its entry, the
    ends of the first ``candidate_score_matrix`` call (block 0, the
    pool's object-row look-up included), the span of
    ``set_bound_matrix``, of ``_contenders`` and of ``sts_pairs``, and
    the refine's exit — so they add up to the refine.  ``topk`` runs
    from block 0's end to the set bounds (block 0's partition and the
    reach); ``later_blocks`` from there to the contenders.  Per query
    the round with the fastest refine counts.  The ratio is ``max
    |candidate_score_matrix - sts_pairs|`` over every cell the refines
    scored, over ``DatasetArrays.refine_guard``."""
    import numpy as np

    from repro.core import partial

    spied = (
        (DatasetArrays, "candidate_score_matrix", "matrix"),
        (DatasetArrays, "set_bound_matrix", "set_bounds"),
        (DatasetArrays, "sts_pairs", "exact"),
        (joint_topk_module, "_contenders", "contenders"),
        (partial, "individual_topk", "refine"),
    )
    original = {label: owner.__dict__[name] for owner, name, label in spied}
    events, matrices = [], []

    def timed(label):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = original[label](*args, **kwargs)
            events.append((label, t0, time.perf_counter()))
            if label == "matrix":
                matrices.append((args, result))
            return result
        return wrapper

    def worst_error():
        """``max |matrix - exact| / refine_guard`` over the matrices
        kept since the last call, which it drops."""
        worst = 0.0
        for (arrays, obj_rows, *rows), scores in matrices:
            rows = np.arange(arrays.num_users) if not rows or rows[0] is None else rows[0]
            exact = original["exact"](
                arrays, np.tile(obj_rows, len(rows)), np.repeat(rows, len(obj_rows))
            ).reshape(scores.shape)
            if scores.size:
                worst = max(worst, float(np.abs(scores - exact).max()) / arrays.refine_guard)
        matrices.clear()
        return worst

    for owner, name, label in spied:
        setattr(owner, name, timed(label))
    best = [None] * len(queries)
    worst = 0.0
    checked = 0
    try:
        for _ in range(repeats):
            for i, query in enumerate(queries):
                events.clear()
                engine.query(query, QueryOptions())
                parts = _refine_parts(events)
                if best[i] is None or sum(parts.values()) < sum(best[i].values()):
                    best[i] = parts
                checked += len(matrices)
                worst = max(worst, worst_error())
    finally:
        for owner, name, label in spied:
            setattr(owner, name, original[label])
    n = len(queries)
    return {
        "ms_per_query": {
            part: 1000 * sum(parts[part] for parts in best) / n for part in REFINE_PARTS
        },
        "max_error_over_guard": worst,
        "matrices_checked": checked,
    }


def _refine_parts(events):
    """One refine's :data:`REFINE_PARTS` (seconds) from its timeline."""
    (start, end), = [(t0, t1) for name, t0, t1 in events if name == "refine"]
    spans = {}
    for name, t0, t1 in events:
        spans.setdefault(name, (t0, t1))
    block0 = spans["matrix"][1] if "matrix" in spans else start
    contenders = spans.get("contenders", (end, end))
    bounds = spans.get("set_bounds", (contenders[0], contenders[0]))
    exact_end = spans.get("exact", (contenders[1], contenders[1]))[1]
    return {
        "block0_matrix": block0 - start,
        "topk": bounds[0] - block0,
        "set_bounds": bounds[1] - bounds[0],
        "later_blocks": contenders[0] - bounds[1],
        "contenders": contenders[1] - contenders[0],
        "exact_rescore": exact_end - contenders[1],
        "table": end - exact_end,
    }


def refined_pairs(engine, queries):
    """Each query's ``(RSk(u), RSk(us))`` as a joint flush hands them
    to its select phase: the engine executor's traverse and refine (one
    walk at the largest k, or the larger pool it already holds)."""
    plan = plan_batch(QueryOptions(), engine.capabilities(), [q.k for q in queries])
    report = FlushReport(batch_size=len(queries))
    executor = engine._executor
    pool, group_by_k = executor._traverse(report, queries, plan)
    shared = executor._refine(report, queries, plan, pool, group_by_k)
    return [(entry.rsk, entry.rsk_group) for entry in shared]


def selection_passes(run):
    """``run()``'s result and what its selection passes did: the
    ``SS(l, u)`` rows computed (``DatasetArrays.spatial_matrix`` rows,
    summed over its calls); the largest ``|alpha * SS32 - alpha * SS| /
    select_guard`` over every cell of those calls, ``alpha * SS`` being
    the scalar float64 value (``_pairwise_norm`` on the float64
    coordinates, op for op ``Dataset.spatial_score``) and the guard the
    one the call returned; the in-band entries ``_banded`` handed to its
    scalar re-check; and ``_banded``'s wall time, those re-checks
    included."""
    import numpy as np

    kernel, banded = DatasetArrays.spatial_matrix, kernels._banded
    rows, worst, rechecks, banded_s = [], [0.0], [0], [0.0]

    def spy(self, locations):
        ss, guard = kernel(self, locations)
        rows.append(len(locations))
        ds = self.dataset
        xy = np.array([(loc.x, loc.y) for loc in locations]).reshape(len(locations), 2)
        d = kernels._pairwise_norm(
            self.user_xy[:, 0] - xy[:, 0:1], self.user_xy[:, 1] - xy[:, 1:2], ds.metric.p
        )
        exact = ds.alpha * np.maximum(0.0, np.minimum(1.0, 1.0 - d / ds.dmax))
        if ss.size:
            worst[0] = max(worst[0], float(np.abs(ss - exact).max()) / guard)
        return ss, guard

    def counted(scores, runs, exact, where=None):
        def recheck(i, j):
            rechecks[0] += 1
            return exact(i, j)

        t0 = time.perf_counter()
        try:
            return banded(scores, runs, recheck, where)
        finally:
            banded_s[0] += time.perf_counter() - t0

    DatasetArrays.spatial_matrix, kernels._banded = spy, counted
    try:
        result = run()
    finally:
        DatasetArrays.spatial_matrix, kernels._banded = kernel, banded
    return result, {
        "spatial_rows": sum(rows),
        "passes": len(rows),
        "max_error_over_guard": worst[0],
        "rechecks": rechecks[0],
        "banded_ms": 1000 * banded_s[0],
    }


def passes_within_guard(label, passes) -> bool:
    """Print one flush's :func:`selection_passes` figures; ``False`` (and
    a failure line) when a float32 ``alpha * SS`` cell is off its scalar
    value by more than ``MAX_GUARD_RATIO`` of its ``select_guard``."""
    print(
        f"{label}: max |alpha*SS32 - alpha*SS| / select_guard "
        f"{passes['max_error_over_guard']:.4f} over {passes['passes']} pass(es); "
        f"{passes['rechecks']} in-band scalar re-checks, _banded "
        f"{passes['banded_ms']:.3f} ms per flush",
        flush=True,
    )
    if passes["max_error_over_guard"] > MAX_GUARD_RATIO:
        print(
            f"GUARD FAILURE: a single-precision alpha * SS cell is off its scalar "
            f"value by {passes['max_error_over_guard']:.3f} guards (bound {MAX_GUARD_RATIO})"
        )
        return False
    return True


def refine_cells(traversal, dataset, k):
    """``(scored, one_shot)`` matrix cells of one engine refinement: what
    the block-wise per-user stop scored, and what the one-shot cut it
    replaced — ``LO`` + one block for everyone, then the prefix of
    ``RO`` the weakest user's k-th best still reaches, for everyone —
    would have on the same pool."""
    import numpy as np

    kernel = DatasetArrays.candidate_score_matrix
    scored = []

    def spy(self, obj_rows, rows=None):
        users = self.num_users if rows is None else len(rows)
        scored.append(len(obj_rows) * users)
        return kernel(self, obj_rows, rows)

    DatasetArrays.candidate_score_matrix = spy
    try:
        individual_topk(traversal, dataset, k)
    finally:
        DatasetArrays.candidate_score_matrix = kernel

    arrays = arrays_for(dataset)
    rows = traversal.pool.object_rows(arrays.objects)
    upper = traversal.pool.upper
    head = min(len(rows), traversal.n_lo + RO_BLOCK)
    reach = len(rows)
    if k <= head < len(rows):
        kth = np.partition(kernel(arrays, rows[:head]), head - k, axis=1)[:, head - k]
        floor = kth.min() - arrays.refine_guard
        reach = head + int(np.searchsorted(-upper[head:], -floor, side="right"))
    return sum(scored), arrays.num_users * reach


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULTS.num_objects)
    parser.add_argument("--users", type=int, default=DEFAULTS.num_users)
    parser.add_argument("--k", type=int, default=DEFAULTS.k)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale for CI (no 2x bar)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH")
    parser.add_argument("--max-slowdown", type=float, default=None,
                        help="fail if the engine is more than X times slower "
                             "than the oracle (CI regression gate)")
    args = parser.parse_args(argv)

    config = DEFAULTS.with_(
        num_objects=args.objects, num_users=args.users, k=args.k,
        seed=args.seed,
    )
    if args.tiny:
        config = config.with_(num_objects=300, num_users=40)
        args.repeats = max(args.repeats, 5)

    print(f"dataset: {config.label()}", flush=True)
    bench = build_workbench(config, cached=False)
    engine = MaxBRSTkNNEngine(
        bench.dataset, EngineConfig(fanout=config.fanout)
    )

    t0 = time.perf_counter()
    arrays = tree_arrays_for(engine.object_tree)
    build_s = time.perf_counter() - t0
    print(
        f"TreeArrays build: {1000 * build_s:.1f} ms "
        f"({arrays.num_entries} entries, {len(arrays.ent_term_np)} summary terms; "
        f"once per engine)"
    )

    # The paper's per-query setting: each query of the e2e shape cold,
    # timed first, while the heap is a fresh process's (later rows grow
    # it, and a grown heap hides the page faults a cold refine takes).
    cold_queries = e2e_queries(user_workload(bench, config), config)
    cold, cold_answers = time_cold_queries(engine, cold_queries, args.repeats)
    split = cold["split_ms_per_query"]
    print(
        f"cold-query engine: {cold['ms_per_query']:8.3f} ms/query  "
        f"(traverse {split['traverse']:.3f} / refine {split['refine']:.3f} / "
        f"select {split['select']:.3f} ms, outside the three algorithms "
        f"{split['outside']:.3f} ms; {cold['minor_faults_per_query']:.0f} "
        f"minor faults and {cold['object_look_ups_per_query']:g} object id "
        f"look-ups per query; {len(cold_queries)} sequential engine.query calls, "
        f"k in {{{','.join(map(str, FLUSH_KS))}}})",
        flush=True,
    )
    if cold["object_look_ups_per_query"]:
        print(
            "LOOK-UP FAILURE: an in-process cold query looked object ids up "
            "instead of reading the rows its walk handed the pool"
        )
        return 1
    cold_oracle = [
        (want.location, want.keywords, want.brstknn)
        for want in (oracle.query(engine, q, QueryOptions()) for q in cold_queries)
    ]
    if cold_answers != cold_oracle:
        print("EQUIVALENCE FAILURE: engine cold-query answers differ from oracle.query's")
        return 1
    print("equivalence check: engine cold queries identical to oracle.query's")
    refine = cold["refine_split"] = refine_split(engine, cold_queries, args.repeats)
    print(
        "cold-query refine split (ms/query): " + " / ".join(
            f"{part} {ms:.3f}" for part, ms in refine["ms_per_query"].items()
        ) + f"; max |matrix - exact| / guard {refine['max_error_over_guard']:.4f} "
        f"over {refine['matrices_checked']} matrices",
        flush=True,
    )
    if refine["max_error_over_guard"] > MAX_GUARD_RATIO:
        print(
            f"GUARD FAILURE: a single-precision score is off its exact STS by "
            f"{refine['max_error_over_guard']:.3f} guards (bound {MAX_GUARD_RATIO})"
        )
        return 1

    timings = {}
    results = {}
    for side in SIDES:
        elapsed, result = time_traversal(engine, config.k, side, args.repeats)
        timings[side] = elapsed
        results[side] = result
        pool = len(result.lo) + len(result.ro)
        print(
            f"traversal k={config.k} {side:<7}: "
            f"{1000 * elapsed:8.2f} ms  (candidate pool: {pool})",
            flush=True,
        )
    kept_wave_s, _ = time_traversal(engine, config.k, "engine", args.repeats, kept_wave=True)
    print(
        f"traversal k={config.k} engine, kept wave: {1000 * kept_wave_s:8.2f} ms  "
        "(every walk of a dataset epoch but its first)",
        flush=True,
    )
    speedup = timings["oracle"] / timings["engine"] if timings["engine"] else 0.0
    print(f"phase-1 speedup engine vs oracle: {speedup:.2f}x (wave built in the walk)")

    if not traversals_identical(results["oracle"], results["engine"]):
        print("EQUIVALENCE FAILURE: engine traversal pools differ from the oracle's")
        return 1
    print("equivalence check: engine pools bitwise-identical to the oracle's")

    refine_timings = {}
    handoff_timings = {}
    bounds_timings = {"oracle": None, "engine": time_frontier_bounds(engine, args.repeats)}
    ranked = {}
    thresholds = {}
    for side in SIDES:
        elapsed, table = time_refine(
            results[side], engine.dataset, config.k, side, args.repeats
        )
        refine_timings[side] = elapsed
        ranked[side] = {uid: res.ranked for uid, res in table.items()}
        handoff_timings[side], thresholds[side] = time_handoff(
            results[side], engine.dataset, config.k, side, args.repeats
        )
        print(
            f"refine    k={config.k} {side:<7}: "
            f"{1000 * elapsed:8.2f} ms  ({len(table)} users)",
            flush=True,
        )
    for side in SIDES:
        bounds = bounds_timings[side]
        print(
            f"hand-off  k={config.k} {side:<7}: individual_topk + "
            f"rsk(k) {1000 * handoff_timings[side]:8.2f} ms; frontier_bounds "
            + ("n/a (per entry, inside the scalar walk)" if bounds is None
               else f"{1000 * bounds:.2f} ms"),
            flush=True,
        )
    refine_speedup = (
        refine_timings["oracle"] / refine_timings["engine"]
        if refine_timings["engine"] else 0.0
    )
    print(f"refine speedup engine vs oracle: {refine_speedup:.2f}x")
    if ranked["oracle"] != ranked["engine"]:
        print("EQUIVALENCE FAILURE: engine per-user ranked lists differ from the oracle's")
        return 1
    if (
        thresholds["oracle"].ids.tolist() != thresholds["engine"].ids.tolist()
        or thresholds["oracle"].values.tolist() != thresholds["engine"].values.tolist()
    ):
        print("EQUIVALENCE FAILURE: engine RSk(u) vector differs from the oracle's")
        return 1
    print("equivalence check: engine ranked lists and RSk(u) identical to the oracle's")

    handoff = {}
    for k in (5, 10, 20):
        walk = joint_traversal(engine.object_tree, engine.dataset, k)
        scored, one_shot = refine_cells(walk, engine.dataset, k)
        blobs = {
            "engine": pickle.dumps(walk, protocol=pickle.HIGHEST_PROTOCOL),
            # The same pool as CandidateObjects, as objects would ship.
            "objects": pickle.dumps(list(walk.pool), protocol=pickle.HIGHEST_PROTOCOL),
        }
        pool = len(walk.pool)
        handoff[k] = {
            "pool": pool,
            "refine_cells_scored": scored,
            "refine_cells_one_shot": one_shot,
            "refine_cells_users_x_pool": len(engine.dataset.users) * pool,
            "pool_pickle_bytes": len(blobs["engine"]),
            "pool_pickle_bytes_objects": len(blobs["objects"]),
        }
        print(
            f"hand-off  k={k:<2}: refine scored {scored} cells "
            f"(one-shot cut {one_shot}, users x pool "
            f"{handoff[k]['refine_cells_users_x_pool']}); pool pickles to "
            f"{len(blobs['engine'])} B (as objects {len(blobs['objects'])} B)",
            flush=True,
        )
        if scored > one_shot:
            print(f"ACCEPTANCE FAILURE: k={k} block-wise stop scored more "
                  "cells than the one-shot cut")
            return 1
        if b"STObject" in blobs["engine"] or len(blobs["engine"]) >= len(blobs["objects"]):
            print(f"ACCEPTANCE FAILURE: k={k} engine pool does not ship as columns")
            return 1
    print("hand-off check: cells <= one-shot cut at every k; pools ship as columns")

    workload = user_workload(bench, config)
    mixed_ks = [1, 5, 10]
    queries = []
    for i, q in enumerate(
        query_pool(workload, len(mixed_ks) * 2, num_locations=5, ws=config.ws,
                   k=config.k, seed=config.seed, seed_stride=101)
    ):
        q.k = mixed_ks[i % len(mixed_ks)]
        queries.append(q)

    # Selection reads thresholds, never ``q.k``: the refine row's RSk(u)
    # at the default k serve the workbench query and the pool alike.
    select_timings = {}
    answers = {}
    selected = [bench.query] + queries
    for side in SIDES:
        elapsed, answers[side] = time_select(
            selected, engine.dataset,
            [(thresholds[side], results[side].rsk_group)] * len(selected),
            side, args.repeats,
        )
        select_timings[side] = elapsed
        print(
            f"select    k={config.k} {side:<7}: "
            f"{1000 * elapsed:8.2f} ms  ({len(answers[side])} queries)",
            flush=True,
        )
    select_speedup = (
        select_timings["oracle"] / select_timings["engine"]
        if select_timings["engine"] else 0.0
    )
    print(f"select speedup engine vs oracle: {select_speedup:.2f}x")
    if answers["oracle"] != answers["engine"]:
        print("EQUIVALENCE FAILURE: engine selection answers differ from the oracle's")
        return 1
    print("equivalence check: engine selections identical to the oracle's")

    # The stacked pass a select payload runs: every query in one batch.
    select_batch_timings = {"oracle": select_timings["oracle"]}
    select_batch_timings["engine"], stacked = time_select(
        selected, engine.dataset,
        [(thresholds["engine"], results["engine"].rsk_group)] * len(selected),
        "engine", args.repeats, stacked=True,
    )
    for side in SIDES:
        print(
            f"select-batch k={config.k} {side:<7}: "
            f"{1000 * select_batch_timings[side]:8.2f} ms  ({len(stacked)} queries"
            + (", one SelectionBatch)" if side == "engine" else ", one by one)"),
            flush=True,
        )
    select_batch_speedup = (
        select_batch_timings["oracle"] / select_batch_timings["engine"]
        if select_batch_timings["engine"] else 0.0
    )
    print(f"select-batch speedup engine vs oracle: {select_batch_speedup:.2f}x")
    if stacked != answers["oracle"]:
        print("EQUIVALENCE FAILURE: engine stacked selection answers differ "
              "from the oracle's per-query answers")
        return 1
    print("equivalence check: engine stacked selections identical to the oracle's")

    # The same queries at their own ks (cycling over mixed_ks), each
    # reading its k's thresholds: one SelectionBatch across k — what a
    # select payload dealt over a mixed-k flush runs.
    mixed_pairs = refined_pairs(engine, selected)
    select_mixed_timings, mixed_answers = {}, {}
    for side in SIDES:
        select_mixed_timings[side], mixed_answers[side] = time_select(
            selected, engine.dataset, mixed_pairs, side, args.repeats,
            stacked=side == "engine",
        )
        print(
            f"select-batch mixed-k {side:<7}: "
            f"{1000 * select_mixed_timings[side]:8.2f} ms  ({len(selected)} "
            f"queries, k in {{{','.join(map(str, sorted({q.k for q in selected})))}}}"
            + (", one SelectionBatch)" if side == "engine" else ", one by one)"),
            flush=True,
        )
    if mixed_answers["engine"] != mixed_answers["oracle"]:
        print("EQUIVALENCE FAILURE: engine mixed-k stacked selection answers "
              "differ from the oracle's per-query answers")
        return 1
    print("equivalence check: engine mixed-k stacked selections identical to the oracle's")

    # The warm select of a served flush: 8 queries of the e2e shape (one
    # keyword side) as one SelectionBatch, each reading its own k's
    # thresholds — and the same flush with no side repeated.  Every run
    # builds its sides (time_select bumps the epoch), so a row's
    # keyword-side share is what a stored side saves a flush of it.
    flush = e2e_queries(workload, config)
    flush_mix, pairs_of = {}, {}
    for mix, mix_queries in (("shared", flush), ("mixed", mixed_sides(flush, config.seed))):
        n_sides = len({_keyword_side(q) for q in mix_queries})
        assert n_sides == (1 if mix == "shared" else len(mix_queries))
        mix_pairs = pairs_of[mix] = refined_pairs(engine, mix_queries)
        mix_s, mix_answers = time_select(
            mix_queries, engine.dataset, mix_pairs, "engine", args.repeats, stacked=True,
        )
        cost = keyword_side_cost(engine.dataset, lambda: time_select(
            mix_queries, engine.dataset, mix_pairs, "engine", 1, stacked=True,
        ))
        flush_mix[mix] = {
            "keyword_sides": n_sides,
            "ms_per_query": 1000 * mix_s / len(mix_queries),
            **cost,
        }
        print(
            f"select-flush engine {mix:<6}: {flush_mix[mix]['ms_per_query']:8.3f} ms/query  "
            f"({len(mix_queries)} queries x {len(mix_queries[0].locations)} locations, "
            f"k in {{{','.join(map(str, FLUSH_KS))}}}, one SelectionBatch; "
            f"{n_sides} keyword side(s), {100 * cost['side_share']:.1f}% of the flush, "
            f"side map hits {cost['side_hits']} misses {cost['side_misses']} per flush)",
            flush=True,
        )
        _, mix_oracle = time_select(mix_queries, engine.dataset, mix_pairs, "oracle", 1)
        if mix_answers != mix_oracle:
            print(f"EQUIVALENCE FAILURE: engine select-flush {mix} answers differ "
                  "from oracle.select_candidate's")
            return 1
        _, flush_mix[mix]["passes"] = selection_passes(lambda: time_select(
            mix_queries, engine.dataset, mix_pairs, "engine", 1, stacked=True,
        ))
        if not passes_within_guard(f"select-flush engine {mix}", flush_mix[mix]["passes"]):
            return 1
    flush_ms_per_query = flush_mix["shared"]["ms_per_query"]
    rows_per_location = flush_mix["shared"]["passes"]["spatial_rows"] / sum(
        len(q.locations) for q in flush
    )
    print(f"select-flush engine shared: {rows_per_location:.3f} spatial rows per location",
          flush=True)
    if rows_per_location > 1:
        print(f"ACCEPTANCE FAILURE: select-flush computed {rows_per_location:.3f} "
              "spatial rows per location (a pass computes each row once)")
        return 1
    print("equivalence check: engine select-flush identical to the oracle's, "
          "shared and mixed keyword sides; one spatial row per location at most")

    # The shared flush again with Algorithm 4 choosing the keywords: the
    # same one SelectionBatch and block search, the exact selector.
    flush_exact, exact_answers = {}, {}
    for side in SIDES:
        flush_exact[side], exact_answers[side] = time_select(
            flush, engine.dataset, pairs_of["shared"], side, args.repeats,
            stacked=side == "engine", method="exact",
        )
        print(
            f"select-flush exact {side:<7}: "
            f"{1000 * flush_exact[side] / len(flush):8.3f} ms/query  "
            f"({len(flush)} queries, "
            + ("one SelectionBatch)" if side == "engine" else "one by one)"),
            flush=True,
        )
    if exact_answers["engine"] != exact_answers["oracle"]:
        print("EQUIVALENCE FAILURE: engine select-flush exact answers differ "
              "from oracle.select_candidate(method='exact')'s")
        return 1
    _, exact_passes = selection_passes(lambda: time_select(
        flush, engine.dataset, pairs_of["shared"], "engine", 1, stacked=True,
        method="exact",
    ))
    if not passes_within_guard("select-flush exact engine", exact_passes):
        return 1
    print("equivalence check: engine select-flush exact identical to the oracle's")

    # Where stacking cannot share: every query its own keyword side
    # (its own ox.d term and ws), one by one vs one SelectionBatch.
    terms = queries[0].keywords
    distinct = [
        dataclasses.replace(
            q, ox=dataclasses.replace(q.ox, terms={terms[i % len(terms)]: 1}),
            ws=1 + (i // len(terms)) % 3,
        )
        for i, q in enumerate(selected)
    ]
    assert len({_keyword_side(q) for q in distinct}) == len(distinct)
    distinct_pairs = [(thresholds["engine"], results["engine"].rsk_group)] * len(distinct)
    distinct_timings, distinct_answers = {}, {}
    for label, stack in (("one-by-one", False), ("stacked", True)):
        distinct_timings[label], distinct_answers[label] = time_select(
            distinct, engine.dataset, distinct_pairs, "engine", args.repeats,
            stacked=stack,
        )
        print(
            f"select distinct sides engine {label:<10}: "
            f"{1000 * distinct_timings[label]:8.2f} ms  ({len(distinct)} queries, "
            f"{len(distinct)} keyword sides)",
            flush=True,
        )
    _, distinct_oracle = time_select(
        distinct, engine.dataset, distinct_pairs, "oracle", 1,
    )
    if any(got != distinct_oracle for got in distinct_answers.values()):
        print("EQUIVALENCE FAILURE: engine distinct-side selection answers "
              "differ from the oracle's")
        return 1
    print("equivalence check: engine distinct-side selections identical to the oracle's")

    # Cross-k pool sharing: one walk serves a whole mixed-k batch.
    sequential = [oracle.query(engine, q, QueryOptions()) for q in queries]
    engine.clear_topk_cache()
    runs_before = engine.traversal_runs
    t0 = time.perf_counter()
    batched = engine.query_batch(queries, QueryOptions())
    batch_s = time.perf_counter() - t0
    walks = engine.traversal_runs - runs_before
    mismatches = sum(
        1
        for solo, bat in zip(sequential, batched)
        if (
            solo.location != bat.location
            or solo.keywords != bat.keywords
            or solo.brstknn != bat.brstknn
        )
    )
    print(
        f"mixed-k batch (k in {{{','.join(map(str, mixed_ks))}}}, "
        f"{len(queries)} queries): {walks} traversal(s), "
        f"{1000 * batch_s:.1f} ms total"
    )
    if walks != 1:
        print(f"ACCEPTANCE FAILURE: expected exactly 1 shared traversal, ran {walks}")
        return 1
    if mismatches:
        print(f"EQUIVALENCE FAILURE: {mismatches} batched results differ")
        return 1
    print("cross-k check: one walk, results identical to per-k sequential")

    if args.json:
        payload = {
            "benchmark": "traversal",
            "dataset": config.label(),
            "k": config.k,
            "tree_arrays_build_s": build_s,
            "traversal_s": timings,
            "traversal_kept_wave_s": kept_wave_s,
            "speedup_numpy": speedup,
            "refine_s": refine_timings,
            "refine_speedup_numpy": refine_speedup,
            "handoff_s": handoff_timings,
            "frontier_bounds_s": bounds_timings,
            "handoff": handoff,
            "select_s": select_timings,
            "select_speedup_numpy": select_speedup,
            "select_batch_s": select_batch_timings,
            "select_batch_speedup_numpy": select_batch_speedup,
            "select_batch_mixed_k_s": select_mixed_timings,
            "select_distinct_sides_s": distinct_timings,
            "select_flush_ms_per_query": flush_ms_per_query,
            "select_flush_spatial_rows_per_location": rows_per_location,
            "select_flush_keyword_sides": flush_mix,
            "select_flush_exact_s": flush_exact,
            "select_flush_exact_ms_per_query": {
                side: 1000 * took / len(flush) for side, took in flush_exact.items()
            },
            "select_flush_exact_passes": exact_passes,
            "cold_query": cold,
            "mixed_k": {
                "ks": mixed_ks,
                "queries": len(queries),
                "traversals": walks,
                "batch_s": batch_s,
            },
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    for phase, took in (
        ("traversal", timings), ("refine", refine_timings), ("select", select_timings),
        ("select-batch", select_batch_timings),
        ("select-batch mixed-k", select_mixed_timings),
        ("select-flush exact", flush_exact),
    ):
        if args.max_slowdown is not None and took["engine"] > args.max_slowdown * took["oracle"]:
            print(
                f"REGRESSION: {phase} engine {1000 * took['engine']:.2f} ms is more "
                f"than {args.max_slowdown:.2f}x slower than the oracle "
                f"{1000 * took['oracle']:.2f} ms"
            )
            return 1
    if not args.tiny and speedup < 2.0:
        print("ACCEPTANCE FAILURE: phase-1 speedup below 2x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
