"""Batch query engine throughput: queries/sec vs batch size.

Not a paper figure — this benchmarks the batch subsystem added on top
of the reproduction.  For each batch size ``b`` the engine answers the
first ``b`` of a fixed pool of generated queries through
``engine.query_batch`` with a *cold* shared-top-k cache, so every batch
pays the query-independent top-k phase exactly once; batch size 1 is
therefore the sequential ``engine.query`` cost.  The headline number is
the speedup of batch-64 queries/sec over batch-1 queries/sec (expected
well above 3x: the shared phase dominates a single query).

Run::

    python benchmarks/bench_batch_throughput.py            # full sweep
    python benchmarks/bench_batch_throughput.py --tiny     # CI smoke
    python benchmarks/bench_batch_throughput.py --tiny --shards 2

``--shards N`` (N >= 2) builds the engine through ``make_engine`` and
deals every batch over N full-dataset lanes (one fork worker each).

The script exits non-zero if any batch produces results that differ
from the oracle's sequential answers (``repro.oracle.query``, a built-in
equivalence check).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import MaxBRSTkNNEngine, QueryOptions, oracle  # noqa: E402
from repro.bench.harness import build_workbench  # noqa: E402
from repro.bench.params import DEFAULTS  # noqa: E402
from repro.core.config import EngineConfig  # noqa: E402
from repro.datagen.users import query_pool  # noqa: E402
from repro.serve import make_engine  # noqa: E402


def make_queries(workload, config, count: int):
    """A pool of distinct queries (fresh candidate locations each)."""
    return query_pool(
        workload, count, num_locations=config.num_locations, ws=config.ws,
        k=config.k, seed=config.seed, seed_stride=101,
    )


def time_batch(engine, queries, method, repeats):
    """Best-of-N wall time for one cold batch call."""
    best = float("inf")
    results = None
    for _ in range(repeats):
        engine.clear_topk_cache()
        t0 = time.perf_counter()
        results = engine.query_batch(queries, QueryOptions(method=method))
        best = min(best, time.perf_counter() - t0)
    return best, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULTS.num_objects)
    parser.add_argument("--users", type=int, default=DEFAULTS.num_users)
    parser.add_argument("--locations", type=int, default=DEFAULTS.num_locations)
    parser.add_argument("--measure", default=DEFAULTS.measure)
    parser.add_argument("--k", type=int, default=DEFAULTS.k)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)
    parser.add_argument("--method", choices=["approx", "exact"], default="approx")
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="deal each batch over N full-dataset lanes (1 = in-process)",
    )
    parser.add_argument(
        "--batch-sizes",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8, 16, 32, 64, 128, 256],
    )
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test scale for CI (small dataset, batch sizes 1/4/16)",
    )
    parser.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the batch-vs-sequential equivalence check",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write machine-readable results to PATH (CI uploads these "
        "as artifacts to track the perf trajectory across PRs)",
    )
    args = parser.parse_args(argv)
    if args.shards < 1:
        parser.error("--shards must be >= 1")

    config = DEFAULTS.with_(
        num_objects=args.objects,
        num_users=args.users,
        num_locations=args.locations,
        measure=args.measure,
        k=args.k,
        seed=args.seed,
    )
    if args.tiny:
        config = config.with_(num_objects=300, num_users=40, num_locations=5)
        if args.batch_sizes != parser.get_default("batch_sizes"):
            print("note: --tiny overrides --batch-sizes with [1, 4, 16]")
        args.batch_sizes = [1, 4, 16]
        args.repeats = 1

    print(f"dataset: {config.label()}", flush=True)
    bench = build_workbench(config, cached=False)
    engine = make_engine(
        bench.dataset,
        EngineConfig(fanout=config.fanout, num_shards=args.shards),
    )
    # The workbench query object is regenerated per query below.
    from repro.datagen.users import generate_users
    workload = generate_users(
        bench.dataset.objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )
    queries = make_queries(workload, config, max(args.batch_sizes))

    rows = []
    lanes = engine.start_pools() if args.shards > 1 else contextlib.nullcontext()
    with lanes:
        for size in args.batch_sizes:
            elapsed, results = time_batch(
                engine, queries[:size], args.method, args.repeats
            )
            qps = size / elapsed if elapsed > 0 else float("inf")
            rows.append((size, elapsed, qps, results))
            print(
                f"batch {size:>4}: {1000 * elapsed:8.1f} ms total  "
                f"{1000 * elapsed / size:7.2f} ms/query  {qps:8.2f} queries/sec",
                flush=True,
            )

    base_qps = rows[0][2]
    print(f"\nspeedup vs batch size {rows[0][0]}:")
    for size, _, qps, _ in rows:
        print(f"batch {size:>4}: {qps / base_qps:6.2f}x")

    if args.json:
        payload = {
            "benchmark": "batch_throughput",
            "dataset": config.label(),
            "method": args.method,
            "shards": args.shards,
            "rows": [
                {
                    "batch_size": size,
                    "total_s": elapsed,
                    "queries_per_sec": qps,
                    "speedup_vs_batch_1": qps / base_qps,
                }
                for size, elapsed, qps, _ in rows
            ],
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not args.no_verify:
        largest = rows[-1]
        # An independent single engine (sharing only the immutable
        # object tree): no memoized pool crosses the comparison.
        reference = MaxBRSTkNNEngine(
            bench.dataset, EngineConfig(fanout=config.fanout),
            object_tree=engine.object_tree,
        )
        mismatches = 0
        for q, batched in zip(queries[: largest[0]], largest[3]):
            solo = oracle.query(reference, q, QueryOptions(method=args.method))
            if (
                solo.location != batched.location
                or solo.keywords != batched.keywords
                or solo.brstknn != batched.brstknn
            ):
                mismatches += 1
        if mismatches:
            print(f"EQUIVALENCE FAILURE: {mismatches} mismatching queries")
            return 1
        print(f"equivalence check: batch == sequential on {largest[0]} queries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
