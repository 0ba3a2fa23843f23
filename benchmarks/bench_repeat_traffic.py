"""Cross-flush result cache under Zipf-repeated query traffic.

Not a paper figure — this benchmarks the PR 6 serving-layer result
cache (:mod:`repro.core.cache`).  Real serving traffic repeats itself:
a small set of hot queries dominates the stream.  This harness samples
a stream of ``--stream`` queries from a pool of ``--pool`` distinct
queries with Zipf rank weights (``1 / (rank + 1) ** s``), then serves
the same stream three ways through :class:`MaxBRSTkNNServer`:

* **uncached** — every occurrence pays a full flush (the PR 5 serving
  model);
* **cached, cold** — first occurrences miss and populate the cache,
  repeats hit (the realistic steady state);
* **cached, hot** — a second pass over the stream against the warm
  cache, isolating pure cache-hit serving throughput.

Every served result — cached and fresh alike — is compared against a
reference computed once per distinct query by the oracle
(``repro.oracle.query``) on an independent engine, so a cache keying bug
cannot pass.

Run::

    python benchmarks/bench_repeat_traffic.py            # full run
    python benchmarks/bench_repeat_traffic.py --tiny     # CI smoke

Exits non-zero if any served result differs from the sequential
reference, if the hot pass hit rate falls below ``--min-hit-rate``
(the warm cache must answer every repeat), or — full runs only — if
cache-hot serving fails the >= 5x queries/sec acceptance bar over
uncached serving.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import random
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import MaxBRSTkNNEngine, QueryOptions, oracle  # noqa: E402
from repro.bench.harness import build_workbench  # noqa: E402
from repro.bench.metrics import percentile  # noqa: E402
from repro.bench.params import DEFAULTS  # noqa: E402
from repro.core.config import CachePolicy  # noqa: E402
from repro.datagen.users import generate_users, query_pool  # noqa: E402
from repro.serve import MaxBRSTkNNServer, ServerConfig  # noqa: E402


def zipf_stream(pool_size: int, length: int, s: float, seed: int):
    """Indices into the pool, rank-weighted ``1 / (rank + 1) ** s``."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** s for rank in range(pool_size)]
    # Every distinct query appears at least once so the identity check
    # exercises the whole pool; the rest of the stream is Zipf draws.
    head = list(range(pool_size))
    tail = rng.choices(range(pool_size), weights=weights, k=max(0, length - pool_size))
    stream = head + tail
    rng.shuffle(stream)
    return stream[:length]


def run_pass(server_args, queries, concurrency):
    """Serve ``queries`` through closed-loop clients on a fresh server.

    ``server_args`` is ``(engine, config)`` — or an existing server to
    reuse (keeping its warm cache across passes).
    """
    latencies = []
    results = [None] * len(queries)
    chunks = [list(enumerate(queries))[i::concurrency] for i in range(concurrency)]

    async def client(server, chunk):
        for idx, query in chunk:
            t0 = time.perf_counter()
            results[idx] = await server.submit(query)
            latencies.append(time.perf_counter() - t0)

    async def main():
        engine, config = server_args
        async with MaxBRSTkNNServer(engine, config) as server:
            t0 = time.perf_counter()
            await asyncio.gather(*(client(server, chunk) for chunk in chunks if chunk))
            return time.perf_counter() - t0, server.stats, server.stats_snapshot()

    elapsed, stats, snapshot = asyncio.run(main())
    return elapsed, sorted(latencies), stats, snapshot, results


def run_cached_passes(engine, config, stream_queries, concurrency):
    """Cold + hot cached passes over one server (the cache persists)."""
    outputs = []

    async def main():
        async with MaxBRSTkNNServer(engine, config) as server:
            for label in ("cached cold", "cached hot"):
                hits0 = server.stats.cache_hits
                misses0 = server.stats.cache_misses
                latencies = []
                results = [None] * len(stream_queries)
                chunks = [
                    list(enumerate(stream_queries))[i::concurrency]
                    for i in range(concurrency)
                ]

                async def client(chunk):
                    for idx, query in chunk:
                        t0 = time.perf_counter()
                        results[idx] = await server.submit(query)
                        latencies.append(time.perf_counter() - t0)

                t0 = time.perf_counter()
                await asyncio.gather(*(client(chunk) for chunk in chunks if chunk))
                elapsed = time.perf_counter() - t0
                hits = server.stats.cache_hits - hits0
                misses = server.stats.cache_misses - misses0
                outputs.append(
                    (label, elapsed, sorted(latencies), hits, misses, results)
                )
            return server.stats_snapshot()

    snapshot = asyncio.run(main())
    return outputs, snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=DEFAULTS.num_objects)
    parser.add_argument("--users", type=int, default=DEFAULTS.num_users)
    parser.add_argument("--locations", type=int, default=DEFAULTS.num_locations)
    parser.add_argument("--k", type=int, default=DEFAULTS.k)
    parser.add_argument("--seed", type=int, default=DEFAULTS.seed)
    parser.add_argument("--pool", type=int, default=24,
                        help="distinct queries in the pool")
    parser.add_argument("--stream", type=int, default=192,
                        help="total stream length (Zipf draws from the pool)")
    parser.add_argument("--zipf-s", type=float, default=1.1,
                        help="Zipf skew exponent (higher = hotter head)")
    parser.add_argument("--concurrency", type=int, default=16)
    parser.add_argument("--min-hit-rate", type=float, default=0.99,
                        help="required hit rate on the cache-hot pass")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale for CI")
    parser.add_argument("--no-verify", action="store_true")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write machine-readable results to PATH "
                             "(CI uploads these as artifacts)")
    args = parser.parse_args(argv)

    config = DEFAULTS.with_(
        num_objects=args.objects,
        num_users=args.users,
        num_locations=args.locations,
        k=args.k,
        seed=args.seed,
    )
    if args.tiny:
        config = config.with_(num_objects=300, num_users=40, num_locations=5)
        args.pool = 8
        args.stream = 48
        args.concurrency = 8

    print(f"dataset: {config.label()}  "
          f"(pool={args.pool}, stream={args.stream}, zipf_s={args.zipf_s}, "
          f"concurrency={args.concurrency})", flush=True)
    bench = build_workbench(config, cached=False)
    engine = MaxBRSTkNNEngine(bench.dataset, fanout=config.fanout)
    workload = generate_users(
        bench.dataset.objects,
        num_users=config.num_users,
        keywords_per_user=config.ul,
        unique_keywords=config.uw,
        area_side=config.area,
        seed=config.seed,
    )
    pool = query_pool(
        workload, args.pool, num_locations=config.num_locations, ws=config.ws,
        k=config.k, seed=config.seed, seed_stride=101,
    )
    stream = zipf_stream(args.pool, args.stream, args.zipf_s, args.seed)
    stream_queries = [pool[i] for i in stream]
    options = QueryOptions()

    # Reference answers, one per *distinct* query: the oracle's on an
    # independent engine (no shared pools or caches).
    reference = None
    if not args.no_verify:
        ref_engine = MaxBRSTkNNEngine(
            bench.dataset, fanout=config.fanout, object_tree=engine.object_tree
        )
        reference = [oracle.query(ref_engine, q, options) for q in pool]

    def check(label, results):
        if reference is None:
            return 0
        mismatches = sum(
            1
            for idx, served in zip(stream, results)
            if (
                served.location != reference[idx].location
                or served.keywords != reference[idx].keywords
                or served.brstknn != reference[idx].brstknn
            )
        )
        if mismatches:
            print(f"EQUIVALENCE FAILURE [{label}]: {mismatches} of "
                  f"{len(results)} served results differ from sequential")
        return mismatches

    print(f"\n{'pass':<18} {'q/s':>9} {'p50 ms':>8} {'p95 ms':>8} "
          f"{'hits':>6} {'misses':>7} {'hit rate':>9}")

    rows = []
    failures = 0

    engine.clear_topk_cache()
    base_config = ServerConfig(options=options)
    elapsed, lats, _, _, results = run_pass((engine, base_config), stream_queries,
                                            args.concurrency)
    uncached_qps = len(stream_queries) / elapsed
    failures += check("uncached", results)
    rows.append({"pass": "uncached", "queries_per_sec": uncached_qps,
                 "p50_ms": 1000 * percentile(lats, 0.5),
                 "p95_ms": 1000 * percentile(lats, 0.95),
                 "cache_hits": 0, "cache_misses": len(stream_queries),
                 "hit_rate": 0.0})
    print(f"{'uncached':<18} {uncached_qps:>9.1f} "
          f"{1000 * percentile(lats, 0.5):>8.1f} "
          f"{1000 * percentile(lats, 0.95):>8.1f} "
          f"{0:>6} {len(stream_queries):>7} {'—':>9}")

    engine.clear_topk_cache()
    cached_config = ServerConfig(
        options=options, cache=CachePolicy(max_entries=4 * args.pool)
    )
    passes, snapshot = run_cached_passes(
        engine, cached_config, stream_queries, args.concurrency
    )
    hot_qps = 0.0
    hot_hit_rate = 0.0
    for label, elapsed, lats, hits, misses, results in passes:
        qps = len(stream_queries) / elapsed
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        failures += check(label, results)
        if label == "cached hot":
            hot_qps, hot_hit_rate = qps, hit_rate
        rows.append({"pass": label, "queries_per_sec": qps,
                     "p50_ms": 1000 * percentile(lats, 0.5),
                     "p95_ms": 1000 * percentile(lats, 0.95),
                     "cache_hits": hits, "cache_misses": misses,
                     "hit_rate": hit_rate})
        print(f"{label:<18} {qps:>9.1f} "
              f"{1000 * percentile(lats, 0.5):>8.1f} "
              f"{1000 * percentile(lats, 0.95):>8.1f} "
              f"{hits:>6} {misses:>7} {hit_rate:>9.2%}")

    speedup = hot_qps / uncached_qps if uncached_qps else float("inf")
    print(f"\ncache-hot vs uncached: {speedup:.2f}x queries/sec "
          f"(threshold warm tier: {snapshot.get('cache_threshold_hits', 0)} "
          f"misses at an already-walked k)")

    if args.json:
        payload = {
            "benchmark": "repeat_traffic",
            "dataset": config.label(),
            "pool": args.pool,
            "stream": len(stream_queries),
            "zipf_s": args.zipf_s,
            "concurrency": args.concurrency,
            "passes": rows,
            "hot_hit_rate": hot_hit_rate,
            "hot_speedup_vs_uncached": speedup,
            "cache_threshold_hits": snapshot.get("cache_threshold_hits", 0),
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if failures:
        return 1
    if reference is not None:
        print(f"equivalence check: all 3 passes == sequential on "
              f"{len(stream_queries)}-query stream ({args.pool} distinct)")
    if hot_hit_rate < args.min_hit_rate:
        print(f"ACCEPTANCE FAILURE: hot-pass hit rate {hot_hit_rate:.2%} "
              f"below {args.min_hit_rate:.2%}")
        return 1
    if not args.tiny and speedup < 5.0:
        print("ACCEPTANCE FAILURE: cache-hot speedup below 5x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
