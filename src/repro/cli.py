"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``        run a MaxBRSTkNN query on a generated workload and print
                the result plus per-phase stats;
``batch``       answer a batch of queries through ``query_batch`` and
                print throughput (queries/sec) vs sequential;
``serve``       start a :class:`MaxBRSTkNNServer`, submit concurrent
                queries through the async micro-batching front-end, and
                print latency percentiles plus server stats
                (``--transport socket`` scatters to shard-host
                processes over TCP instead of forked local hosts);
``shard-host``  serve shard scatter rounds over TCP: one process per
                host, rebuilt from the same workload spec as the
                coordinator;
``report``      shortcut to :mod:`repro.bench.report`;
``stats``       print Table 4-style statistics of a generated dataset.

All query commands build one :class:`repro.core.config.QueryOptions`
from their flags; ``--shards N`` builds the engine through
:func:`repro.serve.sharded.make_engine`, whose lanes are the only
worker processes a query reaches.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import math
import sys
import time
from typing import List

from . import MaxBRSTkNNEngine, MaxBRSTkNNQuery
from .core.config import CachePolicy, EngineConfig, QueryOptions
from .datagen import query_pool

__all__ = ["main"]


def _make_workload(args):
    # The canonical builder (shared with shard hosts and the multi-host
    # bench): the same spec on any process yields a bitwise-identical
    # dataset, which is what multi-host serving relies on.
    from .serve.shardhost import make_workload, workload_spec_from_args

    return make_workload(workload_spec_from_args(args))


def _query_options(args) -> QueryOptions:
    """One QueryOptions from the shared CLI flags."""
    return QueryOptions(method=args.method, mode=getattr(args, "mode", "joint"))


#: Why worker flags need lanes (the server's refusal says the same).
_FAULTS = ("none, kill-worker[:N], hang-task[:N[:S]], shard-exception[:K], "
           "pool-loss, drop-frame[:N], stall-read[:N[:S]] or refuse-accept")

_NEEDS_LANES = ("worker processes belong to the lanes of "
                "make_engine(..., EngineConfig(num_shards=N)); pass --shards N "
                "(N >= 2)")


def _make_query_pool(workload, args, count: int) -> List[MaxBRSTkNNQuery]:
    """Distinct queries (fresh candidate locations each)."""
    return query_pool(
        workload, count, num_locations=args.locations, ws=args.ws, k=args.k,
        seed=args.seed,
    )


def _cmd_demo(args) -> int:
    dataset, workload = _make_workload(args)
    engine = MaxBRSTkNNEngine(
        dataset, EngineConfig(index_users=(args.mode == "indexed"))
    )
    options = _query_options(args)
    query = MaxBRSTkNNQuery(
        ox=workload.query_object(),
        locations=workload.locations,
        keywords=workload.candidate_keywords,
        ws=args.ws,
        k=args.k,
    )
    if args.explain:
        print(engine.plan(options).explain())
    t0 = time.perf_counter()
    result = engine.query(query, options)
    elapsed = time.perf_counter() - t0
    print(result.summary())
    print(f"total runtime: {1000 * elapsed:.1f} ms "
          f"(top-k {1000 * result.stats.topk_time_s:.1f} ms, "
          f"selection {1000 * result.stats.selection_time_s:.1f} ms)")
    print(f"simulated I/O: {result.stats.io_total} "
          f"({result.stats.io_node_visits} node visits, "
          f"{result.stats.io_invfile_blocks} list blocks)")
    if args.mode == "indexed":
        print(f"users pruned: {result.stats.users_pruned} / "
              f"{result.stats.users_total} "
              f"({result.stats.users_pruned_pct:.1f}%)")
    return 0


def _cmd_batch(args) -> int:
    """Answer ``--batch-size`` queries as one batch and report throughput.

    ``--shards N`` (N >= 2) deals the batch over N full-dataset lanes,
    one forked shard host each, for the duration of the call.
    """
    from .serve import make_engine

    if args.shards < 1:
        print("batch: --shards must be >= 1", file=sys.stderr)
        return 2
    dataset, workload = _make_workload(args)
    engine = make_engine(dataset, EngineConfig(num_shards=args.shards))
    options = _query_options(args)
    queries = _make_query_pool(workload, args, args.batch_size)
    ks = [q.k for q in queries]
    try:
        # Plan before forking: an impossible request (baseline over
        # lanes, indexed without a user tree) is refused up front.
        engine.plan(options, ks=ks)
    except ValueError as exc:
        print(f"batch: {exc}", file=sys.stderr)
        return 2
    lanes = engine.start_pools() if args.shards > 1 else contextlib.nullcontext()
    with lanes:
        if args.explain:  # after the fork: the plan names the lanes
            print(engine.plan(options, ks=ks).explain())
        t0 = time.perf_counter()
        results = engine.query_batch(queries, options)
        elapsed = time.perf_counter() - t0
    for i, result in enumerate(results[: args.show]):
        print(f"[{i}] {result.summary()}")
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(f"batch of {len(queries)}: {1000 * elapsed:.1f} ms total, "
          f"{qps:.1f} queries/sec (shards={args.shards})")
    return 0


def _cmd_serve(args) -> int:
    """Serve concurrent queries through the async micro-batching server."""
    from .bench.metrics import percentile
    from .serve import (
        DeadlinePolicy,
        MaxBRSTkNNServer,
        RetryPolicy,
        ServerConfig,
        make_engine,
    )
    from .serve.faults import parse_fault

    if args.queries < 1:
        print("serve: --queries must be >= 1", file=sys.stderr)
        return 2
    if args.shards < 1:
        print("serve: --shards must be >= 1", file=sys.stderr)
        return 2
    if args.shards > 1 and args.mode == "baseline":
        print("serve: --shards requires --mode joint or --mode indexed",
              file=sys.stderr)
        return 2
    try:
        max_wait_ms = "auto" if args.max_wait_ms == "auto" else float(args.max_wait_ms)
        if max_wait_ms != "auto" and not (
            math.isfinite(max_wait_ms) and max_wait_ms >= 0
        ):
            raise ValueError
    except ValueError:
        print(f"serve: --max-wait-ms must be a finite number >= 0 or 'auto', "
              f"got {args.max_wait_ms!r}", file=sys.stderr)
        return 2
    if args.cache_entries < 1:
        print("serve: --cache-entries must be >= 1", file=sys.stderr)
        return 2
    if args.pool_workers > 0 and args.shards < 2:
        print(f"serve: --pool-workers needs lanes: {_NEEDS_LANES}",
              file=sys.stderr)
        return 2
    try:
        faults = parse_fault(args.fault)
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    if faults is not None and (args.shards < 2 or args.pool_workers < 1):
        print(f"serve: --fault is injected into the lanes' local hosts and "
              f"needs --shards >= 2 --pool-workers >= 1: {_NEEDS_LANES}",
              file=sys.stderr)
        return 2
    if args.transport == "socket":
        if not args.hosts:
            print("serve: --transport socket needs --hosts host:port[,...]",
                  file=sys.stderr)
            return 2
        if args.shards < 2:
            print("serve: --transport socket needs --shards >= 2 (the socket "
                  "scatter rides the sharded engine)", file=sys.stderr)
            return 2
        if args.pool_workers > 0:
            print("serve: --transport socket replaces the local hosts; drop "
                  "--pool-workers", file=sys.stderr)
            return 2
    # Deterministic fault injection (CI's fault-smoke job): every plan
    # is armed for host generation 0 only, so the recovery — re-fork,
    # retry, or in-process degradation — must produce results identical
    # to the sequential reference for --verify to pass.
    if args.flush_deadline_ms is not None:
        deadline = DeadlinePolicy(flush_deadline_s=args.flush_deadline_ms / 1000.0)
    else:
        deadline = DeadlinePolicy()
    dataset, workload = _make_workload(args)
    engine = make_engine(
        dataset,
        EngineConfig(
            index_users=(args.mode == "indexed"),
            num_shards=args.shards,
            use_shm=args.shm,
        ),
    )
    options = _query_options(args)
    config = ServerConfig(
        max_batch=args.max_batch,
        max_wait_ms=max_wait_ms,
        pool_workers=args.pool_workers,
        options=options,
        cache=CachePolicy(max_entries=args.cache_entries) if args.cache else None,
        retry=RetryPolicy(),
        deadline=deadline,
        max_pending=args.max_pending,
        faults=faults,
    )
    queries = _make_query_pool(workload, args, args.queries)
    if args.transport == "socket":
        # Remote shard hosts replace the local ones: the engine's
        # executor gets its transport before the server starts (the
        # server itself forks nothing, pool_workers=0).
        engine.connect_hosts(
            args.hosts, retry=RetryPolicy(), deadline=deadline
        )

    latencies: List[float] = []

    async def run():
        async with MaxBRSTkNNServer(engine, config) as server:
            if args.explain:
                # Inside the server context: a sharded engine's local
                # hosts are forked, so explain() reports the execution
                # that will actually happen.
                print(engine.plan(options, ks=[q.k for q in queries]).explain())
            async def timed(q):
                t0 = time.perf_counter()
                result = await server.submit(q)
                latencies.append(time.perf_counter() - t0)
                return result

            t0 = time.perf_counter()
            results = await asyncio.gather(*(timed(q) for q in queries))
            return list(results), time.perf_counter() - t0, server.stats_snapshot()

    try:
        results, elapsed, snapshot = asyncio.run(run())
    finally:
        if args.transport == "socket":
            engine.close_hosts()
    latencies.sort()
    qps = len(queries) / elapsed if elapsed > 0 else float("inf")
    print(f"served {len(queries)} concurrent queries in {1000 * elapsed:.1f} ms "
          f"({qps:.1f} queries/sec)")
    print(f"latency: p50 {1000 * percentile(latencies, 0.50):.1f} ms, "
          f"p95 {1000 * percentile(latencies, 0.95):.1f} ms "
          f"(max_batch={config.max_batch}, max_wait_ms={config.max_wait_ms}, "
          f"pool_workers={config.pool_workers}, shards={args.shards})")
    shard_rows = snapshot.pop("shards", None)
    health_rows = snapshot.pop("pool_health", None)
    codec_row = snapshot.pop("shm_codec", None)
    for name, value in snapshot.items():
        print(f"  {name}: {value}")
    if codec_row:
        detail = ", ".join(f"{key}={val}" for key, val in codec_row.items())
        print(f"  shm_codec: {detail}")
    if shard_rows:
        for row in shard_rows:
            detail = ", ".join(
                f"{key}={val}" for key, val in row.items() if key != "shard"
            )
            print(f"  shard[{row['shard']}]: {detail}")
    if health_rows:
        for row in health_rows:
            detail = ", ".join(
                f"{key}={val}" for key, val in row.items() if key != "pool"
            )
            print(f"  pool[{row['pool']}]: {detail}")
    if args.verify:
        from . import oracle

        mismatches = 0
        # Verify against the oracle's cold, sequential, all-scalar
        # answers on an INDEPENDENT single engine — for both the sharded
        # front-end and the plain one, and for mode=indexed as well as
        # joint (the reference engine builds its own MIUR-tree when the
        # served mode needs one; the immutable object MIR-tree is
        # shared, so that is the only extra index build).  No kernel,
        # memoized pool or cache is shared between the two sides.
        ref_engine = MaxBRSTkNNEngine(
            dataset,
            EngineConfig(index_users=(args.mode == "indexed")),
            object_tree=engine.object_tree,
        )
        for query, served in zip(queries, results):
            solo = oracle.query(ref_engine, query, options)
            if (
                solo.location != served.location
                or solo.keywords != served.keywords
                or solo.brstknn != served.brstknn
            ):
                mismatches += 1
        if mismatches:
            print(f"VERIFY FAILURE: {mismatches} served results != sequential "
                  f"(mode={args.mode})")
            return 1
        print(f"verify: served results == sequential on {len(queries)} queries "
              f"(mode={args.mode}, shards={args.shards})")
        print("verify: dynamic check passed; the static contracts (pool "
              "boundary, kernel identity, async blocking, shm, transport) "
              "are tests/test_source_contracts.py")
    return 0


def _cmd_shard_host(args) -> int:
    """Run one shard host process (blocks until killed)."""
    from .serve.faults import parse_fault
    from .serve.shardhost import run_host, workload_spec_from_args

    host, _, port_s = args.listen.rpartition(":")
    if not host:
        print(f"shard-host: --listen must be host:port, got {args.listen!r}",
              file=sys.stderr)
        return 2
    try:
        fault = parse_fault(args.fault)
    except ValueError as exc:
        print(f"shard-host: {exc}", file=sys.stderr)
        return 2
    return run_host(
        workload_spec_from_args(args),
        listen=(host, int(port_s)),
        fault=fault,
        arena=args.arena,
    )


def _cmd_stats(args) -> int:
    dataset, _ = _make_workload(args)
    for name, value in dataset.stats().rows():
        print(f"{name}: {value}")
    return 0


def _cmd_report(args) -> int:
    from .bench.report import main as report_main

    forwarded = []
    if args.figure:
        forwarded += ["--figure", args.figure]
    if args.quick:
        forwarded += ["--quick"]
    return report_main(forwarded)


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", choices=["flickr", "yelp"], default="flickr")
    p.add_argument("--objects", type=int, default=2000)
    p.add_argument("--users", type=int, default=200)
    p.add_argument("--ul", type=int, default=3, help="keywords per user")
    p.add_argument("--uw", type=int, default=20, help="unique user keywords")
    p.add_argument("--area", type=float, default=5.0)
    p.add_argument("--locations", type=int, default=20)
    p.add_argument("--measure", choices=["LM", "TF", "KO"], default="LM")
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)


def _add_query_args(p: argparse.ArgumentParser, modes=("joint", "baseline", "indexed")) -> None:
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--ws", type=int, default=2)
    p.add_argument("--method", choices=["approx", "exact"], default="approx")
    p.add_argument("--mode", choices=list(modes), default="joint")
    p.add_argument("--explain", action="store_true",
                   help="print the resolved QueryPlan before running")


def main(argv=None) -> int:
    """CLI entry point (``python -m repro``)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run one MaxBRSTkNN query")
    _add_workload_args(demo)
    _add_query_args(demo)
    demo.set_defaults(func=_cmd_demo)

    batch = sub.add_parser("batch", help="run a query batch via query_batch")
    _add_workload_args(batch)
    _add_query_args(batch)
    batch.add_argument("--batch-size", type=int, default=16)
    batch.add_argument("--shards", type=int, default=1,
                       help="deal the batch over N full-dataset lanes, one "
                            "forked shard host each (1 = in-process)")
    batch.add_argument("--show", type=int, default=3,
                       help="print the first N results")
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve concurrent queries via the micro-batching server"
    )
    _add_workload_args(serve)
    _add_query_args(serve)
    serve.add_argument("--queries", type=int, default=32,
                       help="concurrent queries to submit")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--max-wait-ms", default="2.0",
                       help="micro-batch window in ms, or 'auto' to tune it "
                            "from the observed arrival rate")
    serve.add_argument("--pool-workers", type=int, default=0,
                       help="local shard hosts forked per lane (needs "
                            "--shards >= 2; 0 = in-process)")
    serve.add_argument("--shards", type=int, default=1,
                       help="deal each flush over N full-dataset lanes behind "
                            "the server (scatter/gather, result-identical)")
    serve.add_argument("--shm", default=False,
                       action=argparse.BooleanOptionalAction,
                       help="publish the engine's dense arrays into a shared-"
                            "memory arena and ship scatter payloads through "
                            "the binary arena codec instead of pickle "
                            "(--no-shm keeps the fork/COW pickle path; "
                            "results are identical either way)")
    serve.add_argument("--cache", action="store_true",
                       help="enable the cross-flush result cache (exact "
                            "repeat queries answered without executing)")
    serve.add_argument("--cache-entries", type=int, default=4096,
                       help="LRU capacity of the result cache (with --cache)")
    serve.add_argument("--verify", action="store_true",
                       help="compare served results against sequential queries")
    serve.add_argument("--fault", default="none",
                       help=f"inject a deterministic fault into the local "
                            f"hosts: {_FAULTS} (fault-smoke: recovery must "
                            f"keep --verify green)")
    serve.add_argument("--flush-deadline-ms", type=float, default=None,
                       help="per-scatter-round deadline in ms (default: the "
                            "DeadlinePolicy default, 30000)")
    serve.add_argument("--max-pending", type=int, default=None,
                       help="admission bound: shed queries (ServerOverloaded) "
                            "past this many pending (default: unbounded)")
    serve.add_argument("--transport", choices=["fork", "socket"], default="fork",
                       help="where the lanes' shard hosts run: forked locally "
                            "(default) or as shard-host processes reached "
                            "over TCP (--hosts)")
    serve.add_argument("--hosts", default="",
                       help="comma-separated host:port list of running "
                            "shard-host processes (--transport socket)")
    serve.set_defaults(func=_cmd_serve)

    shard_host = sub.add_parser(
        "shard-host",
        help="serve shard scatter rounds over TCP (one process per host; "
             "pair with `serve --transport socket`)",
    )
    _add_workload_args(shard_host)
    shard_host.add_argument("--listen", default="127.0.0.1:0",
                            help="host:port to bind (port 0 = ephemeral; the "
                                 "bound port is printed as 'SHARDHOST "
                                 "LISTENING <port>')")
    shard_host.add_argument("--shards", type=int, default=2,
                            help="the coordinator's lane count; accepted so "
                                 "launch lines stay valid, unused — a host "
                                 "holds the full dataset and answers any lane")
    shard_host.add_argument("--arena", default=None,
                            help="shared-memory arena name to probe at "
                                 "startup (fail fast before serving)")
    shard_host.add_argument("--fault", default="none",
                            help=f"fault to inject host-side: {_FAULTS}")
    shard_host.set_defaults(func=_cmd_shard_host)

    stats = sub.add_parser("stats", help="print dataset statistics")
    _add_workload_args(stats)
    stats.set_defaults(func=_cmd_stats)

    report = sub.add_parser("report", help="regenerate figure series")
    report.add_argument("--figure")
    report.add_argument("--quick", action="store_true")
    report.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
