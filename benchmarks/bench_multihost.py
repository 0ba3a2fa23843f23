"""Multi-host scatter over TCP: per-host payload vs host count.

Not a paper figure — this benchmarks the socket transport
(:mod:`repro.serve.transport` + :mod:`repro.serve.shardhost`).  It
spawns N real ``repro shard-host`` processes on localhost, each
rebuilding the workload from the same spec, connects a coordinator
:class:`~repro.serve.ShardedEngine` over TCP, and answers a fixed
query pool in flush-sized batches.  For each host count it reports,
from the flush reports and the registry's wire counters:

* **per-lane refine dispatch bytes** — with the arena codec these are
  ~100-byte ``ArenaRef`` names plus a row range per lane, near-constant
  in the host count (that flatness is the PR-9 payload win, reported as
  context);
* **per-host wire bytes** (both directions / host count, from the
  socket clients' ledgers, headers included) — the quantity that must
  scale ~1/N.  What crosses the wire is the cold refine gather (16 B
  per user per k, each host returning only its row range's
  ``RSk(u)`` rows) and, every flush, one ``select`` round: the queries
  and an ``ArenaRef`` out, the answers back, dealt over the hosts by
  query.  Neither total grows with the host count, so doubling the
  hosts roughly halves the bytes any one host moves;
* **flush wall-time** end to end.

Then a **kill-one-host** pass: one shard-host process is SIGKILLed
between flushes and the next flush must complete via re-scatter to the
survivors — ``worker_deaths``/``retries`` counters prove the path, and
``degraded == 0`` proves no in-process fallback was needed.

Results must be identical to the oracle's sequential answers everywhere
(the PR-3 bitwise convention).  The acceptance gate — full runs only —
is per-host wire bytes at 4 hosts ≤ 0.75x the 2-host figure (ideal is
0.5x; the slack absorbs per-connection framing constants and the
per-lane copy of each k's ``ArenaRef``; 0.55x measured at PR 19, when
the per-location shortlist gather left the wire).

Run::

    python benchmarks/bench_multihost.py              # full sweep
    python benchmarks/bench_multihost.py --tiny       # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle  # noqa: E402
from repro.datagen import query_pool  # noqa: E402
from repro.serve import RetryPolicy, ShardedEngine, WorkloadSpec  # noqa: E402
from repro.serve.shardhost import make_workload  # noqa: E402
from repro.storage.shm import arena_segments  # noqa: E402


def spawn_host(spec: WorkloadSpec, num_shards: int, timeout_s: float = 120.0):
    """One ``repro shard-host`` process; returns ``(proc, port)``."""
    cmd = [
        sys.executable, "-m", "repro", "shard-host",
        "--listen", "127.0.0.1:0", "--shards", str(num_shards),
        *spec.cli_args(),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [sys.path[0], env.get("PYTHONPATH", "")])
    )
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, env=env,
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError("shard-host exited before listening")
        if line.startswith("SHARDHOST LISTENING"):
            return proc, int(line.split()[-1])
    proc.kill()
    raise RuntimeError("shard-host never reported its port")


def stop_hosts(procs):
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def chunked(items, size):
    for i in range(0, len(items), size):
        yield items[i:i + size]


def run_hosts(dataset, queries, options, spec, *, num_hosts, batch_size,
              kill_one=False):
    """One socket pass over ``num_hosts`` fresh shard-host processes."""
    procs, ports = [], []
    engine = ShardedEngine(
        dataset, EngineConfig(fanout=4, num_shards=num_hosts, use_shm=True)
    )
    try:
        for _ in range(num_hosts):
            proc, port = spawn_host(spec, num_hosts)
            procs.append(proc)
            ports.append(port)
        engine.connect_hosts(
            [f"127.0.0.1:{p}" for p in ports], retry=RetryPolicy(max_retries=2)
        )
        results = []
        refine_out = 0
        flushes = 0
        t0 = time.perf_counter()
        batches = list(chunked(queries, batch_size))
        for i, chunk in enumerate(batches):
            if kill_one and i == 1:
                procs[0].send_signal(signal.SIGKILL)
                procs[0].wait(timeout=10)
            results.extend(engine.query_batch(chunk, options))
            report = engine.last_flush_report
            refine_out += sum(
                s.payload_bytes_out for s in report.stages
                if s.stage == "refine"
            )
            flushes += 1
        elapsed = time.perf_counter() - t0
        wire_out, wire_in = engine._registry.bytes_totals()
        counters = dict(engine.fault_counters())
        degraded = engine.last_flush_report.degraded_lanes
    finally:
        engine.close_hosts()
        stop_hosts(procs)
    return {
        "results": results,
        "refine_out_bytes": refine_out,
        "per_shard_refine_bytes": refine_out / num_hosts,
        "per_host_wire_bytes": (wire_out + wire_in) / num_hosts,
        "wire_bytes_out": wire_out,
        "wire_bytes_in": wire_in,
        "flushes": flushes,
        "total_ms": 1000 * elapsed,
        "counters": counters,
        "degraded_lanes": degraded,
    }


def identical(a, b):
    return len(a) == len(b) and all(
        x.location == y.location
        and x.keywords == y.keywords
        and x.brstknn == y.brstknn
        for x, y in zip(a, b)
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--objects", type=int, default=2000)
    parser.add_argument("--users", type=int, default=400)
    parser.add_argument("--locations", type=int, default=10)
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--hosts", type=int, nargs="+", default=[2, 4])
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument("--batch-size", type=int, default=8,
                        help="queries per flush (the server's micro-batch)")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale for CI")
    parser.add_argument("--json", metavar="PATH", default=None)
    args = parser.parse_args(argv)

    if args.tiny:
        args.objects, args.users, args.locations = 400, 80, 5
        args.queries, args.batch_size = 8, 4
        args.hosts = [h for h in args.hosts if h <= 2] or [2]

    spec = WorkloadSpec(
        objects=args.objects, users=args.users, locations=args.locations,
        seed=args.seed,
    )
    dataset, workload = make_workload(spec)
    queries = query_pool(
        workload, args.queries, num_locations=spec.locations,
        k=args.k, seed=spec.seed, seed_stride=101,
    )
    options = QueryOptions(method="approx")

    print(f"workload: objects={spec.objects} users={spec.users} "
          f"queries={len(queries)} batch={args.batch_size} "
          f"hosts={args.hosts} (cpus={os.cpu_count()})", flush=True)

    reference = MaxBRSTkNNEngine(dataset, EngineConfig(fanout=4))
    expected = [oracle.query(reference, q, options) for q in queries]

    print(f"\n{'hosts':>5} {'refine KiB/shard':>17} {'wire out KiB':>13} "
          f"{'wire in KiB':>12} {'KiB/host':>9} {'total ms':>9}")
    rows = []
    ok = True
    per_host_at = {}
    for num_hosts in args.hosts:
        run = run_hosts(
            dataset, queries, options, spec,
            num_hosts=num_hosts, batch_size=args.batch_size,
        )
        same = identical(run["results"], expected)
        if not same:
            print(f"EQUIVALENCE FAILURE: hosts={num_hosts}: socket results "
                  f"differ from the sequential engine")
            ok = False
        if run["counters"].get("worker_deaths") or run["degraded_lanes"]:
            print(f"FAULT FAILURE: hosts={num_hosts}: clean run saw "
                  f"{run['counters']} degraded={run['degraded_lanes']}")
            ok = False
        per_host_at[num_hosts] = run["per_host_wire_bytes"]
        print(f"{num_hosts:>5} {run['per_shard_refine_bytes'] / 1024:>17.1f} "
              f"{run['wire_bytes_out'] / 1024:>13.1f} "
              f"{run['wire_bytes_in'] / 1024:>12.1f} "
              f"{run['per_host_wire_bytes'] / 1024:>9.1f} "
              f"{run['total_ms']:>9.1f}")
        rows.append({
            "hosts": num_hosts,
            "refine_out_bytes": run["refine_out_bytes"],
            "per_shard_refine_bytes": run["per_shard_refine_bytes"],
            "per_host_wire_bytes": run["per_host_wire_bytes"],
            "wire_bytes_out": run["wire_bytes_out"],
            "wire_bytes_in": run["wire_bytes_in"],
            "flushes": run["flushes"],
            "total_ms": run["total_ms"],
            "identical_results": same,
        })

    # Kill-one-host: the re-scatter path, with counters to prove it.
    kill_hosts = max(args.hosts)
    run = run_hosts(
        dataset, queries, options, spec,
        num_hosts=kill_hosts, batch_size=args.batch_size, kill_one=True,
    )
    same = identical(run["results"], expected)
    deaths = run["counters"].get("worker_deaths", 0)
    retries = run["counters"].get("retries", 0)
    print(f"\nkill-one-host @ {kill_hosts} hosts: worker_deaths={deaths} "
          f"retries={retries} degraded={run['degraded_lanes']} "
          f"identical={same}")
    if not same:
        print("EQUIVALENCE FAILURE: kill-one-host results differ")
        ok = False
    if deaths < 1 or retries < 1:
        print("FAULT FAILURE: kill-one-host run never exercised re-scatter")
        ok = False
    if kill_hosts > 1 and run["degraded_lanes"]:
        print("FAULT FAILURE: survivors should have absorbed the dead "
              "host's shard without in-process degrade")
        ok = False
    kill_row = {
        "hosts": kill_hosts,
        "worker_deaths": deaths,
        "retries": retries,
        "degraded_lanes": run["degraded_lanes"],
        "identical_results": same,
    }

    leaked = arena_segments()
    if leaked:
        print(f"LEAK FAILURE: /dev/shm still holds {leaked}")
        ok = False

    if args.json:
        payload = {
            "benchmark": "multihost_socket_scatter",
            "objects": spec.objects,
            "users": spec.users,
            "queries": len(queries),
            "batch_size": args.batch_size,
            "cpus": os.cpu_count(),
            "sweep": rows,
            "kill_one_host": kill_row,
            "identical_results": ok,
            "leaked_segments": leaked,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if not ok:
        return 1
    print(f"\nequivalence check: socket transport == sequential engine on "
          f"{len(queries)} queries x {len(args.hosts)} host counts + "
          f"kill-one-host; /dev/shm clean")
    if not args.tiny and 2 in per_host_at and 4 in per_host_at:
        ratio = per_host_at[4] / max(1.0, per_host_at[2])
        if ratio > 0.75:
            print(f"ACCEPTANCE FAILURE: per-host wire bytes at 4 hosts "
                  f"is {ratio:.2f}x the 2-host figure (need <= 0.75x, "
                  f"ideal 0.5x)")
            return 1
        print(f"scaling: per-host wire bytes 4-host/2-host = "
              f"{ratio:.2f}x (~1/N)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
