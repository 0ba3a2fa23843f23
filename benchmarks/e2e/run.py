#!/usr/bin/env python3
"""End-to-end benchmark: one command, one workload, every metric by name.

    python3 benchmarks/e2e/run.py --workload serve-pool --seed 3 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
installed.  ``--trace 1`` (or ``--trace out.json``, which also writes the
spans in Chrome trace-event format) is the separate traced run that
yields the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Run shape (see README.md for the measurements behind it)::

    set-up cycles -> warm-up segments
      -> N x (measured segment, cold round)     N >= 6, until --seconds
      -> verification -> tear-down -> set-up cycles

Every measured segment replays the identical query list, and the run
reports the *fastest observed execution* of it: each service unit (one
micro-batch; one query on ``paper-cold``) and each query's latency is
taken from the segment in which it ran fastest.  This machine's noise is
one-sided — bursts of ~1.4x slowness lasting from under a second to
minutes — which a best-of statistic over short units rides out and a
mean, a pooled median or a best-of over long segments does not.  Set-up
cycles bracket the run for the same reason.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import ctypes
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"{__file__}: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, SRC)

# One BLAS thread per process, set before numpy loads (fork workers and
# shard hosts inherit it).  OpenBLAS otherwise starts one thread per CPU,
# and on this 2-vCPU box two workers' BLAS threads oversubscribe the
# refinement scatter.  Ten alternating pairs, all else equal
# (REPEATABILITY.md): at the default thread count the sharded
# cold_flush_ms reads 1.5x higher (serve-pool 265 -> 408 ms) with twice
# the spread across runs (qps 3.1 -> 6.8 %, cold 5.1 -> 11.3 %), and 1 of
# 20 in-process runs lands in a slow mode (cold flush 533 vs 315 ms).
# The serving stack parallelises across processes, not BLAS threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import layers  # noqa: E402
import workloads  # noqa: E402
from repro.bench.metrics import percentile  # noqa: E402
from repro.storage.shm import arena_segments  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Batch, answer_key  # noqa: E402

#: ``(name, unit)`` of every end-to-end metric (BENCHMARK.json mirrors it).
END_TO_END = (
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("latency_ms_p50", "ms"),
    ("cold_flush_ms", "ms"),
    ("io_per_query", "count"),
    ("rss_peak_mb", "mb"),
)
COVERAGE_RANGE = (0.9, 1.1)

# ----------------------------------------------------------------------
# Host probes
# ----------------------------------------------------------------------

def calibrate(iterations: int = 1_000_000) -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine is
    right now.  Printed with every run so a slow-regime run shows;
    never used to rescale or to schedule a measurement."""
    t0 = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return time.perf_counter() - t0


def _proc_field(pid: int, key: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(key + ":"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def live_children() -> Dict[int, str]:
    """``pid -> command line`` of this process's live (non-zombie) children."""
    me = str(os.getpid())
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        if _proc_field(pid, "PPid") != me:
            continue
        if (_proc_field(pid, "State") or "Z").startswith("Z"):
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                children[pid] = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
    return children


def rss_peak_mb() -> float:
    """Sum of ``VmHWM`` over this process and every live child."""
    total_kb = 0
    for pid in (os.getpid(), *live_children()):
        hwm = _proc_field(pid, "VmHWM")
        if hwm:
            total_kb += int(hwm.split()[0])
    return total_kb / 1024


def leaked_after_teardown() -> List[str]:
    """What a finished cycle left behind: shm segments and child
    processes (multiprocessing's resource tracker is the interpreter's
    own helper and lives until exit)."""
    leaks = [f"shm segment {name}" for name in arena_segments()]
    leaks += [
        f"child process {pid} ({cmd.strip()[:60]})"
        for pid, cmd in live_children().items()
        if "resource_tracker" not in cmd
    ]
    return leaks


def environment(args) -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git": sha,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """Everything one run observed."""

    setup_s: List[float] = field(default_factory=list)
    #: Index 0: untraced regions, index 1: traced regions.
    segments: List[List[Batch]] = field(default_factory=lambda: [[], []])
    colds: List[List[Batch]] = field(default_factory=lambda: [[], []])
    #: ``calibrate()`` samples, one before each set-up and each pair.
    calibration: List[float] = field(default_factory=list)
    unit: int = 1       # replies per service unit of a segment
    io_total: int = 0
    rss_mb: float = 0.0
    arena_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)


async def _setup(workload, tracer, out: Outcome) -> None:
    """One timed set-up (``setup_s`` covers exactly this); its spans are
    stamped ``setup<cycle index>``."""
    phase = f"setup{len(out.setup_s)}"
    out.calibration.append(calibrate())
    gc.collect()
    if tracer is not None:
        tracer.phase, tracer.enabled = phase, True
    t0 = time.perf_counter()
    try:
        await workload.setup()
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.phase, tracer.enabled = None, False
    out.setup_s.append(elapsed)


async def _teardown(workload, out: Outcome) -> None:
    """Tear down and apply the leak gate (one attempted operation)."""
    await workload.teardown()
    gc.collect()
    out.attempted += 1
    leaks = leaked_after_teardown()
    if leaks:
        out.failed += 1
        out.problems.append("leaked after teardown: " + "; ".join(leaks))


async def throwaway_cycle(cls, scale, tracer, out: Outcome) -> None:
    workload = cls(scale, tracer)
    try:
        await _setup(workload, tracer, out)
    finally:
        await _teardown(workload, out)


async def measured_cycle(cls, scale, args, tracer, probe, out: Outcome) -> None:
    workload = cls(scale, tracer)
    out.unit = workload.unit
    try:
        await _setup(workload, tracer, out)
        if probe is not None:
            serving = workload.server is not None
            probe.attach(
                workload.engine,
                layers.FLUSH_SPAN if serving else "bench.query_batch",
                root=not serving,
            )
            arena = workload.engine.ensure_arena()
            if arena is not None:
                out.arena_mb = sum(
                    nbytes for _, _, nbytes in arena.columns().values()
                ) / 1e6
        queries = workloads.make_queries(workload.workload, scale)
        segment_q = workloads.submission_order(
            queries[:workload.segment_queries], args.seed
        )
        cold_q = queries[:workloads.COLD_BATCH]
        regions = (
            ("segment", workload.segment, segment_q, out.segments),
            ("cold", workload.cold_round, cold_q, out.colds),
        )
        for _ in range(scale.warmup_segments):
            await workload.segment(segment_q)

        io_before = workload.engine.io.snapshot()
        replayed = set()
        started = time.perf_counter()
        pairs = 0
        while pairs < scale.min_pairs or (
            pairs < scale.max_pairs
            and time.perf_counter() - started < args.seconds
        ):
            # Untraced and traced regions alternate, so both see the
            # same mix of machine regimes.
            traced = probe is not None and pairs % 2 == 1
            out.calibration.append(calibrate())
            for phase, region, region_q, sink in regions:
                # Every region starts from a collected heap: a full
                # collection costs 50-100 ms here, and whether leftover
                # allocation debt triggered one inside a region made
                # cold_flush_ms bimodal (340 vs 560 ms on serve-inproc).
                gc.collect()
                if traced:
                    probe.capturing = phase not in replayed
                    probe.begin(phase, workload.server)
                batch = await region(region_q)
                if traced:
                    probe.end(workload.server, region_q, batch.answers)
                    if probe.capturing:
                        probe.capturing = False
                        replayed.add(phase)
                        probe.replay(phase)
                sink[traced].append(batch)
            pairs += 1
            if pairs == scale.min_pairs:
                # Read at a fixed point of the run: the arena grows with
                # every cold round, and how many rounds fit into
                # --seconds depends on the machine's mood.
                out.rss_mb = rss_peak_mb()
        out.io_total = (workload.engine.io.snapshot() - io_before).total
        verify(
            workload.dataset,
            queries[:min(scale.verify, workload.segment_queries)], out,
        )
    finally:
        await _teardown(workload, out)


def verify(dataset, checked: Sequence, out: Outcome) -> None:
    """Correctness gate, outside every timed region.

    The ``checked`` queries must equal a fresh sequential engine's
    answers; every other query must get the same answer in every region
    that asked it.
    """
    expected: Dict[int, tuple] = {
        id(q): key
        for q, key in zip(checked, workloads.reference_answers(dataset, checked))
    }
    wrong = 0
    for batch in (b for group in (*out.segments, *out.colds) for b in group):
        out.attempted += len(batch.answers)
        out.failed += batch.failed
        for query, result in zip(batch.queries, batch.answers):
            if result is None:
                continue
            key = answer_key(result)
            if expected.setdefault(id(query), key) != key:
                wrong += 1
    if wrong:
        out.failed += wrong
        out.problems.append(f"{wrong} wrong or inconsistent answers")


def run_workload(args, scale, tracer, probe) -> Outcome:
    """Set-up cycles bracket the measured one: a slow burst at either
    end of the run cannot own every ``setup_s`` sample.  Each cycle gets
    its own event loop, so no executor thread survives into the next
    cycle's pool fork."""
    cls = workloads.BY_NAME[args.workload]
    out = Outcome()
    before = (scale.setup_cycles - 1) // 2
    for _ in range(before):
        asyncio.run(throwaway_cycle(cls, scale, tracer, out))
    asyncio.run(measured_cycle(cls, scale, args, tracer, probe, out))
    for _ in range(scale.setup_cycles - 1 - before):
        asyncio.run(throwaway_cycle(cls, scale, tracer, out))
    return out


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def segment_qps(batch: Batch) -> float:
    return (len(batch.answers) - batch.failed) / batch.elapsed_s


def segment_p50_ms(batch: Batch) -> float:
    return 1000 * statistics.median(batch.latencies_s)


def fastest_execution(segments: Sequence[Batch], unit: int):
    """``(elapsed_s, per-query latencies)`` of the segment's query list
    with every service unit, and every query's latency, taken from the
    segment in which it ran fastest.  All segments replay the identical
    list, so unit ``j`` (and query ``i``) is the same work in each."""
    clean = [b for b in segments if not b.failed] or list(segments)
    units = [min(times) for times in zip(*(b.unit_times(unit) for b in clean))]
    latencies = [min(times) for times in zip(*(b.latencies_s for b in clean))]
    return sum(units), latencies


def end_to_end(out: Outcome) -> Dict[str, float]:
    segments, colds = out.segments[0], out.colds[0]
    queries = sum(
        len(b.answers) for group in (*out.segments, *out.colds) for b in group
    )
    elapsed_s, latencies = fastest_execution(segments, out.unit)
    return {
        "setup_s": min(out.setup_s),
        "qps": len(latencies) / elapsed_s,
        "latency_ms_p50": 1000 * statistics.median(latencies),
        "cold_flush_ms": 1000 * min(b.elapsed_s for b in colds),
        "io_per_query": out.io_total / queries,
        "rss_peak_mb": out.rss_mb,
    }


def print_report(args, out: Outcome, e2e: Dict[str, float],
                 per_layer: Optional[Dict[str, float]]) -> None:
    env = environment(args)
    cal = sorted(out.calibration)
    print(f"== {args.workload} ==")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"calibration (1M-iteration loop, {len(cal)} samples between "
          f"segments): min {1000 * cal[0]:.1f} ms, median "
          f"{1000 * statistics.median(cal):.1f} ms, max {1000 * cal[-1]:.1f} ms")
    print("set-up cycles: " + " ".join(f"{s:.3f}s" for s in out.setup_s))
    print(f"{'segment':>8} {'mode':>8} {'n':>4} {'elapsed s':>10} {'q/s':>8} "
          f"{'p50 ms':>8} {'cold ms':>9}")
    for traced in (0, 1):
        for i, (seg, cold) in enumerate(zip(out.segments[traced], out.colds[traced])):
            print(f"{i:>8} {'traced' if traced else 'plain':>8} "
                  f"{len(seg.answers):>4} {seg.elapsed_s:>10.3f} "
                  f"{segment_qps(seg):>8.2f} {segment_p50_ms(seg):>8.1f} "
                  f"{1000 * cold.elapsed_s:>9.1f}")
    pooled = sorted(
        s for b in out.segments[0] for s in b.latencies_s
    )
    print(f"\nend-to-end (fastest execution of each unit of {out.unit} "
          f"over {len(out.segments[0])} untraced segments, "
          f"{len(out.segments[0][0].answers)} queries each; setup_s min of "
          f"{len(out.setup_s)} cycles; cold_flush_ms min of "
          f"{len(out.colds[0])} rounds):")
    units = dict(END_TO_END)
    for name, value in e2e.items():
        print(f"  {name:<18} {value:>12.4f} {units[name]}")
    print(f"  {'latency_ms_p95':<18} {1000 * percentile(pooled, 0.95):>12.4f} ms"
          f"   (pooled, n={len(pooled)}; reported, not gated)")
    print(f"  {'error_ratio':<18} {out.failed / out.attempted:>12.4f} ratio"
          f"   ({out.failed} failed of {out.attempted} operations)")
    for problem in out.problems:
        print(f"  PROBLEM: {problem}")
    if per_layer is not None:
        print("\nper-layer (busy time per flush, summed over processes; "
              "see layers.py):")
        units = dict(layers.LAYER_METRICS)
        for name, value in per_layer.items():
            print(f"  {name:<50} {value:>12.4f} {units[name]}")


def per_layer_metrics(out: Outcome, probe) -> Dict[str, float]:
    plain, traced = out.segments
    pooled = sorted(s for b in plain for s in b.latencies_s)
    return layers.derive(
        probe,
        setup_phase=f"setup{out.setup_s.index(min(out.setup_s))}",
        arena_mb=out.arena_mb,
        traced_segment_s=sum(b.elapsed_s for b in traced),
        overhead_ratio=(
            fastest_execution(traced, out.unit)[0]
            / fastest_execution(plain, out.unit)[0]
        ),
        latency_ms_p95=1000 * percentile(pooled, 0.95),
    )


# ----------------------------------------------------------------------
# Supervision: nothing the run started outlives it
# ----------------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36   # <linux/prctl.h>


def reap_descendants(kill_after_s: float) -> List[int]:
    """Wait until every child of this process has ended and been reaped;
    returns the pids that had to be killed because they were still alive
    ``kill_after_s`` seconds in.  This process is a child subreaper, so
    an orphaned grandchild becomes its child and is waited for too."""
    deadline = time.monotonic() + kill_after_s
    killed: List[int] = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in live_children():
                if child not in killed:
                    killed.append(child)
                with contextlib.suppress(ProcessLookupError):
                    os.kill(child, signal.SIGKILL)
        time.sleep(0.01)


def supervise(argv: Sequence[str]) -> int:
    """Run one workload in a worker process and return only when every
    process the run started has ended.

    The worker stops its own pools and shard hosts (and gates on it),
    but two kinds of process end only *after* their parent has exited
    and so cannot be waited for from inside it: multiprocessing's
    resource tracker (the worker's, once shm is used, and one per shard
    host) exits when the pipe its parent held closes.  Left to init they
    linger, running or as zombies, past the end of the benchmark.  As a
    subreaper this process inherits them and waits.  A signal on the way
    kills the worker, gives the trackers a moment to unlink its shm
    segments, and kills what is left (the shard hosts).
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")

    def interrupted(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGHUP, interrupted)
    worker = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *argv, "--worker"]
    )
    kill_after_s = 2.0
    try:
        status = worker.wait()
        kill_after_s = 10.0
    finally:
        if worker.poll() is None:
            worker.kill()
            worker.wait()
        killed = reap_descendants(kill_after_s)
    if killed:
        print(f"PROBLEM: processes outlived the run and were killed: {killed}",
              file=sys.stderr)
        return status or 1
    return status


def run_all(args) -> int:
    """Each workload in its own process (peak RSS and the leak gate are
    per-process facts)."""
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
        if args.smoke:
            cmd.append("--smoke")
        status = subprocess.run(cmd).returncode or status
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0,
                        help="draws the order the callers submit the segment's "
                             "queries in (same seed, same traffic)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure (segment, cold round) pairs for this "
                             "long, never fewer than 6 pairs")
    parser.add_argument("--trace", default="0", metavar="0|1|OUT.json",
                        help="0: end-to-end metrics, untraced; 1: traced run, "
                             "per-layer metrics; a path: traced run that also "
                             "writes Chrome trace events there and fails "
                             "unless the layers add up")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 2 measured pairs (CI smoke)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not args.worker:
        return supervise(argv)

    scale = workloads.SMOKE if args.smoke else workloads.FULL
    tracer = probe = None
    if args.trace != "0":
        tracer = Tracer()
        probe = layers.LayerProbe(tracer)
        probe.install()
    out = run_workload(args, scale, tracer, probe)

    e2e = end_to_end(out)
    per_layer = per_layer_metrics(out, probe) if probe is not None else None
    print_report(args, out, e2e, per_layer)
    status = 0 if out.failed == 0 else 1
    if tracer is not None and args.trace != "1":
        tracer.write_chrome_trace(args.trace)
        print(f"wrote {len(tracer.spans)} spans to {args.trace}")
        coverage = per_layer["trace.coverage_ratio"]
        low, high = COVERAGE_RANGE
        if not args.smoke and not low <= coverage <= high:
            print(f"PROBLEM: trace.coverage_ratio {coverage:.3f} outside "
                  f"[{low}, {high}]: the layers do not add up")
            status = 1
    reported, units = (
        (e2e, dict(END_TO_END)) if per_layer is None
        else (per_layer, dict(layers.LAYER_METRICS))
    )
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
