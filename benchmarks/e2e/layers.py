"""Per-layer metrics of the traced run: wrapper list + derivation.

A layer is a module of ``src/repro``.  Time is measured by spans around
calls into each layer's public functions (``install``); counts come
from counters the program already publishes (``FlushReport``,
``ServerStats``, ``gather_stats()``, ``payload_codec.stats_snapshot()``,
``fault_counters()``, the registry's wire ledger, ``engine.io``) and are
read, never re-implemented.

Worker-side time (fork-pool workers, shard hosts) cannot be seen from
outside those processes.  It is obtained by *replay*: scatter payloads
captured during one traced segment and one traced cold round are run
through ``core.pipeline.execute_shard_payload`` in this process, outside
every timed region, with the same wrappers recording.

Every time metric is **busy time per flush, summed over processes**: a
flush is one ``engine.query`` on ``paper-cold`` and one
``engine.query_batch`` (a micro-batch) on ``serve-*``.  A metric is taken
from the measured segments; layers the segments never enter (phase 1 on
warm serving traffic) are taken from the cold rounds instead.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from tracing import Span, Tracer

#: ``(name, unit)`` of every per-layer metric, in report order.
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    # set-up -> setup_s / rss_peak_mb
    ("datagen.make_workload_ms", "ms"),
    ("index.mirtree_build_ms", "ms"),
    ("core.kernels.prewarm_ms", "ms"),
    ("serve.sharded.build_ms", "ms"),
    ("serve.pool.start_ms", "ms"),
    ("serve.shardhost.spawn_ms", "ms"),
    ("serve.transport.connect_ms", "ms"),
    ("storage.shm.arena_mb", "mb"),
    # query path -> paper-cold qps/latency, cold_flush_ms everywhere
    ("core.planner.plan_us", "us"),
    ("core.joint_topk.traverse_ms", "ms"),
    ("core.joint_topk.refine_ms", "ms"),
    ("storage.pager.node_visits", "count"),
    ("storage.pager.invfile_blocks", "count"),
    ("core.joint_topk.pool_candidates", "count"),
    # selection -> serve-inproc qps/latency
    ("core.candidate_selection.select_ms", "ms"),
    ("core.candidate_selection.locations_pruned_ratio", "ratio"),
    ("core.keyword_selection.combinations_scored", "count"),
    # server -> serve-* latency
    ("serve.server.flush_exec_ms", "ms"),
    ("serve.server.queue_wait_ms", "ms"),
    ("serve.server.avg_batch", "count"),
    ("serve.server.full_flush_ratio", "ratio"),
    ("serve.server.latency_ms_p95", "ms"),
    # pipeline stages (FlushReport) -> serve-pool / serve-socket
    ("core.pipeline.traverse_ms", "ms"),
    ("core.pipeline.refine_ms", "ms"),
    ("core.pipeline.shortlist_ms", "ms"),
    ("core.pipeline.search_ms", "ms"),
    ("core.pipeline.select_ms", "ms"),
    ("core.pipeline.payload_out_kb", "kb"),
    ("core.pipeline.payload_in_kb", "kb"),
    ("serve.sharded.merge_ms", "ms"),
    # scatter overhead -> serve-pool
    ("core.payload.encode_ms", "ms"),
    ("core.payload.decode_ms", "ms"),
    ("core.payload.delta_hit_ratio", "ratio"),
    ("core.payload.inline_fallbacks", "count"),
    ("storage.shm.write_ms", "ms"),
    ("storage.shm.read_ms", "ms"),
    ("serve.pool.dispatch_ms", "ms"),
    ("serve.pool.collect_wait_ms", "ms"),
    ("serve.pool.worker_compute_ms", "ms"),
    ("serve.pool.overhead_ms", "ms"),
    ("serve.pool.retries", "count"),
    # transport -> serve-socket only
    ("serve.transport.frame_codec_ms", "ms"),
    ("serve.transport.send_ms", "ms"),
    ("serve.transport.recv_wait_ms", "ms"),
    ("serve.shardhost.compute_ms", "ms"),
    ("serve.transport.wire_kb_out", "kb"),
    ("serve.transport.wire_kb_in", "kb"),
    ("serve.transport.host_deaths", "count"),
    # trace hygiene
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

PHASES = ("segment", "cold")
REPLAY = ".replay"
#: The span around the server's ``engine.query_batch``.  It frames the
#: layer spans of a flush; its own self time is what no layer accounts for.
FLUSH_SPAN = "serve.server.flush_exec"


def _shard_id(payload) -> Optional[int]:
    """Shard a scatter payload targets (``None`` = the full dataset)."""
    if isinstance(payload, tuple) and payload:
        if payload[0] == "refine":
            return payload[4]
        if payload[0] == "shortlist":
            return payload[6]
    return None


class LayerProbe:
    """Installs the wrappers and accumulates what spans cannot carry."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: Program-published numbers, summed per phase.
        self.counts: Dict[str, Dict[str, float]] = {
            phase: defaultdict(float) for phase in PHASES
        }
        #: Scatter rounds awaiting replay: (span, payloads, dataset,
        #: context, workers).  Armed for one segment and one cold round.
        self.capturing = False
        self.captured: List[tuple] = []
        #: Replayed worker compute per scatter span (seconds).
        self.compute: Dict[Span, float] = {}
        #: Flushes whose payloads were replayed, per phase.
        self.replayed: Dict[str, int] = defaultdict(int)
        self.engine = None
        self._before: Dict[str, float] = {}

    # -- installation (before the engine is built) ---------------------
    def install(self) -> None:
        from repro.core import (
            batch, candidate_selection, engine, partial, payload, planner,
        )
        from repro.serve import pool, sharded, transport
        from repro.storage import shm

        # repro.core re-exports the joint_topk *function* under the
        # submodule's own name; fetch the module itself.
        joint_topk = importlib.import_module("repro.core.joint_topk")
        wrap = self.tracer.wrap
        wrap(engine, "MIRTree", "index.mirtree_build")
        wrap(engine.MaxBRSTkNNEngine, "prewarm_kernels", "core.kernels.prewarm")
        wrap(sharded.ShardedEngine, "prewarm_kernels", "core.kernels.prewarm")
        wrap(sharded.ShardedEngine, "start_pools", "serve.pool.start")

        wrap(planner, "plan_query", "core.planner.plan", sites=(engine, sharded))
        wrap(planner, "plan_batch", "core.planner.plan",
             sites=(engine, batch, sharded))
        wrap(joint_topk, "joint_traversal", "core.joint_topk.traverse",
             sites=(engine, batch), after=self._after_traversal)
        wrap(joint_topk, "individual_topk", "core.joint_topk.refine",
             sites=(engine, batch, partial))
        # select_candidate = shortlist_locations + search_shortlists; the
        # sharded path calls the halves separately.  One span name, so
        # the layer's self time is the same sum either way.
        select = "core.candidate_selection.select"
        wrap(candidate_selection, "select_candidate", select,
             sites=(engine, batch))
        wrap(candidate_selection, "shortlist_locations", select, sites=(partial,))
        wrap(candidate_selection, "search_shortlists", select, sites=(partial,))

        wrap(payload, "encode_shard_payload", "core.payload.encode")
        wrap(payload, "encode_gather_payload", "core.payload.encode",
             sites=(pool,))
        wrap(payload.PayloadCodec, "ship", "core.payload.ship")
        wrap(payload.PayloadCodec, "ship_once", "core.payload.ship")
        wrap(payload, "decode_shard_payload", "core.payload.decode")
        wrap(payload, "decode_gather_payload", "core.payload.decode")
        wrap(shm.ShmArena, "add_bytes", "storage.shm.write")
        wrap(shm.ShmArena, "read_column_bytes", "storage.shm.read")

        wrap(pool.PersistentWorkerPool, "dispatch", "serve.pool.dispatch",
             after=self._after_dispatch)
        wrap(pool.PersistentWorkerPool, "collect", "serve.pool.collect_wait")

        codec = "serve.transport.frame_codec"
        wrap(transport.FrameCodec, "encode_body", codec, after=self._after_body)
        wrap(transport.FrameCodec, "decode_body", codec)
        wrap(transport.FrameCodec, "pack", codec)
        wrap(transport.ShardHostClient, "send_frame", "serve.transport.send")
        wrap(transport.ShardHostClient, "recv_frame", "serve.transport.recv_wait")

    def attach(self, engine, span_name: str, *, root: bool) -> None:
        """Span around this engine's ``query_batch`` (the server's flush).

        An instance attribute, so only the benchmark's engine is
        touched.  Each call opens a new flush id.
        """
        self.engine = engine
        tracer = self.tracer
        inner = engine.query_batch

        def query_batch(queries, *args, **kwargs):
            if not tracer.enabled:
                return inner(queries, *args, **kwargs)
            with tracer.span(span_name, root=root, flush=tracer.new_flush_id()):
                results = inner(queries, *args, **kwargs)
            self._after_flush()
            return results

        engine.query_batch = query_batch

    # -- wrapper callbacks ---------------------------------------------
    def _phase_counts(self) -> Optional[Dict[str, float]]:
        return self.counts.get(self.tracer.phase)

    def _after_traversal(self, span, args, kwargs, result) -> None:
        counts = self._phase_counts()
        if counts is not None:
            counts["pool_candidates"] += len(result.lo) + len(result.ro)
            counts["traversals"] += 1

    def _after_flush(self) -> None:
        counts = self._phase_counts()
        report = self.engine.last_flush_report
        if counts is None or report is None:
            return
        for stage in report.snapshot()["stages"]:
            counts[f"pipeline.{stage['stage']}_ms"] += stage["time_ms"]
            counts["payload_out_kb"] += stage["payload_bytes_out"] / 1024
            counts["payload_in_kb"] += stage["payload_bytes_in"] / 1024

    def _after_dispatch(self, span, args, kwargs, result) -> None:
        if self.capturing:
            pool = args[0]
            payloads = args[1] if len(args) > 1 else kwargs["payloads"]
            self.captured.append(
                (span, list(payloads), pool.dataset, pool.context, pool.workers)
            )

    def _after_body(self, span, args, kwargs, result) -> None:
        # Coordinator-side encode_body is only ever handed one shard's
        # scatter payload list.
        payloads = args[0]
        if self.capturing and isinstance(payloads, list) and payloads:
            shard = _shard_id(payloads[0])
            dataset = (
                self.engine.dataset if shard is None
                else self.engine.shards[shard].engine.dataset
            )
            self.captured.append((span, list(payloads), dataset, None, 1))

    # -- program counters, read around each traced region --------------
    def _read_program_counters(self, server) -> Dict[str, float]:
        engine = self.engine
        io = engine.io.snapshot()
        out = {"node_visits": io.node_visits, "invfile_blocks": io.invfile_blocks}
        if server is not None:
            stats = server.stats.snapshot()
            out["batches"] = stats["batches_executed"]
            out["batch_queries"] = server.stats.batch_queries_sum
            out["full_flushes"] = stats["full_flushes"]
        gather = getattr(engine, "gather_stats", None)
        if gather is not None:
            out["merge_ms"] = gather()["merge_ms"]
        codec = getattr(engine, "payload_codec", None)
        if codec is not None:
            snap = codec.stats_snapshot()
            out["delta_hits"] = snap["delta_hits"]
            out["inline_fallbacks"] = snap["inline_fallbacks"]
        faults = getattr(engine, "fault_counters", None)
        if faults is not None:
            snap = faults()
            out["retries"] = snap["retries"]
            out["worker_deaths"] = snap["worker_deaths"]
        registry = getattr(engine, "_registry", None)
        if registry is not None:
            # No public accessor on ShardedEngine; the multihost bench
            # reads the same ledger the same way.
            sent, received = registry.bytes_totals()
            out["wire_kb_out"] = sent / 1024
            out["wire_kb_in"] = received / 1024
        return out

    def begin(self, phase: str, server) -> None:
        self.tracer.phase = phase
        self._before = self._read_program_counters(server)
        self.tracer.enabled = True

    def end(self, server, queries: Sequence, answers: Sequence) -> None:
        self.tracer.enabled = False
        counts = self.counts[self.tracer.phase]
        after = self._read_program_counters(server)
        for key, value in after.items():
            counts[key] += value - self._before.get(key, 0.0)
        for query, result in zip(queries, answers):
            if result is None:
                continue
            counts["answers"] += 1
            counts["locations"] += len(query.locations)
            counts["locations_pruned"] += result.stats.locations_pruned
            counts["combinations"] += result.stats.keyword_combinations_scored
        self.tracer.phase = None

    # -- replay (worker-side time) -------------------------------------
    def replay(self, phase: str) -> None:
        """Run the captured payloads as a worker would, in this process.

        Memoized arena refs are cached per process, and real workers
        have them warm; so within a segment the first captured flush
        only warms this process's cache and is not counted.
        """
        from repro.core.pipeline import execute_shard_payload

        tracer = self.tracer
        captured, self.captured = self.captured, []
        flushes = sorted({entry[0].flush for entry in captured})
        skip = {flushes[0]} if phase == "segment" and len(flushes) > 1 else set()
        tracer.enabled = True
        try:
            for span, payloads, dataset, context, workers in captured:
                counted = span.flush not in skip
                tracer.phase = phase + REPLAY if counted else None
                times = []
                with tracer.span("bench.replay", root=True, flush=span.flush):
                    for payload in payloads:
                        t0 = time.perf_counter()
                        execute_shard_payload(dataset, payload, context=context)
                        times.append(time.perf_counter() - t0)
                if counted:
                    # A pool round is as slow as its busiest worker.
                    self.compute[span] = max(max(times), sum(times) / workers)
        finally:
            tracer.enabled = False
            tracer.phase = None
        self.replayed[phase] += len(flushes) - len(skip)


# ----------------------------------------------------------------------
# Derivation
# ----------------------------------------------------------------------

def _rounds(spans: List[Span], starts, end_name: str) -> List[List[Span]]:
    """Group one flush's scatter spans into rounds: a run of dispatches
    (``starts``: the spans whose payloads were replayed) followed by the
    collects that drain it."""
    rounds: List[List[Span]] = []
    collecting = True
    for span in sorted(spans, key=lambda s: s.start):
        if span in starts:
            if collecting:
                rounds.append([])
                collecting = False
            rounds[-1].append(span)
        elif span.name == end_name and rounds:
            rounds[-1].append(span)
            collecting = True
    return rounds


def derive(
    probe: LayerProbe,
    *,
    setup_phase: str,
    arena_mb: float,
    traced_segment_s: float,
    overhead_ratio: float,
    latency_ms_p95: float,
) -> Dict[str, float]:
    """Every ``LAYER_METRICS`` value from the recorded spans and counts."""
    tracer = probe.tracer
    own = tracer.self_times()
    self_s: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    total_s: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    flush_ids: Dict[str, set] = defaultdict(set)
    by_flush: Dict[int, List[Span]] = defaultdict(list)
    for span in tracer.spans:
        if span.phase is None:
            continue
        if span.flush:
            flush_ids[span.phase].add(span.flush)
            by_flush[span.flush].append(span)
        if span.root:
            continue
        self_s[span.phase][span.name] += own[span]
        total_s[span.phase][span.name] += span.duration
        calls[span.phase][span.name] += 1

    flushes = {phase: max(1, len(flush_ids[phase])) for phase in PHASES}
    replayed = {phase: max(1, probe.replayed[phase]) for phase in PHASES}

    def busy_ms(*names: str, table=self_s) -> float:
        """Per-flush busy ms (coordinator + replayed workers), from the
        first phase that entered the layer."""
        for phase in PHASES:
            here = sum(table[phase][n] for n in names) / flushes[phase]
            there = sum(table[phase + REPLAY][n] for n in names) / replayed[phase]
            if here + there > 0:
                return 1000 * (here + there)
        return 0.0

    def count(key: str, per: str = "flush") -> float:
        for phase in PHASES:
            counts = probe.counts[phase]
            if counts[key]:
                denominator = flushes[phase] if per == "flush" else counts[per]
                return counts[key] / max(1, denominator)
        return 0.0

    def setup_ms(name: str) -> float:
        return 1000 * self_s[setup_phase][name]

    # Scatter rounds of the replayed flushes: round wall time against
    # the busiest worker's compute.
    def scatter(start: str, end: str) -> Tuple[float, float]:
        starts = {s for s in probe.compute if s.name == start}
        for phase in PHASES:
            compute_s = overhead_s = 0.0
            for flush in flush_ids[phase]:
                spans = [s for s in by_flush[flush] if s.phase == phase]
                for group in _rounds(spans, starts, end):
                    busiest = [
                        probe.compute[s] for s in group if s in probe.compute
                    ]
                    if not busiest:
                        continue
                    wall = max(s.end for s in group) - min(s.start for s in group)
                    compute_s += max(busiest)
                    overhead_s += wall - max(busiest)
            if compute_s:
                return (1000 * compute_s / replayed[phase],
                        1000 * overhead_s / replayed[phase])
        return 0.0, 0.0

    pool_compute, pool_overhead = scatter(
        "serve.pool.dispatch", "serve.pool.collect_wait"
    )
    host_compute, _ = scatter(
        "serve.transport.frame_codec", "serve.transport.recv_wait"
    )

    # Queue wait: a request's latency minus the flush that answered it
    # (the flush whose end most closely precedes the reply).
    flush_spans = sorted(
        (s for s in tracer.spans
         if s.name == FLUSH_SPAN and s.phase == "segment"),
        key=lambda s: s.end,
    )
    waits = []
    for request in tracer.spans:
        if request.name != "bench.request" or request.phase != "segment":
            continue
        served = [f for f in flush_spans if f.end <= request.end]
        if served:
            waits.append(request.duration - served[-1].duration)
    queue_wait_ms = 1000 * sum(waits) / len(waits) if waits else 0.0

    ships = sum(calls[phase]["core.payload.ship"] for phase in PHASES)
    delta_hits = sum(probe.counts[phase]["delta_hits"] for phase in PHASES)
    segment = probe.counts["segment"]
    layer_self = sum(
        seconds for name, seconds in self_s["segment"].items()
        if name != FLUSH_SPAN
    )

    values = {
        "datagen.make_workload_ms": setup_ms("datagen.make_workload"),
        "index.mirtree_build_ms": setup_ms("index.mirtree_build"),
        "core.kernels.prewarm_ms": setup_ms("core.kernels.prewarm"),
        "serve.sharded.build_ms": setup_ms("serve.sharded.build"),
        "serve.pool.start_ms": setup_ms("serve.pool.start"),
        "serve.shardhost.spawn_ms": setup_ms("serve.shardhost.spawn"),
        "serve.transport.connect_ms": setup_ms("serve.transport.connect"),
        "storage.shm.arena_mb": arena_mb,
        "core.planner.plan_us": 1000 * busy_ms("core.planner.plan"),
        "core.joint_topk.traverse_ms": busy_ms("core.joint_topk.traverse"),
        "core.joint_topk.refine_ms": busy_ms("core.joint_topk.refine"),
        "storage.pager.node_visits": count("node_visits"),
        "storage.pager.invfile_blocks": count("invfile_blocks"),
        "core.joint_topk.pool_candidates": count("pool_candidates", "traversals"),
        "core.candidate_selection.select_ms":
            busy_ms("core.candidate_selection.select"),
        "core.candidate_selection.locations_pruned_ratio":
            count("locations_pruned", "locations"),
        "core.keyword_selection.combinations_scored":
            count("combinations", "answers"),
        "serve.server.flush_exec_ms":
            busy_ms(FLUSH_SPAN, table=total_s),
        "serve.server.queue_wait_ms": queue_wait_ms,
        "serve.server.avg_batch": segment["batch_queries"] / max(1, segment["batches"]),
        "serve.server.full_flush_ratio":
            segment["full_flushes"] / max(1, segment["batches"]),
        "serve.server.latency_ms_p95": latency_ms_p95,
        "core.pipeline.traverse_ms": count("pipeline.traverse_ms"),
        "core.pipeline.refine_ms": count("pipeline.refine_ms"),
        "core.pipeline.shortlist_ms": count("pipeline.shortlist_ms"),
        "core.pipeline.search_ms": count("pipeline.search_ms"),
        "core.pipeline.select_ms": count("pipeline.select_ms"),
        "core.pipeline.payload_out_kb": count("payload_out_kb"),
        "core.pipeline.payload_in_kb": count("payload_in_kb"),
        "serve.sharded.merge_ms": count("merge_ms"),
        "core.payload.encode_ms":
            busy_ms("core.payload.encode", "core.payload.ship"),
        "core.payload.decode_ms": busy_ms("core.payload.decode"),
        "core.payload.delta_hit_ratio": delta_hits / ships if ships else 0.0,
        "core.payload.inline_fallbacks": sum(
            probe.counts[phase]["inline_fallbacks"] for phase in PHASES
        ),
        "storage.shm.write_ms": busy_ms("storage.shm.write"),
        "storage.shm.read_ms": busy_ms("storage.shm.read"),
        "serve.pool.dispatch_ms": busy_ms("serve.pool.dispatch"),
        "serve.pool.collect_wait_ms": busy_ms("serve.pool.collect_wait"),
        "serve.pool.worker_compute_ms": pool_compute,
        "serve.pool.overhead_ms": pool_overhead,
        "serve.pool.retries": sum(
            probe.counts[phase]["retries"] for phase in PHASES
        ),
        "serve.transport.frame_codec_ms": busy_ms("serve.transport.frame_codec"),
        "serve.transport.send_ms": busy_ms("serve.transport.send"),
        "serve.transport.recv_wait_ms": busy_ms("serve.transport.recv_wait"),
        "serve.shardhost.compute_ms": host_compute,
        "serve.transport.wire_kb_out": count("wire_kb_out"),
        "serve.transport.wire_kb_in": count("wire_kb_in"),
        "serve.transport.host_deaths": sum(
            probe.counts[phase]["worker_deaths"] for phase in PHASES
        ),
        # "The layers must add up": leaf-layer self times over the wall
        # time of the traced segments they were recorded in.  The flush
        # span's own self time is left out: it is the remainder no layer
        # span covers, and counting it would make the ratio 1 by
        # construction.
        "trace.coverage_ratio":
            layer_self / traced_segment_s if traced_segment_s else 0.0,
        "trace.overhead_ratio": overhead_ratio,
    }
    assert set(values) == {name for name, _ in LAYER_METRICS}
    return values
