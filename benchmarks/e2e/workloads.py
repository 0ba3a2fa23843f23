"""Shared inputs and the four workloads of the end-to-end benchmark.

Every workload answers queries from one pool over one dataset; they
differ only in the serving path between the caller and the kernels:

* ``paper-cold``   — sequential ``MaxBRSTkNNEngine.query``, every query
  cold (the paper's per-query setting);
* ``serve-inproc`` — micro-batching server over a plain engine;
* ``serve-pool``   — the same traffic over a 2-shard ``ShardedEngine``
  with shm payloads and one fork-pool worker per shard;
* ``serve-socket`` — the same engine scattering to two real
  ``python -m repro shard-host`` processes over localhost TCP.

The program under test only ever sees the generated dataset and
queries; nothing here reaches into it beyond its public surface.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import random
import select
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import EngineConfig, MaxBRSTkNNEngine, QueryOptions
from repro.datagen import query_pool
from repro.serve import MaxBRSTkNNServer, ServerConfig, ShardedEngine, WorkloadSpec
from repro.serve.shardhost import make_workload

#: The dataset and the query set are one fixed draw each; ``--seed``
#: draws the *traffic*: the order in which the callers submit the
#: queries, hence which queries share a micro-batch.  Measured on this
#: machine: redrawing the dataset per seed moved ``qps`` between 12 and
#: 24 q/s and ``io_per_query`` between 1320 and 1881, and redrawing only
#: the queries' candidate locations still moved the best-of-6 segment
#: time by 11 % between seeds (0.818-0.913 s) — either would drown a
#: 15 % regression bound, whose spread is judged *across* seeds.
DATASET_SEED = 0
QUERY_SEED = 0
OPTIONS = QueryOptions.default()
KS = (5, 10, 20)
CALLERS = 8          # closed loop: each caller awaits its reply
#: One mixed-k flush after invalidation.  4, not a full micro-batch of
#: 8: the round is a single indivisible sample, so a run needs many of
#: them, and the extra selections only dilute the phase-1 share.
COLD_BATCH = 4
WORKLOADS = ("paper-cold", "serve-inproc", "serve-pool", "serve-socket")


@dataclass(frozen=True)
class Scale:
    """Input sizes and run shape (full scale vs ``--smoke``)."""

    objects: int
    users: int
    pool: int              # distinct queries generated per run
    cold_segment: int      # queries per paper-cold segment
    serve_segment: int     # queries per serve-* segment
    verify: int            # queries checked against a fresh engine
    warmup_segments: int
    min_pairs: int         # measured (segment, cold round) pairs, lower cap
    max_pairs: int
    setup_cycles: int


#: The paper's scaled default cell.  Segment sizes are what fits the
#: harness's total time cap with >= 6 measured segments per run.
FULL = Scale(objects=4000, users=400, pool=80, cold_segment=9,
             serve_segment=16, verify=12, warmup_segments=2,
             min_pairs=6, max_pairs=32, setup_cycles=5)
SMOKE = Scale(objects=300, users=40, pool=24, cold_segment=6,
              serve_segment=16, verify=8, warmup_segments=1,
              min_pairs=2, max_pairs=2, setup_cycles=2)


def make_queries(workload, scale: Scale) -> list:
    """The fixed pool of distinct queries, ``k`` cycling through ``KS``."""
    queries = query_pool(
        workload, scale.pool, num_locations=20, ws=2,
        seed=QUERY_SEED, seed_stride=101,
    )
    return [
        dataclasses.replace(q, k=KS[i % len(KS)]) for i, q in enumerate(queries)
    ]


def submission_order(queries: Sequence, seed: int) -> list:
    """The segment's traffic: ``queries`` in the order ``--seed`` draws."""
    order = list(queries)
    random.Random(seed).shuffle(order)
    return order


def answer_key(result) -> tuple:
    """What "the same answer" means: location, keywords, BRSTkNN ids."""
    return (result.location, result.keywords, result.brstknn)


@dataclass
class Batch:
    """Outcome of one timed region (a segment or a cold round)."""

    queries: Sequence
    elapsed_s: float
    latencies_s: List[float]          # per query, submit -> reply
    done_s: List[float]               # per query, region start -> reply
    answers: List[Optional[object]]   # MaxBRSTkNNResult, None = failed op

    @property
    def failed(self) -> int:
        return sum(1 for a in self.answers if a is None)

    def unit_times(self, unit: int) -> List[float]:
        """Service time of each successive group of ``unit`` replies.

        Closed-loop callers keep the server busy back to back, so the
        gap between one group's last reply and the next group's is that
        group's service time; the groups add up to ``elapsed_s``.
        """
        ends = sorted(self.done_s)[unit - 1::unit]
        return [end - start for start, end in zip([0.0, *ends], ends)]


class Workload:
    """One set-up/tear-down cycle of one workload.

    ``tracer`` is ``None`` on untraced runs; set-up layer spans are the
    only tracing the workloads do themselves (query-path spans come
    from the wrappers in ``layers.py``).
    """

    name = ""
    #: Replies per service unit of a segment: one micro-batch.
    unit = 8

    def __init__(self, scale: Scale, tracer=None) -> None:
        self.scale = scale
        self.tracer = tracer
        self.spec = WorkloadSpec(
            objects=scale.objects, users=scale.users, seed=DATASET_SEED
        )
        self.dataset = None
        self.workload = None
        self.engine = None
        self.server: Optional[MaxBRSTkNNServer] = None

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @property
    def segment_queries(self) -> int:
        return self.scale.serve_segment

    # -- lifecycle (setup_s covers all of setup()) ---------------------
    async def setup(self) -> None:
        with self.span("datagen.make_workload"):
            self.dataset, self.workload = make_workload(self.spec)
        self.engine = self.build_engine()
        await self.start()

    def build_engine(self):
        return MaxBRSTkNNEngine(self.dataset, EngineConfig())

    async def start(self) -> None:
        raise NotImplementedError

    async def teardown(self) -> None:
        """Stop everything and drop the dataset (the next cycle's RSS
        and leak gate must not see this one)."""
        try:
            if self.server is not None:
                await self.server.stop()
        finally:
            try:
                self.disconnect()
            finally:
                self.server = self.engine = self.dataset = self.workload = None

    def disconnect(self) -> None:
        """Release what ``start`` acquired beyond the server."""

    # -- timed regions -------------------------------------------------
    async def segment(self, queries: Sequence) -> Batch:
        raise NotImplementedError

    async def cold_round(self, queries: Sequence) -> Batch:
        raise NotImplementedError


class PaperCold(Workload):
    name = "paper-cold"
    unit = 1   # sequential: every query is its own unit

    @property
    def segment_queries(self) -> int:
        return self.scale.cold_segment

    async def start(self) -> None:
        self.engine.prewarm_kernels()

    def _query_span(self):
        """Each sequential query is its own flush in the trace."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(
            "bench.query", root=True, flush=self.tracer.new_flush_id()
        )

    async def segment(self, queries: Sequence) -> Batch:
        latencies, done, answers = [], [], []
        t0 = time.perf_counter()
        for query in queries:
            t = time.perf_counter()
            try:
                with self._query_span():
                    result = self.engine.query(query, OPTIONS)
            except Exception:  # noqa: BLE001 - a failed operation, counted
                result = None
            end = time.perf_counter()
            latencies.append(end - t)
            done.append(end - t0)
            answers.append(result)
        return Batch(queries, time.perf_counter() - t0, latencies, done, answers)

    async def cold_round(self, queries: Sequence) -> Batch:
        self.engine.clear_topk_cache()
        t0 = time.perf_counter()
        try:
            answers = list(self.engine.query_batch(list(queries), OPTIONS))
        except Exception:  # noqa: BLE001 - the whole flush failed
            answers = [None] * len(queries)
        return Batch(queries, time.perf_counter() - t0, [], [], answers)


class ServeInproc(Workload):
    """Closed loop: ``CALLERS`` coroutines, each awaiting its reply."""

    name = "serve-inproc"
    pool_workers = 0

    async def start(self) -> None:
        # The server runs each flush on the loop's default executor.  One
        # flush thread (flushes never overlap) instead of the default
        # cpu_count + 4: which thread's malloc arena a flush lands in
        # moved rss_peak_mb by 6 % between otherwise identical runs.
        asyncio.get_running_loop().set_default_executor(
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="flush")
        )
        self.server = MaxBRSTkNNServer(
            self.engine,
            ServerConfig(max_batch=self.unit, max_wait_ms=2.0,
                         pool_workers=self.pool_workers),
        )
        await self.server.start()

    async def _submit_all(self, queries: Sequence, lanes: int) -> Batch:
        """``lanes`` callers share ``queries`` round-robin; each submits
        its next query only after the previous reply."""
        latencies = [0.0] * len(queries)
        done = [0.0] * len(queries)
        answers: List[Optional[object]] = [None] * len(queries)
        tracer = self.tracer
        t0 = time.perf_counter()

        async def caller(lane: int) -> None:
            for i in range(lane, len(queries), lanes):
                t = time.perf_counter()
                try:
                    answers[i] = await self.server.submit(queries[i])
                except Exception:  # noqa: BLE001 - failed or refused, counted
                    answers[i] = None
                end = time.perf_counter()
                latencies[i] = end - t
                done[i] = end - t0
                if tracer is not None:
                    tracer.record("bench.request", t, end, tid=lane + 1)

        await asyncio.gather(*(caller(lane) for lane in range(lanes)))
        return Batch(queries, time.perf_counter() - t0, latencies, done, answers)

    async def segment(self, queries: Sequence) -> Batch:
        return await self._submit_all(queries, CALLERS)

    async def cold_round(self, queries: Sequence) -> Batch:
        # Invalidation beside the reads: the next flush must traverse
        # and refine again (and, sharded, scatter both).
        self.engine.clear_topk_cache()
        return await self._submit_all(queries, len(queries))


class ServePool(ServeInproc):
    name = "serve-pool"
    pool_workers = 1

    def build_engine(self):
        with self.span("serve.sharded.build"):
            return ShardedEngine(
                self.dataset, EngineConfig(num_shards=2, use_shm=True)
            )


class ServeSocket(ServePool):
    name = "serve-socket"
    pool_workers = 0   # the hosts replace the fork pools

    def __init__(self, scale: Scale, tracer=None) -> None:
        super().__init__(scale, tracer)
        self.hosts: List[subprocess.Popen] = []

    async def start(self) -> None:
        with self.span("serve.shardhost.spawn"):
            ports = self._spawn_hosts(2)
        with self.span("serve.transport.connect"):
            self.engine.connect_hosts([f"127.0.0.1:{p}" for p in ports])
        await super().start()

    def _spawn_hosts(self, count: int, timeout_s: float = 60.0) -> List[int]:
        """``count`` real shard-host processes (as
        ``benchmarks/bench_multihost.py::spawn_host`` does, but started
        together so they build their replicas concurrently)."""
        src = os.path.dirname(os.path.dirname(sys.modules["repro"].__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH", "")])
        )
        cmd = [
            sys.executable, "-m", "repro", "shard-host",
            "--listen", "127.0.0.1:0", "--shards", str(count),
            *self.spec.cli_args(),
        ]
        for _ in range(count):
            self.hosts.append(subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, env=env,
            ))
        deadline = time.monotonic() + timeout_s
        return [self._read_port(proc, deadline) for proc in self.hosts]

    @staticmethod
    def _read_port(proc: subprocess.Popen, deadline: float) -> int:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("shard-host never reported its port")
            if not select.select([proc.stdout], [], [], remaining)[0]:
                continue
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError("shard-host exited before listening")
            if line.startswith("SHARDHOST LISTENING"):
                return int(line.split()[-1])

    def disconnect(self) -> None:
        try:
            if self.engine is not None:
                self.engine.close_hosts()
        finally:
            self._stop_hosts()

    def _stop_hosts(self) -> None:
        for proc in self.hosts:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.hosts:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        self.hosts = []


BY_NAME = {
    cls.name: cls for cls in (PaperCold, ServeInproc, ServePool, ServeSocket)
}


def reference_answers(dataset, queries: Sequence) -> List[tuple]:
    """Ground truth: a fresh engine answering sequentially, cold."""
    engine = MaxBRSTkNNEngine(dataset, EngineConfig())
    return [answer_key(engine.query(q, OPTIONS)) for q in queries]
