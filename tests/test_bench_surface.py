"""The program surface the end-to-end benchmark reaches stays whole.

``benchmarks/e2e`` wraps program functions by name
(``layers.LayerProbe.install``), builds its engines through the public
constructors (``workloads.ServePool.build_engine``) and reads counters
off the engine (``LayerProbe._read_program_counters``).  The harness is
frozen between benchmark revisions, so a refactor that drops or
rebinds one of those names breaks the benchmark, not a unit test.  This
test drives that surface the way ``run.py`` does — install the probe,
build the smoke-scale ``serve-pool`` engine, attach the flush span,
read the counters around one traced ``query_batch`` — in a fresh
interpreter with ``benchmarks/e2e`` on ``sys.path``, and reads the
harness without editing it.  A missing name fails here with the
harness's own error, which names the site.
"""

import json
import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json, sys
sys.path[:0] = [{src!r}, {e2e!r}]

import layers
import workloads
from repro import EngineConfig
from repro.serve import ShardedEngine
from repro.serve.shardhost import make_workload
from tracing import Tracer

tracer = Tracer()
probe = layers.LayerProbe(tracer)
probe.install()

cell = workloads.ServePool(workloads.SMOKE, tracer)
cell.dataset, cell.workload = make_workload(cell.spec)
engine = cell.build_engine()
assert type(engine) is ShardedEngine, type(engine)
assert engine.config == EngineConfig(num_shards=2, use_shm=True), engine.config

tracer.enabled, tracer.phase = True, "setup"
engine.prewarm_kernels()
with engine.start_pools():
    probe.attach(engine, layers.FLUSH_SPAN, root=True)
    queries = workloads.make_queries(cell.workload, workloads.SMOKE)
    queries = queries[:workloads.COLD_BATCH]
    tracer.phase = "segment"
    before = probe._read_program_counters(None)
    answers = engine.query_batch(queries, workloads.OPTIONS)
    after = probe._read_program_counters(None)
    tracer.enabled = False

print(json.dumps({{
    "answers": sum(answer is not None for answer in answers),
    "queries": len(queries),
    "before": before,
    "after": after,
    "spans": [
        [span.name, span.parent.name if span.parent else None, span.phase]
        for span in tracer.spans
    ],
}}))
"""

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture(scope="module")
def traced():
    script = SCRIPT.format(
        src=str(ROOT / "src"), e2e=str(ROOT / "benchmarks" / "e2e")
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


pytestmark = pytest.mark.skipif(not HAS_FORK, reason="serve-pool forks its hosts")


def test_the_traced_flush_answers_every_query(traced):
    assert traced["answers"] == traced["queries"] > 0


def test_setup_spans_are_the_ones_the_harness_times(traced):
    """One prewarm span per engine class the harness wraps — nested, as
    a ShardedEngine is a MaxBRSTkNNEngine — and the fleet's start."""
    setup = [(name, parent) for name, parent, phase in traced["spans"] if phase == "setup"]
    prewarm = "core.kernels.prewarm"
    assert (prewarm, None) in setup
    assert (prewarm, prewarm) in setup
    assert ("serve.pool.start", None) in setup


def test_the_flush_records_the_layers_it_crosses(traced):
    names = {name for name, _, phase in traced["spans"] if phase == "segment"}
    for layer in (
        "serve.server.flush_exec", "core.planner.plan", "core.joint_topk.traverse",
        "core.payload.encode", "serve.transport.send", "serve.transport.recv_wait",
    ):
        assert layer in names, layer


def test_program_counters_move_across_the_flush(traced):
    before, after = traced["before"], traced["after"]
    assert set(before) == set(after) == {
        "node_visits", "invfile_blocks", "merge_ms", "delta_hits",
        "inline_fallbacks", "retries", "worker_deaths", "wire_kb_out", "wire_kb_in",
    }
    assert after["node_visits"] > before["node_visits"]
    assert after["wire_kb_out"] > before["wire_kb_out"]
    assert after["wire_kb_in"] > before["wire_kb_in"]
    assert after["worker_deaths"] == before["worker_deaths"] == 0
