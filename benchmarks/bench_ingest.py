"""Ingest cost: build seconds per phase and peak RSS against |O| / |U|.

Not a paper figure — this measures what it takes to *stand up* the
paper's setting: generate a Flickr-like object set as columns, draw the
users, build the :class:`~repro.model.dataset.Dataset` (relevance fit
and object weights), the MIR-tree and the kernel arrays, then answer one
query cold (Algorithms 1-3, the paper's per-query setting) and warm
(phase 1 shared, as a serving flush reuses it).  Each cell runs in its
own process so its peak RSS is its own.

Run::

    python benchmarks/bench_ingest.py              # 4k/400, 32k/4k, 128k/1k
    python benchmarks/bench_ingest.py --paper      # ... and 1M/1K
    python benchmarks/bench_ingest.py --tiny       # CI smoke

``--tiny`` builds a 300-object cell and exits non-zero unless the
engine's answers to 4 queries equal ``repro.oracle.query``'s (location,
keywords, BRSTkNN).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro import Dataset, EngineConfig, MaxBRSTkNNEngine, QueryOptions, oracle  # noqa: E402
from repro.datagen import candidate_locations, flickr_like, generate_users, query_pool  # noqa: E402

CELLS = ((4_000, 400), (32_000, 4_000), (128_000, 1_000))
PAPER_CELL = (1_000_000, 1_000)
PHASES = ("generate", "users", "dataset", "index", "prewarm")


def run_cell(objects: int, users: int, seed: int = 0, queries: int = 1) -> dict:
    """Build one cell and answer ``queries`` queries; seconds per phase."""
    out = {"objects": objects, "users": users}
    clock = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        out[f"{name}_s"] = now - clock
        clock = now

    table, vocab = flickr_like(num_objects=objects, seed=seed)
    lap("generate")
    workload = generate_users(table, num_users=users, seed=seed)
    candidate_locations(workload, num_locations=20, seed=seed)
    lap("users")
    dataset = Dataset(table, workload.users, relevance="LM", alpha=0.5, vocabulary=vocab)
    lap("dataset")
    engine = MaxBRSTkNNEngine(dataset, EngineConfig())
    lap("index")
    engine.prewarm_kernels()
    lap("prewarm")
    out["build_s"] = sum(out[f"{p}_s"] for p in PHASES)

    pool = query_pool(workload, queries, num_locations=20, ws=2, k=10, seed=seed,
                      seed_stride=101)
    options = QueryOptions.default()
    t0 = time.perf_counter()
    cold = [engine.query(q, options) for q in pool]
    out["cold_query_s"] = (time.perf_counter() - t0) / len(pool)
    engine.query_batch(pool[:1], options)  # phase 1 shared from here on
    t0 = time.perf_counter()
    warm = engine.query_batch(pool, options)
    out["warm_query_s"] = (time.perf_counter() - t0) / len(pool)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["_engine"], out["_queries"], out["_answers"] = engine, pool, (cold, warm)
    return out


def tiny() -> int:
    """CI smoke: a small cell, 4 answers checked against the oracle."""
    row = run_cell(300, 40, seed=3, queries=4)
    engine, queries, (cold, warm) = row["_engine"], row["_queries"], row["_answers"]
    options = QueryOptions.default()
    key = lambda r: (r.location, r.keywords, r.brstknn)  # noqa: E731
    expected = [key(oracle.query(engine, q, options)) for q in queries]
    ok = [key(r) for r in cold] == expected and [key(r) for r in warm] == expected
    print(format_row(row))
    print(f"oracle check: {'identical' if ok else 'MISMATCH'} ({len(queries)} queries)")
    return 0 if ok else 1


def format_row(row: dict) -> str:
    phases = " ".join(f"{p}={row[f'{p}_s']:.3f}" for p in PHASES)
    return (
        f"|O|={row['objects']:>9,} |U|={row['users']:>5,}  {phases}  "
        f"build={row['build_s']:.2f}s  cold={row['cold_query_s']:.3f}s  "
        f"warm={row['warm_query_s']:.3f}s  rss={row['peak_rss_mb']:.0f}MB"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="CI smoke (oracle-checked)")
    parser.add_argument("--paper", action="store_true",
                        help="also run the paper's default |O|=1M, |U|=1K")
    parser.add_argument("--cell", nargs=2, type=int, metavar=("OBJECTS", "USERS"),
                        help="run one cell in this process, print its JSON")
    parser.add_argument("--json", help="write the rows to this file")
    args = parser.parse_args(argv)
    if args.tiny:
        return tiny()
    if args.cell:
        row = run_cell(*args.cell)
        print(json.dumps({k: v for k, v in row.items() if not k.startswith("_")}))
        return 0
    rows = []
    for objects, users in CELLS + ((PAPER_CELL,) if args.paper else ()):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--cell", str(objects), str(users)],
            check=True, capture_output=True, text=True,
        )
        rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(format_row(rows[-1]), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(rows, fh, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
