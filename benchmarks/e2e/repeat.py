#!/usr/bin/env python3
"""Repeatability check: alternating sets of runs of the same code.

    python3 benchmarks/e2e/repeat.py --sets 2 --runs 5

Runs ``--sets`` sets of ``--runs`` runs per workload, alternating between
the sets (run 1 of every set, then run 2 of every set, ...) with a new
``--seed`` for each run index, and prints per workload x end-to-end
metric each set's median and quartiles, their spread (the distance
between the quartiles as a share of the median) and the gap between the
two set medians furthest apart, as a share of the smaller — all against
the metric's own bound from ``BENCHMARK.json``.  The sets run the same
code, so the gap has no direction: a set that reads better than another
by more than the bound is as much a breach as one that reads worse.
Exits non-zero when a gap exceeds its bound, or a spread does
(``setup_s`` is exempt from the spread test, as in the harness that
judges the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
FIRST_SEED = 1


def run_once(command: List[str], workload: str, seed: int, seconds: int) -> Dict:
    """One benchmark run; the result is the last line of its stdout."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=5,
                        help="runs per set and workload (>= 2)")
    parser.add_argument("--markdown", metavar="PATH", default=None,
                        help="also write the table there")
    args = parser.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        parser.error("--runs must be >= 2 and --sets >= 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    # values[workload][metric][set] -> one value per run
    values = {
        w: {m["name"]: [[] for _ in range(args.sets)] for m in metrics}
        for w in names
    }
    started = time.time()
    for run in range(args.runs):
        for set_index in range(args.sets):
            for workload in names:
                result = run_once(
                    spec["command"], workload, FIRST_SEED + run,
                    spec["run_seconds"],
                )
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload}: incorrect run: {result}")
                for name, entry in result["metrics"].items():
                    values[workload][name][set_index].append(entry["value"])
                print(f"[{time.time() - started:6.0f}s] run {run + 1}/"
                      f"{args.runs} set {set_index + 1} {workload}: "
                      + " ".join(f"{n}={e['value']:.4g}"
                                 for n, e in result["metrics"].items()),
                      flush=True)

    header = (
        "| workload | metric | bound | "
        + " | ".join(f"set {i + 1} median [q1, q3] (spread)"
                     for i in range(args.sets))
        + " | gap | verdict |"
    )
    lines = [header, "|" + "---|" * (5 + args.sets)]
    breaches = 0
    for workload in names:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            cells, medians, verdict = [], [], "ok"
            for per_set in values[workload][name]:
                q1, median, q3 = statistics.quantiles(per_set, n=4)
                spread = (q3 - q1) / median
                medians.append(median)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] ({spread:.1%})")
                if name != "setup_s" and spread > bound:
                    verdict = "SPREAD"
            gap = (max(medians) - min(medians)) / min(medians)
            if gap > bound:
                verdict = "GAP"
            breaches += verdict != "ok"
            lines.append(
                f"| {workload} | {name} | {bound:.1%} | " + " | ".join(cells)
                + f" | {gap:.1%} | {verdict} |"
            )
    table = "\n".join(lines)
    print()
    print(table)
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write(table + "\n")
    print(f"\n{breaches} breach(es) in {time.time() - started:.0f} s")
    return 1 if breaches else 0


if __name__ == "__main__":
    raise SystemExit(main())
