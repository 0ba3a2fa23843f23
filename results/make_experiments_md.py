"""Assemble EXPERIMENTS.md from results/full_report.txt + commentary.

Run from the repo root after ``python -m repro.bench.report > results/full_report.txt``:

    python results/make_experiments_md.py
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPORT = ROOT / "results" / "full_report.txt"

HEADER = """\
# EXPERIMENTS — paper vs. measured

Every table and figure of the paper's Section 8, regenerated by
`python -m repro.bench.report` (full sweeps; the tables below are that
run's verbatim output, kept in `results/full_report.txt`).  One panel
table, `repro.bench.report.FIGURES`, drives both the report and
`pytest benchmarks/test_figures.py --benchmark-only`, which times the
cells of the quick grid.

**Scale.** The paper ran 1M–8M Flickr objects / up to 16K users on a
24-core Xeon with a Java, disk-resident implementation.  The harness
times the scalar reference forms (`repro.oracle`, Section 4's baseline)
on one core: a faithful index at paper scale is not feasible in
benchmark time, so every scale knob is divided by ~250 with all ratios
preserved: |O| = 4000 (paper 1M), |U| = 400 (paper 1K), Area 5×5 of a
50×50 space, defaults k = 10, α = 0.5, UL = 3, UW = 20, |L| = 20,
ws = 2, LM smoothing λ = 0.2.  Absolute runtimes are NOT comparable;
the reproduction targets are the *shapes*: who wins, by roughly what
factor, and where behaviour changes.

**This run.** 2 vCPU, one BLAS thread, Python 3.11, nothing else
running; the full report took 21 min.  Every ms value is ONE timed run
of its cell, so single cells wander by up to ~1.5× (B(LM) selection at
k = 20 reads 8.4 s beside 5.7–6.3 s at the other k); the I/O, ratio,
|BRSTkNN| and users-pruned columns are deterministic.

**Metrics**, as in the paper: MRPU = mean runtime per user of the top-k
phase (ms); MIOCPU = mean simulated I/O per user (1 I/O per tree-node
visit + ceil(bytes/4096) per inverted list, 4 kB pages, cold queries);
candidate-selection runtime for the exhaustive Baseline (B), pruned
Exact (E) and greedy Approximate (A); approximation ratio =
|BRSTkNN(A)| / |BRSTkNN(E)|.

**Headline reproduction results**

| Paper claim | Reproduced? | Where |
|---|---|---|
| Joint top-k beats per-user baseline on I/O by orders of magnitude | yes — MIOCPU 177 vs 3.79 at defaults (47×); 8–61× over k and measures, 108× at UW = 5, 110× in total I/O at \\|U\\| = 1000 | Fig 5b/6b/7b/8b/12b |
| Joint top-k beats baseline runtime | yes at defaults (9.7 vs 3.2 ms per user, 3×); inverts at UL ≤ 2 (weak group thresholds inflate the candidate pool, see Fig 7), at UW = 40 (13.9 vs 13.2 ms) and for TF at k = 1 | Fig 5a/7a/8a |
| Approx is orders faster than Exact | yes where Exact is combinatorial: 2.6× at ws = 2, 475× at ws = 6 (Fig 11); at ws = 2 elsewhere A is only 1.0–4× under E, and slower at \\|U\\| = 25 and 1000 | Fig 11, 5c, 12c |
| Approximation ratio 0.6–1.0, rising with k and α | partially — every ratio lies in 0.60–1.00 except KO at k = 1 (0: E wins 2 users, A none); LM reads 1.00 at every k and α, so no rise shows; KO rises 0 → 1.00 with k; TF dips 0.83 → 0.60 at k = 20 and is 1.00 at k = 50 | Fig 5d/6d |
| KO is the costliest measure for top-k | partially — KO's baseline I/O is the highest at k = 50 (231 vs 215 LM, 214 TF), LM's at k ≤ 20 | Fig 5a/5b |
| MIUR-tree prunes 5–12.5% of users, rising with \\|U\\|, and saves I/O | pruning yes, I/O no — 0 → 27.2% of users pruned up to \\|U\\| = 1000, 24.0% at 2000; the indexed search reads MORE I/O than a flat user-file scan plus the joint pipeline at all five \\|U\\| (2169 vs 2132 up to 2992 vs 2552), which is why Section 7 is reference code, not an engine mode | Fig 15 |
| Trends consistent across Flickr and Yelp | yes | Fig 14 |

---
"""

COMMENTARY = {
    "table4": (
        "## Table 4 — dataset properties",
        """Synthetic stand-ins generated by `repro.datagen` (the Yahoo Flickr
extract and the Yelp academic dataset are not redistributable).  The
generators match the paper's *shape*: Flickr-like = many objects with
~6.9 unique tags each (paper: 6.9) over a large Zipf vocabulary and
clustered locations; Yelp-like = ~6× fewer objects than Flickr cells
with long, term-repeating documents (paper: 398.7 unique terms/object;
ours averages ~120 at the reduced vocabulary scale).
Paper: 1,000,000 Flickr objects / 166,317 terms; 61,185 Yelp objects /
266,869 terms.""",
    ),
    "fig5": (
        "## Figure 5 — effect of k",
        """Paper shape: joint (J) far below baseline (B) in both MRPU and
MIOCPU for all three measures; B grows with k, J's I/O stays flat;
approx (A) is far cheaper than exact (E) and both far cheaper than the
exhaustive scan (B); the approximation ratio rises with k.

Measured: J's MIOCPU is 3.79 per user at every k for every measure (one
shared traversal) while B's grows from 32–56 at k = 1 to 214–231 at
k = 50 — an 8–61× I/O gap, the paper's headline.  J's MRPU beats B's
for every measure at k ≥ 5 (LM at k = 10: 3.2 vs 9.7 ms) and at k = 1
except TF (1.36 vs 1.14 ms).  Selection at ws = 2: B takes 3.3–8.5 s,
6.5–71× over E; A is 2.8–3.0× under E for LM at k ≥ 5 but level with it
at k = 1 (763 vs 782 ms), and only 1.0–1.5× under it for TF and KO,
whose exact search prunes well.  Ratios: LM 1.00 throughout; KO rises
0 → 0.67 → 0.80 → 1.00 with k (at k = 1 the exact optimum wins 2 users
and the greedy none, a tiny-denominator artifact of the scaled
workload); TF dips 0.83 → 0.60 at k = 20 (15 vs 25 users) and reads
1.00 at k = 50 — not the paper's monotone rise.  KO is the most
expensive measure in the paper because ties force deep inspection; here
that shows only as KO's steepest baseline I/O growth with k.""",
    ),
    "fig6": (
        "## Figure 6 — effect of α",
        """Paper shape: higher α (more spatial) lowers the baseline's cost
because the R-tree groups spatially; the joint cost stays nearly
constant (the super-user MBR and keyword union do not change); the
ratio rises with α.

Measured: B's MIOCPU falls 198 → 60 from α = 0.3 to 0.9 (185 at 0.1)
while J stays at 3.8, dipping to 2.0 at α = 0.9 where spatial lower
bounds sharpen the group threshold.  Selection runtimes do not trend
with α (the candidate grid does not change).  The ratio is 1.00
throughout for LM at this scale (the paper reports 0.8–1.0 rising with
α).""",
    ),
    "fig7": (
        "## Figure 7 — effect of UL (keywords per user)",
        """Paper shape: B's cost grows roughly proportionally with UL (more
objects become relevant per user); J's I/O stays near constant because
every node is still read at most once.

Measured: B's MIOCPU grows 32 → 336 (10.5×) from UL = 1 to 6; J's I/O
stays at 3.5–3.8.  Deviation: J's *runtime* exceeds B's at UL ≤ 2 (11.8
vs 2.3 ms at UL = 1, 14.6 vs 6.5 at UL = 2) — with one or two keywords
per user the super-user's group threshold RSk(us) is weak and the
candidate pool (RO) balloons, so the in-memory per-user refinement is
CPU-bound.  The paper's disk-bound Java setting hides this constant;
the I/O metric (the paper's primary axis) still shows J winning 9–89×
at every UL.  E's selection runtime grows 6× with UL (0.47 → 2.8 s);
B's and A's move less.""",
    ),
    "fig8": (
        "## Figure 8 — effect of UW (unique user keywords = |W|)",
        """Paper shape: low UW = heavy keyword sharing = the joint method's
shared I/O helps most; selection runtime grows with UW for E and A
(more candidate keywords/combinations); ratio highest at low UW.

Measured: at UW = 5 the J:B I/O gap is 108× (0.78 vs 84), narrowing to
29× at UW = 40 — sharing pays exactly as the paper argues.  J's runtime
grows with UW (0.4 → 13.9 ms per user) and reaches B's at UW = 40
(13.2 ms).  B's selection runtime grows 0.7 s → 26 s (36×) over the UW
range since the scan is combinatorial in |W|; E and A grow ~10×.
The ratio is 1.00 throughout.""",
    ),
    "fig9": (
        "## Figure 9 — effect of Area (user sparsity)",
        """Paper shape: even with sparse users the joint algorithm keeps its
advantage, because the keyword union (and therefore the shared lists)
stays the same.

Measured: J's MIOCPU stays in 3.4–4.1 across a 20× increase in user-MBR
side length, while B sits at 92–177 — the shared-I/O advantage is
insensitive to spatial sparsity, matching the paper.  (The paper's
candidate-selection panels for this figure were omitted there for space;
ours likewise.)""",
    ),
    "fig10": (
        "## Figure 10 — effect of |L| (candidate locations)",
        """Paper shape: selection runtime grows about linearly with |L| for
both E and A; ratio improves slightly at large |L|.

Measured: from |L| = 20 to 300 (15×) E grows 1.0 → 16.8 s (16×), A
0.34 → 5.0 s (15×) and B 7.1 → 91 s (13×) — linear in |L| — with A
2.6–3.4× under E at ws = 2 and the exhaustive B another 5–8× above E.  The
ratio is 1.00 throughout for LM.""",
    ),
    "fig11": (
        "## Figure 11 — effect of ws (keyword budget)",
        """Paper shape: B and E explode combinatorially with ws; A stays
nearly flat; the BRSTkNN count grows quickly then levels; the ratio
dips mid-range and recovers.

Measured (one Python core, so the combinatorial methods are capped in
both the full and the quick run — B to ws ≤ 3, E to ws ≤ 6; A covers
the paper's full 1..8): B grows 0.8 s → 7.4 s → 47 s for ws = 1..3;
E grows 0.36 s → 179 s from ws = 1 to 6 (2–4.5× per +1 ws, C(20, ws)
growth), putting an extrapolated ws = 8 at half an hour to an hour — the
paper's own figure makes the same point at ~10^5–10^6 ms.  A stays at
0.2–0.5 s across the whole 1..8 range (475× under E at ws = 6), its
|BRSTkNN| output saturating at ws = 3 (319 → 337 → 361), the paper's
"increases rapidly and then levels off".  The ratio is 1.00 at every
ws ≤ 6: the mid-range dip does not show at this scale.""",
    ),
    "fig12": (
        "## Figure 12 — effect of |U|",
        """Paper shape: the baseline's *total* top-k cost grows ~linearly
with |U| (one query per user); joint processing scales — its cost
barely moves.

Measured: B's total top-k I/O grows 39× (4.7k → 186k) from |U| = 25 to
1000 while J's total I/O stays within 1.3k–1.7k — essentially flat, the
paper's scalability claim verbatim.  Total runtime grows for both (B
0.30 s → 9.8 s; J 0.13 s → 7.2 s, the growth being the in-memory
per-user refinement).  Selection runtimes grow with |U| for all three
methods (E 42 ms → 2.1 s); A is no faster than E at |U| = 25 and 1000.
The ratio stays at 1.00.""",
    ),
    "fig13": (
        "## Figure 13 — effect of |O|",
        """Paper shape: both methods' costs grow with |O|; larger collections
sharpen the k-th thresholds so candidate pruning improves.

Measured: B's MIOCPU grows 3× (123 → 376) across 2k → 16k objects; J
grows 1.9 → 14 from a far lower base (a deeper tree keeps more nodes
above the group threshold).  E/A selection runtimes stay flat (E
0.7–0.9 s, A 0.26–0.40 s) as |O| grows 8× — the paper's pruning
observation: with denser competition, RSk(u) rises and more users and
candidates are pruned before scoring.""",
    ),
    "fig14": (
        "## Figure 14 — Yelp dataset, effect of k",
        """The paper reports all trends consistent across the two datasets and
shows the k sweep.  Measured on the Yelp-like collection (long,
term-repeating documents, ~6× fewer objects): the same ordering holds —
J's I/O is 0.94 per user at every k while B's grows 34 → 65 (37–69×), E
is 2.8–4× over A at ws = 2, ratios 1.00.  Long documents make the
per-node posting lists larger and the objects fewer, which is why B's
absolute MIOCPU is lower than Flickr's.""",
    ),
    "fig15": (
        "## Figure 15 — users on disk (MIUR-tree) vs flat user file",
        """Paper shape: "users pruned (%)" — users whose top-k thresholds are
never computed — is 5–12.5%, increasing with |U|; the indexed approach's
combined I/O tracks the un-indexed one favourably.

Measured, in Section 7's own framing (the paper notes the user index
"is useful when the locations of the users are very sparse"; cell:
|O| = 2000, Area 40, α = 0.9, |L| = 10, fanout 8): pruning grows 0% →
4% → 15.2% → 27.2% from 125 to 1000 users, then falls to 24.0% at 2000
— the paper's rising trend up to 1000, with a higher ceiling because
our sparse cell is more prunable than their default.  The I/O claim
does not reproduce: the indexed search reads more than the flat-file
pipeline at all five |U|, by 1.7% at 125 users up to 17% at 2000
(2992 vs 2552).  Our synthetic users carry ~28-byte records (3
keywords), so the whole user file costs a handful of pages and the
MIUR-tree's own node reads outweigh the pages it skips.  The same holds
on every cell measured when Section 7 left the engine (the joint
pipeline was 3–27× faster and read less I/O there); the search stays as
reference code in `repro.oracle` (README, "Section 7").""",
    ),
}

FOOTER = """\
---

## Section 8 shapes: asserted and not

Asserted in tier-1 (`tests/bench/test_harness.py::TestSection8Shapes`,
deterministic columns on an |O| = 300 / |U| = 30 cell): J's MIOCPU
below B's at every k; J's I/O flat in k (55 at every k); keyword
combinations scored A ≤ E ≤ B at every k at ws = 3, and E ≤ B at
ws = 2.  Fig. 15's column is pinned on a small Section 7 cell
(`test_user_index_metrics_pinned_on_the_fig15_cell`).

Recorded, not asserted, because they do not hold:

- Users pruned is not monotone in |U|: 27.2% at 1000 users, 24.0% at
  2000 (Fig 15, full and quick run alike).
- The MIUR-tree search reads more I/O than the flat user file plus the
  joint pipeline at every |U| (Fig 15).
- At ws = 2 the greedy scores MORE keyword combinations than the exact
  search: 368 vs 224 at k = 1 on the tier-1 cell, 10 749 vs 4 220 for TF
  at k = 20 on the default cell; only from ws = 3 on, where the exact
  search has combinations to prune, does A score fewest.
- A is not always faster than E at ws = 2: LM at k = 1 (Fig 5), |U| = 25
  and 1000 (Fig 12).
- The ratio does not rise with α (LM 1.00 throughout) nor, for TF, with
  k (Fig 5/6).
- J's top-k runtime exceeds B's at UL ≤ 2 and at UW = 40 (Fig 7/8).

## Ablations and extensions (beyond the paper's figures)

`pytest benchmarks/bench_ablations.py --benchmark-only` quantifies:
the MIR-tree's posting-layout overhead vs the plain IR-tree (12- vs
8-byte postings, the concrete binary encoding of `repro.storage.serde`),
the warm-cache upside of an LRU buffer pool
over the paper's cold-query setting, R-tree fanout sensitivity, and the
cost of the hybrid greedy's extra true-objective evaluations.

## Reproducibility

All workloads are seeded (`numpy.random.default_rng`); re-running
`python -m repro.bench.report` regenerates every table above bit-for-bit
on the same machine up to wall-clock noise in the ms columns.  The
correctness behind each number is enforced by the test suite: the exact
engine equals the exhaustive baseline on every tested input, joint
top-k equals brute force, and the numpy engine's answers equal the
scalar reference (`repro.oracle`) that the harness times.
"""


def main() -> None:
    text = REPORT.read_text()
    sections = {}
    current = None
    for line in text.splitlines():
        m = re.match(r"^== (\w+) ==$", line)
        if m:
            current = m.group(1)
            sections[current] = []
        elif current is not None:
            sections[current].append(line)

    parts = [HEADER]
    for key in ["table4"] + [f"fig{i}" for i in range(5, 16)]:
        title, comment = COMMENTARY[key]
        body = "\n".join(sections.get(key, [])).strip("\n") or (
            f"(no {key} table: results/full_report.txt says why it is missing)"
        )
        parts.append(f"{title}\n\n{comment}\n\n```\n{body}\n```\n")
    parts.append(FOOTER)
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print("EXPERIMENTS.md written")


if __name__ == "__main__":
    main()
