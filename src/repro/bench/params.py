"""Experiment parameter grid (the paper's Table 5, scaled).

The paper runs on 1M–8M Flickr objects with a Java/disk stack.  Here
every scale knob is divided by ~250 while keeping all *ratios* — users
per object, keywords per user, area fraction — intact, so a figure's
whole sweep (dozens of cells, the baseline included) runs in minutes.
The sweep structure (which parameter varies, which stay at defaults)
matches Table 5 exactly; EXPERIMENTS.md records the mapping.

Scale is a time budget, not a wall: objects are generated and indexed
as columns, and ``benchmarks/bench_ingest.py`` measures the build (2
vCPU, 1 BLAS thread): 4k objects / 400 users in ~0.2 s, 32k / 4k in
~1.3 s, 128k / 1k in ~4.8 s, and the paper's default 1M / 1K in ~36 s
at ~2 GB peak RSS, most of it drawing the documents.  A cold query at
1M / 1K takes ~2 s, a warm one ~18 ms.

Bold defaults in Table 5 → ``DEFAULTS`` here; sweep lists mirror the
table rows (k's paper row is 5/10/20/50/100 but every figure plots
1/5/10/20/50, which is what we reproduce).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

__all__ = ["ExperimentConfig", "DEFAULTS", "SWEEPS", "PAPER_SWEEPS", "config_for"]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: dataset, users, and query parameters."""

    dataset: str = "flickr"      # "flickr" | "yelp"
    num_objects: int = 4000      # |O|    (paper: 1M)
    num_users: int = 400         # |U|    (paper: 1K)
    k: int = 10
    alpha: float = 0.5
    ul: int = 3                  # keywords per user (UL)
    uw: int = 20                 # unique user keywords (UW) = |W|
    area: float = 5.0            # user MBR side (Area)
    num_locations: int = 20      # |L|
    ws: int = 2
    measure: str = "LM"          # LM | TF | KO
    seed: int = 0
    fanout: int = 32
    batch_size: int = 1          # queries per query_batch call

    def with_(self, **kwargs) -> "ExperimentConfig":
        """Functional update (frozen dataclass)."""
        return replace(self, **kwargs)

    def label(self) -> str:
        label = (
            f"{self.dataset}-O{self.num_objects}-U{self.num_users}-k{self.k}"
            f"-a{self.alpha}-UL{self.ul}-UW{self.uw}-A{self.area}"
            f"-L{self.num_locations}-ws{self.ws}-{self.measure}-s{self.seed}"
        )
        if self.batch_size != 1:
            label += f"-b{self.batch_size}"
        return label


#: Table 5 bold column, scaled.
DEFAULTS = ExperimentConfig()

#: Swept values per figure (scaled where the knob is a dataset scale).
SWEEPS: Dict[str, List] = {
    "k": [1, 5, 10, 20, 50],
    "alpha": [0.1, 0.3, 0.5, 0.7, 0.9],
    "ul": [1, 2, 3, 4, 5, 6],
    "uw": [5, 10, 20, 30, 40],
    "area": [1.0, 2.0, 5.0, 10.0, 20.0],
    "num_locations": [1, 20, 50, 100, 300],
    "ws": [1, 2, 3, 4, 5, 6, 7, 8],
    # paper: 100, 500, 1K, 2K, 4K users -> scaled by 4
    "num_users": [25, 125, 250, 500, 1000],
    # paper: 1M, 2M, 4M, 8M objects -> scaled by 500
    "num_objects": [2000, 4000, 8000, 16000],
    # paper Fig 15: 500 .. 16K users -> scaled by 8
    "user_index_users": [125, 250, 500, 1000, 2000],
    # batch query engine (no paper analogue): queries per batch
    "batch_size": [1, 4, 16, 64, 256],
}

#: The unscaled values as the paper lists them (for report headers).
PAPER_SWEEPS: Dict[str, List] = {
    "k": [1, 5, 10, 20, 50],
    "alpha": [0.1, 0.3, 0.5, 0.7, 0.9],
    "ul": [1, 2, 3, 4, 5, 6],
    "uw": [5, 10, 20, 30, 40],
    "area": [1, 2, 5, 10, 20],
    "num_locations": [1, 20, 50, 100, 300],
    "ws": [1, 2, 3, 4, 5, 6, 7, 8],
    "num_users": ["100", "500", "1K", "2K", "4K"],
    "num_objects": ["1M", "2M", "4M", "8M"],
    "user_index_users": ["500", "1K", "2K", "4K", "8K"],
    "batch_size": [1, 4, 16, 64, 256],
}


def config_for(param: str, value, base: ExperimentConfig = DEFAULTS) -> ExperimentConfig:
    """Config with one swept knob changed from the defaults."""
    mapping = {
        "k": "k",
        "alpha": "alpha",
        "ul": "ul",
        "uw": "uw",
        "area": "area",
        "num_locations": "num_locations",
        "ws": "ws",
        "num_users": "num_users",
        "num_objects": "num_objects",
        "user_index_users": "num_users",
        "batch_size": "batch_size",
    }
    if param not in mapping:
        raise ValueError(f"unknown sweep parameter {param!r}")
    return base.with_(**{mapping[param]: value})
