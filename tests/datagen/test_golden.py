"""Golden pins: the columnar ingest reproduces the per-object build's bits.

``golden_digests.json`` holds SHA-256 digests of the benchmark's default
cell (O4000/U400; flickr and yelp, seeds 0-2) recorded with the
per-object build this ingest replaced: the generated columns, the
vocabulary, the users, ``W`` and the e2e query pool's locations, and —
per measure (LM/TF/KO) and, for the tree, per fanout (4/32) — the
relevance weights and maxima, ``ObjectColumns``, ``DatasetArrays``,
``TreeArrays`` and every node's posting-list sizes.
"""

import json
from pathlib import Path

import pytest

from .golden import CELLS, cell_digests

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


@pytest.mark.parametrize("name,seed", CELLS, ids=[f"{n}-{s}" for n, s in CELLS])
def test_default_cell_matches_the_recorded_bits(name, seed):
    got = cell_digests(name, seed)
    want = GOLDEN[f"{name}/{seed}"]
    assert sorted(got) == sorted(want)
    assert [k for k in sorted(want) if got[k] != want[k]] == []
