"""Synthetic spatial-textual collections standing in for Flickr and Yelp.

The paper evaluates on two real collections we cannot ship (a Yahoo
Flickr extract and the Yelp academic dataset).  The algorithms consume
nothing but ``(location, term multiset)`` pairs, so a faithful synthetic
stand-in needs to match the *shape* the experiments depend on:

* **Flickr-like** — many objects, short documents (~7 distinct tags,
  Table 4 reports 6.9), large vocabulary, heavy-tailed (Zipf) term
  usage, spatially clustered around "cities";
* **Yelp-like** — far fewer objects but very long documents (~400
  distinct terms/object in Table 4: reviews concatenated per business).

Both generators are deterministic under a seed and emit an
:class:`~repro.model.columns.ObjectTable` — x, y and a CSR of
(term id, tf) in generation order — plus the shared
:class:`~repro.text.vocabulary.Vocabulary`.  No
:class:`~repro.model.objects.STObject` is built on the way; the table
builds them if someone iterates it.  The documents are drawn by
:class:`ExactChoice`, which replays ``Generator.choice`` without its
per-call set-up, so a seed gives the same bits it always gave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..model.columns import ObjectTable
from ..text.vocabulary import Vocabulary

__all__ = ["ExactChoice", "SpaceConfig", "flickr_like", "yelp_like", "zipf_term_sampler"]

#: Side length of the synthetic dataspace.  The paper's user areas are
#: 1–20 "degrees"; a 50x50 space keeps the default 5x5 user area a small
#: fraction of the whole, like a city inside a continent-scale extract.
DEFAULT_SPACE = 50.0


@dataclass(slots=True)
class SpaceConfig:
    """Geometry of the synthetic dataspace."""

    side: float = DEFAULT_SPACE
    num_clusters: int = 24
    cluster_std: float = 1.5
    #: Fraction of objects scattered uniformly (background noise).
    uniform_fraction: float = 0.2


def zipf_term_sampler(
    rng: np.random.Generator, vocab_size: int, exponent: float = 1.1
) -> np.ndarray:
    """Zipf-shaped probability vector over ``vocab_size`` term ids.

    Real tag/review vocabularies are heavy-tailed; the exponent ~1.1
    reproduces a few extremely common terms plus a long tail, which is
    what makes the min/max posting-list bounds interesting (common
    terms appear in most subtrees, rare terms in few).
    """
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks ** (-exponent)
    probs /= probs.sum()
    # Shuffle so term id order does not encode frequency rank.
    perm = rng.permutation(vocab_size)
    return probs[perm]


def _cluster_locations(
    rng: np.random.Generator, n: int, space: SpaceConfig
) -> np.ndarray:
    """Locations drawn from Gaussian clusters plus uniform background."""
    n_uniform = int(n * space.uniform_fraction)
    n_cluster = n - n_uniform
    centers = rng.uniform(0.0, space.side, size=(space.num_clusters, 2))
    assignment = rng.integers(0, space.num_clusters, size=n_cluster)
    pts = centers[assignment] + rng.normal(0.0, space.cluster_std, size=(n_cluster, 2))
    uniform = rng.uniform(0.0, space.side, size=(n_uniform, 2))
    all_pts = np.vstack([pts, uniform])
    np.clip(all_pts, 0.0, space.side, out=all_pts)
    rng.shuffle(all_pts, axis=0)
    return all_pts


class ExactChoice:
    """``Generator.choice(n, size, replace=False, p=p)``, draw for draw.

    numpy validates ``p``, copies it and takes its normalised cumulative
    sum on every call, then maps ``size`` uniforms through the CDF; a
    draw that repeats an earlier one is redone in rounds over a ``p``
    with the found entries zeroed.  Generating thousands of documents
    from one ``p`` repeats the first three steps for nothing, so this
    sampler takes them once and replays only the rounds: it returns the
    same indices and consumes the same uniforms, so ``rng`` ends where
    numpy's call would leave it.  ``tests/datagen/test_sampler.py``
    keeps ``Generator.choice`` itself as the reference.
    """

    def __init__(self, p) -> None:
        p = np.array(p, dtype=np.float64)
        if p.ndim != 1:
            raise ValueError("p must be 1-dimensional")
        if np.any(p < 0) or abs(float(np.sum(p)) - 1.0) > np.sqrt(np.finfo(np.float64).eps):
            raise ValueError("probabilities are not non-negative or do not sum to 1")
        self.p = p
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        self.cdf = cdf
        self.nonzero = int(np.count_nonzero(p > 0))

    def __call__(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if size > len(self.p):
            raise ValueError(
                "Cannot take a larger sample than population when replace is False"
            )
        if self.nonzero < size:
            raise ValueError("Fewer non-zero entries in p than size")
        if size <= 0:
            return np.zeros(0, dtype=np.int64)
        new = self.cdf.searchsorted(rng.random(size), side="right")
        drawn = new.tolist()
        if len(set(drawn)) == size:
            return new
        return self._redraw(rng, drawn, size)

    def _redraw(self, rng: np.random.Generator, drawn: List[int], size: int):
        """numpy's rounds after a repeat: keep each round's first
        occurrences in draw order, zero what was found, re-normalise the
        CDF over the rest and draw the shortfall."""
        found: List[int] = []
        p = self.p.copy()
        cdf = np.empty_like(p)
        while True:
            fresh = set()
            for value in drawn:
                if value not in fresh:
                    fresh.add(value)
                    found.append(value)
            if len(found) >= size:
                return np.array(found, dtype=np.int64)
            x = rng.random(size - len(found))
            p[found] = 0
            np.cumsum(p, out=cdf)
            cdf /= cdf[-1]
            drawn = cdf.searchsorted(x, side="right").tolist()


def _make_documents(
    rng: np.random.Generator,
    n: int,
    vocab_size: int,
    mean_unique_terms: float,
    tf_max: int,
    zipf_exponent: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Documents with Poisson-distributed unique-term counts, as a CSR
    ``(indptr, raw term ids, tfs)`` in draw order.

    Per document the stream holds one Poisson draw, the term choice and
    (``tf_max > 1``) the tfs, interleaved — so the loop stays per
    document, but each step is one bare numpy call.
    """
    choose = ExactChoice(zipf_term_sampler(rng, vocab_size, exponent=zipf_exponent))
    poisson, integers = rng.poisson, rng.integers
    counts = np.empty(n, dtype=np.int64)
    drawn: List[np.ndarray] = []
    tf_parts: List[np.ndarray] = []
    for i in range(n):
        n_terms = min(max(1, int(poisson(mean_unique_terms))), vocab_size)
        counts[i] = n_terms
        drawn.append(choose(rng, n_terms))
        if tf_max > 1:
            tf_parts.append(1 + integers(0, tf_max, size=n_terms))
    indptr = np.concatenate(([0], np.cumsum(counts)))
    terms = np.concatenate(drawn) if drawn else np.zeros(0, dtype=np.int64)
    if tf_max > 1:
        tfs = np.concatenate(tf_parts)
    else:
        tfs = np.ones(len(terms), dtype=np.int64)
    return indptr, terms, tfs


def _build_table(
    locations: np.ndarray, docs: Tuple[np.ndarray, np.ndarray, np.ndarray], prefix: str
) -> Tuple[ObjectTable, Vocabulary]:
    """The generated columns, raw term ids interned in order of first
    appearance (the order one ``Vocabulary.add`` per entry would give)."""
    indptr, raw, tfs = docs
    distinct, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    by_appearance = np.argsort(first, kind="stable")
    vocab_id = np.empty(len(distinct), dtype=np.int64)
    vocab_id[by_appearance] = np.arange(len(distinct))
    vocab = Vocabulary.from_terms(
        f"{prefix}{tid}" for tid in distinct[by_appearance].tolist()
    )
    table = ObjectTable(
        np.arange(len(locations)), locations[:, 0], locations[:, 1],
        indptr, vocab_id[inverse.reshape(-1)], tfs,
    )
    return table, vocab


def flickr_like(
    num_objects: int = 4000,
    vocab_size: int = 2000,
    mean_tags: float = 6.9,
    space: Optional[SpaceConfig] = None,
    seed: int = 0,
) -> Tuple[ObjectTable, Vocabulary]:
    """Flickr-shaped collection: short tag documents, clustered space.

    Defaults mirror Table 4's *ratios* at the benchmarks' scaled size:
    ~7 unique tags per object and a vocabulary about half the object
    count (1M objects / 166k unique terms in the paper).
    """
    rng = np.random.default_rng(seed)
    space = space or SpaceConfig()
    locations = _cluster_locations(rng, num_objects, space)
    docs = _make_documents(
        rng,
        num_objects,
        vocab_size,
        mean_unique_terms=mean_tags,
        tf_max=1,  # photo tags occur once
        zipf_exponent=1.1,
    )
    return _build_table(locations, docs, prefix="tag")


def yelp_like(
    num_objects: int = 600,
    vocab_size: int = 3000,
    mean_terms: float = 120.0,
    space: Optional[SpaceConfig] = None,
    seed: int = 0,
) -> Tuple[ObjectTable, Vocabulary]:
    """Yelp-shaped collection: few objects, long review documents.

    Table 4 shows ~399 unique terms per business with repeated
    occurrences (77.8M total terms over 61k businesses).  We keep the
    long-document character (hundreds of term slots, tf up to 8) at a
    reduced scale.
    """
    rng = np.random.default_rng(seed)
    space = space or SpaceConfig(num_clusters=8, cluster_std=2.5)
    locations = _cluster_locations(rng, num_objects, space)
    docs = _make_documents(
        rng,
        num_objects,
        vocab_size,
        mean_unique_terms=mean_terms,
        tf_max=8,  # review text repeats terms
        zipf_exponent=1.05,
    )
    return _build_table(locations, docs, prefix="rev")
