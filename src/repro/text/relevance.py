"""Text relevance measures: TF-IDF, Language Model, Keyword Overlap.

Section 3 of the paper defines three interchangeable text relevance
measures.  All three fit one template, which is what makes the min/max
augmented indexes (MIR-tree) measure-agnostic:

    ``TS(o.d, u.d) = sum_{t in u.d, tf(t, o.d) > 0} w(t, o.d) / Z(u.d)``

* ``w(t, d)`` is a non-negative, measure-specific *object-side* term
  weight, non-zero only when the term occurs in the document (this is
  the paper's relevance condition — "an object o is considered relevant
  to a user u iff o.d contains at least one term t in u.d" — and also
  what the posting lists store);
* ``Z(u.d)`` is a *user-side* normalizer that maps the sum into
  ``[0, 1]``: ``|u.d|`` for Keyword Overlap and
  ``Pmax = sum_{t in u.d} max_{o' in O} w(t, o'.d)`` (Eq. 4) for TF-IDF
  and the Language Model.

Measure definitions (``tf`` counts occurrences, ``C`` is the
concatenation of all object documents):

* **TF-IDF**:   ``w(t, d) = tf(t, d) * log(|O| / df(t))``
* **LM** (Jelinek–Mercer, Eq. 3):
  ``w(t, d) = (1 - lambda) * tf(t, d) / |d| + lambda * tf(t, C) / |C|``
* **KO**:       ``w(t, d) = 1``  and  ``Z(u.d) = |u.d|``

Per-term collection maxima ``max_{o'} w(t, o'.d)`` are precomputed once
(:meth:`TextRelevance.fit_columns`) and reused by every query, index
node and bound computation.  Fitting reads the objects as one document
CSR (:class:`repro.model.columns.ObjectTable`) and weighs all of its
entries in a few array operations (:meth:`TextRelevance.column_weights`)
that round exactly like the scalar ``_weight`` a query-time document
goes through.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence

import numpy as np

from .vocabulary import CollectionStats, document_columns

__all__ = [
    "TextRelevance",
    "TfIdfRelevance",
    "LanguageModelRelevance",
    "KeywordOverlapRelevance",
    "make_relevance",
    "MEASURES",
]


class TextRelevance:
    """Base class for the pluggable text relevance measures.

    Subclasses implement :meth:`term_weight`.  After :meth:`fit` the
    instance also exposes :meth:`max_term_weight` (collection maxima)
    and :meth:`user_normalizer` (``Z(u.d)``).
    """

    #: Short identifier used in benchmarks and reports ("LM", "TF", "KO").
    name: str = "?"

    def __init__(self) -> None:
        self.stats: Optional[CollectionStats] = None
        self._max_weight: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, documents: Sequence[Mapping[int, int]]) -> "TextRelevance":
        """Compute collection statistics and per-term weight maxima."""
        self.fit_columns(*document_columns(documents))
        return self

    def fit_columns(self, indptr, terms, tfs) -> "np.ndarray":
        """:meth:`fit` on a document CSR; returns the weights of its
        entries (what the posting lists store), which the maxima are
        taken over."""
        self.stats = CollectionStats.from_columns(indptr, terms, tfs)
        weights = self.column_weights(indptr, terms, tfs)
        terms = np.asarray(terms, dtype=np.int64)
        top = np.zeros(int(terms.max()) + 1 if len(terms) else 0)
        np.maximum.at(top, terms, weights)
        held = np.flatnonzero(top > 0.0).tolist()
        self._max_weight = dict(zip(held, top[held].tolist()))
        return weights

    def _require_fit(self) -> CollectionStats:
        if self.stats is None:
            raise RuntimeError(f"{type(self).__name__} must be fit() before scoring")
        return self.stats

    # ------------------------------------------------------------------
    # Weights
    # ------------------------------------------------------------------
    def _weight(self, term_id: int, tf: int, doc_len: int) -> float:
        """Measure-specific object-side weight; ``tf`` must be > 0."""
        raise NotImplementedError

    def column_weights(self, indptr, terms, tfs) -> "np.ndarray":
        """``w(t, d)`` of every entry of a document CSR, as an array.

        Bitwise :meth:`_weight` entry by entry: each measure writes the
        scalar expression with the same correctly-rounded operations.
        """
        raise NotImplementedError

    def term_weight(self, term_id: int, doc: Mapping[int, int]) -> float:
        """Weight of ``term_id`` in document ``doc`` (0 when absent)."""
        self._require_fit()
        tf = doc.get(term_id, 0)
        if tf <= 0:
            return 0.0
        return self._weight(term_id, tf, sum(doc.values()))

    def document_weights(self, doc: Mapping[int, int]) -> Dict[int, float]:
        """All term weights of a document — what the leaf posting lists store."""
        self._require_fit()
        doc_len = sum(doc.values())
        return {tid: self._weight(tid, tf, doc_len) for tid, tf in doc.items()}

    def max_term_weight(self, term_id: int) -> float:
        """``max_{o' in O} w(t, o'.d)`` — the per-term Pmax component."""
        return self._max_weight.get(term_id, 0.0)

    # ------------------------------------------------------------------
    # Normalizers and scores
    # ------------------------------------------------------------------
    def user_normalizer(self, user_terms: Iterable[int]) -> float:
        """``Z(u.d)``: Pmax of Eq. 4 (overridden by Keyword Overlap)."""
        return sum(self.max_term_weight(t) for t in set(user_terms))

    def score(self, doc: Mapping[int, int], user_terms: Iterable[int]) -> float:
        """``TS(o.d, u.d)`` in ``[0, 1]``.

        Returns 0 when the user has no scorable terms (empty keyword set
        or none of the keywords occur anywhere in the collection).
        """
        self._require_fit()
        terms = set(user_terms)
        z = self.user_normalizer(terms)
        if z <= 0.0:
            return 0.0
        total = 0.0
        doc_len = None
        for tid in terms:
            tf = doc.get(tid, 0)
            if tf > 0:
                if doc_len is None:
                    doc_len = sum(doc.values())
                total += self._weight(tid, tf, doc_len)
        # Pmax is a maximum over *collection* documents; a query-time
        # document (e.g. the augmented ox) can exceed it, so clamp to
        # keep the paper's "normalized within [0, 1]" contract.
        return min(1.0, total / z)

    def score_with_weights(
        self, weights: Mapping[int, float], user_terms: Iterable[int]
    ) -> float:
        """Score from precomputed term weights (used by the indexes)."""
        self._require_fit()
        terms = set(user_terms)
        z = self.user_normalizer(terms)
        if z <= 0.0:
            return 0.0
        return min(1.0, sum(weights.get(t, 0.0) for t in terms) / z)


class TfIdfRelevance(TextRelevance):
    """TF-IDF weighting: ``w(t, d) = tf(t, d) * log(|O| / df(t))``.

    The paper presents TF-IDF unnormalized but states all measures are
    normalized into [0, 1]; we use the same Pmax-style normalizer as the
    language model so the three measures are directly comparable.
    Terms occurring in *every* document get idf 0 — they cannot
    discriminate and contribute nothing, matching
    ``log(|O| / df) = log 1 = 0``.
    """

    name = "TF"

    def _weight(self, term_id: int, tf: int, doc_len: int) -> float:
        stats = self.stats
        assert stats is not None
        df = stats.df(term_id)
        if df <= 0:
            return 0.0
        return tf * math.log(stats.num_docs / df)

    def column_weights(self, indptr, terms, tfs) -> "np.ndarray":
        stats = self._require_fit()
        # math.log per distinct term, as the scalar path takes it (numpy's
        # log is not guaranteed to round like libm's).
        idf = {
            tid: math.log(stats.num_docs / df) if df > 0 else 0.0
            for tid, df in stats.doc_frequency.items()
        }
        terms = np.asarray(terms, dtype=np.int64)
        table = np.zeros(int(terms.max()) + 1 if len(terms) else 0)
        table[list(idf)] = list(idf.values())
        return np.asarray(tfs, dtype=np.int64) * table[terms]


class LanguageModelRelevance(TextRelevance):
    """Jelinek–Mercer smoothed language model (Eq. 3 / Eq. 4).

    ``w(t, d) = (1 - lambda) * tf(t, d) / |d| + lambda * tf(t, C) / |C|``

    ``lambda`` trades the document model against the collection model;
    Zhai & Lafferty recommend small values (~0.1–0.3) for short,
    keyword-style queries, which is the paper's setting.
    """

    name = "LM"

    def __init__(self, smoothing: float = 0.2) -> None:
        super().__init__()
        if not 0.0 <= smoothing < 1.0:
            raise ValueError("LM smoothing lambda must be in [0, 1)")
        self.smoothing = smoothing

    def _weight(self, term_id: int, tf: int, doc_len: int) -> float:
        stats = self.stats
        assert stats is not None
        if doc_len <= 0 or stats.collection_length <= 0:
            return 0.0
        ml = tf / doc_len
        background = stats.tf_c(term_id) / stats.collection_length
        return (1.0 - self.smoothing) * ml + self.smoothing * background

    def column_weights(self, indptr, terms, tfs) -> "np.ndarray":
        stats = self._require_fit()
        terms = np.asarray(terms, dtype=np.int64)
        tfs = np.asarray(tfs, dtype=np.int64)
        if stats.collection_length <= 0:
            return np.zeros(len(terms))
        # int / int true division: both sides are exact doubles, so the
        # quotient rounds as Python's does.
        csum = np.concatenate(([0], np.cumsum(tfs)))
        lengths = csum[indptr[1:]] - csum[indptr[:-1]]
        doc_len = np.repeat(lengths, np.diff(indptr))
        ctf = np.zeros(int(terms.max()) + 1 if len(terms) else 0, dtype=np.int64)
        ctf[list(stats.collection_tf)] = list(stats.collection_tf.values())
        ml = tfs / doc_len
        background = ctf[terms] / stats.collection_length
        return (1.0 - self.smoothing) * ml + self.smoothing * background


class KeywordOverlapRelevance(TextRelevance):
    """Keyword Overlap: ``TS(o.d, u.d) = |u.d ∩ o.d| / |u.d|``.

    The object-side weight of every present term is 1 and the user-side
    normalizer is the user's keyword count, so many objects tie — the
    paper observes this forces the top-k search to inspect more objects
    than the graded measures.
    """

    name = "KO"

    def _weight(self, term_id: int, tf: int, doc_len: int) -> float:
        return 1.0

    def column_weights(self, indptr, terms, tfs) -> "np.ndarray":
        return np.ones(len(terms))

    def max_term_weight(self, term_id: int) -> float:
        # Every present term weighs exactly 1; a term absent from the
        # collection can never be matched so its maximum is 0.
        return 1.0 if self._max_weight.get(term_id) else 0.0

    def user_normalizer(self, user_terms: Iterable[int]) -> float:
        return float(len(set(user_terms)))


#: Registry used by the CLI, benchmarks and tests.
MEASURES = {
    "LM": LanguageModelRelevance,
    "TF": TfIdfRelevance,
    "KO": KeywordOverlapRelevance,
}


def make_relevance(name: str, **kwargs) -> TextRelevance:
    """Instantiate a relevance measure by short name ("LM", "TF", "KO")."""
    try:
        cls = MEASURES[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown relevance measure {name!r}; expected one of {sorted(MEASURES)}"
        ) from None
    return cls(**kwargs)
