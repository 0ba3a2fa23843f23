"""Vocabulary and collection statistics.

Every text relevance measure in the paper needs collection-level
statistics over the object set ``O``:

* **TF-IDF** needs document frequencies ``|{d in O : tf(t, d) > 0}|``;
* the **Language Model** needs collection term frequencies ``tf(t, C)``
  and the collection length ``|C|`` (Eq. 3, Jelinek–Mercer smoothing);
* all measures need, per term, the *maximum weight any document in the
  collection attains* — the ``Pmax`` normalizer of Eq. 4 that maps text
  scores into ``[0, 1]``.

The :class:`Vocabulary` interns term strings to dense integer ids so the
inverted files and keyword vectors can use plain ints everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

__all__ = ["Vocabulary", "CollectionStats", "document_columns"]


def document_columns(documents: Sequence[Mapping[int, int]]):
    """``(indptr, terms, tfs)``: term-frequency dicts as one CSR, each
    document's entries in its dict order."""
    counts = [len(doc) for doc in documents]
    indptr = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
    terms = np.array([t for doc in documents for t in doc], dtype=np.int64)
    tfs = np.array([f for doc in documents for f in doc.values()], dtype=np.int64)
    return indptr, terms, tfs


class Vocabulary:
    """Bidirectional mapping between term strings and dense integer ids."""

    def __init__(self) -> None:
        self._term_to_id: Dict[str, int] = {}
        self._id_to_term: List[str] = []

    @classmethod
    def from_terms(cls, terms: Iterable[str]) -> "Vocabulary":
        """Vocabulary whose ids are the positions of distinct ``terms``."""
        vocab = cls()
        vocab._id_to_term = list(terms)
        vocab._term_to_id = {t: i for i, t in enumerate(vocab._id_to_term)}
        if len(vocab._term_to_id) != len(vocab._id_to_term):
            raise ValueError("duplicate term strings")
        return vocab

    def __len__(self) -> int:
        return len(self._id_to_term)

    def __contains__(self, term: str) -> bool:
        return term in self._term_to_id

    def add(self, term: str) -> int:
        """Intern ``term`` and return its id (existing id if present)."""
        tid = self._term_to_id.get(term)
        if tid is None:
            tid = len(self._id_to_term)
            self._term_to_id[term] = tid
            self._id_to_term.append(term)
        return tid

    def add_all(self, terms: Iterable[str]) -> List[int]:
        return [self.add(t) for t in terms]

    def id_of(self, term: str) -> int:
        """Id of ``term``; raises ``KeyError`` for unknown terms."""
        return self._term_to_id[term]

    def get(self, term: str) -> Optional[int]:
        """Id of ``term`` or ``None`` when not interned."""
        return self._term_to_id.get(term)

    def term_of(self, tid: int) -> str:
        return self._id_to_term[tid]

    def encode(self, terms: Iterable[str]) -> Dict[int, int]:
        """Term-frequency dict (``{term_id: count}``), interning new terms."""
        counts: Dict[int, int] = {}
        for term in terms:
            tid = self.add(term)
            counts[tid] = counts.get(tid, 0) + 1
        return counts

    def decode(self, term_ids: Iterable[int]) -> List[str]:
        return [self._id_to_term[t] for t in term_ids]


@dataclass
class CollectionStats:
    """Aggregate statistics over the object collection ``O``.

    Built once via :meth:`from_documents` and shared by every relevance
    measure, index, and bound computation.
    """

    #: Number of documents in the collection.
    num_docs: int = 0
    #: Total number of term occurrences (``|C|`` in Eq. 3).
    collection_length: int = 0
    #: Per-term collection frequency (``tf(t, C)``).
    collection_tf: Dict[int, int] = field(default_factory=dict)
    #: Per-term document frequency (for IDF).
    doc_frequency: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def from_documents(cls, documents: Sequence[Mapping[int, int]]) -> "CollectionStats":
        """Aggregate from term-frequency dicts (one per document)."""
        return cls.from_columns(*document_columns(documents))

    @classmethod
    def from_columns(cls, indptr, terms, tfs) -> "CollectionStats":
        """Aggregate from a document CSR (see :func:`document_columns`);
        each document holds a term at most once."""
        terms = np.asarray(terms, dtype=np.int64)
        tfs = np.asarray(tfs, dtype=np.int64)
        if len(tfs) and int(tfs.min()) <= 0:
            raise ValueError("non-positive term frequency in a document")
        if len(terms) and int(terms.min()) < 0:
            raise ValueError("negative term id in a document")
        stats = cls(num_docs=len(indptr) - 1, collection_length=int(tfs.sum()))
        df = np.bincount(terms)
        ctf = np.bincount(terms, weights=tfs).astype(np.int64)
        present = np.flatnonzero(df).tolist()
        stats.collection_tf = dict(zip(present, ctf[present].tolist()))
        stats.doc_frequency = dict(zip(present, df[present].tolist()))
        return stats

    def add_document(self, doc: Mapping[int, int]) -> None:
        """Incrementally account for one more document."""
        self.num_docs += 1
        for tid, tf in doc.items():
            self.collection_length += tf
            self.collection_tf[tid] = self.collection_tf.get(tid, 0) + tf
            self.doc_frequency[tid] = self.doc_frequency.get(tid, 0) + 1

    def tf_c(self, term_id: int) -> int:
        """Collection frequency ``tf(t, C)`` of a term (0 when absent)."""
        return self.collection_tf.get(term_id, 0)

    def df(self, term_id: int) -> int:
        """Document frequency of a term (0 when absent)."""
        return self.doc_frequency.get(term_id, 0)
