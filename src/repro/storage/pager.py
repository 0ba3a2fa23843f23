"""Simulated disk pages and an optional LRU buffer pool.

The indexes in this library are *disk-resident by simulation*: nodes and
inverted lists live in memory (this is Python, and the paper itself
reports simulated rather than physical I/O), but every access is routed
through a :class:`PageStore`, which sizes each structure in bytes,
charges the owning :class:`~repro.storage.iostats.IOCounter`, and can
optionally interpose an LRU buffer pool to model warm caches.

The paper's experiments use *cold* queries — the default here is a
buffer of capacity 0 so every access pays.  The buffer pool is an
extension useful for the ablation benchmark on caching behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from .iostats import IOCounter, PAGE_SIZE_BYTES

__all__ = [
    "PageStore",
    "LRUBuffer",
    "NODE_HEADER_BYTES",
    "SPATIAL_ENTRY_BYTES",
    "POSTING_ENTRY_BYTES_IR",
    "POSTING_ENTRY_BYTES_MIR",
    "TERM_HEADER_BYTES",
]

#: Size model for on-disk structures.  These mirror a straightforward
#: binary layout: a node header, ~40-byte spatial entries (child pointer
#: + 4 float MBR + document id), and posting entries of
#: ``<doc id, weight>`` (8 bytes) for the IR-tree or
#: ``<doc id, max weight, min weight>`` (12 bytes) for the MIR-tree —
#: the extra 4 bytes per posting are exactly the MIR-tree's space
#: overhead quantified in the paper's cost analysis (Section 5.1).
NODE_HEADER_BYTES = 16
SPATIAL_ENTRY_BYTES = 40
POSTING_ENTRY_BYTES_IR = 8
POSTING_ENTRY_BYTES_MIR = 12
TERM_HEADER_BYTES = 8


class LRUBuffer:
    """A page-granular LRU buffer pool.

    ``capacity`` counts pages; capacity 0 disables caching (cold reads,
    the paper's setting).
    """

    def __init__(self, capacity: int = 0) -> None:
        if capacity < 0:
            raise ValueError("buffer capacity must be non-negative")
        self.capacity = capacity
        self._pages: "OrderedDict[tuple, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def access(self, key: tuple) -> bool:
        """Touch a page; return True on a buffer hit."""
        if self.capacity == 0:
            self.misses += 1
            return False
        if key in self._pages:
            self._pages.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        self._pages[key] = None
        if len(self._pages) > self.capacity:
            self._pages.popitem(last=False)
        return False

    def clear(self) -> None:
        self._pages.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PageStore:
    """Charges simulated I/O for node and inverted-list accesses.

    One store is shared by all indexes of a query engine so a single
    counter reflects the combined cost (e.g. Figure 15 reports the
    combined I/O of the MIR-tree and the MIUR-tree).
    """

    counter: IOCounter
    buffer: Optional[LRUBuffer] = None
    page_size: int = PAGE_SIZE_BYTES

    def read_node(self, index_name: str, page_id: int) -> None:
        """Charge one I/O for visiting a tree node (unless buffered)."""
        if self.buffer is not None and self.buffer.access((index_name, "node", page_id)):
            return
        self.counter.visit_node()

    def read_inverted_list(
        self, index_name: str, page_id: int, term_id: int, num_bytes: int
    ) -> None:
        """Charge block I/Os for loading one posting list."""
        if num_bytes <= 0:
            return
        if self.buffer is not None and self.buffer.access(
            (index_name, "list", page_id, term_id)
        ):
            return
        self.counter.load_bytes(num_bytes)

    @staticmethod
    def node_bytes(fanout: int) -> int:
        """Approximate serialized size of a tree node."""
        return NODE_HEADER_BYTES + fanout * SPATIAL_ENTRY_BYTES

    @staticmethod
    def posting_list_bytes(num_postings: int, entry_bytes: int) -> int:
        """Approximate serialized size of one posting list."""
        return TERM_HEADER_BYTES + num_postings * entry_bytes
