"""Tests for the page store and the LRU buffer pool."""

import pytest

from repro.storage.iostats import IOCounter
from repro.storage.pager import (
    LRUBuffer,
    PageStore,
    NODE_HEADER_BYTES,
    SPATIAL_ENTRY_BYTES,
    TERM_HEADER_BYTES,
)


class TestLRUBuffer:
    def test_capacity_zero_never_hits(self):
        buf = LRUBuffer(0)
        assert not buf.access(("a",))
        assert not buf.access(("a",))
        assert buf.hit_rate == 0.0

    def test_hit_on_second_access(self):
        buf = LRUBuffer(4)
        assert not buf.access(("a",))
        assert buf.access(("a",))
        assert buf.hits == 1 and buf.misses == 1

    def test_eviction_order_is_lru(self):
        buf = LRUBuffer(2)
        buf.access(("a",))
        buf.access(("b",))
        buf.access(("a",))  # refresh a; b is now LRU
        buf.access(("c",))  # evicts b
        assert buf.access(("a",))
        assert not buf.access(("b",))

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBuffer(-1)

    def test_clear(self):
        buf = LRUBuffer(2)
        buf.access(("a",))
        buf.clear()
        assert not buf.access(("a",))


class TestPageStore:
    def test_cold_reads_always_charge(self):
        c = IOCounter()
        store = PageStore(counter=c)
        store.read_node("t", 1)
        store.read_node("t", 1)
        assert c.node_visits == 2

    def test_buffered_reads_charge_once(self):
        c = IOCounter()
        store = PageStore(counter=c, buffer=LRUBuffer(16))
        store.read_node("t", 1)
        store.read_node("t", 1)
        assert c.node_visits == 1
        store.read_inverted_list("t", 1, 7, 5000)
        store.read_inverted_list("t", 1, 7, 5000)
        assert c.invfile_blocks == 2  # ceil(5000/4096) charged once

    def test_distinct_indexes_do_not_collide(self):
        c = IOCounter()
        store = PageStore(counter=c, buffer=LRUBuffer(16))
        store.read_node("a", 1)
        store.read_node("b", 1)
        assert c.node_visits == 2

    def test_empty_list_is_free(self):
        c = IOCounter()
        store = PageStore(counter=c)
        store.read_inverted_list("t", 1, 7, 0)
        assert c.total == 0

    def test_size_model(self):
        assert PageStore.node_bytes(10) == NODE_HEADER_BYTES + 10 * SPATIAL_ENTRY_BYTES
        assert PageStore.posting_list_bytes(5, 12) == TERM_HEADER_BYTES + 60
