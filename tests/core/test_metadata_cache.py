"""Metadata cache: LRU, write-back, prefetch blocks, probe, flush."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.metadata_cache import MetadataCache


class TestBasicBehaviour:
    def test_first_access_misses_then_hits(self):
        cache = MetadataCache("t", capacity_blocks=4)
        assert cache.access(1, write=False) == (False, 1, None)
        assert cache.access(1, write=False) == (True, 1, None)
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_prefetch_block_sharing(self):
        cache = MetadataCache("t", capacity_blocks=4, entries_per_block=16)
        cache.access(0, write=False)
        # Entries 1..15 share block 0: all hits.
        for entry in range(1, 16):
            hit, block, _ = cache.access(entry, write=False)
            assert hit is True
            assert block == 0
        hit, block, _ = cache.access(16, write=False)
        assert hit is False
        assert block == 1

    def test_block_of(self):
        cache = MetadataCache("t", capacity_blocks=4, entries_per_block=16)
        assert cache.block_of(0) == 0
        assert cache.block_of(15) == 0
        assert cache.block_of(16) == 1

    def test_probe_has_no_side_effects(self):
        cache = MetadataCache("t", capacity_blocks=4)
        assert cache.probe(1) is False
        assert cache.hits == 0 and cache.misses == 0
        cache.access(1, write=False)
        assert cache.probe(1) is True
        assert cache.hits == 0


class TestLruEviction:
    def test_lru_victim(self):
        cache = MetadataCache("t", capacity_blocks=2)
        cache.access(0, write=False)
        cache.access(1, write=False)
        cache.access(0, write=False)  # 1 is now LRU
        cache.access(2, write=False)  # evicts 1
        assert cache.probe(0) is True
        assert cache.probe(1) is False
        assert cache.probe(2) is True

    def test_clean_eviction_costs_nothing(self):
        cache = MetadataCache("t", capacity_blocks=1)
        cache.access(0, write=False)
        _, _, evicted = cache.access(1, write=False)
        assert evicted is None
        assert cache.writebacks == 0

    def test_dirty_eviction_reports_writeback(self):
        cache = MetadataCache("t", capacity_blocks=1)
        cache.access(0, write=True)
        _, _, evicted = cache.access(1, write=False)
        assert evicted == 0
        assert cache.writebacks == 1

    def test_write_hit_marks_dirty(self):
        cache = MetadataCache("t", capacity_blocks=1)
        cache.access(0, write=False)
        cache.access(0, write=True)  # hit, but dirties the block
        _, _, evicted = cache.access(1, write=False)
        assert evicted == 0

    def test_capacity_respected(self):
        cache = MetadataCache("t", capacity_blocks=3)
        for block in range(10):
            cache.access(block, write=False)
        assert cache.resident_blocks == 3


class TestDegenerateCache:
    def test_zero_capacity_always_misses(self):
        cache = MetadataCache("t", capacity_blocks=0)
        cache.access(0, write=False)
        hit, _, _ = cache.access(0, write=False)
        assert hit is False
        assert cache.resident_blocks == 0

    def test_zero_capacity_write_goes_straight_out(self):
        cache = MetadataCache("t", capacity_blocks=0)
        hit, _, evicted = cache.access(0, write=True)
        assert hit is False
        assert evicted == 0
        assert cache.writebacks == 1


class TestFlush:
    def test_flush_returns_dirty_blocks_only(self):
        cache = MetadataCache("t", capacity_blocks=4)
        cache.access(0, write=True)
        cache.access(1, write=False)
        cache.access(2, write=True)
        dirty = cache.flush()
        assert sorted(dirty) == [0, 2]
        assert cache.resident_blocks == 0
        assert cache.writebacks == 2

    def test_flush_empty(self):
        assert MetadataCache("t", capacity_blocks=4).flush() == []


class TestValidation:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache("t", capacity_blocks=-1)

    def test_zero_entries_per_block_rejected(self):
        with pytest.raises(ValueError):
            MetadataCache("t", capacity_blocks=1, entries_per_block=0)


class TestPropertyBased:
    @given(st.lists(st.tuples(st.integers(0, 50), st.booleans()), max_size=300))
    def test_hit_plus_miss_equals_accesses(self, ops):
        cache = MetadataCache("t", capacity_blocks=4, entries_per_block=4)
        for entry, write in ops:
            cache.access(entry, write)
        assert cache.hits + cache.misses == len(ops)
        assert cache.resident_blocks <= 4

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=100))
    def test_working_set_within_capacity_never_evicts(self, entries):
        cache = MetadataCache("t", capacity_blocks=4, entries_per_block=1)
        evictions = 0
        for entry in entries:
            _, _, evicted = cache.access(entry, write=True)
            if evicted is not None:
                evictions += 1
        assert evictions == 0
