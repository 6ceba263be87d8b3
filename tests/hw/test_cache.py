"""Tests for the set-associative cache model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CacheGeometry, SetAssociativeCache
from repro.isa import HOST_DOMAIN, realm_domain

REALM = realm_domain(1)


def small_cache(ways=2, sets=4, line=64):
    return SetAssociativeCache(
        CacheGeometry("test", line * ways * sets, line, ways)
    )


class TestGeometry:
    def test_n_sets(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.n_sets == 128

    def test_indexing_wraps(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.set_index(0) == geo.set_index(128 * 64)

    def test_tag_differs_for_aliasing_addresses(self):
        geo = CacheGeometry("g", 64 * 1024, 64, 8)
        assert geo.tag(0) != geo.tag(128 * 64)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry("bad", 1000, 64, 8)


class TestAccess:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0x1000, HOST_DOMAIN).hit
        assert cache.access(0x1000, HOST_DOMAIN).hit
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_different_offset_hits(self):
        cache = small_cache()
        cache.access(0x1000, HOST_DOMAIN)
        assert cache.access(0x1030, HOST_DOMAIN).hit  # same 64B line

    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2, sets=1)
        cache.access(0 * 64, HOST_DOMAIN)
        cache.access(1 * 64, HOST_DOMAIN)
        cache.access(0 * 64, HOST_DOMAIN)  # refresh line 0
        result = cache.access(2 * 64, HOST_DOMAIN)  # evicts line 1 (LRU)
        assert result.evicted is not None
        assert not cache.probe(1 * 64)
        assert cache.probe(0 * 64)

    def test_probe_does_not_fill(self):
        cache = small_cache()
        assert not cache.probe(0x2000)
        assert cache.filled_lines == 0

    def test_eviction_carries_victim_domain(self):
        cache = small_cache(ways=1, sets=1)
        cache.access(0, REALM)
        result = cache.access(64, HOST_DOMAIN)
        assert result.evicted.domain == REALM


class TestDomainTagging:
    def test_domains_present(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, REALM)
        assert cache.domains_present() == {HOST_DOMAIN, REALM}

    def test_access_retags_line(self):
        cache = small_cache()
        cache.access(0x0, REALM)
        cache.access(0x0, HOST_DOMAIN)
        assert cache.domains_present() == {HOST_DOMAIN}

    def test_flush_domain_selective(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, REALM)
        dropped = cache.flush_domain(REALM)
        assert dropped == 1
        assert cache.domains_present() == {HOST_DOMAIN}

    def test_full_flush(self):
        cache = small_cache()
        for i in range(8):
            cache.access(i * 64, HOST_DOMAIN)
        dropped = cache.flush()
        assert dropped == 8
        assert cache.filled_lines == 0

    def test_flush_after_partial_fill_and_flush_domain(self):
        cache = small_cache(ways=2, sets=4)
        # three of four sets touched, one of them full
        for addr in (0x0, 4 * 64, 0x40, 3 * 64):
            cache.access(addr, HOST_DOMAIN)
        cache.access(2 * 64, REALM)
        assert cache.flush_domain(REALM) == 1
        # a set emptied by flush_domain counts nothing, and a flush
        # leaves every set empty and usable
        assert cache.flush() == 4
        assert cache.domains_present() == set()
        assert cache.filled_lines == 0
        assert all(not cache.set_occupancy(i) for i in range(4))
        assert cache.flush() == 0
        cache.access(0x40, REALM)
        assert cache.flush() == 1
        assert cache.domains_present() == set()

    def test_occupancy_by_domain(self):
        cache = small_cache()
        cache.access(0x0, HOST_DOMAIN)
        cache.access(0x40, HOST_DOMAIN)
        cache.access(0x80, REALM)
        occ = cache.occupancy_by_domain()
        assert occ[HOST_DOMAIN] == 2
        assert occ[REALM] == 1


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = small_cache(ways=2, sets=4)
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
        assert cache.filled_lines <= 8
        for idx in range(4):
            assert len(cache.set_occupancy(idx)) <= 2

    @given(st.lists(st.integers(min_value=0, max_value=1 << 20), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
        assert cache.hits + cache.misses == len(addrs)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=50
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_accessed_line_is_always_present_after(self, addrs):
        cache = small_cache()
        for addr in addrs:
            cache.access(addr, HOST_DOMAIN)
            assert cache.probe(addr)
