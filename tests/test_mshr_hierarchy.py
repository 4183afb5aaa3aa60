"""Tests for the two-level cache hierarchy."""

import pytest

from repro.cache.hierarchy import (CacheHierarchy, hierarchy1, hierarchy2)
from tests.conftest import dirty_lines


def _cache_per_core_mb(h):
    return (h.l2_bytes_per_core + h.l3_bytes_total / h.cores) / (1 << 20)


def test_hierarchy1_matches_table3():
    h = hierarchy1()
    assert h.cores == 8
    assert h.channels == 1
    assert _cache_per_core_mb(h) == pytest.approx(4.5)


def test_hierarchy2_matches_table3():
    h = hierarchy2()
    assert h.cores == 16
    assert h.channels == 4
    assert _cache_per_core_mb(h) == pytest.approx(2.375)


def test_l2_hit_path():
    h = CacheHierarchy(hierarchy1())
    h.l2s[0].fill(0x1000)
    out = h.access(0, 0x1000, False)
    assert out.level == "L2"
    assert out.memory_read is None


def test_l3_hit_fills_l2():
    h = CacheHierarchy(hierarchy1())
    h.l3.fill(0x1000)
    out = h.access(0, 0x1000, False)
    assert out.level == "L3"
    assert h.l2s[0].contains(0x1000)


def test_miss_requests_memory():
    h = CacheHierarchy(hierarchy1())
    out = h.access(0, 0x2000, False)
    assert out.level == "MEM"
    assert out.memory_read == 0x2000


def test_fill_installs_both_levels():
    h = CacheHierarchy(hierarchy1())
    h.fill(0, 0x2000, is_write=True)
    assert h.l3.contains(0x2000)
    assert 0x2000 in dirty_lines(h.l2s[0])


def test_l2_victim_lands_dirty_in_l3():
    h = CacheHierarchy(hierarchy1())
    l2 = h.l2s[0]
    sets = l2.nsets
    # Fill one L2 set beyond capacity with dirty lines.
    addrs = [(i * sets) * 64 for i in range(l2.assoc + 1)]
    for a in addrs:
        h.fill(0, a, is_write=True)
    evicted = addrs[0]
    assert not l2.contains(evicted)
    assert evicted in dirty_lines(h.l3)


def test_llc_cleaning_hooks():
    h = CacheHierarchy(hierarchy1())
    for i in range(10):
        h.l3.fill(i * 64, dirty=True)
    cleaned = h.clean_llc(5)
    assert cleaned == [i * 64 for i in range(5)]      # LRU first
    assert len(dirty_lines(h.l3)) == 5
    assert h.l3.stats.cleaned == 5
    assert h.clean_llc(100) == [i * 64 for i in range(5, 10)]
    assert dirty_lines(h.l3) == []


def test_fill_prefetch_only_l3():
    h = CacheHierarchy(hierarchy1())
    h.fill_prefetch(0x4000)
    assert h.l3.contains(0x4000)
    assert not h.l2s[0].contains(0x4000)
