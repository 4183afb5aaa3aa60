"""Tests for the set-associative cache, including Hetero-DMR's
dirty-LRU cleaning hooks, an LRU property check and copy-on-touch
restore against an eager oracle."""

import random
from itertools import islice, repeat

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache, LINE_BYTES


def small_cache(assoc=4, sets=8):
    return Cache(assoc * sets * LINE_BYTES, assoc)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache(0, 4)
    with pytest.raises(ValueError):
        Cache(64, 4)          # too small for assoc


def test_non_power_of_two_sets_rejected():
    with pytest.raises(ValueError):
        Cache(3 * 4 * 64, 4)


def test_miss_does_not_allocate():
    c = small_cache()
    assert not c.access(0, False)
    assert not c.contains(0)


def test_fill_then_hit():
    c = small_cache()
    c.fill(0)
    assert c.access(0, False)
    assert c.stats.hits == 1


def test_write_hit_marks_dirty():
    c = small_cache()
    c.fill(0)
    c.access(0, True)
    assert c.is_dirty(0)


def test_clean_fill_not_dirty():
    c = small_cache()
    c.fill(0)
    assert not c.is_dirty(0)


def test_eviction_returns_dirty_victim():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(64)
    victim = c.fill(128)
    assert victim == 0
    assert c.stats.writebacks == 1


def test_eviction_clean_victim_silent():
    c = small_cache(assoc=2, sets=1)
    c.fill(0)
    c.fill(64)
    assert c.fill(128) is None


def test_lru_order_updates_on_access():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(64, dirty=True)
    c.access(0, False)        # 0 becomes MRU
    victim = c.fill(128)
    assert victim == 64


def test_refill_merges_dirtiness():
    c = small_cache(assoc=2, sets=1)
    c.fill(0, dirty=True)
    c.fill(0, dirty=False)
    assert c.is_dirty(0)


def test_invalidate():
    c = small_cache()
    c.fill(0, dirty=True)
    assert c.invalidate(0)
    assert not c.contains(0)
    assert not c.invalidate(0)


def test_line_address_alignment():
    c = small_cache()
    assert c.line_address(100) == 64
    assert c.line_address(64) == 64


def test_dirty_line_count():
    c = small_cache()
    c.fill(0, dirty=True)
    c.fill(64, dirty=True)
    c.fill(128, dirty=False)
    assert c.dirty_line_count() == 2


def test_dirty_lru_blocks_returns_lru_first():
    c = small_cache(assoc=4, sets=1)
    for i in range(4):
        c.fill(i * 64, dirty=True)
    c.access(0, False)        # 0 most recent
    out = c.dirty_lru_blocks(2)
    assert out == [64, 128]


def test_dirty_lru_respects_limit():
    c = small_cache()
    for i in range(6):
        c.fill(i * 64, dirty=True)
    assert len(c.dirty_lru_blocks(3)) == 3


def test_clean_blocks_marks_clean():
    c = small_cache()
    c.fill(0, dirty=True)
    cleaned = c.clean_blocks([0])
    assert cleaned == [0]
    assert not c.is_dirty(0)
    assert c.stats.cleaned == 1


def test_clean_blocks_skips_missing_and_clean():
    c = small_cache()
    c.fill(0, dirty=False)
    assert c.clean_blocks([0, 999 * 64]) == []


def test_cleaned_rewrite_counted():
    """A line cleaned then re-dirtied is the Figure 14 overhead."""
    c = small_cache()
    c.fill(0, dirty=True)
    c.clean_blocks([0])
    c.access(0, True)
    assert c.stats.cleaned_rewrites == 1


def test_warm_fills_every_way():
    c = small_cache(assoc=4, sets=8)
    inserted = c.warm(random.Random(0), dirty_prob=1.0)
    assert inserted == 32
    assert c.dirty_line_count() == 32


def test_warm_respects_max_line():
    c = small_cache(assoc=2, sets=4)
    c.warm(random.Random(0), max_line=1000)
    for ways in c.sets():
        for tag in ways:
            assert tag <= max(1, 1000 >> (c.nsets.bit_length() - 1))


def _reference_warm(cache, rng, dirty_prob, max_line):
    """The warm-up as a plain ``randrange``/``random`` loop."""
    limit = 1 << 24
    if max_line is not None:
        limit = max(1, max_line >> (cache.nsets.bit_length() - 1))
    for ways in cache.sets():
        while len(ways) < cache.assoc:
            tag = rng.randrange(limit)
            if tag in ways:
                continue
            ways[tag] = rng.random() < dirty_prob


def check_warm_matches_randrange(assoc, sets, max_line, dirty_prob,
                                 seed=7):
    """``Cache.warm`` leaves the same lines (tags, LRU order, dirty
    flags) and the same generator state as the reference loop.  Uses
    no pytest, so it can be run under any interpreter."""
    fast, ref = small_cache(assoc, sets), small_cache(assoc, sets)
    fast_rng, ref_rng = random.Random(seed), random.Random(seed)
    inserted = fast.warm(fast_rng, dirty_prob=dirty_prob,
                         max_line=max_line)
    _reference_warm(ref, ref_rng, dirty_prob, max_line)
    assert inserted == assoc * sets
    assert [list(w.items()) for w in fast.sets()] == \
        [list(w.items()) for w in ref.sets()]
    assert fast_rng.getstate() == ref_rng.getstate()


#: (assoc, sets, max_line): tag limit 1 << 24, 1, 64 (a power of
#: two), 65 (2^n + 1) and 3 — each set of 8 needs max_line >> 3 — and
#: more sets than one warm block.
WARM_CASES = [(4, 8, None), (1, 8, 8), (4, 8, 64 * 8), (4, 8, 65 * 8),
              (2, 8, 3 * 8), (2, 512, None)]


@pytest.mark.parametrize("dirty_prob", [0.0, 0.3])
@pytest.mark.parametrize("assoc,sets,max_line", WARM_CASES)
def test_warm_matches_randrange_reference(assoc, sets, max_line,
                                          dirty_prob):
    check_warm_matches_randrange(assoc, sets, max_line, dirty_prob)


@pytest.mark.parametrize("dirty_prob", [0.0, 0.3])
@pytest.mark.parametrize("assoc,sets,max_line", WARM_CASES)
def test_short_run_warm_drops_sets_but_not_lines(assoc, sets, max_line,
                                                 dirty_prob):
    """A warm for fewer references than sets makes the same draws and
    lines as one with no bound, but leaves every set unbuilt."""
    live, lazy = small_cache(assoc, sets), small_cache(assoc, sets)
    live_rng, lazy_rng = random.Random(7), random.Random(7)
    assert live.warm(live_rng, dirty_prob, max_line, refs=sets) == \
        lazy.warm(lazy_rng, dirty_prob, max_line, refs=sets - 1)
    assert all(ways is not None for ways in live._sets)
    assert all(ways is None for ways in lazy._sets)
    assert live.base == lazy.base
    assert [list(w.items()) for w in lazy.sets()] == \
        [list(w.items()) for w in live.sets()]
    assert lazy_rng.getstate() == live_rng.getstate()


@pytest.mark.parametrize("refs", [None, 1])
def test_warm_tops_up_a_restored_cache_like_the_reference(refs):
    """Warming a restored cache with some lines invalidated refills just
    the missing ways, in the reference loop's order."""
    tags, dirty = _warm_snapshot(4, 8, 3, 0.5, None)
    fast, ref = small_cache(), small_cache()
    for cache in (fast, ref):
        cache.restore(tags, dirty)
        for idx in (0, 5):
            cache.invalidate(cache._rebuild(idx, tags[idx * 4 + 1]))
    fast_rng, ref_rng = random.Random(9), random.Random(9)
    assert fast.warm(fast_rng, 0.3, refs=refs) == 2
    _reference_warm(ref, ref_rng, 0.3, None)
    assert [list(w.items()) for w in fast.sets()] == \
        [list(w.items()) for w in ref.sets()]
    assert fast_rng.getstate() == ref_rng.getstate()


def test_warm_rejects_limit_below_associativity():
    with pytest.raises(ValueError):
        small_cache(assoc=4, sets=8).warm(random.Random(0), max_line=3 * 8)


def test_snapshot_restore_round_trip():
    c = small_cache(assoc=4, sets=8)
    c.warm(random.Random(3), dirty_prob=0.5, max_line=4096)
    tags, dirty = c.base
    copy = small_cache(assoc=4, sets=8)
    copy.restore(tags, dirty)
    assert [list(w.items()) for w in copy.sets()] == \
        [list(w.items()) for w in c.sets()]
    clean = small_cache(assoc=4, sets=8)
    clean.restore(tags)
    assert [list(w) for w in clean.sets()] == [list(w) for w in c.sets()]
    assert clean.dirty_line_count() == 0
    with pytest.raises(ValueError):
        small_cache(assoc=2, sets=8).restore(tags, dirty)


def _eager_restore(cache, tags, dirty=None):
    """The restore that rebuilt every set, as the copy-on-touch
    oracle."""
    if len(tags) != cache.nsets * cache.assoc:
        raise ValueError("snapshot does not match this cache's "
                         "geometry")
    assoc = cache.assoc
    lines = zip(tags, repeat(False) if dirty is None
                else map(bool, dirty))
    for ways in cache.sets():
        ways.clear()
        ways.update(islice(lines, assoc))
    cache._cleaned.clear()


def _warm_snapshot(assoc, sets, seed, dirty_prob, max_line):
    src = small_cache(assoc, sets)
    src.warm(random.Random(seed), dirty_prob=dirty_prob, max_line=max_line)
    return src.base


_addr = st.integers(0, 255).map(lambda line: line * LINE_BYTES)
_ops = st.one_of(
    st.tuples(st.just("access"), _addr, st.booleans()),
    st.tuples(st.just("fill"), _addr, st.booleans()),
    st.tuples(st.just("invalidate"), _addr),
    st.tuples(st.just("contains"), _addr),
    st.tuples(st.just("is_dirty"), _addr),
    st.tuples(st.just("clean_blocks"), st.lists(_addr, max_size=4)),
    st.tuples(st.just("dirty_lru_blocks"), st.integers(0, 12)),
    st.tuples(st.just("dirty_line_count")),
    st.tuples(st.just("restore"), st.booleans()),
)


def _apply(cache, op, restore):
    name, args = op[0], op[1:]
    if name == "restore":
        restore(cache, args[0])
        return None
    if name == "clean_blocks":
        return cache.clean_blocks(list(args[0]))
    return getattr(cache, name)(*args)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.sampled_from([1, 2, 8]),
       st.integers(0, 2**31 - 1), st.sampled_from([0.0, 0.3, 1.0]),
       st.sampled_from([None, 16 * 8, 64 * 8]), st.booleans(),
       st.lists(_ops, max_size=60))
def test_copy_on_touch_restore_matches_eager_restore(
        assoc, sets, seed, dirty_prob, max_line, clean, ops):
    """A lazily restored cache answers every operation, counts every
    stat and ends with every line exactly as an eagerly restored one,
    from a dirty base and from an all-clean (``dirty=None``) base."""
    tags, dirty = _warm_snapshot(assoc, sets, seed, dirty_prob, max_line)
    base_dirty = None if clean else dirty
    lazy, eager = small_cache(assoc, sets), small_cache(assoc, sets)
    lazy.restore(tags, base_dirty)
    _eager_restore(eager, tags, base_dirty)

    def lazy_restore(cache, all_clean):
        cache.restore(tags, None if all_clean else dirty)

    def eager_restore(cache, all_clean):
        _eager_restore(cache, tags, None if all_clean else dirty)

    for op in ops:
        assert _apply(lazy, op, lazy_restore) == \
            _apply(eager, op, eager_restore), op
        assert lazy.stats == eager.stats
    assert [list(w.items()) for w in lazy.sets()] == \
        [list(w.items()) for w in eager.sets()]
    assert lazy._cleaned == eager._cleaned


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["access", "fill", "invalidate",
                                           "contains", "is_dirty",
                                           "clean_blocks"]),
                          _addr), max_size=20),
       st.booleans())
def test_restore_builds_only_the_sets_it_touches(ops, clean):
    """After ``restore()`` and k single-address operations, at most k
    sets exist as dicts."""
    tags, dirty = _warm_snapshot(4, 8, 5, 0.5, None)
    cache = small_cache(4, 8)
    cache.sets()                              # a fully built cache
    cache.restore(tags, None if clean else dirty)
    assert all(ways is None for ways in cache._sets)
    for k, (name, addr) in enumerate(ops, 1):
        if name == "clean_blocks":
            cache.clean_blocks([addr])
        elif name in ("access", "fill"):
            getattr(cache, name)(addr, True)
        else:
            getattr(cache, name)(addr)
        assert sum(ways is not None for ways in cache._sets) <= k


def test_cleaned_line_evicted_or_invalidated_is_not_a_rewrite():
    """Once a cleaned line leaves the cache, re-filling and writing it
    is an ordinary write, not a Figure 14 cleaned rewrite."""
    c = small_cache(assoc=2, sets=8)
    same_set = [0, 8 * 64, 16 * 64]           # three lines of set 0
    c.fill(same_set[0], dirty=True)
    c.clean_blocks([same_set[0]])
    c.fill(same_set[1])
    c.fill(same_set[2])                       # evicts the cleaned line
    assert not c.contains(same_set[0])
    c.fill(same_set[0])
    c.access(same_set[0], True)
    c.fill(64, dirty=True)                    # set 1, tag 0
    c.clean_blocks([64])
    c.invalidate(64)
    c.fill(64)
    c.access(64, True)
    assert c.stats.cleaned == 2
    assert c.stats.cleaned_rewrites == 0


def test_cleaned_tracking_is_per_set():
    """The same tag in another set was never cleaned."""
    c = small_cache(assoc=2, sets=8)
    c.fill(0, dirty=True)                     # set 0, tag 0
    c.clean_blocks([0])
    c.fill(64)                                # set 1, tag 0
    c.access(64, True)
    assert c.stats.cleaned_rewrites == 0
    c.access(0, True)
    assert c.stats.cleaned_rewrites == 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 31), min_size=1, max_size=200),
       st.integers(0, 2**31 - 1))
def test_lru_against_reference_model(lines, seed):
    """The cache must evict exactly what a reference LRU list would."""
    assoc, sets = 4, 1
    c = Cache(assoc * sets * LINE_BYTES, assoc)
    reference = []            # LRU order, front = oldest
    for line in lines:
        addr = line * LINE_BYTES
        hit = c.access(addr, False)
        assert hit == (addr in reference)
        if hit:
            reference.remove(addr)
            reference.append(addr)
        else:
            victim = c.fill(addr)
            if len(reference) >= assoc:
                expected_victim = reference.pop(0)
                # Clean victims return None but must match identity.
                assert not c.contains(expected_victim)
            reference.append(addr)
