"""Cache-line model: LRU behaviour, stats, and a reference-model property."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.cache import CACHE_LINE, CacheModel


def test_first_touch_misses_then_hits():
    c = CacheModel()
    assert c.touch(0, 8) == 1
    assert c.touch(0, 8) == 0
    assert c.stats.hits == 1 and c.stats.misses == 1


def test_straddling_access_touches_two_lines():
    c = CacheModel()
    assert c.touch(CACHE_LINE - 4, 8) == 2


def test_same_line_different_offsets_hit():
    c = CacheModel()
    c.touch(0, 1)
    assert c.touch(CACHE_LINE - 1, 1) == 0


def test_zero_byte_touch_counts_one_line():
    c = CacheModel()
    assert c.touch(128, 0) == 1


def test_label_accounting():
    c = CacheModel()
    c.touch(0, 8, label="request")
    c.touch(64, 8, label="uq")
    c.touch(0, 8, label="request")   # hit: no new miss
    assert c.stats.miss_for("request") == 1
    assert c.stats.miss_for("uq") == 1


def test_eviction_when_set_full():
    c = CacheModel(size_bytes=2 * 64, ways=2, line=64)  # 1 set, 2 ways
    c.touch(0 * 64, 1)
    c.touch(1 * 64, 1)
    c.touch(2 * 64, 1)                 # evicts line 0 (LRU)
    assert c.stats.evictions == 1
    assert c.touch(0, 1) == 1          # line 0 was evicted


def test_lru_order_respects_recency():
    c = CacheModel(size_bytes=2 * 64, ways=2, line=64)
    c.touch(0, 1)
    c.touch(64, 1)
    c.touch(0, 1)          # refresh line 0
    c.touch(128, 1)        # should evict line 64, not line 0
    assert c.touch(0, 1) == 0
    assert c.touch(64, 1) == 1


def test_flush_range_invalidates():
    c = CacheModel()
    c.touch(0, 128)
    c.flush_range(0, 64)
    assert not c.resident(0)
    assert c.resident(64)


def test_flush_all():
    c = CacheModel()
    c.touch(0, 256)
    c.flush_all()
    assert c.touch(0, 256) == 4


def test_spaces_are_distinct():
    c = CacheModel()
    c.touch(0, 8, space=0)
    assert c.touch(0, 8, space=1) == 1


def test_snapshot_delta():
    c = CacheModel()
    c.touch(0, 8, label="a")
    before = c.stats.snapshot()
    c.touch(64, 8, label="b")
    d = c.stats.delta(before)
    assert d.misses == 1
    assert d.by_label == {"b": 1}


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        CacheModel(size_bytes=100, ways=3, line=64)


# -- property: model agrees with a brute-force fully-recent-order reference --
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=200))
def test_cache_against_reference_lru(addrs):
    ways, line = 4, 64
    nsets = 4
    c = CacheModel(size_bytes=nsets * ways * line, ways=ways, line=line)
    # reference: per-set list of lines in LRU order
    ref = [[] for _ in range(nsets)]
    for a in addrs:
        lineno = a // line
        s = ref[lineno % nsets]
        expect_hit = lineno in s
        got_miss = c.touch(a, 1)
        assert got_miss == (0 if expect_hit else 1)
        if expect_hit:
            s.remove(lineno)
        s.append(lineno)
        if len(s) > ways:
            s.pop(0)


# -- property: fast paths agree with the plain per-line reference touch --
def _reference_touch(c, addr, nbytes, space=0, label=""):
    """The straightforward per-line ``touch``: one LRU step and one stats
    update for every line of ``[addr, addr+nbytes)``."""
    misses = 0
    first = addr // c.line
    last = (addr + max(nbytes, 1) - 1) // c.line
    for lineno in range(first, last + 1):
        key = (space, lineno)
        s = c._sets[lineno % c.nsets]
        if key in s:
            s.move_to_end(key)
            c.stats.hits += 1
        else:
            misses += 1
            c.stats.misses += 1
            if label:
                c.stats.by_label[label] = c.stats.by_label.get(label, 0) + 1
            s[key] = True
            if len(s) > c.ways:
                s.popitem(last=False)
                c.stats.evictions += 1
    return misses


def _state(c):
    return (c.stats.hits, c.stats.misses, c.stats.evictions,
            c.stats.by_label, [list(s) for s in c._sets])


# Addresses and sizes biased to land on, just before and just after a
# line boundary, where one access turns into two lines.
_addr = st.builds(lambda k, off: k * 64 + off, st.integers(0, 31),
                  st.sampled_from((0, 1, 63)) | st.integers(0, 63))
_nbytes = (st.sampled_from((0, 1, 63, 64, 65, 128, 129))
           | st.integers(0, 200))
_access = st.tuples(_addr, _nbytes,
                    st.sampled_from((0, 1)),         # space
                    st.sampled_from(("", "a", "b")))  # label


@settings(max_examples=80, deadline=None)
@given(st.lists(_access, min_size=1, max_size=120),
       st.lists(st.booleans(), min_size=120, max_size=120))
def test_batched_and_single_line_touch_equal_reference(accesses, cuts):
    """``touch`` and ``touch_lines`` leave the same stats and the same
    LRU key order in every set as the per-line reference, for accesses
    at any (also non-line-aligned) address and any batch split."""
    def make():
        return CacheModel(size_bytes=4 * 2 * 64, ways=2, line=64)

    ref, single, batched = make(), make(), make()
    batch, key = [], None
    for (addr, nbytes, space, label), cut in zip(accesses, cuts):
        want = _reference_touch(ref, addr, nbytes, space, label)
        assert single.touch(addr, nbytes, space, label) == want
        # The lines one access covers, appended to the current batch; a
        # batch is flushed at a random cut or when space/label change.
        if batch and (cut or key != (space, label)):
            batched.touch_lines(batch, *key)
            batch = []
        key = (space, label)
        batch.extend(range(addr // 64, (addr + max(nbytes, 1) - 1) // 64 + 1))
    batched.touch_lines(batch, *key)
    assert _state(single) == _state(ref)
    assert _state(batched) == _state(ref)


def test_touch_lines_returns_batch_misses():
    c = CacheModel(size_bytes=2 * 64, ways=2, line=64)  # 1 set, 2 ways
    assert c.touch_lines([0, 1, 0, 2, 1], label="uq") == 4
    assert (c.stats.hits, c.stats.misses, c.stats.evictions) == (1, 4, 2)
    assert c.stats.by_label == {"uq": 4}
    assert c.touch_lines([]) == 0
