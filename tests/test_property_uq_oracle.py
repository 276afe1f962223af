"""Property tests: the Unexpected Queue against a brute-force oracle.

The UQ's slot ring, free-list, and cache accounting must never change
*matching* semantics: ``find_and_remove`` returns the oldest entry the
request matches, ``peek_match`` the oldest entry a probe matches, under
every combination of ``ANY_SOURCE``/``ANY_TAG`` wildcards.  The oracle
is a plain list scanned front to back with the textbook predicate.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.matching import UnexpectedQueue
from repro.memory.address import AddressSpace
from repro.memory.cache import CACHE_LINE, CacheModel
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

WINS = (1, 2)
SOURCES = (0, 1, 2)
TAGS = (0, 1, 2)


class _Req:
    def __init__(self, win_id, source, tag):
        self.win_id, self.source, self.tag = win_id, source, tag

    def matches(self, win_id, source, tag):
        return (win_id == self.win_id
                and self.source in (ANY_SOURCE, source)
                and self.tag in (ANY_TAG, tag))


def _oracle_first(entries, win_id, source, tag):
    """Brute-force first match; ``win_id=None`` matches every window."""
    for entry in entries:
        if win_id is not None and entry[0] != win_id:
            continue
        if source != ANY_SOURCE and entry[1] != source:
            continue
        if tag != ANY_TAG and entry[2] != tag:
            continue
        return entry
    return None


def _make_uq(slots):
    space = AddressSpace(0, 1 << 20)
    region = space.alloc(slots * CACHE_LINE, align=CACHE_LINE)
    return UnexpectedQueue(region, CacheModel(), slots=slots)


def _append_op():
    return st.tuples(st.just("append"), st.sampled_from(WINS),
                     st.sampled_from(SOURCES), st.sampled_from(TAGS))


def _remove_op():
    return st.tuples(st.just("remove"), st.sampled_from(WINS),
                     st.sampled_from(SOURCES + (ANY_SOURCE,)),
                     st.sampled_from(TAGS + (ANY_TAG,)))


def _peek_op():
    return st.tuples(st.just("peek"),
                     st.sampled_from(WINS + (None,)),
                     st.sampled_from(SOURCES + (ANY_SOURCE,)),
                     st.sampled_from(TAGS + (ANY_TAG,)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_append_op(), _remove_op(), _peek_op()),
                max_size=64))
def test_uq_agrees_with_bruteforce_oracle(ops):
    uq = _make_uq(slots=max(len(ops), 1))
    oracle = []                      # (win_id, source, tag, time)
    for time, (kind, win_id, source, tag) in enumerate(ops):
        if kind == "append":
            uq.append(win_id, source, tag, nbytes=8, time=float(time))
            oracle.append((win_id, source, tag, float(time)))
        elif kind == "remove":
            got = uq.find_and_remove(_Req(win_id, source, tag))
            want = _oracle_first(oracle, win_id, source, tag)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.win_id, got.source, got.tag,
                        got.time) == want
                oracle.remove(want)
        else:
            got = uq.peek_match(win_id, source, tag)
            want = _oracle_first(oracle, win_id, source, tag)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.win_id, got.source, got.tag,
                        got.time) == want
        # queue contents stay identical to the oracle, in order, and
        # every live entry keeps a distinct backing slot
        assert [(e.win_id, e.source, e.tag, e.time)
                for e in uq._entries] == oracle
        addrs = [e.slot_addr for e in uq._entries]
        assert len(set(addrs)) == len(addrs)


@settings(max_examples=100, deadline=None)
@given(st.lists(_append_op(), min_size=1, max_size=32),
       st.sampled_from(SOURCES + (ANY_SOURCE,)),
       st.sampled_from(TAGS + (ANY_TAG,)))
def test_drain_order_matches_repeated_oracle_scan(appends, source, tag):
    """Repeatedly consuming with one wildcard request drains matches in
    exact arrival order and leaves non-matches untouched."""
    uq = _make_uq(slots=len(appends))
    oracle = []
    for time, (_, win_id, asrc, atag) in enumerate(appends):
        uq.append(win_id, asrc, atag, nbytes=8, time=float(time))
        oracle.append((win_id, asrc, atag, float(time)))
    req = _Req(WINS[0], source, tag)
    drained = []
    while True:
        got = uq.find_and_remove(req)
        if got is None:
            break
        drained.append((got.win_id, got.source, got.tag, got.time))
    matching = [e for e in oracle
                if _oracle_first([e], WINS[0], source, tag)]
    assert drained == matching
    assert [(e.win_id, e.source, e.tag, e.time)
            for e in uq._entries] == \
        [e for e in oracle if e not in matching]


def _cache_state(cache):
    s = cache.stats
    return (s.hits, s.misses, s.evictions, s.by_label,
            [list(lru) for lru in cache._sets])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((0, 3, 15, 16, 17, 40)).flatmap(
           lambda n: st.lists(_append_op(), min_size=n, max_size=n)),
       st.lists(st.one_of(_append_op(), _remove_op()), max_size=48))
def test_scan_cache_accounting_equals_per_entry_touches(prefill, ops):
    """``find_and_remove`` charges the cache exactly as touching the head
    and then every scanned slot one by one would — same stats, same LRU
    order in every set — for queues both shorter and longer than the
    vectorized-compare threshold, on a cache small enough to evict."""
    space = AddressSpace(0, 1 << 20)
    slots = len(prefill) + len(ops) + 1
    region = space.alloc(slots * CACHE_LINE, align=CACHE_LINE)
    cache = CacheModel(size_bytes=4 * 2 * CACHE_LINE, ways=2)
    uq = UnexpectedQueue(region, cache, slots=slots)
    ref = CacheModel(size_bytes=4 * 2 * CACHE_LINE, ways=2)
    oracle = []                      # (win_id, source, tag, slot_addr)
    for time, (kind, win_id, source, tag) in enumerate(prefill + ops):
        if kind == "append":
            entry = uq.append(win_id, source, tag, nbytes=8,
                              time=float(time))
            ref.touch(entry.slot_addr, CACHE_LINE, label="na-uq-append")
            oracle.append((win_id, source, tag, entry.slot_addr))
        else:
            got = uq.find_and_remove(_Req(win_id, source, tag))
            ref.touch(uq.head_addr, 8, label="na-uq-head")
            want = None
            for queued in oracle:
                ref.touch(queued[3], CACHE_LINE, label="na-uq-scan")
                if _oracle_first([queued], win_id, source, tag):
                    want = queued
                    break
            if want is None:
                assert got is None
            else:
                assert got.slot_addr == want[3]
                oracle.remove(want)
        assert _cache_state(cache) == _cache_state(ref)
