"""The Unexpected Queue (UQ) and notification matching (§IV-B).

Notifications polled off the hardware CQs that do not match the querying
request are appended to a single per-rank UQ, preserving arrival order.
The UQ is backed by a ring of 64-byte slots in the rank's address space;
the head pointer lives on the same cache line as the first slot, which is
what bounds a cold lookup to one miss for the queue (plus one for the
request structure) — the paper's two-compulsory-miss argument.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import MatchingError
from repro.memory.address import Region
from repro.memory.cache import CACHE_LINE, CacheModel
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

#: default UQ capacity in entries
UQ_SLOTS = 512

#: below this many queued entries a scalar scan beats the numpy setup cost
_VECTOR_MIN = 16


@dataclass
class UqEntry:
    """One queued notification."""

    win_id: int
    source: int
    tag: int
    nbytes: int
    time: float
    slot_addr: int
    #: originating op's sanitizer clock (carried from the CQ entry)
    san: object = None


class UnexpectedQueue:
    """Arrival-ordered notification queue with cache accounting."""

    def __init__(self, region: Region, cache: CacheModel,
                 slots: int = UQ_SLOTS):
        need = slots * CACHE_LINE
        if region.nbytes < need:
            raise MatchingError(
                f"UQ region of {region.nbytes} B too small for "
                f"{slots} slots")
        if region.addr % CACHE_LINE or cache.line != CACHE_LINE:
            # Each slot must be exactly one cache line for the per-slot
            # line numbers below to be the lines a slot access touches.
            raise MatchingError(
                "UQ slots must be aligned to the cache model's "
                f"{CACHE_LINE}-byte lines")
        self.region = region
        self.cache = cache
        self.slots = slots
        self._entries: list[UqEntry] = []
        # Mirror columns of (win_id, source, tag) kept index-aligned with
        # ``_entries`` so a lookup can compare the whole queue in one
        # vectorized pass instead of a Python loop per entry — the §V
        # high-fan-in case queues thousands of wildcard notifications.
        # Capacity is exactly ``slots`` (append raises on overflow).
        self._win = np.empty(slots, dtype=np.int64)
        self._src = np.empty(slots, dtype=np.int64)
        self._tag = np.empty(slots, dtype=np.int64)
        # Free-slot list, not a rotating cursor: entries are removed in
        # match order, not FIFO order, so after wraparound a cursor would
        # hand a live entry's slot to a new one and corrupt the per-slot
        # cache accounting.  Lowest-index-first keeps the layout compact.
        self._free_slots: list[int] = list(range(slots))
        # Cache line number of each entry's slot, index-aligned with
        # ``_entries``: what a scan charges to the cache model.
        self._lines: list[int] = []
        self.appended = 0
        self.matched = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def head_addr(self) -> int:
        """The head pointer shares the cache line of slot 0 (§V)."""
        return self.region.addr

    def append(self, win_id: int, source: int, tag: int, nbytes: int,
               time: float, san: object = None) -> UqEntry:
        if not self._free_slots:
            raise MatchingError(
                f"unexpected queue overflow ({self.slots} slots)")
        slot = heapq.heappop(self._free_slots)
        slot_addr = self.region.addr + slot * CACHE_LINE
        entry = UqEntry(win_id, source, tag, nbytes, time, slot_addr,
                        san=san)
        n = len(self._entries)
        self._win[n] = win_id
        self._src[n] = source
        self._tag[n] = tag
        self._entries.append(entry)
        self._lines.append(slot_addr // CACHE_LINE)
        self.appended += 1
        self.cache.touch(slot_addr, CACHE_LINE, label="na-uq-append")
        return entry

    def _first_match(self, win_id: int | None, source: int,
                     tag: int) -> int:
        """Index of the oldest entry matching the triple, or -1.

        One vectorized compare over the mirror columns — the textbook
        predicate (window equality, then source/tag unless wildcarded),
        evaluated for the whole queue at once.
        """
        n = len(self._entries)
        if win_id is not None:
            mask = self._win[:n] == win_id
            if source != ANY_SOURCE:
                mask &= self._src[:n] == source
            if tag != ANY_TAG:
                mask &= self._tag[:n] == tag
        elif source != ANY_SOURCE:
            mask = self._src[:n] == source
            if tag != ANY_TAG:
                mask &= self._tag[:n] == tag
        elif tag != ANY_TAG:
            mask = self._tag[:n] == tag
        else:
            return 0 if n else -1
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else -1

    def _remove_at(self, idx: int) -> UqEntry:
        entries = self._entries
        entry = entries.pop(idx)
        del self._lines[idx]
        n = len(entries)
        if idx < n:
            # Close the gap in the mirror columns (numpy buffers
            # overlapping slice assignment, so in-place shift is safe).
            self._win[idx:n] = self._win[idx + 1:n + 1]
            self._src[idx:n] = self._src[idx + 1:n + 1]
            self._tag[idx:n] = self._tag[idx + 1:n + 1]
        self.matched += 1
        heapq.heappush(
            self._free_slots,
            (entry.slot_addr - self.region.addr) // CACHE_LINE)
        return entry

    def find_and_remove(self, req) -> UqEntry | None:
        """Oldest entry matching ``req``; touches scanned lines."""
        # Touching the head (pointer + first slots) is the one compulsory
        # queue miss; scanning further entries touches their slots.
        self.cache.touch(self.head_addr, 8, label="na-uq-head")
        entries = self._entries
        win = getattr(req, "win", None)
        win_id = win.id if win is not None else getattr(req, "win_id", None)
        source = getattr(req, "source", None)
        tag = getattr(req, "tag", None)
        if (len(entries) < _VECTOR_MIN or win_id is None
                or source is None or tag is None):
            # Short queue or a request shape the bulk compare cannot
            # introspect: a scalar scan.
            idx = -1
            for i, entry in enumerate(entries):
                if req.matches(entry.win_id, entry.source, entry.tag):
                    idx = i
                    break
        else:
            idx = self._first_match(win_id, source, tag)
        # The scan visits every slot up to and including the match (or
        # the whole queue on a miss), in arrival order: one batched
        # charge with the same effect as a touch per slot.
        stop = idx + 1 if idx >= 0 else len(entries)
        if stop:
            self.cache.touch_lines(self._lines[:stop], label="na-uq-scan")
        if idx < 0:
            return None
        return self._remove_at(idx)

    def peek_match(self, win_id: int | None, source: int,
                   tag: int) -> UqEntry | None:
        """Probe-style lookup without consuming (no cache charging)."""
        entries = self._entries
        if len(entries) < _VECTOR_MIN:
            for entry in entries:
                if win_id is not None and entry.win_id != win_id:
                    continue
                if source != ANY_SOURCE and entry.source != source:
                    continue
                if tag != ANY_TAG and entry.tag != tag:
                    continue
                return entry
            return None
        idx = self._first_match(win_id, source, tag)
        return entries[idx] if idx >= 0 else None
