"""An LRU cache-line model for accounting matching-path memory traffic.

Section V of the paper argues the Notified Access matching path costs at most
**two compulsory cache misses** when fewer than four notifications are active:
one for the 32-byte request structure, one for the unexpected-queue head
(arranged to share a line with its first elements).  Rather than assert this,
we *measure* it: the matching engine funnels every structure access through a
:class:`CacheModel` and the microbenchmark (``bench_sec5_cache_misses``)
reports observed misses.

The model is a set-associative LRU cache with 64-byte lines, sized like a
per-core L1 (32 KiB, 8-way) by default.  It models presence only — hit/miss
accounting, not latency — because the paper's claim is a miss *count*.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

#: Cache line size in bytes (x86-typical; also the notification entry size
#: in the shared-memory ring buffer, §IV-C).
CACHE_LINE = 64


@dataclass
class CacheStats:
    """Counters accumulated by :class:`CacheModel`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    by_label: dict[str, int] = field(default_factory=dict)

    def miss_for(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions,
                          dict(self.by_label))

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        by = {k: v - earlier.by_label.get(k, 0)
              for k, v in self.by_label.items()}
        by = {k: v for k, v in by.items() if v}
        return CacheStats(self.hits - earlier.hits,
                          self.misses - earlier.misses,
                          self.evictions - earlier.evictions, by)


class CacheModel:
    """Set-associative LRU cache over (space-id, line-address) keys."""

    def __init__(self, size_bytes: int = 32 * 1024, ways: int = 8,
                 line: int = CACHE_LINE):
        if size_bytes % (ways * line):
            raise ValueError("cache size must be a multiple of ways*line")
        self.line = line
        self.ways = ways
        self.nsets = size_bytes // (ways * line)
        self._sets: list[OrderedDict] = [OrderedDict()
                                         for _ in range(self.nsets)]
        self.stats = CacheStats()

    def _lines(self, addr: int, nbytes: int):
        first = addr // self.line
        last = (addr + max(nbytes, 1) - 1) // self.line
        return range(first, last + 1)

    def touch(self, addr: int, nbytes: int, space: int = 0,
              label: str = "") -> int:
        """Access ``[addr, addr+nbytes)``; returns the line-miss count."""
        line = self.line
        lineno = addr // line
        if addr + nbytes > lineno * line + line:
            return self.touch_lines(
                range(lineno, (addr + nbytes - 1) // line + 1), space, label)
        # One line (also a zero-byte access): the common case, inlined.
        key = (space, lineno)
        st = self._sets[lineno % self.nsets]
        stats = self.stats
        if key in st:
            st.move_to_end(key)
            stats.hits += 1
            return 0
        stats.misses += 1
        if label:
            stats.by_label[label] = stats.by_label.get(label, 0) + 1
        st[key] = True
        if len(st) > self.ways:
            st.popitem(last=False)
            stats.evictions += 1
        return 1

    def touch_lines(self, lines: Iterable[int], space: int = 0,
                    label: str = "") -> int:
        """Access whole lines by number, in order; returns the miss count.

        The effect on every set's LRU order and on :attr:`stats` equals
        one ``touch(n * self.line, self.line, space, label)`` per line
        number ``n`` — the counters are just summed once per batch
        instead of once per line.  The UQ scan charges every slot it
        visits through here.
        """
        sets = self._sets
        nsets = self.nsets
        ways = self.ways
        hits = misses = evictions = 0
        for lineno in lines:
            key = (space, lineno)
            st = sets[lineno % nsets]
            if key in st:
                st.move_to_end(key)
                hits += 1
            else:
                misses += 1
                st[key] = True
                if len(st) > ways:
                    st.popitem(last=False)
                    evictions += 1
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions
        if label and misses:
            stats.by_label[label] = stats.by_label.get(label, 0) + misses
        return misses

    def flush_range(self, addr: int, nbytes: int, space: int = 0) -> None:
        """Invalidate lines (models DMA writing to memory, not cache)."""
        for lineno in self._lines(addr, nbytes):
            st = self._sets[lineno % self.nsets]
            st.pop((space, lineno), None)

    def flush_all(self) -> None:
        for st in self._sets:
            st.clear()

    def resident(self, addr: int, space: int = 0) -> bool:
        key = (space, addr // self.line)
        return key in self._sets[(addr // self.line) % self.nsets]
