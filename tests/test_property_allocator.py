"""Property-based checks of the first-fit allocator in ``memory/address``.

Random alloc/free sequences are replayed against a reference model of the
free list.  Invariants checked after every step:

* live regions never overlap each other and stay inside the space;
* ``free_bytes() + allocated_bytes == size`` (conservation);
* the hole list is sorted, non-overlapping, and fully coalesced (no two
  adjacent holes), and is exactly the complement of the live regions;
* data written through one region is never clobbered by another;
* use-after-free is rejected through every accessor, and — with
  ``poison_on_free`` — stale *live* NumPy views read poison instead of
  plausible old values.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, BufferError_
from repro.memory.address import AddressSpace

SPACE = 1 << 16


@st.composite
def op_sequences(draw):
    """A schedule of allocs (size, align) and frees (victim index)."""
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    live = 0
    for _ in range(n):
        if live and draw(st.booleans()):
            ops.append(("free", draw(st.integers(0, live - 1))))
            live -= 1
        else:
            size = draw(st.integers(min_value=1, max_value=SPACE // 8))
            align = 1 << draw(st.integers(min_value=0, max_value=8))
            ops.append(("alloc", size, align))
            live += 1
    return ops


def _check_invariants(space: AddressSpace, live: dict) -> None:
    regions = sorted((r.addr, r.nbytes) for r in live.values())
    for (a1, s1), (a2, s2) in zip(regions, regions[1:]):
        assert a1 + s1 <= a2, "live regions overlap"
    assert all(0 <= a and a + s <= space.size for a, s in regions)
    assert space.allocated_bytes == sum(s for _, s in regions)
    assert space.free_bytes() + space.allocated_bytes == space.size
    holes = space._holes
    assert holes == sorted(holes)
    for (a1, s1), (a2, s2) in zip(holes, holes[1:]):
        assert a1 + s1 < a2, "holes overlap or were left uncoalesced"
    # Holes and live regions partition the space (up to alignment padding,
    # which first-fit returns to the free list immediately).
    covered = sorted(regions + [(a, s) for a, s in holes])
    pos = 0
    for a, s in covered:
        assert a >= pos
        pos = max(pos, a + s)
    assert space.free_bytes() == sum(s for _, s in holes)


@settings(max_examples=60, deadline=None)
@given(ops=op_sequences(), data=st.data())
def test_alloc_free_schedule_preserves_invariants(ops, data):
    space = AddressSpace(0, SPACE)
    live: dict[int, object] = {}
    patterns: dict[int, int] = {}
    next_id = 0
    for op in ops:
        if op[0] == "alloc":
            _, size, align = op
            try:
                region = space.alloc(size, align=align)
            except AllocationError:
                # Fragmentation can legitimately exhaust the space; the
                # failed call must not have changed any state.
                _check_invariants(space, live)
                continue
            assert region.addr % align == 0
            pat = next_id % 251 + 1
            region.ndarray()[:] = pat
            live[next_id] = region
            patterns[next_id] = pat
            next_id += 1
        else:
            victim = sorted(live)[op[1] % len(live)]
            region = live.pop(victim)
            # The bytes this region wrote must still be intact: no other
            # allocation was overlapped onto it.
            assert (region.ndarray(mode="r") == patterns.pop(victim)).all()
            region.free()
        _check_invariants(space, live)
    for rid in sorted(live):
        live.pop(rid).free()
    _check_invariants(space, {})
    assert space._holes == [(0, SPACE)], "full free must coalesce to one hole"
    assert space.allocated_bytes == 0


def test_use_after_free_rejected_via_all_accessors():
    space = AddressSpace(0, SPACE)
    region = space.alloc(256)
    region.free()
    with pytest.raises(BufferError_):
        region.ndarray()
    with pytest.raises(BufferError_):
        region.read(0, 8)
    with pytest.raises(BufferError_):
        region.write(0, b"\x01" * 8)
    with pytest.raises(BufferError_):
        region.fill(3)
    # free() is idempotent through the Region, but a forced second free of
    # the same range is caught as free-list corruption.
    region.free()
    with pytest.raises(AllocationError):
        space.free(region)


def test_double_free_of_same_range_detected():
    space = AddressSpace(0, SPACE)
    region = space.alloc(128)
    space.free(region)
    with pytest.raises(AllocationError):
        space.free(region)


def test_poison_on_free_visible_through_live_views():
    """A view taken before ``free`` cannot raise — but with poisoning on,
    it reads 0xDB garbage instead of the old (plausible) payload."""
    space = AddressSpace(0, SPACE)
    space.poison_on_free = True
    region = space.alloc(64)
    view = region.ndarray(np.uint8)
    view[:] = 7
    region.free()
    assert (view == AddressSpace.POISON).all()
    # Fresh allocations may reuse the range; the poison must not leak into
    # accounting.
    again = space.alloc(64)
    assert space.allocated_bytes == 64
    again.free()


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=2,
                      max_size=12))
def test_free_in_any_order_coalesces_back_to_one_hole(sizes):
    space = AddressSpace(0, SPACE)
    regions = [space.alloc(s) for s in sizes]
    rng = np.random.default_rng(sum(sizes))
    for i in rng.permutation(len(regions)):
        regions[i].free()
    assert space._holes == [(0, SPACE)]
    assert space.free_bytes() == SPACE


# -- exact first-fit: the hinted allocator against the plain linear scan --
class _LinearFirstFit:
    """The allocator's free list with a plain first-fit scan from hole 0
    on every alloc: the address oracle for ``AddressSpace``'s hints."""

    def __init__(self, size):
        self.holes = [(0, size)]
        self.merges = set()          # which neighbours frees coalesced

    def alloc(self, nbytes, align):
        for i, (addr, size) in enumerate(self.holes):
            start = (addr + align - 1) & ~(align - 1)
            pad = start - addr
            if size >= pad + nbytes:
                new_holes = []
                if pad:
                    new_holes.append((addr, pad))
                tail = size - pad - nbytes
                if tail:
                    new_holes.append((start + nbytes, tail))
                self.holes[i:i + 1] = new_holes
                return start
        return None

    def free(self, addr, size):
        i = bisect.bisect_left(self.holes, (addr, 0))
        self.holes.insert(i, (addr, size))
        merged = []
        if i + 1 < len(self.holes):
            naddr, nsize = self.holes[i + 1]
            if addr + size == naddr:
                self.holes[i:i + 2] = [(addr, size + nsize)]
                size += nsize
                merged.append("successor")
        if i > 0:
            paddr, psize = self.holes[i - 1]
            if paddr + psize == addr:
                self.holes[i - 1:i + 1] = [(paddr, psize + size)]
                merged.append("predecessor")
        self.merges.add(" and ".join(merged) or "none")


def _replay_against_linear(ops, size=SPACE):
    """Run ``ops`` on an AddressSpace and the linear oracle; every alloc
    must return the same address and every step leave the same holes."""
    space = AddressSpace(0, size)
    oracle = _LinearFirstFit(size)
    live = []
    for op in ops:
        if op[0] == "alloc":
            _, nbytes, align = op
            want = oracle.alloc(nbytes, align)
            if want is None:
                with pytest.raises(AllocationError):
                    space.alloc(nbytes, align=align)
            else:
                region = space.alloc(nbytes, align=align)
                assert region.addr == want
                live.append(region)
        elif live:
            region = live.pop(op[1] % len(live))
            oracle.free(region.addr, region.nbytes)
            region.free()
        assert space._holes == oracle.holes
    return oracle


@st.composite
def small_aligned_runs(draw):
    """Long runs of small aligned allocs — the kv pattern of 32 B at
    align 64 leaves a dead pad hole per request — mixed with other
    alignments, and frees that land next to free neighbours."""
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        nbytes = draw(st.sampled_from((8, 24, 32, 48, 64, 100, 300)))
        align = draw(st.sampled_from((1, 8, 64, 256)))
        run = draw(st.integers(1, 40))
        ops += [("alloc", nbytes, align)] * run
        for _ in range(draw(st.integers(0, run))):
            ops.append(("free", draw(st.integers(0, 1 << 16))))
    return ops


@settings(max_examples=150, deadline=None)
@given(ops=st.one_of(op_sequences(), small_aligned_runs()))
def test_hinted_first_fit_equals_linear_scan(ops):
    _replay_against_linear(ops)


def test_kv_pattern_hints_stay_exact_through_every_coalesce():
    """The kv request pattern (32 B at align 64) interleaved with other
    alignments and frees in address order, reverse order and alternate
    blocks — so frees coalesce with a predecessor, a successor, both, and
    neither — on a space small enough to also exhaust it."""
    ops = [("alloc", 32, 64)] * 200 + [("alloc", 8, 8)] * 20
    ops += [("alloc", 40, 256), ("alloc", 1, 1)] * 10
    ops += [("free", 2 * k) for k in range(60)]       # alternate blocks
    ops += [("alloc", 32, 64)] * 50 + [("alloc", 16, 1)] * 50
    ops += [("free", 7)] * 80 + [("free", 1000)] * 40  # runs of neighbours
    ops += [("alloc", 4096, 64)] * 8                  # exhausts the space
    oracle = _replay_against_linear(ops, size=1 << 15)
    assert {"none", "successor", "predecessor",
            "successor and predecessor"} <= oracle.merges


def test_exact_fit_shifts_other_requests_hints():
    """An exact fit removes a hole below another request's hint; that
    hint must move down with the holes or the next alloc skips one."""
    ops = [("alloc", 100, 1), ("alloc", 50, 1), ("alloc", 100, 1),
           ("free", 1),                  # a 50 B hole below the tail
           ("alloc", 100, 1),            # skips it: hint past the hole
           ("alloc", 50, 1),             # exact fit removes that hole
           ("alloc", 100, 1)]
    _replay_against_linear(ops, size=500)
