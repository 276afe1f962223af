"""Static data-race and buffer-overlap checking over concrete traces.

Mirrors the dynamic vector-clock sanitizer (:mod:`repro.sanitizer`)
symbolically: every remote operation is a fresh clock actor, commits
chain through per-``(origin, target)`` in-order channels for small
(FMA-class) transfers, notification matches and counter waits acquire
the matched commits' clocks, flushes acquire pending operations, and
barriers (plus the collective halves of ``win_allocate``/``win_free``)
join all ranks.  Two conflicting accesses to overlapping byte ranges
with no happens-before path between them are reported as one of

* ``race.overlap-write``  — unordered writes overlap,
* ``race.unordered-read`` — a read overlaps an unordered write,
* ``race.stale-view``     — a local numpy view races a remote access.

The checker runs only on programs whose geometry resolved exactly
(``Trace.race_exact``); the *matching* between posts and waits comes
from the shared maximal-progress replay (:mod:`repro.analysis.replay`)
and is then verified per wait — any compatible post that is not
provably issued after the wait completed downgrades that wait to a
sound k-th-smallest lower bound, so the static happens-before is never
stronger than every real schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.instantiate import AllocVal, COp, Trace, WindowVal
from repro.analysis.ir import Program
from repro.analysis.replay import OpId, Schedule, matches, replay
from repro.analysis.report import Finding

#: FMA payload ceiling (repro.network.loggp.LogGPParams.fma_max default):
#: transfers at or below this ride an in-order channel on every
#: transport pairing, so chaining them is sound for any node mapping.
FMA_MAX = 4096

#: pairwise ordering tests before the sweep gives up (defensive cap)
MAX_PAIR_TESTS = 2_000_000

#: clock-fixpoint passes for downgraded-wait lower bounds
MAX_BOUND_PASSES = 8

_READ, _WRITE, _ATOMIC = "R", "W", "A"


@dataclass
class _Access:
    """One byte-range access with its sanitizer-style clock stamp."""

    seg: tuple[object, ...]     # ("win", index, owner) | ("buf", rank, idx)
    start: int
    end: int
    kind: str                   # _READ | _WRITE | _ATOMIC
    actor: int
    tick: int
    vc: dict[int, int]
    by: int                     # rank that performed the access
    line: int
    is_view: bool = False


@dataclass
class _Post:
    """Clock footprint of one post, rebuilt each fixpoint pass."""

    issue_vc: dict[int, int] = field(default_factory=dict)
    #: what a matching wait acquires (commit vc; READ-leg vc for gets)
    acq_vc: dict[int, int] = field(default_factory=dict)


class _ClockPass:
    """One sanitizer-mirroring clock computation over the schedule."""

    def __init__(self, traces: list[Trace], actors: dict[OpId, int],
                 matching: dict[OpId, list[OpId]],
                 downgraded: set[OpId],
                 bounds: dict[OpId, dict[int, int]],
                 collect: bool):
        self.traces = traces
        self.actors = actors
        self.matching = matching
        self.downgraded = downgraded
        self.bounds = bounds
        self.collect = collect
        size = len(traces)
        self.vc: list[dict[int, int]] = [{r: 1} for r in range(size)]
        self.tick: list[int] = [1] * size
        #: per-rank pending remote ops: (win, target, is_get, clock)
        self.pending: list[list[
            tuple[WindowVal | None, int | None, bool,
                  dict[int, int]]]] = [[] for _ in range(size)]
        #: small-transfer in-order chains per (origin, target)
        self.chan: dict[tuple[int, int], dict[int, int]] = {}
        self.posts: dict[OpId, _Post] = {}
        self.completion: dict[OpId, int] = {}
        self.accesses: list[_Access] = []

    # -- clock plumbing (mirrors sanitizer.tracker) ----------------------
    def _release(self, rank: int) -> dict[int, int]:
        snap = dict(self.vc[rank])
        self.tick[rank] += 1
        self.vc[rank][rank] = self.tick[rank]
        return snap

    def _acquire(self, rank: int, vc: dict[int, int]) -> None:
        mine = self.vc[rank]
        for actor, t in vc.items():
            if mine.get(actor, 0) < t:
                mine[actor] = t

    def _bump(self, rank: int) -> int:
        self.tick[rank] += 1
        self.vc[rank][rank] = self.tick[rank]
        return self.tick[rank]

    def _touch(self, seg: tuple[object, ...], start: int, nbytes: int,
               kind: str, actor: int, tick: int, vc: dict[int, int],
               by: int, line: int, is_view: bool = False) -> None:
        if self.collect and nbytes > 0:
            self.accesses.append(_Access(
                seg=seg, start=start, end=start + nbytes, kind=kind,
                actor=actor, tick=tick, vc=dict(vc), by=by, line=line,
                is_view=is_view))

    def _du(self, target: int, win: WindowVal | None) -> int:
        if win is None:
            return 1
        return self.traces[target].win_meta.get(win.index, (-1, 1))[1]

    # -- op execution ----------------------------------------------------
    def execute(self, schedule: Schedule) -> None:
        for _tag, payload in schedule:
            if isinstance(payload, list):
                self._sync(payload)
                continue
            rank, index = payload
            op = self.traces[rank].ops[index]
            if op.kind in ("post", "rma"):
                self._remote_op(rank, index, op)
            elif op.kind == "wait":
                self._wait(rank, index, op)
            elif op.kind == "flush":
                self._flush(rank, op.win, op.target, op.local)
            elif op.kind == "view":
                self._view(rank, op)

    def _remote_op(self, rank: int, index: int, op: COp) -> None:
        assert op.target is not None
        actor = self.actors[(rank, index)]
        snap = self._release(rank)
        parent = dict(snap)
        parent[actor] = 1
        win_seg = ("win", op.win.index if op.win is not None else -1,
                   op.target)
        du = self._du(op.target, op.win)
        start = op.disp * du
        if op.rma == "get":
            child = dict(parent)
            child[actor + 1] = 1
            self._touch(win_seg, start, op.nbytes, _READ, actor, 1,
                        parent, rank, op.line)
            if op.buf is not None:
                self._touch(("buf", op.buf.rank, op.buf.index),
                            op.buf_off, op.nbytes, _WRITE, actor + 1, 1,
                            child, rank, op.line)
            self.pending[rank].append((op.win, op.target, True, child))
            acq = parent
        else:
            commit = parent
            if 0 <= op.nbytes <= FMA_MAX:
                chain = self.chan.get((rank, op.target))
                if chain:
                    for a, t in chain.items():
                        if commit.get(a, 0) < t:
                            commit[a] = t
                self.chan[(rank, op.target)] = dict(commit)
            kind = _ATOMIC if op.rma == "acc" else _WRITE
            self._touch(win_seg, start, op.nbytes, kind, actor, 1,
                        commit, rank, op.line)
            self.pending[rank].append((op.win, op.target, False, commit))
            acq = commit
        if op.kind == "post":
            self.posts[(rank, index)] = _Post(issue_vc=snap, acq_vc=acq)

    def _wait(self, rank: int, index: int, op: COp) -> None:
        wid = (rank, index)
        if wid in self.downgraded or op.mech == "gaspi":
            # gaspi waitsome picks slots nondeterministically: acquire
            # nothing; downgraded waits acquire their pool lower bound
            bound = self.bounds.get(wid)
            if bound:
                self._acquire(rank, bound)
        else:
            for pid in self.matching.get(wid, []):
                post = self.posts.get(pid)
                if post is not None:
                    self._acquire(rank, post.acq_vc)
        self.completion[wid] = self._bump(rank)

    def _flush(self, rank: int, win: WindowVal | None,
               target: int | None, local: bool) -> None:
        keep = []
        for entry in self.pending[rank]:
            pwin, ptarget, is_get, pvc = entry
            hit = (win is None or pwin == win) and \
                  (target is None or ptarget == target)
            if not hit:
                keep.append(entry)
                continue
            if local and not is_get:
                keep.append(entry)      # puts need a full flush
                continue
            self._acquire(rank, pvc)
        self.pending[rank] = keep

    def _view(self, rank: int, op: COp) -> None:
        if op.win is not None:
            seg: tuple[object, ...] = ("win", op.win.index, rank)
        elif op.buf is not None:
            seg = ("buf", op.buf.rank, op.buf.index)
        else:
            return
        kind = _WRITE if op.rma == "w" else _READ
        self._touch(seg, op.disp, op.nbytes, kind, rank,
                    self.tick[rank], self.vc[rank], rank, op.line,
                    is_view=True)

    def _sync(self, group: list[OpId]) -> None:
        # win_free flushes its window everywhere before the rendezvous
        for rank, index in group:
            op = self.traces[rank].ops[index]
            if op.kind == "wfree":
                self._flush(rank, op.win, None, False)
        joined: dict[int, int] = {}
        for rank, _index in group:
            for actor, t in self.vc[rank].items():
                if joined.get(actor, 0) < t:
                    joined[actor] = t
        for rank, _index in group:
            self.vc[rank] = dict(joined)
            self._bump(rank)


def _assign_actors(traces: list[Trace]) -> dict[OpId, int]:
    """Deterministic fresh actor ids (gets take two: READ + delivery)."""
    actors: dict[OpId, int] = {}
    next_id = len(traces)
    for rank, trace in enumerate(traces):
        for index, op in enumerate(trace.ops):
            if op.kind in ("post", "rma"):
                actors[(rank, index)] = next_id
                next_id += 2 if op.rma == "get" else 1
    return actors


def _kth_smallest_bound(pool: list[dict[int, int]],
                        k: int) -> dict[int, int]:
    """Componentwise k-th smallest over the pool (missing = 0): with at
    least ``k`` pool posts consumed, each component is at least this."""
    if not pool or k <= 0:
        return {}
    k = min(k, len(pool))
    out: dict[int, int] = {}
    components: set[int] = set()
    for vc in pool:
        components.update(vc)
    for actor in components:
        values = sorted(vc.get(actor, 0) for vc in pool)
        value = values[k - 1]
        if value > 0:
            out[actor] = value
    return out


def _compute_clocks(traces: list[Trace],
                    schedule: Schedule,
                    actors: dict[OpId, int],
                    matching: dict[OpId, list[OpId]],
                    downgraded: set[OpId],
                    wait_depth: dict[OpId, int],
                    pools: dict[OpId, list[OpId]]) -> _ClockPass:
    """Iterate clock passes until downgraded-wait bounds stabilize."""
    bounds: dict[OpId, dict[int, int]] = {}
    passes = MAX_BOUND_PASSES if downgraded else 1
    result: _ClockPass | None = None
    for step in range(passes):
        collect = step == passes - 1
        run = _ClockPass(traces, actors, matching, downgraded, bounds,
                         collect)
        run.execute(schedule)
        new_bounds = {
            wid: _kth_smallest_bound(
                [run.posts[pid].acq_vc for pid in pools.get(wid, [])
                 if pid in run.posts],
                wait_depth.get(wid, 0))
            for wid in downgraded}
        result = run
        if new_bounds == bounds:
            if collect:
                break
            bounds = new_bounds
            final = _ClockPass(traces, actors, matching, downgraded,
                               bounds, True)
            final.execute(schedule)
            result = final
            break
        bounds = new_bounds
    assert result is not None
    return result


def _verify(traces: list[Trace], run: _ClockPass,
            matching: dict[OpId, list[OpId]],
            downgraded: set[OpId],
            pools: dict[OpId, list[OpId]]) -> set[OpId]:
    """Waits whose replay matching is not forced in every schedule."""
    bad: set[OpId] = set()
    for rank, trace in enumerate(traces):
        consumed: set[OpId] = set()
        for index, op in enumerate(trace.ops):
            if op.kind != "wait":
                continue
            wid = (rank, index)
            if wid in downgraded or op.mech == "gaspi":
                continue
            mine = set(matching.get(wid, ()))
            exclusive = True
            for pid in pools.get(wid, []):
                if pid in mine or pid in consumed:
                    continue
                post = run.posts.get(pid)
                if post is None:
                    continue
                if post.issue_vc.get(rank, 0) < run.completion[wid]:
                    exclusive = False
                    break
            if exclusive:
                consumed |= mine
            else:
                bad.add(wid)
    return bad


def _conflict(a: _Access, b: _Access) -> bool:
    if a.kind == _READ and b.kind == _READ:
        return False
    if a.kind == _ATOMIC and b.kind == _ATOMIC:
        return False
    return True


def _ordered(a: _Access, b: _Access) -> bool:
    if a.actor == b.actor:
        return a.tick <= b.tick
    return b.vc.get(a.actor, 0) >= a.tick


def _seg_desc(seg: tuple[object, ...]) -> str:
    if seg[0] == "win":
        return f"window {seg[1]} of rank {seg[2]}"
    return f"buffer {seg[2]} of rank {seg[1]}"


_KIND_WORD = {_READ: "read", _WRITE: "write", _ATOMIC: "accumulate"}


def _sweep(program: Program, size: int,
           accesses: list[_Access]) -> list[Finding]:
    by_seg: dict[tuple[object, ...], list[_Access]] = {}
    for access in accesses:
        by_seg.setdefault(access.seg, []).append(access)
    findings: list[Finding] = []
    seen: set[tuple[object, ...]] = set()
    tests = 0
    for seg, group in sorted(by_seg.items(), key=lambda kv: repr(kv[0])):
        group.sort(key=lambda a: (a.start, a.end, a.line))
        for i, a in enumerate(group):
            for b in group[i + 1:]:
                if b.start >= a.end:
                    break               # sorted by start: no later overlap
                tests += 1
                if tests > MAX_PAIR_TESTS:
                    return findings
                if not _conflict(a, b):
                    continue
                if _ordered(a, b) or _ordered(b, a):
                    continue
                first, second = sorted((a, b), key=lambda x: (x.line,
                                                              x.by))
                key = (seg, first.line, second.line, first.kind,
                       second.kind)
                if key in seen:
                    continue
                seen.add(key)
                if first.line in program.race_ok_lines or \
                        second.line in program.race_ok_lines:
                    continue
                if first.is_view or second.is_view:
                    check = "race.stale-view"
                elif _READ in (first.kind, second.kind):
                    check = "race.unordered-read"
                else:
                    check = "race.overlap-write"
                lo = max(first.start, second.start)
                hi = min(first.end, second.end)
                findings.append(Finding(
                    check=check, path=program.path, line=first.line,
                    program=program.qualname,
                    message=(
                        f"{_KIND_WORD[first.kind]} at line {first.line} "
                        f"(rank {first.by}) and "
                        f"{_KIND_WORD[second.kind]} at line "
                        f"{second.line} (rank {second.by}) touch "
                        f"{_seg_desc(seg)} bytes [{lo}, {hi}) with no "
                        f"ordering edge (notification, flush, or "
                        f"barrier) between them"),
                    ranks=tuple(sorted({first.by, second.by})),
                    size=size))
    return findings


def check_races(program: Program, size: int,
                traces: list[Trace]) -> list[Finding]:
    """Report unordered conflicting overlapping accesses, or nothing
    when the program is outside the exactly-modelled fragment."""
    for trace in traces:
        if not trace.exact or not trace.race_exact or \
                trace.has_poll or trace.has_pscw:
            return []
        for op in trace.ops:
            if op.mech == "p2p" or op.kind in ("send", "recv"):
                return []
            if op.kind == "barrier" and op.mech == "coll":
                return []
    replayed = replay(traces)
    if replayed.stuck:
        return []                       # budget/deadlock's domain
    schedule, matching = replayed.schedule, replayed.matching
    actors = _assign_actors(traces)

    # per-wait pools (compatible posts program-wide) and pattern depth
    pools: dict[OpId, list[OpId]] = {}
    wait_depth: dict[OpId, int] = {}
    posts_by_target: dict[int, list[tuple[OpId, COp]]] = {}
    for rank, trace in enumerate(traces):
        for index, op in enumerate(trace.ops):
            if op.kind == "post":
                assert op.target is not None
                posts_by_target.setdefault(op.target, []).append(
                    ((rank, index), op))
    for rank, trace in enumerate(traces):
        depth: dict[tuple[str, object, int, int], int] = {}
        for index, op in enumerate(trace.ops):
            if op.kind != "wait":
                continue
            pattern = (op.mech, op.win, op.source, op.tag)
            depth[pattern] = depth.get(pattern, 0) + op.expected
            wid = (rank, index)
            wait_depth[wid] = depth[pattern]
            pools[wid] = [
                pid for pid, post in posts_by_target.get(rank, [])
                if matches(post, op)]

    downgraded: set[OpId] = set()
    total_waits = len(wait_depth)
    run = _compute_clocks(traces, schedule, actors, matching,
                          downgraded, wait_depth, pools)
    for _ in range(total_waits + 1):
        bad = _verify(traces, run, matching, downgraded, pools)
        if not bad:
            break
        downgraded |= bad
        run = _compute_clocks(traces, schedule, actors, matching,
                              downgraded, wait_depth, pools)
    return _sweep(program, size, run.accesses)
