"""Maximal-progress replay of concrete rank traces.

The one abstract scheduler both the deadlock and the race checker
consume: posts and sends complete eagerly (they never block in the
simulator); blocking waits (``expected`` notifications) and recvs
consume matching deliveries in arrival order, the engine's own
matching order; and barriers plus the collective ``win_allocate`` /
``win_free`` are rendezvous that release once every unfinished rank
has reached one.  The replay runs until no rank can advance and hands
back the final rank states (the stuck ones are the deadlock checker's
input), the global linearization it took, and the post→wait matching
(the race checker's happens-before skeleton).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.instantiate import COp, Trace
from repro.mpi.constants import ANY_SOURCE, ANY_TAG

#: ops every rank must reach before any of them proceeds
RENDEZVOUS = frozenset({"barrier", "walloc", "wfree"})

OpId = tuple[int, int]          # (rank, index into trace.ops)
#: replay linearization: ("op", op id) | ("sync", rendezvous group)
Schedule = list[tuple[str, "OpId | list[OpId]"]]


def matches(post: COp, wait: COp) -> bool:
    """Whether the delivered post/send ``post`` satisfies the
    wait/recv pattern ``wait`` (``<source, tag>`` with wildcards)."""
    return (post.mech == wait.mech and post.win == wait.win
            and wait.source in (ANY_SOURCE, post.source)
            and wait.tag in (ANY_TAG, post.tag))


@dataclass
class RankState:
    trace: Trace
    index: int = 0
    #: delivered posts/sends not yet consumed, in arrival order
    inbox: list[OpId] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.index >= len(self.trace.ops)

    @property
    def current(self) -> COp | None:
        if self.finished:
            return None
        return self.trace.ops[self.index]


@dataclass
class Replay:
    states: list[RankState]
    schedule: Schedule
    #: wait/recv op id -> the post/send op ids it consumed
    matching: dict[OpId, list[OpId]]

    @property
    def stuck(self) -> bool:
        return any(not s.finished for s in self.states)


def replay(traces: list[Trace]) -> Replay:
    states = [RankState(trace=t) for t in traces]
    schedule: Schedule = []
    matching: dict[OpId, list[OpId]] = {}
    while True:
        progressed = False
        for rank, state in enumerate(states):
            while not state.finished:
                op = state.trace.ops[state.index]
                if op.kind in ("post", "send"):
                    assert op.target is not None
                    states[op.target].inbox.append((rank, state.index))
                elif op.kind in ("wait", "recv"):
                    hits = [i for i, (r, k) in enumerate(state.inbox)
                            if matches(traces[r].ops[k], op)]
                    if len(hits) < op.expected:
                        break
                    taken = hits[:op.expected]
                    matching[(rank, state.index)] = [
                        state.inbox[i] for i in taken]
                    for i in reversed(taken):
                        del state.inbox[i]
                elif op.kind in RENDEZVOUS:
                    break
                schedule.append(("op", (rank, state.index)))
                state.index += 1
                progressed = True
        waiting = [(rank, s) for rank, s in enumerate(states)
                   if not s.finished]
        if waiting and all(s.trace.ops[s.index].kind in RENDEZVOUS
                           for _rank, s in waiting):
            schedule.append(("sync", [(rank, s.index)
                                      for rank, s in waiting]))
            for _rank, s in waiting:
                s.index += 1
            progressed = True
        if not progressed:
            return Replay(states, schedule, matching)
