"""Static deadlock detection over the symbolic wait-for graph.

The concrete rank traces go through the shared maximal-progress replay
(:mod:`repro.analysis.replay`): posts and sends complete eagerly,
waits and recvs consume in arrival order, and barriers plus the
collective ``win_allocate``/``win_free`` are rendezvous.  When the
replay reaches a state where no rank can advance, the blocked ranks'
wait-for edges are examined; a cycle is a definite deadlock and is
reported with the full blocking chain.  Rank starvation *without* a
cycle (a wait whose remaining supply falls short of its count) is left
to the budget checker, so each defect gets exactly one diagnostic.
"""

from __future__ import annotations

from repro.analysis.instantiate import COp
from repro.analysis.ir import Program
from repro.analysis.replay import RENDEZVOUS, RankState, matches, replay
from repro.analysis.report import Finding
from repro.mpi.constants import ANY_SOURCE, ANY_TAG


def _has_supply(states: list[RankState], rank: int) -> bool:
    """Whether what is still undelivered or in flight could ever
    satisfy the op ``rank`` is blocked on.

    A wait whose remaining compatible supply falls short of its count
    is *starvation* — that is the budget checker's finding, and
    counting it into a cycle would double-report the same defect as a
    deadlock.
    """
    op = states[rank].current
    if op is None:
        return False
    if op.kind in RENDEZVOUS:
        return True
    supply = [states[r].trace.ops[k] for r, k in states[rank].inbox]
    for state in states:
        supply.extend(other for other in state.trace.ops[state.index:]
                      if other.kind in ("post", "send")
                      and other.target == rank)
    return sum(1 for other in supply if matches(other, op)) >= \
        op.expected


def _wait_edges(states: list[RankState], rank: int) -> list[int]:
    """Ranks that could still unblock ``rank``."""
    op = states[rank].current
    if op is None:
        return []
    blocked = {i for i, s in enumerate(states) if not s.finished}
    if op.kind in RENDEZVOUS:
        return [i for i in blocked
                if i != rank and states[i].trace.ops[
                    states[i].index].kind not in RENDEZVOUS]
    if op.kind in ("wait", "recv"):
        if op.source == ANY_SOURCE:
            return [i for i in blocked if i != rank]
        return [op.source] if op.source in blocked and \
            op.source != rank else []
    return []                                # pragma: no cover - defensive


def _find_cycle(edges: dict[int, list[int]]) -> list[int] | None:
    color: dict[int, int] = {}
    stack: list[int] = []

    def dfs(node: int) -> list[int] | None:
        color[node] = 1
        stack.append(node)
        for peer in edges.get(node, []):
            if color.get(peer, 0) == 1:
                return stack[stack.index(peer):]
            if color.get(peer, 0) == 0:
                cycle = dfs(peer)
                if cycle is not None:
                    return cycle
        color[node] = 2
        stack.pop()
        return None

    for node in edges:
        if color.get(node, 0) == 0:
            cycle = dfs(node)
            if cycle is not None:
                return cycle
    return None


def check_deadlock(program: Program, size: int,
                   traces: list[Trace]) -> list[Finding]:
    if any(not t.exact for t in traces) or \
            any(t.has_poll for t in traces) or \
            any(t.has_pscw for t in traces):
        return []
    states = replay(traces).states
    blocked = [i for i, s in enumerate(states)
               if not s.finished and _has_supply(states, i)]
    if not blocked:
        return []
    edges = {rank: [peer for peer in _wait_edges(states, rank)
                    if peer in blocked] for rank in blocked}
    cycle = _find_cycle(edges)
    if cycle is None:
        return []                 # pure starvation: budget's domain
    chain_parts = []
    for rank in cycle:
        op = states[rank].current
        assert op is not None
        chain_parts.append(f"rank {rank} blocked at line {op.line} "
                           f"({_describe(op)})")
    chain = " -> ".join(chain_parts) + f" -> rank {cycle[0]}"
    first = states[cycle[0]].current
    assert first is not None
    return [Finding(
        check="deadlock.wait-cycle", path=program.path,
        line=first.line, program=program.qualname,
        message=f"wait-for cycle: {chain}",
        ranks=tuple(sorted(cycle)), size=size)]


def _describe(op: COp) -> str:
    if op.kind in RENDEZVOUS:
        return _COLLECTIVE_NAME[op.kind]
    src = "ANY_SOURCE" if op.source == ANY_SOURCE else str(op.source)
    tag = "ANY_TAG" if op.tag == ANY_TAG else str(op.tag)
    verb = "recv" if op.kind == "recv" else f"{op.mech} wait"
    return f"{verb} source={src} tag={tag}"


_COLLECTIVE_NAME = {"barrier": "barrier", "walloc": "win_allocate",
                    "wfree": "win_free"}
