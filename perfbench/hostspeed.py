"""Host-speed sampling, to take the host's speed drift out of timings.

On a shared machine the speed of one core swings by up to ~1.7x within
seconds and stays in one mode for minutes, as neighbours come and go.
Timings of the same run then differ more between runs than any change
worth gating.  While a point runs, :class:`SpeedProbe` interrupts it
every few milliseconds (``SIGALRM``) and times a fixed pure-Python
snippet by thread CPU time, so the samples see the same host modes as
the point.  A point's *normalised* time is its time minus the probe's
own, divided by the mean snippet time and multiplied by the snippet's
nominal time: the time the point would take on a host where the
snippet takes exactly :data:`NOMINAL_S`.

The snippet uses no simulator code, so a faster simulator still shows
as a faster normalised time.
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

#: seconds of wall time between probes
INTERVAL_S = 0.005
#: the snippet's CPU time on the reference host (a quiet core of the
#: 2-vCPU Xeon virtual machine this benchmark was tuned on)
NOMINAL_S = 172e-6


class _Ev:
    __slots__ = ("t", "v")

    def __init__(self, t, v):
        self.t = t
        self.v = v


def _consumer():
    acc = 0.0
    while True:
        ev = yield acc
        acc += ev.v * 0.5


def snippet() -> int:
    """Fixed work resembling the simulator's: a heap, a dict, a
    generator, attribute access and small-object churn.  It leaves no
    cyclic garbage, so it does not add to the collector's work."""
    heap: list = []
    seen: dict = {}
    gen = _consumer()
    next(gen)
    for i in range(120):
        heapq.heappush(heap, (i * 7919 % 997, i, _Ev(i * 0.25, i)))
        seen[i & 63] = seen.get(i & 63, 0) + 1
        if len(heap) > 24:
            gen.send(heapq.heappop(heap)[2])
    return len(seen)


class SpeedProbe:
    """Context manager sampling host speed while its block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        # no collection inside the tick: it would scan the interrupted
        # point's objects and charge their cost to the probe, which is
        # subtracted and divided out
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        snippet()
        self.samples.append(time.thread_time() - t0)
        if was_enabled:
            gc.enable()

    def __enter__(self) -> SpeedProbe:
        self.samples.clear()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    @property
    def own_s(self) -> float:
        """Time the probe itself took (to subtract from the block's)."""
        return sum(self.samples)

    @property
    def slowdown(self) -> float:
        """Mean snippet time over its nominal time (1.0 = reference)."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / NOMINAL_S
