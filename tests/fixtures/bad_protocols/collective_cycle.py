"""Wait-for cycle through a collective: rank 0 waits for rank 1's
notification before a ``win_allocate``; rank 1 posts only after it —
but ``win_allocate`` is collective, so neither rank gets past.

Expected diagnostic: ``deadlock.wait-cycle`` anchored at the
``ctx.na.wait`` line, ranks (0, 1), nranks=2 — and nothing else.
"""

import numpy as np


def program(ctx):
    # analyze: nranks=2
    win = yield from ctx.win_allocate(64)
    if ctx.rank == 0:
        req = yield from ctx.na.notify_init(win, source=1, tag=0)
        yield from ctx.na.start(req)
        yield from ctx.na.wait(req)  # blocks before the collective
        yield from ctx.na.request_free(req)
        extra = yield from ctx.win_allocate(64)
    else:
        extra = yield from ctx.win_allocate(64)
        yield from ctx.na.put_notify(win, np.zeros(1), 0, 0, tag=0)
    yield from extra.free()
    yield from win.free()
