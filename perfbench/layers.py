"""Per-layer tracing of the simulator from outside its source tree.

The traced run wraps the public boundaries of each layer (class methods
and module functions of ``repro``), records one span per call -- and one
span per *resumption* for generator APIs, since a blocking-style call
such as ``yield from na.wait(req)`` runs in many short slices between
engine events -- and restores every original when it is done.  Nothing
under ``src/`` changes.

Spans are kept in memory as four flat arrays (name, start, end, parent)
and reduced at the end: a layer's self time is the time of its spans
minus the time covered by the spans nested in them.  Counts are taken
inside the same wrappers, so ratios are measured where the work happens.

Sharded runs fork their workers with the wrappers in place.  A fork hook
empties the child's span store, and the worker's last act -- the
``Cluster.stats()`` call whose result it sends to the coordinator --
appends the worker's per-layer summary to that dict.  The coordinator
side (a wrapper around ``repro.sim.shard.run_sharded``) removes it from
the merged stats before the caller sees them, so intra-shard layer time
comes back without any program change.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass

import numpy as np

_clock = time.perf_counter

#: key under which a shard worker ships its summary inside Cluster.stats()
WORKER_KEY = "perfbench_trace"


# ---------------------------------------------------------------------------
# Span store and the self-time reduction
# ---------------------------------------------------------------------------
class SpanLog:
    """Spans in memory: ``name[i]``, ``start[i]``, ``end[i]``, ``parent[i]``.

    ``parent`` is the index of the span that was open when span ``i``
    opened, or -1.  Spans nest strictly (a span closes before its parent
    does), because every wrapped call or resumption returns before the
    code that made it continues.
    """

    __slots__ = ("names", "_ids", "name", "start", "end", "parent",
                 "stack")

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []

    def sid(self, name: str) -> int:
        """Interned id of a span name."""
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, sid: int) -> int:
        i = len(self.start)
        stack = self.stack
        self.name.append(sid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self.stack.pop()

    def innermost(self) -> int:
        """Name id of the innermost open span, or -1."""
        return self.name[self.stack[-1]] if self.stack else -1

    def clear(self) -> None:
        """Drop every span but keep the interned names (in place)."""
        for arr in (self.name, self.start, self.end, self.parent):
            del arr[:]
        self.stack.clear()

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> dict[str, float]:
        return self_times(self.names, self.name, self.start, self.end,
                          self.parent)

    def outer_times(self) -> dict[str, float]:
        return outer_times(self.names, self.name, self.start, self.end,
                           self.parent)


def self_times(names, name, start, end, parent) -> dict[str, float]:
    """Seconds per span name: each span's duration minus its children's."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                          dtype=np.float64)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested],
                        minlength=len(dur))
    per = np.bincount(name, weights=dur - child, minlength=len(names))
    return {n: float(per[i]) for i, n in enumerate(names)}


def outer_times(names, name, start, end, parent) -> dict[str, float]:
    """Seconds per span name, counting only spans whose parent has
    another name (so a re-entrant call is not counted twice)."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                          dtype=np.float64)
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    outer = parent_name != name
    per = np.bincount(name[outer], weights=dur[outer],
                      minlength=len(names))
    return {n: float(per[i]) for i, n in enumerate(names)}


def layer_of(span_name: str) -> str:
    """Span names are ``"<layer>:<boundary>"``."""
    return span_name.split(":", 1)[0]


# ---------------------------------------------------------------------------
# Layers, their boundaries, metrics and predictions
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Layer:
    """One layer of the simulator and what its metrics should move.

    Its per-layer metrics are those of BENCHMARK.json whose name starts
    with one of ``prefixes`` and a dot; its boundaries are the spans
    named ``"<name>:..."`` (:data:`BOUNDARIES` and the two wrappers the
    tracer installs itself).
    """

    name: str
    modules: str
    prefixes: tuple[str, ...]
    moves: str
    mostly_in: tuple[str, ...]
    little_in: tuple[str, ...]
    note: str = ""

    def owns(self, metric: str) -> bool:
        return metric.split(".", 1)[0] in self.prefixes


#: the layer -> end-to-end prediction table, written before measuring:
#: which end-to-end metric a change in each layer should move, and on
#: which workloads the layer carries most / little of the host time
LAYERS = (
    Layer("sim", "repro.sim (engine, conditions, resources)", ("sim",),
          "ops_per_cpu_s", ("stencil", "dht_sharded"), ("kv",),
          "each rank-program resumption in Engine.process is timed as "
          "apps:program"),
    Layer("sched", "repro.sim.scheduler", ("sched",),
          "ops_per_cpu_s", ("stencil", "dht_sharded"), (),
          "stencil keeps the queue small, dht_sharded large: the two "
          "sides of the scheduler choice.  Engine.run drains the queue "
          "with pops inlined, so sched.self_s is mostly push time"),
    Layer("shard", "repro.sim.shard + repro.network.shardlink", ("shard",),
          "ops_per_s", ("dht_sharded",), ("stencil", "kv", "kv_ft"),
          "run_sharded and the ShardedRun it returns; no other workload "
          "shards"),
    Layer("net", "repro.network (fabric, transports, cq)", ("net",),
          "ops_per_cpu_s", ("dht_sharded", "kv"), ()),
    Layer("core", "repro.core (NA engine, matching, counters)",
          ("na", "uq", "core"),
          "ops_per_cpu_s, kv.p99_us", ("kv", "kv_ft"), ("stencil",)),
    Layer("memory", "repro.memory (address, cache)",
          ("cache", "mem", "memory"),
          "ops_per_cpu_s", ("kv",), ("stencil",)),
    Layer("mpi", "repro.mpi", ("mpi",),
          "ops_per_cpu_s, stencil.mp_gmops", ("stencil", "dht_sharded"),
          ("kv",)),
    Layer("rma", "repro.rma", ("rma",),
          "ops_per_cpu_s", ("stencil",), ("kv",)),
    Layer("apps", "repro.apps + repro.apps.services + repro.bench.load",
          ("svc", "apps"),
          "ops_per_cpu_s", ("kv", "kv_ft"), ()),
    Layer("ft", "repro.ft + repro.faults", ("ft", "faults"),
          "ops_per_cpu_s, kv_ft.recovery_p50_us", ("kv_ft",), ("kv",),
          "kv is predicted unchanged by an ft change"),
    Layer("cluster", "repro.cluster", ("cluster",),
          "peak_rss_mb, ops_per_s", ("dht_sharded",), ("stencil",)),
)


# ---------------------------------------------------------------------------
# Observers: counts that need a call's arguments or result
# ---------------------------------------------------------------------------
def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _put_bytes(tracer, args, kwargs, result) -> None:
    tracer.count["net.puts"] += 1
    tracer.count["net.bytes"] += int(_arg(args, kwargs, 4, "data").nbytes)


def _get_bytes(tracer, args, kwargs, result) -> None:
    tracer.count["net.gets"] += 1
    tracer.count["net.bytes"] += int(_arg(args, kwargs, 4, "nbytes"))


def _amo(tracer, args, kwargs, result) -> None:
    tracer.count["net.amos"] += 1
    tracer.count["net.bytes"] += int(
        np.dtype(kwargs.get("dtype", np.int64)).itemsize)


def _sys_bytes(tracer, args, kwargs, result) -> None:
    tracer.count["net.sys_msgs"] += 1
    tracer.count["net.bytes"] += int(_arg(args, kwargs, 4, "nbytes"))


def _test(tracer, args, kwargs, result) -> None:
    tracer.count["na.tests"] += 1
    if result:
        tracer.count["na.test_hits"] += 1


def _touch(tracer, args, kwargs, result) -> None:
    """Counts touches, and the lines they access and miss (``touch``
    returns its line misses), as CacheModel.stats counts hits + misses."""
    cache = args[0]
    addr = _arg(args, kwargs, 1, "addr")
    nbytes = _arg(args, kwargs, 2, "nbytes")
    lines = ((addr + max(nbytes, 1) - 1) // cache.line
             - addr // cache.line + 1)
    tracer.count["cache.touches"] += 1
    tracer.count["cache.lines"] += lines
    tracer.count["cache.line_misses"] += result


def _cluster_built(tracer, args, kwargs, result) -> None:
    tracer.count["cluster.builds"] += 1
    tracer.built.append(args[0])


def _counter(key: str):
    def observe(tracer, args, kwargs, result) -> None:
        tracer.count[key] += 1
    return observe


#: (span name, module, attribute path, observer or None).  A class
#: boundary also covers subclasses that override the method (the sharded
#: fabric and cluster); their spans carry the base name, and a call nested
#: in a span of the same name (``super().put``) is not counted again.
BOUNDARIES = (
    ("sim:Engine.run", "repro.sim.engine", "Engine.run", None),
    ("sched:Scheduler.push", "repro.sim.scheduler", "HeapScheduler.push",
     _counter("sched.pushes")),
    ("sched:Scheduler.pop", "repro.sim.scheduler", "HeapScheduler.pop",
     None),
    ("sched:Scheduler.push", "repro.sim.scheduler",
     "CalendarScheduler.push", _counter("sched.pushes")),
    ("sched:Scheduler.pop", "repro.sim.scheduler", "CalendarScheduler.pop",
     None),
    ("net:Fabric.put", "repro.network.fabric", "Fabric.put", _put_bytes),
    ("net:Fabric.get", "repro.network.fabric", "Fabric.get", _get_bytes),
    ("net:Fabric.amo", "repro.network.fabric", "Fabric.amo", _amo),
    ("net:Fabric.send_sys", "repro.network.fabric", "Fabric.send_sys",
     _sys_bytes),
    ("core:NotifyEngine.put_notify", "repro.core.engine",
     "NotifyEngine.put_notify", _counter("na.ops")),
    ("core:NotifyEngine.start", "repro.core.engine", "NotifyEngine.start",
     None),
    ("core:NotifyEngine.test", "repro.core.engine", "NotifyEngine.test",
     _test),
    ("core:NotifyEngine.testany", "repro.core.engine",
     "NotifyEngine.testany", None),
    ("core:NotifyEngine.wait", "repro.core.engine", "NotifyEngine.wait",
     None),
    ("core:UnexpectedQueue.append", "repro.core.matching",
     "UnexpectedQueue.append", _counter("uq.appends")),
    ("core:UnexpectedQueue.find_and_remove", "repro.core.matching",
     "UnexpectedQueue.find_and_remove", None),
    ("memory:CacheModel.touch", "repro.memory.cache", "CacheModel.touch",
     _touch),
    ("memory:AddressSpace.alloc", "repro.memory.address",
     "AddressSpace.alloc", _counter("mem.allocs")),
    ("mpi:MpiEndpoint.isend", "repro.mpi.endpoint", "MpiEndpoint.isend",
     _counter("mpi.isends")),
    ("mpi:MpiEndpoint.irecv", "repro.mpi.endpoint", "MpiEndpoint.irecv",
     None),
    ("mpi:MpiEndpoint.wait", "repro.mpi.endpoint", "MpiEndpoint.wait",
     None),
    ("mpi:MpiEndpoint.progress", "repro.mpi.endpoint",
     "MpiEndpoint.progress", None),
    ("mpi:barrier", "repro.mpi.collectives", "barrier",
     _counter("mpi.barriers")),
    ("rma:Window.put", "repro.rma.window", "Window.put",
     _counter("rma.puts")),
    ("rma:Window.get", "repro.rma.window", "Window.get", None),
    ("rma:Window.fence", "repro.rma.window", "Window.fence",
     _counter("rma.epochs")),
    ("rma:Window.post", "repro.rma.window", "Window.post",
     _counter("rma.epochs")),
    ("rma:Window.start", "repro.rma.window", "Window.start",
     _counter("rma.epochs")),
    ("rma:Window.complete", "repro.rma.window", "Window.complete", None),
    ("rma:Window.wait", "repro.rma.window", "Window.wait", None),
    ("rma:Window.flush", "repro.rma.window", "Window.flush",
     _counter("rma.flushes")),
    ("rma:Window.flush_local", "repro.rma.window", "Window.flush_local",
     _counter("rma.flushes")),
    # the *_all forms loop over flush / flush_local, which count
    ("rma:Window.flush_all", "repro.rma.window", "Window.flush_all", None),
    ("rma:Window.flush_local_all", "repro.rma.window",
     "Window.flush_local_all", None),
    ("apps:run_kv", "repro.apps.services.kv", "run_kv", None),
    ("apps:run_kv_ft", "repro.apps.services.kv_ft", "run_kv_ft", None),
    ("apps:run_dht", "repro.apps.dht", "run_dht", None),
    ("apps:run_stencil", "repro.apps.stencil", "run_stencil", None),
    ("ft:ReplicatedWindow.put", "repro.ft.replicate", "ReplicatedWindow.put",
     _counter("ft.replica_puts")),
    ("ft:ReplicatedWindow.put_notify", "repro.ft.replicate",
     "ReplicatedWindow.put_notify", _counter("ft.replica_puts")),
    ("ft:ReplicatedWindow.wait_acks", "repro.ft.replicate",
     "ReplicatedWindow.wait_acks", None),
    ("ft:checkpoint", "repro.ft.checkpoint", "checkpoint", None),
    ("ft:restore", "repro.ft.checkpoint", "restore", None),
    ("cluster:Cluster.__init__", "repro.cluster", "Cluster.__init__",
     _cluster_built),
)

#: span name of one rank-program resumption (wrapped in Engine.process)
PROGRAM_SPAN = "apps:program"
#: span name of a sharded run as the coordinator sees it
SHARDED_SPAN = "shard:run_sharded"


# ---------------------------------------------------------------------------
# The tracer: installs wrappers, keeps spans and counts, restores
# ---------------------------------------------------------------------------
class Tracer:
    """Wraps the layer boundaries while installed; see the module doc."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.count: Counter[str] = Counter()
        #: clusters built (serial) or sharded runs returned since the
        #: last harvest(), for their stats() counters
        self.built: list = []
        #: (ShardedRun, coordinator wall seconds) per sharded run
        self.sharded: list = []
        #: summaries shipped back by shard workers
        self.worker_parts: list[dict] = []
        self.in_worker = False
        self._installed = False
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, fn, sid: int, observe):
        log = self.log
        open_, close, innermost = log.open, log.close, log.innermost

        if inspect.isgeneratorfunction(fn):
            drive = self._drive

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                outer = innermost() != sid
                gen = drive(fn(*args, **kwargs), sid)
                if observe is None or not outer:
                    return gen
                return _observed(gen, observe, self, args, kwargs)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = innermost() != sid
            i = open_(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if observe is not None and outer:
                observe(self, args, kwargs, result)
            return result
        return wrapper

    def _drive(self, gen, sid: int):
        """Re-yield ``gen``'s events, timing each resumption as a span."""
        open_, close = self.log.open, self.log.close
        value = None
        exc: BaseException | None = None
        while True:
            i = open_(sid)
            try:
                event = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                close(i)
            exc = None
            try:
                value = yield event
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as thrown:
                exc, value = thrown, None

    # -- install / restore ----------------------------------------------
    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_method(self, cls, attr: str, sid: int, observe) -> None:
        todo = [cls]
        while todo:
            c = todo.pop()
            todo.extend(c.__subclasses__())
            if attr in c.__dict__:
                self._set(c, attr, self._wrap(c.__dict__[attr], sid,
                                              observe))

    def _patch_function(self, fn, wrapper) -> None:
        """Rebind ``fn`` in every loaded module that holds it by name
        (the benchmark's own workloads module among them)."""
        for mod in list(sys.modules.values()):
            for attr, val in list(getattr(mod, "__dict__", {}).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def install(self) -> None:
        import importlib

        import repro.cluster
        import repro.sim.engine
        import repro.sim.shard
        # load every module first, so a function is rebound in every
        # module that imported it by name
        mods = {m: importlib.import_module(m) for _, m, _, _ in BOUNDARIES}
        for span, modname, path, observe in BOUNDARIES:
            mod = mods[modname]
            sid = self.log.sid(span)
            if "." in path:
                cls_name, attr = path.split(".")
                self._patch_method(getattr(mod, cls_name), attr, sid,
                                   observe)
            else:
                fn = getattr(mod, path)
                self._patch_function(fn, self._wrap(fn, sid, observe))
        self._install_process(repro.sim.engine.Engine)
        self._install_sharded(repro.sim.shard)
        self._install_stats(repro.cluster.Cluster)
        self._installed = True
        os.register_at_fork(after_in_child=self._after_fork_child)

    def _install_process(self, engine_cls) -> None:
        orig = engine_cls.__dict__["process"]
        sid = self.log.sid(PROGRAM_SPAN)
        drive = self._drive

        @functools.wraps(orig)
        def process(engine, gen, name=""):
            return orig(engine, drive(gen, sid), name=name)
        self._set(engine_cls, "process", process)

    def _install_sharded(self, shard_mod) -> None:
        orig = shard_mod.run_sharded
        sid = self.log.sid(SHARDED_SPAN)
        log = self.log

        @functools.wraps(orig)
        def run_sharded(*args, **kwargs):
            t0 = _clock()
            i = log.open(sid)
            try:
                results, run = orig(*args, **kwargs)
            finally:
                log.close(i)
            parts = run.stats().pop(WORKER_KEY, {})
            self.worker_parts.extend(parts[k] for k in sorted(parts))
            self.sharded.append((run, _clock() - t0))
            self.built.append(run)
            return results, run
        self._patch_function(orig, run_sharded)

    def _install_stats(self, cluster_cls) -> None:
        orig = cluster_cls.__dict__["stats"]

        @functools.wraps(orig)
        def stats(cluster):
            out = orig(cluster)
            if self.in_worker:
                out[WORKER_KEY] = {os.getpid(): self.summary()}
            return out
        self._set(cluster_cls, "stats", stats)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self._installed = False

    def _after_fork_child(self) -> None:
        if self._installed:
            self.log.clear()
            self.count.clear()
            self.built.clear()
            self.sharded.clear()
            self.worker_parts.clear()
            self.in_worker = True

    # -- results --------------------------------------------------------
    def harvest(self) -> list[dict]:
        """stats() of every cluster or sharded run since the last call."""
        out = [c.stats() for c in self.built]
        self.built.clear()
        return out

    def summary(self) -> dict:
        """Self seconds per span name, outer seconds, counts, span count."""
        return {"self": self.log.self_times(),
                "outer": self.log.outer_times(),
                "count": dict(self.count),
                "spans": len(self.log)}


def _observed(gen, observe, tracer, args, kwargs):
    result = yield from gen
    observe(tracer, args, kwargs, result)
    return result


# ---------------------------------------------------------------------------
# Reduction to the per-layer metrics
# ---------------------------------------------------------------------------
def _merged(tracer: Tracer) -> tuple[Counter, Counter, Counter]:
    """(self seconds per layer, outer seconds per span name, counts),
    added up over the coordinator and the shard workers."""
    self_s: Counter[str] = Counter()
    outer: Counter[str] = Counter()
    count: Counter[str] = Counter()
    for part in [tracer.summary()] + tracer.worker_parts:
        for name, sec in part["self"].items():
            self_s[layer_of(name)] += sec
        outer.update(part["outer"])
        count.update(part["count"])
    return self_s, outer, count


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    return dict(_merged(tracer)[0])


def boundaries(tracer: Tracer, layer: str) -> list[str]:
    """The boundaries the tracer wraps for ``layer``, by span name."""
    return [n.split(":", 1)[1] for n in tracer.log.names
            if layer_of(n) == layer]


def layer_metrics(tracer: Tracer, events: int, results: list[dict],
                  stats: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced body but trace.overhead.

    ``events`` is the body's scheduled-event count, ``results`` the
    completed points' return values and ``stats`` the ``stats()`` of
    every cluster or sharded run the body built.
    """
    self_s, outer, count = _merged(tracer)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {
        "sim.events": events,
        "sim.self_s": self_s["sim"],
        "sim.ns_per_event": ratio(self_s["sim"] * 1e9, events),
        "sched.pushes": count["sched.pushes"],
        "sched.self_s": self_s["sched"],
        "shard.windows": sum(r.windows for r, _ in tracer.sharded),
        "shard.exchanges": sum(r.exchanges for r, _ in tracer.sharded),
        "shard.critical_path_s": sum(r.critical_path_s
                                     for r, _ in tracer.sharded),
    }
    for i in (0, 1):
        m[f"shard.compute_s.{i}"] = sum(
            r.cpu_s[i] for r, _ in tracer.sharded if len(r.cpu_s) > i)
        m[f"shard.wait_s.{i}"] = sum(
            wall - r.cpu_s[i] for r, wall in tracer.sharded
            if len(r.cpu_s) > i)
    for key in ("net.puts", "net.gets", "net.amos", "net.sys_msgs",
                "net.bytes", "na.ops", "na.tests", "uq.appends",
                "cache.touches", "mem.allocs", "mpi.isends", "mpi.barriers",
                "rma.epochs", "rma.puts", "rma.flushes", "ft.replica_puts",
                "cluster.builds"):
        m[key] = count[key]
    for layer in ("net", "core", "memory", "mpi", "rma", "apps", "ft"):
        m[f"{layer}.self_s"] = self_s[layer]
    m["na.test_hit_ratio"] = ratio(count["na.test_hits"], count["na.tests"])
    m["cache.miss_ratio"] = ratio(count["cache.line_misses"],
                                  count["cache.lines"])
    m["mpi.eager_copies"] = sum(s.get("eager_copies", 0) for s in stats)
    m["mpi.rndv_sends"] = sum(s.get("rndv_sends", 0) for s in stats)
    m["faults.lost_ops"] = sum(s.get("faults", {}).get("lost_ops", 0)
                               for s in stats)
    m["svc.requests"] = sum(r.get("requests", 0) for r in results)
    m["svc.measured"] = sum(len(r.get("lat_put_us", ()))
                            + len(r.get("lat_get_us", ())) for r in results)
    m["ft.failovers"] = sum(r.get("failovers", 0) for r in results)
    m["ft.ckpt_epochs"] = sum(r.get("ckpt_epochs", 0) for r in results)
    m["cluster.build_s"] = outer["cluster:Cluster.__init__"]
    return m
