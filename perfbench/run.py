"""Benchmark command: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload kv --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

Workloads: stencil, dht_sharded, kv, kv_ft (see workloads.py); ``all``
runs each of them in a fresh process.  The default seed is 42; seed
9001 is held out, for checking a claimed gain on inputs the change was
not tuned on.  The stencil has no random input and ignores the seed;
kv_ft always uses seed 42 (workloads.KVFT_SEED), where its known crash
shows, so that its failed ops are the same on every run.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time of fresh processes (start, imports, point list), one untimed
warm-up, then at least three whole workload bodies, more while they fit
in ``--seconds``.  A point's host time is its median over the bodies,
normalised to the reference host speed by the speed probe
(hostspeed.py); the raw figures are printed beside.  ``--trace 1``
runs untraced bodies for half of ``--seconds``, then one body with
every layer boundary wrapped (layers.py), and reports the per-layer
metrics and the tracing overhead.  Both check the simulated outputs and
print a model digest per body.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` and ``failed``
are the ops of one body, which every body repeats (same digest), so
they do not depend on how many bodies fit in ``--seconds``.  A wrong
output, or a digest that differs between bodies or between the traced
and untraced runs, exits nonzero without it.  Run the benchmark's own
tests with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 42
#: fresh processes timed for setup_s (after one untimed one)
SETUP_PROBES = 5
#: model outputs printed by name; each is measured by one workload
MODEL_METRICS = {
    "stencil.na_gmops": "stencil", "stencil.mp_gmops": "stencil",
    "kv.p50_us": "kv", "kv.p99_us": "kv", "kv.max_rate_rps": "kv",
    "kv_ft.p99_us": "kv_ft", "kv_ft.recovery_p50_us": "kv_ft",
    "dht.minserts_per_s": "dht_sharded",
}


def units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer``
    metrics, in the order listed; these are the metrics reported."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_sources() -> None:
    """Put the checkout's simulator sources first on the import path."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: simulator sources not found under {src}")
    sys.path.insert(0, str(src))
    # numpy advises huge pages for large arrays; whether the first touch
    # of a rank's address space then faults in 4 KiB or 2 MiB depends on
    # where the kernel placed the array, which makes peak RSS jump by
    # 2 MiB per rank from one process to the next
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


@dataclass
class Body:
    """One run of every point of a workload."""

    outcomes: list
    events: int
    digest: str

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def attempted(self) -> int:
        return sum(o.ops for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed_ops for o in self.outcomes)


@dataclass
class Runs:
    """Repeated bodies: the first in full, then the timings per point."""

    first: Body
    timings: list[list[tuple[float, float, float]]]  # (wall, cpu, slowdown)

    def __len__(self) -> int:
        return len(self.timings)

    def median(self, j: int, k: int, normalised: bool) -> float:
        """Median over bodies of point ``j``'s wall (k=0) or CPU (k=1)."""
        return statistics.median(
            b[j][k] / b[j][2] if normalised else b[j][k]
            for b in self.timings)


def run_body(wl, points, probe=None, after_point=None) -> Body:
    from repro.sim.engine import events_scheduled

    from workloads import model_digest, run_point
    ev0 = events_scheduled()
    outcomes = []
    for p in points:
        # start every point from a clean heap: the previous point's
        # cyclic garbage would otherwise be collected at a random point
        # of this one, moving its time and this process's peak RSS
        gc.collect()
        outcomes.append(run_point(p, probe))
        if after_point is not None:
            after_point()
    events = events_scheduled() - ev0
    wl.check(outcomes)
    return Body(outcomes, events, model_digest(outcomes, events))


def run_bodies(wl, points, seconds: float, at_least: int) -> Runs:
    """Probed bodies: ``at_least``, then more while the next one is
    expected to end within ``seconds`` of the first one's start.

    Every body is checked and must reproduce the first body's model
    digest; only the first keeps its results, so that the results of
    later bodies do not pile up in this process's peak RSS.
    """
    from hostspeed import SpeedProbe
    from workloads import WrongOutput
    probe = SpeedProbe()
    first = None
    timings = []
    t0 = time.perf_counter()
    while True:
        body = run_body(wl, points, probe)
        first = first or body
        if body.digest != first.digest:
            raise WrongOutput(f"model digest changed between bodies: "
                              f"{first.digest} != {body.digest}")
        timings.append([(o.wall_s, o.cpu_s, o.slowdown)
                        for o in body.outcomes])
        elapsed = time.perf_counter() - t0
        if (len(timings) >= at_least
                and elapsed * (len(timings) + 1) / len(timings) > seconds):
            return Runs(first, timings)


def throughput(runs: Runs, normalised: bool = True
               ) -> tuple[float, float, int]:
    """(ops/s, ops/CPU-s, completed ops per body) over completed points.

    A point's host time is its median over the bodies.  Points that
    crashed are left out of both the ops and the time: their failure
    shows in ``failed``, and a later fix that lets them complete at the
    same per-op cost leaves these figures unchanged.
    """
    first = runs.first.outcomes
    done = [j for j, o in enumerate(first) if o.result is not None]
    ops = sum(first[j].ops - first[j].failed_ops for j in done)
    wall = sum(runs.median(j, 0, normalised) for j in done)
    cpu = sum(runs.median(j, 1, normalised) for j in done)
    return (ops / wall if wall else 0.0, ops / cpu if cpu else 0.0, ops)


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Normalised and raw wall seconds of fresh processes that start,
    import the simulator and build the workload's point list, then exit
    (one untimed first).  Each reports its own speed probe on stdout.

    The points' random inputs (KV arrival plans, DHT jitter) are drawn
    by the simulator inside each run call, so their generation is timed
    with the point, in ``ops_per_s``, not here.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    norm, raw = [], []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, capture_output=True,
                             text=True).stdout
        wall = time.perf_counter() - t0
        own_s, slowdown = json.loads(out)
        if i:
            raw.append(wall)
            norm.append((wall - own_s) / slowdown)
    return norm, raw


def setup_only(workload: str, seed: int) -> None:
    from hostspeed import SpeedProbe
    with SpeedProbe() as probe:
        load_sources()
        import workloads
        workloads.WORKLOADS[workload].points(seed)
    print(json.dumps([probe.own_s, probe.slowdown]))


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_header(wl, args, runs: Runs, timed_s: float) -> None:
    b = runs.first
    slow = statistics.median(t[2] for body in runs.timings for t in body)
    print(f"perfbench {wl.name}: seed {wl.seed_note(args.seed)}, "
          f"{len(runs)} bodies in {timed_s:.1f} s, host slowdown "
          f"{slow:.3f}, model digest {b.digest}, sim.events {b.events}")
    for j, o in enumerate(b.outcomes):
        state = "ok" if o.error is None else f"FAILED ({o.error})"
        print(f"  point {o.label:<16} {o.ops:>7} ops  "
              f"{runs.median(j, 0, True):8.3f} s  {state}")


def report_untraced(wl, args, setup: tuple[list[float], list[float]]
                    ) -> dict:
    points = wl.points(args.seed)
    t0 = time.perf_counter()
    runs = run_bodies(wl, points, args.seconds, at_least=3)
    timed_s = time.perf_counter() - t0
    ops_s, ops_cpu, done = throughput(runs)
    raw_s, raw_cpu, _ = throughput(runs, normalised=False)
    attempted, failed = runs.first.attempted, runs.first.failed
    setup_norm, setup_raw = setup
    values = {
        "ops_per_s": ops_s, "ops_per_cpu_s": ops_cpu,
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mb": peak_rss_mb()}
    notes = {
        "ops_per_s": f"wall, median per point over {len(runs)} bodies, "
                     f"{done} ops completed per body; raw {raw_s:.6g}",
        "ops_per_cpu_s": "CPU of this process and its reaped children; "
                         f"raw {raw_cpu:.6g}",
        "setup_s": f"median of {len(setup_norm)} fresh processes (start, "
                   "imports, point list); raw "
                   f"{statistics.median(setup_raw):.6g}",
        "peak_rss_mb": "max resident set of this process and children"}
    print_header(wl, args, runs, timed_s)
    print("end-to-end (tracing off; times normalised to the reference "
          "host speed)")
    metrics = units("end_to_end")
    for name, unit in metrics.items():
        print(f"  {name:<22} {_fmt(values[name]):>12} {unit:<6} "
              f"{notes[name]}")
    print(f"  {'error_rate':<22} {_fmt(failed / attempted):>12} "
          f"{'ratio':<6} {failed} failed / {attempted} attempted ops per "
          "body (JSON: failed / attempted)")
    print("model outputs (virtual time; the model is checked only "
          "against the Table I LogGP fit)")
    model = {m.name: m for m in wl.model(runs.first.outcomes, args.seed)}
    for name, owner in MODEL_METRICS.items():
        m = model.get(name)
        if m is None:
            print(f"  {name:<22} {'n/a':>12} {'':<6} measured by the "
                  f"{owner} workload")
        else:
            print(f"  {name:<22} {_fmt(m.value):>12} {m.unit:<6} "
                  f"{m.note}")
    return {"correct": True, "attempted": attempted, "failed": failed,
            "metrics": {k: _metric(values[k], u)
                        for k, u in metrics.items()}}


def report_traced(wl, args) -> dict:
    import layers
    from workloads import WrongOutput
    points = wl.points(args.seed)
    t0 = time.perf_counter()
    runs = run_bodies(wl, points, args.seconds / 2, at_least=1)
    timed_s = time.perf_counter() - t0
    untraced_cpu = statistics.median(sum(t[1] for t in body)
                                     for body in runs.timings)

    # the traced body runs without the speed probe, whose ticks would
    # land in whatever span is open; its times are raw
    tracer = layers.Tracer()
    stats: list[dict] = []
    tracer.install()
    try:
        traced = run_body(wl, points,
                          after_point=lambda: stats.extend(tracer.harvest()))
    finally:
        tracer.uninstall()
    if traced.digest != runs.first.digest:
        raise WrongOutput(f"tracing changed the model: digest "
                          f"{traced.digest} != {runs.first.digest}")
    results = [o.result for o in traced.outcomes if o.result is not None]
    m = layers.layer_metrics(tracer, traced.events, results, stats)
    m["trace.overhead"] = traced.cpu_s / untraced_cpu

    print_header(wl, args, runs, timed_s)
    spans = len(tracer.log) + sum(p["spans"] for p in tracer.worker_parts)
    print(f"traced body: digest {traced.digest} (matches untraced), "
          f"{spans} spans, CPU {traced.cpu_s:.3f} s vs untraced median "
          f"{untraced_cpu:.3f} s (raw)")
    by_layer = layers.self_time_by_layer(tracer)
    total = sum(by_layer.values())
    print("self time by layer (span minus nested spans; shard workers "
          "added; shard is the coordinator's wall time, waiting included)")
    for layer, sec in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<10} {sec:10.4f} s  {100 * sec / total:5.1f}%")
    print("per-layer metrics (traced)")
    metrics = units("per_layer")
    for layer in layers.LAYERS:
        role = ("  <- mostly here" if wl.name in layer.mostly_in else
                "  <- little here" if wl.name in layer.little_in else "")
        wraps = ", ".join(layers.boundaries(tracer, layer.name))
        print(f"  [{layer.name}] {layer.modules}; wraps {wraps}")
        print(f"    should move {layer.moves}; mostly in "
              f"{', '.join(layer.mostly_in)}; little in "
              f"{', '.join(layer.little_in) or '-'}{role}")
        if layer.note:
            print(f"    ({layer.note})")
        for name, unit in metrics.items():
            if layer.owns(name):
                print(f"    {name:<24} {_fmt(m[name]):>14} {unit}")
    print(f"  trace.overhead {_fmt(m['trace.overhead'])} "
          "(traced / untraced body CPU)")
    if not tracer.sharded:
        print("  shard.* are 0: this workload makes no sharded run")
    elif not tracer.worker_parts:
        print("  shard workers sent no layer summary: intra-shard layer "
              "time is missing")
    return {"correct": True, "attempted": traced.attempted,
            "failed": traced.failed,
            "metrics": {k: _metric(m[k], u) for k, u in metrics.items()}}


def run_all(args) -> int:
    """Each workload in a fresh process; nonzero if any fails."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd).returncode
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args.workload, args.seed)
        return 0
    load_sources()
    import workloads
    if args.workload == "all":
        return run_all(args)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(workloads.WORKLOADS)} or all")
    try:
        setup = measure_setup(args) if args.trace == 0 else None
        gc.collect()    # as before every timed point (see run_body)
        try:
            wl.warmup(args.seed)
        except Exception as exc:
            if workloads.is_wrong_output(exc):
                raise workloads.WrongOutput(f"warm-up: {exc!r}") from exc
            raise
        out = (report_untraced(wl, args, setup) if args.trace == 0
               else report_traced(wl, args))
        wl.untimed_checks()
    except workloads.WrongOutput as exc:
        print(f"perfbench {wl.name}: WRONG OUTPUT: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
