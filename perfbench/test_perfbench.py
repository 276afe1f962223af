"""Tests of the benchmark's own logic: python3 -m pytest perfbench"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.errors import ReproError, SimulationError  # noqa: E402


# -- self time --------------------------------------------------------------
def test_self_time_is_span_minus_nested_spans():
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- c [2, 3]
    #   +- d [5, 9]
    #      +- d [6, 7.5]   (re-entrant: same name as its parent)
    names = ["a", "b", "c", "d"]
    name = [0, 1, 2, 3, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.5]
    parent = [-1, 0, 1, 0, 3]
    own = layers.self_times(names, name, start, end, parent)
    assert own == pytest.approx({"a": 3.0, "b": 2.0, "c": 1.0, "d": 4.0})
    assert sum(own.values()) == pytest.approx(10.0)
    outer = layers.outer_times(names, name, start, end, parent)
    assert outer == pytest.approx({"a": 10.0, "b": 3.0, "c": 1.0,
                                   "d": 4.0})


def test_traced_generator_times_each_resumption(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(layers, "_clock", lambda: float(next(ticks)))
    tracer = layers.Tracer()
    sid = tracer.log.sid("core:gen")

    def gen(n):
        total = 0
        for _ in range(n):
            total += yield "event"
        return total

    wrapped = tracer._wrap(gen, sid, None)
    g = wrapped(3)
    assert next(g) == "event"
    assert g.send(1) == "event"
    assert g.send(2) == "event"
    with pytest.raises(StopIteration) as stop:
        g.send(4)
    assert stop.value.value == 7
    assert len(tracer.log) == 4         # one span per resumption
    assert not tracer.log.stack

    g = wrapped(2)
    next(g)
    with pytest.raises(KeyError):       # a throw reaches the inner gen
        g.throw(KeyError("x"))
    assert not tracer.log.stack


def test_install_restores_every_boundary():
    from repro.network.fabric import Fabric
    from repro.sim.engine import Engine
    before = (Fabric.put, Engine.process, workloads.run_kv)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert Fabric.put is not before[0]
        # a function imported by name is wrapped where it was imported
        assert workloads.run_kv is not before[2]
    finally:
        tracer.uninstall()
    assert (Fabric.put, Engine.process, workloads.run_kv) == before


def test_cache_miss_ratio_counts_lines():
    from repro.memory.cache import CacheModel
    tracer = layers.Tracer()
    tracer.install()
    try:
        cache = CacheModel()
        cache.touch(0, 256)              # 4 lines, all miss
        cache.touch(64, 128, space=0)    # 2 lines, both hit
        cache.touch(250, 10)             # 2 lines (3 and 4): 1 miss
    finally:
        tracer.uninstall()
    m = layers.layer_metrics(tracer, 1, [], [])
    assert m["cache.touches"] == 3
    assert m["cache.miss_ratio"] == pytest.approx(5 / 8)
    assert cache.stats.misses / (cache.stats.hits
                                 + cache.stats.misses) == pytest.approx(5 / 8)


# -- host-speed probe -------------------------------------------------------
def test_speed_probe_samples_while_its_block_runs_and_disarms():
    import signal
    import time
    probe = hostspeed.SpeedProbe()
    with probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.samples) >= 5
    assert 0.0 < probe.own_s < 0.1 and probe.slowdown > 0.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


# -- failure accounting -----------------------------------------------------
def _raise(exc):
    def fn():
        raise exc
    return fn


def test_raised_point_counts_all_ops_as_failed():
    crash = SimulationError("process 'rank1' crashed")
    crash.__cause__ = SimulationError("negative schedule delay")
    o = workloads.run_point(workloads.Point("p", 2048, _raise(crash)))
    assert o.result is None and o.failed_ops == 2048
    assert "crashed" in o.error


def test_wrong_output_is_not_a_crash():
    wrapped = SimulationError("process 'rank9' crashed")
    wrapped.__cause__ = ReproError("get(3) read 7.0")
    with pytest.raises(workloads.WrongOutput):
        workloads.run_point(workloads.Point("p", 10, _raise(wrapped)))


def _sharded(fail):
    """A 4-rank run on 2 shard workers whose rank 3 calls ``fail``."""
    from repro import run_ranks
    from repro.cluster import ClusterConfig

    def program(ctx):
        yield ctx.timeout(1.0)
        if ctx.rank == 3:
            fail(ctx)
        return 0

    def run():
        run_ranks(4, program, config=ClusterConfig(
            nranks=4, ranks_per_node=2, shards=2))
        return {}
    return run


def _bad_value(ctx):
    raise ReproError("rank 3: table[0] 7.0 != 3.0")


def _negative_timeout(ctx):
    ctx.timeout(-1.0)


def test_wrong_output_in_a_shard_worker_is_not_a_crash():
    # the worker ships only its traceback text; the check's ReproError
    # is found in it
    with pytest.raises(workloads.WrongOutput):
        workloads.run_point(workloads.Point("p", 10, _sharded(_bad_value)))


def test_crash_in_a_shard_worker_counts_all_ops_as_failed():
    o = workloads.run_point(workloads.Point("p", 40,
                                            _sharded(_negative_timeout)))
    assert o.result is None and o.failed_ops == 40
    assert "negative timeout" in o.error


def _outcome(label, ops, result):
    return workloads.Outcome(label, ops, result,
                             None if result else "crash", 0.0, 0.0)


def test_throughput_leaves_out_crashed_points():
    first = run.Body([_outcome("a", 100, {"failed": 10}),
                      _outcome("b", 100, None)], 0, "")
    crashed = (9.0, 9.0, 1.0)
    # (wall, cpu, slowdown) per point; the host ran 2x slow in body 2
    runs = run.Runs(first, [[(1.0, 0.5, 1.0), crashed],
                            [(6.0, 1.0, 2.0), crashed],
                            [(4.0, 0.5, 1.0), crashed]])
    assert run.throughput(runs) == (30.0, 180.0, 90)
    assert run.throughput(runs, normalised=False) == (22.5, 180.0, 90)


def test_body_counts_are_one_bodys_ops():
    body = run.Body([_outcome("a", 100, {"failed": 10}),
                     _outcome("b", 100, None), _outcome("c", 50, {})],
                    0, "")
    assert (body.attempted, body.failed) == (250, 110)


def test_kv_ft_inputs_ignore_the_seed(monkeypatch):
    calls = []
    monkeypatch.setattr(workloads, "_run_kv_ft",
                        lambda *args: calls.append(args))
    kv_ft = workloads.KvFt()
    for seed in (7, 9001):
        kv_ft.warmup(seed)
        for point in kv_ft.points(seed):
            point.run()
    assert {args[0] for args in calls} == {workloads.KVFT_SEED}
    assert len(calls) == 10


# -- kv.max_rate_rps --------------------------------------------------------
def test_max_rate_needs_p99_and_drain_within_limit():
    rows = [(1e6, 5.4, 2.9), (2e6, 5.0, 2.9), (4e6, 19.9, 3.2),
            (8e6, 12.0, 875.0),      # p99 fine, backlog growing
            (16e6, 1036.6, 1023.5)]
    assert workloads.max_rate_rps(rows) == 4e6
    assert workloads.max_rate_rps(rows, limit_us=5.2) == 2e6
    assert workloads.max_rate_rps([(1e6, 30.0, 3.0)]) == 0.0
