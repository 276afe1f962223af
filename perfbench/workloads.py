"""The benchmark's workloads: inputs, output checks and model outputs.

Each workload is a fixed list of *points* (one simulator run each).  An
*op* is the workload's unit of simulated work: a stencil grid-point
update, a DHT insert, or a KV request.  Every input is a pure function
of the seed, except the stencil, which has no random input, and kv_ft,
which always uses :data:`KVFT_SEED`.

Virtual-time numbers (GMOPS, latencies, insert rates) are outputs of the
simulator's model.  The model is checked only against the paper's
Table I LogGP fit, so they are reported as model results, not accuracy.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.apps.dht import run_dht
from repro.apps.services import run_kv, run_kv_ft
from repro.apps.services.kv import build_kv_workload
from repro.apps.stencil import run_stencil
from repro.bench.load import LatencyDigest
from repro.cluster import ClusterConfig
from repro.errors import ReproError, SimulationError
from repro.faults import FaultPlan

from hostspeed import SpeedProbe

#: Figure 1 stencil at ``fig1_stencil_strong(scale=0.25)``: 1280x320
STENCIL_MODES = ("mp", "fence", "pscw", "na")
STENCIL_P = (8, 16)
STENCIL_ROWS, STENCIL_COLS = 320, 1280

#: DHT insert motif on the sharded core
DHT_RANKS, DHT_ROUNDS, DHT_RANKS_PER_NODE = 1024, 8, 16
DHT_SPACE_BYTES, DHT_SHARDS = 1024 * 1024, 2

#: KV service (svc_kv / svc_kv_ft parameters)
KV_SERVERS, KV_CLIENTS, KV_REQS, KV_RPN = 4, 8, 256, 2
KV_GET_FRAC, KV_NKEYS, KV_SKEW = 0.5, 64, 0.9
KV_RATES = (1e6, 2e6, 4e6, 8e6, 16e6)
KV_REPLICATION = 2
KVFT_REPLICATIONS = (2, 3)
KVFT_RATES = (200e3, 1e6)
KVFT_DEATH_FRAC, KVFT_DETECT_US, KVFT_CKPT_EVERY = 0.3, 200.0, 8
#: seed of every kv_ft input, whatever ``--seed`` is.  A negative timeout
#: at kv_ft.py:181 crashes points that depend on the seed (at 42 both
#: 1M rps points, at t=614.54 us; at 16 r3/200k; at 104 r2/1M; at 0-15
#: none), so a seeded kv_ft would fail a different number of ops from
#: one seed to the next.  At 42 the crash shows on every run.
KVFT_SEED = 42

#: latency limit of kv.max_rate_rps: p99 and backlog drain must stay below
KV_LIMIT_US = 20.0


class WrongOutput(Exception):
    """A simulated output failed its check: the benchmark exits nonzero."""


@dataclass(frozen=True)
class Point:
    """One simulator run of a workload."""

    label: str
    ops: int
    run: Callable[[], dict]


@dataclass
class Outcome:
    """What one point produced, and the host time it took.

    ``wall_s`` and ``cpu_s`` exclude the speed probe's own time;
    ``slowdown`` is the probe's host-speed factor (1.0 when unprobed).
    """

    label: str
    ops: int
    result: dict | None
    error: str | None
    wall_s: float
    cpu_s: float
    slowdown: float = 1.0

    @property
    def failed_ops(self) -> int:
        """A point that raised fails all of its ops; a completed point
        fails the requests it reports as failed (kv_ft fail-fast)."""
        if self.result is None:
            return self.ops
        return int(self.result.get("failed", 0))


def cpu_seconds() -> float:
    """CPU of this process plus its reaped children (shard workers)."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


#: how a shard worker's traceback text names a plain ReproError
_SHIPPED_CHECK = f"{ReproError.__module__}.{ReproError.__qualname__}:"


def is_wrong_output(exc: BaseException) -> bool:
    """True when ``exc`` comes from an output check, not a crash.

    The apps raise a plain :class:`ReproError` when a verified value is
    wrong.  In a serial run the engine re-raises it as the cause of a
    ``SimulationError`` naming the rank.  A shard worker ships only its
    traceback text, which the coordinator re-raises inside a
    ``SimulationError`` message with no cause, so the text is searched
    for the check's exception line.  Any other exception is a crash.
    """
    while exc is not None:
        if type(exc) is ReproError:
            return True
        if isinstance(exc, SimulationError) and any(
                line.startswith(_SHIPPED_CHECK)
                for line in str(exc).splitlines()):
            return True
        exc = exc.__cause__
    return False


def run_point(point: Point, probe: SpeedProbe | None = None) -> Outcome:
    """Run one point, timing it; a crash becomes a counted failure."""
    wall0, cpu0 = time.perf_counter(), cpu_seconds()
    result = error = None
    with probe or contextlib.nullcontext():
        try:
            result = point.run()
        except Exception as exc:  # a crashed point is data, not a stop
            if is_wrong_output(exc):
                raise WrongOutput(f"{point.label}: {exc!r}") from exc
            error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
    if probe is None:
        return Outcome(point.label, point.ops, result, error, wall, cpu)
    return Outcome(point.label, point.ops, result, error,
                   wall - probe.own_s, cpu - probe.own_s, probe.slowdown)


# ---------------------------------------------------------------------------
# Model digest
# ---------------------------------------------------------------------------
def _canonical(x):
    if isinstance(x, dict):
        return [[_canonical(k), _canonical(v)]
                for k, v in sorted(x.items(), key=lambda kv: repr(kv[0]))]
    if isinstance(x, (list, tuple)):
        return [_canonical(v) for v in x]
    if isinstance(x, np.ndarray):
        return _canonical(x.tolist())
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    return x


def model_digest(outcomes: list[Outcome], events: int) -> str:
    """Hash of every simulated table of one body plus its event count."""
    table = [[o.label, _canonical(o.result), o.error] for o in outcomes]
    blob = json.dumps([table, events], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Model outputs
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ModelMetric:
    name: str
    value: float | None
    unit: str
    note: str


def latency_percentiles(lat_us, ps=(50.0, 99.0)) -> tuple[list[float], int]:
    """Percentiles by the repo's log-histogram digest (as svc_kv)."""
    digest = LatencyDigest()
    digest.record_many(lat_us)
    if digest.count == 0:
        return [math.nan] * len(ps), 0
    return digest.percentiles(ps), digest.count


def max_rate_rps(rows, limit_us: float = KV_LIMIT_US) -> float:
    """Highest swept rate whose p99 and backlog drain are <= limit.

    ``rows`` are ``(rate_rps, p99_us, drain_us)``.  ``drain_us`` is the
    time from the last scheduled arrival to the last completion: an
    open loop that keeps up drains in about one request latency, while a
    growing backlog takes hundreds of microseconds to drain after the
    arrivals stop.  0.0 when no rate meets the limit.
    """
    ok = [rate for rate, p99, drain in rows
          if p99 <= limit_us and drain <= limit_us]
    return max(ok, default=0.0)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
class Workload:
    """A named list of points, with its warm-up, checks and model."""

    name = ""

    def seed_note(self, seed: int) -> str:
        """The seed the inputs are made from, as the report states it."""
        return str(seed)

    def points(self, seed: int) -> list[Point]:
        raise NotImplementedError

    def warmup(self, seed: int) -> None:
        """One untimed run that exercises the same code paths."""

    def untimed_checks(self) -> None:
        """Output checks that would change the timed program; they run
        after the measurement, so their runs do not set its peak RSS."""

    def check(self, outcomes: list[Outcome]) -> None:
        """Raise :class:`WrongOutput` on a wrong completed output."""

    def model(self, outcomes: list[Outcome], seed: int
              ) -> list[ModelMetric]:
        return []


def _by_label(outcomes: list[Outcome]) -> dict[str, Outcome]:
    return {o.label: o for o in outcomes}


def _absent(name: str, unit: str, o: Outcome) -> ModelMetric:
    return ModelMetric(name, None, unit, f"point crashed: {o.error}")


class Stencil(Workload):
    """The paper's headline app: a latency chain at <= 16 ranks, so the
    event queue stays small; the MP and RMA baselines run here."""

    name = "stencil"

    def seed_note(self, seed: int) -> str:
        return "none (no random input)"

    def points(self, seed: int) -> list[Point]:
        # no random input: the seed is not used
        ops = (STENCIL_ROWS - 1) * (STENCIL_COLS - 1)
        return [Point(f"{mode}/P{p}", ops,
                      lambda mode=mode, p=p: run_stencil(
                          mode, p, rows=STENCIL_ROWS, cols=STENCIL_COLS))
                for p in STENCIL_P for mode in STENCIL_MODES]

    def untimed_checks(self) -> None:
        # verify=True adds the corner hand-off to the program (it moves
        # NA P=16 from 165.15 to 175.02 us), so it runs outside the timing
        for mode in STENCIL_MODES:
            r = run_stencil(mode, STENCIL_P[-1], rows=STENCIL_ROWS,
                            cols=STENCIL_COLS, verify=True)
            if r["corner"] != r["corner_expected"]:
                raise WrongOutput(
                    f"stencil {mode}/P{STENCIL_P[-1]}: corner "
                    f"{r['corner']} != {r['corner_expected']}")

    def warmup(self, seed: int) -> None:
        run_stencil("na", STENCIL_P[-1], rows=STENCIL_ROWS,
                    cols=STENCIL_COLS)

    def model(self, outcomes, seed):
        by = _by_label(outcomes)
        out = []
        for mode in ("na", "mp"):
            name = f"stencil.{mode}_gmops"
            o = by[f"{mode}/P{STENCIL_P[-1]}"]
            if o.result is None:
                out.append(_absent(name, "GMOPS", o))
            else:
                out.append(ModelMetric(name, o.result["gmops"], "GMOPS",
                                       f"P={STENCIL_P[-1]}, 1 point"))
        return out


def _dht_config(seed: int, nranks: int = DHT_RANKS) -> ClusterConfig:
    return ClusterConfig(nranks=nranks, ranks_per_node=DHT_RANKS_PER_NODE,
                         space_bytes=DHT_SPACE_BYTES, shards=DHT_SHARDS,
                         seed=seed)


class DhtSharded(Workload):
    """Every rank busy and ~512 ranks per shard, so the event queue is
    large; the only workload that runs the sharded core.

    ``verify=True`` checks every rank's received records inside its
    program; a wrong one raises there and reaches :func:`run_point`
    through the shard worker's traceback (see :func:`is_wrong_output`).
    """

    name = "dht_sharded"

    def points(self, seed: int) -> list[Point]:
        return [Point("dht/P1024", DHT_RANKS * DHT_ROUNDS,
                      lambda: run_dht(DHT_RANKS, rounds=DHT_ROUNDS,
                                      verify=True,
                                      config=_dht_config(seed)))]

    def warmup(self, seed: int) -> None:
        run_dht(64, rounds=DHT_ROUNDS, verify=True,
                config=_dht_config(seed, 64))

    def model(self, outcomes, seed):
        o = outcomes[0]
        if o.result is None:
            return [_absent("dht.minserts_per_s", "Minserts/s", o)]
        return [ModelMetric("dht.minserts_per_s", o.result["minserts_per_s"],
                            "Minserts/s",
                            f"{o.result['inserts']} inserts, 1 point")]


def _kv_config(seed: int, faults: FaultPlan | None = None) -> ClusterConfig:
    return ClusterConfig(nranks=KV_SERVERS + KV_CLIENTS,
                         ranks_per_node=KV_RPN, seed=seed, faults=faults)


def _run_kv(seed: int, rate: float) -> dict:
    return run_kv(nservers=KV_SERVERS, nclients=KV_CLIENTS,
                  replication=KV_REPLICATION, reqs_per_client=KV_REQS,
                  rate_rps=rate, get_frac=KV_GET_FRAC, nkeys=KV_NKEYS,
                  zipf_skew=KV_SKEW, verify=True, seed=seed,
                  config=_kv_config(seed))


def _run_kv_ft(seed: int, replication: int, rate: float) -> dict:
    expected_us = KV_REQS * KV_CLIENTS / rate * 1e6
    plan = FaultPlan(node_failures={1: KVFT_DEATH_FRAC * expected_us},
                     detect_us=KVFT_DETECT_US)
    return run_kv_ft(nservers=KV_SERVERS, nclients=KV_CLIENTS,
                     replication=replication, reqs_per_client=KV_REQS,
                     rate_rps=rate, get_frac=KV_GET_FRAC, nkeys=KV_NKEYS,
                     zipf_skew=KV_SKEW, verify=True,
                     ckpt_every=KVFT_CKPT_EVERY, seed=seed,
                     config=_kv_config(seed, plan))


def _rate_label(rate: float) -> str:
    return f"{rate / 1e6:g}M" if rate >= 1e6 else f"{rate / 1e3:g}k"


class Kv(Workload):
    """Notified-op heavy open loop across the knee (4M -> 8M rps)."""

    name = "kv"

    def points(self, seed: int) -> list[Point]:
        n = KV_CLIENTS * KV_REQS
        return [Point(f"kv/{_rate_label(rate)}", n,
                      lambda rate=rate: _run_kv(seed, rate))
                for rate in KV_RATES]

    def warmup(self, seed: int) -> None:
        _run_kv(seed, 4e6)

    def model(self, outcomes, seed):
        by = _by_label(outcomes)
        out = []
        o = by["kv/4M"]
        if o.result is None:
            out += [_absent("kv.p50_us", "us", o), _absent("kv.p99_us",
                                                           "us", o)]
        else:
            (p50, p99), n = latency_percentiles(
                o.result["lat_put_us"] + o.result["lat_get_us"])
            out += [ModelMetric("kv.p50_us", p50, "us", f"4M rps, n={n}"),
                    ModelMetric("kv.p99_us", p99, "us", f"4M rps, n={n}")]
        rows = []
        for rate in KV_RATES:
            o = by[f"kv/{_rate_label(rate)}"]
            if o.result is None:
                continue
            (p99,), _ = latency_percentiles(
                o.result["lat_put_us"] + o.result["lat_get_us"], (99.0,))
            plans = build_kv_workload(seed, KV_CLIENTS, KV_REQS, rate,
                                      KV_GET_FRAC, KV_NKEYS, KV_SKEW)
            last = max(float(p.arrivals[-1]) for p in plans)
            rows.append((rate, p99, o.result["t_end_us"] - last))
        out.append(ModelMetric(
            "kv.max_rate_rps", max_rate_rps(rows), "rps",
            f"p99 and drain <= {KV_LIMIT_US:g} us, {len(rows)} rates"))
        return out


class KvFt(Workload):
    """The same service over ReplicatedWindow, checkpoints and failover:
    the only workload that runs ft and faults.  Its inputs use
    :data:`KVFT_SEED`, with which both 1M rps points crash; they count
    as failed ops on every run."""

    name = "kv_ft"

    def seed_note(self, seed: int) -> str:
        return f"{KVFT_SEED} (fixed; --seed {seed} not used)"

    def points(self, seed: int) -> list[Point]:
        n = KV_CLIENTS * KV_REQS
        return [Point(f"kv_ft/r{repl}/{_rate_label(rate)}", n,
                      lambda repl=repl, rate=rate: _run_kv_ft(
                          KVFT_SEED, repl, rate))
                for repl in KVFT_REPLICATIONS for rate in KVFT_RATES]

    def warmup(self, seed: int) -> None:
        _run_kv_ft(KVFT_SEED, KVFT_REPLICATIONS[0], KVFT_RATES[0])

    def check(self, outcomes):
        for o in outcomes:
            if o.result is not None and o.result["acked_lost"] != 0:
                raise WrongOutput(f"{o.label}: {o.result['acked_lost']} "
                                  "acked writes lost")

    def model(self, outcomes, seed):
        o = _by_label(outcomes)["kv_ft/r2/200k"]
        if o.result is None:
            return [_absent("kv_ft.p99_us", "us", o),
                    _absent("kv_ft.recovery_p50_us", "us", o)]
        (p99,), n = latency_percentiles(
            o.result["lat_put_us"] + o.result["lat_get_us"], (99.0,))
        (rec50,), m = latency_percentiles(o.result["lat_affected_us"],
                                          (50.0,))
        return [ModelMetric("kv_ft.p99_us", p99, "us",
                            f"r2, 200k rps, n={n}"),
                ModelMetric("kv_ft.recovery_p50_us",
                            None if m == 0 else rec50, "us",
                            f"failover-affected requests, n={m}")]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Stencil(), DhtSharded(), Kv(), KvFt())}
