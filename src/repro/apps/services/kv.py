"""Sharded key-value store served over Notified Access.

The production-service counterpart of the paper's HPC kernels: ``nservers``
ranks each own a shard of the key space, ``nclients`` ranks issue an
**open-loop** stream of ``put``/``get`` requests against it (arrival times
come from :func:`repro.bench.load.arrival_times`, key popularity from
:class:`~repro.bench.load.ZipfKeys`) and record per-request latency.

Write path — notified puts with counting replication acks
    A ``put(key, value)`` lands the 16-byte record in the request's
    private slot on each of the ``replication`` copy servers via
    ``put_notify`` (one wire transaction per copy, Figure 2d).  Each
    server matches the notification, applies the record to its in-memory
    store, and acks with a **zero-byte** ``put_notify`` back to the
    client (the credit-message idiom of §III-B).  The client waits for
    all copies through **one counting notification request** per put
    (``expected_count = replication``, the paper's counting feature) —
    no ack aggregation code, the matching engine counts.

Read path — notified-put RPC against the primary
    A ``get(key)`` sends the 8-byte key to the key's primary server via
    ``put_notify`` and waits on a single-count notification for the
    8-byte reply the server puts back into the client's per-request
    reply slot.  Both legs are notified puts, deliberately: the sharded
    conservative-parallel core reproduces put-style operations exactly
    (every receive-side effect applies in global issue-time order at a
    window boundary), whereas a one-sided ``win.get`` reserves the
    origin's receive link and the target's injection engine *at issue
    time* in the serial fabric — a plan-ahead a conservative protocol
    cannot replay under contention.  Riding the RPC on puts is what
    makes the service byte-identical across ``--shards``, and it is the
    natural NA idiom anyway: the reply's notification is the paper's
    producer-consumer handoff, and read latency honestly includes the
    server's request-service queueing.

The client is genuinely open-loop: requests issue at their precomputed
arrival times whether or not earlier ones completed, and completion is
accounted afterwards from the deterministic event clocks — the last
matching notification's NIC **arrival** time
(:attr:`~repro.core.nrequest.NotifyRequest.match_log`) for both the
replication acks of a put and the reply of a get — so queueing delay
shows up in the measured latency instead of throttling the offered
load, and the numbers never depend on when the client process observed
an event.

Determinism: the workload is a pure function of the seed, latencies are
virtual-time differences, and every wire operation is a notified put,
so results are byte-identical across ``--jobs`` and ``--shards``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.load import ZipfKeys, arrival_times
from repro.cluster import ClusterConfig, run_ranks
from repro.errors import ReproError
from repro.mpi.constants import ANY_SOURCE, ANY_TAG
from repro.sim.rng import RngStream

#: bytes per (key, value) record in a put slot
_RECORD_BYTES = 16
#: bytes per get request / reply value
_VALUE_BYTES = 8


def seed_value(key: int) -> float:
    """Value every key holds before the first put reaches its server."""
    return key * 3.0 + 1.0


@dataclass(frozen=True)
class ClientPlan:
    """One client's precomputed open-loop request schedule."""

    arrivals: np.ndarray   # µs offsets from the post-barrier epoch start
    keys: np.ndarray       # int64 key ids
    is_get: np.ndarray     # bool per request


def build_kv_workload(seed: int, nclients: int, reqs_per_client: int,
                      rate_rps: float, get_frac: float, nkeys: int,
                      zipf_skew: float,
                      process: str = "poisson") -> list[ClientPlan]:
    """Per-client request plans — a pure function of the arguments.

    ``rate_rps`` is the *aggregate* offered load; each client runs an
    independent arrival process at ``rate_rps / nclients``.  Every rank
    recomputes the same plans from the seed, so servers know exactly how
    many records and get requests to expect without control messages.
    """
    zipf = ZipfKeys(nkeys, zipf_skew)
    plans = []
    for c in range(nclients):
        arrivals = arrival_times(seed, ("svc_kv", c), reqs_per_client,
                                 rate_rps / nclients, process)
        keys = zipf.sample(RngStream(seed, "svc_kv", "keys", c),
                           reqs_per_client)
        ops = RngStream(seed, "svc_kv", "ops", c).array(reqs_per_client)
        plans.append(ClientPlan(arrivals, keys, ops < get_frac))
    return plans


def copy_servers(key: int, nservers: int, replication: int) -> list[int]:
    """Server ranks holding ``key``: primary + chained backups."""
    primary = int(key) % nservers
    return [(primary + j) % nservers for j in range(replication)]


def _expected_records(plans: list[ClientPlan], server: int, nservers: int,
                      replication: int) -> int:
    """How many put records ``server`` will receive for these plans."""
    total = 0
    for plan in plans:
        for key, is_get in zip(plan.keys, plan.is_get):
            if not is_get and server in copy_servers(int(key), nservers,
                                                     replication):
                total += 1
    return total


def _expected_gets(plans: list[ClientPlan], server: int,
                   nservers: int) -> int:
    """How many get requests ``server`` (as primary) will serve."""
    total = 0
    for plan in plans:
        for key, is_get in zip(plan.keys, plan.is_get):
            if is_get and copy_servers(int(key), nservers, 1)[0] == server:
                total += 1
    return total


def _legal_values(plans: list[ClientPlan], reqs_per_client: int,
                  nkeys: int) -> dict[int, set[float]]:
    """Per key, the set of values a get may legally observe."""
    legal = {key: {seed_value(key)} for key in range(nkeys)}
    for c, plan in enumerate(plans):
        for i, (key, is_get) in enumerate(zip(plan.keys, plan.is_get)):
            if not is_get:
                legal[int(key)].add(float(c * reqs_per_client + i))
    return legal


def _server_program(ctx, plans, nservers, replication, reqs_per_client):
    """Own a store shard: apply put records, serve get RPCs, ack each."""
    nclients = len(plans)
    kv_win = yield from ctx.win_allocate(
        max(nclients * reqs_per_client * _RECORD_BYTES, _RECORD_BYTES))
    rpc_win = yield from ctx.win_allocate(
        max(nclients * reqs_per_client * _VALUE_BYTES, _VALUE_BYTES))
    ack_win = yield from ctx.win_allocate(_VALUE_BYTES)
    reply_win = yield from ctx.win_allocate(_VALUE_BYTES)
    puts_left = _expected_records(plans, ctx.rank, nservers, replication)
    gets_left = _expected_gets(plans, ctx.rank, nservers)
    put_req = yield from ctx.na.notify_init(kv_win, source=ANY_SOURCE,
                                            tag=ANY_TAG)
    get_req = yield from ctx.na.notify_init(rpc_win, source=ANY_SOURCE,
                                            tag=ANY_TAG)
    yield from ctx.barrier()

    store: dict[int, float] = {}
    order: list[tuple[str, int, int]] = []
    served = 0
    empty = np.empty(0, dtype=np.uint8)
    if puts_left:
        yield from ctx.na.start(put_req)
    if gets_left:
        yield from ctx.na.start(get_req)
    while puts_left or gets_left:
        active = [r for r, left in ((put_req, puts_left),
                                    (get_req, gets_left)) if left]
        idx, st = yield from ctx.na.waitany(active)
        client_idx = st.source - nservers
        if active[idx] is put_req:
            slot = (client_idx * reqs_per_client + st.tag) * _RECORD_BYTES
            rec = kv_win.local(np.float64, offset=slot, count=2, mode="r")
            store[int(rec[0])] = float(rec[1])
            order.append(("put", st.source, st.tag))
            # Replication ack: zero-byte notified put (credit message).
            yield from ctx.na.put_notify(ack_win, empty, st.source, 0,
                                         tag=st.tag)
            yield from ack_win.flush_local(st.source)
            puts_left -= 1
            if puts_left:
                yield from ctx.na.start(put_req)
        else:
            slot = (client_idx * reqs_per_client + st.tag) * _VALUE_BYTES
            req = rpc_win.local(np.float64, offset=slot, count=1, mode="r")
            key = int(req[0])
            value = store.get(key, seed_value(key))
            order.append(("get", st.source, st.tag))
            yield from ctx.na.put_notify(
                reply_win, np.array([value]), st.source,
                st.tag * _VALUE_BYTES, tag=st.tag)
            yield from reply_win.flush_local(st.source)
            served += 1
            gets_left -= 1
            if gets_left:
                yield from ctx.na.start(get_req)
    yield from ctx.na.request_free(put_req)
    yield from ctx.na.request_free(get_req)
    yield from ctx.barrier()
    return {"store": store, "order": order,
            "acked": len(order) - served, "served": served}


def _client_program(ctx, plans, nservers, replication, reqs_per_client,
                    warmup_us, legal):
    """Open-loop client: issue at scheduled arrivals, settle afterwards.

    The issue loop depends *only* on the precomputed arrival schedule —
    never on completions — so the offered load is genuinely open-loop.
    Completion times are then read off the deterministic event clocks:
    a put completes when its last replication ack **arrived** at the NIC,
    a get when its reply arrived, both via
    :attr:`~repro.core.nrequest.NotifyRequest.match_log`.  Measuring
    arrival clocks instead of observation times keeps every latency
    invariant to same-timestamp event ordering, which is exactly the
    freedom the sharded conservative-parallel core reserves for its
    tie-breaks — the bench byte-equality contract across ``--shards``
    depends on this.
    """
    me_idx = ctx.rank - nservers
    plan = plans[me_idx]
    n = len(plan.arrivals)
    nclients = len(plans)
    kv_win = yield from ctx.win_allocate(
        max(nclients * reqs_per_client * _RECORD_BYTES, _RECORD_BYTES))
    rpc_win = yield from ctx.win_allocate(
        max(nclients * reqs_per_client * _VALUE_BYTES, _VALUE_BYTES))
    ack_win = yield from ctx.win_allocate(_VALUE_BYTES)
    reply_win = yield from ctx.win_allocate(
        max(reqs_per_client * _VALUE_BYTES, _VALUE_BYTES))
    yield from ctx.barrier()
    t0 = ctx.now

    put_reqs: list[tuple[int, object]] = []   # (req_id, NotifyRequest)
    get_reqs: list[tuple[int, object]] = []   # (req_id, NotifyRequest)
    for i in range(n):
        due = t0 + plan.arrivals[i]
        if ctx.now < due:
            yield ctx.timeout(due - ctx.now)
        key = int(plan.keys[i])
        slot = me_idx * reqs_per_client + i
        if plan.is_get[i]:
            primary = copy_servers(key, nservers, 1)[0]
            req = yield from ctx.na.notify_init(
                reply_win, source=primary, tag=i)
            yield from ctx.na.start(req)
            yield from ctx.na.put_notify(
                rpc_win, np.array([float(key)]), primary,
                slot * _VALUE_BYTES, tag=i)
            get_reqs.append((i, req))
        else:
            record = np.array([float(key), float(slot)])
            req = yield from ctx.na.notify_init(
                ack_win, source=ANY_SOURCE, tag=i,
                expected_count=replication)
            yield from ctx.na.start(req)
            for server in copy_servers(key, nservers, replication):
                yield from ctx.na.put_notify(
                    kv_win, record, server, slot * _RECORD_BYTES, tag=i)
            put_reqs.append((i, req))

    # Settle: wait out every outstanding completion and account it
    # against its event clock.
    lat_put: list[float] = []
    lat_get: list[float] = []
    done = 0
    t_last = t0
    for rid, req in put_reqs:
        yield from ctx.na.wait(req)
        t_done = max(t for _, _, t in req.match_log)
        yield from ctx.na.request_free(req)
        if plan.arrivals[rid] >= warmup_us:
            lat_put.append(t_done - (t0 + plan.arrivals[rid]))
        done += 1
        t_last = max(t_last, t_done)
    for rid, req in get_reqs:
        yield from ctx.na.wait(req)
        t_done = max(t for _, _, t in req.match_log)
        yield from ctx.na.request_free(req)
        value = float(reply_win.local(np.float64,
                                      offset=rid * _VALUE_BYTES,
                                      count=1, mode="r")[0])
        key = int(plan.keys[rid])
        if legal is not None and value not in legal[key]:
            raise ReproError(
                f"client {me_idx} get({key}) read {value}, not one of "
                f"the {len(legal[key])} values ever written to it")
        if plan.arrivals[rid] >= warmup_us:
            lat_get.append(t_done - (t0 + plan.arrivals[rid]))
        done += 1
        t_last = max(t_last, t_done)
    yield from kv_win.flush_local_all()
    yield from rpc_win.flush_local_all()
    yield from ctx.barrier()
    return {"lat_put": lat_put, "lat_get": lat_get, "done": done,
            "t_end": t_last - t0}


def _check_kv_args(nservers: int, nclients: int, replication: int,
                   reqs_per_client: int, attempts: int,
                   config: ClusterConfig | None
                   ) -> tuple[int, ClusterConfig]:
    """Argument check shared with ``run_kv_ft``; a request's tag is
    ``attempt * reqs_per_client + i`` for up to ``attempts`` attempts.
    Returns the rank count and the (defaulted) cluster config."""
    if nservers < 1 or nclients < 1:
        raise ReproError("need at least one server and one client")
    if not 1 <= replication <= nservers:
        raise ReproError(
            f"replication {replication} outside [1, nservers={nservers}]")
    if not 1 <= attempts * reqs_per_client <= 0xFFFF:
        raise ReproError(
            f"{attempts} attempt(s) x reqs_per_client={reqs_per_client} "
            f"must fit the 16-bit tag space "
            f"(tag = attempt * reqs_per_client + i)")
    nranks = nservers + nclients
    if config is None:
        config = ClusterConfig(nranks=nranks, ranks_per_node=2)
    if config.nranks != nranks:
        raise ReproError(f"config has {config.nranks} ranks, "
                         f"need {nranks}")
    return nranks, config


def run_kv(nservers: int = 4, nclients: int = 8, replication: int = 2,
           reqs_per_client: int = 32, rate_rps: float = 4000.0,
           get_frac: float = 0.5, nkeys: int = 64, zipf_skew: float = 0.9,
           warmup_frac: float = 0.2, process: str = "poisson",
           verify: bool = False, seed: int = 42,
           config: ClusterConfig | None = None) -> dict:
    """Run the sharded KV service; returns stores, orders, and latencies.

    The cluster has ``nservers + nclients`` ranks (servers first).  The
    first ``warmup_frac`` of the expected run is excluded from latency
    and throughput accounting.  The returned dict is fully deterministic
    (virtual times only) — golden-trace tests compare it verbatim
    between serial and sharded runs.

    Runs that kill server ranks need the fault-tolerant programs of
    :func:`~repro.apps.services.kv_ft.run_kv_ft` (replication
    failover, epoch checkpoints, crash-exiting servers).
    """
    nranks, config = _check_kv_args(nservers, nclients, replication,
                                    reqs_per_client, 1, config)
    plans = build_kv_workload(seed, nclients, reqs_per_client, rate_rps,
                              get_frac, nkeys, zipf_skew, process)
    legal = (_legal_values(plans, reqs_per_client, nkeys)
             if verify else None)
    expected_us = reqs_per_client * nclients / rate_rps * 1e6
    warmup_us = warmup_frac * expected_us

    def program(ctx):
        # analyze: skip  (rank count and loop bounds come from the plan)
        if ctx.rank < nservers:
            result = yield from _server_program(
                ctx, plans, nservers, replication, reqs_per_client)
        else:
            result = yield from _client_program(
                ctx, plans, nservers, replication, reqs_per_client,
                warmup_us, legal)
        return result

    results, _cluster = run_ranks(nranks, program, config=config)
    servers = results[:nservers]
    clients = results[nservers:]
    lat_put = sorted(x for c in clients for x in c["lat_put"])
    lat_get = sorted(x for c in clients for x in c["lat_get"])
    t_end = max(c["t_end"] for c in clients)
    total = sum(c["done"] for c in clients)
    return {
        "nservers": nservers,
        "nclients": nclients,
        "replication": replication,
        "requests": reqs_per_client * nclients,
        "completed": total,
        "acked": sum(s["acked"] for s in servers),
        "served": sum(s["served"] for s in servers),
        "stores": [s["store"] for s in servers],
        "server_orders": [s["order"] for s in servers],
        "lat_put_us": lat_put,
        "lat_get_us": lat_get,
        "warmup_us": warmup_us,
        "t_end_us": t_end,
    }
