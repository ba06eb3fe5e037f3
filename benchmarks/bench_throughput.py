#!/usr/bin/env python
"""Throughput benchmark: routing engine + batch inference vs the seed path.

Measures, on the standard evaluation world:

* **seed baseline** — HRIS with every engine feature off (no landmarks,
  zero-size caches), queries inferred one at a time: the code path the
  repository shipped with;
* **engine sequential** — HRIS with the default :class:`EngineConfig`
  (ALT landmarks + bounded shared caches), still one query at a time:
  the single-query latency win;
* **matcher preprocessing** — HMM map matching (the Sec. II-B
  preprocessing step) of long drives over a larger grid city through the
  engine's transition oracle, where candidate end nodes rarely repeat;
  the settled-node count shows the work of the many-to-many sweeps;
* **batch** — :meth:`HRIS.infer_routes_batch` over the whole query set
  with the requested worker count (the auto policy forks only on
  multi-core machines), plus the forced-pool time for transparency;
* **remote archive** — the engine's sequential workload with the
  spatial tier served by ``--shards`` loopback :class:`ArchiveShardServer`
  processes (the multi-process deployment of ``docs/distributed.md``)
  instead of the in-memory R-tree: per-shard resident points plus
  request-latency percentiles quantify what the socket hop costs;
* **replicated archive, degraded** — the same fleet at ``--replication``
  replicas per shard, with one replica process killed halfway through
  the query stream: the failover must be invisible (results stay
  identical to the seed baseline, zero errors surfaced) and the latency
  of the first post-kill query bounds what a replica death costs;
* **durable ingest** — the per-shard write-ahead log: ingest throughput
  and restart (replay) time under each fsync policy (always/interval/
  off), then the two chaos acceptance scenarios — a shard killed
  mid-append recovers from its WAL to bit-identical results after an
  idempotent re-push (``wal_recovery_vs_seed``), and a replica killed,
  mutated past and restarted is repaired by ``log_since``/``apply_log``
  replay from its healthy peer before rejoining the read rotation
  (``replica_catchup_vs_seed``);
* **query gateway** — the ``repro serve`` HTTP tier over loopback: every
  query is replayed through the wire and must match the seed baseline
  bit for bit (``gateway_vs_seed``), then an open-loop load generator
  offers a fixed-QPS arrival schedule and records sustained throughput,
  p50/p90/p99 serving latency, and the 429 shed count.

Every configuration must produce identical top-K routes and scores; the
benchmark verifies this and records the outcome.  Per-configuration
``stats`` blocks are **snapshot deltas** taken around each timed run, so
the counters attribute only that configuration's own work even when an
engine has warmed caches beforehand.  Results are written as
JSON (default: ``BENCH_throughput.json`` at the repository root; smoke
runs write under ``benchmarks/results/`` so CI never clobbers the
committed numbers).

Usage::

    PYTHONPATH=src python benchmarks/bench_throughput.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.archive import convert_archive  # noqa: E402
from repro.core.system import HRIS, HRISConfig  # noqa: E402
from repro.eval.harness import standard_scenario  # noqa: E402
from repro.eval.metrics import route_accuracy  # noqa: E402
from repro.trajectory.resample import downsample  # noqa: E402

SEED_BASELINE = HRISConfig(
    n_landmarks=0,
    route_cache_size=0,
    candidate_cache_size=0,
    support_cache_size=0,
)


def result_keys(results):
    """Comparable identity of a batch of inferences: routes + scores."""
    return [
        [(tuple(g.route.segment_ids), round(g.log_score, 9)) for g in routes]
        for routes in results
    ]


def time_sequential(hris, queries):
    latencies = []
    results = []
    for query in queries:
        t0 = time.perf_counter()
        results.append(hris.infer_routes(query))
        latencies.append(time.perf_counter() - t0)
    return results, latencies


def config_stats(hris, before):
    """Engine counters attributable to one timed run (snapshot delta).

    Each configuration's ``stats`` block must report only its own work:
    snapshotting before the run and reporting the delta keeps the
    per-config cache/settled counters honest even when the engine did
    preparatory work (landmark tables) before the timed region.
    """
    return hris.engine.stats().delta(before).as_dict()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queries", type=int, default=60, help="query count")
    parser.add_argument("--workers", type=int, default=4, help="batch workers")
    parser.add_argument(
        "--interval", type=float, default=300.0, help="query sampling interval (s)"
    )
    parser.add_argument(
        "--tile-size",
        type=float,
        default=800.0,
        help="tile edge (metres) of the loopback shard fleets",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="loopback shard servers for the remote-archive configuration",
    )
    parser.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replicas per shard for the degraded-mode configuration",
    )
    parser.add_argument(
        "--qps",
        type=float,
        default=0.0,
        help="offered load for the gateway open-loop phase "
        "(0 = 80%% of measured sequential capacity)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output JSON path")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload for CI; writes under benchmarks/results/",
    )
    args = parser.parse_args(argv)

    n_queries = 8 if args.smoke else args.queries
    out = args.out
    if out is None:
        out = (
            REPO_ROOT / "benchmarks" / "results" / "BENCH_throughput_smoke.json"
            if args.smoke
            else REPO_ROOT / "BENCH_throughput.json"
        )

    print(f"building standard scenario (seed=7, n_queries={n_queries}) ...")
    scenario = standard_scenario(seed=7, n_queries=n_queries)
    cases = []
    for case in scenario.queries:
        query = downsample(case.query, args.interval)
        if len(query) >= 2:
            cases.append((query, case.truth))
    queries = [q for q, __ in cases]
    print(f"{len(queries)} evaluable queries at {args.interval:.0f}s interval")

    # --- seed baseline: engine features off, sequential -------------------
    h_seed = HRIS(scenario.network, scenario.archive, SEED_BASELINE)
    res_seed, lat_seed = time_sequential(h_seed, queries)
    t_seed = sum(lat_seed)
    print(f"seed baseline      sequential: {t_seed:.3f}s")

    # --- engine: landmarks + caches, sequential ---------------------------
    h_engine = HRIS(scenario.network, scenario.archive, HRISConfig())
    engine_before = h_engine.engine.stats()
    res_engine, lat_engine = time_sequential(h_engine, queries)
    t_engine = sum(lat_engine)
    engine_stats = config_stats(h_engine, engine_before)
    print(f"engine             sequential: {t_engine:.3f}s")

    # --- matcher preprocessing: HMM matching through the engine's oracle ---
    # Map-matching long drives on a larger grid than the inference world:
    # candidate end nodes rarely repeat, so the many-to-many sweeps carry
    # the whole transition workload.
    import numpy as np  # noqa: E402

    from repro.mapmatching.hmm import HMMConfig, HMMMatcher  # noqa: E402
    from repro.roadnet.engine import RoutingEngine  # noqa: E402
    from repro.roadnet.generators import GridCityConfig, grid_city  # noqa: E402
    from repro.roadnet.shortest_path import (  # noqa: E402
        shortest_route_between_nodes,
    )
    from repro.trajectory.simulate import DriveConfig, drive_route  # noqa: E402

    grid_n = 12 if args.smoke else 20
    n_drives = 3 if args.smoke else 6
    match_city = grid_city(
        GridCityConfig(nx=grid_n, ny=grid_n, drop_fraction=0.08, one_way_fraction=0.1),
        np.random.default_rng(41),
    )
    match_nodes = len(list(match_city.nodes()))
    drive_rng = np.random.default_rng(5)
    match_trajs = []
    for k in range(n_drives):
        a, b = drive_rng.choice(match_nodes, size=2, replace=False)
        __, route = shortest_route_between_nodes(match_city, int(a), int(b))
        if not route.segment_ids:
            continue
        drive = drive_route(
            match_city,
            route,
            traj_id=k,
            config=DriveConfig(sample_interval_s=15.0, gps_sigma_m=12.0),
            rng=np.random.default_rng(100 + k),
        )
        match_trajs.append(drive.trajectory)

    match_engine = RoutingEngine(match_city)
    matcher = HMMMatcher(match_city, HMMConfig(), engine=match_engine)
    t0 = time.perf_counter()
    for trajectory in match_trajs:
        matcher.match(trajectory)
    t_match = time.perf_counter() - t0
    match_stats = match_engine.stats()
    print(
        f"matcher preprocessing ({match_nodes}-node grid, "
        f"{sum(len(t) for t in match_trajs)} points): {t_match:.3f}s "
        f"({match_stats.settled_nodes} settled, {match_stats.sweeps} sweeps)"
    )

    # --- batch: workers=1 then the requested worker count -----------------
    h_b1 = HRIS(scenario.network, scenario.archive, HRISConfig())
    t0 = time.perf_counter()
    res_b1 = h_b1.infer_routes_batch(queries, workers=1)
    t_b1 = time.perf_counter() - t0
    print(f"batch workers=1              : {t_b1:.3f}s")

    h_bn = HRIS(scenario.network, scenario.archive, HRISConfig())
    t0 = time.perf_counter()
    res_bn = h_bn.infer_routes_batch(queries, workers=args.workers)
    t_bn = time.perf_counter() - t0
    print(f"batch workers={args.workers} (auto policy): {t_bn:.3f}s")

    h_bf = HRIS(scenario.network, scenario.archive, HRISConfig())
    t0 = time.perf_counter()
    res_bf = h_bf.infer_routes_batch(
        queries, workers=args.workers, use_processes=True
    )
    t_forced = time.perf_counter() - t0
    print(f"batch workers={args.workers} (forced pool): {t_forced:.3f}s")

    # --- remote archive: spatial tier behind loopback shard servers -------
    from repro.core.remote import ArchiveShardServer  # noqa: E402

    servers = [
        ArchiveShardServer(i, args.shards, args.tile_size).start()
        for i in range(args.shards)
    ]
    addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
    remote = convert_archive(scenario.archive, "remote", args.tile_size, addrs)
    h_remote = HRIS(scenario.network, remote, HRISConfig())
    remote.reset_latencies()  # measure the query phase, not the push
    res_remote, lat_remote = time_sequential(h_remote, queries)
    t_remote = sum(lat_remote)
    rpc = sorted(remote.request_latencies)
    shard_stats = remote.shard_stats()
    remote.close()
    for server in servers:
        server.stop()

    def percentile(sorted_vals, q):
        return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]

    print(
        f"remote ({args.shards} shards, tile={args.tile_size:.0f}m) "
        f"sequential: {t_remote:.3f}s  {len(rpc)} requests, "
        f"p50={percentile(rpc, 0.50) * 1e3:.2f}ms "
        f"p99={percentile(rpc, 0.99) * 1e3:.2f}ms"
    )

    # --- replicated archive: R replicas/shard, one killed mid-run ---------
    rep_servers = [
        ArchiveShardServer(i, args.shards, args.tile_size, replica_id=r).start()
        for i in range(args.shards)
        for r in range(args.replication)
    ]
    rep_addrs = [f"127.0.0.1:{s.address[1]}" for s in rep_servers]
    replicated = convert_archive(
        scenario.archive, "remote", args.tile_size, rep_addrs, args.replication
    )
    h_rep = HRIS(scenario.network, replicated, HRISConfig())
    replicated.reset_latencies()
    kill_at = max(1, len(queries) // 2)
    res_rep = []
    lat_rep = []
    failover_latency = None
    for qi, query in enumerate(queries):
        if qi == kill_at:
            rep_servers[0].stop()  # replica 0 of shard 0 dies mid-run
        t0 = time.perf_counter()
        res_rep.append(h_rep.infer_routes(query))
        dt = time.perf_counter() - t0
        lat_rep.append(dt)
        if qi == kill_at:
            failover_latency = dt
    t_rep = sum(lat_rep)
    rep_health = replicated.replica_health()
    rep_stats = replicated.backend_stats()
    replicated.close()
    for server in rep_servers:
        server.stop()
    print(
        f"replicated ({args.shards}x{args.replication}, one replica killed at "
        f"query {kill_at}): {t_rep:.3f}s  failovers={rep_stats['failovers']}, "
        f"first post-kill query {failover_latency * 1e3:.1f}ms"
    )

    # --- durable ingest: fsync policies, crash recovery, log catch-up -----
    # Three sub-phases around the per-shard write-ahead log:
    #   * ingest throughput under each fsync policy, plus the restart
    #     (replay) time the journal costs;
    #   * a shard killed mid-append (CrashAfter: request received, no
    #     reply), restarted from its WAL, idempotently re-pushed — query
    #     results must match the seed bit for bit (wal_recovery_vs_seed);
    #   * a replica killed, mutated past, restarted on the same port and
    #     *repaired* by log_since/apply_log replay from its healthy peer
    #     before returning to rotation (replica_catchup_vs_seed).
    import shutil  # noqa: E402
    import tempfile  # noqa: E402

    from repro.core.chaos import CrashAfter  # noqa: E402
    from repro.core.remote import (  # noqa: E402
        RemoteShardedArchive,
        ShardUnavailableError,
    )

    wal_root = Path(tempfile.mkdtemp(prefix="repro-wal-bench-"))

    def start_wal_fleet(tag, fsync="always", replication=1):
        fleet = [
            ArchiveShardServer(
                i,
                args.shards,
                args.tile_size,
                replica_id=r,
                wal_dir=wal_root / tag / f"shard{i}-r{r}",
                fsync=fsync,
            ).start()
            for i in range(args.shards)
            for r in range(replication)
        ]
        return fleet, [f"127.0.0.1:{s.address[1]}" for s in fleet]

    def wait_wal_closed(server):
        """CrashAfter/stop release the WAL from a helper thread."""
        deadline = time.perf_counter() + 10.0
        while server._wal._fh is not None and time.perf_counter() < deadline:
            time.sleep(0.01)

    total_points = scenario.archive.num_points
    wal_ingest = {}
    for policy in ("always", "interval", "off"):
        fleet, fleet_addrs = start_wal_fleet(f"ingest-{policy}", fsync=policy)
        t0 = time.perf_counter()
        ingest = convert_archive(
            scenario.archive, "remote", args.tile_size, fleet_addrs
        )
        t_ingest = time.perf_counter() - t0
        policy_wal = ingest.backend_stats()["wal"]
        ingest.close()
        unflushed_at_close = sum(s.stop() for s in fleet)
        t0 = time.perf_counter()
        reborn_fleet = [
            ArchiveShardServer(
                i,
                args.shards,
                args.tile_size,
                wal_dir=wal_root / f"ingest-{policy}" / f"shard{i}-r0",
                fsync=policy,
            )
            for i in range(args.shards)
        ]
        t_recover = time.perf_counter() - t0
        recovered_points = sum(s.num_points for s in reborn_fleet)
        for server in reborn_fleet:
            server.start()
            server.stop()
        wal_ingest[policy] = {
            "ingest_s": round(t_ingest, 4),
            "points_per_s": round(total_points / t_ingest, 1),
            "records_appended": policy_wal["records_appended"],
            "fsyncs": policy_wal["fsyncs"],
            "unflushed_at_close": unflushed_at_close,
            "recovery_s": round(t_recover, 4),
            "recovery_complete": recovered_points == total_points,
        }
        print(
            f"wal ingest fsync={policy:8s}: {t_ingest:.3f}s "
            f"({total_points / t_ingest:.0f} pts/s, "
            f"{policy_wal['fsyncs']} fsyncs), recovery {t_recover:.3f}s "
            f"({'OK' if recovered_points == total_points else 'FAIL: lossy'})"
        )

    # Kill-mid-append recovery: identity against the seed baseline.
    wal_servers, wal_addrs = start_wal_fleet("recovery")
    crash_nth = 3
    wal_servers[0].fault_hook = CrashAfter(wal_servers[0], op="insert", nth=crash_nth)
    crash_seen = False
    try:
        convert_archive(scenario.archive, "remote", args.tile_size, wal_addrs)
    except ShardUnavailableError:
        crash_seen = True
    wait_wal_closed(wal_servers[0])
    t0 = time.perf_counter()
    reborn0 = ArchiveShardServer(
        0,
        args.shards,
        args.tile_size,
        wal_dir=wal_root / "recovery" / "shard0-r0",
    ).start()
    t_wal_recover = time.perf_counter() - t0
    recovered_lsn = reborn0._lsn
    wal_addrs[0] = f"127.0.0.1:{reborn0.address[1]}"
    # Idempotent re-push of the whole feed: rows acked pre-crash are
    # already resident and append nothing; only the lost tail journals.
    wal_remote = convert_archive(scenario.archive, "remote", args.tile_size, wal_addrs)
    h_walrec = HRIS(scenario.network, wal_remote, HRISConfig())
    res_walrec, __ = time_sequential(h_walrec, queries)
    walrec_wal = wal_remote.backend_stats()["wal"]
    wal_remote.close()
    for server in [reborn0] + wal_servers[1:]:
        server.stop()
    print(
        f"wal recovery (shard 0 killed on insert #{crash_nth}): "
        f"crash {'seen' if crash_seen else 'MISSED'}, "
        f"recovered lsn {recovered_lsn} in {t_wal_recover * 1e3:.1f}ms, "
        f"re-push left {walrec_wal['unflushed_records']} unflushed"
    )

    # Replica log catch-up: kill a replica, mutate past it, restart it on
    # the same port, and let the breaker probe repair it by log replay.
    cu_servers, cu_addrs = start_wal_fleet("catchup", replication=args.replication)
    catchup = RemoteShardedArchive(
        cu_addrs,
        replication=args.replication,
        breaker_cooldown_s=0.05,
        jitter_seed=0,
    )
    trip_ids = sorted(scenario.archive._trajectories)
    missed = max(1, len(trip_ids) // 10)
    for tid in trip_ids[:-missed]:
        catchup._restore(scenario.archive._trajectories[tid])
    dead = cu_servers[0]  # replica 0 of shard 0
    dead_port = dead.address[1]
    dead.stop()
    wait_wal_closed(dead)
    for tid in trip_ids[-missed:]:  # mutations the dead replica misses
        catchup._restore(scenario.archive._trajectories[tid])
    catchup._next_id = max(catchup._next_id, scenario.archive._next_id)
    revived = ArchiveShardServer(
        0,
        args.shards,
        args.tile_size,
        replica_id=0,
        port=dead_port,
        wal_dir=wal_root / "catchup" / "shard0-r0",
    ).start()
    time.sleep(0.1)  # let the breaker cooldown lapse so probes fire
    h_catchup = HRIS(scenario.network, catchup, HRISConfig())
    res_catchup, __ = time_sequential(h_catchup, queries)
    catchup_stats = catchup.backend_stats()
    catchup.close()
    for server in [revived] + cu_servers[1:]:
        server.stop()
    shutil.rmtree(wal_root, ignore_errors=True)
    catchup_repaired = (
        catchup_stats["catchups"] >= 1
        and catchup_stats["healthy_replicas"] == catchup_stats["total_replicas"]
    )
    print(
        f"replica catch-up ({args.shards}x{args.replication}, replica 0 of "
        f"shard 0 missed {missed} trips): catchups="
        f"{catchup_stats['catchups']}, "
        f"{catchup_stats['catchup_records']} records replayed, "
        f"{catchup_stats['healthy_replicas']}/{catchup_stats['total_replicas']} "
        f"replicas healthy ({'OK' if catchup_repaired else 'FAIL: not repaired'})"
    )

    # --- query gateway: the HTTP serving tier over loopback ---------------
    # Identity phase first: every query through the wire, sequentially —
    # JSON round-trips floats exactly, so the served routes and scores
    # must match the seed baseline bit for bit.  Then an open-loop load
    # generator: arrivals on a fixed schedule at the offered QPS, one
    # connection per request, so a slow reply never delays the next
    # arrival and queueing shows up as latency (or 429s), not as a
    # slower client.
    import threading  # noqa: E402

    from repro.serve import (  # noqa: E402
        GatewayClient,
        GatewayConfig,
        InferenceGateway,
        hris_backends,
    )
    from repro.serve.metrics import percentile as nearest_rank  # noqa: E402

    gw_workers = args.workers
    h_gw = HRIS(scenario.network, scenario.archive, HRISConfig())
    gateway = InferenceGateway(
        hris_backends(h_gw, gw_workers),
        GatewayConfig(max_inflight=4 * gw_workers, max_queue=4 * gw_workers),
    )
    gw_host, gw_port = gateway.start()

    gw_identity_keys = []
    with GatewayClient(gw_host, gw_port) as client:
        for query in queries:
            reply = client.infer(query)
            if reply.status != 200:
                raise RuntimeError(f"gateway identity phase: {reply.payload}")
            gw_identity_keys.append(reply.route_keys())

    offered_qps = args.qps
    if not offered_qps:
        # Offer ~80% of the measured sequential capacity so the
        # committed numbers show sustained serving, not pure shed.
        # Inference is CPU-bound Python, so extra workers buy queueing
        # depth and coalescing, not throughput — no worker multiplier.
        offered_qps = round(0.8 * len(queries) / t_engine, 2)
    n_requests = min(4 * len(queries), 240)
    gw_lock = threading.Lock()
    gw_samples = []  # (status, latency_s)

    def fire(query, fire_at):
        time.sleep(max(0.0, fire_at - time.perf_counter()))
        t0 = time.perf_counter()
        try:
            with GatewayClient(gw_host, gw_port) as c:
                status = c.infer(query).status
        except OSError:
            status = -1
        dt = time.perf_counter() - t0
        with gw_lock:
            gw_samples.append((status, dt))

    load_start = time.perf_counter() + 0.2
    gens = [
        threading.Thread(
            target=fire,
            args=(queries[i % len(queries)], load_start + i / offered_qps),
            daemon=True,
        )
        for i in range(n_requests)
    ]
    for th in gens:
        th.start()
    for th in gens:
        th.join()
    gw_wall = time.perf_counter() - load_start
    with GatewayClient(gw_host, gw_port) as client:
        gw_metrics = client.metrics().payload
    gateway.stop()

    gw_ok_lat = sorted(dt for st, dt in gw_samples if st == 200)
    gw_shed = sum(1 for st, __ in gw_samples if st == 429)
    gw_errors = sum(1 for st, __ in gw_samples if st not in (200, 429))
    gw_coalesced = gw_metrics["endpoints"]["/v1/infer"]["coalesced"]
    print(
        f"gateway ({gw_workers} workers, open loop {offered_qps:.1f} qps "
        f"offered): {len(gw_ok_lat)}/{n_requests} served in {gw_wall:.3f}s "
        f"({len(gw_ok_lat) / gw_wall:.1f} qps), {gw_shed} shed, "
        f"{gw_coalesced} coalesced, "
        f"p99={nearest_rank(gw_ok_lat, 99.0) * 1e3:.1f}ms"
    )

    # --- identity: every configuration must agree exactly -----------------
    ref = result_keys(res_seed)
    identical = {
        "engine_vs_seed": result_keys(res_engine) == ref,
        "batch1_vs_seed": result_keys(res_b1) == ref,
        "batch_vs_seed": result_keys(res_bn) == ref,
        "forced_pool_vs_seed": result_keys(res_bf) == ref,
        "remote_vs_seed": result_keys(res_remote) == ref,
        "replicated_degraded_vs_seed": result_keys(res_rep) == ref,
        "wal_recovery_vs_seed": result_keys(res_walrec) == ref and crash_seen,
        "replica_catchup_vs_seed": result_keys(res_catchup) == ref
        and catchup_repaired,
        "gateway_vs_seed": gw_identity_keys == ref,
    }
    print(f"identity: {identical}")
    accuracy = sum(
        route_accuracy(scenario.network, truth, routes[0].route)
        for (__, truth), routes in zip(cases, res_seed)
        if routes
    ) / len(cases)

    report = {
        "benchmark": "bench_throughput",
        "smoke": args.smoke,
        "machine": {
            "cpu_count": multiprocessing.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workload": {
            "scenario": "standard_scenario(seed=7)",
            "n_queries": len(queries),
            "interval_s": args.interval,
            "workers": args.workers,
            "mean_accuracy_AL": round(accuracy, 4),
        },
        "seed_baseline": {
            "total_s": round(t_seed, 4),
            "mean_latency_s": round(t_seed / len(queries), 4),
        },
        "engine_sequential": {
            "total_s": round(t_engine, 4),
            "mean_latency_s": round(t_engine / len(queries), 4),
            "settled_nodes_per_query": round(
                engine_stats["settled_nodes"] / len(queries), 2
            ),
            "stats": engine_stats,
        },
        "matcher_preprocessing": {
            "grid_nodes": match_nodes,
            "trajectories": len(match_trajs),
            "points": sum(len(t) for t in match_trajs),
            "total_s": round(t_match, 4),
            "settled_nodes": match_stats.settled_nodes,
            "sweeps": match_stats.sweeps,
        },
        "batch": {
            "workers_1_total_s": round(t_b1, 4),
            f"workers_{args.workers}_total_s": round(t_bn, 4),
            f"workers_{args.workers}_forced_pool_total_s": round(t_forced, 4),
            "queries_per_s": round(len(queries) / t_bn, 3),
        },
        "remote_archive": {
            "num_shards": args.shards,
            "tile_size_m": args.tile_size,
            "total_s": round(t_remote, 4),
            "mean_latency_s": round(t_remote / len(queries), 4),
            "queries_per_s": round(len(queries) / t_remote, 3),
            "overhead_vs_engine": round(t_remote / t_engine, 3),
            "requests": len(rpc),
            "request_latency_s": {
                "p50": round(percentile(rpc, 0.50), 6),
                "p90": round(percentile(rpc, 0.90), 6),
                "p99": round(percentile(rpc, 0.99), 6),
                "max": round(rpc[-1], 6),
            },
            "per_shard": [
                {
                    "shard": s["shard_index"],
                    "num_points": s["num_points"],
                    "num_tiles": s["num_tiles"],
                    "resident_points": s["resident_points"],
                    "resident_tiles": s["resident_tiles"],
                    "index_bytes": s["index_bytes"],
                }
                for s in shard_stats
            ],
        },
        "replicated_archive": {
            "num_shards": args.shards,
            "replication": args.replication,
            "killed": {"shard": 0, "replica": 0, "before_query": kill_at},
            "total_s": round(t_rep, 4),
            "mean_latency_s": round(t_rep / len(queries), 4),
            "first_post_kill_query_s": round(failover_latency, 4),
            "overhead_vs_unreplicated": round(t_rep / t_remote, 3),
            "failovers": rep_stats["failovers"],
            "demotions": rep_stats["demotions"],
            "healthy_replicas": rep_stats["healthy_replicas"],
            "total_replicas": rep_stats["total_replicas"],
            "per_shard_health": rep_health,
        },
        "wal_durability": {
            "fsync_policies": wal_ingest,
            "crash_recovery": {
                "killed_on_insert": crash_nth,
                "crash_seen": crash_seen,
                "recovered_lsn": recovered_lsn,
                "recovery_s": round(t_wal_recover, 4),
                "wal_after_repush": walrec_wal,
            },
            "replica_catchup": {
                "num_shards": args.shards,
                "replication": args.replication,
                "missed_trips": missed,
                "catchups": catchup_stats["catchups"],
                "catchup_records": catchup_stats["catchup_records"],
                "restorations": catchup_stats["restorations"],
                "healthy_replicas": catchup_stats["healthy_replicas"],
                "total_replicas": catchup_stats["total_replicas"],
                "repaired": catchup_repaired,
            },
        },
        "gateway": {
            "workers": gw_workers,
            "max_inflight": 4 * gw_workers,
            "max_queue": 4 * gw_workers,
            "open_loop": {
                "offered_qps": offered_qps,
                "requests": n_requests,
                "served": len(gw_ok_lat),
                "shed_429": gw_shed,
                "errors": gw_errors,
                "coalesced": gw_coalesced,
                "wall_s": round(gw_wall, 4),
                "achieved_qps": round(len(gw_ok_lat) / gw_wall, 3),
                "latency_s": {
                    "p50": round(nearest_rank(gw_ok_lat, 50.0), 6),
                    "p90": round(nearest_rank(gw_ok_lat, 90.0), 6),
                    "p99": round(nearest_rank(gw_ok_lat, 99.0), 6),
                    "max": round(gw_ok_lat[-1], 6) if gw_ok_lat else 0.0,
                },
            },
        },
        "speedups": {
            "single_query_engine_vs_seed": round(t_seed / t_engine, 3),
            "batch_vs_seed_baseline": round(t_seed / t_bn, 3),
            "batch_vs_engine_sequential": round(t_engine / t_bn, 3),
        },
        "identical_results": identical,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {out}")
    print(
        f"single-query speedup {report['speedups']['single_query_engine_vs_seed']}x, "
        f"batch speedup {report['speedups']['batch_vs_seed_baseline']}x vs seed"
    )
    return 0 if all(identical.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
