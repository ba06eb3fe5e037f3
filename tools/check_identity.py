#!/usr/bin/env python
"""Identity gate: prove a configuration reproduces the seed routes exactly.

Every optimisation in this repository must change *when* work happens,
never *what* is computed — the top-K routes and scores of every engine
and archive configuration are required to be bit-identical to the seed
baseline.  This tool is the single parameterised gate behind that
rule, in two modes:

**Report mode** (CI): check the ``identical_results`` block of a
benchmark report written by ``benchmarks/bench_throughput.py``::

    python tools/check_identity.py --report benchmarks/results/BENCH_throughput_smoke.json \
        --require engine_vs_seed remote_vs_seed gateway_vs_seed

Exits non-zero when any required key — or any key at all — is false.
``--expect-degraded`` additionally asserts the replicated fleet really
lost a replica during the run (otherwise the degraded-mode gate proves
nothing).

**Live mode**: build the named configuration and the seed baseline on the
standard scenario, infer every query through both, and diff the routes::

    PYTHONPATH=src python tools/check_identity.py --config no_landmarks --queries 8

Configurations are named in ``_configs``; each is expected to be
results-identical to the seed by construction.  The ``remote``
configuration spins up a loopback shard fleet, so the diff also covers
the ``repro-remote-v5`` range queries and the client's canonical merge
of per-shard answers.  ``wal_recovery`` is the durability gate: it
spawns real ``repro archive-serve --wal-dir`` subprocesses, SIGKILLs one
mid-ingest, restarts it from its write-ahead log on disk, idempotently
re-pushes the feed and requires bit-identical routes — a process death
must never change an answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _configs():
    """Named identity-preserving configurations (lazily imported)."""
    from repro.core.system import HRISConfig

    return {
        "engine": HRISConfig(),
        "no_landmarks": HRISConfig(n_landmarks=0),
        # Range queries served by a loopback shard fleet (repro-remote-v5);
        # check_live swaps the archive for a RemoteShardedArchive.
        "remote": HRISConfig(),
        # Served over HTTP by a loopback InferenceGateway; check_live
        # replays every query through the wire and diffs the JSON routes.
        "gateway": HRISConfig(),
        # Durability: real archive-serve subprocesses with on-disk WALs,
        # one SIGKILLed mid-ingest and restarted from its log; check_live
        # rebuilds the fleet client against the recovered processes.
        "wal_recovery": HRISConfig(),
    }


def check_report(path: Path, require, expect_degraded: bool) -> int:
    report = json.loads(path.read_text(encoding="utf-8"))
    identical = report["identical_results"]
    print(json.dumps(identical, indent=2))
    status = 0
    for key in require:
        if key not in identical:
            print(f"FAIL: required identity key {key!r} missing from report")
            status = 1
        elif not identical[key]:
            print(f"FAIL: {key} produced different top-K routes")
            status = 1
    if not all(identical.values()):
        bad = [k for k, v in identical.items() if not v]
        print(f"FAIL: non-identical configurations: {', '.join(bad)}")
        status = 1
    if expect_degraded:
        degraded = report["replicated_archive"]
        print(
            f"degraded fleet: {degraded['healthy_replicas']}/"
            f"{degraded['total_replicas']} replicas healthy, "
            f"{degraded['failovers']} failovers"
        )
        if degraded["healthy_replicas"] >= degraded["total_replicas"]:
            print("FAIL: the kill did not degrade the fleet — gate proved nothing")
            status = 1
    if status == 0:
        print("identity gate passed")
    return status


def check_live(config_name: str, n_queries: int, interval: float) -> int:
    from repro.core.system import HRIS
    from repro.eval.harness import standard_scenario
    from repro.trajectory.resample import downsample

    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_throughput import SEED_BASELINE, result_keys

    configs = _configs()
    if config_name not in configs:
        print(f"unknown config {config_name!r}; choose from {sorted(configs)}")
        return 2

    scenario = standard_scenario(seed=7, n_queries=n_queries)
    queries = [
        q
        for q in (downsample(c.query, interval) for c in scenario.queries)
        if len(q) >= 2
    ]
    print(f"{len(queries)} queries · config {config_name!r} vs seed baseline")

    servers = []
    procs = []
    wal_root = None
    archive = scenario.archive
    if config_name == "remote":
        from repro.core.archive import convert_archive
        from repro.core.remote import ArchiveShardServer

        num_shards, tile_size = 2, 800.0
        servers = [
            ArchiveShardServer(i, num_shards, tile_size).start()
            for i in range(num_shards)
        ]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        archive = convert_archive(scenario.archive, "remote", tile_size, addrs)
        print(f"loopback fleet: {num_shards} shards, tile={tile_size:.0f}m")
    elif config_name == "wal_recovery":
        import os
        import re
        import subprocess
        import tempfile

        from repro.core.archive import convert_archive, make_archive
        from repro.core.remote import ShardUnavailableError

        num_shards, tile_size = 2, 800.0
        wal_root = Path(tempfile.mkdtemp(prefix="repro-wal-gate-"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        announce_re = re.compile(r"serving .+ on ([\d.]+):(\d+),")

        def spawn(shard_index: int):
            proc = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "archive-serve",
                    "--shard-index",
                    str(shard_index),
                    "--num-shards",
                    str(num_shards),
                    "--tile-size",
                    str(tile_size),
                    "--wal-dir",
                    str(wal_root / f"shard{shard_index}"),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
                cwd=str(REPO_ROOT),
            )
            while True:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"shard {shard_index} exited before announcing "
                        f"(rc={proc.poll()})"
                    )
                match = announce_re.search(line)
                if match:
                    return proc, f"{match.group(1)}:{match.group(2)}"

        addrs = []
        for i in range(num_shards):
            proc, addr = spawn(i)
            procs.append(proc)
            addrs.append(addr)
        print(f"subprocess fleet: {num_shards} shards with WALs under {wal_root}")

        # Stream trips in and SIGKILL shard 0 halfway through: no clean
        # shutdown, no final fsync beyond what each ack already forced.
        feeder = make_archive("remote", tile_size, addrs)
        trips = [scenario.archive._trajectories[t] for t in sorted(scenario.archive._trajectories)]
        kill_at = len(trips) // 2
        crash_seen = False
        try:
            for j, trip in enumerate(trips):
                if j == kill_at:
                    procs[0].kill()
                    procs[0].wait(timeout=10)
                feeder._restore(trip)
        except ShardUnavailableError:
            crash_seen = True
        feeder.close()
        if not crash_seen:
            print("FAIL: SIGKILL of shard 0 was never observed by the feeder")
            return 1
        print(f"killed shard 0 (-9) after {kill_at}/{len(trips)} trips")

        # Restart from the same WAL directory, then re-push the whole
        # feed with a fresh client: acknowledged rows were recovered from
        # the log, so the re-push is idempotent by construction.
        proc0, addr0 = spawn(0)
        procs[0] = proc0
        addrs[0] = addr0
        archive = convert_archive(scenario.archive, "remote", tile_size, addrs)
        print("restarted shard 0 from its WAL and re-pushed the feed")

    try:
        h_seed = HRIS(scenario.network, scenario.archive, SEED_BASELINE)
        h_cfg = HRIS(scenario.network, archive, configs[config_name])
        ref = result_keys([h_seed.infer_routes(q) for q in queries])
        if config_name == "gateway":
            from repro.serve import (
                GatewayClient,
                GatewayConfig,
                InferenceGateway,
                hris_backends,
            )

            gateway = InferenceGateway(
                hris_backends(h_cfg, 2), GatewayConfig(max_inflight=4, max_queue=4)
            )
            host, port = gateway.start()
            print(f"loopback gateway: http://{host}:{port} (2 workers)")
            try:
                with GatewayClient(host, port) as client:
                    replies = [client.infer(q) for q in queries]
                for reply in replies:
                    if reply.status != 200:
                        print(f"FAIL: gateway returned {reply.status}: {reply.payload}")
                        return 1
                got = [reply.route_keys() for reply in replies]
            finally:
                gateway.stop()
        else:
            got = result_keys([h_cfg.infer_routes(q) for q in queries])
    finally:
        if archive is not scenario.archive:
            archive.close()
        for server in servers:
            server.stop()
        for proc in procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except Exception:
                    proc.kill()
        if wal_root is not None:
            import shutil

            shutil.rmtree(wal_root, ignore_errors=True)

    diverged = [i for i, (a, b) in enumerate(zip(ref, got)) if a != b]
    if diverged:
        for i in diverged:
            print(f"FAIL: query {i} diverged")
            print(f"  seed: {ref[i]}")
            print(f"  {config_name}: {got[i]}")
        return 1
    print(f"identical top-K routes and scores on all {len(queries)} queries")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--report", type=Path, help="benchmark report JSON to gate")
    mode.add_argument("--config", help="configuration name for a live diff")
    parser.add_argument(
        "--require",
        nargs="*",
        default=[],
        metavar="KEY",
        help="identity keys that must be present and true in the report",
    )
    parser.add_argument(
        "--expect-degraded",
        action="store_true",
        help="assert the replicated fleet lost a replica during the run",
    )
    parser.add_argument("--queries", type=int, default=8, help="live-mode queries")
    parser.add_argument(
        "--interval", type=float, default=300.0, help="live-mode sampling interval (s)"
    )
    args = parser.parse_args(argv)

    if args.report is not None:
        return check_report(args.report, args.require, args.expect_degraded)
    return check_live(args.config, args.queries, args.interval)


if __name__ == "__main__":
    raise SystemExit(main())
