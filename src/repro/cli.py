"""Command-line interface.

Five subcommands cover the generate → infer → evaluate loop — plus the
two long-running services — without writing any Python:

* ``generate``      — build a synthetic scenario and save it to a directory;
* ``infer``         — run HRIS on one saved query and print the top-K routes;
* ``evaluate``      — compare HRIS and the baselines across sampling
  intervals;
* ``serve``         — run the async HTTP/JSON query gateway: online HRIS
  inference behind admission control, request coalescing and graceful
  drain (see ``docs/serving.md``);
* ``archive-serve`` — run one archive shard server: the process owns a
  subset of spatial tiles, answers the reference search's range queries
  for them, and (``repro-remote-v4``) optionally journals every
  mutation to a durable write-ahead log (``--wal-dir``) so a killed
  shard restarts with its acknowledged state intact (see
  ``docs/distributed.md``).

``infer``, ``evaluate`` and ``serve`` pick the archive backend with
``--archive-backend {memory,remote}``: one in-process R-tree, or fan-out
to ``archive-serve`` processes named by repeated ``--shard-addr
host:port`` flags.  Results are identical whichever backend serves the
queries.

Usage::

    python -m repro.cli generate --out world/ --seed 7
    python -m repro.cli infer --world world/ --query 0 --interval 180 --k 5
    python -m repro.cli evaluate --world world/ --intervals 180 420 900
    python -m repro.cli serve --world world/ --port 8080 --workers 2
    python -m repro.cli archive-serve --port 7701 --shard-index 0 --num-shards 2
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.core.archive import ARCHIVE_BACKENDS
from repro.core.system import HRIS, HRISConfig
from repro.datasets.io import load_scenario, save_scenario
from repro.datasets.synthetic import ScenarioConfig, build_scenario
from repro.eval.harness import ExperimentTable, evaluate_accuracy, evaluate_accuracy_batch
from repro.eval.metrics import route_accuracy
from repro.mapmatching import IncrementalMatcher, IVMMMatcher, STMatcher
from repro.roadnet.generators import GridCityConfig
from repro.roadnet.io import load_landmarks, save_landmarks
from repro.roadnet.network import RoadNetwork
from repro.roadnet.shortest_path import LandmarkIndex
from repro.trajectory.resample import downsample

__all__ = ["main", "build_parser"]

#: Landmark-index cache file stored next to a saved world's network.
LANDMARKS_FILE = "landmarks.json"

#: Mirrors ``ArchiveShardServer.DEFAULT_COMPACT_EVERY`` without importing
#: the remote module at parser-build time (server imports stay lazy).
_DEFAULT_COMPACT_EVERY = 4096


class _CLIError(Exception):
    """A usage error detected after parsing (printed to stderr, exit 2)."""


def _add_archive_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--archive-backend",
        choices=ARCHIVE_BACKENDS,
        default="memory",
        help=(
            "spatial archive backend: 'memory' holds one R-tree over all "
            "points, 'remote' fans queries out to archive-serve shard "
            "processes (identical results either way)"
        ),
    )
    cmd.add_argument(
        "--tile-size",
        type=float,
        default=None,
        help=(
            "expected tile side in metres of the archive-serve fleet for "
            "--archive-backend remote (the handshake checks it)"
        ),
    )
    cmd.add_argument(
        "--shard-addr",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help=(
            "address of one archive-serve shard (repeat per shard, and per "
            "replica when the fleet is replicated); required with "
            "--archive-backend remote"
        ),
    )
    cmd.add_argument(
        "--replication",
        type=int,
        default=None,
        metavar="R",
        help=(
            "expected replicas per shard for --archive-backend remote: the "
            "handshake then fails unless every shard index is served by "
            "exactly R of the given --shard-addr processes"
        ),
    )
    cmd.add_argument(
        "--no-landmark-cache",
        action="store_true",
        help=(
            "do not reuse/persist the ALT landmark index next to the "
            "saved world (landmarks.json)"
        ),
    )


def _landmark_index_for(
    world: Path, network: RoadNetwork, n_landmarks: int, enabled: bool
) -> Optional[LandmarkIndex]:
    """Reuse a persisted landmark index for a saved world, or build + save.

    The index is exact and a pure function of the network, so a cached
    copy whose landmark count and node coverage match is interchangeable
    with a fresh build.  Returns ``None`` when caching is off or ALT is
    disabled — HRIS then builds (or skips) its own.
    """
    if not enabled or n_landmarks <= 0:
        return None
    expected = min(n_landmarks, network.num_nodes)
    path = world / LANDMARKS_FILE
    if path.exists():
        try:
            index = load_landmarks(path)
        except (ValueError, OSError, KeyError, TypeError):
            index = None
        if (
            index is not None
            and len(index) == expected
            and all(network.has_node(lid) for lid in index.landmarks)
        ):
            return index
    index = LandmarkIndex.build(network, n_landmarks)
    try:
        save_landmarks(index, path)
    except OSError:
        pass  # read-only world dir: still usable, just not cached
    return index


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HRIS: history-based route inference (ICDE 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate and save a scenario")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--grid", type=int, default=14, help="grid side (nodes)")
    gen.add_argument("--od-pairs", type=int, default=8)
    gen.add_argument("--trips", type=int, default=240)
    gen.add_argument("--queries", type=int, default=8)
    gen.add_argument(
        "--min-od-km",
        type=float,
        default=None,
        help="minimum OD separation in km (default: 60%% of the grid extent)",
    )

    inf = sub.add_parser("infer", help="infer routes for one saved query")
    inf.add_argument("--world", required=True, help="scenario directory")
    inf.add_argument("--query", type=int, default=0, help="query index")
    inf.add_argument(
        "--interval", type=float, default=180.0, help="sampling interval (s)"
    )
    inf.add_argument("--k", type=int, default=5, help="routes to suggest")
    inf.add_argument(
        "--method",
        choices=("hybrid", "tgi", "nni"),
        default="hybrid",
        help="local inference method",
    )
    _add_archive_options(inf)

    ev = sub.add_parser("evaluate", help="compare HRIS against the baselines")
    ev.add_argument("--world", required=True, help="scenario directory")
    ev.add_argument(
        "--intervals",
        type=float,
        nargs="+",
        default=[180.0, 420.0, 900.0],
        help="sampling intervals (s)",
    )
    ev.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "worker processes for the HRIS batch path (results are "
            "identical at any worker count; >1 pays off on multi-core)"
        ),
    )
    _add_archive_options(ev)

    gw = sub.add_parser(
        "serve",
        help=(
            "serve HRIS inference over HTTP/JSON: bounded admission "
            "queue with 429 load-shedding, request coalescing, "
            "per-endpoint latency metrics and graceful drain on SIGTERM "
            "(see docs/serving.md)"
        ),
    )
    gw.add_argument("--world", required=True, help="scenario directory")
    gw.add_argument("--host", default="127.0.0.1", help="bind address")
    gw.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks one; it is printed)"
    )
    gw.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "inference workers: each owns a private HRIS clone (shared "
            "network/archive/landmarks, private caches) so concurrent "
            "requests never contend — results are identical at any count"
        ),
    )
    gw.add_argument(
        "--max-inflight",
        type=int,
        default=16,
        help=(
            "admitted (queued + executing) inference jobs before new "
            "requests are shed with HTTP 429"
        ),
    )
    gw.add_argument(
        "--max-queue",
        type=int,
        default=16,
        help="jobs waiting for a worker before new requests are shed",
    )
    _add_archive_options(gw)

    serve = sub.add_parser(
        "archive-serve",
        help=(
            "serve one shard of the archive over a socket (repro-remote-v4: "
            "spatial range queries and durable WAL ingest with replica log "
            "catch-up)"
        ),
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=0, help="bind port (0 picks one; it is printed)"
    )
    serve.add_argument(
        "--shard-index", type=int, default=None, help="this shard's index"
    )
    serve.add_argument(
        "--replica-of",
        type=int,
        default=None,
        metavar="SHARD",
        help=(
            "serve as an additional replica of the given shard index "
            "(alternative to --shard-index; replicas of a shard must "
            "receive the same mutation stream to stay interchangeable)"
        ),
    )
    serve.add_argument(
        "--replica-id",
        type=int,
        default=0,
        help="label for this process within its shard's replica set",
    )
    serve.add_argument(
        "--num-shards", type=int, required=True, help="total shards in the fleet"
    )
    serve.add_argument(
        "--tile-size",
        type=float,
        default=1_000.0,
        help="tile side in metres (must match every shard and client; default 1000)",
    )
    serve.add_argument(
        "--world",
        default=None,
        help=(
            "optional scenario directory to pre-seed this shard's tiles "
            "from (clients may then attach instead of pushing points)"
        ),
    )
    serve.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help=(
            "write-ahead-log directory for durable ingest: every mutation "
            "is journalled before it is acknowledged and the shard "
            "recovers its state from the log on restart (omit to serve "
            "from memory only)"
        ),
    )
    serve.add_argument(
        "--fsync",
        default="always",
        choices=["always", "interval", "off"],
        help=(
            "WAL fsync policy: 'always' fsyncs each append before the ack, "
            "'interval' batches fsyncs (see --fsync-interval), 'off' only "
            "flushes (process-crash safe, power-fail unsafe)"
        ),
    )
    serve.add_argument(
        "--fsync-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="minimum seconds between fsyncs under --fsync interval",
    )
    serve.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="RECORDS",
        help=(
            "rotate the WAL (snapshot + fresh log) once this many records "
            "accumulate since the last snapshot (0 disables compaction; "
            f"default {_DEFAULT_COMPACT_EVERY})"
        ),
    )
    return parser


def _load_world(args: argparse.Namespace):
    """``load_scenario`` for infer/evaluate/serve, with flag validation."""
    from repro.core.remote import parse_address

    if args.archive_backend == "remote" and not args.shard_addr:
        raise _CLIError(
            "--archive-backend remote needs at least one --shard-addr host:port"
        )
    if args.shard_addr and args.archive_backend != "remote":
        raise _CLIError("--shard-addr only applies to --archive-backend remote")
    if args.tile_size is not None and args.archive_backend != "remote":
        raise _CLIError("--tile-size only applies to --archive-backend remote")
    for addr in args.shard_addr or ():
        try:
            parse_address(addr)
        except ValueError as exc:
            raise _CLIError(f"bad --shard-addr {addr!r}: {exc}")
    if args.replication is not None:
        if args.archive_backend != "remote":
            raise _CLIError("--replication only applies to --archive-backend remote")
        if args.replication < 1:
            raise _CLIError("--replication must be a positive replica count")
        # R replicas of every shard means R·num_shards addresses: any
        # non-multiple count cannot possibly satisfy the handshake, so
        # refuse the conflicting combination before dialling the fleet.
        if len(args.shard_addr) % args.replication != 0:
            raise _CLIError(
                f"{len(args.shard_addr)} --shard-addr address(es) cannot form "
                f"replica sets of exactly --replication {args.replication}: "
                f"the address count must be a multiple of the replica count"
            )
    # The gateway's workers issue shard requests concurrently: give the
    # remote client one pooled connection per worker (see
    # _ShardConnectionPool).  Identical results at any pool size.
    pool_size = None
    if args.archive_backend == "remote" and args.command == "serve":
        pool_size = max(1, args.workers)
    return load_scenario(
        args.world,
        archive_backend=args.archive_backend,
        tile_size=args.tile_size,
        shard_addrs=args.shard_addr,
        replication=args.replication,
        pool_size=pool_size,
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    grid = GridCityConfig(nx=args.grid, ny=args.grid)
    if args.min_od_km is not None:
        min_od = args.min_od_km * 1000.0
    else:
        # Scale to the generated city so small grids stay generatable.
        min_od = 0.6 * (args.grid - 1) * grid.spacing
    config = ScenarioConfig(
        grid=grid,
        n_od_pairs=args.od_pairs,
        min_od_distance=min_od,
        n_archive_trips=args.trips,
        n_queries=args.queries,
        seed=args.seed,
    )
    print(
        f"Generating scenario: {args.grid}x{args.grid} grid, "
        f"{args.trips} trips, {args.queries} queries (seed {args.seed})..."
    )
    scenario = build_scenario(config)
    out = save_scenario(scenario, args.out)
    print(
        f"Saved to {out}: {scenario.network.num_segments} segments, "
        f"{len(scenario.archive)} trips, {len(scenario.queries)} queries."
    )
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise _CLIError("--k must be at least 1")
    # Negated, so that NaN (every comparison false) is refused too.
    if not args.interval > 0:
        raise _CLIError("--interval must be positive")
    scenario = _load_world(args)
    if not (0 <= args.query < len(scenario.queries)):
        print(
            f"error: query index {args.query} out of range "
            f"[0, {len(scenario.queries) - 1}]",
            file=sys.stderr,
        )
        return 2
    case = scenario.queries[args.query]
    query = downsample(case.query, args.interval)
    config = HRISConfig(local_method=args.method)
    hris = HRIS(
        scenario.network,
        scenario.archive,
        config,
        landmark_index=_landmark_index_for(
            Path(args.world),
            scenario.network,
            config.n_landmarks,
            enabled=not args.no_landmark_cache,
        ),
    )
    routes, detail = hris.infer_routes_with_details(query, args.k)
    print(
        f"Query {args.query}: {len(query)} points at "
        f"{query.mean_sampling_interval:.0f}s "
        f"({detail.total_time_s:.2f}s inference)"
    )
    for rank, g in enumerate(routes, start=1):
        acc = route_accuracy(scenario.network, case.truth, g.route)
        print(
            f"  #{rank}: log-score={g.log_score:9.3f}  "
            f"length={g.route.length(scenario.network) / 1000.0:6.2f} km  "
            f"A_L={acc:.3f}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if not all(interval > 0 for interval in args.intervals):
        raise _CLIError("--intervals must all be positive")
    scenario = _load_world(args)
    network = scenario.network
    config = HRISConfig()
    hris = HRIS(
        network,
        scenario.archive,
        config,
        landmark_index=_landmark_index_for(
            Path(args.world),
            network,
            config.n_landmarks,
            enabled=not args.no_landmark_cache,
        ),
    )
    # Competitors share the HRIS engine: same candidate cache, stitch
    # bridges and transition oracles — results are identical to
    # standalone construction, only the work is shared.
    matchers = {
        "IVMM": IVMMMatcher(network, engine=hris.engine),
        "ST-matching": STMatcher(network, engine=hris.engine),
        "incremental": IncrementalMatcher(network, engine=hris.engine),
    }
    table = ExperimentTable("accuracy vs sampling interval", "interval_min")
    for interval in args.intervals:
        # HRIS goes through the batch path: identical results, shared
        # warm caches, and optional multi-process fan-out.
        acc, __ = evaluate_accuracy_batch(
            network, hris, scenario.queries, interval, workers=args.workers
        )
        table.record(round(interval / 60.0, 1), "HRIS", acc)
        for name, matcher in matchers.items():
            acc = evaluate_accuracy(network, matcher, scenario.queries, interval)
            table.record(round(interval / 60.0, 1), name, acc)
    print(table.format())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import GatewayConfig, InferenceGateway, hris_backends

    if args.workers < 1:
        raise _CLIError("--workers must be at least 1")
    if args.max_inflight < 1:
        raise _CLIError("--max-inflight must be at least 1")
    if args.max_queue < 1:
        raise _CLIError("--max-queue must be at least 1")
    scenario = _load_world(args)
    config = HRISConfig()
    hris = HRIS(
        scenario.network,
        scenario.archive,
        config,
        landmark_index=_landmark_index_for(
            Path(args.world),
            scenario.network,
            config.n_landmarks,
            enabled=not args.no_landmark_cache,
        ),
    )
    gateway = InferenceGateway(
        hris_backends(hris, args.workers),
        GatewayConfig(
            host=args.host,
            port=args.port,
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
        ),
    )

    def announce(address) -> None:
        host, port = address
        print(
            f"gateway serving {args.world} on http://{host}:{port} "
            f"({args.workers} worker(s), archive backend "
            f"{args.archive_backend}); SIGTERM drains",
            flush=True,
        )

    gateway.run(announce=announce)
    print("gateway drained cleanly")
    return 0


def _cmd_archive_serve(args: argparse.Namespace) -> int:
    from repro.core.remote import ArchiveShardServer

    if (args.shard_index is None) == (args.replica_of is None):
        raise _CLIError(
            "archive-serve needs exactly one of --shard-index or --replica-of"
        )
    shard_index = args.shard_index if args.shard_index is not None else args.replica_of
    # Conflicting flag combinations must exit 2 with a one-line usage
    # error, never surface ArchiveShardServer's ValueError traceback.
    if args.num_shards < 1:
        raise _CLIError("--num-shards must be at least 1")
    if not 0 <= shard_index < args.num_shards:
        flag = "--shard-index" if args.shard_index is not None else "--replica-of"
        raise _CLIError(
            f"{flag} {shard_index} conflicts with --num-shards "
            f"{args.num_shards}: shard indexes run 0.."
            f"{args.num_shards - 1}"
        )
    if args.tile_size <= 0:
        raise _CLIError("--tile-size must be positive")
    if args.replica_id < 0:
        raise _CLIError("--replica-id must be non-negative")
    if args.fsync_interval <= 0:
        raise _CLIError("--fsync-interval must be positive")
    if args.compact_every is not None and args.compact_every < 0:
        raise _CLIError("--compact-every must be non-negative (0 disables)")
    if args.compact_every is not None and args.wal_dir is None:
        raise _CLIError("--compact-every needs --wal-dir (nothing to compact)")
    server = ArchiveShardServer(
        shard_index,
        args.num_shards,
        args.tile_size,
        host=args.host,
        port=args.port,
        replica_id=args.replica_id,
        wal_dir=args.wal_dir,
        fsync=args.fsync,
        fsync_interval_s=args.fsync_interval,
        compact_every=(
            args.compact_every
            if args.compact_every is not None
            else _DEFAULT_COMPACT_EVERY
        ),
    )
    if args.wal_dir is not None and server._lsn > 0:
        print(
            f"recovered lsn {server._lsn} ({server.num_points} points) "
            f"from WAL {args.wal_dir}",
            flush=True,
        )
    if args.world is not None:
        scenario = load_scenario(args.world)
        kept = server.preload(scenario.archive.iter_points())
        print(f"pre-seeded {kept}/{scenario.archive.num_points} archive points")
    host, port = server.address
    durability = f"WAL {args.wal_dir} (fsync {args.fsync})" if args.wal_dir else "memory only"
    print(
        f"shard {shard_index}/{args.num_shards} (replica {args.replica_id}) "
        f"serving {args.tile_size:.0f}m tiles on {host}:{port}, {durability}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        pending = server.stop()
        if pending:
            print(
                f"shutdown flushed {pending} WAL record(s) that were "
                "awaiting fsync",
                flush=True,
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.core.remote import RemoteArchiveError

    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "infer":
            return _cmd_infer(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "archive-serve":
            return _cmd_archive_serve(args)
    except _CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RemoteArchiveError as exc:
        # Degraded-shard surface: a clean one-line error, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
