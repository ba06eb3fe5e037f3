"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("world")
    code = main(
        [
            "generate",
            "--out",
            str(path),
            "--seed",
            "5",
            "--grid",
            "8",
            "--od-pairs",
            "3",
            "--trips",
            "30",
            "--queries",
            "2",
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "--out", "x"])
        assert args.seed == 42
        assert args.grid == 14

    def test_infer_method_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["infer", "--world", "x", "--method", "bogus"]
            )

    def test_archive_serve_replica_of_parses(self):
        args = build_parser().parse_args(
            ["archive-serve", "--replica-of", "1", "--num-shards", "2",
             "--replica-id", "3"]
        )
        assert args.shard_index is None
        assert args.replica_of == 1
        assert args.replica_id == 3

    def test_archive_serve_wal_flags_parse(self):
        args = build_parser().parse_args(
            ["archive-serve", "--shard-index", "0", "--num-shards", "1",
             "--wal-dir", "wal0", "--fsync", "interval",
             "--fsync-interval", "0.2", "--compact-every", "128"]
        )
        assert args.wal_dir == "wal0"
        assert args.fsync == "interval"
        assert args.fsync_interval == 0.2
        assert args.compact_every == 128

    def test_archive_serve_defaults_to_always_fsync_no_wal(self):
        args = build_parser().parse_args(
            ["archive-serve", "--shard-index", "0", "--num-shards", "1"]
        )
        assert args.wal_dir is None
        assert args.fsync == "always"
        assert args.compact_every is None

    def test_archive_serve_fsync_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["archive-serve", "--shard-index", "0", "--num-shards", "1",
                 "--fsync", "sometimes"]
            )


class TestCommands:
    def test_generate_creates_artifacts(self, world_dir):
        assert (world_dir / "network.json").exists()
        assert (world_dir / "archive.jsonl").exists()
        assert (world_dir / "queries.json").exists()

    def test_infer_prints_routes(self, world_dir, capsys):
        code = main(
            [
                "infer",
                "--world",
                str(world_dir),
                "--query",
                "0",
                "--interval",
                "240",
                "--k",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "#1:" in out
        assert "log-score" in out

    def test_infer_bad_query_index(self, world_dir, capsys):
        code = main(
            ["infer", "--world", str(world_dir), "--query", "99"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_infer_forced_method(self, world_dir, capsys):
        code = main(
            [
                "infer",
                "--world",
                str(world_dir),
                "--query",
                "0",
                "--method",
                "tgi",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["infer", "--k", "0"], "--k"),
            (["infer", "--k", "-1"], "--k"),
            (["infer", "--interval", "0"], "--interval"),
            (["infer", "--interval", "-5"], "--interval"),
            (["infer", "--interval", "nan"], "--interval"),
            (["evaluate", "--intervals", "0"], "--intervals"),
            (["evaluate", "--intervals", "240", "-60"], "--intervals"),
            (["evaluate", "--intervals", "nan"], "--intervals"),
        ],
        ids=[
            "infer-k-0",
            "infer-k-negative",
            "infer-interval-0",
            "infer-interval-negative",
            "infer-interval-nan",
            "evaluate-intervals-0",
            "evaluate-intervals-negative",
            "evaluate-intervals-nan",
        ],
    )
    def test_bad_k_and_intervals_rejected(self, world_dir, capsys, argv, flag):
        """Usage errors exit 2 with one line, before any inference runs."""
        code = main(argv[:1] + ["--world", str(world_dir)] + argv[1:])
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err
        assert "Traceback" not in err

    def test_evaluate_prints_table(self, world_dir, capsys):
        code = main(
            ["evaluate", "--world", str(world_dir), "--intervals", "240", "600"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "HRIS" in out
        assert "ST-matching" in out

    def test_infer_remote_backend_matches_memory(self, world_dir, capsys):
        """archive-serve + infer --archive-backend remote: same routes as
        the in-process backend, over real loopback shard processes."""
        import threading

        from repro.core.remote import request_shutdown
        from repro.core.remote import ArchiveShardServer

        # Pre-pick ephemeral ports by starting the servers in-process; the
        # CLI path itself is exercised through _cmd_archive_serve's
        # building blocks (serve_forever on the CLI thread is covered by
        # driving the same server class the subcommand constructs).
        servers = [ArchiveShardServer(i, 2, 700.0) for i in range(2)]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True) for s in servers
        ]
        for t in threads:
            t.start()
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            args = [
                "infer", "--world", str(world_dir), "--query", "0",
                "--interval", "240",
            ]
            def route_lines(text):
                return [line for line in text.splitlines() if "log-score" in line]

            assert main(args) == 0
            out_memory = capsys.readouterr().out
            remote_args = args + [
                "--archive-backend", "remote", "--tile-size", "700",
                "--shard-addr", addrs[0], "--shard-addr", addrs[1],
            ]
            assert main(remote_args) == 0
            out_remote = capsys.readouterr().out
            assert route_lines(out_remote) == route_lines(out_memory)
            assert route_lines(out_memory)
        finally:
            for addr in addrs:
                request_shutdown(addr)
            for s in servers:
                s._server.server_close()
            for t in threads:
                t.join(timeout=5.0)

    def test_infer_remote_backend_requires_addresses(self, world_dir, capsys):
        code = main(
            [
                "infer", "--world", str(world_dir), "--query", "0",
                "--archive-backend", "remote",
            ]
        )
        assert code == 2
        assert "--shard-addr" in capsys.readouterr().err

    def test_shard_addr_without_remote_backend_rejected(self, world_dir, capsys):
        code = main(
            [
                "infer", "--world", str(world_dir), "--query", "0",
                "--shard-addr", "127.0.0.1:1",
            ]
        )
        assert code == 2
        assert "remote" in capsys.readouterr().err

    def test_infer_unreachable_shard_reports_remote_error(self, world_dir, capsys):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(
            [
                "infer", "--world", str(world_dir), "--query", "0",
                "--archive-backend", "remote",
                "--shard-addr", f"127.0.0.1:{port}",
            ]
        )
        assert code == 3
        assert "unavailable" in capsys.readouterr().err

    def test_archive_serve_parser_defaults(self):
        args = build_parser().parse_args(
            ["archive-serve", "--shard-index", "0", "--num-shards", "2"]
        )
        assert args.port == 0
        assert args.host == "127.0.0.1"
        assert args.replica_id == 0

    def test_archive_serve_requires_exactly_one_identity(self, capsys):
        assert main(["archive-serve", "--num-shards", "2"]) == 2
        assert "--shard-index or --replica-of" in capsys.readouterr().err
        assert (
            main(
                ["archive-serve", "--shard-index", "0", "--replica-of", "0",
                 "--num-shards", "2"]
            )
            == 2
        )
        assert "--shard-index or --replica-of" in capsys.readouterr().err

    def test_replication_without_remote_backend_rejected(self, world_dir, capsys):
        code = main(
            ["infer", "--world", str(world_dir), "--query", "0",
             "--replication", "2"]
        )
        assert code == 2
        assert "remote" in capsys.readouterr().err

    def test_infer_replicated_fleet_matches_memory(self, world_dir, capsys):
        """R=2 loopback fleet behind --replication 2: identical routes."""
        from repro.core.remote import ArchiveShardServer

        servers = [
            ArchiveShardServer(i, 2, 700.0, replica_id=r).start()
            for i in range(2)
            for r in range(2)
        ]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            args = [
                "infer", "--world", str(world_dir), "--query", "0",
                "--interval", "240",
            ]

            def route_lines(text):
                return [line for line in text.splitlines() if "log-score" in line]

            assert main(args) == 0
            out_memory = capsys.readouterr().out
            remote_args = args + [
                "--archive-backend", "remote", "--tile-size", "700",
                "--replication", "2",
            ]
            for addr in addrs:
                remote_args += ["--shard-addr", addr]
            assert main(remote_args) == 0
            out_remote = capsys.readouterr().out
            assert route_lines(out_remote) == route_lines(out_memory)
            assert route_lines(out_memory)
        finally:
            for s in servers:
                s.stop()

    def test_infer_persists_and_reuses_landmarks(self, world_dir, capsys):
        import json

        args = ["infer", "--world", str(world_dir), "--query", "0"]
        assert main(args) == 0
        cache = world_dir / "landmarks.json"
        assert cache.exists()
        payload = json.loads(cache.read_text(encoding="utf-8"))
        assert payload["format"] == "repro-landmarks-v1"
        stamp = cache.stat().st_mtime_ns
        capsys.readouterr()
        assert main(args) == 0  # second run reuses the cache
        assert cache.stat().st_mtime_ns == stamp

    def test_infer_landmark_cache_opt_out(self, world_dir, tmp_path, capsys):
        import shutil

        world = tmp_path / "world-nocache"
        shutil.copytree(world_dir, world)
        (world / "landmarks.json").unlink(missing_ok=True)
        assert (
            main(
                [
                    "infer",
                    "--world",
                    str(world),
                    "--query",
                    "0",
                    "--no-landmark-cache",
                ]
            )
            == 0
        )
        assert not (world / "landmarks.json").exists()


class TestServeCommand:
    """The gateway subcommand and the conflicting-flag regression tests.

    Before the fix, ``archive-serve`` with a shard index outside
    ``--num-shards`` (or a non-positive ``--num-shards``/``--tile-size``)
    surfaced ``ArchiveShardServer``'s ``ValueError`` as a traceback, and
    ``serve`` with a ``--shard-addr`` count that cannot form
    ``--replication`` replica sets dialled the fleet before failing.
    All of these must be usage errors: one line on stderr, exit 2.
    """

    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--world", "w"])
        assert args.port == 0
        assert args.workers == 1
        assert args.max_inflight == 16
        assert args.max_queue == 16
        assert args.archive_backend == "memory"

    def test_serve_rejects_conflicting_shard_addr_replication(
        self, world_dir, capsys
    ):
        code = main(
            ["serve", "--world", str(world_dir),
             "--archive-backend", "remote",
             "--shard-addr", "127.0.0.1:7701",
             "--shard-addr", "127.0.0.1:7702",
             "--shard-addr", "127.0.0.1:7703",
             "--replication", "2"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "multiple of the replica count" in err
        assert "Traceback" not in err

    def test_serve_rejects_malformed_shard_addr(self, world_dir, capsys):
        code = main(
            ["serve", "--world", str(world_dir),
             "--archive-backend", "remote", "--shard-addr", "localhost"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "--shard-addr" in err
        assert "Traceback" not in err

    def test_serve_rejects_bad_worker_and_queue_counts(self, world_dir, capsys):
        assert main(["serve", "--world", str(world_dir), "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert (
            main(["serve", "--world", str(world_dir), "--max-inflight", "0"]) == 2
        )
        assert "--max-inflight" in capsys.readouterr().err
        assert main(["serve", "--world", str(world_dir), "--max-queue", "-1"]) == 2
        assert "--max-queue" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flags",
        [("serve", ["--replication", "2"]), ("infer", ["--tile-size", "700"])],
        ids=["serve-replication", "infer-tile-size"],
    )
    def test_serve_replication_without_remote_rejected(
        self, world_dir, capsys, command, flags
    ):
        code = main([command, "--world", str(world_dir)] + flags)
        assert code == 2
        assert "remote" in capsys.readouterr().err

    def test_archive_serve_rejects_out_of_range_shard_index(self, capsys):
        code = main(["archive-serve", "--shard-index", "5", "--num-shards", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "--shard-index 5 conflicts with --num-shards 2" in err
        assert "Traceback" not in err

    def test_archive_serve_rejects_out_of_range_replica_of(self, capsys):
        code = main(["archive-serve", "--replica-of", "3", "--num-shards", "3"])
        assert code == 2
        assert "--replica-of 3 conflicts with --num-shards 3" in capsys.readouterr().err

    def test_archive_serve_rejects_bad_counts(self, capsys):
        assert main(["archive-serve", "--shard-index", "0", "--num-shards", "0"]) == 2
        assert "--num-shards" in capsys.readouterr().err
        assert (
            main(["archive-serve", "--shard-index", "0", "--num-shards", "1",
                  "--tile-size", "0"])
            == 2
        )
        assert "--tile-size" in capsys.readouterr().err
        assert (
            main(["archive-serve", "--shard-index", "0", "--num-shards", "1",
                  "--replica-id", "-1"])
            == 2
        )
        assert "--replica-id" in capsys.readouterr().err

    def test_archive_serve_rejects_bad_wal_flags(self, tmp_path, capsys):
        base = ["archive-serve", "--shard-index", "0", "--num-shards", "1"]
        assert main(base + ["--fsync-interval", "0"]) == 2
        assert "--fsync-interval" in capsys.readouterr().err
        assert (
            main(base + ["--wal-dir", str(tmp_path / "w"), "--compact-every", "-1"])
            == 2
        )
        assert "--compact-every" in capsys.readouterr().err
        # Validation fires before the server (and its WAL dir) exists.
        assert not (tmp_path / "w").exists()
        assert main(base + ["--compact-every", "64"]) == 2
        assert "--wal-dir" in capsys.readouterr().err

    def test_serve_gateway_end_to_end(self, world_dir):
        """``repro serve`` semantics through the library path the CLI uses.

        Drives the exact objects ``_cmd_serve`` builds (the command
        itself blocks serving forever) and checks a served query matches
        ``repro infer``'s routes for the same world.
        """
        from repro.core.system import HRIS, HRISConfig
        from repro.datasets.io import load_scenario
        from repro.serve import (
            GatewayClient,
            GatewayConfig,
            InferenceGateway,
            hris_backends,
        )

        scenario = load_scenario(world_dir)
        hris = HRIS(scenario.network, scenario.archive, HRISConfig())
        query = scenario.queries[0].query
        direct = [
            (tuple(g.route.segment_ids), round(g.log_score, 9))
            for g in hris.infer_routes(query)
        ]
        gateway = InferenceGateway(
            hris_backends(hris, 2),
            GatewayConfig(max_inflight=4, max_queue=4),
        )
        host, port = gateway.start()
        try:
            with GatewayClient(host, port) as client:
                reply = client.infer(query)
                assert reply.status == 200
                assert reply.route_keys() == direct
                assert client.healthz().payload["status"] == "ok"
        finally:
            gateway.stop()
