"""Loopback tests for the async query gateway (``repro.serve``).

Covers the serving guarantees docs/serving.md promises: concurrent
clients get bit-identical results vs direct :meth:`HRIS.infer_routes`,
saturation sheds with 429 + ``Retry-After``, coalesced duplicates
compute once, a drain completes in-flight work, ``/metrics`` has the
documented shape, and the remote client's per-replica connection pool
multiplexes without changing results.
"""

import math
import threading
import time

import pytest

from repro.core.archive import InMemoryArchive
from repro.core.system import HRIS, HRISConfig
from repro.eval.harness import standard_scenario
from repro.serve import (
    GatewayClient,
    GatewayConfig,
    InferenceGateway,
    hris_backends,
    percentile,
)
from repro.trajectory.resample import downsample


def route_keys(routes):
    return [(tuple(g.route.segment_ids), round(g.log_score, 9)) for g in routes]


@pytest.fixture(scope="module")
def world():
    scenario = standard_scenario(seed=7, n_queries=4)
    queries = [
        q
        for q in (downsample(c.query, 300.0) for c in scenario.queries)
        if len(q) >= 2
    ]
    hris = HRIS(scenario.network, scenario.archive, HRISConfig())
    direct = [route_keys(hris.infer_routes(q)) for q in queries]
    return scenario, hris, queries, direct


@pytest.fixture()
def slow_gateway():
    """A one-worker gateway whose backend blocks until released."""
    release = threading.Event()
    calls = []

    def backend(trajectory, k):
        calls.append((tuple((p.point.x, p.point.y, p.t) for p in trajectory.points), k))
        release.wait(10.0)
        return []

    gateway = InferenceGateway(
        [backend],
        GatewayConfig(max_inflight=2, max_queue=1, retry_after_s=0.25),
    )
    host, port = gateway.start()
    try:
        yield gateway, host, port, release, calls
    finally:
        release.set()
        gateway.stop()


def _point_query(i):
    return [[float(i), 0.0, 0.0], [float(i), 1.0, 10.0]]


def _wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestIdentity:
    def test_concurrent_clients_bit_identical(self, world):
        scenario, hris, queries, direct = world
        gateway = InferenceGateway(hris_backends(hris, 2), GatewayConfig())
        host, port = gateway.start()
        try:
            served = {}
            errors = []

            def client(idx):
                try:
                    with GatewayClient(host, port) as c:
                        reply = c.infer(queries[idx], k=None)
                        assert reply.status == 200, reply.payload
                        served[idx] = reply.route_keys()
                except Exception as exc:  # surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(queries))
                for _ in range(2)  # every query from two clients at once
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for idx, keys in served.items():
                assert keys == direct[idx]
        finally:
            gateway.stop()

    def test_batch_endpoint_identical(self, world):
        scenario, hris, queries, direct = world
        gateway = InferenceGateway(hris_backends(hris, 1), GatewayConfig())
        host, port = gateway.start()
        try:
            with GatewayClient(host, port) as c:
                reply = c.infer_batch(queries)
                assert reply.status == 200
                assert reply.payload["count"] == len(queries)
                for idx, result in enumerate(reply.payload["results"]):
                    keys = [
                        (tuple(r["segments"]), round(r["log_score"], 9))
                        for r in result["routes"]
                    ]
                    assert keys == direct[idx]
        finally:
            gateway.stop()

    def test_worker_clone_identical(self, world):
        scenario, hris, queries, direct = world
        clone = hris.worker_clone()
        assert clone.network is hris.network
        assert clone.archive is hris.archive
        assert clone.engine is not hris.engine
        assert [route_keys(clone.infer_routes(q)) for q in queries] == direct


class TestAdmission:
    def test_saturated_queue_sheds_429(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        clients = [GatewayClient(host, port) for _ in range(2)]
        results = {}
        threads = [
            threading.Thread(
                target=lambda i=i: results.update({i: clients[i].infer(_point_query(i))})
            )
            for i in range(2)
        ]
        # Stagger the two fills: the worker must pick up the first job
        # before the second is admitted, or max_queue=1 sheds it early.
        threads[0].start()
        assert _wait_until(lambda: len(calls) == 1)
        threads[1].start()
        # one job executing + one queued == max_inflight
        assert _wait_until(
            lambda: GatewayClient(host, port).healthz().payload["admitted"] == 2
        )
        with GatewayClient(host, port) as extra:
            shed = extra.infer(_point_query(99))
            assert shed.status == 429
            assert shed.headers["retry-after"] == "1"
            assert shed.payload["error"] == "admission queue full"
        release.set()
        for t in threads:
            t.join()
        assert all(r.status == 200 for r in results.values())
        for c in clients:
            c.close()

    def test_batch_admission_is_atomic(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        with GatewayClient(host, port) as c:
            # 3 distinct queries exceed max_inflight=2: the whole batch
            # is refused, nothing is admitted.
            reply = c.infer_batch([_point_query(i) for i in range(3)])
            assert reply.status == 429
            assert GatewayClient(host, port).healthz().payload["admitted"] == 0

    def test_bad_payloads_rejected_before_admission(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        with GatewayClient(host, port) as c:
            assert c.request("POST", "/v1/infer", {"query": "nope"}).status == 400
            assert c.infer(_point_query(1), k=0).status == 400
            assert (
                c.request("POST", "/v1/infer", {"query": [[0.0, 0.0, 0.0]]}).status
                == 400
            )
            assert c.request("GET", "/missing").status == 404
            assert c.request("DELETE", "/healthz").status == 405
        assert not calls  # nothing malformed reached a worker

    @pytest.mark.parametrize(
        "query",
        [
            [[math.nan, 0.0, 0.0], [1.0, 1.0, 10.0]],
            [[0.0, 0.0, 0.0], [1.0, math.inf, 10.0]],
        ],
        ids=["nan-x", "infinite-y"],
    )
    def test_non_finite_coordinates_rejected(self, slow_gateway, query):
        """``json`` accepts ``NaN``/``Infinity`` literals; the query parser
        must refuse them with a 400 before admission."""
        gateway, host, port, release, calls = slow_gateway
        with GatewayClient(host, port) as c:
            reply = c.infer(query)
        assert reply.status == 400
        assert "not finite" in reply.payload["error"]
        assert not calls


class TestUnroutableQuery:
    def test_no_local_route_is_422_and_a_client_error(self, islands):
        # The query's two points sit on unconnected roads: a property of
        # the request, not a server fault.
        network, points = islands
        hris = HRIS(network, InMemoryArchive(), HRISConfig())
        gateway = InferenceGateway(hris_backends(hris, 1), GatewayConfig())
        host, port = gateway.start()
        try:
            with GatewayClient(host, port) as c:
                reply = c.infer(points, k=None)
                batch = c.infer_batch([points], k=None)
                endpoints = c.metrics().payload["endpoints"]
        finally:
            gateway.stop()
        assert reply.status == 422
        assert reply.payload["error"].startswith("NoLocalRouteError: no local route")
        assert batch.status == 200
        [entry] = batch.payload["results"]
        assert entry["error"].startswith("NoLocalRouteError: no local route")
        single = endpoints["/v1/infer"]
        assert (single["client_errors"], single["server_errors"]) == (1, 0)


class TestCoalescing:
    def test_duplicate_in_flight_computes_once(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        results = {}

        def fire(name):
            with GatewayClient(host, port) as c:
                results[name] = c.infer(_point_query(7))

        leader = threading.Thread(target=fire, args=("leader",))
        leader.start()
        assert _wait_until(lambda: len(calls) == 1)
        followers = [
            threading.Thread(target=fire, args=(f"f{i}",)) for i in range(3)
        ]
        for t in followers:
            t.start()
        # Wait until all followers are connected (their requests attach to
        # the leader's in-flight future; the coalesced counter only ticks
        # once responses go out).  leader + 3 followers + this probe = 5.
        with GatewayClient(host, port) as probe:
            assert _wait_until(
                lambda: probe.metrics().payload["gateway"]["connections"] >= 5
            )
        time.sleep(0.2)
        release.set()
        leader.join()
        for t in followers:
            t.join()
        assert len(calls) == 1  # one computation for four requests
        with GatewayClient(host, port) as probe:
            assert (
                probe.metrics().payload["endpoints"]["/v1/infer"]["coalesced"] == 3
            )
        assert results["leader"].status == 200
        assert results["leader"].payload["coalesced"] is False
        for i in range(3):
            reply = results[f"f{i}"]
            assert reply.status == 200
            assert reply.payload["coalesced"] is True
            assert reply.payload["routes"] == results["leader"].payload["routes"]

    def test_followers_bypass_admission(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        results = {}

        def fire(name, i):
            with GatewayClient(host, port) as c:
                results[name] = c.infer(_point_query(i))

        threads = [
            threading.Thread(target=fire, args=("a", 1)),
            threading.Thread(target=fire, args=("b", 2)),
        ]
        threads[0].start()
        assert _wait_until(lambda: len(calls) == 1)  # worker took "a"
        threads[1].start()
        assert _wait_until(
            lambda: GatewayClient(host, port).healthz().payload["admitted"] == 2
        )
        # Saturated for new work — but a duplicate of an admitted query
        # attaches to its future instead of being shed.
        dup = threading.Thread(target=fire, args=("dup", 2))
        dup.start()
        with GatewayClient(host, port) as probe:
            assert _wait_until(
                lambda: probe.metrics().payload["gateway"]["connections"] >= 4
            )
        time.sleep(0.2)
        release.set()
        for t in threads + [dup]:
            t.join()
        assert results["dup"].status == 200
        assert results["dup"].payload["coalesced"] is True
        assert len(calls) == 2


class TestDrain:
    def test_drain_completes_in_flight_work(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        result = {}

        def fire():
            with GatewayClient(host, port) as c:
                result["reply"] = c.infer(_point_query(5))

        worker = threading.Thread(target=fire)
        worker.start()
        assert _wait_until(lambda: len(calls) == 1)
        gateway.begin_drain()
        assert _wait_until(lambda: _refuses_connections(host, port))
        release.set()
        worker.join()
        reply = result["reply"]
        assert reply.status == 200  # in-flight work finished, not dropped
        assert reply.headers.get("connection") == "close"
        gateway.stop()

    def test_stop_idles_cleanly_with_open_keepalive_connection(self, world):
        scenario, hris, queries, direct = world
        gateway = InferenceGateway(hris_backends(hris, 1), GatewayConfig())
        host, port = gateway.start()
        idle = GatewayClient(host, port)
        assert idle.healthz().status == 200  # keep-alive socket now parked
        gateway.stop()
        assert _refuses_connections(host, port)
        idle.close()


def _refuses_connections(host, port) -> bool:
    try:
        with GatewayClient(host, port, timeout_s=1.0) as probe:
            probe.healthz()
        return False
    except OSError:
        return True


class TestMetrics:
    def test_metrics_shape(self, slow_gateway):
        gateway, host, port, release, calls = slow_gateway
        with GatewayClient(host, port) as c:
            c.healthz()
            payload = c.metrics().payload
        assert set(payload) == {"endpoints", "gateway"}
        gauges = payload["gateway"]
        for key in (
            "workers",
            "admitted",
            "queued",
            "inflight_keys",
            "connections",
            "draining",
            "max_inflight",
            "max_queue",
        ):
            assert key in gauges
        endpoint = payload["endpoints"]["/healthz"]
        assert endpoint["requests"] >= 1
        latency = endpoint["latency_s"]
        for key in ("count", "mean", "p50", "p90", "p99", "max"):
            assert key in latency
        assert latency["p50"] <= latency["p99"] <= latency["max"]

    def test_engine_counters_for_hris_backends(self, world):
        """HRIS-backed gateways expose the routing-engine counters —
        settled nodes, cache hit/miss, oracle sweeps — summed across
        workers; stub backends (above) omit the key entirely."""
        scenario, hris, queries, direct = world
        gateway = InferenceGateway(hris_backends(hris, 2), GatewayConfig())
        host, port = gateway.start()
        try:
            with GatewayClient(host, port) as c:
                reply = c.infer(queries[0], k=None)
                assert reply.status == 200
                payload = c.metrics().payload
        finally:
            gateway.stop()
        assert set(payload) == {"endpoints", "gateway", "engine", "archive"}
        # Both workers share one archive object: one snapshot, not a list.
        archive = payload["archive"]
        assert archive["backend"] == "memory"
        assert archive["n_points"] > 0
        engine = payload["engine"]
        for key in (
            "searches",
            "settled_nodes",
            "sweeps",
            "route_cache_hits",
            "route_cache_misses",
            "route_cache_evictions",
            "candidate_cache_hits",
            "candidate_cache_misses",
            "support_cache_hits",
            "support_cache_misses",
            "oracle_hits",
            "oracle_misses",
        ):
            assert key in engine
        # The served query really did route through the engine.
        assert engine["settled_nodes"] > 0
        assert engine["candidate_cache_misses"] > 0

    def test_wal_and_catchup_counters_reach_metrics(self, world, tmp_path):
        """A gateway over the remote archive surfaces the durability
        spine on ``/metrics``: per-shard WAL counters summed by the
        client plus the replica catch-up totals."""
        from repro.core.archive import convert_archive
        from repro.core.remote import ArchiveShardServer

        scenario, hris, queries, direct = world
        servers = [
            ArchiveShardServer(i, 2, 800.0, wal_dir=tmp_path / f"wal{i}").start()
            for i in range(2)
        ]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        archive = convert_archive(scenario.archive, "remote", 800.0, addrs)
        remote_hris = HRIS(scenario.network, archive, HRISConfig())
        gateway = InferenceGateway(hris_backends(remote_hris, 1), GatewayConfig())
        host, port = gateway.start()
        try:
            with GatewayClient(host, port) as c:
                payload = c.metrics().payload
        finally:
            gateway.stop()
            archive.close()
            for server in servers:
                server.stop()
        stats = payload["archive"]
        assert stats["backend"] == "remote"
        assert stats["catchups"] == 0 and stats["catchup_records"] == 0
        wal = stats["wal"]
        assert wal["reachable"] is True
        assert wal["enabled_shards"] == 2
        assert wal["records_appended"] > 0
        assert wal["unflushed_records"] == 0  # fsync=always

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50.0) == 50.0
        assert percentile(values, 99.0) == 99.0
        assert percentile(values, 100.0) == 100.0
        assert percentile([], 99.0) == 0.0
        assert percentile([3.0], 50.0) == 3.0


class TestShardConnectionPool:
    def test_pooled_remote_archive_identical_under_concurrency(self, world):
        from repro.core.archive import convert_archive
        from repro.core.remote import ArchiveShardServer

        scenario, hris, queries, direct = world
        servers = [ArchiveShardServer(i, 2, 800.0).start() for i in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        archive = convert_archive(scenario.archive, "remote", 800.0, addrs)
        remote = None
        try:
            from repro.core.remote import RemoteShardedArchive

            remote = RemoteShardedArchive(addrs, pool_size=3)
            remote.attach_trips(scenario.archive.trajectories())
            assert remote.backend_stats()["pool_size"] == 3
            hris_remote = HRIS(scenario.network, remote, HRISConfig())
            backends = hris_backends(hris_remote, 3)
            served = {}
            errors = []

            # One thread per backend, as the gateway drives them: each
            # HRIS clone serves one request at a time, but the three
            # clones hit the pooled shard connections concurrently.
            def run(worker):
                try:
                    for idx in range(len(queries)):
                        served[(worker, idx)] = route_keys(
                            backends[worker](queries[idx], None)
                        )
                except Exception as exc:
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(w,)) for w in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            for (worker, idx), keys in served.items():
                assert keys == direct[idx]
        finally:
            if remote is not None:
                remote.close()
            archive.close()
            for server in servers:
                server.stop()

    def test_pool_size_validation(self):
        from repro.core.remote import RemoteShardedArchive

        with pytest.raises(ValueError, match="pool_size"):
            RemoteShardedArchive(["127.0.0.1:1"], pool_size=0)
