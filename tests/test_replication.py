"""Replication and failover: replica sets, health routing, scripted chaos.

Every test here is deterministic by construction: faults are injected on
scripted request ordinals (:mod:`repro.core.chaos`), replicas are killed
at chosen points in the query stream, retry jitter comes from seeded
RNGs, and the only clocks involved are bounded request timeouts.  The
invariant under attack is the acceptance criterion of the replication
layer: with R=2, killing any single replica mid-run must leave every
query result bit-identical to :class:`InMemoryArchive` with zero errors
surfaced to the caller.
"""

import math
import random
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.archive import InMemoryArchive
from repro.core.chaos import (
    BLACKHOLE,
    DELAY,
    DROP,
    TRUNCATE,
    ChaosProxy,
    ChaosSchedule,
    CrashAfter,
    Fault,
)
from repro.core import remote as remote_module
from repro.core.remote import (
    _WIRE_V,
    PROTOCOL_VERSION,
    ArchiveShardServer,
    RemoteShardedArchive,
    ShardExhaustedError,
    ShardProtocolError,
    ShardUnavailableError,
    _ShardConnection,
    _recv_frame,
    _send_frame,
)
from repro.geo.bbox import BBox
from repro.geo.point import Point
from tests.test_remote_archive import NUM_SHARDS, TILE, random_trips

R = 2  # replica count under test


@pytest.fixture
def replicated_cluster():
    """NUM_SHARDS shards × R replicas, every server on a loopback port."""
    servers = []
    for index in range(NUM_SHARDS):
        for rid in range(R):
            servers.append(
                ArchiveShardServer(index, NUM_SHARDS, TILE, replica_id=rid).start()
            )
    addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
    yield servers, addrs
    for server in servers:
        server.stop()


def replicated_pair(addrs, rng, n_trips=12, **kwargs):
    """An InMemoryArchive and a replicated remote fed identical trips."""
    kwargs.setdefault("replication", R)
    kwargs.setdefault("retries", 0)
    kwargs.setdefault("backoff_s", 0.0)
    kwargs.setdefault("breaker_cooldown_s", 60.0)
    kwargs.setdefault("jitter_seed", 0)
    mem = InMemoryArchive()
    remote = RemoteShardedArchive(addrs, **kwargs)
    for trip in random_trips(rng, n_trips):
        assert mem.add(trip) == remote.add(trip)
    return mem, remote


def assert_identical_queries(mem, remote, rng, n_queries=10):
    for __ in range(n_queries):
        q = Point(*rng.uniform(-500.0, 4_500.0, size=2))
        radius = float(rng.uniform(100.0, 2_000.0))
        assert mem.points_near(q, radius) == remote.points_near(q, radius)
        x0, y0 = rng.uniform(-500.0, 4_000.0, size=2)
        box = BBox(x0, y0, x0 + 1_500.0, y0 + 1_500.0)
        assert mem.points_in_bbox(box) == remote.points_in_bbox(box)
        qi1 = Point(*rng.uniform(0.0, 4_000.0, size=2))
        assert mem.trajectories_near_pair(q, qi1, radius) == (
            remote.trajectories_near_pair(q, qi1, radius)
        )


class TestReplicaSets:
    def test_replicated_fleet_equivalent_to_memory(self, replicated_cluster):
        __, addrs = replicated_cluster
        rng = np.random.default_rng(0)
        mem, remote = replicated_pair(addrs, rng)
        assert remote.replication == [R] * NUM_SHARDS
        stats = remote.backend_stats()
        assert stats["backend"] == "remote"
        assert stats["total_replicas"] == NUM_SHARDS * R
        assert stats["healthy_replicas"] == NUM_SHARDS * R
        assert_identical_queries(mem, remote, rng)
        # Mutations reached every replica: counts agree within each set.
        for health in remote.replica_health():
            assert all(r["state"] == "closed" for r in health["replicas"])
        remote.close()

    def test_replication_count_enforced(self, replicated_cluster):
        __, addrs = replicated_cluster
        with pytest.raises(ShardProtocolError, match="--replication 3"):
            RemoteShardedArchive(addrs, replication=3)

    def test_diverged_replicas_rejected_at_handshake(self):
        a = ArchiveShardServer(0, 1, TILE).start()
        b = ArchiveShardServer(0, 1, TILE).start()
        # Seed one replica only: their point counts disagree up front.
        conn = _ShardConnection(a.address, 5.0, 0, 0.0, [])
        conn.request(
            {"op": "insert", "v": _WIRE_V, "points": [[0, 0, 100.0, 100.0]]}
        )
        conn.close()
        addrs = [f"127.0.0.1:{s.address[1]}" for s in (a, b)]
        try:
            with pytest.raises(ShardProtocolError, match="diverge"):
                RemoteShardedArchive(addrs)
        finally:
            a.stop()
            b.stop()


class TestFailover:
    @pytest.mark.parametrize("victim", range(NUM_SHARDS * R))
    def test_killing_any_single_replica_is_invisible(
        self, replicated_cluster, victim
    ):
        """Acceptance criterion: one replica death mid-run, zero surfaced
        errors, results bit-identical to the in-memory seed backend."""
        servers, addrs = replicated_cluster
        rng = np.random.default_rng(1_000 + victim)
        mem, remote = replicated_pair(addrs, rng)
        assert_identical_queries(mem, remote, rng, n_queries=5)
        servers[victim].stop()  # mid-run process death
        assert_identical_queries(mem, remote, rng, n_queries=10)
        remote.close()

    def test_dead_replica_is_demoted_and_reads_continue(self, replicated_cluster):
        servers, addrs = replicated_cluster
        rng = np.random.default_rng(5)
        mem, remote = replicated_pair(addrs, rng)
        servers[0].stop()  # replica 0 of shard 0
        assert_identical_queries(mem, remote, rng, n_queries=8)
        demoted = [
            r
            for health in remote.replica_health()
            for r in health["replicas"]
            if r["state"] != "closed"
        ]
        assert len(demoted) == 1  # exactly the victim
        assert remote.failover_count >= 1
        assert remote.backend_stats()["healthy_replicas"] == NUM_SHARDS * R - 1
        remote.close()

    def test_crash_mid_request_fails_over(self, replicated_cluster):
        """Kill the replica *between* receiving the query frame and the
        reply (server-side hook) — the client must treat the half-done
        request as a replica failure and re-ask a healthy peer."""
        servers, addrs = replicated_cluster
        rng = np.random.default_rng(9)
        mem, remote = replicated_pair(addrs, rng, timeout_s=2.0)
        # Arm replica 0 of every shard: reads route there first (fresh
        # round-robin), so the first fan-out query hits every trap.
        hooks = []
        for index in range(NUM_SHARDS):
            server = servers[index * R]
            hook = CrashAfter(server, op="search_circles")
            server.fault_hook = hook
            hooks.append(hook)
        q = Point(2_000.0, 2_000.0)
        assert mem.points_near(q, 6_000.0) == remote.points_near(q, 6_000.0)
        assert any(h.crashed for h in hooks)
        assert remote.failover_count >= 1
        assert_identical_queries(mem, remote, rng, n_queries=6)
        remote.close()

    def test_partial_mutation_failure_degrades_capacity_not_results(
        self, replicated_cluster
    ):
        servers, addrs = replicated_cluster
        rng = np.random.default_rng(13)
        mem, remote = replicated_pair(addrs, rng)
        servers[1].stop()  # replica 1 of shard 0 dies before the write
        extra = random_trips(rng, 2)
        for trip in extra:
            assert mem.add(trip) == remote.add(trip)  # no error surfaced
        victim_id = mem.trajectory_ids()[0]
        assert mem.remove(victim_id) and remote.remove(victim_id)
        # The dead replica missed writes → demoted out of rotation (the
        # half-open probe would repair it by log replay if it came back;
        # dead, it stays out) and reads keep serving healthy peers.
        states = [
            r["state"]
            for health in remote.replica_health()
            for r in health["replicas"]
        ]
        assert states.count("open") == 1
        assert states.count("closed") == len(states) - 1
        assert_identical_queries(mem, remote, rng, n_queries=8)
        remote.close()

    def test_all_replicas_dead_raises_exhausted(self):
        servers = [
            ArchiveShardServer(0, 1, TILE, replica_id=r).start() for r in range(R)
        ]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        rng = np.random.default_rng(17)
        mem, remote = replicated_pair(addrs, rng, n_trips=4)
        for server in servers:
            server.stop()
        with pytest.raises(ShardExhaustedError, match="shard 0") as excinfo:
            remote.points_near(Point(0.0, 0.0), 500.0)
        # The exhausted surface subclasses the v1 unavailability error and
        # accounts for every replica attempt.
        assert isinstance(excinfo.value, ShardUnavailableError)
        assert excinfo.value.op == "search_circles"
        assert excinfo.value.attempts == R
        remote.close()


class TestCircuitBreaker:
    def _single_shard_with_proxy(self, schedule=None, cooldown_s=0.0):
        direct = ArchiveShardServer(0, 1, TILE, replica_id=0).start()
        behind = ArchiveShardServer(0, 1, TILE, replica_id=1).start()
        proxy = ChaosProxy(behind.address, schedule=schedule).start()
        addrs = [
            f"127.0.0.1:{direct.address[1]}",
            f"127.0.0.1:{proxy.address[1]}",
        ]
        rng = np.random.default_rng(21)
        mem, remote = replicated_pair(
            addrs, rng, n_trips=6, breaker_cooldown_s=cooldown_s, timeout_s=1.0
        )
        return direct, behind, proxy, mem, remote, rng

    def test_recovered_replica_is_probed_and_restored(self):
        direct, behind, proxy, mem, remote, rng = self._single_shard_with_proxy()
        try:
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)  # round-robin: direct replica
            proxy.kill()
            # Routed to the proxied replica → refused → breaker opens →
            # transparent failover; no error reaches the caller.
            assert mem.points_near(probe, 800.0) == remote.points_near(probe, 800.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "open"]
            proxy.revive()  # same upstream, no data missed
            # Next read serves from the healthy replica, then half-open
            # probes the survivor: stats count matches → restored.
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "closed"]
            assert remote.backend_stats()["restorations"] == 1
            assert_identical_queries(mem, remote, rng, n_queries=6)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            behind.stop()

    def test_replica_restarted_empty_is_repaired_by_log_replay(self):
        """A probe must verify data currency, not just liveness — and since
        the healthy peer retains the full mutation log, a replica that
        restarts *empty* is repaired by replaying it (``log_since`` on the
        donor, ``apply_log`` on the laggard) before re-entering rotation."""
        direct, behind, proxy, mem, remote, rng = self._single_shard_with_proxy()
        empty = None
        try:
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)
            proxy.kill()
            remote.points_near(probe, 800.0)  # demotes the proxied replica
            port = behind.address[1]
            behind.stop()
            empty = ArchiveShardServer(0, 1, TILE, replica_id=1, port=port).start()
            proxy.revive()
            # The replica is reachable again but lost its data: the
            # half-open probe sees num_points=0 ≠ expected, fetches the
            # missing suffix (lsn 0 → head) from the healthy peer and
            # replays it onto the laggard, then restores it.
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "closed"]
            assert health["catchups"] == 1
            assert health["catchup_records"] >= 1
            assert remote.backend_stats()["restorations"] == 1
            assert remote.backend_stats()["catchups"] == 1
            assert empty.num_points == direct.num_points
            assert_identical_queries(mem, remote, rng, n_queries=6)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            if empty is not None:
                empty.stop()

    def test_restarted_replica_stays_stale_when_log_compacted(self, tmp_path):
        """Catch-up needs the donor to still hold the laggard's missing
        records.  When compaction trimmed them into a snapshot, the probe
        must mark the replica stale — honest demotion over silent
        divergence — and keep serving from the healthy peer."""
        direct = ArchiveShardServer(
            0, 1, TILE, replica_id=0, wal_dir=tmp_path / "wal0", compact_every=4
        ).start()
        behind = ArchiveShardServer(0, 1, TILE, replica_id=1).start()
        proxy = ChaosProxy(behind.address).start()
        addrs = [
            f"127.0.0.1:{direct.address[1]}",
            f"127.0.0.1:{proxy.address[1]}",
        ]
        rng = np.random.default_rng(33)
        empty = None
        try:
            # 6 trips → 6 insert records → the WAL compacts at record 4,
            # so the donor's retained tail starts past an empty replica.
            mem, remote = replicated_pair(
                addrs, rng, n_trips=6, breaker_cooldown_s=0.0, timeout_s=1.0
            )
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)
            proxy.kill()
            remote.points_near(probe, 800.0)
            port = behind.address[1]
            behind.stop()
            empty = ArchiveShardServer(0, 1, TILE, replica_id=1, port=port).start()
            proxy.revive()
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "stale"]
            assert health["catchups"] == 0
            assert remote.backend_stats()["restorations"] == 0
            assert_identical_queries(mem, remote, rng, n_queries=6)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            behind.stop()
            if empty is not None:
                empty.stop()

    def test_replica_lagging_past_memory_journal_trim_stays_stale(self):
        """As with a compacted WAL: a donor whose in-memory journal was
        trimmed past an empty replica's position cannot repair it."""
        direct = ArchiveShardServer(0, 1, TILE, replica_id=0, compact_every=4).start()
        behind = ArchiveShardServer(0, 1, TILE, replica_id=1).start()
        proxy = ChaosProxy(behind.address).start()
        addrs = [
            f"127.0.0.1:{direct.address[1]}",
            f"127.0.0.1:{proxy.address[1]}",
        ]
        rng = np.random.default_rng(33)
        empty = None
        try:
            # 6 trips → 6 insert records → the journal is trimmed at
            # record 4, past an empty replica's position.
            mem, remote = replicated_pair(
                addrs, rng, n_trips=6, breaker_cooldown_s=0.0, timeout_s=1.0
            )
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)
            proxy.kill()
            remote.points_near(probe, 800.0)
            port = behind.address[1]
            behind.stop()
            empty = ArchiveShardServer(0, 1, TILE, replica_id=1, port=port).start()
            proxy.revive()
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "stale"]
            assert health["catchups"] == 0
            assert remote.backend_stats()["restorations"] == 0
            assert_identical_queries(mem, remote, rng, n_queries=6)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            if empty is not None:
                empty.stop()

    def test_lagging_replica_caught_up_after_missed_writes(self):
        """The tentpole scenario: a replica misses live mutations while
        down, comes back, and the probe replays exactly the missed suffix
        — results stay bit-identical and the replica serves reads again."""
        direct, behind, proxy, mem, remote, rng = self._single_shard_with_proxy()
        try:
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)
            proxy.kill()
            remote.points_near(probe, 800.0)  # breaker opens
            # Writes continue while the replica is down: it lags the
            # stream by these records.
            for trip in random_trips(rng, 3):
                assert mem.add(trip) == remote.add(trip)
            victim_id = mem.trajectory_ids()[0]
            assert mem.remove(victim_id) and remote.remove(victim_id)
            before = behind.num_points
            proxy.revive()
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "closed"]
            assert health["catchups"] == 1
            # 3 inserts + 1 delete missed → exactly 4 records replayed.
            assert health["catchup_records"] == 4
            assert behind.num_points == direct.num_points != before
            assert_identical_queries(mem, remote, rng, n_queries=6)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            behind.stop()

    def test_scripted_drop_opens_breaker_deterministically(self):
        # Ordinals through the proxy: 0 = hello, 1..6 = the six inserts,
        # 7 = the first read routed to the proxied replica.  Drop it.
        schedule = ChaosSchedule([Fault(7, DROP)])
        direct, behind, proxy, mem, remote, rng = self._single_shard_with_proxy(
            schedule=schedule, cooldown_s=60.0
        )
        try:
            probe = Point(1_000.0, 1_000.0)
            remote.points_near(probe, 500.0)  # rotation 0 → direct replica
            # rotation 1 → proxied replica → scripted drop → failover.
            assert mem.points_near(probe, 800.0) == remote.points_near(probe, 800.0)
            health = remote.replica_health()[0]
            assert [r["state"] for r in health["replicas"]] == ["closed", "open"]
            assert remote.failover_count == 1
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            behind.stop()


class TestTransportHardening:
    def test_truncated_reply_reconnects_transparently(self):
        """Satellite: a malformed/teared frame must never poison the
        persistent connection — the client drops the socket and the
        bounded retry resends on a fresh one."""
        server = ArchiveShardServer(0, 1, TILE).start()
        # Ordinals: 0 = hello, 1 = the single insert, 2 = first read —
        # whose reply is cut mid-frame.
        proxy = ChaosProxy(
            server.address, schedule=ChaosSchedule([Fault(2, TRUNCATE)])
        ).start()
        rng = np.random.default_rng(23)
        mem = InMemoryArchive()
        remote = RemoteShardedArchive(
            [f"127.0.0.1:{proxy.address[1]}"],
            retries=1,
            backoff_s=0.0,
            jitter_seed=0,
        )
        try:
            trip = random_trips(rng, 1)[0]
            assert mem.add(trip) == remote.add(trip)
            probe = trip.points[0].point
            # The truncated reply surfaces nowhere: the retry resends the
            # idempotent read over a fresh connection (ordinal 3).
            assert mem.points_near(probe, 700.0) == remote.points_near(probe, 700.0)
            assert proxy.requests_seen == 4
            assert mem.points_near(probe, 900.0) == remote.points_near(probe, 900.0)
        finally:
            remote.close()
            proxy.stop()
            server.stop()

    def test_malformed_reply_drops_socket(self):
        """First reply is undecodable garbage → typed protocol error AND a
        torn-down socket, so the next request starts from a clean stream."""
        connections = []

        def serve(listener):
            while True:
                try:
                    sock, __ = listener.accept()
                except OSError:
                    return
                connections.append(sock)
                try:
                    if _recv_frame(sock) is None:
                        continue
                    if len(connections) == 1:
                        payload = b"this is not json"
                        sock.sendall(len(payload).to_bytes(4, "big") + payload)
                    else:
                        _send_frame(sock, {"ok": True})
                except OSError:
                    pass

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        threading.Thread(target=serve, args=(listener,), daemon=True).start()
        conn = _ShardConnection(listener.getsockname(), 2.0, 0, 0.0, [])
        try:
            with pytest.raises(ShardProtocolError, match="malformed"):
                conn.request({"op": "ping", "v": _WIRE_V})
            assert conn._sock is None  # desynced stream was torn down
            assert conn.request({"op": "ping", "v": _WIRE_V}) == {"ok": True}
            assert len(connections) == 2  # second request reconnected
        finally:
            conn.close()
            listener.close()
            for sock in connections:
                sock.close()

    def test_backoff_uses_full_jitter(self, monkeypatch):
        """Satellite: retry waits are drawn from [0, backoff·2^(n−1)], so
        two seeded connections produce the seeded uniform stream — not the
        deterministic lockstep schedule."""
        sleeps = []
        monkeypatch.setattr(time, "sleep", lambda s: sleeps.append(s))
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()  # nothing listens here any more
        conn = _ShardConnection(
            dead, 0.2, retries=3, backoff_s=0.05, latencies=[],
            rng=random.Random(123),
        )
        with pytest.raises(ShardUnavailableError):
            conn.request({"op": "ping", "v": _WIRE_V})
        expected_rng = random.Random(123)
        expected = [
            expected_rng.uniform(0.0, 0.05 * (2 ** (attempt - 1)))
            for attempt in (1, 2, 3)
        ]
        assert sleeps == expected
        assert all(0.0 <= s <= 0.05 * 4 for s in sleeps)

    def test_request_latencies_bounded(self, monkeypatch):
        monkeypatch.setattr(remote_module, "LATENCY_WINDOW", 8)
        server = ArchiveShardServer(0, 1, TILE).start()
        remote = RemoteShardedArchive(
            [f"127.0.0.1:{server.address[1]}"], jitter_seed=0
        )
        try:
            for __ in range(12):
                remote.ping()
            assert len(remote.request_latencies) == 8  # capped, not leaking
            assert remote.request_latencies.maxlen == 8
            assert remote.backend_stats()["latencies_recorded"] == 8
        finally:
            remote.close()
            server.stop()

    def test_hello_is_version_agnostic(self):
        """A v1 client asking `hello` must get a clean protocol answer —
        not a mis-parse — so mixed fleets fail with a clear message."""
        server = ArchiveShardServer(0, 1, TILE).start()
        sock = socket.create_connection(server.address, timeout=2.0)
        try:
            for advertised in (1, None):
                request = {"op": "hello"}
                if advertised is not None:
                    request["v"] = advertised
                _send_frame(sock, request)
                reply = _recv_frame(sock)
                assert reply["ok"] is True
                assert reply["protocol"] == PROTOCOL_VERSION
                assert reply["replica_id"] == 0
        finally:
            sock.close()
            server.stop()


class TestChaosDeterminism:
    def test_seeded_schedule_is_reproducible(self):
        kwargs = dict(
            n_requests=200,
            p_drop=0.08,
            p_blackhole=0.04,
            p_truncate=0.04,
            p_delay=0.10,
        )
        a = ChaosSchedule.seeded(7, **kwargs)
        b = ChaosSchedule.seeded(7, **kwargs)
        assert a.faults() == b.faults()
        assert len(a.faults()) > 0
        assert {f.action for f in a.faults()} <= {DROP, BLACKHOLE, TRUNCATE, DELAY}
        assert a.fault_for(0).action == "pass"  # handshake protected
        c = ChaosSchedule.seeded(8, **kwargs)
        assert a.faults() != c.faults()

    def test_schedule_rejects_conflicts_and_bad_actions(self):
        with pytest.raises(ValueError, match="two faults"):
            ChaosSchedule([Fault(3, DROP), Fault(3, TRUNCATE)])
        with pytest.raises(ValueError, match="unknown chaos action"):
            Fault(1, "explode")
        with pytest.raises(ValueError, match="sum to at most 1"):
            ChaosSchedule.seeded(1, 10, p_drop=0.8, p_delay=0.4)

    def test_seeded_chaos_run_stays_identical(self):
        """End-to-end: a seeded drop/delay schedule against one replica of
        an R=2 set leaves every result bit-identical to the seed backend."""
        direct = ArchiveShardServer(0, 1, TILE, replica_id=0).start()
        behind = ArchiveShardServer(0, 1, TILE, replica_id=1).start()
        schedule = ChaosSchedule.seeded(
            42, n_requests=120, p_drop=0.15, p_delay=0.15, delay_s=0.002
        )
        proxy = ChaosProxy(behind.address, schedule=schedule).start()
        addrs = [
            f"127.0.0.1:{direct.address[1]}",
            f"127.0.0.1:{proxy.address[1]}",
        ]
        rng = np.random.default_rng(29)
        mem, remote = replicated_pair(
            addrs, rng, n_trips=6, breaker_cooldown_s=0.0, timeout_s=1.0, retries=1
        )
        try:
            assert_identical_queries(mem, remote, rng, n_queries=12)
        finally:
            remote.close()
            proxy.stop()
            direct.stop()
            behind.stop()
