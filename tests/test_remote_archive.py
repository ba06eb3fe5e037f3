"""Distributed archive correctness: fan-out equivalence and failure paths.

The contract under test: :class:`RemoteShardedArchive` backed by a
fleet of loopback :class:`ArchiveShardServer` processes must return
*bit-identical* query results to :class:`InMemoryArchive` on identical
trips — including pair queries straddling shard-ownership boundaries —
and a degraded shard must surface as a typed error after a bounded retry
schedule, never as a hang.  The reference search (Definitions 6 and 7)
over the fleet must return float-identical references to the in-memory
search, including for trajectories and splices that cross tile owners.
"""

import contextlib
import math
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.archive import (
    ArchivePoint,
    InMemoryArchive,
    convert_archive,
    make_archive,
)
from repro.core.reference import ReferenceSearch, ReferenceSearchConfig
from repro.core.remote import (
    PROTOCOL_VERSION,
    ArchiveShardServer,
    RemoteShardedArchive,
    ShardProtocolError,
    ShardTimeoutError,
    ShardUnavailableError,
    _ShardConnection,
    _WIRE_V,
    parse_address,
    request_shutdown,
    shard_of_tile,
)
from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.roadnet.generators import manhattan_line
from repro.trajectory.model import GPSPoint, Trajectory

TILE = 500.0
NUM_SHARDS = 3


def random_trips(rng, n_trips=12, extent=4_000.0):
    """Random trajectories with 200–900 m strides: most cross several
    tiles, so their points land on different owning shards."""
    trips = []
    for __ in range(n_trips):
        n = int(rng.integers(2, 12))
        x, y = rng.uniform(0.0, extent, size=2)
        pts = []
        t = 0.0
        for __ in range(n):
            pts.append(GPSPoint(Point(x, y), t))
            heading = rng.uniform(0.0, 2.0 * math.pi)
            step = rng.uniform(200.0, 900.0)
            x += step * math.cos(heading)
            y += step * math.sin(heading)
            t += 30.0
        trips.append(Trajectory.build(0, pts))
    return trips


@pytest.fixture
def cluster():
    servers = [ArchiveShardServer(i, NUM_SHARDS, TILE).start() for i in range(NUM_SHARDS)]
    addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
    yield servers, addrs
    for server in servers:
        server.stop()


def fed_archives(addrs, trips):
    """An InMemoryArchive and a remote archive fed identical trips."""
    mem = InMemoryArchive()
    remote = RemoteShardedArchive(addrs, timeout_s=5.0)
    for trip in trips:
        assert mem.add(trip) == remote.add(trip)
    return mem, remote


def matched_archives(rng, addrs, n_trips=12):
    return fed_archives(addrs, random_trips(rng, n_trips))


#: A valid handshake reply of a one-shard, empty deployment.
STUB_HELLO = {
    "ok": True,
    "protocol": PROTOCOL_VERSION,
    "shard_index": 0,
    "num_shards": 1,
    "replica_id": 0,
    "tile_size": TILE,
    "num_points": 0,
    "num_tiles": 0,
    "lsn": 0,
}


@contextlib.contextmanager
def stub_shard(hello):
    """A fake shard on loopback that answers ``hello`` with the given
    reply and never answers any other op.

    Yields ``(address, accepted)``: the ``host:port`` to dial and the
    list of sockets it has accepted so far.
    """
    accepted = []

    def handle(sock):
        from repro.core.remote import _recv_frame, _send_frame

        try:
            while True:
                request = _recv_frame(sock)
                if request is None:
                    return
                if request.get("op") == "hello":
                    _send_frame(sock, hello)
                # any other op: stall forever (no reply)
        except (OSError, ValueError):
            pass

    def accept_loop(listener):
        while True:
            try:
                sock, __ = listener.accept()
            except OSError:
                return
            accepted.append(sock)
            threading.Thread(target=handle, args=(sock,), daemon=True).start()

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    thread = threading.Thread(target=accept_loop, args=(listener,), daemon=True)
    thread.start()
    try:
        yield f"127.0.0.1:{listener.getsockname()[1]}", accepted
    finally:
        listener.close()
        for sock in accepted:
            sock.close()


class TestOwnership:
    def test_shard_of_tile_is_deterministic_and_total(self):
        for key in [(0, 0), (-3, 7), (12, -5), (1000, 1000), (-1, -1)]:
            owner = shard_of_tile(key, NUM_SHARDS)
            assert 0 <= owner < NUM_SHARDS
            assert owner == shard_of_tile(key, NUM_SHARDS)  # pure function
        with pytest.raises(ValueError):
            shard_of_tile((0, 0), 0)

    def test_server_rejects_unowned_insert(self, cluster):
        servers, addrs = cluster
        # Find a tile NOT owned by shard 0 and push a point there directly.
        key = next(
            (ix, 0) for ix in range(64) if shard_of_tile((ix, 0), NUM_SHARDS) != 0
        )
        x = (key[0] + 0.5) * TILE
        conn = _ShardConnection(parse_address(addrs[0]), 5.0, 0, 0.0, [])
        try:
            with pytest.raises(ShardProtocolError, match="owned by"):
                conn.request(
                    {"op": "insert", "v": _WIRE_V, "points": [[0, 0, x, 250.0]]}
                )
        finally:
            conn.close()

    def test_server_rejects_wrong_wire_version(self, cluster):
        __, addrs = cluster
        conn = _ShardConnection(parse_address(addrs[0]), 5.0, 0, 0.0, [])
        try:
            with pytest.raises(ShardProtocolError, match="wire version"):
                conn.request({"op": "ping", "v": 99})
        finally:
            conn.close()


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomised_queries_identical(self, cluster, seed):
        __, addrs = cluster
        rng = np.random.default_rng(seed)
        mem, remote = matched_archives(rng, addrs)
        for __ in range(20):
            q = Point(*rng.uniform(-500.0, 4_500.0, size=2))
            radius = float(rng.uniform(50.0, 1_500.0))
            assert mem.points_near(q, radius) == remote.points_near(q, radius)
            x0, y0 = rng.uniform(-500.0, 4_000.0, size=2)
            box = BBox(
                x0, y0, x0 + rng.uniform(10.0, 2_000.0), y0 + rng.uniform(10.0, 2_000.0)
            )
            assert mem.points_in_bbox(box) == remote.points_in_bbox(box)
            assert mem.density_per_km2(box) == remote.density_per_km2(box)
        remote.close()

    @pytest.mark.parametrize("seed", range(4))
    def test_pair_queries_straddle_ownership_boundaries(self, cluster, seed):
        __, addrs = cluster
        rng = np.random.default_rng(100 + seed)
        mem, remote = matched_archives(rng, addrs)
        # The fleet must actually be split for the test to mean anything.
        resident = [s["num_points"] for s in remote.shard_stats()]
        assert sum(1 for n in resident if n > 0) >= 2
        for __ in range(12):
            qi = Point(*rng.uniform(0.0, 4_000.0, size=2))
            qi1 = Point(*rng.uniform(0.0, 4_000.0, size=2))
            radius = float(rng.uniform(400.0, 1_500.0))
            assert mem.trajectories_near_pair(qi, qi1, radius) == (
                remote.trajectories_near_pair(qi, qi1, radius)
            )
        remote.close()

    def test_merged_results_are_canonically_ordered(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(42)
        mem, remote = matched_archives(rng, addrs, n_trips=16)
        q = Point(2_000.0, 2_000.0)
        hits = remote.points_near(q, 2_500.0)
        assert hits == sorted(hits, key=lambda ref: (ref.traj_id, ref.index))
        # The big radius spans tiles owned by several shards.
        owners = {
            shard_of_tile(remote.tile_key(remote.point(ref).point), NUM_SHARDS)
            for ref in hits
        }
        assert len(owners) >= 2
        near_i, near_j = remote.trajectories_near_pair(q, Point(500.0, 3_500.0), 2_000.0)
        for near in (near_i, near_j):
            assert list(near) == sorted(near)
            assert all(idxs == sorted(idxs) for idxs in near.values())
        remote.close()

    def test_mutations_forwarded_to_owners(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(7)
        mem, remote = matched_archives(rng, addrs, n_trips=8)
        probe = Point(2_000.0, 2_000.0)
        extra = random_trips(rng, 1)[0]
        assert mem.add(extra) == remote.add(extra)
        victim = mem.trajectory_ids()[0]
        assert mem.remove(victim) and remote.remove(victim)
        for radius in (200.0, 800.0, 3_000.0):
            assert mem.points_near(probe, radius) == remote.points_near(probe, radius)
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        remote.close()

    def test_preload_and_attach(self, cluster):
        servers, addrs = cluster
        rng = np.random.default_rng(9)
        mem = InMemoryArchive()
        for trip in random_trips(rng):
            mem.add(trip)
        for server in servers:
            server.preload(mem.iter_points())
        remote = RemoteShardedArchive(addrs)
        remote.attach_trips(mem.trajectories())
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        q = Point(1_500.0, 1_500.0)
        assert mem.trajectories_near(q, 2_000.0) == remote.trajectories_near(q, 2_000.0)
        with pytest.raises(ValueError, match="already present"):
            remote.attach_trips([mem.trajectory(mem.trajectory_ids()[0])])
        remote.close()

    def test_convert_archive_push_is_idempotent(self, cluster):
        servers, addrs = cluster
        rng = np.random.default_rng(11)
        mem = InMemoryArchive()
        for trip in random_trips(rng):
            mem.add(trip)
        for server in servers:  # pre-seed, then convert pushes the same points
            server.preload(mem.iter_points())
        remote = convert_archive(mem, "remote", shard_addrs=addrs)
        assert remote.trajectory_ids() == mem.trajectory_ids()
        assert sum(s["num_points"] for s in remote.shard_stats()) == mem.num_points
        q = Point(500.0, 500.0)
        assert mem.points_near(q, 2_000.0) == remote.points_near(q, 2_000.0)
        remote.close()


class TestCircleRim:
    """A point on a circle's rim may lie an ulp outside the circle's exact
    box.  The client must route, and the server pick tiles, by the same
    padded box as the in-memory grid, or the fleet drops the point."""

    @pytest.mark.parametrize(
        "point_x, center_x, radius",
        [
            (240.7363828398288, 801.9008166841459, 561.164433844317),
            (999.9999999999999, 2190.585170832365, 1190.5851708323648),
            # The unpadded box meets only tile (0, 0), on shard 0; the
            # point lies in tile (-1, 0), on shard 1.
            (-3.1039472977595818e-15, 68.84292733875684, 68.84292733875684),
        ],
        ids=["within-one-tile", "tile-straddling", "other-shard"],
    )
    def test_rim_point_found_like_memory(self, point_x, center_x, radius):
        servers = [ArchiveShardServer(i, 2, 1_000.0).start() for i in range(2)]
        try:
            far = Point(5_000.0, 100.0)
            trip = Trajectory.build(
                0, [GPSPoint(Point(point_x, 100.0), 0.0), GPSPoint(far, 60.0)]
            )
            mem, remote = fed_archives(
                [f"127.0.0.1:{s.address[1]}" for s in servers], [trip]
            )
            q = Point(center_x, 100.0)
            assert mem.points_near(q, radius) == [ArchivePoint(0, 0)]
            assert remote.points_near(q, radius) == [ArchivePoint(0, 0)]
            assert remote.trajectories_near_pair(q, far, radius) == (
                mem.trajectories_near_pair(q, far, radius)
            )
            remote.close()
        finally:
            for server in servers:
                server.stop()


INF, NAN = math.inf, math.nan


@pytest.fixture
def both_backends(cluster):
    """The in-memory and remote backends over the same random trips."""
    __, addrs = cluster
    mem, remote = matched_archives(np.random.default_rng(17), addrs)
    yield {"memory": mem, "remote": remote}
    remote.close()


def _raised(call):
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


class TestOddQueryShapes:
    """Both backends answer odd query shapes alike, or refuse them with the
    in-memory grid's ``ValueError``."""

    @pytest.mark.parametrize("backend", ["memory", "remote"])
    @pytest.mark.parametrize(
        "centre", [(INF, 100.0), (100.0, -INF), (NAN, 100.0), (INF, NAN)]
    )
    def test_non_finite_centre_refused(self, both_backends, backend, centre):
        archive = both_backends[backend]
        q, finite = Point(*centre), Point(1_000.0, 1_000.0)
        message = f"query centre ({q.x}, {q.y}) is not finite"
        assert _raised(lambda: archive.points_near(q, 500.0)) == message
        assert _raised(lambda: archive.trajectories_near(q, 500.0)) == message
        near_pair = archive.trajectories_near_pair
        assert _raised(lambda: near_pair(q, finite, 500.0)) == message
        assert _raised(lambda: near_pair(finite, q, 500.0)) == message

    @pytest.mark.parametrize("backend", ["memory", "remote"])
    @pytest.mark.parametrize("radius", [-1.0, NAN])
    def test_bad_radius_refused(self, both_backends, backend, radius):
        archive = both_backends[backend]
        q = Point(1_000.0, 1_000.0)
        message = "radius must be non-negative"
        assert _raised(lambda: archive.points_near(q, radius)) == message
        assert _raised(lambda: archive.trajectories_near_pair(q, q, radius)) == message

    @pytest.mark.parametrize("backend", ["memory", "remote"])
    @pytest.mark.parametrize(
        "box",
        [
            (-INF, -INF, INF, INF),
            (500.0, -INF, 2_500.0, INF),
            (-INF, 1_000.0, 1_500.0, 3_000.0),
            (0.0, 0.0, INF, 1_200.0),
            (NAN, 0.0, 2_000.0, 2_000.0),
            (0.0, 0.0, 2_000.0, NAN),
        ],
    )
    def test_bbox_with_non_finite_side(self, both_backends, backend, box):
        x0, y0, x1, y1 = box
        mem = both_backends["memory"]
        inside = sorted(
            (
                ref
                for ref, p in mem.iter_points()
                if x0 <= p.point.x <= x1 and y0 <= p.point.y <= y1
            ),
            key=lambda ref: (ref.traj_id, ref.index),
        )
        if not any(math.isnan(v) for v in box):
            assert inside  # the probe must see points to mean anything
        assert both_backends[backend].points_in_bbox(BBox(*box)) == inside


class TestFailureSurface:
    def test_stalled_shard_bounded_retry_then_typed_error(self):
        """A shard that answers the handshake then goes silent must cost a
        bounded number of attempts and raise ShardTimeoutError — not hang."""
        with stub_shard(STUB_HELLO) as (addr, accepted):
            remote = RemoteShardedArchive(
                [addr], timeout_s=0.2, retries=2, backoff_s=0.01
            )
            t0 = time.perf_counter()
            with pytest.raises(ShardTimeoutError) as excinfo:
                remote.points_near(Point(0.0, 0.0), 100.0)
            elapsed = time.perf_counter() - t0
            assert excinfo.value.attempts == 3  # retries + 1, then stop
            assert excinfo.value.op == "search_circles"
            assert elapsed < 5.0  # bounded: ~3 x 0.2s timeouts + backoff
            assert len(accepted) >= 2  # it reconnected between retries
            remote.close()

    @pytest.mark.parametrize(
        "field",
        ["shard_index", "num_shards", "replica_id", "tile_size", "num_points", "lsn"],
    )
    def test_missing_or_mistyped_hello_field_is_a_typed_error(self, field):
        """Every handshake field is required with its JSON type: a reply
        lacking one, or carrying it as a string, is a ShardProtocolError
        naming the shard and the field — never a KeyError or a default."""
        missing = {k: v for k, v in STUB_HELLO.items() if k != field}
        mistyped = dict(STUB_HELLO, **{field: str(STUB_HELLO[field])})
        for reply in (missing, mistyped):
            with stub_shard(reply) as (addr, __):
                with pytest.raises(ShardProtocolError, match=field) as excinfo:
                    RemoteShardedArchive([addr], timeout_s=1.0, retries=0)
                assert addr in str(excinfo.value)

    def test_unreachable_shard_raises_unavailable(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(ShardUnavailableError):
            RemoteShardedArchive(
                [f"127.0.0.1:{port}"], timeout_s=0.2, retries=0, backoff_s=0.01
            )

    def test_inconsistent_fleet_rejected(self):
        # Two servers that each claim a 3-shard deployment, client has 2.
        servers = [ArchiveShardServer(i, 3, TILE).start() for i in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            with pytest.raises(ShardProtocolError, match="3-shard deployment"):
                RemoteShardedArchive(addrs)
        finally:
            for server in servers:
                server.stop()

    def test_missing_shard_rejected(self):
        # Two servers for shard 0 form a legal replica set, but shard 1 of
        # the declared 2-shard deployment has no server at all.
        servers = [ArchiveShardServer(0, 2, TILE).start() for __ in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            with pytest.raises(ShardProtocolError, match="have no server"):
                RemoteShardedArchive(addrs)
        finally:
            for server in servers:
                server.stop()

    def test_tile_size_mismatch_rejected(self, cluster):
        __, addrs = cluster
        with pytest.raises(ShardProtocolError, match="tile_size"):
            RemoteShardedArchive(addrs, expected_tile_size=TILE + 1.0)

    def test_make_archive_remote_requires_addresses(self):
        with pytest.raises(ValueError, match="shard address"):
            make_archive("remote")

    def test_parse_address_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_address("no-port-here")
        assert parse_address("host:80") == ("host", 80)
        assert parse_address(("h", 80)) == ("h", 80)


class TestLifecycle:
    def test_request_shutdown_stops_server(self):
        server = ArchiveShardServer(0, 1, TILE).start()
        request_shutdown(f"127.0.0.1:{server.address[1]}")
        server._thread.join(timeout=5.0)
        assert not server._thread.is_alive()
        server.stop()  # idempotent after remote shutdown

    def test_prepare_for_fork_drops_connections_then_reconnects(self, cluster):
        __, addrs = cluster
        rng = np.random.default_rng(17)
        mem, remote = matched_archives(rng, addrs, n_trips=6)
        remote.prepare_for_fork()
        q = Point(2_000.0, 2_000.0)  # lazily reconnects
        assert mem.points_near(q, 1_000.0) == remote.points_near(q, 1_000.0)
        remote.close()

    def test_server_validates_construction(self):
        with pytest.raises(ValueError):
            ArchiveShardServer(3, 3, TILE)
        with pytest.raises(ValueError):
            ArchiveShardServer(0, 1, 0.0)


class TestInferenceIdentity:
    def test_hris_bit_identical_via_remote_fleet(self, corridor_world):
        """Acceptance: full HRIS inference is bit-identical whether the
        reference search is served in-process or by the shard fleet."""
        from repro.core.system import HRIS, HRISConfig
        from repro.trajectory.resample import downsample

        servers = [ArchiveShardServer(i, 2, 600.0).start() for i in range(2)]
        addrs = [f"127.0.0.1:{s.address[1]}" for s in servers]
        try:
            remote = convert_archive(corridor_world.archive, "remote", shard_addrs=addrs)
            h_mem = HRIS(corridor_world.network, corridor_world.archive, HRISConfig())
            h_remote = HRIS(corridor_world.network, remote, HRISConfig())
            query = downsample(corridor_world.query, 240.0)
            r_mem = h_mem.infer_routes(query)
            r_remote = h_remote.infer_routes(query)
            assert [(g.route.segment_ids, g.log_score) for g in r_mem] == [
                (g.route.segment_ids, g.log_score) for g in r_remote
            ]
            remote.close()
        finally:
            for server in servers:
                server.stop()


# ------------------------------------------------------ reference identity


@pytest.fixture
def line():
    return manhattan_line(n_nodes=10, spacing=200.0)


def traj(coords_times, tid=0):
    return Trajectory.build(
        tid, [GPSPoint(Point(x, y), t) for (x, y, t) in coords_times]
    )


def query_pair(x0=0.0, x1=1000.0, dt=600.0):
    return GPSPoint(Point(x0, 0.0), 0.0), GPSPoint(Point(x1, 0.0), dt)


def owners_of(trip):
    """The set of shards owning at least one observation of ``trip``."""
    return {
        shard_of_tile(
            (math.floor(o.point.x / TILE), math.floor(o.point.y / TILE)), NUM_SHARDS
        )
        for o in trip
    }


def assert_identical_references(local_refs, remote_refs):
    assert len(local_refs) == len(remote_refs)
    for a, b in zip(local_refs, remote_refs):
        assert a.ref_id == b.ref_id
        assert a.source_ids == b.source_ids
        assert a.spliced == b.spliced
        assert len(a.points) == len(b.points)
        for p, q in zip(a.points, b.points):
            assert p.x == q.x and p.y == q.y  # exact, not approx


class TestReferenceIdentity:
    """ReferenceSearch over the fleet vs over InMemoryArchive: the same
    references, float for float, across tile-ownership boundaries."""

    def test_single_trajectory_straddling_tiles(self, cluster, line):
        """A simple reference whose observations live on three shards."""
        __, addrs = cluster
        # Eastbound corridor trip spanning tiles (0,0), (1,0), (2,0) —
        # with 3 shards those tiles hash to owners 0, 2, 1.
        trip = traj([(i * 100.0, 10.0, i * 20.0) for i in range(13)])
        assert len(owners_of(trip)) == 3
        mem, remote = fed_archives(addrs, [trip])
        cfg = ReferenceSearchConfig(phi=300.0)
        qi, qi1 = query_pair()
        local = ReferenceSearch(mem, line, cfg).search(qi, qi1)
        fleet = ReferenceSearch(remote, line, cfg).search(qi, qi1)
        assert len(local) == 1 and not local[0].spliced
        assert_identical_references(local, fleet)
        remote.close()

    def test_splice_tail_and_head_on_different_shards(self, cluster, line):
        """Definition-7 pair whose halves live on different shard sets."""
        __, addrs = cluster
        # Tail on y=+10 (tile row 0 -> shards {0, 2}), head on y=-10
        # (tile row -1 -> shards {1, 2}); neither reaches both endpoints.
        t_a = traj([(i * 100.0, 10.0, i * 20.0) for i in range(7)], tid=0)
        t_b = traj([(400.0 + i * 100.0, -10.0, i * 20.0) for i in range(7)], tid=1)
        assert owners_of(t_a) != owners_of(t_b)
        mem, remote = fed_archives(addrs, [t_a, t_b])
        cfg = ReferenceSearchConfig(phi=150.0, splice_epsilon=150.0)
        qi, qi1 = query_pair()
        local = ReferenceSearch(mem, line, cfg).search(qi, qi1)
        fleet = ReferenceSearch(remote, line, cfg).search(qi, qi1)
        spliced = [r for r in fleet if r.spliced]
        assert len(spliced) == 1
        assert set(spliced[0].source_ids) == {0, 1}
        assert_identical_references(local, fleet)
        remote.close()

    def test_randomized_queries_match_memory(self, cluster, line):
        """Seeded sweep: every query pair yields bit-identical references
        from the shard fleet and the in-memory ground truth."""
        __, addrs = cluster
        rng = np.random.default_rng(7)
        mem, remote = matched_archives(rng, addrs, n_trips=16)
        cfg = ReferenceSearchConfig(phi=500.0, splice_epsilon=300.0)
        local_search = ReferenceSearch(mem, line, cfg)
        fleet_search = ReferenceSearch(remote, line, cfg)
        for __q in range(8):
            x0, y0 = rng.uniform(0.0, 3_500.0, size=2)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            gap = rng.uniform(400.0, 1_500.0)
            qi = GPSPoint(Point(x0, y0), 0.0)
            qi1 = GPSPoint(
                Point(x0 + gap * math.cos(heading), y0 + gap * math.sin(heading)),
                600.0,
            )
            assert_identical_references(
                local_search.search(qi, qi1), fleet_search.search(qi, qi1)
            )
        remote.close()
