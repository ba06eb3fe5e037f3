"""Unit tests for the trajectory archive."""

import json
import math
import os

import numpy as np
import pytest

import repro.core.archive as archive_mod
from repro.core.archive import (
    ArchivePoint,
    InMemoryArchive,
    TrajectoryArchive,
    convert_archive,
    load_archive,
    make_archive,
    save_archive,
)
from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.trajectory.model import GPSPoint, Trajectory


def traj(coords, tid=1, dt=30.0):
    return Trajectory.build(
        tid, [GPSPoint(Point(x, y), i * dt) for i, (x, y) in enumerate(coords)]
    )


def random_archive(rng, n_trips=12, extent=4_000.0):
    """An archive of random trajectories with long (200–900 m) strides."""
    archive = InMemoryArchive()
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
        archive.add(Trajectory.build(0, pts))
    return archive


def zigzag_trajectory(x_mid=500.0):
    """Points hopping back and forth across ``x = x_mid``, one exactly on it."""
    pts = []
    for i in range(8):
        x = x_mid + (i % 2 * 2 - 1) * 10.0 * (i + 1)
        if i == 4:
            x = x_mid
        pts.append(GPSPoint(Point(x, 40.0 * i), 30.0 * i))
    return Trajectory.build(0, pts)


def _canonical(refs):
    return sorted(refs, key=lambda ref: (ref.traj_id, ref.index))


def scan_near(archive, q, radius):
    """Brute-force ``points_near``: the grid's own distance test applied
    to every observation of ``iter_points()``, canonically ordered."""
    return _canonical(
        ref for ref, p in archive.iter_points() if p.point.distance_to(q) <= radius
    )


def scan_bbox(archive, box):
    """Brute-force ``points_in_bbox``: closed box containment."""
    return _canonical(
        ref
        for ref, p in archive.iter_points()
        if box.min_x <= p.point.x <= box.max_x and box.min_y <= p.point.y <= box.max_y
    )


def scan_near_map(archive, q, radius):
    """Brute-force ``trajectories_near``: trajectory id to sorted indices."""
    hits = {}
    for ref in scan_near(archive, q, radius):
        hits.setdefault(ref.traj_id, []).append(ref.index)
    return hits


def scan_density(archive, box):
    if box.area == 0.0:
        return 0.0
    return len(scan_bbox(archive, box)) / (box.area / 1_000_000.0)


def exact_distance_probe(archive, rng):
    """A probe centre and the radius that puts one archive point exactly
    on the circle (by the same ``distance_to`` the index uses)."""
    refs = [ref for ref, __ in archive.iter_points()]
    target = archive.point(refs[int(rng.integers(len(refs)))]).point
    dx, dy = rng.uniform(-600.0, 600.0, size=2)
    q = Point(target.x + dx, target.y + dy)
    return q, target.distance_to(q), target


class TestBuilding:
    def test_add_reassigns_ids(self):
        a = TrajectoryArchive()
        id1 = a.add(traj([(0, 0), (1, 1)], tid=99))
        id2 = a.add(traj([(2, 2), (3, 3)], tid=99))
        assert id1 != id2
        assert a.trajectory(id1).traj_id == id1

    def test_from_trips(self):
        a = TrajectoryArchive.from_trips([traj([(0, 0), (1, 1)]), traj([(2, 2), (3, 3)])])
        assert len(a) == 2
        assert a.num_points == 4

    def test_contains(self):
        a = TrajectoryArchive()
        tid = a.add(traj([(0, 0), (1, 1)]))
        assert tid in a
        assert 9999 not in a

    def test_from_raw_logs_partitions(self):
        # One log with a long stay in the middle becomes two trips.
        pts = []
        t = 0.0
        for i in range(5):
            pts.append(GPSPoint(Point(i * 300.0, 0.0), t))
            t += 30.0
        for i in range(7):
            pts.append(GPSPoint(Point(1500.0, 0.0), t))
            t += 300.0
        for i in range(5):
            pts.append(GPSPoint(Point(1600.0 + i * 300.0, 0.0), t))
            t += 30.0
        log = Trajectory.build(5, pts)
        a = TrajectoryArchive.from_raw_logs([log])
        assert len(a) == 2


class TestQueries:
    def test_point_accessor(self):
        a = TrajectoryArchive()
        tid = a.add(traj([(0, 0), (5, 5)]))
        p = a.point(ArchivePoint(tid, 1))
        assert p.point == Point(5, 5)

    def test_points_near(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (100, 0)]))
        a.add(traj([(5000, 5000), (5100, 5000)]))
        hits = a.points_near(Point(0, 0), 150.0)
        assert len(hits) == 2
        assert all(h.traj_id == 0 for h in hits)

    def test_trajectories_near_groups_and_sorts(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0), (20, 0)]))
        hits = a.trajectories_near(Point(10, 0), 100.0)
        assert hits == {0: [0, 1, 2]}

    def test_trajectories_near_pair_matches_two_single_queries(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0), (20, 0)]))
        a.add(traj([(400, 0), (410, 0)]))
        a.add(traj([(5000, 5000), (5100, 5000)]))
        qi, qi1 = Point(10, 0), Point(405, 0)
        near_i, near_j = a.trajectories_near_pair(qi, qi1, 100.0)
        assert near_i == a.trajectories_near(qi, 100.0)
        assert near_j == a.trajectories_near(qi1, 100.0)

    def test_index_invalidated_on_add(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0)]))
        assert len(a.points_near(Point(500, 0), 50.0)) == 0
        a.add(traj([(500, 0), (510, 0)]))
        assert len(a.points_near(Point(500, 0), 50.0)) == 2

    def test_density(self):
        a = TrajectoryArchive()
        a.add(traj([(100, 100), (200, 200), (300, 300), (400, 400)]))
        box = BBox(0, 0, 1000, 1000)
        assert a.density_per_km2(box) == 4.0

    def test_density_zero_area(self):
        a = TrajectoryArchive()
        assert a.density_per_km2(BBox(0, 0, 0, 10)) == 0.0


class TestIncrementalIndex:
    """Mutations after the first query must update the point grid in place."""

    def test_add_inserts_into_existing_index(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0)]))
        assert len(a.points_near(Point(0, 0), 50.0)) == 2
        index_before = a._index
        assert index_before is not None
        a.add(traj([(500, 0), (510, 0)]))
        assert a._index is index_before  # no rebuild
        assert len(a.points_near(Point(500, 0), 50.0)) == 2
        assert len(a._index) == 4

    def test_remove_deletes_from_existing_index(self):
        a = TrajectoryArchive()
        tid = a.add(traj([(0, 0), (10, 0)]))
        a.add(traj([(500, 0), (510, 0)]))
        assert len(a.points_near(Point(0, 0), 50.0)) == 2
        index_before = a._index
        assert a.remove(tid)
        assert a._index is index_before  # condensed, not discarded
        assert a.points_near(Point(0, 0), 50.0) == []
        assert len(a._index) == 2


class TestPointsInBBox:
    def test_canonical_order_and_contents(self):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (900, 0)]))
        a.add(traj([(100, 0), (5000, 5000)]))
        refs = a.points_in_bbox(BBox(-10, -10, 1000, 10))
        assert refs == [
            ArchivePoint(0, 0),
            ArchivePoint(0, 1),
            ArchivePoint(1, 0),
        ]


class TestNonFiniteRejected:
    """A trip with a NaN or infinite x, y or t is refused before the
    archive changes: ``len``, ``next_id`` and the grid stay as they were."""

    @staticmethod
    def bad_trip(tid, x=1.0, y=1.0, t=1.0):
        # Built directly: Trajectory.build would refuse it already.
        return Trajectory(
            tid, (GPSPoint(Point(0.0, 0.0), 0.0), GPSPoint(Point(x, y), t))
        )

    @pytest.mark.parametrize(
        "field", [dict(x=math.nan), dict(y=math.inf), dict(t=math.nan)]
    )
    def test_add_and_restore_leave_archive_unchanged(self, field):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0)]))

        def state():
            return len(a), a._next_id, len(a._index), a.points_near(Point(0, 0), 50.0)

        before = state()
        with pytest.raises(ValueError, match="not finite"):
            a.add(self.bad_trip(7, **field))
        with pytest.raises(ValueError, match="not finite"):
            a._restore(self.bad_trip(7, **field))
        assert 7 not in a
        assert state() == before

    def test_load_archive_refuses_non_finite_trips(self, tmp_path):
        a = TrajectoryArchive()
        a.add(traj([(0, 0), (10, 0)]))
        directory = save_archive(a, tmp_path / "arch")
        trips = directory / "trips.jsonl"
        record = json.loads(trips.read_text())
        record["points"][1][0] = math.nan
        trips.write_text(json.dumps(record) + "\n")  # a NaN literal
        with pytest.raises(ValueError, match="not finite"):
            load_archive(directory)


class TestRemoval:
    def test_remove_existing(self):
        a = TrajectoryArchive()
        tid = a.add(traj([(0, 0), (10, 0)]))
        a.add(traj([(500, 0), (510, 0)]))
        assert a.remove(tid)
        assert tid not in a
        assert len(a) == 1
        # Spatial queries reflect the removal.
        assert a.points_near(Point(0, 0), 50.0) == []
        assert len(a.points_near(Point(500, 0), 50.0)) == 2

    def test_remove_missing(self):
        a = TrajectoryArchive()
        assert not a.remove(42)


class TestScanEquivalence:
    """Every spatial query equals a brute-force scan of ``iter_points()``.

    The scan applies the index's own predicates (``distance_to(q) <= r``,
    closed box containment), so any disagreement is an index defect.
    """

    @pytest.mark.parametrize("seed", range(6))
    def test_randomised_queries_match_scan(self, seed):
        rng = np.random.default_rng(seed)
        mem = random_archive(rng)
        for __ in range(25):
            q = Point(*rng.uniform(-500.0, 4_500.0, size=2))
            radius = float(rng.uniform(50.0, 1_500.0))
            assert mem.points_near(q, radius) == scan_near(mem, q, radius)
            x0, y0 = rng.uniform(-500.0, 4_000.0, size=2)
            box = BBox(x0, y0, x0 + rng.uniform(10.0, 2_000.0), y0 + rng.uniform(10.0, 2_000.0))
            assert mem.points_in_bbox(box) == scan_bbox(mem, box)
            assert mem.density_per_km2(box) == scan_density(mem, box)
            q, radius, target = exact_distance_probe(mem, rng)
            hits = mem.points_near(q, radius)
            assert hits == scan_near(mem, q, radius)
            assert any(mem.point(ref).point == target for ref in hits)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomised_pair_queries_match_scan(self, seed):
        rng = np.random.default_rng(100 + seed)
        mem = random_archive(rng)
        for __ in range(15):
            qi = Point(*rng.uniform(0.0, 4_000.0, size=2))
            qi1 = Point(*rng.uniform(0.0, 4_000.0, size=2))
            radius = float(rng.uniform(100.0, 1_200.0))
            assert mem.trajectories_near_pair(qi, qi1, radius) == (
                scan_near_map(mem, qi, radius),
                scan_near_map(mem, qi1, radius),
            )
            qi, radius, __ = exact_distance_probe(mem, rng)
            assert mem.trajectories_near_pair(qi, qi1, radius) == (
                scan_near_map(mem, qi, radius),
                scan_near_map(mem, qi1, radius),
            )

    def test_boundary_probes_match_scan(self):
        mem = InMemoryArchive()
        mem.add(zigzag_trajectory(500.0))
        for x in (500.0, 500.0 - 1e-9, 500.0 + 1e-9, 0.0, 1_000.0):
            for radius in (0.0, 15.0, 120.0, 600.0):
                q = Point(x, 100.0)
                assert mem.points_near(q, radius) == scan_near(mem, q, radius)
        # Every observation as the centre at radius 0, and exactly on the
        # circle of a probe beside it.
        for ref, p in mem.iter_points():
            assert ref in mem.points_near(p.point, 0.0)
            q = Point(p.point.x + 3.0, p.point.y - 4.0)
            radius = p.point.distance_to(q)
            assert mem.points_near(q, radius) == scan_near(mem, q, radius)
            assert ref in mem.points_near(q, radius)
        seam = BBox(500.0, 0.0, 500.0, 300.0)  # zero-width box
        assert mem.points_in_bbox(seam) == scan_bbox(mem, seam)

    def test_mutations_match_scan(self):
        rng = np.random.default_rng(7)
        mem = random_archive(rng, n_trips=8)
        probe = Point(2_000.0, 2_000.0)
        # Warm the index, then mutate: adds and removes must be visible
        # without a rebuild.
        assert mem.points_near(probe, 1_000.0) == scan_near(mem, probe, 1_000.0)
        mem.add(zigzag_trajectory())
        assert mem.remove(mem.trajectory_ids()[0])
        for radius in (200.0, 800.0, 3_000.0):
            assert mem.points_near(probe, radius) == scan_near(mem, probe, radius)
        box = BBox(0.0, 0.0, 4_000.0, 4_000.0)
        assert mem.points_in_bbox(box) == scan_bbox(mem, box)


class TestBackends:
    def test_make_archive_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown archive backend"):
            make_archive("bogus")

    def test_make_archive_rejects_tile_size_without_remote(self):
        with pytest.raises(ValueError, match="tile_size only applies"):
            make_archive("memory", tile_size=700.0)

    def test_convert_preserves_ids_and_results(self):
        rng = np.random.default_rng(11)
        mem = random_archive(rng)
        mem.remove(mem.trajectory_ids()[2])  # leave an id gap
        copy = convert_archive(mem, "memory")
        assert copy.trajectory_ids() == mem.trajectory_ids()
        q = Point(1_500.0, 1_500.0)
        assert mem.trajectories_near(q, 2_000.0) == copy.trajectories_near(q, 2_000.0)
        # A later add must not collide with a pre-conversion id.
        new_id = copy.add(zigzag_trajectory())
        assert new_id not in mem


class TestPersistence:
    def test_memory_round_trip(self, tmp_path):
        rng = np.random.default_rng(22)
        mem = random_archive(rng)
        save_archive(mem, tmp_path / "arch")
        restored = load_archive(tmp_path / "arch")
        assert isinstance(restored, InMemoryArchive)
        q = Point(500.0, 500.0)
        assert restored.points_near(q, 2_000.0) == mem.points_near(q, 2_000.0)

    def test_manifest_version_mismatch_names_found_version(self, tmp_path):
        """A future/foreign manifest fails up front, naming the version it
        found — before any trip parsing (trips.jsonl may not even parse)."""
        rng = np.random.default_rng(24)
        mem = random_archive(rng, n_trips=2)
        save_archive(mem, tmp_path / "arch")
        manifest_path = tmp_path / "arch" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = "repro-archive-v999"
        manifest_path.write_text(json.dumps(manifest))
        (tmp_path / "arch" / "trips.jsonl").write_text("not even json\n")
        with pytest.raises(ValueError, match="repro-archive-v999"):
            load_archive(tmp_path / "arch")

    def test_manifest_without_format_field_rejected(self, tmp_path):
        directory = tmp_path / "arch"
        directory.mkdir()
        (directory / "manifest.json").write_text('{"backend": "memory"}')
        with pytest.raises(ValueError, match="no 'format' field"):
            load_archive(directory)

    def test_next_id_survives_round_trip(self, tmp_path):
        mem = InMemoryArchive()
        a = mem.add(zigzag_trajectory())
        b = mem.add(zigzag_trajectory())
        mem.remove(b)  # next_id must stay past the removed trailing id
        save_archive(mem, tmp_path / "arch")
        restored = load_archive(tmp_path / "arch")
        assert restored.add(zigzag_trajectory()) == b + 1
        assert a in restored

    def test_tiled_backend_directory_loads_into_memory(self, tmp_path):
        """A directory saved by the retired tiled backend — manifest
        backend ``sharded`` with a ``tile_size``, plus a ``tiles.json``
        tile index — loads from its trips alone."""
        rng = np.random.default_rng(25)
        mem = random_archive(rng)
        mem.remove(mem.trajectory_ids()[3])  # an id gap
        mem.remove(mem.trajectory_ids()[-1])  # next_id past the last live id
        directory = save_archive(mem, tmp_path / "arch")
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(backend="sharded", tile_size=500.0)
        manifest_path.write_text(json.dumps(manifest, indent=2))
        tiles = {}
        for ref, p in mem.iter_points():
            key = f"{math.floor(p.point.x / 500.0)},{math.floor(p.point.y / 500.0)}"
            tiles.setdefault(key, []).append([ref.traj_id, ref.index])
        (directory / "tiles.json").write_text(json.dumps(dict(sorted(tiles.items()))))

        restored = load_archive(directory)
        assert isinstance(restored, InMemoryArchive)
        assert restored.trajectory_ids() == mem.trajectory_ids()
        for __ in range(10):
            q = Point(*rng.uniform(0.0, 4_000.0, size=2))
            radius = float(rng.uniform(100.0, 1_500.0))
            assert restored.points_near(q, radius) == mem.points_near(q, radius)
        extra = zigzag_trajectory()
        assert restored.add(extra) == mem.add(extra)


class TestCrashSafeSave:
    """``save_archive`` stages into a temp directory and commits by atomic
    rename — a fault *anywhere* mid-save leaves the previous archive
    loadable and no staging debris behind."""

    def test_fault_mid_write_preserves_existing_archive(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        mem = random_archive(rng, n_trips=5)
        target = tmp_path / "arch"
        save_archive(mem, target)

        def exploding_save(trips, path):
            # Partial bytes reach the disk before the "crash" — exactly
            # the torn write the staging directory must contain.
            with open(path, "w", encoding="utf-8") as fh:
                fh.write('{"torn":')
            raise OSError("injected fault: device full mid-write")

        bigger = random_archive(np.random.default_rng(32), n_trips=9)
        monkeypatch.setattr(archive_mod, "save_trajectories", exploding_save)
        with pytest.raises(OSError, match="injected fault"):
            save_archive(bigger, target)
        monkeypatch.undo()

        # The previous archive is untouched and loadable, the staging
        # directory was cleaned up on the way out.
        assert not (tmp_path / "arch.saving.tmp").exists()
        assert not (tmp_path / "arch.prev.tmp").exists()
        restored = load_archive(target)
        assert restored.trajectory_ids() == mem.trajectory_ids()
        assert restored.num_points == mem.num_points

    def test_crash_between_renames_recovers_on_next_load(self, tmp_path):
        """The narrowest window: old archive renamed to its stash but the
        staged replacement never committed.  Load finds the stash and
        restores it."""
        rng = np.random.default_rng(33)
        mem = random_archive(rng, n_trips=4)
        target = tmp_path / "arch"
        save_archive(mem, target)
        os.rename(target, tmp_path / "arch.prev.tmp")  # simulated crash point

        restored = load_archive(target)
        assert target.exists()
        assert not (tmp_path / "arch.prev.tmp").exists()
        assert restored.trajectory_ids() == mem.trajectory_ids()

    def test_successful_resave_replaces_and_leaves_no_debris(self, tmp_path):
        rng = np.random.default_rng(34)
        mem = random_archive(rng, n_trips=3)
        target = tmp_path / "arch"
        save_archive(mem, target)
        mem.add(zigzag_trajectory())
        save_archive(mem, target)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["arch"]
        restored = load_archive(target)
        assert restored.trajectory_ids() == mem.trajectory_ids()
