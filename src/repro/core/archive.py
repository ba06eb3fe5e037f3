"""Trajectory archive layer: the preprocessed historical database.

The preprocessing component of Fig. 2: raw GPS logs are partitioned into
trips (stay-point removal), optionally aligned to the road network, and all
GPS points are organised in spatial indexes so the reference-trajectory
search can issue the two range queries of Sec. III-A efficiently.

The layer has two backends behind one protocol:

* :class:`ArchiveBackend` — what the reference search, HRIS and the eval
  harness need from an archive (trip access, point iteration, the range
  queries);
* :class:`InMemoryArchive` — the in-process backend: one R-tree over
  every archive point (kept available under its historical name
  :data:`TrajectoryArchive`);
* :class:`~repro.core.remote.RemoteShardedArchive` (in
  :mod:`repro.core.remote`) — the points split into square spatial tiles
  across *processes*: each :class:`~repro.core.remote.ArchiveShardServer`
  owns a subset of tiles and the client fans queries out over a socket
  protocol, merging replies back into the canonical order (see
  ``docs/distributed.md``).

Every backend returns **canonically ordered** query results — point hits
sorted by ``(traj_id, index)``, near-maps keyed in ascending trajectory
id — so backends are interchangeable bit-for-bit: merging per-shard hits
and sorting yields exactly the monolithic answer (each point lives in
exactly one tile, so the merge needs no boundary heuristics).

:func:`save_archive` / :func:`load_archive` persist an archive's trips
(ids preserved); the spatial index is rebuilt on first use.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.spatial.rtree import RTree
from repro.trajectory.io import iter_trajectories, save_trajectories
from repro.trajectory.model import GPSPoint, Trajectory
from repro.trajectory.staypoint import partition_trips

__all__ = [
    "ArchivePoint",
    "ArchiveBackend",
    "InMemoryArchive",
    "TrajectoryArchive",
    "ARCHIVE_BACKENDS",
    "make_archive",
    "convert_archive",
    "save_archive",
    "load_archive",
]


@dataclass(frozen=True, slots=True)
class ArchivePoint:
    """A reference into the archive: which trajectory, which observation."""

    traj_id: int
    index: int


def _ref_key(ref: ArchivePoint) -> Tuple[int, int]:
    return (ref.traj_id, ref.index)


def _group_refs(refs: Sequence[ArchivePoint]) -> Dict[int, List[int]]:
    """Canonically-ordered hits (see module docstring) to a near-map."""
    hits: Dict[int, List[int]] = {}
    for ref in refs:
        hits.setdefault(ref.traj_id, []).append(ref.index)
    return hits


@runtime_checkable
class ArchiveBackend(Protocol):
    """The archive surface the online system is written against.

    Implementations must return *canonically ordered* results: point hits
    sorted by ``(traj_id, index)`` and near-maps with ascending trajectory
    ids, each mapped to its sorted observation indices.  The ordering is
    what makes backends interchangeable bit-for-bit — downstream stages
    (reference assembly, scoring, K-GRI) see identical inputs whichever
    backend served the range queries.
    """

    def __len__(self) -> int: ...

    def __contains__(self, traj_id: int) -> bool: ...

    @property
    def num_points(self) -> int: ...

    def add(self, trajectory: Trajectory) -> int: ...

    def remove(self, traj_id: int) -> bool: ...

    def trajectory_ids(self) -> List[int]: ...

    def trajectory(self, traj_id: int) -> Trajectory: ...

    def trajectories(self) -> Iterable[Trajectory]: ...

    def point(self, ref: ArchivePoint) -> GPSPoint: ...

    def points_near(self, q: Point, radius: float) -> List[ArchivePoint]: ...

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]: ...

    def trajectories_near(self, q: Point, radius: float) -> Dict[int, List[int]]: ...

    def trajectories_near_pair(
        self, qi: Point, qi1: Point, radius: float
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]: ...

    def density_per_km2(self, region: BBox) -> float: ...

    def backend_stats(self) -> Dict[str, object]: ...


class _ArchiveBase:
    """Shared trip store and derived queries of every archive backend.

    Subclasses supply the spatial substrate through three hooks:
    :meth:`_search_circles` (batched circular range queries returning
    canonically sorted hits), :meth:`points_in_bbox`, and the mutation
    notifications :meth:`_on_add` / :meth:`_on_remove`.
    """

    def __init__(self) -> None:
        self._trajectories: Dict[int, Trajectory] = {}
        self._next_id = 0

    # ---------------------------------------------------------------- builder

    def add(self, trajectory: Trajectory) -> int:
        """Add a trip, re-identifying it; returns the assigned id."""
        new_id = self._next_id
        self._next_id += 1
        traj = Trajectory(new_id, trajectory.points)
        self._trajectories[new_id] = traj
        self._on_add(traj)
        return new_id

    def remove(self, traj_id: int) -> bool:
        """Remove a trip by id (e.g. retention expiry).

        Returns:
            True if the trip existed.
        """
        traj = self._trajectories.pop(traj_id, None)
        if traj is None:
            return False
        self._on_remove(traj)
        return True

    def _restore(self, trajectory: Trajectory) -> None:
        """Re-insert a trip under its existing id (persistence/conversion).

        Raises:
            ValueError: If the id is already taken.
        """
        tid = trajectory.traj_id
        if tid in self._trajectories:
            raise ValueError(f"trajectory id {tid} already present")
        self._trajectories[tid] = trajectory
        self._next_id = max(self._next_id, tid + 1)
        self._on_add(trajectory)

    @classmethod
    def from_trips(cls, trips: Iterable[Trajectory], **kwargs) -> "_ArchiveBase":
        archive = cls(**kwargs)
        for t in trips:
            archive.add(t)
        return archive

    @classmethod
    def from_raw_logs(
        cls,
        logs: Iterable[Trajectory],
        stay_distance: float = 200.0,
        stay_time: float = 20.0 * 60.0,
        max_gap_s: float = 30.0 * 60.0,
        min_points: int = 2,
        **kwargs,
    ) -> "_ArchiveBase":
        """Preprocess raw multi-trip GPS logs: trip partition then indexing.

        This is the "Trip Partition" box of the paper's Fig. 2 applied to
        every log, with each resulting trip stored as its own archive entry.
        """
        archive = cls(**kwargs)
        for log in logs:
            for trip in partition_trips(
                log, stay_distance, stay_time, max_gap_s, min_points
            ):
                archive.add(trip)
        return archive

    # ----------------------------------------------------------------- access

    def __len__(self) -> int:
        return len(self._trajectories)

    def __contains__(self, traj_id: int) -> bool:
        return traj_id in self._trajectories

    @property
    def num_points(self) -> int:
        return sum(len(t) for t in self._trajectories.values())

    def trajectory_ids(self) -> List[int]:
        """All trip ids, ascending."""
        return sorted(self._trajectories)

    def trajectory(self, traj_id: int) -> Trajectory:
        return self._trajectories[traj_id]

    def trajectories(self) -> Iterable[Trajectory]:
        return self._trajectories.values()

    def point(self, ref: ArchivePoint) -> GPSPoint:
        return self._trajectories[ref.traj_id].points[ref.index]

    def iter_points(self) -> Iterator[Tuple[ArchivePoint, GPSPoint]]:
        """Every observation in the archive, tagged with its reference."""
        for tid, traj in self._trajectories.items():
            for i, p in enumerate(traj.points):
                yield ArchivePoint(tid, i), p

    # ---------------------------------------------------------------- queries

    def points_near(self, q: Point, radius: float) -> List[ArchivePoint]:
        """All archive observations within ``radius`` of ``q``."""
        return self._search_circles([(q, radius)])[0]

    def trajectories_near(self, q: Point, radius: float) -> Dict[int, List[int]]:
        """Trajectory ids with at least one observation within ``radius``,
        mapped to the indices of those observations (sorted)."""
        return _group_refs(self.points_near(q, radius))

    def trajectories_near_pair(
        self, qi: Point, qi1: Point, radius: float
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """:meth:`trajectories_near` around both points of a query pair.

        The reference search needs the φ-neighbourhoods of ``q_i`` and
        ``q_{i+1}`` together; backends serve both range queries in one
        index pass (a single R-tree walk in process, one request per
        owning shard for the remote backend).

        Returns:
            ``(near_i, near_j)`` — trajectory id to sorted observation
            indices, one map per query point.
        """
        hits_i, hits_j = self._search_circles([(qi, radius), (qi1, radius)])
        return _group_refs(hits_i), _group_refs(hits_j)

    def density_per_km2(self, region: BBox) -> float:
        """Archive observations per km² inside ``region``."""
        if region.area == 0.0:
            return 0.0
        return len(self.points_in_bbox(region)) / (region.area / 1_000_000.0)

    # ------------------------------------------------------------- telemetry

    def backend_stats(self) -> Dict[str, object]:
        """One JSON-able snapshot of this backend's state for monitoring.

        Every backend reports at least ``backend`` / ``n_trajectories`` /
        ``n_points``; subclasses extend it with their resident-index and
        (for the remote backend) replication-health figures.
        """
        return {
            "backend": type(self).__name__,
            "n_trajectories": len(self),
            "n_points": self.num_points,
        }

    # ------------------------------------------------------------------ hooks

    def _on_add(self, trajectory: Trajectory) -> None:
        raise NotImplementedError

    def _on_remove(self, trajectory: Trajectory) -> None:
        raise NotImplementedError

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        raise NotImplementedError

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        """All observations inside ``region``, canonically ordered."""
        raise NotImplementedError


class InMemoryArchive(_ArchiveBase):
    """The monolithic backend: one R-tree over every archive point.

    The index is built lazily (STR bulk load) on the first spatial query.
    Once built it is maintained *incrementally*: :meth:`add` inserts the
    new trip's points and :meth:`remove` deletes them, so steady-state
    mutations cost ``O(points · log n)`` instead of a full rebuild.
    """

    def __init__(self) -> None:
        super().__init__()
        self._index: Optional[RTree[ArchivePoint]] = None

    # ------------------------------------------------------------------ hooks

    def _on_add(self, trajectory: Trajectory) -> None:
        if self._index is None:
            return
        for i, p in enumerate(trajectory.points):
            self._index.insert_point(p.point, ArchivePoint(trajectory.traj_id, i))

    def _on_remove(self, trajectory: Trajectory) -> None:
        if self._index is None:
            return
        for i, p in enumerate(trajectory.points):
            self._index.remove_point(p.point, ArchivePoint(trajectory.traj_id, i))

    def _ensure_index(self) -> RTree[ArchivePoint]:
        if self._index is None:
            entries = [
                (BBox.from_point(p.point), ref) for ref, p in self.iter_points()
            ]
            self._index = RTree.bulk_load(entries, max_entries=32)
        return self._index

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        index = self._ensure_index()
        hits = index.search_radius_many(
            queries, position=lambda ref: self.point(ref).point
        )
        return [sorted(h, key=_ref_key) for h in hits]

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        return sorted(self._ensure_index().search_bbox(region), key=_ref_key)

    # ------------------------------------------------------------- accounting

    @property
    def resident_points(self) -> int:
        """Observations currently held by a materialised spatial index."""
        return self.num_points if self._index is not None else 0

    def index_nbytes(self) -> int:
        """Approximate bytes held by the materialised R-tree (0 if lazy)."""
        return self._index.approx_nbytes() if self._index is not None else 0

    def backend_stats(self) -> Dict[str, object]:
        stats = super().backend_stats()
        stats.update(
            backend="memory",
            resident_points=self.resident_points,
            index_bytes=self.index_nbytes(),
        )
        return stats


#: Historical name of the single-R-tree archive, kept as the default
#: backend so existing code (and the seed test suite) keeps working.
TrajectoryArchive = InMemoryArchive


#: Backend registry: CLI/IO names accepted by :func:`make_archive`.
ARCHIVE_BACKENDS = ("memory", "remote")


def make_archive(
    backend: str = "memory",
    tile_size: Optional[float] = None,
    shard_addrs: Optional[Sequence[str]] = None,
    replication: Optional[int] = None,
    pool_size: Optional[int] = None,
) -> _ArchiveBase:
    """Construct an empty archive of the requested backend.

    Args:
        backend: ``"memory"`` (one in-process R-tree) or ``"remote"``
            (tiles served by shard-server processes, see
            :mod:`repro.core.remote`).
        tile_size: Optional tile side in metres to enforce on the remote
            backend's handshake (remote only).
        shard_addrs: ``host:port`` shard-server addresses; required by
            (and only meaningful for) the remote backend.  Several
            servers claiming the same shard index form that shard's
            replica set.
        replication: Optional replicas-per-shard count to enforce on the
            remote backend's handshake (remote only).
        pool_size: Optional persistent connections kept per replica
            (remote only; default 1).  Concurrent callers — the serving
            gateway's worker pool — raise it to multiplex in-flight
            requests per replica instead of serialising on one socket.

    Raises:
        ValueError: On an unknown backend name, a remote backend without
            shard addresses, or ``tile_size``/``replication``/``pool_size``
            with the in-process backend.
    """
    if backend != "remote" and tile_size is not None:
        raise ValueError("tile_size only applies to the remote backend")
    if backend != "remote" and pool_size is not None:
        raise ValueError("pool_size only applies to the remote backend")
    if backend != "remote" and replication is not None:
        raise ValueError("replication only applies to the remote backend")
    if backend == "memory":
        return InMemoryArchive()
    if backend == "remote":
        if not shard_addrs:
            raise ValueError(
                "the remote backend needs at least one shard address "
                "(shard_addrs=[...] / --shard-addr host:port)"
            )
        from repro.core.remote import RemoteShardedArchive

        return RemoteShardedArchive(
            shard_addrs,
            expected_tile_size=tile_size,
            replication=replication,
            pool_size=pool_size if pool_size is not None else 1,
        )
    raise ValueError(
        f"unknown archive backend {backend!r}; expected one of {ARCHIVE_BACKENDS}"
    )


def convert_archive(
    source: _ArchiveBase,
    backend: str,
    tile_size: Optional[float] = None,
    shard_addrs: Optional[Sequence[str]] = None,
    replication: Optional[int] = None,
) -> _ArchiveBase:
    """Rebuild ``source`` under another backend, *preserving trip ids*.

    Identical ids mean identical reference search output (references carry
    ``source_ids``), so a converted archive is a drop-in replacement.
    Converting to ``"remote"`` pushes every observation to the owning
    shard servers (idempotently, so pre-seeded fleets are fine); with
    replicated shards every replica receives the push.
    """
    out = make_archive(backend, tile_size, shard_addrs, replication)
    for tid in sorted(source._trajectories):
        out._restore(source._trajectories[tid])
    out._next_id = max(out._next_id, source._next_id)
    return out


# ------------------------------------------------------------------ persistence

_MANIFEST_FILE = "manifest.json"
_TRIPS_FILE = "trips.jsonl"
_ARCHIVE_FORMAT = "repro-archive-v1"


def _stash_path(directory: Path) -> Path:
    """Where a :func:`save_archive` replacement stashes the old archive."""
    return directory.parent / (directory.name + ".prev.tmp")


def _recover_interrupted_save(directory: Path) -> None:
    """Close the one crash window of an atomic archive replacement.

    :func:`save_archive` replaces an existing archive with two renames:
    target → ``<name>.prev.tmp``, then temp → target.  A crash between
    them leaves the target missing but the previous archive intact under
    the stash name; putting it back restores the pre-save state.  Both
    the next save and :func:`load_archive` call this first.
    """
    stash = _stash_path(directory)
    if stash.is_dir() and not directory.exists():
        os.rename(stash, directory)


def save_archive(archive: _ArchiveBase, directory: Union[str, Path]) -> Path:
    """Persist an archive's trips to a directory.

    Layout::

        manifest.json   format, backend, counters
        trips.jsonl     one trajectory per line (ids preserved)

    The write is **crash-safe**: every artefact is written into a
    temporary sibling directory first and the target is replaced by
    atomic renames only once the temp copy is complete, so a crash (or
    an exception) mid-save can never leave a half-written or corrupted
    archive at ``directory`` — the previous contents survive untouched.

    Returns:
        The directory path.
    """
    directory = Path(directory)
    directory.parent.mkdir(parents=True, exist_ok=True)
    _recover_interrupted_save(directory)
    staging = directory.parent / (directory.name + ".saving.tmp")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir()
    try:
        trips = [archive._trajectories[tid] for tid in sorted(archive._trajectories)]
        save_trajectories(trips, staging / _TRIPS_FILE)
        manifest: Dict[str, object] = {
            "format": _ARCHIVE_FORMAT,
            "backend": "memory",
            "next_id": archive._next_id,
            "n_trajectories": len(archive),
            "n_points": archive.num_points,
        }
        with open(staging / _MANIFEST_FILE, "w", encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    if directory.exists():
        stash = _stash_path(directory)
        if stash.exists():
            shutil.rmtree(stash)
        os.rename(directory, stash)
        os.rename(staging, directory)  # commit point for the replacement
        shutil.rmtree(stash)
    else:
        os.rename(staging, directory)
    return directory


def load_archive(directory: Union[str, Path]) -> InMemoryArchive:
    """Reload an archive saved by :func:`save_archive` into memory.

    Only ``trips.jsonl`` and the manifest's format and counters are read.
    Directories written by the retired tiled backend (manifest backend
    ``sharded`` with a ``tile_size``, plus a ``tiles.json`` tile index
    derived from the trips) therefore load the same way: those extras
    are ignored.

    Raises:
        FileNotFoundError: If the directory or an artefact is missing.
        ValueError: On a manifest format/version mismatch (raised up
            front, naming the found version, before any trip parsing) or
            a trip count that disagrees with the manifest.
    """
    directory = Path(directory)
    _recover_interrupted_save(directory)
    with open(directory / _MANIFEST_FILE, "r", encoding="utf-8") as f:
        manifest = json.load(f)
    found = manifest.get("format")
    if found is None:
        raise ValueError(
            f"{directory / _MANIFEST_FILE} is not an archive manifest: "
            "it has no 'format' field"
        )
    if found != _ARCHIVE_FORMAT:
        raise ValueError(
            f"unsupported archive format {found!r}: this build reads "
            f"{_ARCHIVE_FORMAT!r} (re-save the archive with a matching "
            "version of save_archive)"
        )

    archive = InMemoryArchive()
    for traj in iter_trajectories(directory / _TRIPS_FILE):
        archive._restore(traj)
    archive._next_id = max(archive._next_id, int(manifest.get("next_id", 0)))
    if len(archive) != int(manifest.get("n_trajectories", len(archive))):
        raise ValueError("archive manifest/trip count mismatch")
    return archive
