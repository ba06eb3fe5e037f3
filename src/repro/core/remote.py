"""Distributed tile serving: archive shard servers and the remote backend.

:class:`~repro.core.archive.InMemoryArchive` keeps one R-tree over the
whole archive in one process; this module splits the archive's points
into square spatial tiles served from *multiple processes*, so a
city-scale archive's spatial indexes no longer have to fit one
machine's memory:

* :class:`ArchiveShardServer` — a process that **owns** a deterministic
  subset of tiles (see :func:`shard_of_tile`) and answers the archive
  range queries for them over a length-prefixed JSON socket protocol
  (``repro-remote-v4``, specified in ``docs/distributed.md``),
  optionally journalling every mutation to a durable write-ahead log
  (:mod:`repro.core.wal`) so a process death loses no acknowledged
  ingest;
* :class:`RemoteShardedArchive` — an
  :class:`~repro.core.archive.ArchiveBackend` client that routes every
  spatial query to the owning shard servers, fans pair queries out
  concurrently, and merges the per-shard replies back into the canonical
  ``(traj_id, index)`` order — results are bit-identical to
  :class:`~repro.core.archive.InMemoryArchive` on the same trips.

Failure handling is explicit: every request carries a timeout, failed
requests are retried a bounded number of times with exponential backoff
and full jitter (all operations are idempotent, so a retry after a lost
reply is safe), and a shard that stays unreachable surfaces as a typed
:class:`ShardUnavailableError` / :class:`ShardTimeoutError` naming the
degraded shard — never a hang, never a silent partial answer.

Replication: each shard index may be served by a
**replica set** of several :class:`ArchiveShardServer` processes holding
identical tile data.  Mutations fan out to every replica of the owning
shard; reads route to one healthy replica and fail over transparently.
:class:`RemoteShardedArchive` tracks per-replica health with a
consecutive-failure circuit breaker: a replica that keeps failing is
*demoted* (its circuit opens), reads stop routing to it, and after a
cooldown a half-open ``stats`` probe restores it.  A probe that finds
the replica *lagging* — alive, but behind the mutation stream this
client has driven — **repairs** it before restoring it: the missing
record suffix is fetched from a healthy peer (``log_since``) and
replayed onto the laggard (``apply_log``), so a replica that restarted
from an old WAL generation or missed writes while its breaker was open
rejoins the rotation with bit-identical data.  Only a replica whose
missing prefix is gone (compacted away on every peer) or whose data
truly diverged is left *stale* — excluded from reads, cheaply re-probed
after each cooldown, never silently serving divergent answers.  No
error reaches the caller while at least one current replica of every
queried shard survives.
"""

from __future__ import annotations

import json
import math
import random
import socket
import socketserver
import struct
import threading
import time
from collections import deque
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    MutableSequence,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.geo.bbox import BBox
from repro.geo.point import Point
from repro.spatial.rtree import RTree
from repro.trajectory.model import GPSPoint, Trajectory

from repro.core.archive import ArchivePoint, _ArchiveBase, _ref_key
from repro.core.wal import FSYNC_POLICIES, WriteAheadLog

__all__ = [
    "PROTOCOL_VERSION",
    "RemoteArchiveError",
    "ShardProtocolError",
    "ShardUnavailableError",
    "ShardTimeoutError",
    "ShardExhaustedError",
    "InjectedFault",
    "shard_of_tile",
    "parse_address",
    "ArchiveShardServer",
    "RemoteShardedArchive",
    "WireMeter",
    "request_shutdown",
]

#: Wire-format version token.  Every request carries ``"v": 4`` and the
#: handshake reply carries this string; both sides reject mismatches up
#: front instead of mis-parsing payloads (see docs/distributed.md).  The
#: ``hello`` op is version-agnostic on the server so that any client can
#: discover what a server speaks before committing to the dialect.
#: v4 over v3: servers expose their mutation-log position (``lsn`` in
#: ``hello``/``insert``/``delete``/``stats`` replies) and the replica
#: catch-up ops ``log_since`` / ``apply_log`` exist, so a lagging
#: replica is repaired by log replay instead of demoted permanently.
#: v3 over v2: observations carry timestamps.  (v3's shard-side
#: reference-assembly ops are retired; asking for one gets the typed
#: ``unknown op`` refusal.)
PROTOCOL_VERSION = "repro-remote-v4"

_WIRE_V = 4

#: Bound on the per-client request-latency telemetry ring
#: (:attr:`RemoteShardedArchive.request_latencies`): old samples fall off
#: instead of growing without bound on long-lived servers.
LATENCY_WINDOW = 16_384

#: Frame header: one big-endian u32 payload length.
_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's JSON payload; a peer announcing more
#: is treated as protocol corruption, not an allocation request.
MAX_FRAME_BYTES = 64 * 1024 * 1024


# --------------------------------------------------------------------- errors


class RemoteArchiveError(RuntimeError):
    """Base class of every remote-archive failure."""


class ShardProtocolError(RemoteArchiveError):
    """The peer spoke, but not ``repro-remote-v4`` (version/shape/refusal)."""


class ShardUnavailableError(RemoteArchiveError):
    """A shard stayed unreachable after the bounded retry schedule.

    Attributes:
        address: ``(host, port)`` of the degraded shard.
        op: The operation that could not be served.
        attempts: Connection attempts made (``retries + 1``).
    """

    def __init__(self, address: Tuple[str, int], op: str, attempts: int, cause: str):
        self.address = address
        self.op = op
        self.attempts = attempts
        super().__init__(
            f"shard {address[0]}:{address[1]} unavailable for {op!r} "
            f"after {attempts} attempt(s): {cause}"
        )


class ShardTimeoutError(ShardUnavailableError):
    """The shard accepted connections but never answered within the timeout."""


class ShardExhaustedError(ShardUnavailableError):
    """Every replica of a shard is unavailable — the shard itself is lost.

    Raised by a replicated deployment only after transparent failover ran
    out of candidates; with a single replica per shard the underlying
    :class:`ShardUnavailableError` / :class:`ShardTimeoutError` is raised
    directly instead (the v1 surface).

    Attributes:
        shard_index: The shard whose whole replica set is down.
        failures: The per-replica errors, in the order replicas were tried.
    """

    def __init__(
        self,
        shard_index: int,
        op: str,
        replicas: int,
        failures: Sequence["ShardUnavailableError"],
    ):
        self.shard_index = shard_index
        self.op = op
        self.failures = list(failures)
        self.attempts = sum(f.attempts for f in self.failures)
        self.address = self.failures[-1].address if self.failures else ("?", 0)
        detail = (
            "; ".join(str(f) for f in self.failures)
            or "no replica eligible (all demoted as stale)"
        )
        RuntimeError.__init__(
            self,
            f"shard {shard_index}: all {replicas} replica(s) unavailable "
            f"for {op!r}: {detail}",
        )


class InjectedFault(Exception):
    """Raised by a server-side fault hook to sever the connection.

    Not a :class:`RemoteArchiveError`: it lives on the *server*, where the
    request handler treats it as "crash now" — the connection is dropped
    without a reply, exactly as if the process died mid-request.  The
    chaos harness (:mod:`repro.core.chaos`) raises it from
    :attr:`ArchiveShardServer.fault_hook` callbacks.
    """


# --------------------------------------------------------------- wire helpers


class WireMeter:
    """Thread-safe byte counters for one client's shard traffic.

    Frame payloads plus headers, in both directions, across every
    connection of a :class:`RemoteShardedArchive`.  The benchmark uses
    deltas around a query batch to report bytes-on-the-wire per query.
    """

    __slots__ = ("_lock", "bytes_sent", "bytes_received", "frames_sent", "frames_received")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.bytes_sent = 0
            self.bytes_received = 0
            self.frames_sent = 0
            self.frames_received = 0

    def add_sent(self, n: int) -> None:
        with self._lock:
            self.bytes_sent += n
            self.frames_sent += 1

    def add_received(self, n: int) -> None:
        with self._lock:
            self.bytes_received += n
            self.frames_received += 1

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self.bytes_sent + self.bytes_received

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "frames_sent": self.frames_sent,
                "frames_received": self.frames_received,
            }


def _send_frame(
    sock: socket.socket, payload: dict, meter: Optional[WireMeter] = None
) -> None:
    data = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(data)) + data)
    if meter is not None:
        meter.add_sent(_HEADER.size + len(data))


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None  # orderly EOF
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(
    sock: socket.socket, meter: Optional[WireMeter] = None
) -> Optional[dict]:
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ShardProtocolError(f"frame of {length} bytes exceeds the protocol cap")
    body = _recv_exact(sock, length)
    if meter is not None and body is not None:
        meter.add_received(_HEADER.size + length)
    if body is None:
        # A peer that dies mid-reply truncates the frame: that is an
        # availability event (retry on a fresh connection), not a
        # protocol violation by a live peer.
        raise ConnectionError("connection closed mid-frame")
    decoded = json.loads(body.decode("utf-8"))
    if not isinstance(decoded, dict):
        raise ShardProtocolError(
            f"frame payload is {type(decoded).__name__}, expected an object"
        )
    return decoded


#: The ``hello`` reply fields a client reads, with the JSON types allowed.
_HELLO_FIELDS = {
    "shard_index": (int,),
    "num_shards": (int,),
    "replica_id": (int,),
    "tile_size": (int, float),
    "num_points": (int,),
    "lsn": (int,),
}


def _read_hello(address: Tuple[str, int], hello: dict) -> dict:
    """The :data:`_HELLO_FIELDS` of a ``hello`` reply, type-checked.

    Raises:
        ShardProtocolError: Naming the shard address and the field, when
            a field is missing or has the wrong JSON type.
    """
    fields = {}
    for name, types in _HELLO_FIELDS.items():
        if name not in hello:
            raise ShardProtocolError(
                f"shard {address[0]}:{address[1]} sent a hello without {name!r}"
            )
        value = hello[name]
        if isinstance(value, bool) or not isinstance(value, types):
            raise ShardProtocolError(
                f"shard {address[0]}:{address[1]} sent a hello whose {name!r} "
                f"is {type(value).__name__}, expected "
                f"{' or '.join(t.__name__ for t in types)}"
            )
        fields[name] = value
    return fields


def parse_address(address: Union[str, Tuple[str, int]]) -> Tuple[str, int]:
    """``"host:port"`` or ``(host, port)`` → ``(host, port)``.

    Raises:
        ValueError: If the string has no ``:port`` or the port is not an int.
    """
    if isinstance(address, tuple):
        host, port = address
        return (str(host), int(port))
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(f"shard address {address!r} is not host:port")
    return (host, int(port))


# ------------------------------------------------------------ shard ownership


def shard_of_tile(key: Tuple[int, int], num_shards: int) -> int:
    """The shard index owning tile ``key`` among ``num_shards`` shards.

    Deterministic and platform-independent (no salted ``hash()``): the
    classic two-prime spatial hash, reduced modulo the shard count.  Both
    client and servers evaluate this function, so ownership needs no
    coordination service — a tile's owner is a pure function of its key.
    """
    if num_shards <= 0:
        raise ValueError("num_shards must be positive")
    ix, iy = key
    return ((ix * 73856093) ^ (iy * 19349663)) % num_shards


# ---------------------------------------------------------------- the server


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    shard: "ArchiveShardServer"


class _ShardRequestHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:
        shard = self.server.shard
        shard._track_connection(self.request)
        try:
            while True:
                try:
                    request = _recv_frame(self.request)
                except (OSError, ValueError, ShardProtocolError):
                    return
                if request is None:
                    return
                hook = shard.fault_hook
                if hook is not None:
                    try:
                        hook(request)
                    except InjectedFault:
                        return  # crash-mid-request: drop without replying
                response = shard._dispatch(request)
                try:
                    _send_frame(self.request, response)
                except OSError:
                    return
                if request.get("op") == "shutdown" and response.get("ok"):
                    threading.Thread(target=self.server.shutdown, daemon=True).start()
                    return
        finally:
            shard._untrack_connection(self.request)


class ArchiveShardServer:
    """One process of the distributed archive: owns a subset of tiles.

    The server stores timestamped observations —
    ``(traj_id, index) -> (x, y, t)`` binned into
    ``floor(coord / tile_size)`` tiles — and materialises one R-tree per
    tile lazily.

    Ownership is closed under :func:`shard_of_tile`: inserts for a tile
    this shard does not own are refused (kind ``"ownership"``), so a
    misconfigured client fails loudly instead of splitting a tile across
    shards (which would break the disjoint-merge guarantee).

    Replication: several servers may share one ``shard_index`` — they
    form that shard's replica set and are expected to receive identical
    mutation streams (the client fans mutations out to all of them).
    ``replica_id`` distinguishes them in handshakes, stats and logs; it
    carries no routing semantics.

    Durability: every *effective* mutation (rows that actually change
    state — idempotent retries append nothing) is assigned the next LSN,
    journalled, and only then applied and acknowledged.  With ``wal_dir``
    set the journal is a :class:`~repro.core.wal.WriteAheadLog` on disk:
    construction *is* recovery (snapshot + log-suffix replay with
    torn-tail truncation), and every ``compact_every`` records the log
    is compacted into a new snapshot generation.  Without ``wal_dir``
    the same record stream is kept in memory only — volatile, but it
    still feeds the ``log_since`` replica catch-up op.

    Args:
        shard_index: This shard's index in ``[0, num_shards)``.
        num_shards: Total shards in the deployment.
        tile_size: Tile edge in metres (must match every peer and client).
        host / port: Bind address; port 0 picks an ephemeral port
            (read it back from :attr:`address`).
        replica_id: This process's label within the shard's replica set.
        wal_dir: Directory for the durable write-ahead log (``None``
            keeps the mutation journal in memory only).
        fsync: WAL fsync policy — one of
            :data:`~repro.core.wal.FSYNC_POLICIES`.
        fsync_interval_s: Seconds between fsyncs under ``"interval"``.
        compact_every: Compact the WAL after this many records since the
            last snapshot (0 disables compaction).
    """

    DEFAULT_COMPACT_EVERY = 4096

    def __init__(
        self,
        shard_index: int,
        num_shards: int,
        tile_size: float,
        host: str = "127.0.0.1",
        port: int = 0,
        replica_id: int = 0,
        wal_dir: Optional[Union[str, Path]] = None,
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
        compact_every: int = DEFAULT_COMPACT_EVERY,
    ) -> None:
        if not 0 <= shard_index < num_shards:
            raise ValueError(f"shard_index {shard_index} outside [0, {num_shards})")
        if tile_size <= 0.0:
            raise ValueError("tile_size must be positive")
        if compact_every < 0:
            raise ValueError("compact_every must be non-negative")
        self.shard_index = shard_index
        self.num_shards = num_shards
        self.tile_size = float(tile_size)
        self.replica_id = int(replica_id)
        #: Optional test/chaos hook called with every decoded request
        #: before dispatch; raising :class:`InjectedFault` severs the
        #: connection without a reply (see :mod:`repro.core.chaos`).
        self.fault_hook: Optional[Callable[[dict], None]] = None
        #: ``tile key -> {(traj_id, index): (x, y, t)}``.
        self._tiles: Dict[
            Tuple[int, int], Dict[Tuple[int, int], Tuple[float, float, float]]
        ] = {}
        self._trees: Dict[Tuple[int, int], RTree[Tuple[int, int]]] = {}
        self._lock = threading.RLock()
        self._conn_lock = threading.Lock()
        self._active_conns: set = set()
        #: Mutation journal state: ``_lsn`` is the last record applied,
        #: ``_log`` the in-memory record tail ``(lsn, op, rows)`` since
        #: ``_base_lsn`` — exactly what ``log_since`` can serve.
        self._lsn = 0
        self._base_lsn = 0
        self._log: List[Tuple[int, str, list]] = []
        self._compact_every = int(compact_every)
        self._wal: Optional[WriteAheadLog] = None
        self._wal_unflushed_at_close = 0
        if wal_dir is not None:
            self._wal = WriteAheadLog(
                wal_dir, fsync=fsync, fsync_interval_s=fsync_interval_s
            )
            self._recover_from_wal()
        elif fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        self._server = _TCPServer((host, port), _ShardRequestHandler)
        self._server.shard = self
        self._thread: Optional[threading.Thread] = None

    def _recover_from_wal(self) -> None:
        """Rebuild the tiles from the recovered snapshot + log suffix."""
        assert self._wal is not None
        if self._wal.snapshot_rows:
            self._apply_rows("insert", self._wal.snapshot_rows)
        for __, op, rows in self._wal.records:
            self._apply_rows(op, rows)
        self._lsn = self._wal.lsn
        self._base_lsn = self._wal.base_lsn
        self._log = list(self._wal.records)
        # The replayed lists now live in self._log; drop the WAL's copies.
        self._wal.snapshot_rows = None
        self._wal.records = []

    # ----------------------------------------------------------- lifecycle

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — resolved even when port 0 was asked."""
        host, port = self._server.server_address[:2]
        return (host, port)

    def start(self) -> "ArchiveShardServer":
        """Serve in a daemon thread (tests, benchmarks, embedding)."""
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI ``archive-serve`` path)."""
        self._server.serve_forever()

    def stop(self) -> int:
        """Stop serving, sever live connections, flush and close the WAL.

        Closing only the listener would leave in-flight handler threads
        answering their persistent connections, which makes an in-process
        "kill" unfaithful to a process death; tearing the sockets down
        makes every client see the same reset a crashed replica causes.

        Returns:
            Records that were still awaiting fsync when the WAL was
            closed (0 with no WAL or policy ``"always"``) — the
            acknowledged-but-volatile count a crash at this moment would
            have lost; the CLI reports it on shutdown.
        """
        self._server.shutdown()
        self._server.server_close()
        with self._conn_lock:
            conns = list(self._active_conns)
            self._active_conns.clear()
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        with self._lock:
            if self._wal is not None:
                self._wal_unflushed_at_close = self._wal.close()
        return self._wal_unflushed_at_close

    def _track_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._active_conns.add(sock)

    def _untrack_connection(self, sock: socket.socket) -> None:
        with self._conn_lock:
            self._active_conns.discard(sock)

    # ---------------------------------------------------------------- state

    def owns(self, key: Tuple[int, int]) -> bool:
        return shard_of_tile(key, self.num_shards) == self.shard_index

    def tile_key(self, x: float, y: float) -> Tuple[int, int]:
        return (math.floor(x / self.tile_size), math.floor(y / self.tile_size))

    @property
    def num_points(self) -> int:
        with self._lock:
            return sum(len(points) for points in self._tiles.values())

    def preload(
        self, points: Iterable[Tuple[ArchivePoint, Union[Point, GPSPoint]]]
    ) -> int:
        """Ingest observations directly (CLI ``--world`` preseeding).

        Observations in tiles this shard does not own are skipped — the
        caller can stream a whole archive and each shard keeps its share.

        Returns:
            Observations kept.
        """
        kept = 0
        effective: List[list] = []
        with self._lock:
            for ref, p in points:
                key = self.tile_key(p.x, p.y)
                if not self.owns(key):
                    continue
                kept += 1
                if (ref.traj_id, ref.index) in self._tiles.get(key, ()):
                    continue  # already resident (e.g. WAL recovery preceded us)
                effective.append(
                    [
                        int(ref.traj_id),
                        int(ref.index),
                        float(p.x),
                        float(p.y),
                        float(getattr(p, "t", 0.0)),
                    ]
                )
            if effective:
                self._commit("insert", effective)
        return kept

    # ------------------------------------------------------------ durability

    def _apply_rows(self, op: str, rows: Sequence[Sequence[float]]) -> None:
        """Apply one journal record's rows to the tile state."""
        if op == "insert":
            for tid, idx, x, y, *rest in rows:
                self._insert_one(
                    self.tile_key(x, y),
                    (int(tid), int(idx)),
                    (x, y, float(rest[0]) if rest else 0.0),
                )
        elif op == "delete":
            for tid, idx, x, y, *__ in rows:
                self._delete_one(self.tile_key(x, y), (int(tid), int(idx)), (x, y))
        else:
            raise ValueError(f"unknown journal op {op!r}")

    def _commit(self, op: str, rows: list, lsn: Optional[int] = None) -> int:
        """Journal one effective mutation, then apply it (write-ahead).

        The WAL append happens *before* the state change and before any
        reply is framed, so an acknowledged mutation is always on disk
        (subject to the fsync policy); a crash between append and apply
        is repaired by replay.  ``lsn`` defaults to the next in sequence
        and may only be passed by ``apply_log`` (which preserves the
        donor's numbering — the gap check there guarantees it matches).
        """
        next_lsn = self._lsn + 1 if lsn is None else int(lsn)
        if next_lsn != self._lsn + 1:
            raise ValueError(f"lsn {next_lsn} leaves a gap after {self._lsn}")
        if self._wal is not None:
            self._wal.append(next_lsn, op, rows)
        self._log.append((next_lsn, op, rows))
        self._lsn = next_lsn
        self._apply_rows(op, rows)
        self._maybe_compact()
        return next_lsn

    def _maybe_compact(self) -> None:
        """Snapshot + rotate once ``compact_every`` records accumulate.

        Only the durable WAL compacts: an in-memory journal keeps its
        whole tail (it costs no I/O and lets ``log_since`` always serve
        a complete feed for catch-up in tests and embedded fleets).
        """
        if (
            self._wal is None
            or self._compact_every <= 0
            or self._lsn - self._base_lsn < self._compact_every
        ):
            return
        self._wal.rotate(self._snapshot_rows(), self._lsn)
        self._log = []
        self._base_lsn = self._lsn

    def _snapshot_rows(self) -> List[list]:
        """Every resident observation as canonical ``[tid, idx, x, y, t]``
        rows sorted by ``(tid, idx)``, the payload of a compaction
        snapshot."""
        resident: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        for tile in self._tiles.values():
            resident.update(tile)
        # Sorting the (tid, idx) tuple keys, not the row lists, keeps
        # CPython's fast tuple-comparison path.
        return [[tid, idx, *resident[tid, idx]] for tid, idx in sorted(resident)]

    def _insert_one(
        self,
        key: Tuple[int, int],
        ref: Tuple[int, int],
        xyt: Tuple[float, float, float],
    ) -> None:
        tile = self._tiles.setdefault(key, {})
        if ref in tile:  # idempotent re-insert (client retry after lost reply)
            return
        tile[ref] = xyt
        tree = self._trees.get(key)
        if tree is not None:
            tree.insert_point(Point(xyt[0], xyt[1]), ref)

    def _delete_one(
        self,
        key: Tuple[int, int],
        ref: Tuple[int, int],
        xy: Tuple[float, float],
    ) -> None:
        tile = self._tiles.get(key)
        if tile is None or ref not in tile:
            return  # idempotent
        del tile[ref]
        tree = self._trees.get(key)
        if tree is not None:
            tree.remove_point(Point(*xy), ref)
            if len(tree) == 0:
                del self._trees[key]
        if not tile:
            del self._tiles[key]

    def _tree(self, key: Tuple[int, int]) -> RTree[Tuple[int, int]]:
        tree = self._trees.get(key)
        if tree is None:
            entries = [
                (BBox(x, y, x, y), ref) for ref, (x, y, __) in self._tiles[key].items()
            ]
            tree = RTree.bulk_load(entries, max_entries=32)
            self._trees[key] = tree
        return tree

    def _tiles_overlapping(self, box: BBox) -> List[Tuple[int, int]]:
        ix0 = math.floor(box.min_x / self.tile_size)
        ix1 = math.floor(box.max_x / self.tile_size)
        iy0 = math.floor(box.min_y / self.tile_size)
        iy1 = math.floor(box.max_y / self.tile_size)
        span = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
        if span <= len(self._tiles):
            return [
                (ix, iy)
                for ix in range(ix0, ix1 + 1)
                for iy in range(iy0, iy1 + 1)
                if (ix, iy) in self._tiles
            ]
        return [
            key
            for key in self._tiles
            if ix0 <= key[0] <= ix1 and iy0 <= key[1] <= iy1
        ]

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[Tuple[int, int]]]:
        out: List[List[Tuple[int, int]]] = [[] for __ in queries]
        per_tile: Dict[Tuple[int, int], List[int]] = {}
        for qi, (center, radius) in enumerate(queries):
            box = BBox.around(center, radius)
            for key in self._tiles_overlapping(box):
                per_tile.setdefault(key, []).append(qi)
        for key, circle_ids in per_tile.items():
            points = self._tiles[key]
            sub = self._tree(key).search_radius_many(
                [queries[qi] for qi in circle_ids],
                position=lambda ref, points=points: Point(*points[ref][:2]),
            )
            for qi, hits in zip(circle_ids, sub):
                out[qi].extend(hits)
        return [sorted(set(hits)) for hits in out]

    def _search_bbox(self, region: BBox) -> List[Tuple[int, int]]:
        refs: List[Tuple[int, int]] = []
        for key in self._tiles_overlapping(region):
            refs.extend(self._tree(key).search_bbox(region))
        return sorted(set(refs))

    # ------------------------------------------------------------- protocol

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        if op == "hello":
            # Version-agnostic: clients of any dialect may ask what this
            # server speaks; the reply names the protocol so mismatches
            # fail with a clear message instead of a mis-parse.
            return self._op_hello(request)
        if request.get("v") != _WIRE_V:
            return {
                "ok": False,
                "kind": "protocol",
                "error": f"unsupported wire version {request.get('v')!r}; "
                f"this server speaks {PROTOCOL_VERSION} (v: {_WIRE_V})",
            }
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "kind": "protocol", "error": f"unknown op {op!r}"}
        try:
            with self._lock:
                return handler(request)
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "kind": "bad_request", "error": repr(exc)}

    def _op_hello(self, request: dict) -> dict:
        with self._lock:
            return {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "shard_index": self.shard_index,
                "num_shards": self.num_shards,
                "replica_id": self.replica_id,
                "tile_size": self.tile_size,
                "num_points": self.num_points,
                "num_tiles": len(self._tiles),
                "lsn": self._lsn,
            }

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True}

    def _op_insert(self, request: dict) -> dict:
        # Rows are ``[tid, idx, x, y, t]``; the timestamp may be omitted
        # (v2-era callers) and defaults to 0.0 — it is journalled and
        # snapshotted but answers no query.
        rows = request["points"]
        for tid, idx, x, y, *__ in rows:
            key = self.tile_key(x, y)
            if not self.owns(key):
                return {
                    "ok": False,
                    "kind": "ownership",
                    "error": f"tile {key} of point ({tid}, {idx}) is owned by "
                    f"shard {shard_of_tile(key, self.num_shards)}, "
                    f"not {self.shard_index}",
                }
        # Journal only the *effective* rows: a client retry after a lost
        # reply finds every row resident, appends no record and bumps no
        # LSN — idempotence extends to the durable log, and replicas fed
        # the same stream assign identical LSNs to identical records.
        effective = []
        for tid, idx, x, y, *rest in rows:
            if (int(tid), int(idx)) in self._tiles.get(self.tile_key(x, y), ()):
                continue
            effective.append(
                [int(tid), int(idx), float(x), float(y), float(rest[0]) if rest else 0.0]
            )
        if effective:
            self._commit("insert", effective)
        # The post-mutation point count and log position let the client
        # audit replica convergence: every replica of a shard receives
        # the same stream, so divergence exposes a stale replica
        # immediately.
        return {
            "ok": True,
            "inserted": len(rows),
            "num_points": self.num_points,
            "lsn": self._lsn,
        }

    def _op_delete(self, request: dict) -> dict:
        rows = request["points"]
        effective = []
        for tid, idx, x, y, *__ in rows:
            if (int(tid), int(idx)) in self._tiles.get(self.tile_key(x, y), ()):
                effective.append([int(tid), int(idx), float(x), float(y)])
        if effective:
            self._commit("delete", effective)
        return {
            "ok": True,
            "deleted": len(rows),
            "num_points": self.num_points,
            "lsn": self._lsn,
        }

    def _op_log_since(self, request: dict) -> dict:
        """The mutation records after ``lsn`` — the replica catch-up feed.

        ``complete`` is false when the requested position predates this
        journal's retained tail (``base_lsn`` — older records were
        compacted into a snapshot): the caller cannot rebuild a peer
        from here and must fall back to demotion.
        """
        since = int(request["lsn"])
        if since < self._base_lsn:
            return {
                "ok": True,
                "complete": False,
                "lsn": self._lsn,
                "base_lsn": self._base_lsn,
                "records": [],
            }
        return {
            "ok": True,
            "complete": True,
            "lsn": self._lsn,
            "base_lsn": self._base_lsn,
            "records": [
                [lsn, op, rows] for lsn, op, rows in self._log if lsn > since
            ],
        }

    def _op_apply_log(self, request: dict) -> dict:
        """Replay a peer's record suffix, preserving its LSNs.

        Records at or below this journal's position are skipped
        (idempotent retry); the first new record must extend the local
        stream gap-free — a gap means the suffix does not match this
        replica's history, and applying it would diverge silently.
        Applied records are journalled to this server's own WAL with
        their original LSNs, so both replicas end bit-identical on disk.
        """
        applied = 0
        for record in request["records"]:
            lsn, op, rows = int(record[0]), str(record[1]), record[2]
            if op not in ("insert", "delete"):
                return {
                    "ok": False,
                    "kind": "bad_request",
                    "error": f"unknown log op {op!r}",
                }
            if lsn <= self._lsn:
                continue
            if lsn != self._lsn + 1:
                return {
                    "ok": False,
                    "kind": "log_gap",
                    "error": f"record lsn {lsn} leaves a gap after local "
                    f"lsn {self._lsn}",
                }
            self._commit(op, rows, lsn=lsn)
            applied += 1
        return {
            "ok": True,
            "applied": applied,
            "num_points": self.num_points,
            "lsn": self._lsn,
        }

    def _op_search_circles(self, request: dict) -> dict:
        queries = [(Point(x, y), r) for x, y, r in request["queries"]]
        hits = self._search_circles(queries)
        return {"ok": True, "hits": [[list(ref) for ref in h] for h in hits]}

    def _op_search_bbox(self, request: dict) -> dict:
        x0, y0, x1, y1 = request["bbox"]
        refs = self._search_bbox(BBox(x0, y0, x1, y1))
        return {"ok": True, "refs": [list(ref) for ref in refs]}

    def _op_near_pair(self, request: dict) -> dict:
        qi = Point(*request["qi"])
        qi1 = Point(*request["qi1"])
        radius = float(request["radius"])
        hits_i, hits_j = self._search_circles([(qi, radius), (qi1, radius)])
        return {
            "ok": True,
            "near_i": _group_pairs(hits_i),
            "near_j": _group_pairs(hits_j),
        }

    def _op_stats(self, request: dict) -> dict:
        return {
            "ok": True,
            "shard_index": self.shard_index,
            "replica_id": self.replica_id,
            "num_points": self.num_points,
            "num_tiles": len(self._tiles),
            "resident_tiles": len(self._trees),
            "resident_points": sum(len(t) for t in self._trees.values()),
            "index_bytes": sum(t.approx_nbytes() for t in self._trees.values()),
            "lsn": self._lsn,
            "base_lsn": self._base_lsn,
            "wal": self._wal.stats() if self._wal is not None else {"enabled": False},
        }

    def _op_shutdown(self, request: dict) -> dict:
        return {"ok": True}


def _group_pairs(hits: Sequence[Tuple[int, int]]) -> List[List[object]]:
    """Sorted ``(tid, idx)`` hits → ``[[tid, [idx, ...]], ...]`` wire shape."""
    grouped: Dict[int, List[int]] = {}
    for tid, idx in hits:
        grouped.setdefault(tid, []).append(idx)
    return [[tid, idxs] for tid, idxs in grouped.items()]


# ---------------------------------------------------------------- the client


class _ShardConnection:
    """One replica's persistent connection: framing, timeout, bounded retry.

    Every ``repro-remote-v4`` operation is idempotent, so a request whose
    reply was lost can be resent verbatim; the retry schedule is
    ``retries`` resends with *full-jitter* exponential backoff — each
    wait is drawn uniformly from ``[0, backoff_s · 2^(attempt−1)]``, so
    concurrent fan-out workers whose retries would otherwise be in
    lockstep spread their reconnects across a recovering shard instead
    of stampeding it.  A request that exhausts the schedule raises
    :class:`ShardTimeoutError` (timeouts) or
    :class:`ShardUnavailableError` (connection refusals/resets) — the
    degraded-shard surface callers handle.

    A *malformed* reply (frame over the protocol cap, undecodable JSON,
    a non-object payload) raises :class:`ShardProtocolError` **and drops
    the socket**: after a framing error the stream position is unknown,
    and reusing the connection would poison every subsequent request
    with leftover bytes.  The next request reconnects cleanly.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout_s: float,
        retries: int,
        backoff_s: float,
        latencies: MutableSequence[float],
        rng: Optional[random.Random] = None,
        meter: Optional[WireMeter] = None,
    ) -> None:
        self.address = address
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self._latencies = latencies
        self._meter = meter
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def _connected(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection(self.address, timeout=self.timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
        return self._sock

    def _drop(self) -> None:
        """Close the (possibly desynced) socket; reconnect lazily."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _backoff(self, attempt: int) -> float:
        """Full-jitter wait before retry ``attempt`` (1-based)."""
        return self._rng.uniform(0.0, self.backoff_s * (2 ** (attempt - 1)))

    def request(self, payload: dict) -> dict:
        op = str(payload.get("op"))
        last_error: Optional[BaseException] = None
        with self._lock:
            for attempt in range(self.retries + 1):
                if attempt:
                    time.sleep(self._backoff(attempt))
                t0 = time.perf_counter()
                try:
                    sock = self._connected()
                    _send_frame(sock, payload, self._meter)
                    response = _recv_frame(sock, self._meter)
                    if response is None:
                        raise ConnectionError("shard closed the connection")
                except (TimeoutError, socket.timeout, OSError) as exc:
                    self._drop()
                    last_error = exc
                    continue
                except (ShardProtocolError, ValueError) as exc:
                    # Malformed reply: the frame stream may be desynced —
                    # never reuse this socket (see class docstring).
                    self._drop()
                    raise ShardProtocolError(
                        f"shard {self.address[0]}:{self.address[1]} sent a "
                        f"malformed reply to {op!r}: {exc}"
                    ) from exc
                finally:
                    self._latencies.append(time.perf_counter() - t0)
                if not response.get("ok"):
                    raise ShardProtocolError(
                        f"shard {self.address[0]}:{self.address[1]} refused "
                        f"{op!r}: [{response.get('kind', 'error')}] "
                        f"{response.get('error', 'no detail')}"
                    )
                return response
        attempts = self.retries + 1
        cause = repr(last_error)
        if isinstance(last_error, (TimeoutError, socket.timeout)):
            raise ShardTimeoutError(self.address, op, attempts, cause)
        raise ShardUnavailableError(self.address, op, attempts, cause)


class _ShardConnectionPool:
    """A bounded pool of persistent connections to one replica.

    :class:`_ShardConnection` serialises requests behind a per-connection
    lock — exactly right for one blocking client, but the gateway's
    concurrent workers would all queue on a single socket per replica.
    The pool keeps up to ``size`` persistent connections to the same
    address: a request borrows an idle one (created lazily while under
    the cap, otherwise waiting for a return), so up to ``size`` requests
    are in flight to the replica *concurrently* while every socket is
    still reused across requests rather than opened per request.

    The surface — ``request`` / ``close`` / ``address`` — matches
    :class:`_ShardConnection`, so replica sets, the circuit breaker and
    the failover path are oblivious to which of the two they hold.
    ``close`` drops every pooled socket (waiting out in-flight requests,
    like the single connection's ``close``); the pool then reconnects
    lazily, which keeps ``prepare_for_fork`` semantics unchanged.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        timeout_s: float,
        retries: int,
        backoff_s: float,
        latencies: MutableSequence[float],
        size: int,
        rng: Optional[random.Random] = None,
        meter: Optional[WireMeter] = None,
    ) -> None:
        if size < 1:
            raise ValueError("a connection pool needs a positive size")
        self.address = address
        self.size = size
        self._timeout_s = timeout_s
        self._retries = retries
        self._backoff_s = backoff_s
        self._latencies = latencies
        self._meter = meter
        self._seeder = rng if rng is not None else random.Random()
        self._cond = threading.Condition()
        self._idle: List[_ShardConnection] = []
        self._conns: List[_ShardConnection] = []

    def _acquire(self) -> _ShardConnection:
        with self._cond:
            while True:
                if self._idle:
                    return self._idle.pop()
                if len(self._conns) < self.size:
                    conn = _ShardConnection(
                        self.address,
                        self._timeout_s,
                        self._retries,
                        self._backoff_s,
                        self._latencies,
                        rng=random.Random(self._seeder.getrandbits(64)),
                        meter=self._meter,
                    )
                    self._conns.append(conn)
                    return conn
                self._cond.wait()

    def _release(self, conn: _ShardConnection) -> None:
        with self._cond:
            self._idle.append(conn)
            self._cond.notify()

    def request(self, payload: dict) -> dict:
        conn = self._acquire()
        try:
            return conn.request(payload)
        finally:
            self._release(conn)

    def close(self) -> None:
        with self._cond:
            conns = list(self._conns)
        for conn in conns:
            conn.close()


# ------------------------------------------------------------- replica sets


#: Circuit-breaker states (per replica).
_CLOSED = "closed"  # healthy: reads may route here
_OPEN = "open"  # demoted: skipped until the cooldown elapses


class _ReplicaState:
    """One replica's connection plus health bookkeeping."""

    __slots__ = (
        "conn",
        "replica_id",
        "state",
        "stale",
        "consecutive_failures",
        "opened_at",
        "failures",
        "successes",
    )

    def __init__(
        self,
        conn: Union[_ShardConnection, _ShardConnectionPool],
        replica_id: int,
    ) -> None:
        self.conn = conn
        self.replica_id = replica_id
        self.state = _CLOSED
        #: A stale replica's data could not be brought current: its
        #: missing log prefix was compacted away on every healthy peer,
        #: or its contents diverged from the mutation stream.  It is
        #: excluded from routing; each cooldown a cheap probe re-checks
        #: whether a log catch-up has become possible.
        self.stale = False
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.failures = 0
        self.successes = 0

    @property
    def address(self) -> Tuple[str, int]:
        return self.conn.address

    def health(self) -> dict:
        return {
            "address": f"{self.address[0]}:{self.address[1]}",
            "replica_id": self.replica_id,
            "state": "stale" if self.stale else self.state,
            "consecutive_failures": self.consecutive_failures,
            "failures": self.failures,
            "successes": self.successes,
        }


class _ReplicaSet:
    """One shard's replicas: health-tracked routing, failover, fan-out.

    Reads route to one replica and fail over transparently: candidates
    are the closed (healthy) replicas in round-robin order, then any
    demoted replica whose breaker cooldown has elapsed.  The latter pass
    through a half-open ``stats`` probe first: a replica whose point
    count *and* log position match the mutation stream this client has
    driven (``expected_points`` / ``expected_lsn``) is restored
    directly; a replica that is alive but *lagging* — restarted from an
    old WAL generation, or demoted while writes went on — is **repaired**
    before restoration by replaying the missing record suffix from a
    healthy peer (``log_since`` on the donor, ``apply_log`` on the
    laggard) and re-verifying.  Only when no complete feed exists (the
    donor compacted past the laggard's position) or the replay fails to
    converge is the replica marked stale — out of rotation, cheaply
    re-probed each cooldown.

    Mutations fan out to every healthy (closed, non-stale) replica.  A
    demoted replica must *not* receive writes out of order — it rejoins
    only through catch-up, which preserves the canonical record stream —
    so mutate skips it; a replica that fails to apply a mutation is
    demoted on the spot (it now lags by that record), and one that
    reports a divergent post-mutation point count or log position is
    marked stale.  Partial mutation failure degrades capacity, never
    correctness: the mutation succeeds if at least one replica applied
    it.

    The breaker: ``breaker_threshold`` consecutive request failures open
    a replica's circuit (reads stop routing to it); after
    ``breaker_cooldown_s`` seconds it becomes half-open and the next
    read probes it.  All timing uses a injectable monotonic ``clock`` so
    the fault-injection tests stay deterministic.
    """

    def __init__(
        self,
        shard_index: int,
        replicas: Sequence[_ReplicaState],
        expected_points: int,
        breaker_threshold: int,
        breaker_cooldown_s: float,
        clock: Callable[[], float] = time.monotonic,
        expected_lsn: int = 0,
    ) -> None:
        self.shard_index = shard_index
        self.replicas = list(replicas)
        self.expected_points = expected_points
        self.expected_lsn = expected_lsn
        self.breaker_threshold = max(1, int(breaker_threshold))
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._rotation = 0
        self.failovers = 0
        self.demotions = 0
        self.restorations = 0
        self.catchups = 0
        self.catchup_records = 0

    # ------------------------------------------------------------- breaker

    def _record_failure(self, replica: _ReplicaState) -> None:
        with self._lock:
            replica.failures += 1
            replica.consecutive_failures += 1
            if (
                replica.state == _CLOSED
                and replica.consecutive_failures >= self.breaker_threshold
            ):
                replica.state = _OPEN
                replica.opened_at = self._clock()
                self.demotions += 1
            elif replica.state == _OPEN:
                replica.opened_at = self._clock()  # restart the cooldown

    def _record_success(self, replica: _ReplicaState) -> None:
        with self._lock:
            replica.successes += 1
            replica.consecutive_failures = 0
            if replica.state == _OPEN and not replica.stale:
                replica.state = _CLOSED
                self.restorations += 1

    def _mark_lagging(self, replica: _ReplicaState) -> None:
        """A missed mutation demotes immediately, whatever the threshold:
        the replica now lags the canonical stream, and it may only rejoin
        through the probe's log catch-up."""
        with self._lock:
            replica.failures += 1
            replica.consecutive_failures += 1
            if replica.state == _CLOSED:
                replica.state = _OPEN
                self.demotions += 1
            replica.opened_at = self._clock()

    def _mark_stale(self, replica: _ReplicaState) -> None:
        with self._lock:
            replica.opened_at = self._clock()  # pace the re-probes
            if not replica.stale:
                replica.stale = True
                self.demotions += 1

    def _restore(self, replica: _ReplicaState) -> None:
        """Return a verified-current replica to the read rotation."""
        with self._lock:
            replica.successes += 1
            replica.consecutive_failures = 0
            demoted = replica.state == _OPEN or replica.stale
            replica.state = _CLOSED
            replica.stale = False
            if demoted:
                self.restorations += 1

    def _cooldown_elapsed(self, replica: _ReplicaState, now: float) -> bool:
        return (now - replica.opened_at) >= self.breaker_cooldown_s

    def _probe_eligible(self) -> List[_ReplicaState]:
        """Demoted replicas (open *or* stale) whose cooldown has elapsed."""
        now = self._clock()
        return [
            r
            for r in self.replicas
            if (r.state == _OPEN or r.stale) and self._cooldown_elapsed(r, now)
        ]

    def _read_candidates(self) -> List[_ReplicaState]:
        """Healthy replicas (round-robin), then probe-eligible demoted ones."""
        with self._lock:
            closed = [
                r for r in self.replicas if r.state == _CLOSED and not r.stale
            ]
            if closed:
                start = self._rotation % len(closed)
                self._rotation += 1
                closed = closed[start:] + closed[:start]
            half_open = self._probe_eligible()
        return closed + half_open

    def _try_restore(self, replica: _ReplicaState) -> bool:
        """Half-open probe: liveness, then data currency — with repair.

        A replica that answers but lags the expected log position is
        caught up from a healthy donor before restoration; see
        :meth:`_try_catch_up`.
        """
        try:
            stats = replica.conn.request({"op": "stats", "v": _WIRE_V})
        except RemoteArchiveError:
            self._record_failure(replica)
            return False
        with self._lock:
            expected_points = self.expected_points
            expected_lsn = self.expected_lsn
        if (
            int(stats["num_points"]) == expected_points
            and int(stats.get("lsn", -1)) == expected_lsn
        ):
            self._restore(replica)
            return True
        return self._try_catch_up(replica, int(stats.get("lsn", 0)))

    def _try_catch_up(self, replica: _ReplicaState, replica_lsn: int) -> bool:
        """Repair a lagging replica by replaying a donor's log suffix.

        Fetches the records after ``replica_lsn`` from a healthy peer
        (``log_since``), replays them onto the laggard (``apply_log``),
        and re-verifies point count and log position before restoring.
        The replica is marked stale only when repair is *impossible*
        (no healthy donor, the donor compacted past the laggard's
        position, or the replay failed to converge — i.e. the laggard's
        history diverged from the canonical stream).
        """
        with self._lock:
            donors = [
                r
                for r in self.replicas
                if r is not replica and r.state == _CLOSED and not r.stale
            ]
        if not donors:
            self._mark_stale(replica)
            return False
        try:
            feed = donors[0].conn.request(
                {"op": "log_since", "v": _WIRE_V, "lsn": max(replica_lsn, 0)}
            )
        except RemoteArchiveError:
            self._record_failure(donors[0])
            return False
        if not feed.get("ok", False) or not feed.get("complete", False):
            # The missing prefix was compacted away on the donor: only an
            # operator resync (restart from a copied snapshot) can repair
            # this replica.
            self._mark_stale(replica)
            return False
        try:
            reply = replica.conn.request(
                {"op": "apply_log", "v": _WIRE_V, "records": feed["records"]}
            )
        except RemoteArchiveError:
            self._record_failure(replica)
            return False
        with self._lock:
            expected_points = self.expected_points
            expected_lsn = self.expected_lsn
        if (
            not reply.get("ok", False)
            or int(reply.get("num_points", -1)) != expected_points
            or int(reply.get("lsn", -1)) != expected_lsn
        ):
            self._mark_stale(replica)
            return False
        with self._lock:
            self.catchups += 1
            self.catchup_records += len(feed["records"])
        self._restore(replica)
        return True

    def _maybe_probe_demoted(self) -> None:
        """Opportunistic restore of one cooled-down replica after a read.

        Keeps capacity recovering even while healthy peers absorb all
        reads; the cooldown bounds the probe rate, and a failed probe
        restarts it.
        """
        with self._lock:
            eligible = self._probe_eligible()
        if eligible:
            self._try_restore(eligible[0])

    # -------------------------------------------------------------- routing

    def request(self, payload: dict) -> dict:
        """Serve a read from one healthy replica, failing over as needed."""
        failures: List[ShardUnavailableError] = []
        candidates = self._read_candidates()
        for replica in candidates:
            if replica.state == _OPEN or replica.stale:
                if not self._try_restore(replica):
                    continue
            try:
                response = replica.conn.request(payload)
            except ShardUnavailableError as exc:
                self._record_failure(replica)
                failures.append(exc)
                self.failovers += 1
                continue
            self._record_success(replica)
            self._maybe_probe_demoted()
            return response
        op = str(payload.get("op"))
        if len(self.replicas) == 1 and len(failures) == 1:
            # Unreplicated shard: surface the underlying typed error
            # (ShardTimeoutError vs ShardUnavailableError) unchanged.
            raise failures[0]
        raise ShardExhaustedError(self.shard_index, op, len(self.replicas), failures)

    def mutate(self, payload: dict) -> dict:
        """Fan a mutation out to every healthy replica.

        Returns the first successful reply.  Demoted replicas (open or
        stale) are skipped — feeding them writes out of order would
        corrupt the per-replica record stream the catch-up protocol
        relies on; the half-open probe replays what they missed instead.
        A replica that fails to apply the mutation is demoted on the
        spot (it lags by this record now); one that disagrees with the
        first success on the post-mutation point count or log position
        is marked stale.
        """
        successes: List[Tuple[_ReplicaState, dict]] = []
        failures: List[ShardUnavailableError] = []
        targets = [r for r in self.replicas if not r.stale and r.state != _OPEN]
        if not targets:
            # The whole set is demoted: probe (and repair) any replica
            # whose cooldown has elapsed right now, rather than failing
            # the write while a healthy server sits behind an open
            # breaker.
            with self._lock:
                eligible = self._probe_eligible()
            targets = [r for r in eligible if self._try_restore(r)]
        for replica in targets:
            try:
                response = replica.conn.request(payload)
            except ShardUnavailableError as exc:
                self._mark_lagging(replica)
                failures.append(exc)
                continue
            successes.append((replica, response))
        if not successes:
            op = str(payload.get("op"))
            if len(self.replicas) == 1 and len(failures) == 1:
                raise failures[0]
            raise ShardExhaustedError(
                self.shard_index, op, len(self.replicas), failures
            )
        authoritative = successes[0][1].get("num_points")
        authoritative_lsn = successes[0][1].get("lsn")
        for replica, response in successes:
            if (
                response.get("num_points") != authoritative
                or response.get("lsn") != authoritative_lsn
            ):
                self._mark_stale(replica)
            else:
                self._record_success(replica)
        with self._lock:
            if authoritative is not None:
                self.expected_points = int(authoritative)
            if authoritative_lsn is not None:
                self.expected_lsn = int(authoritative_lsn)
        return successes[0][1]

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        for replica in self.replicas:
            replica.conn.close()

    def health(self) -> dict:
        with self._lock:
            return {
                "shard_index": self.shard_index,
                "expected_points": self.expected_points,
                "expected_lsn": self.expected_lsn,
                "failovers": self.failovers,
                "demotions": self.demotions,
                "restorations": self.restorations,
                "catchups": self.catchups,
                "catchup_records": self.catchup_records,
                "replicas": [r.health() for r in self.replicas],
            }


class RemoteShardedArchive(_ArchiveBase):
    """Archive backend served by remote :class:`ArchiveShardServer` fleet.

    Every spatial query is fanned out to the shard servers owning the
    tiles the query's region covers and the disjoint per-shard answers
    are merged into the canonical ``(traj_id, index)`` order.
    Equivalence with :class:`~repro.core.archive.InMemoryArchive` is
    therefore structural: each observation lives in exactly one tile,
    each tile on exactly one shard.

    The trip store (whole trajectories, by id) lives in this process:
    the reference search reads candidate trajectories from it via
    ``archive.trajectory(tid)``, and only the spatial index is remote.

    Mutations (:meth:`add` / :meth:`remove`) forward each trip's points
    to the owning shards, so the fleet tracks the local trip store.  Use
    :meth:`attach_trips` instead when the servers were pre-seeded with the
    same archive (``repro archive-serve --world``): it registers trips
    locally without re-pushing points.

    Construction performs the ``hello`` handshake against every address
    and validates the deployment: protocol version, every handshake
    field present with its JSON type (see :func:`_read_hello`), at least
    one server per shard index in ``[0, num_shards)``, a single tile
    size, and —
    when several servers claim the same shard index — that the replicas
    of each shard agree on their point count (they form that shard's
    replica set; see :class:`_ReplicaSet` for the routing, failover and
    circuit-breaker semantics).

    Args:
        addresses: One ``"host:port"`` (or ``(host, port)``) per server,
            in any order — servers are identified by their handshake
            ``shard_index``, not by list position; several servers with
            the same index form that shard's replica set.
        timeout_s: Per-request socket timeout.
        retries: Resends after a failed request (bounded; idempotent ops).
        backoff_s: Base retry delay; the wait before retry *n* is drawn
            uniformly from ``[0, backoff_s · 2^(n−1)]`` (full jitter).
        expected_tile_size: Optional cross-check against the handshake.
        replication: Optional replica count to enforce — every shard
            must then have exactly this many servers.
        breaker_threshold: Consecutive request failures that open a
            replica's circuit (each already covers the bounded retry
            schedule, so the default demotes on the first exhaustion).
        breaker_cooldown_s: Seconds a demoted replica waits before the
            half-open probe may restore it.
        latency_window: Cap on the request-latency telemetry ring.
        jitter_seed: Seed for the backoff jitter streams (tests); the
            default seeds from the OS.
        pool_size: Persistent connections kept per replica.  The default
            of 1 is the historical behaviour — one socket per replica,
            requests serialised behind its lock.  Concurrent callers
            (the serving gateway's worker pool) pass their worker count
            so each replica multiplexes up to that many in-flight
            requests over reused sockets (see
            :class:`_ShardConnectionPool`).  Results are identical at
            any pool size.
    """

    def __init__(
        self,
        addresses: Sequence[Union[str, Tuple[str, int]]],
        timeout_s: float = 5.0,
        retries: int = 2,
        backoff_s: float = 0.05,
        expected_tile_size: Optional[float] = None,
        replication: Optional[int] = None,
        breaker_threshold: int = 1,
        breaker_cooldown_s: float = 1.0,
        latency_window: int = LATENCY_WINDOW,
        jitter_seed: Optional[int] = None,
        pool_size: int = 1,
    ) -> None:
        if not addresses:
            raise ValueError("a remote archive needs at least one shard address")
        if replication is not None and replication < 1:
            raise ValueError("replication must be a positive replica count")
        if pool_size < 1:
            raise ValueError("pool_size must be a positive connection count")
        super().__init__()
        self.request_latencies: MutableSequence[float] = deque(maxlen=latency_window)
        #: Bytes/frames in both directions across all shard connections.
        self.wire_meter = WireMeter()
        self._timeout_s = timeout_s
        self._retries = retries
        self._backoff_s = backoff_s
        self._pool_size = pool_size
        seeder = random.Random(jitter_seed)
        if pool_size == 1:
            connections = [
                _ShardConnection(
                    parse_address(a),
                    timeout_s,
                    retries,
                    backoff_s,
                    self.request_latencies,
                    rng=random.Random(seeder.getrandbits(64)),
                    meter=self.wire_meter,
                )
                for a in addresses
            ]
        else:
            connections = [
                _ShardConnectionPool(
                    parse_address(a),
                    timeout_s,
                    retries,
                    backoff_s,
                    self.request_latencies,
                    size=pool_size,
                    rng=random.Random(seeder.getrandbits(64)),
                    meter=self.wire_meter,
                )
                for a in addresses
            ]
        by_index: Dict[int, List[Tuple[_ShardConnection, dict]]] = {}
        tile_size: Optional[float] = None
        num_shards: Optional[int] = None
        for conn in connections:
            hello = conn.request({"op": "hello", "v": _WIRE_V})
            if hello.get("protocol") != PROTOCOL_VERSION:
                raise ShardProtocolError(
                    f"shard {conn.address} speaks {hello.get('protocol')!r}, "
                    f"expected {PROTOCOL_VERSION!r}"
                )
            hello = _read_hello(conn.address, hello)
            n = hello["num_shards"]
            if num_shards is None:
                num_shards = n
            elif n != num_shards:
                raise ShardProtocolError(
                    f"server {conn.address} is part of a {n}-shard deployment "
                    f"but its peers report {num_shards} shards"
                )
            size = float(hello["tile_size"])
            if tile_size is None:
                tile_size = size
            elif size != tile_size:
                raise ShardProtocolError(
                    f"inconsistent tile sizes across shards: {tile_size} vs "
                    f"{size} at {conn.address}"
                )
            by_index.setdefault(hello["shard_index"], []).append((conn, hello))
        assert tile_size is not None and num_shards is not None
        missing = sorted(set(range(num_shards)) - set(by_index))
        extraneous = sorted(set(by_index) - set(range(num_shards)))
        if missing or extraneous:
            raise ShardProtocolError(
                f"shard(s) {missing or extraneous} of the {num_shards}-shard "
                f"deployment have no server among the given addresses"
                if missing
                else f"server(s) claim shard(s) {extraneous} outside the "
                f"{num_shards}-shard deployment"
            )
        if expected_tile_size is not None and tile_size != float(expected_tile_size):
            raise ShardProtocolError(
                f"shards use tile_size={tile_size}, caller expected "
                f"{float(expected_tile_size)}"
            )
        self._tile_size = tile_size
        self._shards: List[_ReplicaSet] = []
        for index in range(num_shards):
            members = by_index[index]
            if replication is not None and len(members) != replication:
                raise ShardProtocolError(
                    f"shard {index} has {len(members)} replica(s) at "
                    f"{[m[0].address for m in members]} but --replication "
                    f"{replication} was requested"
                )
            counts = {h["num_points"] for __, h in members}
            if len(counts) > 1:
                raise ShardProtocolError(
                    f"replicas of shard {index} diverge before any query: "
                    f"point counts {sorted(counts)} across "
                    f"{[m[0].address for m in members]}"
                )
            lsns = {h["lsn"] for __, h in members}
            if len(lsns) > 1:
                raise ShardProtocolError(
                    f"replicas of shard {index} diverge before any query: "
                    f"log positions {sorted(lsns)} across "
                    f"{[m[0].address for m in members]}"
                )
            self._shards.append(
                _ReplicaSet(
                    index,
                    [_ReplicaState(conn, h["replica_id"]) for conn, h in members],
                    expected_points=counts.pop(),
                    breaker_threshold=breaker_threshold,
                    breaker_cooldown_s=breaker_cooldown_s,
                    expected_lsn=lsns.pop(),
                )
            )
        self._executor_lock = threading.Lock()
        self._executor = None

    # ------------------------------------------------------------- plumbing

    @property
    def tile_size(self) -> float:
        return self._tile_size

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    @property
    def replication(self) -> List[int]:
        """Replica count per shard index."""
        return [len(s.replicas) for s in self._shards]

    def tile_key(self, p: Point) -> Tuple[int, int]:
        return (
            math.floor(p.x / self._tile_size),
            math.floor(p.y / self._tile_size),
        )

    def close(self) -> None:
        """Drop sockets and the fan-out thread pool (reconnects lazily)."""
        for shard in self._shards:
            shard.close()
        with self._executor_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None

    def __enter__(self) -> "RemoteShardedArchive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def prepare_for_fork(self) -> None:
        """Called by the batch pool right before forking workers.

        Sockets and thread pools do not survive ``fork``; dropping them
        here makes every worker (and the parent) reconnect lazily on its
        next request instead of sharing a corrupted stream.
        """
        self.close()

    def reset_latencies(self) -> None:
        self.request_latencies.clear()

    def _pool(self):
        from concurrent.futures import ThreadPoolExecutor

        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=max(1, len(self._shards)),
                    thread_name_prefix="repro-remote",
                )
            return self._executor

    def _fan_out(
        self, payloads: Dict[int, dict], mutate: bool = False
    ) -> Dict[int, dict]:
        """Issue one request per shard concurrently; raise on any failure.

        Reads route to one healthy replica per shard (with transparent
        failover); mutations fan out to every replica of each shard.
        """
        if not payloads:
            return {}

        def call(index: int, payload: dict) -> dict:
            shard = self._shards[index]
            return shard.mutate(payload) if mutate else shard.request(payload)

        if len(payloads) == 1:
            ((index, payload),) = payloads.items()
            return {index: call(index, payload)}
        futures = {
            index: self._pool().submit(call, index, payload)
            for index, payload in payloads.items()
        }
        return {index: future.result() for index, future in futures.items()}

    # --------------------------------------------------------- shard routing

    #: Covered-tile enumeration cap: a query box spanning more tiles than
    #: this is simply broadcast to every shard (enumerating the owners
    #: would cost more than the spare requests it saves).
    _ENUMERATION_CAP = 4096

    def _shards_for_boxes(self, boxes: Sequence[BBox]) -> Dict[int, List[int]]:
        """Shard index → indices of the boxes whose tiles it may own."""
        n = len(self._shards)
        out: Dict[int, List[int]] = {}
        for bi, box in enumerate(boxes):
            ix0 = math.floor(box.min_x / self._tile_size)
            ix1 = math.floor(box.max_x / self._tile_size)
            iy0 = math.floor(box.min_y / self._tile_size)
            iy1 = math.floor(box.max_y / self._tile_size)
            span = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
            if span > self._ENUMERATION_CAP or span >= n * 8:
                owners = range(n)
            else:
                owners = {
                    shard_of_tile((ix, iy), n)
                    for ix in range(ix0, ix1 + 1)
                    for iy in range(iy0, iy1 + 1)
                }
            for owner in owners:
                out.setdefault(owner, []).append(bi)
        return out

    # ------------------------------------------------------------ mutations

    def _rows_by_shard(self, trajectory: Trajectory) -> Dict[int, List[List[float]]]:
        rows: Dict[int, List[List[float]]] = {}
        n = len(self._shards)
        for i, p in enumerate(trajectory.points):
            owner = shard_of_tile(self.tile_key(p.point), n)
            rows.setdefault(owner, []).append(
                [trajectory.traj_id, i, p.point.x, p.point.y, p.t]
            )
        return rows

    def _on_add(self, trajectory: Trajectory) -> None:
        self._fan_out(
            {
                shard: {"op": "insert", "v": _WIRE_V, "points": rows}
                for shard, rows in self._rows_by_shard(trajectory).items()
            },
            mutate=True,
        )

    def _on_remove(self, trajectory: Trajectory) -> None:
        self._fan_out(
            {
                shard: {"op": "delete", "v": _WIRE_V, "points": rows}
                for shard, rows in self._rows_by_shard(trajectory).items()
            },
            mutate=True,
        )

    def attach_trips(self, trips: Iterable[Trajectory]) -> None:
        """Register trips locally *without* pushing points to the shards.

        For deployments whose servers were pre-seeded with the same
        archive (``repro archive-serve --world``): the client still needs
        the trip store for reference assembly, but the observations are
        already resident on the fleet.

        Raises:
            ValueError: On a duplicate trip id.
        """
        for trajectory in trips:
            tid = trajectory.traj_id
            if tid in self._trajectories:
                raise ValueError(f"trajectory id {tid} already present")
            self._trajectories[tid] = trajectory
            self._next_id = max(self._next_id, tid + 1)

    # -------------------------------------------------------------- queries

    def _search_circles(
        self, queries: Sequence[Tuple[Point, float]]
    ) -> List[List[ArchivePoint]]:
        out: List[List[ArchivePoint]] = [[] for __ in queries]
        if not queries:
            return out
        boxes = [BBox.around(center, radius) for center, radius in queries]
        payloads = {}
        members: Dict[int, List[int]] = {}
        for shard, circle_ids in self._shards_for_boxes(boxes).items():
            members[shard] = circle_ids
            payloads[shard] = {
                "op": "search_circles",
                "v": _WIRE_V,
                "queries": [
                    [queries[qi][0].x, queries[qi][0].y, queries[qi][1]]
                    for qi in circle_ids
                ],
            }
        for shard, response in self._fan_out(payloads).items():
            for qi, hits in zip(members[shard], response["hits"]):
                out[qi].extend(ArchivePoint(int(t), int(i)) for t, i in hits)
        # Tiles are disjoint and each tile lives on one shard, so the
        # per-shard answers are disjoint; sorting restores canonical order.
        return [sorted(set(hits), key=_ref_key) for hits in out]

    def points_in_bbox(self, region: BBox) -> List[ArchivePoint]:
        payloads = {
            shard: {
                "op": "search_bbox",
                "v": _WIRE_V,
                "bbox": [region.min_x, region.min_y, region.max_x, region.max_y],
            }
            for shard in self._shards_for_boxes([region])
        }
        refs: List[ArchivePoint] = []
        for response in self._fan_out(payloads).values():
            refs.extend(ArchivePoint(int(t), int(i)) for t, i in response["refs"])
        return sorted(set(refs), key=_ref_key)

    def trajectories_near_pair(
        self, qi: Point, qi1: Point, radius: float
    ) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Remote fan-out of the reference search's φ-pair query.

        Each owning shard answers both circles for its tiles in one
        request (``near_pair``); the per-shard near-maps are merged by
        concatenating index lists per trajectory id, then re-sorted into
        the canonical shape — ascending trajectory ids, each with its
        sorted observation indices — matching
        :meth:`repro.core.archive._ArchiveBase.trajectories_near_pair`
        bit for bit.
        """
        boxes = [BBox.around(qi, radius), BBox.around(qi1, radius)]
        shards = sorted(self._shards_for_boxes(boxes))
        payload = {
            "op": "near_pair",
            "v": _WIRE_V,
            "qi": [qi.x, qi.y],
            "qi1": [qi1.x, qi1.y],
            "radius": radius,
        }
        responses = self._fan_out({shard: dict(payload) for shard in shards})
        near_i: Dict[int, List[int]] = {}
        near_j: Dict[int, List[int]] = {}
        for response in responses.values():
            for accumulator, field in ((near_i, "near_i"), (near_j, "near_j")):
                for tid, idxs in response[field]:
                    accumulator.setdefault(int(tid), []).extend(int(v) for v in idxs)
        return _canonical_near_map(near_i), _canonical_near_map(near_j)

    # ------------------------------------------------------------ telemetry

    def ping(self) -> List[float]:
        """Round-trip seconds per shard (served by one healthy replica;
        raises only when a whole replica set is degraded)."""
        out = []
        for shard in self._shards:
            t0 = time.perf_counter()
            shard.request({"op": "ping", "v": _WIRE_V})
            out.append(time.perf_counter() - t0)
        return out

    def shard_stats(self) -> List[dict]:
        """Per-shard resident-size stats, ordered by shard index.

        Each shard's stats come from whichever replica currently serves
        its reads (``replica_id`` in the payload names it).
        """
        responses = self._fan_out(
            {
                shard: {"op": "stats", "v": _WIRE_V}
                for shard in range(len(self._shards))
            }
        )
        out = []
        for shard in range(len(self._shards)):
            stats = dict(responses[shard])
            stats.pop("ok", None)
            out.append(stats)
        return out

    def replica_health(self) -> List[dict]:
        """Per-shard health: breaker states, failover/demotion counters.

        Purely local bookkeeping — no network traffic — so it is safe to
        poll from monitoring even while the fleet is degraded.
        """
        return [shard.health() for shard in self._shards]

    @property
    def failover_count(self) -> int:
        """Reads that were transparently retried against a peer replica."""
        return sum(s.failovers for s in self._shards)

    def backend_stats(self) -> dict:
        health = self.replica_health()
        return {
            "backend": "remote",
            "wire": self.wire_meter.snapshot(),
            "n_trajectories": len(self),
            "n_points": self.num_points,
            "num_shards": self.num_shards,
            "replication": self.replication,
            "healthy_replicas": sum(
                1
                for shard in health
                for replica in shard["replicas"]
                if replica["state"] == "closed"
            ),
            "total_replicas": sum(len(s["replicas"]) for s in health),
            "failovers": sum(s["failovers"] for s in health),
            "demotions": sum(s["demotions"] for s in health),
            "restorations": sum(s["restorations"] for s in health),
            "catchups": sum(s["catchups"] for s in health),
            "catchup_records": sum(s["catchup_records"] for s in health),
            "latency_window": self.request_latencies.maxlen,
            "latencies_recorded": len(self.request_latencies),
            "pool_size": self._pool_size,
            "wal": self._wal_summary(),
        }

    def _wal_summary(self) -> dict:
        """Server-side WAL durability counters summed across shards.

        One ``stats`` probe per shard (whichever replica serves reads);
        shards running without a WAL directory contribute nothing.  An
        unreachable fleet yields ``reachable: False`` rather than an
        exception — ``backend_stats`` feeds metrics paths that must not
        fail while the fleet is degraded.
        """
        summary = {
            "enabled_shards": 0,
            "records_appended": 0,
            "fsyncs": 0,
            "compactions": 0,
            "unflushed_records": 0,
            "reachable": True,
        }
        try:
            per_shard = self.shard_stats()
        except RemoteArchiveError:
            summary["reachable"] = False
            return summary
        for shard in per_shard:
            wal = shard.get("wal") or {}
            if not wal.get("enabled"):
                continue
            summary["enabled_shards"] += 1
            for key in (
                "records_appended",
                "fsyncs",
                "compactions",
                "unflushed_records",
            ):
                summary[key] += int(wal.get(key, 0))
        return summary


def _canonical_near_map(raw: Dict[int, List[int]]) -> Dict[int, List[int]]:
    return {tid: sorted(raw[tid]) for tid in sorted(raw)}


def request_shutdown(
    address: Union[str, Tuple[str, int]], timeout_s: float = 5.0
) -> None:
    """Ask the shard server at ``address`` to shut down (orderly teardown)."""
    conn = _ShardConnection(parse_address(address), timeout_s, 0, 0.0, [])
    try:
        conn.request({"op": "shutdown", "v": _WIRE_V})
    finally:
        conn.close()
