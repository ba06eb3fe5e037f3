"""Durable per-shard write-ahead log (``repro-wal-v2``).

The distributed archive is an *online* system: trips stream into
:class:`~repro.core.remote.ArchiveShardServer` continuously, and the
reference mass behind Definitions 6/7 must survive a process death
without losing acknowledged mutations.  This module is the ingest
spine's durability layer — an append-only, checksummed log of mutation
records plus a snapshot/rotation compaction scheme:

**Record framing.**  A log file is a sequence of length-prefixed
records: a 8-byte big-endian header ``(payload_len: u32, crc32: u32)``
followed by ``payload_len`` bytes of compact UTF-8 JSON.  The first
record of every file is the *file header*
``{"format": "repro-wal-v2", "generation": G, "base_lsn": N}``; every
subsequent record is a mutation ``[lsn, op, rows]`` where ``op`` is
``"insert"`` or ``"delete"`` and ``rows`` are the effective
``[traj_id, index, x, y]`` observation rows.  LSNs are monotonic and
gap-free within a log (``base_lsn + 1, base_lsn + 2, ...``), so two
replicas at the same LSN hold byte-identical record streams — the
invariant replica log catch-up rests on.

**Torn tails.**  A crash mid-append leaves a torn final record (short
frame, CRC mismatch, or an LSN gap).  Replay stops at the first invalid
record and the recovery path truncates the file there: everything
*acknowledged* was fully framed before the ack, so truncation only ever
drops un-acked bytes.

**Generations and compaction.**  A directory holds one *generation* at
a time: ``wal-<G>.log`` plus, for ``G`` with ``base_lsn > 0``,
``snapshot-<G>.json`` (the full row set at ``base_lsn``).
:meth:`WriteAheadLog.rotate` compacts by writing the next generation's
snapshot to a ``*.tmp`` file, fsyncing it, and **atomically renaming**
it into place — the rename is the commit point, so a crash anywhere
mid-compaction leaves either the old generation intact or the new
snapshot complete; no window loses data.  Only then is the fresh log
created and the old generation deleted; recovery sweeps stale
generations and orphaned ``*.tmp`` files.

**Other formats.**  A directory whose snapshot or log header names
another format (``repro-wal-v1`` rows carried a timestamp column) is
refused with :class:`WalCorruptionError` before recovery deletes or
truncates anything, so its files are left as they were.

**Fsync policy.**  ``"always"`` fsyncs every append before the caller
acks (no acknowledged record can be lost to a power failure),
``"interval"`` flushes every append but fsyncs at most every
``fsync_interval_s`` seconds (bounded loss on *OS* crash, none on
process crash), ``"off"`` only flushes (process-crash safe, power-fail
unsafe).  ``benchmarks/bench_throughput.py`` measures the throughput
cost of each.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Callable, List, Optional, Tuple, Union

__all__ = [
    "FSYNC_POLICIES",
    "SNAPSHOT_FORMAT",
    "WAL_FORMAT",
    "WalCorruptionError",
    "WriteAheadLog",
    "read_log",
]

WAL_FORMAT = "repro-wal-v2"
SNAPSHOT_FORMAT = "repro-wal-v2-snapshot"
FSYNC_POLICIES = ("always", "interval", "off")

#: ``(payload_len, crc32(payload))`` — both big-endian u32.
_RECORD_HEADER = struct.Struct(">II")

#: A mutation record as replayed: ``(lsn, op, rows)``.
WalRecord = Tuple[int, str, list]


class WalCorruptionError(RuntimeError):
    """The WAL directory is inconsistent beyond torn-tail repair, or in
    another format."""


def _encode_record(obj: object) -> bytes:
    payload = json.dumps(obj, separators=(",", ":"), ensure_ascii=False).encode(
        "utf-8"
    )
    return _RECORD_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _log_name(generation: int) -> str:
    return f"wal-{generation:08d}.log"


def _snapshot_name(generation: int) -> str:
    return f"snapshot-{generation:08d}.json"


def _generation_of(path: Path) -> Optional[int]:
    stem = path.name
    for prefix, suffix in (("wal-", ".log"), ("snapshot-", ".json")):
        if stem.startswith(prefix) and stem.endswith(suffix):
            digits = stem[len(prefix) : -len(suffix)]
            if digits.isdigit():
                return int(digits)
    return None


def read_log(path: Union[str, Path]) -> Tuple[Optional[dict], List[WalRecord], int, int]:
    """Replay one log file with torn-tail detection (read-only).

    Returns:
        ``(header, records, valid_bytes, torn_bytes)`` — ``header`` is
        ``None`` when even the file-header record is unreadable;
        ``records`` are the valid ``(lsn, op, rows)`` mutations;
        ``valid_bytes`` is the offset of the first invalid byte (the
        truncation point) and ``torn_bytes`` what follows it.  Replay
        stops at the first short frame, CRC mismatch, undecodable
        payload, or LSN discontinuity.

    Raises:
        WalCorruptionError: If the file header names another format.
    """
    data = Path(path).read_bytes()
    offset = 0
    header: Optional[dict] = None
    records: List[WalRecord] = []
    expected_lsn: Optional[int] = None
    while offset < len(data):
        if offset + _RECORD_HEADER.size > len(data):
            break
        length, crc = _RECORD_HEADER.unpack_from(data, offset)
        start = offset + _RECORD_HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            break
        try:
            obj = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            break
        if header is None:
            if not isinstance(obj, dict) or "format" not in obj:
                break
            if obj["format"] != WAL_FORMAT:
                raise WalCorruptionError(
                    f"{path} is in format {obj['format']!r}, not {WAL_FORMAT!r}; "
                    "the directory is left as it was"
                )
            header = obj
            expected_lsn = int(obj["base_lsn"])
        else:
            if not isinstance(obj, list) or len(obj) != 3:
                break
            lsn, op, rows = obj
            if int(lsn) != expected_lsn + 1 or not isinstance(rows, list):
                break
            expected_lsn = int(lsn)
            records.append((int(lsn), str(op), rows))
        offset = end
    return header, records, offset, len(data) - offset


class WriteAheadLog:
    """One shard process's append-only mutation log (``repro-wal-v2``).

    Opening the directory *is* recovery: orphaned ``*.tmp`` files are
    swept, the newest complete generation is selected, its snapshot rows
    and replayed records are exposed on :attr:`snapshot_rows` /
    :attr:`records` for the caller to rebuild state from, a torn tail is
    truncated in place, and the log is reopened for appending.

    Args:
        directory: The WAL directory (created if missing).  One server
            process per directory — there is no cross-process locking.
        fsync: One of :data:`FSYNC_POLICIES` (see the module docstring
            for the durability trade-offs).
        fsync_interval_s: Minimum seconds between fsyncs under the
            ``"interval"`` policy.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: str = "always",
        fsync_interval_s: float = 0.05,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync!r}; expected one of {FSYNC_POLICIES}"
            )
        if fsync_interval_s <= 0.0:
            raise ValueError("fsync_interval_s must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync_policy = fsync
        self.fsync_interval_s = float(fsync_interval_s)
        #: Optional test hook called with a stage name at every
        #: compaction step — raising from it simulates a crash at that
        #: exact point (see ``tests/test_wal.py``).
        self.fault_hook: Optional[Callable[[str], None]] = None
        self.generation = 0
        self.base_lsn = 0
        self.lsn = 0
        #: Snapshot rows of the recovered generation (``None`` when it
        #: had no snapshot); the caller applies them, then `records`.
        self.snapshot_rows: Optional[list] = None
        #: Mutation records replayed from the recovered log.
        self.records: List[WalRecord] = []
        self.records_appended = 0
        self.fsyncs = 0
        self.compactions = 0
        self.unflushed_records = 0
        self.truncated_bytes = 0
        self.recovered_records = 0
        self.recovered_snapshot_rows = 0
        self._fh = None
        self._last_fsync = time.monotonic()
        self._recover()

    # ------------------------------------------------------------- recovery

    def _fault(self, stage: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage)

    def _log_path(self, generation: int) -> Path:
        return self.directory / _log_name(generation)

    def _snapshot_path(self, generation: int) -> Path:
        return self.directory / _snapshot_name(generation)

    def _recover(self) -> None:
        logs: dict = {}
        snapshots: dict = {}
        orphans = []
        for path in self.directory.iterdir():
            if path.name.endswith(".tmp"):
                orphans.append(path)
                continue
            generation = _generation_of(path)
            if generation is None:
                continue
            (logs if path.suffix == ".log" else snapshots)[generation] = path

        generation = max(set(logs) | set(snapshots), default=0)
        base_lsn = 0
        if generation in snapshots:
            snapshot = json.loads(snapshots[generation].read_text(encoding="utf-8"))
            if (
                snapshot.get("format") != SNAPSHOT_FORMAT
                or int(snapshot.get("generation", -1)) != generation
            ):
                raise WalCorruptionError(
                    f"{snapshots[generation]} is a {snapshot.get('format')!r} "
                    f"snapshot of generation {snapshot.get('generation')}, not a "
                    f"generation-{generation} {SNAPSHOT_FORMAT!r} one"
                )
            base_lsn = int(snapshot["lsn"])
            self.snapshot_rows = snapshot["rows"]
            self.recovered_snapshot_rows = len(self.snapshot_rows)

        # read_log refuses a log header in another format, so a refused
        # directory reaches no deletion or truncation below.
        replay = read_log(logs[generation]) if generation in logs else None
        for path in orphans:
            path.unlink()  # a compaction that never reached its commit point
        if replay is not None:
            header, records, valid_bytes, torn_bytes = replay
            if header is None:
                # The log's own header record is torn: the rotation that
                # was creating this file never completed, so the snapshot
                # (the rotation's commit point) covers everything.
                if generation not in snapshots and generation != 0:
                    raise WalCorruptionError(
                        f"{logs[generation]} has no readable header and no "
                        "snapshot to recover from"
                    )
                logs[generation].unlink()
                self._create_log(generation, base_lsn)
            else:
                if int(header.get("generation", -1)) != generation or (
                    generation in snapshots and int(header["base_lsn"]) != base_lsn
                ):
                    raise WalCorruptionError(
                        f"{logs[generation]} header {header} does not match its "
                        f"generation/snapshot (base_lsn {base_lsn})"
                    )
                if generation not in snapshots and int(header["base_lsn"]) != 0:
                    raise WalCorruptionError(
                        f"{logs[generation]} starts at lsn "
                        f"{header['base_lsn']} but generation {generation} "
                        "has no snapshot"
                    )
                base_lsn = int(header["base_lsn"])
                if torn_bytes:
                    with open(logs[generation], "r+b") as fh:
                        fh.truncate(valid_bytes)
                        fh.flush()
                        os.fsync(fh.fileno())
                    self.truncated_bytes = torn_bytes
                self.records = records
                self.recovered_records = len(records)
                self._fh = open(logs[generation], "ab")
        else:
            # An empty directory, or a crash after the snapshot rename but
            # before the new log was created: the snapshot is complete,
            # start its log fresh.
            self._create_log(generation, base_lsn)

        self.generation = generation
        self.base_lsn = base_lsn
        self.lsn = self.records[-1][0] if self.records else base_lsn

        for stale_generation, path in list(logs.items()) + list(snapshots.items()):
            if stale_generation != generation:
                path.unlink()

    def _create_log(self, generation: int, base_lsn: int) -> None:
        """Create ``wal-<generation>.log`` atomically (tmp, fsync, rename)."""
        path = self._log_path(generation)
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(
                _encode_record(
                    {
                        "format": WAL_FORMAT,
                        "generation": generation,
                        "base_lsn": base_lsn,
                    }
                )
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._fsync_directory()
        self._fh = open(path, "ab")

    def _fsync_directory(self) -> None:
        try:
            fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return  # platform without directory fds; renames still ordered
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # ------------------------------------------------------------- appending

    def append(self, lsn: int, op: str, rows: list) -> None:
        """Frame and write one mutation record, honouring the fsync policy.

        The caller assigns LSNs (``self.lsn + 1`` — gap-free within the
        generation) and must not ack the mutation before this returns.
        """
        if self._fh is None:
            raise ValueError("write-ahead log is closed")
        if lsn != self.lsn + 1:
            raise ValueError(f"lsn {lsn} leaves a gap after {self.lsn}")
        self._fh.write(_encode_record([lsn, op, rows]))
        self.lsn = lsn
        self.records_appended += 1
        self.unflushed_records += 1
        if self.fsync_policy == "always":
            self.sync()
        else:
            self._fh.flush()
            if (
                self.fsync_policy == "interval"
                and time.monotonic() - self._last_fsync >= self.fsync_interval_s
            ):
                self.sync()

    def sync(self) -> None:
        """Flush and fsync the live log now, whatever the policy."""
        if self._fh is None:
            return
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self.fsyncs += 1
        self.unflushed_records = 0
        self._last_fsync = time.monotonic()

    # ------------------------------------------------------------ compaction

    def rotate(self, rows: list, lsn: int) -> None:
        """Compact: snapshot the full state at ``lsn``, start a new log.

        The snapshot is written to a ``*.tmp`` sibling, fsynced, and
        atomically renamed into place — the rename is the commit point.
        A crash before it leaves the old generation authoritative; a
        crash after it recovers from the new snapshot.  Only once the
        new generation's log exists are the old generation's files
        deleted.
        """
        if self._fh is None:
            raise ValueError("write-ahead log is closed")
        new_generation = self.generation + 1
        snapshot_path = self._snapshot_path(new_generation)
        tmp = snapshot_path.with_name(snapshot_path.name + ".tmp")
        self._fault("snapshot-write")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "format": SNAPSHOT_FORMAT,
                    "generation": new_generation,
                    "lsn": int(lsn),
                    "rows": rows,
                },
                fh,
                separators=(",", ":"),
            )
            fh.flush()
            os.fsync(fh.fileno())
        self._fault("snapshot-rename")
        os.replace(tmp, snapshot_path)  # commit point
        self._fsync_directory()
        self._fault("log-create")
        old_fh = self._fh
        old_log = self._log_path(self.generation)
        old_snapshot = self._snapshot_path(self.generation)
        self._create_log(new_generation, int(lsn))
        self._fault("old-delete")
        old_fh.close()
        old_log.unlink()
        if old_snapshot.exists():
            old_snapshot.unlink()
        self.generation = new_generation
        self.base_lsn = int(lsn)
        self.lsn = int(lsn)
        self.compactions += 1
        self.unflushed_records = 0
        self._last_fsync = time.monotonic()

    # ------------------------------------------------------------- lifecycle

    def close(self) -> int:
        """Flush, fsync and close the log.

        Returns:
            Records that were *awaiting* fsync when close was called —
            they are durable now, but under ``interval``/``off`` policies
            this is how many acknowledged records a crash at this moment
            would have lost.
        """
        if self._fh is None:
            return 0
        pending = self.unflushed_records
        try:
            self.sync()
        except (OSError, ValueError):
            pass
        try:
            self._fh.close()
        except OSError:
            pass
        self._fh = None
        return pending

    def stats(self) -> dict:
        return {
            "enabled": True,
            "directory": str(self.directory),
            "fsync_policy": self.fsync_policy,
            "generation": self.generation,
            "base_lsn": self.base_lsn,
            "lsn": self.lsn,
            "records_appended": self.records_appended,
            "fsyncs": self.fsyncs,
            "compactions": self.compactions,
            "unflushed_records": self.unflushed_records,
            "recovered_records": self.recovered_records,
            "recovered_snapshot_rows": self.recovered_snapshot_rows,
            "truncated_bytes": self.truncated_bytes,
        }
