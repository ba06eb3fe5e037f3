"""Durability of the ingest spine (``repro-wal-v2``).

Three layers of contract:

* :class:`~repro.core.wal.WriteAheadLog` alone — record framing, CRC
  and torn-tail truncation, fsync-policy accounting, and compaction
  that survives a crash injected at *every* stage of the rotation.
* :class:`~repro.core.remote.ArchiveShardServer` with a WAL directory —
  a shard killed mid-append (chaos :class:`~repro.core.chaos.CrashAfter`)
  restarts from disk to bit-identical query results, client retries
  never double-append a record, and shutdown reports how many
  acknowledged records were still awaiting fsync.
* The replay property (issue satellite): for a seeded random
  insert/delete sequence, truncating the WAL after *any* prefix of its
  records — including mid-record torn tails — reconstructs exactly the
  state after that many acknowledged mutations.
"""

import json
import math
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.archive import InMemoryArchive
from repro.core.chaos import CrashAfter
from repro.core.remote import (
    ArchiveShardServer,
    RemoteShardedArchive,
    ShardProtocolError,
    ShardUnavailableError,
    _ShardConnection,
    _WIRE_V,
)
from repro.core.wal import (
    FSYNC_POLICIES,
    SNAPSHOT_FORMAT,
    WAL_FORMAT,
    WalCorruptionError,
    WriteAheadLog,
    _RECORD_HEADER,
    _encode_record,
    read_log,
)
from tests.test_remote_archive import random_trips
from tests.test_replication import assert_identical_queries

TILE = 500.0


def _rows(*refs):
    """Synthetic ``[tid, idx, x, y, t]`` rows from ``(tid, idx)`` pairs."""
    return [[tid, idx, 100.0 * tid, 50.0 * idx, float(idx)] for tid, idx in refs]


def _fill(wal, n, start_lsn=0):
    for i in range(n):
        wal.append(start_lsn + i + 1, "insert", _rows((i, 0)))


def _log_file(directory):
    logs = sorted(Path(directory).glob("wal-*.log"))
    assert len(logs) == 1
    return logs[0]


def v1_log_bytes(generation=0, base_lsn=0, n_records=2):
    """A log file as ``repro-wal-v1`` wrote it: 5-column rows."""
    header = {"format": "repro-wal-v1", "generation": generation, "base_lsn": base_lsn}
    frames = [header]
    frames += [
        [base_lsn + i, "insert", [[i, 0, 100.0 * i, 50.0, 30.0 * i]]]
        for i in range(1, n_records + 1)
    ]
    return b"".join(_encode_record(frame) for frame in frames)


def _directory_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class TestRecordFraming:
    def test_append_replay_roundtrip(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, "insert", _rows((7, 0), (7, 1)))
        wal.append(2, "delete", [[7, 0, 700.0, 0.0]])
        wal.close()

        header, records, valid, torn = read_log(_log_file(tmp_path))
        assert header == {"format": WAL_FORMAT, "generation": 0, "base_lsn": 0}
        assert torn == 0
        assert records == [
            (1, "insert", _rows((7, 0), (7, 1))),
            (2, "delete", [[7, 0, 700.0, 0.0]]),
        ]
        assert valid == _log_file(tmp_path).stat().st_size

    def test_reopen_recovers_records_and_continues(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        wal.close()

        reopened = WriteAheadLog(tmp_path)
        assert reopened.lsn == 3
        assert reopened.recovered_records == 3
        assert [lsn for lsn, __, __ in reopened.records] == [1, 2, 3]
        reopened.append(4, "insert", _rows((9, 9)))
        reopened.close()
        __, records, __, __ = read_log(_log_file(tmp_path))
        assert [lsn for lsn, __, __ in records] == [1, 2, 3, 4]

    def test_append_rejects_lsn_gap_and_closed_log(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        wal.append(1, "insert", _rows((1, 0)))
        with pytest.raises(ValueError, match="gap"):
            wal.append(3, "insert", _rows((2, 0)))
        assert wal.close() == 0
        with pytest.raises(ValueError, match="closed"):
            wal.append(2, "insert", _rows((2, 0)))

    def test_constructor_validates_policy_and_interval(self, tmp_path):
        with pytest.raises(ValueError, match="fsync policy"):
            WriteAheadLog(tmp_path, fsync="sometimes")
        with pytest.raises(ValueError, match="positive"):
            WriteAheadLog(tmp_path, fsync="interval", fsync_interval_s=0.0)

    def test_crc_flip_drops_the_corrupted_suffix(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        wal.close()
        path = _log_file(tmp_path)
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the final record
        path.write_bytes(bytes(data))

        __, records, valid, torn = read_log(path)
        assert [lsn for lsn, __, __ in records] == [1, 2]
        assert torn > 0

        reopened = WriteAheadLog(tmp_path)
        assert reopened.lsn == 2
        assert reopened.truncated_bytes == torn
        assert path.stat().st_size == valid  # torn tail truncated in place
        reopened.close()


class TestTornTails:
    def test_every_truncation_point_recovers_longest_valid_prefix(self, tmp_path):
        source = tmp_path / "source"
        wal = WriteAheadLog(source)
        _fill(wal, 3)
        wal.close()
        data = _log_file(source).read_bytes()

        # Record boundaries: header record + 3 mutation records.
        boundaries = []
        offset = 0
        while offset < len(data):
            length, __ = _RECORD_HEADER.unpack_from(data, offset)
            offset += _RECORD_HEADER.size + length
            boundaries.append(offset)
        assert len(boundaries) == 4 and boundaries[-1] == len(data)

        for cut in range(len(data) + 1):
            trial = tmp_path / f"cut-{cut}"
            trial.mkdir()
            (trial / _log_file(source).name).write_bytes(data[:cut])
            expected = sum(1 for b in boundaries[1:] if b <= cut)
            if cut < boundaries[0]:
                # Even the file header is torn: generation 0 restarts empty.
                reopened = WriteAheadLog(trial)
                assert (reopened.lsn, reopened.recovered_records) == (0, 0)
            else:
                reopened = WriteAheadLog(trial)
                assert reopened.recovered_records == expected
                assert reopened.lsn == expected
                # Recovery truncated the torn tail; a re-open is clean.
                assert reopened.truncated_bytes == cut - boundaries[expected]
            reopened.close()
            again = WriteAheadLog(trial)
            assert again.truncated_bytes == 0
            again.close()

    def test_torn_header_without_snapshot_past_gen_zero_is_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 2)
        wal.rotate(_rows((0, 0), (1, 0)), 2)
        wal.close()
        log = _log_file(tmp_path)
        snapshot = tmp_path / "snapshot-00000001.json"
        assert snapshot.exists()
        log.write_bytes(b"\x00\x00")  # torn header
        snapshot.unlink()  # and no snapshot to fall back on
        with pytest.raises(WalCorruptionError, match="no readable header"):
            WriteAheadLog(tmp_path)

    def test_mismatched_snapshot_format_is_fatal(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 1)
        wal.rotate(_rows((0, 0)), 1)
        wal.close()
        snapshot = tmp_path / "snapshot-00000001.json"
        blob = json.loads(snapshot.read_text(encoding="utf-8"))
        assert blob["format"] == SNAPSHOT_FORMAT
        blob["format"] = "something-else"
        snapshot.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(WalCorruptionError, match="snapshot"):
            WriteAheadLog(tmp_path)


class TestPreviousFormat:
    """A ``repro-wal-v1`` directory is refused before recovery deletes,
    truncates or sweeps any of its files."""

    def test_generation_zero_v1_log_is_refused_and_kept(self, tmp_path):
        data = v1_log_bytes()
        log = tmp_path / "wal-00000000.log"
        log.write_bytes(data)
        with pytest.raises(WalCorruptionError, match="repro-wal-v1.*repro-wal-v2"):
            read_log(log)
        with pytest.raises(WalCorruptionError, match="repro-wal-v1.*repro-wal-v2"):
            WriteAheadLog(tmp_path)
        assert _directory_bytes(tmp_path) == {"wal-00000000.log": data}

    def test_v1_snapshot_generation_is_refused_and_kept(self, tmp_path):
        snapshot = {
            "format": "repro-wal-v1-snapshot",
            "generation": 1,
            "lsn": 2,
            "rows": [[0, 0, 0.0, 50.0, 0.0], [1, 0, 100.0, 50.0, 30.0]],
        }
        (tmp_path / "snapshot-00000001.json").write_text(
            json.dumps(snapshot), encoding="utf-8"
        )
        (tmp_path / "wal-00000001.log").write_bytes(
            v1_log_bytes(generation=1, base_lsn=2)
        )
        (tmp_path / "wal-00000000.log").write_bytes(v1_log_bytes())
        (tmp_path / "snapshot-00000002.json.tmp").write_text("{\"half\":")
        before = _directory_bytes(tmp_path)
        with pytest.raises(
            WalCorruptionError, match="repro-wal-v1-snapshot.*repro-wal-v2-snapshot"
        ):
            WriteAheadLog(tmp_path)
        assert _directory_bytes(tmp_path) == before

    def test_shard_server_refuses_v1_directory(self, tmp_path):
        data = v1_log_bytes()
        (tmp_path / "wal-00000000.log").write_bytes(data)
        with pytest.raises(WalCorruptionError, match="repro-wal-v1"):
            ArchiveShardServer(0, 1, TILE, wal_dir=tmp_path)
        assert _directory_bytes(tmp_path) == {"wal-00000000.log": data}


class TestFsyncPolicies:
    def test_policies_are_the_documented_triple(self):
        assert FSYNC_POLICIES == ("always", "interval", "off")

    def test_always_fsyncs_every_append(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="always")
        _fill(wal, 4)
        assert wal.fsyncs == 4
        assert wal.unflushed_records == 0
        assert wal.close() == 0

    def test_off_defers_until_close_and_reports_pending(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="off")
        _fill(wal, 5)
        assert wal.fsyncs == 0
        assert wal.unflushed_records == 5
        assert wal.close() == 5  # durable now, but a crash lost these
        reopened = WriteAheadLog(tmp_path, fsync="off")
        assert reopened.recovered_records == 5  # flush made them readable
        reopened.close()

    def test_interval_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(tmp_path, fsync="interval", fsync_interval_s=3600.0)
        _fill(wal, 4)
        assert wal.fsyncs == 0  # interval far in the future
        assert wal.unflushed_records == 4
        wal.sync()
        assert wal.fsyncs == 1 and wal.unflushed_records == 0
        wal._last_fsync -= 7200.0  # pretend the interval elapsed
        wal.append(5, "insert", _rows((5, 0)))
        assert wal.fsyncs == 2 and wal.unflushed_records == 0
        wal.close()


class TestCompaction:
    def test_rotate_switches_generation_and_drops_the_old(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        snapshot_rows = _rows((0, 0), (1, 0), (2, 0))
        wal.rotate(snapshot_rows, 3)
        assert (wal.generation, wal.base_lsn, wal.lsn) == (1, 3, 3)
        assert wal.compactions == 1
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["snapshot-00000001.json", "wal-00000001.log"]
        wal.append(4, "insert", _rows((3, 0)))
        wal.close()

        reopened = WriteAheadLog(tmp_path)
        assert (reopened.generation, reopened.base_lsn, reopened.lsn) == (1, 3, 4)
        assert reopened.snapshot_rows == snapshot_rows
        assert reopened.records == [(4, "insert", _rows((3, 0)))]
        reopened.close()

    @pytest.mark.parametrize(
        "stage", ["snapshot-write", "snapshot-rename", "log-create", "old-delete"]
    )
    def test_crash_at_every_compaction_stage_loses_nothing(self, tmp_path, stage):
        class Boom(RuntimeError):
            pass

        wal = WriteAheadLog(tmp_path)
        _fill(wal, 3)
        full_rows = _rows((0, 0), (1, 0), (2, 0))

        def crash(at):
            if at == stage:
                raise Boom(at)

        wal.fault_hook = crash
        with pytest.raises(Boom):
            wal.rotate(full_rows, 3)
        # Simulate the process death: drop the handle without close().
        wal._fh = None

        recovered = WriteAheadLog(tmp_path)
        assert recovered.lsn == 3
        if recovered.snapshot_rows is None:
            # Crashed before the snapshot rename: old generation intact.
            assert recovered.generation == 0
            assert [lsn for lsn, __, __ in recovered.records] == [1, 2, 3]
        else:
            # Crashed after the commit point: new generation authoritative.
            assert recovered.generation == 1
            assert recovered.snapshot_rows == full_rows
            assert recovered.records == []
        # Either way the WAL keeps accepting appends where it left off.
        recovered.append(4, "insert", _rows((9, 0)))
        recovered.close()

    def test_orphaned_tmp_files_are_swept(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 2)
        wal.close()
        orphan = tmp_path / "snapshot-00000001.json.tmp"
        orphan.write_text("{\"half\":", encoding="utf-8")
        reopened = WriteAheadLog(tmp_path)
        assert not orphan.exists()
        assert reopened.lsn == 2
        reopened.close()

    def test_stale_generations_are_swept(self, tmp_path):
        wal = WriteAheadLog(tmp_path)
        _fill(wal, 2)
        wal.rotate(_rows((0, 0), (1, 0)), 2)
        wal.close()
        # Plant a leftover older generation next to the live one.
        stale = tmp_path / "wal-00000000.log"
        stale.write_bytes(b"leftover")
        reopened = WriteAheadLog(tmp_path)
        assert not stale.exists()
        assert (reopened.generation, reopened.lsn) == (1, 2)
        reopened.close()


def _serve(tmp_path, name="wal", **kwargs):
    return ArchiveShardServer(
        0, 1, TILE, wal_dir=tmp_path / name, **kwargs
    ).start()


def _client(server, **kwargs):
    kwargs.setdefault("timeout_s", 5.0)
    return RemoteShardedArchive([f"127.0.0.1:{server.address[1]}"], **kwargs)


def _served_points(remote):
    """Point count as the *servers* see it (a fresh client holds no trips)."""
    return sum(s["num_points"] for s in remote.shard_stats())


class TestServerRecovery:
    def test_clean_restart_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        trips = random_trips(rng, n_trips=8)
        mem = InMemoryArchive()
        server = _serve(tmp_path)
        remote = _client(server)
        for trip in trips:
            assert mem.add(trip) == remote.add(trip)
        assert mem.remove(2) == remote.remove(2)
        remote.close()
        assert server.stop() == 0  # fsync=always leaves nothing pending

        reborn = _serve(tmp_path)
        remote = _client(reborn)
        try:
            assert _served_points(remote) == mem.num_points
            assert_identical_queries(mem, remote, np.random.default_rng(12))
        finally:
            remote.close()
            reborn.stop()

    def test_kill_mid_append_recovers_and_repush_is_idempotent(self, tmp_path):
        """The headline chaos scenario: a shard dies *mid-insert* (request
        received, no reply), restarts from its WAL, and an idempotent
        re-push of the whole feed converges to bit-identical results."""
        rng = np.random.default_rng(21)
        trips = random_trips(rng, n_trips=8)
        mem = InMemoryArchive()
        for trip in trips:
            mem.add(trip)

        server = _serve(tmp_path)
        server.fault_hook = CrashAfter(server, op="insert", nth=5)
        remote = _client(server, retries=0)
        with pytest.raises(ShardUnavailableError):
            for trip in trips:
                remote.add(trip)
        remote.close()
        # CrashAfter stops the server from a helper thread; wait for the
        # WAL handle to be released before reopening the directory.
        deadline = time.monotonic() + 5.0
        while server._wal._fh is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server._wal._fh is None

        reborn = _serve(tmp_path)
        remote = _client(reborn)
        try:
            # Inserts 1–4 were acked (and fsynced) pre-crash; the 5th died
            # mid-request, before any state change.
            assert reborn._lsn == 4
            for trip in trips:  # same ids in the same order: idempotent
                remote.add(trip)
            assert reborn._lsn == len(trips)  # survivors appended nothing
            assert _served_points(remote) == mem.num_points
            assert_identical_queries(mem, remote, np.random.default_rng(22))
        finally:
            remote.close()
            reborn.stop()

    def test_recovery_replays_through_compaction(self, tmp_path):
        rng = np.random.default_rng(31)
        trips = random_trips(rng, n_trips=10)
        mem = InMemoryArchive()
        server = _serve(tmp_path, compact_every=3)
        remote = _client(server)
        for trip in trips:
            assert mem.add(trip) == remote.add(trip)
        stats = server._wal.stats()
        assert stats["compactions"] >= 1
        assert stats["base_lsn"] > 0
        remote.close()
        server.stop()

        reborn = _serve(tmp_path, compact_every=3)
        remote = _client(reborn)
        try:
            assert reborn._wal.stats()["recovered_snapshot_rows"] > 0
            assert _served_points(remote) == mem.num_points
            assert_identical_queries(mem, remote, np.random.default_rng(32))
        finally:
            remote.close()
            reborn.stop()


class TestShutdownAndIdempotence:
    """Issue satellite: shutdown flushes/reports, retries never double-append."""

    def test_stop_reports_unflushed_records_under_fsync_off(self, tmp_path):
        server = _serve(tmp_path, fsync="off")
        remote = _client(server)
        for trip in random_trips(np.random.default_rng(41), n_trips=4):
            remote.add(trip)
        remote.close()
        pending = server.stop()
        assert pending == 4  # one journal record per (effective) insert
        # ... and close() made even those durable:
        reborn = _serve(tmp_path, fsync="off")
        assert reborn._wal.stats()["recovered_records"] == 4
        reborn.stop()

    def test_stop_reports_zero_under_fsync_always(self, tmp_path):
        server = _serve(tmp_path)
        remote = _client(server)
        remote.add(random_trips(np.random.default_rng(42), n_trips=1)[0])
        remote.close()
        assert server.stop() == 0

    def test_stop_never_served_does_not_hang(self, tmp_path):
        """A server that never ran a serve loop stops at once, and still
        closes its listening socket and its WAL."""
        server = ArchiveShardServer(0, 1, TILE, wal_dir=tmp_path / "wal")
        server._dispatch({"op": "insert", "v": _WIRE_V, "points": [[1, 0, 5.0, 5.0]]})
        pending = []
        stopper = threading.Thread(
            target=lambda: pending.append(server.stop()), daemon=True
        )
        stopper.start()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert pending == [0]
        assert server._server.socket.fileno() == -1
        assert server._wal._fh is None
        reborn = _serve(tmp_path)
        assert reborn._lsn == 1
        reborn.stop()

    def test_retried_insert_does_not_double_append(self, tmp_path):
        server = _serve(tmp_path)
        rows = [[1, 0, 100.0, 100.0], [1, 1, 300.0, 300.0]]
        first = server._dispatch({"op": "insert", "v": _WIRE_V, "points": rows})
        assert first["ok"] and first["lsn"] == 1
        assert server._wal.stats()["records_appended"] == 1
        # The retry finds every row resident: no record, no LSN bump.
        retry = server._dispatch({"op": "insert", "v": _WIRE_V, "points": rows})
        assert retry["ok"] and retry["lsn"] == 1
        assert retry["num_points"] == first["num_points"] == 2
        assert server._wal.stats()["records_appended"] == 1
        assert len(server._log) == 1
        # Same for a delete of already-deleted rows.
        gone = server._dispatch({"op": "delete", "v": _WIRE_V, "points": rows})
        assert gone["ok"] and gone["lsn"] == 2
        again = server._dispatch({"op": "delete", "v": _WIRE_V, "points": rows})
        assert again["ok"] and again["lsn"] == 2
        assert server._wal.stats()["records_appended"] == 2
        server.stop()


class TestMemoryJournal:
    def test_memory_journal_is_bounded(self):
        """Without a WAL the journal still drops its tail every
        ``compact_every`` records, so its memory follows the archive, not
        the total ingest; ``log_since`` below the trim is incomplete."""
        server = ArchiveShardServer(0, 1, TILE, compact_every=4).start()
        try:
            for tid in range(5):
                rows = [[tid, 0, 100.0 + tid, 100.0]]
                for op in ("insert", "delete"):
                    reply = server._dispatch({"op": op, "v": _WIRE_V, "points": rows})
                    assert reply["ok"]
                    assert len(server._log) <= 4
            assert (server._lsn, server._base_lsn, len(server._log)) == (10, 8, 2)
            assert server.num_points == 0
            feed = server._dispatch({"op": "log_since", "v": _WIRE_V, "lsn": 0})
            assert feed["complete"] is False
            feed = server._dispatch({"op": "log_since", "v": _WIRE_V, "lsn": 8})
            assert feed["complete"] is True
            assert [record[0] for record in feed["records"]] == [9, 10]
        finally:
            server.stop()


class TestRowChecks:
    """Every row of a mutation is checked before anything is journalled:
    a refused row takes no LSN, appends no record, leaves the resident
    points as they were, and the WAL replays to the same state."""

    RESIDENT = [1, 0, 100.0, 100.0]
    NEW = [1, 1, 120.0, 80.0]
    BAD_ROWS = {
        "inf": [2, 0, math.inf, 100.0],
        "-inf": [2, 0, 100.0, -math.inf],
        "nan": [2, 0, math.nan, 100.0],
        "short": [2, 0, 100.0],
    }

    def _request(self, op, bad):
        if op == "insert":
            return {"op": "insert", "v": _WIRE_V, "points": [self.NEW, bad]}
        if op == "delete":
            return {"op": "delete", "v": _WIRE_V, "points": [self.RESIDENT, bad]}
        return {
            "op": "apply_log",
            "v": _WIRE_V,
            "records": [[2, "insert", [self.NEW]], [3, "insert", [bad]]],
        }

    @pytest.mark.parametrize("op", ["insert", "delete", "apply_log"])
    @pytest.mark.parametrize("bad", sorted(BAD_ROWS))
    def test_refused_row_leaves_lsn_points_and_wal(self, tmp_path, op, bad):
        server = _serve(tmp_path)
        try:
            first = server._dispatch(
                {"op": "insert", "v": _WIRE_V, "points": [self.RESIDENT]}
            )
            assert first["ok"] and first["lsn"] == 1
            log_bytes = _log_file(tmp_path / "wal").read_bytes()
            reply = server._dispatch(self._request(op, self.BAD_ROWS[bad]))
            assert reply["ok"] is False
            assert reply["kind"] == "bad_request"
            assert (server._lsn, server.num_points, len(server._log)) == (1, 1, 1)
            assert server._wal.stats()["records_appended"] == 1
            assert _log_file(tmp_path / "wal").read_bytes() == log_bytes
        finally:
            server.stop()
        reborn = _serve(tmp_path)
        try:
            assert (reborn._lsn, reborn.num_points) == (1, 1)
            assert reborn._snapshot_rows() == [self.RESIDENT]
        finally:
            reborn.stop()

    def test_infinite_insert_is_refused_over_the_wire(self, tmp_path):
        """An infinite coordinate is a typed refusal, as NaN is: the
        connection survives instead of dropping without a reply."""
        server = _serve(tmp_path)
        conn = _ShardConnection(server.address, 5.0, 0, 0.0, [])
        try:
            for bad in ([2, 0, math.inf, 1.0], [2, 0, math.nan, 1.0]):
                with pytest.raises(ShardProtocolError, match="bad_request"):
                    conn.request({"op": "insert", "v": _WIRE_V, "points": [bad]})
            assert conn.request({"op": "ping", "v": _WIRE_V})["ok"]
            assert server._lsn == 0
        finally:
            conn.close()
            server.stop()


class TestPrefixReplayProperty:
    """Issue satellite: replaying *any* WAL prefix — including a torn
    final record — reconstructs exactly the state after that many
    acknowledged mutations, on seeded random insert/delete sequences."""

    def _mutate_randomly(self, server, rng, n_mutations=24):
        """Drive a random mutation sequence; return the canonical row
        snapshot recorded after every journalled record."""
        live = {}
        snapshots = [server._snapshot_rows()]
        next_tid = 0
        for __ in range(n_mutations):
            if live and rng.random() < 0.3:
                tid = int(rng.choice(sorted({t for t, __ in live})))
                rows = [
                    [t, i, x, y] for (t, i), (x, y) in sorted(live.items())
                    if t == tid
                ]
                reply = server._dispatch(
                    {"op": "delete", "v": _WIRE_V, "points": rows}
                )
                assert reply["ok"]
                for t, i, __, __x in rows:
                    live.pop((t, i))
            else:
                tid = next_tid
                next_tid += 1
                rows = []
                for idx in range(int(rng.integers(1, 4))):
                    x, y = (float(v) for v in rng.uniform(0.0, 3_000.0, size=2))
                    rows.append([tid, idx, x, y])
                    live[(tid, idx)] = (x, y)
                reply = server._dispatch(
                    {"op": "insert", "v": _WIRE_V, "points": rows}
                )
                assert reply["ok"]
            if reply["lsn"] == len(snapshots):  # this mutation journalled
                snapshots.append(server._snapshot_rows())
        assert server._lsn == len(snapshots) - 1
        # The canonical form, built independently of the server: rows
        # sorted by (traj_id, index).
        assert snapshots[-1] == [
            [tid, idx, x, y] for (tid, idx), (x, y) in sorted(live.items())
        ]
        return snapshots

    def _record_boundaries(self, data):
        boundaries = []
        offset = 0
        while offset < len(data):
            length, __ = _RECORD_HEADER.unpack_from(data, offset)
            offset += _RECORD_HEADER.size + length
            boundaries.append(offset)
        return boundaries

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_prefix_reconstructs_exact_state(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        source = tmp_path / "source"
        server = ArchiveShardServer(
            0, 1, TILE, wal_dir=source, compact_every=0
        ).start()
        try:
            snapshots = self._mutate_randomly(server, rng)
        finally:
            server.stop()

        data = _log_file(source).read_bytes()
        boundaries = self._record_boundaries(data)
        assert len(boundaries) == len(snapshots)  # header + one per record

        for k in range(len(snapshots)):
            cuts = [boundaries[k]]
            if k + 1 < len(boundaries):
                # A torn final record must replay like the clean prefix.
                torn_extra = int(rng.integers(1, boundaries[k + 1] - boundaries[k]))
                cuts.append(boundaries[k] + torn_extra)
            for cut in cuts:
                trial = tmp_path / f"s{seed}-k{k}-c{cut}"
                trial.mkdir()
                (trial / _log_file(source).name).write_bytes(data[:cut])
                replayed = ArchiveShardServer(0, 1, TILE, wal_dir=trial).start()
                try:
                    assert replayed._lsn == k
                    assert replayed._snapshot_rows() == snapshots[k]
                finally:
                    replayed.stop()
