"""RedoLog framing and record round-trips."""

import pytest

from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import RecoveryError
from repro.storage.checksum import checksum
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.core.manifest import (
    Checkpoint,
    MigrationEnded,
    MigrationStarted,
    RunFlushed,
    pack_str,
)
from repro.txn.log import _FRAME, LogRecordType, RedoLog
from repro.util.units import MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)


def make_log():
    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    log = RedoLog(vol.create("redo", 4 * MB))
    log.register_table("t", CODEC)
    return log


def test_update_roundtrip():
    log = make_log()
    u = UpdateRecord(7, 42, UpdateType.MODIFY, {"payload": "x"})
    log.log_update("t", CODEC.encode(u))
    records = list(log.records())
    assert len(records) == 1
    assert records[0].type == LogRecordType.UPDATE
    assert records[0].table == "t"
    assert records[0].update == u


def test_run_flush_roundtrip():
    log = make_log()
    log.log_run_flush("t", RunFlushed("masm-t-run-00003", 99, (90, 99)))
    rec = next(log.records())
    assert rec.type == LogRecordType.RUN_FLUSH
    assert rec.edit == RunFlushed("masm-t-run-00003", 99, (90, 99))
    assert rec.timestamp == 99
    assert rec.table == "t"


def test_migration_bracket_roundtrip():
    log = make_log()
    log.log_edit("t", MigrationStarted(55))
    log.log_edit("t", MigrationEnded(55, ("r1", "r2"), ((10, 500),)))
    start, end = list(log.records())
    assert start.type == LogRecordType.MIGRATION_START
    assert (start.timestamp, start.table, start.edit) == (55, "t", MigrationStarted(55))
    assert end.type == LogRecordType.MIGRATION_END
    assert end.edit.runs == ("r1", "r2")
    assert end.edit.spans == ((10, 500),)
    assert end.timestamp == 55


def test_mixed_sequence_order_preserved():
    log = make_log()
    u1 = UpdateRecord(1, 2, UpdateType.DELETE, None)
    u2 = UpdateRecord(2, 4, UpdateType.INSERT, (4, "z"))
    log.log_update("t", CODEC.encode(u1))
    log.log_run_flush("t", RunFlushed("r", 1, (1, 1)))
    log.log_update("t", CODEC.encode(u2))
    types = [r.type for r in log.records()]
    assert types == [
        LogRecordType.UPDATE,
        LogRecordType.RUN_FLUSH,
        LogRecordType.UPDATE,
    ]


def test_unregistered_table_rejected():
    log = make_log()
    with pytest.raises(RecoveryError):
        log.log_update("nope", CODEC.encode(UpdateRecord(1, 2, UpdateType.DELETE, None)))


def test_scan_mode_after_lost_cursor():
    """After a crash the append cursor is lost; records() must still replay."""
    log = make_log()
    u = UpdateRecord(3, 9, UpdateType.DELETE, None)
    log.log_update("t", CODEC.encode(u))
    log.log_edit("t", MigrationEnded(3, ()))
    # Simulate losing the in-memory cursor.
    log.file._append_pos = 0
    records = list(log.records())
    assert [r.type for r in records] == [
        LogRecordType.UPDATE,
        LogRecordType.MIGRATION_END,
    ]


def test_scan_mode_skips_torn_tail():
    """A record half-persisted by a crash mid-append is skipped, counted,
    and overwritten by the next append — earlier records are untouched."""
    from repro.obs import MetricsRegistry, use_registry

    with use_registry(MetricsRegistry()):
        log = make_log()
        good = UpdateRecord(1, 5, UpdateType.MODIFY, {"payload": "keep"})
        torn = UpdateRecord(2, 6, UpdateType.MODIFY, {"payload": "torn"})
        log.log_update("t", CODEC.encode(good))
        start = log.file.append_pos
        log.log_update("t", CODEC.encode(torn))
        # Tear the final record: keep only the frame header plus a few
        # payload bytes, as if the crash cut the append short (unwritten
        # space reads back as zeroes).
        end = log.file.append_pos
        tear_at = start + 16
        log.file.write(tear_at, b"\x00" * (end - tear_at))
        log.file._append_pos = 0  # the cursor died with the process

        survivors = list(log.records())
        assert [r.update for r in survivors] == [good]
        from repro.obs import get_registry

        assert get_registry().counter("txn.log.torn_tail_skipped").value == 1
        # The cursor now sits where the torn record began: appends reuse
        # that space instead of leaving garbage in the middle of the log.
        replacement = UpdateRecord(3, 7, UpdateType.DELETE, None)
        log.log_update("t", CODEC.encode(replacement))
        assert [r.update for r in log.records()] == [good, replacement]


def test_cursored_mode_raises_on_corruption():
    """With a live append cursor a bad CRC is corruption, not a torn tail."""
    log = make_log()
    log.log_update("t", CODEC.encode(UpdateRecord(1, 5, UpdateType.DELETE, None)))
    log.file.write(8, b"\xff")  # flip a payload byte under the CRC
    with pytest.raises(RecoveryError, match="failed checksum"):
        list(log.records())


def test_empty_log():
    log = make_log()
    assert list(log.records()) == []
    log.file._append_pos = 0
    assert list(log.records()) == []


def test_log_writes_are_sequential():
    log = make_log()
    device = log.file.device
    for i in range(100):
        log.log_update("t", CODEC.encode(UpdateRecord(i + 1, i, UpdateType.DELETE, None)))
    assert device.stats.rand_writes <= 1
    assert log.records_written == 100


def stamped(frame: bytes, generation: int) -> bytes:
    """``frame`` as written in ``generation``: the same bytes but the CRC,
    whose seed (the type byte's checksum) has the generation XORed in."""
    length, rtype, _ = _FRAME.unpack_from(frame)
    crc = checksum(frame[_FRAME.size :], checksum(bytes([rtype])) ^ generation)
    return _FRAME.pack(length, rtype, crc) + frame[_FRAME.size :]


def test_truncate_decides_survival_from_the_payload_head():
    """Truncation needs only (table, timestamp) of an UPDATE frame: it reads
    them off the payload head, so it works without the table's codec — and
    the survivors come through byte for byte, bar the CRC that stamps them
    with the log's next generation."""
    log = make_log()
    frames = {}
    for ts in range(1, 9):
        start = log.file.append_pos
        table = "other" if ts == 3 else "t"
        log.register_table(table, UpdateCodec(SCHEMA))
        log.log_update(table, CODEC.encode(UpdateRecord(ts, ts * 2, UpdateType.INSERT, (ts * 2, f"p{ts}"))))
        frames[ts] = log.file.peek(start, log.file.append_pos - start)
    log.log_run_flush("t", RunFlushed("run-0", 5, (1, 5)))
    log.codecs.clear()  # a full decode of any UPDATE frame would now raise
    report = log.truncate_through(Checkpoint("t", checkpoint_ts=5, migrated_ts=0))
    # ts 1..5 of "t" and the RUN_FLUSH at 5 go; ts 3 of "other" and 6..8 stay.
    assert (report.records_dropped, report.records_kept) == (5, 4)
    content = log.file.peek(0, log.file.append_pos)
    assert log.generation == 1
    assert content.endswith(b"".join(stamped(frames[ts], 1) for ts in (3, 6, 7, 8)))
    log.register_table("t", CODEC)
    log.register_table("other", UpdateCodec(SCHEMA))
    replayed = [(r.type, r.table, r.timestamp) for r in log.records()]
    assert replayed == [
        (LogRecordType.CHECKPOINT, "t", 5),
        (LogRecordType.UPDATE, "other", 3),
        (LogRecordType.UPDATE, "t", 6),
        (LogRecordType.UPDATE, "t", 7),
        (LogRecordType.UPDATE, "t", 8),
    ]


def test_update_frames_are_the_generic_frame_byte_for_byte():
    """log_update's memoized frame head builds exactly the frame ``_frame``
    builds, for two tables, before a truncation and after it, when both
    stamp the log's next generation."""
    log = make_log()
    log.register_table("orders", CODEC)

    def logged(table, ts):
        encoded = CODEC.encode(UpdateRecord(ts, ts * 2, UpdateType.INSERT, (ts * 2, f"p{ts}")))
        start = log.file.append_pos
        log.log_update(table, encoded)
        frame = log.file.peek(start, log.file.append_pos - start)
        generic = stamped(
            _FRAME.pack(len(table) + 2 + len(encoded), LogRecordType.UPDATE, 0)
            + pack_str(table)
            + encoded,
            log.generation,
        )
        assert frame == log._frame(LogRecordType.UPDATE, pack_str(table) + encoded) == generic
        return frame

    for ts in range(1, 41):
        logged("t" if ts % 3 else "orders", ts)
    log.truncate_through(Checkpoint("t", checkpoint_ts=40, migrated_ts=0))
    assert log.generation == 1
    for ts in range(41, 47):
        logged("orders" if ts % 2 else "t", ts)
    assert [r.timestamp for r in log.records() if r.type is LogRecordType.UPDATE] == [
        ts for ts in range(1, 47) if ts % 3 == 0 or ts > 40
    ]


def test_unregistered_table_writes_nothing():
    log = make_log()
    log.log_update("t", CODEC.encode(UpdateRecord(1, 2, UpdateType.DELETE, None)))
    device = log.file.device
    before = (log.file.append_pos, device.stats.writes, log.records_written)
    with pytest.raises(RecoveryError, match="no codec registered"):
        log.log_update("nope", CODEC.encode(UpdateRecord(2, 4, UpdateType.DELETE, None)))
    assert (log.file.append_pos, device.stats.writes, log.records_written) == before
