"""Per-frame reference walks of the redo log, kept for the WAL tests.

``RedoLog`` reads the log in sequential chunks and checks each frame where it
lies in the buffer (``RedoLog._frames``).  These are the passes it replaced,
ported to functions over a ``RedoLog``: two device reads per frame (header,
then payload), the type byte concatenated in front of the payload for the
CRC, every UPDATE decoded.  They have the same side effects on the log
(cursor parking, ``truncated_through``, the dirty region, the file itself),
so a test can run one log through ``RedoLog`` and an identical one through
here and compare everything.  Production code does not import this module.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.update import UpdateCodec
from repro.errors import RecoveryError
from repro.obs import get_registry
from repro.storage.checksum import checksum
from repro.txn.log import (
    _FRAME,
    Checkpoint,
    LogRecord,
    LogRecordType,
    RedoLog,
    TruncationReport,
    _unpack_str,
)


def reference_records(log: RedoLog) -> Iterator[LogRecord]:
    """``RedoLog.records()``, one frame (two reads) at a time."""
    file = log.file
    end = file.append_pos or file.size
    scanning = file.append_pos == 0
    offset = 0
    while offset < end:
        if offset + _FRAME.size > end:
            if scanning:
                log._torn_tail(offset, "truncated frame header")
                break
            raise RecoveryError("truncated log frame header")
        header = file.read(offset, _FRAME.size)
        length, rtype_raw, stored_crc = _FRAME.unpack(header)
        if scanning and (rtype_raw == 0 or length == 0):
            break  # end of written log
        if offset + _FRAME.size + length > end:
            if scanning:
                log._torn_tail(offset, "truncated payload")
                break
            raise RecoveryError("truncated log record payload")
        payload = file.read(offset + _FRAME.size, length)
        if checksum(bytes([rtype_raw & 0xFF]) + payload) != stored_crc:
            if scanning:
                log._torn_tail(offset, "checksum mismatch")
                break
            raise RecoveryError(f"log record at offset {offset} failed checksum")
        offset += _FRAME.size + length
        try:
            rtype = LogRecordType(rtype_raw)
        except ValueError as exc:
            raise RecoveryError(f"corrupt log record type {rtype_raw}") from exc
        record = log._decode(rtype, payload)
        if record.type is LogRecordType.CHECKPOINT:
            log.truncated_through = max(log.truncated_through, record.timestamp)
        yield record
    if scanning:
        file.seek_append(offset)
        if log.truncated_through > 0 and offset < file.size:
            log._dirty_start = offset
            log._dirty_end = file.size
            log._zero_guard()


def reference_truncate_through(log: RedoLog, checkpoint: Checkpoint) -> TruncationReport:
    """``RedoLog.truncate_through()``, one frame (two reads) at a time."""
    file = log.file
    end = file.append_pos
    survivors: list[bytes] = []
    dropped = 0
    offset = 0
    while offset < end:
        header = file.read(offset, _FRAME.size)
        length, rtype_raw, stored_crc = _FRAME.unpack(header)
        payload = file.read(offset + _FRAME.size, length)
        if checksum(bytes([rtype_raw & 0xFF]) + payload) != stored_crc:
            raise RecoveryError(
                f"live log record at offset {offset} failed checksum; "
                "refusing to truncate"
            )
        offset += _FRAME.size + length
        rtype = LogRecordType(rtype_raw)
        if rtype is LogRecordType.UPDATE:
            table, pos = _unpack_str(payload, 0)
            timestamp = UpdateCodec.peek_timestamp(payload, pos)
        else:
            record = log._decode(rtype, payload)
            table, timestamp = record.table, record.timestamp
        if log._survives(rtype, table, timestamp, checkpoint):
            survivors.append(header + payload)
        else:
            dropped += 1
    cp_payload = log._encode_checkpoint(checkpoint)
    cp_crc = checksum(bytes([int(LogRecordType.CHECKPOINT)]) + cp_payload)
    frames = [
        _FRAME.pack(len(cp_payload), int(LogRecordType.CHECKPOINT), cp_crc) + cp_payload
    ] + survivors
    content = b"".join(frames)
    if len(content) > file.size:
        raise RecoveryError(
            f"compacted log ({len(content)} bytes) exceeds the log file "
            f"({file.size} bytes)"
        )
    file.write(0, content)
    new_end = len(content)
    log._dirty_start = new_end
    log._dirty_end = max(log._dirty_end, end)
    file.seek_append(new_end)
    log._zero_guard()
    log.truncated_through = max(log.truncated_through, checkpoint.checkpoint_ts)
    reclaimed = max(0, end - new_end)
    registry = get_registry()
    registry.counter("txn.log.truncations").add(1)
    registry.counter("txn.log.bytes_reclaimed").add(reclaimed)
    registry.counter("txn.log.checkpoints_written").add(1)
    return TruncationReport(
        reclaimed_bytes=reclaimed,
        records_dropped=dropped,
        records_kept=len(survivors),
        live_bytes=new_end,
        dirty_bytes=log.dirty_bytes,
    )
