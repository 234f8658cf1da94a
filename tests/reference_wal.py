"""Per-frame reference walks of the redo log, kept for the WAL tests.

``RedoLog`` reads the log in sequential chunks and checks each frame where it
lies in the buffer (``RedoLog._frames``).  These are the passes it replaced,
ported to functions over a ``RedoLog``: two device reads per frame (header,
then payload), the type byte concatenated in front of the payload for the
CRC, every UPDATE decoded.  Frames carry the log's generation the way the
format defines it: the checksum of the type byte, XOR the generation, seeds
the checksum of the payload; a truncation writes the next generation, and a
truncated log's first frame is a CHECKPOINT whose payload ends in it.  The
walks have the same side effects on the log (cursor parking,
``truncated_through``, the generation, the file itself), so a test can run
one log through ``RedoLog`` and an identical one through here and compare
everything.  Production code does not import this module.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.manifest import Checkpoint, Checkpointed, encode_edit, unpack_str
from repro.core.update import UpdateCodec
from repro.errors import RecoveryError
from repro.obs import get_registry
from repro.storage.checksum import checksum
from repro.txn.log import _FRAME, LogRecord, LogRecordType, RedoLog, TruncationReport


def frame_crc(rtype_raw: int, payload: bytes, generation: int) -> int:
    """The CRC a frame of this type and payload carries in ``generation``."""
    return checksum(payload, checksum(bytes([rtype_raw & 0xFF])) ^ generation)


def first_frame_generation(rtype_raw: int, payload: bytes, stored_crc: int) -> int:
    """The generation a log whose first frame this is was written in."""
    if rtype_raw == LogRecordType.CHECKPOINT and len(payload) >= 4:
        generation = int.from_bytes(payload[-4:], "little")
        if generation and frame_crc(rtype_raw, payload, generation) == stored_crc:
            return generation
    return 0


def reference_records(log: RedoLog) -> Iterator[LogRecord]:
    """``RedoLog.records()``, one frame (two reads) at a time."""
    file = log.file
    end = file.append_pos or file.size
    scanning = file.append_pos == 0
    generation = 0 if scanning else log.generation
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
        if scanning and offset == 0:
            generation = first_frame_generation(rtype_raw, payload, stored_crc)
        if frame_crc(rtype_raw, payload, generation) != stored_crc:
            if scanning:
                # A frame whole under an earlier generation is stale, not torn.
                if not any(
                    frame_crc(rtype_raw, payload, earlier) == stored_crc
                    for earlier in range(generation)
                ):
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
        log.generation = generation


def reference_truncate_through(log: RedoLog, checkpoint: Checkpoint) -> TruncationReport:
    """``RedoLog.truncate_through()``, one frame (two reads) at a time."""
    file = log.file
    end = file.append_pos
    generation = log.generation + 1
    survivors: list[bytes] = []
    dropped = 0
    offset = 0
    while offset < end:
        header = file.read(offset, _FRAME.size)
        length, rtype_raw, stored_crc = _FRAME.unpack(header)
        payload = file.read(offset + _FRAME.size, length)
        if frame_crc(rtype_raw, payload, log.generation) != stored_crc:
            raise RecoveryError(
                f"live log record at offset {offset} failed checksum; "
                "refusing to truncate"
            )
        offset += _FRAME.size + length
        rtype = LogRecordType(rtype_raw)
        if rtype is LogRecordType.UPDATE:
            table, pos = unpack_str(payload, 0)
            timestamp = UpdateCodec.peek_timestamp(payload, pos)
        else:
            record = log._decode(rtype, payload)
            table, timestamp = record.table, record.timestamp
        # Another table's record survives; the table's CHECKPOINT is
        # superseded by the fresh one, any other record outlives the fence.
        if table != checkpoint.table or (
            rtype is not LogRecordType.CHECKPOINT
            and timestamp > checkpoint.checkpoint_ts
        ):
            crc = frame_crc(rtype_raw, payload, generation)
            survivors.append(_FRAME.pack(length, rtype_raw, crc) + payload)
        else:
            dropped += 1
    cp_type = int(LogRecordType.CHECKPOINT)
    cp_payload = encode_edit(checkpoint.table, Checkpointed(checkpoint))
    cp_payload += generation.to_bytes(4, "little")
    cp_crc = frame_crc(cp_type, cp_payload, generation)
    frames = [_FRAME.pack(len(cp_payload), cp_type, cp_crc) + cp_payload] + survivors
    content = b"".join(frames)
    if len(content) > file.size:
        raise RecoveryError(
            f"compacted log ({len(content)} bytes) exceeds the log file "
            f"({file.size} bytes)"
        )
    file.write(0, content)
    new_end = len(content)
    file.seek_append(new_end)
    log.generation = generation
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
    )
