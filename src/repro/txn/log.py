"""The redo log (Section 3.6, "Crash Recovery").

MaSM only needs to recover the *in-memory* update buffer after a crash:
materialized runs live on the (non-volatile) SSD, and migrations are
idempotent thanks to page timestamps, so data-page changes are never logged.
The log therefore carries two kinds of record: ``UPDATE`` (the table's
name, then one well-formed update as its codec encoded it) and the run-set
records — ``RUN_FLUSH``, ``RUN_MERGE``, ``MIGRATION_END`` and
``CHECKPOINT`` (a fence whose prefix :meth:`RedoLog.truncate_through` may
reclaim), each the :mod:`~repro.core.manifest` edit the live engine applied,
plus ``MIGRATION_START``, the intent recovery redoes when no END follows.
That module encodes and decodes their payloads behind a ``(ts, table)``
head; this one frames them and reads only the head.

Records are length-prefixed, CRC-protected and appended sequentially; the
log is itself a file on a simulated device, so logging I/O is accounted like
everything else.  The per-record CRC (covering the type byte and payload)
lets recovery distinguish a torn tail — the last record lost to a crash
mid-append, which is expected and safely skipped — from corruption earlier
in the log, which is not.

Every pass over the log — truncation, recovery replay, catch-up, log-fallback
scans — is one frame walk (:meth:`RedoLog._frames`) that reads the file in
sequential :data:`READ_CHUNK` pieces and checks each frame's CRC where it
lies in the buffer; a pass costs one device read per chunk of live log, not
two per frame.

Truncation is compaction: the surviving suffix (records newer than the
fence) is rewritten to the front of the file behind a fresh CHECKPOINT
record, the append cursor drops back, and the stale remainder stays.  It
cannot replay: each frame's CRC seed is XORed with the log's *generation*
(0 until the first truncation, so such a log is byte-for-byte unstamped),
each truncation moves to the next generation and re-stamps the survivors,
and a post-crash scan takes the generation from the CHECKPOINT at offset 0
and stops at the first frame that does not validate under it — a stale
frame ends the log exactly as zeroes would.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterator, Optional

from repro.core import manifest
from repro.core.manifest import (
    Checkpoint,
    Checkpointed,
    RunFlushed,
    decode_edit,
    edit_head,
    encode_edit,
    pack_str,
    unpack_str,
)
from repro.core.update import UpdateCodec, UpdateRecord
from repro.errors import RecoveryError
from repro.obs import get_registry
from repro.storage.checksum import checksum
from repro.storage.faults import crash_point
from repro.storage.file import SimFile
from repro.util.units import KB

_FRAME = struct.Struct("<IBI")  # payload length, record type, crc

#: Bytes per sequential device read of a frame walk — the log's counterpart
#: of the heap's ``io_chunk``.  A chunk is read only when the walk reaches it,
#: so a post-crash scan stops reading at the chunk that holds the log's end.
READ_CHUNK = 256 * KB

#: A frame's CRC covers the record-type byte, then the payload: seeding the
#: payload's checksum with the type byte's spares concatenating the two.
#: These are the seeds at generation 0; generation ``g`` XORs ``g`` into
#: each, so the same payload gets a different CRC in every generation.
_CRC_SEEDS = tuple(checksum(bytes([rtype])) for rtype in range(256))

#: The generation a CHECKPOINT payload written after a truncation ends with.
_GENERATION = struct.Struct("<I")


class LogRecordType(IntEnum):
    UPDATE = 1
    RUN_FLUSH = manifest.RUN_FLUSH
    MIGRATION_START = manifest.MIGRATION_START
    MIGRATION_END = manifest.MIGRATION_END
    RUN_MERGE = manifest.RUN_MERGE
    CHECKPOINT = manifest.CHECKPOINT


_UPDATE = int(LogRecordType.UPDATE)
_CHECKPOINT_TYPE = int(LogRecordType.CHECKPOINT)


_RECORD_TYPES = {int(rtype): rtype for rtype in LogRecordType}


def _record_type(rtype_raw: int) -> LogRecordType:
    """The frame's record type; an unknown type byte under a good CRC is
    corruption (or a record kind this format no longer has)."""
    rtype = _RECORD_TYPES.get(rtype_raw)
    if rtype is None:
        raise RecoveryError(f"corrupt log record type {rtype_raw}")
    return rtype


def _claimed_generation(rtype_raw: int, payload, stored_crc: int) -> int:
    """The generation a log's first frame stamps the whole log with: ``g``
    for a CHECKPOINT whose payload ends in ``g > 0`` and whose CRC holds
    under ``g`` (a truncated log's first frame), else 0."""
    if rtype_raw == _CHECKPOINT_TYPE and len(payload) >= _GENERATION.size:
        (generation,) = _GENERATION.unpack_from(payload, len(payload) - _GENERATION.size)
        seed = _CRC_SEEDS[rtype_raw] ^ generation
        if generation and checksum(payload, seed) == stored_crc:
            return generation
    return 0


@dataclass(frozen=True)
class TruncationReport:
    """What one :meth:`RedoLog.truncate_through` call did."""

    reclaimed_bytes: int
    records_dropped: int
    records_kept: int
    live_bytes: int


@dataclass(frozen=True)
class LogRecord:
    """One decoded log record: its head, then the update or the edit."""

    type: LogRecordType
    timestamp: int
    table: str
    #: UPDATE only: the update as logged (its encoding) — what recovery puts
    #: back into the buffer — and the codec :attr:`update` decodes it with.
    encoded: Optional[bytes] = None
    codec: Optional[UpdateCodec] = field(default=None, compare=False, repr=False)
    #: Run-set records only: the logged edit, run names in place of runs
    #: (:func:`~repro.core.manifest.decode_edit`).
    edit: Optional[object] = None

    @property
    def update(self) -> Optional[UpdateRecord]:
        return self.codec.decode(self.encoded)[0] if self.codec else None


class RedoLog:
    """Append-only redo log over a simulated file."""

    def __init__(self, file: SimFile):
        self.file = file
        #: table name -> codec, needed to decode UPDATE payloads on replay.
        self.codecs: dict[str, UpdateCodec] = {}
        self.records_written = 0
        #: Newest checkpoint fence this log was truncated through: records
        #: with ``ts <= truncated_through`` are gone, so any path that
        #: replays a timestamp range from this log (log-fallback scans,
        #: catch-up) must first check its range starts *above* this.
        self.truncated_through = 0
        #: table -> what every UPDATE frame of it starts with:
        #: the frame header + packed name layout, the packed name, and the
        #: CRC of the type byte and that name (the payload CRC's seed).
        self._update_heads: dict[str, tuple[struct.Struct, bytes, int]] = {}
        self.generation = 0
        registry = get_registry()
        self._obs_records = registry.counter("txn.log.records_written")
        self._obs_bytes = registry.counter("txn.log.bytes_written")

    @property
    def live_bytes(self) -> int:
        """Bytes of live (non-reclaimed) log content."""
        return self.file.append_pos

    @property
    def generation(self) -> int:
        """The generation this log's frames are stamped with: 0 until the
        first truncation, one more after each.  Volatile, like the append
        cursor: a scanning replay reads it back off the first frame."""
        return self._generation

    @generation.setter
    def generation(self, value: int) -> None:
        self._generation = value
        self._seeds = tuple(seed ^ value for seed in _CRC_SEEDS)
        self._update_heads.clear()

    @staticmethod
    def generation_of(file: SimFile) -> int:
        """The generation of the log in ``file``, read off its first frame
        as a scan reads it (0 when the file holds no truncated log)."""
        length, rtype_raw, stored_crc = _FRAME.unpack(file.read(0, _FRAME.size))
        payload = file.read(_FRAME.size, min(length, file.size - _FRAME.size))
        return _claimed_generation(rtype_raw, payload, stored_crc)

    def register_table(self, name: str, codec: UpdateCodec) -> None:
        self.codecs[name] = codec

    # ---------------------------------------------------------------- writes
    def _frame(self, rtype: LogRecordType, payload: bytes) -> bytes:
        """One framed record of this generation: header (length, type,
        CRC), then ``payload``."""
        crc = checksum(payload, self._seeds[rtype])
        return _FRAME.pack(len(payload), rtype, crc) + payload

    def _append(self, frame: bytes) -> None:
        crash_point("wal.append")
        self.file.append(frame)
        self.records_written += 1
        self._obs_records.add(1)
        self._obs_bytes.add(len(frame))

    def _edit_frame(self, table: str, edit, generation: int) -> bytes:
        """The frame of a run-set record in ``generation``: past generation
        0 a CHECKPOINT's payload ends in it, which is how a scan of a
        truncated log learns it."""
        payload = encode_edit(table, edit)
        if edit.tag == _CHECKPOINT_TYPE and generation:
            payload += _GENERATION.pack(generation)
        crc = checksum(payload, _CRC_SEEDS[edit.tag] ^ generation)
        return _FRAME.pack(len(payload), edit.tag, crc) + payload

    def log_edit(self, table: str, edit) -> None:
        """Log a run-set edit of ``table``.  Each but a MIGRATION_START (an
        intent) commits a run-set or heap edit: inside an overlap scope it
        starts only once every write before it has finished on every
        device, so the log's durability order holds in time as well as in
        bytes."""
        if edit.tag != LogRecordType.MIGRATION_START:
            self.file.device.barrier()
        self._append(self._edit_frame(table, edit, self.generation))

    def log_update(self, table: str, encoded: bytes) -> None:
        """Log one update of ``table`` as its codec encoded it — the bytes
        the engine also buffers, encoded once.

        The hot path of every ingest: the frame is the one ``_frame(UPDATE,
        pack_str(table) + encoded)`` builds, made from the table's memoized
        head with one checksum over ``encoded`` and one concatenation.
        """
        head = self._update_heads.get(table)
        if head is None:
            if table not in self.codecs:
                raise RecoveryError(f"no codec registered for table {table!r}")
            prefix = pack_str(table)
            head = self._update_heads[table] = (
                struct.Struct(f"{_FRAME.format}{len(prefix)}s"),
                prefix,
                checksum(prefix, self._seeds[_UPDATE]),
            )
        layout, prefix, seed = head
        self._append(
            layout.pack(
                len(prefix) + len(encoded), _UPDATE, checksum(encoded, seed), prefix
            )
            + encoded
        )

    def log_run_flush(self, table: str, flushed: RunFlushed) -> None:
        """:meth:`log_edit` under its own name, which the e2e trace times."""
        self.log_edit(table, flushed)

    def log_checkpoint(self, checkpoint: Checkpoint) -> None:
        self.log_edit(checkpoint.table, Checkpointed(checkpoint))
        get_registry().counter("txn.log.checkpoints_written").add(1)

    # ----------------------------------------------------------- truncation
    def truncate_through(self, checkpoint: Checkpoint) -> TruncationReport:
        """Reclaim the log prefix the checkpoint fence makes dead weight.

        Compacts in place: records newer than ``checkpoint.checkpoint_ts``
        (plus records of other tables) are rewritten to the front of the
        file behind a fresh CHECKPOINT record, and the append cursor drops
        back to the end of the compacted content.  The compacted log is the
        next :attr:`generation`: each survivor, verified under the old one
        by the walk, is re-stamped under the new one.  The stale remainder
        is not touched — none of its frames validates under the new
        generation — so the cost of truncation is proportional to the live
        suffix, not to the reclaimed prefix.
        """
        end = self.file.append_pos
        generation = self.generation + 1
        fresh = self._edit_frame(checkpoint.table, Checkpointed(checkpoint), generation)
        # The fresh CHECKPOINT, then the survivors, adjacent ones in one piece.
        pieces: list[bytes] = [fresh]
        kept = dropped = 0
        run_buf = b""  # the open piece is run_buf[run_start:run_end]
        run_start = run_end = 0
        head = _FRAME.size
        fence = checkpoint.checkpoint_ts
        prefix = pack_str(checkpoint.table)
        body = head + len(prefix)  # where an update of the table starts
        peek_timestamp = UpdateCodec.peek_timestamp
        try:
            for _, rtype_raw, buf, at, size in self._frames(end, scanning=False):
                # Only (table, timestamp) decide survival, read off the
                # payload's head where it lies; a superseded CHECKPOINT of
                # the table goes whatever its fence.
                if rtype_raw == _UPDATE:
                    survives = (
                        not buf.startswith(prefix, at + head)
                        or peek_timestamp(buf, at + body) > fence
                    )
                else:
                    timestamp, table = edit_head(
                        _record_type(rtype_raw), buf, at + head
                    )
                    survives = table != checkpoint.table or (
                        rtype_raw != _CHECKPOINT_TYPE and timestamp > fence
                    )
                if not survives:
                    dropped += 1
                    continue
                kept += 1
                if buf is run_buf and at == run_end:
                    run_end += size
                else:
                    pieces.append(run_buf[run_start:run_end])
                    run_buf, run_start, run_end = buf, at, at + size
        except RecoveryError as exc:
            raise RecoveryError(f"live {exc}; refusing to truncate") from exc
        pieces.append(run_buf[run_start:run_end])
        content = bytearray(b"".join(pieces))
        if len(content) > self.file.size:
            raise RecoveryError(
                f"compacted log ({len(content)} bytes) exceeds the log file "
                f"({self.file.size} bytes)"
            )
        # A CRC is affine in its seed: moving an n-byte payload's seed by
        # ``flip`` moves its CRC by checksum(n zero bytes, flip) ^
        # checksum(n zero bytes), whatever the payload and its type.  So a
        # survivor the walk verified is re-stamped by one XOR with a value
        # computed once per payload length.
        flip = self.generation ^ generation
        deltas: dict[int, int] = {}
        at = len(fresh)
        while at < len(content):
            length, rtype_raw, crc = _FRAME.unpack_from(content, at)
            delta = deltas.get(length)
            if delta is None:
                zeros = bytes(length)
                delta = deltas[length] = checksum(zeros, flip) ^ checksum(zeros)
            _FRAME.pack_into(content, at, length, rtype_raw, crc ^ delta)
            at += head + length
        crash_point("wal.truncate")
        self.file.write(0, content)
        new_end = len(content)
        self.file.seek_append(new_end)
        self.generation = generation
        self.truncated_through = max(
            self.truncated_through, checkpoint.checkpoint_ts
        )
        reclaimed = max(0, end - new_end)
        registry = get_registry()
        registry.counter("txn.log.truncations").add(1)
        registry.counter("txn.log.bytes_reclaimed").add(reclaimed)
        registry.counter("txn.log.checkpoints_written").add(1)
        return TruncationReport(
            reclaimed_bytes=reclaimed,
            records_dropped=dropped,
            records_kept=kept,
            live_bytes=new_end,
        )

    def scrub_dirty(self, max_bytes: Optional[int] = None) -> int:
        """Nothing to zero: stale frames fail their generation's CRC."""
        return 0

    # ----------------------------------------------------------------- reads
    def _frames(
        self, end: int, scanning: bool
    ) -> Iterator[tuple[int, int, bytes, int, int]]:
        """Walk the frames in ``[0, end)`` of the file: ``(offset, record-type
        byte, buffer, position, size)`` per frame whose CRC holds — the frame
        is ``buffer[position : position + size]``, its payload starting
        ``_FRAME.size`` bytes in.

        The file is read in sequential :data:`READ_CHUNK` pieces, each only
        when the walk reaches it; a frame that straddles a chunk boundary is
        completed from the next chunk, and consecutive frames share a buffer
        until the walk has to read again.

        ``end`` is either the known end of the log, where a frame that runs
        past it or fails its CRC is corruption and raises, or (``scanning``)
        the file size, where the walk stops at the first frame that is not
        one: unwritten space (zeroes, which no valid frame starts with), a
        *torn tail* — the final record partially persisted because a crash
        interrupted the append, counted and skipped — or a stale frame that
        truncation left behind, whole under an earlier generation.
        A scan also re-learns :attr:`generation` from the first frame.
        """
        read = self.file.read
        unpack = _FRAME.unpack_from
        head = _FRAME.size
        buf = b""  # file bytes [base, base + len(buf))
        view = memoryview(buf)
        base = 0
        offset = 0
        if scanning:
            self.generation = 0  # unless the first frame says otherwise
        seeds = self._seeds

        def fill(need: int) -> None:
            """Make the buffer hold file bytes ``[offset, offset + need)``
            (``offset + need <= end``)."""
            nonlocal buf, view, base
            pieces = [buf[offset - base :]]
            have = len(pieces[0])
            while have < need:
                step = min(READ_CHUNK, end - offset - have)
                pieces.append(read(offset + have, step))
                have += step
            buf = b"".join(pieces)
            view = memoryview(buf)
            base = offset

        while offset < end:
            if offset + head > end:
                if scanning:
                    self._torn_tail(offset, "truncated frame header")
                    return
                raise RecoveryError("truncated log frame header")
            if offset - base + head > len(buf):
                fill(head)
            length, rtype_raw, stored_crc = unpack(buf, offset - base)
            if scanning and (rtype_raw == 0 or length == 0):
                return  # end of written log
            size = head + length
            if offset + size > end:
                if scanning:
                    self._torn_tail(offset, "truncated payload")
                    return
                raise RecoveryError("truncated log record payload")
            if offset - base + size > len(buf):
                fill(size)
            at = offset - base
            payload = view[at + head : at + size]
            if scanning and not offset:
                self.generation = _claimed_generation(rtype_raw, payload, stored_crc)
                seeds = self._seeds
            crc = checksum(payload, seeds[rtype_raw])
            if crc != stored_crc:
                if scanning:
                    if not self._stamped_earlier(length, crc ^ stored_crc):
                        self._torn_tail(offset, "checksum mismatch")
                    return
                raise RecoveryError(f"log record at offset {offset} failed checksum")
            yield offset, rtype_raw, buf, at, size
            offset += size

    def _replay(self) -> Iterator[tuple[LogRecordType, bytes]]:
        """``(type, frame)`` of every record from the beginning of the log —
        the walk :meth:`records` and :meth:`encoded_updates` read.

        When the in-memory append cursor was lost with a crash the log is
        scanned, under the generation its first frame names, to its first
        invalid frame (see :meth:`_frames`): a torn tail is skipped with the
        ``txn.log.torn_tail_skipped`` counter — the update it carried was
        never acknowledged, so dropping it is correct — and the cursor is
        parked after the surviving records.  A CRC mismatch *before* a known
        end of log is real corruption and raises.
        """
        end = self.file.append_pos or self.file.size
        scanning = self.file.append_pos == 0
        parked = 0
        for offset, rtype_raw, buf, at, size in self._frames(end, scanning):
            parked = offset + size
            rtype = _record_type(rtype_raw)
            if rtype is LogRecordType.CHECKPOINT:
                # A persisted checkpoint means the prefix below its fence
                # was (or may legitimately have been) reclaimed.
                fence, _ = edit_head(rtype, buf, at + _FRAME.size)
                self.truncated_through = max(self.truncated_through, fence)
            yield rtype, buf[at : at + size]
        if scanning:
            # The append cursor was lost with the crash; park it after the
            # surviving records so fresh appends do not overwrite them.
            self.file.seek_append(parked)

    def records(self) -> Iterator[LogRecord]:
        """Replay the log from the beginning (recovery path): every record,
        decoded.  See :meth:`_replay` for how the log's end is found."""
        for rtype, frame in self._replay():
            yield self._decode(rtype, frame[_FRAME.size :])

    def encoded_updates(
        self, table: str, min_ts: int = 0, max_ts: Optional[int] = None
    ) -> Iterator[bytes]:
        """The logged updates of ``table`` with ``min_ts <= ts <= max_ts``
        (no upper bound when None), in log order, as logged (encoded).

        ``(table, timestamp)`` are read off each UPDATE payload's head, as
        truncation reads them; nothing is decoded — what log-fallback scans
        and run rebuilds replay.
        """
        codec = self.codecs.get(table)
        if codec is None:
            raise RecoveryError(f"no codec registered for table {table!r}")
        prefix = pack_str(table)
        body = _FRAME.size + len(prefix)
        for rtype, frame in self._replay():
            if rtype is LogRecordType.UPDATE and frame.startswith(prefix, _FRAME.size):
                timestamp = codec.peek_timestamp(frame, body)
                if timestamp >= min_ts and (max_ts is None or timestamp <= max_ts):
                    yield frame[body:]

    def _torn_tail(self, offset: int, reason: str) -> None:
        """Count the invalid frame a scan after a crash stopped at.

        Replay stops here: a record torn mid-append was never acknowledged
        to any client, so skipping it loses nothing that was promised.
        """
        get_registry().counter("txn.log.torn_tail_skipped").add(1)

    def _stamped_earlier(self, length: int, diff: int) -> bool:
        """Is a frame whose CRC under :attr:`generation` is off by ``diff``
        whole under an earlier one (a stale frame, not a tear)?  The CRC is
        affine in its seed, as :meth:`truncate_through` uses, so a candidate
        costs a CRC over zero bytes, not over the payload."""
        generation = self.generation
        zeros = bytes(length)
        base = checksum(zeros)
        return any(
            checksum(zeros, generation ^ earlier) ^ base == diff
            for earlier in range(generation)
        )

    def _decode(self, rtype: LogRecordType, payload: bytes) -> LogRecord:
        if rtype is not LogRecordType.UPDATE:
            edit = decode_edit(rtype, payload)
            return LogRecord(rtype, *edit_head(rtype, payload), edit=edit)
        table, pos = unpack_str(payload, 0)
        codec = self.codecs.get(table)
        if codec is None:
            raise RecoveryError(f"no codec registered for table {table!r}")
        timestamp = codec.peek_timestamp(payload, pos)
        return LogRecord(rtype, timestamp, table, encoded=payload[pos:], codec=codec)
