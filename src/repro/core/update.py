"""Update records, combination rules, and their binary codec.

An incoming well-formed update (Section 2.1) is one of:

* ``INSERT``  — a new record, given its key;
* ``DELETE``  — remove the record with a key;
* ``MODIFY``  — set named fields of the record with a key;
* ``REPLACE`` — internal type produced when a deletion is merged with a later
  insertion of the same key (Section 3.2's update record format).

Each carries ``(timestamp, key, type, content)``.  ``combine`` implements the
Merge_updates rule for two updates to the same key, and ``apply_update``
applies a (combined) update to a base record during the outer join with the
table scan.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import IntEnum
from itertools import starmap
from typing import Optional, Sequence

import numpy as _np

from repro.engine.record import Schema
from repro.errors import ReproError, SchemaError


class UpdateConflictError(ReproError):
    """Two updates to the same key cannot be legally combined."""


class UpdateType(IntEnum):
    INSERT = 0
    DELETE = 1
    MODIFY = 2
    REPLACE = 3


@dataclass(slots=True)
class UpdateRecord:
    """One cached update: ``(timestamp, key, type, content)``.

    ``content`` is the full record tuple for INSERT/REPLACE, a field->value
    dict for MODIFY, and None for DELETE.

    Treat instances as immutable — decoded records are shared by every scan
    through the decoded-block cache.  The class is slotted rather than
    frozen because block decode builds hundreds per block and the merge and
    join loops read their fields per record: a frozen dataclass pays four
    ``object.__setattr__`` calls per construction.
    """

    timestamp: int
    key: int
    type: UpdateType
    content: object

    def sort_key(self) -> tuple[int, int]:
        """Updates order by (key, timestamp): the sorted-run order."""
        return (self.key, self.timestamp)


def combine(
    earlier: UpdateRecord, later: UpdateRecord, schema: Optional[Schema] = None
) -> UpdateRecord:
    """Merge two same-key updates into one with the later timestamp.

    Implements Section 3.2: modifications merge field-wise (later wins), a
    deletion followed by an insertion becomes REPLACE, and a later deletion
    supersedes everything before it.  Folding a MODIFY into an earlier
    INSERT/REPLACE rewrites the record tuple and therefore needs ``schema``.
    """
    if earlier.key != later.key:
        raise UpdateConflictError(
            f"cannot combine updates for different keys "
            f"({earlier.key} vs {later.key})"
        )
    if earlier.timestamp > later.timestamp:
        raise UpdateConflictError("updates must combine in timestamp order")
    lt = later.type
    et = earlier.type
    if lt == UpdateType.DELETE:
        # A later deletion wipes whatever came before.  If the earlier update
        # (re)inserted the record on top of a deletion, the net effect is
        # still a deletion of the original record.
        return UpdateRecord(later.timestamp, later.key, UpdateType.DELETE, None)
    if lt in (UpdateType.INSERT, UpdateType.REPLACE):
        if et in (UpdateType.INSERT, UpdateType.REPLACE) and lt == UpdateType.INSERT:
            raise UpdateConflictError(
                f"duplicate insert for key {later.key} "
                f"(ts {earlier.timestamp} then {later.timestamp})"
            )
        if et == UpdateType.DELETE:
            # delete + insert = replace (Section 3.2).
            return UpdateRecord(
                later.timestamp, later.key, UpdateType.REPLACE, later.content
            )
        # replace supersedes any earlier state.
        return UpdateRecord(
            later.timestamp, later.key, UpdateType.REPLACE, later.content
        )
    # Later update is a MODIFY.
    if et == UpdateType.DELETE:
        raise UpdateConflictError(
            f"modify after delete for key {later.key} without re-insert"
        )
    if et == UpdateType.MODIFY:
        merged = dict(earlier.content)
        merged.update(later.content)
        return UpdateRecord(later.timestamp, later.key, UpdateType.MODIFY, merged)
    # MODIFY on top of INSERT/REPLACE: fold the changes into the new record.
    if schema is None:
        raise UpdateConflictError(
            "combining a MODIFY into an INSERT/REPLACE requires the schema"
        )
    patched = schema.apply_modification(tuple(earlier.content), dict(later.content))
    return UpdateRecord(later.timestamp, later.key, earlier.type, patched)


def combine_chain(updates: Sequence[UpdateRecord], schema: Schema) -> UpdateRecord:
    """Combine a timestamp-ordered chain of same-key updates into one."""
    if not updates:
        raise UpdateConflictError("cannot combine an empty chain")
    result = updates[0]
    for update in updates[1:]:
        result = combine(result, update, schema)
    return result


def apply_update(
    record: Optional[tuple], update: UpdateRecord, schema: Schema
) -> Optional[tuple]:
    """Apply one (combined) update to a base record.

    ``record`` is None when the table has no record with the update's key.
    Returns the resulting record, or None if the record is (or stays) absent.
    """
    t = update.type
    if t in (UpdateType.INSERT, UpdateType.REPLACE):
        return tuple(update.content)
    if t == UpdateType.DELETE:
        return None
    # MODIFY
    if record is None:
        # The base record is gone (e.g. the modify was already migrated and a
        # later migrated delete removed it, or a bad update): nothing to do.
        return None
    return schema.apply_modification(record, dict(update.content))


#: Framing for a block of update records: leading record count.
BLOCK_HEADER = struct.Struct("<I")

#: Decode-time lookup avoiding an ``UpdateType(...)`` enum call per record:
#: indexing it with a block's op-code column maps the whole block at once.
_TYPE_ARRAY = _np.array(list(UpdateType), dtype=object)


class UpdateCodec:
    """Fixed-schema binary codec for update records.

    Wire format::

        timestamp u64 | key u64 | type u8 | payload_len u32 | payload

    Payload: packed record for INSERT/REPLACE; empty for DELETE; for MODIFY a
    sequence of (field_index u16, packed field value) pairs.

    Besides the record-at-a-time :meth:`encode`/:meth:`decode` pair, the
    codec offers a batch API (:meth:`encode_block`, :meth:`decode_block`,
    :meth:`encode_many`) that processes a whole block in one pass — the
    read/write hot path.  Everything is driven by the layout the
    :class:`~repro.engine.record.Schema` compiled at construction.
    """

    _HEAD = struct.Struct("<QQBI")
    _FIELD_INDEX = struct.Struct("<H")

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._record_size = schema.record_size
        #: Encoded size by update type; MODIFY (None) depends on its fields:
        #: each changed field costs a u16 index plus the field's width.
        whole_record = self._HEAD.size + schema.record_size
        self._sizes = (whole_record, self._HEAD.size, None, whole_record)
        self._change_sizes = {f.name: 2 + f.width for f in schema.fields}
        #: Per field ``(name, width, is_string, value Struct)`` — what a
        #: MODIFY payload's (index, value) pairs are packed/unpacked with.
        self._fields = tuple(
            (
                f.name,
                f.width,
                f.is_string,
                None if f.is_string else struct.Struct("<" + f.struct_code()),
            )
            for f in schema.fields
        )
        #: One record of an INSERT/REPLACE-only block — header plus packed
        #: record at a fixed stride — as a numpy structured type.
        self._uniform = _np.dtype(
            {
                "names": ["timestamp", "key", "op", "payload_len", "record"],
                "formats": ["<u8", "<u8", "u1", "<u4", schema.dtype],
                "offsets": [0, 8, 16, 17, self._HEAD.size],
                "itemsize": self._HEAD.size + schema.record_size,
            }
        )

    @property
    def header_size(self) -> int:
        return self._HEAD.size

    def encoded_size(self, update: UpdateRecord) -> int:
        """``len(self.encode(update))`` by arithmetic over the field widths.

        Sizes only: a value that does not fit its field is rejected by
        :meth:`encode` / :meth:`check`, not here.
        """
        size = self._sizes[update.type]
        if size is not None:
            return size
        try:
            return self._HEAD.size + sum(
                map(self._change_sizes.__getitem__, update.content)
            )
        except KeyError as exc:
            raise SchemaError(f"no field named {exc.args[0]!r}") from None

    def check(self, update: UpdateRecord) -> None:
        """Raise what :meth:`encode` would raise for an ill-formed update
        (over-wide string, ill-typed or out-of-range value, unknown field,
        wrong arity) — for callers that buffer an update without encoding
        it and must not find out at flush time."""
        self._payload(update)

    def _pack_field(self, idx: int, value) -> bytes:
        name, width, is_string, packer = self._fields[idx]
        if not is_string:
            try:
                return packer.pack(value)
            except struct.error as exc:
                raise ReproError(f"cannot pack {value!r} into field {name!r}: {exc}") from exc
        raw = value.encode("utf-8") if isinstance(value, str) else bytes(value)
        if len(raw) > width:
            raise ReproError(f"value for field {name!r} exceeds width {width}")
        return raw.ljust(width, b"\x00")

    def _payload(self, update: UpdateRecord) -> bytes:
        t = update.type
        if t in (UpdateType.INSERT, UpdateType.REPLACE):
            return self.schema.pack(update.content)
        if t == UpdateType.DELETE:
            return b""
        parts = []
        index_of = self.schema.index_of
        for name, value in sorted(update.content.items()):
            idx = index_of(name)
            parts.append(self._FIELD_INDEX.pack(idx))
            parts.append(self._pack_field(idx, value))
        return b"".join(parts)

    def _changes(self, data: bytes, body: int, end: int) -> dict:
        """Decode the MODIFY payload ``data[body:end]``: field -> new value."""
        changes = {}
        fields = self._fields
        index_unpack = self._FIELD_INDEX.unpack_from
        pos = body
        while pos < end:
            name, width, is_string, packer = fields[index_unpack(data, pos)[0]]
            pos += 2
            if is_string:
                changes[name] = data[pos : pos + width].rstrip(b"\x00").decode("utf-8")
            else:
                (changes[name],) = packer.unpack_from(data, pos)
            pos += width
        return changes

    def encode(self, update: UpdateRecord) -> bytes:
        payload = self._payload(update)
        return (
            self._HEAD.pack(
                update.timestamp, update.key, int(update.type), len(payload)
            )
            + payload
        )

    def decode(self, data: bytes, offset: int = 0) -> tuple[UpdateRecord, int]:
        """Decode one update at ``offset``; returns (update, next_offset)."""
        timestamp, key, type_raw, payload_len = self._HEAD.unpack_from(data, offset)
        body = offset + self._HEAD.size
        end = body + payload_len
        if end > len(data):
            raise ReproError("truncated update record")
        utype = UpdateType(type_raw)
        if utype == UpdateType.DELETE:
            content: object = None
        elif utype == UpdateType.MODIFY:
            content = self._changes(data, body, end)
        else:
            if payload_len != self._record_size:
                raise ReproError(
                    f"record payload of {payload_len} bytes does not "
                    f"match schema size {self._record_size}"
                )
            content = self.schema.unpack_from(data, body)
        return UpdateRecord(timestamp, key, utype, content), end

    @classmethod
    def peek_timestamp(cls, data: bytes, offset: int = 0) -> int:
        """The timestamp of the encoded update at ``offset`` — no payload
        decode (what WAL truncation needs of an UPDATE frame)."""
        return cls._HEAD.unpack_from(data, offset)[0]

    # ------------------------------------------------------------- batch API
    def encode_many(self, updates: Sequence[UpdateRecord]) -> list[bytes]:
        """Encode a batch of updates in one pass (pre-bound packers)."""
        head_pack = self._HEAD.pack
        payload = self._payload
        out = []
        append = out.append
        for u in updates:
            body = payload(u)
            append(head_pack(u.timestamp, u.key, u.type, len(body)) + body)
        return out

    def frame_block(self, encoded_records: Sequence[bytes]) -> bytes:
        """Frame already-encoded records as one block (count header + body)."""
        return BLOCK_HEADER.pack(len(encoded_records)) + b"".join(encoded_records)

    def encode_block(self, updates: Sequence[UpdateRecord]) -> bytes:
        """Encode a whole block of updates: count header + packed records."""
        return self.frame_block(self.encode_many(updates))

    def decode_block(
        self, data: bytes, offset: int = 0, columns=None
    ) -> list[UpdateRecord]:
        """Decode one block (as written by :meth:`encode_block`).

        ``columns`` is the block's :meth:`block_columns` result when the
        caller already has it (:class:`ColumnarBlock` does); the headers are
        never walked twice — timestamps, keys and op codes come from the
        columns, and only payloads are decoded here.  An INSERT/REPLACE-only
        block decodes all its records with one structured ``frombuffer``.
        """
        (count,) = BLOCK_HEADER.unpack_from(data, offset)
        if columns is None:
            columns = self.block_columns(data, offset, count)
        if not count:
            return []
        keys, timestamps, ops, offsets = columns
        if _is_uniform(ops):
            block = _np.frombuffer(
                data,
                dtype=self._uniform,
                count=count,
                offset=offset + BLOCK_HEADER.size,
            )
            contents = self.schema.rows(block["record"])
        else:
            # block_columns checked every INSERT/REPLACE payload's length.
            op_codes = ops.tolist()
            record = self.schema.unpack_from
            changes = self._changes
            head_size = self._HEAD.size
            positions = offsets.tolist()
            contents = [
                None
                if op == 1
                else changes(data, pos + head_size, end)
                if op == 2
                else record(data, pos + head_size)
                for op, pos, end in zip(op_codes, positions, positions[1:])
            ]
        # The columns are the unsigned wire values viewed as int64.
        return list(
            starmap(
                UpdateRecord,
                zip(
                    timestamps.view(_np.uint64).tolist(),
                    keys.view(_np.uint64).tolist(),
                    _TYPE_ARRAY[ops].tolist(),
                    contents,
                ),
            )
        )

    # --------------------------------------------------------------- SoA API
    def block_columns(self, data: bytes, offset: int, count: int):
        """Column arrays for one encoded block: (keys, timestamps, ops,
        header offsets).

        Keys and timestamps come back as int64 arrays, op codes as a uint8
        array, and ``offsets`` (int64) holds each record's header position
        in ``data`` plus one end sentinel (``count + 1`` entries), so record
        ``i``'s payload spans ``[offsets[i] + header, offsets[i + 1])``.

        Blocks written by :meth:`encode_block` from INSERT/REPLACE-only
        streams have a uniform record stride (header + packed record), which
        a vectorized validation detects exactly: record 0's header position
        is true by framing, and each record whose payload length matches the
        schema's record size fixes the next record's position — so if every
        op code is INSERT/REPLACE and every payload length equals the record
        size under the assumed stride, the layout *is* uniform by induction.
        Mixed blocks take one sequential header walk (no payload decode
        either way), which also checks that the block is not truncated and
        that every INSERT/REPLACE payload is exactly one packed record.
        """
        base = offset + BLOCK_HEADER.size
        head_size = self._HEAD.size
        rec_size = self._record_size
        stride = head_size + rec_size
        if count and base + count * stride <= len(data):
            block = _np.frombuffer(
                data, dtype=self._uniform, count=count, offset=base
            )
            ops = _np.ascontiguousarray(block["op"])
            if _is_uniform(ops) and (block["payload_len"] == rec_size).all():
                return (
                    _np.ascontiguousarray(block["key"]).view(_np.int64),
                    _np.ascontiguousarray(block["timestamp"]).view(_np.int64),
                    ops,
                    base + stride * _np.arange(count + 1, dtype=_np.int64),
                )
        heads = []
        append = heads.append
        head_unpack = self._HEAD.unpack_from
        pos = base
        try:
            for _ in range(count):
                head = head_unpack(data, pos)
                append(head)
                pos += head_size + head[3]
        except struct.error:  # a header past the end of ``data``
            pos = len(data) + 1
        if pos > len(data):
            raise ReproError("truncated update record")
        timestamps, keys, op_codes, payload_lens = zip(*heads) if heads else ((),) * 4
        ops = _np.array(op_codes, dtype=_np.uint8)
        sizes = _np.array(payload_lens, dtype=_np.int64)
        if (sizes[(ops == 0) | (ops == 3)] != rec_size).any():
            raise ReproError(
                f"record payload in block does not match schema size {rec_size}"
            )
        offsets = _np.empty(count + 1, dtype=_np.int64)
        offsets[0] = base
        _np.cumsum(sizes + head_size, out=offsets[1:])
        offsets[1:] += base
        return (
            _np.array(keys, dtype=_np.uint64).view(_np.int64),
            _np.array(timestamps, dtype=_np.uint64).view(_np.int64),
            ops,
            offsets,
        )

    def decode_block_soa(self, data: bytes, offset: int = 0) -> "ColumnarBlock":
        """Decode one block into its structure-of-arrays form.

        The sibling of :meth:`decode_block`: instead of a list of
        :class:`UpdateRecord` objects it returns a :class:`ColumnarBlock`
        whose key/timestamp/op/offset columns are materialized immediately
        while the record objects stay lazy (built on the first
        :meth:`ColumnarBlock.records` call, at the scan/join boundary).
        """
        block = ColumnarBlock(data, self, offset)
        block.columns()
        return block


def _is_uniform(ops) -> bool:
    """True when every op code is INSERT or REPLACE.

    With :meth:`UpdateCodec.block_columns` having checked that each such
    payload is one packed record, this is exactly "fixed record stride".
    """
    return bool(((ops == 0) | (ops == 3)).all())


#: Estimated Python-heap bytes per materialized UpdateRecord beyond its
#: encoded payload (object header, per-instance dict, content tuple).  Used
#: by the decoded-block cache's byte accounting; an estimate, but a far
#: better one than the encoded block size used before.
RECORD_OBJECT_OVERHEAD = 176

#: Estimated bytes per entry of a materialized Python key list (list slot
#: plus a small-int-or-boxed-int object).
KEY_LIST_ENTRY_BYTES = 40


def record_array(records: Sequence[UpdateRecord]):
    """``records`` as an object ndarray (one pointer per record)."""
    return _np.fromiter(records, dtype=object, count=len(records))


class ColumnarBlock:
    """Structure-of-arrays view of one encoded update block.

    Holds the verified raw block bytes plus lazily materialized derived
    forms, each built at most once:

    * :meth:`columns` — parallel key / timestamp / op-code / header-offset
      arrays (``int64``/``uint8``), the form the merge kernels consume;
    * :meth:`records` — the block's :class:`UpdateRecord` list (the legacy
      scan form), materialized only at the scan/join boundary;
    * :meth:`key_list` — a plain Python key list for ``bisect``-based
      block-local searches.

    Instances are what :class:`repro.core.blockcache.DecodedBlockCache`
    stores; :attr:`nbytes` reports the entry's current decoded footprint so
    the cache's byte accounting tracks lazy materialization as it happens.
    """

    __slots__ = (
        "data",
        "offset",
        "count",
        "codec",
        "_cols",
        "_records",
        "_recarr",
        "_keys",
    )

    def __init__(self, data: bytes, codec: UpdateCodec, offset: int = 0) -> None:
        (self.count,) = BLOCK_HEADER.unpack_from(data, offset)
        self.data = data
        self.offset = offset
        self.codec = codec
        self._cols = None
        self._records: Optional[list[UpdateRecord]] = None
        self._recarr = None
        self._keys: Optional[list[int]] = None

    def columns(self):
        """(keys, timestamps, ops, offsets) column arrays; built once."""
        if self._cols is None:
            self._cols = self.codec.block_columns(self.data, self.offset, self.count)
        return self._cols

    @property
    def keys(self):
        return self.columns()[0]

    @property
    def timestamps(self):
        return self.columns()[1]

    @property
    def ops(self):
        return self.columns()[2]

    @property
    def payload_offsets(self):
        return self.columns()[3]

    def records(self) -> list[UpdateRecord]:
        """The block's UpdateRecord list (lazy, memoized)."""
        if self._records is None:
            # Reuses the columns when they exist; never materializes them
            # (the cache accounts each form only once it is actually held).
            self._records = self.codec.decode_block(
                self.data, self.offset, self._cols
            )
        return self._records

    def records_arr(self):
        """The record list as an object ndarray (lazy, memoized).

        The merge kernels gather surviving records with one fancy-index
        operation over these arrays (pointer copies) instead of a Python
        list comprehension per merge; slicing them is zero-copy.
        """
        if self._recarr is None:
            self._recarr = record_array(self.records())
        return self._recarr

    def key_list(self) -> list[int]:
        """Plain Python key list for bisect searches (lazy, memoized)."""
        if self._keys is None:
            if self._records is not None:
                self._keys = [u.key for u in self._records]
            else:
                self._keys = self.columns()[0].tolist()
        return self._keys

    @property
    def encoded_size(self) -> int:
        """The on-SSD footprint this entry replaces (the old accounting)."""
        return len(self.data) - self.offset

    @property
    def nbytes(self) -> int:
        """Current decoded footprint: raw bytes + every materialized form."""
        total = len(self.data) - self.offset
        if self._cols is not None:
            total += sum(col.nbytes for col in self._cols)
        if self._records is not None:
            total += self.count * RECORD_OBJECT_OVERHEAD + self.encoded_size
        if self._recarr is not None:
            total += self._recarr.nbytes
        if self._keys is not None:
            total += self.count * KEY_LIST_ENTRY_BYTES
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        forms = [
            name
            for name, present in (
                ("cols", self._cols is not None),
                ("records", self._records is not None),
                ("keys", self._keys is not None),
            )
            if present
        ]
        return (
            f"ColumnarBlock({self.count} records, {self.nbytes}B, "
            f"materialized: {'+'.join(forms) or 'none'})"
        )
