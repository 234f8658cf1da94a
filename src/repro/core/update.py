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
from itertools import accumulate, starmap
from typing import NamedTuple, Optional, Sequence

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


#: The count that opens an encoded block of update records.
BLOCK_HEADER = struct.Struct("<I")

#: A block's four header columns in the order they follow its count:
#: (wire type, bytes per update) of keys, timestamps, op codes and payload
#: lengths.
_BLOCK_COLUMNS = (("<u8", 8), ("<u8", 8), ("u1", 1), ("<u4", 4))

#: Decode-time lookup avoiding an ``UpdateType(...)`` enum call per record:
#: indexing it with a block's op-code column maps the whole block at once.
_TYPE_ARRAY = _np.array(list(UpdateType), dtype=object)

#: The op codes as plain ints (array compares in the block decoder).
_INSERT, _DELETE, _MODIFY, _REPLACE = map(int, UpdateType)


def _windows(data: bytes, width: int):
    """Every ``width``-byte window of ``data`` as rows of a 2-D uint8 view
    (row ``i`` starts at byte ``i``): indexing it with an array of positions
    gathers one fixed-width field from each, wherever they sit."""
    return _np.ndarray((max(0, len(data) - width + 1), width), _np.uint8, data, 0, (1, 1))


class BlockColumns(NamedTuple):
    """Columns of one or more encoded blocks, from one decode.

    One entry per update, blocks back to back: ``keys`` and ``timestamps``
    (uint64, the wire type), ``ops`` (uint8), each payload's position in the
    buffer (``offsets``, int64) and its length (``lengths``, int64), so
    update ``i``'s payload spans ``[offsets[i], offsets[i] + lengths[i])``.
    ``bounds`` has one more entry than there are blocks: block ``b`` owns
    rows ``bounds[b]:bounds[b + 1]``.
    """

    keys: object
    timestamps: object
    ops: object
    offsets: object
    lengths: object
    bounds: list


class UpdateCodec:
    """Fixed-schema binary codec for update records.

    One update on its own (a WAL frame's payload, a memory-buffer entry) is
    a row::

        timestamp u64 | key u64 | type u8 | payload_len u32 | payload

    A block of ``n`` updates (what a run's blocks hold) is column-major::

        count u32 | keys u64[n] | timestamps u64[n] | types u8[n]
                  | payload_len u32[n] | payloads, back to back

    so a block's headers decode as four array views and its payload
    positions as one cumulative sum, whatever its mix of update types.
    Either way an update costs :attr:`header_size` bytes plus its payload.

    Payload: packed record for INSERT/REPLACE; empty for DELETE; for MODIFY a
    sequence of (field_index u16, packed field value) pairs.

    Besides the record-at-a-time :meth:`encode`/:meth:`decode` pair, the
    codec offers a batch API (:meth:`encode_many`, :meth:`block_bytes`,
    :meth:`block_columns`, :meth:`decode_block`) that processes a whole
    block in one pass — the read/write hot path.  Everything is driven by
    the layout the :class:`~repro.engine.record.Schema` compiled at
    construction.
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
        #: Per field ``(offset, width)`` inside a packed record.
        self._spans = tuple((f.offset, f.width) for f in schema.fields)
        #: Field indexes in the order a MODIFY payload lists them (by name).
        self._modify_order = sorted(range(len(self._fields)), key=lambda i: self._fields[i][0])
        #: ``_HEAD`` as a packed numpy type: headers gathered from a buffer
        #: view as one row per update.
        self._head_dtype = _np.dtype(
            {
                "names": ["timestamp", "key", "op", "payload_len"],
                "formats": ["<u8", "<u8", "u1", "<u4"],
                "offsets": [0, 8, 16, 17],
                "itemsize": self._HEAD.size,
            }
        )

    @property
    def header_size(self) -> int:
        return self._HEAD.size

    def encoded_size(self, update: UpdateRecord) -> int:
        """``len(self.encode(update))`` by arithmetic over the field widths.

        Sizes only: a value that does not fit its field is rejected by
        :meth:`encode`, not here.
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

    #: ``(timestamp, key, op code, payload length)`` of the encoded update at
    #: ``offset`` of ``data`` — no payload decode.
    peek_head = _HEAD.unpack_from

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

    def encode_columns(self, updates: Sequence[UpdateRecord]) -> "UpdateColumns":
        """Encode a batch of updates into the columns a merge source hands
        over and a run writer takes, back to back in the order given."""
        return UpdateColumns.from_encoded(self.encode_many(updates), self)

    def encode_block(self, updates: Sequence[UpdateRecord]) -> bytes:
        """Encode a whole block of updates (see the class docstring)."""
        columns = self.encode_columns(updates).contiguous()
        return self.block_bytes(columns, [0, len(columns)])[0]

    def block_bytes(self, columns: "UpdateColumns", bounds: Sequence[int]) -> list[bytes]:
        """The encoded blocks of ``columns``' rows ``bounds[b]:bounds[b +
        1]``, one per ``b``; the rows' payloads must lie back to back
        (:meth:`UpdateColumns.contiguous`).  Each header column is turned
        into bytes once, and a block is its count, one slice of each and
        one slice of payloads."""
        lo, hi = bounds[0], bounds[-1]
        views = [
            (memoryview(column[lo:hi].astype(dtype).tobytes()), width)
            for column, (dtype, width) in zip(
                (columns.keys, columns.timestamps, columns.ops, columns.lengths),
                _BLOCK_COLUMNS,
            )
        ]
        first = int(columns.offsets[lo]) if hi > lo else 0
        running = _np.concatenate(([first], first + _np.cumsum(columns.lengths[lo:hi])))
        cuts = running[_np.asarray(bounds) - lo].tolist()  # payloads at block edges
        heap = memoryview(columns.data)
        blocks = []
        for b in range(len(bounds) - 1):
            start, end = bounds[b] - lo, bounds[b + 1] - lo
            blocks.append(
                b"".join(
                    [
                        BLOCK_HEADER.pack(end - start),
                        *[view[width * start : width * end] for view, width in views],
                        heap[cuts[b] : cuts[b + 1]],
                    ]
                )
            )
        return blocks

    def block_budget(self, body_size: int) -> int:
        """How many encoded update bytes (:attr:`header_size` plus payload
        each) a block of ``body_size`` bytes holds besides its count."""
        return body_size - BLOCK_HEADER.size

    def decode_block(
        self, data: bytes, offset: int = 0, columns=None
    ) -> list[UpdateRecord]:
        """Materialise the :class:`UpdateRecord` of every update in the block
        at ``offset`` (as written by :meth:`block_bytes`), or of every row of
        ``columns``.

        ``columns`` is a :meth:`block_columns` result over ``data`` (one
        block's, or a whole read group's) or any :class:`UpdateColumns`
        row selection of it; the headers are never decoded twice —
        timestamps, keys and op codes come from the columns, and only
        payloads are decoded here, a column at a time: one
        :meth:`Schema.rows` call for all INSERT/REPLACE records, one value
        column per field for single-field MODIFYs, and :meth:`_changes` for
        whatever MODIFY payloads are left.
        """
        if columns is None:
            columns = self.block_columns(data, offset)
        ops = columns.ops
        if not len(ops):
            return []
        bodies = columns.offsets
        whole = _np.flatnonzero((ops == _INSERT) | (ops == _REPLACE))
        rows: list = []
        if len(whole):
            # block_columns checked every INSERT/REPLACE payload's length.
            rows = self.schema.rows(self.packed_records(data, bodies[whole]))
        if len(rows) == len(ops):
            contents = rows
        else:
            column = _np.empty(len(ops), dtype=object)  # None: DELETE
            column[whole] = record_array(rows)
            modify = _np.flatnonzero(ops == _MODIFY)
            if len(modify):
                column[modify] = self._change_dicts(
                    data, bodies[modify], columns.lengths[modify]
                )
            contents = column.tolist()
        return list(
            starmap(
                UpdateRecord,
                zip(
                    columns.timestamps.tolist(),
                    columns.keys.tolist(),
                    _TYPE_ARRAY[ops].tolist(),
                    contents,
                ),
            )
        )

    def packed_records(self, data, bodies):
        """The packed records starting at each of ``bodies`` in ``data``, as
        one structured array of the schema's dtype (a gather: the rows need
        not be adjacent, aligned or in order)."""
        if not len(bodies):
            return _np.empty(0, dtype=self.schema.dtype)
        packed = _windows(data, self._record_size)[bodies]
        return packed.view(self.schema.dtype)[:, 0]

    def _change_dicts(self, data: bytes, bodies, lengths):
        """The ``field -> new value`` dict of each MODIFY payload, as an
        object array.  A payload that is exactly one (index, value) pair is
        decoded with its field's whole value column; the rest one at a time."""
        out = _np.empty(len(bodies), dtype=object)
        # An empty payload has no index to read: whatever is read in its
        # place cannot pass the length test below (and with under two bytes
        # of data no payload has one).
        indexes = (
            _windows(data, 2)[_np.minimum(bodies, len(data) - 2)].view("<u2")[:, 0]
            if len(data) >= 2
            else _np.zeros(0, _np.uint16)
        )
        rest = _np.ones(len(bodies), dtype=bool)
        for idx in set(indexes.tolist()):
            if idx >= len(self._fields):
                continue
            name, width, is_string, _ = self._fields[idx]
            chosen = _np.flatnonzero((indexes == idx) & (lengths == 2 + width))
            if not len(chosen) or not width:
                continue
            values = _windows(data, width)[bodies[chosen] + 2]
            values = values.view(self.schema.dtype[idx])[:, 0].tolist()
            if is_string:
                values = map(bytes.decode, values)
            out[chosen] = record_array([{name: value} for value in values])
            rest[chosen] = False
        for i in _np.flatnonzero(rest).tolist():
            body = int(bodies[i])
            out[i] = self._changes(data, body, body + int(lengths[i]))
        return out

    # --------------------------------------------------------------- SoA API
    def block_columns(
        self, data: bytes, offset: int = 0, blocks: int = 1, stride: int = 0
    ) -> BlockColumns:
        """Columns of ``blocks`` encoded blocks laid out ``stride`` bytes
        apart from ``offset`` — no payload decoded.  Each block's four header
        columns are ``np.frombuffer`` views where they lie, and one
        cumulative sum over the payload lengths places every payload.

        A block ends where the next begins (the last at the end of
        ``data``).  A count or payloads running past that, an unknown update
        type, or an INSERT/REPLACE payload that is not exactly one packed
        record raises :class:`ReproError`.
        """
        counts: list[int] = []
        heaps: list[int] = []  # where each block's payloads start ...
        limits: list[int] = []  # ... and the byte they must end by
        parts: tuple[list, ...] = ([], [], [], [])
        start = BLOCK_HEADER.size
        for block in range(blocks):
            base = offset + block * stride
            limit = base + stride if block < blocks - 1 else len(data)
            if base + start > limit:
                raise ReproError("truncated update record")
            (count,) = BLOCK_HEADER.unpack_from(data, base)
            at = base + start
            if at + count * self._HEAD.size > limit:
                raise ReproError("truncated update record")
            for part, (dtype, width) in zip(parts, _BLOCK_COLUMNS):
                part.append(_np.frombuffer(data, dtype, count, at))
                at += count * width
            counts.append(count)
            heaps.append(at)
            limits.append(limit)
        keys, timestamps, ops, lengths = (_np.concatenate(part) for part in parts)
        lengths = lengths.astype(_np.int64)
        bounds = [0, *accumulate(counts)]
        # ``before[b]``: the payload bytes of the blocks ahead of block b.
        running = _np.concatenate(([0], _np.cumsum(lengths)))
        before = running[bounds[:-1]]
        heaps = _np.array(heaps)
        if (heaps + running[bounds[1:]] - before > limits).any():
            raise ReproError("truncated update record")
        offsets = running[:-1] + _np.repeat(heaps - before, counts)
        if len(ops) and ops.max() > _REPLACE:
            raise ReproError("unknown update type in block")
        whole = (ops == _INSERT) | (ops == _REPLACE)
        if (lengths[whole] != self._record_size).any():
            raise ReproError(
                f"record payload in block does not match schema size {self._record_size}"
            )
        return BlockColumns(keys, timestamps, ops, offsets, lengths, bounds)

    def row_columns(self, data, starts):
        """``(keys, timestamps, ops, payload offsets, payload lengths)`` of
        the encoded rows that start at ``starts`` in ``data`` (the
        :meth:`encode` format): one gather of their headers, no payload
        touched."""
        heads = _windows(data, self._HEAD.size)[starts].view(self._head_dtype)[:, 0]
        return (
            _np.ascontiguousarray(heads["key"]),
            _np.ascontiguousarray(heads["timestamp"]),
            _np.ascontiguousarray(heads["op"]),
            starts + self._HEAD.size,
            heads["payload_len"].astype(_np.int64),
        )

    def decode_blocks(self, blocks: Sequence[bytes]) -> list["ColumnarBlock"]:
        """Decode equal-sized encoded blocks (one read group) in one pass.

        One :meth:`block_columns` decode serves the whole group; the returned
        :class:`ColumnarBlock` s share the group's bytes and header columns
        (each owns a row range of them), and no :class:`UpdateRecord` is
        built until one of them is asked for its records.
        """
        if not blocks:
            return []
        data = blocks[0] if len(blocks) == 1 else b"".join(blocks)
        stride = len(blocks[0])
        columns = self.block_columns(data, 0, len(blocks), stride)
        group = BlockGroup(data, self, columns, stride)
        return [
            ColumnarBlock(data, self, i * stride, group=group, index=i)
            for i in range(len(blocks))
        ]

    def apply_modifies(self, data, bodies, lengths, rows, targets) -> None:
        """Write the field values of MODIFY payloads straight into a
        structured array: payload ``i`` (``data[bodies[i] : bodies[i] +
        lengths[i]]``) patches ``rows[targets[i]]``.  ``targets`` must not
        repeat.

        One round per (index, value) pair position: every payload's next
        pair is read at once, and each field that occurs in the round moves
        its values with one gather from the buffer and one scatter into the
        field's column — the packed value bytes are never decoded.
        """
        spans = self._spans
        names = self.schema.dtype.names
        at = bodies  # each payload's next unread pair
        ends = bodies + lengths
        left = lengths  # bytes from there to the payload's end
        try:
            while left.any():
                if not left.all():
                    if left.min() < 0:
                        break
                    unread = left > 0
                    at, ends, targets = at[unread], ends[unread], targets[unread]
                indexes = _windows(data, 2)[at].view("<u2")[:, 0]
                present = set(indexes.tolist())
                at = at + 2
                for idx in present:
                    width = spans[idx][1]
                    if not width:
                        continue
                    if len(present) == 1:
                        mine = slice(None)
                    else:
                        mine = (indexes == idx).nonzero()[0]
                    values = _windows(data, width)[at[mine]]
                    rows[names[idx]][targets[mine]] = values.view(
                        self.schema.dtype[idx]
                    )[:, 0]
                    at[mine] += width
                left = ends - at
        except IndexError:  # a field index or value past what there is
            raise ReproError("malformed MODIFY payload") from None
        if left.any():
            raise ReproError("MODIFY payload does not end on a field boundary")

    def fold_chain(self, data, ops, bodies, lengths):
        """Combine one same-key chain on its encoded form — what
        :func:`combine_chain` does to the decoded records, bytes to bytes.

        ``ops`` / ``bodies`` / ``lengths`` are the chain's members in
        timestamp order (plain ints; ``bodies`` the payload positions in
        ``data``).  Returns ``(op, payload)`` of the combined update:
        ``payload`` is a member's index when that member's payload is the
        result's as it stands (the last DELETE; the last INSERT/REPLACE with
        nothing after it), otherwise new payload bytes (the last
        INSERT/REPLACE record with the later MODIFYs' values spliced in, or
        the MODIFYs merged into one).  Returns None for a chain
        :func:`combine_chain` rejects (a MODIFY of a deleted record, an
        INSERT of a live one): its caller decodes the members for the
        :class:`UpdateConflictError`.
        """
        state = ops[0]
        base = 0
        modifies = [0] if state == _MODIFY else []
        for i in range(1, len(ops)):
            op = ops[i]
            if op == _DELETE:
                state, modifies = op, []
            elif op == _MODIFY and state != _DELETE:
                modifies.append(i)
            elif op == _REPLACE or (op == _INSERT and state in (_DELETE, _MODIFY)):
                state, base, modifies = _REPLACE, i, []
            else:  # MODIFY of a deleted record, INSERT of a live one
                return None
        if state == _DELETE:
            return state, len(ops) - 1
        if not modifies:
            return state, base
        spans = self._spans
        index_at = self._FIELD_INDEX.unpack_from
        record = None  # the packed record being patched; None: MODIFYs only
        if state != _MODIFY:
            start = bodies[base]
            record = bytearray(data[start : start + self._record_size])
        merged: dict = {}  # field index -> its latest (index, value) pair
        for i in modifies:
            pos = bodies[i]
            end = pos + lengths[i]
            while pos < end:
                (idx,) = index_at(data, pos)
                offset, width = spans[idx]
                if record is None:
                    merged[idx] = data[pos : pos + 2 + width]
                else:
                    record[offset : offset + width] = data[pos + 2 : pos + 2 + width]
                pos += 2 + width
        if record is None:
            # The order :meth:`encode` writes a MODIFY's pairs in.
            return state, b"".join(
                [merged[idx] for idx in self._modify_order if idx in merged]
            )
        return state, bytes(record)


#: Bytes of header columns per update (key, timestamp, op, offset, length).
_COLUMN_BYTES = 8 + 8 + 1 + 8 + 8


def record_array(records: Sequence[UpdateRecord]):
    """``records`` as an object ndarray (one pointer per record)."""
    return _np.fromiter(records, dtype=object, count=len(records))


class UpdateColumns:
    """Encoded updates in columnar form: a byte buffer plus the header
    columns of the updates in it — what a scan moves from run blocks (and
    the memory buffer) through the merge into the join.

    ``keys`` / ``timestamps`` (uint64), ``ops`` (uint8), and for each update
    its payload's position in ``data`` (``offsets``) and length
    (``lengths``), as in :class:`BlockColumns`.  The buffer may be encoded
    rows (the memory buffer, WAL frames) or column blocks (a run's read
    group): only payloads are ever read from it.  Rows are in (key, ts)
    order when the object is a source's slice, and strictly increasing in
    key when it is a merged batch.  Payload bytes are touched only by
    whoever needs them: :attr:`records` (record-shaped consumers), chain
    folds and the join's row gather / column patches.
    """

    __slots__ = ("data", "codec", "keys", "timestamps", "ops", "offsets", "lengths")

    def __init__(self, data, codec, keys, timestamps, ops, offsets, lengths) -> None:
        self.data = data
        self.codec = codec
        self.keys = keys
        self.timestamps = timestamps
        self.ops = ops
        self.offsets = offsets
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def from_encoded(cls, pieces: Sequence[bytes], codec: UpdateCodec) -> "UpdateColumns":
        """Updates that are already encoded (:meth:`UpdateCodec.encode`
        output: the memory buffer's entries, WAL frame payloads), in the
        order given, over their bytes back to back."""
        data = b"".join(pieces)
        sizes = _np.fromiter(map(len, pieces), dtype=_np.int64, count=len(pieces))
        return cls(data, codec, *codec.row_columns(data, _np.cumsum(sizes) - sizes))

    def sorted(self) -> "UpdateColumns":
        """The rows in (key, ts) order — equal positions keep their order —
        with their payloads back to back (:meth:`contiguous`): the form
        every update source hands the merge."""
        if not len(self):
            return self
        return self.rows(_np.lexsort((self.timestamps, self.keys))).contiguous()

    @property
    def encoded_bytes(self) -> int:
        """Total encoded size of the rows (headers and payloads)."""
        return int(self.lengths.sum()) + len(self) * self.codec.header_size

    def contiguous(self) -> "UpdateColumns":
        """The same rows with their payloads back to back in row order —
        what a block's payloads are cut from.  ``self`` when they already
        are; otherwise the payloads are copied out in order, one gather and
        one scatter per distinct payload length."""
        offsets, lengths = self.offsets, self.lengths
        if (offsets[1:] == (offsets + lengths)[:-1]).all():
            return self
        starts = _np.cumsum(lengths) - lengths
        out = _np.empty(int(lengths.sum()), dtype=_np.uint8)
        for length in _np.unique(lengths).tolist():
            if length:
                rows = (lengths == length).nonzero()[0]
                _windows(out, length)[starts[rows]] = _windows(self.data, length)[offsets[rows]]
        return UpdateColumns(
            out.tobytes(), self.codec, self.keys, self.timestamps, self.ops, starts, lengths
        )

    def rows(self, index) -> "UpdateColumns":
        """The updates selected by ``index`` (a slice, mask or index array),
        over the same buffer."""
        return UpdateColumns(
            self.data,
            self.codec,
            self.keys[index],
            self.timestamps[index],
            self.ops[index],
            self.offsets[index],
            self.lengths[index],
        )

    def byte_span(self) -> tuple[int, int]:
        """The byte range of ``data`` the rows' payloads occupy (non-empty,
        rows in buffer order: first payload to last)."""
        return int(self.offsets[0]), int(self.offsets[-1] + self.lengths[-1])

    @staticmethod
    def concat(parts: Sequence["UpdateColumns"]) -> "UpdateColumns":
        """Rows of ``parts`` back to back over one buffer.  Every part must
        be non-empty with its rows in buffer order; each contributes only
        the byte range its rows span, so a narrow slice of a large read
        group costs what it uses."""
        if len(parts) == 1:
            return parts[0]
        pieces = []
        offsets = []
        base = 0
        for part in parts:
            lo, hi = part.byte_span()
            pieces.append(memoryview(part.data)[lo:hi])
            offsets.append(part.offsets + (base - lo))
            base += hi - lo
        return UpdateColumns(
            b"".join(pieces),
            parts[0].codec,
            _np.concatenate([part.keys for part in parts]),
            _np.concatenate([part.timestamps for part in parts]),
            _np.concatenate([part.ops for part in parts]),
            _np.concatenate(offsets),
            _np.concatenate([part.lengths for part in parts]),
        )

    @property
    def records(self) -> list[UpdateRecord]:
        """The :class:`UpdateRecord` of every row, built now."""
        return self.codec.decode_block(self.data, 0, self)

    def packed_records(self, index):
        """The packed records of the INSERT/REPLACE rows ``index`` selects,
        as a structured array of the schema's dtype."""
        return self.codec.packed_records(self.data, self.offsets[index])

    def apply_modifies(self, index, rows, targets) -> None:
        """Patch ``rows[targets]`` with the MODIFY rows ``index`` selects."""
        self.codec.apply_modifies(
            self.data, self.offsets[index], self.lengths[index], rows, targets
        )


class BlockGroup:
    """One read group's verified bytes and columns, shared by the
    :class:`ColumnarBlock` s decoded from it."""

    __slots__ = ("data", "codec", "columns", "stride")

    def __init__(
        self, data: bytes, codec: UpdateCodec, columns: BlockColumns, stride: int
    ) -> None:
        self.data = data
        self.codec = codec
        self.columns = columns
        #: Bytes per block: the on-SSD footprint of each.
        self.stride = stride

    def update_columns(self, lo: int, hi: int) -> UpdateColumns:
        """Rows ``lo:hi`` as :class:`UpdateColumns` (views) over the group's
        bytes."""
        keys, timestamps, ops, offsets, lengths, _ = self.columns
        return UpdateColumns(
            self.data,
            self.codec,
            keys[lo:hi],
            timestamps[lo:hi],
            ops[lo:hi],
            offsets[lo:hi],
            lengths[lo:hi],
        )


class ColumnarBlock:
    """One decoded update block: a row range of its read group's verified
    bytes and header columns.

    * :attr:`keys` / :attr:`timestamps` / :attr:`ops` — the block's rows of
      the group's header columns (views), what scans slice and merge;
    * :meth:`update_columns` — the same rows with payload offsets, over the
      group's buffer (its ``records`` decodes them).

    A run scan builds these for a whole read group at once
    (:meth:`UpdateCodec.decode_blocks`); a block constructed on its own is a
    group of one.

    Instances are what :class:`repro.core.blockcache.DecodedBlockCache`
    stores; :attr:`nbytes` is the decoded footprint its gauge reports.
    """

    __slots__ = ("group", "index", "offset")

    def __init__(
        self,
        data: bytes,
        codec: UpdateCodec,
        offset: int = 0,
        group: Optional[BlockGroup] = None,
        index: int = 0,
    ) -> None:
        if group is None:
            columns = codec.block_columns(data, offset)
            group = BlockGroup(data, codec, columns, len(data) - offset)
        self.group = group
        self.index = index
        #: Where the block starts in ``data``.
        self.offset = offset

    @property
    def data(self) -> bytes:
        return self.group.data

    @property
    def span(self) -> tuple[int, int]:
        """This block's row range in its group's columns."""
        bounds = self.group.columns.bounds
        return bounds[self.index], bounds[self.index + 1]

    @property
    def count(self) -> int:
        lo, hi = self.span
        return hi - lo

    def columns(self):
        """(keys, timestamps, ops) column arrays."""
        lo, hi = self.span
        keys, timestamps, ops = self.group.columns[:3]
        return keys[lo:hi], timestamps[lo:hi], ops[lo:hi]

    @property
    def keys(self):
        return self.columns()[0]

    @property
    def timestamps(self):
        return self.columns()[1]

    @property
    def ops(self):
        return self.columns()[2]

    def update_columns(self) -> UpdateColumns:
        """The block's updates as :class:`UpdateColumns`."""
        return self.group.update_columns(*self.span)

    @property
    def nbytes(self) -> int:
        """Decoded footprint: the block's share of its group's raw bytes
        and header columns."""
        return self.group.stride + self.count * _COLUMN_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarBlock({self.count} records, {self.nbytes}B)"
