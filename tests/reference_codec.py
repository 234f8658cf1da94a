"""Per-field reference codec: the test oracle for the compiled layout.

The record, update and page formats written the slow, obvious way — one
field, one slot, one header at a time, straight from the format tables in
``engine/record.py``, ``engine/page.py`` and ``core/update.py``.  Nothing
here imports the production codec, so the property suite
(``test_prop_codec.py``) compares two independent implementations.

A schema is a list of ``(name, type_code)`` pairs; a record a tuple; an
update a ``(timestamp, key, type, content)`` tuple with ``type`` 0..3.
"""

from __future__ import annotations

import struct

from repro.errors import PageError

_NUMERIC = {"u32": "<I", "u64": "<Q", "i64": "<q", "f64": "<d"}

INSERT, DELETE, MODIFY, REPLACE = range(4)

UPDATE_HEAD = struct.Struct("<QQBI")  # timestamp, key, type, payload length
BLOCK_HEAD = struct.Struct("<I")  # record count, then the block's columns

PAGE_HEAD = struct.Struct("<QIII")  # timestamp, slot_count, free_start, free_end
SLOT = struct.Struct("<II")  # record offset, record length
TOMBSTONE = 0xFFFFFFFF


# ------------------------------------------------------------------- records
def field_width(code: str) -> int:
    if code in _NUMERIC:
        return struct.calcsize(_NUMERIC[code])
    return int(code[1:])


def pack_field(code: str, value) -> bytes:
    if code in _NUMERIC:
        return struct.pack(_NUMERIC[code], value)
    raw = value.encode("utf-8")
    assert len(raw) <= field_width(code)
    return raw.ljust(field_width(code), b"\x00")


def unpack_field(code: str, data: bytes, offset: int):
    """(value, next offset) of the field at ``offset``."""
    width = field_width(code)
    if code in _NUMERIC:
        return struct.unpack_from(_NUMERIC[code], data, offset)[0], offset + width
    raw = data[offset : offset + width]
    return raw.rstrip(b"\x00").decode("utf-8"), offset + width


def pack_record(fields, record) -> bytes:
    return b"".join(pack_field(code, v) for (_, code), v in zip(fields, record))


def unpack_record(fields, data: bytes, offset: int = 0) -> tuple:
    values = []
    for _, code in fields:
        value, offset = unpack_field(code, data, offset)
        values.append(value)
    return tuple(values)


# ------------------------------------------------------------------- updates
def encode_payload(fields, update) -> bytes:
    _, _, utype, content = update
    if utype in (INSERT, REPLACE):
        return pack_record(fields, content)
    if utype == DELETE:
        return b""
    names = [name for name, _ in fields]
    return b"".join(
        struct.pack("<H", names.index(name))
        + pack_field(fields[names.index(name)][1], value)
        for name, value in sorted(content.items())
    )


def decode_payload(fields, utype: int, data: bytes, body: int, length: int):
    if utype in (INSERT, REPLACE):
        return unpack_record(fields, data, body)
    if utype == DELETE:
        return None
    content = {}
    pos = body
    while pos < body + length:
        (idx,) = struct.unpack_from("<H", data, pos)
        name, code = fields[idx]
        content[name], pos = unpack_field(code, data, pos + 2)
    return content


def encode_update(fields, update) -> bytes:
    timestamp, key, utype, _ = update
    payload = encode_payload(fields, update)
    return UPDATE_HEAD.pack(timestamp, key, utype, len(payload)) + payload


def decode_update(fields, data: bytes, offset: int):
    """(update tuple, next offset) of the update at ``offset``."""
    timestamp, key, utype, length = UPDATE_HEAD.unpack_from(data, offset)
    body = offset + UPDATE_HEAD.size
    content = decode_payload(fields, utype, data, body, length)
    return (timestamp, key, utype, content), body + length


def encode_block(fields, updates) -> bytes:
    """A column-major block, one update and one field at a time: the count,
    every key, every timestamp, every type, every payload length, then the
    payloads."""
    payloads = [encode_payload(fields, u) for u in updates]
    out = [BLOCK_HEAD.pack(len(updates))]
    out += [struct.pack("<Q", key) for _, key, _, _ in updates]
    out += [struct.pack("<Q", timestamp) for timestamp, _, _, _ in updates]
    out += [struct.pack("<B", utype) for _, _, utype, _ in updates]
    out += [struct.pack("<I", len(payload)) for payload in payloads]
    return b"".join(out + payloads)


def decode_block(fields, data: bytes, offset: int = 0) -> list:
    """The updates of the column-major block at ``offset``, one at a time:
    update ``i``'s header fields read from each column's slot ``i``, its
    payload from where the payloads before it end."""
    (count,) = BLOCK_HEAD.unpack_from(data, offset)
    keys = offset + BLOCK_HEAD.size
    timestamps = keys + 8 * count
    types = timestamps + 8 * count
    lengths = types + count
    body = lengths + 4 * count
    updates = []
    for i in range(count):
        (key,) = struct.unpack_from("<Q", data, keys + 8 * i)
        (timestamp,) = struct.unpack_from("<Q", data, timestamps + 8 * i)
        (utype,) = struct.unpack_from("<B", data, types + i)
        (length,) = struct.unpack_from("<I", data, lengths + 4 * i)
        content = decode_payload(fields, utype, data, body, length)
        updates.append((timestamp, key, utype, content))
        body += length
    return updates


# --------------------------------------------------------------------- pages
def parse_page(data: bytes):
    """(timestamp, slots, heap bytes) of a serialized slotted page.

    The slot-at-a-time parser ``SlottedPage.from_bytes`` used before the
    directory was compiled: every check it made, in the order it made them.
    """
    if len(data) < PAGE_HEAD.size + SLOT.size + 1:
        raise PageError("page too small")
    timestamp, slot_count, free_start, free_end = PAGE_HEAD.unpack_from(data, 0)
    if free_start < PAGE_HEAD.size or free_start > len(data):
        raise PageError("corrupt page header (free_start)")
    if free_end != len(data) - SLOT.size * slot_count or free_end < free_start:
        raise PageError("corrupt page header (free_end)")
    slots = []
    pos = len(data) - SLOT.size
    for _ in range(slot_count):
        offset, length = SLOT.unpack_from(data, pos)
        if offset != TOMBSTONE and (
            offset < PAGE_HEAD.size or offset + length > free_start
        ):
            raise PageError("corrupt slot entry")
        slots.append((offset, length))
        pos -= SLOT.size
    return timestamp, slots, bytes(data[PAGE_HEAD.size : free_start])
