"""Slotted data pages with a page timestamp in the LSN field.

Layout (little-endian)::

    0            8            12           16          20
    +------------+------------+------------+-----------+----------------
    | timestamp  | slot_count | free_start | free_end  | record heap ...
    +------------+------------+------------+-----------+----------------
                                    ... slot directory grows downward from
                                        the page end: (offset u32, len u32)

The 8-byte *timestamp* reuses what a conventional engine stores as the page
LSN (Section 3.2): it records the commit timestamp of the last update applied
to the page, which is how in-place migration decides whether a cached update
has already been applied.

Deleted slots keep their directory entry with offset ``0xFFFFFFFF`` so slot
numbers (RIDs) remain stable; compaction rewrites the heap but preserves the
directory.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from repro.errors import PageError

HEADER = struct.Struct("<QIII")  # timestamp, slot_count, free_start, free_end
SLOT = struct.Struct("<II")  # record offset, record length
TOMBSTONE = 0xFFFFFFFF

DEFAULT_PAGE_SIZE = 4096


@lru_cache(maxsize=1024)
def _directory_struct(slot_count: int) -> struct.Struct:
    """The whole slot directory of a ``slot_count``-slot page as one Struct."""
    return struct.Struct(f"<{2 * slot_count}I")


def _pack_directory(slots: Sequence[tuple[int, int]]) -> bytes:
    """Serialized slot directory: it grows downward, so slot 0 comes last."""
    return _directory_struct(len(slots)).pack(*chain.from_iterable(reversed(slots)))


@lru_cache(maxsize=1024)
def _uniform_directory(
    slot_count: int, record_len: int
) -> tuple[bytes, tuple[tuple[int, int], ...]]:
    """The one directory a page of ``slot_count`` live, back-to-back,
    ``record_len``-byte records can have: (serialized bytes, slot entries).

    What bulk load, the migration rewrite and same-length in-place
    replacement all produce.  A parsed directory that equals these bytes has
    exactly these entries, so checking the *last* entry against the heap end
    checks every entry (offsets only grow) — one bytes compare stands in for
    the per-slot validation loop.
    """
    slots = tuple(
        (HEADER.size + i * record_len, record_len) for i in range(slot_count)
    )
    return _pack_directory(slots), slots


def uniform_pages(data: bytes, page_size: int, record_len: int):
    """:meth:`SlottedPage.from_bytes`' uniform-page test over a whole buffer
    of back-to-back pages: ``(timestamps, slot_counts, uniform)``, one entry
    per page.

    ``uniform[i]`` is true exactly when page ``i`` parses without error into
    at least one live slot and every slot is ``record_len`` bytes, laid out
    back to back from the heap base.  Pages are grouped by the bytes of
    their header after the timestamp (a bulk-loaded chunk has one or two
    distinct ones): each group's header gets ``from_bytes``' bounds checks
    once, then one bytes compare of every directory in the group against
    :func:`_uniform_directory`.  Every other page (empty, tombstoned, mixed
    lengths, relocated slots, corrupt) is left to ``from_bytes``, which
    decides what it is.
    """
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, page_size)
    heads = raw[:, 8 : HEADER.size]  # slot_count, free_start, free_end
    counts = np.zeros(len(raw), dtype=np.int64)
    uniform = np.zeros(len(raw), dtype=bool)
    pending = np.ones(len(raw), dtype=bool)
    while pending.any():
        first = int(pending.argmax())
        group = (heads == heads[first]).all(axis=1)
        pending[group] = False
        _, count, free_start, free_end = HEADER.unpack_from(data, first * page_size)
        counts[group] = count
        if (
            count
            and free_end == page_size - SLOT.size * count
            and HEADER.size + count * record_len <= free_start <= free_end
        ):
            expected = np.frombuffer(
                _uniform_directory(count, record_len)[0], dtype=np.uint8
            )
            uniform[group] = (raw[group, free_end:] == expected).all(axis=1)
    timestamps = np.ndarray(len(raw), "<u8", data, 0, (page_size,))
    return timestamps, counts, uniform


class SlottedPage:
    """A single slotted page manipulated entirely in memory.

    Pages are created empty (:meth:`__init__`) or parsed from bytes
    (:meth:`from_bytes`) and serialized with :meth:`to_bytes`.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, timestamp: int = 0):
        if page_size < HEADER.size + SLOT.size + 1:
            raise PageError(f"page size {page_size} too small")
        self.page_size = page_size
        self.timestamp = timestamp
        self._slots: list[tuple[int, int]] = []  # (offset, length)
        self._heap = bytearray()
        self._heap_base = HEADER.size

    # ---------------------------------------------------------------- sizing
    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def live_count(self) -> int:
        """Slots that are not tombstoned."""
        return sum(1 for offset, _ in self._slots if offset != TOMBSTONE)

    @property
    def free_space(self) -> int:
        """Bytes available for one more record *and* its slot entry."""
        used = HEADER.size + len(self._heap) + SLOT.size * len(self._slots)
        return self.page_size - used

    def fits(self, record_len: int) -> bool:
        return record_len + SLOT.size <= self.free_space

    # ------------------------------------------------------------ record ops
    def insert(self, record: bytes) -> int:
        """Append a record; returns its slot number. Raises if it won't fit."""
        if not self.fits(len(record)):
            raise PageError(
                f"record of {len(record)} bytes does not fit "
                f"(free={self.free_space})"
            )
        offset = self._heap_base + len(self._heap)
        self._heap.extend(record)
        self._slots.append((offset, len(record)))
        return len(self._slots) - 1

    def contiguous_record_bytes(self, record_size: int) -> "bytes | None":
        """The page's records as one contiguous byte run, or None.

        Succeeds only when every slot is live, ``record_size`` long, and laid
        out back-to-back in slot order — true for bulk-loaded pages and
        preserved by same-length in-place replacement.  Lets the chunked
        scan batch-decode the whole page (``Schema.unpack_many``) instead of
        slot-at-a-time.
        """
        count = len(self._slots)
        if count * record_size > len(self._heap):
            return None  # cannot all be live and this long
        if tuple(self._slots) != _uniform_directory(count, record_size)[1]:
            return None
        return bytes(memoryview(self._heap)[: count * record_size])

    def get(self, slot: int) -> bytes:
        offset, length = self._slot_entry(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        start = offset - self._heap_base
        return bytes(self._heap[start : start + length])

    def is_deleted(self, slot: int) -> bool:
        offset, _ = self._slot_entry(slot)
        return offset == TOMBSTONE

    def delete(self, slot: int) -> None:
        """Tombstone a slot (space is reclaimed by :meth:`compact`)."""
        offset, length = self._slot_entry(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} already deleted")
        self._slots[slot] = (TOMBSTONE, length)

    def replace(self, slot: int, record: bytes) -> None:
        """Overwrite a slot's record.

        Same-length replacements are done in place; a different length
        appends to the heap (the old bytes become garbage until compaction).
        """
        offset, length = self._slot_entry(slot)
        if offset == TOMBSTONE:
            raise PageError(f"slot {slot} is deleted")
        if len(record) == length:
            start = offset - self._heap_base
            self._heap[start : start + length] = record
            return
        growth = len(record)
        if growth + 0 > self.free_space:
            raise PageError(
                f"replacement of {growth} bytes does not fit (free={self.free_space})"
            )
        new_offset = self._heap_base + len(self._heap)
        self._heap.extend(record)
        self._slots[slot] = (new_offset, len(record))

    def records(self) -> Iterator[tuple[int, bytes]]:
        """Yield (slot, record_bytes) for every live slot, in slot order."""
        for slot in range(len(self._slots)):
            offset, length = self._slots[slot]
            if offset == TOMBSTONE:
                continue
            start = offset - self._heap_base
            yield slot, bytes(self._heap[start : start + length])

    def compact(self) -> None:
        """Rewrite the heap dropping dead space; slot numbers are preserved."""
        heap = bytearray()
        slots: list[tuple[int, int]] = []
        for offset, length in self._slots:
            if offset == TOMBSTONE:
                slots.append((TOMBSTONE, length))
                continue
            start = offset - self._heap_base
            new_offset = self._heap_base + len(heap)
            heap.extend(self._heap[start : start + length])
            slots.append((new_offset, length))
        self._heap = heap
        self._slots = slots

    # --------------------------------------------------------- serialization
    def to_bytes(self) -> bytes:
        free_start = self._heap_base + len(self._heap)
        free_end = self.page_size - SLOT.size * len(self._slots)
        if free_end < free_start:
            raise PageError("page overflow during serialization")
        return b"".join(
            (
                HEADER.pack(self.timestamp, len(self._slots), free_start, free_end),
                self._heap,
                bytes(free_end - free_start),
                _pack_directory(self._slots),
            )
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "SlottedPage":
        size = len(data)
        if size < HEADER.size:
            raise PageError(f"page of {size} bytes is too small to parse")
        timestamp, slot_count, free_start, free_end = HEADER.unpack_from(data, 0)
        page = cls(page_size=size, timestamp=timestamp)
        if free_start < HEADER.size or free_start > size:
            raise PageError("corrupt page header (free_start)")
        if free_end != size - SLOT.size * slot_count or free_end < free_start:
            raise PageError("corrupt page header (free_end)")
        page._heap = bytearray(data[HEADER.size : free_start])
        if not slot_count:
            return page
        directory = data[free_end:]
        record_len = int.from_bytes(directory[-4:], "little")  # slot 0's length
        if HEADER.size + slot_count * record_len <= free_start:
            # The records would fit the heap if laid out back to back: when
            # the directory is byte-for-byte the uniform one, that bound is
            # every slot's bound (see _uniform_directory).
            uniform, slots = _uniform_directory(slot_count, record_len)
            if directory == uniform:
                page._slots = list(slots)
                return page
        flat = _directory_struct(slot_count).unpack(directory)
        slots = list(zip(flat[-2::-2], flat[::-2]))  # back into slot order
        for offset, length in slots:
            if offset != TOMBSTONE and (
                offset < HEADER.size or offset + length > free_start
            ):
                raise PageError("corrupt slot entry")
        page._slots = slots
        return page

    # -------------------------------------------------------------- internal
    def _slot_entry(self, slot: int) -> tuple[int, int]:
        if not 0 <= slot < len(self._slots):
            raise PageError(f"slot {slot} out of range (count={len(self._slots)})")
        return self._slots[slot]

    def __len__(self) -> int:
        return self.live_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlottedPage(ts={self.timestamp}, slots={self.slot_count}, "
            f"live={self.live_count}, free={self.free_space})"
        )


def empty_page_bytes(page_size: int = DEFAULT_PAGE_SIZE) -> bytes:
    """Serialized form of a fresh page (used to format heap files)."""
    return SlottedPage(page_size).to_bytes()
