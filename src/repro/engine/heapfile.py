"""Heap files: fixed-size slotted pages stored contiguously on a device.

A heap file holds a table's pages clustered in primary-key order (the record
order assumption of Section 2.1).  Scans read large I/O chunks (1 MB by
default, the paper's scan I/O size) and decode each chunk in one pass
(:func:`decode_chunk`); bulk load and the migration rewrite pack each chunk
they write in one pass (:func:`encode_chunk`); point operations read and
write single pages (4 KB, the paper's in-place update I/O size).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.engine.page import (
    DEFAULT_PAGE_SIZE,
    HEADER,
    SLOT,
    SlottedPage,
    _uniform_directory,
    uniform_pages,
)
from repro.engine.record import Schema
from repro.errors import PageError, SchemaError, StorageError
from repro.storage.file import SimFile
from repro.util.units import MB, ceil_div

DEFAULT_IO_CHUNK = 1 * MB
DEFAULT_FILL_FACTOR = 0.9


def page_records(page: SlottedPage, schema: Schema) -> list[tuple]:
    """A page's live records, key-sorted — the page-at-a-time decode: one
    batch decode when the page is in its contiguous (bulk-loaded / rewritten)
    layout, slot at a time otherwise.  Migration's page loop and point
    operations use it directly; chunked scans (:func:`decode_chunk`) only for
    the pages their vectorised check turns down."""
    data = page.contiguous_record_bytes(schema.record_size)
    if data is None:
        records = [schema.unpack(d) for _, d in page.records()]
    else:
        records = schema.unpack_many(data)
    records.sort(key=schema.key_of)
    return records


def page_array(page: SlottedPage, schema: Schema):
    """A page's live records as a key-sorted structured array of the
    schema's dtype, without decoding them — :func:`page_records` for the
    chunked scan's array form.  A page with a live slot that is not one
    whole record raises what :func:`page_records` raises for it: the first
    slot, in slot order, that ``Schema.unpack`` rejects."""
    data = page.contiguous_record_bytes(schema.record_size)
    if data is None:
        slots = [d for _, d in page.records()]
        if any(len(d) != schema.record_size for d in slots):
            for d in slots:
                schema.unpack(d)
        data = b"".join(slots)
    rows = np.frombuffer(data, dtype=schema.dtype)
    keys = rows[schema.dtype.names[schema.key_pos]]
    if (keys[1:] < keys[:-1]).any():
        rows = rows[np.argsort(keys, kind="stable")]
    return rows


class HeapChunk:
    """The decoded form of consecutive heap pages (one scan I/O).

    ``rows`` is a structured array (the schema's dtype) of every live
    record, in page order and key-sorted within each page; ``keys`` is its
    key column (in the column's own integer type); ``page_timestamps`` and
    ``counts`` (live records) have one entry per page.  ``error`` is the
    :class:`PageError` of the first page that does not parse — the arrays
    then cover only the pages before it — or None.  Record tuples are built
    on demand by :meth:`records`; a scan joins ``rows`` as it is, and a pass
    that only needs keys and counts (index rebuild) never pays for tuples.
    """

    __slots__ = ("first_page", "rows", "keys", "page_timestamps", "counts", "error",
                 "_schema")

    def __init__(self, first_page, rows, keys, page_timestamps, counts, error,
                 schema) -> None:
        self.first_page = first_page
        self.rows = rows
        self.keys = keys
        self.page_timestamps = page_timestamps
        self.counts = counts
        self.error = error
        self._schema = schema

    def records(self, start: int = 0, stop: Optional[int] = None) -> list[tuple]:
        """The live records aligned with ``keys[start:stop]``, as tuples."""
        return self._schema.unpack_many(self.rows[start:stop])

    def record_timestamps(self):
        """Each record's page timestamp, aligned with :attr:`keys`."""
        return np.repeat(self.page_timestamps, self.counts)


def decode_chunk(
    data: bytes, page_size: int, schema: Schema, first_page: int = 0
) -> HeapChunk:
    """Decode back-to-back pages (``len(data)`` a multiple of ``page_size``)
    in one vectorised pass.

    Equivalent, page for page, to ``page_records(SlottedPage.from_bytes(raw),
    schema)``: :func:`~repro.engine.page.uniform_pages` picks out the pages
    in the bulk-loaded layout, each stretch of consecutive ones with the
    same slot count becomes one 2-D structured view (pages x slots) whose key
    column gives the keys and shows which pages hold their slots out of key
    order (same-length in-place inserts append; those pages are stable-sorted
    here, as ``page_records`` sorts them).  Any other page goes through
    ``from_bytes`` + :func:`page_array` on its own, in page order, so the
    first unparseable page is reported with ``from_bytes``' own
    :class:`PageError`.
    """
    timestamps, counts, uniform = uniform_pages(data, page_size, schema.record_size)
    record_size = schema.record_size
    key_name = schema.dtype.names[schema.key_pos]
    raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, page_size)
    num_pages = len(counts)
    parts: list = []
    error = None
    # Stretches: consecutive uniform pages with one slot count, or
    # consecutive pages for the per-page path.
    kinds = np.where(uniform, counts, -1)
    edges = (np.flatnonzero(kinds[1:] != kinds[:-1]) + 1).tolist()
    for start, stop in zip([0, *edges], [*edges, num_pages]):
        if error is not None or start == stop:
            break
        if uniform[start]:
            width = int(counts[start]) * record_size
            slots = raw[start:stop, HEADER.size : HEADER.size + width].copy().view(schema.dtype)
            keys = slots[key_name]
            for page in np.flatnonzero((keys[:, 1:] < keys[:, :-1]).any(axis=1)):
                slots[page] = slots[page][np.argsort(keys[page], kind="stable")]
            parts.append(slots.reshape(-1))
            continue
        for page_no in range(start, stop):
            try:
                page = SlottedPage.from_bytes(
                    data[page_no * page_size : (page_no + 1) * page_size]
                )
            except PageError as exc:
                error = exc
                num_pages = page_no
                break
            try:
                parts.append(page_array(page, schema))
            except SchemaError:
                # Page by page, undecodable text on an earlier page fails
                # first: raise that before this page's malformed slot.
                for part in parts:
                    schema.unpack_many(part)
                raise
            counts[page_no] = len(parts[-1])
    if len(parts) == 1:
        rows = parts[0]
    elif parts:
        rows = np.concatenate(parts)
    else:
        rows = np.empty(0, dtype=schema.dtype)
    return HeapChunk(
        first_page, rows, rows[key_name], timestamps[:num_pages], counts[:num_pages],
        error, schema,
    )


#: ``page.HEADER`` as a numpy type: the headers of a buffer of pages as one
#: strided column each.
_HEADER_DTYPE = np.dtype(
    [("timestamp", "<u8"), ("slot_count", "<u4"), ("free_start", "<u4"), ("free_end", "<u4")]
)


def rows_per_page(page_size: int, record_size: int, fill_factor: float) -> int:
    """How many ``record_size``-byte records a freshly packed page takes:
    each costs its bytes plus a slot entry, against ``fill_factor`` of the
    page's usable space (0 when not even one fits the budget)."""
    return int((page_size - 24) * fill_factor) // (record_size + SLOT.size)


def encode_chunk(rows, page_timestamps, per_page: int, page_size: int) -> bytes:
    """Pack key-ordered ``rows`` (a structured array of the schema's dtype)
    into ``len(page_timestamps)`` back-to-back pages in one vectorised pass —
    the mirror of :func:`decode_chunk`.

    Page ``i`` takes ``rows[i * per_page : (i + 1) * per_page]`` in slot
    order and ``page_timestamps[i]``, so every page is full except the last,
    which holds the remainder (none at all when there are no rows).  Byte
    for byte what inserting the records into a fresh :class:`SlottedPage`
    and calling ``to_bytes`` gives: the bulk-loaded layout, whose slot
    directory is the memoized :func:`~repro.engine.page._uniform_directory`.
    """
    record_size = rows.dtype.itemsize
    pages = len(page_timestamps)
    full, rest = divmod(len(rows), per_page)
    if pages != full + (1 if rest or not full else 0):
        raise PageError(f"{len(rows)} rows at {per_page} a page are not {pages} pages")
    out = np.zeros((pages, page_size), dtype=np.uint8)
    heads = np.ndarray(pages, _HEADER_DTYPE, out, 0, (page_size,))
    heads["timestamp"] = page_timestamps
    packed = np.ascontiguousarray(rows).view(np.uint8)
    for first, stop, count in ((0, full, per_page), (full, pages, rest)):
        width = count * record_size
        free_end = page_size - SLOT.size * count
        if free_end < HEADER.size + width:
            raise PageError("page overflow during serialization")
        heads["slot_count"][first:stop] = count
        heads["free_start"][first:stop] = HEADER.size + width
        heads["free_end"][first:stop] = free_end
        if count and first < stop:
            start = first * per_page * record_size
            out[first:stop, HEADER.size : HEADER.size + width] = packed[
                start : start + (stop - first) * width
            ].reshape(stop - first, width)
            out[first:stop, free_end:] = np.frombuffer(
                _uniform_directory(count, record_size)[0], dtype=np.uint8
            )
    return out.tobytes()


class HeapFile:
    """Pages of one table inside a contiguous :class:`SimFile` extent."""

    def __init__(
        self,
        file: SimFile,
        schema: Schema,
        page_size: int = DEFAULT_PAGE_SIZE,
        io_chunk: int = DEFAULT_IO_CHUNK,
    ) -> None:
        if io_chunk % page_size != 0:
            raise StorageError(
                f"io_chunk {io_chunk} must be a multiple of page_size {page_size}"
            )
        self.file = file
        self.schema = schema
        self.page_size = page_size
        self.io_chunk = io_chunk
        self.num_pages = 0  # pages currently holding data

    # ------------------------------------------------------------- capacity
    @property
    def capacity_pages(self) -> int:
        return self.file.size // self.page_size

    @property
    def pages_per_chunk(self) -> int:
        return self.io_chunk // self.page_size

    @property
    def data_bytes(self) -> int:
        """Bytes occupied by loaded pages."""
        return self.num_pages * self.page_size

    # ------------------------------------------------------------ bulk load
    def bulk_load(
        self,
        records: Iterable[Sequence],
        fill_factor: float = DEFAULT_FILL_FACTOR,
        timestamp: int = 0,
    ) -> list[tuple[int, int]]:
        """Load records (already sorted by key) into fresh pages.

        Pages are filled to ``fill_factor`` of their usable space so that
        later insertions usually fit without splitting, then written with
        large sequential I/Os.  Returns sparse-index entries
        ``(first_key, page_no)`` for every page written.
        """
        if not 0.0 < fill_factor <= 1.0:
            raise StorageError(f"fill_factor must be in (0, 1], got {fill_factor}")
        schema = self.schema
        per_page = rows_per_page(self.page_size, schema.record_size, fill_factor)
        key_name = schema.dtype.names[schema.key_pos]
        records = iter(records)
        index_entries: list[tuple[int, int]] = []
        page_no = 0
        tail = np.empty(0, dtype=schema.dtype[schema.key_pos])  # the last key loaded
        # One write's worth of records at a time: packed, checked and laid
        # out as arrays, never as pages.
        while batch := list(islice(records, max(1, per_page) * self.pages_per_chunk)):
            if not per_page:
                budget = int((self.page_size - 24) * fill_factor)
                raise PageError(
                    f"record of {schema.record_size} bytes exceeds page budget {budget}"
                )
            rows = np.frombuffer(schema.pack_many(batch), dtype=schema.dtype)
            keys = rows[key_name]
            sequence = np.concatenate((tail, keys))
            unordered = np.flatnonzero(sequence[1:] < sequence[:-1])
            if len(unordered):
                at = unordered[0]
                raise StorageError(
                    f"bulk_load requires key order (saw {sequence[at + 1].item()} "
                    f"after {sequence[at].item()})"
                )
            tail = keys[-1:]
            pages = ceil_div(len(rows), per_page)
            self.write_pages_sequential(
                page_no,
                encode_chunk(
                    rows, np.full(pages, timestamp, dtype=np.uint64), per_page, self.page_size
                ),
            )
            index_entries.extend(
                zip(keys[::per_page].tolist(), range(page_no, page_no + pages))
            )
            page_no += pages
        if page_no == 0:
            self.write_pages_sequential(
                0, SlottedPage(self.page_size, timestamp=timestamp).to_bytes()
            )
            index_entries.append((0, 0))
            page_no = 1
        self.num_pages = page_no
        return index_entries

    # ------------------------------------------------------------ page I/O
    def read_page(self, page_no: int) -> SlottedPage:
        """Read one page with a single small (random) I/O."""
        self._check_page(page_no)
        data = self.file.read(page_no * self.page_size, self.page_size)
        return SlottedPage.from_bytes(data)

    def write_page(self, page_no: int, page: SlottedPage) -> None:
        """Write one page back in place."""
        self._check_page(page_no, allow_append=True)
        self.file.write(page_no * self.page_size, page.to_bytes())
        if page_no >= self.num_pages:
            self.num_pages = page_no + 1

    def _read_chunks(
        self, first_page: int, last_page: Optional[int]
    ) -> Iterator[tuple[int, bytes]]:
        """Yield (first page_no, bytes) per large sequential read of a page
        range — the one I/O schedule every scan shares."""
        if last_page is None:
            last_page = self.num_pages - 1
        if self.num_pages == 0 or last_page < first_page:
            return
        self._check_page(first_page)
        last_page = min(last_page, self.num_pages - 1)
        page_no = first_page
        while page_no <= last_page:
            count = min(self.pages_per_chunk, last_page - page_no + 1)
            yield page_no, self.file.read(
                page_no * self.page_size, count * self.page_size
            )
            page_no += count

    def scan_pages(
        self, first_page: int = 0, last_page: Optional[int] = None
    ) -> Iterator[tuple[int, SlottedPage]]:
        """Yield (page_no, page) over a page range using large chunked reads
        (page-at-a-time consumers: migration, the in-place baselines)."""
        page_size = self.page_size
        for page_no, data in self._read_chunks(first_page, last_page):
            for base in range(0, len(data), page_size):
                yield (
                    page_no + base // page_size,
                    SlottedPage.from_bytes(data[base : base + page_size]),
                )

    def scan_chunks(
        self, first_page: int = 0, last_page: Optional[int] = None
    ) -> Iterator[HeapChunk]:
        """Yield one decoded :class:`HeapChunk` per large chunked read of a
        page range — the same reads, in the same order, as
        :meth:`scan_pages`, decoded at that grain."""
        for page_no, data in self._read_chunks(first_page, last_page):
            yield decode_chunk(data, self.page_size, self.schema, page_no)

    def write_pages_sequential(self, start_page: int, data: bytes) -> None:
        """Write consecutive encoded pages with one large I/O (bulk load,
        migration write-back)."""
        if not data:
            return
        offset = start_page * self.page_size
        if offset + len(data) > self.file.size:
            raise StorageError(
                f"heap file {self.file.name!r} overflow: need "
                f"{offset + len(data)} bytes, extent is {self.file.size}"
            )
        self._check_page(start_page, allow_append=True)
        self.file.write(offset, data)
        end = start_page + len(data) // self.page_size
        if end > self.num_pages:
            self.num_pages = end

    def truncate(self, num_pages: int) -> None:
        """Shrink the logical page count (migration produced fewer pages).

        The released tail is zeroed: ``num_pages`` is volatile, and crash
        recovery finds the heap's end by scanning to the first unformatted
        page — stale formatted pages past the end would come back as rows.
        Nothing is written when the heap does not shrink.
        """
        if num_pages < 0 or num_pages > self.capacity_pages:
            raise StorageError(f"cannot truncate to {num_pages} pages")
        released = self.num_pages - num_pages
        if released > 0:
            self.file.zero_range(
                num_pages * self.page_size, released * self.page_size
            )
        self.num_pages = num_pages

    def _check_page(self, page_no: int, allow_append: bool = False) -> None:
        limit = self.capacity_pages if allow_append else self.num_pages
        if not 0 <= page_no < max(limit, 1):
            raise StorageError(
                f"page {page_no} out of range ({limit} pages in {self.file.name!r})"
            )

    @staticmethod
    def required_size(
        record_count: int,
        schema: Schema,
        page_size: int = DEFAULT_PAGE_SIZE,
        fill_factor: float = DEFAULT_FILL_FACTOR,
        slack: float = 0.25,
    ) -> int:
        """Extent size to hold ``record_count`` records plus insertion slack."""
        per_page = max(1, rows_per_page(page_size, schema.record_size, fill_factor))
        pages = ceil_div(record_count, per_page)
        return int(pages * (1.0 + slack) + 2) * page_size
