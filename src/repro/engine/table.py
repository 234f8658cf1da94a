"""Key-clustered row-store tables with range scans and in-place updates.

A :class:`Table` binds a schema, a heap file, and a sparse primary index.
Range scans stream records in key order using large sequential I/Os — the
access pattern the whole paper optimizes for.  In-place point updates use
4 KB read-modify-write I/Os, the conventional approach whose interference
Section 2.2 measures.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.engine.btree import BPlusTree
from repro.engine.heapfile import DEFAULT_IO_CHUNK, HeapFile, page_records
from repro.engine.index import SparsePrimaryIndex
from repro.engine.page import DEFAULT_PAGE_SIZE, SlottedPage
from repro.engine.record import Schema
from repro.errors import DuplicateKeyError, KeyNotFoundError
from repro.storage.file import StorageVolume
from repro.storage.iosched import SCAN_CPU_PER_RECORD, CpuMeter
from repro.util.search import key_position

#: Records per chunk when a (record, page_ts) pair stream is chunked.
PAIR_CHUNK_RECORDS = 1024


def pair_chunks(
    pairs: Iterable[tuple[tuple, int]], schema: Schema
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Chunk a key-ordered (record, page_ts) stream into the
    ``(rows, keys, timestamps)`` form of
    :meth:`Table.range_scan_pair_chunks` (records packed back into a
    structured array: the rare path takes the join's one input shape)."""
    pairs = iter(pairs)
    key_name = schema.dtype.names[schema.key_pos]
    while True:
        chunk = list(islice(pairs, PAIR_CHUNK_RECORDS))
        if not chunk:
            return
        rows = np.frombuffer(
            schema.pack_many(record for record, _ in chunk), dtype=schema.dtype
        )
        yield (
            rows,
            rows[key_name].astype(np.uint64),
            np.fromiter((ts for _, ts in chunk), np.uint64, len(chunk)),
        )


class Table:
    """One clustered table stored in a heap file on a simulated disk."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        heap: HeapFile,
        cpu: Optional[CpuMeter] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self.heap = heap
        self.index = SparsePrimaryIndex()
        self.cpu = cpu
        self.row_count = 0
        # Records that overflowed their target page live here until the next
        # migration/reorganization rewrites the file.  Scans merge them in so
        # correctness never depends on page slack.
        self._overflow = BPlusTree()

    # ----------------------------------------------------------- construction
    @classmethod
    def create(
        cls,
        volume: StorageVolume,
        name: str,
        schema: Schema,
        expected_records: int,
        page_size: int = DEFAULT_PAGE_SIZE,
        io_chunk: int = DEFAULT_IO_CHUNK,
        cpu: Optional[CpuMeter] = None,
        slack: float = 0.25,
    ) -> "Table":
        """Allocate the file extent and return an empty table."""
        size = HeapFile.required_size(
            expected_records, schema, page_size=page_size, slack=slack
        )
        file = volume.create(name, size)
        heap = HeapFile(file, schema, page_size=page_size, io_chunk=io_chunk)
        return cls(name, schema, heap, cpu=cpu)

    def bulk_load(
        self,
        records: Iterable[Sequence],
        timestamp: int = 0,
        fill_factor: Optional[float] = None,
    ) -> None:
        """Load key-ordered records and build the sparse index.

        ``fill_factor`` caps how full each page is packed (heap default when
        None); loading below 1.0 leaves slack so later in-place migration can
        absorb inserts without a heap rewrite.
        """
        count = 0

        def counting() -> Iterator[Sequence]:
            nonlocal count
            for record in records:
                count += 1
                yield record

        kwargs = {} if fill_factor is None else {"fill_factor": fill_factor}
        entries = self.heap.bulk_load(counting(), timestamp=timestamp, **kwargs)
        self.index.rebuild(entries)
        self.row_count = count

    # ----------------------------------------------------------------- sizing
    @property
    def data_bytes(self) -> int:
        return self.heap.data_bytes

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def full_key_range(self) -> tuple[int, int]:
        """A (begin, end) range covering every possible key."""
        return 0, 2**63 - 1

    # ------------------------------------------------------------------ scans
    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        """Stream records with begin_key <= key <= end_key, in key order."""
        if self.heap.num_pages == 0 or self.index.is_empty:
            yield from self._overflow_range(begin_key, end_key)
            return
        first, last = self.index.page_span(begin_key, end_key)

        def from_pages() -> Iterator[tuple]:
            for _, page in self.heap.scan_pages(first, last):
                for record in page_records(page, self.schema):
                    key = self.schema.key(record)
                    if key < begin_key:
                        continue
                    if key > end_key:
                        return
                    yield record

        merged = heapq.merge(
            from_pages(),
            self._overflow_range(begin_key, end_key),
            key=self.schema.key,
        )
        count = 0
        for record in merged:
            count += 1
            yield record
        if self.cpu is not None and count:
            self.cpu.charge(count * SCAN_CPU_PER_RECORD, kind="scan")

    def _overflow_range(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        for _, record in self._overflow.range(begin_key, end_key):
            yield record

    def range_scan_pairs(
        self, begin_key: int, end_key: int
    ) -> Iterator[tuple[tuple, int]]:
        """Like :meth:`range_scan` but yields (record, page_timestamp) pairs.

        The page timestamp is the commit time of the last update applied to
        the record's page — what MergeDataUpdates compares against cached
        update timestamps to support queries during in-place migration.
        """
        if self.heap.num_pages == 0 or self.index.is_empty:
            for record in self._overflow_range(begin_key, end_key):
                yield record, 0
            return
        first, last = self.index.page_span(begin_key, end_key)

        def from_pages() -> Iterator[tuple[tuple, int]]:
            for _, page in self.heap.scan_pages(first, last):
                for record in page_records(page, self.schema):
                    key = self.schema.key(record)
                    if key < begin_key:
                        continue
                    if key > end_key:
                        return
                    yield record, page.timestamp

        overflow = ((r, 0) for r in self._overflow_range(begin_key, end_key))
        merged = heapq.merge(
            from_pages(), overflow, key=lambda pair: self.schema.key(pair[0])
        )
        count = 0
        for pair in merged:
            count += 1
            yield pair
        if self.cpu is not None and count:
            self.cpu.charge(count * SCAN_CPU_PER_RECORD, kind="scan")

    def range_scan_pair_chunks(
        self, begin_key: int, end_key: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Chunk-at-a-time form of :meth:`range_scan_pairs`.

        Yields ``(rows, keys, timestamps)`` — the records as a structured
        array of the schema's dtype, their uint64 key column and each
        record's page timestamp, aligned and in key order — one per heap I/O
        chunk, for the array outer join
        (:class:`~repro.core.operators.MergeDataUpdates` with
        ``data_chunks``); no record tuple is built here.  Each chunk is
        decoded in one pass
        (:func:`~repro.engine.heapfile.decode_chunk`) and read only when the
        consumer asks for it, so the device sees the reads of
        :meth:`range_scan_pairs` in the same order.  When overflow records
        exist the page/overflow interleave falls back to chunking
        :meth:`range_scan_pairs`.
        """
        if self.overflow_count or self.heap.num_pages == 0 or self.index.is_empty:
            yield from pair_chunks(
                self.range_scan_pairs(begin_key, end_key), self.schema
            )
            return
        first, last = self.index.page_span(begin_key, end_key)
        count = 0
        for chunk in self.heap.scan_chunks(first, last):
            if chunk.error is not None:
                raise chunk.error
            keys = chunk.keys.astype(np.uint64)
            if not len(keys):
                continue
            lo = 0
            hi = len(keys)
            if keys[0] < begin_key:
                lo = key_position(keys, begin_key, "left")
            done = keys[-1] > end_key
            if done:
                hi = key_position(keys, end_key, "right")
            if lo < hi:
                count += hi - lo
                yield (
                    chunk.rows[lo:hi],
                    keys[lo:hi],
                    chunk.record_timestamps()[lo:hi],
                )
            if done:
                break
        if self.cpu is not None and count:
            self.cpu.charge_batch(count, SCAN_CPU_PER_RECORD, kind="scan")

    def scan_page_range(
        self, begin_key: Optional[int] = None, end_key: Optional[int] = None
    ) -> Iterator[tuple[int, SlottedPage]]:
        """Yield (page_no, page) pairs for migration-style page processing."""
        if self.heap.num_pages == 0:
            return iter(())
        if begin_key is None or end_key is None:
            return self.heap.scan_pages()
        first, last = self.index.page_span(begin_key, end_key)
        return self.heap.scan_pages(first, last)

    # ----------------------------------------------------------- point access
    def get(self, key: int) -> tuple:
        """Point lookup by primary key (one 4 KB random read)."""
        hit = self._overflow.search(key)
        if hit:
            return hit[0]
        if self.index.is_empty:
            raise KeyNotFoundError(f"{self.name}: key {key} (empty table)")
        page = self.heap.read_page(self.index.locate_page(key))
        for _, data in page.records():
            record = self.schema.unpack(data)
            if self.schema.key(record) == key:
                return record
        raise KeyNotFoundError(f"{self.name}: key {key}")

    # ------------------------------------------------------- in-place updates
    def insert_in_place(self, record: Sequence, timestamp: int = 0) -> None:
        """Conventional insert: 4 KB read-modify-write on the target page."""
        key = self.schema.key(record)
        data = self.schema.pack(record)
        page_no = self.index.locate_page(key)
        page = self.heap.read_page(page_no)
        for _, existing in page.records():
            if self.schema.key(self.schema.unpack(existing)) == key:
                raise DuplicateKeyError(f"{self.name}: key {key} exists")
        if self._overflow.search(key):
            raise DuplicateKeyError(f"{self.name}: key {key} exists (overflow)")
        if not page.fits(len(data)):
            page.compact()
        if page.fits(len(data)):
            page.insert(data)
            page.timestamp = max(page.timestamp, timestamp)
            self.heap.write_page(page_no, page)
        else:
            self._overflow.insert(key, tuple(record))
        self.row_count += 1

    def delete_in_place(self, key: int, timestamp: int = 0) -> None:
        """Conventional delete: 4 KB read-modify-write on the target page."""
        if self._overflow.delete(key):
            self.row_count -= 1
            return
        page_no = self.index.locate_page(key)
        page = self.heap.read_page(page_no)
        for slot, data in page.records():
            if self.schema.key(self.schema.unpack(data)) == key:
                page.delete(slot)
                page.timestamp = max(page.timestamp, timestamp)
                self.heap.write_page(page_no, page)
                self.row_count -= 1
                return
        raise KeyNotFoundError(f"{self.name}: key {key}")

    def modify_in_place(self, key: int, changes: dict, timestamp: int = 0) -> None:
        """Conventional modify: 4 KB read-modify-write on the target page."""
        hit = self._overflow.search(key)
        if hit:
            updated = self.schema.apply_modification(hit[0], changes)
            self._overflow.delete(key)
            self._overflow.insert(key, updated)
            return
        page_no = self.index.locate_page(key)
        page = self.heap.read_page(page_no)
        for slot, data in page.records():
            record = self.schema.unpack(data)
            if self.schema.key(record) == key:
                updated = self.schema.apply_modification(record, changes)
                page.replace(slot, self.schema.pack(updated))
                page.timestamp = max(page.timestamp, timestamp)
                self.heap.write_page(page_no, page)
                return
        raise KeyNotFoundError(f"{self.name}: key {key}")

    # -------------------------------------------------------------- migration
    def replace_contents(
        self, entries: list[tuple[int, int]], row_count: int
    ) -> None:
        """Swap in a fresh sparse index after migration rewrote the pages."""
        self.index.rebuild(entries)
        self.row_count = row_count
        self._overflow = BPlusTree()

    @property
    def overflow_count(self) -> int:
        return len(self._overflow)
