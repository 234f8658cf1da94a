"""Indexed Updates (IU) extended to SSDs — the Section 2.3 baseline.

The "ideal-case IU" the paper implements for Figure 9: incoming updates are
*appended* to insert/delete/modify tables on the SSD (avoiding random SSD
writes) while an in-memory index maps keys to the update entries.  During a
range scan, every relevant update entry costs one small synchronous SSD read
that fetches a whole page and discards all but one entry — the wasteful
random-read pattern behind IU's up-to-3.8x slowdowns.

The index lives entirely in memory ("we model the best performance for IU"),
which also demonstrates IU's much larger memory footprint compared to MaSM.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.operators import MergeDataUpdates, MergeUpdates
from repro.core.update import UpdateCodec, UpdateColumns, UpdateRecord, UpdateType
from repro.engine.btree import BPlusTree
from repro.engine.table import Table
from repro.errors import UpdateCacheFullError
from repro.storage.file import SimFile, StorageVolume
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB

IU_PAGE = 4 * KB  # "the SSD has 4KB internal page size, IU uses 4KB I/Os"

#: Estimated bytes of index memory per cached update entry (key, location,
#: tree overhead) — used to report IU's memory footprint.
INDEX_BYTES_PER_ENTRY = 64


class _AppendTable:
    """An append-only update table on the SSD, written in 4 KB pages."""

    def __init__(self, file: SimFile) -> None:
        self.file = file
        self._page = bytearray()
        self._page_base = 0  # file offset of the buffered page

    @property
    def used_bytes(self) -> int:
        return self._page_base + len(self._page)

    def append(self, data: bytes) -> tuple[int, int]:
        """Append an entry; returns (file_offset, length).

        Full pages are written out; entries never straddle a page so one
        page read retrieves a whole entry (like the paper's IU layout).
        """
        if len(self._page) + len(data) > IU_PAGE:
            self._flush_page()
        offset = self._page_base + len(self._page)
        self._page.extend(data)
        if len(self._page) >= IU_PAGE:
            self._flush_page()
        return offset, len(data)

    def _flush_page(self) -> None:
        if not self._page:
            return
        if self._page_base + IU_PAGE > self.file.size:
            raise UpdateCacheFullError(
                f"IU table {self.file.name!r} is full"
            )
        self.file.write(self._page_base, bytes(self._page).ljust(IU_PAGE, b"\x00"))
        self._page_base += IU_PAGE
        self._page.clear()

    def read_entry(self, offset: int, length: int) -> bytes:
        """Fetch one entry: reads (and discards most of) a whole SSD page."""
        if offset >= self._page_base:
            # Still in the memory page (not yet written).
            start = offset - self._page_base
            return bytes(self._page[start : start + length])
        page_start = (offset // IU_PAGE) * IU_PAGE
        read_sync = getattr(self.file.device, "read_sync", None)
        if read_sync is not None:
            page = read_sync(self.file.offset + page_start, IU_PAGE)
        else:  # non-SSD device (the HDD-as-cache experiment)
            page = self.file.device.read(self.file.offset + page_start, IU_PAGE)
        start = offset - page_start
        return page[start : start + length]


class IndexedUpdates:
    """The IU differential-update engine (in-memory index + SSD tables)."""

    def __init__(
        self,
        table: Table,
        ssd_volume: StorageVolume,
        oracle: Optional[TimestampOracle] = None,
        cache_bytes: Optional[int] = None,
        name: str = "iu",
    ) -> None:
        self.table = table
        self.ssd = ssd_volume
        self.oracle = oracle or TimestampOracle()
        self.codec = UpdateCodec(table.schema)
        total = cache_bytes or ssd_volume.device.capacity
        per_table = (total // 3 // IU_PAGE) * IU_PAGE
        self.tables = {
            kind: _AppendTable(ssd_volume.create(f"{name}-{label}", per_table))
            for kind, label in [
                (UpdateType.INSERT, "inserts"),
                (UpdateType.DELETE, "deletes"),
                (UpdateType.MODIFY, "modifies"),
            ]
        }
        # Positional index on the cached updates: key -> (type, offset, len, ts).
        self.index = BPlusTree()
        self.cached_updates = 0

    # ---------------------------------------------------------------- updates
    def insert(self, record: tuple) -> int:
        ts = self.oracle.next()
        self.apply(
            UpdateRecord(ts, self.table.schema.key(record), UpdateType.INSERT, record)
        )
        return ts

    def delete(self, key: int) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.DELETE, None))
        return ts

    def modify(self, key: int, changes: dict) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.MODIFY, dict(changes)))
        return ts

    def apply(self, update: UpdateRecord) -> None:
        kind = (
            UpdateType.INSERT
            if update.type in (UpdateType.INSERT, UpdateType.REPLACE)
            else update.type
        )
        data = self.codec.encode(update)
        offset, length = self.tables[kind].append(data)
        self.index.insert(update.key, (kind, offset, length, update.timestamp))
        self.cached_updates += 1

    # ------------------------------------------------------------------ scans
    def _updates_for_range(
        self, begin_key: int, end_key: int, query_ts: int
    ) -> UpdateColumns:
        """The cached updates of keys in [begin, end] visible at
        ``query_ts``, each entry fetched with one random read, in (key, ts)
        order as stored — the merge combines each key's chain."""
        fetched = [
            self.tables[kind].read_entry(offset, length)
            for _key, (kind, offset, length, ts) in self.index.range(begin_key, end_key)
            if ts <= query_ts
        ]
        return UpdateColumns.from_encoded(fetched, self.codec).sorted()

    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        """Fresh records: table scan merged with index-fetched updates."""
        query_ts = self.oracle.next()
        updates = MergeUpdates([self._updates_for_range(begin_key, end_key, query_ts)])
        return iter(
            MergeDataUpdates(
                None,
                updates,
                self.table.schema,
                cpu=self.table.cpu,
                data_chunks=self.table.range_scan_pair_chunks(begin_key, end_key),
            )
        )

    # ------------------------------------------------------------- accounting
    @property
    def cached_bytes(self) -> int:
        return sum(t.used_bytes for t in self.tables.values())

    @property
    def index_memory_bytes(self) -> int:
        """The in-memory index cost the paper calls out for IU."""
        return len(self.index) * INDEX_BYTES_PER_ENTRY
