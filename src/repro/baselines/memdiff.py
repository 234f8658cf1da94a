"""In-memory differential updates (PDT-style) — the Figure 1 comparand.

The prior state of the art ([11, 22] in the paper): updates are cached in an
in-memory structure with a positional index and merged into scans on the
fly.  When the buffer fills, *all* updates migrate by scanning the warehouse,
applying the updates, and writing a **new copy** of the data, which is then
swapped in — doubling the disk-capacity requirement and making migration
overhead inversely proportional to the (expensive) memory buffer.

This engine exists to measure exactly those two properties against MaSM.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.migration import MigrationStats
from repro.core.operators import MergeDataUpdates, MergeUpdates
from repro.core.update import UpdateCodec, UpdateColumns, UpdateRecord, UpdateType
from repro.engine.btree import BPlusTree
from repro.engine.heapfile import HeapFile
from repro.engine.table import Table
from repro.storage.file import StorageVolume
from repro.txn.timestamps import TimestampOracle


class InMemoryDifferential:
    """Differential updates cached purely in memory, PDT-style."""

    def __init__(
        self,
        table: Table,
        memory_bytes: int,
        oracle: Optional[TimestampOracle] = None,
        disk_volume: Optional[StorageVolume] = None,
        auto_migrate: bool = True,
    ) -> None:
        self.table = table
        self.memory_bytes = memory_bytes
        self.oracle = oracle or TimestampOracle()
        self.codec = UpdateCodec(table.schema)
        # ``disk_volume`` is where migration allocates the new data copy;
        # default: the volume backing the table's heap file.
        self.disk = disk_volume or table.heap.file.volume
        self.auto_migrate = auto_migrate
        #: key -> (timestamp, encoded update), a key's updates in arrival order.
        self._tree = BPlusTree()
        self._bytes = 0
        self._copy_seq = 0
        self.migrations = 0
        self.updates_ingested = 0

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
        encoded = self.codec.encode(update)
        self._tree.insert(update.key, (update.timestamp, encoded))
        self._bytes += len(encoded)
        self.updates_ingested += 1
        if self.auto_migrate and self._bytes >= self.memory_bytes:
            self.migrate()

    @property
    def used_bytes(self) -> int:
        return self._bytes

    # ------------------------------------------------------------------ scans
    def _updates(self, begin_key: int, end_key: int, query_ts: int) -> UpdateColumns:
        """The cached updates of keys in [begin, end] visible at
        ``query_ts``, in (key, ts) order, as encoded."""
        visible = [
            encoded
            for _key, (ts, encoded) in self._tree.range(begin_key, end_key)
            if ts <= query_ts
        ]
        return UpdateColumns.from_encoded(visible, self.codec).sorted()

    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        query_ts = self.oracle.next()
        updates = MergeUpdates([self._updates(begin_key, end_key, query_ts)], cpu=self.table.cpu)
        return iter(
            MergeDataUpdates(
                None,
                updates,
                self.table.schema,
                cpu=self.table.cpu,
                data_chunks=self.table.range_scan_pair_chunks(begin_key, end_key),
            )
        )

    # -------------------------------------------------------------- migration
    def migrate(self) -> Optional[MigrationStats]:
        """Migrate by writing a *new copy* of the table, then swapping it in.

        This is the prior-art migration the paper contrasts with MaSM's
        in-place scheme: it needs a second extent as large as the data.
        """
        if len(self._tree) == 0:
            return None
        t = self.oracle.next()
        updates = iter(MergeUpdates([self._updates(0, 2**63 - 1, t)], cpu=self.table.cpu))
        heap = self.table.heap
        copy_name = f"{self.table.name}-copy-{self._copy_seq}"
        self._copy_seq += 1
        new_file = self.disk.create(copy_name, heap.file.size)
        new_heap = HeapFile(
            new_file, self.table.schema, page_size=heap.page_size, io_chunk=heap.io_chunk
        )
        stats = MigrationStats(timestamp=t)

        # Reuse the streaming rewrite, but read from the old heap and write
        # to the copy: read/write frontiers never conflict across files.
        rows, entries, out_pages = _copy_rewrite(heap, new_heap, self.table.schema, updates, stats)
        new_heap.num_pages = out_pages
        old_name = heap.file.name
        self.table.heap = new_heap
        self.table.replace_contents(entries, rows)
        self.disk.delete(old_name)
        self._tree = BPlusTree()
        self._bytes = 0
        self.migrations += 1
        stats.rows_after = rows
        return stats


def _copy_rewrite(src: HeapFile, dst: HeapFile, schema, updates, stats) -> tuple:
    """Stream src pages + updates into dst (migration to a new copy)."""
    from repro.core.update import apply_update
    from repro.engine.heapfile import DEFAULT_FILL_FACTOR
    from repro.engine.page import SlottedPage

    budget = int((dst.page_size - 24) * DEFAULT_FILL_FACTOR)
    out: list[SlottedPage] = []
    entries: list[tuple[int, int]] = []
    rows = 0
    written = 0
    current = SlottedPage(dst.page_size)
    used = 0
    first_key = None

    def close_page() -> None:
        nonlocal current, used, first_key, written
        entries.append((first_key if first_key is not None else 0, written + len(out)))
        out.append(current)
        current = SlottedPage(dst.page_size)
        used = 0
        first_key = None
        if len(out) >= dst.pages_per_chunk:
            flush()

    def flush() -> None:
        nonlocal written
        if not out:
            return
        dst.write_pages_sequential(written, b"".join(page.to_bytes() for page in out))
        written += len(out)
        stats.pages_written += len(out)
        out.clear()

    def emit(record: tuple, ts: int) -> None:
        nonlocal used, first_key, rows
        data = schema.pack(record)
        cost = len(data) + 8
        if used + cost > budget or not current.fits(len(data)):
            close_page()
        current.insert(data)
        current.timestamp = max(current.timestamp, ts)
        used += cost
        if first_key is None:
            first_key = schema.key(record)
        rows += 1

    update = next(updates, None)
    for _page_no, page in src.scan_pages():
        stats.pages_read += 1
        page_ts = page.timestamp
        records = sorted(
            (schema.unpack(d) for _, d in page.records()), key=schema.key
        )
        for record in records:
            key = schema.key(record)
            while update is not None and update.key < key:
                produced = apply_update(None, update, schema)
                if produced is not None:
                    emit(produced, update.timestamp)
                stats.updates_applied += 1
                update = next(updates, None)
            if update is not None and update.key == key:
                if update.timestamp > page_ts:
                    produced = apply_update(record, update, schema)
                    if produced is not None:
                        emit(produced, max(page_ts, update.timestamp))
                else:
                    emit(record, page_ts)
                stats.updates_applied += 1
                update = next(updates, None)
            else:
                emit(record, page_ts)
    while update is not None:
        produced = apply_update(None, update, schema)
        if produced is not None:
            emit(produced, update.timestamp)
        stats.updates_applied += 1
        update = next(updates, None)
    if current.slot_count or not entries:
        close_page()
    flush()
    return rows, entries, written
