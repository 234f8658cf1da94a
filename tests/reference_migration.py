"""Reference implementations kept for the migration and bulk-load tests.

``rewrite_heap_streaming`` is the record-at-a-time in-place rewrite that
``repro.core.migration`` used before the rewrite moved to I/O grain (one
array join per heap chunk, one chunk encoder per write): every record is
unpacked, joined with the update stream by key comparison, packed again and
inserted into a :class:`SlottedPage`.  ``reference_bulk_load`` is the
page-at-a-time loader ``HeapFile.bulk_load`` used before it packed through
the same chunk encoder.  Production code does not import this module; the
property suites compare heap bytes, index entries, stats and yielded rows
against it.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.update import UpdateRecord, apply_update
from repro.engine.heapfile import DEFAULT_FILL_FACTOR, page_records
from repro.engine.page import SlottedPage
from repro.errors import PageError, StorageError


def rewrite_heap_with_updates(
    heap, schema, updates: Iterator[UpdateRecord], stats
) -> tuple[int, list[tuple[int, int]], int]:
    """Stream-rewrite the heap applying ``updates``; in-place write-behind.

    Returns (row_count, sparse index entries, output page count).
    """
    generator = rewrite_heap_streaming(heap, schema, updates, stats)
    while True:
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value


def rewrite_heap_streaming(
    heap, schema, updates: Iterator[UpdateRecord], stats
):
    """Generator form of the in-place rewrite: yields every output record.

    This is what makes the "combine the migration with a table scan query"
    optimization of Section 3.5 possible — a query can consume the merged
    record stream while the very same pass writes the pages back.  Returns
    (row_count, sparse index entries, output page count) as the generator's
    value.
    """
    page_size = heap.page_size
    budget = int((page_size - 24) * DEFAULT_FILL_FACTOR)
    chunk_pages = heap.pages_per_chunk

    out_chunk: list[SlottedPage] = []
    entries: list[tuple[int, int]] = []
    rows = 0
    read_frontier = 0  # input pages consumed
    write_frontier = 0  # output pages written

    current = SlottedPage(page_size)
    current_used = 0
    current_first_key: Optional[int] = None

    def close_current() -> None:
        nonlocal current, current_used, current_first_key
        entries.append(
            (current_first_key if current_first_key is not None else 0,
             write_frontier + len(out_chunk))
        )
        out_chunk.append(current)
        current = SlottedPage(page_size)
        current_used = 0
        current_first_key = None

    def flush_out(force: bool = False) -> None:
        """Write buffered output pages behind the read frontier.

        In-place safety: a non-forced flush never writes a page the scan has
        not read yet.  A forced flush (input exhausted) may extend into the
        file's slack capacity.
        """
        nonlocal write_frontier
        while out_chunk:
            count = min(chunk_pages, len(out_chunk))
            if not force:
                if len(out_chunk) < chunk_pages:
                    return
                if write_frontier + count > read_frontier:
                    return  # would overwrite unread input: wait for reads
            batch = out_chunk[:count]
            del out_chunk[:count]
            heap.write_pages_sequential(
                write_frontier, b"".join(page.to_bytes() for page in batch)
            )
            write_frontier += count
            stats.pages_written += count

    def emit(record: tuple, ts: int) -> None:
        nonlocal current_used, current_first_key, rows
        data = schema.pack(record)
        cost = len(data) + 8
        if current_used + cost > budget or not current.fits(len(data)):
            close_current()
            flush_out()
        current.insert(data)
        current.timestamp = max(current.timestamp, ts)
        current_used += cost
        if current_first_key is None:
            current_first_key = schema.key(record)
        rows += 1

    update = next(updates, None)
    total_pages = heap.num_pages
    for page_no, page in heap.scan_pages(0, total_pages - 1):
        read_frontier = page_no + 1
        stats.pages_read += 1
        page_ts = page.timestamp
        for record in page_records(page, schema):
            key = schema.key(record)
            while update is not None and update.key < key:
                produced = apply_update(None, update, schema)
                if produced is not None:
                    emit(produced, update.timestamp)
                    yield produced
                stats.updates_applied += 1
                update = next(updates, None)
            if update is not None and update.key == key:
                if update.timestamp > page_ts:
                    produced = apply_update(record, update, schema)
                    if produced is not None:
                        emit(produced, max(page_ts, update.timestamp))
                        yield produced
                else:
                    emit(record, page_ts)
                    yield record
                stats.updates_applied += 1
                update = next(updates, None)
            else:
                emit(record, page_ts)
                yield record
        flush_out()
    while update is not None:
        produced = apply_update(None, update, schema)
        if produced is not None:
            emit(produced, update.timestamp)
            yield produced
        stats.updates_applied += 1
        update = next(updates, None)
    if current.slot_count or not entries:
        close_current()
    read_frontier = max(read_frontier, total_pages)
    flush_out(force=True)
    return rows, entries, write_frontier


def reference_bulk_load(heap, records, fill_factor=DEFAULT_FILL_FACTOR, timestamp=0):
    """Page-at-a-time bulk load: sparse-index entries, file written."""
    if not 0.0 < fill_factor <= 1.0:
        raise StorageError(f"fill_factor must be in (0, 1], got {fill_factor}")
    index_entries: list[tuple[int, int]] = []
    chunk = bytearray()
    page = SlottedPage(heap.page_size, timestamp=timestamp)
    page_no = 0
    budget = int((heap.page_size - 24) * fill_factor)
    used = 0
    first_key: Optional[int] = None
    last_key: Optional[int] = None

    def flush_chunk() -> None:
        start_page = page_no - len(chunk) // heap.page_size
        heap.file.write(start_page * heap.page_size, bytes(chunk))
        chunk.clear()

    def close_page() -> None:
        nonlocal page, page_no, used, first_key
        chunk.extend(page.to_bytes())
        index_entries.append((first_key if first_key is not None else 0, page_no))
        page_no += 1
        if len(chunk) >= heap.io_chunk:
            flush_chunk()
        page = SlottedPage(heap.page_size, timestamp=timestamp)
        used = 0
        first_key = None

    for record in records:
        key = heap.schema.key(record)
        if last_key is not None and key < last_key:
            raise StorageError(
                f"bulk_load requires key order (saw {key} after {last_key})"
            )
        last_key = key
        data = heap.schema.pack(record)
        cost = len(data) + 8  # record plus slot entry
        if used + cost > budget or not page.fits(len(data)):
            if used == 0:
                raise PageError(
                    f"record of {len(data)} bytes exceeds page budget {budget}"
                )
            close_page()
        page.insert(data)
        used += cost
        if first_key is None:
            first_key = key
    if used > 0 or page_no == 0:
        close_page()
    if chunk:
        flush_chunk()
    heap.num_pages = page_no
    return index_entries


def reference_full_migration(masm):
    """``CoordinatedMigration`` over the record-at-a-time rewrite: flush the
    buffer, merge every run, rewrite, swap the index in, retire the runs.
    Returns ``(yielded records, MigrationStats)``; no redo log."""
    from repro.core.migration import MigrationStats
    from repro.core.operators import MergeUpdates

    table = masm.table
    masm.flush_buffer()
    runs = list(masm.runs)
    t = masm.oracle.next()
    updates = iter(
        MergeUpdates(
            masm.run_update_sources(runs, 0, 2**63 - 1, query_ts=t, use_cache=False),
            cpu=masm.cpu,
        )
    )
    stats = MigrationStats(timestamp=t)
    generator = rewrite_heap_streaming(table.heap, table.schema, updates, stats)
    records = []
    while True:
        try:
            records.append(next(generator))
        except StopIteration as stop:
            stats.rows_after, entries, out_pages = stop.value
            break
    table.heap.truncate(out_pages)
    table.replace_contents(entries, stats.rows_after)
    masm.retire_runs(runs, barrier_ts=t)
    masm.migrated_through = max(masm.migrated_through, t)
    stats.runs_retired = len(runs)
    return records, stats
