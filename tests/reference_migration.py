"""Reference implementations kept for the migration and bulk-load tests.

``rewrite_heap_streaming`` is the record-at-a-time in-place rewrite that
``repro.core.migration`` used before the rewrite moved to I/O grain (one
array join per heap chunk, one chunk encoder per write): every record is
unpacked, joined with the update stream by key comparison, packed again and
inserted into a :class:`SlottedPage`.  ``reference_bulk_load`` is the
page-at-a-time loader ``HeapFile.bulk_load`` used before it packed through
the same chunk encoder.  ``migrate_range`` (with ``_split_tail_page``) is
the partial migration from before it moved onto the full migration's array
join: one ``UpdateRecord`` at a time, a linear slot search per update and
``SlottedPage`` edits in place.  ``_copy_rewrite`` is the record-at-a-time
copy the in-memory differential baseline migrated with before it went
through ``rewrite_heap``; ``reference_copy_migrate`` runs it the way
``InMemoryDifferential.migrate`` did.  Production code does not import this
module; the property suites compare heap bytes, index entries, stats and
yielded rows against it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.engine.btree import BPlusTree
from repro.core.manifest import MigrationEnded, MigrationStarted
from repro.core.migration import MigrationStats, _align_to_page_spans
from repro.core.sortedrun import subtract_spans
from repro.core.operators import MergeUpdates
from repro.core.update import UpdateRecord, UpdateType, apply_update
from repro.engine.heapfile import DEFAULT_FILL_FACTOR, HeapFile, page_records
from repro.engine.page import SlottedPage
from repro.errors import PageError, StorageError
from repro.obs import trace
from repro.sim.hooks import interleave as sim_interleave
from repro.storage.faults import crash_point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.masm import MaSM


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
    masm.end_migration(MigrationEnded(t, tuple(runs)))
    stats.runs_retired = len(runs)
    return records, stats


# ------------------------------------------------------------- partial migration
def migrate_range(
    masm: "MaSM", begin_key: int, end_key: int, redo_log=None
) -> Optional[MigrationStats]:
    """Migrate only updates with keys in [begin, end] (Section 3.5).

    Pages are updated with read-modify-writes in page order.  A page whose
    insertions do not fit is left untouched (its updates stay cached), so
    page timestamps never claim an unapplied update.  Runs whose whole key
    range has been migrated are retired.
    """
    table = masm.table
    schema = table.schema
    if table.index.is_empty:
        return None
    # The timestamp rule is page-granular: a page's timestamp asserts that
    # every cached update for the page's whole key span up to that time is
    # applied.  A range that split a page's span would stamp the page while
    # leaving out-of-range updates for the same page cached — and a later
    # migration would wrongly skip them as already applied.  Expand the
    # requested range outward to whole page spans so that can never happen.
    begin_key, end_key = _align_to_page_spans(table, begin_key, end_key)
    # In-place application is invisible to a concurrent scan only when every
    # applied update lies within the scan's snapshot (the page-timestamp
    # rule then dedupes the run's copy).  A run holding updates *newer* than
    # the oldest active query timestamp must stay cached until that query
    # finishes — the non-blocking form of Section 3.2's "wait for ongoing
    # queries earlier than t".
    oldest_scan_ts = masm.oldest_active_query_ts()
    runs = [
        run
        for run in masm.runs
        if run.min_key <= end_key
        and run.max_key >= begin_key
        and (oldest_scan_ts is None or run.max_ts <= oldest_scan_ts)
    ]
    if not runs:
        return None
    sim_interleave("migration.slice")
    t = masm.oracle.next()
    if redo_log is not None:
        redo_log.log_edit(masm.table.name, MigrationStarted(t))
    updates = iter(
        MergeUpdates(
            masm.run_update_sources(runs, begin_key, end_key, query_ts=t),
            cpu=masm.cpu,
        )
    )
    stats = MigrationStats(timestamp=t)
    failed_spans: list[tuple[int, int]] = []
    with trace("migration.range", runs=len(runs)):
        update = next(updates, None)
        heap = table.heap
        index = table.index
        row_delta = 0
        while update is not None:
            page_no = index.locate_page(update.key)
            page_span = _page_key_span(table, page_no, end_key)
            page_updates = []
            while update is not None and update.key <= page_span[1]:
                page_updates.append(update)
                update = next(updates, None)
            page = heap.read_page(page_no)
            stats.pages_read += 1
            sim_interleave("migration.page")
            # Same crash-point site as the full rewrite's ``emit``: fires
            # once per page about to be rewritten, so a plan can kill a
            # paced migration slice mid-flight (START logged, END not).
            crash_point("migration.emit")
            applied, delta = _apply_to_page(page, page_updates, schema)
            if (
                applied is None
                and page_no == heap.num_pages - 1
                and not masm._active_scans
            ):
                # The physically-last page owns the open-ended tail of the
                # key space, so append-heavy floods concentrate there and
                # can never fit in place.  Because it is physically last it
                # can be split into appended pages without breaking the
                # page-order == key-order clustering invariant.
                split = _split_tail_page(table, page_no, page, page_updates)
                if split is not None:
                    written, delta = split
                    stats.pages_written += written
                    stats.updates_applied += len(page_updates)
                    row_delta += delta
                    continue
            if applied is None:
                failed_spans.append(page_span)
                stats.inserts_deferred += sum(
                    1
                    for u in page_updates
                    if u.type in (UpdateType.INSERT, UpdateType.REPLACE)
                )
                continue
            heap.write_page(page_no, applied)
            stats.pages_written += 1
            stats.updates_applied += len(page_updates)
            row_delta += delta
        table.row_count += row_delta
        stats.rows_after = table.row_count
        migrated = tuple(subtract_spans(begin_key, end_key, failed_spans))
        ended = MigrationEnded(t, tuple(runs), migrated)
        if redo_log is not None:
            redo_log.log_edit(masm.table.name, ended)
        stats.runs_retired = len(masm.end_migration(ended))
    stats.publish("range")
    return stats


def _split_tail_page(
    table, page_no: int, page: SlottedPage, updates: list[UpdateRecord]
) -> Optional[tuple[int, int]]:
    """Split the last heap page so its updates fit; (pages_written, delta).

    Merges the page's records with ``updates`` and repacks the result into
    one or more pages starting at ``page_no``.  Appended pages extend the
    heap at its end, so clustering (physical page order == key order) is
    preserved — this is only valid for the physically-last page.  Each new
    page's timestamp is the newest update applied to it (carried-over
    records keep the old page's timestamp), so the page-span rule stays
    exact.  Returns None when the file extent cannot hold the split; the
    caller then defers the page as usual.
    """
    heap = table.heap
    schema = table.schema
    base_ts = page.timestamp
    merged: dict[int, tuple[tuple, int]] = {}
    for record in page_records(page, schema):
        merged[schema.key(record)] = (record, base_ts)
    delta = 0
    for update in updates:
        if update.timestamp <= base_ts:
            continue  # already applied by an earlier (partial) migration
        old = merged.get(update.key)
        result = apply_update(None if old is None else old[0], update, schema)
        if result is None:
            if old is not None:
                del merged[update.key]
                delta -= 1
        else:
            if old is None:
                delta += 1
            merged[update.key] = (result, update.timestamp)
    # Pack split pages half full: the tail is exactly where the next flood
    # of appends lands, so leaving slack keeps later slices in place.
    budget = (heap.page_size - 24) // 2
    pages: list[tuple[int, SlottedPage]] = []
    current = SlottedPage(heap.page_size)
    used = 0
    first_key: Optional[int] = None
    for key in sorted(merged):
        record, ts = merged[key]
        data = schema.pack(record)
        cost = len(data) + 8
        if used > 0 and (used + cost > budget or not current.fits(len(data))):
            pages.append((first_key if first_key is not None else 0, current))
            current = SlottedPage(heap.page_size)
            used = 0
            first_key = None
        current.insert(data)
        current.timestamp = max(current.timestamp, ts)
        used += cost
        if first_key is None:
            first_key = key
    if used > 0 or not pages:
        # An emptied tail page keeps its old first_key so the rebuilt index
        # stays key-ordered.
        empty_key = table.index.first_key_of(page_no)
        pages.append((first_key if first_key is not None else empty_key, current))
    if page_no + len(pages) > heap.capacity_pages:
        return None
    # Write the appended pages before overwriting the head page, and refresh
    # the index only after every page is durable.
    for offset in range(1, len(pages)):
        heap.write_page(page_no + offset, pages[offset][1])
    heap.write_page(page_no, pages[0][1])
    entries = [e for e in table.index.entries() if e[1] != page_no]
    entries.extend(
        (key, page_no + offset) for offset, (key, _) in enumerate(pages)
    )
    table.index.rebuild(entries)
    return len(pages), delta


def _page_key_span(table, page_no: int, end_key: int) -> tuple[int, int]:
    """Key interval [first_key, last] a page is responsible for."""
    entries = table.index.entries()
    for i, (first_key, number) in enumerate(entries):
        if number == page_no:
            if i + 1 < len(entries):
                return first_key, min(entries[i + 1][0] - 1, end_key)
            return first_key, end_key
    raise StorageError(f"page {page_no} not in sparse index")


def _apply_to_page(
    page: SlottedPage, updates: list[UpdateRecord], schema
) -> tuple[Optional[SlottedPage], int]:
    """Apply updates to a copy of ``page``; None if an insert can't fit.

    Returns (new_page_or_None, row_count_delta).
    """
    working = SlottedPage.from_bytes(page.to_bytes())
    delta = 0
    max_ts = working.timestamp
    for update in updates:
        if update.timestamp <= page.timestamp:
            continue  # already applied by an earlier (partial) migration
        slot = _find_slot(working, schema, update.key)
        result = apply_update(
            None if slot is None else schema.unpack(working.get(slot)),
            update,
            schema,
        )
        if result is None:
            if slot is not None:
                working.delete(slot)
                delta -= 1
            # Deleting an absent record is a no-op (already migrated).
        else:
            data = schema.pack(result)
            if slot is not None:
                working.replace(slot, data)
            else:
                if not working.fits(len(data)):
                    working.compact()
                if not working.fits(len(data)):
                    return None, 0  # all-or-nothing per page
                working.insert(data)
                delta += 1
        max_ts = max(max_ts, update.timestamp)
    working.timestamp = max_ts
    return working, delta


def _find_slot(page: SlottedPage, schema, key: int) -> Optional[int]:
    for slot, data in page.records():
        if schema.key(schema.unpack(data)) == key:
            return slot
    return None


# -------------------------------------------------------------- copy migration
def reference_copy_migrate(engine) -> Optional[MigrationStats]:
    """``InMemoryDifferential.migrate`` over ``_copy_rewrite``."""
    if len(engine._tree) == 0:
        return None
    t = engine.oracle.next()
    updates = iter(MergeUpdates([engine._updates(0, 2**63 - 1, t)], cpu=engine.table.cpu))
    heap = engine.table.heap
    copy_name = f"{engine.table.name}-copy-{engine._copy_seq}"
    engine._copy_seq += 1
    new_file = engine.disk.create(copy_name, heap.file.size)
    new_heap = HeapFile(
        new_file, engine.table.schema, page_size=heap.page_size, io_chunk=heap.io_chunk
    )
    stats = MigrationStats(timestamp=t)
    rows, entries, out_pages = _copy_rewrite(heap, new_heap, engine.table.schema, updates, stats)
    new_heap.num_pages = out_pages
    old_name = heap.file.name
    engine.table.heap = new_heap
    engine.table.replace_contents(entries, rows)
    engine.disk.delete(old_name)
    engine._tree = BPlusTree()
    engine._bytes = 0
    engine.migrations += 1
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
