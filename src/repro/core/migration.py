"""In-place migration of cached updates back to the main data (Section 3.2).

Full migration performs a table scan whose output is written back to disk:
pages stream in with large sequential reads, cached updates merge in (an
outer join in page mode), and rebuilt pages stream out with large sequential
writes *behind* the read frontier — in place, without a second copy of the
data (design goal 4).  Every rebuilt page carries the timestamp of the last
update applied to it, which is what lets concurrent and later queries decide
whether a cached update is already reflected in a page.

The rewrite works at the grain of its I/O: each heap chunk is decoded in one
pass and joined as arrays with the merged update batches — the join loop a
scan uses (:func:`repro.core.operators.join_batches`) — and each chunk written
is packed in one pass (:func:`repro.engine.heapfile.encode_chunk`).  No row
becomes a tuple unless a query rides along (:class:`CoordinatedMigration`).

Partial migration (Section 3.5's "migrate a portion of updates at a time")
applies a key range with page-granular read-modify-writes, marking migrated
ranges on each run; a page that cannot absorb its insertions is skipped
whole (all-or-nothing per page) so the timestamp rule stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from repro.core.operators import MergeUpdates, join_batches
from repro.core.update import (
    UpdateColumns,
    UpdateRecord,
    UpdateType,
    apply_update,
)
from repro.engine.heapfile import (
    DEFAULT_FILL_FACTOR,
    encode_chunk,
    page_records,
    rows_per_page,
)
from repro.engine.page import SlottedPage
from repro.errors import StorageError
from repro.obs import get_registry, trace
from repro.storage.faults import crash_point
from repro.sim.hooks import interleave as sim_interleave
from repro.util.units import ceil_div

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.masm import MaSM


@dataclass
class MigrationStats:
    """Outcome of one migration operation."""

    timestamp: int
    pages_read: int = 0
    pages_written: int = 0
    updates_applied: int = 0
    inserts_deferred: int = 0  # partial migration: inserts left cached
    rows_after: int = 0
    runs_retired: int = 0

    def publish(self, kind: str) -> None:
        """Accumulate this outcome onto the process-wide migration counters
        (``migration.pages_read``, ...), tagged by migration kind."""
        registry = get_registry()
        registry.counter(f"migration.{kind}.count").add(1)
        for field_name in (
            "pages_read",
            "pages_written",
            "updates_applied",
            "inserts_deferred",
            "runs_retired",
        ):
            registry.counter(f"migration.{field_name}").add(
                getattr(self, field_name)
            )


def drain(generator):
    """Run ``generator`` to its end; its return value."""
    while True:
        try:
            next(generator)
        except StopIteration as stop:
            return stop.value


def migrate_all(masm: "MaSM", redo_log=None) -> Optional[MigrationStats]:
    """Migrate every cached run into the table, rewriting it in place."""
    return drain(_migrate_everything(masm, redo_log, "full"))


def _migrate_everything(
    masm: "MaSM", redo_log, kind: str
) -> Iterator[np.ndarray]:
    """One full migration, as a generator: yields the table's fresh rows
    (structured arrays, in key order) while the same pass writes them back;
    returns the :class:`MigrationStats`, or None when no run can migrate."""
    table = masm.table
    runs = list(masm.runs)
    if not runs:
        return None
    sim_interleave(f"migration.{kind}")
    t = masm.oracle.next()
    if redo_log is not None:
        redo_log.log_migration_start(t, [run.name for run in runs])

    full = (0, 2**63 - 1)
    merge = MergeUpdates(
        masm.run_update_sources(runs, *full, query_ts=t, use_cache=False),
        cpu=masm.cpu,
    )
    stats = MigrationStats(timestamp=t)
    with trace(f"migration.{kind}", runs=len(runs)):
        stats.rows_after, entries, out_pages = yield from rewrite_heap(
            table.heap, table.schema, merge.kernel_batches(), stats
        )
        table.heap.truncate(out_pages)
        table.replace_contents(entries, stats.rows_after)
        if redo_log is not None:
            redo_log.log_migration_end(t)
        masm.retire_runs(runs, barrier_ts=t)
        # Every durable (non-buffered) update with ts <= t is now applied in
        # place; the checkpoint fence caps below any still-buffered update.
        masm.migrated_through = max(masm.migrated_through, t)
        stats.runs_retired = len(runs)
    stats.publish(kind)
    return stats


def rewrite_heap(
    heap, schema, batches: Iterable[UpdateColumns], stats: MigrationStats
):
    """Stream-rewrite the heap applying ``batches``; in-place write-behind.

    A generator yielding every output row, one structured array per join
    step — what makes the "combine the migration with a table scan query"
    optimization of Section 3.5 possible: a query can consume the merged
    stream while the very same pass writes the pages back.  Returns
    ``(row_count, sparse index entries, output page count)``.

    In-place safety and the device's view: rows wait in a
    :class:`_WriteBehind` and leave it a whole I/O chunk of *closed* pages at
    a time, never past the read frontier, and the rule is evaluated just
    before the next heap chunk is read — so writes land in the same gap
    between two reads, in the same order and sizes, as when pages were
    closed one record at a time.
    """
    out = _WriteBehind(heap, schema, stats)

    def data_chunks() -> Iterator[tuple]:
        scan = heap.scan_chunks(0, heap.num_pages - 1)
        read_frontier = 0  # input pages consumed
        while True:
            out.flush(read_frontier)
            chunk = next(scan, None)
            if chunk is None:
                return
            if chunk.error is not None:
                raise chunk.error
            read_frontier = chunk.first_page + len(chunk.counts)
            stats.pages_read += len(chunk.counts)
            if len(chunk.rows):
                yield chunk.rows, chunk.keys.astype(np.uint64), chunk.record_timestamps()

    def counted() -> Iterator[UpdateColumns]:
        for batch in batches:
            stats.updates_applied += len(batch)
            yield batch

    rows = 0
    for joined, timestamps in join_batches(counted(), data_chunks(), schema):
        rows += len(joined)
        out.add(joined, timestamps)
        yield joined
    out.finish()
    return rows, out.entries, out.written


class _WriteBehind:
    """The output side of :func:`rewrite_heap`: joined rows in, whole chunks
    of packed pages out, behind the read frontier.

    Every page takes the same number of rows (the fill budget over the
    fixed record size) and the newest timestamp among them.  A page counts
    as *closed* only once a row beyond it has arrived — a full last page may
    still be the table's last — and each output page passes the
    ``migration.emit`` crash/interleave site once, right before the write
    that carries it: device state changes nowhere else.
    """

    def __init__(self, heap, schema, stats: MigrationStats) -> None:
        self.heap = heap
        self.stats = stats
        self.key_name = schema.dtype.names[schema.key_pos]
        self.per_page = max(
            1, rows_per_page(heap.page_size, schema.record_size, DEFAULT_FILL_FACTOR)
        )
        self._rows = [np.empty(0, dtype=schema.dtype)]
        self._timestamps = [np.empty(0, dtype=np.uint64)]
        self.buffered = 0  # rows not yet written
        self.entries: list[tuple[int, int]] = []
        self.written = 0  # write frontier: output pages on disk

    def add(self, rows, timestamps) -> None:
        self._rows.append(rows)
        self._timestamps.append(timestamps)
        self.buffered += len(rows)

    def flush(self, read_frontier: int) -> None:
        """Write whole chunks of closed pages while they stay behind the
        read frontier (never a page the scan has not read yet)."""
        chunk_pages = self.heap.pages_per_chunk
        while (
            (self.buffered - 1) // self.per_page >= chunk_pages
            and self.written + chunk_pages <= read_frontier
        ):
            self._write(chunk_pages)

    def finish(self) -> None:
        """Input exhausted: close the last page and write everything left,
        extending into the file's slack capacity if the table grew.  A table
        left without rows keeps one empty page."""
        pages = ceil_div(self.buffered, self.per_page) or (0 if self.entries else 1)
        while pages:
            count = min(self.heap.pages_per_chunk, pages)
            self._write(count)
            pages -= count

    def _write(self, count: int) -> None:
        """Pack the next ``count`` pages and write them with one I/O."""
        for _ in range(count):
            sim_interleave("migration.emit")
            crash_point("migration.emit")
        per_page = self.per_page
        # After a write the rest is one array: only new arrivals are copied.
        rows, timestamps = (
            parts[0] if len(parts) == 1 else np.concatenate(parts)
            for parts in (self._rows, self._timestamps)
        )
        take = min(count * per_page, len(rows))
        self._rows = [rows[take:]]
        self._timestamps = [timestamps[take:]]
        self.buffered -= take
        rows = rows[:take]
        if take:
            page_timestamps = np.maximum.reduceat(
                timestamps[:take], np.arange(0, take, per_page)
            )
            first_keys = rows[self.key_name][::per_page].tolist()
        else:
            page_timestamps = np.zeros(1, dtype=np.uint64)
            first_keys = [0]
        self.entries.extend(zip(first_keys, range(self.written, self.written + count)))
        self.heap.write_pages_sequential(
            self.written,
            encode_chunk(rows, page_timestamps, per_page, self.heap.page_size),
        )
        self.written += count
        self.stats.pages_written += count


class CoordinatedMigration:
    """Migration combined with a table-scan query (Section 3.5).

    "We can combine the migration with a table scan query in order to avoid
    the cost of performing a table scan for migration purposes only."
    Iterating this object yields the full, fresh record stream (exactly what
    a full-table ``range_scan`` would return) while the same pass rewrites
    the data pages in place.  ``stats`` is populated once iteration ends.
    """

    def __init__(self, masm: "MaSM", redo_log=None) -> None:
        self.masm = masm
        self.redo_log = redo_log
        self.stats: Optional[MigrationStats] = None

    def __iter__(self):
        masm = self.masm
        # Flush the in-memory buffer first so the combined scan is fully
        # fresh (it merges exactly the materialized runs being migrated).
        masm.flush_buffer()
        unpack = masm.table.schema.unpack_many
        migration = _migrate_everything(masm, self.redo_log, "coordinated")
        while True:
            try:
                rows = next(migration)
            except StopIteration as stop:
                stats = stop.value
                break
            yield from unpack(rows)
        if stats is None:
            # Nothing cached: degrade to a plain fresh scan.
            yield from masm.range_scan(*masm.table.full_key_range())
            return
        masm.stats.migrations += 1
        if masm.governor is not None:
            masm.governor.on_full_migration()
        self.stats = stats


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
        redo_log.log_migration_start(
            t, [run.name for run in runs], key_range=(begin_key, end_key)
        )
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
        migrated = _subtract_spans((begin_key, end_key), failed_spans)
        fully_retired = []
        lo, hi = table.full_key_range()
        for run in runs:
            for span in migrated:
                run.mark_migrated(*span)
            if run.fully_migrated(run.min_key, run.max_key):
                fully_retired.append(run)
        if redo_log is not None:
            redo_log.log_migration_end(t)
        if fully_retired:
            masm.retire_runs(fully_retired, barrier_ts=t)
        stats.runs_retired = len(fully_retired)
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


def _align_to_page_spans(
    table, begin_key: int, end_key: int
) -> tuple[int, int]:
    """Expand ``[begin_key, end_key]`` to cover whole page key spans.

    The last page's span is open-ended (it absorbs all larger keys), so an
    end key landing there expands to the top of the key space.
    """
    from bisect import bisect_right

    entries = table.index.entries()
    if not entries:
        return begin_key, end_key
    starts = [first_key for first_key, _ in entries]
    i = max(0, bisect_right(starts, begin_key) - 1)
    begin_aligned = min(begin_key, entries[i][0])
    j = max(0, bisect_right(starts, end_key) - 1)
    if j + 1 < len(entries):
        end_aligned = max(end_key, entries[j + 1][0] - 1)
    else:
        end_aligned = 2**63 - 1
    return begin_aligned, end_aligned


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


def _subtract_spans(
    whole: tuple[int, int], holes: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The parts of ``whole`` not covered by ``holes`` (for migrated marks)."""
    spans = []
    cursor = whole[0]
    for lo, hi in sorted(holes):
        if lo > cursor:
            spans.append((cursor, min(lo - 1, whole[1])))
        cursor = max(cursor, hi + 1)
        if cursor > whole[1]:
            break
    if cursor <= whole[1]:
        spans.append((cursor, whole[1]))
    return spans
