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
applies a key range one page at a time, through the same array join and the
same page encoder: each page holding updates is read with a single-page I/O,
joined with its share of the merged batches and written back packed,
marking migrated ranges on each run; a page whose rows no longer fit is
skipped whole (all-or-nothing per page) so the timestamp rule stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

import numpy as np

from repro.core.manifest import MigrationEnded, MigrationStarted
from repro.core.operators import MergeUpdates, join_batches
from repro.core.sortedrun import subtract_spans
from repro.core.update import UpdateColumns, UpdateType
from repro.engine.heapfile import (
    DEFAULT_FILL_FACTOR,
    encode_chunk,
    page_array,
    rows_per_page,
)
from repro.engine.page import HEADER, SLOT
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
    """Migrate every cached run into the table, rewriting it in place: one
    overlap scope, so the run reads on the SSD overlap the heap's I/O."""
    with masm.ssd.device.clock.overlap():
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
        redo_log.log_edit(table.name, MigrationStarted(t))

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
        ended = MigrationEnded(t, tuple(runs))
        if redo_log is not None:
            redo_log.log_edit(table.name, ended)
        # Every durable (non-buffered) update with ts <= t is now applied in
        # place; the checkpoint fence caps below any still-buffered update.
        masm.end_migration(ended)
        stats.runs_retired = len(runs)
    stats.publish(kind)
    return stats


def rewrite_heap(
    heap, schema, batches: Iterable[UpdateColumns], stats: MigrationStats, out_heap=None
):
    """Stream-rewrite the heap applying ``batches``; in-place write-behind,
    or into ``out_heap`` when given (a copy migration).

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
    closed one record at a time.  Writes to another heap need no such hold.
    """
    in_place = out_heap is None
    out = _WriteBehind(heap if in_place else out_heap, schema, stats)

    def data_chunks() -> Iterator[tuple]:
        scan = heap.scan_chunks(0, heap.num_pages - 1)
        read_frontier = 0  # input pages consumed
        while True:
            out.flush(read_frontier if in_place else float("inf"))
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
        # One overlap scope, like a scan's: active while this stream's own
        # work runs, not while its consumer holds it.
        scope = masm.ssd.device.clock.overlap()
        with scope:
            # Flush the in-memory buffer first so the combined scan is fully
            # fresh (it merges exactly the materialized runs being migrated).
            masm.flush_buffer()
        unpack = masm.table.schema.unpack_many
        migration = _migrate_everything(masm, self.redo_log, "coordinated")
        while True:
            with scope:
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


#: The op codes a deferred page counts as inserts left cached.
_INSERTS = (int(UpdateType.INSERT), int(UpdateType.REPLACE))


def migrate_range(
    masm: "MaSM", begin_key: int, end_key: int, redo_log=None
) -> Optional[MigrationStats]:
    """Migrate only updates with keys in [begin, end] (Section 3.5).

    Each page holding updates is read with one single-page I/O, joined with
    its share of the merged update batches as arrays — the full migration's
    join (:func:`join_batches`) — and written back packed
    (:func:`encode_chunk`), in page order.  A page whose rows no longer fit
    is left untouched (its updates stay cached), so page timestamps never
    claim an unapplied update.  Runs whose whole key range has been migrated
    are retired.  The migration is one overlap scope: its run reads on the
    SSD overlap its page reads and writes on the disk.
    """
    with masm.ssd.device.clock.overlap():
        return _migrate_range(masm, begin_key, end_key, redo_log)


def _migrate_range(
    masm: "MaSM", begin_key: int, end_key: int, redo_log
) -> Optional[MigrationStats]:
    """:func:`migrate_range`'s body, run inside its overlap scope."""
    table = masm.table
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
        redo_log.log_edit(table.name, MigrationStarted(t))
    merge = MergeUpdates(
        masm.run_update_sources(runs, begin_key, end_key, query_ts=t),
        cpu=masm.cpu,
    )
    stats = MigrationStats(timestamp=t)
    failed_spans: list[tuple[int, int]] = []
    with trace("migration.range", runs=len(runs)):
        row_delta = 0
        for page_no, span, updates in _pages_of(
            table.index, merge.kernel_batches(), end_key
        ):
            delta = _migrate_page(masm, page_no, updates, stats)
            if delta is None:
                failed_spans.append(span)
                stats.inserts_deferred += sum(
                    int(np.isin(part.ops, _INSERTS).sum()) for part in updates
                )
                continue
            stats.updates_applied += sum(map(len, updates))
            row_delta += delta
        table.row_count += row_delta
        stats.rows_after = table.row_count
        # The spans applied: a deferred page's updates stay cached, and the
        # logged end says so.
        migrated = tuple(subtract_spans(begin_key, end_key, failed_spans))
        ended = MigrationEnded(t, tuple(runs), migrated)
        if redo_log is not None:
            redo_log.log_edit(table.name, ended)
        stats.runs_retired = len(masm.end_migration(ended))
    stats.publish("range")
    return stats


def _pages_of(
    index, batches: Iterable[UpdateColumns], end_key: int
) -> Iterator[tuple[int, tuple[int, int], list[UpdateColumns]]]:
    """Split merged update batches by heap page: ``(page_no, key span,
    the page's pieces of the batches)`` per page holding updates, in key
    order.

    A page is handed out as soon as an update beyond it is known, so its
    I/O happens before the merge produces the next batch — or, for the last
    page, after the merge ends.  Page 0 also owns the keys below its first
    key, the last page every key above its own.
    """
    entries = index.entries()
    first_keys = np.array([key for key, _ in entries], dtype=np.uint64)
    page_no = None
    pieces: list[UpdateColumns] = []
    for batch in batches:
        positions = first_keys.searchsorted(batch.keys, side="right")
        np.maximum(positions, 1, out=positions)
        cuts = (np.flatnonzero(positions[1:] != positions[:-1]) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(batch)]):
            position = int(positions[lo]) - 1
            if entries[position][1] != page_no:
                if pieces:
                    yield page_no, span, pieces
                page_no, pieces = entries[position][1], []
                span = (
                    entries[position][0] if position else 0,
                    entries[position + 1][0] - 1
                    if position + 1 < len(entries)
                    else end_key,
                )
            pieces.append(batch.rows(slice(lo, hi)))
    if pieces:
        yield page_no, span, pieces


def _migrate_page(
    masm: "MaSM", page_no: int, updates: list[UpdateColumns], stats: MigrationStats
) -> Optional[int]:
    """Apply one page's updates with a read-modify-write; the change in its
    row count, or None when the page is deferred.

    Updates at or before the page timestamp were applied by an earlier
    (partial) migration and are skipped, matched or not; the page is
    stamped with the newest update applied, deletions included.  Rows that
    no longer fit the page defer it whole — except on the physically-last
    page with no scan in flight, which is split into appended half-full
    pages instead.
    """
    table = masm.table
    heap = table.heap
    schema = table.schema
    page = heap.read_page(page_no)
    stats.pages_read += 1
    sim_interleave("migration.page")
    # Same crash-point site as the full rewrite's ``emit``: fires once per
    # page about to be rewritten, so a plan can kill a paced migration slice
    # mid-flight (START logged, END not).
    crash_point("migration.emit")
    page_ts = page.timestamp
    rows = page_array(page, schema)
    keys = rows[schema.dtype.names[schema.key_pos]].astype(np.uint64)
    row_ts = np.full(len(rows), page_ts, dtype=np.uint64)
    newer = [part.rows(part.timestamps > page_ts) for part in updates]
    newer = [part for part in newer if len(part)]
    steps = list(join_batches(newer, [(rows, keys, row_ts)] if len(rows) else [], schema))
    joined = np.concatenate([rows[:0], *(step[0] for step in steps)])
    timestamps = np.concatenate([row_ts[:0], *(step[1] for step in steps)])
    capacity = (heap.page_size - HEADER.size) // (schema.record_size + SLOT.size)
    if len(joined) <= capacity:
        stamp = max([page_ts, *(int(part.timestamps.max()) for part in newer)])
        heap.write_pages_sequential(
            page_no,
            encode_chunk(
                joined, np.array([stamp], dtype=np.uint64), max(1, len(joined)),
                heap.page_size,
            ),
        )
        stats.pages_written += 1
        return len(joined) - len(rows)
    if page_no != heap.num_pages - 1 or masm._active_scans:
        return None
    # The physically-last page owns the open-ended tail of the key space, so
    # append-heavy floods concentrate there and can never fit in place.
    # Because it is physically last it can be split into appended pages
    # without breaking the page-order == key-order clustering invariant.
    # Split pages are packed half full: the tail is exactly where the next
    # flood of appends lands, so leaving slack keeps later slices in place.
    # Each takes the newest timestamp among its rows.
    per_page = max(1, rows_per_page(heap.page_size, schema.record_size, 0.5))
    starts = np.arange(0, len(joined), per_page)
    if page_no + len(starts) > heap.capacity_pages:
        return None
    pages = encode_chunk(
        joined, np.maximum.reduceat(timestamps, starts), per_page, heap.page_size
    )
    # Write the appended pages before overwriting the head page, and refresh
    # the index only after every page is durable.
    size = heap.page_size
    for offset in [*range(1, len(starts)), 0]:
        heap.write_pages_sequential(
            page_no + offset, pages[offset * size : (offset + 1) * size]
        )
    entries = [e for e in table.index.entries() if e[1] != page_no]
    first_keys = joined[schema.dtype.names[schema.key_pos]][::per_page].tolist()
    entries.extend(zip(first_keys, range(page_no, page_no + len(starts))))
    table.index.rebuild(entries)
    stats.pages_written += len(starts)
    return len(joined) - len(rows)


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

