"""MaSM's scan-side operators (Figure 6):

* :class:`RunScan`    — streams one materialized sorted run, narrowed by its
  run index (optionally through the shared decoded-block cache);
* :class:`MemScan`    — streams the in-memory buffer and survives concurrent
  re-sorts and flushes by handing over to a Run_scan;
* :class:`MergeUpdates` — merges many (key, ts)-ordered update streams and
  combines same-key updates;
* :class:`MergeDataUpdates` — the outer join of the table range scan with the
  combined update stream, using page timestamps to skip already-applied
  updates (what makes in-place migration safe, Section 3.2).

The merge core is batch-oriented: sources are compared on plain (key, ts)
tuples (no per-record method calls), a dedicated two-source loop serves the
common one-memory-stream-plus-one-run shape, and CPU time is charged to the
meter per batch of merged records rather than per record.
"""

from __future__ import annotations

import heapq
from itertools import chain as _chain
from typing import Callable, Iterable, Iterator, Optional

import numpy as _np

from repro.core import kernels, sortedrun
from repro.core.blockcache import DecodedBlockCache
from repro.core.membuffer import BufferFlushed, InMemoryUpdateBuffer
from repro.core.sortedrun import MaterializedSortedRun
from repro.core.update import (
    UpdateColumns,
    UpdateRecord,
    apply_update,
    combine,
    combine_chain,
)
from repro.engine.record import Schema
from repro.engine.table import pair_chunks
from repro.errors import ChecksumError, TransientIOError
from repro.sim.hooks import interleave as sim_interleave
from repro.storage.iosched import (
    KERNEL_DECODE_CPU_PER_UPDATE,
    MERGE_CPU_BATCH,
    MERGE_CPU_PER_UPDATE,
    CpuMeter,
)
from repro.util.search import key_position

#: Largest representable timestamp — "everything at this key" when used as
#: the timestamp half of an ``after`` resume position.
_MAX_TS = 2**63 - 1


def merge_update_streams(
    sources: list[Iterable[UpdateRecord]],
) -> Iterator[UpdateRecord]:
    """Merge (key, ts)-sorted update streams into one (key, ts)-sorted stream.

    Ties across sources break by source position (stable, like
    ``heapq.merge``).  Dispatches on the number of non-empty sources: most
    range scans see one memory stream plus one run, which the two-source
    loop serves without any heap at all.
    """
    iterators = [iter(s) for s in sources]
    primed: list[tuple[UpdateRecord, Iterator[UpdateRecord]]] = []
    for it in iterators:
        first = next(it, None)
        if first is not None:
            primed.append((first, it))
    if not primed:
        return
    if len(primed) == 1:
        head, it = primed[0]
        yield head
        yield from it
        return
    if len(primed) == 2:
        a, a_it = primed[0]
        b, b_it = primed[1]
        a_key = (a.key, a.timestamp)
        b_key = (b.key, b.timestamp)
        while True:
            if a_key <= b_key:
                yield a
                a = next(a_it, None)
                if a is None:
                    yield b
                    yield from b_it
                    return
                a_key = (a.key, a.timestamp)
            else:
                yield b
                b = next(b_it, None)
                if b is None:
                    yield a
                    yield from a_it
                    return
                b_key = (b.key, b.timestamp)
    # K-way: heap entries are (key, ts, source_idx, update); the index both
    # breaks ties stably and keeps UpdateRecords out of the comparisons.
    heap = [
        (u.key, u.timestamp, idx, u) for idx, (u, _) in enumerate(primed)
    ]
    heapq.heapify(heap)
    iters = [it for _, it in primed]
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    while heap:
        _, _, idx, update = heap[0]
        yield update
        nxt = next(iters[idx], None)
        if nxt is None:
            heappop(heap)
        else:
            heapreplace(heap, (nxt.key, nxt.timestamp, idx, nxt))


class RunScan:
    """Iterates one materialized run for a query's key range and timestamp.

    ``cache`` is the MaSM instance's shared :class:`DecodedBlockCache`;
    ``stats`` receives blocks-decoded counts (both optional).

    ``fallback`` makes the scan degrade gracefully when the run's SSD copy
    turns out to be damaged: if a block fails checksum verification (or a
    read keeps failing transiently past the retry budget), the scan hands
    over to ``fallback(after)`` — a slower but correct replacement stream,
    in practice MaSM's redo-log replay of the run's timestamp range.  The
    handover is seamless because the run scan verifies each block *before*
    yielding anything from it, so ``after`` (the last yielded (key, ts)
    position, or None) is an exact resume point — the same contract
    :class:`MemScan` uses when a flush hands it over to a run.
    """

    def __init__(
        self,
        run: MaterializedSortedRun,
        begin_key: int,
        end_key: int,
        query_ts: Optional[int] = None,
        cache: Optional[DecodedBlockCache] = None,
        stats=None,
        fallback: Optional[
            Callable[[Optional[tuple[int, int]]], Iterable[UpdateRecord]]
        ] = None,
    ) -> None:
        self.run = run
        self.begin_key = begin_key
        self.end_key = end_key
        self.query_ts = query_ts
        self.cache = cache
        self.stats = stats
        self.fallback = fallback

    def __iter__(self) -> Iterator[UpdateRecord]:
        if self.run.quarantined and self.fallback is not None:
            yield from self.fallback(None)
            return
        source = self.run.scan(
            self.begin_key,
            self.end_key,
            self.query_ts,
            cache=self.cache,
            stats=self.stats,
        )
        if self.fallback is None:
            yield from source
            return
        last: Optional[tuple[int, int]] = None
        while True:
            try:
                update = next(source)
            except StopIteration:
                return
            except (ChecksumError, TransientIOError):
                # The run's bytes can no longer be trusted (or read); switch
                # to the fallback stream, resuming after the last record
                # already delivered.
                yield from self.fallback(last)
                return
            last = (update.key, update.timestamp)
            yield update

    def column_groups(self) -> Iterator[UpdateColumns]:
        """The scan as non-empty :class:`UpdateColumns` pieces in key order,
        one per read group of the run (one batched SSD read, uncached), each
        read only when asked for — what structural merges and compaction
        slices write runs from.  Degrades to the ``fallback`` stream
        (encoded in one piece) exactly where :meth:`__iter__` would."""
        run = self.run
        after: Optional[tuple[int, int]] = None
        if not (run.quarantined and self.fallback is not None):
            first, last = run.index.block_span(self.begin_key, self.end_key) or (0, -1)
            step = sortedrun.READ_BATCH_BLOCKS
            for block in range(first, last + 1, step):
                blocks = (block, min(block + step - 1, last))
                try:
                    group = run.slice_columns(
                        self.begin_key, self.end_key, self.query_ts, stats=self.stats, blocks=blocks
                    )
                except (ChecksumError, TransientIOError):
                    if self.fallback is None:
                        raise
                    break
                if group is not None:
                    after = (int(group.keys[-1]), int(group.timestamps[-1]))
                    yield group
            else:
                return
        records = list(self.fallback(after))
        if records:
            yield UpdateColumns.from_records(records, run.codec)


class MemScan:
    """Iterates the in-memory buffer; hands over to a run on flush.

    ``run_for_flush`` maps a flush epoch to the materialized run that flush
    produced, so the scan can continue exactly where it stopped (Section 3.2:
    "Mem_scan will instantiate a Run_scan operator for the new materialized
    sorted run and replaces itself").
    """

    def __init__(
        self,
        buffer: InMemoryUpdateBuffer,
        begin_key: int,
        end_key: int,
        query_ts: int,
        run_for_flush: Optional[Callable[[int], Optional[MaterializedSortedRun]]] = None,
        cache: Optional[DecodedBlockCache] = None,
        stats=None,
        flush_epoch: Optional[int] = None,
    ) -> None:
        self.buffer = buffer
        self.begin_key = begin_key
        self.end_key = end_key
        self.query_ts = query_ts
        self.run_for_flush = run_for_flush
        self.cache = cache
        self.stats = stats
        #: Buffer flush epoch at scan registration.  The cursor below is
        #: built lazily (first pull), so without this baseline a flush
        #: between registration and first pull goes undetected and the
        #: flushed updates silently disappear from the scan.
        self.flush_epoch = flush_epoch

    def __iter__(self) -> Iterator[UpdateRecord]:
        cursor = self.buffer.cursor(
            self.begin_key,
            self.end_key,
            self.query_ts,
            flush_epoch=self.flush_epoch,
        )
        while True:
            try:
                update = next(cursor)
            except StopIteration:
                return
            except BufferFlushed as flushed:
                if self.run_for_flush is None:
                    return
                run = self.run_for_flush(flushed.flush_epoch)
                if run is None:
                    return
                yield from run.scan(
                    self.begin_key,
                    self.end_key,
                    self.query_ts,
                    after=cursor.last_position,
                    cache=self.cache,
                    stats=self.stats,
                )
                return
            yield update

    def slice_columns(self, lo: int, hi: Optional[int]) -> Optional[UpdateColumns]:
        """The scan's updates with keys in [lo, hi] (no upper bound when
        None) as columns over the buffer's bytes, or — once the buffer has
        flushed — over the blocks of the run that absorbed them; None when
        there are none.  The kernel path's per-partition form of
        :meth:`__iter__`."""
        lo = max(lo, self.begin_key)
        hi = self.end_key if hi is None else min(hi, self.end_key)
        if lo > hi:
            return None
        columns, flush_epoch = self.buffer.columns_range(lo, hi, self.query_ts)
        if self.flush_epoch is None:
            self.flush_epoch = flush_epoch
        if flush_epoch == self.flush_epoch:
            return columns
        # Flushed since the scan registered: see BufferCursor.__next__.
        run = self.run_for_flush and self.run_for_flush(self.flush_epoch + 1)
        if run is None:
            return None
        return run.slice_columns(
            lo, hi, self.query_ts, cache=self.cache, stats=self.stats
        )


class MergeUpdates:
    """K-way merge of sorted update streams, combining same-key chains.

    Yields one combined :class:`UpdateRecord` per distinct key, in key order
    (the output the outer join consumes).  ``fast_path=False`` selects the
    record-at-a-time reference implementation (``heapq.merge`` keyed on
    ``UpdateRecord.sort_key``), kept for equivalence testing.

    When the columnar kernels are available (:func:`repro.core.kernels.enabled`
    and ``use_kernels``) and at least one source is a healthy :class:`RunScan`,
    the merge runs array-at-a-time: the key range is split into partitions at
    boundary keys drawn from the runs' own indexes, each run contributes a
    partition slice in columnar form (:meth:`MaterializedSortedRun.
    slice_columns`), the memory buffer its own (:meth:`MemScan.
    slice_columns`), object-backed sources are encoded into the same form
    once and sliced, and one kernel invocation merges + combines the
    partition (:func:`repro.core.kernels.merge_slices`).
    Iterating the merge materialises each batch's records; the join
    (:class:`MergeDataUpdates`) takes the batches as they are.  A run that
    fails mid-scan
    (checksum/transient I/O) degrades to its ``fallback`` stream from the
    current partition boundary on, exactly as the record-at-a-time
    :class:`RunScan` would — slices are built atomically, so nothing from
    the failed partition was delivered.
    """

    def __init__(
        self,
        sources: Iterable[Iterable[UpdateRecord]],
        schema: Schema,
        cpu: Optional[CpuMeter] = None,
        fast_path: bool = True,
        use_kernels: bool = True,
        blocks_per_partition: Optional[int] = None,
    ) -> None:
        self.sources = list(sources)
        self.schema = schema
        self.cpu = cpu
        self.fast_path = fast_path
        self.use_kernels = use_kernels
        self.blocks_per_partition = (
            blocks_per_partition
            if blocks_per_partition is not None
            else kernels.DEFAULT_BLOCKS_PER_PARTITION
        )

    def __iter__(self) -> Iterator[UpdateRecord]:
        if not self.fast_path:
            return self._iter_reference()
        batches = self.kernel_batches()
        if batches is not None:
            return _chain.from_iterable(batch.records for batch in batches)
        return self._iter_fast()

    def kernel_batches(self) -> Optional[Iterator[UpdateColumns]]:
        """Generator of per-partition merged batches
        (:class:`~repro.core.update.UpdateColumns`, strictly increasing in
        key), or None when the kernel path cannot serve this merge (kernels
        disabled, reference path requested, or no columnar run to partition
        by).  :class:`MergeDataUpdates` consumes batches directly so the
        join can stay array-at-a-time too.
        """
        if not (self.fast_path and self.use_kernels and kernels.enabled()):
            return None
        if not any(
            isinstance(s, RunScan) and not s.run.quarantined
            for s in self.sources
        ):
            return None
        return self._iter_batches_kernel()

    def _iter_batches_kernel(self) -> Iterator[UpdateColumns]:
        cpu = self.cpu
        sources = self.sources
        runs: dict[int, RunScan] = {
            slot: src
            for slot, src in enumerate(sources)
            if isinstance(src, RunScan) and not src.run.quarantined
        }
        codec = next(iter(runs.values())).run.codec

        def sliced(source: Iterable[UpdateRecord]) -> Callable:
            """An object-backed source, encoded once the way the runs are."""
            columns = UpdateColumns.from_records(list(source), codec)

            def take(lo: int, hi: Optional[int]) -> Optional[UpdateColumns]:
                first = key_position(columns.keys, lo, "left")
                last = len(columns) if hi is None else key_position(columns.keys, hi, "right")
                return columns.rows(slice(first, last)) if first < last else None

            return take

        #: Every other source, as ``(lo, hi) -> its columns in [lo, hi]``.
        extras: dict[int, Callable] = {
            slot: src.slice_columns if isinstance(src, MemScan) else sliced(src)
            for slot, src in enumerate(sources)
            if slot not in runs
        }
        begin = min(rs.begin_key for rs in runs.values())
        end = max(rs.end_key for rs in runs.values())
        bounds = kernels.partition_points(
            [rs.run.index for rs in runs.values()],
            begin,
            end,
            self.blocks_per_partition,
        )
        # The final partition is unbounded: the other sources may hold
        # updates past the last run key.
        ranges = kernels.partition_ranges(bounds, begin, None)
        for lo, hi in ranges:
            sim_interleave("kernels.partition")
            slices: list[UpdateColumns] = []
            for slot in range(len(sources)):
                rs = runs.get(slot)
                if rs is None:
                    # Their own range may start below the runs'.
                    cols = extras[slot](lo if lo > begin else 0, hi)
                else:
                    r_lo = max(lo, rs.begin_key)
                    r_hi = rs.end_key if hi is None else min(hi, rs.end_key)
                    if r_lo > r_hi:
                        continue
                    try:
                        cols = rs.run.slice_columns(
                            r_lo,
                            r_hi,
                            rs.query_ts,
                            cache=rs.cache,
                            stats=rs.stats,
                        )
                    except (ChecksumError, TransientIOError):
                        if rs.fallback is None:
                            raise
                        after = None if lo <= begin else (lo - 1, _MAX_TS)
                        del runs[slot]
                        extras[slot] = sliced(rs.fallback(after))
                        cols = extras[slot](lo, hi)
                if cols is not None:
                    slices.append(cols)
            if not slices:
                continue
            if cpu is not None:
                cpu.charge_batch(
                    sum(map(len, slices)), KERNEL_DECODE_CPU_PER_UPDATE, kind="decode"
                )
            batch = kernels.merge_slices(slices, cpu)
            if batch is not None:
                yield batch

    def _iter_fast(self) -> Iterator[UpdateRecord]:
        schema = self.schema
        cpu = self.cpu
        merged = merge_update_streams(self.sources)
        pending: Optional[UpdateRecord] = None
        count = 0
        charged = 0
        for update in merged:
            count += 1
            if pending is None:
                pending = update
            elif update.key == pending.key:
                pending = combine(pending, update, schema)
            else:
                yield pending
                pending = update
                if cpu is not None and count - charged >= MERGE_CPU_BATCH:
                    cpu.charge_batch(count - charged, MERGE_CPU_PER_UPDATE)
                    charged = count
        if pending is not None:
            yield pending
        if cpu is not None and count > charged:
            cpu.charge_batch(count - charged, MERGE_CPU_PER_UPDATE)

    def _iter_reference(self) -> Iterator[UpdateRecord]:
        merged = heapq.merge(*self.sources, key=UpdateRecord.sort_key)
        chain: list[UpdateRecord] = []
        count = 0
        for update in merged:
            count += 1
            if chain and update.key != chain[0].key:
                yield combine_chain(chain, self.schema)
                chain = []
            chain.append(update)
        if chain:
            yield combine_chain(chain, self.schema)
        if self.cpu is not None and count:
            self.cpu.charge(count * MERGE_CPU_PER_UPDATE)


def join_batches(
    batches: Iterable[UpdateColumns],
    chunks: Iterable[tuple[object, object, object]],
    schema: Schema,
) -> Iterator[tuple[object, object]]:
    """Join merged update batches against ``(rows, keys, timestamps)`` data
    chunks (non-empty), both in key order: ``(joined rows, each row's
    timestamp)`` per step, the arrays of
    :func:`repro.core.kernels.join_partition`.

    Each step joins the pending part of one batch with the pending part of
    one chunk, up to whichever ends first, in one ``join_partition`` call; a
    chunk is pulled only when the batch needs keys beyond the buffered ones,
    so the data side never holds more than one chunk.  A scan turns each
    step's rows into tuples (:class:`MergeDataUpdates`); a full migration
    packs them into pages (:mod:`repro.core.migration`).
    """
    chunks = iter(chunks)
    rows = _np.empty(0, dtype=schema.dtype)
    keys = timestamps = _np.empty(0, dtype=_np.uint64)
    start = 0  # rows before it are already joined
    for batch in batches:
        done = 0  # batch rows before it are already joined
        while done < len(batch):
            if start == len(rows):
                rows, keys, timestamps = next(chunks, (rows[:0], keys[:0], keys[:0]))
                start = 0
            if not len(rows) or batch.keys[-1] < keys[-1]:
                # The batch ends inside the chunk (or the data is over).
                upto = len(batch)
                split = start + int(
                    _np.searchsorted(keys[start:], batch.keys[-1], side="right")
                )
            else:
                # The chunk ends inside the batch.
                upto = done + int(
                    _np.searchsorted(batch.keys[done:], keys[-1], side="right")
                )
                split = len(rows)
            if upto > done:
                yield kernels.join_partition(
                    batch.rows(slice(done, upto)),
                    rows[start:split],
                    keys[start:split],
                    timestamps[start:split],
                )
            else:
                yield rows[start:split], timestamps[start:split]
            start = split
            done = upto
    # Data past the last update key passes through unmodified.
    if start < len(rows):
        yield rows[start:], timestamps[start:]
    for rows, _, timestamps in chunks:
        yield rows, timestamps


class MergeDataUpdates:
    """Outer join of (record, page_ts) pairs with combined updates.

    The update stream and the data stream are both key-ordered.  An update
    whose timestamp is <= the page timestamp of the matching record has
    already been applied in place (by a migration) and is skipped — the
    timestamp rule that lets queries run during in-place migration.

    When ``updates`` is a :class:`MergeUpdates` running its kernel path, the
    join is array-at-a-time: per update partition, the data side is pulled up
    to the partition's max key and joined in one
    :func:`repro.core.kernels.join_partition` call, and the joined array
    becomes row tuples in one :meth:`Schema.unpack_many` call.
    ``data_chunks`` — an iterable of ``(rows, keys, timestamps)`` chunks (a
    structured array of the schema's dtype plus the aligned uint64 key and
    page-timestamp arrays), e.g. ``Table.range_scan_pair_chunks`` — feeds
    that path; without it the kernel path chunks ``data_pairs`` itself.
    """

    def __init__(
        self,
        data_pairs: Iterable[tuple[tuple, int]],
        updates: Iterable[UpdateRecord],
        schema: Schema,
        cpu: Optional[CpuMeter] = None,
        data_chunks: Optional[Iterable[tuple[object, object, object]]] = None,
    ) -> None:
        self.data_pairs = data_pairs
        self.updates = updates
        self.schema = schema
        self.cpu = cpu
        self.data_chunks = data_chunks

    def __iter__(self) -> Iterator[tuple]:
        updates = self.updates
        if isinstance(updates, MergeUpdates):
            batches = updates.kernel_batches()
            if batches is not None:
                return _chain.from_iterable(self._iter_kernel_lists(batches))
        return self._iter_reference()

    def _iter_kernel_lists(self, batches: Iterator[UpdateColumns]) -> Iterator[list]:
        """The row tuples of each join step, built once, from its array."""
        schema = self.schema
        chunks = (
            self.data_chunks
            if self.data_chunks is not None
            else pair_chunks(self.data_pairs, schema)
        )
        for rows, _ in join_batches(batches, chunks, schema):
            yield schema.unpack_many(rows)

    def _iter_reference(self) -> Iterator[tuple]:
        schema = self.schema
        updates = iter(self.updates)
        update = next(updates, None)
        for record, page_ts in self.data_pairs:
            key = schema.key(record)
            # Updates strictly before this data key have no base record in
            # the table: only (re)insertions produce output.
            while update is not None and update.key < key:
                produced = apply_update(None, update, schema)
                if produced is not None:
                    yield produced
                update = next(updates, None)
            if update is not None and update.key == key:
                if update.timestamp > page_ts:
                    produced = apply_update(record, update, schema)
                    if produced is not None:
                        yield produced
                else:
                    # Already applied in place by a migration.
                    yield record
                update = next(updates, None)
            else:
                yield record
        # Insertions with keys past the end of the data stream.
        while update is not None:
            produced = apply_update(None, update, schema)
            if produced is not None:
                yield produced
            update = next(updates, None)
