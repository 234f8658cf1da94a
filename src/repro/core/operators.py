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

There is one pipeline: every source hands over the updates of a key partition
as :class:`~repro.core.update.UpdateColumns` (bytes plus header columns),
encoded where the update entered the system and never again,
:func:`repro.core.kernels.merge_slices` merges and combines the partition,
and :func:`join_batches` joins the batches with the table's rows, arrays in
and out.  Iterating a source or the merge decodes those columns into
:class:`~repro.core.update.UpdateRecord` s — a view for record-shaped
consumers, not a second implementation.  The record-at-a-time operators the
suites compare against live in ``tests/reference_operators.py``.
"""

from __future__ import annotations

from itertools import chain as _chain
from typing import Callable, Iterable, Iterator, Optional, Union

import numpy as _np

from repro.core import kernels
from repro.core.blockcache import DecodedBlockCache
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.sortedrun import MaterializedSortedRun
from repro.core.update import UpdateColumns, UpdateRecord
from repro.engine.record import Schema
from repro.engine.table import pair_chunks
from repro.errors import ChecksumError, TransientIOError
from repro.sim.hooks import interleave as sim_interleave
from repro.storage.iosched import KERNEL_DECODE_CPU_PER_UPDATE, CpuMeter
from repro.util.search import key_position

#: Largest representable timestamp — "everything at this key" when used as
#: the timestamp half of an ``after`` resume position.
_MAX_TS = 2**63 - 1


class RunScan:
    """Iterates one materialized run for a query's key range and timestamp.

    ``cache`` is the MaSM instance's shared :class:`DecodedBlockCache`;
    ``stats`` receives blocks-decoded counts (both optional).

    ``fallback`` makes the scan degrade gracefully when the run's SSD copy
    turns out to be damaged: if a block fails checksum verification (or a
    read keeps failing transiently past the retry budget), the scan hands
    over to ``fallback(after)`` — a slower but correct replacement: the
    updates past ``after`` as (key, ts)-sorted :class:`UpdateColumns` in
    buffer order (:meth:`UpdateColumns.sorted`), in practice MaSM's redo-log
    replay of the run's timestamp range, as logged.  The handover is
    seamless because the run scan verifies each block *before*
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
        fallback: Optional[Callable[[Optional[tuple[int, int]]], UpdateColumns]] = None,
    ) -> None:
        self.run = run
        self.begin_key = begin_key
        self.end_key = end_key
        self.query_ts = query_ts
        self.cache = cache
        self.stats = stats
        self.fallback = fallback

    def __iter__(self) -> Iterator[UpdateRecord]:
        return _chain.from_iterable(group.records for group in self.column_groups())

    def column_groups(self) -> Iterator[UpdateColumns]:
        """The scan as non-empty :class:`UpdateColumns` pieces in key order,
        one per read group of the run (one batched SSD read), each read only
        when asked for — what run merges write runs from, and what
        :meth:`__iter__` decodes.  On a damaged group (or a quarantined run)
        the rest of the scan is the ``fallback`` past the last piece
        delivered, in one piece."""
        run = self.run
        after: Optional[tuple[int, int]] = None
        if not (run.quarantined and self.fallback is not None):
            try:
                for group in run.column_groups(
                    self.begin_key,
                    self.end_key,
                    self.query_ts,
                    cache=self.cache,
                    stats=self.stats,
                ):
                    after = (int(group.keys[-1]), int(group.timestamps[-1]))
                    yield group
                return
            except (ChecksumError, TransientIOError):
                # The run's bytes can no longer be trusted (or read).
                if self.fallback is None:
                    raise
        columns = self.fallback(after)
        if len(columns):
            yield columns


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
        #: Buffer flush epoch at scan registration.  The buffer is read
        #: lazily (first pull), so without this baseline a flush between
        #: registration and first pull goes undetected and the flushed
        #: updates silently disappear from the scan.
        self.flush_epoch = flush_epoch

    def __iter__(self) -> Iterator[UpdateRecord]:
        columns = self.slice_columns(self.begin_key, None)
        return iter(columns.records if columns is not None else ())

    def slice_columns(self, lo: int, hi: Optional[int]) -> Optional[UpdateColumns]:
        """The scan's updates with keys in [lo, hi] (no upper bound when
        None) as columns over the buffer's bytes, or — once the buffer has
        flushed — over the blocks of the run that absorbed them; None when
        there are none."""
        lo = max(lo, self.begin_key)
        hi = self.end_key if hi is None else min(hi, self.end_key)
        if lo > hi:
            return None
        columns, flush_epoch = self.buffer.columns_range(lo, hi, self.query_ts)
        if self.flush_epoch is None:
            self.flush_epoch = flush_epoch
        if flush_epoch == self.flush_epoch:
            return columns
        # Flushed since the scan registered: hand over to the flush that
        # drained *this scan's* generation (epoch + 1).  Every update visible
        # at the query timestamp was already buffered when that flush
        # drained, so later flushes hold nothing this scan may see.
        run = self.run_for_flush and self.run_for_flush(self.flush_epoch + 1)
        if run is None:
            return None
        return run.slice_columns(
            lo, hi, self.query_ts, cache=self.cache, stats=self.stats
        )


#: What :class:`MergeUpdates` merges: a run's scan, the memory buffer's, or
#: any other (key, ts)-sorted updates as columns in buffer order
#: (:meth:`UpdateColumns.sorted`) — a transaction's own writes, a baseline's
#: store.
UpdateSource = Union[RunScan, MemScan, UpdateColumns]


def _key_slicer(
    columns: Optional[UpdateColumns],
) -> Callable[[int, Optional[int]], Optional[UpdateColumns]]:
    """``(lo, hi) ->`` the rows of ``columns`` with keys in [lo, hi] (no
    upper bound when ``hi`` is None), None when there are none."""

    def take(lo: int, hi: Optional[int]) -> Optional[UpdateColumns]:
        if columns is None:
            return None
        first = key_position(columns.keys, lo, "left")
        last = len(columns) if hi is None else key_position(columns.keys, hi, "right")
        return columns.rows(slice(first, last)) if first < last else None

    return take


class MergeUpdates:
    """K-way merge of sorted update sources, combining same-key chains.

    The merge runs array-at-a-time: the key range is split into partitions
    at boundary keys drawn from the healthy runs' own indexes (one unbounded
    partition when there is none), each run contributes a partition slice in
    columnar form (:meth:`MaterializedSortedRun.slice_columns`), the memory
    buffer its own (:meth:`MemScan.slice_columns`), an :class:`UpdateColumns`
    source and a quarantined run's scan (its ``fallback``) the key range of
    what they hold, and one kernel invocation merges + combines the
    partition (:func:`repro.core.kernels.merge_slices`).  The join
    (:class:`MergeDataUpdates`) takes the batches as they are; iterating the
    merge yields one combined :class:`UpdateRecord` per distinct key, in key
    order, decoded from them.  A run that fails mid-scan (checksum/transient
    I/O) degrades to its ``fallback`` from the current partition boundary
    on — slices are built atomically, so nothing from the failed partition
    was delivered.
    """

    def __init__(
        self,
        sources: Iterable[UpdateSource],
        cpu: Optional[CpuMeter] = None,
        blocks_per_partition: Optional[int] = None,
    ) -> None:
        self.sources = list(sources)
        self.cpu = cpu
        self.blocks_per_partition = (
            blocks_per_partition
            if blocks_per_partition is not None
            else kernels.DEFAULT_BLOCKS_PER_PARTITION
        )

    def __iter__(self) -> Iterator[UpdateRecord]:
        return _chain.from_iterable(batch.records for batch in self.kernel_batches())

    def kernel_batches(self) -> Iterator[UpdateColumns]:
        """The merge as per-partition batches
        (:class:`~repro.core.update.UpdateColumns`, strictly increasing in
        key), each built when asked for."""
        cpu = self.cpu
        sources = self.sources
        runs: dict[int, RunScan] = {
            slot: src
            for slot, src in enumerate(sources)
            if isinstance(src, RunScan) and not src.run.quarantined
        }

        def slicer(src) -> Callable:
            if isinstance(src, MemScan):
                return src.slice_columns
            if isinstance(src, RunScan):  # quarantined
                groups = list(src.column_groups())
                return _key_slicer(UpdateColumns.concat(groups) if groups else None)
            return _key_slicer(src)

        #: Every other source, as ``(lo, hi) -> its columns in [lo, hi]``.
        extras: dict[int, Callable] = {
            slot: slicer(src) for slot, src in enumerate(sources) if slot not in runs
        }
        begin = min((rs.begin_key for rs in runs.values()), default=0)
        end = max((rs.end_key for rs in runs.values()), default=begin)
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
                        extras[slot] = _key_slicer(rs.fallback(after))
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
    """Outer join of the table's rows with combined updates (Figure 6).

    The update stream and the data stream are both key-ordered.  An update
    whose timestamp is <= the page timestamp of the matching record has
    already been applied in place (by a migration) and is skipped — the
    timestamp rule that lets queries run during in-place migration.

    The join is array-at-a-time (:func:`join_batches`): per update batch of
    ``updates`` (a :class:`MergeUpdates`), the data side is pulled up to the
    batch's max key and joined in one :func:`repro.core.kernels.
    join_partition` call, and each joined array becomes row tuples in one
    :meth:`Schema.unpack_many` call.  The data side is either
    ``data_chunks`` — ``(rows, keys, timestamps)`` chunks (a structured
    array of the schema's dtype plus the aligned uint64 key and
    page-timestamp arrays), what ``Table.range_scan_pair_chunks`` yields —
    or ``data_pairs``, ``(record, page_ts)`` tuples, which are packed into
    such chunks first.  With a ``scope`` (an
    :class:`~repro.storage.clock.OverlapScope`), each join step's I/O runs
    inside it.
    """

    def __init__(
        self,
        data_pairs: Optional[Iterable[tuple[tuple, int]]],
        updates: MergeUpdates,
        schema: Schema,
        cpu: Optional[CpuMeter] = None,
        data_chunks: Optional[Iterable[tuple[object, object, object]]] = None,
        scope=None,
    ) -> None:
        self.updates = updates
        self.schema = schema
        self.cpu = cpu
        self.data_chunks = (
            data_chunks if data_chunks is not None else pair_chunks(data_pairs, schema)
        )
        self.scope = scope

    def __iter__(self) -> Iterator[tuple]:
        schema = self.schema
        joined = join_batches(self.updates.kernel_batches(), self.data_chunks, schema)
        # The row tuples of each join step, built once, from its array.
        steps = (schema.unpack_many(rows) for rows, _ in joined)
        if self.scope is not None:
            steps = self.scope.steps(steps)
        return _chain.from_iterable(steps)
