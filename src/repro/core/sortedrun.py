"""Materialized sorted runs of cached updates on the SSD (Section 3.1).

A run is an immutable, key-sorted sequence of update records packed into
fixed-size blocks.  Blocks never split a record, and each holds its updates
column-major in the layout :class:`~repro.core.update.UpdateCodec` owns
(count, keys, timestamps, types, payload lengths, payloads), sealed with a
checksum trailer.  The run index (one first-key per block) is built while
the run is written and kept in memory.

Runs are written with large sequential SSD I/Os (no random SSD writes —
design goal 2) and scanned with batched block reads narrowed by the run
index.  Partial migration (Section 3.5) marks key ranges of a run as
migrated; scans skip updates inside migrated ranges.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Optional

import numpy as _np

from repro.core.blockcache import DecodedBlockCache
from repro.core.runindex import COARSE_GRANULARITY, RunIndex
from repro.core.update import ColumnarBlock, UpdateCodec, UpdateColumns, UpdateRecord
from repro.errors import ChecksumError, StorageError
from repro.obs.registry import get_registry
from repro.storage import checksum as _checksum
from repro.storage.file import SimFile, StorageVolume
from repro.util.search import key_position
from repro.util.units import MB, ceil_div

#: Blocks are grouped into write I/Os of this size when materializing a run.
DEFAULT_WRITE_CHUNK = 1 * MB

#: Block reads are batched in groups of this many requests.
READ_BATCH_BLOCKS = 128


def _coalesce_into(ranges: list[tuple[int, int]], begin_key: int, end_key: int) -> None:
    """Insert [begin, end] into a sorted, disjoint, non-adjacent range list."""
    if end_key < begin_key:
        return
    i = bisect_left(ranges, (begin_key,))
    if i > 0 and ranges[i - 1][1] >= begin_key - 1:
        i -= 1
        begin_key = ranges[i][0]
    j = i
    while j < len(ranges) and ranges[j][0] <= end_key + 1:
        end_key = max(end_key, ranges[j][1])
        j += 1
    ranges[i:j] = [(begin_key, end_key)]


def _covers(ranges: list[tuple[int, int]], lo: int, hi: int) -> bool:
    """True when the coalesced range list covers every key in [lo, hi]."""
    covered = lo
    for r_lo, r_hi in sorted(ranges):
        if r_lo > covered:
            return False
        covered = max(covered, r_hi + 1)
        if covered > hi:
            return True
    return covered > hi


def subtract_spans(
    lo: int, hi: int, holes: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The sub-intervals of ``[lo, hi]`` no hole covers, in order; none
    for an empty range (``lo > hi``)."""
    spans: list[tuple[int, int]] = []
    cursor = lo
    for h_lo, h_hi in sorted(holes):
        if cursor > hi:
            break
        if h_lo > cursor:
            spans.append((cursor, min(h_lo - 1, hi)))
        cursor = max(cursor, h_hi + 1)
    if cursor <= hi:
        spans.append((cursor, hi))
    return spans


class MaterializedSortedRun:
    """One immutable sorted run plus its in-memory run index."""

    def __init__(
        self,
        name: str,
        file: SimFile,
        codec: UpdateCodec,
        index: RunIndex,
        num_blocks: int,
        count: int,
        min_key: int,
        max_key: int,
        min_ts: int,
        max_ts: int,
        passes: int = 1,
    ) -> None:
        self.name = name
        self.file = file
        self.codec = codec
        self.index = index
        self.num_blocks = num_blocks
        self.count = count
        self.min_key = min_key
        self.max_key = max_key
        self.min_ts = min_ts
        self.max_ts = max_ts
        #: 1 for runs flushed straight from memory, 2 for merged runs.
        self.passes = passes
        #: Key ranges already migrated back to the main data (Section 3.5).
        self.migrated_ranges: list[tuple[int, int]] = []
        #: Set when a block failed checksum verification after retries; the
        #: run's SSD copy can no longer be trusted and scans must fall back
        #: to redo-log replay of its timestamp range.
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        #: The timestamp range of *logged* updates this run is the durable
        #: home of.  Equals [min_ts, max_ts] of the content except when
        #: flush-time duplicate merging narrowed the content's span; the
        #: redo-log fallback replays this range, not the content's.
        self.covered_min_ts = min_ts
        self.covered_max_ts = max_ts

    # ------------------------------------------------------------- integrity
    def quarantine(self, reason: str) -> bool:
        """Mark the run as damaged; returns True if it was newly quarantined."""
        if self.quarantined:
            return False
        self.quarantined = True
        self.quarantine_reason = reason
        get_registry().counter("masm.runs.quarantined").add(1)
        return True

    def verify_blocks(self) -> list[int]:
        """Checksum-verify every block (scrub); returns damaged block numbers.

        Reads the whole run with large sequential I/Os.  Verification
        failures are collected, not raised, so one bad block does not hide
        others — the caller decides whether to quarantine.
        """
        damaged: list[int] = []
        offset = 0
        total = self.num_blocks * self.block_size
        while offset < total:
            chunk = min(DEFAULT_WRITE_CHUNK, total - offset)
            data = self.file.read(offset, chunk)
            for base in range(0, chunk, self.block_size):
                block_no = (offset + base) // self.block_size
                try:
                    _checksum.verify(
                        data[base : base + self.block_size],
                        context=f"run {self.name!r} block {block_no}",
                    )
                except ChecksumError:
                    damaged.append(block_no)
            offset += chunk
        return damaged

    # -------------------------------------------------------------- geometry
    @property
    def block_size(self) -> int:
        return self.index.block_size

    @property
    def size_bytes(self) -> int:
        """SSD bytes occupied (whole blocks)."""
        return self.num_blocks * self.block_size

    def pages(self, page_size: int) -> int:
        return ceil_div(self.size_bytes, page_size)

    # ----------------------------------------------------------------- scans
    def scan(
        self,
        begin_key: int,
        end_key: int,
        query_ts: Optional[int] = None,
        after: Optional[tuple[int, int]] = None,
        cache: Optional[DecodedBlockCache] = None,
        stats=None,
    ) -> Iterator[UpdateRecord]:
        """Stream updates with keys in [begin, end], in (key, ts) order.

        ``query_ts`` hides updates later than the query (Section 3.2's
        timestamp visibility).  ``after`` resumes past a (key, ts) position —
        used when a Mem_scan hands over to a Run_scan mid-query.

        The records of :meth:`column_groups`, one read group decoded per
        pull: nothing of a group is yielded before every block of it was
        read and verified.
        """
        for group in self.column_groups(begin_key, end_key, query_ts, after, cache, stats):
            yield from group.records

    def column_groups(
        self,
        begin_key: int,
        end_key: int,
        query_ts: Optional[int] = None,
        after: Optional[tuple[int, int]] = None,
        cache: Optional[DecodedBlockCache] = None,
        stats=None,
    ) -> Iterator[UpdateColumns]:
        """:meth:`slice_columns` one read group (``READ_BATCH_BLOCKS``
        blocks: one batched SSD read) at a time, each read only when asked
        for; groups with nothing to show are skipped."""
        first, last = self.index.block_span(begin_key, end_key) or (0, -1)
        for block in range(first, last + 1, READ_BATCH_BLOCKS):
            group = self.slice_columns(
                begin_key,
                end_key,
                query_ts,
                after,
                cache,
                stats,
                blocks=(block, min(block + READ_BATCH_BLOCKS - 1, last)),
            )
            if group is not None:
                yield group

    def _iter_decoded_blocks(
        self,
        first_block: int,
        last_block: int,
        cache: Optional[DecodedBlockCache],
        stats,
    ) -> Iterator[tuple[int, ColumnarBlock]]:
        """Yield (block_no, ColumnarBlock) over a block range, in order.

        The shared loading core of :meth:`scan` and :meth:`slice_columns`:
        cache lookups first, then one batched SSD read for the group's
        misses, every block of it checksum-verified and the whole group
        decoded in one pass (:meth:`UpdateCodec.decode_blocks`) before
        anything is yielded from it.
        """
        block_size = self.block_size
        name = self.name
        block = first_block
        while block <= last_block:
            group_end = min(block + READ_BATCH_BLOCKS - 1, last_block)
            group = range(block, group_end + 1)
            if cache is not None:
                entries = cache.get_many(name, group)
                missing = [b for b, entry in zip(group, entries) if entry is None]
            else:
                entries = [None] * len(group)
                missing = list(group)
            if missing:
                requests = [(b * block_size, block_size) for b in missing]
                blocks = self.file.read_batch(requests)
                for b, data in zip(missing, blocks):
                    _checksum.verify(data, context=f"run {name!r} block {b}")
                fresh = list(zip(missing, self.codec.decode_blocks(blocks)))
                if stats is not None:
                    stats.blocks_decoded += len(fresh)
                if cache is not None:
                    cache.put_many(name, fresh)
                for b, entry in fresh:
                    entries[b - block] = entry
            yield from zip(group, entries)
            block = group_end + 1

    def slice_columns(
        self,
        begin_key: int,
        end_key: int,
        query_ts: Optional[int] = None,
        after: Optional[tuple[int, int]] = None,
        cache: Optional[DecodedBlockCache] = None,
        stats=None,
        blocks: Optional[tuple[int, int]] = None,
    ) -> Optional[UpdateColumns]:
        """Columnar form of :meth:`scan`: the run's contribution to one key
        partition as :class:`UpdateColumns` — header columns plus payload
        offsets into the read groups' bytes, all filters already applied and
        no :class:`UpdateRecord` built.  ``blocks`` narrows the read to that
        (first, last) stretch of the range's block span.

        This is what the merge kernels consume (one call per partition per
        run).  Returns None when the partition is empty for this run.
        Raises the same :class:`ChecksumError`/:class:`TransientIOError` a
        scan would — but always *before* any data escapes (the whole slice
        is built atomically), so the caller can swap in the fallback stream
        from the last partition boundary.
        """
        span = blocks or self.index.block_span(begin_key, end_key)
        if span is None:
            return None
        first_block, last_block = span
        # A snapshot: a concurrent migration coalesces the list in place.
        migrated = list(self.migrated_ranges)
        # Stretches of blocks that sit side by side in one read group's
        # columns: [group, first row, end row].
        stretches: list[list] = []
        for _, entry in self._iter_decoded_blocks(
            first_block, last_block, cache, stats
        ):
            lo, hi = entry.span
            if lo == hi:
                continue
            group = entry.group
            if group.columns.keys[lo] > end_key:
                break  # blocks are key-ordered: nothing further matches
            if stretches and stretches[-1][0] is group and stretches[-1][2] == lo:
                stretches[-1][2] = hi
            else:
                stretches.append([group, lo, hi])
        if not stretches:
            return None
        # Only the first block can hold keys below the range and only the
        # last keys above it (what the run index guarantees).
        group, lo, hi = stretches[0]
        keys = group.columns.keys
        if keys[lo] < begin_key:
            stretches[0][1] = lo + key_position(keys[lo:hi], begin_key, "left")
        group, lo, hi = stretches[-1]
        keys = group.columns.keys
        if keys[hi - 1] > end_key:
            stretches[-1][2] = lo + key_position(keys[lo:hi], end_key, "right")
        parts = [
            group.update_columns(lo, hi) for group, lo, hi in stretches if lo < hi
        ]
        if not parts:
            return None
        columns = UpdateColumns.concat(parts)
        keys = columns.keys
        mask = None
        if after is not None and keys[0] <= after[0]:
            after_key, after_ts = after
            mask = (keys > after_key) | (
                (keys == after_key) & (columns.timestamps > after_ts)
            )
        if query_ts is not None and query_ts < self.max_ts:
            visible = columns.timestamps <= query_ts
            if not visible.all():
                mask = visible if mask is None else (mask & visible)
        for m_lo, m_hi in migrated:
            inside = (keys >= m_lo) & (keys <= m_hi)
            if inside.any():
                outside = ~inside
                mask = outside if mask is None else (mask & outside)
        if mask is not None:
            columns = columns.rows(mask)
            if not len(columns):
                return None
        return columns

    def stored_blocks(self) -> Iterator[UpdateColumns]:
        """Every update in the run, one block read at a time, as columns.

        Unlike :meth:`scan`, nothing is filtered — not even migrated
        ranges: this is the donor side of peer repair, which must
        hand over the run's complete durable content (the receiver keeps its
        own masks).  Each block is checksum-verified, so a damaged donor run
        raises instead of spreading corruption.  Empty blocks yield nothing.
        """
        for block in range(self.num_blocks):
            data = self.file.read(block * self.block_size, self.block_size)
            _checksum.verify(data, context=f"run {self.name!r} block {block}")
            entry = ColumnarBlock(data, self.codec)
            if entry.count:
                yield entry.update_columns()

    def block_digests(self) -> list[int]:
        """Per-block CRC digests for cross-replica anti-entropy comparison.

        Reads are uncharged (:meth:`SimFile.peek`) — digesting is a
        comparison aid, not data-path I/O — and blocks are *not* verified:
        a damaged block must still produce its (wrong) digest so peers can
        detect the divergence.
        """
        digests: list[int] = []
        for block in range(self.num_blocks):
            data = self.file.peek(block * self.block_size, self.block_size)
            digests.append(_checksum.checksum(data))
        return digests

    # ------------------------------------------------------------- migration
    def mark_migrated(self, begin_key: int, end_key: int) -> None:
        """Record that updates with keys in [begin, end] were migrated.

        Ranges are kept coalesced (sorted, disjoint, non-adjacent) so that
        per-record checks during scans are a single binary search instead of
        a linear pass — and repeated partial migrations cannot grow the list
        quadratically.
        """
        _coalesce_into(self.migrated_ranges, begin_key, end_key)

    def fully_migrated(self, table_min: int, table_max: int) -> bool:
        """True if the migrated ranges cover [table_min, table_max]."""
        return _covers(self.migrated_ranges, table_min, table_max)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MaterializedSortedRun({self.name!r}, {self.count} updates, "
            f"{self.num_blocks} blocks of {self.block_size}B, "
            f"keys [{self.min_key}, {self.max_key}], pass={self.passes})"
        )


def load_run(
    volume: StorageVolume,
    name: str,
    codec: UpdateCodec,
    block_size: int = COARSE_GRANULARITY,
    passes: int = 1,
) -> MaterializedSortedRun:
    """Rebuild a run's in-memory metadata from its SSD file (crash recovery).

    Materialized runs survive a crash on the non-volatile SSD; only their
    in-memory run index and statistics are lost.  This reads the run once
    (large sequential I/Os), checksum-verifying every block, and
    reconstructs them.  A damaged block raises :class:`ChecksumError` —
    recovery treats the whole run as damaged and rebuilds it from the redo
    log rather than trusting a partially verified file.
    """
    file = volume.open(name)
    num_blocks = file.size // block_size
    first_keys: list[int] = []
    count = 0
    extremes = []  # per read: (min key, max key, min ts, max ts)
    offset = 0
    while offset < num_blocks * block_size:
        chunk = min(DEFAULT_WRITE_CHUNK, num_blocks * block_size - offset)
        data = file.read(offset, chunk)
        for base in range(0, chunk, block_size):
            _checksum.verify(
                data[base : base + block_size],
                context=f"run {name!r} block {(offset + base) // block_size}",
            )
        # One decode per read: first keys, counts and the key and
        # timestamp extremes all come off the columns.
        keys, timestamps, _, _, _, bounds = codec.block_columns(
            data, 0, chunk // block_size, block_size
        )
        starts = _np.asarray(bounds[:-1])
        filled = starts < _np.asarray(bounds[1:])
        firsts = _np.zeros(len(starts), dtype=_np.uint64)  # 0: an empty block
        firsts[filled] = keys[starts[filled]]
        first_keys.extend(firsts.tolist())
        if len(keys):
            count += len(keys)
            extremes.append(
                (keys.min(), keys.max(), timestamps.min(), timestamps.max())
            )
        offset += chunk
    if count == 0:
        raise StorageError(f"run file {name!r} contains no update records")
    min_keys, max_keys, min_tss, max_tss = zip(*extremes)
    return MaterializedSortedRun(
        name=name,
        file=file,
        codec=codec,
        index=RunIndex(first_keys, block_size),
        num_blocks=num_blocks,
        count=count,
        min_key=int(min(min_keys)),
        max_key=int(max(max_keys)),
        min_ts=int(min(min_tss)),
        max_ts=int(max(max_tss)),
        passes=passes,
    )


def write_run(
    volume: StorageVolume,
    name: str,
    updates: UpdateColumns,
    codec: UpdateCodec,
    block_size: int = COARSE_GRANULARITY,
    write_chunk: int = DEFAULT_WRITE_CHUNK,
    passes: int = 1,
    size_hint: Optional[int] = None,
) -> MaterializedSortedRun:
    """Materialize (key, ts)-sorted updates as a run on ``volume``.

    ``updates`` are encoded updates in columnar form (a flushed buffer, a
    merge's output, a log replay).  Blocks are packed from the length
    column, greedily, never splitting an update, and each block's bytes come
    from the codec (:meth:`UpdateCodec.block_bytes`).

    ``size_hint`` pre-allocates the file and writes it ``write_chunk`` bytes
    at a time (merges), shrinking the extent to the written size afterwards;
    without it the run is one write to an exactly sized file.  Raises
    :class:`StorageError`, before anything is written, if there are no
    updates, they are out of order, or one does not fit a block.
    """
    count = len(updates)
    if not count:
        raise StorageError(f"refusing to materialize empty run {name!r}")
    keys, timestamps = updates.keys, updates.timestamps
    sizes = updates.lengths + codec.header_size
    # Each block's budget leaves room for its checksum trailer.
    budget = codec.block_budget(block_size - _checksum.TRAILER_SIZE)
    misplaced = (keys[1:] < keys[:-1]) | (
        (keys[1:] == keys[:-1]) & (timestamps[1:] < timestamps[:-1])
    )
    oversize = sizes > budget
    if misplaced.any() or oversize.any():
        # Whichever a walk of the updates in order would have met first.
        at_misplaced = int(misplaced.argmax()) + 1 if misplaced.any() else count
        at_oversize = int(oversize.argmax()) if oversize.any() else count
        if at_misplaced <= at_oversize:
            raise StorageError(f"updates for run {name!r} are not (key, ts)-sorted")
        raise StorageError(
            f"update of {int(sizes[at_oversize])} bytes exceeds block size {block_size}"
        )

    updates = updates.contiguous()
    ends = _np.cumsum(sizes)  # encoded bytes of updates 0..i
    bounds = [0]  # block b holds updates bounds[b]:bounds[b + 1]
    while bounds[-1] < count:
        used = int(ends[bounds[-1] - 1]) if bounds[-1] else 0
        bounds.append(int(ends.searchsorted(used + budget, "right")))

    def blocks(first: int, last: int) -> bytes:
        bodies = codec.block_bytes(updates, bounds[first : last + 1])
        return b"".join([_checksum.seal(body, block_size) for body in bodies])

    num_blocks = len(bounds) - 1
    if size_hint is None:
        # A 1-pass run fits in memory by construction (it comes from the
        # in-memory buffer): allocate exactly and write once.
        file = volume.create(name, num_blocks * block_size)
        file.append(blocks(0, num_blocks))
    else:
        per_write = max(1, write_chunk // block_size)
        file = None
        for first in range(0, num_blocks, per_write):
            chunk = blocks(first, min(first + per_write, num_blocks))
            if file is None:
                file = volume.create(name, size_hint or len(chunk))
            if file.append_pos + len(chunk) > file.size:
                raise StorageError(
                    f"run {name!r} overflows its pre-allocated extent "
                    f"({file.size} bytes; size_hint too small)"
                )
            file.append(chunk)
        if num_blocks * block_size < file.size:
            shrink = getattr(volume, "shrink", None)
            if shrink is not None:
                shrink(name, num_blocks * block_size)

    return MaterializedSortedRun(
        name=name,
        file=volume.open(name),
        codec=codec,
        index=RunIndex(keys[bounds[:-1]].tolist(), block_size),
        num_blocks=num_blocks,
        count=count,
        min_key=int(keys[0]),
        max_key=int(keys[-1]),
        min_ts=int(timestamps.min()),
        max_ts=int(timestamps.max()),
        passes=passes,
    )
