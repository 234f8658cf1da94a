"""The latched in-memory buffer for recent updates.

Incoming well-formed updates are appended here in arrival (timestamp) order.
Query processing sorts the buffer into (key, timestamp) order; concurrent
scans survive both re-sorts and flushes the way Section 3.2 describes:

* the buffer carries a *sort epoch* — a scan cursor that detects a newer
  epoch re-positions itself by searching for its last-delivered (key, ts);
* the buffer carries a *flush epoch* — a cursor that detects a flush learns
  which materialized run replaced the data it was reading and the MaSM scan
  operator swaps in a Run_scan (see :mod:`repro.core.operators`);
* new updates that land between a cursor's position and its range end are
  filtered out by the query timestamp, so a query never sees updates later
  than itself.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterator, Optional

from repro.core.update import UpdateCodec, UpdateRecord
from repro.engine.record import Schema
from repro.errors import UpdateCacheFullError


class BufferFlushed(Exception):
    """Raised by a cursor when the buffer was flushed under it.

    Carries the flush epoch so the caller can locate the materialized run
    that now holds the updates this cursor was reading.
    """

    def __init__(self, flush_epoch: int):
        super().__init__(f"update buffer flushed (epoch {flush_epoch})")
        self.flush_epoch = flush_epoch


class InMemoryUpdateBuffer:
    """Append-mostly buffer of :class:`UpdateRecord` with epoch bookkeeping."""

    def __init__(self, schema: Schema, capacity_bytes: int) -> None:
        self.schema = schema
        self.codec = UpdateCodec(schema)
        self.capacity_bytes = capacity_bytes
        self._entries: list[UpdateRecord] = []
        self._bytes = 0
        self._sorted = True  # an empty buffer is trivially sorted
        self.sort_epoch = 0
        self.flush_epoch = 0
        self._latch = threading.Lock()

    # ------------------------------------------------------------- accounting
    @property
    def used_bytes(self) -> int:
        return self._bytes

    @property
    def count(self) -> int:
        return len(self._entries)

    def pages_used(self, page_size: int) -> int:
        """Whole pages the buffered updates occupy (ceiling)."""
        return -(-self._bytes // page_size) if self._bytes else 0

    @property
    def is_full(self) -> bool:
        return self._bytes >= self.capacity_bytes

    def would_overflow(self, update: UpdateRecord) -> bool:
        return self._bytes + self.codec.encoded_size(update) > self.capacity_bytes

    # ------------------------------------------------------------------ writes
    def append(self, update: UpdateRecord) -> None:
        """Add an incoming update (arrival order)."""
        size = self.codec.encoded_size(update)
        with self._latch:
            if self._bytes + size > self.capacity_bytes:
                raise UpdateCacheFullError(
                    f"update buffer full ({self._bytes}/{self.capacity_bytes} bytes)"
                )
            self._entries.append(update)
            self._bytes += size
            if self._sorted and len(self._entries) > 1:
                if update.sort_key() < self._entries[-2].sort_key():
                    self._sorted = False

    def shrink_capacity(self, capacity_bytes: int) -> None:
        """Give back stolen pages: reduce capacity without touching data.

        Used when a scan starts and the buffer must return the query pages
        it borrowed while no scan was active (the MaSM-M page steal).  The
        new capacity must still cover the buffered bytes — callers flush
        first when it would not.
        """
        with self._latch:
            if capacity_bytes < self._bytes:
                raise ValueError(
                    f"cannot shrink capacity to {capacity_bytes} below "
                    f"{self._bytes} buffered bytes (flush first)"
                )
            self.capacity_bytes = capacity_bytes

    def sort(self) -> None:
        """Sort into (key, timestamp) order; bumps the sort epoch if reordered."""
        with self._latch:
            if self._sorted:
                return
            self._entries.sort(key=UpdateRecord.sort_key)
            self._sorted = True
            self.sort_epoch += 1

    def drain_sorted(self) -> list[UpdateRecord]:
        """Atomically take all updates (sorted) and reset the buffer.

        This is the flush step that materializes a sorted run; the flush
        epoch advances so concurrent cursors can detect it.
        """
        with self._latch:
            self._entries.sort(key=UpdateRecord.sort_key)
            taken = self._entries
            self._entries = []
            self._bytes = 0
            self._sorted = True
            self.flush_epoch += 1
            return taken

    # ------------------------------------------------------------------ reads
    def cursor(
        self,
        begin_key: int,
        end_key: int,
        query_ts: int,
        batch_size: int = 64,
        flush_epoch: Optional[int] = None,
    ) -> "BufferCursor":
        """A stable cursor over [begin_key, end_key] visible at ``query_ts``.

        ``batch_size`` is how many updates each latch acquisition grabs
        (Section 3.2: "Mem_scan retrieves multiple update records at a time
        to reduce latching overhead").  ``flush_epoch`` is the epoch the
        cursor's visibility snapshot belongs to — the scan's registration
        point, not cursor construction, which may happen arbitrarily later
        (operators build lazily): a flush in between must still raise
        :class:`BufferFlushed` or the drained updates would silently vanish
        from the scan.
        """
        return BufferCursor(
            self, begin_key, end_key, query_ts, batch_size, flush_epoch
        )

    def snapshot_range(
        self,
        begin_key: int,
        end_key: int,
        query_ts: int,
        after: Optional[tuple[int, int]] = None,
        limit: int = 64,
    ) -> tuple[list[UpdateRecord], int, int]:
        """Grab up to ``limit`` visible updates after sort-position ``after``.

        Returns (batch, sort_epoch, flush_epoch) captured under the latch —
        the batched retrieval Section 3.2 uses to keep latching overhead low.
        The buffer must be sorted; callers sort first.
        """
        with self._latch:
            if not self._sorted:
                self._entries.sort(key=UpdateRecord.sort_key)
                self._sorted = True
                self.sort_epoch += 1
            floor = (begin_key, -1) if after is None else after
            pos = bisect.bisect_right(
                self._entries, floor, key=UpdateRecord.sort_key
            )
            batch: list[UpdateRecord] = []
            while pos < len(self._entries) and len(batch) < limit:
                entry = self._entries[pos]
                if entry.key > end_key:
                    break
                if entry.key >= begin_key and entry.timestamp <= query_ts:
                    batch.append(entry)
                pos += 1
            return batch, self.sort_epoch, self.flush_epoch

    def min_timestamp(self) -> Optional[int]:
        with self._latch:
            if not self._entries:
                return None
            return min(e.timestamp for e in self._entries)


class BufferCursor:
    """Iterates the buffer in (key, ts) order, resilient to re-sorts.

    If the buffer flushes mid-iteration, :meth:`__next__` raises
    :class:`BufferFlushed`; the MaSM scan operator catches it and continues
    from the materialized run that absorbed the updates.
    """

    def __init__(
        self,
        buffer: InMemoryUpdateBuffer,
        begin_key: int,
        end_key: int,
        query_ts: int,
        batch_size: int = 64,
        flush_epoch: Optional[int] = None,
    ) -> None:
        self.buffer = buffer
        self.begin_key = begin_key
        self.end_key = end_key
        self.query_ts = query_ts
        self.batch_size = max(1, batch_size)
        self._last: Optional[tuple[int, int]] = None
        self._batch: list[UpdateRecord] = []
        self._batch_pos = 0
        self._flush_epoch = (
            flush_epoch if flush_epoch is not None else buffer.flush_epoch
        )
        self._exhausted = False

    def __iter__(self) -> Iterator[UpdateRecord]:
        return self

    def __next__(self) -> UpdateRecord:
        if self._exhausted:
            raise StopIteration
        if self._batch_pos >= len(self._batch):
            batch, _, flush_epoch = self.buffer.snapshot_range(
                self.begin_key,
                self.end_key,
                self.query_ts,
                after=self._last,
                limit=self.batch_size,
            )
            if flush_epoch != self._flush_epoch:
                self._exhausted = True
                # Hand over to the flush that drained *this cursor's*
                # generation (epoch + 1).  Every update visible at the
                # cursor's query timestamp was already buffered when that
                # flush drained, so later flushes (epoch + 2, ...) can only
                # contain updates this cursor must not see anyway.
                raise BufferFlushed(self._flush_epoch + 1)
            if not batch:
                self._exhausted = True
                raise StopIteration
            self._batch = batch
            self._batch_pos = 0
        update = self._batch[self._batch_pos]
        self._batch_pos += 1
        self._last = update.sort_key()
        return update

    @property
    def last_position(self) -> Optional[tuple[int, int]]:
        """The (key, ts) of the last delivered update (resume point)."""
        return self._last
