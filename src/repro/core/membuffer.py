"""The latched in-memory buffer for recent updates.

Incoming well-formed updates are appended here in arrival (timestamp) order,
in their encoded form — the bytes the redo log framed and a flush will pack
into run blocks unchanged.  Readers see the buffer in (key, timestamp)
order — the first reader after an append puts the new arrivals in their
places — and take a key range of it as
:class:`~repro.core.update.UpdateColumns` or as decoded records.
Concurrent scans survive both re-sorts and flushes the way Section 3.2
describes:

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

import threading
from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional

from repro.core.update import UpdateCodec, UpdateColumns, UpdateRecord
from repro.engine.record import Schema
from repro.errors import UpdateCacheFullError

_KEY_TS = itemgetter(0, 1)

class BufferFlushed(Exception):
    """Raised by a cursor when the buffer was flushed under it.

    Carries the flush epoch so the caller can locate the materialized run
    that now holds the updates this cursor was reading.
    """

    def __init__(self, flush_epoch: int):
        super().__init__(f"update buffer flushed (epoch {flush_epoch})")
        self.flush_epoch = flush_epoch


class InMemoryUpdateBuffer:
    """Append-mostly buffer of encoded updates with epoch bookkeeping."""

    def __init__(self, schema: Schema, capacity_bytes: int) -> None:
        self.schema = schema
        self.codec = UpdateCodec(schema)
        self.capacity_bytes = capacity_bytes
        #: ``(key, timestamp, encoding)`` per update: the first ``_placed`` in
        #: (key, ts) order, the rest as they arrived since the last reader.
        self._entries: list[tuple[int, int, bytes]] = []
        self._placed = 0
        self._bytes = 0
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

    def would_overflow(self, size: int) -> bool:
        """Would an update of ``size`` encoded bytes exceed the capacity?"""
        return self._bytes + size > self.capacity_bytes

    # ------------------------------------------------------------------ writes
    def append(self, encoded: bytes) -> None:
        """Add an incoming update (arrival order), as the engine encoded it —
        once, for the log and every replica's buffer."""
        timestamp, key, _, _ = self.codec.peek_head(encoded)
        size = len(encoded)
        with self._latch:
            if self._bytes + size > self.capacity_bytes:
                raise UpdateCacheFullError(
                    f"update buffer full ({self._bytes}/{self.capacity_bytes} bytes)"
                )
            self._entries.append((key, timestamp, encoded))
            self._bytes += size

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

    def _place(self) -> list[tuple[int, int, bytes]]:
        """The entries in (key, ts) order (latch held): each arrival is put
        behind the placed updates of its key and no later timestamp, which
        bumps the sort epoch if that is not where arrival order had it.  A
        reader pays for the arrivals since the last one, not for the buffer."""
        entries = self._entries
        if self._placed < len(entries):
            arrived = entries[self._placed :]
            del entries[self._placed :]
            moved = False
            for entry in arrived:
                # (key, ts + 1) sorts before any entry of that key and a later
                # timestamp, after every other one, and never meets the bytes.
                at = bisect_left(entries, (entry[0], entry[1] + 1))
                moved = moved or at < len(entries)
                entries.insert(at, entry)
            if moved:
                self.sort_epoch += 1
            self._placed = len(entries)
        return entries

    def sort(self) -> None:
        """Sort into (key, timestamp) order; bumps the sort epoch if reordered."""
        with self._latch:
            self._place()

    def drain_sorted(self) -> UpdateColumns:
        """Atomically take all updates (sorted) and reset the buffer.

        This is the flush step that materializes a sorted run; the flush
        epoch advances so concurrent cursors can detect it.  The columns lie
        over the updates' bytes back to back — what a run's blocks are cut
        from — and the buffer keeps nothing of them.
        """
        with self._latch:
            # One stable sort: a flush usually meets a buffer no scan placed.
            taken = sorted(self._entries, key=_KEY_TS)
            self._entries = []
            self._placed = 0
            self._bytes = 0
            self.flush_epoch += 1
        return UpdateColumns.from_encoded([entry[2] for entry in taken], self.codec)

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

    def _visible(self, begin_key, end_key, query_ts, after=None, limit=None) -> list[bytes]:
        """The encodings of the updates with keys in [begin_key, end_key]
        visible at ``query_ts``, in (key, ts) order (latch held): those past
        sort position ``after``, at most ``limit`` of them."""
        entries = self._place()
        lo = bisect_left(entries, (begin_key,))
        if after is not None:
            lo = max(lo, bisect_left(entries, (after[0], after[1] + 1)))
        hi = bisect_left(entries, (end_key + 1,))
        if lo >= hi:
            return []  # most scans meet no update of their range here
        in_range = map(entries.__getitem__, range(lo, hi))
        return [e[2] for e in islice((e for e in in_range if e[1] <= query_ts), limit)]

    def columns_range(
        self, begin_key: int, end_key: int, query_ts: int
    ) -> tuple[Optional[UpdateColumns], int]:
        """``(columns, flush_epoch)``: the visible updates of a key range as
        columns over their bytes (None when there are none) and the flush
        epoch they were read in — what the merge kernels take from the
        buffer, no record built."""
        with self._latch:
            pieces = self._visible(begin_key, end_key, query_ts)
            flush_epoch = self.flush_epoch
        return (UpdateColumns.from_encoded(pieces, self.codec) if pieces else None), flush_epoch

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
        The records are decoded here, for the record-at-a-time read path.
        """
        decode = self.codec.decode
        with self._latch:
            pieces = self._visible(begin_key, end_key, query_ts, after, limit)
            return [decode(piece)[0] for piece in pieces], self.sort_epoch, self.flush_epoch

    def updates(self, min_ts: int, max_ts: int) -> list[UpdateRecord]:
        """The buffered updates with ``min_ts <= ts <= max_ts``, decoded, in
        (key, ts) order."""
        decode = self.codec.decode
        with self._latch:
            return [decode(e[2])[0] for e in self._place() if min_ts <= e[1] <= max_ts]

    def min_timestamp(self) -> Optional[int]:
        with self._latch:
            return min((entry[1] for entry in self._entries), default=None)


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
