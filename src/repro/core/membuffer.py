"""The latched in-memory buffer for recent updates.

Incoming well-formed updates are appended here in arrival (timestamp) order,
in their encoded form — the bytes the redo log framed and a flush will pack
into run blocks unchanged.  Readers see the buffer in (key, timestamp)
order — the first reader after an append puts the new arrivals in their
places — and take a key range of it as
:class:`~repro.core.update.UpdateColumns`.
Concurrent scans survive both re-sorts and flushes the way Section 3.2
describes:

* a scan reads the buffer one key partition at a time, each read a fresh
  pair of bisections under the latch, so a re-sort between two reads (the
  *sort epoch* counts them) cannot misplace it;
* the buffer carries a *flush epoch* — a read that finds a newer one than
  the scan registered under tells the MaSM scan operator to swap in a
  Run_scan over the materialized run that replaced the data (see
  :class:`repro.core.operators.MemScan`);
* new updates that land inside a scan's range are filtered out by the query
  timestamp, so a query never sees updates later than itself.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from operator import itemgetter
from typing import Optional

from repro.core.update import UpdateCodec, UpdateColumns
from repro.engine.record import Schema
from repro.errors import UpdateCacheFullError

_KEY_TS = itemgetter(0, 1)


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
        epoch advances so concurrent scans can detect it.  The columns lie
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
    def columns_range(
        self, begin_key: int, end_key: int, query_ts: int
    ) -> tuple[Optional[UpdateColumns], int]:
        """``(columns, flush_epoch)``: the updates with keys in [begin_key,
        end_key] visible at ``query_ts`` as columns over their bytes, in
        (key, ts) order (None when there are none), and the flush epoch they
        were read in — what a scan takes from the buffer, no record built."""
        with self._latch:
            entries = self._place()
            lo = bisect_left(entries, (begin_key,))
            hi = bisect_left(entries, (end_key + 1,))
            pieces = [e[2] for e in entries[lo:hi] if e[1] <= query_ts]
            flush_epoch = self.flush_epoch
        return (UpdateColumns.from_encoded(pieces, self.codec) if pieces else None), flush_epoch

    def min_timestamp(self) -> Optional[int]:
        with self._latch:
            return min((entry[1] for entry in self._entries), default=None)
