"""Shared LRU cache of decoded run blocks.

Materialized runs are immutable, so a block's decoded form never goes
stale: concurrent ``Run_scan``s over hot key ranges can share one decode.
The cache is bounded by a block count, keyed by ``(run_name, block_no)``,
and stores the *unfiltered* :class:`~repro.core.update.ColumnarBlock` of
each block — query-specific filters (key range, ``query_ts`` visibility,
migrated ranges, ``after`` positions) are applied per scan on top of the
cached columns/records.  The ``blockcache.resident_bytes`` gauge reports
the resident entries' decoded footprint (``nbytes``, fixed when a block is
decoded).

Hit/miss/eviction counts accumulate both on the cache itself and, when a
stats sink is attached (:class:`repro.core.masm.MaSMStats`), on the owning
MaSM instance's counters.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from repro.obs import get_registry

#: Default capacity: 128 decoded blocks (8 MB of raw run data at the
#: coarse 64 KB granularity, more as Python objects).
DEFAULT_CACHE_BLOCKS = 128

#: A cache entry: a :class:`~repro.core.update.ColumnarBlock`.
DecodedBlock = object


class DecodedBlockCache:
    """Block-count-bounded LRU of decoded run blocks, safe for concurrent
    scans."""

    def __init__(self, capacity_blocks: int = DEFAULT_CACHE_BLOCKS, stats=None):
        if capacity_blocks < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_blocks}")
        self.capacity = capacity_blocks
        self._entries: "OrderedDict[tuple[str, int], DecodedBlock]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = stats
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0
        # Process-wide aggregates across every cache instance; the exact
        # per-engine counts stay on the attached MaSMStats sink.
        registry = get_registry()
        self._obs_hits = registry.counter("blockcache.hits")
        self._obs_misses = registry.counter("blockcache.misses")
        self._obs_evictions = registry.counter("blockcache.evictions")
        self._obs_resident = registry.gauge("blockcache.resident_blocks")
        self._obs_resident_bytes = registry.gauge("blockcache.resident_bytes")

    def __len__(self) -> int:
        return len(self._entries)

    def _publish_bytes(self) -> None:
        self._obs_resident.set(len(self._entries))
        self._obs_resident_bytes.set(self.resident_bytes)

    def _drop(self, key: tuple[str, int]) -> None:
        self.resident_bytes -= self._entries.pop(key).nbytes

    def get(self, run_name: str, block_no: int) -> Optional[DecodedBlock]:
        """The decoded block, refreshed to most-recently-used; None on miss."""
        return self.get_many(run_name, (block_no,))[0]

    def get_many(self, run_name: str, block_nos) -> list[Optional[DecodedBlock]]:
        """:meth:`get` for each of ``block_nos``, in order, under one lock
        hold — what a run scan does per read group.  Counts and LRU order
        are those of the per-block calls."""
        stats = self._stats
        entries = self._entries
        found: list[Optional[DecodedBlock]] = []
        hits = 0
        with self._lock:
            for block_no in block_nos:
                key = (run_name, block_no)
                entry = entries.get(key)
                found.append(entry)
                if entry is not None:
                    hits += 1
                    entries.move_to_end(key)
            misses = len(found) - hits
            self.hits += hits
            self.misses += misses
        if hits:
            self._obs_hits.add(hits)
        if misses:
            self._obs_misses.add(misses)
        if stats is not None:
            stats.block_cache_hits += hits
            stats.block_cache_misses += misses
        return found

    def put(self, run_name: str, block_no: int, block: DecodedBlock) -> None:
        """Insert a decoded block, evicting the least-recently-used ones."""
        self.put_many(run_name, ((block_no, block),))

    def put_many(self, run_name: str, blocks) -> None:
        """:meth:`put` for each ``(block_no, block)`` of ``blocks``, in
        order, under one lock hold and one gauge publish; evictions happen
        insert by insert, exactly as the per-block calls would make them."""
        if self.capacity == 0:
            return
        stats = self._stats
        entries = self._entries
        evicted = 0
        with self._lock:
            for block_no, block in blocks:
                key = (run_name, block_no)
                if key in entries:
                    self._drop(key)
                entries[key] = block
                self.resident_bytes += block.nbytes
                while len(entries) > self.capacity:
                    self._drop(next(iter(entries)))
                    evicted += 1
            self.evictions += evicted
            self._publish_bytes()
        if evicted:
            self._obs_evictions.add(evicted)
            if stats is not None:
                stats.block_cache_evictions += evicted

    def invalidate_run(self, run_name: str) -> int:
        """Drop every cached block of one run (called when a run is deleted).

        Returns the number of blocks dropped.  Dropping is bookkeeping, not
        correctness: run names are never reused within a MaSM instance, so a
        stale entry could only waste memory until evicted.
        """
        with self._lock:
            doomed = [k for k in self._entries if k[0] == run_name]
            for k in doomed:
                self._drop(k)
            if doomed:
                self._publish_bytes()
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.resident_bytes = 0
            self._publish_bytes()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DecodedBlockCache({len(self._entries)}/{self.capacity} blocks, "
            f"{self.resident_bytes}B resident, "
            f"{self.hits} hits, {self.misses} misses, {self.evictions} evictions)"
        )
