"""Shared LRU cache of decoded run blocks.

Materialized runs are immutable, so a block's decoded form never goes
stale: concurrent ``Run_scan``s over hot key ranges can share one decode.
The cache is size-bounded (in blocks, optionally also in decoded bytes),
keyed by ``(run_name, block_no)``, and stores the *unfiltered*
:class:`~repro.core.update.ColumnarBlock` of each block — query-specific
filters (key range, ``query_ts`` visibility, migrated ranges, ``after``
positions) are applied per scan on top of the cached columns/records.

Memory accounting is byte-accurate: each entry is charged its actual
decoded footprint (``entry.nbytes``), re-read on every hit so lazy
materialization of records or key lists after insertion is picked up.  The
gauge ``blockcache.accounting_delta_bytes`` exposes how far the old
encoded-size approximation was from the truth.

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

#: Rough decoded bytes per record for legacy ``(keys, records)`` tuple
#: entries that predate :class:`~repro.core.update.ColumnarBlock` (kept so
#: foreign entries remain accountable).
_LEGACY_ENTRY_BYTES_PER_RECORD = 96

#: A cache entry.  Normally a :class:`~repro.core.update.ColumnarBlock`;
#: anything sized (an ``nbytes`` attribute) or shaped like the legacy
#: ``(keys, records)`` tuple is accepted.
DecodedBlock = object


def _entry_bytes(entry) -> int:
    """Actual decoded footprint of an entry, best effort for foreign types."""
    size = getattr(entry, "nbytes", None)
    if size is not None:
        return int(size)
    try:
        keys = entry[0]
        return len(keys) * _LEGACY_ENTRY_BYTES_PER_RECORD
    except (TypeError, IndexError, KeyError):
        return 0


def _entry_encoded_bytes(entry) -> int:
    """The encoded-size approximation the old accounting charged."""
    size = getattr(entry, "encoded_size", None)
    if size is not None:
        return int(size)
    return _entry_bytes(entry)


class DecodedBlockCache:
    """Size-bounded LRU of decoded run blocks, safe for concurrent scans."""

    def __init__(
        self,
        capacity_blocks: int = DEFAULT_CACHE_BLOCKS,
        stats=None,
        capacity_bytes: Optional[int] = None,
    ):
        if capacity_blocks < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity_blocks}")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity = capacity_blocks
        self.capacity_bytes = capacity_bytes
        self._entries: "OrderedDict[tuple[str, int], DecodedBlock]" = OrderedDict()
        #: Bytes currently charged per entry; re-read on hits so lazy
        #: materialization after insertion stays accounted.
        self._charged: dict[tuple[str, int], int] = {}
        self._lock = threading.Lock()
        self._stats = stats
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.resident_bytes = 0
        #: What the pre-columnar accounting would have charged (encoded
        #: block sizes): kept to expose the approximation error as a gauge.
        self.approx_bytes = 0
        # Process-wide aggregates across every cache instance; the exact
        # per-engine counts stay on the attached MaSMStats sink.
        registry = get_registry()
        self._obs_hits = registry.counter("blockcache.hits")
        self._obs_misses = registry.counter("blockcache.misses")
        self._obs_evictions = registry.counter("blockcache.evictions")
        self._obs_resident = registry.gauge("blockcache.resident_blocks")
        self._obs_resident_bytes = registry.gauge("blockcache.resident_bytes")
        self._obs_delta_bytes = registry.gauge(
            "blockcache.accounting_delta_bytes"
        )

    def __len__(self) -> int:
        return len(self._entries)

    def _publish_bytes(self) -> None:
        self._obs_resident.set(len(self._entries))
        self._obs_resident_bytes.set(self.resident_bytes)
        self._obs_delta_bytes.set(self.resident_bytes - self.approx_bytes)

    def _recharge(self, key: tuple[str, int], entry) -> bool:
        """Refresh one entry's byte charge (lazy forms may have grown it);
        True when it changed."""
        size = _entry_bytes(entry)
        old = self._charged.get(key, 0)
        if size == old:
            return False
        self._charged[key] = size
        self.resident_bytes += size - old
        return True

    def _drop(self, key: tuple[str, int]) -> None:
        entry = self._entries.pop(key)
        self.resident_bytes -= self._charged.pop(key, 0)
        self.approx_bytes -= _entry_encoded_bytes(entry)

    def get(self, run_name: str, block_no: int) -> Optional[DecodedBlock]:
        """The decoded block, refreshed to most-recently-used; None on miss."""
        return self.get_many(run_name, (block_no,))[0]

    def get_many(self, run_name: str, block_nos) -> list[Optional[DecodedBlock]]:
        """:meth:`get` for each of ``block_nos``, in order, under one lock
        hold and one gauge publish — what a run scan does per read group.
        Counts and LRU order are those of the per-block calls."""
        stats = self._stats
        entries = self._entries
        found: list[Optional[DecodedBlock]] = []
        hits = 0
        recharged = False
        with self._lock:
            for block_no in block_nos:
                key = (run_name, block_no)
                entry = entries.get(key)
                found.append(entry)
                if entry is not None:
                    hits += 1
                    entries.move_to_end(key)
                    recharged |= self._recharge(key, entry)
            misses = len(found) - hits
            self.hits += hits
            self.misses += misses
            if recharged:  # a hit moves no gauge unless an entry grew
                self._publish_bytes()
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
                self._charged[key] = _entry_bytes(block)
                self.resident_bytes += self._charged[key]
                self.approx_bytes += _entry_encoded_bytes(block)
                while len(entries) > self.capacity or (
                    self.capacity_bytes is not None
                    and len(entries) > 1
                    and self.resident_bytes > self.capacity_bytes
                ):
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
            self._charged.clear()
            self.resident_bytes = 0
            self.approx_bytes = 0
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
