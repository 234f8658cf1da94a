"""An LSM-tree update cache on SSD — the Section 2.3 write-amplification
baseline.

C0 is an in-memory tree; C1..Ch live on the SSD as sorted runs with sizes in
geometric progression ``r = (SSD/mem)^(1/h)``.  When a component exceeds its
target size it merges into the next level, rewriting that level's existing
entries — the source of the (r+1) writes per update per level that shortens
SSD lifetime ~17x versus MaSM (the paper's argument for rejecting LSM).

Range scans are efficient (index range scans on every level, no wasteful
random reads), so this baseline demonstrates that LSM fails design goal 3
(low SSD writes), not query performance.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core import kernels
from repro.core.operators import MergeDataUpdates, MergeUpdates, RunScan
from repro.core.runindex import COARSE_GRANULARITY
from repro.core.sortedrun import MaterializedSortedRun, write_run
from repro.core.update import UpdateCodec, UpdateColumns, UpdateRecord, UpdateType
from repro.engine.table import Table
from repro.storage.file import StorageVolume
from repro.txn.timestamps import TimestampOracle


class LSMUpdateCache:
    """Multi-level LSM of cached updates with write accounting."""

    def __init__(
        self,
        table: Table,
        ssd_volume: StorageVolume,
        memory_bytes: int,
        levels: int,
        size_ratio: Optional[float] = None,
        oracle: Optional[TimestampOracle] = None,
        block_size: int = COARSE_GRANULARITY,
        name: str = "lsm",
    ) -> None:
        if levels < 1:
            raise ValueError("LSM needs at least one SSD level")
        self.table = table
        self.ssd = ssd_volume
        self.memory_bytes = memory_bytes
        self.levels = levels
        self.oracle = oracle or TimestampOracle()
        self.codec = UpdateCodec(table.schema)
        self.block_size = block_size
        self.name = name
        total = ssd_volume.device.capacity
        if size_ratio is None:
            size_ratio = (total / memory_bytes) ** (1.0 / levels)
        self.size_ratio = size_ratio
        #: target capacity (bytes) of each SSD level C1..Ch
        self.level_targets = [
            memory_bytes * (size_ratio ** (i + 1)) for i in range(levels)
        ]
        #: C0: the updates as encoded, in arrival order (like MaSM's buffer).
        self._c0: list[bytes] = []
        self._c0_bytes = 0
        self._runs: list[Optional[MaterializedSortedRun]] = [None] * levels
        self._seq = 0
        self.updates_ingested = 0
        self.entry_writes = 0  # total update-entry writes to SSD

    # ---------------------------------------------------------------- updates
    def insert(self, record: tuple) -> int:
        ts = self.oracle.next()
        self.apply(
            UpdateRecord(ts, self.table.schema.key(record), UpdateType.INSERT, record)
        )
        return ts

    def delete(self, key: int) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.DELETE, None))
        return ts

    def modify(self, key: int, changes: dict) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.MODIFY, dict(changes)))
        return ts

    def apply(self, update: UpdateRecord) -> None:
        encoded = self.codec.encode(update)
        self._c0.append(encoded)
        self._c0_bytes += len(encoded)
        self.updates_ingested += 1
        if self._c0_bytes >= self.memory_bytes:
            self._propagate(0)

    # ------------------------------------------------------------ propagation
    def _propagate(self, level: int) -> None:
        """Merge the overflowing component into SSD level ``level``.

        Level 0 means "merge C0 into C1"; rewriting the destination level's
        existing entries is what inflates the write count.
        """
        if level == 0:
            c0 = UpdateColumns.from_encoded(self._c0, self.codec)
            incoming = [c0.sorted()] if self._c0 else []
            self._c0 = []
            self._c0_bytes = 0
        else:
            run = self._runs[level - 1]
            incoming = list(run.column_groups(0, 2**63 - 1)) if run else []
            if run is not None:
                self.ssd.delete(run.name)
                self._runs[level - 1] = None
        if not incoming:
            return
        existing_run = self._runs[level]
        pieces = incoming
        size_hint = sum(piece.encoded_bytes for piece in incoming) + self.block_size
        if existing_run is not None:
            pieces = incoming + list(existing_run.column_groups(0, 2**63 - 1))
            size_hint += existing_run.file.size + self.block_size
        # Every update is kept; a (key, ts) tie goes to the incoming level.
        merged = kernels.merge_sorted(pieces)
        new_name = f"{self.name}-c{level + 1}-{self._seq:05d}"
        self._seq += 1
        new_run = write_run(
            self.ssd,
            new_name,
            merged,
            self.codec,
            block_size=self.block_size,
            passes=level + 1,
            size_hint=size_hint,
        )
        if existing_run is not None:
            self.ssd.delete(existing_run.name)
        self._runs[level] = new_run
        self.entry_writes += new_run.count
        if new_run.size_bytes > self.level_targets[level]:
            if level + 1 < self.levels:
                self._propagate(level + 1)
            else:
                # The bottom level is full: migrate its updates to the main
                # data (what bounds Ch at its target in the steady state).
                self.migrate()

    # ------------------------------------------------------------------ scans
    def range_scan(self, begin_key: int, end_key: int) -> Iterator[tuple]:
        """Fresh records: index range scans on every LSM level plus C0."""
        query_ts = self.oracle.next()
        sources: list = [
            RunScan(run, begin_key, end_key, query_ts)
            for run in self._runs
            if run is not None
        ]
        c0 = UpdateColumns.from_encoded(self._c0, self.codec)
        keys = c0.keys
        visible = (keys >= begin_key) & (keys <= end_key) & (c0.timestamps <= query_ts)
        sources.append(c0.rows(visible).sorted())
        updates = MergeUpdates(sources, cpu=self.table.cpu)
        return iter(
            MergeDataUpdates(
                None,
                updates,
                self.table.schema,
                cpu=self.table.cpu,
                data_chunks=self.table.range_scan_pair_chunks(begin_key, end_key),
            )
        )

    # -------------------------------------------------------------- migration
    def migrate(self) -> None:
        """Apply the bottom level's updates to the table and drop the run."""
        from repro.core.migration import MigrationStats, drain, rewrite_heap

        run = self._runs[-1]
        if run is None:
            return
        t = self.oracle.next()
        merge = MergeUpdates([RunScan(run, 0, 2**63 - 1, query_ts=t)])
        stats = MigrationStats(timestamp=t)
        rows, entries, out_pages = drain(
            rewrite_heap(self.table.heap, self.table.schema, merge.kernel_batches(), stats)
        )
        self.table.heap.truncate(out_pages)
        self.table.replace_contents(entries, rows)
        self.ssd.delete(run.name)
        self._runs[-1] = None

    # ------------------------------------------------------------- accounting
    @property
    def writes_per_update(self) -> float:
        """Measured SSD entry writes per ingested update (Section 2.3)."""
        if self.updates_ingested == 0:
            return 0.0
        return self.entry_writes / self.updates_ingested

    @property
    def cached_bytes(self) -> int:
        return sum(run.size_bytes for run in self._runs if run is not None)

    def level_sizes(self) -> list[int]:
        return [run.size_bytes if run else 0 for run in self._runs]
