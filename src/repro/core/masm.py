"""The MaSM engine: SSD-cached differential updates with materialized
sort-merge (Sections 3.2-3.4).

One :class:`MaSM` instance manages the update cache for one table.  It owns

* an in-memory update buffer of ``S`` pages (plus stolen query pages when no
  scan is active — the MaSM-M trick that grows 1-pass runs);
* materialized sorted runs on an SSD volume, each with a run index;
* the scan-side operator tree that replaces ``Table_range_scan``;
* in-place migration back to the main data.

The memory/SSD-writes trade-off is a single knob: ``alpha``.
``MaSM.masm_2m`` (alpha=2) writes every update once; ``MaSM.masm_m``
(alpha=1) halves memory at ~1.75 writes per update (Theorems 3.2/3.3).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from repro.core import kernels
from repro.core.blockcache import DEFAULT_CACHE_BLOCKS, DecodedBlockCache
from repro.core.governor import GovernorConfig, LoadGovernor
from repro.core.manifest import (
    Checkpoint,
    MigrationEnded,
    RunFlushed,
    RunManifest,
    RunReplaced,
    RunsMerged,
    merged_passes,
)
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.obs import get_registry, trace
from repro.core.operators import MemScan, MergeDataUpdates, MergeUpdates, RunScan
from repro.core.runindex import COARSE_GRANULARITY
from repro.core.sortedrun import MaterializedSortedRun, write_run
from repro.core.update import UpdateCodec, UpdateColumns, UpdateRecord, UpdateType
from repro.engine.table import Table
from repro.errors import OutOfSpaceError, StorageError, UpdateCacheFullError
from repro.sim.hooks import interleave as sim_interleave
from repro.storage.faults import crash_point
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB

DEFAULT_SSD_PAGE = 64 * KB


@dataclass
class MaSMConfig:
    """Tunables for one MaSM instance.

    ``alpha`` selects the point on the memory-vs-SSD-writes spectrum of
    Section 3.4 (valid range [2/cbrt(M), 2]).  ``block_size`` is the run
    index granularity: 64 KB reproduces the paper's coarse-grain index,
    4 KB the fine-grain one.
    """

    alpha: float = 1.0
    ssd_page_size: int = DEFAULT_SSD_PAGE
    block_size: int = COARSE_GRANULARITY
    cache_bytes: Optional[int] = None  # default: the whole SSD volume
    migration_threshold: float = 0.9
    auto_migrate: bool = True
    merge_duplicates_on_flush: bool = False
    #: Capacity (in blocks) of the shared decoded-block LRU that repeated
    #: and concurrent scans hit instead of re-reading/re-decoding the SSD.
    #: 0 disables the cache.
    decoded_cache_blocks: int = DEFAULT_CACHE_BLOCKS
    #: Target run-index blocks per merge partition of a scan.
    #: None uses :data:`repro.core.kernels.DEFAULT_BLOCKS_PER_PARTITION`;
    #: small values force multi-partition merges on small runs (used by the
    #: simulation's ``kernels`` scenario to stress partition boundaries).
    kernel_blocks_per_partition: Optional[int] = None
    #: Overload governance (admission control + paced incremental migration,
    #: see :mod:`repro.core.governor`).  A :class:`GovernorConfig` attaches
    #: a :class:`LoadGovernor` to the engine; ``None`` (the default) leaves
    #: the engine ungoverned: the legacy stop-the-world flush-time migration
    #: and ``UpdateCacheFullError`` behaviour are preserved exactly.
    governor: Optional[GovernorConfig] = None


@dataclass
class MaSMParameters:
    """Derived sizing, following the notation of Table 1 in the paper."""

    ssd_pages: int  # ||SSD||
    M: int  # sqrt(||SSD||), in pages
    total_memory_pages: int  # alpha * M
    update_pages: int  # S
    query_pages: int  # total - S
    merge_fan_in: int  # N


def derive_parameters(
    cache_bytes: int, ssd_page_size: int, alpha: float
) -> MaSMParameters:
    """Compute M, S, N for a cache size and alpha (Theorems 3.2/3.3)."""
    ssd_pages = max(1, cache_bytes // ssd_page_size)
    M = max(2, math.isqrt(ssd_pages))
    alpha_min = 2.0 / (M ** (1.0 / 3.0))
    if not alpha_min * 0.99 <= alpha <= 2.0:
        raise ValueError(
            f"alpha={alpha} outside [{alpha_min:.3f}, 2] for M={M} "
            "(3-pass runs would be needed below the lower bound)"
        )
    total = max(2, round(alpha * M))
    S = max(1, round(0.5 * alpha * M))
    query_pages = max(1, total - S)
    denom = max(1, math.floor(4.0 / (alpha * alpha)))
    N = round(((2.0 / alpha - 0.5 * alpha) * M) / denom) + 1
    N = max(1, min(N, query_pages))
    return MaSMParameters(
        ssd_pages=ssd_pages,
        M=M,
        total_memory_pages=total,
        update_pages=S,
        query_pages=query_pages,
        merge_fan_in=N,
    )


#: The per-instance counters behind the design-goal analysis of Section 3.7.
MASM_STAT_FIELDS = (
    "updates_ingested",
    "updates_written_to_ssd",  # counts re-writes during run merges
    "runs_created",
    "runs_merged",
    # Merges that wrote a 3-pass (or deeper) run: fewer than two 1-pass runs
    # were left and a migration could not stand in.
    "multi_pass_merges",
    "flushes",
    "migrations",
    "page_steals",
    "duplicates_merged",
    # Decoded-block cache counters (the read-path fast path): hits avoid
    # both the SSD read and the decode; blocks_decoded counts actual
    # block decodes performed by scans.
    "block_cache_hits",
    "block_cache_misses",
    "block_cache_evictions",
    "blocks_decoded",
    # Fault tolerance: runs quarantined after failed checksum verification,
    # scans that fell back to redo-log replay of a damaged run, and
    # completed scrub passes.
    "quarantined_runs",
    "log_fallback_scans",
    "scrubs",
    # Durability lifecycle: checkpoint fences cut, quarantined runs rebuilt
    # in place from the redo log, and runs rebuilt from a healthy peer's
    # copy (anti-entropy repair).
    "checkpoints",
    "runs_repaired",
    "peer_repairs",
)


class MaSMStats:
    """Counters behind the design-goal analysis of Section 3.7.

    The values live in the process-wide metrics registry under a scope
    unique to this instance (``masm-lineitem.flushes``, ...); this class is
    a thin attribute view over those counters, so ``stats.flushes += 1``
    and the exported registry series are one and the same number.
    """

    __slots__ = ("scope", "_counters")

    def __init__(self, scope: Optional[str] = None, registry=None) -> None:
        registry = registry if registry is not None else get_registry()
        scope = registry.unique_scope(scope or "masm")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(
            self,
            "_counters",
            {name: registry.counter(f"{scope}.{name}") for name in MASM_STAT_FIELDS},
        )

    def __getattr__(self, name: str):
        try:
            return self._counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def __setattr__(self, name: str, value) -> None:
        try:
            self._counters[name].set(value)
        except KeyError:
            raise AttributeError(f"MaSMStats has no counter {name!r}") from None

    def counter(self, name: str):
        """The registry counter behind ``name`` — for a hot path to bind once
        and ``.add()`` to, instead of a read-modify-write through the view."""
        return self._counters[name]

    def as_dict(self) -> dict[str, float]:
        return {name: self._counters[name].value for name in MASM_STAT_FIELDS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"MaSMStats({self.scope}: {inner})"

    @property
    def ssd_writes_per_update(self) -> float:
        """Average times each ingested update was written to the SSD."""
        if self.updates_ingested == 0:
            return 0.0
        return self.updates_written_to_ssd / self.updates_ingested

    @property
    def block_cache_hit_rate(self) -> float:
        """Fraction of block lookups served from the decoded-block cache."""
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0


@dataclass
class ScrubReport:
    """Outcome of one :meth:`MaSM.scrub` pass."""

    runs_checked: int = 0
    blocks_checked: int = 0
    #: run name -> damaged block numbers found by verification.
    damaged_blocks: dict[str, list[int]] = field(default_factory=dict)
    #: runs left quarantined by this pass (newly or previously damaged).
    quarantined: list[str] = field(default_factory=list)
    #: runs rebuilt in place from the redo log, quarantine cleared.
    repaired: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.damaged_blocks

    def as_dict(self) -> dict:
        return {
            "runs_checked": self.runs_checked,
            "blocks_checked": self.blocks_checked,
            "damaged_blocks": dict(self.damaged_blocks),
            "quarantined": list(self.quarantined),
            "repaired": list(self.repaired),
            "clean": self.clean,
        }


@dataclass(frozen=True)
class RunSnapshot:
    """One run file's verbatim bytes inside an :class:`EngineSnapshot`."""

    name: str
    payload: bytes
    crc: int


@dataclass(frozen=True)
class EngineSnapshot:
    """A consistent, CRC-stamped copy of one engine's durable state.

    Everything a brand-new (or wiped) replica needs to serve reads up to
    the checkpoint's fence: the heap pages (main data), the run files, and
    the checkpoint whose manifest carries the runs' durability metadata.
    Updates above the fence are deliberately absent — the replica
    catches them up from the primary's (now finite) WAL.  A replica takes
    it through :func:`repro.txn.recovery.lay_down_snapshot`, then restarts.
    """

    heap_payload: bytes
    heap_crc: int
    runs: tuple[RunSnapshot, ...]
    checkpoint: Checkpoint


class ScanRows(chain):
    """A range scan's rows: a chain over what the scan's generator yields
    (the join, itself a chain over per-partition row lists), so a consumer
    that drains it (``list``, ``for``, ``islice``) runs no Python frame per
    row.  :meth:`close` abandons the scan the way closing a generator would
    (the engine drops the scan's registration)."""

    @classmethod
    def over(cls, scan) -> "ScanRows":
        rows = cls.from_iterable(scan)
        rows._scan = scan
        return rows

    def close(self) -> None:
        self._scan.close()


class MaSM:
    """SSD-based differential update cache for one table."""

    def __init__(
        self,
        table: Table,
        ssd_volume: StorageVolume,
        config: Optional[MaSMConfig] = None,
        oracle: Optional[TimestampOracle] = None,
        cpu: Optional[CpuMeter] = None,
        name: Optional[str] = None,
    ) -> None:
        self.table = table
        self.ssd = ssd_volume
        self.config = config or MaSMConfig()
        self.oracle = oracle or TimestampOracle()
        self.cpu = cpu if cpu is not None else table.cpu
        self.name = name or f"masm-{table.name}"
        cache_bytes = self.config.cache_bytes or ssd_volume.device.capacity
        self.params = derive_parameters(
            cache_bytes, self.config.ssd_page_size, self.config.alpha
        )
        # The algorithms' accounting is in terms of ||SSD|| = M^2 pages
        # (Table 1); cap the usable cache there so the worst-case analysis
        # of Theorems 3.2/3.3 holds exactly.
        self.cache_bytes = min(
            cache_bytes, self.params.M * self.params.M * self.config.ssd_page_size
        )
        self.codec = UpdateCodec(table.schema)
        page = self.config.ssd_page_size
        self.buffer = InMemoryUpdateBuffer(
            table.schema, capacity_bytes=self.params.update_pages * page
        )
        #: The one owner of the run set, its metadata and the watermarks.
        self.manifest = RunManifest(table.name)
        self._runs_by_flush_epoch: dict[int, MaterializedSortedRun] = {}
        self.stats = MaSMStats(scope=self.name)
        #: The one counter every update moves.
        self.count_ingested = self.stats.counter("updates_ingested").add
        self.block_cache: Optional[DecodedBlockCache] = (
            DecodedBlockCache(self.config.decoded_cache_blocks, stats=self.stats)
            if self.config.decoded_cache_blocks > 0
            else None
        )
        self._run_seq = 0
        self._active_scans: dict[int, int] = {}  # scan id -> query timestamp
        self._scan_seq = 0
        self._lock = threading.RLock()
        self._graveyard: list[tuple[MaterializedSortedRun, int]] = []
        self.redo_log = None  # installed by attach_log()
        self.snapshots = None  # installed by attach_snapshots()
        #: Commit timestamp of the newest ingested update (freshness marker
        #: for lazily maintained views, Section 5).
        self.last_update_ts = 0
        #: Fence of the newest checkpoint cut by :meth:`checkpoint`.
        self.last_checkpoint_ts = 0
        #: Overload governance (None = ungoverned legacy behaviour).
        self.governor: Optional[LoadGovernor] = (
            LoadGovernor(self, self.config.governor)
            if self.config.governor is not None
            else None
        )

    def attach_snapshots(self, manager) -> None:
        """Make ``manager`` (a :class:`repro.txn.snapshot.SnapshotManager`)
        see every update this engine ingests, transactional or not:
        first-committer-wins must also lose against a plain :meth:`apply`
        that landed after the transaction's snapshot."""
        self.snapshots = manager

    def attach_log(self, redo_log) -> None:
        """Enable write-ahead logging of incoming updates (Section 3.6).

        Every ingested update is logged before it enters the in-memory
        buffer, so crash recovery (:mod:`repro.txn.recovery`) can rebuild
        the buffer; run flushes and migrations are logged too.
        """
        redo_log.register_table(self.table.name, self.codec)
        self.redo_log = redo_log

    # ------------------------------- read-only views of the run manifest
    runs = property(lambda self: self.manifest.runs)
    runs_version = property(lambda self: self.manifest.version)
    flushed_through = property(lambda self: self.manifest.flushed_through)
    migrated_through = property(lambda self: self.manifest.migrated_through)

    # --------------------------------------------------------------- sizing
    @property
    def ssd_page_size(self) -> int:
        return self.config.ssd_page_size

    @property
    def cached_run_bytes(self) -> int:
        with self._lock:
            return sum(run.size_bytes for run in self.runs)

    @property
    def utilization(self) -> float:
        return self.cached_run_bytes / self.cache_bytes

    @property
    def memory_bytes(self) -> int:
        """Allocated memory: alpha*M pages plus the in-memory run indexes.

        Buffer capacity stolen beyond the S update pages comes out of the
        idle query pages, so it stays inside the alpha*M budget and is only
        *extra* allocation if a scan needs those pages back — which
        :meth:`range_scan` prevents by shrinking the buffer before pinning
        them.  Any stolen capacity above the total budget (a bug, guarded
        by tests) is surfaced here rather than hidden.
        """
        with self._lock:
            indexes = sum(run.index.memory_bytes for run in self.runs)
            budget = self.params.total_memory_pages * self.ssd_page_size
            overage = max(0, self.buffer.capacity_bytes - budget)
        return budget + overage + indexes

    @property
    def one_pass_runs(self) -> int:
        with self._lock:
            return sum(1 for r in self.runs if r.passes == 1)

    @property
    def multi_pass_runs(self) -> int:
        with self._lock:
            return sum(1 for r in self.runs if r.passes > 1)

    @property
    def active_scan_count(self) -> int:
        with self._lock:
            return len(self._active_scans)

    def oldest_active_query_ts(self) -> Optional[int]:
        with self._lock:
            return min(self._active_scans.values(), default=None)

    def pin(self, ts: int) -> int:
        """Keep every read at ``ts`` answerable until :meth:`unpin`: ``ts``
        joins the active scans' timestamps, so folds leave the versions it
        sees apart and migrations keep what it must not see cached.  A
        snapshot transaction pins its start ts.  Returns the pin's id."""
        with self._lock:
            pin_id = self._scan_seq
            self._scan_seq += 1
            self._active_scans[pin_id] = ts
            return pin_id

    def unpin(self, pin_id: int) -> None:
        with self._lock:
            self._active_scans.pop(pin_id, None)
            self._gc_graveyard()

    # --------------------------------------------------------------- updates
    def insert(self, record: tuple) -> int:
        """Cache an insertion of ``record``; returns its commit timestamp."""
        ts = self.oracle.next()
        self.apply(
            UpdateRecord(ts, self.table.schema.key(record), UpdateType.INSERT, record)
        )
        return ts

    def delete(self, key: int) -> int:
        """Cache a deletion of ``key``; returns its commit timestamp."""
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.DELETE, None))
        return ts

    def modify(self, key: int, changes: dict) -> int:
        """Cache field modifications for ``key``; returns the timestamp."""
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.MODIFY, dict(changes)))
        return ts

    def apply(self, update: UpdateRecord, encoded: Optional[bytes] = None) -> None:
        """Ingest a well-formed update that already has a timestamp.

        The update is encoded here, once — which also rejects an ill-formed
        one (over-wide string, ill-typed value, unknown field) before
        anything else happens — and those bytes are what the redo log frames,
        the buffer holds and a flush writes.  ``encoded`` is that encoding
        when the caller already made it (a replica set, for all its replicas).

        With a governor attached, admission control runs next: the update
        may be delayed (bounded, charged to the SimClock), shed (typed
        :class:`~repro.errors.BackpressureError`, before anything is
        logged), or admitted after the caller pays a migration slice —
        depending on the configured :class:`OverloadPolicy`.  An update
        that passes admission is never dropped.
        A replica set calls :meth:`admit` and :meth:`ingest` apart.
        """
        if encoded is None:
            encoded = self.codec.encode(update)
        self.admit(update)
        self.ingest(update, encoded)

    def admit(self, update: UpdateRecord) -> None:
        """The admission step of :meth:`apply`: the governor's decision."""
        sim_interleave("masm.apply")
        if self.governor is not None:
            self.governor.admit(update)

    def ingest(self, update: UpdateRecord, encoded: bytes) -> None:
        """The ingest step of :meth:`apply`, for an admitted update: log,
        buffer (flushing a full buffer first)."""
        with self._lock:
            if self.redo_log is not None:
                self.redo_log.log_update(self.table.name, encoded)
            self._buffer_update(encoded)
            if update.timestamp > self.last_update_ts:
                self.last_update_ts = update.timestamp
            if self.snapshots is not None:
                self.snapshots.note_write(update.timestamp, update.key)

    def _buffer_update(self, encoded: bytes) -> None:
        """Buffer one (already logged) update, flushing a full buffer first."""
        try:
            self.buffer.append(encoded)
        except UpdateCacheFullError:
            self._handle_full_buffer()
            self.buffer.append(encoded)
        self.count_ingested(1)

    def _handle_full_buffer(self) -> None:
        page = self.ssd_page_size
        total = self.params.total_memory_pages * page
        # Steal an unused query page to grow the 1-pass run (Figure 8, lines
        # 2-3): only legal while no scan needs its query pages.
        if not self._active_scans and self.buffer.capacity_bytes + page <= total:
            self.buffer.capacity_bytes += page
            self.stats.page_steals += 1
            return
        self.flush_buffer()

    # --------------------------------------------------------------- flushes
    def flush_buffer(self) -> Optional[MaterializedSortedRun]:
        """Materialize the in-memory buffer as a 1-pass sorted run."""
        sim_interleave("masm.flush")
        with self._lock:
            if self.buffer.count == 0:
                return None
            with trace("masm.flush", count=self.buffer.count):
                # Encoded size of everything about to land in the cache;
                # captured before the drain resets the buffer's accounting.
                # (An upper bound when duplicate-merging shrinks the flush —
                # conservative for the governor's room-making.)
                buffered_bytes = self.buffer.used_bytes
                updates = self.buffer.drain_sorted()
                flush_epoch = self.buffer.flush_epoch
                # Raw (pre-duplicate-merge) timestamp span: the log-replay
                # fallback must cover every logged update this run absorbs.
                raw_min_ts = int(updates.timestamps.min())
                raw_max_ts = int(updates.timestamps.max())
                # Reset any stolen pages: the buffer returns to S pages.
                self.buffer.capacity_bytes = (
                    self.params.update_pages * self.ssd_page_size
                )
                if self.config.merge_duplicates_on_flush:
                    updates = self._merge_duplicates(updates)
                if self.governor is not None:
                    # Governed path: paced incremental migration frees the
                    # space this flush needs — bounded slices instead of the
                    # stop-the-world migrate-everything below.
                    self.governor.make_room(buffered_bytes)
                elif self.config.auto_migrate and self.runs:
                    # Migrate first if this flush would push the cache past
                    # the threshold ("updates reach a certain threshold of
                    # the SSD size").
                    projected = self.cached_run_bytes + updates.encoded_bytes
                    if projected >= self.config.migration_threshold * self.cache_bytes:
                        self.migrate()
                run = self._write_run(updates, passes=1)
                flushed = RunFlushed(run, raw_max_ts, (raw_min_ts, raw_max_ts))
                self.manifest.apply(flushed)
                sim_interleave("masm.flush.run_written")
                # The window a crash test cares most about: the run is
                # durable on the SSD but its RUN_FLUSH record is not logged
                # yet — recovery must detect and discard the orphan run.
                crash_point("masm.flush.run_written")
                self._runs_by_flush_epoch[flush_epoch] = run
                self.stats.flushes += 1
                if self.redo_log is not None:
                    self.redo_log.log_run_flush(self.table.name, flushed)
                return run

    def _merge_duplicates(
        self,
        updates: UpdateColumns,
        order=None,
        query_ts: Optional[int] = None,
    ) -> UpdateColumns:
        """Combine same-key duplicates when no reader forbids it.

        Section 3.5: updates at t1 < t2 may merge only if no reader sees one
        and not the other, i.e. none reads at a timestamp t with
        t1 <= t < t2.  The readers are the active scans and pins, plus
        ``query_ts``: the scan whose preamble runs this, not registered yet.
        ``updates`` in ``order`` (None: as they stand) are (key, ts) sorted;
        each chain of neighbours that may merge is folded on its encoded
        form.  A pair that cannot combine (an INSERT of a live record, a
        MODIFY of a deleted one) stays two records: the later one starts
        the next chain.
        """
        with self._lock:
            readers = list(self._active_scans.values())
        if query_ts is not None:
            readers.append(query_ts)
        readers = np.array(sorted(readers), dtype=np.uint64)
        keys, stamps, ops = updates.keys, updates.timestamps, updates.ops
        if order is not None:
            keys, stamps, ops = keys[order], stamps[order], ops[order]
        before = readers.searchsorted(stamps, "left")  # readers before each
        follows = np.zeros(len(keys), dtype=bool)  # folds into the row before
        follows[1:] = (keys[1:] == keys[:-1]) & (before[1:] == before[:-1])
        ops = ops.tolist()
        insert, delete, modify, replace = map(int, UpdateType)
        state = None  # op code of the chain so far
        for i in follows.nonzero()[0].tolist():
            if not follows[i - 1]:
                state = ops[i - 1]
            op = ops[i]
            if (op == insert and state in (insert, replace)) or (
                op == modify and state == delete
            ):
                follows[i] = False
            elif op != modify:
                state = delete if op == delete else replace
        self.stats.duplicates_merged += int(follows.sum())
        return kernels.fold_chains(updates, order, follows)

    def _next_run_name(self) -> str:
        name = f"{self.name}-run-{self._run_seq:05d}"
        self._run_seq += 1
        return name

    def _write_run(
        self,
        updates: UpdateColumns,
        passes: int,
        size_hint: Optional[int] = None,
        replacing_bytes: int = 0,
        name: Optional[str] = None,
    ) -> MaterializedSortedRun:
        """Materialize ``updates`` as a (not yet live) run, enforcing the quota.

        ``replacing_bytes`` credits the size of runs this write supersedes
        (a 2-pass merge deletes its inputs right after), so merging near a
        full cache does not trip the quota.  ``name`` lets a caller that
        must *log* the run's name before materializing it (merges) allocate
        the name up front via :meth:`_next_run_name`.
        """
        if name is None:
            name = self._next_run_name()
        if (
            self.cached_run_bytes - replacing_bytes + updates.encoded_bytes
            > self.cache_bytes
        ):
            raise UpdateCacheFullError(
                f"{self.name}: SSD update cache full "
                f"({self.cached_run_bytes}/{self.cache_bytes} bytes); migrate first"
            )
        try:
            run = write_run(
                self.ssd,
                name,
                updates,
                self.codec,
                block_size=self.config.block_size,
                passes=passes,
                size_hint=size_hint,
            )
        except OutOfSpaceError as exc:
            raise UpdateCacheFullError(str(exc)) from exc
        self.stats.runs_created += 1
        self.stats.updates_written_to_ssd += run.count
        return run

    # ----------------------------------------------------------- run merging
    def ensure_run_budget(self, query_ts: Optional[int] = None) -> None:
        """Merge earliest 1-pass runs until K1 + K2 <= query pages (Fig. 8):
        a scan's preamble, or a follower keeping pace with its primary's.

        With fewer than two 1-pass runs left, the only merge would write a
        3-pass run, past Theorem 3.3's two writes per update; a migration
        empties the cache instead whenever no reader (``query_ts``: the scan
        whose preamble this is) could see updates it must not.
        """
        with self._lock:
            while len(self.runs) > self.params.query_pages:
                if self.one_pass_runs < 2 and self._may_migrate_for(query_ts):
                    self.migrate()
                    continue
                self._merge_earliest_runs(self.params.merge_fan_in, query_ts)

    def _may_migrate_for(self, query_ts: Optional[int]) -> bool:
        """Can a scan at ``query_ts`` start right after a full migration?

        Only on an ungoverned engine that migrates on its own (a governed
        one paces its migrations), with no scan or pin open and every run
        visible at ``query_ts`` (None: the scan reads at a fresh ts)."""
        return (
            self.governor is None
            and self.config.auto_migrate
            and not self._active_scans
            and (query_ts is None or all(r.max_ts <= query_ts for r in self.runs))
        )

    def _merge_earliest_runs(
        self, fan_in: int, query_ts: Optional[int] = None
    ) -> Optional[MaterializedSortedRun]:
        """Merge the earliest 1-pass runs (at most ``fan_in``) into one run,
        folding its duplicates by the Section 3.5 rule (``query_ts``: a
        reader not registered yet).  With fewer than two 1-pass runs it
        merges the two earliest runs, whatever their passes: a 3-pass (or
        deeper) product, counted in ``multi_pass_merges``."""
        with self._lock:
            if len(self.runs) < 2:
                return None
            one_pass = [r for r in self.runs if r.passes == 1]
            if len(one_pass) >= 2:
                victims = one_pass[: max(2, min(fan_in, len(one_pass)))]
            else:
                victims = self.runs[:2]
            passes = merged_passes(victims)
            sim_interleave("masm.merge_runs")
            with trace("masm.merge_runs", fan_in=len(victims), passes=passes):
                # Fallback-aware sources: merging a quarantined victim
                # replays its content from the redo log, so the merge also
                # *heals* damaged runs — the merged output is freshly
                # written, sealed and trustworthy again.
                sources = self.run_update_sources(
                    victims, 0, 2**63 - 1, query_ts=None, use_cache=False
                )
                size_hint = (
                    sum(r.file.size for r in victims) + self.config.block_size
                )
                # Log the merge *before* writing the product, under its
                # pre-allocated name: after a crash, the product file's
                # intact existence tells recovery whether it committed.
                name = self._next_run_name()
                covered = (
                    min(r.covered_min_ts for r in victims),
                    max(r.covered_max_ts for r in victims),
                )
                merge = RunsMerged(self.oracle.current, name, tuple(victims), covered)
                if self.redo_log is not None:
                    self.redo_log.log_edit(self.table.name, merge)
                # Logged, product not written: recovery must keep serving
                # the victims and forget the merge.
                crash_point("masm.merge.logged")
                # The victims are read here, after the log append, each one
                # whole; a key's versions fold where no reader tells them
                # apart.
                merged, order = kernels.merge_order(
                    [group for source in sources for group in source.column_groups()]
                )
                if merged is None:  # every victim fully migrated: refused below
                    merged = UpdateColumns.from_encoded([], self.codec)
                else:
                    merged = self._merge_duplicates(merged, order, query_ts)
                run = self._write_run(
                    merged,
                    passes=passes,
                    size_hint=size_hint,
                    replacing_bytes=sum(r.size_bytes for r in victims),
                    name=name,
                )
                # Product durable, victims still on the SSD: recovery must
                # serve the product and discard the victims, or every
                # merged update is applied twice.
                crash_point("masm.merge.product_written")
                # An older scan may still read the victims (from its run
                # list or a Mem_scan flush-epoch handover): they wait.
                self._retire(
                    self.manifest.apply(replace(merge, product=run)),
                    barrier_ts=self.oracle.current + 1,
                )
                self.stats.runs_merged += len(victims)
                if passes > 2:
                    self.stats.multi_pass_merges += 1
                return run

    # ------------------------------------------------------------------ scans
    def range_scan(
        self, begin_key: int, end_key: int, query_ts: Optional[int] = None
    ) -> Iterator[tuple]:
        """The MaSM replacement for Table_range_scan (Figure 6/8).

        Returns fresh records: the table data merged with every cached
        update visible at the query's timestamp.  ``query_ts`` overrides the
        timestamp (snapshot-isolation reads at a transaction's start time);
        by default the query gets the next timestamp and sees all earlier
        updates.

        The scan is one overlap scope on the simulated clock, from its
        preamble (a flush, merge or migration) through its lazy drain: the
        SSD and disk work it issues run side by side (Section 3.7), while
        work done between two pulls of the stream stays outside it.
        """
        scope = self.ssd.device.clock.overlap()
        with self._lock, scope:
            # Flush a too-full buffer before the scan pins query pages.
            if self.buffer.pages_used(self.ssd_page_size) >= self.params.update_pages:
                self.flush_buffer()
            elif (
                self.buffer.capacity_bytes
                > self.params.update_pages * self.ssd_page_size
            ):
                # The buffer stole query pages while no scan ran; this scan
                # needs them back.  The buffered bytes still fit in S pages
                # (checked above), so shrink instead of flushing.
                self.buffer.shrink_capacity(
                    self.params.update_pages * self.ssd_page_size
                )
            self.ensure_run_budget(query_ts)
            if query_ts is None:
                query_ts = self.oracle.next()
            scan_id = self._scan_seq
            self._scan_seq += 1
            self._active_scans[scan_id] = query_ts
            runs = list(self.runs)
            # The buffer generation this scan's snapshot belongs to: the
            # MemScan below is built lazily, so it must learn the epoch of
            # registration time, not of first-pull time.
            mem_epoch = self.buffer.flush_epoch
            sim_interleave("masm.scan.begin")

        def joined() -> Iterator[Iterable[tuple]]:
            try:
                span = trace("masm.scan", runs=len(runs), query_ts=query_ts)
                update_sources: list = self.run_update_sources(
                    runs, begin_key, end_key, query_ts
                )
                update_sources.append(
                    MemScan(
                        self.buffer,
                        begin_key,
                        end_key,
                        query_ts,
                        run_for_flush=self._run_for_flush,
                        cache=self.block_cache,
                        stats=self.stats,
                        flush_epoch=mem_epoch,
                    )
                )
                updates = MergeUpdates(
                    update_sources,
                    cpu=self.cpu,
                    blocks_per_partition=self.config.kernel_blocks_per_partition,
                )
                with span:
                    # One iterable, itself a chain over the join's
                    # per-partition row lists, each one built inside the
                    # scan's scope: draining the scan never resumes this
                    # frame per row.
                    yield MergeDataUpdates(
                        None,
                        updates,
                        self.table.schema,
                        cpu=self.cpu,
                        data_chunks=self.table.range_scan_pair_chunks(begin_key, end_key),
                        scope=scope,
                    )
            finally:
                sim_interleave("masm.scan.end")
                with self._lock:
                    self._active_scans.pop(scan_id, None)
                    self._gc_graveyard()
                if self.governor is not None:
                    self.governor.on_scan_end()

        return ScanRows.over(joined())

    def _run_for_flush(self, flush_epoch: int) -> Optional[MaterializedSortedRun]:
        with self._lock:
            return self._runs_by_flush_epoch.get(flush_epoch)

    # ------------------------------------------------- degraded read path
    def run_update_sources(
        self,
        runs: list[MaterializedSortedRun],
        begin_key: int,
        end_key: int,
        query_ts: Optional[int],
        use_cache: bool = True,
    ) -> list[RunScan]:
        """Build the per-run scan operators for a query or migration.

        Each :class:`RunScan` gets a fallback that replays the run's
        timestamp range from the redo log, so a run whose SSD blocks fail
        checksum verification degrades to a correct (slower) stream instead
        of failing the query.  Without an attached redo log there is no
        fallback and verification errors propagate.
        """
        cache = self.block_cache if use_cache else None
        return [
            RunScan(
                run,
                begin_key,
                end_key,
                query_ts,
                cache=cache,
                stats=self.stats,
                fallback=self._fallback_for(run, begin_key, end_key, query_ts),
            )
            for run in runs
        ]

    def _fallback_for(self, run, begin_key, end_key, query_ts):
        # A truncated log no longer holds the run's covered range: replay
        # would silently return a partial stream.  Leave the scan without a
        # fallback so damage surfaces as a typed ChecksumError — the router
        # fails over to a healthy replica and schedules anti-entropy repair.
        if not self._log_covers(run):
            return None

        def fallback(after):
            return self._log_fallback(run, begin_key, end_key, query_ts, after)

        return fallback

    def _log_fallback(
        self,
        run: MaterializedSortedRun,
        begin_key: int,
        end_key: int,
        query_ts: Optional[int],
        after: Optional[tuple[int, int]],
    ) -> UpdateColumns:
        """Replace a damaged run's scan with redo-log replay of its range.

        Quarantines the run (first failure only), then returns exactly the
        updates the run's intact blocks would have delivered, as logged: the
        table's logged updates inside the run's covered timestamp range,
        (key, ts)-sorted, with the query's key range, timestamp visibility,
        ``after`` resume position and the run's migrated ranges applied.
        """
        if run.quarantine("block failed verification during scan"):
            self.stats.quarantined_runs += 1
            if self.block_cache is not None:
                self.block_cache.invalidate_run(run.name)
        self.stats.log_fallback_scans += 1
        with trace(
            "masm.log_fallback",
            run=run.name,
            min_ts=run.covered_min_ts,
            max_ts=run.covered_max_ts,
        ):
            replayed = self._replay_run_updates(run)
        keys, timestamps = replayed.keys, replayed.timestamps
        wanted = (keys >= max(begin_key, 0)) & (keys <= min(end_key, 2**64 - 1))
        if query_ts is not None:
            wanted &= timestamps <= query_ts
        if after is not None:
            wanted &= (keys > after[0]) | ((keys == after[0]) & (timestamps > after[1]))
        # A snapshot: a concurrent migration coalesces the list in place.
        for lo, hi in list(run.migrated_ranges):
            wanted &= (keys < lo) | (keys > hi)
        return replayed.rows(wanted)

    def _replay_run_updates(self, run: MaterializedSortedRun) -> UpdateColumns:
        """The table's logged updates in ``run``'s covered timestamp range,
        as logged (encoded), in (key, ts) order."""
        logged = self.redo_log.encoded_updates(
            self.table.name, run.covered_min_ts, run.covered_max_ts
        )
        return UpdateColumns.from_encoded(list(logged), self.codec).sorted()

    # ------------------------------------------------------------- scrubbing
    def scrub(self, repair: bool = False) -> "ScrubReport":
        """Proactively checksum-verify every cached run (Section 3.6's
        durability, actively enforced).

        Damaged runs are quarantined so subsequent scans use the redo-log
        fallback immediately instead of discovering the damage mid-query.
        With ``repair=True``, a quarantined run the redo log still fully
        covers is rebuilt in place from log replay and its quarantine
        cleared — damage the log can heal is not permanent.  Returns a
        report suitable for JSON export.
        """
        with self._lock:
            runs = list(self.runs)
        report = ScrubReport()
        with trace("masm.scrub", runs=len(runs)):
            for run in runs:
                damaged = run.verify_blocks()
                report.runs_checked += 1
                report.blocks_checked += run.num_blocks
                if damaged:
                    report.damaged_blocks[run.name] = damaged
                    if run.quarantine(
                        f"scrub found {len(damaged)} damaged block(s)"
                    ):
                        self.stats.quarantined_runs += 1
                        if self.block_cache is not None:
                            self.block_cache.invalidate_run(run.name)
            if repair:
                with self._lock:
                    quarantined = [r for r in self.runs if r.quarantined]
                for run in quarantined:
                    if self._rebuild_run_from_log(run) is not None:
                        report.repaired.append(run.name)
            with self._lock:
                report.quarantined = [
                    r.name for r in self.runs if r.quarantined
                ]
        self.stats.scrubs += 1
        registry = get_registry()
        registry.counter("masm.scrub.blocks_checked").add(report.blocks_checked)
        registry.counter("masm.scrub.damaged_blocks").add(
            sum(len(blocks) for blocks in report.damaged_blocks.values())
        )
        return report

    def _log_covers(self, run: MaterializedSortedRun) -> bool:
        """Can the redo log still replay the run's covered timestamp range?"""
        return (
            self.redo_log is not None
            and self.redo_log.truncated_through < run.covered_min_ts
        )

    def _rebuild_run_from_log(
        self, run: MaterializedSortedRun
    ) -> Optional[MaterializedSortedRun]:
        """Rebuild a quarantined run in place from redo-log replay.

        Returns the fresh (un-quarantined) run, or None when the log no
        longer covers the run's span — then only peer repair can help.
        """
        if not self._log_covers(run):
            return None
        updates = self._replay_run_updates(run)
        if not len(updates):
            return None
        return self._swap_rebuilt_run(run, updates, source="log")

    def _swap_rebuilt_run(
        self,
        run: MaterializedSortedRun,
        updates: UpdateColumns,
        source: str,
    ) -> MaterializedSortedRun:
        """Replace ``run``'s damaged SSD file with a fresh materialization
        of ``updates``, preserving its identity (name, position, covered
        span, migrated ranges, flush-epoch mapping)."""
        with self._lock:
            with trace("masm.repair_run", run=run.name, source=source):
                if run.name in self.ssd:
                    self.ssd.delete(run.name)
                if self.block_cache is not None:
                    self.block_cache.invalidate_run(run.name)
                rebuilt = write_run(
                    self.ssd,
                    run.name,
                    updates,
                    self.codec,
                    block_size=self.config.block_size,
                    passes=run.passes,
                )
                self.manifest.apply(RunReplaced(run, rebuilt))
                self._runs_by_flush_epoch = {
                    epoch: (rebuilt if kept is run else kept)
                    for epoch, kept in self._runs_by_flush_epoch.items()
                }
                self.stats.runs_repaired += 1
                if source == "peer":
                    self.stats.peer_repairs += 1
                get_registry().counter("masm.runs.repaired").add(1)
                return rebuilt

    def repair_run_from_peer(self, run_name: str, donor: "MaSM") -> bool:
        """Anti-entropy repair: rebuild a quarantined run from a healthy
        peer's content.

        Identity is by *covered timestamp span*, not run name: replicas of
        one shard ingest the same update stream but flush and merge
        independently, so their run layouts may differ while their logical
        content is identical.  The donor hands over every durable update in
        the damaged run's span (checksum-verified on read, so corruption
        cannot spread).  Returns True when the run was rebuilt.
        """
        with self._lock:
            run = next((r for r in self.runs if r.name == run_name), None)
        if run is None or not run.quarantined:
            return False
        updates = donor.updates_in_ts_span(
            run.covered_min_ts, run.covered_max_ts
        )
        if not len(updates):
            return False
        self._swap_rebuilt_run(run, updates, source="peer")
        return True

    def updates_in_ts_span(self, min_ts: int, max_ts: int) -> UpdateColumns:
        """Every durable update with timestamp in ``[min_ts, max_ts]``, as
        stored.

        The donor side of peer repair when run names do not line up: the
        union of run contents (every block read and verified, unfiltered by
        migrated ranges) and the in-memory buffer, (key, ts)-sorted.  The
        runs and the buffer are read under one lock, and flushes and merges
        swap them under it, so no update is met twice.  Raises on
        quarantined runs in range — a donor must be healthy — and on a span
        whose edge cuts through a run that may hold folded chains (a merge
        product, or any run when flushes fold): a chain folded across the
        edge is stored at its last member's ts, so the span would hold a
        member it lacks, or lack one it holds.
        """
        with self._lock:
            runs = list(self.runs)
            buffered, _ = self.buffer.columns_range(0, 2**64 - 1, max_ts)
        pieces: list[UpdateColumns] = []
        for run in runs:
            if run.covered_max_ts < min_ts or run.covered_min_ts > max_ts:
                continue
            if run.quarantined:
                raise StorageError(
                    f"{self.name}: donor run {run.name!r} is quarantined"
                )
            if (run.passes > 1 or self.config.merge_duplicates_on_flush) and (
                run.covered_min_ts < min_ts or run.covered_max_ts > max_ts
            ):
                raise StorageError(
                    f"{self.name}: ts span [{min_ts}, {max_ts}] cuts through "
                    f"folded run {run.name!r}"
                )
            pieces.extend(run.stored_blocks())
        if buffered is not None:
            pieces.append(buffered)
        if not pieces:
            return UpdateColumns.from_encoded([], self.codec)
        stored = UpdateColumns.concat(pieces)
        timestamps = stored.timestamps
        return stored.rows((timestamps >= min_ts) & (timestamps <= max_ts)).sorted()

    # ----------------------------------------------------------- checkpoints
    def _checkpoint_fence(self) -> int:
        """The newest timestamp provably durable outside the WAL.

        Everything at or below ``max(flushed_through, migrated_through)``
        lives in a materialized run or was migrated in place; an
        out-of-order straggler still in the buffer caps the fence below its
        timestamp, because the buffer is volatile.
        """
        fence = max(self.flushed_through, self.migrated_through)
        buffer_min = self.buffer.min_timestamp()
        if buffer_min is not None:
            fence = min(fence, buffer_min - 1)
        return max(0, fence)

    def checkpoint(self):
        """Cut a :class:`~repro.core.manifest.Checkpoint` fence, or None.

        Returns None when no fence can safely be cut: no log attached,
        nothing durable yet, a quarantined run (its log-fallback needs the
        prefix), or graveyarded merge victims (truncating their RUN_MERGE
        record while the victim files survive would double-apply every
        merged update on the next recovery).
        """
        with self._lock:
            if self.redo_log is None:
                return None
            if self._graveyard:
                return None
            if any(run.quarantined for run in self.runs):
                return None
            fence = self._checkpoint_fence()
            if fence <= 0:
                return None
            return self.manifest.snapshot(fence)

    def checkpoint_and_truncate(self):
        """Cut a checkpoint and reclaim the WAL prefix it fences off.

        Returns ``(checkpoint, truncation_report)`` or None when no safe
        fence exists.  The reclaimed region is left as it is: no stale frame
        validates under the truncated log's new generation.
        """
        with self._lock:
            cp = self.checkpoint()
            if cp is None:
                return None
            with trace("masm.checkpoint", fence=cp.checkpoint_ts):
                report = self.redo_log.truncate_through(cp)
            self.last_checkpoint_ts = cp.checkpoint_ts
            self.stats.checkpoints += 1
        registry = get_registry()
        registry.gauge(f"{self.stats.scope}.wal_live_bytes").set(
            self.redo_log.live_bytes
        )
        return cp, report

    # -------------------------------------------------------------- snapshots
    def export_snapshot(self) -> EngineSnapshot:
        """Export a consistent, CRC-stamped copy of the durable state.

        The fence is the same one :meth:`checkpoint` would cut: the heap
        plus the runs hold every update with ``ts <= fence``, so a replica
        that lays this snapshot down and restarts only needs ``ts > fence``
        from the primary's WAL to catch up.  Raises when a run is
        quarantined — an unhealthy replica must not donate.
        """
        from repro.storage.checksum import checksum as _crc

        with self._lock:
            quarantined = [r.name for r in self.runs if r.quarantined]
            if quarantined:
                raise StorageError(
                    f"{self.name}: cannot export snapshot with quarantined "
                    f"run(s) {quarantined}"
                )
            heap = self.table.heap
            heap_bytes = heap.num_pages * heap.page_size
            heap_payload = (
                heap.file.read(0, heap_bytes) if heap_bytes else b""
            )
            run_snaps = []
            for run in self.runs:
                payload = run.file.read(0, run.num_blocks * run.block_size)
                run_snaps.append(RunSnapshot(run.name, payload, _crc(payload)))
            snapshot = EngineSnapshot(
                heap_payload=heap_payload,
                heap_crc=_crc(heap_payload),
                runs=tuple(run_snaps),
                checkpoint=self.manifest.snapshot(self._checkpoint_fence()),
            )
        get_registry().counter("masm.snapshots.exported").add(1)
        return snapshot

    def _delete_run(self, run: MaterializedSortedRun) -> None:
        """Delete a run's SSD file and drop its decoded blocks.

        The flush-epoch map entry dies here — with the file — and not at
        retirement: a graveyarded run must stay resolvable so an in-flight
        scan's Mem_scan handover (which may fire after the run was retired)
        still finds it.

        Idempotent against the file being already gone: after a crash the
        recovered engine owns the SSD and may have deleted this run as a
        completed-migration leftover, while this (pre-crash) instance still
        holds graveyard metadata that its surviving scans tear down late.
        """
        if run.name in self.ssd:
            self.ssd.delete(run.name)
        if self.block_cache is not None:
            self.block_cache.invalidate_run(run.name)
        self._runs_by_flush_epoch = {
            epoch: kept
            for epoch, kept in self._runs_by_flush_epoch.items()
            if kept is not run
        }

    # -------------------------------------------------------------- migration
    def migrate(self) -> None:
        """Migrate all cached updates back into the main data in place."""
        from repro.core.migration import migrate_all, migrate_range

        sim_interleave("masm.migrate")
        with self._lock:
            with trace("masm.migrate", runs=len(self.runs)):
                if self._active_scans:
                    # The full rewrite moves records across pages, which an
                    # in-flight lazy scan (reading pages as it goes) would
                    # see double or not at all.  Degrade to the range path
                    # over the whole key space: it rewrites each page in
                    # place, one single-page write at a time, so pages stay
                    # put, the page-timestamp rule keeps concurrent scans
                    # exact, and runs too new for the oldest scan stay
                    # cached.
                    migrate_range(
                        self, 0, 2**63 - 1, redo_log=self.redo_log
                    )
                else:
                    migrate_all(self, redo_log=self.redo_log)
                self.stats.migrations += 1
            if self.governor is not None:
                self.governor.on_full_migration()

    def end_migration(self, ended: MigrationEnded) -> list[MaterializedSortedRun]:
        """Apply a migration's logged end and retire the runs it retired;
        returns them."""
        with self._lock:
            retired = self.manifest.apply(ended)
            if retired:
                sim_interleave("masm.retire_runs")
                self._retire(retired, barrier_ts=ended.timestamp)
            return retired

    def _retire(self, runs: list[MaterializedSortedRun], barrier_ts: int) -> None:
        """Delete retired runs' files; one a scan older than ``barrier_ts``
        may still read waits in the graveyard (Section 3.2's "wait for
        ongoing queries earlier than t")."""
        with self._lock:
            oldest = self.oldest_active_query_ts()
            for run in runs:
                if oldest is not None and oldest < barrier_ts:
                    self._graveyard.append((run, barrier_ts))
                else:
                    self._delete_run(run)

    def _gc_graveyard(self) -> None:
        """Delete retired runs once no scan older than their barrier remains."""
        with self._lock:
            parked, self._graveyard = self._graveyard, []
            for run, barrier_ts in parked:
                self._retire([run], barrier_ts)

    # --------------------------------------------------------- constructors
    @classmethod
    def masm_2m(cls, table: Table, ssd_volume: StorageVolume, **kwargs) -> "MaSM":
        """MaSM-2M: minimal SSD writes (1 per update) with 2M memory."""
        config = kwargs.pop("config", None) or MaSMConfig(alpha=2.0)
        config.alpha = 2.0
        return cls(table, ssd_volume, config=config, **kwargs)

    @classmethod
    def masm_m(cls, table: Table, ssd_volume: StorageVolume, **kwargs) -> "MaSM":
        """MaSM-M: M memory at ~1.75 SSD writes per update."""
        config = kwargs.pop("config", None) or MaSMConfig(alpha=1.0)
        config.alpha = 1.0
        return cls(table, ssd_volume, config=config, **kwargs)
