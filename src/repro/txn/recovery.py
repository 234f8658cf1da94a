"""Crash recovery (Section 3.6).

What survives a crash: the main data on disk, the materialized sorted runs
on the (non-volatile) SSD, and the redo log.  What is lost: the in-memory
update buffer, the in-memory run metadata (run indexes), and the table's
sparse index.

Recovery therefore

1. reloads run metadata by scanning the run files on the SSD;
2. replays the redo log, re-inserting into the in-memory buffer exactly the
   updates newer than the last flushed timestamp ("use update timestamps to
   distinguish updates in memory and updates on SSDs");
3. redoes any migration whose START record has no matching END — safe
   because migration is idempotent under the page-timestamp rule — and
   deletes leftover run files of migrations that did complete;
4. rebuilds the table's sparse index with one sequential scan;
5. advances the timestamp oracle past everything it saw.

:func:`restart_masm` is the one way durable state becomes an engine: it
forgets what a crash forgets (the heap's logical length, the WAL's append
cursor) and runs :func:`recover_masm`.  A replica bootstrapped from a
peer's snapshot takes the same path: :func:`lay_down_snapshot` makes its
durable state equal the snapshot, then it restarts.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.masm import MaSM, MaSMConfig
from repro.core.sortedrun import load_run
from repro.core.update import UpdateColumns
from repro.engine.table import Table
from repro.errors import ChecksumError, RecoveryError, StorageError
from repro.obs import get_registry, trace
from repro.storage.checksum import checksum
from repro.storage.file import SimFile, StorageVolume
from repro.txn.log import LogRecordType, RedoLog
from repro.txn.timestamps import TimestampOracle


@dataclass
class RecoveryReport:
    """What recovery did, for assertions and operator visibility."""

    runs_reloaded: int = 0
    buffer_updates_replayed: int = 0
    migrations_redone: int = 0
    leftover_runs_deleted: int = 0
    max_timestamp_seen: int = 0
    #: Run files that failed checksum verification and were discarded.
    corrupt_runs_discarded: int = 0
    #: Intact run files with no covering RUN_FLUSH record (the crash hit
    #: between the SSD write and the log append); their updates were
    #: replayed into the buffer instead, so keeping the file would apply
    #: them twice.
    orphan_runs_discarded: int = 0
    #: Fresh runs rebuilt from the redo log to replace discarded ones.
    runs_rebuilt: int = 0
    #: Victim files of committed merges (RUN_MERGE record + intact product)
    #: still on the SSD at the crash — e.g. parked in the graveyard for an
    #: active scan; serving them alongside the product would apply every
    #: merged update twice.
    merge_victims_discarded: int = 0
    #: Damaged-run timestamp gaps the (truncated) log can no longer rebuild:
    #: the lost records predate the checkpoint fence.  The replica's local
    #: state is incomplete — only a snapshot bootstrap from a peer heals it.
    unrecoverable_gaps: int = 0
    #: Fence of the newest CHECKPOINT record seen (0 = log never truncated).
    checkpoint_ts: int = 0


def rebuild_table_index(table: Table) -> None:
    """Reconstruct the sparse primary index and row count by scanning.

    Each page contributes its first key and its record count, both read off
    the chunk decoder's key column — no record tuple is built for a page in
    the bulk-loaded layout.

    When the surviving heap's logical length is unknown (``num_pages`` was
    volatile), scanning stops at the first unparseable page: heap pages are
    allocated contiguously from zero, so unformatted space marks the end.
    """
    entries: list[tuple[int, int]] = []
    rows = 0
    last_key = 0
    for chunk in table.heap.scan_chunks():
        counts = chunk.counts
        occupied = counts > 0
        first_keys = np.zeros(len(counts), dtype=chunk.keys.dtype)
        first_keys[occupied] = chunk.keys[(np.cumsum(counts) - counts)[occupied]]
        for page_no, key in enumerate(first_keys.tolist(), chunk.first_page):
            # Empty trailing pages (key 0) inherit the previous first key to
            # stay ordered.
            if entries and key < last_key:
                key = last_key
            entries.append((key, page_no))
            last_key = key
        rows += len(chunk.keys)
        if chunk.error is not None:
            break  # unformatted space: end of the heap's data
    table.heap.num_pages = len(entries)
    table.replace_contents(entries, rows)


def restart_masm(
    table: Table,
    ssd_volume: StorageVolume,
    wal_file: SimFile,
    config: Optional[MaSMConfig] = None,
    oracle: Optional[TimestampOracle] = None,
    name: Optional[str] = None,
) -> tuple[MaSM, RecoveryReport]:
    """Restart an engine from what survives on disk: the heap under
    ``table``, the run files on ``ssd_volume`` and the WAL in ``wal_file``.

    The volatile parts die as they would in a crash — a bare table over
    the same heap whose logical length is unknown, a log whose append
    cursor is lost — and :func:`recover_masm` rebuilds the rest.
    """
    bare = Table(table.name, table.schema, table.heap)
    bare.heap.num_pages = bare.heap.capacity_pages
    wal_file.seek_append(0)
    return recover_masm(
        bare, ssd_volume, RedoLog(wal_file), config=config, oracle=oracle, name=name
    )


def lay_down_snapshot(
    snapshot, table: Table, ssd_volume: StorageVolume, name: str, wal_name: str
) -> SimFile:
    """Make a node's durable state equal ``snapshot`` (an
    :class:`~repro.core.masm.EngineSnapshot`); returns the fresh WAL file.

    Every CRC is checked before anything is written.  Then the volume's
    files are deleted, the heap bytes land at offset 0 with the page after
    them zeroed (a reused heap may hold stale pages past the snapshot's,
    and the restart's index rebuild stops at the first unformatted page),
    each run file is written under engine ``name`` with the donor's
    sequence number (replicas of one shard stay name-aligned), and a fresh
    WAL ``wal_name`` gets the checkpoint, with the translated run names, as
    its first frame.  :func:`restart_masm` over the result rebuilds the
    donor's engine at the checkpoint's fence.  The fresh WAL reuses the
    old one's extent, where a delete drops only whole backing blocks, so it
    starts one generation past the old log's and no frame left there
    validates.  (A wiped node has no old log: it starts at generation 1.)
    """
    if checksum(snapshot.heap_payload) != snapshot.heap_crc:
        raise ChecksumError("snapshot heap payload failed CRC verification")
    for run in snapshot.runs:
        if checksum(run.payload) != run.crc:
            raise ChecksumError(f"snapshot run {run.name!r} failed CRC verification")

    def translated(run_name: str) -> str:
        _, sep, seq = run_name.rpartition("-run-")
        if not sep:
            raise RecoveryError(f"snapshot run {run_name!r} has no run sequence")
        return f"{name}-run-{seq}"

    run_files = [(translated(run.name), run.payload) for run in snapshot.runs]
    checkpoint = dataclasses.replace(
        snapshot.checkpoint,
        table=table.name,
        runs=tuple(
            dataclasses.replace(entry, name=translated(entry.name))
            for entry in snapshot.checkpoint.runs
        ),
    )

    stale = RedoLog.generation_of(ssd_volume.open(wal_name)) if wal_name in ssd_volume else 0
    for file_name in list(ssd_volume):
        ssd_volume.delete(file_name)
    wal_file = ssd_volume.create(wal_name, ssd_volume.device.capacity // 4)
    heap = table.heap
    if snapshot.heap_payload:
        heap.file.write(0, snapshot.heap_payload)
    end = len(snapshot.heap_payload)
    if end + heap.page_size <= heap.file.size:
        heap.file.zero_range(end, heap.page_size)
    for file_name, payload in run_files:
        ssd_volume.create(file_name, len(payload)).append(payload)
    wal = RedoLog(wal_file)
    wal.generation = stale + 1
    wal.log_checkpoint(checkpoint)
    return wal_file


def recover_masm(
    table: Table,
    ssd_volume: StorageVolume,
    redo_log: RedoLog,
    config: Optional[MaSMConfig] = None,
    oracle: Optional[TimestampOracle] = None,
    name: Optional[str] = None,
    rebuild_index: bool = True,
) -> tuple[MaSM, RecoveryReport]:
    """Reconstruct a MaSM instance after a crash.

    ``table`` wraps the surviving heap file; ``ssd_volume`` still holds the
    run files; ``redo_log`` is the surviving log.  Returns the recovered
    engine and a :class:`RecoveryReport`.
    """
    report = RecoveryReport()
    masm = MaSM(table, ssd_volume, config=config, oracle=oracle, name=name)
    redo_log.register_table(table.name, masm.codec)
    masm.redo_log = redo_log

    if rebuild_index:
        rebuild_table_index(table)

    # ---- 2/3. scan the log first -------------------------------------------
    # The log is the source of truth about which run files *should* exist:
    # it must be read before trusting any SSD state, so that orphan runs
    # (written but never logged) and damaged runs can be told apart.
    flushed_through = 0  # max update ts known to be in a logged run
    migrated_ts = 0  # max ts applied in place by a completed full migration
    pending: list[tuple[int, bytes]] = []  # (timestamp, the update as logged)
    open_migrations: dict[int, tuple[str, ...]] = {}
    completed_full: list[tuple[str, ...]] = []
    completed_partial: list[tuple[tuple[str, ...], tuple[int, int]]] = []
    # (product, victims, covered-ts span) of every RUN_MERGE record.
    merges: list[tuple[str, tuple[str, ...], tuple[int, int]]] = []
    # run name -> RunManifestEntry from the newest CHECKPOINT record.
    manifest: dict = {}
    # run name -> passes: the manifest's, then each RUN_MERGE's product.
    passes: dict[str, int] = {}
    full_range = (0, 2**63 - 1)
    with trace("txn.recover.replay"):
        for record in redo_log.records():
            report.max_timestamp_seen = max(
                report.max_timestamp_seen, record.timestamp
            )
            if record.type == LogRecordType.UPDATE:
                if record.table == table.name:
                    pending.append((record.timestamp, record.encoded))
            elif record.type == LogRecordType.RUN_FLUSH:
                if record.table == table.name:
                    flushed_through = max(flushed_through, record.timestamp)
            elif record.type == LogRecordType.MIGRATION_START:
                open_migrations[record.timestamp] = (
                    record.run_names or (),
                    record.key_range,
                )
            elif record.type == LogRecordType.MIGRATION_END:
                entry = open_migrations.pop(record.timestamp, None)
                if entry is None:
                    raise RecoveryError(
                        f"migration end {record.timestamp} without a start record"
                    )
                names, key_range = entry
                if key_range is None or tuple(key_range) == full_range:
                    completed_full.append(names)
                    # A completed full migration applied every cached update
                    # with ts <= its timestamp in place.
                    migrated_ts = max(migrated_ts, record.timestamp)
                else:
                    completed_partial.append((names, tuple(key_range)))
            elif record.type == LogRecordType.RUN_MERGE:
                victims = record.run_names or ()
                merges.append((record.run_name, victims, record.covered_ts))
                # _merge_earliest_runs' rule: one pass more than the
                # most-written victim.
                passes[record.run_name] = 1 + max(
                    (passes.get(name, 1) for name in victims), default=1
                )
            elif record.type == LogRecordType.CHECKPOINT:
                cp = record.checkpoint
                if cp is not None and cp.table == table.name:
                    # The checkpoint stands in for the truncated prefix: it
                    # seeds the watermarks and the run manifest the dropped
                    # RUN_FLUSH / MIGRATION / RUN_MERGE records established.
                    flushed_through = max(flushed_through, cp.checkpoint_ts)
                    migrated_ts = max(migrated_ts, cp.migrated_ts)
                    manifest = {entry.name: entry for entry in cp.runs}
                    passes.update((entry.name, entry.passes) for entry in cp.runs)
                    report.checkpoint_ts = max(
                        report.checkpoint_ts, cp.checkpoint_ts
                    )

    # ---- 1. reload run metadata from the SSD, tolerating damage ------------
    pattern = re.compile(re.escape(masm.name) + r"-run-(\d+)$")
    found: list[tuple[int, str]] = []
    for file_name in ssd_volume:
        match = pattern.match(file_name)
        if match:
            found.append((int(match.group(1)), file_name))
    found.sort()
    runs_by_name = {}
    damaged_names: list[str] = []
    for seq, file_name in found:
        masm._run_seq = max(masm._run_seq, seq + 1)
        try:
            run = load_run(
                ssd_volume,
                file_name,
                masm.codec,
                block_size=masm.config.block_size,
                passes=passes.get(file_name, 1),
            )
        except (RecoveryError, StorageError):
            # ChecksumError (bit rot, torn run write) or undecodable
            # content: the file cannot be trusted; rebuild from the log.
            damaged_names.append(file_name)
            continue
        runs_by_name[file_name] = run

    # Restore checkpoint-manifest metadata: the covered-ts spans and the
    # migrated ranges these runs carried when the fence was cut — the log
    # records that established them may have been truncated away.
    for file_name, run in runs_by_name.items():
        entry = manifest.get(file_name)
        if entry is None:
            continue
        run.covered_min_ts = min(run.covered_min_ts, entry.covered_min_ts)
        run.covered_max_ts = max(run.covered_max_ts, entry.covered_max_ts)
        for lo, hi in entry.migrated_ranges:
            run.mark_migrated(lo, hi)

    # Merges log their RUN_MERGE record *before* materializing the product
    # run, so the product file's intact existence is the commit point.
    # Product intact: the victims are superseded copies of its content —
    # any still on the SSD (the crash hit before retirement, or a scan kept
    # them parked in the graveyard) must go, since serving them alongside
    # the product would apply every merged update twice (and re-raise
    # duplicate-INSERT conflicts in the combine chain).  Product missing or
    # damaged: the merge never committed; the victims stay authoritative
    # and the damaged-product file is discarded by the damage path below
    # (its content needs no rebuild — the victims still cover it).
    # Manifest runs retired by a *surviving* log record (a committed merge,
    # a completed migration) are legitimately absent from the SSD; anything
    # else listed at the fence but missing from the volume was lost and
    # must go through the same gap rebuild as a damaged file.
    retired_names: set = set()
    for product, victim_names, covered_ts in merges:
        match = pattern.match(product)
        if match:
            # Never reuse a logged product name, even if the crash hit
            # before its file was written: a later run under the same name
            # would make this record look committed on the *next* recovery.
            masm._run_seq = max(masm._run_seq, int(match.group(1)) + 1)
        if product not in runs_by_name:
            continue
        product_run = runs_by_name[product]
        # The reloaded span is derived from content, which combine may have
        # narrowed (a chain collapses to its latest timestamp); restore the
        # logged union of the victims' spans so the log-fallback and
        # gap-rebuild paths see what this run is the durable home of.
        product_run.covered_min_ts = min(product_run.covered_min_ts, covered_ts[0])
        product_run.covered_max_ts = max(product_run.covered_max_ts, covered_ts[1])
        retired_names.update(victim_names)
        for run_name in victim_names:
            if runs_by_name.pop(run_name, None) is not None:
                ssd_volume.delete(run_name)
                report.merge_victims_discarded += 1
            elif run_name in damaged_names:
                damaged_names.remove(run_name)
                ssd_volume.delete(run_name)
                report.merge_victims_discarded += 1

    # Runs of completed *full* migrations should be gone; delete leftovers
    # (the crash may have hit between the END record and the deletion).
    for names in completed_full:
        retired_names.update(names)
        for run_name in names:
            if runs_by_name.pop(run_name, None) is not None:
                ssd_volume.delete(run_name)
                report.leftover_runs_deleted += 1
            elif run_name in damaged_names:
                damaged_names.remove(run_name)
                ssd_volume.delete(run_name)
                report.leftover_runs_deleted += 1

    # Completed *partial* migrations (governor-paced slices) applied only a
    # key range in place; the named runs still hold unmigrated keys and must
    # survive.  Re-mark the migrated ranges (they were volatile) and delete
    # a run only when its slices cumulatively cover its whole key span —
    # the same rule the engine uses to retire runs after a slice.  Damaged
    # runs are left to the rebuild path: its log replay re-materializes all
    # their updates, and re-serving already-migrated ones is harmless under
    # the page-timestamp rule.
    for names, (range_lo, range_hi) in completed_partial:
        retired_names.update(names)
        for run_name in names:
            run = runs_by_name.get(run_name)
            if run is None:
                continue
            run.mark_migrated(range_lo, range_hi)
    for run_name, run in list(runs_by_name.items()):
        if run.migrated_ranges and run.fully_migrated(run.min_key, run.max_key):
            del runs_by_name[run_name]
            ssd_volume.delete(run_name)
            report.leftover_runs_deleted += 1

    # Orphan runs: written to the SSD but the crash hit before their
    # RUN_FLUSH record was logged.  Their updates are replayed into the
    # buffer below (every one has ts > flushed_through), so the file must
    # go — keeping it would apply those updates twice.
    for file_name, run in list(runs_by_name.items()):
        if run.min_ts > flushed_through:
            del runs_by_name[file_name]
            ssd_volume.delete(file_name)
            report.orphan_runs_discarded += 1

    # Damaged files: drop them; their logged content is rebuilt below.
    for file_name in damaged_names:
        ssd_volume.delete(file_name)
        report.corrupt_runs_discarded += 1

    masm.runs.extend(run for _name, run in sorted(runs_by_name.items()))
    masm.runs_version += 1
    report.runs_reloaded = len(masm.runs)

    # ---- 1b. rebuild discarded logged content from the redo log ------------
    # Every logged update with migrated_ts < ts <= flushed_through belongs
    # in some run.  The intervals not covered by the intact runs are exactly
    # what the damaged runs held; re-materialize each gap as a fresh run.
    # (A damaged *orphan* needs no rebuild: its ts range is past
    # flushed_through and replays into the buffer like any unflushed update.)
    lost_manifest_names = [
        name
        for name in manifest
        if name not in runs_by_name and name not in retired_names
    ]
    if damaged_names or lost_manifest_names:
        covered = sorted(
            (run.covered_min_ts, run.covered_max_ts) for run in masm.runs
        )
        gaps = _uncovered_intervals(migrated_ts + 1, flushed_through, covered)
        log_floor = redo_log.truncated_through
        for gap_lo, gap_hi in gaps:
            if gap_lo <= log_floor:
                # The lost records predate the checkpoint fence: the log
                # prefix that held them was reclaimed.  Local recovery
                # cannot rebuild this — flag it so the replication layer
                # falls back to a snapshot bootstrap from a healthy peer.
                report.unrecoverable_gaps += 1
                gap_lo = log_floor + 1
                if gap_lo > gap_hi:
                    continue
            lost = [encoded for ts, encoded in pending if gap_lo <= ts <= gap_hi]
            if not lost:
                continue
            with trace("txn.recover.rebuild_run", updates=len(lost)):
                rebuilt = masm._write_run(
                    UpdateColumns.from_encoded(lost, masm.codec).sorted(), passes=1
                )
            rebuilt.covered_min_ts = gap_lo
            rebuilt.covered_max_ts = gap_hi
            report.runs_rebuilt += 1

    # ---- 2. rebuild the in-memory buffer ----------------------------------
    for timestamp, encoded in pending:
        if timestamp > flushed_through:
            if masm.buffer.would_overflow(len(encoded)):
                masm._handle_full_buffer()
            masm.buffer.append(encoded)
            masm.count_ingested(1)
            report.buffer_updates_replayed += 1

    # ---- 5. the oracle must move past everything seen ----------------------
    masm.oracle.advance_past(report.max_timestamp_seen)
    masm.flushed_through = flushed_through
    masm.migrated_through = migrated_ts
    masm.last_checkpoint_ts = redo_log.truncated_through

    # ---- 3. redo interrupted migrations ------------------------------------
    # Idempotent: pages already rewritten carry timestamps >= the updates.
    for start_ts in sorted(open_migrations):
        if masm.runs:
            masm.migrate()
            report.migrations_redone += 1

    registry = get_registry()
    registry.counter("txn.recovery.count").add(1)
    for field_name in (
        "runs_reloaded",
        "buffer_updates_replayed",
        "migrations_redone",
        "leftover_runs_deleted",
        "corrupt_runs_discarded",
        "orphan_runs_discarded",
        "runs_rebuilt",
        "unrecoverable_gaps",
    ):
        registry.counter(f"txn.recovery.{field_name}").add(
            getattr(report, field_name)
        )

    return masm, report


def _uncovered_intervals(
    lo: int, hi: int, covered: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The sub-intervals of [lo, hi] not covered by ``covered`` (sorted)."""
    gaps: list[tuple[int, int]] = []
    cursor = lo
    for c_lo, c_hi in covered:
        if c_lo > cursor:
            gaps.append((cursor, min(c_lo - 1, hi)))
        cursor = max(cursor, c_hi + 1)
        if cursor > hi:
            break
    if cursor <= hi:
        gaps.append((cursor, hi))
    return [g for g in gaps if g[0] <= g[1]]
