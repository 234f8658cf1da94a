"""Crash recovery (Section 3.6).

What survives a crash: the main data on disk, the materialized sorted runs
on the (non-volatile) SSD, and the redo log.  What is lost: the in-memory
update buffer, the in-memory run metadata (run indexes), and the table's
sparse index.

:func:`recover_masm` therefore

1. rebuilds the table's sparse index with one sequential scan;
2. reads the redo log: the updates, the logged edits (each run-set record
   decodes to the :mod:`~repro.core.manifest` edit the live engine
   applied) and the migrations whose MIGRATION_START no END closed;
3. loads and CRC-checks the run files on the SSD;
4. applies each logged edit, its run names resolved to the files found,
   in log order;
5. reconciles the files with the result in one pass (deleting what the
   edits retired, damaged files and orphans) and rebuilds from the log
   the spans of runs lost or damaged;
6. refills the buffer with the updates newer than the last flushed
   timestamp ("use update timestamps to distinguish updates in memory and
   updates on SSDs") and redoes each open migration — safe because
   migration is idempotent under the page-ts rule.

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

from repro.core.manifest import (
    Checkpointed,
    GapRebuilt,
    LostRun,
    Recovered,
    RunsMerged,
)
from repro.core.masm import MaSM, MaSMConfig
from repro.core.sortedrun import load_run, subtract_spans
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
    #: Intact run files newer than every logged :class:`RunFlushed` (the
    #: crash hit between the SSD write and the log append); their updates
    #: were replayed into the buffer instead, so keeping the file would
    #: apply them twice.
    orphan_runs_discarded: int = 0
    #: Fresh runs rebuilt from the redo log to replace discarded ones.
    runs_rebuilt: int = 0
    #: Victim files of committed merges (a logged :class:`RunsMerged`, an
    #: intact product) still on the SSD at the crash — e.g. parked in the graveyard for an
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
    manifest = masm.manifest
    rebuild_table_index(table)

    # 2. Read the log before trusting any file: it says which should exist.
    pending: list[tuple[int, bytes]] = []  # (timestamp, the update as logged)
    logged: list = []  # the table's edits, run names unresolved
    started: set = set()  # open migrations' timestamps
    with trace("txn.recover.replay"):
        for record in redo_log.records():
            report.max_timestamp_seen = max(report.max_timestamp_seen, record.timestamp)
            if record.table != table.name:
                continue
            if record.type == LogRecordType.UPDATE:
                pending.append((record.timestamp, record.encoded))
            elif record.type == LogRecordType.MIGRATION_START:
                started.add(record.timestamp)
            else:
                if record.type == LogRecordType.MIGRATION_END:
                    started.discard(record.timestamp)
                logged.append(record.edit)

    # 3. Load and CRC-check the run files; a damaged one is a LostRun.
    pattern = re.compile(re.escape(masm.name) + r"-run-(\d+)$")
    found: dict = {}
    for file_name in sorted(
        filter(pattern.match, ssd_volume), key=lambda n: int(pattern.match(n).group(1))
    ):
        try:
            found[file_name] = load_run(
                ssd_volume, file_name, masm.codec, block_size=masm.config.block_size
            )
        except (RecoveryError, StorageError):  # bit rot, a torn run write
            found[file_name] = LostRun(file_name, damaged=True)
    gone: dict = {}

    def resolve(run_name: str):
        """The run a file or record name stands for.  No name either holds
        is reused: a later run under it would take its records' meaning."""
        match = pattern.match(run_name)
        if match:
            masm._run_seq = max(masm._run_seq, int(match.group(1)) + 1)
        if run_name in found:
            return found[run_name]
        return gone.setdefault(run_name, LostRun(run_name, damaged=False))

    # 4. Apply the logged edits to the files found.
    manifest.apply(Recovered(tuple(map(resolve, found))))
    retired: dict = {}  # run name -> the report field its deletion counts in
    for edit in logged:
        edit = edit.resolved(resolve)
        for retiree in manifest.apply(edit):
            retired.setdefault(retiree.name, "leftover_runs_deleted")
        if isinstance(edit, RunsMerged) and edit.committed:
            # Whatever retired a committed merge's victim, its file counts
            # as one.
            retired.update((v.name, "merge_victims_discarded") for v in edit.victims)
        if isinstance(edit, Checkpointed):
            report.checkpoint_ts = max(report.checkpoint_ts, edit.checkpoint.checkpoint_ts)

    # 5. Reconcile the files with the replayed manifest.
    flushed_through = manifest.flushed_through
    kept = []
    for file_name, loaded in found.items():
        if file_name in retired:  # its deletion did not survive the crash
            field_name = retired[file_name]
        elif isinstance(loaded, LostRun):
            field_name = "corrupt_runs_discarded"
        elif loaded.min_ts > flushed_through:
            # Written, but the crash hit before its RunFlushed was logged:
            # its updates replay into the buffer below.
            field_name = "orphan_runs_discarded"
        else:
            kept.append(loaded)
            continue
        ssd_volume.delete(file_name)
        setattr(report, field_name, getattr(report, field_name) + 1)
    lost = [listed for listed in manifest.runs if isinstance(listed, LostRun)]
    manifest.apply(Recovered(tuple(kept)))
    report.runs_reloaded = len(kept)

    # Every logged update with migrated_through < ts <= flushed_through, or
    # in a damaged run's logged span (a full migration's watermark passes
    # the buffered updates, which may flush below it), belongs in some run:
    # the spans no kept run covers are what the lost runs held.  Rebuild
    # each from the log, unless the checkpoint fence reclaimed it (then
    # only a snapshot bootstrap from a peer heals).
    damaged = [(r.covered_min_ts, r.covered_max_ts) for r in lost if r.damaged]
    migrated = subtract_spans(1, manifest.migrated_through, damaged)
    covered = [(run.covered_min_ts, run.covered_max_ts) for run in kept]
    gaps = subtract_spans(1, flushed_through, covered + migrated)
    for gap_lo, gap_hi in gaps if lost else ():
        if gap_lo <= redo_log.truncated_through:
            report.unrecoverable_gaps += 1
            gap_lo = redo_log.truncated_through + 1
        updates = [encoded for ts, encoded in pending if gap_lo <= ts <= gap_hi]
        if updates:
            with trace("txn.recover.rebuild_run", updates=len(updates)):
                rebuilt = masm._write_run(
                    UpdateColumns.from_encoded(updates, masm.codec).sorted(), passes=1
                )
            manifest.apply(GapRebuilt(rebuilt, (gap_lo, gap_hi)))
            report.runs_rebuilt += 1

    # 6. Refill the buffer; redo interrupted migrations (idempotent: pages
    # already rewritten carry timestamps >= the updates).
    for timestamp, encoded in pending:
        if timestamp > flushed_through:
            masm._buffer_update(encoded)
            report.buffer_updates_replayed += 1
    masm.oracle.advance_past(report.max_timestamp_seen)
    masm.last_checkpoint_ts = redo_log.truncated_through
    for _ in started:
        if masm.runs:
            masm.migrate()
            report.migrations_redone += 1

    registry = get_registry()
    registry.counter("txn.recovery.count").add(1)
    for field_name, value in dataclasses.asdict(report).items():
        if field_name not in ("max_timestamp_seen", "merge_victims_discarded", "checkpoint_ts"):
            registry.counter(f"txn.recovery.{field_name}").add(value)

    return masm, report

