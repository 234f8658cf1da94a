"""Crash recovery from before the run manifest owned the run set.

``recover_masm`` re-derived the run set from the log with its own rules:
the passes of a merge product, the victims' span union, and completed full
and partial migrations collected by category and applied in that order
after the run files were loaded.  It is kept verbatim as the oracle the
twin recovery suite (``test_recovery_twins.py``) compares the manifest
replay against, except where it assigned engine state: it hands the run
list it reloaded, each run a gap rebuild wrote and the final watermarks to
the engine's manifest as one edit each (:class:`Recovered`,
:class:`GapRebuilt`, and a :class:`Checkpointed` at the watermarks), and it
refills the buffer through the engine's helper.  One fix rides along: it never reuses a run name a replayed record
holds (it used to guard only merge products, so a run flushed after a
restart that followed a full migration could take a retired run's name,
and the next recovery deleted it as that migration's leftover).

It reads the log's run-set records as the edits they now are (run names
in place of runs): a MIGRATION_END carries the migration's runs and, for a
range migration, the key spans its loop applied, so a completed range
migration marks those spans (it used to mark the whole range its START
named, and to read a whole-key-space range as a full migration).
Production code does not import this module.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.core.manifest import Checkpoint, Checkpointed, GapRebuilt, Recovered
from repro.core.masm import MaSM, MaSMConfig
from repro.core.sortedrun import load_run
from repro.core.update import UpdateColumns
from repro.engine.table import Table
from repro.errors import RecoveryError, StorageError
from repro.obs import get_registry, trace
from repro.storage.file import StorageVolume
from repro.txn.log import LogRecordType, RedoLog
from repro.txn.recovery import RecoveryReport, rebuild_table_index
from repro.txn.timestamps import TimestampOracle


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

    rebuild_table_index(table)

    # ---- 2/3. scan the log first -------------------------------------------
    # The log is the source of truth about which run files *should* exist:
    # it must be read before trusting any SSD state, so that orphan runs
    # (written but never logged) and damaged runs can be told apart.
    flushed_through = 0  # max update ts known to be in a logged run
    migrated_ts = 0  # max ts applied in place by a completed full migration
    pending: list[tuple[int, bytes]] = []  # (timestamp, the update as logged)
    open_migrations: set[int] = set()
    completed_full: list[tuple[str, ...]] = []
    completed_partial: list[tuple[tuple[str, ...], tuple[tuple[int, int], ...]]] = []
    # (product, victims, covered-ts span) of every RUN_MERGE record.
    merges: list[tuple[str, tuple[str, ...], tuple[int, int]]] = []
    # run name -> RunManifestEntry from the newest CHECKPOINT record.
    manifest: dict = {}
    # run name -> passes: the manifest's, then each RUN_MERGE's product.
    passes: dict[str, int] = {}
    # Every run name a replayed record holds (no restart reuses one).
    named: set = set()
    # run name -> the covered-ts span its RUN_FLUSH or checkpoint entry logged.
    logged_spans: dict[str, tuple[int, int]] = {}
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
                    named.add(record.edit.run)
                    logged_spans[record.edit.run] = record.edit.covered
            elif record.type == LogRecordType.MIGRATION_START:
                open_migrations.add(record.timestamp)
            elif record.type == LogRecordType.MIGRATION_END:
                if record.timestamp not in open_migrations:
                    raise RecoveryError(
                        f"migration end {record.timestamp} without a start record"
                    )
                open_migrations.discard(record.timestamp)
                names, spans = record.edit.runs, record.edit.spans
                named.update(names)
                if spans is None:
                    completed_full.append(names)
                    # A completed full migration applied every cached update
                    # with ts <= its timestamp in place.
                    migrated_ts = max(migrated_ts, record.timestamp)
                else:
                    completed_partial.append((names, spans))
            elif record.type == LogRecordType.RUN_MERGE:
                merge = record.edit
                victims = merge.victims
                named.update(victims)
                merges.append((merge.product, victims, merge.covered))
                # _merge_earliest_runs' rule: one pass more than the
                # most-written victim.
                passes[merge.product] = 1 + max(
                    (passes.get(name, 1) for name in victims), default=1
                )
            elif record.type == LogRecordType.CHECKPOINT:
                cp = record.edit.checkpoint
                if cp.table == table.name:
                    # The checkpoint stands in for the truncated prefix: it
                    # seeds the watermarks and the run manifest the dropped
                    # RUN_FLUSH / MIGRATION / RUN_MERGE records established.
                    flushed_through = max(flushed_through, cp.checkpoint_ts)
                    migrated_ts = max(migrated_ts, cp.migrated_ts)
                    manifest = {entry.name: entry for entry in cp.runs}
                    named.update(manifest)
                    for entry in cp.runs:
                        logged_spans.setdefault(
                            entry.name, (entry.covered_min_ts, entry.covered_max_ts)
                        )
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
    for run_name in named:
        match = pattern.match(run_name)
        if match:
            masm._run_seq = max(masm._run_seq, int(match.group(1)) + 1)
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

    # Completed *partial* migrations (governor-paced slices) applied only
    # their logged key spans in place; the named runs still hold unmigrated
    # keys and must survive.  Re-mark the spans (they were volatile) and delete
    # a run only when its slices cumulatively cover its whole key span —
    # the same rule the engine uses to retire runs after a slice.  Damaged
    # runs are left to the rebuild path: its log replay re-materializes all
    # their updates, and re-serving already-migrated ones is harmless under
    # the page-timestamp rule.
    for names, spans in completed_partial:
        retired_names.update(names)
        for run_name in names:
            run = runs_by_name.get(run_name)
            if run is None:
                continue
            for span_lo, span_hi in spans:
                run.mark_migrated(span_lo, span_hi)
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

    masm.manifest.apply(
        Recovered(tuple(run for _name, run in sorted(runs_by_name.items())))
    )
    report.runs_reloaded = len(masm.runs)

    # ---- 1b. rebuild discarded logged content from the redo log ------------
    # Every logged update with migrated_ts < ts <= flushed_through belongs
    # in some run, and so does every update in the covered span a damaged
    # run's RUN_FLUSH or checkpoint entry logged (a full migration's
    # watermark passes the updates it left in the buffer, which may flush
    # below it).  The intervals not covered by the intact runs are exactly
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
        damaged = sorted(logged_spans[name] for name in damaged_names if name in logged_spans)
        in_place = _uncovered_intervals(1, migrated_ts, damaged)
        gaps = _uncovered_intervals(1, flushed_through, sorted(covered + in_place))
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
            masm.manifest.apply(GapRebuilt(rebuilt, (gap_lo, gap_hi)))
            report.runs_rebuilt += 1

    # ---- 2. rebuild the in-memory buffer ----------------------------------
    for timestamp, encoded in pending:
        if timestamp > flushed_through:
            masm._buffer_update(encoded)
            report.buffer_updates_replayed += 1

    # ---- 5. the oracle must move past everything seen ----------------------
    masm.oracle.advance_past(report.max_timestamp_seen)
    masm.manifest.apply(
        Checkpointed(Checkpoint(table.name, flushed_through, migrated_ts), runs=())
    )
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
