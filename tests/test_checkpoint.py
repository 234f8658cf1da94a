"""Checkpoints, WAL truncation, snapshot export/install, scrub repair.

The invariant under test everywhere: a checkpoint fences exactly the
prefix of the update stream whose durable home is the flushed runs (and
migrated heap ranges), so compacting the WAL behind the fence — then
crashing, recovering, snapshotting or repairing — can never change what
any scan at any timestamp answers.
"""

import dataclasses

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import migrate_all
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import ChecksumError, StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import LogRecordType, RedoLog
from repro.txn.recovery import lay_down_snapshot, restart_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def build_system(n=1000, log_bytes=2 * MB):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    log = RedoLog(ssd_vol.create("redo-log", log_bytes))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    return masm, table, ssd_vol, log, config


def crash_and_recover(masm, table, ssd_vol, log, config):
    return restart_masm(table, ssd_vol, log.file, config=config)


def scan_dict(masm):
    # Pin an explicit far-future ts: the peer-repair test feeds apply()
    # explicit timestamps, which never advance the engine's own oracle.
    return {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62, query_ts=2**62)}


def corrupt_run(masm, run_index=0, offset=100):
    run = masm.runs[run_index]
    byte = run.file.read(offset, 1)[0]
    run.file.write(offset, bytes([byte ^ 0xFF]))
    masm.block_cache.invalidate_run(run.name)
    return run


# ------------------------------------------------------------- truncation
def test_checkpoint_and_truncate_reclaims_wal():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(50):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    before = log.live_bytes
    cp, report = masm.checkpoint_and_truncate()
    assert cp.checkpoint_ts == masm.flushed_through
    assert report.reclaimed_bytes > 0
    assert log.live_bytes < before
    assert log.truncated_through == cp.checkpoint_ts
    assert masm.stats.checkpoints == 1
    assert masm.last_checkpoint_ts == cp.checkpoint_ts


def test_truncation_keeps_post_fence_records():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(30):
        masm.modify(i * 2, {"payload": f"flushed{i}"})
    masm.flush_buffer()
    for i in range(10):
        masm.modify(i * 2 + 60, {"payload": f"buffered{i}"})
    cp, _ = masm.checkpoint_and_truncate()
    # The buffered suffix survives compaction; the flushed prefix is gone.
    kinds = [(r.type, r.timestamp) for r in log.records()]
    updates = [ts for t, ts in kinds if t is LogRecordType.UPDATE]
    assert len(updates) == 10
    assert all(ts > cp.checkpoint_ts for ts in updates)
    assert kinds[0][0] is LogRecordType.CHECKPOINT


def test_checkpoint_refused_for_buffered_only_prefix():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "buffered"})
    # Nothing flushed: the fence cannot advance past the buffered min ts.
    assert masm.checkpoint() is None
    assert masm.checkpoint_and_truncate() is None


def test_checkpoint_refused_while_a_run_is_quarantined():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(30):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    corrupt_run(masm)
    masm.scrub()
    assert masm.runs[0].quarantined
    assert masm.checkpoint() is None


def logged_writes(engine, count, first_key=0):
    """SSD device writes each of ``count`` fresh ``log_update`` calls cost."""
    stats = engine.redo_log.file.device.stats
    costs = []
    for i in range(count):
        ts = engine.oracle.next()
        encoded = engine.codec.encode(
            UpdateRecord(ts, first_key + i * 2, UpdateType.MODIFY, {"payload": f"w{i}"})
        )
        before = stats.writes
        engine.redo_log.log_update(engine.table.name, encoded)
        costs.append(stats.writes - before)
    return costs


def test_a_log_update_is_one_ssd_write_after_a_restart_past_a_checkpoint():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(60):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    masm.checkpoint_and_truncate()
    for i in range(5):
        masm.modify(i * 2 + 200, {"payload": f"late{i}"})
    cursor = log.file.append_pos
    # Truncation left the reclaimed tail as it was: stale frames lie right
    # behind the cursor when the restart has to find the log's end.
    assert any(log.file.peek(cursor, 4 * KB))
    engine, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.buffer_updates_replayed == 5
    assert engine.redo_log.file.append_pos == cursor
    assert engine.redo_log.generation == log.generation == 1
    assert logged_writes(engine, 20) == [1] * 20
    # A second restart replays exactly the live records, none of the stale.
    again, report = restart_masm(table, ssd_vol, log.file, config=config)
    assert report.buffer_updates_replayed == 25


def test_a_log_update_is_one_ssd_write_after_a_bootstrap_and_restart():
    donor, *_ = build_system()
    for i in range(40):
        donor.modify(i * 2, {"payload": f"v{i}"})
    donor.flush_buffer()
    snapshot = donor.export_snapshot()
    # The target's own WAL was truncated twice: the WAL laid down over its
    # extent starts one generation past it.
    masm, table, ssd_vol, log, config = build_system()
    for round_ in range(2):
        for i in range(60):
            masm.modify(i * 2, {"payload": f"old{round_}.{i}"})
        masm.flush_buffer()
        masm.checkpoint_and_truncate()
    assert log.generation == 2
    wal = lay_down_snapshot(snapshot, table, ssd_vol, "masm-t", log.file.name)
    assert wal.offset == log.file.offset
    engine, report = restart_masm(table, ssd_vol, wal, config=config)
    assert report.checkpoint_ts == snapshot.checkpoint.checkpoint_ts
    assert engine.redo_log.generation == 3
    assert logged_writes(engine, 20, first_key=1) == [1] * 20
    again, report = restart_masm(table, ssd_vol, wal, config=config)
    assert report.buffer_updates_replayed == 20


def test_crash_recovery_after_truncation_is_byte_identical():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(40):
        masm.modify(i * 2, {"payload": f"a{i}"})
    masm.flush_buffer()
    masm.checkpoint_and_truncate()
    for i in range(20):
        masm.modify(i * 2 + 400, {"payload": f"b{i}"})
    expected = scan_dict(masm)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.checkpoint_ts > 0
    assert report.unrecoverable_gaps == 0
    assert scan_dict(recovered) == expected
    # The recovered engine knows the fence and can checkpoint again.
    assert recovered.last_checkpoint_ts == report.checkpoint_ts
    recovered.flush_buffer()
    assert recovered.checkpoint_and_truncate() is not None


def test_recovery_after_truncation_restores_covered_spans():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(40):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    spans = [(r.covered_min_ts, r.covered_max_ts) for r in masm.runs]
    masm.checkpoint_and_truncate()
    recovered, _ = crash_and_recover(masm, table, ssd_vol, log, config)
    # The UPDATE records inside the runs' spans are gone from the log; the
    # checkpoint manifest is what restores the raw covered spans.
    assert [
        (r.covered_min_ts, r.covered_max_ts) for r in recovered.runs
    ] == spans


def test_truncated_gap_is_reported_unrecoverable():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(40):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    run_name = masm.runs[0].file.name
    masm.checkpoint_and_truncate()
    # Lose the run AFTER its updates were compacted out of the WAL: the
    # gap rebuild has nothing to replay from.
    ssd_vol.delete(run_name)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.unrecoverable_gaps >= 1


def test_migration_advances_the_fence():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(30):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    migrate_all(masm)
    assert masm.migrated_through > 0
    cp, _ = masm.checkpoint_and_truncate()
    assert cp.migrated_ts == masm.migrated_through


# ------------------------------------------------------------ scrub repair
def test_scrub_repair_rebuilds_run_from_log():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(30):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    expected = scan_dict(masm)
    corrupt_run(masm)
    report = masm.scrub(repair=True)
    assert report.repaired and not report.quarantined
    assert not masm.runs[0].quarantined
    assert masm.stats.runs_repaired == 1
    assert scan_dict(masm) == expected
    # Repaired means re-verifiable, not just swapped in.
    assert masm.scrub().clean


def test_scrub_repair_without_log_coverage_stays_quarantined():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(30):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    masm.checkpoint_and_truncate()  # log no longer covers the run's span
    corrupt_run(masm)
    report = masm.scrub(repair=True)
    assert report.quarantined and not report.repaired


def test_peer_repair_rebuilds_run_by_span():
    # Two engines fed the same stream, flushed at DIFFERENT points, so
    # their run layouts (and names) diverge — repair must go by span.
    masm_a, *rest_a = build_system()
    masm_b, *rest_b = build_system()
    for i in range(30):
        update = UpdateRecord(
            i + 1, i * 2, UpdateType.MODIFY, {"payload": f"v{i}"}
        )
        masm_a.apply(update)
        masm_b.apply(update)
        if i == 9:
            masm_a.flush_buffer()
        if i == 19:
            masm_b.flush_buffer()
    masm_a.flush_buffer()
    masm_b.flush_buffer()
    expected = scan_dict(masm_a)
    assert scan_dict(masm_b) == expected
    # Make the log useless for repair, then damage a run.
    damaged = corrupt_run(masm_a)
    masm_a.redo_log.truncated_through = damaged.covered_max_ts
    report = masm_a.scrub(repair=True)
    assert damaged.name in report.quarantined
    assert masm_a.repair_run_from_peer(damaged.name, masm_b)
    assert masm_a.stats.peer_repairs == 1
    assert scan_dict(masm_a) == expected
    assert masm_a.scrub().clean


# --------------------------------------------------------------- snapshots
def install(snapshot, config):
    """Lay ``snapshot`` down on a fresh node and restart an engine there."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    target = Table.create(disk_vol, "t", SCHEMA, 1000)
    wal = lay_down_snapshot(snapshot, target, ssd_vol, "masm-t", "redo-log")
    return restart_masm(target, ssd_vol, wal, config=config)


def test_snapshot_export_install_roundtrip():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(40):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    for i in range(5):
        masm.modify(i * 2 + 100, {"payload": f"late{i}"})
    snapshot = masm.export_snapshot()
    assert snapshot.checkpoint.checkpoint_ts == masm.flushed_through

    installed, report = install(snapshot, config)
    # The install carries everything at or below the fence; the 5 late
    # buffered updates are exactly what catch-up would replay.
    late = {i * 2 + 100 for i in range(5)}
    expected = {
        k: v for k, v in scan_dict(masm).items() if k not in late
    }
    assert {
        k: v for k, v in scan_dict(installed).items() if k not in late
    } == expected
    assert report.checkpoint_ts == snapshot.checkpoint.checkpoint_ts
    assert installed.flushed_through == snapshot.checkpoint.checkpoint_ts
    assert installed.redo_log.truncated_through == report.checkpoint_ts
    # Run metadata survives translation: covered spans intact.
    assert sorted(
        (r.covered_min_ts, r.covered_max_ts) for r in installed.runs
    ) == sorted((r.covered_min_ts, r.covered_max_ts) for r in masm.runs)


def test_snapshot_install_verifies_crcs():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(20):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    snapshot = masm.export_snapshot()
    tampered = dataclasses.replace(
        snapshot, heap_payload=b"\x00" * len(snapshot.heap_payload)
    )
    with pytest.raises(ChecksumError):
        install(tampered, config)


def test_snapshot_export_refused_with_quarantined_run():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(20):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    corrupt_run(masm)
    masm.scrub()
    with pytest.raises(StorageError):
        masm.export_snapshot()
