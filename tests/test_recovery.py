"""Crash recovery: runs reloaded, buffer replayed, migrations redone."""

import pytest

from repro.core.manifest import MigrationStarted, RunsMerged
from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import migrate_all
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.heapfile import page_records
from repro.engine.table import Table
from repro.sim.model import ModelTable
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import LogRecordType, RedoLog
from repro.txn.recovery import rebuild_table_index, restart_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def build_system(n=1000):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    log = RedoLog(ssd_vol.create("redo-log", 2 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    return masm, table, ssd_vol, log, config


def crash_and_recover(masm, table, ssd_vol, log, config):
    """Simulate losing all volatile state, then run recovery.

    The devices (disk, SSD, log file) survive; a fresh Table object wraps
    the surviving heap file with an empty (lost) sparse index.
    """
    return restart_masm(table, ssd_vol, log.file, config=config)


def scan_dict(masm):
    return {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}


def test_recover_buffer_only():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "fresh"})
    masm.delete(42)
    expected = scan_dict(masm)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.buffer_updates_replayed == 2
    assert report.runs_reloaded == 0
    assert scan_dict(recovered) == expected


def test_recover_runs_and_buffer():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "in-run"})
    masm.flush_buffer()
    masm.modify(44, {"payload": "in-buffer"})
    expected = scan_dict(masm)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.runs_reloaded == 1
    assert report.buffer_updates_replayed == 1
    assert scan_dict(recovered) == expected
    d = scan_dict(recovered)
    assert d[40] == (40, "in-run")
    assert d[44] == (44, "in-buffer")


def test_flushed_updates_not_replayed_twice():
    masm, table, ssd_vol, log, config = build_system()
    for i in range(20):
        masm.modify(i * 2, {"payload": f"v{i}"})
    masm.flush_buffer()
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.buffer_updates_replayed == 0
    assert recovered.buffer.count == 0
    assert recovered.runs[0].count == 20


def test_recovery_advances_oracle():
    masm, table, ssd_vol, log, config = build_system()
    ts = masm.modify(40, {"payload": "x"})
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.max_timestamp_seen >= ts
    assert recovered.oracle.next() > ts


def test_completed_migration_leftover_runs_deleted():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "migrated"})
    run = masm.flush_buffer()
    run_name = run.name
    migrate_all(masm, redo_log=log)
    # Simulate crashing between the END record and the file deletion by
    # recreating the run file.
    codec = UpdateCodec(SCHEMA)
    if run_name not in ssd_vol:
        from repro.core.sortedrun import write_run
        from repro.core.update import UpdateRecord, UpdateType

        write_run(
            ssd_vol,
            run_name,
            codec.encode_columns([UpdateRecord(2, 40, UpdateType.MODIFY, {"payload": "migrated"})]),
            codec,
            block_size=4 * KB,
        )
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.leftover_runs_deleted == 1
    assert recovered.runs == ()
    assert scan_dict(recovered)[40] == (40, "migrated")


def test_interrupted_migration_redone():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "mid-flight"})
    masm.flush_buffer()
    # Write only the START record (the crash hit mid-migration).
    log.log_edit("t", MigrationStarted(masm.oracle.next()))
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.migrations_redone == 1
    assert recovered.runs == ()  # migration completed during recovery
    # The update is now in the main data.
    assert {SCHEMA.key(r): r for r in recovered.table.range_scan(38, 42)}[40] == (
        40,
        "mid-flight",
    )


def test_migration_redo_is_idempotent_when_partially_applied():
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "applied"})
    masm.flush_buffer()
    t = masm.oracle.next()
    log.log_edit("t", MigrationStarted(t))
    # Apply the update in place (simulating the migration partially done),
    # stamping the page with the update's timestamp.
    table.modify_in_place(40, {"payload": "applied"}, timestamp=2)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.migrations_redone == 1
    assert scan_dict(recovered)[40] == (40, "applied")


def test_rebuild_table_index():
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 2000)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(2000))
    entries_before = table.index.entries()
    rows_before = table.row_count
    table.index.rebuild([])  # lose it
    table.row_count = 0
    rebuild_table_index(table)
    assert table.row_count == rows_before
    assert table.index.entries() == entries_before
    assert table.get(40) == (40, "rec-20")


def test_rebuild_table_index_over_tombstones_and_zeroed_tail():
    """Uniform pages, one page updated in place (tombstone, appended slot,
    so it fails the chunk decoder's vectorised check) and unformatted space
    behind the data: the rebuilt index and row count are what a page-by-page
    read of the heap gives, and the scan stops at the first zeroed page."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 2000)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(2000))
    data_pages = table.heap.num_pages
    assert data_pages < table.heap.capacity_pages
    first_key_of_page_3 = table.index.entries()[3][0]
    table.delete_in_place(first_key_of_page_3)
    table.insert_in_place((first_key_of_page_3 + 1, "in-place"))
    assert table.overflow_count == 0
    expected_entries = []
    expected_rows = 0
    for page_no, page in table.heap.scan_pages():
        records = page_records(page, SCHEMA)
        expected_entries.append((records[0][0], page_no))
        expected_rows += len(records)
    assert table.heap.read_page(3).live_count < table.heap.read_page(3).slot_count

    crashed = Table(table.name, SCHEMA, table.heap)
    crashed.heap.num_pages = table.heap.capacity_pages  # length unknown
    rebuild_table_index(crashed)
    assert crashed.heap.num_pages == data_pages
    assert crashed.row_count == expected_rows == 2000
    assert crashed.index.entries() == expected_entries
    assert crashed.index.entries()[3][0] == first_key_of_page_3 + 1
    assert crashed.get(first_key_of_page_3 + 1) == (first_key_of_page_3 + 1, "in-place")
    assert list(crashed.range_scan(0, 2**62)) == list(table.range_scan(0, 2**62))


def test_partial_migration_slice_keeps_run_on_recovery():
    """A governed slice's completed MIGRATION record names runs it only
    partially migrated; recovery must keep them (found by repro.sim)."""
    from repro.core.migration import migrate_range

    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "low-key"})
    masm.modify(1800, {"payload": "high-key"})
    masm.flush_buffer()
    expected = scan_dict(masm)
    # Migrate only the low half: the run keeps the key-1800 update cached.
    migrate_range(masm, 0, 900, redo_log=log)
    assert masm.runs, "run should survive a partial slice"

    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.leftover_runs_deleted == 0
    assert report.runs_reloaded == 1
    d = scan_dict(recovered)
    assert d == expected
    assert d[40] == (40, "low-key")
    assert d[1800] == (1800, "high-key")
    # The reloaded run remembers which half was already applied in place.
    assert recovered.runs[0].migrated_ranges


def test_cumulative_slices_retire_run_on_recovery():
    """Slices that cumulatively cover a run's whole key span let recovery
    delete the leftover file, mirroring the engine's retirement rule."""
    from repro.core.migration import migrate_range

    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "a"})
    masm.modify(1800, {"payload": "b"})
    masm.flush_buffer()
    expected = scan_dict(masm)
    run = masm.runs[0]
    run_name = run.name
    run_file = ssd_vol.open(run_name)
    run_bytes = run_file.read(0, run_file.size)
    run_size = run_file.size
    migrate_range(masm, 0, 900, redo_log=log)
    migrate_range(masm, 901, 2**62, redo_log=log)
    assert not masm.runs, "both slices together retire the run"
    # Crash inside the pre-deletion window: END records logged, file still
    # on the SSD.  Recovery must recognize the cumulative coverage and
    # delete the leftover instead of resurrecting the run.
    assert run_name not in ssd_vol
    stale = ssd_vol.create(run_name, run_size)
    stale.write(0, run_bytes)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.leftover_runs_deleted == 1
    assert report.runs_reloaded == 0
    assert run_name not in ssd_vol
    assert scan_dict(recovered) == expected


def test_merge_victims_discarded_on_recovery():
    """Victims of a committed merge must not be resurrected by recovery.

    An active scan makes the merge park its victims in the graveyard, so
    their files survive the crash alongside the product; reloading both
    would serve every merged update twice (a duplicate-INSERT conflict in
    the combine chain).  The RUN_MERGE record condemns them.
    """
    masm, table, ssd_vol, log, config = build_system()
    masm.insert((41, "fresh row"))
    masm.modify(40, {"payload": "early"})
    masm.flush_buffer()
    masm.modify(40, {"payload": "late"})
    masm.delete(44)
    masm.flush_buffer()
    victims = [r.name for r in masm.runs]
    assert len(victims) == 2
    expected = scan_dict(masm)

    stream = iter(masm.range_scan(0, 2**62))
    next(stream)  # scan registered: the merge must graveyard its victims
    merged = masm._merge_earliest_runs(2)
    for name in victims:
        assert name in ssd_vol, "victim files parked for the scan"

    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.merge_victims_discarded == 2
    assert report.runs_reloaded == 1
    assert [r.name for r in recovered.runs] == [merged.name]
    for name in victims:
        assert name not in ssd_vol
    d = scan_dict(recovered)
    assert d == expected
    assert d[41] == (41, "fresh row")


def test_uncommitted_merge_keeps_victims_on_recovery():
    """A RUN_MERGE record without an intact product condemns nothing.

    The crash hit between the log append and the product write: the
    victims are still the authoritative copies, and the logged product
    name must never be reused (a later run under it would make the stale
    record look committed on the next recovery).
    """
    masm, table, ssd_vol, log, config = build_system()
    masm.insert((41, "kept"))
    masm.flush_buffer()
    masm.modify(44, {"payload": "kept too"})
    masm.flush_buffer()
    victims = [r.name for r in masm.runs]
    expected = scan_dict(masm)

    product = f"{masm.name}-run-{masm._run_seq:05d}"
    covered = (
        min(r.covered_min_ts for r in masm.runs),
        max(r.covered_max_ts for r in masm.runs),
    )
    log.log_edit("t", RunsMerged(masm.oracle.current, product, tuple(victims), covered))

    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.merge_victims_discarded == 0
    assert sorted(r.name for r in recovered.runs) == sorted(victims)
    assert scan_dict(recovered) == expected
    recovered.modify(46, {"payload": "post-recovery"})
    recovered.flush_buffer()
    assert product not in ssd_vol, "logged product name must not be reused"


@pytest.mark.parametrize("truncated", [False, True], ids=["logged", "truncated"])
def test_recovery_keeps_every_runs_pass_count(truncated):
    """A merged run comes back with the passes it was written with.

    Passes decide which runs the next merge takes (1-pass runs first), so
    a recovered 2-pass run read back as 1-pass could be merged again as a
    fresh victim and its updates written to the SSD a third time.  The
    RUN_MERGE records prove the counts while they are in the log (one pass
    more than the most-written victim, products of products included);
    after ``checkpoint_and_truncate`` dropped them, the CHECKPOINT's
    manifest carries them.
    """
    masm, table, ssd_vol, log, config = build_system()
    for flush in range(6):
        for i in range(30):
            masm.modify(((flush * 30 + i) * 7 % 1000) * 2, {"payload": f"v{flush}"})
        masm.flush_buffer()
    masm._merge_earliest_runs(3)  # 1 1 1 2
    masm._merge_earliest_runs(2)  # 1 2 2
    masm._merge_earliest_runs(2)  # no two 1-pass runs left: 2 3
    masm.modify(4, {"payload": "last"})
    masm.flush_buffer()
    passes = [(r.name, r.passes) for r in masm.runs]
    assert [p for _, p in passes] == [2, 3, 1]
    expected = scan_dict(masm)
    if truncated:
        assert masm.checkpoint_and_truncate() is not None
        assert not any(
            record.type is LogRecordType.RUN_MERGE for record in log.records()
        )

    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.checkpoint_ts == (masm.flushed_through if truncated else 0)
    assert [(r.name, r.passes) for r in recovered.runs] == passes
    assert scan_dict(recovered) == expected


def test_recovery_after_heap_shrinking_migration():
    """A migration that leaves the heap shorter must not leave its old tail
    pages behind as formatted pages: recovery finds the heap's end by
    scanning to the first unformatted page and would bring their rows back
    (deleted rows resurrected, modified rows reverted)."""
    n = 1000
    masm, table, ssd_vol, log, config = build_system(n)
    model = ModelTable(SCHEMA, ((i * 2, f"rec-{i}") for i in range(n)))

    def apply(utype, key, content):
        update = UpdateRecord(masm.oracle.next(), key, utype, content)
        masm.apply(update)
        model.record(update)

    for i in range(n):  # net delete: two of every three rows go
        if i % 3:
            apply(UpdateType.DELETE, i * 2, None)
    for i in range(900, n, 3):  # survivors that lived on the released tail
        apply(UpdateType.MODIFY, i * 2, {"payload": f"moved-{i}"})
    pages_before = table.heap.num_pages
    masm.flush_buffer()
    masm.migrate()
    assert table.heap.num_pages < pages_before
    expected = model.snapshot(model.last_timestamp)
    assert scan_dict(masm) == expected

    recovered, _ = crash_and_recover(masm, table, ssd_vol, log, config)
    assert recovered.table.heap.num_pages == table.heap.num_pages
    assert scan_dict(recovered) == expected


def test_a_restart_never_reuses_a_logged_run_name():
    """A full migration retired every run, so no run file is left: the
    restart must still not hand out the retired names again, or the next
    recovery deletes the new run as that migration's leftover."""
    masm, table, ssd_vol, log, config = build_system()
    masm.modify(40, {"payload": "migrated"})
    masm.flush_buffer()
    retired = masm.runs[0].name
    masm.migrate()
    restarted, _ = crash_and_recover(masm, table, ssd_vol, log, config)
    restarted.modify(44, {"payload": "flushed after the restart"})
    assert restarted.flush_buffer().name != retired
    expected = scan_dict(restarted)
    recovered, report = crash_and_recover(
        restarted, table, ssd_vol, restarted.redo_log, config
    )
    assert report.leftover_runs_deleted == 0
    assert scan_dict(recovered) == expected


# A range migration that leaves a page untouched (its rows no longer fit)
# keeps that page's updates cached: its logged MigrationEnded carries only
# the spans it applied, so the restart keeps the run that still holds them
# (and a whole-key-space range migration under a scan is no full one).
def _deferring_setup():
    """400 base rows on full pages, then 100 odd-key inserts below key 200
    flushed as one run: a range migration over them defers their pages."""
    masm, table, ssd_vol, log, config = build_system(n=400)
    model = ModelTable(SCHEMA, ((i * 2, f"rec-{i}") for i in range(400)))
    for key in range(1, 200, 2):
        update = UpdateRecord(
            masm.oracle.next(), key, UpdateType.INSERT, (key, f"odd-{key}")
        )
        masm.apply(update)
        model.record(update)
    masm.flush_buffer()
    return masm, table, ssd_vol, log, config, model


def test_deferred_range_migration_survives_a_restart():
    from repro.core.migration import migrate_range

    masm, table, ssd_vol, log, config, model = _deferring_setup()
    migrate_range(masm, 0, 300, redo_log=log)
    expected = model.snapshot(model.last_timestamp)
    assert scan_dict(masm) == expected
    recovered, _ = crash_and_recover(masm, table, ssd_vol, log, config)
    assert len(scan_dict(recovered)) == 500
    assert scan_dict(recovered) == expected


def test_migration_under_an_open_scan_survives_a_restart():
    masm, table, ssd_vol, log, config, model = _deferring_setup()
    scan = masm.range_scan(0, 2**62)  # registered: migrate() takes the range path
    masm.migrate()
    scan.close()
    expected = model.snapshot(model.last_timestamp)
    assert scan_dict(masm) == expected
    recovered, _ = crash_and_recover(masm, table, ssd_vol, log, config)
    assert len(scan_dict(recovered)) == 500
    assert scan_dict(recovered) == expected
