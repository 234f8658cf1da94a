"""Failure injection: crashes at the worst moments, recovered via the log.

Unlike test_recovery.py's constructed scenarios, these tests produce real
torn states — a migration abandoned after it already rewrote part of the
heap — and verify that log-driven redo plus page-timestamp idempotence
restore a consistent, fresh view.
"""

import os
import random

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import CoordinatedMigration
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def build(n=1500):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2, ssd_page_size=8 * KB, block_size=4 * KB, auto_migrate=False
    )
    log = RedoLog(ssd_vol.create("wal", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    return masm, table, ssd_vol, log, config


def workload(masm, shadow, steps, seed):
    rng = random.Random(seed)
    for step in range(steps):
        roll = rng.random()
        if roll < 0.3:
            key = rng.randrange(3000) * 2 + 1
            if key in shadow:
                continue
            masm.insert((key, f"i{step}"))
            shadow[key] = (key, f"i{step}")
        elif roll < 0.55 and shadow:
            key = rng.choice(sorted(shadow))
            masm.delete(key)
            del shadow[key]
        elif shadow:
            key = rng.choice(sorted(shadow))
            masm.modify(key, {"payload": f"m{step}"})
            shadow[key] = (key, f"m{step}")


def crash_recover(table, ssd_vol, log, config):
    return restart_masm(table, ssd_vol, log.file, config=config)


@pytest.mark.parametrize("consume_fraction", [0.0, 0.3, 0.9])
def test_crash_mid_coordinated_migration(consume_fraction):
    """Abandon a logged migration after it rewrote part of the heap."""
    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 500, seed=11)

    combined = CoordinatedMigration(masm, redo_log=log)
    iterator = iter(combined)
    to_consume = int(len(shadow) * consume_fraction)
    for _ in range(to_consume):
        next(iterator)
    del iterator  # the crash: migration never completes
    assert combined.stats is None

    recovered, report = crash_recover(table, ssd_vol, log, config)
    if to_consume > 0:
        # The migration had logged its START (and rewrote part of the
        # heap): recovery must redo it.
        assert report.migrations_redone == 1
    else:
        # The generator never started: nothing was logged or written.
        assert report.migrations_redone == 0
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow
    if to_consume > 0:
        # The redo completed the migration: everything is in the main data.
        table_view = {
            SCHEMA.key(r): r
            for r in recovered.table.range_scan(*recovered.table.full_key_range())
        }
        assert table_view == shadow


def test_crash_between_flushes_loses_nothing():
    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 900, seed=13)  # spans several buffer flushes
    recovered, report = crash_recover(table, ssd_vol, log, config)
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow


def test_double_crash_during_redo():
    """Crash, recover (which redoes the migration), crash again, recover."""
    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 400, seed=17)
    combined = CoordinatedMigration(masm, redo_log=log)
    iterator = iter(combined)
    for _ in range(200):
        next(iterator)
    del iterator

    recovered, _ = crash_recover(table, ssd_vol, log, config)
    # Second crash immediately after recovery (its redo migration logged a
    # fresh START/END pair, so the log stays consistent).
    recovered2, _ = crash_recover(recovered.table, ssd_vol, log, config)
    got = {SCHEMA.key(r): r for r in recovered2.range_scan(0, 2**62)}
    assert got == shadow


@pytest.mark.parametrize("emit_count", [1, 18, 44])
def test_plan_driven_crash_mid_migration(emit_count):
    """The same torn-migration scenario, but the crash comes from a fault
    plan's named crash point instead of abandoning the iterator by hand.

    ``migration.emit`` fires once per output page (46 here, all carried by
    the one final chunk write), so the occurrences die with the update runs
    read to different depths and the heap not yet written."""
    from repro.errors import SimulatedCrash
    from repro.storage.faults import FaultPlan, use_fault_plan

    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 500, seed=11)

    plan = FaultPlan(seed=11).crash_at("migration.emit", occurrence=emit_count)
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            for _ in CoordinatedMigration(masm, redo_log=log):
                pass

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.migrations_redone == 1
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow


def grow(masm, shadow, steps, seed):
    """Inserts only, at odd keys below 1,200 (between the even base keys)."""
    rng = random.Random(seed)
    for step in range(steps):
        key = rng.randrange(600) * 2 + 1
        if key not in shadow:
            masm.insert((key, f"i{step}"))
            shadow[key] = (key, f"i{step}")


def shrink(masm, shadow, steps, seed):
    """Deletes only."""
    rng = random.Random(seed)
    for _ in range(steps):
        key = rng.choice(sorted(shadow))
        masm.delete(key)
        del shadow[key]


MULTI_CHUNK_STREAMS = {
    "mixed": (lambda masm, shadow: workload(masm, shadow, 500, seed=11), (10, 18, 30, 44)),
    "grow": (lambda masm, shadow: grow(masm, shadow, 400, seed=3), (5, 21, 33)),
    "shrink": (lambda masm, shadow: shrink(masm, shadow, 500, seed=5), (5, 21)),
}


@pytest.mark.xfail(
    strict=True,
    raises=(AssertionError, ValueError),
    reason="a full migration over a heap of several I/O chunks is not restartable "
    "once its first chunk is written (ROADMAP, chunk-grain migration item)",
)
@pytest.mark.parametrize(
    "stream, occurrence",
    [(name, n) for name, (_, ns) in MULTI_CHUNK_STREAMS.items() for n in ns],
)
def test_multi_chunk_migration_crash_recovers(stream, occurrence):
    """A crash at a ``migration.emit`` past the first chunk write of a
    16 KB-chunk heap.  Pinned failures: the mixed stream brings a deleted
    row back or raises from the index rebuild, pure growth loses base rows
    whose input pages an output chunk overwrote while they were only in
    memory, and the shrink stream raises from the index rebuild."""
    from repro.errors import SimulatedCrash
    from repro.storage.faults import FaultPlan, use_fault_plan

    masm, table, ssd_vol, log, config = build()
    table.heap.io_chunk = 16 * KB
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    MULTI_CHUNK_STREAMS[stream][0](masm, shadow)

    plan = FaultPlan(seed=11).crash_at("migration.emit", occurrence=occurrence)
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            for _ in CoordinatedMigration(masm, redo_log=log):
                pass

    recovered, _ = crash_recover(table, ssd_vol, log, config)
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow


def test_plan_driven_crash_between_run_write_and_log():
    """Crash exactly between the run write and its RUN_FLUSH record: the
    orphan run must be discarded or its updates would apply twice."""
    from repro.errors import SimulatedCrash
    from repro.storage.faults import FaultPlan, use_fault_plan

    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 400, seed=29)

    plan = FaultPlan(seed=29).crash_at("masm.flush.run_written")
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            masm.flush_buffer()

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.orphan_runs_discarded == 1
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow


FAULT_SEED = int(os.environ.get("MASM_FAULT_SEED", "11"))

#: ``migration.emit`` occurrences of the paced sweep below: one per page a
#: slice reads; the last is the tail page, which the slice splits.
PACED_SWEEP_EMITS = 83


def paced_system():
    """A governed engine with 500 admitted updates in runs, over half-full
    pages (extent slack lets in-place slices absorb inserts)."""
    from repro.core.governor import GovernorConfig, OverloadPolicy

    n = 1500
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n, slack=2.0)
    table.bulk_load(((i * 2, f"rec-{i}") for i in range(n)), fill_factor=0.5)
    config = MaSMConfig(
        alpha=1.2,
        ssd_page_size=8 * KB,
        block_size=4 * KB,
        auto_migrate=False,
        governor=GovernorConfig(
            overload_policy=OverloadPolicy.DELAY,
            admit_rate=None,  # unmetered: every update below is admitted
            migrate_on_apply=False,  # the test drives the slices by hand
        ),
    )
    log = RedoLog(ssd_vol.create("wal", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(n)}
    workload(masm, shadow, 500, seed=31)
    masm.flush_buffer()
    assert masm.runs
    return masm, table, ssd_vol, log, config, shadow


def paced_sweep(masm) -> None:
    while masm.runs:
        masm.governor.migrate_step(min_fraction=0.25)


def test_the_paced_sweep_ends_with_a_tail_split():
    """The crash sweep below covers every page the sweep reads; its last
    page is the tail, split into appended pages."""
    from repro.storage.faults import FaultPlan, use_fault_plan

    masm, table, *_ = paced_system()
    pages_before = table.heap.num_pages
    plan = FaultPlan(seed=FAULT_SEED).crash_at("migration.emit", occurrence=10**9)
    grew_at = []
    with use_fault_plan(plan):
        while masm.runs:
            pages = table.heap.num_pages
            masm.governor.migrate_step(min_fraction=0.25)
            if table.heap.num_pages > pages:
                grew_at.append(plan._crash_hits["migration.emit"])
    assert plan._crash_hits["migration.emit"] == PACED_SWEEP_EMITS
    assert grew_at == [PACED_SWEEP_EMITS]
    assert table.heap.num_pages > pages_before


@pytest.mark.faults
@pytest.mark.parametrize("occurrence", range(1, PACED_SWEEP_EMITS + 1))
def test_paced_migration_crash_recovers_admitted_updates(occurrence):
    """A governed paced slice killed at the ``migration.emit`` crash point —
    at every page of the sweep, the tail split included — recovers like any
    torn migration: the open MIGRATION_START is redone idempotently, so no
    admitted update is lost and none applies twice."""
    from repro.errors import SimulatedCrash
    from repro.storage.faults import FaultPlan, use_fault_plan

    masm, table, ssd_vol, log, config, shadow = paced_system()
    plan = FaultPlan(seed=FAULT_SEED).crash_at("migration.emit", occurrence=occurrence)
    with use_fault_plan(plan):
        with pytest.raises(SimulatedCrash):
            paced_sweep(masm)
            raise AssertionError("sweep finished without hitting the crash point")

    recovered, report = crash_recover(table, ssd_vol, log, config)
    assert report.migrations_redone == 1
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow
    # The redo completed the torn slice as a full migration: the main data
    # alone must now equal the shadow (double-applies would corrupt it).
    table_view = {
        SCHEMA.key(r): r
        for r in recovered.table.range_scan(*recovered.table.full_key_range())
    }
    assert table_view == shadow


def test_updates_after_recovery_continue_cleanly():
    masm, table, ssd_vol, log, config = build()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    workload(masm, shadow, 300, seed=19)
    recovered, _ = crash_recover(table, ssd_vol, log, config)
    # Timestamps continue past everything recovered; updates keep working.
    workload(recovered, shadow, 300, seed=23)
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == shadow
