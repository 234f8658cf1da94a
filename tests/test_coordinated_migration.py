"""Coordinated migration: a query scan and a migration in one pass (§3.5)."""

import random

from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import CoordinatedMigration
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.iosched import OverlapWindow
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def make_masm(n=1500):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2, ssd_page_size=8 * KB, block_size=4 * KB, auto_migrate=False
    )
    return MaSM(table, ssd_vol, config=config)


def apply_workload(masm, shadow, steps=400, seed=3):
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
            key = rng.choice(list(shadow))
            masm.delete(key)
            del shadow[key]
        elif shadow:
            key = rng.choice(list(shadow))
            masm.modify(key, {"payload": f"m{step}"})
            shadow[key] = (key, f"m{step}")


def test_yields_fresh_records_and_migrates():
    masm = make_masm()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
    apply_workload(masm, shadow)
    combined = CoordinatedMigration(masm)
    got = {SCHEMA.key(r): r for r in combined}
    # The combined pass returned the same fresh view a range scan would.
    assert got == shadow
    # ... and the migration completed: cache empty, main data fresh.
    assert masm.runs == ()
    assert combined.stats is not None
    assert combined.stats.runs_retired >= 1
    table_view = {
        SCHEMA.key(r): r
        for r in masm.table.range_scan(*masm.table.full_key_range())
    }
    assert table_view == shadow


def test_includes_buffered_updates():
    masm = make_masm(500)
    masm.modify(40, {"payload": "buffered"})  # never flushed explicitly
    got = {SCHEMA.key(r): r for r in CoordinatedMigration(masm)}
    assert got[40] == (40, "buffered")
    assert masm.table.get(40) == (40, "buffered")


def test_no_cached_updates_degrades_to_plain_scan():
    masm = make_masm(300)
    combined = CoordinatedMigration(masm)
    got = list(combined)
    assert len(got) == 300
    assert combined.stats is None  # nothing migrated
    assert masm.stats.migrations == 0


def test_saves_a_table_scan_versus_separate_operations():
    """The point of the optimization: one pass instead of two."""

    def disk_time(combined: bool) -> float:
        masm = make_masm()
        shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1500)}
        apply_workload(masm, shadow)
        disk = masm.table.heap.file.device
        window = OverlapWindow({"disk": disk})
        with window:
            if combined:
                for _ in CoordinatedMigration(masm):
                    pass
            else:
                for _ in masm.range_scan(*masm.table.full_key_range()):
                    pass
                masm.flush_buffer()
                masm.migrate()
        return window.elapsed

    assert disk_time(combined=True) < disk_time(combined=False) * 0.75


def test_migration_idempotence_preserved():
    masm = make_masm(500)
    masm.modify(40, {"payload": "v1"})
    list(CoordinatedMigration(masm))
    masm.modify(40, {"payload": "v2"})
    list(CoordinatedMigration(masm))
    assert masm.table.get(40) == (40, "v2")
