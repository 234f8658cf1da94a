"""In-place migration: full-table repack and partial page-level migration."""

import random

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import migrate_all, migrate_range
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def make_masm(n_records=2000, ssd_capacity=8 * MB, capacity_records=None):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=ssd_capacity))
    table = Table.create(disk_vol, "t", SCHEMA, capacity_records or n_records)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n_records))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    return MaSM(table, ssd_vol, config=config)


def scan_dict(masm, begin=0, end=2**62):
    return {SCHEMA.key(r): r for r in masm.range_scan(begin, end)}


def table_dict(table):
    return {SCHEMA.key(r): r for r in table.range_scan(*table.full_key_range())}


def apply_workload(masm, shadow, steps=500, seed=1):
    rng = random.Random(seed)
    for step in range(steps):
        action = rng.random()
        if action < 0.3:
            key = rng.randrange(0, 4000) * 2 + 1
            if key in shadow:
                continue
            masm.insert((key, f"ins-{step}"))
            shadow[key] = (key, f"ins-{step}")
        elif action < 0.55 and shadow:
            key = rng.choice(list(shadow))
            masm.delete(key)
            del shadow[key]
        elif shadow:
            key = rng.choice(list(shadow))
            masm.modify(key, {"payload": f"mod-{step}"})
            shadow[key] = (key, f"mod-{step}")


def test_full_migration_moves_updates_into_table():
    masm = make_masm()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(2000)}
    apply_workload(masm, shadow)
    masm.flush_buffer()
    stats = migrate_all(masm)
    assert stats is not None
    # Updates are now IN the main data: the raw table matches the shadow.
    assert table_dict(masm.table) == shadow
    # The cache is empty and the scan still agrees.
    assert masm.runs == ()
    assert scan_dict(masm) == shadow
    assert masm.table.row_count == len(shadow)


def test_migration_without_runs_is_noop():
    masm = make_masm()
    assert migrate_all(masm) is None


def test_migration_is_in_place():
    """The heap file is rewritten in its own extent (no second copy)."""
    masm = make_masm()
    heap_file = masm.table.heap.file
    offset_before, size_before = heap_file.offset, heap_file.size
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(2000)}
    apply_workload(masm, shadow)
    masm.flush_buffer()
    migrate_all(masm)
    assert masm.table.heap.file is heap_file
    assert (heap_file.offset, heap_file.size) == (offset_before, size_before)
    assert table_dict(masm.table) == shadow


def test_migration_uses_sequential_io():
    masm = make_masm()
    disk = masm.table.heap.file.device
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(2000)}
    apply_workload(masm, shadow)
    masm.flush_buffer()
    before = disk.snapshot()
    migrate_all(masm)
    delta = disk.stats.delta(before)
    # Large chunked I/Os: operation count far below page count.
    assert delta.reads + delta.writes < masm.table.num_pages


def test_migration_sets_page_timestamps():
    masm = make_masm()
    ts = masm.modify(40, {"payload": "x"})
    masm.flush_buffer()
    migrate_all(masm)
    page_no = masm.table.index.locate_page(40)
    assert masm.table.heap.read_page(page_no).timestamp >= ts


def test_post_migration_updates_still_work():
    masm = make_masm()
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(2000)}
    apply_workload(masm, shadow, steps=300, seed=2)
    masm.flush_buffer()
    migrate_all(masm)
    apply_workload(masm, shadow, steps=300, seed=3)
    assert scan_dict(masm) == shadow


def test_stale_updates_not_reapplied_after_migration():
    """A second migration of an overlapping chain must be idempotent."""
    masm = make_masm()
    masm.modify(40, {"payload": "first"})
    masm.flush_buffer()
    migrate_all(masm)
    masm.modify(40, {"payload": "second"})
    masm.flush_buffer()
    migrate_all(masm)
    assert table_dict(masm.table)[40] == (40, "second")


def test_migration_with_heavy_inserts_grows_pages():
    masm = make_masm(n_records=1000, capacity_records=2500)
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(1000)}
    for i in range(900):
        key = i * 2 + 1
        masm.insert((key, f"bulk-{i}"))
        shadow[key] = (key, f"bulk-{i}")
    masm.flush_buffer()
    pages_before = masm.table.num_pages
    migrate_all(masm)
    assert masm.table.num_pages > pages_before
    assert table_dict(masm.table) == shadow


def test_migration_with_heavy_deletes_shrinks_pages():
    masm = make_masm(n_records=2000)
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(2000)}
    for i in range(0, 1500):
        masm.delete(i * 2)
        del shadow[i * 2]
    masm.flush_buffer()
    pages_before = masm.table.num_pages
    migrate_all(masm)
    assert masm.table.num_pages < pages_before
    assert table_dict(masm.table) == shadow


def test_scan_concurrent_with_migration_retirement():
    """A scan started before migration still reads retired runs (graveyard)."""
    masm = make_masm()
    masm.modify(40, {"payload": "cached"})
    masm.flush_buffer()
    scan = masm.range_scan(30, 50)
    first = next(scan)
    migrate_all(masm)
    rest = {SCHEMA.key(r): r for r in scan}
    merged = {SCHEMA.key(first): first, **rest}
    assert merged[40] == (40, "cached")
    # Once the scan closed, the graveyard is emptied.
    assert masm._graveyard == []


# ----------------------------------------------------------------- partial
def test_partial_migration_applies_only_range():
    masm = make_masm()
    masm.modify(100, {"payload": "low"})
    masm.modify(3000, {"payload": "high"})
    masm.flush_buffer()
    stats = migrate_range(masm, 0, 1000)
    assert stats is not None
    assert table_dict(masm.table)[100] == (100, "low")
    assert table_dict(masm.table)[3000] == (3000, "rec-1500")  # untouched
    # The full view still sees the unmigrated update.
    assert scan_dict(masm)[3000] == (3000, "high")
    # The run survives (it still holds the high-key update).
    assert len(masm.runs) == 1


def test_partial_migration_retires_fully_covered_runs():
    masm = make_masm()
    masm.modify(100, {"payload": "a"})
    masm.modify(200, {"payload": "b"})
    masm.flush_buffer()
    migrate_range(masm, 0, 1000)
    assert masm.runs == ()


def test_partial_migration_is_idempotent():
    masm = make_masm()
    masm.modify(100, {"payload": "once"})
    masm.flush_buffer()
    migrate_range(masm, 0, 150)
    # Another overlapping partial migration with fresh updates.
    masm.modify(102, {"payload": "twice"})
    masm.flush_buffer()
    migrate_range(masm, 0, 150)
    t = table_dict(masm.table)
    assert t[100] == (100, "once")
    assert t[102] == (102, "twice")


def test_partial_migration_defers_unfitting_inserts():
    masm = make_masm(n_records=1000)
    # Cram inserts into one page's key range until they cannot fit.
    keys = [k for k in range(101, 161, 2)]
    for k in keys:
        masm.insert((k, "squeeze"))
    masm.flush_buffer()
    stats = migrate_range(masm, 100, 160)
    assert stats is not None
    # The keys fall on two pages, each holding 33 bulk-loaded rows of the 37
    # that fit: both pages are deferred whole.
    assert stats.inserts_deferred == len(keys)
    assert stats.pages_written == 0
    view = scan_dict(masm, 100, 160)
    for k in keys:
        assert view[k] == (k, "squeeze")
    # Deferred inserts stay cached: the run is not fully migrated.
    assert len(masm.runs) == 1


def test_partial_migration_does_not_leak_slots_to_deletes():
    """A page keeps its capacity under churn: each round deletes its largest
    key and inserts a smaller one (so the insert comes first in key order),
    then migrates the page.  Editing the page slot by slot left one
    tombstoned slot entry per round and deferred the insert of round 51."""
    masm = make_masm(n_records=1000)
    entries = masm.table.index.entries()
    lo, hi = entries[1][0], entries[2][0] - 1
    live = [key for key in range(lo, hi + 1, 2)]
    free = [key for key in range(lo + 1, hi, 2)]
    assert len(live) == 33
    for round_ in range(64):
        victim = live.pop()
        free.sort()
        key = free.pop(0)
        free.append(victim)
        masm.delete(victim)
        masm.insert((key, f"round-{round_}"))
        live = sorted([*live, key])
        masm.flush_buffer()
        stats = migrate_range(masm, lo, hi)
        assert stats.inserts_deferred == 0, f"round {round_}"
        assert stats.pages_written == 1
        assert masm.runs == ()
        assert masm.table.heap.read_page(1).live_count == 33
    assert masm.table.heap.read_page(1).slot_count == 33
    assert sorted(table_dict(masm.table))[lo // 2 : lo // 2 + 33] == live


def test_a_deferred_first_page_keeps_the_keys_below_its_first_key():
    """Page 0 also owns the keys below its first key: when it is deferred,
    those updates stay cached instead of being marked migrated."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 1000)
    table.bulk_load((1000 + i * 2, f"rec-{i}") for i in range(1000))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    masm = MaSM(table, ssd_vol, config=config)
    low = list(range(1, 21, 2))
    for key in low:
        masm.insert((key, "low"))
    masm.flush_buffer()
    stats = migrate_range(masm, 0, 999)
    assert stats.inserts_deferred == len(low)
    assert len(masm.runs) == 1
    view = scan_dict(masm)
    assert all(view[key] == (key, "low") for key in low)


def test_a_page_fills_to_its_physical_capacity_in_place():
    """A page takes rows up to ``(page_size - header) // (record + slot)``
    — 97 rows of 34 bytes in a 4 KB page (the page's whole room, not the
    fill budget) — and defers the page whole at one more."""
    schema = synthetic_schema(34)
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", schema, 1000)
    table.bulk_load((i * 4, "x") for i in range(1000))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    masm = MaSM(table, ssd_vol, config=config)
    entries = table.index.entries()
    lo, hi = entries[1][0], entries[2][0] - 1
    rows = len(range(lo, hi + 1, 4))
    keys = [key for key in range(lo + 1, hi + 1) if key % 4][: 97 - rows + 1]
    for key in keys[:-1]:
        masm.insert((key, "fill"))
    masm.flush_buffer()
    stats = migrate_range(masm, lo, hi)
    assert (stats.inserts_deferred, stats.pages_written) == (0, 1)
    assert table.heap.read_page(1).live_count == 97
    masm.insert((keys[-1], "one more"))
    masm.flush_buffer()
    stats = migrate_range(masm, lo, hi)
    assert (stats.inserts_deferred, stats.pages_written) == (1, 0)
    assert {schema.key(r) for r in masm.range_scan(lo, hi)} >= set(keys)
