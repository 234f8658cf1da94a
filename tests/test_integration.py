"""End-to-end integration: the whole stack working together.

These tests exercise realistic lifecycles across modules — WAL + MaSM +
scans + migration + crash recovery + transactions — rather than single
units.
"""

import random

from repro.core.masm import MaSM, MaSMConfig
from repro.core.views import ViewCatalog
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter, OverlapWindow
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.txn.snapshot import SnapshotManager
from repro.util.units import KB, MB
from repro.workloads.synthetic import SyntheticUpdateGenerator

SCHEMA = synthetic_schema()


def build_stack(n=2000):
    disk = SimulatedDisk(capacity=256 * MB)
    ssd = SimulatedSSD(capacity=16 * MB)
    cpu = CpuMeter()
    disk_vol = StorageVolume(disk)
    ssd_vol = StorageVolume(ssd)
    table = Table.create(disk_vol, "t", SCHEMA, n, cpu=cpu)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2,
        ssd_page_size=8 * KB,
        block_size=4 * KB,
        cache_bytes=512 * KB,
        auto_migrate=True,
        migration_threshold=0.8,
    )
    log = RedoLog(ssd_vol.create("wal", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config, cpu=cpu)
    masm.attach_log(log)
    return masm, table, disk, ssd, ssd_vol, log, config


def test_full_lifecycle_with_wal_and_auto_migration():
    """Stream enough updates to force flushes and auto-migrations, with
    queries interleaved, WAL on, and a final consistency check.  The keys
    are spread over 4,000 rows: merges fold a key's versions, so a stream
    over fewer keys would leave the cache below the threshold."""
    masm, table, disk, ssd, ssd_vol, log, config = build_stack(4000)
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(4000)}
    gen = SyntheticUpdateGenerator(4000, seed=5, oracle=masm.oracle)
    rng = random.Random(5)
    from repro.core.update import UpdateType

    for step in range(6000):
        update = gen.next_update()
        masm.apply(update)
        if update.type == UpdateType.INSERT:
            shadow[update.key] = tuple(update.content)
        elif update.type == UpdateType.DELETE:
            shadow.pop(update.key, None)
        else:
            shadow[update.key] = SCHEMA.apply_modification(
                shadow[update.key], dict(update.content)
            )
        if step % 1500 == 1499:
            lo = rng.randrange(0, 3000)
            got = {SCHEMA.key(r): r for r in masm.range_scan(lo, lo + 500)}
            expected = {k: v for k, v in shadow.items() if lo <= k <= lo + 500}
            assert got == expected
    assert masm.stats.migrations >= 1  # the workload crossed the threshold
    assert masm.stats.flushes >= 2
    got = {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}
    assert got == shadow
    assert log.records_written > 6000  # updates + flush/migration records


def test_crash_recovery_preserves_the_full_view():
    masm, table, disk, ssd, ssd_vol, log, config = build_stack()
    gen = SyntheticUpdateGenerator(2000, seed=9, oracle=masm.oracle)
    for update in gen.stream(2500):
        masm.apply(update)
    expected = {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}

    # Crash: all volatile state gone; devices and log survive.
    recovered, report = restart_masm(table, ssd_vol, log.file, config=config)
    got = {SCHEMA.key(r): r for r in recovered.range_scan(0, 2**62)}
    assert got == expected
    assert report.runs_reloaded + report.buffer_updates_replayed > 0


def test_snapshot_transactions_over_active_engine():
    masm, *_ = build_stack(500)
    manager = SnapshotManager(masm)
    txn1 = manager.begin()
    masm.modify(40, {"payload": "outside"})  # a non-transactional update
    txn1.modify(100, {"payload": "t1"})
    txn2 = manager.begin()
    txn2.modify(100, {"payload": "t2"})
    txn1.commit()
    import pytest

    from repro.errors import TransactionAborted

    with pytest.raises(TransactionAborted):
        txn2.commit()
    view = {SCHEMA.key(r): r for r in masm.range_scan(0, 200)}
    assert view[100] == (100, "t1")
    assert view[40] == (40, "outside")


def test_views_stay_consistent_through_migration():
    masm, *_ = build_stack(800)
    catalog = ViewCatalog(masm)
    low = catalog.define("low", key_range=(0, 400))
    assert len(list(low.read())) == 201
    masm.delete(0)
    masm.insert((401, "new"))  # odd key inside the range? 401 <= 400 is False
    masm.insert((399, "new"))
    masm.flush_buffer()
    masm.migrate()
    rows = {r[0] for r in low.read()}
    assert 0 not in rows
    assert 399 in rows


def test_query_latency_unaffected_while_updates_stream():
    """The paper's headline, end to end: scans with a busy MaSM cache run
    at (nearly) the no-update speed."""
    masm, table, disk, ssd, *_ = build_stack(3000)
    begin, end = table.full_key_range()
    window = OverlapWindow({"disk": disk, "ssd": ssd})
    with window:
        for _ in table.range_scan(begin, end):
            pass
    baseline = window.elapsed

    gen = SyntheticUpdateGenerator(3000, seed=2, oracle=masm.oracle)
    for update in gen.stream(3000):
        masm.apply(update)
    window = OverlapWindow({"disk": disk, "ssd": ssd})
    with window:
        for _ in masm.range_scan(begin, end):
            pass
    assert window.elapsed < baseline * 1.10
