"""Snapshot isolation over MaSM: snapshot reads, own writes, conflicts."""

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import TransactionAborted, TransactionError
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.snapshot import SnapshotManager
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def make_manager(n=500):
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB),
    )
    return SnapshotManager(masm)


def test_transaction_sees_snapshot_not_later_commits():
    mgr = make_manager()
    txn = mgr.begin()
    # A concurrent writer commits after txn started.
    other = mgr.begin()
    other.modify(40, {"payload": "later"})
    other.commit()
    assert txn.get(40) == (40, "rec-20")  # snapshot at start


def test_transaction_sees_own_writes():
    mgr = make_manager()
    txn = mgr.begin()
    txn.modify(40, {"payload": "mine"})
    txn.insert((41, "new"))
    txn.delete(42)
    got = {SCHEMA.key(r): r for r in txn.range_scan(38, 46)}
    assert got[40] == (40, "mine")
    assert got[41] == (41, "new")
    assert 42 not in got
    assert got[44] == (44, "rec-22")


def test_commit_publishes_to_masm():
    mgr = make_manager()
    txn = mgr.begin()
    txn.modify(40, {"payload": "published"})
    ts = txn.commit()
    assert ts > txn.start_ts
    fresh = {SCHEMA.key(r): r for r in mgr.masm.range_scan(40, 40)}
    assert fresh[40] == (40, "published")


def test_first_committer_wins():
    mgr = make_manager()
    t1 = mgr.begin()
    t2 = mgr.begin()
    t1.modify(40, {"payload": "one"})
    t2.modify(40, {"payload": "two"})
    t1.commit()
    with pytest.raises(TransactionAborted):
        t2.commit()
    fresh = {SCHEMA.key(r): r for r in mgr.masm.range_scan(40, 40)}
    assert fresh[40] == (40, "one")


def test_plain_update_after_snapshot_aborts_the_transaction():
    """First-committer-wins also loses against a non-transactional write:
    a MODIFY committed on top of a plain DELETE the snapshot never saw would
    make every later scan of the key raise."""
    mgr = make_manager()
    txn = mgr.begin()
    assert txn.get(40) == (40, "rec-20")
    txn.modify(40, {"payload": "stale"})
    mgr.masm.delete(40)  # straight through MaSM.apply, after the snapshot
    with pytest.raises(TransactionAborted):
        txn.commit()
    assert list(mgr.masm.range_scan(38, 42)) == [(38, "rec-19"), (42, "rec-21")]


def test_plain_update_before_snapshot_does_not_conflict():
    mgr = make_manager()
    mgr.masm.modify(40, {"payload": "earlier"})
    txn = mgr.begin()
    txn.modify(40, {"payload": "mine"})
    txn.commit()
    assert list(mgr.masm.range_scan(40, 40)) == [(40, "mine")]


def test_write_history_is_bounded():
    mgr = make_manager()
    mgr._history = 8
    txn = mgr.begin()
    txn.modify(4, {"payload": "mine"})
    for key in range(0, 40, 2):
        mgr.masm.modify(key, {"payload": "x"})
    assert len(mgr._last_write) <= 8
    mgr.masm.modify(4, {"payload": "again"})  # a recent write is kept
    with pytest.raises(TransactionAborted):
        txn.commit()


def test_disjoint_writes_both_commit():
    mgr = make_manager()
    t1 = mgr.begin()
    t2 = mgr.begin()
    t1.modify(40, {"payload": "one"})
    t2.modify(44, {"payload": "two"})
    t1.commit()
    t2.commit()  # no overlap: fine


def test_abort_discards_writes():
    mgr = make_manager()
    txn = mgr.begin()
    txn.modify(40, {"payload": "discarded"})
    txn.abort()
    fresh = {SCHEMA.key(r): r for r in mgr.masm.range_scan(40, 40)}
    assert fresh[40] == (40, "rec-20")


def test_own_writes_combine():
    mgr = make_manager()
    txn = mgr.begin()
    txn.delete(40)
    txn.insert((40, "replaced"))
    txn.modify(40, {"payload": "final"})
    assert txn.get(40) == (40, "final")
    txn.commit()
    fresh = {SCHEMA.key(r): r for r in mgr.masm.range_scan(40, 40)}
    assert fresh[40] == (40, "final")


def test_finished_transaction_rejects_use():
    mgr = make_manager()
    txn = mgr.begin()
    txn.commit()
    with pytest.raises(TransactionError):
        txn.modify(40, {"payload": "x"})
    with pytest.raises(TransactionError):
        txn.commit()
    assert txn.is_finished


def test_read_only_commit_keeps_start_ts():
    mgr = make_manager()
    txn = mgr.begin()
    txn.get(40)
    assert txn.commit() == txn.start_ts


def test_open_transaction_keeps_its_snapshot_through_a_full_migration():
    """A transaction pins its start ts: the migration under it takes the
    range path and leaves the later update cached, out of its sight."""
    mgr = make_manager()
    masm = mgr.masm
    txn = mgr.begin()
    masm.modify(40, {"payload": "later"})
    masm.flush_buffer()
    masm.migrate()
    assert txn.get(40) == (40, "rec-20")
    txn.commit()
    masm.migrate()  # nothing pinned now: a full migration empties the cache
    assert not masm.runs
    assert {SCHEMA.key(r): r for r in masm.range_scan(40, 40)}[40] == (40, "later")


def test_open_transaction_keeps_its_snapshot_through_a_folding_merge():
    """A merge may fold INSERT@t1 + MODIFY@t2 into one update at t2 only
    when no reader sits in between: the open transaction's start ts does."""
    mgr = make_manager()
    masm = mgr.masm
    masm.insert((41, "v1"))
    masm.flush_buffer()
    txn = mgr.begin()
    masm.modify(41, {"payload": "v2"})
    masm.flush_buffer()
    for i in range(14):
        masm.modify(100 + 2 * i, {"payload": f"x{i}"})
        masm.flush_buffer()
    runs = len(masm.runs)
    list(masm.range_scan(0, 10))  # its preamble merges the earliest runs
    assert len(masm.runs) < runs
    assert masm.stats.duplicates_merged == 0
    assert txn.get(41) == (41, "v1")
    txn.abort()
    # Released: the next merge folds the two versions of key 41.
    for i in range(14):
        masm.modify(41, {"payload": f"y{i}"})
        masm.flush_buffer()
    list(masm.range_scan(0, 10))
    assert masm.stats.duplicates_merged > 0
    assert {SCHEMA.key(r): r for r in masm.range_scan(41, 41)}[41] == (41, "y13")
