"""InMemoryUpdateBuffer: capacity, epochs, and a scan's partition-at-a-time
reads (``columns_range`` through ``MemScan.slice_columns``) surviving re-sorts
and flushes."""

import pytest

from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.operators import MemScan
from repro.core.sortedrun import write_run
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import UpdateCacheFullError
from repro.util.units import KB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)


def make_buffer(capacity=64 * KB):
    return InMemoryUpdateBuffer(SCHEMA, capacity_bytes=capacity)


def upd(ts, key):
    """A DELETE as the engine hands it to the buffer: encoded."""
    return CODEC.encode(UpdateRecord(ts, key, UpdateType.DELETE, None))


def positions(columns):
    """``[(key, ts), ...]`` of a ``columns_range`` / ``slice_columns`` result."""
    if columns is None:
        return []
    return list(zip(columns.keys.tolist(), columns.timestamps.tolist()))


def flush(buf, runs):
    """Drain ``buf`` into a run registered under the new flush epoch."""
    volume = StorageVolume(SimulatedSSD(capacity=1024 * KB))
    drained = buf.drain_sorted()
    runs[buf.flush_epoch] = write_run(
        volume, f"flush-{buf.flush_epoch}", drained, CODEC, block_size=1 * KB
    )


def test_append_accumulates_bytes():
    buf = make_buffer()
    buf.append(upd(1, 10))
    assert buf.count == 1
    assert buf.used_bytes > 0


def test_capacity_enforced():
    buf = make_buffer(capacity=30)  # one 21-byte DELETE fits, two don't
    buf.append(upd(1, 1))
    with pytest.raises(UpdateCacheFullError):
        buf.append(upd(2, 2))


def test_pages_used():
    buf = make_buffer()
    assert buf.pages_used(4096) == 0
    buf.append(upd(1, 1))
    assert buf.pages_used(4096) == 1


def test_sort_epoch_bumps_only_on_reorder():
    buf = make_buffer()
    buf.append(upd(1, 1))
    buf.append(upd(2, 2))  # already in key order
    buf.sort()
    assert buf.sort_epoch == 0  # nothing to reorder
    buf.append(upd(3, 0))  # out of order now
    buf.sort()
    assert buf.sort_epoch == 1


def test_drain_sorted_returns_key_order_and_resets():
    buf = make_buffer()
    for ts, key in [(1, 30), (2, 10), (3, 20), (4, 10)]:
        buf.append(upd(ts, key))
    drained = buf.drain_sorted()
    assert [(u.key, u.timestamp) for u in drained.records] == [
        (10, 2),
        (10, 4),
        (20, 3),
        (30, 1),
    ]
    assert buf.count == 0
    assert buf.used_bytes == 0
    assert buf.flush_epoch == 1


def test_cursor_in_range_and_visible():
    buf = make_buffer()
    for ts, key in [(1, 5), (2, 10), (3, 15), (4, 20)]:
        buf.append(upd(ts, key))
    columns, flush_epoch = buf.columns_range(8, 16, query_ts=3)
    assert positions(columns) == [(10, 2), (15, 3)] and flush_epoch == 0
    assert [(u.key, u.timestamp) for u in MemScan(buf, 8, 16, query_ts=3)] == [
        (10, 2),
        (15, 3),
    ]


def test_cursor_hides_later_timestamps():
    buf = make_buffer()
    buf.append(upd(5, 10))
    assert buf.columns_range(0, 100, query_ts=4) == (None, 0)
    assert list(MemScan(buf, 0, 100, query_ts=4)) == []


def test_cursor_survives_resort_with_new_inserts():
    buf = make_buffer()
    for ts, key in [(1, 10), (2, 30)]:
        buf.append(upd(ts, key))
    scan = MemScan(buf, 0, 100, query_ts=10)
    assert positions(scan.slice_columns(0, 15)) == [(10, 1)]
    # An update with ts > query_ts lands between the partition just read and
    # the range end, then the buffer re-sorts: the scan must skip it.
    buf.append(upd(99, 20))
    buf.sort()
    assert buf.sort_epoch == 1
    assert positions(scan.slice_columns(16, None)) == [(30, 2)]


def test_cursor_sees_interleaved_visible_update_after_resort():
    buf = make_buffer()
    buf.append(upd(3, 10))
    buf.append(upd(4, 30))
    # Every partition is a fresh read of the buffer, so the scan picks up
    # the visible update that landed at key 20 after its first partition.
    scan = MemScan(buf, 0, 100, query_ts=10)
    assert positions(scan.slice_columns(0, 15)) == [(10, 3)]
    buf.append(upd(5, 20))
    assert positions(scan.slice_columns(16, None)) == [(20, 5), (30, 4)]


def test_cursor_detects_flush():
    buf = make_buffer()
    buf.append(upd(1, 10))
    buf.append(upd(2, 20))
    runs = {}
    scan = MemScan(buf, 0, 100, query_ts=10, run_for_flush=runs.get)
    assert positions(scan.slice_columns(0, 15)) == [(10, 1)]
    flush(buf, runs)
    buf.append(upd(3, 20))  # the next generation's: this scan must not see it
    assert buf.columns_range(0, 100, query_ts=10)[1] == 1
    # The rest of the scan comes from the run of flush epoch + 1.
    assert positions(scan.slice_columns(16, None)) == [(20, 2)]
    flush(buf, runs)  # a later flush changes nothing for this scan
    assert positions(scan.slice_columns(16, None)) == [(20, 2)]
    assert scan.flush_epoch == 0


def test_cursor_with_large_batch_finishes_prefetched_items():
    buf = make_buffer()
    buf.append(upd(1, 10))
    buf.append(upd(2, 20))
    taken, _ = buf.columns_range(0, 100, query_ts=10)
    buf.drain_sorted()
    # The copy taken under the latch is still legitimately visible: the
    # columns own their bytes, the drained buffer keeps nothing of them.
    assert [(u.key, u.timestamp) for u in taken.records] == [(10, 1), (20, 2)]
    assert buf.columns_range(0, 100, query_ts=10) == (None, 1)


def test_min_timestamp():
    buf = make_buffer()
    assert buf.min_timestamp() is None
    buf.append(upd(5, 1))
    buf.append(upd(3, 2))
    assert buf.min_timestamp() == 3


def test_snapshot_range_batching():
    buf = make_buffer()
    for i in range(10):
        buf.append(upd(i + 1, i))
    # Consecutive key partitions tile the buffer: nothing twice, nothing lost.
    scan = MemScan(buf, 0, 100, query_ts=100)
    batch = scan.slice_columns(0, 3)
    assert len(batch) == 4
    assert scan.slice_columns(4, None).keys.tolist() == [4, 5, 6, 7, 8, 9]


def test_updates_at_one_position_keep_their_arrival_order():
    # The oracle never hands out a timestamp twice, but a caller that does
    # gets what a stable sort gives: placed by a reader or sorted by a flush.
    first = CODEC.encode(UpdateRecord(7, 10, UpdateType.DELETE, None))
    second = CODEC.encode(UpdateRecord(7, 10, UpdateType.INSERT, (10, "again")))
    for read_between in (True, False):
        buf = make_buffer()
        buf.append(upd(9, 10))
        buf.append(first)
        if read_between:
            buf.sort()
        buf.append(second)
        batch, _ = buf.columns_range(0, 100, 100)
        assert [(u.timestamp, u.type) for u in batch.records] == [
            (7, UpdateType.DELETE), (7, UpdateType.INSERT), (9, UpdateType.DELETE)
        ]
        buf.append(CODEC.encode(UpdateRecord(7, 10, UpdateType.MODIFY, {"payload": "m"})))
        assert [u.type for u in buf.drain_sorted().records] == [
            UpdateType.DELETE, UpdateType.INSERT, UpdateType.MODIFY, UpdateType.DELETE
        ]

