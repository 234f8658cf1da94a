"""InMemoryUpdateBuffer: capacity, epochs, cursors surviving sorts/flushes."""

import pytest

from repro.core.membuffer import BufferFlushed, InMemoryUpdateBuffer
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
    assert buf.would_overflow(21)


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
    got = list(buf.cursor(8, 16, query_ts=3))
    assert [(u.key, u.timestamp) for u in got] == [(10, 2), (15, 3)]


def test_cursor_hides_later_timestamps():
    buf = make_buffer()
    buf.append(upd(5, 10))
    got = list(buf.cursor(0, 100, query_ts=4))
    assert got == []


def test_cursor_survives_resort_with_new_inserts():
    buf = make_buffer()
    for ts, key in [(1, 10), (2, 30)]:
        buf.append(upd(ts, key))
    cursor = buf.cursor(0, 100, query_ts=10)
    first = next(cursor)
    assert first.key == 10
    # An update with ts > query_ts lands between the cursor position and the
    # range end, then the buffer re-sorts: the cursor must skip it.
    buf.append(upd(99, 20))
    buf.sort()
    rest = list(cursor)
    assert [u.key for u in rest] == [30]


def test_cursor_sees_interleaved_visible_update_after_resort():
    buf = make_buffer()
    buf.append(upd(3, 10))
    buf.append(upd(4, 30))
    # batch_size=1 re-reads the buffer each step, so the cursor repositions
    # through the re-sort and picks up the visible update at key 20.
    cursor = buf.cursor(0, 100, query_ts=10, batch_size=1)
    assert next(cursor).key == 10
    buf.append(upd(5, 20))
    got = [u.key for u in cursor]
    assert got == [20, 30]


def test_cursor_detects_flush():
    buf = make_buffer()
    buf.append(upd(1, 10))
    buf.append(upd(2, 20))
    cursor = buf.cursor(0, 100, query_ts=10, batch_size=1)
    assert next(cursor).key == 10
    buf.drain_sorted()
    with pytest.raises(BufferFlushed) as exc:
        next(cursor)
    assert exc.value.flush_epoch == 1
    assert cursor.last_position == (10, 1)


def test_cursor_with_large_batch_finishes_prefetched_items():
    buf = make_buffer()
    buf.append(upd(1, 10))
    buf.append(upd(2, 20))
    cursor = buf.cursor(0, 100, query_ts=10, batch_size=64)
    assert next(cursor).key == 10
    buf.drain_sorted()
    # The batched copy taken under the latch is still legitimately visible.
    assert next(cursor).key == 20
    with pytest.raises(BufferFlushed):
        next(cursor)


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
    batch, sort_epoch, flush_epoch = buf.snapshot_range(0, 100, 100, limit=4)
    assert len(batch) == 4
    batch2, _, _ = buf.snapshot_range(0, 100, 100, after=batch[-1].sort_key())
    assert batch2[0].key == 4


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
        batch, _, _ = buf.snapshot_range(0, 100, 100)
        assert [(u.timestamp, u.type) for u in batch] == [
            (7, UpdateType.DELETE), (7, UpdateType.INSERT), (9, UpdateType.DELETE)
        ]
        buf.append(CODEC.encode(UpdateRecord(7, 10, UpdateType.MODIFY, {"payload": "m"})))
        assert [u.type for u in buf.drain_sorted().records] == [
            UpdateType.DELETE, UpdateType.INSERT, UpdateType.MODIFY, UpdateType.DELETE
        ]

