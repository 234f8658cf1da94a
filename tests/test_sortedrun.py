"""Materialized sorted runs: writing, index-narrowed scans, migration marks."""

import pytest

from repro.core.runindex import FINE_GRANULARITY
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import StorageError
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)


def make_volume(capacity=64 * MB):
    return StorageVolume(SimulatedSSD(capacity=capacity))


def updates(n, key_step=2, ts_start=1):
    return CODEC.encode_columns(
        [
            UpdateRecord(ts_start + i, i * key_step, UpdateType.INSERT, (i * key_step, "x"))
            for i in range(n)
        ]
    )


def test_write_and_full_scan():
    vol = make_volume()
    run = write_run(vol, "r0", updates(500), CODEC, block_size=4 * KB)
    got = list(run.scan(0, 10**9))
    assert len(got) == 500
    assert [u.key for u in got] == [i * 2 for i in range(500)]
    assert run.count == 500
    assert run.min_key == 0
    assert run.max_key == 998


def test_scan_key_range_narrowed():
    vol = make_volume()
    ssd = vol.device
    run = write_run(vol, "r0", updates(5000), CODEC, block_size=4 * KB)
    before = ssd.snapshot()
    got = list(run.scan(100, 120))
    delta = ssd.stats.delta(before)
    assert [u.key for u in got] == [100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]
    # The run index narrows the read to a handful of blocks.
    assert delta.bytes_read <= 3 * run.block_size


def test_scan_timestamp_filter():
    vol = make_volume()
    run = write_run(vol, "r0", updates(100), CODEC, block_size=4 * KB)
    got = list(run.scan(0, 10**9, query_ts=50))
    assert len(got) == 50
    assert all(u.timestamp <= 50 for u in got)


def test_scan_after_position():
    vol = make_volume()
    run = write_run(vol, "r0", updates(100), CODEC, block_size=4 * KB)
    got = list(run.scan(0, 10**9, after=(50, 26)))
    assert got[0].sort_key() > (50, 26)


def test_blocks_never_split_records():
    vol = make_volume()
    run = write_run(vol, "r0", updates(2000), CODEC, block_size=4 * KB)
    # Every block decodes independently (scan reads block by block).
    assert len(list(run.scan(0, 10**9))) == 2000
    assert run.num_blocks > 1


def test_unsorted_updates_rejected():
    vol = make_volume()
    items = [
        UpdateRecord(1, 10, UpdateType.DELETE, None),
        UpdateRecord(2, 5, UpdateType.DELETE, None),
    ]
    with pytest.raises(StorageError):
        write_run(vol, "bad", CODEC.encode_columns(items), CODEC)


def test_empty_run_rejected():
    with pytest.raises(StorageError):
        write_run(make_volume(), "empty", CODEC.encode_columns([]), CODEC)


def test_run_writes_are_sequential_on_ssd():
    vol = make_volume()
    ssd = vol.device
    write_run(vol, "r0", updates(5000), CODEC, block_size=64 * KB)
    # Design goal 2: no random SSD writes (first write establishes position).
    assert ssd.stats.rand_writes <= 1


def test_size_hint_allocates_and_shrinks():
    vol = make_volume()
    run = write_run(vol, "r0", updates(100), CODEC, block_size=4 * KB, size_hint=4 * MB)
    assert run.file.size == run.num_blocks * (4 * KB)
    assert vol.used_bytes == run.file.size


def test_size_hint_too_small_raises():
    vol = make_volume()
    with pytest.raises(StorageError):
        write_run(
            vol, "r0", updates(5000), CODEC, block_size=4 * KB, size_hint=8 * KB
        )


def test_migrated_ranges_hidden_from_scans():
    vol = make_volume()
    run = write_run(vol, "r0", updates(100), CODEC, block_size=4 * KB)
    run.mark_migrated(0, 98)
    got = [u.key for u in run.scan(0, 10**9)]
    assert got == [k for k in range(100, 199, 2)]


def test_fully_migrated():
    vol = make_volume()
    run = write_run(vol, "r0", updates(100), CODEC, block_size=4 * KB)
    assert not run.fully_migrated(run.min_key, run.max_key)
    run.mark_migrated(0, 100)
    assert not run.fully_migrated(run.min_key, run.max_key)
    run.mark_migrated(101, 198)
    assert run.fully_migrated(run.min_key, run.max_key)


def test_oversized_update_rejected():
    vol = make_volume()
    big_schema = synthetic_schema(record_size=8 * KB)
    codec = UpdateCodec(big_schema)
    item = UpdateRecord(1, 0, UpdateType.INSERT, (0, "x"))
    with pytest.raises(StorageError):
        write_run(vol, "big", codec.encode_columns([item]), codec, block_size=4 * KB)


def test_fine_granularity_index():
    vol = make_volume()
    run = write_run(vol, "r0", updates(3000), CODEC, block_size=FINE_GRANULARITY)
    assert run.block_size == FINE_GRANULARITY
    assert run.index.num_blocks == run.num_blocks
