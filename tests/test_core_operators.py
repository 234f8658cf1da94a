"""MaSM scan operators: RunScan, MemScan handover, merges, outer join."""

from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.operators import MemScan, MergeDataUpdates, MergeUpdates, RunScan
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)


def ins(ts, key, payload="p"):
    return UpdateRecord(ts, key, UpdateType.INSERT, (key, payload))


def dele(ts, key):
    return UpdateRecord(ts, key, UpdateType.DELETE, None)


def mod(ts, key, payload):
    return UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": payload})


def make_run(updates, name="r0"):
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    items = sorted(updates, key=UpdateRecord.sort_key)
    return write_run(vol, name, CODEC.encode_columns(items), CODEC, block_size=4 * KB)


def test_run_scan_filters_range_and_ts():
    run = make_run([ins(i + 1, i * 2) for i in range(100)])
    got = list(RunScan(run, 10, 30, query_ts=12))
    assert [u.key for u in got] == [10, 12, 14, 16, 18, 20, 22]
    assert all(u.timestamp <= 12 for u in got)


def test_mem_scan_plain():
    buf = InMemoryUpdateBuffer(SCHEMA, 64 * KB)
    for ts, key in [(1, 30), (2, 10), (3, 50)]:
        buf.append(CODEC.encode(dele(ts, key)))
    got = list(MemScan(buf, 0, 40, query_ts=10))
    assert [u.key for u in got] == [10, 30]


def test_mem_scan_hands_over_to_run_on_flush():
    buf = InMemoryUpdateBuffer(SCHEMA, 64 * KB)
    for ts, key in [(1, 10), (2, 20), (3, 30), (4, 40)]:
        buf.append(CODEC.encode(dele(ts, key)))
    runs = {}

    scan = MemScan(buf, 0, 100, query_ts=10, run_for_flush=runs.get)
    assert scan.slice_columns(0, 15).keys.tolist() == [10]  # first partition

    # Flush mid-scan: materialize the drained updates as the run the scan
    # must continue from.
    drained = buf.drain_sorted()
    runs[buf.flush_epoch] = make_run(drained.records, "flushed")
    buf.append(CODEC.encode(dele(5, 25)))  # the next generation: not this scan's
    assert scan.slice_columns(16, 30).keys.tolist() == [20, 30]
    assert scan.slice_columns(31, None).keys.tolist() == [40]
    # A scan registered before the flush but first read after it: all of it
    # comes from the run.
    late = MemScan(buf, 0, 100, query_ts=10, run_for_flush=runs.get, flush_epoch=0)
    assert [u.key for u in late] == [10, 20, 30, 40]


def test_mem_scan_handover_respects_query_ts():
    buf = InMemoryUpdateBuffer(SCHEMA, 64 * KB)
    for ts, key in [(1, 10), (2, 20), (9, 30)]:
        buf.append(CODEC.encode(dele(ts, key)))
    runs = {}
    scan = MemScan(buf, 0, 100, query_ts=5, run_for_flush=runs.get)
    assert scan.slice_columns(0, 15).keys.tolist() == [10]
    drained = buf.drain_sorted()
    runs[buf.flush_epoch] = make_run(drained.records, "flushed")
    assert scan.slice_columns(16, None).keys.tolist() == [20]  # key 30 has ts > query_ts


def test_mem_scan_without_lookup_stops_on_flush():
    buf = InMemoryUpdateBuffer(SCHEMA, 64 * KB)
    buf.append(CODEC.encode(dele(1, 10)))
    buf.append(CODEC.encode(dele(2, 20)))
    scan = MemScan(buf, 0, 100, query_ts=10)
    it = iter(scan)
    next(it)
    buf.drain_sorted()
    # Updates already taken out under the latch still arrive; after them
    # the scan ends (no run_for_flush to continue from).
    assert [u.key for u in it] == [20]
    assert scan.slice_columns(0, None) is None


def test_merge_updates_combines_same_key_across_sources():
    a = [dele(1, 5)]
    b = [ins(2, 5, "new"), mod(3, 7, "x")]
    combined = list(MergeUpdates([CODEC.encode_columns(a), CODEC.encode_columns(b)]))
    assert len(combined) == 2
    assert combined[0].key == 5
    assert combined[0].type == UpdateType.REPLACE
    assert combined[1].key == 7


def test_merge_updates_charges_cpu():
    cpu = CpuMeter()
    list(MergeUpdates([CODEC.encode_columns([dele(1, 5)]), CODEC.encode_columns([dele(2, 6)])], cpu=cpu))
    assert cpu.total > 0


def test_merge_data_updates_outer_join():
    data = [((10, "a"), 0), ((20, "b"), 0), ((30, "c"), 0)]
    updates = [
        ins(1, 5, "before"),  # insert before the data
        mod(2, 20, "patched"),  # modify existing
        dele(3, 30),  # delete existing
        ins(4, 40, "after"),  # insert after the data
    ]
    got = list(MergeDataUpdates(data, MergeUpdates([CODEC.encode_columns(updates)]), SCHEMA))
    assert got == [(5, "before"), (10, "a"), (20, "patched"), (40, "after")]


def test_merge_data_updates_skips_already_applied():
    # The record's page timestamp says the update at ts=3 was migrated.
    data = [((10, "migrated"), 5)]
    updates = [mod(3, 10, "stale")]
    got = list(MergeDataUpdates(data, MergeUpdates([CODEC.encode_columns(updates)]), SCHEMA))
    assert got == [(10, "migrated")]


def test_merge_data_updates_applies_newer_than_page():
    data = [((10, "old"), 5)]
    updates = [mod(7, 10, "fresh")]
    got = list(MergeDataUpdates(data, MergeUpdates([CODEC.encode_columns(updates)]), SCHEMA))
    assert got == [(10, "fresh")]


def test_merge_data_updates_floating_delete_is_noop():
    # The delete was already migrated: the record is gone from the data, and
    # the cached delete must not produce anything.
    data = [((10, "a"), 0)]
    updates = [dele(2, 99)]
    got = list(MergeDataUpdates(data, MergeUpdates([CODEC.encode_columns(updates)]), SCHEMA))
    assert got == [(10, "a")]


def test_merge_data_updates_empty_data():
    updates = [ins(1, 5, "x")]
    assert list(MergeDataUpdates([], MergeUpdates([CODEC.encode_columns(updates)]), SCHEMA)) == [(5, "x")]


def test_merge_data_updates_empty_updates():
    data = [((10, "a"), 0)]
    assert list(MergeDataUpdates(data, MergeUpdates([]), SCHEMA)) == [(10, "a")]
