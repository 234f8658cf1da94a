"""One node request, one overlap scope on the simulated clock (Section 3.7).

Inside an :class:`~repro.storage.clock.OverlapScope` each device serves its
own operations back to back and the clock stands at the latest finish; a
wait that is no device operation is a sync point; a commit record waits
for every device; work done while a scan is suspended is never back-dated
under it.  Outside a scope every charge is serial, as before.  What a
scope changes is *when* I/O is charged, never what I/O runs: every
device's own statistics, head position and append point come out the same.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.manifest import MigrationEnded
from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import migrate_all
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.clock import SimClock
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.iosched import OverlapWindow
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CAPACITY = 64 * MB


class RecordingClock(SimClock):
    """A clock that notes each device operation's (lane, start, finish)."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        super().__init__()
        self.ops: list = []

    def charge(self, lane, seconds: float) -> None:
        super().charge(lane, seconds)
        scope = self._scope
        finish = scope.lanes[lane] if scope is not None else self._now
        self.ops.append((lane, finish - seconds, finish))


# ------------------------------------------------------------ the clock rule
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["disk", "ssd"]),
            st.sampled_from(["read", "write"]),
            st.integers(0, 255),  # offset, in 4 KB units
            st.integers(1, 64),  # size, in KB
        ),
        st.tuples(st.just("ssd"), st.just("batch"), st.integers(0, 255), st.integers(1, 12)),
        st.tuples(st.just("wait"), st.floats(0.0, 0.01), st.just(0), st.just(0)),
    ),
    max_size=30,
)


def _run(ops, scoped: bool):
    """Run ``ops`` on a disk and an SSD sharing a clock; returns the clock,
    the devices and, per wait-separated segment, the busy time per device."""
    clock = SimClock(start=1.0)
    disk = SimulatedDisk(capacity=CAPACITY, clock=clock)
    ssd = SimulatedSSD(capacity=CAPACITY, clock=clock)
    devices = {"disk": disk, "ssd": ssd}
    segments = [{"disk": 0.0, "ssd": 0.0}]
    waits = 0.0
    scope = clock.overlap() if scoped else None
    if scope is not None:
        scope.__enter__()
    try:
        for target, kind, at, size in ops:
            if target == "wait":
                clock.advance(kind)
                waits += kind
                segments.append({"disk": 0.0, "ssd": 0.0})
                continue
            device = devices[target]
            before = device.stats.busy_time
            if kind == "read":
                device.read(at * 4 * KB, size * KB)
            elif kind == "write":
                device.write(at * 4 * KB, bytes(size * KB))
            else:
                ssd.read_batch([((at + i) * 4 * KB, 4 * KB) for i in range(size)])
            segments[-1][target] += device.stats.busy_time - before
    finally:
        if scope is not None:
            scope.__exit__(None, None, None)
    return clock, disk, ssd, segments, waits


@settings(max_examples=150, deadline=None)
@given(OPS)
def test_a_scope_charges_the_busiest_device_between_sync_points(ops):
    serial, disk_a, ssd_a, segments, waits = _run(ops, scoped=False)
    overlapped, disk_b, ssd_b, _, _ = _run(ops, scoped=True)
    # Outside a scope: the sum.  Inside: per segment between two waits,
    # the busier device; plus the waits.
    assert serial.now - 1.0 == pytest.approx(
        sum(sum(seg.values()) for seg in segments) + waits, abs=1e-12
    )
    assert overlapped.now - 1.0 == pytest.approx(
        sum(max(seg.values()) for seg in segments) + waits, abs=1e-12
    )
    # The same I/O, in the same order, on every device.
    for a, b in ((disk_a, disk_b), (ssd_a, ssd_b)):
        assert a.stats == b.stats
    assert disk_a.head_position == disk_b.head_position
    assert ssd_a._append_point == ssd_b._append_point
    # The scope closed: later operations are serial again.
    now = overlapped.now
    disk_b.read(0, 4 * KB)
    ssd_b.read(0, 4 * KB)
    assert overlapped.now - now == pytest.approx(
        disk_b.stats.busy_time - disk_a.stats.busy_time
        + ssd_b.stats.busy_time - ssd_a.stats.busy_time,
        abs=1e-12,
    )


def test_a_barrier_waits_for_every_device():
    clock = SimClock()
    disk = SimulatedDisk(capacity=CAPACITY, clock=clock)
    ssd = SimulatedSSD(capacity=CAPACITY, clock=clock)
    with clock.overlap():
        disk.read(8 * MB, 4 * MB)  # tens of milliseconds
        ssd.write(0, bytes(4 * KB))  # overlapped under the disk read
        overlapped = clock.now
        ssd.barrier()
        ssd.write(4 * KB, bytes(4 * KB))
    assert overlapped == pytest.approx(disk.stats.busy_time)
    second = ssd.stats.busy_time / 2  # both writes are appends of 4 KB
    assert clock.now == pytest.approx(disk.stats.busy_time + second)


def test_a_nested_scope_joins_the_open_one():
    clock = SimClock()
    disk = SimulatedDisk(capacity=CAPACITY, clock=clock)
    ssd = SimulatedSSD(capacity=CAPACITY, clock=clock)
    with clock.overlap():
        disk.read(0, 1 * MB)
        with clock.overlap():  # e.g. a migration inside a scan's preamble
            ssd.read(0, 1 * MB)
        ssd.read(1 * MB, 1 * MB)
    assert clock.now == pytest.approx(
        max(disk.stats.busy_time, ssd.stats.busy_time)
    )


# ---------------------------------------------------------------- the engine
def build(clock=None, n=4000, log=False, **config):
    clock = clock if clock is not None else SimClock()
    disk = SimulatedDisk(capacity=128 * MB, clock=clock)
    ssd = SimulatedSSD(capacity=8 * MB, clock=clock)
    disk_vol, ssd_vol = StorageVolume(disk), StorageVolume(ssd)
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(
            alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB,
            auto_migrate=False, **config,
        ),
    )
    if log:
        masm.attach_log(RedoLog(ssd_vol.create("redo-log", 2 * MB)))
    return masm, clock, disk, ssd


def modify(masm, key, text):
    masm.apply(UpdateRecord(masm.oracle.next(), key, UpdateType.MODIFY, {"payload": text}))


def test_a_scan_whose_preamble_flushes_costs_its_busier_device():
    masm, clock, disk, ssd = build(log=True)
    for i in range(300):  # one run on the SSD for the scan to merge
        modify(masm, (i * 7) % 4000 * 2, f"a{i}")
    masm.flush_buffer()
    i = 0
    while masm.buffer.pages_used(masm.ssd_page_size) < masm.params.update_pages:
        modify(masm, (i * 11) % 4000 * 2, f"b{i}")  # stolen pages: no flush
        i += 1
    flushes, runs = masm.stats.flushes, len(masm.runs)
    disk0, ssd0, began = disk.stats.busy_time, ssd.stats.busy_time, clock.now
    with OverlapWindow({"disk": disk, "ssd": ssd}) as window:
        rows = list(masm.range_scan(0, 2**62))
    elapsed = clock.now - began
    assert len(rows) == 4000
    assert masm.stats.flushes == flushes + 1 and len(masm.runs) == runs + 1
    disk_busy, ssd_busy = disk.stats.busy_time - disk0, ssd.stats.busy_time - ssd0
    assert disk_busy > 0 and ssd_busy > 0
    assert elapsed == pytest.approx(max(disk_busy, ssd_busy), rel=1e-9)
    assert elapsed < disk_busy + ssd_busy
    # The figure drivers' timing model agrees with the engine's clock.
    assert window.elapsed == pytest.approx(elapsed, rel=1e-9)


def test_migration_end_is_logged_after_the_last_heap_write():
    masm, clock, disk, ssd = build(RecordingClock(), log=True)
    for i in range(400):
        modify(masm, i * 2, f"m{i}")
    masm.flush_buffer()
    log = masm.redo_log
    marks = {}
    log_edit = log.log_edit

    def log_migration_end(table, edit):
        if isinstance(edit, MigrationEnded):
            marks["end"] = len(clock.ops)
        log_edit(table, edit)

    log.log_edit = log_migration_end
    clock.ops.clear()
    migrate_all(masm, redo_log=log)
    lane, start, _ = clock.ops[marks["end"]]
    assert lane is ssd  # the MIGRATION_END append
    heap_writes = [
        finish for lane, _, finish in clock.ops[: marks["end"]] if lane is disk
    ]
    assert disk.stats.writes and heap_writes
    assert start >= max(heap_writes)
    # The run reads overlapped the heap's I/O: the SSD went first.
    assert min(s for lane, s, _ in clock.ops if lane is ssd) < max(heap_writes)


def test_a_suspended_scan_never_issues_io_before_outside_work_ends():
    masm, clock, disk, ssd = build(RecordingClock(), log=True, kernel_blocks_per_partition=1)
    for i in range(600):
        modify(masm, (i * 13) % 4000 * 2, f"s{i}")
    masm.flush_buffer()
    scan = masm.range_scan(0, 2**62)
    head = list(islice(scan, 10))  # the first join step ran, the rest waits
    assert head
    modify(masm, 1 * 2, "between two pulls")  # a WAL append: outside work
    resumed = clock.now
    mark = len(clock.ops)
    rest = list(scan)
    later = clock.ops[mark:]
    assert later, "the scan issued I/O after it resumed"
    assert min(start for _, start, _ in later) >= resumed
    assert len(head) + len(rest) == 4000


def test_a_closed_scan_leaves_the_clock_serial():
    masm, clock, disk, ssd = build(kernel_blocks_per_partition=1)
    for i in range(600):
        modify(masm, (i * 13) % 4000 * 2, f"c{i}")
    masm.flush_buffer()
    scan = masm.range_scan(0, 2**62)
    assert list(islice(scan, 10))
    scan.close()  # a hedge abandoning its primary's stream
    now, disk0, ssd0 = clock.now, disk.stats.busy_time, ssd.stats.busy_time
    disk.read(0, 64 * KB)
    ssd.read(0, 64 * KB)
    assert clock.now - now == pytest.approx(
        disk.stats.busy_time - disk0 + ssd.stats.busy_time - ssd0
    )
