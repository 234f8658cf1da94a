"""The chunk-grain full migration against the record-at-a-time reference.

``repro.core.migration.rewrite_heap`` joins each decoded heap chunk with the
merged update batches as arrays and packs each chunk it writes in one pass.
After it, everything observable must be what ``reference_migration``'s
per-record rewrite leaves over a twin system: the heap file's bytes, the
sparse-index entries, ``row_count``, ``MigrationStats``, the rows a
``CoordinatedMigration`` yields, and each device's sequence of reads and
writes — over all four update types, same-key chains across runs, pages whose
timestamp is ahead of some of their updates (partly migrated), non-uniform
and tombstoned pages, growth past the old end of the heap and shrink (with
``heap.truncate`` zeroing the tail).

The golden traces at the bottom were recorded on the parent commit (the
per-record rewrite in ``src/``), so they also hold if the reference drifts.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import reference_migration as ref
from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import CoordinatedMigration, migrate_all, migrate_range
from repro.engine.heapfile import HeapFile, encode_chunk, rows_per_page
from repro.engine.page import SlottedPage
from repro.engine.record import Schema, synthetic_schema
from repro.engine.table import Table
from repro.errors import PageError, StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.util.units import KB, MB

pytestmark = pytest.mark.faults

SCHEMA = Schema([("key", "u32"), ("name", "s10"), ("qty", "i64"), ("price", "f64")])


#: The one read path, by the name these tests' ids have carried since the
#: suite also ran on a second one.
ONE_PATH = pytest.mark.parametrize("path", ["kernels"])


# ------------------------------------------------------------------ scenario
class System:
    """One MaSM engine over a small table, its devices recording every
    operation once :meth:`trace` is called."""

    def __init__(self, rows, page_size, chunk_pages, partition_blocks, with_log=False):
        self.disk = StorageVolume(SimulatedDisk(capacity=32 * MB))
        self.ssd = StorageVolume(SimulatedSSD(capacity=8 * MB))
        self.table = Table.create(
            self.disk,
            "t",
            SCHEMA,
            rows,
            page_size=page_size,
            io_chunk=chunk_pages * page_size,
            slack=3.0,
        )
        self.table.bulk_load(record(2 * i, 0) for i in range(rows))
        config = MaSMConfig(
            alpha=1.0,
            ssd_page_size=4 * KB,
            block_size=1 * KB,
            auto_migrate=False,
            kernel_blocks_per_partition=partition_blocks,
        )
        self.masm = MaSM(self.table, self.ssd, config=config)
        if with_log:
            self.masm.attach_log(RedoLog(self.ssd.create("wal", 1 * MB)))
        self.ops: list[tuple] = []
        self.stamped = 0  # pages stamped ahead of updates cached for them

    def trace(self) -> None:
        for name, volume in (("disk", self.disk), ("ssd", self.ssd)):
            store = volume.device.store

            def read(offset, size, _name=name, _read=store.read):
                self.ops.append((_name, "r", offset, size))
                return _read(offset, size)

            def write(offset, data, _name=name, _write=store.write):
                self.ops.append((_name, "w", offset, len(data)))
                return _write(offset, data)

            store.read, store.write = read, write

    def device_ops(self, name: str) -> list[tuple]:
        return [op[1:] for op in self.ops if op[0] == name]

    def heap_state(self) -> tuple:
        heap = self.table.heap
        return (
            heap.file.peek(0, heap.file.size),
            heap.num_pages,
            self.table.index.entries(),
            self.table.row_count,
        )


def record(key: int, version: int) -> tuple:
    return (key, f"n{key % 997}-{version}", key * 3 - version, version / 4)


def drive(system: System, seed: int, rows: int, steps: int, mix: str, flushes: int) -> None:
    """A seeded history: in-place edits that leave pages tombstoned or out of
    key order, updates of every type with same-key chains spread over
    ``flushes`` runs, a partial migration in between, and a few pages
    stamped ahead of updates still cached for them."""
    rng = random.Random(seed)
    masm, table = system.masm, system.table
    live = set(range(0, 2 * rows, 2))
    insert_share = {"grow": 0.7, "shrink": 0.1, "mixed": 0.35}[mix]
    delete_share = {"grow": 0.1, "shrink": 0.6, "mixed": 0.3}[mix]

    for _ in range(rng.randrange(6)):  # tombstones and appended slots
        key = rng.choice(sorted(live))
        table.delete_in_place(key, timestamp=masm.oracle.next())
        live.discard(key)
        if rng.random() < 0.5:
            table.insert_in_place(record(key, 1), timestamp=masm.oracle.next())
            live.add(key)

    def update(step: int) -> None:
        roll = rng.random()
        odd = rng.randrange(rows + rows // 3) * 2 + 1
        if roll < insert_share and odd not in live:
            masm.insert(record(odd, step))
            live.add(odd)
            if rng.random() < 0.2:  # insert then modify: folded into the insert
                masm.modify(odd, {"qty": step})
        elif roll < insert_share + delete_share and live:
            key = rng.choice(sorted(live))
            masm.delete(key)
            live.discard(key)
            if rng.random() < 0.3:  # delete then insert: REPLACE
                masm.insert(record(key, step))
                live.add(key)
        elif live:
            key = rng.choice(sorted(live))
            masm.modify(key, {"name": f"m{step}"} if rng.random() < 0.5 else
                        {"qty": -step, "price": step * 0.5})

    for flush in range(flushes):
        for step in range(steps):
            update(flush * steps + step)
        masm.flush_buffer()
        if flush == 0 and rng.random() < 0.5 and masm.runs:
            lo = rng.randrange(2 * rows)
            migrate_range(masm, lo, lo + rows // 2)
    for step in range(rng.randrange(steps // 2 + 1)):  # left in the buffer
        update(flushes * steps + step)

    # Partly migrated pages: a page timestamp ahead of updates cached for it.
    heap = table.heap
    system.stamped = rng.randrange(4)
    for _ in range(system.stamped):
        page_no = rng.randrange(heap.num_pages)
        page = heap.read_page(page_no)
        page.timestamp = max(page.timestamp, rng.randrange(1, masm.oracle.next() + 1))
        heap.write_page(page_no, page)


def twins(seed, rows, steps, mix, flushes, page_size, chunk_pages, partition_blocks,
          with_log=False):
    systems = []
    for _ in range(2):
        system = System(rows, page_size, chunk_pages, partition_blocks, with_log)
        drive(system, seed, rows, steps, mix, flushes)
        system.trace()
        systems.append(system)
    assert systems[0].heap_state() == systems[1].heap_state()
    return systems


def assert_same_migration(new: System, old: System) -> None:
    combined = CoordinatedMigration(new.masm)
    got = list(combined)
    expected, expected_stats = ref.reference_full_migration(old.masm)
    assert got == expected
    assert combined.stats == expected_stats
    assert new.heap_state() == old.heap_state()
    for device in ("disk", "ssd"):
        assert new.device_ops(device) == old.device_ops(device)
    assert not new.masm.runs and not old.masm.runs
    # The rewritten table alone is the fresh view.
    assert list(new.table.range_scan(*new.table.full_key_range())) == got


# ------------------------------------------------------------ property suite
@ONE_PATH
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    rows=st.integers(20, 400),
    steps=st.integers(1, 150),
    mix=st.sampled_from(["grow", "shrink", "mixed"]),
    flushes=st.integers(1, 3),
    page_size=st.sampled_from([512, 1024, 4096]),
    chunk_pages=st.sampled_from([1, 2, 3, 8]),
    partition_blocks=st.sampled_from([2, 6, 32]),
)
def test_full_migration_equals_the_per_record_rewrite(
    path, seed, rows, steps, mix, flushes, page_size, chunk_pages, partition_blocks
):
    new, old = twins(seed, rows, steps, mix, flushes, page_size, chunk_pages, partition_blocks)
    # With nothing cached a coordinated migration is a plain scan.
    assume(new.masm.runs or new.masm.buffer.count)
    assert_same_migration(new, old)


@ONE_PATH
@pytest.mark.parametrize("mix", ["grow", "shrink"])
def test_growth_and_shrink_across_many_chunks(path, mix):
    """Enough pages per migration that write-behind blocks on the read
    frontier (growth) and the heap's tail is released (shrink)."""
    new, old = twins(7, 1500, 700, mix, 2, 1024, 2, 6)
    pages_before = new.table.heap.num_pages
    assert_same_migration(new, old)
    pages_after = new.table.heap.num_pages
    writes = [op for op in new.device_ops("disk") if op[0] == "w"]
    assert len(writes) > 20
    if mix == "grow":
        assert pages_after > pages_before
    else:
        assert pages_after < pages_before
        # heap.truncate zeroed the released tail.
        heap = new.table.heap
        tail = heap.file.peek(
            pages_after * heap.page_size, (pages_before - pages_after) * heap.page_size
        )
        assert not any(tail)


def test_quarantined_runs_take_the_same_rewrite():
    """Every run quarantined: the merge has no run to partition by, so each
    record stream (redo-log replay) is encoded whole and joined as arrays."""
    new, old = twins(3, 300, 120, "mixed", 2, 1024, 2, 6, with_log=True)
    for system in (new, old):
        assert system.masm.runs
        for run in system.masm.runs:
            run.quarantine("test")
    assert_same_migration(new, old)


def test_an_emptied_table_keeps_one_empty_page():
    new, old = twins(1, 40, 1, "mixed", 1, 512, 2, 6)
    for system in (new, old):
        for record_ in list(system.masm.range_scan(0, 2**62)):
            system.masm.delete(record_[0])
    assert_same_migration(new, old)
    assert new.table.row_count == 0
    assert new.table.heap.num_pages == 1
    assert new.table.index.entries() == [(0, 0)]


def test_migrate_all_counts_one_emit_per_output_page():
    from repro.storage.faults import FaultPlan, use_fault_plan

    new, _ = twins(5, 600, 200, "mixed", 2, 1024, 2, 6)
    plan = FaultPlan().crash_at("migration.emit", occurrence=10**9)
    with use_fault_plan(plan):
        stats = migrate_all(new.masm)
    assert plan._crash_hits["migration.emit"] == stats.pages_written
    assert stats.pages_written == new.table.heap.num_pages


# --------------------------------------------------------- partial migration
def page_timestamps(system: System) -> list[int]:
    heap = system.table.heap
    data = heap.file.peek(0, heap.num_pages * heap.page_size)
    return np.ndarray(heap.num_pages, "<u8", data, 0, (heap.page_size,)).tolist()


def fresh_rows(system: System) -> list:
    return list(system.masm.range_scan(*system.table.full_key_range()))


def migrate_twins(new: System, old: System, run_new, run_old) -> bool:
    """Run one migration on each twin and compare what they leave.

    The two agree exactly — stats, table rows, index, page timestamps, each
    device's operations, the runs left cached, the fresh view — unless the
    reference found a page full that the change did not (full only for
    tombstoned slot entries, or because it inserted before it deleted) and
    deferred it, or split it if it was the tail: the fresh view must still
    agree, and False tells the caller the twins have parted.  A page stamped ahead of inserts it does not hold (a state
    only :func:`drive` makes) is the exception: the migration skips those
    inserts as already applied, where the reference left them cached."""
    new.ops.clear()
    old.ops.clear()
    got, expected = run_new(), run_old()
    if got is None or expected is None:
        assert got == expected
    else:
        assert got.inserts_deferred <= expected.inserts_deferred
        assert new.table.heap.num_pages <= old.table.heap.num_pages
        if (
            got.inserts_deferred < expected.inserts_deferred
            or new.table.heap.num_pages < old.table.heap.num_pages
        ):
            if not new.stamped:
                assert fresh_rows(new) == fresh_rows(old)
            return False
        assert got == expected
    for device in ("disk", "ssd"):
        assert new.device_ops(device) == old.device_ops(device)
    assert new.table.index.entries() == old.table.index.entries()
    assert (new.table.row_count, new.table.heap.num_pages) == (
        old.table.row_count, old.table.heap.num_pages,
    )
    assert page_timestamps(new) == page_timestamps(old)
    assert [run.name for run in new.masm.runs] == [run.name for run in old.masm.runs]
    full = new.table.full_key_range()
    assert list(new.table.range_scan(*full)) == list(old.table.range_scan(*full))
    assert fresh_rows(new) == fresh_rows(old)
    return True


def range_twins(new: System, old: System, lo: int, hi: int) -> bool:
    return migrate_twins(
        new, old,
        lambda: migrate_range(new.masm, lo, hi),
        lambda: ref.migrate_range(old.masm, lo, hi),
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    rows=st.integers(20, 400),
    steps=st.integers(1, 150),
    mix=st.sampled_from(["grow", "shrink", "mixed"]),
    flushes=st.integers(1, 3),
    page_size=st.sampled_from([512, 1024, 2048, 4096]),
    chunk_pages=st.sampled_from([1, 2, 8]),
    partition_blocks=st.sampled_from([2, 6, 32]),
    data=st.data(),
)
def test_partial_migration_equals_the_page_rmw_reference(
    seed, rows, steps, mix, flushes, page_size, chunk_pages, partition_blocks, data
):
    """Random ranges, one after another, until the twins part or the runs
    are gone."""
    new, old = twins(seed, rows, steps, mix, flushes, page_size, chunk_pages, partition_blocks)
    new.masm.flush_buffer()
    old.masm.flush_buffer()
    for _ in range(data.draw(st.integers(1, 4))):
        lo = data.draw(st.integers(0, 2 * rows + rows // 2))
        hi = lo + data.draw(st.integers(0, 2 * rows)) if data.draw(st.booleans()) else 2**40
        if not range_twins(new, old, lo, hi):
            event("parted")
            break
        event("exact")


def flood_tail(system: System, rows: int, count: int) -> None:
    """Appends past the last key plus deletes and modifies on the last
    page: the physically-last page owns all of them."""
    masm = system.masm
    for i in range(count):
        masm.insert(record(4 * rows + 2 * i + 1, i))
    masm.delete(2 * rows - 2)
    masm.modify(2 * rows - 4, {"qty": -1})
    masm.flush_buffer()


@pytest.mark.parametrize("page_size", [512, 1024, 4096])
@pytest.mark.parametrize("count", [3, 40, 200])
def test_the_tail_split_equals_the_reference(page_size, count):
    """The last page absorbs an append flood in place, or splits into
    appended half-full pages — the same pages, timestamps, index entries and
    single-page writes (appended pages first, the head page last) as the
    reference."""
    rows = 200
    new, old = twins(0, rows, 1, "mixed", 1, page_size, 2, 6)
    for system in (new, old):
        flood_tail(system, rows, count)
    pages_before = new.table.heap.num_pages
    assert range_twins(new, old, 2 * rows - 10, 2**40)
    if count == 200:
        split = new.table.heap.num_pages - pages_before
        assert split > 1
        writes = [op for op in new.device_ops("disk") if op[0] == "w"]
        assert [offset // page_size for _, offset, _ in writes][-split - 1:] == [
            *range(pages_before, pages_before + split), pages_before - 1,
        ]
        assert {size for _, _, size in writes} == {page_size}


def test_the_tail_split_defers_when_the_extent_is_full():
    rows = 200
    new, old = twins(0, rows, 1, "mixed", 1, 512, 2, 6)
    for system in (new, old):
        flood_tail(system, rows, 3000)
    stats_before = new.table.heap.num_pages
    assert range_twins(new, old, 2 * rows - 10, 2**40)
    assert new.table.heap.num_pages == stats_before
    assert new.masm.runs


@pytest.mark.parametrize("mix", ["grow", "shrink", "mixed"])
def test_masm_migrate_under_an_open_scan_equals_the_reference(mix, monkeypatch):
    """``MaSM.migrate`` with a scan in flight takes the range path over the
    whole key space: runs newer than the scan stay cached, the tail is not
    split, and the scan still returns its snapshot — the reference's."""
    import repro.core.migration as migration

    new, old = twins(11, 300, 120, mix, 2, 1024, 2, 6)
    scans = []
    for system in (new, old):
        system.masm.flush_buffer()
        scans.append(system.masm.range_scan(0, 2**31))
        for i in range(40):
            system.masm.insert(record(4 * 300 + 2 * i + 1, i))
        system.masm.modify(4, {"qty": 0})
        system.masm.flush_buffer()
    def migrate(system, migrate_range):
        """``system.masm.migrate()`` with ``migrate_range`` as its range
        path; what that returned."""
        returned = []

        def spy(*args, **kwargs):
            returned.append(migrate_range(*args, **kwargs))
            return returned[-1]

        with monkeypatch.context() as patch:
            patch.setattr(migration, "migrate_range", spy)
            system.masm.migrate()
        (stats,) = returned
        return stats

    exact = migrate_twins(
        new, old,
        lambda: migrate(new, migration.migrate_range),
        lambda: migrate(old, ref.migrate_range),
    )
    # Growth fills pages the in-place edits left tombstoned: the reference
    # defers some of them, the change applies them (the fresh view agrees).
    assert exact or mix == "grow"
    assert new.masm.runs  # the runs newer than the scan
    assert list(scans[0]) == list(scans[1])


# ------------------------------------------------------------ copy migration
def copy_twin(rows, page_size, chunk_pages, seed, steps, mix):
    """An in-memory differential engine over a small table, ``steps``
    seeded updates buffered, its disk recording every operation."""
    from repro.baselines.memdiff import InMemoryDifferential

    disk = StorageVolume(SimulatedDisk(capacity=32 * MB))
    table = Table.create(
        disk, "t", SCHEMA, rows, page_size=page_size, io_chunk=chunk_pages * page_size,
        slack=2.0,
    )
    table.bulk_load(record(2 * i, 0) for i in range(rows))
    engine = InMemoryDifferential(table, memory_bytes=1 << 30, auto_migrate=False)
    rng = random.Random(seed)
    live = set(range(0, 2 * rows, 2))
    insert_share = {"grow": 0.7, "shrink": 0.1, "mixed": 0.35}[mix]
    for step in range(steps):
        roll = rng.random()
        key = rng.randrange(rows + rows // 2) * 2 + 1
        if roll < insert_share and key not in live:
            engine.insert(record(key, step))
            live.add(key)
        elif roll < (1 + insert_share) / 2 and live:
            key = rng.choice(sorted(live))
            engine.delete(key)
            live.discard(key)
        elif live:
            engine.modify(rng.choice(sorted(live)), {"qty": -step, "name": f"m{step}"})
    ops = []
    store = disk.device.store

    def read(offset, size, _read=store.read):
        ops.append(("r", offset, size))
        return _read(offset, size)

    def write(offset, data, _write=store.write):
        ops.append(("w", offset, len(data)))
        return _write(offset, data)

    store.read, store.write = read, write
    return engine, ops


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 600),
    page_size=st.sampled_from([512, 1024, 2048, 4096]),
    chunk_pages=st.sampled_from([1, 2, 8]),
    seed=st.integers(0, 2**20),
    steps=st.integers(1, 400),
    mix=st.sampled_from(["grow", "shrink", "mixed"]),
)
def test_copy_migration_equals_the_per_record_copy(rows, page_size, chunk_pages, seed, steps, mix):
    """``InMemoryDifferential.migrate`` through ``rewrite_heap`` writes the
    copy the per-record loop wrote: the same bytes, index, stats and disk
    operations."""
    assert_same_copy(rows, page_size, chunk_pages, seed, steps, mix)


@pytest.mark.parametrize("mix", ["grow", "shrink"])
def test_a_growing_copy_is_written_ahead_of_the_reads(mix):
    """The copy is another file: its writes never wait for the read
    frontier, so growth writes each chunk as soon as it closes."""
    assert_same_copy(600, 512, 1, 5, 400, mix)


def assert_same_copy(rows, page_size, chunk_pages, seed, steps, mix):
    (new, new_ops), (old, old_ops) = (
        copy_twin(rows, page_size, chunk_pages, seed, steps, mix) for _ in range(2)
    )
    got = new.migrate()
    expected = ref.reference_copy_migrate(old)
    assert got == expected
    assert new_ops == old_ops
    for engine in (new, old):
        assert engine.table.heap.file.name == "t-copy-0"
    heaps = [engine.table.heap for engine in (new, old)]
    assert heaps[0].num_pages == heaps[1].num_pages
    assert heaps[0].file.peek(0, heaps[0].file.size) == heaps[1].file.peek(0, heaps[1].file.size)
    assert new.table.index.entries() == old.table.index.entries()
    assert new.table.row_count == old.table.row_count
    assert list(new.range_scan(0, 2**31)) == list(old.range_scan(0, 2**31))


# ------------------------------------------------------------- chunk encoder
@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(0, 120),
    page_size=st.sampled_from([256, 512, 4096]),
    fill=st.sampled_from([0.5, 0.9, 1.0]),
    data=st.data(),
)
def test_encode_chunk_is_insert_plus_to_bytes(rows, page_size, fill, data):
    per_page = rows_per_page(page_size, SCHEMA.record_size, fill)
    records = [record(i, i % 5) for i in range(rows)]
    array = np.frombuffer(SCHEMA.pack_many(records), dtype=SCHEMA.dtype)
    pages = max(1, -(-rows // per_page))
    stamps = data.draw(st.lists(st.integers(0, 2**63), min_size=pages, max_size=pages))
    expected = b""
    for page_no in range(pages):
        page = SlottedPage(page_size, timestamp=stamps[page_no])
        for r in records[page_no * per_page : (page_no + 1) * per_page]:
            page.insert(SCHEMA.pack(r))
        expected += page.to_bytes()
    encoded = encode_chunk(array, np.array(stamps, dtype=np.uint64), per_page, page_size)
    assert encoded == expected
    with pytest.raises(PageError):
        encode_chunk(array, np.zeros(pages + 1, dtype=np.uint64), per_page, page_size)


# ----------------------------------------------------------------- bulk load
def heap_pair(schema, page_size, chunk_pages, capacity=2 * MB):
    heaps = []
    for _ in range(2):
        volume = StorageVolume(SimulatedDisk(capacity=4 * MB))
        heaps.append(
            HeapFile(
                volume.create("heap", capacity),
                schema,
                page_size=page_size,
                io_chunk=chunk_pages * page_size,
            )
        )
    return heaps


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(0, 700),
    page_size=st.sampled_from([512, 1024, 4096]),
    chunk_pages=st.sampled_from([1, 3, 16]),
    fill=st.sampled_from([0.3, 0.9, 1.0]),
    timestamp=st.integers(0, 2**40),
    duplicates=st.booleans(),
)
def test_bulk_load_equals_the_page_at_a_time_loader(
    rows, page_size, chunk_pages, fill, timestamp, duplicates
):
    new, old = heap_pair(SCHEMA, page_size, chunk_pages)
    step = 1 if duplicates else 2
    records = [record(i // step * 2, i) for i in range(rows)]
    writes = []
    for heap in (new, old):
        store = heap.file.device.store

        def write(offset, data, _write=store.write, _new=heap is new):
            writes.append((_new, offset, len(data)))
            return _write(offset, data)

        store.write = write
    entries = new.bulk_load(iter(records), fill_factor=fill, timestamp=timestamp)
    assert entries == ref.reference_bulk_load(old, iter(records), fill, timestamp)
    assert new.num_pages == old.num_pages
    assert new.file.peek(0, new.file.size) == old.file.peek(0, old.file.size)
    assert [w[1:] for w in writes if w[0]] == [w[1:] for w in writes if not w[0]]


def test_bulk_load_errors_are_the_loaders():
    new, old = heap_pair(SCHEMA, 512, 2)
    unordered = [record(2, 0), record(8, 0), record(6, 0)]
    for load in (new.bulk_load, lambda r: ref.reference_bulk_load(old, r)):
        with pytest.raises(StorageError, match=r"requires key order \(saw 6 after 8\)"):
            load(iter(unordered))
    # Out of order across two writes' worth of records.
    many = [record(2 * i, 0) for i in range(100)] + [record(4, 0)]
    with pytest.raises(StorageError, match=r"saw 4 after 198"):
        new.bulk_load(iter(many))
    wide = synthetic_schema(480)
    new, old = heap_pair(wide, 512, 2)
    for load in (new.bulk_load, lambda r: ref.reference_bulk_load(old, r)):
        with pytest.raises(PageError, match="record of 480 bytes exceeds page budget 439"):
            load(iter([(1, "x")]))
    new, old = heap_pair(SCHEMA, 512, 2, capacity=4 * KB)
    with pytest.raises(StorageError, match="overflow"):
        new.bulk_load(record(2 * i, 0) for i in range(500))


# ------------------------------------------------------------- golden traces
GOLDEN_ROWS = 3000


def golden_system(insert_share: float, seed: int):
    disk = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(
        disk, "golden", synthetic_schema(), GOLDEN_ROWS, io_chunk=16 * KB, slack=1.0
    )
    table.bulk_load((i * 2, f"rec-{i}") for i in range(GOLDEN_ROWS))
    config = MaSMConfig(
        alpha=1.0,
        ssd_page_size=4 * KB,
        block_size=1 * KB,
        auto_migrate=False,
        kernel_blocks_per_partition=6,
    )
    masm = MaSM(table, ssd, config=config)
    rng = random.Random(seed)
    live = set(range(0, 2 * GOLDEN_ROWS, 2))
    for _ in range(3):
        for _ in range(300):
            roll = rng.random()
            if roll < insert_share:
                key = rng.randrange(GOLDEN_ROWS + 200) * 2 + 1
                if key not in live:
                    masm.insert((key, f"new-{key}"))
                    live.add(key)
            elif roll < insert_share + (1 - insert_share) / 2:
                key = rng.choice(sorted(live))
                masm.delete(key)
                live.discard(key)
            else:
                masm.modify(
                    rng.choice(sorted(live)), {"payload": f"mod-{rng.randrange(10**6)}"}
                )
        masm.flush_buffer()
    return masm, disk, ssd


def chunk_ops(*runs):
    """``(op, first chunk, count)`` runs expanded to 16 KB disk operations."""
    return [
        (op, chunk * 16 * KB, 16 * KB)
        for op, first, count in runs
        for chunk in range(first, first + count)
    ]


def interleaved(first: int, count: int, lag: int):
    """Read chunk ``i`` then write chunk ``i - lag``, for ``count`` reads."""
    ops = []
    for chunk in range(first, first + count):
        ops += [("r", chunk * 16 * KB, 16 * KB), ("w", (chunk - lag) * 16 * KB, 16 * KB)]
    return ops


#: Disk operations of ``migrate_all`` over ``golden_system``, as issued by the
#: parent commit: (insert share, seed) -> (operations, pages read, pages
#: written, rows after, SHA-256 of the heap file).
GOLDEN = {
    # Shrinking table: writes trail the reads by one chunk, then by two; the
    # last read is 3 pages, the last write 3 pages, then truncate zeroes 4.
    (0.2, 5): (
        [("r", 0, 16 * KB)]
        + interleaved(1, 17, 1)
        + [("r", 18 * 16 * KB, 16 * KB)]
        + interleaved(19, 3, 2)
        + [("r", 22 * 16 * KB, 12 * KB), ("w", 20 * 16 * KB, 16 * KB)]
        + [("w", 21 * 16 * KB, 12 * KB), ("w", 87 * 4 * KB, 16 * KB)],
        91, 87, 2846,
        "287fe9c250c6d513329e039b32bb4ee43b04a6138003d962384c4d6595c46bb0",
    ),
    # Growing table: every write waits for the read frontier to pass it, and
    # the pages past the old end go out after the last read.
    (0.8, 6): (
        interleaved(0, 22, 0)
        + [("r", 22 * 16 * KB, 12 * KB)]
        + chunk_ops(("w", 22, 5)),
        91, 108, 3539,
        "7742d37b766331dc38ac8b307db6ba888f38736664a1d6dca02054c45aefca1f",
    ),
}


@ONE_PATH
@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_migration_issues_the_disk_operations_recorded_at_the_parent_commit(scenario, path):
    expected_ops, pages_read, pages_written, rows_after, digest = GOLDEN[scenario]
    masm, disk, ssd = golden_system(*scenario)
    store = disk.device.store
    ops = []

    def read(offset, size, _read=store.read):
        ops.append(("r", offset, size))
        return _read(offset, size)

    def write(offset, data, _write=store.write):
        ops.append(("w", offset, len(data)))
        return _write(offset, data)

    store.read, store.write = read, write
    stats = migrate_all(masm)
    del store.read, store.write
    assert ops == expected_ops
    assert (stats.pages_read, stats.pages_written, stats.rows_after) == (
        pages_read, pages_written, rows_after,
    )
    heap = masm.table.heap
    assert hashlib.sha256(heap.file.peek(0, heap.file.size)).hexdigest() == digest
