"""The columnar write path against its record-at-a-time references.

An update is encoded once and those bytes travel from ``apply`` through the
memory buffer, the flush and the block writer.  Over random schemas, update
mixes and block sizes:

* ``write_run`` (blocks packed from the length column of encoded updates)
  leaves the same run file, run index, run metadata and device writes as the
  per-record loop in ``reference_run_writer`` — whether it is handed
  records, columns that already lie in (key, ts) order, or columns permuted
  over a buffer in arrival order — and refuses the same inputs with the same
  words, before writing anything;
* a flush with ``merge_duplicates_on_flush`` folds exactly the chains the
  pairwise reference combines under the active scans' timestamps, to the
  same bytes, and a run merge's fold of rows in merge order does too;
* ``InMemoryUpdateBuffer`` behaves like a plain sorted list through random
  interleavings of appends (stragglers included), batched reads, sorts,
  drains and capacity changes, its epochs included, and a scan that began
  before a flush finishes from the run of *that* flush, on both the record
  and the columnar read path.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_run_writer as ref
from reference_operators import buffered_records
from test_prop_codec import record_strategy, schemas, value_strategy
from repro.core import kernels
from repro.core.masm import MaSM, MaSMConfig
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.operators import MemScan
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import Schema
from repro.engine.table import Table
from repro.errors import StorageError, UpdateCacheFullError
from repro.storage import checksum
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

KEY_MAX = 2**63 - 1


# --------------------------------------------------------------- the writer
@st.composite
def schema_and_sorted_updates(draw, min_size=1):
    """(schema, updates in (key, ts) order): every update type, keys from a
    small pool so that same-key chains occur, MODIFYs of any field subset."""
    fields, key = draw(schemas())
    key_at = [name for name, _ in fields].index(key)
    pool = draw(st.lists(value_strategy(fields[key_at][1]), min_size=1, max_size=8))
    updates = []
    for _ in range(draw(st.integers(min_size, 60))):
        utype = draw(st.sampled_from(list(UpdateType)))
        update_key = draw(st.sampled_from(pool))
        content = None
        if utype in (UpdateType.INSERT, UpdateType.REPLACE):
            record = list(draw(record_strategy(fields)))
            record[key_at] = update_key
            content = tuple(record)
        elif utype is UpdateType.MODIFY:
            changed = draw(st.lists(st.sampled_from(fields), unique=True, max_size=len(fields)))
            content = {name: draw(value_strategy(code)) for name, code in changed}
        updates.append(
            UpdateRecord(draw(st.integers(0, KEY_MAX)), update_key, utype, content)
        )
    updates.sort(key=UpdateRecord.sort_key)
    return Schema(fields, key=key), updates


def fresh_volume() -> StorageVolume:
    return StorageVolume(SimulatedSSD(capacity=4 * MB))


def run_facts(run) -> tuple:
    """Everything a writer decides: the file, the index and the metadata."""
    return (
        run.file.size,
        run.file.peek(0, run.file.size),
        [run.index.first_key_of_block(b) for b in range(run.index.num_blocks)],
        run.num_blocks,
        run.count,
        (run.min_key, run.max_key, run.min_ts, run.max_ts),
        (run.covered_min_ts, run.covered_max_ts),
        run.passes,
    )


def device_writes(volume: StorageVolume) -> tuple:
    stats = volume.device.stats
    return stats.writes, stats.bytes_written


def smallest_block(codec: UpdateCodec, updates) -> int:
    """The smallest block that holds the largest of ``updates``."""
    return max(map(codec.encoded_size, updates)) + 4 + checksum.TRAILER_SIZE


@settings(max_examples=150, deadline=None)
@given(
    schema_and_sorted_updates(),
    st.integers(0, 300),  # block bytes beyond the smallest legal block
    st.booleans(),  # size_hint on/off
    st.integers(1, 4),  # blocks per write with a size hint
    st.randoms(use_true_random=False),
)
@example(
    # 21 + 24 bytes against a 44-byte block budget: one byte too many for one
    # block, and with a write chunk of one block the hinted run is two writes.
    (
        Schema([("key", "u32"), ("c", "s1")], key="key"),
        [
            UpdateRecord(1, 7, UpdateType.DELETE, None),
            UpdateRecord(2, 7, UpdateType.MODIFY, {"c": "x"}),
        ],
    ),
    20,
    True,
    1,
    random.Random(0),
)
@example(
    # Two 21-byte updates fill a 42-byte budget exactly: one block, not two.
    (
        Schema([("key", "u32")], key="key"),
        [UpdateRecord(1, 7, UpdateType.DELETE, None), UpdateRecord(2, 8, UpdateType.DELETE, None)],
    ),
    21,
    False,
    1,
    random.Random(0),
)
def test_write_run_matches_the_record_at_a_time_writer(case, slack, hinted, per_write, rng):
    schema, updates = case
    codec = UpdateCodec(schema)
    block_size = smallest_block(codec, updates) + slack
    options = dict(block_size=block_size, write_chunk=per_write * block_size, passes=2)
    if hinted:
        options["size_hint"] = (len(updates) + 1) * block_size
    # Arrival order differs from (key, ts) order: the sorted rows are a
    # permutation over the buffer and the writer has to gather them.
    arrival = list(updates)
    rng.shuffle(arrival)
    resorted = sorted(arrival, key=UpdateRecord.sort_key)  # stable, as the buffer's sort
    for records, source in (
        (updates, codec.encode_columns(updates)),
        (resorted, codec.encode_columns(arrival).sorted()),
    ):
        expected_volume = fresh_volume()
        expected = ref.reference_write_run(expected_volume, "run", iter(records), codec, **options)
        volume = fresh_volume()
        run = write_run(volume, "run", source, codec, **options)
        assert run_facts(run) == run_facts(expected)
        assert device_writes(volume) == device_writes(expected_volume)
        assert list(run.scan(0, 2**64)) == records


@settings(max_examples=150, deadline=None)
@given(
    schema_and_sorted_updates(min_size=2),
    st.lists(st.floats(0, 1), max_size=2),  # neighbours to swap, as fractions
    st.none() | st.floats(0, 1),  # shrink the block below this update's size
    st.booleans(),  # no updates at all
    st.booleans(),  # size_hint on/off
)
@example(  # one key, timestamps out of order
    (
        Schema([("key", "u32")], key="key"),
        [
            UpdateRecord(1, 7, UpdateType.DELETE, None),
            UpdateRecord(2, 7, UpdateType.DELETE, None),
            UpdateRecord(3, 9, UpdateType.DELETE, None),
        ],
    ),
    [0.0],
    None,
    False,
    False,
)
@example(  # the block is one byte short of the INSERT
    (
        Schema([("key", "u32"), ("c", "s3")], key="key"),
        [UpdateRecord(1, 7, UpdateType.DELETE, None), UpdateRecord(2, 8, UpdateType.INSERT, (8, "abc"))],
    ),
    [],
    1.0,
    False,
    True,
)
def test_write_run_refuses_what_the_reference_refuses(case, swaps, shrink, empty, hinted):
    """Out-of-order input, an update larger than a block and no input at
    all: the same ``StorageError`` text, whichever comes first in the
    stream, and the columnar writer leaves nothing on the volume."""
    schema, updates = case
    codec = UpdateCodec(schema)
    block_size = smallest_block(codec, updates)
    if shrink is not None:
        victim = updates[int(shrink * (len(updates) - 1))]
        block_size = min(block_size, codec.encoded_size(victim) + 4 + checksum.TRAILER_SIZE - 1)
    updates = list(updates)
    for fraction in swaps:  # may or may not leave the stream unsorted
        i = int(fraction * (len(updates) - 2))
        updates[i], updates[i + 1] = updates[i + 1], updates[i]
    if empty:
        updates = []
    options = dict(block_size=block_size, size_hint=64 * KB if hinted else None)
    outcomes = []
    for writer, source in (
        (ref.reference_write_run, iter(updates)),
        (write_run, codec.encode_columns(updates)),
    ):
        volume = fresh_volume()
        try:
            outcomes.append(run_facts(writer(volume, "run", source, codec, **options)))
        except StorageError as exc:
            outcomes.append(str(exc))
            assert writer is not write_run or "run" not in volume
    assert outcomes[1] == outcomes[0]
    if empty or shrink is not None:
        assert isinstance(outcomes[0], str)


# ------------------------------------------------- duplicate merge at flush
#: Field names out of index order: a merged MODIFY lists its pairs by name.
FOLD_SCHEMA = Schema([("key", "u32"), ("zeta", "s6"), ("alpha", "u32"), ("mid", "f64")])
fold_values = {
    "zeta": st.text("ab", max_size=3),
    "alpha": st.integers(0, 9),
    "mid": st.sampled_from([0.0, 1.5, -2.0]),
}


@st.composite
def fold_steps(draw):
    """Updates to a handful of keys, with scans opened between them."""
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 5)) == 0:
            steps.append("scan")
            continue
        key = draw(st.integers(0, 3))
        utype = draw(st.sampled_from(list(UpdateType)))
        content = None
        if utype in (UpdateType.INSERT, UpdateType.REPLACE):
            content = (key, *(draw(fold_values[name]) for name in ("zeta", "alpha", "mid")))
        elif utype is UpdateType.MODIFY:
            names = draw(st.lists(st.sampled_from(sorted(fold_values)), unique=True))
            content = {name: draw(fold_values[name]) for name in names}
        steps.append((key, utype, content))
    return steps


def small_engine(**config) -> MaSM:
    disk = StorageVolume(SimulatedDisk(capacity=64 * MB))
    table = Table.create(disk, "t", FOLD_SCHEMA, 16)
    table.bulk_load([(8 + i, "", 0, 0.0) for i in range(8)])
    ssd = StorageVolume(SimulatedSSD(capacity=8 * MB))
    return MaSM(table, ssd, MaSMConfig(block_size=1 * KB, auto_migrate=False, **config))


@settings(max_examples=150, deadline=None)
@given(fold_steps())
def test_flush_folds_the_chains_the_pairwise_merge_combines(steps):
    masm = small_engine(merge_duplicates_on_flush=True)
    applied, scans = [], []
    for step in steps:
        if step == "scan":
            scans.append(masm.range_scan(0, 1))  # registers at once
            continue
        key, utype, content = step
        applied.append(UpdateRecord(masm.oracle.next(), key, utype, content))
        masm.apply(applied[-1])
    scan_timestamps = sorted(masm._active_scans.values())
    assert len(scan_timestamps) == len(scans)
    run = masm.flush_buffer()
    for scan in scans:
        scan.close()
    if not applied:
        assert run is None
        return
    expected = ref.reference_merge_duplicates(
        sorted(applied, key=UpdateRecord.sort_key), scan_timestamps, FOLD_SCHEMA
    )
    assert list(run.scan(0, KEY_MAX)) == expected
    assert masm.stats.duplicates_merged == len(applied) - len(expected)
    # The raw span is what the log would have to replay, not the folded one.
    assert (run.covered_min_ts, run.covered_max_ts) == (
        applied[0].timestamp,
        applied[-1].timestamp,
    )
    rewritten = ref.reference_write_run(
        fresh_volume(), run.name, expected, masm.codec, block_size=1 * KB
    )
    assert run.file.peek(0, run.file.size) == rewritten.file.peek(0, rewritten.file.size)


@settings(max_examples=150, deadline=None)
@given(fold_steps(), st.lists(st.integers(0, 45), max_size=4), st.integers(1, 4))
# A fold that leaves one empty MODIFY in a block of no payload bytes.
@example(
    steps=[(0, UpdateType.DELETE, None), (0, UpdateType.MODIFY, {})], readers=[], sources=2
)
def test_a_merge_folds_permuted_rows_like_the_pairwise_merge(steps, readers, sources):
    """A run merge folds rows that are not in buffer order: the k-way
    merge's ``(rows, order)`` pair, or the permuted rows themselves.  Both
    fold exactly like the reference, under readers pinned at any ts — an
    update's own included."""
    updates = [step for step in steps if step != "scan"]
    applied = [
        UpdateRecord(ts, key, utype, content)
        for ts, (key, utype, content) in enumerate(updates, start=1)
    ]
    if not applied:
        return
    masm = small_engine()
    for ts in readers:
        masm.pin(ts)
    size = -(-len(applied) // sources)
    parts = [
        masm.codec.encode_columns(
            sorted(applied[lo : lo + size], key=UpdateRecord.sort_key)
        )
        for lo in range(0, len(applied), size)
    ]
    expected = ref.reference_merge_duplicates(
        sorted(applied, key=UpdateRecord.sort_key), readers, FOLD_SCHEMA
    )
    assert masm._merge_duplicates(kernels.merge_sorted(parts)).records == expected
    assert masm._merge_duplicates(*kernels.merge_order(parts)).records == expected
    assert masm.stats.duplicates_merged == 2 * (len(applied) - len(expected))


# ---------------------------------------------------------- the buffer model
BUFFER_SCHEMA = Schema([("key", "u32"), ("payload", "s8")])
BUFFER_CODEC = UpdateCodec(BUFFER_SCHEMA)
KEYS = st.integers(0, 12)

BUFFER_OPS = st.one_of(
    # (key, kind, straggler): a straggler's timestamp is below its
    # predecessors' (arrival order is not timestamp order).
    st.tuples(st.just("append"), KEYS, st.sampled_from("idm"), st.sampled_from([0, 0, 13, 27])),
    st.tuples(st.just("read"), KEYS, KEYS, st.integers(0, 40)),
    st.tuples(st.just("sort")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("shrink"), st.integers(-40, 200)),
    st.tuples(st.just("scan"), KEYS, KEYS, st.integers(0, 40), st.integers(0, 4), KEYS),
)


class ListModel:
    """The buffer as a plain list: arrival order until someone reads."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: list[UpdateRecord] = []
        self.bytes = 0
        self.sort_epoch = 0
        self.flush_epoch = 0

    def sort(self) -> None:
        ordered = sorted(self.entries, key=UpdateRecord.sort_key)  # stable
        if any(a is not b for a, b in zip(ordered, self.entries)):
            self.sort_epoch += 1
        self.entries = ordered

    def visible(self, begin: int, end: int, query_ts: int) -> list[UpdateRecord]:
        self.sort()  # as every reader of the buffer does
        return [u for u in self.entries if begin <= u.key <= end and u.timestamp <= query_ts]


def make_update(ts: int, key: int, kind: str) -> UpdateRecord:
    if kind == "i":
        return UpdateRecord(ts, key, UpdateType.INSERT, (key, f"v{ts}"))
    if kind == "d":
        return UpdateRecord(ts, key, UpdateType.DELETE, None)
    return UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"m{ts}"})


class OpenScan:
    """A MemScan begun at some point of the run, read as records (one
    snapshot at the first pull) or a key partition at a time by column, and
    what it has to deliver whatever happens to the buffer meanwhile."""

    def __init__(self, buffer, model, runs, begin, end, query_ts, pulls, split) -> None:
        buffer.sort()  # whether or not the reads below reach the buffer
        self.expected = model.visible(begin, end, query_ts)
        scan = lambda: MemScan(  # noqa: E731
            buffer, begin, end, query_ts, run_for_flush=runs.get, flush_epoch=buffer.flush_epoch
        )
        self.records = iter(scan())
        self.columns = scan()
        self.got = [next(self.records) for _ in range(min(pulls, len(self.expected)))]
        # Two key partitions, the second unbounded as the kernel merge's is.
        self.parts = [(0, split), (split + 1, None)]
        self.sliced = self.take_partition()

    def take_partition(self) -> list[UpdateRecord]:
        columns = self.columns.slice_columns(*self.parts.pop(0))
        return columns.records if columns is not None else []

    def finish(self) -> None:
        assert self.got + list(self.records) == self.expected
        assert self.sliced + self.take_partition() == self.expected


@settings(max_examples=300, deadline=None)
@given(st.lists(BUFFER_OPS, max_size=50), st.integers(60, 400))
@example(
    # A straggler lands below sorted entries; the open scan must not lose
    # its place, and finishes from the run of the first flush after it.
    [
        ("append", 5, "i", 0),
        ("append", 3, "d", 0),
        ("sort",),
        ("scan", 0, 12, 0, 1, 4),
        ("append", 4, "m", 13),
        ("drain",),
        ("append", 1, "i", 0),
        ("drain",),
    ],
    400,
)
@example(
    # A straggler older than both sorted updates of its key goes before them.
    [
        ("append", 5, "i", 0),
        ("append", 5, "d", 0),
        ("sort",),
        ("append", 5, "m", 27),
        ("read", 0, 12, 0),
    ],
    400,
)
@example(
    # Asking for the oldest timestamp is not a read: it must not place the
    # out-of-order arrival (and bump the sort epoch) on the way.
    [("append", 5, "i", 0), ("append", 3, "d", 0), ("shrink", 100)],
    400,
)
@example(
    # A range ends on a buffered key: both ends are inclusive.
    [("append", 5, "i", 0), ("append", 7, "d", 0), ("read", 5, 7, 0)],
    400,
)
def test_buffer_behaves_like_a_sorted_list(ops, capacity):
    buffer = InMemoryUpdateBuffer(BUFFER_SCHEMA, capacity)
    model = ListModel(capacity)
    volume = fresh_volume()
    runs: dict = {}  # flush epoch -> the run that flush wrote
    scans: list[OpenScan] = []
    clock = 40
    for op in ops:
        if op[0] == "append":
            _, key, kind, behind = op
            clock += 10
            # No straggler may slip under an open scan's snapshot: the
            # engine's timestamps guarantee that, not the buffer.
            update = make_update(clock - (0 if scans else behind), key, kind)
            size = BUFFER_CODEC.encoded_size(update)
            if model.bytes + size > model.capacity:
                with pytest.raises(UpdateCacheFullError):
                    buffer.append(BUFFER_CODEC.encode(update))
                continue
            buffer.append(BUFFER_CODEC.encode(update))
            model.entries.append(update)
            model.bytes += size
        elif op[0] == "read":
            _, begin, end, back = op
            visible = model.visible(begin, end, clock - back)
            columns, flush_epoch = buffer.columns_range(begin, end, clock - back)
            assert (columns.records if columns is not None else []) == visible
            assert flush_epoch == model.flush_epoch
        elif op[0] == "sort":
            buffer.sort()
            model.sort()
        elif op[0] == "drain":
            # Registered before the flush, first read after it.
            late = MemScan(
                buffer, 0, 12, clock, run_for_flush=runs.get, flush_epoch=buffer.flush_epoch
            )
            # A flush sorts what it takes; it places nothing for readers.
            model.entries.sort(key=UpdateRecord.sort_key)
            drained = buffer.drain_sorted()
            assert drained.records == model.entries
            model.flush_epoch += 1
            if model.entries:
                runs[model.flush_epoch] = write_run(
                    volume, f"run-{model.flush_epoch}", drained, BUFFER_CODEC, block_size=256
                )
            # It is handed the run of the flush that drained its generation.
            assert list(late) == model.entries
            model.entries, model.bytes = [], 0
        elif op[0] == "shrink":
            new_capacity = model.bytes + op[1]
            if op[1] < 0:
                with pytest.raises(ValueError):
                    buffer.shrink_capacity(new_capacity)
            else:
                buffer.shrink_capacity(new_capacity)
                model.capacity = new_capacity
        else:
            _, begin, end, back, pulls, split = op
            scans.append(OpenScan(buffer, model, runs, begin, end, clock - back, pulls, split))
        assert buffer.count == len(model.entries)
        assert buffer.used_bytes == model.bytes
        assert (buffer.sort_epoch, buffer.flush_epoch) == (model.sort_epoch, model.flush_epoch)
        # Not a reader: asking for it places no arrival (the epochs above).
        assert buffer.min_timestamp() == min((u.timestamp for u in model.entries), default=None)
    for scan in scans:
        scan.finish()
    assert buffered_records(buffer, 0, KEY_MAX, clock) == sorted(
        model.entries, key=UpdateRecord.sort_key
    )
