"""The array-in/array-out read path against the record-at-a-time reference.

A scan's kernel path never builds an ``UpdateRecord``: run blocks stay bytes
plus header columns, same-key chains are folded on their encoded form, the
join gathers and patches packed rows, and tuples are built once from the
joined array.  Everything it returns — and every ``UpdateConflictError`` it
raises — must be what the record-at-a-time operators of
``tests/reference_operators.py`` give over the same inputs: random
schemas (ints, floats, non-ASCII strings, u64 keys on both sides of 2**63),
all four update types, chains across runs and the memory stream, multi-field
MODIFYs, page timestamps on both sides of the updates', masked key spans and
``query_ts`` horizons; and, through a real table, non-uniform heap pages and
overflow records.
"""

from __future__ import annotations

import gc
import random
import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_operators as ref
from repro.baselines.iu import IndexedUpdates
from repro.baselines.lsm import LSMUpdateCache
from repro.baselines.memdiff import InMemoryDifferential
from repro.core import kernels
from repro.core import update as update_module
from repro.core.blockcache import DecodedBlockCache
from repro.core.masm import MaSM, MaSMConfig
from repro.core.operators import MergeDataUpdates, MergeUpdates, RunScan
from repro.core.sortedrun import write_run
from repro.core.update import (
    ColumnarBlock,
    UpdateCodec,
    UpdateConflictError,
    UpdateRecord,
    UpdateType,
    combine_chain,
)
from repro.engine.record import Schema, synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.util.units import KB, MB

INSERT, DELETE, MODIFY, REPLACE = UpdateType

KEYS = {
    "u32": st.integers(0, 60) | st.integers(2**32 - 30, 2**32 - 1),
    # Both sides of the int64 boundary, and the top of the range.
    "u64": st.integers(0, 40)
    | st.integers(2**63 - 20, 2**63 + 20)
    | st.integers(2**64 - 30, 2**64 - 1),
}
TEXT = "abz éž€"


def values(type_code: str):
    if type_code == "u32":
        return st.integers(0, 2**32 - 1)
    if type_code == "u64":
        return st.integers(0, 2**64 - 1)
    if type_code == "i64":
        return st.integers(-(2**63), 2**63 - 1)
    if type_code == "f64":
        return st.floats(allow_nan=False)
    width = int(type_code[1:])
    return st.text(TEXT, max_size=width).filter(
        lambda s: len(s.encode("utf-8")) <= width
    )


@st.composite
def schemas(draw):
    key_type = draw(st.sampled_from(sorted(KEYS)))
    others = draw(
        st.lists(
            st.sampled_from(["i64", "f64", "s5", "s9", "u32", "u64"]),
            min_size=1,
            max_size=3,
        )
    )
    fields = [(f"c{i}", code) for i, code in enumerate(others)]
    fields.insert(draw(st.integers(0, len(others))), ("k", key_type))
    return Schema(fields, key="k")


def records(draw, schema: Schema, key: int) -> tuple:
    return tuple(
        key if f.name == "k" else draw(values(f.type_code)) for f in schema.fields
    )


def changes(draw, schema: Schema, key: int) -> dict:
    """One to all non-key fields, sometimes the key (to itself) as well."""
    names = [f.name for f in schema.fields if f.name != "k"]
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    content = {
        name: draw(values(schema.fields[schema.index_of(name)].type_code))
        for name in chosen
    }
    if draw(st.integers(0, 4)) == 0:
        content["k"] = key
    return content


@st.composite
def worlds(draw):
    """A schema, base (record, page_ts) pairs, and updates dealt to sources."""
    schema = draw(schemas())
    keys = KEYS[schema.fields[schema.key_pos].type_code]
    counter = itertools.count(1)
    updates: list[UpdateRecord] = []
    for key in sorted(draw(st.lists(keys, min_size=1, max_size=25, unique=True))):
        legal = draw(st.integers(0, 5)) > 0  # one chain in six may conflict
        exists = None
        for _ in range(draw(st.integers(1, 4))):
            if not legal or exists is None:
                op = draw(st.sampled_from(list(UpdateType)))
            elif exists:
                op = draw(st.sampled_from([DELETE, MODIFY, REPLACE]))
            else:
                op = draw(st.sampled_from([INSERT, REPLACE, DELETE]))
            content: object = None
            if op in (INSERT, REPLACE):
                content = records(draw, schema, key)
                exists = True
            elif op is DELETE:
                exists = False
            else:
                content = changes(draw, schema, key)
                exists = True if exists is None else exists
            updates.append(UpdateRecord(next(counter), key, op, content))
    max_ts = next(counter)
    base_keys = sorted(draw(st.lists(keys, max_size=40, unique=True)))
    pairs = [
        (records(draw, schema, key), draw(st.integers(0, max_ts))) for key in base_keys
    ]
    num_sources = draw(st.integers(1, 4))
    dealt: list[list[UpdateRecord]] = [[] for _ in range(num_sources)]
    for update in updates:
        dealt[draw(st.integers(0, num_sources - 1))].append(update)
    return schema, pairs, dealt, max_ts


def outcome(rows):
    """What a scan gives: its rows, or the text of the conflict it raises."""
    try:
        return list(rows)
    except UpdateConflictError as exc:
        return f"conflict: {exc}"


@settings(max_examples=300, deadline=None)
@given(world=worlds(), data=st.data())
def test_array_join_equals_reference_join(world, data):
    schema, pairs, dealt, max_ts = world
    codec = UpdateCodec(schema)
    volume = StorageVolume(SimulatedSSD(capacity=16 * MB))
    # The last source stays in memory (the Mem_scan shape) when there is
    # more than one; every other non-empty one becomes a run.
    memory = dealt.pop() if len(dealt) > 1 else []
    block_size = data.draw(st.sampled_from([256, 512, 4 * KB]))
    runs = [
        write_run(volume, f"run-{i}", codec.encode_columns(source), codec, block_size=block_size)
        for i, source in enumerate(dealt)
        if source
    ]
    top = 2**64 - 1 if schema.fields[schema.key_pos].type_code == "u64" else 2**32 - 1
    begin, end = 0, top
    if data.draw(st.booleans()):
        begin = data.draw(KEYS[schema.fields[schema.key_pos].type_code])
        end = data.draw(st.integers(begin, top))
    query_ts = data.draw(st.none() | st.integers(0, max_ts))
    for run in runs:
        for lo in data.draw(st.lists(st.integers(0, 60) | st.just(2**63 - 5), max_size=2)):
            run.mark_migrated(lo, lo + data.draw(st.integers(0, 12)))
    in_memory = [
        u
        for u in memory
        if begin <= u.key <= end and (query_ts is None or u.timestamp <= query_ts)
    ]
    in_range = [pair for pair in pairs if begin <= pair[0][schema.key_pos] <= end]

    reference = outcome(
        ref.merge_data_updates(
            in_range,
            ref.merge_updates(
                [ref.scan_run(run, begin, end, query_ts) for run in runs] + [in_memory],
                schema,
            ),
            schema,
        )
    )

    def kernel_updates(cache):
        return MergeUpdates(
            [RunScan(run, begin, end, query_ts, cache=cache) for run in runs]
            + [codec.encode_columns(in_memory)],
            blocks_per_partition=data.draw(st.sampled_from([1, 3, 32])),
        )

    cache = DecodedBlockCache(data.draw(st.sampled_from([0, 2, 64])))
    for _ in range(2):  # cold, then with whatever the cache kept
        assert outcome(MergeDataUpdates(in_range, kernel_updates(cache), schema)) == reference
    # And with the data side handed over as (rows, keys, timestamps) chunks.
    size = data.draw(st.integers(1, 9))
    chunks = [
        (
            np.frombuffer(
                schema.pack_many(r for r, _ in in_range[i : i + size]), schema.dtype
            ),
            np.array([r[schema.key_pos] for r, _ in in_range[i : i + size]], np.uint64),
            np.array([ts for _, ts in in_range[i : i + size]], np.uint64),
        )
        for i in range(0, len(in_range), size)
    ]
    chunked = MergeDataUpdates(None, kernel_updates(cache), schema, data_chunks=iter(chunks))
    assert outcome(chunked) == reference


# ------------------------------------------------------------ encoded fold
@st.composite
def chains(draw):
    schema = draw(schemas())
    key = draw(KEYS[schema.fields[schema.key_pos].type_code])
    chain = []
    for ts in range(1, draw(st.integers(2, 6)) + 1):
        op = draw(st.sampled_from(list(UpdateType)))
        content: object = None
        if op in (INSERT, REPLACE):
            content = records(draw, schema, key)
        elif op is MODIFY:
            content = changes(draw, schema, key)
        chain.append(UpdateRecord(ts, key, op, content))
    return schema, chain


@settings(max_examples=300, deadline=None)
@given(chains())
def test_encoded_fold_is_combine_chain(case):
    """``fold_chain`` on the bytes is ``combine_chain`` on the records — the
    same combined update, or a refusal that the chain-folding kernel turns
    into the same conflict."""
    schema, chain = case
    codec = UpdateCodec(schema)
    block = codec.encode_block(chain)
    columns = codec.block_columns(block)
    bodies = columns.offsets.tolist()
    folded = codec.fold_chain(block, columns.ops.tolist(), bodies, columns.lengths.tolist())
    try:
        expected = combine_chain(codec.decode_block(block), schema)
    except UpdateConflictError as exc:
        assert folded is None
        with pytest.raises(UpdateConflictError) as caught:
            kernels.merge_slices([ColumnarBlock(block, codec).update_columns()])
        assert str(caught.value) == str(exc)
        return
    op, payload = folded
    if isinstance(payload, int):  # a member's payload, as it stands
        payload = block[bodies[payload] : bodies[payload] + int(columns.lengths[payload])]
    head = codec._HEAD.pack(expected.timestamp, expected.key, op, len(payload))
    folded, _ = codec.decode(head + bytes(payload))
    assert folded == expected


# -------------------------------------------------- no records on the read path
class _Counting:
    """Stands in for ``repro.core.update.UpdateRecord`` and counts calls."""

    built = 0

    def __new__(cls, *args):
        cls.built += 1
        return UpdateRecord(*args)


def synthetic_engine(rows=400, updates=260, seed=3):
    schema = Schema([("key", "u32"), ("payload", "s20"), ("n", "i64")])
    disk = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk, "t", schema, rows, io_chunk=16 * KB)
    table.bulk_load((i * 2, f"rec-{i}", i) for i in range(rows))
    masm = MaSM(
        table,
        ssd,
        config=MaSMConfig(
            alpha=1.0, ssd_page_size=4 * KB, block_size=1 * KB, auto_migrate=False
        ),
    )
    masm.attach_log(RedoLog(ssd.create("redo-log", 256 * KB)))
    rng = random.Random(seed)
    live = set(range(0, 2 * rows, 2))
    for i in range(updates):
        roll = rng.random()
        if roll < 0.3:
            key = rng.randrange(rows) * 2 + 1
            if key not in live:
                masm.insert((key, f"new-{key}", -key))
                live.add(key)
        elif roll < 0.55:
            key = rng.choice(sorted(live))
            masm.delete(key)
            live.discard(key)
        else:
            masm.modify(rng.choice(sorted(live)), {"payload": f"m{i}", "n": i})
        if i % 90 == 89:
            masm.flush_buffer()
    masm.flush_buffer()
    return masm, schema


def test_scans_build_no_update_records(monkeypatch):
    """Runs with same-key chains across them, scanned cold and warm: a scan
    materialises nothing — records are for chains that conflict and for
    record-shaped consumers (partial migration, secondary indexes)."""
    masm, schema = synthetic_engine()
    assert len(masm.runs) >= 3
    reference = ref.scan_rows(
        masm.table.range_scan_pairs(0, 2**32),
        [ref.scan_run(run, 0, 2**32) for run in masm.runs],
        schema,
    )
    monkeypatch.setattr(update_module, "UpdateRecord", _Counting)
    _Counting.built = 0
    assert list(masm.range_scan(0, 2**32)) == reference  # cold
    assert list(masm.range_scan(0, 2**32)) == reference  # decoded blocks cached
    assert list(masm.range_scan(100, 300)) == [r for r in reference if 100 <= r[0] <= 300]
    # A quarantined run is served from the redo log's bytes, as logged.
    masm.runs[1].quarantine("test damage")
    assert list(masm.range_scan(0, 2**32)) == reference
    assert masm.stats.log_fallback_scans > 0
    assert _Counting.built == 0
    # Record-shaped consumers still get records, a read group at a time.
    run = masm.runs[0]
    assert len(list(run.scan(0, 2**32, cache=masm.block_cache))) == run.count
    assert _Counting.built >= run.count


def test_baseline_scans_build_no_update_records(monkeypatch):
    """The LSM, IU and in-memory differential baselines hand the merge the
    bytes they hold — LSM's levels as run scans and C0, IU's fetched
    entries, memdiff's B-tree — so their scans build no record either."""
    schema = synthetic_schema()
    expected = {i * 2: (i * 2, f"rec-{i}") for i in range(500)}
    rng = random.Random(5)
    stream = []
    for i in range(400):  # same-key chains across levels and sources
        key = rng.randrange(500) * 2
        stream.append((key, f"m{i}"))
        expected[key] = (key, f"m{i}")
    engines = []
    for make in (
        lambda table, ssd: LSMUpdateCache(
            table, ssd, memory_bytes=2 * KB, levels=2, block_size=4 * KB
        ),
        lambda table, ssd: IndexedUpdates(table, ssd),
        lambda table, ssd: InMemoryDifferential(table, memory_bytes=64 * KB, auto_migrate=False),
    ):
        table = Table.create(StorageVolume(SimulatedDisk(capacity=64 * MB)), "t", schema, 500)
        table.bulk_load((i * 2, f"rec-{i}") for i in range(500))
        engine = make(table, StorageVolume(SimulatedSSD(capacity=8 * MB)))
        for key, payload in stream:
            engine.modify(key, {"payload": payload})
        engines.append(engine)
    assert any(engines[0].level_sizes()) and engines[0]._c0
    monkeypatch.setattr(update_module, "UpdateRecord", _Counting)
    _Counting.built = 0
    scans = [list(engine.range_scan(0, 2**32)) for engine in engines]
    assert _Counting.built == 0
    for rows in scans:
        assert rows == [expected[key] for key in sorted(expected)]


# ------------------------------------------------------------- lazy records
@contextmanager
def counting_records():
    """Count UpdateRecord constructions inside a hypothesis example (the
    ``monkeypatch`` fixture is not reset between examples)."""
    original = update_module.UpdateRecord
    update_module.UpdateRecord = _Counting
    _Counting.built = 0
    try:
        yield
    finally:
        update_module.UpdateRecord = original


@settings(max_examples=100, deadline=None)
@given(world=worlds(), data=st.data())
def test_lazy_group_records_equal_eager_decode(world, data):
    with counting_records():
        _check_lazy_group_records(world, data)


def _check_lazy_group_records(world, data):
    schema, _, dealt, _ = world
    codec = UpdateCodec(schema)
    updates = sorted(
        (u for source in dealt for u in source), key=UpdateRecord.sort_key
    )
    per_block = data.draw(st.integers(1, 5))
    blocks = [updates[i : i + per_block] for i in range(0, len(updates), per_block)]
    encoded = [codec.encode_block(block) for block in blocks]
    size = max(map(len, encoded)) + 8
    group = [raw.ljust(size, b"\x00") for raw in encoded]
    entries = codec.decode_blocks(group)
    assert _Counting.built == 0  # headers only
    for entry, block in zip(entries, blocks):
        assert entry.keys.tolist() == [u.key for u in block]
        assert entry.update_columns().records == block
    assert _Counting.built == len(updates)
    # Records are a view decoded on demand: asking one block for them builds
    # that block's and nothing for its neighbours in the read group.
    victim = data.draw(st.integers(0, len(entries) - 1))
    _Counting.built = 0
    assert entries[victim].update_columns().records == blocks[victim]
    assert _Counting.built == len(blocks[victim])
    assert codec.decode_block(group[victim]) == blocks[victim]


def test_payload_views_outlive_evicted_neighbours():
    """A cached block keeps its read group's bytes and columns alive: its
    payloads still decode after every neighbour was evicted and collected."""
    schema = Schema([("key", "u32"), ("tag", "s6")])
    codec = UpdateCodec(schema)
    blocks = [
        [
            UpdateRecord(b * 10 + i + 1, b * 100 + i, INSERT, (b * 100 + i, f"t{b}.{i}"))
            if i % 3
            else UpdateRecord(b * 10 + i + 1, b * 100 + i, MODIFY, {"tag": f"m{b}"})
            for i in range(8)
        ]
        for b in range(5)
    ]
    encoded = [codec.encode_block(block) for block in blocks]
    size = max(map(len, encoded)) + 8
    cache = DecodedBlockCache(capacity_blocks=1)
    cache.put_many(
        "run", enumerate(codec.decode_blocks([raw.ljust(size, b"\x00") for raw in encoded]))
    )
    assert len(cache) == 1 and cache.evictions == 4
    gc.collect()
    survivor = cache.get("run", 4)
    columns = survivor.update_columns()
    assert columns.keys.tolist() == [u.key for u in blocks[4]]
    whole = np.flatnonzero(columns.ops == int(INSERT))
    assert schema.unpack_many(columns.packed_records(whole)) == [
        u.content for u in blocks[4] if u.type is INSERT
    ]
    assert survivor.update_columns().records == blocks[4]


# ------------------------------------------------- through a real heap file
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_scan_equals_reference_over_non_uniform_pages(data):
    """Tombstoned and in-place-grown pages, overflow records, pages whose
    timestamp is ahead of some cached updates, runs plus a live memory
    buffer: ``MaSM.range_scan`` against the reference operators."""
    schema = Schema([("v", "s7"), ("key", "u64"), ("x", "f64")], key="key")
    disk = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    rows = 40
    base = 2**63 - 40  # the key range straddles the int64 boundary
    table = Table.create(disk, "t", schema, rows, page_size=512, io_chunk=2 * KB)
    table.bulk_load(
        ((f"b{i}", base + 2 * i, float(i)) for i in range(rows)), fill_factor=1.0
    )
    masm = MaSM(
        table,
        ssd,
        config=MaSMConfig(
            alpha=1.0, ssd_page_size=4 * KB, block_size=512, auto_migrate=False
        ),
    )
    live = {base + 2 * i for i in range(rows)}
    in_heap = set(live)  # keys with a row in the pages or the overflow tree
    ts = itertools.count(1)
    kinds = data.draw(
        st.lists(
            st.sampled_from(
                ["insert", "delete", "modify", "modify", "flush", "heap-insert",
                 "heap-delete", "heap-modify"]
            ),
            min_size=10,
            max_size=60,
        )
    )
    # At least one run, wherever it falls.
    kinds.insert(data.draw(st.integers(5, len(kinds))), "flush")
    for kind in kinds:
        stamp = next(ts)
        masm.oracle.advance_past(stamp)
        if kind == "flush":
            masm.flush_buffer()
        elif kind.startswith("heap-"):
            # Straight into the pages, as a migration slice would: leaves
            # tombstones, appended slots, overflow records and a page
            # timestamp that may be ahead of cached updates to other keys.
            if kind == "heap-insert":
                key = base + 2 * data.draw(st.integers(-5, rows + 5)) + 1
                if key not in live and key not in in_heap:
                    table.insert_in_place((f"h{stamp}", key, -1.0), timestamp=stamp)
                    live.add(key)
                    in_heap.add(key)
            elif in_heap:
                key = data.draw(st.sampled_from(sorted(in_heap)))
                if kind == "heap-modify":
                    table.modify_in_place(key, {"v": f"p{stamp}"}, timestamp=stamp)
                elif not cached_updates_address(masm, key):
                    table.delete_in_place(key, timestamp=stamp)
                    live.discard(key)
                    in_heap.discard(key)
        elif kind == "insert":
            key = base + 2 * data.draw(st.integers(-5, rows + 5)) + 1
            if key not in live:
                masm.apply(UpdateRecord(stamp, key, INSERT, (f"i{stamp}", key, 0.5)))
                live.add(key)
        elif live:
            key = data.draw(st.sampled_from(sorted(live)))
            if kind == "delete":
                masm.apply(UpdateRecord(stamp, key, DELETE, None))
                live.discard(key)
            else:
                fields = data.draw(
                    st.lists(st.sampled_from(["v", "x"]), min_size=1, unique=True)
                )
                content = {"v": f"m{stamp}", "x": stamp / 4}
                masm.apply(
                    UpdateRecord(stamp, key, MODIFY, {f: content[f] for f in fields})
                )
    begin, end = base - 12, base + 2 * rows + 12
    if data.draw(st.integers(0, 2)) == 0:  # one scan in three is a sub-range
        begin = data.draw(st.integers(begin, base + 2 * rows))
        end = data.draw(st.integers(begin, end))
    query_ts = data.draw(st.none() | st.integers(1, next(ts)))
    scan = masm.range_scan(begin, end, query_ts=query_ts)
    # The scan registered (and settled run budget and buffer) just now.
    horizon = masm.oracle.current if query_ts is None else query_ts
    buffered = ref.buffered_records(masm.buffer, begin, end, horizon)
    reference = outcome(
        ref.merge_data_updates(
            table.range_scan_pairs(begin, end),
            ref.merge_updates(
                [ref.scan_run(run, begin, end, horizon) for run in masm.runs] + [buffered],
                schema,
            ),
            schema,
        )
    )
    assert outcome(scan) == reference


def cached_updates_address(masm, key) -> bool:
    """True when a cached update addresses ``key``: deleting its base row in
    place would leave, say, a cached MODIFY without one — the engine's own
    migration never does that."""
    return bool(ref.buffered_records(masm.buffer, key, key, 2**63)) or any(
        any(True for _ in ref.scan_run(run, key, key)) for run in masm.runs
    )


def test_a_scan_without_any_run_is_the_same_array_join(monkeypatch):
    """Buffered updates and no run — a fresh table, and again right after
    ``migrate()`` — take the same pipeline as a scan over runs: no
    ``UpdateRecord`` is built, no row goes through ``Schema.unpack``, and the
    rows are the reference join's."""
    schema = Schema([("key", "u32"), ("payload", "s20"), ("n", "i64")])
    disk = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk, "t", schema, 400, io_chunk=16 * KB)
    table.bulk_load((i * 2, f"rec-{i}", i) for i in range(400))
    masm = MaSM(
        table,
        ssd,
        config=MaSMConfig(alpha=1.0, ssd_page_size=4 * KB, block_size=1 * KB, auto_migrate=False),
    )
    rng = random.Random(11)
    unpacked = []
    real_unpack = Schema.unpack

    def buffer_some():
        for i in range(60):
            key = rng.randrange(400) * 2
            masm.modify(key, {"payload": f"m{i}", "n": -i})  # chains now and then
        masm.insert((rng.randrange(400) * 2 + 1, "new", 0))
        masm.delete(rng.randrange(400) * 2)

    for round_ in ("fresh", "just migrated"):
        buffer_some()
        assert not masm.runs and masm.buffer.count
        reference = ref.scan_rows(
            table.range_scan_pairs(0, 2**32),
            [ref.buffered_records(masm.buffer, 0, 2**32, 2**62)],
            schema,
        )
        with monkeypatch.context() as patch:
            patch.setattr(update_module, "UpdateRecord", _Counting)
            patch.setattr(Schema, "unpack", lambda self, data: unpacked.append(1) or real_unpack(self, data))
            _Counting.built = 0
            assert list(masm.range_scan(0, 2**32)) == reference, round_
            assert list(masm.range_scan(300, 500)) == [r for r in reference if 300 <= r[0] <= 500]
            assert (_Counting.built, len(unpacked)) == (0, 0), round_
        masm.flush_buffer()
        masm.migrate()
        assert not masm.runs and not masm.buffer.count
