"""Columnar merge kernels: the array-at-a-time pipeline == the
record-at-a-time reference operators (``tests/reference_operators.py``).

:mod:`repro.core.kernels` + ``MaterializedSortedRun.slice_columns`` + the
partitioned merge in ``MergeUpdates``/``MergeDataUpdates`` must be
*observationally identical* to the reference over random update streams —
mixed op types, duplicate keys across runs, empty runs, single-record blocks
— and keep producing batches when its runs are quarantined or fail mid-scan.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

import reference_operators as ref
from repro.core import kernels
from repro.core.blockcache import DecodedBlockCache
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
KEY_SPACE = 300


# ------------------------------------------------------------- strategies
@st.composite
def update_streams(draw, max_keys=50, max_chain=3):
    """A (key, ts)-sorted update list with legally combining per-key chains."""
    keys = draw(
        st.lists(
            st.integers(0, KEY_SPACE), min_size=1, max_size=max_keys, unique=True
        )
    )
    counter = itertools.count(1)
    updates: list[UpdateRecord] = []
    for key in sorted(keys):
        chain_len = draw(st.integers(1, max_chain))
        exists = None
        for _ in range(chain_len):
            if exists is None:
                op = draw(st.sampled_from(list(UpdateType)))
            elif exists:
                op = draw(st.sampled_from([UpdateType.DELETE, UpdateType.MODIFY]))
            else:
                op = draw(st.sampled_from([UpdateType.INSERT, UpdateType.REPLACE]))
            ts = next(counter)
            if op in (UpdateType.INSERT, UpdateType.REPLACE):
                content: object = (key, f"v{ts}")
                exists = True
            elif op == UpdateType.DELETE:
                content = None
                exists = False
            else:
                content = {"payload": f"m{ts}"}
                exists = True if exists is None else exists
            updates.append(UpdateRecord(ts, key, op, content))
    return updates


def encoded(stream) -> list[bytes]:
    return [CODEC.encode(u) for u in stream]


def build_runs(vol, updates, num_runs, seed, block_size):
    """Deal one sorted stream across ``num_runs`` runs (some may be empty)."""
    per_run: list[list[UpdateRecord]] = [[] for _ in range(num_runs)]
    for u in updates:
        per_run[seed.randrange(num_runs)].append(u)
    return [
        write_run(vol, f"kern-run-{i}", CODEC.encode_columns(batch), CODEC, block_size=block_size)
        for i, batch in enumerate(per_run)
        if batch  # write_run rejects empty streams: an empty deal = no run
    ]


# -------------------------------------------------- merge path equivalence
@settings(max_examples=30, deadline=None)
@given(data=st.data(), updates=update_streams())
def test_kernel_merge_matches_reference(data, updates):
    """RunScan sources through the kernel partitioned merge == oracle.

    ``block_size=160`` gives single-record blocks for INSERT/REPLACE
    payloads, so partition boundaries land between individual records.
    """
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    num_runs = data.draw(st.integers(1, 4))
    seed = data.draw(st.randoms())
    block_size = data.draw(st.sampled_from([160, 512, 4 * KB]))
    runs = build_runs(vol, updates, num_runs, seed, block_size)
    max_ts = max(u.timestamp for u in updates)
    begin = data.draw(st.integers(-10, KEY_SPACE + 10))
    end = data.draw(st.integers(begin, KEY_SPACE + 10))
    query_ts = data.draw(st.none() | st.integers(0, max_ts + 2))
    for lo, width in data.draw(
        st.lists(
            st.tuples(st.integers(0, KEY_SPACE), st.integers(0, KEY_SPACE // 4)),
            max_size=3,
        )
    ):
        for run in runs:
            run.mark_migrated(lo, lo + width)

    reference = list(
        ref.merge_updates([ref.scan_run(run, begin, end, query_ts) for run in runs], SCHEMA)
    )
    cache = DecodedBlockCache(256)
    blocks_per_partition = data.draw(st.sampled_from([1, 2, 32]))
    for _ in range(2):  # cold then warm
        sources = [
            RunScan(run, begin, end, query_ts, cache=cache) for run in runs
        ]
        merge = MergeUpdates(sources, blocks_per_partition=blocks_per_partition)
        assert encoded(merge) == encoded(reference)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), updates=update_streams())
def test_kernel_merge_with_non_columnar_sources(data, updates):
    """Mixing RunScans with plain sorted columns: an object store (a write
    set, a baseline) encoded once."""
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    seed = data.draw(st.randoms())
    # Deal across two runs and one plain in-memory list.
    per_source: list[list[UpdateRecord]] = [[], [], []]
    for u in updates:
        per_source[seed.randrange(3)].append(u)
    runs = [
        write_run(vol, f"mix-run-{i}", CODEC.encode_columns(batch), CODEC, block_size=512)
        for i, batch in enumerate(per_source[:2])
        if batch
    ]
    memory = per_source[2]
    begin = data.draw(st.integers(-10, KEY_SPACE + 10))
    end = data.draw(st.integers(begin, KEY_SPACE + 10))

    reference = list(
        ref.merge_updates(
            [ref.scan_run(run, begin, end) for run in runs]
            + [[u for u in memory if begin <= u.key <= end]],
            SCHEMA,
        )
    )
    sources = [RunScan(run, begin, end) for run in runs] + [
        CODEC.encode_columns([u for u in memory if begin <= u.key <= end])
    ]
    fast = MergeUpdates(sources, blocks_per_partition=1)
    assert encoded(fast) == encoded(reference)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), updates=update_streams(max_keys=40))
def test_kernel_join_matches_reference(data, updates):
    """Full pipeline: kernel batch join == record-at-a-time outer join."""
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    num_runs = data.draw(st.integers(1, 3))
    seed = data.draw(st.randoms())
    runs = build_runs(vol, updates, num_runs, seed, 512)
    max_ts = max(u.timestamp for u in updates)
    # Base data: random subset of the key space with per-record page
    # timestamps straddling the update timestamps (exercises the
    # already-applied-in-place skip rule).
    data_keys = sorted(
        data.draw(
            st.lists(st.integers(0, KEY_SPACE), max_size=60, unique=True)
        )
    )
    pairs = [
        ((k, f"base-{k}"), data.draw(st.integers(0, max_ts + 1)))
        for k in data_keys
    ]
    begin, end = 0, KEY_SPACE + 10

    def updates_stream() -> MergeUpdates:
        sources = [RunScan(run, begin, end) for run in runs]
        return MergeUpdates(sources, blocks_per_partition=2)

    reference = ref.scan_rows(pairs, [ref.scan_run(run, begin, end) for run in runs], SCHEMA)
    fast = list(MergeDataUpdates(pairs, updates_stream(), SCHEMA))
    assert fast == reference

    # And through explicit (rows, keys, timestamps) data chunks.
    chunk_n = data.draw(st.integers(1, 7))
    chunks = [
        (
            np.frombuffer(
                SCHEMA.pack_many(r for r, _ in pairs[i : i + chunk_n]), SCHEMA.dtype
            ),
            np.array([r[0] for r, _ in pairs[i : i + chunk_n]], dtype=np.uint64),
            np.array([t for _, t in pairs[i : i + chunk_n]], dtype=np.uint64),
        )
        for i in range(0, len(pairs), chunk_n)
    ]
    chunked = list(
        MergeDataUpdates(None, updates_stream(), SCHEMA, data_chunks=iter(chunks))
    )
    assert chunked == reference


# ------------------------------------------------------ kernel unit pieces
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gallop_two_source_order_matches_lexsort(data):
    n_a = data.draw(st.integers(0, 40))
    n_b = data.draw(st.integers(0, 40))
    a_keys = np.sort(
        np.array(
            data.draw(
                st.lists(st.integers(0, 50), min_size=n_a, max_size=n_a)
            ),
            dtype=np.int64,
        )
    )
    b_keys = np.sort(
        np.array(
            data.draw(
                st.lists(st.integers(0, 50), min_size=n_b, max_size=n_b)
            ),
            dtype=np.int64,
        )
    )
    from types import SimpleNamespace

    order = kernels._gallop_two_source_order(
        SimpleNamespace(keys=a_keys), SimpleNamespace(keys=b_keys)
    )
    if order is None:
        # Declined: some key occurs in both sources (cross-source tie needs
        # the timestamp-aware lexsort).
        assert len(np.intersect1d(a_keys, b_keys)) > 0
        return
    merged = np.concatenate([a_keys, b_keys])[order]
    assert list(merged) == sorted(list(a_keys) + list(b_keys))
    # Stability across sources: for equal keys source a comes first — but
    # order is only returned when no key crosses sources, so just check
    # it is a permutation.
    assert sorted(order.tolist()) == list(range(n_a + n_b))


@settings(max_examples=50, deadline=None)
@given(
    first_keys=st.lists(st.integers(0, 200), min_size=1, max_size=60),
    begin=st.integers(-5, 210),
    width=st.integers(0, 210),
    per_part=st.integers(1, 8),
)
def test_partition_points_invariants(first_keys, begin, width, per_part):
    from repro.core.runindex import RunIndex

    end = begin + width
    index = RunIndex(sorted(first_keys), block_size=512)
    bounds = kernels.partition_points([index], begin, end, per_part)
    # Strictly increasing, strictly inside (begin, end].
    assert bounds == sorted(set(bounds))
    for b in bounds:
        assert begin < b <= end
    # Ranges tile [begin, end] exactly, in order, without overlap.
    ranges = kernels.partition_ranges(bounds, begin, end)
    assert ranges[0][0] == begin
    assert ranges[-1][1] == end
    for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
        assert hi1 + 1 == lo2
        assert lo1 <= hi1


@settings(max_examples=30, deadline=None)
@given(updates=update_streams(max_keys=30))
def test_decode_block_soa_matches_decode_block(updates):
    block = CODEC.encode_block(updates)
    records = CODEC.decode_block(block)
    (soa,) = CODEC.decode_blocks([block])
    assert soa.update_columns().records == records
    assert list(soa.keys) == [u.key for u in records]
    assert list(soa.timestamps) == [u.timestamp for u in records]
    assert list(soa.ops) == [int(u.type) for u in records]
    # The columns with payload offsets materialise the same records.
    assert soa.update_columns().records == records


@settings(max_examples=30, deadline=None)
@given(updates=update_streams(), seed=st.randoms())
def test_merge_slices_matches_reference_combine(updates, seed):
    streams: list[list[UpdateRecord]] = [[], [], []]
    for u in updates:
        streams[seed.randrange(3)].append(u)
    slices = [CODEC.encode_columns(s) for s in streams if s]
    cpu = CpuMeter()
    batch = kernels.merge_slices(slices, cpu)
    reference = list(ref.merge_updates(streams, SCHEMA))
    assert encoded(list(batch.records)) == encoded(reference)
    assert list(batch.keys) == [u.key for u in reference]
    assert cpu.class_total("merge") > 0


# ------------------------------------------------------------- degradation
def make_run(vol=None, n=40, name="deg-run", block_size=256, key_offset=0, ts_offset=0):
    vol = vol or StorageVolume(SimulatedSSD(capacity=16 * MB))
    updates = [
        UpdateRecord(
            ts_offset + i + 1,
            key_offset + i * 2,
            UpdateType.INSERT,
            (key_offset + i * 2, f"v{i}"),
        )
        for i in range(n)
    ]
    return updates, write_run(vol, name, CODEC.encode_columns(updates), CODEC, block_size=block_size)


def test_quarantined_run_streams_through_fallback():
    updates, run = make_run()
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    # Odd keys + disjoint timestamps: no cross-run combine chains.
    _, healthy = make_run(
        vol, n=20, name="deg-healthy", key_offset=1, ts_offset=1000
    )
    run.quarantine("test damage")
    sources = [
        RunScan(run, 0, 10**6, fallback=lambda after: CODEC.encode_columns(updates)),
        RunScan(healthy, 0, 10**6),
    ]
    merge = MergeUpdates(sources, blocks_per_partition=1)
    reference = list(
        ref.merge_updates([iter(updates), ref.scan_run(healthy, 0, 10**6)], SCHEMA)
    )
    assert encoded(merge) == encoded(reference)


def test_all_sources_quarantined_disables_kernel_path():
    """Quarantine disables the run, not the pipeline: with no healthy run to
    partition by, the fallbacks feed one unbounded partition."""
    updates, run = make_run()
    run.quarantine("test damage")
    sources = [RunScan(run, 0, 10**6, fallback=lambda after: CODEC.encode_columns(updates))]
    merge = MergeUpdates(sources, blocks_per_partition=1)
    batches = list(merge.kernel_batches())
    assert [len(batch) for batch in batches] == [len(updates)]
    assert encoded(batches[0].records) == encoded(updates)
    assert encoded(merge) == encoded(ref.merge_updates([iter(updates)], SCHEMA))


def test_mid_scan_corruption_degrades_to_fallback(monkeypatch):
    from repro.core.sortedrun import MaterializedSortedRun
    from repro.errors import ChecksumError

    updates, run = make_run(n=60, block_size=256)
    # Fail every columnar slice after the first partition: the merge must
    # hand the run over to its fallback from the partition boundary on.
    real = MaterializedSortedRun.slice_columns
    calls = {"n": 0}

    def flaky(self, begin_key, end_key, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 1:
            raise ChecksumError("injected")
        return real(self, begin_key, end_key, *args, **kwargs)

    monkeypatch.setattr(MaterializedSortedRun, "slice_columns", flaky)

    def fallback(after):
        if after is None:
            return CODEC.encode_columns(updates)
        key, ts = after
        return CODEC.encode_columns([u for u in updates if (u.key, u.timestamp) > (key, ts)])

    sources = [RunScan(run, 0, 10**6, fallback=fallback)]
    merge = MergeUpdates(sources, blocks_per_partition=1)
    assert encoded(merge) == encoded(updates)
    assert calls["n"] > 1


# ------------------------------------------------------- sources without a run
def buffer_of(updates):
    buffer = InMemoryUpdateBuffer(SCHEMA, 1 * MB)
    for update in sorted(updates, key=lambda u: u.timestamp):
        buffer.append(CODEC.encode(update))
    return buffer


def test_a_merge_without_sources_joins_the_data_through():
    merge = MergeUpdates([])
    assert list(merge.kernel_batches()) == [] and list(merge) == []
    pairs = [((k, f"base-{k}"), 3) for k in range(0, 20, 2)]
    assert list(MergeDataUpdates(pairs, merge, SCHEMA)) == [record for record, _ in pairs]
    empty = MergeUpdates([CODEC.encode_columns([])])
    assert list(MergeDataUpdates([], empty, SCHEMA)) == []


def test_buffer_and_object_sources_alone_are_one_unbounded_partition():
    updates, _ = make_run(n=30)
    evens, odds = CODEC.encode_columns(updates[::2]), CODEC.encode_columns(updates[1::2])
    for sources in (
        [MemScan(buffer_of(updates), 0, 10**6, query_ts=10**6)],
        [evens, odds],
        [MemScan(buffer_of(updates[::2]), 0, 10**6, query_ts=10**6), odds],
    ):
        merge = MergeUpdates(sources, blocks_per_partition=1)
        (batch,) = merge.kernel_batches()
        assert batch.keys.tolist() == [u.key for u in updates]
        assert encoded(merge) == encoded(updates)


def test_memscan_hands_over_to_the_flushed_run_between_two_partitions():
    """The buffer flushes after the first partition was merged: the later
    partitions take the buffer's share from the run of that flush."""
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    on_ssd, run = make_run(vol, n=60, block_size=256)
    buffered = [
        UpdateRecord(1000 + i, 2 * i + 1, UpdateType.INSERT, (2 * i + 1, f"b{i}"))
        for i in range(60)
    ]
    buffer = buffer_of(buffered)
    flushed = {}
    sources = [
        RunScan(run, 0, 10**6, query_ts=5000),
        MemScan(buffer, 0, 10**6, query_ts=5000, run_for_flush=flushed.get, flush_epoch=0),
    ]
    batches = MergeUpdates(sources, blocks_per_partition=1).kernel_batches()
    first = next(batches)
    assert 0 < len(first) < 120
    flushed[1] = write_run(vol, "flushed", buffer.drain_sorted(), CODEC, block_size=256)
    assert buffer.flush_epoch == 1
    # The next generation's update is later than the query: never shown.
    buffer.append(CODEC.encode(UpdateRecord(6000, 119, UpdateType.DELETE, None)))
    merged = first.records + [u for batch in batches for u in batch.records]
    assert encoded(merged) == encoded(sorted(on_ssd + buffered, key=UpdateRecord.sort_key))


# ------------------------------------------- the Figure 13 comparability contract
@pytest.mark.parametrize("source", ["runs", "buffer", "objects"])
@pytest.mark.parametrize("chains", [False, True], ids=["unique-keys", "chains"])
def test_merge_cpu_is_one_constant_per_update_whatever_the_source(source, chains):
    """``storage/iosched`` promises decode + merge = ``MERGE_CPU_PER_UPDATE``
    per consumed update, and a same-key chain costs its members one
    ``KERNEL_COMBINE_CPU_PER_UPDATE`` each on top, under class ``combine`` —
    what keeps Figure 13's simulated CPU comparable across engines whose
    updates reach the merge from runs, from memory or from an object store
    (a write set, a baseline) encoded into columns."""
    from repro.storage.iosched import KERNEL_COMBINE_CPU_PER_UPDATE, MERGE_CPU_PER_UPDATE

    first = [UpdateRecord(i + 1, 3 * i, UpdateType.INSERT, (3 * i, f"v{i}")) for i in range(90)]
    second = [
        UpdateRecord(500 + i, 3 * i if chains and i % 4 == 0 else 3 * i + 1,
                     UpdateType.MODIFY, {"payload": f"m{i}"})
        for i in range(90)
    ]
    members = 2 * sum(1 for i in range(90) if chains and i % 4 == 0)
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    if source == "runs":
        sources = [
            RunScan(
                write_run(vol, f"cpu-{n}", CODEC.encode_columns(part), CODEC, block_size=512),
                0,
                10**6,
            )
            for n, part in enumerate((first, second))
        ]
    elif source == "buffer":
        sources = [MemScan(buffer_of(first + second), 0, 10**6, query_ts=10**6)]
    else:
        sources = [CODEC.encode_columns(first), CODEC.encode_columns(second)]
    cpu = CpuMeter()
    merged = list(MergeUpdates(sources, cpu=cpu, blocks_per_partition=2))
    assert len(merged) == 180 - members // 2
    combine = cpu.class_total("combine")
    assert combine == pytest.approx(members * KERNEL_COMBINE_CPU_PER_UPDATE, rel=1e-12)
    assert cpu.total - combine == pytest.approx(180 * MERGE_CPU_PER_UPDATE, rel=1e-12)
    assert set(cpu.by_class) == {"decode", "merge"} | ({"combine"} if members else set())
