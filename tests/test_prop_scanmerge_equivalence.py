"""Property tests: the scan/merge pipeline against the record-at-a-time
reference operators (``tests/reference_operators.py``).

Run scans (read groups decoded through the shared cache), the partitioned
kernel merge and the array join must produce exactly the reference's output
over random update streams, key ranges, ``query_ts`` visibility horizons,
``after`` handover positions and migrated ranges — cold and warm — and over
every mix of sources a scan can be handed: none, the memory buffer alone,
object stores (encoded into columns) alone, runs healthy or quarantined, a buffer that flushes
between two partitions.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import reference_operators as ref
from test_faults import flip_one_bit
from repro.core import kernels
from repro.core.blockcache import DecodedBlockCache
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.operators import MemScan, MergeDataUpdates, MergeUpdates, RunScan
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import ReproError
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)
KEY_SPACE = 400


@st.composite
def update_streams(draw, max_keys=60, max_chain=4):
    """A (key, ts)-sorted update list with per-key chains that combine
    legally (no duplicate INSERT, no MODIFY after DELETE)."""
    keys = draw(
        st.lists(
            st.integers(0, KEY_SPACE), min_size=1, max_size=max_keys, unique=True
        )
    )
    counter = itertools.count(1)
    updates: list[UpdateRecord] = []
    for key in sorted(keys):
        chain_len = draw(st.integers(1, max_chain))
        exists = None  # unknown first state: any op is legal first
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


@st.composite
def scan_params(draw, max_ts):
    begin = draw(st.integers(-10, KEY_SPACE + 10))
    end = draw(st.integers(begin, KEY_SPACE + 10))
    query_ts = draw(st.none() | st.integers(0, max_ts + 2))
    after = draw(
        st.none()
        | st.tuples(st.integers(-1, KEY_SPACE + 1), st.integers(0, max_ts + 1))
    )
    migrations = draw(
        st.lists(
            st.tuples(st.integers(0, KEY_SPACE), st.integers(0, KEY_SPACE // 4)),
            max_size=4,
        )
    )
    return begin, end, query_ts, after, migrations


@settings(max_examples=40, deadline=None)
@given(data=st.data(), updates=update_streams())
def test_batch_scan_matches_reference_scan(data, updates):
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    run = write_run(vol, "prop-run", CODEC.encode_columns(updates), CODEC, block_size=4 * KB)
    max_ts = max(u.timestamp for u in updates)
    begin, end, query_ts, after, migrations = data.draw(scan_params(max_ts))
    for lo, width in migrations:
        run.mark_migrated(lo, lo + width)

    reference = list(ref.scan_run(run, begin, end, query_ts, after))
    cold = list(run.scan(begin, end, query_ts, after))
    assert encoded(cold) == encoded(reference)

    # Warm path: a shared cache serves the second scan from decoded blocks.
    cache = DecodedBlockCache(64)
    assert encoded(run.scan(begin, end, query_ts, after, cache=cache)) == encoded(
        reference
    )
    warm = list(run.scan(begin, end, query_ts, after, cache=cache))
    assert encoded(warm) == encoded(reference)
    if run.index.block_span(begin, end) is not None:
        assert cache.hits > 0


@settings(max_examples=40, deadline=None)
@given(updates=update_streams(), num_streams=st.integers(1, 5), seed=st.randoms())
def test_fast_merge_matches_reference_merge(updates, num_streams, seed):
    # Deal the global (key, ts)-sorted stream across sources; each source
    # stays (key, ts)-sorted, as RunScan/MemScan sources are.
    streams: list[list[UpdateRecord]] = [[] for _ in range(num_streams)]
    for u in updates:
        streams[seed.randrange(num_streams)].append(u)

    reference = list(ref.merge_updates(streams, SCHEMA))
    fast = list(MergeUpdates([CODEC.encode_columns(s) for s in streams]))
    assert encoded(fast) == encoded(reference)


@settings(max_examples=40, deadline=None)
@given(updates=update_streams(), num_streams=st.integers(1, 5), seed=st.randoms())
def test_merge_stream_preserves_every_record(updates, num_streams, seed):
    streams: list[list[UpdateRecord]] = [[] for _ in range(num_streams)]
    for u in updates:
        streams[seed.randrange(num_streams)].append(u)
    # The structural-merge kernel: every update kept, ties by source position.
    merged = kernels.merge_sorted([CODEC.encode_columns(s) for s in streams])
    assert encoded(merged.records) == encoded(updates)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), updates=update_streams())
def test_merged_runs_scan_equivalence(data, updates):
    """Multiple runs, merged: fast path == reference end to end."""
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    num_runs = data.draw(st.integers(1, 3))
    seed = data.draw(st.randoms())
    per_run: list[list[UpdateRecord]] = [[] for _ in range(num_runs)]
    for u in updates:
        per_run[seed.randrange(num_runs)].append(u)
    runs = [
        write_run(vol, f"prop-run-{i}", CODEC.encode_columns(batch), CODEC, block_size=4 * KB)
        for i, batch in enumerate(per_run)
        if batch
    ]
    max_ts = max(u.timestamp for u in updates)
    begin, end, query_ts, _, migrations = data.draw(scan_params(max_ts))
    for run in runs:
        for lo, width in migrations:
            run.mark_migrated(lo, lo + width)

    cache = DecodedBlockCache(64)
    reference = list(
        ref.merge_updates([ref.scan_run(run, begin, end, query_ts) for run in runs], SCHEMA)
    )
    for _ in range(2):  # cold then warm
        fast = list(
            MergeUpdates(
                [
                    CODEC.encode_columns(list(run.scan(begin, end, query_ts, cache=cache)))
                    for run in runs
                ]
            )
        )
        assert encoded(fast) == encoded(reference)

    # Column sources above are one unbounded partition; RunScan sources are
    # sliced partition by partition off the runs' own indexes.
    for blocks_per_partition in (1, 32):
        kernel = list(
            MergeUpdates(
                [
                    RunScan(run, begin, end, query_ts, cache=cache)
                    for run in runs
                ],
                blocks_per_partition=blocks_per_partition,
            )
        )
        assert encoded(kernel) == encoded(reference)


# ------------------------------------------------------------ every source mix
MIXES = ("none", "mem", "objects", "quarantined", "mixed", "damaged", "flush")


def outcome(rows):
    """The rows, or the error draining them raises."""
    try:
        return list(rows)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("mix", MIXES)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), updates=update_streams())
def test_every_source_mix_joins_like_the_reference(mix, data, updates):
    """Whatever a scan is handed — no source, the buffer alone, object
    stores alone, runs healthy, quarantined or damaged mid-scan, a buffer that
    flushes while the scan runs — rows, order and errors are the
    record-at-a-time operators'."""
    max_ts = max(u.timestamp for u in updates)
    if data.draw(st.booleans()):
        # A chain that cannot combine: both sides must refuse it alike.
        key = data.draw(st.sampled_from(updates)).key
        updates = sorted(
            updates
            + [UpdateRecord(max_ts + n, key, UpdateType.INSERT, (key, "twice")) for n in (1, 2)],
            key=UpdateRecord.sort_key,
        )
        max_ts += 2
    begin, end, query_ts, _, migrations = data.draw(scan_params(max_ts))
    horizon = max_ts + 5 if query_ts is None else query_ts

    def visible(records):
        return [u for u in records if begin <= u.key <= end and u.timestamp <= horizon]

    data_keys = sorted(data.draw(st.lists(st.integers(0, KEY_SPACE), max_size=40, unique=True)))
    pairs = [
        ((k, f"base-{k}"), 0 if mix == "objects" else data.draw(st.integers(0, max_ts + 1)))
        for k in data_keys
        if begin <= k <= end
    ]

    # Deal the stream: some runs, one in-memory part.
    num_runs = {"none": 0, "mem": 0, "objects": 0, "flush": 1}.get(mix)
    if num_runs is None:
        num_runs = data.draw(st.integers(1, 3))
    seed = data.draw(st.randoms())
    parts: list[list[UpdateRecord]] = [[] for _ in range(num_runs + 1)]
    for u in updates:
        parts[seed.randrange(num_runs + 1)].append(u)
    memory = parts.pop()
    vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    block_size = data.draw(st.sampled_from([256, 512, 4 * KB]))
    runs = [
        write_run(vol, f"mix-run-{i}", CODEC.encode_columns(part), CODEC, block_size=block_size)
        for i, part in enumerate(parts)
        if part
    ]
    for run in runs:
        for lo, width in migrations:
            run.mark_migrated(lo, lo + width)
    cache = data.draw(st.none() | st.just(DecodedBlockCache(8)))

    # What each run holds for this scan, read before any damage is done.
    run_records = [list(ref.scan_run(run, begin, end, query_ts)) for run in runs]
    reference_sources: list = list(run_records)
    sources: list = []
    for run, records in zip(runs, run_records):
        def fallback(after, records=records):
            return CODEC.encode_columns(
                [u for u in records if after is None or u.sort_key() > after]
            )

        degraded = mix == "quarantined" or (mix == "mixed" and data.draw(st.booleans()))
        if degraded:
            run.quarantine("test damage")
        sources.append(
            RunScan(run, begin, end, query_ts, cache=cache, fallback=fallback if degraded else None)
        )
    unhealed = False  # a damaged block with no log behind it
    if mix == "damaged" and runs:
        victim = data.draw(st.integers(0, len(runs) - 1))
        flip_one_bit(runs[victim], data.draw(st.integers(0, runs[victim].num_blocks - 1)))
        unhealed = not data.draw(st.booleans())
        if not unhealed:
            sources[victim].fallback = lambda after: CODEC.encode_columns(
                [u for u in run_records[victim] if after is None or u.sort_key() > after]
            )
        else:
            # No log to fall back on: the damage surfaces, as the same error.
            reference_sources[victim] = ref.scan_run(runs[victim], begin, end, query_ts)

    buffer = InMemoryUpdateBuffer(SCHEMA, 1 * MB)
    flushed: dict = {}
    if mix in ("mem", "mixed", "flush"):
        for u in sorted(memory, key=lambda u: u.timestamp):
            buffer.append(CODEC.encode(u))
        sources.append(
            MemScan(
                buffer, begin, end, horizon, run_for_flush=flushed.get,
                cache=cache, flush_epoch=buffer.flush_epoch,
            )
        )
        reference_sources.append(visible(memory))
    elif mix != "none":
        sources.append(CODEC.encode_columns(visible(memory)))
        reference_sources.append(visible(memory))

    def reference_outcome(sources):
        return outcome(ref.merge_data_updates(pairs, ref.merge_updates(sources, SCHEMA), SCHEMA))

    expected = reference_outcome(reference_sources)
    allowed = [expected]
    if unhealed:
        # When the scan can meet both an uncombinable chain and the damaged
        # block, which error comes first depends on the read grain: the
        # reference streams block by block, the kernel slices a partition.
        # Either error, exactly as the reference words it, is then right.
        conflict = reference_outcome([*run_records, *reference_sources[len(runs):]])
        damage = outcome(ref.scan_run(runs[victim], begin, end, query_ts))
        if isinstance(conflict, str) and isinstance(damage, str):
            allowed = [conflict, damage]

    merge = MergeUpdates(sources, blocks_per_partition=data.draw(st.sampled_from([1, 2, 32])))
    rows = iter(MergeDataUpdates(pairs, merge, SCHEMA))

    def drained():
        yield from itertools.islice(rows, data.draw(st.integers(0, 30)) if mix == "flush" else 0)
        if mix == "flush":
            taken = buffer.drain_sorted()
            if len(taken):
                flushed[buffer.flush_epoch] = write_run(
                    vol, "mix-flushed", taken, CODEC, block_size=block_size
                )
            # The next generation's: later than the scan, never its business.
            buffer.append(CODEC.encode(UpdateRecord(horizon + 1, max(begin, 0), UpdateType.DELETE, None)))
        yield from rows

    got = outcome(drained())
    event(f"{mix}: {'rows' if isinstance(got, list) else got.split(':')[0]}")
    assert got in allowed
    if mix == "none":
        assert expected == [record for record, _ in pairs]
