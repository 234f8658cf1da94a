"""The chunked WAL frame walk against the per-frame reference.

``RedoLog._frames`` reads the live log in sequential ``READ_CHUNK`` pieces and
serves truncation, recovery replay, catch-up and log-fallback scans.  Over
random record mixes and every chunk size it must be indistinguishable, from
the outside, from the two-reads-per-frame passes in ``reference_wal``:

* the same records, errors and side effects (parked cursor, truncation
  fence, generation) with frames straddling every read-chunk boundary, in
  known-end and in post-crash scanning mode;
* a torn tail cut at every byte of the last frame stops the scan, is counted
  and leaves the cursor where the torn frame began, over unwritten space and
  over the stale bytes a truncation leaves behind;
* after one to three truncations, stale frames behind the cursor — dropped
  records, earlier-generation copies of survivors, torn pieces of either —
  never replay: a post-crash scan ends exactly where the live log ends, and
  a whole stale frame there is not counted as a torn tail;
* a flipped bit mid-log raises ``RecoveryError`` from ``records()`` (known
  end) and from ``truncate_through`` ("refusing to truncate");
* ``truncate_through`` leaves the same file bytes, cursor, generation and
  ``TruncationReport``;
* and a pass costs at most ``ceil(live bytes / chunk) + 1`` device reads.

``MASM_FAULT_SEED`` / ``MASM_CHAOS_SEED`` seed the fuzz legs (CI runs the
suite under every seed of its ``faults`` and ``chaos`` jobs).
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_wal as ref
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import Schema
from repro.errors import RecoveryError
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn import log as log_module
from repro.core.manifest import (
    Checkpoint,
    MigrationEnded,
    MigrationStarted,
    RunFlushed,
    RunManifestEntry,
    RunsMerged,
)
from repro.txn.log import _FRAME, RedoLog
from repro.util.units import KB, MB, ceil_div

pytestmark = [pytest.mark.faults, pytest.mark.chaos]

SEED = int(os.environ.get("MASM_FAULT_SEED", "11")) * 1009 + int(
    os.environ.get("MASM_CHAOS_SEED", "3")
)

SCHEMA = Schema([("key", "u32"), ("payload", "s12")])
CODEC = UpdateCodec(SCHEMA)
TABLES = ("t", "other-table")
LOG_BYTES = 64 * KB


# ------------------------------------------------------------------ fixtures
def make_log(size: int = LOG_BYTES) -> RedoLog:
    volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
    log = RedoLog(volume.create("wal", size))
    for name in TABLES:
        log.register_table(name, CODEC)
    return log


def logged(log: RedoLog, table: str, min_ts: int = 0, max_ts=None) -> list[UpdateRecord]:
    """The table's logged updates in the span, decoded, in log order."""
    decode = log.codecs[table].decode
    return [decode(encoded)[0] for encoded in log.encoded_updates(table, min_ts, max_ts)]


def reopen(log: RedoLog) -> RedoLog:
    """The log as a restarted process finds it: bytes kept, cursor lost."""
    log.file._append_pos = 0
    restarted = RedoLog(log.file)
    for name, codec in log.codecs.items():
        restarted.register_table(name, codec)
    return restarted


@contextmanager
def read_chunk(size: int):
    saved = log_module.READ_CHUNK
    log_module.READ_CHUNK = size
    try:
        yield
    finally:
        log_module.READ_CHUNK = saved


def state(log: RedoLog) -> tuple:
    """Everything a pass may change, file bytes included."""
    return (
        log.file.append_pos,
        log.truncated_through,
        log.generation,
        log.file.peek(0, log.file.size),
    )


names = st.text("abcdefgh-0123", min_size=1, max_size=12)
keys = st.integers(0, 2**32 - 1)
texts = st.text("xyz é", max_size=6)
spans = st.tuples(st.integers(0, 1000), st.integers(1000, 2**40))
tables = st.sampled_from(TABLES)
OPS = st.one_of(
    st.tuples(st.just("insert"), tables, keys, texts),
    st.tuples(st.just("delete"), tables, keys),
    st.tuples(st.just("modify"), tables, keys, texts),
    st.tuples(st.just("flush"), tables, names),
    st.tuples(
        st.just("migration"),
        tables,
        st.lists(names, max_size=3),
        st.none() | st.lists(spans, max_size=3).map(tuple),
    ),
    st.tuples(st.just("merge"), tables, names, st.lists(names, max_size=3)),
    st.tuples(
        st.just("checkpoint"),
        tables,
        st.lists(st.tuples(names, st.lists(spans, max_size=2)), max_size=3),
    ),
)


def apply_ops(log: RedoLog, ops, first_ts: int = 1) -> None:
    """Append one record per op; op ``i`` carries timestamp ``first_ts + i``."""
    for ts, op in enumerate(ops, start=first_ts):
        kind = op[0]
        if kind == "insert":
            _, table, key, text = op
            log.log_update(table, CODEC.encode(UpdateRecord(ts, key, UpdateType.INSERT, (key, text))))
        elif kind == "delete":
            log.log_update(op[1], CODEC.encode(UpdateRecord(ts, op[2], UpdateType.DELETE, None)))
        elif kind == "modify":
            _, table, key, text = op
            log.log_update(
                table, CODEC.encode(UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": text}))
            )
        elif kind == "flush":
            log.log_run_flush(op[1], RunFlushed(op[2], ts, (1, ts)))
        elif kind == "migration":
            _, table, runs, spans = op
            log.log_edit(table, MigrationStarted(ts))
            log.log_edit(table, MigrationEnded(ts, tuple(runs), spans))
        elif kind == "merge":
            _, table, product, victims = op
            log.log_edit(table, RunsMerged(ts, product, tuple(victims), (1, ts)))
        else:
            _, table, runs = op
            entries = tuple(
                RunManifestEntry(name, 1, ts, tuple(ranges)) for name, ranges in runs
            )
            log.log_checkpoint(Checkpoint(table, ts // 2, ts // 3, entries))


def random_ops(rng: random.Random, count: int) -> list:
    """A seeded mix of every record kind (the non-hypothesis fuzz legs)."""
    ops = []
    for _ in range(count):
        roll = rng.random()
        table = rng.choice(TABLES)
        if roll < 0.6:
            kind = rng.choice(["insert", "delete", "modify"])
            op = (kind, table, rng.randrange(2**32))
            ops.append(op if kind == "delete" else op + ("v%d" % rng.randrange(999),))
        elif roll < 0.7:
            ops.append(("flush", table, "run-%d" % rng.randrange(99)))
        elif roll < 0.8:
            ops.append(("migration", table, ["r%d" % i for i in range(rng.randrange(4))], None))
        elif roll < 0.9:
            ops.append(("merge", table, "product", ["v%d" % i for i in range(rng.randrange(4))]))
        else:
            ops.append(("checkpoint", table, [("run-a", [(0, 5)]), ("run-b", [])]))
    return ops


def twin_logs(ops, size: int = LOG_BYTES) -> tuple[RedoLog, RedoLog]:
    first, second = make_log(size), make_log(size)
    apply_ops(first, ops)
    apply_ops(second, ops)
    assert state(first) == state(second)
    return first, second


# ------------------------------------------------- records(): random mixes
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(OPS, min_size=1, max_size=30), chunk=st.integers(1, 400))
def test_chunked_walk_equals_the_per_frame_reference(ops, chunk):
    log, twin = twin_logs(ops)
    with read_chunk(chunk):
        # Known end: the live cursor bounds the walk.
        assert list(log.records()) == list(ref.reference_records(twin))
        assert state(log) == state(twin)
        # Post-crash scan: the end is found, the cursor parked, and (after
        # a checkpoint) the rest of the file treated as dirty.
        log, twin = reopen(log), reopen(twin)
        assert list(log.records()) == list(ref.reference_records(twin))
        assert state(log) == state(twin)
        assert log.file.append_pos > 0


def test_frames_straddle_every_read_chunk_boundary():
    """One fixed log, every chunk size from one byte to past the whole log:
    each frame's header and payload meet a chunk edge at every offset."""
    ops = random_ops(random.Random(SEED), 12)
    log, twin = twin_logs(ops)
    expected = list(ref.reference_records(twin))
    live = log.live_bytes
    for chunk in range(1, live + 3):
        with read_chunk(chunk):
            assert list(log.records()) == expected
            scanned = reopen(make_copy(log))
            assert list(scanned.records()) == expected
            assert scanned.file.append_pos == live


def make_copy(log: RedoLog) -> RedoLog:
    copy = make_log(log.file.size)
    copy.file.write(0, log.file.peek(0, log.live_bytes))
    return copy


def test_updates_reads_only_the_asked_table_and_span():
    ops = random_ops(random.Random(SEED + 1), 200)
    log = make_log()
    apply_ops(log, ops)
    everything = list(log.records())
    for table in TABLES:
        for lo, hi in ((0, None), (50, 120), (201, None), (7, 7)):
            want = [
                r.update
                for r in everything
                if r.update is not None
                and r.table == table
                and lo <= r.timestamp
                and (hi is None or r.timestamp <= hi)
            ]
            with read_chunk(97):
                assert logged(log, table, lo, hi) == want
    with pytest.raises(RecoveryError, match="no codec registered"):
        list(log.encoded_updates("nobody"))


# ----------------------------------------------------------------- torn tail
def test_torn_tail_cut_at_every_byte_of_the_last_frame():
    """Behind the cut lies unwritten space (zeroes), and then the longer
    log a truncation compacted (stale bytes of the previous generation)."""
    for behind in ("unwritten", "stale"):
        torn_tail_cut_at_every_byte(behind)


def torn_tail_cut_at_every_byte(behind: str) -> None:
    rng = random.Random(SEED + 2)
    whole = make_log()
    background = b""
    if behind == "stale":
        apply_ops(whole, random_ops(rng, 40))
        background = whole.file.peek(0, whole.live_bytes)
        whole.truncate_through(Checkpoint("t", 40, 0))
    # The last frame ends in a non-zero byte: cutting trailing zeroes off a
    # frame would leave it whole (unwritten space reads as zeroes).
    ops = random_ops(rng, 9) + [("insert", "t", 77, "twelve-bytes")]
    apply_ops(whole, ops, first_ts=41)
    image = whole.file.peek(0, whole.live_bytes)
    start = len(image) - len(frames_of(image)[-1])
    assert len(background) > len(image) or behind == "unwritten"
    expected = list(whole.records())[:-1]
    for cut in range(len(image) - start):
        for chunk in (5, 64, 256 * KB):
            with use_registry(MetricsRegistry()), read_chunk(chunk):
                torn = make_log()
                torn.file.write(0, background)
                torn.file.write(0, image[: start + cut])
                torn = reopen(torn)
                assert list(torn.records()) == expected
                skipped = get_registry().counter("txn.log.torn_tail_skipped").value
            with use_registry(MetricsRegistry()):
                twin = make_log()
                twin.file.write(0, background)
                twin.file.write(0, image[: start + cut])
                twin = reopen(twin)
                assert list(ref.reference_records(twin)) == expected
                assert skipped == get_registry().counter("txn.log.torn_tail_skipped").value
            if behind == "unwritten":
                # Zero bytes are unwritten space, not a tear: the tail counts
                # as torn once the frame's type byte made it to the device.
                assert skipped == (1 if cut > 4 else 0)
            elif cut > 4:
                # A torn append over stale bytes is a tear, whatever the
                # bytes behind its cut were.
                assert skipped == 1
            else:
                # Before the type byte lands the scan meets stale bytes: a
                # frame whole under the previous generation, unwritten
                # space where a zero sits on the type byte, or a tear.
                assert skipped <= 1
            assert torn.file.append_pos == start
            assert torn.generation == whole.generation
            assert state(torn) == state(twin)
            # The next append reuses the torn frame's space.
            torn.log_update("t", CODEC.encode(UpdateRecord(999, 1, UpdateType.DELETE, None)))
            assert len(list(torn.records())) == len(expected) + 1


def frames_of(image: bytes) -> list[bytes]:
    """The frames laid end to end in a log image."""
    frames = []
    offset = 0
    while offset < len(image):
        size = _FRAME.size + _FRAME.unpack_from(image, offset)[0]
        frames.append(image[offset : offset + size])
        offset += size
    return frames


# --------------------------------------------------------------- stale frames
_PINNED_OPS = [("insert", "t", 1, "a"), ("insert", "t", 2, "b"), ("insert", "t", 3, "c")]
_PINNED_ROUNDS = [(0.5, "t", [("insert", "t", 4, "d")])]


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(OPS, min_size=1, max_size=30),
    rounds=st.lists(
        st.tuples(st.floats(0, 1.2), tables, st.lists(OPS, max_size=8)),
        min_size=1,
        max_size=3,
    ),
    fill=st.lists(
        st.tuples(
            st.sampled_from(["dropped", "survivor"]),
            st.integers(0, 999),
            st.none() | st.floats(0, 1, exclude_min=True, exclude_max=True),
        ),
        min_size=1,
        max_size=5,
    ),
    chunk=st.integers(1, 400),
)
# A whole dropped frame, an older copy of a survivor, and a torn piece of a
# dropped frame ahead of a whole survivor copy, each right at the cursor.
@example(ops=_PINNED_OPS, rounds=_PINNED_ROUNDS, fill=[("dropped", 0, None)], chunk=64)
@example(ops=_PINNED_OPS, rounds=_PINNED_ROUNDS, fill=[("survivor", 1, None)], chunk=64)
@example(
    ops=_PINNED_OPS,
    rounds=_PINNED_ROUNDS * 2,
    fill=[("dropped", 0, 0.5), ("survivor", 0, None)],
    chunk=5,
)
def test_stale_frames_behind_the_cursor_never_replay(ops, rounds, fill, chunk):
    """After one to three truncations, fill the bytes behind the cursor with
    frames of earlier generations — records truncation dropped, older
    copies of the survivors, torn prefixes of either — and lose the cursor:
    the scan must replay exactly the live log and park at its end."""
    log, twin = twin_logs(ops)
    stale: list[bytes] = []
    last_ts = len(ops)
    for fence, table, more in rounds:
        stale += frames_of(log.file.peek(0, log.live_bytes))
        checkpoint = Checkpoint(table, int(fence * last_ts), 0)
        assert log.truncate_through(checkpoint) == ref.reference_truncate_through(
            twin, checkpoint
        )
        apply_ops(log, more, first_ts=last_ts + 1)
        apply_ops(twin, more, first_ts=last_ts + 1)
        last_ts += len(more)
    assert state(log) == state(twin)
    assert log.generation == len(rounds)
    live = log.live_bytes
    payloads = {frame[_FRAME.size :] for frame in frames_of(log.file.peek(0, live))}
    pools = {
        "survivor": [frame for frame in stale if frame[_FRAME.size :] in payloads],
        "dropped": [frame for frame in stale if frame[_FRAME.size :] not in payloads],
    }
    pieces = []
    for kind, pick, cut in fill:
        pool = pools[kind] or pools["dropped"] or pools["survivor"]
        frame = pool[pick % len(pool)]
        pieces.append(frame if cut is None else frame[: max(1, int(cut * len(frame)))])
    junk = b"".join(pieces)[: log.file.size - live]
    # A whole frame of an earlier generation right at the cursor.
    stale_at_cursor = fill[0][2] is None and len(junk) >= len(pieces[0])
    expected = list(log.records())
    for each in (log, twin):
        each.file.write(live, junk)
    with read_chunk(chunk):
        with use_registry(MetricsRegistry()):
            log = reopen(log)
            assert list(log.records()) == expected
            skipped = get_registry().counter("txn.log.torn_tail_skipped").value
        with use_registry(MetricsRegistry()):
            twin = reopen(twin)
            assert list(ref.reference_records(twin)) == expected
            assert get_registry().counter("txn.log.torn_tail_skipped").value == skipped
        assert state(log) == state(twin)
        assert log.file.append_pos == live
        assert log.generation == len(rounds)
    if stale_at_cursor:
        # A stale frame ends the scan, but it is no torn tail.
        assert skipped == 0
    else:
        assert skipped <= 1


# ----------------------------------------------------------------- corruption
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(OPS, min_size=2, max_size=20),
    chunk=st.integers(1, 300),
    where=st.floats(0, 1, exclude_max=True),
    bit=st.integers(0, 7),
)
def test_flipped_bit_mid_log_is_corruption_not_a_torn_tail(ops, chunk, where, bit):
    log = make_log()
    apply_ops(log, ops)
    # Flip one bit under a CRC: in a payload or a stored CRC, not in a length
    # or type field (a damaged length is a different error: see below).
    image = log.file.peek(0, log.live_bytes)
    spots = []
    offset = 0
    while offset < len(image):
        length = _FRAME.unpack_from(image, offset)[0]
        spots.extend(range(offset + 5, offset + _FRAME.size + length))
        offset += _FRAME.size + length
    spot = spots[int(where * len(spots))]
    log.file.write(spot, bytes([image[spot] ^ (1 << bit)]))
    before = log.file.append_pos, log.file.peek(0, log.file.size)
    with read_chunk(chunk):
        with pytest.raises(RecoveryError, match="failed checksum"):
            list(log.records())
        with pytest.raises(RecoveryError, match="refusing to truncate"):
            log.truncate_through(Checkpoint("t", len(ops), 0))
    assert (log.file.append_pos, log.file.peek(0, log.file.size)) == before


def test_frame_running_past_a_known_end_raises():
    log = make_log()
    apply_ops(log, random_ops(random.Random(SEED + 3), 6))
    end = log.live_bytes
    for chop, message in ((3, "truncated log frame header"), (12, "truncated log record payload")):
        # A short cursor strands the start of a frame before the known end.
        last = end - len(frames_of(log.file.peek(0, end))[-1])
        log.file.seek_append(last + chop)
        with pytest.raises(RecoveryError, match=message):
            list(log.records())
        with pytest.raises(RecoveryError, match="refusing to truncate"):
            log.truncate_through(Checkpoint("t", 1, 0))


@pytest.mark.parametrize("rtype", [7, 255])
def test_a_frame_of_an_unassigned_type_is_corruption(rtype):
    """A frame whose CRC holds but whose type byte names no record kind
    fails the replay (known end and post-crash scan) and truncation."""
    log = make_log()
    apply_ops(log, random_ops(random.Random(SEED + 5), 4))
    at = log.file.append_pos
    frame = log._frame(rtype, b"\x00" * 24)
    log.file.write(at, frame)
    log.file.seek_append(at + len(frame))
    message = f"corrupt log record type {rtype}$"
    with pytest.raises(RecoveryError, match=message):
        list(log.records())
    with pytest.raises(RecoveryError, match="refusing to truncate"):
        log.truncate_through(Checkpoint("t", 1, 0))
    with pytest.raises(RecoveryError, match=message):
        list(reopen(log).records())


# ----------------------------------------------------------------- truncation
@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(OPS, min_size=1, max_size=30),
    chunk=st.integers(1, 400),
    fence=st.floats(0, 1.2),
    table=tables,
)
def test_truncation_equals_the_per_frame_reference(ops, chunk, fence, table):
    log, twin = twin_logs(ops)
    checkpoint = Checkpoint(
        table, int(fence * len(ops)), 0, (RunManifestEntry("run-x", 1, 5, ((1, 9),)),)
    )
    with read_chunk(chunk):
        report = log.truncate_through(checkpoint)
        assert report == ref.reference_truncate_through(twin, checkpoint)
        assert state(log) == state(twin)
        # And again over the compacted log, with its dirty tail behind it.
        later = Checkpoint(table, len(ops), 0)
        assert log.truncate_through(later) == ref.reference_truncate_through(twin, later)
        assert state(log) == state(twin)
        assert list(log.records()) == list(ref.reference_records(twin))


# ---------------------------------------------------------------- read budget
@pytest.mark.parametrize("chunk", [512, 4 * KB, 256 * KB])
def test_a_pass_reads_one_chunk_at_a_time(chunk):
    log = make_log()
    apply_ops(log, random_ops(random.Random(SEED + 4), 600))
    live = log.live_bytes
    assert live > 8 * KB
    budget = ceil_div(live, chunk) + 1

    def reads(of: RedoLog, run) -> int:
        stats = of.file.device.stats
        before = stats.reads
        run()
        return stats.reads - before

    with read_chunk(chunk):
        assert reads(log, lambda: list(log.records())) <= budget
        assert reads(log, lambda: logged(log, "t", 100)) <= budget
        scanning = reopen(make_copy(log))
        assert reads(scanning, lambda: list(scanning.records())) <= budget
        assert scanning.file.append_pos == live
        assert reads(log, lambda: log.truncate_through(Checkpoint("t", 300, 0))) <= budget
