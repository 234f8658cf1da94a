"""The compiled schema layout against a per-field reference codec.

``Schema``, ``SlottedPage`` and ``UpdateCodec`` read one layout compiled at
schema construction; ``reference_codec`` writes the same formats one field,
slot and header at a time.  The properties below hold the two together over
random schemas, the golden bytes pin the formats, and the page fuzz test shows the one-compare directory check
never accepts a page the slot-at-a-time parser rejected.  The run-set
edits the WAL logs round-trip through their codec (``core/manifest.py``),
and golden CHECKPOINT frames pin its one format that predates it.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_codec as ref
from repro.core.manifest import (
    Checkpoint,
    Checkpointed,
    MigrationEnded,
    MigrationStarted,
    RunFlushed,
    RunManifestEntry,
    RunsMerged,
    decode_edit,
    edit_head,
    encode_edit,
)
from repro.core.masm import MaSM, MaSMConfig
from repro.core.sortedrun import write_run
from repro.core.update import ColumnarBlock, UpdateCodec, UpdateRecord, UpdateType
from repro.engine.page import SlottedPage
from repro.engine.record import Schema
from repro.engine.table import Table
from repro.errors import PageError, RecoveryError, ReproError
from repro.storage import checksum
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import LogRecordType, RedoLog
from repro.util.units import KB, MB

NUMERIC = {
    "u32": st.integers(0, 2**32 - 1),
    "u64": st.integers(0, 2**64 - 1),  # includes values above 2**63
    "i64": st.integers(-(2**63), 2**63 - 1),
    "f64": st.floats(allow_nan=False),  # NaN != NaN would fail the roundtrip
}


def value_strategy(code: str):
    if code in NUMERIC:
        return NUMERIC[code]
    width = int(code[1:])
    # No NUL: trailing NULs are padding and do not survive a roundtrip.
    text = st.text(
        st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
        max_size=width,
    )
    return text.filter(lambda s: len(s.encode("utf-8")) <= width)


@st.composite
def schemas(draw):
    """(field list, key name): every type code can appear, several string
    columns are common, and the key is an unsigned column in any position."""
    codes = draw(
        st.lists(
            st.one_of(
                st.sampled_from(list(NUMERIC)),
                st.integers(1, 12).map(lambda n: f"s{n}"),
            ),
            min_size=0,
            max_size=5,
        )
    )
    key_at = draw(st.integers(0, len(codes)))
    codes.insert(key_at, draw(st.sampled_from(["u32", "u64"])))
    fields = [(f"c{i}", code) for i, code in enumerate(codes)]
    return fields, fields[key_at][0]


def record_strategy(fields):
    return st.tuples(*(value_strategy(code) for _, code in fields))


@st.composite
def schema_and_records(draw, max_records=12):
    fields, key = draw(schemas())
    records = draw(st.lists(record_strategy(fields), max_size=max_records))
    return fields, key, records


@st.composite
def schema_and_updates(draw):
    fields, key = draw(schemas())
    key_at = [name for name, _ in fields].index(key)
    updates = []
    for _ in range(draw(st.integers(0, 10))):
        utype = draw(st.sampled_from(list(UpdateType)))
        timestamp = draw(st.integers(0, 2**63 - 1))
        if utype in (UpdateType.INSERT, UpdateType.REPLACE):
            content = draw(record_strategy(fields))
            update_key = content[key_at]
        else:
            update_key = draw(value_strategy(fields[key_at][1]))
            content = None
            if utype is UpdateType.MODIFY:
                changed = draw(
                    st.lists(st.sampled_from(fields), unique=True, max_size=len(fields))
                )
                content = {name: draw(value_strategy(code)) for name, code in changed}
        updates.append(UpdateRecord(timestamp, update_key, utype, content))
    return fields, key, updates


# -------------------------------------------------------------------- records
@settings(max_examples=150, deadline=None)
@given(schema_and_records())
def test_pack_unpack_match_reference(case):
    fields, key, records = case
    schema = Schema(fields, key=key)
    assert schema.record_size == sum(ref.field_width(code) for _, code in fields)
    for field in schema.fields:
        assert field.width == ref.field_width(field.type_code)
        assert field.is_string == field.type_code.startswith("s")
    packed = [schema.pack(record) for record in records]
    assert packed == [ref.pack_record(fields, record) for record in records]
    for record, data in zip(records, packed):
        assert schema.unpack(data) == record == ref.unpack_record(fields, data)
        assert schema.key(record) == schema.key_of(record)
    assert schema.unpack_many(b"".join(packed)) == records
    assert schema.pack_many(records) == b"".join(packed)


# -------------------------------------------------------------------- updates
PINNED = [("c0", "u64"), ("c1", "s5"), ("c2", "i64")]


def pinned(*updates):
    return PINNED, "c0", [UpdateRecord(*u) for u in updates]


I, D, M, R = UpdateType.INSERT, UpdateType.DELETE, UpdateType.MODIFY, UpdateType.REPLACE


@settings(max_examples=150, deadline=None)
@given(schema_and_updates())
# An empty block: a count and nothing else.
@example(pinned())
# Only DELETEs: every payload is empty, so the block ends at its columns.
@example(pinned((5, 2, D, None), (6, 3, D, None), (7, 2**64 - 1, D, None)))
# Only INSERT/REPLACE: one record size apart, the layout a stride describes.
@example(pinned((1, 4, I, (4, "ab", -1)), (2, 9, R, (9, "", 0)), (3, 1, I, (1, "xyzzy", 7))))
# Exactly a block's budget: every case below writes its run with blocks of
# exactly the encoded size plus the checksum trailer.
@example(pinned((9, 2**63, I, (2**63, "é", 2**62)), (10, 2**63, M, {"c2": 1})))
# MODIFYs of every length from no field to all three, between the others.
@example(
    pinned(
        (1, 8, M, {}),
        (2, 8, I, (8, "a", 1)),
        (3, 8, M, {"c1": "bb"}),
        (4, 9, D, None),
        (5, 9, M, {"c0": 9, "c1": "ccc", "c2": -5}),
        (6, 9, M, {"c2": 3, "c1": "d"}),
    )
)
def test_update_codec_matches_reference(case):
    fields, key, updates = case
    codec = UpdateCodec(Schema(fields, key=key))
    plain = [(u.timestamp, u.key, int(u.type), u.content) for u in updates]
    encoded = [codec.encode(u) for u in updates]
    assert encoded == [ref.encode_update(fields, u) for u in plain]
    assert encoded == codec.encode_many(updates)
    for update, data in zip(updates, encoded):
        assert codec.encoded_size(update) == len(data)
        assert codec.decode(data) == (update, len(data))
    block = codec.encode_block(updates)
    assert block == ref.encode_block(fields, plain)
    assert codec.decode_block(block) == updates
    assert ref.decode_block(fields, block) == plain

    keys, timestamps, ops, offsets, lengths, bounds = codec.block_columns(block)
    assert keys.tolist() == [u.key for u in updates]  # the u64 wire values
    assert timestamps.tolist() == [u.timestamp for u in updates]
    assert ops.tolist() == [int(u.type) for u in updates]
    head = codec.header_size
    assert lengths.tolist() == [len(data) - head for data in encoded]
    # Payloads follow the columns, back to back, byte for byte the rows'.
    assert offsets.tolist() == [
        ref.BLOCK_HEAD.size + head * len(updates) + sum(len(d) - head for d in encoded[:i])
        for i in range(len(updates))
    ]
    payloads = [block[at : at + n] for at, n in zip(offsets.tolist(), lengths.tolist())]
    assert payloads == [data[head:] for data in encoded]
    assert bounds == [0, len(updates)]

    # The cached form: records decoded from already-built columns.
    entry = ColumnarBlock(block, codec)
    entry.columns()
    assert entry.update_columns().records == updates

    if updates:
        # A run whose one block is filled to exactly its budget.
        ordered = sorted(updates, key=UpdateRecord.sort_key)
        size = len(block) + checksum.TRAILER_SIZE
        volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
        run = write_run(volume, "r", codec.encode_columns(ordered), codec, block_size=size)
        assert run.num_blocks == 1
        assert run.file.peek(0, size)[: len(block)] == codec.encode_block(ordered)
        assert list(run.scan(0, 2**64 - 1)) == ordered


# ---------------------------------------------------------------------- pages
@st.composite
def serialized_pages(draw):
    """A valid page's bytes: uniform (back-to-back equal-length records) or
    not (mixed lengths, a tombstone, a relocated or compacted slot)."""
    page_size = draw(st.sampled_from([256, 512]))
    page = SlottedPage(page_size, timestamp=draw(st.integers(0, 2**64 - 1)))
    uniform = draw(st.booleans())
    length = draw(st.integers(1, 24))
    for _ in range(draw(st.integers(0, 8))):
        size = length if uniform else draw(st.integers(1, 24))
        if page.fits(size):
            page.insert(draw(st.binary(min_size=size, max_size=size)))
    if not uniform and page.slot_count:
        slot = draw(st.integers(0, page.slot_count - 1))
        action = draw(st.sampled_from(["none", "delete", "relocate", "compact"]))
        if action in ("delete", "compact"):
            page.delete(slot)
        if action == "relocate" and page.free_space >= 25:
            page.replace(slot, b"x" * 25)
        if action == "compact":
            page.compact()
    return page.to_bytes()


@st.composite
def corrupted_pages(draw):
    """A serialized page with up to three bytes of its header and slot
    directory (the parts ``from_bytes`` validates) overwritten."""
    data = bytearray(draw(serialized_pages()))
    slot_count = ref.PAGE_HEAD.unpack_from(data, 0)[1]
    targets = list(range(ref.PAGE_HEAD.size)) + list(
        range(len(data) - ref.SLOT.size * slot_count, len(data))
    )
    for _ in range(draw(st.integers(0, 3))):
        data[draw(st.sampled_from(targets))] = draw(st.integers(0, 255))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(corrupted_pages())
def test_from_bytes_accepts_exactly_what_the_per_slot_parser_accepts(data):
    try:
        timestamp, slots, heap = ref.parse_page(data)
    except PageError:
        with pytest.raises(PageError):
            SlottedPage.from_bytes(data)
        return
    page = SlottedPage.from_bytes(data)
    assert (page.timestamp, page._slots, bytes(page._heap)) == (timestamp, slots, heap)
    assert page.to_bytes()[: ref.PAGE_HEAD.size] == data[: ref.PAGE_HEAD.size]
    live = [(s, heap[o - 20 : o - 20 + n]) for s, (o, n) in enumerate(slots) if o != ref.TOMBSTONE]
    assert list(page.records()) == live
    # contiguous_record_bytes succeeds exactly on back-to-back live slots.
    for length in {n for _, n in slots}:
        back_to_back = slots == [(20 + i * length, length) for i in range(len(slots))]
        contiguous = page.contiguous_record_bytes(length)
        assert (contiguous is not None) == back_to_back
        if back_to_back:
            assert contiguous == heap[: len(slots) * length]


# --------------------------------------------------------------- golden bytes
# The on-disk, on-SSD and in-WAL formats.  The page and WAL-frame hex were
# written by the commit before the layout was compiled (3dc85dc).  The update
# and run block hex were re-pinned when blocks became column-major (the
# count, then keys, timestamps, types and payload lengths, then payloads);
# the updates in them and their sizes are unchanged.  If one changes, every
# existing heap file, run or log stops being readable.
GOLDEN_SCHEMA = Schema(
    [("name", "s6"), ("id", "u64"), ("score", "f64"), ("delta", "i64"), ("n", "u32")],
    key="id",
)
GOLDEN_RECORDS = [("ada", 7, 1.5, -2, 3), ("zoë", 2**63 + 5, -0.25, 2**62, 2**32 - 1)]
GOLDEN_UPDATES = [
    UpdateRecord(11, 4, UpdateType.INSERT, ("new", 4, 2.0, 0, 1)),
    UpdateRecord(12, 7, UpdateType.DELETE, None),
    UpdateRecord(13, 9, UpdateType.MODIFY, {"score": 9.75, "name": "mod"}),
    UpdateRecord(14, 9, UpdateType.REPLACE, ("rep", 9, 0.0, -1, 0)),
]
GOLDEN_PAGE = (
    "2a000000000000000200000058000000700000006164610000000700000000000000000000000000"
    "f83ffeffffffffffffff030000007a6fc3ab00000500000000000080000000000000d0bf00000000"
    "00000040ffffffff0000000000000000000000000000000000000000000000003600000022000000"
    "1400000022000000"
)
GOLDEN_UPDATE_BLOCK = (
    "0400000004000000000000000700000000000000090000000000000009000000000000000b000000"
    "000000000c000000000000000d000000000000000e00000000000000000102032200000000000000"
    "12000000220000006e65770000000400000000000000000000000000004000000000000000000100"
    "000000006d6f64000000020000000000008023407265700000000900000000000000000000000000"
    "0000ffffffffffffffff00000000"
)
GOLDEN_RUN_BLOCK = GOLDEN_UPDATE_BLOCK + "00" * 74 + "4d535231ab2bc685"
GOLDEN_WAL_FRAME = (
    "2a00000001aaa593560100740d000000000000000900000000000000021200000000006d6f640000"
    "0002000000000000802340"
)
GOLDEN_CHECKPOINT = Checkpoint(
    "t",
    40,
    12,
    (
        RunManifestEntry("masm-t-run-00001", 3, 40, ((0, 99), (200, 2**63 - 1)), 2),
        RunManifestEntry("masm-t-run-00002", 41, 41),
    ),
)
#: GOLDEN_CHECKPOINT's frame at generation 0, then at generation 2 (its
#: payload ends in the generation, and the CRC seed has it XORed in).
GOLDEN_CHECKPOINT_FRAMES = {
    0: (
        "7f00000006903a4b8628000000000000000c00000000000000010074020010006d61736d2d742d"
        "72756e2d30303030310300000000000000280000000000000002020000000000000000006300"
        "000000000000c800000000000000ffffffffffffff7f10006d61736d2d742d72756e2d3030303032"
        "29000000000000002900000000000000010000"
    ),
    2: (
        "8300000006b0656ecd28000000000000000c00000000000000010074020010006d61736d2d742d"
        "72756e2d30303030310300000000000000280000000000000002020000000000000000006300"
        "000000000000c800000000000000ffffffffffffff7f10006d61736d2d742d72756e2d3030303032"
        "2900000000000000290000000000000001000002000000"
    ),
}


def test_golden_page_bytes():
    page = SlottedPage(128, timestamp=42)
    for record in GOLDEN_RECORDS:
        page.insert(GOLDEN_SCHEMA.pack(record))
    assert page.to_bytes().hex() == GOLDEN_PAGE
    parsed = SlottedPage.from_bytes(bytes.fromhex(GOLDEN_PAGE))
    assert parsed.timestamp == 42
    contiguous = parsed.contiguous_record_bytes(GOLDEN_SCHEMA.record_size)
    assert GOLDEN_SCHEMA.unpack_many(contiguous) == GOLDEN_RECORDS


def test_golden_update_and_run_block_bytes():
    codec = UpdateCodec(GOLDEN_SCHEMA)
    assert codec.encode_block(GOLDEN_UPDATES).hex() == GOLDEN_UPDATE_BLOCK
    assert codec.decode_block(bytes.fromhex(GOLDEN_UPDATE_BLOCK)) == GOLDEN_UPDATES
    volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
    run = write_run(volume, "golden-run", codec.encode_columns(GOLDEN_UPDATES), codec, block_size=256)
    assert run.file.peek(0, 256).hex() == GOLDEN_RUN_BLOCK
    block = bytes.fromhex(GOLDEN_RUN_BLOCK)
    checksum.verify(block, context="golden run block")
    assert codec.decode_block(block) == GOLDEN_UPDATES
    assert list(run.scan(0, 2**62)) == GOLDEN_UPDATES


def test_golden_wal_frame_bytes():
    codec = UpdateCodec(GOLDEN_SCHEMA)
    volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
    log = RedoLog(volume.create("wal", 4096))
    log.register_table("t", codec)
    log.log_update("t", codec.encode(GOLDEN_UPDATES[2]))
    assert log.file.peek(0, log.file.append_pos).hex() == GOLDEN_WAL_FRAME
    replay = RedoLog(volume.create("old-wal", 4096))
    replay.register_table("t", codec)
    replay.file.append(bytes.fromhex(GOLDEN_WAL_FRAME))
    (record,) = replay.records()
    assert (record.type, record.table) == (LogRecordType.UPDATE, "t")
    assert record.update == GOLDEN_UPDATES[2]


def test_golden_checkpoint_frame_bytes():
    """A CHECKPOINT appended at generation 0, and the one a second
    truncation writes at the head of the log (generation 2)."""
    volume = StorageVolume(SimulatedSSD(capacity=1 * MB))
    log = RedoLog(volume.create("wal", 4096))
    log.log_checkpoint(GOLDEN_CHECKPOINT)
    assert log.file.peek(0, log.file.append_pos).hex() == GOLDEN_CHECKPOINT_FRAMES[0]
    log.truncate_through(GOLDEN_CHECKPOINT)
    log.truncate_through(GOLDEN_CHECKPOINT)
    assert log.file.peek(0, log.file.append_pos).hex() == GOLDEN_CHECKPOINT_FRAMES[2]
    for generation, frame in GOLDEN_CHECKPOINT_FRAMES.items():
        replay = RedoLog(volume.create(f"old-wal-{generation}", 4096))
        replay.file.write(0, bytes.fromhex(frame))
        replay.file.seek_append(0)  # lost with the crash
        (record,) = replay.records()  # the scan learns the generation
        assert replay.generation == generation
        assert (record.type, record.table, record.timestamp) == (
            LogRecordType.CHECKPOINT,
            "t",
            40,
        )
        assert record.edit == Checkpointed(GOLDEN_CHECKPOINT)


# ------------------------------------------------------------ run-set edits
run_names = st.text(
    st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=300
)
key_spans = st.tuples(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1))
ts_spans = st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
timestamps = st.integers(0, 2**64 - 1)
LOGGED_EDITS = st.one_of(
    st.builds(RunFlushed, run_names, timestamps, ts_spans),
    st.builds(
        RunsMerged,
        timestamps,
        run_names,
        st.lists(run_names, max_size=300).map(tuple),
        ts_spans,
    ),
    st.builds(MigrationStarted, timestamps),
    st.builds(
        MigrationEnded,
        timestamps,
        st.lists(run_names, max_size=300).map(tuple),
        st.one_of(
            st.none(),
            st.just(((0, 2**63 - 1),)),
            st.lists(key_spans, max_size=40).map(tuple),
        ),
    ),
    st.builds(
        lambda *fields: Checkpointed(Checkpoint(*fields)),
        run_names,
        timestamps,
        timestamps,
        st.lists(
            st.builds(
                RunManifestEntry,
                run_names,
                timestamps,
                timestamps,
                st.lists(key_spans, max_size=5).map(tuple),
                st.integers(1, 255),
            ),
            max_size=20,
        ).map(tuple),
    ),
)


@settings(max_examples=300, deadline=None)
@example(edit=MigrationEnded(5, ("r",), None), table="t")
@example(edit=MigrationEnded(5, ("r",), ((0, 2**63 - 1),)), table="t")
@example(edit=MigrationEnded(5, ("r",), ()), table="t")
@example(edit=MigrationEnded(5, (), ((1, 2), (4, 9), (12, 2**63 - 1))), table="t")
@given(edit=LOGGED_EDITS, table=run_names)
def test_every_logged_edit_round_trips_through_its_frame(edit, table):
    """An edit comes back from its payload, and from the WAL frame the log
    writes for it, as the edit it was (runs as their names, a full
    migration's ``spans=None`` apart from a whole-key-space range); its head
    is its timestamp and table."""
    payload = encode_edit(table, edit)
    if isinstance(edit, Checkpointed):
        table = edit.checkpoint.table
        timestamp = edit.checkpoint.checkpoint_ts
    else:
        timestamp = edit.timestamp
    assert decode_edit(edit.tag, payload) == edit
    assert edit_head(edit.tag, payload) == (timestamp, table)
    log = RedoLog(StorageVolume(SimulatedSSD(capacity=8 * MB)).create("wal", 4 * MB))
    log._append(log._edit_frame(table, edit, log.generation))
    (record,) = log.records()
    assert (record.type, record.timestamp, record.table, record.edit) == (
        edit.tag,
        timestamp,
        table,
        edit,
    )


@pytest.mark.parametrize("tag", [0, 1, 7, 255])
def test_an_unknown_edit_tag_under_a_good_crc_is_corruption(tag):
    """A run-set payload decoded under a tag no edit has (an UPDATE's among
    them) raises, from the codec and from a replay of a frame whose CRC
    holds."""
    payload = encode_edit("t", RunFlushed("masm-t-run-00001", 9, (1, 9)))
    with pytest.raises(RecoveryError, match=f"corrupt log record type {tag}$"):
        decode_edit(tag, payload)
    if tag == 1:
        return  # a frame of this type is an UPDATE (for an unknown table)
    log = RedoLog(StorageVolume(SimulatedSSD(capacity=1 * MB)).create("wal", 4096))
    log._append(log._frame(tag, payload))
    with pytest.raises(RecoveryError, match=f"corrupt log record type {tag}$"):
        list(log.records())


def test_a_garbled_edit_payload_under_a_good_crc_is_corruption():
    payload = encode_edit("t", MigrationEnded(9, ("a", "b"), ((1, 2),)))
    with pytest.raises(RecoveryError, match="corrupt MigrationEnded record"):
        decode_edit(MigrationEnded.tag, payload[:-3])


# ---------------------------------------------------- validation before apply
WIDE = Schema([("key", "u32"), ("tag", "s4"), ("n", "u32")])

ILL_FORMED = [
    UpdateRecord(1, 5, UpdateType.INSERT, (5, "too wide", 1)),
    UpdateRecord(1, 5, UpdateType.MODIFY, {"tag": "too wide"}),
    UpdateRecord(1, 5, UpdateType.MODIFY, {"n": "not a number"}),
    UpdateRecord(1, 5, UpdateType.INSERT, (5, "ok", -1)),
    UpdateRecord(1, 5, UpdateType.MODIFY, {"nope": 1}),
]


@pytest.mark.parametrize("logged", [True, False], ids=["with-log", "without-log"])
@pytest.mark.parametrize("update", ILL_FORMED, ids=lambda u: f"{u.type.name}-{u.content}")
def test_apply_rejects_ill_formed_update_before_logging_or_buffering(update, logged):
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(StorageVolume(SimulatedDisk(capacity=16 * MB)), "t", WIDE, 100)
    table.bulk_load((i, "row", i) for i in range(100))
    masm = MaSM(table, ssd, config=MaSMConfig(alpha=1.0, ssd_page_size=8 * KB))
    log = None
    if logged:
        log = RedoLog(ssd.create("wal", 64 * KB))
        masm.attach_log(log)
    with pytest.raises(ReproError) as codec_error:
        UpdateCodec(WIDE).encode(update)
    with pytest.raises(type(codec_error.value)) as raised:
        masm.apply(update)
    assert str(raised.value) == str(codec_error.value)  # encoded once: the codec's own error
    assert masm.buffer.count == 0 and masm.buffer.used_bytes == 0
    assert masm.stats.updates_ingested == 0
    if log is not None:
        assert log.records_written == 0 and log.file.append_pos == 0
    # The engine is still usable and the rejected update left no trace.
    masm.modify(5, {"tag": "fine"})
    assert masm.buffer.count == 1
    assert [r for r in masm.range_scan(5, 5)] == [(5, "fine", 5)]
