"""Decode at I/O grain against the per-page / per-block code it replaced.

* ``decode_chunk`` (one vectorised pass per heap I/O chunk) must give, page
  for page, what ``page_records(SlottedPage.from_bytes(raw), schema)`` gives —
  records, keys, timestamps, and the first error of a damaged chunk.
* ``UpdateCodec.decode_blocks`` (one pass per run read group) must give, block
  for block, what ``decode_block`` and the per-field reference codec give.
* The device must see the reads it saw before the grain changed: a golden
  ``(device, offset, size)`` sequence recorded at the parent commit (908a41a).
"""

import gc
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_codec as ref
from repro.core.blockcache import DecodedBlockCache
from repro.core.masm import MaSM, MaSMConfig
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.heapfile import decode_chunk, page_records
from repro.engine.page import HEADER, SLOT, SlottedPage
from repro.engine.record import Schema, synthetic_schema
from repro.engine.table import Table
from repro.errors import PageError, ReproError, SchemaError
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

PAGE_SIZE = 256

#: A u32 key, and a u64 key whose upper half does not fit int64.
SCHEMAS = {
    "u32": (Schema([("k", "u32"), ("v", "s6")]), st.integers(0, 2**32 - 1)),
    "u64": (Schema([("v", "s4"), ("k", "u64")], key="k"), st.integers(0, 2**64 - 1)),
}

PAGE_KINDS = ["uniform", "unsorted", "tombstone", "mixed", "swapped", "empty"]


@st.composite
def pages(draw, schema, keys):
    """One serialized page: in the bulk-loaded layout, or not."""
    kind = draw(st.sampled_from(PAGE_KINDS))
    page = SlottedPage(PAGE_SIZE, timestamp=draw(st.integers(0, 2**64 - 1)))
    if kind == "empty":
        return page.to_bytes()
    key_pos = schema.key_pos
    page_keys = draw(st.lists(keys, min_size=1, max_size=8, unique=True))
    if kind != "unsorted":
        page_keys.sort()
    for key in page_keys:
        record = [f"v{key % 97}"] * len(schema.fields)
        record[key_pos] = key
        page.insert(schema.pack(tuple(record)))
    if kind == "tombstone":
        page.delete(draw(st.integers(0, page.slot_count - 1)))
    elif kind == "mixed":
        page.insert(b"odd")  # not a whole record: unpack rejects it
    elif kind == "swapped" and page.slot_count > 1:
        # Same-length slots out of heap order (no public call produces it).
        page._slots[0], page._slots[-1] = page._slots[-1], page._slots[0]
    return page.to_bytes()


@st.composite
def chunks(draw):
    name = draw(st.sampled_from(sorted(SCHEMAS)))
    schema, keys = SCHEMAS[name]
    raw = draw(st.lists(pages(schema, keys), min_size=1, max_size=7))
    if draw(st.booleans()):
        # Garble up to three header / directory bytes of one page.
        victim = draw(st.integers(0, len(raw) - 1))
        data = bytearray(raw[victim])
        slot_count = HEADER.unpack_from(data, 0)[1]
        targets = list(range(HEADER.size)) + list(
            range(PAGE_SIZE - SLOT.size * slot_count, PAGE_SIZE)
        )
        for _ in range(draw(st.integers(1, 3))):
            data[draw(st.sampled_from(targets))] = draw(st.integers(0, 255))
        raw[victim] = bytes(data)
    return schema, raw


def decode_per_page(schema, raw_pages):
    """(per-page (timestamp, records), first failure or None)."""
    decoded = []
    for raw in raw_pages:
        try:
            page = SlottedPage.from_bytes(raw)
            decoded.append((page.timestamp, page_records(page, schema)))
        except (PageError, SchemaError, UnicodeDecodeError) as exc:
            return decoded, exc
    return decoded, None


@settings(max_examples=400, deadline=None)
@given(chunks())
def test_chunk_decode_matches_per_page_decode(case):
    schema, raw_pages = case
    expected, failure = decode_per_page(schema, raw_pages)
    data = b"".join(raw_pages)
    if failure is not None and not isinstance(failure, PageError):
        # A page that parses but whose slots are not records (wrong length,
        # or a garbled offset landing mid-record): the per-page path raises
        # from page_records, and so does the chunk — the same error, a wrong
        # length when the chunk's array is built, undecodable text when its
        # tuples are.
        with pytest.raises(type(failure)) as caught:
            decode_chunk(data, PAGE_SIZE, schema).records()
        assert str(caught.value) == str(failure)
        return
    chunk = decode_chunk(data, PAGE_SIZE, schema, first_page=5)
    if failure is None:
        assert chunk.error is None
    else:
        # The same PageError, from the same page; nothing from it or after.
        assert type(chunk.error) is PageError and str(chunk.error) == str(failure)
    assert chunk.first_page == 5
    assert chunk.page_timestamps.tolist() == [ts for ts, _ in expected]
    assert chunk.counts.tolist() == [len(records) for _, records in expected]
    flat = [record for _, records in expected for record in records]
    assert chunk.records() == flat
    assert chunk.records(1, len(flat) - 2) == flat[1 : len(flat) - 2]
    assert chunk.keys.tolist() == [record[schema.key_pos] for record in flat]
    assert chunk.record_timestamps().tolist() == [
        ts for ts, records in expected for _ in records
    ]



@pytest.mark.parametrize("same_page", [False, True])
def test_bad_text_before_a_malformed_slot_is_the_error_reported(same_page):
    """Page by page, undecodable text on an earlier page, or in an earlier
    slot of the same page, fails before a later slot that is not a whole
    record: the chunk must raise that same error, not the later one."""
    schema, _ = SCHEMAS["u64"]
    pages = [SlottedPage(PAGE_SIZE, timestamp=ts) for ts in (1, 2)]
    pages[0].insert(b"v\x80\x00\x00" + (7).to_bytes(8, "little"))
    pages[1].insert(schema.pack(("v1", 9)))
    pages[1 if not same_page else 0].insert(b"odd")
    raw_pages = [page.to_bytes() for page in pages]
    _, failure = decode_per_page(schema, raw_pages)
    assert isinstance(failure, UnicodeDecodeError)
    with pytest.raises(UnicodeDecodeError) as caught:
        decode_chunk(b"".join(raw_pages), PAGE_SIZE, schema).records()
    assert str(caught.value) == str(failure)

def test_chunk_scan_raises_the_page_error_and_yields_nothing_from_the_chunk():
    schema = synthetic_schema()
    table = Table.create(StorageVolume(SimulatedDisk(capacity=16 * MB)), "t", schema, 500)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(500))
    bad = bytearray(table.heap.file.read(2 * 4096, 4096))
    bad[12:16] = (7).to_bytes(4, "little")  # free_start inside the header
    table.heap.file.write(2 * 4096, bytes(bad))
    with pytest.raises(PageError, match="free_start"):
        next(table.range_scan_pair_chunks(0, 2**62))


# ------------------------------------------------------------------ run side
FIELDS = [("key", "u32"), ("tag", "s5"), ("n", "i64")]
CODEC = UpdateCodec(Schema(FIELDS))


@st.composite
def update_blocks(draw):
    """Update lists for one read group: mixed, INSERT/REPLACE-only,
    DELETE-only and empty blocks, MODIFYs of zero to three fields."""
    blocks = []
    timestamp = 0
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["mixed", "whole", "delete", "empty"]))
        types = {
            "mixed": list(UpdateType),
            "whole": [UpdateType.INSERT, UpdateType.REPLACE],
            "delete": [UpdateType.DELETE],
            "empty": [],
        }[kind]
        updates = []
        for _ in range(draw(st.integers(1, 7)) if types else 0):
            utype = draw(st.sampled_from(types))
            key = draw(st.integers(0, 2**32 - 1))
            timestamp += draw(st.integers(1, 2**40))
            content = None
            if utype in (UpdateType.INSERT, UpdateType.REPLACE):
                content = (key, draw(st.text("abcé", max_size=2)), draw(st.integers(-9, 9)))
            elif utype is UpdateType.MODIFY:
                content = {}
                if draw(st.booleans()):
                    content["tag"] = draw(st.text("xyz", max_size=5))
                if draw(st.booleans()):
                    content["n"] = draw(st.integers(-(2**63), 2**63 - 1))
                if draw(st.booleans()):
                    content["key"] = key
            updates.append(UpdateRecord(timestamp, key, utype, content))
        blocks.append(updates)
    return blocks


def encoded_group(blocks):
    encoded = [CODEC.encode_block(updates) for updates in blocks]
    size = max(map(len, encoded)) + 8  # room for a checksum trailer
    return [block.ljust(size, b"\x00") for block in encoded]


@settings(max_examples=200, deadline=None)
@given(update_blocks())
def test_group_decode_matches_per_block_decode_and_reference(blocks):
    group = encoded_group(blocks)
    entries = CODEC.decode_blocks(group)
    assert len(entries) == len(blocks)
    for entry, raw, updates in zip(entries, group, blocks):
        assert entry.update_columns().records == CODEC.decode_block(raw) == updates
        assert ref.decode_block(FIELDS, raw) == [
            (u.timestamp, u.key, int(u.type), u.content) for u in updates
        ]
        assert entry.data[entry.offset : entry.offset + len(raw)] == raw
        assert entry.count == len(updates) and entry.group.stride == len(raw)
        assert entry.keys.tolist() == [u.key for u in updates]
        assert entry.timestamps.tolist() == [u.timestamp for u in updates]
        assert entry.ops.tolist() == [int(u.type) for u in updates]
        assert entry.update_columns().records == updates
    # One call over the joined buffer is the same decode.
    joined = b"".join(group)
    flat = [u for updates in blocks for u in updates]
    columns = CODEC.block_columns(joined, 0, len(group), len(group[0]))
    assert CODEC.decode_block(joined, 0, columns) == flat


@settings(max_examples=100, deadline=None)
@given(update_blocks(), st.data())
def test_truncated_blocks_are_rejected_alike(blocks, data):
    group = encoded_group(blocks)
    victim = data.draw(st.integers(0, len(group) - 1))
    count = len(blocks[victim])
    # One more record than the block holds: the walk runs into the padding.
    raw = (count + 1).to_bytes(4, "little") + group[victim][4:]
    with pytest.raises(ReproError):
        CODEC.decode_block(raw)
    with pytest.raises(ReproError):
        CODEC.decode_blocks(group[:victim] + [raw] + group[victim + 1 :])
    if count:
        # Cut inside the last record.
        cut = len(CODEC.encode_block(blocks[victim])) - 1
        with pytest.raises(ReproError):
            CODEC.decode_block(group[victim][:cut])
        with pytest.raises(ReproError):
            CODEC.decode_blocks([group[victim][:cut]])


def test_mixed_block_decodes_in_one_pass():
    """INSERT, DELETE, INSERT — a mix that no uniform record stride
    describes.  The header columns sit where the count puts them and each
    payload where the lengths before it end."""
    updates = [
        UpdateRecord(1, 7, UpdateType.INSERT, (7, "a", 1)),
        UpdateRecord(2, 9, UpdateType.DELETE, None),
        UpdateRecord(3, 11, UpdateType.INSERT, (11, "b", 1)),
    ]
    raw = CODEC.encode_block(updates).ljust(1024, b"\x00")
    columns = CODEC.block_columns(raw)
    heap = 4 + 3 * CODEC.header_size
    size = CODEC.schema.record_size
    assert columns.offsets.tolist() == [heap, heap + size, heap + size]
    assert columns.lengths.tolist() == [size, 0, size]
    assert CODEC.decode_block(raw) == updates
    (entry,) = CODEC.decode_blocks([raw])
    assert entry.update_columns().records == updates and entry.ops.tolist() == [0, 1, 0]


def test_block_views_outlive_evicted_neighbours():
    rng = random.Random(3)
    blocks = [
        [
            UpdateRecord(b * 100 + i + 1, b * 1000 + i, UpdateType.DELETE, None)
            if rng.random() < 0.5
            else UpdateRecord(b * 100 + i + 1, b * 1000 + i, UpdateType.INSERT,
                              (b * 1000 + i, "t", i))
            for i in range(20)
        ]
        for b in range(6)
    ]
    cache = DecodedBlockCache(capacity_blocks=1)
    for block_no, entry in enumerate(CODEC.decode_blocks(encoded_group(blocks))):
        cache.put("run", block_no, entry)
    assert len(cache) == 1 and cache.evictions == 5
    survivor = cache.get("run", 5)
    keys, timestamps, ops = survivor.columns()
    del entry
    gc.collect()
    assert keys.tolist() == [u.key for u in blocks[5]]
    assert timestamps.tolist() == [u.timestamp for u in blocks[5]]
    assert ops.tolist() == [int(u.type) for u in blocks[5]]
    assert survivor.update_columns().records == blocks[5]
    assert np.shares_memory(keys, survivor.keys)


# ------------------------------------------------------------- golden I/O trace
GOLDEN_ROWS = 3000

#: Reads of a cold 4 % scan then a full scan over the table + 3 runs built by
#: ``golden_system``, as issued by the parent commit (page-at-a-time decode).
GOLDEN_READS = [
    ("ssd", 3072, 1024), ("ssd", 4096, 1024), ("ssd", 19456, 1024), ("ssd", 33792, 1024),
    ("disk", 122880, 16384),
    ("ssd", 0, 1024), ("ssd", 1024, 1024), ("ssd", 14336, 1024), ("ssd", 15360, 1024),
    ("ssd", 29696, 1024),
    ("disk", 0, 65536),
    ("ssd", 2048, 1024), ("ssd", 16384, 1024), ("ssd", 17408, 1024), ("ssd", 30720, 1024),
    ("ssd", 31744, 1024),
    ("disk", 65536, 65536),
    ("ssd", 18432, 1024), ("ssd", 32768, 1024),
    ("disk", 131072, 65536),
    ("ssd", 5120, 1024), ("ssd", 6144, 1024), ("ssd", 20480, 1024), ("ssd", 34816, 1024),
    ("ssd", 35840, 1024), ("ssd", 7168, 1024), ("ssd", 8192, 1024), ("ssd", 21504, 1024),
    ("ssd", 22528, 1024), ("ssd", 36864, 1024),
    ("disk", 196608, 65536),
    ("ssd", 9216, 1024), ("ssd", 10240, 1024), ("ssd", 23552, 1024), ("ssd", 24576, 1024),
    ("ssd", 37888, 1024), ("ssd", 38912, 1024),
    ("disk", 262144, 65536),
    ("ssd", 11264, 1024), ("ssd", 25600, 1024), ("ssd", 26624, 1024), ("ssd", 39936, 1024),
    ("ssd", 40960, 1024), ("ssd", 12288, 1024), ("ssd", 13312, 1024), ("ssd", 27648, 1024),
    ("ssd", 28672, 1024), ("ssd", 41984, 1024), ("ssd", 43008, 1024),
    ("disk", 327680, 45056),
]


def golden_system():
    disk = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk, "golden", synthetic_schema(), GOLDEN_ROWS, io_chunk=64 * KB)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(GOLDEN_ROWS))
    config = MaSMConfig(
        alpha=1.0,
        ssd_page_size=4 * KB,
        block_size=1 * KB,
        auto_migrate=False,
        kernel_blocks_per_partition=6,
    )
    masm = MaSM(table, ssd, config=config)
    rng = random.Random(5)
    live = set(range(0, 2 * GOLDEN_ROWS, 2))
    for _ in range(3):
        for _ in range(150):
            roll = rng.random()
            if roll < 0.36:
                key = rng.randrange(GOLDEN_ROWS) * 2 + 1
                if key not in live:
                    masm.insert((key, f"new-{key}"))
                    live.add(key)
            elif roll < 0.68:
                key = rng.choice(sorted(live))
                masm.delete(key)
                live.discard(key)
            else:
                masm.modify(
                    rng.choice(sorted(live)), {"payload": f"mod-{rng.randrange(10**6)}"}
                )
        masm.flush_buffer()
    assert len(masm.runs) == 3
    return masm, disk, ssd


def test_scans_issue_the_reads_recorded_at_the_parent_commit(monkeypatch):
    monkeypatch.delenv("MASM_DISABLE_KERNELS", raising=False)
    masm, disk, ssd = golden_system()
    reads = []
    for name, volume in (("disk", disk), ("ssd", ssd)):
        store = volume.device.store

        def read(offset, size, _name=name, _read=store.read):
            reads.append((_name, offset, size))
            return _read(offset, size)

        store.read = read
    part = 2 * GOLDEN_ROWS // 25
    assert len(list(masm.range_scan(2000, 2000 + part - 1))) == 122
    assert len(list(masm.range_scan(0, 2**62))) == 3035
    assert reads == GOLDEN_READS
