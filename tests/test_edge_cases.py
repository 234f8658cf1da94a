"""Edge cases and error paths across modules."""

import pytest

from repro.core.masm import MaSM, MaSMConfig
from repro.core.sortedrun import load_run, write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import (
    KeyNotFoundError,
    ReproError,
    StorageError,
    UpdateCacheFullError,
)
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage import checksum
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)


# ------------------------------------------------------------------- errors
def test_exception_hierarchy():
    assert issubclass(StorageError, ReproError)
    assert issubclass(UpdateCacheFullError, ReproError)
    assert issubclass(KeyNotFoundError, ReproError)


# --------------------------------------------------------------- empty table
def test_empty_table_scans_and_lookups():
    volume = StorageVolume(SimulatedDisk(capacity=16 * MB))
    table = Table.create(volume, "empty", SCHEMA, 100)
    assert list(table.range_scan(0, 100)) == []
    assert list(table.range_scan_pairs(0, 100)) == []
    with pytest.raises(KeyNotFoundError):
        table.get(1)


def test_masm_over_empty_table():
    disk_vol = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk_vol, "empty", SCHEMA, 100)
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(alpha=1.2, ssd_page_size=4 * KB, block_size=2 * KB),
    )
    masm.insert((7, "first"))
    assert list(masm.range_scan(0, 100)) == [(7, "first")]
    masm.flush_buffer()
    masm.migrate()
    assert table.row_count == 1
    assert table.get(7) == (7, "first")


# ------------------------------------------------------------ cache pressure
def test_cache_full_without_auto_migrate_raises():
    disk_vol = StorageVolume(SimulatedDisk(capacity=32 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 500)
    table.bulk_load((i * 2, f"r{i}") for i in range(500))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(
            alpha=1.5,
            ssd_page_size=2 * KB,
            block_size=2 * KB,
            cache_bytes=32 * KB,
            auto_migrate=False,
        ),
    )
    with pytest.raises(UpdateCacheFullError):
        for i in range(100_000):
            masm.modify((i % 500) * 2, {"payload": f"x{i}"})
    # After migrating, ingestion can continue.
    masm.migrate()
    masm.modify(0, {"payload": "after"})
    assert {r[0]: r for r in masm.range_scan(0, 0)}[0] == (0, "after")


# ------------------------------------------------------------------- codecs
def test_codec_rejects_truncated_payload():
    update = UpdateRecord(1, 2, UpdateType.INSERT, (2, "x"))
    data = CODEC.encode(update)
    with pytest.raises((ReproError, Exception)):
        CODEC.decode(data[: len(data) - 5])


def test_codec_rejects_bad_type_byte():
    update = UpdateRecord(1, 2, UpdateType.DELETE, None)
    data = bytearray(CODEC.encode(update))
    data[16] = 99  # the type byte
    with pytest.raises(ValueError):
        CODEC.decode(bytes(data))


# ------------------------------------------------------------------ run I/O
def test_load_run_roundtrip():
    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    updates = [
        UpdateRecord(i + 1, i * 2, UpdateType.MODIFY, {"payload": f"v{i}"})
        for i in range(500)
    ]
    written = write_run(vol, "r", CODEC.encode_columns(updates), CODEC, block_size=2 * KB)
    loaded = load_run(vol, "r", CODEC, block_size=2 * KB)
    assert loaded.count == written.count
    assert loaded.min_key == written.min_key
    assert loaded.max_key == written.max_key
    assert loaded.min_ts == written.min_ts
    assert loaded.max_ts == written.max_ts
    assert list(loaded.scan(0, 10**9)) == list(written.scan(0, 10**9))


def test_load_run_rebuilds_what_write_run_knew():
    """One decode per read: index, counts and extremes off the columns,
    over mixed update types and timestamps that are not in key order."""
    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    updates = []
    for i in range(700):
        key = i * 3
        ts = 5000 - i if i % 7 else 9000 + i
        if i % 3 == 0:
            updates.append(UpdateRecord(ts, key, UpdateType.INSERT, (key, f"v{i}")))
        elif i % 3 == 1:
            updates.append(UpdateRecord(ts, key, UpdateType.DELETE, None))
        else:
            updates.append(UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"m{i}"}))
    written = write_run(vol, "r", CODEC.encode_columns(updates), CODEC, block_size=1 * KB)
    loaded = load_run(vol, "r", CODEC, block_size=1 * KB)
    assert loaded.index._keys == written.index._keys
    assert (loaded.num_blocks, loaded.count) == (written.num_blocks, written.count)
    assert (loaded.min_key, loaded.max_key) == (0, 699 * 3)
    assert (loaded.min_ts, loaded.max_ts) == (written.min_ts, written.max_ts)
    assert all(type(v) is int for v in (loaded.min_key, loaded.max_ts, *loaded.index._keys))
    assert list(loaded.scan(0, 10**9)) == updates


def test_load_run_rejects_damaged_blocks_as_before():
    """A garbled block fails its checksum; a block that verifies but whose
    record count runs past its records is a truncated update record."""
    from repro.errors import ChecksumError
    from repro.storage import checksum

    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    updates = [
        UpdateRecord(i + 1, i * 2, UpdateType.INSERT, (i * 2, f"v{i}")) for i in range(300)
    ]
    block_size = 1 * KB
    run = write_run(vol, "r", CODEC.encode_columns(updates), CODEC, block_size=block_size)
    assert run.num_blocks > 3
    victim = 2 * block_size
    good = run.file.read(victim, block_size)

    garbled = bytearray(good)
    garbled[40] ^= 0xFF
    run.file.write(victim, bytes(garbled))
    with pytest.raises(ChecksumError, match="block 2"):
        load_run(vol, "r", CODEC, block_size=block_size)

    count = int.from_bytes(good[:4], "little")
    body = (count + 3).to_bytes(4, "little") + good[4 : block_size - checksum.TRAILER_SIZE]
    run.file.write(victim, checksum.seal(body.rstrip(b"\x00"), block_size))
    with pytest.raises(ReproError, match="truncated update record|does not match schema"):
        load_run(vol, "r", CODEC, block_size=block_size)

    run.file.write(victim, good)
    assert load_run(vol, "r", CODEC, block_size=block_size).count == 300


#: A block of every update type: INSERT, MODIFY, DELETE, REPLACE.
MIXED = [
    UpdateRecord(1, 2, UpdateType.INSERT, (2, "v2")),
    UpdateRecord(2, 4, UpdateType.MODIFY, {"payload": "m4"}),
    UpdateRecord(3, 6, UpdateType.DELETE, None),
    UpdateRecord(4, 8, UpdateType.REPLACE, (8, "r8")),
]


def _with_length(block: bytes, row: int, length: int) -> bytes:
    """``block`` with the payload length of update ``row`` overwritten."""
    at = 4 + 17 * len(MIXED) + 4 * row  # past the count, keys, timestamps, types
    return block[:at] + length.to_bytes(4, "little") + block[at + 4 :]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # A count whose header columns alone run past the block.
        (lambda b: (10**6).to_bytes(4, "little") + b[4:], "truncated update record"),
        # Payload lengths that sum past the block.
        (lambda b: _with_length(b, 1, 1 * KB), "truncated update record"),
        (lambda b: _with_length(b, 2, 2**32 - 1), "truncated update record"),
        # An INSERT or REPLACE payload that is not one packed record.
        (lambda b: _with_length(b, 0, SCHEMA.record_size - 1), "does not match schema size"),
        (lambda b: _with_length(b, 3, SCHEMA.record_size + 1), "does not match schema size"),
        # An op code no update type has, on the MODIFY (types follow the
        # keys and timestamps).
        (lambda b: b[:69] + bytes([7]) + b[70:], "unknown update type"),
    ],
    ids=["count", "modify-length", "delete-length", "insert-length", "replace-length", "type"],
)
def test_blocks_that_verify_but_do_not_parse_raise_typed_errors(corrupt, message):
    """A block whose checksum holds but whose columns contradict it ends in
    the :class:`ReproError` a truncated or mis-sized record raises, on
    every path that decodes blocks."""
    block = CODEC.encode_block(MIXED)
    assert CODEC.decode_block(block) == MIXED
    bad = corrupt(block)
    block_size = 1 * KB
    padded = bad.ljust(block_size - checksum.TRAILER_SIZE, b"\x00")
    with pytest.raises(ReproError, match=message):
        CODEC.decode_block(padded)
    good = CODEC.encode_block(MIXED).ljust(block_size, b"\x00")
    with pytest.raises(ReproError, match=message):
        CODEC.decode_blocks([good, padded.ljust(block_size, b"\x00"), good])

    vol = StorageVolume(SimulatedSSD(capacity=1 * MB))
    run = write_run(vol, "r", CODEC.encode_columns(MIXED), CODEC, block_size=block_size)
    run.file.write(0, checksum.seal(padded, block_size))
    with pytest.raises(ReproError, match=message):
        load_run(vol, "r", CODEC, block_size=block_size)
    with pytest.raises(ReproError, match=message):
        list(run.scan(0, 100))


def test_load_run_missing_file():
    vol = StorageVolume(SimulatedSSD(capacity=1 * MB))
    with pytest.raises(StorageError):
        load_run(vol, "ghost", CODEC)


# ------------------------------------------------------------ range bounds
def test_scan_ranges_beyond_table():
    disk_vol = StorageVolume(SimulatedDisk(capacity=16 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=4 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 200)
    table.bulk_load((i * 2, f"r{i}") for i in range(200))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(alpha=1.2, ssd_page_size=4 * KB, block_size=2 * KB),
    )
    # Entirely past the data.
    assert list(masm.range_scan(10_000, 20_000)) == []
    # Insert past the data, then scan there.
    masm.insert((10_001, "far"))
    assert list(masm.range_scan(10_000, 20_000)) == [(10_001, "far")]


def test_single_key_range_scans():
    disk_vol = StorageVolume(SimulatedDisk(capacity=16 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 100)
    table.bulk_load((i * 2, f"r{i}") for i in range(100))
    assert [r[0] for r in table.range_scan(50, 50)] == [50]
    assert list(table.range_scan(51, 51)) == []


# ---------------------------------------------------------------- device IO
def test_zero_byte_io():
    disk = SimulatedDisk(capacity=1 * MB)
    assert disk.read(0, 0) == b""
    disk.write(0, b"")
    ssd = SimulatedSSD(capacity=1 * MB)
    assert ssd.read_batch([(0, 0)]) == [b""]


def test_full_capacity_access():
    disk = SimulatedDisk(capacity=64 * KB)
    disk.write(0, b"x" * (64 * KB))
    assert len(disk.read(0, 64 * KB)) == 64 * KB
    with pytest.raises(StorageError):
        disk.read(1, 64 * KB)
