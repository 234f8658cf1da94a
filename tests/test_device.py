"""BlockStore correctness and device profile plumbing."""

import pytest

from repro.errors import DeviceBoundsError, StorageError
from repro.storage.device import BARRACUDA_HDD, X25E_SSD, BlockStore
from repro.storage.disk import SimulatedDisk
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB


def test_blockstore_reads_zeroes_when_unwritten():
    store = BlockStore(capacity=1 * MB)
    assert store.read(1000, 16) == b"\x00" * 16


def test_blockstore_roundtrip_within_block():
    store = BlockStore(capacity=1 * MB)
    store.write(100, b"hello world")
    assert store.read(100, 11) == b"hello world"


def test_blockstore_roundtrip_across_blocks():
    store = BlockStore(capacity=4 * MB)
    data = bytes(range(256)) * 4096  # 1 MB, crosses several 256 KB blocks
    store.write(200 * KB, data)
    assert store.read(200 * KB, len(data)) == data
    # Unwritten margins stay zero.
    assert store.read(200 * KB - 4, 4) == b"\x00\x00\x00\x00"


def test_blockstore_partial_overwrite():
    store = BlockStore(capacity=1 * MB)
    store.write(0, b"A" * 100)
    store.write(50, b"B" * 10)
    assert store.read(0, 100) == b"A" * 50 + b"B" * 10 + b"A" * 40


def test_blockstore_bounds_checked():
    store = BlockStore(capacity=1024)
    with pytest.raises(StorageError):
        store.read(1000, 100)
    with pytest.raises(StorageError):
        store.write(-1, b"x")


def test_blockstore_discard_frees_whole_blocks():
    store = BlockStore(capacity=2 * MB)
    store.write(0, b"x" * (1 * MB))
    resident_before = store.resident_bytes
    store.discard(0, 1 * MB)
    assert store.resident_bytes < resident_before
    assert store.read(0, 16) == b"\x00" * 16


def test_blockstore_sparse_residency():
    store = BlockStore(capacity=100 * MB)
    store.write(99 * MB, b"end")
    assert store.resident_bytes <= 512 * KB  # one backing block


def test_profile_with_capacity():
    small = BARRACUDA_HDD.with_capacity(10 * MB)
    assert small.capacity == 10 * MB
    assert small.seq_read_bw == BARRACUDA_HDD.seq_read_bw
    assert BARRACUDA_HDD.capacity != 10 * MB  # original untouched


def test_profiles_match_paper_hardware():
    assert BARRACUDA_HDD.seq_read_bw == 77 * MB
    assert X25E_SSD.seq_read_bw == 250 * MB
    assert X25E_SSD.seq_write_bw == 170 * MB
    assert X25E_SSD.endurance_cycles == 100_000


def _device_state(device):
    """Everything an I/O may charge or move: stats, clock, model state, bytes."""
    return (
        device.stats.snapshot(),
        device.clock.now,
        getattr(device, "erase_count", None),
        getattr(device, "_append_point", None),
        getattr(device, "head_position", None),
        device.store.resident_bytes,
        device.peek(device.capacity - 64, 64),
    )


@pytest.mark.parametrize("make", [SimulatedSSD, SimulatedDisk], ids=["ssd", "hdd"])
def test_out_of_range_io_is_rejected_before_anything_is_charged(make):
    """An access past the device's end raises before the service time, the
    statistics, the SSD's append point and wear or the HDD's head move."""
    device = make(capacity=1 * MB)
    device.write(1 * MB - 64, b"t" * 64)  # put the head / append point at the end
    before = _device_state(device)
    with pytest.raises(DeviceBoundsError):
        device.write(1 * MB - 10, b"x" * 20)
    with pytest.raises(DeviceBoundsError):
        device.read(1 * MB - 10, 20)
    with pytest.raises(DeviceBoundsError):
        device.read(-1, 4)
    if isinstance(device, SimulatedSSD):
        with pytest.raises(DeviceBoundsError):
            device.read_batch([(0, 4 * KB), (1 * MB - 10, 20)])
        with pytest.raises(DeviceBoundsError):
            device.read_sync(1 * MB, 1)
    assert _device_state(device) == before
