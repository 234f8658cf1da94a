"""HeapFile bulk load, chunked scans, and page I/O."""

import pytest

from repro.engine.heapfile import HeapFile
from repro.engine.page import SlottedPage
from repro.engine.record import synthetic_schema
from repro.errors import PageError, StorageError
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.util.units import KB, MB


def make_heap(capacity=32 * MB, size=8 * MB, **kwargs):
    volume = StorageVolume(SimulatedDisk(capacity=capacity))
    file = volume.create("heap", size)
    return HeapFile(file, synthetic_schema(), **kwargs)


def records(n, start=0, step=2):
    schema = synthetic_schema()
    return [(start + i * step, f"payload-{i}") for i in range(n)]


def test_bulk_load_roundtrip():
    heap = make_heap()
    heap.bulk_load(records(1000))
    seen = []
    for _, page in heap.scan_pages():
        for _, data in page.records():
            seen.append(heap.schema.unpack(data))
    assert len(seen) == 1000
    assert seen[0] == (0, "payload-0")
    assert seen[-1] == (1998, "payload-999")


def test_bulk_load_returns_index_entries():
    heap = make_heap()
    entries = heap.bulk_load(records(1000))
    assert len(entries) == heap.num_pages
    assert entries[0] == (0, 0)
    keys = [k for k, _ in entries]
    assert keys == sorted(keys)


def test_bulk_load_respects_fill_factor():
    full = make_heap()
    full.bulk_load(records(1000), fill_factor=1.0)
    half = make_heap()
    half.bulk_load(records(1000), fill_factor=0.5)
    assert half.num_pages > full.num_pages


def test_bulk_load_rejects_unsorted():
    heap = make_heap()
    with pytest.raises(StorageError):
        heap.bulk_load([(10, "a"), (4, "b")])


def test_bulk_load_uses_large_sequential_writes():
    heap = make_heap()
    device = heap.file.device
    heap.bulk_load(records(20000))
    # Far fewer write operations than pages: chunked 1MB I/Os.
    assert device.stats.writes < heap.num_pages / 10
    assert device.stats.rand_writes <= 1


def test_read_write_page_roundtrip():
    heap = make_heap()
    heap.bulk_load(records(100))
    page = heap.read_page(0)
    page.timestamp = 42
    heap.write_page(0, page)
    assert heap.read_page(0).timestamp == 42


def test_page_bounds_checked():
    heap = make_heap()
    heap.bulk_load(records(10))
    with pytest.raises(StorageError):
        heap.read_page(heap.num_pages + 5)


def test_scan_pages_partial_range():
    heap = make_heap()
    heap.bulk_load(records(2000))
    pages = list(heap.scan_pages(2, 4))
    assert [p for p, _ in pages] == [2, 3, 4]


def test_scan_pages_empty_heap():
    heap = make_heap()
    assert list(heap.scan_pages()) == []


def test_scan_uses_chunked_reads():
    heap = make_heap(io_chunk=1 * MB)
    heap.bulk_load(records(20000))
    device = heap.file.device
    before = device.stats.reads
    list(heap.scan_pages())
    read_ops = device.stats.reads - before
    assert read_ops <= heap.num_pages // heap.pages_per_chunk + 1


def test_write_pages_sequential():
    heap = make_heap()
    heap.bulk_load(records(100))
    pages = [SlottedPage(heap.page_size, timestamp=9) for _ in range(3)]
    heap.write_pages_sequential(0, b"".join(page.to_bytes() for page in pages))
    assert heap.read_page(2).timestamp == 9


def test_io_chunk_must_align():
    volume = StorageVolume(SimulatedDisk(capacity=8 * MB))
    file = volume.create("x", 1 * MB)
    with pytest.raises(StorageError):
        HeapFile(file, synthetic_schema(), page_size=4096, io_chunk=10 * KB)


def test_truncate():
    heap = make_heap()
    heap.bulk_load(records(1000))
    heap.truncate(2)
    assert heap.num_pages == 2
    with pytest.raises(StorageError):
        heap.truncate(-1)


def test_required_size_is_sufficient():
    schema = synthetic_schema()
    size = HeapFile.required_size(5000, schema)
    volume = StorageVolume(SimulatedDisk(capacity=64 * MB))
    file = volume.create("t", size)
    heap = HeapFile(file, schema)
    heap.bulk_load(records(5000))  # must not overflow
    assert heap.num_pages <= heap.capacity_pages


def test_truncate_unformats_the_released_tail():
    """num_pages is volatile: after a shrink, the released pages must read as
    unformatted space, including once the heap grows back over the first."""
    heap = make_heap()
    heap.bulk_load(records(300))
    old_pages = heap.num_pages
    assert old_pages > 4
    writes = heap.file.device.stats.writes
    heap.truncate(old_pages)  # not a shrink: nothing is written
    assert heap.file.device.stats.writes == writes
    heap.truncate(2)
    assert heap.file.device.stats.writes > writes
    heap.write_page(2, SlottedPage(heap.page_size))  # grow back by one page
    heap.num_pages = heap.capacity_pages  # what a crash leaves: length unknown
    parsed = 0
    with pytest.raises(PageError):
        for _ in heap.scan_pages():
            parsed += 1
    assert parsed == 3
