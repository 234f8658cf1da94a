"""Device profiles and the common base class for simulated devices.

Profiles are calibrated to the hardware of the paper's testbed (Section 4.1):

* ``BARRACUDA_HDD`` — 200 GB 7200 rpm Seagate Barracuda, 77 MB/s sequential
  read/write.  With the seek-curve constants below, a random 4 KB write costs
  ~14.6 ms (the paper measures 68 sustained random writes/s, i.e. 14.7 ms) and
  a 4 KB read-modify-write in place costs ~23 ms (paper: 48 updates/s).
* ``X25E_SSD`` — Intel X25-E: 250 MB/s sequential read, 170 MB/s sequential
  write, >35 000 random 4 KB reads/s when requests are batched across the
  device's internal channels.

Capacities are configurable because every experiment in this reproduction is
scaled down (see DESIGN.md); the *ratios* between the constants are what the
paper's results depend on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import DeviceBoundsError
from repro.obs.registry import get_registry
from repro.storage.clock import SimClock
from repro.storage.stats import IOStats
from repro.util.units import GB, KB, MB, MS, US

# Data is held in fixed-size blocks allocated lazily, so a "100 GB" device
# only consumes host memory proportional to the bytes actually written.
_BACKING_BLOCK = 256 * KB
_ZERO_BLOCK = memoryview(bytes(_BACKING_BLOCK))  # never-written space reads as this


@dataclass(frozen=True)
class DeviceProfile:
    """Analytic performance parameters for a simulated device.

    HDD-specific fields (``seek_*``, ``rotation_time``) are zero for SSDs;
    SSD-specific fields (``read_latency`` etc.) are zero for HDDs.
    """

    name: str
    capacity: int
    seq_read_bw: float  # bytes/second for sequential reads
    seq_write_bw: float  # bytes/second for sequential writes
    # --- HDD mechanics ---
    seek_track_to_track: float = 0.0  # seconds, minimum repositioning
    seek_full_stroke: float = 0.0  # seconds, worst-case arm travel
    rotation_time: float = 0.0  # seconds per platter revolution
    # --- SSD electronics ---
    read_latency: float = 0.0  # seconds fixed cost per read command
    write_latency: float = 0.0  # seconds fixed cost per write command
    random_write_penalty: float = 0.0  # extra seconds for a non-append write
    internal_parallelism: int = 1  # concurrent commands the device overlaps
    erase_block: int = 128 * KB  # flash erase-block size (wear accounting)
    endurance_cycles: int = 0  # program/erase cycles per cell (0 = HDD)

    def with_capacity(self, capacity: int) -> "DeviceProfile":
        """Return a copy of this profile with a different capacity."""
        return replace(self, capacity=capacity)


BARRACUDA_HDD = DeviceProfile(
    name="seagate-barracuda-7200rpm",
    capacity=200 * GB,
    seq_read_bw=77 * MB,
    seq_write_bw=77 * MB,
    seek_track_to_track=0.8 * MS,
    seek_full_stroke=18.0 * MS,
    rotation_time=8.33 * MS,  # 7200 rpm
)

X25E_SSD = DeviceProfile(
    name="intel-x25e",
    capacity=32 * GB,
    seq_read_bw=250 * MB,
    seq_write_bw=170 * MB,
    read_latency=90 * US,
    write_latency=85 * US,
    random_write_penalty=2.0 * MS,
    internal_parallelism=10,
    erase_block=128 * KB,
    endurance_cycles=100_000,  # enterprise SLC NAND (Section 3.7)
)


class BlockStore:
    """Sparse byte store backing a device.

    Reads of never-written ranges return zero bytes, matching a freshly
    formatted device.  The store is thread-safe because MaSM exercises real
    concurrent scans in tests.  Every access is bounds-checked before any
    byte moves.  A read is copied out of the backing blocks once, into the
    ``bytes`` it returns, so it never aliases the store.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        #: block id -> a writable view of its ``bytearray``; slicing a view
        #: copies nothing, so a read's only copy is the one it returns.
        self._blocks: dict[int, memoryview] = {}
        self._lock = threading.Lock()

    def read(self, offset: int, size: int) -> bytes:
        self._check_range(offset, size)
        block_id, at = divmod(offset, _BACKING_BLOCK)
        with self._lock:
            if at + size <= _BACKING_BLOCK:  # inside one backing block
                block = self._blocks.get(block_id)
                if block is None:
                    return bytes(size)
                return block[at : at + size].tobytes()
            pieces = []
            pos = 0
            while pos < size:
                chunk = min(size - pos, _BACKING_BLOCK - at)
                block = self._blocks.get(block_id)
                if block is None:
                    pieces.append(_ZERO_BLOCK[:chunk])
                else:
                    pieces.append(block[at : at + chunk])
                pos += chunk
                block_id += 1
                at = 0
            return b"".join(pieces)

    def write(self, offset: int, data: bytes) -> None:
        size = len(data)
        self._check_range(offset, size)
        if not size:
            return
        block_id, at = divmod(offset, _BACKING_BLOCK)
        with self._lock:
            if at + size <= _BACKING_BLOCK:  # inside one backing block
                block = self._blocks.get(block_id)
                if block is None:
                    block = self._blocks[block_id] = memoryview(bytearray(_BACKING_BLOCK))
                block[at : at + size] = data
                return
            source = memoryview(data)
            pos = 0
            while pos < size:
                chunk = min(size - pos, _BACKING_BLOCK - at)
                block = self._blocks.get(block_id)
                if block is None:
                    block = self._blocks[block_id] = memoryview(bytearray(_BACKING_BLOCK))
                block[at : at + chunk] = source[pos : pos + chunk]
                pos += chunk
                block_id += 1
                at = 0

    def discard(self, offset: int, size: int) -> None:
        """Drop whole backing blocks covered by the range (TRIM-like)."""
        self._check_range(offset, size)
        first = -(-offset // _BACKING_BLOCK)  # first block fully inside
        last = (offset + size) // _BACKING_BLOCK  # first block past the end
        with self._lock:
            for block_id in range(first, last):
                self._blocks.pop(block_id, None)

    def _check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.capacity:
            raise DeviceBoundsError(
                f"access [{offset}, {offset + size}) outside device "
                f"capacity {self.capacity}"
            )

    @property
    def resident_bytes(self) -> int:
        """Host memory actually consumed by written data."""
        with self._lock:
            return len(self._blocks) * _BACKING_BLOCK


class Device:
    """Base simulated device: a byte store plus a service-time model.

    Subclasses implement :meth:`_read_time` and :meth:`_write_time`; this
    class handles data movement, statistics and clock accounting.  All service
    time lands in ``stats.busy_time`` so the overlap model can compute query
    critical paths.
    """

    def __init__(self, profile: DeviceProfile, clock: Optional[SimClock] = None):
        self.profile = profile
        self.clock = clock if clock is not None else SimClock()
        self.store = BlockStore(profile.capacity)
        self.stats = IOStats()
        self._lock = threading.Lock()
        # Registry instrumentation: per-op service-time distributions, which
        # the hand-rolled busy_time sum cannot provide.  Devices sharing a
        # profile name share these series (an experiment-level aggregate);
        # exact per-device accounting stays on ``self.stats``.
        registry = get_registry()
        self._obs_read_latency = registry.histogram(
            f"device.{profile.name}.read.latency"
        )
        self._obs_write_latency = registry.histogram(
            f"device.{profile.name}.write.latency"
        )

    # -- subclass hooks -----------------------------------------------------
    def _read_time(self, offset: int, size: int) -> tuple[float, float, bool]:
        """Return (service_time, reposition_time, was_sequential)."""
        raise NotImplementedError

    def _write_time(self, offset: int, size: int) -> tuple[float, float, bool]:
        raise NotImplementedError

    # -- public API ----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.profile.capacity

    @property
    def name(self) -> str:
        return self.profile.name

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``, charging simulated service time.

        The store is read first, so an access outside the device raises
        :class:`~repro.errors.DeviceBoundsError` before anything is charged.
        """
        data = self.store.read(offset, size)
        with self._lock:
            service, reposition, sequential = self._read_time(offset, size)
            self.stats.reads += 1
            self.stats.bytes_read += size
            self.stats.busy_time += service
            self.stats.seek_time += reposition
            if sequential:
                self.stats.seq_reads += 1
            else:
                self.stats.rand_reads += 1
            self.clock.advance(service)
        self._obs_read_latency.observe(service)
        return data

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``, charging simulated service time.

        Like :meth:`read`, the store moves the bytes first, so an
        out-of-range write is rejected before anything is charged.
        """
        self.store.write(offset, data)
        size = len(data)
        with self._lock:
            service, reposition, sequential = self._write_time(offset, size)
            self.stats.writes += 1
            self.stats.bytes_written += size
            self.stats.busy_time += service
            self.stats.seek_time += reposition
            if sequential:
                self.stats.seq_writes += 1
            else:
                self.stats.rand_writes += 1
            self.clock.advance(service)
        self._obs_write_latency.observe(service)

    def peek(self, offset: int, size: int) -> bytes:
        """Read data without charging any simulated time (debug/recovery)."""
        return self.store.read(offset, size)

    def snapshot(self) -> IOStats:
        """Snapshot cumulative stats for later :meth:`IOStats.delta`."""
        with self._lock:
            return self.stats.snapshot()

    def reset_stats(self) -> None:
        with self._lock:
            self.stats = IOStats()
