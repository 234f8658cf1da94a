"""Named files over a simulated device, with extent allocation.

A :class:`StorageVolume` owns a device's address space and hands out
contiguous extents as :class:`SimFile` objects.  Contiguity matters: on the
HDD it is what lets a table scan run at sequential bandwidth, and on the SSD
it keeps materialized-run writes append-only.  The allocator is a first-fit
free list with coalescing — simple, deterministic, and sufficient for the
file populations this library creates (tables, sorted runs, logs).
"""

from __future__ import annotations

import threading
from typing import Iterator, Optional

from repro.errors import (
    DuplicateFileError,
    OutOfSpaceError,
    StorageError,
    TransientIOError,
)
from repro.storage.device import Device
from repro.storage.iosched import DEFAULT_RETRY_POLICY, RetryPolicy


class SimFile:
    """A contiguous extent of a device, addressed from zero.

    Reads and writes are bounds-checked against the file size and charged to
    the underlying device's simulated clock and statistics.
    """

    def __init__(self, volume: "StorageVolume", name: str, offset: int, size: int):
        self._volume = volume
        self.name = name
        self.offset = offset
        self.size = size
        self._append_pos = 0
        self._closed = False

    @property
    def volume(self) -> "StorageVolume":
        return self._volume

    @property
    def device(self) -> Device:
        return self._volume.device

    @property
    def append_pos(self) -> int:
        """Current append cursor (bytes written via :meth:`append`)."""
        return self._append_pos

    def _check(self, offset: int, size: int) -> None:
        if self._closed:
            raise StorageError(f"file {self.name!r} is deleted")
        if offset < 0 or size < 0 or offset + size > self.size:
            raise StorageError(
                f"file {self.name!r}: access [{offset}, {offset + size}) "
                f"outside size {self.size}"
            )

    def _io(self, fn, *args):
        """``fn(*args)`` — a method of the volume's device — under the
        volume's retry policy, which is entered only once an attempt has
        raised :class:`~repro.errors.TransientIOError`."""
        try:
            return fn(*args)
        except TransientIOError as error:
            policy = self._volume.retry_policy
            if policy is None:
                raise
            return policy.retry(error, self._volume.device.clock, fn, *args)

    def read(self, offset: int, size: int) -> bytes:
        self._check(offset, size)
        return self._io(self._volume.device.read, self.offset + offset, size)

    def write(self, offset: int, data: bytes) -> None:
        self._check(offset, len(data))
        self._io(self._volume.device.write, self.offset + offset, data)
        self._append_pos = max(self._append_pos, offset + len(data))

    def append(self, data: bytes) -> int:
        """Write at the append cursor; returns the file offset written at."""
        at = self._append_pos
        self._check(at, len(data))
        self._io(self._volume.device.write, self.offset + at, data)
        self._append_pos = at + len(data)
        return at

    def seek_append(self, pos: int) -> None:
        """Reposition the append cursor.

        Used after crash recovery: the cursor is volatile, so a reopened
        log scans its contents and then seeks past the surviving records —
        otherwise fresh appends would overwrite them.
        """
        if pos < 0 or pos > self.size:
            raise StorageError(
                f"file {self.name!r}: append cursor {pos} outside size {self.size}"
            )
        self._append_pos = pos

    def zero_range(self, offset: int, size: int, chunk: int = 256 * 1024) -> int:
        """Overwrite ``[offset, offset + size)`` with zeroes, ``chunk`` bytes
        per write; returns ``size``.  A heap that shrinks zeroes its released
        pages, so a scan for the first unformatted page finds its end.  Does
        **not** move the append cursor.
        """
        self._check(offset, size)
        saved = self._append_pos
        write = self._volume.device.write
        zeroes = bytes(min(chunk, size))
        written = 0
        while written < size:
            step = min(chunk, size - written)
            self._io(
                write,
                self.offset + offset + written,
                zeroes if step == len(zeroes) else zeroes[:step],
            )
            written += step
        self._append_pos = saved
        return size

    def read_batch(self, requests: list[tuple[int, int]]) -> list[bytes]:
        """Batched (asynchronously overlapped) reads, where supported."""
        for offset, size in requests:
            self._check(offset, size)
        absolute = [(self.offset + offset, size) for offset, size in requests]
        device = self._volume.device
        batch = getattr(device, "read_batch", None)
        if batch is not None:
            return self._io(batch, absolute)
        return [self._io(device.read, offset, size) for offset, size in absolute]

    def peek(self, offset: int, size: int) -> bytes:
        """Read without charging simulated time (recovery inspection)."""
        self._check(offset, size)
        return self.device.peek(self.offset + offset, size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimFile({self.name!r}, offset={self.offset}, size={self.size})"


class StorageVolume:
    """Allocates named contiguous files on one simulated device.

    Every file I/O runs under the volume's ``retry_policy`` (the shared
    :data:`~repro.storage.iosched.DEFAULT_RETRY_POLICY` unless overridden),
    so transient device faults are absorbed with bounded, clock-charged
    retries at one central choke point instead of per caller.  Pass
    ``retry_policy=None`` to let transient errors surface immediately.
    """

    def __init__(
        self,
        device: Device,
        retry_policy: Optional[RetryPolicy] = DEFAULT_RETRY_POLICY,
    ) -> None:
        self.device = device
        self.retry_policy = retry_policy
        self._files: dict[str, SimFile] = {}
        # Free extents as sorted (offset, size) pairs covering unused space.
        self._free: list[tuple[int, int]] = [(0, device.capacity)]
        self._lock = threading.Lock()

    # ------------------------------------------------------------ allocation
    def create(self, name: str, size: int) -> SimFile:
        """Allocate a new file of exactly ``size`` bytes (first-fit)."""
        if size <= 0:
            raise StorageError(f"file size must be positive, got {size}")
        with self._lock:
            if name in self._files:
                raise DuplicateFileError(
                    f"file {name!r} already exists on {self.device.name}"
                )
            for i, (offset, extent) in enumerate(self._free):
                if extent >= size:
                    remainder = extent - size
                    if remainder:
                        self._free[i] = (offset + size, remainder)
                    else:
                        del self._free[i]
                    handle = SimFile(self, name, offset, size)
                    self._files[name] = handle
                    return handle
            free = sum(extent for _, extent in self._free)
            raise OutOfSpaceError(
                f"no contiguous extent of {size} bytes on {self.device.name} "
                f"(free: {free} in {len(self._free)} extents)"
            )

    def delete(self, name: str) -> None:
        """Delete a file, returning (and TRIMming) its extent."""
        with self._lock:
            handle = self._files.pop(name, None)
            if handle is None:
                raise StorageError(f"file {name!r} does not exist")
            handle._closed = True
            trim = getattr(self.device, "trim", None)
            if trim is not None:
                trim(handle.offset, handle.size)
            self._release(handle.offset, handle.size)

    def _release(self, offset: int, size: int) -> None:
        self._free.append((offset, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for off, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((off, sz))
        self._free = merged

    def shrink(self, name: str, new_size: int) -> None:
        """Release the tail of a file's extent (e.g. after a streamed write
        used less than its pre-allocated size)."""
        with self._lock:
            handle = self._files.get(name)
            if handle is None:
                raise StorageError(f"file {name!r} does not exist")
            if new_size <= 0 or new_size > handle.size:
                raise StorageError(
                    f"cannot shrink {name!r} from {handle.size} to {new_size}"
                )
            freed = handle.size - new_size
            if freed == 0:
                return
            handle.size = new_size
            handle._append_pos = min(handle._append_pos, new_size)
            trim = getattr(self.device, "trim", None)
            if trim is not None:
                trim(handle.offset + new_size, freed)
            self._release(handle.offset + new_size, freed)

    # --------------------------------------------------------------- queries
    def open(self, name: str) -> SimFile:
        with self._lock:
            handle = self._files.get(name)
        if handle is None:
            raise StorageError(f"file {name!r} does not exist")
        return handle

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._files

    def __contains__(self, name: str) -> bool:
        return self.exists(name)

    def __iter__(self) -> Iterator[str]:
        with self._lock:
            return iter(sorted(self._files))

    @property
    def free_bytes(self) -> int:
        with self._lock:
            return sum(size for _, size in self._free)

    @property
    def used_bytes(self) -> int:
        return self.device.capacity - self.free_bytes
