"""Simulated flash SSD (modelled on the Intel X25-E of the paper's testbed).

Performance envelope (Section 4.1 / reference [13] of the paper):

* Sequential reads at 250 MB/s and sequential writes at 170 MB/s; every
  command also pays a fixed electronic latency.
* Random reads are fast, and *batched* random reads (asynchronous I/O, as
  MaSM issues through libaio) overlap across the device's internal channels:
  a batch of ``k`` requests costs ``ceil(k / parallelism)`` latencies plus the
  total transfer.  Ten channels at 90 us per command give ~37 000 random 4 KB
  reads/s, matching the paper's ">35,000".
* *Synchronous* (blocking, queue-depth-1) reads additionally pay a host
  round-trip overhead.  This is the path the ideal-case Indexed Updates
  baseline uses — its index walk issues dependent single-page reads — and is
  what produces IU's up-to-3.8x slowdowns in Figure 9.
* Random (non-append) writes incur an erase/wear-levelling penalty
  (Section 1.2's "no random SSD writes" design goal).  MaSM never triggers it.

The device additionally accounts flash wear: total bytes programmed, erase
cycles, and a projected lifetime given the cell endurance — the quantities
behind design goal 3 (low SSD writes per update) and the LSM lifetime
argument of Section 2.3.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.registry import get_registry
from repro.storage.clock import SimClock
from repro.storage.device import Device, DeviceProfile, X25E_SSD
from repro.util.units import US, ceil_div

#: Host round-trip overhead for a blocking (queue-depth-1) read: system call,
#: driver and FTL latency that asynchronous batching hides.
SYNC_READ_OVERHEAD = 200 * US


class SimulatedSSD(Device):
    """A flash SSD with batched-read parallelism and wear accounting."""

    def __init__(
        self,
        profile: DeviceProfile = X25E_SSD,
        clock: Optional[SimClock] = None,
        capacity: Optional[int] = None,
    ) -> None:
        if capacity is not None:
            profile = profile.with_capacity(capacity)
        super().__init__(profile, clock)
        self._append_point = 0  # end of the last write, for append detection
        self.erase_count = 0
        # Batched (libaio-style) reads get their own distributions: the batch
        # width is what the internal-parallelism overlap model keys off.
        registry = get_registry()
        self._obs_batch_width = registry.histogram(
            f"device.{self.profile.name}.read.batch_width"
        )
        self._obs_batch_latency = registry.histogram(
            f"device.{self.profile.name}.read.batch_latency"
        )

    # ------------------------------------------------------------------ time
    def _read_time(self, offset: int, size: int):
        service = self.profile.read_latency + size / self.profile.seq_read_bw
        # SSD reads have no positional cost; classify as sequential for stats
        # purposes only when they continue the previous access.
        return service, 0.0, True

    def _write_time(self, offset: int, size: int):
        p = self.profile
        sequential = offset == self._append_point
        service = p.write_latency + size / p.seq_write_bw
        penalty = 0.0
        if not sequential:
            penalty = p.random_write_penalty
            service += penalty
        self._append_point = offset + size
        self.erase_count += -(-size // p.erase_block)
        return service, penalty, sequential

    # ------------------------------------------------------------- batch API
    def read_batch(self, requests: Sequence[tuple[int, int]]) -> list[bytes]:
        """Service many reads as one asynchronous batch.

        The batch costs ``ceil(k / internal_parallelism)`` command latencies
        plus the aggregate transfer time — the libaio path MaSM uses to
        overlap many small run-index-guided reads (Section 4.1).
        """
        if not requests:
            return []
        # Read before charging: one out-of-range request rejects the batch
        # with nothing charged.
        data = [self.store.read(offset, size) for offset, size in requests]
        p = self.profile
        total = sum(size for _, size in requests)
        service = (
            ceil_div(len(requests), p.internal_parallelism) * p.read_latency
            + total / p.seq_read_bw
        )
        with self._lock:
            self.stats.reads += len(requests)
            self.stats.bytes_read += total
            self.stats.busy_time += service
            self.stats.rand_reads += len(requests)
            self.clock.charge(self, service)
        self._obs_batch_width.observe(len(requests))
        self._obs_batch_latency.observe(service)
        return data

    def read_sync(self, offset: int, size: int) -> bytes:
        """Service one blocking read at queue depth 1.

        Pays :data:`SYNC_READ_OVERHEAD` on top of the device latency; used by
        baselines whose access pattern is dependent (one read must complete
        before the next is known), such as Indexed Updates.
        """
        data = self.store.read(offset, size)  # bounds first, like Device.read
        service = (
            self.profile.read_latency
            + SYNC_READ_OVERHEAD
            + size / self.profile.seq_read_bw
        )
        with self._lock:
            self.stats.reads += 1
            self.stats.bytes_read += size
            self.stats.busy_time += service
            self.stats.rand_reads += 1
            self.clock.charge(self, service)
        self._obs_read_latency.observe(service)
        return data

    def trim(self, offset: int, size: int) -> None:
        """Discard a range (deleting a materialized run); free, like TRIM."""
        self.store.discard(offset, size)

    # ------------------------------------------------------------------ wear
    @property
    def wear_cycles(self) -> float:
        """Average program/erase cycles consumed per cell so far."""
        return self.stats.bytes_written / self.profile.capacity

    def lifetime_years(self, sustained_write_rate: float) -> float:
        """Years the device lasts at ``sustained_write_rate`` bytes/second.

        Section 3.7's arithmetic: endurance_cycles * capacity total bytes may
        be programmed (e.g. a 32 GB X25-E endures 3.2 PB).
        """
        if sustained_write_rate <= 0:
            return float("inf")
        total = self.profile.endurance_cycles * self.profile.capacity
        seconds = total / sustained_write_rate
        return seconds / (365.0 * 24 * 3600)
