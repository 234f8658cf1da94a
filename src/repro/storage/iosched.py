"""Asynchronous-I/O overlap model and CPU accounting.

The paper's prototype issues disk and SSD I/O through libaio so that SSD
reads of cached updates overlap the disk table scan, and in-memory merge CPU
overlaps both (Sections 3.7, 4.1 and Figure 13).  We reproduce that with
critical-path accounting instead of real threads:

* every device accumulates ``busy_time`` as requests are serviced;
* CPU work is charged to a :class:`CpuMeter`;
* a measured region's *elapsed* time is the **maximum** of the per-device
  busy-time deltas and the CPU delta — resources proceed in parallel, so the
  slowest one is the wall clock.

Interference between workloads sharing one device needs no special handling:
both workloads' service times land on the same device's busy_time, and the
HDD head model charges the extra seeks they cause each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.errors import TransientIOError
from repro.obs.registry import get_registry
from repro.obs.tracing import trace
from repro.storage.clock import SimClock
from repro.storage.device import Device
from repro.storage.stats import IOStats


class CpuMeter:
    """Accumulates simulated CPU seconds spent by query processing.

    Charges may carry a *cost class* (``kind``) — ``"merge"``, ``"decode"``,
    ``"combine"``, ``"scan"``, ... — accumulated per class in
    :attr:`by_class` alongside the undifferentiated :attr:`total`.  The
    figure-13 CPU-cost driver uses the per-class breakdown to attribute
    merge time correctly instead of lumping every cycle under the single
    ``MERGE_CPU_PER_UPDATE`` constant.
    """

    __slots__ = ("total", "by_class")

    def __init__(self) -> None:
        self.total = 0.0
        self.by_class: dict[str, float] = {}

    def charge(self, seconds: float, kind: Optional[str] = None) -> None:
        if seconds < 0:
            raise ValueError(f"cannot charge negative CPU time ({seconds})")
        self.total += seconds
        if kind is not None:
            self.by_class[kind] = self.by_class.get(kind, 0.0) + seconds

    def charge_batch(
        self, count: int, per_unit: float, kind: Optional[str] = None
    ) -> None:
        """Charge ``count`` units of work at ``per_unit`` seconds each.

        The batch-oriented operators account CPU once per batch of records
        (decoded block, merge chunk) instead of once per record; the total
        charged is identical, only the charging granularity changes.
        """
        if count < 0 or per_unit < 0:
            raise ValueError(
                f"cannot charge negative CPU work ({count} x {per_unit})"
            )
        if count:
            seconds = count * per_unit
            self.total += seconds
            if kind is not None:
                self.by_class[kind] = self.by_class.get(kind, 0.0) + seconds

    def class_total(self, kind: str) -> float:
        """Seconds charged under one cost class (0.0 if never charged)."""
        return self.by_class.get(kind, 0.0)

    def snapshot(self) -> float:
        return self.total


class RetryPolicy:
    """Bounded retry with exponential backoff for transient I/O failures.

    Real I/O schedulers reissue commands that fail transiently (bus resets,
    timeouts) before surfacing an error; the simulated stack does the same so
    a :class:`~repro.errors.TransientIOError` injected by a fault plan is
    invisible to correctness — only to latency.  Backoff is charged to the
    :class:`SimClock`, so retries show up in measured elapsed times.

    Only ``TransientIOError`` is retried.  Persistent damage — above all
    :class:`~repro.errors.ChecksumError` — is **never** retried: the stored
    bytes will not improve on a second read, and re-reading corrupt media
    would only delay quarantine and fallback.
    """

    def __init__(
        self,
        max_attempts: int = 4,
        base_backoff: float = 0.5e-3,
        backoff_multiplier: float = 2.0,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_backoff < 0:
            raise ValueError(f"base_backoff must be >= 0, got {base_backoff}")
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.backoff_multiplier = backoff_multiplier

    def call(self, operation, clock: Optional[SimClock] = None):
        """Run ``operation`` with retries; returns its result.

        Re-raises the last :class:`TransientIOError` once ``max_attempts``
        are exhausted.  Every other exception propagates immediately.
        """
        try:
            return operation()
        except TransientIOError as error:
            return self.retry(error, clock, operation)

    def retry(self, error: TransientIOError, clock: Optional[SimClock], fn, *args):
        """Finish an operation whose first attempt, ``fn(*args)``, raised
        ``error``: back off, then try again, up to ``max_attempts`` in all.

        The caller makes the first attempt itself, so an I/O that succeeds
        pays for no retry machinery at all.  Returns the first successful
        result; re-raises the last :class:`TransientIOError` when every
        attempt failed.  Every other exception propagates immediately.
        """
        registry = get_registry()
        backoff = self.base_backoff
        for _ in range(1, self.max_attempts):
            registry.counter("iosched.retries").add(1)
            if clock is not None and backoff > 0:
                registry.counter("iosched.backoff_seconds").add(backoff)
                clock.advance(backoff)
            backoff *= self.backoff_multiplier
            try:
                return fn(*args)
            except TransientIOError as exc:
                error = exc
        registry.counter("iosched.retries_exhausted").add(1)
        raise error


#: Policy used by every :class:`~repro.storage.file.StorageVolume` unless a
#: caller provides its own.  Four attempts outlast any fault plan honouring
#: the default ``max_consecutive_errors=2`` cap.
DEFAULT_RETRY_POLICY = RetryPolicy()


#: Default CPU cost to merge one cached update into the scan output stream.
#: The paper reports the merge CPU overhead is "insignificant" relative to
#: I/O (Figure 13); this keeps it non-zero so the model stays honest.
MERGE_CPU_PER_UPDATE = 0.2e-6

#: Default CPU cost to deliver one record from a scan (tuple handling).
SCAN_CPU_PER_RECORD = 0.05e-6

#: Merged records are charged to the CPU meter in batches of this many —
#: per-batch accounting keeps the meter honest even when a consumer stops
#: early, without a meter call per record on the hot path.
MERGE_CPU_BATCH = 4096

#: Per-class split of the merge cost for the columnar kernel path.  The
#: kernel charges each consumed update once per class — decode (column/
#: record materialization), merge (sort + gather) — plus a combine charge
#: per record absorbed into a same-key chain.  Decode + merge equals
#: ``MERGE_CPU_PER_UPDATE`` so the kernel and record-at-a-time paths stay
#: directly comparable in figure 13; only the attribution gains resolution.
KERNEL_DECODE_CPU_PER_UPDATE = 0.05e-6
KERNEL_MERGE_CPU_PER_UPDATE = 0.15e-6
KERNEL_COMBINE_CPU_PER_UPDATE = 0.02e-6


@dataclass
class TimeBreakdown:
    """Result of a measured region: per-resource busy time and the elapsed
    critical path under the asynchronous-overlap model."""

    device_busy: dict[str, float] = field(default_factory=dict)
    device_stats: dict[str, IOStats] = field(default_factory=dict)
    cpu: float = 0.0
    # Serial composition of phases (combine_serial) raises this floor: the
    # region cannot finish faster than the sum of its serial phases.
    serial_floor: float = 0.0

    @property
    def elapsed(self) -> float:
        """Wall-clock under full async overlap: the slowest resource."""
        busiest = max(self.device_busy.values(), default=0.0)
        return max(busiest, self.cpu, self.serial_floor)

    @property
    def serial_elapsed(self) -> float:
        """Wall-clock if nothing overlapped (sum of all resources)."""
        return sum(self.device_busy.values()) + self.cpu

    def busy(self, label: str) -> float:
        """Busy seconds of one labelled device (0.0 if it never worked)."""
        return self.device_busy.get(label, 0.0)

    def stats(self, label: str) -> IOStats:
        return self.device_stats.get(label, IOStats())


class OverlapWindow:
    """Context manager measuring a region across devices and CPU.

    >>> window = OverlapWindow({"disk": disk, "ssd": ssd}, cpu)
    >>> with window:
    ...     run_query()
    >>> window.result.elapsed   # max(disk busy, ssd busy, cpu)
    """

    def __init__(
        self,
        devices: Mapping[str, Device],
        cpu: Optional[CpuMeter] = None,
        label: str = "region",
    ) -> None:
        self._devices = dict(devices)
        self._cpu = cpu
        self._label = label
        self._before: dict[str, IOStats] = {}
        self._cpu_before = 0.0
        self._span = None
        self.result: Optional[TimeBreakdown] = None

    def __enter__(self) -> "OverlapWindow":
        self._before = {name: dev.snapshot() for name, dev in self._devices.items()}
        self._cpu_before = self._cpu.snapshot() if self._cpu else 0.0
        self.result = None
        self._span = trace(f"measure.{self._label}")
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        breakdown = TimeBreakdown()
        for name, dev in self._devices.items():
            delta = dev.stats.delta(self._before[name])
            breakdown.device_stats[name] = delta
            breakdown.device_busy[name] = delta.busy_time
        if self._cpu:
            breakdown.cpu = self._cpu.total - self._cpu_before
        self.result = breakdown
        # The span brackets the simulated region; the registry keeps the
        # overlap outcome: critical-path elapsed vs the no-overlap sum, per
        # measured phase and per device.
        if self._span is not None:
            self._span.annotate(
                elapsed=breakdown.elapsed, serial=breakdown.serial_elapsed
            )
            self._span.__exit__(exc_type, exc, tb)
            self._span = None
        registry = get_registry()
        registry.histogram(f"measure.{self._label}.elapsed").observe(
            breakdown.elapsed
        )
        registry.counter(f"measure.{self._label}.cpu_seconds").add(breakdown.cpu)
        for name, busy in breakdown.device_busy.items():
            registry.counter(f"measure.{self._label}.busy.{name}").add(busy)

    @property
    def elapsed(self) -> float:
        if self.result is None:
            raise RuntimeError("OverlapWindow has not exited yet")
        return self.result.elapsed


def measure(devices: Mapping[str, Device], cpu: Optional[CpuMeter], fn, *args, **kwargs):
    """Run ``fn`` inside an :class:`OverlapWindow`; return (result, breakdown).

    ``label`` (keyword-only) names the region's span and registry series.
    """
    window = OverlapWindow(devices, cpu, label=kwargs.pop("label", "region"))
    with window:
        value = fn(*args, **kwargs)
    return value, window.result


def combine_serial(parts: Sequence[TimeBreakdown]) -> TimeBreakdown:
    """Combine breakdowns of phases that run one after another.

    Each phase overlaps internally, but phases are serial, so elapsed times
    add while per-device totals also add (useful for multi-scan queries).
    """
    combined = TimeBreakdown()
    elapsed = 0.0
    for part in parts:
        elapsed += part.elapsed
        combined.cpu += part.cpu
        for name, busy in part.device_busy.items():
            combined.device_busy[name] = combined.device_busy.get(name, 0.0) + busy
        for name, stats in part.device_stats.items():
            if name in combined.device_stats:
                combined.device_stats[name] = combined.device_stats[name] + stats
            else:
                combined.device_stats[name] = stats
    combined.serial_floor = elapsed
    return combined
