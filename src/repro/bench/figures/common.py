"""Shared rig for the figure drivers: devices, table, engines, measurement.

Scaling (see DESIGN.md): the paper's 100 GB table / 4 GB SSD cache shrink by
default to a 32 MB table / 2 MB cache — the same 1-10% cache:data ratio and
the same 64 KB-page arithmetic, just fewer pages.  Every driver takes a
``scale`` multiplier so benchmarks can run larger when time permits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro import obs
from repro.baselines.iu import IndexedUpdates
from repro.core.masm import MaSM, MaSMConfig
from repro.engine.table import Table
from repro.storage.clock import SimClock
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter, OverlapWindow, TimeBreakdown
from repro.storage.ssd import SimulatedSSD
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB, MB
from repro.workloads.synthetic import SyntheticUpdateGenerator, build_synthetic_table

#: Base scale=1.0 sizing: a 32 MB table with a 1.28 MB SSD update cache —
#: 4% of the data, inside the paper's 1-10% guidance, and at the 50%-full
#: starting condition exactly the paper's measured density (2 GB of cached
#: updates per 100 GB of data = 2%).
BASE_RECORDS = 320_000
BASE_CACHE_BYTES = int(BASE_RECORDS * 100 * 0.04)
#: Scaled stand-in for the paper's 64 KB SSD I/O page.
SSD_PAGE = 8 * KB
#: Run-index granularities, scaled with the page exactly as in the paper:
#: coarse = one entry per SSD page, fine = one entry per 1/16 page
#: (64 KB and 4 KB at full scale).
COARSE_BLOCK = SSD_PAGE
FINE_BLOCK = SSD_PAGE // 16


@dataclass
class Rig:
    """One experiment setup: devices, table, timing."""

    disk: SimulatedDisk
    ssd: SimulatedSSD
    disk_volume: StorageVolume
    ssd_volume: StorageVolume
    cpu: CpuMeter
    table: Table
    oracle: TimestampOracle
    cache_bytes: int

    def measure(self, fn, *args, label: str = "query", **kwargs) -> TimeBreakdown:
        """Run ``fn`` under the async-overlap model; returns the breakdown."""
        window = OverlapWindow(
            {"disk": self.disk, "ssd": self.ssd}, self.cpu, label=label
        )
        with window:
            fn(*args, **kwargs)
        return window.result

    def drain(self, iterator: Iterator) -> int:
        count = 0
        for _ in iterator:
            count += 1
        return count

    def pure_scan_time(self, begin: int, end: int) -> float:
        """Elapsed time of a plain table range scan (the normalizer)."""
        result = self.measure(lambda: self.drain(self.table.range_scan(begin, end)))
        return result.elapsed


def build_rig(
    scale: float = 1.0,
    num_records: Optional[int] = None,
    cache_bytes: Optional[int] = None,
    seed: int = 0,
) -> Rig:
    """A synthetic-table rig at the given scale."""
    records = num_records if num_records is not None else int(BASE_RECORDS * scale)
    cache = cache_bytes if cache_bytes is not None else int(BASE_CACHE_BYTES * scale)
    table_bytes = records * 100
    # One virtual timeline for the whole rig: devices advance it as simulated
    # work completes, and the active tracer records spans against it so
    # traces are deterministic (no host time anywhere).
    clock = SimClock()
    disk = SimulatedDisk(capacity=max(4 * table_bytes, 64 * MB), clock=clock)
    ssd = SimulatedSSD(capacity=max(4 * cache, 8 * MB), clock=clock)
    obs.get_tracer().bind_clock(clock)
    cpu = CpuMeter()
    disk_volume = StorageVolume(disk)
    ssd_volume = StorageVolume(ssd)
    table = build_synthetic_table(disk_volume, records, cpu=cpu)
    return Rig(
        disk=disk,
        ssd=ssd,
        disk_volume=disk_volume,
        ssd_volume=ssd_volume,
        cpu=cpu,
        table=table,
        oracle=TimestampOracle(),
        cache_bytes=cache,
    )


def safe_rate(count: float, elapsed: float) -> float:
    """``count / elapsed`` guarded against zero simulated elapsed time.

    Tiny ``--scale`` smoke runs can complete a measured section in zero
    simulated seconds (everything in cache, no device I/O), so rate
    computations clamp the denominator to one picosecond and report a
    large-but-finite rate instead of raising ``ZeroDivisionError``.
    """
    return count / max(elapsed, 1e-12)


def clamped_alpha(cache_bytes: int, alpha: float) -> float:
    """Raise alpha to its Section 3.4 lower bound when a scaled-down cache
    makes M too small for the requested value (alpha >= 2/cbrt(M))."""
    import math

    from repro.core.theory import alpha_lower_bound

    M = max(2, math.isqrt(max(1, cache_bytes // SSD_PAGE)))
    return min(2.0, max(alpha, alpha_lower_bound(M) * 1.0001))


def make_masm(
    rig: Rig,
    alpha: float = 1.0,  # the paper's experiments use MaSM-M (Section 4.1)
    block_size: Optional[int] = None,
    auto_migrate: bool = False,
    merge_duplicates: bool = False,
) -> MaSM:
    if block_size is None:
        block_size = COARSE_BLOCK
    alpha = clamped_alpha(rig.cache_bytes, alpha)
    """A MaSM engine on the rig's SSD with the scaled page size."""
    config = MaSMConfig(
        alpha=alpha,
        ssd_page_size=SSD_PAGE,
        block_size=block_size,
        cache_bytes=rig.cache_bytes,
        auto_migrate=auto_migrate,
        merge_duplicates_on_flush=merge_duplicates,
    )
    return MaSM(rig.table, rig.ssd_volume, config=config, oracle=rig.oracle, cpu=rig.cpu)


def make_iu(rig: Rig) -> IndexedUpdates:
    return IndexedUpdates(
        rig.table, rig.ssd_volume, oracle=rig.oracle, cache_bytes=rig.cache_bytes
    )


def fill_cache(engine, rig: Rig, fraction: float, seed: int = 1) -> int:
    """Apply updates until the engine caches ``fraction`` of the rig's SSD
    cache budget (the paper's '50% full' starting condition).

    Works for MaSM (flushes to runs) and IU (appends to SSD tables).
    Returns the number of updates applied.
    """
    from repro.errors import UpdateCacheFullError

    generator = SyntheticUpdateGenerator(
        num_records=rig.table.row_count, seed=seed, oracle=rig.oracle
    )
    target = int(rig.cache_bytes * fraction)
    applied = 0
    try:
        while _cached_bytes(engine) < target:
            engine.apply(generator.next_update())
            applied += 1
        flush = getattr(engine, "flush_buffer", None)
        if flush is not None:
            flush()
    except UpdateCacheFullError:
        # Block padding makes very high fill fractions land slightly short
        # of the nominal target; "as full as fits" is the paper's 99% case.
        pass
    return applied


def _cached_bytes(engine) -> int:
    if isinstance(engine, MaSM):
        return engine.cached_run_bytes + engine.buffer.used_bytes
    return engine.cached_bytes


#: The paper's Figure 9/10 range-size sweep, scaled.  At scale=1.0 the table
#: is 32 MB ("100 GB" in the paper) and the smallest range is one 4 KB page,
#: matching the paper's endpoints relative to table size.
def range_size_sweep(rig: Rig) -> list[tuple[str, int]]:
    table_bytes = rig.table.data_bytes
    sweep: list[tuple[str, int]] = []
    size = 4 * KB
    while size < table_bytes:
        sweep.append((_label(size), size))
        size *= 10
    sweep.append(("full", table_bytes))
    return sweep


def _label(size: int) -> str:
    from repro.util.units import fmt_bytes

    return fmt_bytes(size)


def random_range(rig: Rig, size_bytes: int, rng: random.Random) -> tuple[int, int]:
    from repro.workloads.synthetic import range_for_bytes

    if size_bytes >= rig.table.data_bytes:
        return rig.table.full_key_range()
    return range_for_bytes(rig.table, size_bytes, rng)
