"""Microbenchmark: what overload governance costs when it has nothing to do.

The governor runs in front of every ``MaSM.apply``: a token-bucket check
(skipped when admission is unmetered), an anticipatory watermark
classification, and two counter bumps.  For governance to stay on by
default, that per-update tax must be negligible while the engine is far
from its watermarks — the governed engine only pays real costs (delays,
paced slices) when pressure actually exists.

This benchmark measures apply throughput (updates/second of wall-clock
time, buffer flushes included) through an ungoverned engine and a governed
engine whose cache never leaves the normal band.  The acceptance bar: the
governed idle path must stay within 10% of the ungoverned rate.

Gated by ``benchmarks/gates.py overload`` (``BENCH_overload.json``).
"""

from __future__ import annotations

import time

from gates import paired
from repro.bench.harness import FigureResult
from repro.core.governor import GovernorConfig, OverloadPolicy
from repro.core.masm import MaSM, MaSMConfig
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

#: Alternating passes per mode; a cell is the median of its passes.
PAIRS = 6

SCHEMA = synthetic_schema()


def build_engine(governed: bool, n: int) -> MaSM:
    disk_vol = StorageVolume(SimulatedDisk(capacity=256 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=64 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2,
        ssd_page_size=64 * KB,
        block_size=16 * KB,
        # A cache far larger than the update volume: occupancy stays in the
        # normal band, so the governed engine pays only the admission check.
        cache_bytes=16 * MB,
        auto_migrate=False,
        governor=(
            GovernorConfig(overload_policy=OverloadPolicy.DELAY) if governed else None
        ),
    )
    return MaSM(table, ssd_vol, config=config)


def measure_applies(governed: bool, n: int, updates: int) -> float:
    """Wall-clock updates/second through apply (flushes included)."""
    masm = build_engine(governed, n)
    # Counters are scoped by engine name in the shared registry, so they
    # accumulate across repetitions: compare against a snapshot.
    before = masm.governor.report() if governed else None
    start = time.perf_counter()
    for i in range(updates):
        masm.modify((i % n) * 2, {"payload": f"m{i}"})
    elapsed = time.perf_counter() - start
    if governed:
        report = masm.governor.report()
        assert report["admitted"] - before["admitted"] == updates
        assert report["shed"] == before["shed"]
        assert report["delayed"] == before["delayed"]
        assert report["forced_full_migrations"] == before["forced_full_migrations"]
    return updates / elapsed


def run(n: int = 2_000, updates: int = 30_000) -> FigureResult:
    result = FigureResult(
        figure="BENCH overload",
        title="apply updates/sec, ungoverned vs governed with an idle governor",
        row_label="mode",
        columns=["apply_ups"],
    )
    rates = paired(lambda governed: measure_applies(governed, n, updates), (False, True), PAIRS)
    result.add_row("ungoverned", apply_ups=rates[False])
    result.add_row("governed", apply_ups=rates[True])
    result.note(
        f"workload: {updates} modifies over {n} rows; median of {PAIRS} alternating "
        f"pairs; idle-governor overhead {(1 - rates[True] / rates[False]) * 100:.1f}%"
    )
    return result


SMOKE = dict(n=1_000, updates=6_000)
