"""Latency stability under a sustained update flood (Figure-12 flavour).

Figure 12 reports *sustained throughput*; this driver reports what the
throughput number hides — the shape of the latency distribution while the
engine is absorbing a flood.  The ungoverned engine meets a filling SSD
cache with stop-the-world migrations at flush time, so an unlucky ``apply``
pays for migrating the whole cache; the governed engine paces migration in
bounded slices and applies its overload policy at admission.

One calibration run measures the sustainable fill+migrate rate (as in
Figure 12), then the same flood — arrivals at ``flood_factor`` times the
sustainable rate — is driven through the ungoverned engine and one governed
engine per overload policy.  For each we report sustained updates/sec, the
p99 per-``apply`` simulated latency, the single longest stall, and how many
updates were shed (non-zero only under ``SHED``).

Expected shape: comparable sustained rates, but the governed engines cut
the longest stall by orders of magnitude (paced slices vs whole-cache
migration) and only ``SHED`` ever drops an update.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.figures.common import (
    COARSE_BLOCK,
    SSD_PAGE,
    build_rig,
    clamped_alpha,
    safe_rate,
)
from repro.bench.harness import FigureResult
from repro.core.governor import GovernorConfig, OverloadPolicy
from repro.core.masm import MaSM, MaSMConfig
from repro.errors import BackpressureError
from repro.storage.iosched import OverlapWindow
from repro.workloads.synthetic import (
    FloodSchedule,
    SyntheticUpdateGenerator,
    flood_stream,
)


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _calibrate(scale: float, seed: int) -> tuple[float, int]:
    """Sustainable updates/sec and updates per fill+migrate cycle.

    Measured like Figure 12: warm to the first migration, then time two
    whole fill+migrate cycles.  The per-cycle count sizes the flood so it
    spans several migration cycles whatever the scale.
    """
    rig = build_rig(scale=scale, seed=seed)
    config = MaSMConfig(
        alpha=clamped_alpha(rig.cache_bytes, 1.0),
        ssd_page_size=SSD_PAGE,
        block_size=COARSE_BLOCK,
        cache_bytes=rig.cache_bytes,
        auto_migrate=True,
        migration_threshold=0.5,
    )
    masm = MaSM(rig.table, rig.ssd_volume, config=config, oracle=rig.oracle)
    generator = SyntheticUpdateGenerator(
        num_records=rig.table.row_count, seed=seed, oracle=rig.oracle
    )
    while masm.stats.migrations < 1:
        masm.apply(generator.next_update())
    window = OverlapWindow({"disk": rig.disk, "ssd": rig.ssd}, rig.cpu)
    applied = 0
    with window:
        target = masm.stats.migrations + 2
        while masm.stats.migrations < target:
            masm.apply(generator.next_update())
            applied += 1
    return safe_rate(applied, window.elapsed), max(1, applied // 2)


def _flood(
    scale: float,
    seed: int,
    policy: Optional[OverloadPolicy],
    rate: float,
    admit_rate: float,
    count: int,
) -> dict:
    """Drive one engine through the flood; return the stability metrics."""
    rig = build_rig(scale=scale, seed=seed)
    clock = rig.disk.clock
    alpha = clamped_alpha(rig.cache_bytes, 1.0)
    if policy is None:
        config = MaSMConfig(
            alpha=alpha,
            ssd_page_size=SSD_PAGE,
            block_size=COARSE_BLOCK,
            cache_bytes=rig.cache_bytes,
            auto_migrate=True,
            migration_threshold=0.5,
        )
    else:
        config = MaSMConfig(
            alpha=alpha,
            ssd_page_size=SSD_PAGE,
            block_size=COARSE_BLOCK,
            cache_bytes=rig.cache_bytes,
            auto_migrate=False,
            governor=GovernorConfig(
                overload_policy=policy,
                admit_rate=admit_rate,
                burst=64.0,
            ),
        )
    masm = MaSM(rig.table, rig.ssd_volume, config=config, oracle=rig.oracle)
    generator = SyntheticUpdateGenerator(
        num_records=rig.table.row_count, seed=seed, oracle=rig.oracle
    )
    schedule = FloodSchedule.steady(rate, count)
    latencies: list[float] = []
    applied = 0
    shed = 0
    flood_start = clock.now
    for arrival, update in flood_stream(generator, schedule, start=flood_start):
        if clock.now < arrival:
            clock.advance_to(arrival)
        started = clock.now
        try:
            masm.apply(update)
        except BackpressureError:
            shed += 1
        else:
            applied += 1
        latencies.append(clock.now - started)
    latencies.sort()
    # Sustained throughput over the flood's wall (simulated) time: device
    # work, admission delays and inter-arrival gaps all count, so the rate
    # is capped by the arrival rate and directly comparable across engines.
    return {
        "updates/sec": safe_rate(applied, clock.now - flood_start),
        "p99 apply (ms)": _percentile(latencies, 0.99) * 1e3,
        "longest stall (ms)": (latencies[-1] if latencies else 0.0) * 1e3,
        "shed": float(shed),
    }


def run(
    scale: float = 1.0,
    seed: int = 7,
    flood_factor: float = 2.0,
    flood_updates: Optional[int] = None,
) -> FigureResult:
    result = FigureResult(
        figure="Latency stability",
        title="Apply-latency stability under a sustained flood "
        f"({flood_factor:g}x the sustainable rate)",
        row_label="engine",
        columns=["updates/sec", "p99 apply (ms)", "longest stall (ms)", "shed"],
    )
    sustainable, per_cycle = _calibrate(scale, seed)
    # Span ~3 fill+migrate cycles by default so the flood actually exercises
    # migration pacing (an explicit flood_updates keeps smoke runs fast).
    count = flood_updates if flood_updates is not None else max(400, 3 * per_cycle)
    flood_rate = sustainable * flood_factor
    result.add_row(
        "ungoverned",
        **_flood(scale, seed, None, flood_rate, sustainable, count),
    )
    for policy in (
        OverloadPolicy.DELAY,
        OverloadPolicy.SHED,
        OverloadPolicy.SYNC_MIGRATE,
    ):
        result.add_row(
            f"governed/{policy.value}",
            **_flood(scale, seed, policy, flood_rate, sustainable, count),
        )
    result.note(
        f"sustainable rate {sustainable:.0f} upd/s; flood at "
        f"{flood_factor:g}x; governed engines bound each stall "
        "(paced migration slices) while only SHED drops updates"
    )
    return result
