"""Figure 9: the impact of online update schemes on range scan performance.

Range sizes sweep from one 4 KB page to the whole table; the update cache is
50% full.  Four schemes, as in the paper:

* in-place updates running concurrently with the scan (shared disk head);
* ideal-case Indexed Updates (one synchronous random SSD read per entry);
* MaSM with the coarse-grain run index (64 KB blocks);
* MaSM with the fine-grain run index (4 KB blocks).

All values are normalized to the same scan with no updates.  Expected shape
(paper): in-place 1.7-3.7x everywhere; IU up to 3.8x, worst in the middle;
MaSM-coarse near 1 for large ranges but paying whole blocks per run at small
ranges; MaSM-fine within a few percent everywhere.
"""

from __future__ import annotations

import random

from repro.baselines.inplace import interleaved_scan
from repro.bench.figures.common import (
    COARSE_BLOCK,
    FINE_BLOCK,
    build_rig,
    fill_cache,
    make_iu,
    make_masm,
    random_range,
    range_size_sweep,
)
from repro.bench.harness import FigureResult
from repro.workloads.synthetic import SyntheticUpdateGenerator

#: Concurrent in-place updates serviced per 1 MB scan chunk (the online
#: update arrival rate for the in-place bars).
INPLACE_UPDATES_PER_CHUNK = 1.0

CACHE_FILL = 0.5  # "the cached updates occupy 50% of the allocated flash"


def run(scale: float = 1.0, repeats: int = 3, seed: int = 7) -> FigureResult:
    result = FigureResult(
        figure="Figure 9",
        title="Range scans with online updates, normalized to scans without "
        "updates (cache 50% full)",
        row_label="range size",
        columns=["in-place", "IU", "masm-coarse", "masm-fine"],
    )
    rng = random.Random(seed)

    # --- independent rigs per scheme so caches/head state don't interact ---
    inplace_rig = build_rig(scale=scale, seed=seed)

    iu_rig = build_rig(scale=scale, seed=seed)
    iu = make_iu(iu_rig)
    fill_cache(iu, iu_rig, CACHE_FILL)

    coarse_rig = build_rig(scale=scale, seed=seed)
    masm_coarse = make_masm(coarse_rig, block_size=COARSE_BLOCK)
    fill_cache(masm_coarse, coarse_rig, CACHE_FILL)

    fine_rig = build_rig(scale=scale, seed=seed)
    masm_fine = make_masm(fine_rig, block_size=FINE_BLOCK)
    fill_cache(masm_fine, fine_rig, CACHE_FILL)

    result.note(
        f"table {inplace_rig.table.data_bytes} bytes stands in for the "
        f"paper's 100GB; cache {coarse_rig.cache_bytes} bytes for its 4GB; "
        f"runs: coarse={len(masm_coarse.runs)}, fine={len(masm_fine.runs)} "
        "(the paper saw 128 at full scale - small-range factors compress "
        "with the run count)"
    )

    for label, size in range_size_sweep(inplace_rig):
        ranges = [random_range(inplace_rig, size, rng) for _ in range(repeats)]

        def averaged(measure_one) -> float:
            return sum(measure_one(b, e) for b, e in ranges) / len(ranges)

        baseline = averaged(
            lambda b, e: inplace_rig.measure(
                lambda: inplace_rig.drain(inplace_rig.table.range_scan(b, e))
            ).elapsed
        )

        def inplace_time(b: int, e: int) -> float:
            gen = SyntheticUpdateGenerator(
                num_records=inplace_rig.table.row_count,
                seed=rng.randrange(10**6),
                oracle=inplace_rig.oracle,
            )
            return inplace_rig.measure(
                lambda: inplace_rig.drain(
                    interleaved_scan(
                        inplace_rig.table,
                        b,
                        e,
                        gen.stream(),
                        INPLACE_UPDATES_PER_CHUNK,
                    )
                )
            ).elapsed

        def engine_time(rig, engine):
            def timer(b: int, e: int) -> float:
                return rig.measure(
                    lambda: rig.drain(engine.range_scan(b, e))
                ).elapsed

            return timer

        result.add_row(
            label,
            **{
                "in-place": averaged(inplace_time) / baseline,
                "IU": averaged(engine_time(iu_rig, iu)) / baseline,
                "masm-coarse": averaged(engine_time(coarse_rig, masm_coarse))
                / baseline,
                "masm-fine": averaged(engine_time(fine_rig, masm_fine)) / baseline,
            },
        )

    # The coarse-vs-fine mechanism at small ranges (one block read per run):
    # report the SSD bytes each index granularity touches for a 4KB range,
    # from cold decoded-block caches (a warm cache serves the coarse block
    # without a device read, and the note would compare nothing).
    begin, end = random_range(inplace_rig, 4096, rng)
    for engine in (masm_coarse, masm_fine):
        if engine.block_cache is not None:
            engine.block_cache.clear()
    coarse_io = coarse_rig.measure(
        lambda: coarse_rig.drain(masm_coarse.range_scan(begin, end))
    ).stats("ssd")
    fine_io = fine_rig.measure(
        lambda: fine_rig.drain(masm_fine.range_scan(begin, end))
    ).stats("ssd")
    result.note(
        f"4KB-range SSD reads: coarse {coarse_io.bytes_read}B vs fine "
        f"{fine_io.bytes_read}B (cold block cache) - both overlap under the "
        "disk I/O here; at "
        "the paper's 128-run scale the coarse reads exceed the disk time "
        "(its 2.9x), while fine stays within a few percent"
    )
    return result
