"""Theorems 3.2/3.3: the memory-footprint vs SSD-writes spectrum of MaSM-αM.

Sweeps alpha from 1 to 2, measuring the engine's actual SSD writes per
ingested update under merge pressure against the closed form 2 - 0.25*α²
(1.75 + 2/M exactly at alpha = 1).  Also reports each configuration's memory
footprint, exhibiting the trade-off the theorems describe.
"""

from __future__ import annotations

from repro.bench.figures.common import build_rig, make_masm
from repro.bench.harness import FigureResult
from repro.core import theory
from repro.workloads.synthetic import SyntheticUpdateGenerator

ALPHAS = [1.0, 1.2, 1.4, 1.7, 2.0]


def run(scale: float = 0.5, seed: int = 29) -> FigureResult:
    result = FigureResult(
        figure="Theorems 3.2/3.3",
        title="SSD writes per update vs memory footprint (MaSM-alphaM)",
        row_label="alpha",
        columns=["memory pages", "theory writes/upd", "measured writes/upd"],
    )
    for alpha in ALPHAS:
        rig = build_rig(scale=scale, seed=seed)
        masm = make_masm(rig, alpha=alpha)
        gen = SyntheticUpdateGenerator(
            num_records=rig.table.row_count, seed=seed, oracle=rig.oracle
        )
        # Keep a scan standing so the update buffer never steals query pages
        # (the worst case of the theorems assumes minimal 1-pass runs), and
        # trigger the budget-driven merging with periodic scans.
        standing = masm.range_scan(0, 2)
        next(standing, None)
        target = int(masm.cache_bytes * 0.9)
        while masm.cached_run_bytes + masm.buffer.used_bytes < target:
            masm.apply(gen.next_update())
            if len(masm.runs) > masm.params.query_pages:
                rig.drain(masm.range_scan(0, 2))
        rig.drain(standing)
        result.add_row(
            f"{alpha:.1f}",
            **{
                "memory pages": float(masm.params.total_memory_pages),
                "theory writes/upd": theory.masm_writes_per_update(
                    alpha, M=masm.params.M
                ),
                "measured writes/upd": masm.stats.ssd_writes_per_update,
            },
        )
    result.note(
        "theory: alpha=2 writes each update once; alpha=1 about 1.75 times; "
        "measured values track the bound within small-M quantization and "
        "fall with alpha (values below 1.0 reflect updates still buffered; "
        "run merges fold a key's versions no scan tells apart, so repeated "
        "keys are rewritten fewer times than ingested)"
    )
    return result
