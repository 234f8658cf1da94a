"""Microbenchmark: the scan/merge read hot path as it ships, against the
record-at-a-time reference operators.

Measures updates/second through the merge (``merge_rps``: runs ->
``MergeUpdates.kernel_batches()``) and rows/second through the whole
pipeline (``pipeline_rps``: ``kernel_batches()`` -> ``join_batches`` over
``Table.range_scan_pair_chunks``), three ways:

* ``reference``     — ``tests/reference_operators.py``: block-by-block
  ``scan_run``, ``heapq`` merge + ``combine_chain``, the per-record outer
  join.  Re-measured on every run; every other row is gated as a ratio
  against it, which cancels out host speed and workload size;
* ``shipping-cold`` — what a scan executes, with an empty decoded-block cache
  (every block read from the SSD and decoded once);
* ``shipping-warm`` — the same with the cache already holding every decoded
  block (repeated/concurrent-scan regime).

The shipping rows count what the pipeline produces — batch and joined-array
lengths — and build no tuples, as the benchmark's ``scan_large`` does not
until ``Schema.unpack_many`` at the API edge.

Gated by ``benchmarks/gates.py scan_merge`` (``BENCH_scan_merge.json``, the
performance trajectory tracked across PRs).
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "tests"))

import reference_operators as ref  # noqa: E402
from repro.bench.harness import FigureResult  # noqa: E402
from repro.core.blockcache import DecodedBlockCache  # noqa: E402
from repro.core.operators import MergeUpdates, RunScan, join_batches  # noqa: E402
from repro.core.sortedrun import write_run  # noqa: E402
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType  # noqa: E402
from repro.engine.record import synthetic_schema  # noqa: E402
from repro.storage.disk import SimulatedDisk  # noqa: E402
from repro.storage.file import StorageVolume  # noqa: E402
from repro.storage.ssd import SimulatedSSD  # noqa: E402
from repro.util.units import GB, MB  # noqa: E402
from repro.workloads.synthetic import build_synthetic_table  # noqa: E402

FULL_KEY_RANGE = (0, 2**60)


def build_workload(num_runs: int, per_run: int, table_rows: int):
    """Key-interleaved sorted runs on a simulated SSD plus a base table."""
    schema = synthetic_schema()
    codec = UpdateCodec(schema)
    ssd = StorageVolume(SimulatedSSD(capacity=256 * MB))
    runs = []
    for r in range(num_runs):
        updates = [
            UpdateRecord(
                r * per_run + i + 1,
                (i * num_runs + r) * 2,
                UpdateType.INSERT,
                ((i * num_runs + r) * 2, f"payload-{r}-{i}"),
            )
            for i in range(per_run)
        ]
        runs.append(write_run(ssd, f"hotpath-run-{r}", codec.encode_columns(updates), codec))
    disk = StorageVolume(SimulatedDisk(capacity=1 * GB))
    table = build_synthetic_table(disk, num_records=table_rows)
    return schema, runs, table


def _timed(counts) -> tuple[int, float]:
    """Sum ``counts`` (one number per step of the pipeline under test),
    timing the drain with the collector paused.

    The reference legs allocate millions of short-lived records; without
    pausing, generational collections triggered by their garbage land inside
    the later rows' measurements.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        produced = sum(counts)
        return produced, time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def reference_merge(schema, runs):
    return ref.merge_updates([ref.scan_run(run, *FULL_KEY_RANGE) for run in runs], schema)


def shipping_merge(schema, runs, cache) -> MergeUpdates:
    return MergeUpdates([RunScan(run, *FULL_KEY_RANGE, cache=cache) for run in runs])


def measure_merge(schema, runs, cache=None, reference: bool = False) -> float:
    """Updates consumed per second by the merge over the whole key space."""
    if reference:
        counts = (1 for _ in reference_merge(schema, runs))
    else:
        counts = map(len, shipping_merge(schema, runs, cache).kernel_batches())
    _, elapsed = _timed(counts)
    return sum(run.count for run in runs) / elapsed


def measure_pipeline(schema, runs, table, cache=None, reference: bool = False) -> float:
    """Rows produced per second by merge + outer join with the table scan."""
    if reference:
        counts = (
            1
            for _ in ref.merge_data_updates(
                table.range_scan_pairs(*FULL_KEY_RANGE), reference_merge(schema, runs), schema
            )
        )
    else:
        # The MaSM.range_scan wiring, short of the tuples.
        joined = join_batches(
            shipping_merge(schema, runs, cache).kernel_batches(),
            table.range_scan_pair_chunks(*FULL_KEY_RANGE),
            schema,
        )
        counts = (len(rows) for rows, _ in joined)
    rows, elapsed = _timed(counts)
    return rows / elapsed


def run(
    num_runs: int = 4, per_run: int = 30_000, table_rows: int = 20_000, rounds: int = 7
) -> FigureResult:
    schema, runs, table = build_workload(num_runs, per_run, table_rows)
    result = FigureResult(
        figure="BENCH scan/merge",
        title="read hot path per second (reference operators vs what ships, cold vs warm cache)",
        row_label="path",
        columns=["merge_rps", "pipeline_rps"],
    )
    # Caches are sized to hold the whole working set.  Cold: an empty one per
    # measurement; warm: one the first (unmeasured) pass filled.
    total_blocks = sum(run.num_blocks for run in runs)
    warm = DecodedBlockCache(total_blocks)
    measure_merge(schema, runs, warm)
    # Each round measures the three paths back to back, so load from the
    # machine's other tenants lands on all of them; a row is the median of
    # its rounds.
    samples: dict[str, list[tuple[float, float]]] = {
        "reference": [], "shipping-cold": [], "shipping-warm": []
    }
    for _ in range(rounds):
        samples["reference"].append((
            measure_merge(schema, runs, reference=True),
            measure_pipeline(schema, runs, table, reference=True),
        ))
        samples["shipping-cold"].append((
            measure_merge(schema, runs, DecodedBlockCache(total_blocks)),
            measure_pipeline(schema, runs, table, DecodedBlockCache(total_blocks)),
        ))
        samples["shipping-warm"].append((
            measure_merge(schema, runs, warm),
            measure_pipeline(schema, runs, table, warm),
        ))
    for label, pairs in samples.items():
        merge_rates, pipeline_rates = zip(*pairs)
        result.add_row(
            label,
            merge_rps=statistics.median(merge_rates),
            pipeline_rps=statistics.median(pipeline_rates),
        )

    result.note(
        f"workload: {num_runs} runs x {per_run} updates, {table_rows}-row table, "
        f"64 KB blocks; median of {rounds} rounds"
    )
    speedup = result.cell("shipping-warm", "merge_rps") / result.cell("reference", "merge_rps")
    result.note(
        f"warm merge speedup vs reference: {speedup:.1f}x; cache hit rate {warm.hit_rate:.2f}"
    )
    return result


#: A smoke run is the same workload over fewer rounds: the ratios the gate
#: compares depend on the workload's size, and a round takes about a second.
SMOKE = dict(rounds=3)
