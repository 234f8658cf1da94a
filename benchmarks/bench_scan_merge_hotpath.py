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

Writes ``benchmarks/results/BENCH_scan_merge.json`` so the performance
trajectory is tracked across PRs.

Run standalone:  PYTHONPATH=src python benchmarks/bench_scan_merge_hotpath.py
Smoke (CI):      ... bench_scan_merge_hotpath.py --smoke
Under pytest:    pytest benchmarks/bench_scan_merge_hotpath.py -s
"""

from __future__ import annotations

import gc
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent / "tests"))

import reference_operators as ref  # noqa: E402
from repro import obs  # noqa: E402
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

RESULTS_DIR = HERE / "results"
RESULT_FILE = "BENCH_scan_merge.json"

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


def run_hotpath_bench(
    num_runs: int = 4, per_run: int = 30_000, table_rows: int = 20_000, rounds: int = 7
) -> FigureResult:
    """Run the hot-path measurement under a fresh metrics registry/tracer;
    the observability report is attached on ``result.metrics``."""
    with obs.use_registry() as registry, obs.use_tracer() as tracer:
        result = _run_hotpath_bench(num_runs, per_run, table_rows, rounds)
    result.metrics = obs.report_dict(registry, tracer, experiment="bench-scan-merge")
    return result


def _run_hotpath_bench(num_runs: int, per_run: int, table_rows: int, rounds: int) -> FigureResult:
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
    result.note(
        f"warm merge speedup vs reference: {warm_speedup(result):.1f}x; "
        f"cache hit rate {warm.hit_rate:.2f}"
    )
    return result


def write_results(result: FigureResult, file_name: str = RESULT_FILE) -> pathlib.Path:
    """Write the result table (and its obs metrics report) under results/.

    Full runs overwrite the committed trajectory file; smoke/regression runs
    pass a different ``file_name`` so the baseline is never clobbered.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / file_name
    path.write_text(result.to_json(unit="per second"))
    result.write_metrics(path.with_name(path.stem + ".metrics.json"))
    return path


def warm_speedup(result: FigureResult) -> float:
    return result.cell("shipping-warm", "merge_rps") / result.cell("reference", "merge_rps")


def test_scan_merge_hotpath(benchmark=None):
    """Pytest entry: the warm-cache merge must beat the reference by >= 2x."""
    if benchmark is not None:
        result = benchmark.pedantic(run_hotpath_bench, rounds=1, iterations=1)
    else:
        result = run_hotpath_bench()
    print()
    print(result.format(precision=0))
    write_results(result)
    assert warm_speedup(result) >= 2.0, (
        f"warm-cache merge only {warm_speedup(result):.2f}x the reference rate"
    )


#: A smoke run is the same workload over fewer rounds: the ratios the gate
#: compares depend on the workload's size, and a round takes about a second.
SMOKE_KWARGS = dict(rounds=3)
SMOKE_RESULT_FILE = "BENCH_scan_merge.smoke.json"


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    result = run_hotpath_bench(**SMOKE_KWARGS) if smoke else run_hotpath_bench()
    print(result.format(precision=0))
    # Smoke runs go to a separate file: only full runs update the committed
    # trajectory baseline.
    path = write_results(result, SMOKE_RESULT_FILE if smoke else RESULT_FILE)
    print(f"\nwrote {path}")
    speedup = warm_speedup(result)
    floor = 1.5 if smoke else 2.0
    if speedup < floor:
        print(f"FAIL: warm merge speedup {speedup:.2f}x < {floor}x")
        return 1
    print(f"OK: warm merge speedup {speedup:.2f}x (floor {floor}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
