"""Microbenchmark: what the fault-tolerance machinery costs on the hot path.

The robustness layer adds two things to every block on the warm scan/merge
path: a CRC32C verification per freshly-read block, and a retry-policy
wrapper around every file I/O.  Both must be cheap enough to leave on by
default.  This benchmark measures records/second through
``RunScan -> MergeUpdates`` with the machinery disabled (checksum
verification off, retry policy off) and enabled, on cold and warm caches.

The acceptance bar: the enabled path must stay within 20% of the disabled
path (warm-cache merge rate).  Warm scans never re-verify — the decoded
block cache only holds blocks that already passed — so the steady-state
overhead is dominated by the retry wrapper's lambda indirection.

Writes ``benchmarks/results/BENCH_fault_overhead.json``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_fault_overhead.py
Smoke (CI):      ... bench_fault_overhead.py --smoke
Under pytest:    pytest benchmarks/bench_fault_overhead.py -s
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro import obs
from repro.bench.harness import FigureResult
from repro.core.blockcache import DecodedBlockCache
from repro.core.operators import MergeUpdates, RunScan
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.storage import checksum
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import MB

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = "BENCH_fault_overhead.json"

#: The acceptance bar from the issue: checksums + retries on the hot path
#: must cost no more than this fraction of the unprotected rate.
OVERHEAD_TOLERANCE = 0.20

FULL_KEY_RANGE = (0, 2**60)


def build_runs(num_runs: int, per_run: int):
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
        runs.append(write_run(ssd, f"overhead-run-{r}", codec.encode_columns(updates), codec))
    return schema, runs, ssd


def measure_merge(schema, runs, cache) -> float:
    start = time.perf_counter()
    stream = MergeUpdates(
        [RunScan(run, *FULL_KEY_RANGE, cache=cache) for run in runs]
    )
    produced = sum(1 for _ in stream)
    elapsed = time.perf_counter() - start
    assert produced == sum(run.count for run in runs)
    return produced / elapsed


def measure_pair(schema, runs, volume, protected: bool) -> tuple[float, float]:
    """(cold_rps, warm_rps) with the fault machinery on or off."""
    previous_verify = checksum.set_verification(protected)
    previous_policy = volume.retry_policy
    if not protected:
        volume.retry_policy = None
    try:
        total_blocks = sum(run.num_blocks for run in runs)
        cache = DecodedBlockCache(total_blocks)
        cold = measure_merge(schema, runs, cache)
        warm = measure_merge(schema, runs, cache)
        return cold, warm
    finally:
        checksum.set_verification(previous_verify)
        volume.retry_policy = previous_policy


def run_overhead_bench(num_runs: int = 4, per_run: int = 30_000) -> FigureResult:
    with obs.use_registry() as registry, obs.use_tracer() as tracer:
        result = _run_overhead_bench(num_runs, per_run)
    result.metrics = obs.report_dict(registry, tracer, experiment="bench-fault-overhead")
    return result


def _run_overhead_bench(num_runs: int, per_run: int) -> FigureResult:
    schema, runs, volume = build_runs(num_runs, per_run)
    result = FigureResult(
        figure="BENCH fault overhead",
        title="scan/merge records/sec, fault machinery disabled vs enabled",
        row_label="mode",
        columns=["cold_rps", "warm_rps"],
    )
    # Interleave repetitions of both modes and keep the best of each, so a
    # stray scheduling hiccup cannot land entirely on one side of the ratio.
    best = {"disabled": (0.0, 0.0), "enabled": (0.0, 0.0)}
    for _ in range(3):
        for mode, protected in (("disabled", False), ("enabled", True)):
            cold, warm = measure_pair(schema, runs, volume, protected)
            best[mode] = (max(best[mode][0], cold), max(best[mode][1], warm))
    for mode in ("disabled", "enabled"):
        cold, warm = best[mode]
        result.add_row(mode, cold_rps=cold, warm_rps=warm)

    overhead = 1.0 - best["enabled"][1] / best["disabled"][1]
    result.note(
        f"workload: {num_runs} runs x {per_run} updates; "
        f"warm overhead {overhead * 100:.1f}% (tolerance {OVERHEAD_TOLERANCE * 100:.0f}%)"
    )
    return result


def write_results(result: FigureResult, file_name: str = RESULT_FILE) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / file_name
    path.write_text(result.to_json(unit="records/sec"))
    result.write_metrics(path.with_name(path.stem + ".metrics.json"))
    return path


def _overhead(result: FigureResult) -> float:
    disabled = result.cell("disabled", "warm_rps")
    enabled = result.cell("enabled", "warm_rps")
    return 1.0 - enabled / disabled


def test_fault_overhead(benchmark=None):
    """Pytest entry: enabled warm rate within 20% of the disabled rate."""
    if benchmark is not None:
        result = benchmark.pedantic(run_overhead_bench, rounds=1, iterations=1)
    else:
        result = run_overhead_bench()
    print()
    print(result.format(precision=0))
    write_results(result)
    overhead = _overhead(result)
    assert overhead <= OVERHEAD_TOLERANCE, (
        f"fault machinery costs {overhead * 100:.1f}% on the warm merge path "
        f"(tolerance {OVERHEAD_TOLERANCE * 100:.0f}%)"
    )


SMOKE_KWARGS = dict(num_runs=3, per_run=4_000)
SMOKE_RESULT_FILE = "BENCH_fault_overhead.smoke.json"


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    result = run_overhead_bench(**SMOKE_KWARGS) if smoke else run_overhead_bench()
    print(result.format(precision=0))
    path = write_results(result, SMOKE_RESULT_FILE if smoke else RESULT_FILE)
    print(f"\nwrote {path}")
    payload = json.loads(path.read_text())
    rows = {r["label"]: r["values"] for r in payload["rows"]}
    overhead = 1.0 - rows["enabled"]["warm_rps"] / rows["disabled"]["warm_rps"]
    # Smoke workloads are small enough that timing noise dominates; allow
    # extra slack there, the committed full run enforces the real bar.
    tolerance = 0.35 if smoke else OVERHEAD_TOLERANCE
    if overhead > tolerance:
        print(f"FAIL: fault machinery overhead {overhead * 100:.1f}% > {tolerance * 100:.0f}%")
        return 1
    print(f"OK: fault machinery overhead {overhead * 100:.1f}% (tolerance {tolerance * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
