"""Microbenchmark: what the fault-tolerance machinery costs on the hot paths.

The robustness layer adds two things to the storage stack: a CRC32C
verification per freshly-read block, and a retry policy around every file
I/O.  Both must be cheap enough to leave on by default.  This benchmark
measures, with the machinery disabled (checksum verification off, retry
policy off) and enabled:

* records/second through ``RunScan -> MergeUpdates`` on cold and warm
  caches (the read path);
* redo-log appends/second through ``RedoLog.log_update`` (the write path
  every update takes).

The acceptance bar: the enabled path must stay within 20% of the disabled
path, both for the warm-cache merge rate and for the append rate.  Warm
scans never re-verify — the decoded block cache only holds blocks that
already passed — and a file I/O enters the retry policy only once an
attempt has failed, so on a fault-free device both overheads should sit at
zero, within timing noise.

Method (``gates.paired``): five alternating pairs of merge passes, each
after a full garbage collection; a cell is the median of its passes.  The
WAL appends of both modes go to two logs fed alternately, :data:`WAL_SLICE`
appends at a time, switching the machinery before every slice; a mode's
rate is the median of its slices', so a burst of machine noise lands on
both modes.

Gated by ``benchmarks/gates.py fault_overhead`` (``BENCH_fault_overhead.json``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from gates import paired
from repro.bench.harness import FigureResult
from repro.core.blockcache import DecodedBlockCache
from repro.core.operators import MergeUpdates, RunScan
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.storage import checksum
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.util.units import MB

#: Alternating merge passes per mode; a cell is the median of its passes.
PAIRS = 5

#: WAL appends per timed slice; the modes alternate slice by slice.
WAL_SLICE = 1_000

FULL_KEY_RANGE = (0, 2**60)


def build_runs(num_runs: int, per_run: int):
    codec = UpdateCodec(synthetic_schema())
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
    return runs, ssd


@contextmanager
def machinery(volume, protected: bool):
    """Checksum verification and ``volume``'s retry policy, both on or
    both off (policy None) for the ``with`` block."""
    previous_verify = checksum.set_verification(protected)
    policy = volume.retry_policy
    if not protected:
        volume.retry_policy = None
    try:
        yield
    finally:
        checksum.set_verification(previous_verify)
        volume.retry_policy = policy


def measure_merge(runs, cache) -> float:
    start = time.perf_counter()
    stream = MergeUpdates([RunScan(run, *FULL_KEY_RANGE, cache=cache) for run in runs])
    produced = sum(1 for _ in stream)
    elapsed = time.perf_counter() - start
    assert produced == sum(run.count for run in runs)
    return produced / elapsed


def measure_merges(runs, volume, protected: bool) -> tuple[float, float]:
    """(cold_rps, warm_rps) of one mode, over a fresh decoded-block cache."""
    total_blocks = sum(run.num_blocks for run in runs)
    cache = DecodedBlockCache(total_blocks)
    with machinery(volume, protected):
        cold = measure_merge(runs, cache)
        warm = measure_merge(runs, cache)
    assert cache.misses == total_blocks  # the cold pass read every block once
    return cold, warm


def measure_wal(volume, codec, encoded) -> dict[bool, float]:
    """Median redo-log appends/second of a :data:`WAL_SLICE`-append slice
    of ``encoded``, machinery off (False) and on (True): a fresh log per
    mode, the two fed slice by slice, taking turns going first."""
    logs = {
        protected: RedoLog(volume.create(f"wal-{protected}", 32 * MB))
        for protected in (False, True)
    }
    for log in logs.values():
        log.register_table("t", codec)
    starts = range(0, len(encoded), WAL_SLICE)
    pending = {protected: iter(starts) for protected in logs}

    def append_slice(protected: bool) -> float:
        first = next(pending[protected])
        piece, log = encoded[first : first + WAL_SLICE], logs[protected]
        with machinery(volume, protected):
            start = time.perf_counter()
            for update in piece:
                log.log_update("t", update)
            return len(piece) / (time.perf_counter() - start)

    rates = paired(append_slice, (False, True), len(starts))
    for log in logs.values():
        assert log.records_written == len(encoded)
        volume.delete(log.file.name)
    return rates


def run(num_runs: int = 4, per_run: int = 30_000, wal_appends: int = 50_000) -> FigureResult:
    runs, volume = build_runs(num_runs, per_run)
    codec = runs[0].codec
    encoded = [
        codec.encode(UpdateRecord(i + 1, i * 2, UpdateType.INSERT, (i * 2, f"wal-{i}")))
        for i in range(wal_appends)
    ]
    result = FigureResult(
        figure="BENCH fault overhead",
        title="scan/merge records/sec and WAL appends/sec, "
        "fault machinery disabled vs enabled",
        row_label="mode",
        columns=["cold_rps", "warm_rps", "wal_appends_per_s"],
    )
    merges = paired(lambda protected: measure_merges(runs, volume, protected), (False, True), PAIRS)
    appends = measure_wal(volume, codec, encoded)
    for label, mode in (("disabled", False), ("enabled", True)):
        cold, warm = merges[mode]
        result.add_row(label, cold_rps=cold, warm_rps=warm, wal_appends_per_s=appends[mode])
    merge, wal = (
        1.0 - result.cell("enabled", column) / result.cell("disabled", column)
        for column in ("warm_rps", "wal_appends_per_s")
    )
    result.note(
        f"workload: {num_runs} runs x {per_run} updates, {wal_appends} WAL appends; "
        f"median of {PAIRS} alternating merge pairs and of "
        f"{len(range(0, wal_appends, WAL_SLICE))} alternating WAL slice pairs; warm merge overhead "
        f"{merge * 100:.1f}%, WAL append overhead {wal * 100:.1f}%"
    )
    return result


SMOKE = dict(num_runs=3, per_run=4_000, wal_appends=10_000)
