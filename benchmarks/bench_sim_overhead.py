"""Microbenchmark: what the simulation interleave hooks cost when inactive.

``repro.sim.hooks.interleave`` is called on every engine operation (apply,
flush, scan begin/end, migration slice) so the deterministic simulator can
observe interleavings.  Outside a simulation the hook is one module-global
load plus an is-None test — but it sits on the ungoverned apply/scan hot
path, so that "nothing" must be measured and gated.

Two measurements:

* an A/B throughput comparison of the ungoverned hot path (randomized
  applies + full range scans) with the shipped hooks versus every consumer
  module rebound to a bare no-op — the end-to-end overhead;
* the per-call cost of ``interleave`` itself versus one ``masm.apply``,
  the analytic bound on what the hook can possibly cost per operation.

The acceptance bar: the shipped path must stay within 5% of the no-op
path (apply rate, median of alternating pairs).

Gated by ``benchmarks/gates.py sim_overhead`` (``BENCH_sim_overhead.json``).
"""

from __future__ import annotations

import importlib
import random
import time

from gates import paired
from repro.bench.harness import FigureResult
from repro.core.masm import MaSM, MaSMConfig
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.sim.hooks import interleave
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

#: Alternating passes per mode; a cell is the median of its passes.
PAIRS = 5

#: Every module that binds ``interleave`` at import time; the no-op mode
#: rebinds these, not the hooks module, because ``from ... import`` copies.
_CONSUMERS = (
    "repro.core.masm",
    "repro.core.migration",
    "repro.core.governor",
    "repro.txn.snapshot",
)


def _noop(site):
    return None


def build_engine(rows: int):
    schema = synthetic_schema()
    disk_vol = StorageVolume(SimulatedDisk(capacity=256 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=32 * MB))
    table = Table.create(disk_vol, "bench", schema, rows)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(rows))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(
            alpha=1.0,
            ssd_page_size=8 * KB,
            block_size=4 * KB,
            auto_migrate=False,
        ),
    )
    return schema, masm


def measure_hot_path(rows: int, applies: int, scans: int) -> tuple[float, float]:
    """(applies/sec, scan records/sec) on a fresh ungoverned engine."""
    schema, masm = build_engine(rows)
    rng = random.Random(1234)
    keys = [rng.randrange(rows) * 2 for _ in range(applies)]
    start = time.perf_counter()
    for i, key in enumerate(keys):
        masm.modify(key, {"payload": f"u{i}"})
    apply_rate = applies / (time.perf_counter() - start)
    start = time.perf_counter()
    produced = 0
    for _ in range(scans):
        produced += sum(1 for _ in masm.range_scan(0, 2**62))
    scan_rate = produced / (time.perf_counter() - start)
    assert produced == scans * rows
    return apply_rate, scan_rate


def measure_hook_call_cost(calls: int = 200_000) -> float:
    """Seconds per inactive ``interleave`` call."""
    start = time.perf_counter()
    for _ in range(calls):
        interleave("bench.site")
    return (time.perf_counter() - start) / calls


def measure_mode(mode: str, rows: int, applies: int, scans: int) -> tuple[float, float]:
    """:func:`measure_hot_path` with the hooks as shipped or, for mode
    ``"noop"``, every consumer's ``sim_interleave`` rebound to a no-op."""
    consumers = [importlib.import_module(name) for name in _CONSUMERS]
    shipped = [module.sim_interleave for module in consumers]
    if mode == "noop":
        for module in consumers:
            module.sim_interleave = _noop
    try:
        return measure_hot_path(rows, applies, scans)
    finally:
        for module, fn in zip(consumers, shipped):
            module.sim_interleave = fn


def run(rows: int = 4_000, applies: int = 30_000, scans: int = 6) -> FigureResult:
    result = FigureResult(
        figure="BENCH sim overhead",
        title="ungoverned hot path, interleave hooks shipped vs no-op",
        row_label="mode",
        columns=["apply_rate", "scan_rps"],
    )
    rates = paired(
        lambda mode: measure_mode(mode, rows, applies, scans), ("noop", "shipped"), PAIRS
    )
    for mode, (apply_rate, scan_rps) in rates.items():
        result.add_row(mode, apply_rate=apply_rate, scan_rps=scan_rps)

    per_call = measure_hook_call_cost()
    per_apply = 1.0 / rates["shipped"][0]
    overhead = 1.0 - rates["shipped"][0] / rates["noop"][0]
    result.note(
        f"workload: {rows} rows, {applies} applies, {scans} scans; median of "
        f"{PAIRS} alternating pairs; apply-path overhead {overhead * 100:.2f}%; "
        f"inactive hook {per_call * 1e9:.0f} ns/call = "
        f"{per_call / per_apply * 100:.2f}% of one apply"
    )
    return result


SMOKE = dict(rows=1_000, applies=6_000, scans=3)
