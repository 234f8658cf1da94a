"""Availability benchmark: replication keeps serving through chaos.

Drives the ``availability-under-chaos`` experiment (a 3-way replicated
warehouse serving through a primary kill, failover, rejoin and a
brownout) and distills the robustness acceptance surface:

* **no wrong answers** — every hedged or failed-over response was
  byte-compared against the fault-free model oracle at its pinned
  snapshot timestamp; a single mismatch fails the run.
* **success-rate floor** — chaos may slow requests, not lose them: the
  overall success rate must stay >= 0.999.
* **bounded failover window** — p99 latency while the killed primary is
  being routed around must stay within 2x of
  the fault-free baseline p99 from the same run.
* **non-vacuous chaos** — the run must actually record read failovers
  and hedge wins; a pass where the faults never engaged proves nothing.
* **no hedges without a fault** — every window but the brownout may issue
  at most one hedge: on a healthy replica a
  synchronous backup can only add a whole scan.
* **determinism** — the gate runner runs this benchmark TWICE; the two
  results must be byte-identical (virtual time, seeded chaos).

Gated by ``benchmarks/gates.py availability`` (``BENCH_availability.json``).
"""

from __future__ import annotations

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import FigureResult

PHASES = ("baseline", "failover-window", "brownout-window", "recovered")


def run(scale: float = 1.0) -> FigureResult:
    """Run the chaos driver; distill the acceptance surface."""
    first = ALL_DRIVERS["availability-under-chaos"](scale=scale)

    result = FigureResult(
        figure="BENCH availability",
        title="replicated serving under chaos: kill, failover, rejoin, brownout",
        row_label="row",
        columns=[
            "requests",
            "ok",
            "failed",
            "wrong",
            "p50_ms",
            "p99_ms",
            "success_rate",
            "p99_vs_baseline",
            "failovers",
            "hedges",
            "hedge_wins",
        ],
    )
    for phase in PHASES:
        result.add_row(
            phase,
            requests=first.cell(phase, "requests"),
            ok=first.cell(phase, "ok"),
            failed=first.cell(phase, "failed"),
            wrong=first.cell(phase, "wrong"),
            p50_ms=first.cell(phase, "p50 (ms)"),
            p99_ms=first.cell(phase, "p99 (ms)"),
            success_rate=first.cell(phase, "success_rate"),
            p99_vs_baseline=first.cell(phase, "p99_vs_baseline"),
            hedges=first.cell(phase, "hedges"),
        )
    result.add_row(
        "all",
        requests=first.cell("all", "requests"),
        ok=first.cell("all", "ok"),
        failed=first.cell("all", "failed"),
        wrong=first.cell("all", "wrong"),
        success_rate=first.cell("all", "success_rate"),
        failovers=first.cell("all", "failovers"),
        hedges=first.cell("all", "hedges"),
        hedge_wins=first.cell("all", "hedge_wins"),
    )
    for note in first.notes:
        result.note(note)
    result.metrics = first.metrics
    return result


SMOKE = dict(scale=0.4)
