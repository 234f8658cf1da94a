"""Serving benchmark: scale, determinism and quota isolation in one table.

Drives the two serving experiment drivers and distills their acceptance
surface into one result table:

* ``serving-scale`` — the multi-tenant front door under thousands of
  concurrent sessions (2,400 at full scale; the acceptance floor is
  2,000).  The driver runs on virtual time, so the gate runner runs this
  benchmark TWICE and requires byte-identical results — the serving stack
  must be a pure function of ``(scale, seed)``.
* ``noisy-neighbor`` — the victim tenant's p99 with a flooding tenant
  present must stay within 2x of its solo baseline while the flooder's
  quota actually sheds.

Gated by ``benchmarks/gates.py serving`` (``BENCH_serving.json``, the
serving latency surface tracked across PRs).
"""

from __future__ import annotations

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import FigureResult


def run(scale: float = 1.0) -> FigureResult:
    """Run both serving drivers; distill the acceptance surface."""
    result = FigureResult(
        figure="BENCH serving",
        title="serving front door: scale, determinism, quota isolation",
        row_label="row",
        columns=[
            "sessions",
            "requests",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "shed",
            "shed_rate",
            "p99_vs_solo",
        ],
    )

    scale_run = ALL_DRIVERS["serving-scale"](scale=scale)
    rows = dict(scale_run.rows)
    for tenant in ("standard", "batch", "gold"):
        surface = rows[tenant]
        arrivals = surface["requests"] + surface["shed"]
        result.add_row(
            f"scale-{tenant}",
            sessions=surface["sessions"],
            requests=surface["requests"],
            p50_ms=surface["p50 (ms)"],
            p99_ms=surface["p99 (ms)"],
            p999_ms=surface["p999 (ms)"],
            shed=surface["shed"],
            shed_rate=surface["shed"] / max(arrivals, 1.0),
        )
    totals = rows["all"]
    total_arrivals = totals["requests"] + totals["shed"]
    result.add_row(
        "scale-all",
        sessions=totals["sessions"],
        requests=totals["requests"],
        shed=totals["shed"],
        shed_rate=totals["shed"] / max(total_arrivals, 1.0),
    )

    # --- noisy-neighbor: the isolation surface, normalized against the
    # victim's solo baseline measured in the same run.
    nn = dict(ALL_DRIVERS["noisy-neighbor"](scale=scale).rows)
    for label in ("victim-solo", "victim-shared", "flooder"):
        surface = nn[label]
        arrivals = surface["requests"] + surface["shed"]
        result.add_row(
            label,
            requests=surface["requests"],
            p50_ms=surface["p50 (ms)"],
            p99_ms=surface["p99 (ms)"],
            p999_ms=surface["p999 (ms)"],
            shed=surface["shed"],
            shed_rate=surface["shed"] / max(arrivals, 1.0),
            p99_vs_solo=surface["p99 vs solo"],
        )

    result.note(
        f"serving-scale: {totals['sessions']:.0f} sessions; victim p99 with "
        f"flooder present: {nn['victim-shared']['p99 vs solo']:.2f}x solo; "
        f"flooder shed {nn['flooder']['shed']:.0f}"
    )
    result.metrics = scale_run.metrics
    return result


SMOKE = dict(scale=0.05)
