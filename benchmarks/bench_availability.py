"""Availability benchmark: replication keeps serving through chaos.

Drives the ``availability-under-chaos`` experiment (a 3-way replicated
warehouse serving through a primary kill, failover, rejoin and a
brownout) and distills the robustness acceptance surface:

* **no wrong answers** — every hedged or failed-over response was
  byte-compared against the fault-free model oracle at its pinned
  snapshot timestamp; a single mismatch fails the run.
* **success-rate floor** — chaos may slow requests, not lose them: the
  overall success rate must stay >= ``SUCCESS_RATE_FLOOR``.
* **bounded failover window** — p99 latency while the killed primary is
  being routed around must stay within ``FAILOVER_P99_BOUND`` (2x) of
  the fault-free baseline p99 from the same run.
* **non-vacuous chaos** — the run must actually record read failovers
  and hedge wins; a pass where the faults never engaged proves nothing.
* **no hedges without a fault** — every window but the brownout may issue
  at most ``HEALTHY_WINDOW_HEDGE_CEILING`` hedges: on a healthy replica a
  synchronous backup can only add a whole scan.
* **determinism** — the driver runs TWICE; the exported metrics reports
  must be byte-identical (virtual time, seeded chaos).

Writes ``benchmarks/results/BENCH_availability.json`` so the availability
surface is tracked across PRs (``check_regression.py`` gates on it).

Run standalone:  PYTHONPATH=src python benchmarks/bench_availability.py
Smoke (CI):      ... bench_availability.py --smoke
Under pytest:    pytest benchmarks/bench_availability.py -s
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import FigureResult

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
RESULT_FILE = "BENCH_availability.json"
SMOKE_RESULT_FILE = "BENCH_availability.smoke.json"

#: Chaos may add latency, never lose requests: the acceptance floor.
SUCCESS_RATE_FLOOR = 0.999
#: Failover-window p99 over same-run fault-free baseline p99.
FAILOVER_P99_BOUND = 2.0
#: The window whose slow primary hedges are for.
HEDGED_WINDOW = "brownout-window"
#: Hedges any other window may issue.
HEALTHY_WINDOW_HEDGE_CEILING = 1
PHASES = ("baseline", "failover-window", HEDGED_WINDOW, "recovered")

SMOKE_KWARGS = dict(scale=0.4)


def run_availability_bench(scale: float = 1.0) -> FigureResult:
    """Run the chaos driver twice; distill the acceptance surface."""
    driver = ALL_DRIVERS["availability-under-chaos"]
    first = driver(scale=scale)
    second = driver(scale=scale)
    deterministic = json.dumps(first.metrics, sort_keys=True) == json.dumps(
        second.metrics, sort_keys=True
    )

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
    result.note(f"double run byte-identical: {deterministic}")
    result.metrics = first.metrics
    result._deterministic = deterministic  # type: ignore[attr-defined]
    return result


def write_results(result: FigureResult, file_name: str = RESULT_FILE) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / file_name
    path.write_text(result.to_json(unit="milliseconds (latency), counts"))
    result.write_metrics(path.with_name(path.stem + ".metrics.json"))
    return path


def check_gates(result: FigureResult, full: bool) -> list[str]:
    """The availability acceptance gates; returns failures (empty = ok)."""
    del full  # every gate applies at smoke size too
    failures: list[str] = []
    if not getattr(result, "_deterministic", False):
        failures.append(
            "availability metrics differ between two runs at the same "
            "seed: the chaos run is not deterministic"
        )
    wrong = result.cell("all", "wrong")
    if wrong > 0:
        failures.append(
            f"{wrong:.0f} responses diverged from the fault-free oracle: "
            "failover/hedging changed an answer"
        )
    rate = result.cell("all", "success_rate")
    if rate < SUCCESS_RATE_FLOOR:
        failures.append(
            f"success rate {rate:.4f} under chaos is below the "
            f"{SUCCESS_RATE_FLOOR} floor"
        )
    ratio = result.cell("failover-window", "p99_vs_baseline")
    if ratio > FAILOVER_P99_BOUND:
        failures.append(
            f"failover-window p99 is {ratio:.2f}x the fault-free baseline "
            f"(bound {FAILOVER_P99_BOUND:g}x)"
        )
    if result.cell("all", "failovers") <= 0:
        failures.append(
            "no read failovers recorded: the primary kill never engaged, "
            "so the availability result is vacuous"
        )
    if result.cell("all", "hedge_wins") <= 0:
        failures.append(
            "no hedge wins recorded: the brownout never triggered hedged "
            "reads, so the hedging result is vacuous"
        )
    for phase in PHASES:
        hedges = result.cell(phase, "hedges")
        if phase != HEDGED_WINDOW and hedges > HEALTHY_WINDOW_HEDGE_CEILING:
            failures.append(
                f"{phase} issued {hedges:.0f} hedges with no fault on any "
                f"replica it read (ceiling {HEALTHY_WINDOW_HEDGE_CEILING}): "
                "backups are doubling healthy scans"
            )
    return failures


def test_availability_bench():
    """Pytest entry: smoke-sized chaos run must pass every gate."""
    result = run_availability_bench(**SMOKE_KWARGS)
    print()
    print(result.format())
    failures = check_gates(result, full=False)
    assert not failures, "; ".join(failures)


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    started = time.perf_counter()
    result = run_availability_bench(**(SMOKE_KWARGS if smoke else {}))
    elapsed = time.perf_counter() - started
    print(result.format())
    print(f"[finished in {elapsed:.1f}s wall time]")
    path = write_results(result, SMOKE_RESULT_FILE if smoke else RESULT_FILE)
    print(f"wrote {path}")
    failures = check_gates(result, full=not smoke)
    if failures:
        print("\nFAILED availability gates:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        "OK: zero wrong answers, success rate holds, failover window "
        "bounded, chaos engaged, no hedges without a fault, deterministic"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
