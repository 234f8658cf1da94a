"""Durability benchmark: checkpoints, bootstrap and repair keep serving.

Drives the ``durability-under-churn`` experiment (a 3-way replicated
warehouse serving through checkpointed WAL truncation, a replica wipe +
snapshot bootstrap, and a silent bit-flip chased by read-repair) and
distills the durability acceptance surface:

* **no wrong answers** — every response was byte-compared against the
  fault-free model oracle at its pinned snapshot timestamp; truncation,
  bootstrap and repair may move bytes, never change an answer.
* **bounded WAL** — the peak live WAL across primaries must stay under
  35 % of the bytes ever appended: checkpointing makes the
  log flat where an untruncated log is linear.
* **non-vacuous churn** — the run must actually record checkpoints, a
  snapshot bootstrap, and at least one completed repair (scheduled via
  the router's read-repair queue); a pass where the machinery never
  engaged proves nothing.
* **nothing left broken** — the final fleet-wide anti-entropy pass must
  find zero unrepaired runs, and the success rate stays >= 0.999.
* **determinism** — the gate runner runs this benchmark TWICE; the two
  results must be byte-identical (virtual time, seeded churn).

Gated by ``benchmarks/gates.py durability`` (``BENCH_durability.json``).
"""

from __future__ import annotations

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import FigureResult

PHASES = (
    "baseline",
    "wiped-window",
    "bootstrapped",
    "corruption-window",
    "recovered",
)


def run(scale: float = 1.0) -> FigureResult:
    """Run the churn driver; distill the acceptance surface."""
    first = ALL_DRIVERS["durability-under-churn"](scale=scale)

    result = FigureResult(
        figure="BENCH durability",
        title=(
            "replicated serving under churn: checkpointed truncation, "
            "wipe + bootstrap, bit-flip read-repair"
        ),
        row_label="row",
        columns=[
            "requests",
            "ok",
            "failed",
            "wrong",
            "p50_ms",
            "p99_ms",
            "success_rate",
            "max_wal_kb",
            "appended_kb",
            "wal_bound_ratio",
            "checkpoints",
            "bootstraps",
            "repairs",
            "repairs_scheduled",
            "unrepaired",
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
        )
    result.add_row(
        "all",
        requests=first.cell("all", "requests"),
        ok=first.cell("all", "ok"),
        failed=first.cell("all", "failed"),
        wrong=first.cell("all", "wrong"),
        success_rate=first.cell("all", "success_rate"),
        max_wal_kb=first.cell("all", "max_wal_kb"),
        appended_kb=first.cell("all", "appended_kb"),
        wal_bound_ratio=first.cell("all", "wal_bound_ratio"),
        checkpoints=first.cell("all", "checkpoints"),
        bootstraps=first.cell("all", "bootstraps"),
        repairs=first.cell("all", "repairs"),
        repairs_scheduled=first.cell("all", "repairs_scheduled"),
        unrepaired=first.cell("all", "unrepaired"),
    )
    for note in first.notes:
        result.note(note)
    result.metrics = first.metrics
    return result


SMOKE = dict(scale=0.4)
