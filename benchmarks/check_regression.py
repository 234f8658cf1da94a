"""CI regression gate for the scan/merge read hot path and the serving door.

Runs a fresh measurement of :mod:`benchmarks.bench_scan_merge_hotpath`
(``--smoke``: the same workload over fewer rounds) and compares it against
the committed full-run baseline in ``benchmarks/results/BENCH_scan_merge.json``;
then does the same for the serving surface
(:mod:`benchmarks.bench_serving` vs ``BENCH_serving.json``) and the
availability-under-chaos surface (:mod:`benchmarks.bench_availability` vs
``BENCH_availability.json``, whose gates are absolute: zero wrong answers,
success-rate floor, bounded failover-window p99, chaos actually engaged, no
hedges in a window without a fault)
and the durability-under-churn surface (:mod:`benchmarks.bench_durability`
vs ``BENCH_durability.json``: bounded WAL, zero wrong responses, snapshot
bootstrap and anti-entropy repair actually engaged).

Absolute numbers are machine-dependent (the committed baseline and a CI
runner differ in CPU and in workload size), so both gates compare
*normalized ratios* against a reference row re-measured live in the same
run — the ``reference`` operators' rates for the hot path, the
``victim-solo`` latency surface for serving.  Ratios cancel out host speed and workload scale,
leaving only the relative shape a code regression would change.  Note the
directions differ: hot-path ratios are speedups (bigger is better, gate on
falling below the floor), serving ratios are latency multiples (smaller is
better, gate on rising above the ceiling).

Exit status: 0 = within tolerance, 1 = regression, 2 = usage/baseline error.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py --smoke
    PYTHONPATH=src python benchmarks/check_regression.py          # full size
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE))

from bench_scan_merge_hotpath import (  # noqa: E402
    RESULTS_DIR,
    SMOKE_KWARGS,
    run_hotpath_bench,
    write_results,
)

import bench_availability  # noqa: E402
import bench_durability  # noqa: E402
import bench_serving  # noqa: E402

BASELINE_FILE = RESULTS_DIR / "BENCH_scan_merge.json"
FRESH_RESULT_FILE = "BENCH_scan_merge.fresh.json"
SERVING_BASELINE_FILE = RESULTS_DIR / "BENCH_serving.json"
SERVING_FRESH_RESULT_FILE = "BENCH_serving.fresh.json"
AVAILABILITY_BASELINE_FILE = RESULTS_DIR / "BENCH_availability.json"
AVAILABILITY_FRESH_RESULT_FILE = "BENCH_availability.fresh.json"
DURABILITY_BASELINE_FILE = RESULTS_DIR / "BENCH_durability.json"
DURABILITY_FRESH_RESULT_FILE = "BENCH_durability.fresh.json"

#: The row whose cells normalize every other row (re-measured each run).
REFERENCE_ROW = "reference"
#: The serving gate's normalizer: the victim tenant's solo latency surface.
SERVING_REFERENCE_ROW = "victim-solo"

#: Latency columns gated as normalized ratios against the solo baseline.
SERVING_LATENCY_COLUMNS = ("p50_ms", "p99_ms")
#: Rows whose latency multiples the gate defends.  Only the victim's
#: surface is an SLO: the flooder's own latency (admitted requests only,
#: tiny sample) and the scale rows (normalized across drivers) are printed
#: for context but swing too much between smoke and full sizes to gate on.
SERVING_GATED_ROWS = ("victim-shared",)
#: Absolute ceiling on the victim's p99-vs-solo multiple (the noisy-neighbor
#: acceptance bound), independent of what the baseline recorded.
SERVING_P99_CEILING = 2.0
#: Absolute ceiling on the serving-scale run's overall shed rate: quotas
#: may meter the batch class, but the door must not be rejecting the world.
SERVING_SHED_RATE_CEILING = 0.25

#: Cells that must exist in the fresh results regardless of the baseline's
#: age.  The compare functions ignore cells missing from the baseline (new
#: rows are allowed to appear), so without these lists a refactor that
#: silently dropped e.g. the pipeline measurement — or the whole serving
#: surface — would pass the gate.
REQUIRED_CELLS = (
    ("shipping-warm", "merge_rps"),
    ("shipping-warm", "pipeline_rps"),
)
SERVING_REQUIRED_CELLS = (
    ("victim-shared", "p50_ms"),
    ("victim-shared", "p99_ms"),
    ("victim-shared", "p99_vs_solo"),
    ("flooder", "shed"),
    ("scale-all", "shed_rate"),
)
#: The availability gates themselves are absolute (success-rate floor,
#: wrong-answer zero, failover p99 bound, healthy-window hedge ceiling —
#: see bench_availability); the
#: regression gate's job is to keep the surface from silently vanishing.
AVAILABILITY_REQUIRED_CELLS = (
    ("all", "success_rate"),
    ("all", "wrong"),
    ("all", "failovers"),
    ("all", "hedge_wins"),
    ("failover-window", "p99_vs_baseline"),
    ("baseline", "hedges"),
    ("failover-window", "hedges"),
    ("brownout-window", "hedges"),
    ("recovered", "hedges"),
)
#: Same deal for durability: the gates are absolute (bounded WAL, zero
#: wrong responses, bootstrap + repair non-vacuity — see bench_durability);
#: the regression gate keeps the surface from silently vanishing.
DURABILITY_REQUIRED_CELLS = (
    ("all", "success_rate"),
    ("all", "wrong"),
    ("all", "wal_bound_ratio"),
    ("all", "checkpoints"),
    ("all", "bootstraps"),
    ("all", "repairs"),
    ("all", "unrepaired"),
)


def load_rows(payload: dict) -> dict[str, dict[str, float]]:
    """``{row_label: {column: value}}`` from a BENCH_scan_merge payload."""
    return {row["label"]: dict(row["values"]) for row in payload["rows"]}


def normalized(rows: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Each cell divided by the reference row's value in the same column."""
    try:
        reference = rows[REFERENCE_ROW]
    except KeyError:
        raise ValueError(f"no {REFERENCE_ROW!r} row to normalize against")
    ratios: dict[str, dict[str, float]] = {}
    for label, values in rows.items():
        if label == REFERENCE_ROW:
            continue
        ratios[label] = {
            column: value / reference[column]
            for column, value in values.items()
            if reference.get(column)
        }
    return ratios


def compare(
    baseline: dict[str, dict[str, float]],
    fresh: dict[str, dict[str, float]],
    tolerance: float = 0.20,
) -> list[str]:
    """Regression messages (empty = pass).

    A fresh normalized ratio must be >= (1 - tolerance) * the baseline
    ratio for every cell present in both result sets.  Cells only in one
    set (e.g. a new row) are ignored — the gate only defends existing wins.
    """
    base_ratios = normalized(baseline)
    fresh_ratios = normalized(fresh)
    failures: list[str] = []
    for label, column in REQUIRED_CELLS:
        if fresh.get(label, {}).get(column) is None:
            failures.append(f"required cell {label}/{column} missing from fresh results")
    for label, base_values in sorted(base_ratios.items()):
        fresh_values = fresh_ratios.get(label)
        if fresh_values is None:
            failures.append(f"row {label!r} missing from fresh results")
            continue
        for column, base_ratio in sorted(base_values.items()):
            fresh_ratio = fresh_values.get(column)
            if fresh_ratio is None:
                failures.append(f"cell {label}/{column} missing from fresh results")
                continue
            floor = (1.0 - tolerance) * base_ratio
            if fresh_ratio < floor:
                failures.append(
                    f"{label}/{column}: fresh speedup {fresh_ratio:.2f}x vs "
                    f"{REFERENCE_ROW} is below {floor:.2f}x "
                    f"(baseline {base_ratio:.2f}x - {tolerance:.0%})"
                )
    return failures


def serving_ratios(
    rows: dict[str, dict[str, float]],
) -> dict[str, dict[str, float]]:
    """Latency cells divided by the victim-solo value in the same column."""
    try:
        reference = rows[SERVING_REFERENCE_ROW]
    except KeyError:
        raise ValueError(
            f"no {SERVING_REFERENCE_ROW!r} row to normalize against"
        )
    ratios: dict[str, dict[str, float]] = {}
    for label, values in rows.items():
        if label == SERVING_REFERENCE_ROW:
            continue
        cells = {
            column: values[column] / reference[column]
            for column in SERVING_LATENCY_COLUMNS
            if values.get(column) is not None and reference.get(column)
        }
        if cells:
            ratios[label] = cells
    return ratios


def compare_serving(
    baseline: dict[str, dict[str, float]],
    fresh: dict[str, dict[str, float]],
    tolerance: float = 0.35,
) -> list[str]:
    """Serving regression messages (empty = pass).

    Latency ratios run the OPPOSITE direction from the hot-path speedups: a
    fresh victim-shared/solo multiple may not rise more than ``tolerance``
    above the baseline multiple, and never above the absolute
    ``SERVING_P99_CEILING``.  Shed-rate and quota-engagement checks are
    absolute: the serving-scale door must shed under the ceiling overall,
    and the noisy-neighbor flooder must actually get shed (a quota that
    never fires makes the isolation number vacuous).
    """
    failures: list[str] = []
    for label, column in SERVING_REQUIRED_CELLS:
        if fresh.get(label, {}).get(column) is None:
            failures.append(
                f"required cell {label}/{column} missing from fresh serving results"
            )
    if failures:
        return failures
    base_ratios = serving_ratios(baseline)
    fresh_ratios = serving_ratios(fresh)
    for label, base_values in sorted(base_ratios.items()):
        if label not in SERVING_GATED_ROWS:
            continue
        fresh_values = fresh_ratios.get(label)
        if fresh_values is None:
            failures.append(f"row {label!r} missing from fresh serving results")
            continue
        for column, base_ratio in sorted(base_values.items()):
            fresh_ratio = fresh_values.get(column)
            if fresh_ratio is None:
                failures.append(
                    f"cell {label}/{column} missing from fresh serving results"
                )
                continue
            ceiling = (1.0 + tolerance) * base_ratio
            if fresh_ratio > ceiling:
                failures.append(
                    f"{label}/{column}: fresh latency {fresh_ratio:.2f}x vs "
                    f"{SERVING_REFERENCE_ROW} is above {ceiling:.2f}x "
                    f"(baseline {base_ratio:.2f}x + {tolerance:.0%})"
                )
    p99_multiple = fresh["victim-shared"]["p99_vs_solo"]
    if p99_multiple > SERVING_P99_CEILING:
        failures.append(
            f"victim-shared p99 is {p99_multiple:.2f}x solo "
            f"(absolute ceiling {SERVING_P99_CEILING:g}x)"
        )
    shed_rate = fresh["scale-all"]["shed_rate"]
    if shed_rate > SERVING_SHED_RATE_CEILING:
        failures.append(
            f"serving-scale shed rate {shed_rate:.2f} is above the "
            f"{SERVING_SHED_RATE_CEILING:.2f} ceiling"
        )
    if fresh["flooder"]["shed"] <= 0:
        failures.append(
            "noisy-neighbor flooder was never shed: quota never engaged"
        )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate: scan/merge hot-path speedups may not regress >20%."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI-sized workload (ratios are size-independent)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.35,
        help="allowed fractional drop in a normalized speedup (default 0.35: "
        "on a shared machine the ratios move by about a fifth from one "
        "process to the next, and rise under load)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=BASELINE_FILE,
        help="committed baseline JSON to compare against",
    )
    parser.add_argument(
        "--serving-baseline",
        type=pathlib.Path,
        default=SERVING_BASELINE_FILE,
        help="committed serving baseline JSON to compare against",
    )
    parser.add_argument(
        "--serving-tolerance",
        type=float,
        default=0.35,
        help="allowed fractional rise in a normalized serving latency "
        "multiple (default 0.35)",
    )
    parser.add_argument(
        "--availability-baseline",
        type=pathlib.Path,
        default=AVAILABILITY_BASELINE_FILE,
        help="committed availability baseline JSON to compare against",
    )
    parser.add_argument(
        "--durability-baseline",
        type=pathlib.Path,
        default=DURABILITY_BASELINE_FILE,
        help="committed durability baseline JSON to compare against",
    )
    args = parser.parse_args(argv)

    # Load the committed baselines BEFORE running anything: the fresh runs
    # write their own files and must never touch the baselines.
    try:
        baseline = load_rows(json.loads(args.baseline.read_text()))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot load baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2
    try:
        serving_baseline = load_rows(
            json.loads(args.serving_baseline.read_text())
        )
    except (OSError, KeyError, ValueError) as exc:
        print(
            f"error: cannot load serving baseline {args.serving_baseline}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        availability_baseline = load_rows(
            json.loads(args.availability_baseline.read_text())
        )
    except (OSError, KeyError, ValueError) as exc:
        print(
            f"error: cannot load availability baseline "
            f"{args.availability_baseline}: {exc}",
            file=sys.stderr,
        )
        return 2
    try:
        durability_baseline = load_rows(
            json.loads(args.durability_baseline.read_text())
        )
    except (OSError, KeyError, ValueError) as exc:
        print(
            f"error: cannot load durability baseline "
            f"{args.durability_baseline}: {exc}",
            file=sys.stderr,
        )
        return 2

    kwargs = SMOKE_KWARGS if args.smoke else {}
    result = run_hotpath_bench(**kwargs)
    print(result.format(precision=0))
    path = write_results(result, FRESH_RESULT_FILE)
    print(f"\nwrote fresh results to {path}")

    failures = compare(baseline, load_rows(result.to_dict()), args.tolerance)
    base_ratios = normalized(baseline)
    fresh_ratios = normalized(load_rows(result.to_dict()))
    print(f"\nnormalized speedups vs {REFERENCE_ROW!r} "
          f"(fresh / baseline, tolerance {args.tolerance:.0%}):")
    for label in sorted(base_ratios):
        for column in sorted(base_ratios[label]):
            fresh_ratio = fresh_ratios.get(label, {}).get(column)
            shown = "missing" if fresh_ratio is None else f"{fresh_ratio:.2f}x"
            print(f"  {label}/{column}: {shown} / {base_ratios[label][column]:.2f}x")

    # ------------------------------------------------------- serving gate
    serving_kwargs = bench_serving.SMOKE_KWARGS if args.smoke else {}
    serving_result = bench_serving.run_serving_bench(**serving_kwargs)
    print()
    print(serving_result.format())
    serving_path = bench_serving.write_results(
        serving_result, SERVING_FRESH_RESULT_FILE
    )
    print(f"wrote fresh serving results to {serving_path}")
    serving_fresh = load_rows(serving_result.to_dict())
    failures += compare_serving(
        serving_baseline, serving_fresh, args.serving_tolerance
    )
    base_serving = serving_ratios(serving_baseline)
    fresh_serving = serving_ratios(serving_fresh)
    print(
        f"\nnormalized latency multiples vs {SERVING_REFERENCE_ROW!r} "
        f"(fresh / baseline, tolerance {args.serving_tolerance:.0%}, "
        f"p99 ceiling {SERVING_P99_CEILING:g}x):"
    )
    for label in sorted(base_serving):
        for column in sorted(base_serving[label]):
            fresh_ratio = fresh_serving.get(label, {}).get(column)
            shown = "missing" if fresh_ratio is None else f"{fresh_ratio:.2f}x"
            print(f"  {label}/{column}: {shown} / {base_serving[label][column]:.2f}x")

    # -------------------------------------------------- availability gate
    availability_kwargs = (
        bench_availability.SMOKE_KWARGS if args.smoke else {}
    )
    availability_result = bench_availability.run_availability_bench(
        **availability_kwargs
    )
    print()
    print(availability_result.format())
    availability_path = bench_availability.write_results(
        availability_result, AVAILABILITY_FRESH_RESULT_FILE
    )
    print(f"wrote fresh availability results to {availability_path}")
    availability_fresh = load_rows(availability_result.to_dict())
    for label, column in AVAILABILITY_REQUIRED_CELLS:
        for origin, rows in (
            ("baseline", availability_baseline),
            ("fresh", availability_fresh),
        ):
            if rows.get(label, {}).get(column) is None:
                failures.append(
                    f"required cell {label}/{column} missing from "
                    f"{origin} availability results"
                )
    failures += bench_availability.check_gates(
        availability_result, full=not args.smoke
    )

    # ---------------------------------------------------- durability gate
    durability_kwargs = bench_durability.SMOKE_KWARGS if args.smoke else {}
    durability_result = bench_durability.run_durability_bench(
        **durability_kwargs
    )
    print()
    print(durability_result.format())
    durability_path = bench_durability.write_results(
        durability_result, DURABILITY_FRESH_RESULT_FILE
    )
    print(f"wrote fresh durability results to {durability_path}")
    durability_fresh = load_rows(durability_result.to_dict())
    for label, column in DURABILITY_REQUIRED_CELLS:
        for origin, rows in (
            ("baseline", durability_baseline),
            ("fresh", durability_fresh),
        ):
            if rows.get(label, {}).get(column) is None:
                failures.append(
                    f"required cell {label}/{column} missing from "
                    f"{origin} durability results"
                )
    failures += bench_durability.check_gates(
        durability_result, full=not args.smoke
    )

    if failures:
        print("\nREGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        "\nOK: no hot-path, serving, availability or durability "
        "regression beyond tolerance"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
