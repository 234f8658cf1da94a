"""The ``BENCH_*.json`` gates: one table of checks and one runner for all.

A gate script ``bench_<name>.py`` builds its workload and measures it:
``run(**sizes)`` returns a :class:`~repro.bench.harness.FigureResult`, and
``SMOKE`` holds the CI sizes.  Everything else lives here:

* :data:`GATES`, every check any bench makes, one row each: a cell, its
  direction, its bound at full and at smoke size, and what the bound is
  relative to.  That is nothing (an absolute bound), a row re-measured in
  the same run (the cell is divided by that row's cell in the same column,
  which cancels host speed and load), or the committed baseline (the bound
  multiplies the baseline's value of the same quantity);
* :func:`paired`, the A/B measurement of the overhead benches;
* the double run of the virtual-time benches, which must agree byte for
  byte;
* one result writer: only a full CLI run writes the committed
  ``BENCH_<name>.json``.  Smoke runs and the pytest entry write
  ``BENCH_<name>.smoke.json``.

Usage::

    PYTHONPATH=src python benchmarks/gates.py [BENCH ...] [--smoke]
    PYTHONPATH=src python -m pytest benchmarks/gates.py   # every bench, smoke size

With no bench named, every bench runs.  Exit status: 0 = every gate holds,
1 = a gate failed, 2 = unknown bench.
"""

from __future__ import annotations

import gc
import importlib
import json
import operator
import pathlib
import statistics
import sys
from typing import Callable, NamedTuple, Optional

from repro import obs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: bench name -> (the module that measures it, the unit its JSON records)
BENCHES = {
    "scan_merge": ("bench_scan_merge_hotpath", "per second"),
    "fault_overhead": (
        "bench_fault_overhead", "records/sec; wal_appends_per_s in appends/sec"
    ),
    "sim_overhead": ("bench_sim_overhead", "ops/sec"),
    "overload": ("bench_overload", "updates/sec"),
    "serving": ("bench_serving", "milliseconds (latency), counts"),
    "availability": ("bench_availability", "milliseconds (latency), counts"),
    "durability": ("bench_durability", "milliseconds (latency), counts, KB"),
}

#: Benches on virtual time: a pure function of (scale, seed).  They run
#: twice, and the two tables and metrics reports must be byte-identical.
DETERMINISTIC = ("serving", "availability", "durability")


class Gate(NamedTuple):
    """``row/column``, divided by row ``over``'s cell in the same column
    when ``over`` is set, must be ``op`` the bound; with ``baseline`` the
    bound is a multiple of the committed baseline's value of the same
    quantity.  A bound of None is not checked at that size."""

    bench: str
    row: str
    column: str
    op: str
    full: Optional[float]
    smoke: Optional[float]
    over: Optional[str] = None
    baseline: bool = False


GATES = (
    # The warm merge must beat the record-at-a-time reference operators
    # outright.  Every shipping speed-up may also fall at most 35 % below the
    # baseline's: on a shared machine the ratios move by about a fifth from
    # one process to the next, and rise under load.
    Gate("scan_merge", "shipping-warm", "merge_rps", ">=", 2.0, 1.5, "reference"),
    Gate("scan_merge", "shipping-cold", "merge_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    Gate("scan_merge", "shipping-cold", "pipeline_rps", ">=", 1 - 0.35, 1 - 0.35,
         "reference", True),
    Gate("scan_merge", "shipping-warm", "merge_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    Gate("scan_merge", "shipping-warm", "pipeline_rps", ">=", 1 - 0.35, 1 - 0.35,
         "reference", True),
    # Machinery that must be cheap enough to leave on: the protected or
    # governed rate over the bare one.  Smoke workloads are small enough
    # that timing noise dominates, so they get extra slack; the full run
    # enforces the real bar.
    Gate("fault_overhead", "enabled", "warm_rps", ">=", 1 - 0.20, 1 - 0.35, "disabled"),
    Gate("fault_overhead", "enabled", "wal_appends_per_s", ">=", 1 - 0.20, 1 - 0.35, "disabled"),
    Gate("sim_overhead", "shipped", "apply_rate", ">=", 1 - 0.05, 1 - 0.15, "noop"),
    Gate("overload", "governed", "apply_ups", ">=", 1 - 0.10, 1 - 0.30, "ungoverned"),
    # Serving.  Only the victim's latency is an SLO: the flooder's (admitted
    # requests only, a tiny sample) and the scale rows swing too much
    # between smoke and full sizes to gate on.  The 2x isolation ceiling is
    # absolute, so a baseline that itself regressed cannot launder it.  A
    # flooder that is never shed makes the isolation number vacuous, and the
    # door may meter the batch class but not reject the world.
    Gate("serving", "scale-all", "sessions", ">=", 2_000, None),
    Gate("serving", "scale-all", "shed_rate", "<=", 0.25, 0.25),
    Gate("serving", "victim-shared", "p50_ms", "<=", 1 + 0.35, 1 + 0.35, "victim-solo", True),
    Gate("serving", "victim-shared", "p99_ms", "<=", 1 + 0.35, 1 + 0.35, "victim-solo", True),
    Gate("serving", "victim-shared", "p99_vs_solo", "<=", 2.0, 2.0),
    Gate("serving", "flooder", "shed", ">", 0, 0),
    # Availability under chaos: no wrong answer, no lost request, a bounded
    # failover window, faults that actually engaged, and no hedge in a
    # window where no replica is slow (a synchronous backup on a healthy
    # replica only adds a whole scan).  The brownout window's hedges are
    # the ones the run is for: present, not bounded.
    Gate("availability", "all", "wrong", "<=", 0, 0),
    Gate("availability", "all", "success_rate", ">=", 0.999, 0.999),
    Gate("availability", "failover-window", "p99_vs_baseline", "<=", 2.0, 2.0),
    Gate("availability", "all", "failovers", ">", 0, 0),
    Gate("availability", "all", "hedge_wins", ">", 0, 0),
    Gate("availability", "baseline", "hedges", "<=", 1, 1),
    Gate("availability", "failover-window", "hedges", "<=", 1, 1),
    Gate("availability", "brownout-window", "hedges", ">=", 0, 0),
    Gate("availability", "recovered", "hedges", "<=", 1, 1),
    # Durability under churn: no wrong answer, a flat WAL (peak live bytes
    # over bytes ever appended), checkpoints, a bootstrap and a repair that
    # actually happened, and nothing left quarantined.
    Gate("durability", "all", "wrong", "<=", 0, 0),
    Gate("durability", "all", "success_rate", ">=", 0.999, 0.999),
    Gate("durability", "all", "wal_bound_ratio", "<=", 0.35, 0.35),
    Gate("durability", "all", "checkpoints", ">", 0, 0),
    Gate("durability", "all", "bootstraps", ">", 0, 0),
    Gate("durability", "all", "repairs", ">", 0, 0),
    Gate("durability", "all", "unrepaired", "<=", 0, 0),
)

OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}

Rows = dict[str, dict[str, float]]


def load_rows(payload: dict) -> Rows:
    """``{row: {column: value}}`` of a ``BENCH_*.json`` payload."""
    return {row["label"]: dict(row["values"]) for row in payload["rows"]}


def _value(gate: Gate, rows: Rows) -> Optional[float]:
    """The gated quantity, or None when a cell is missing or the live row
    it is divided by reads zero."""
    try:
        value = rows[gate.row][gate.column]
        return value / rows[gate.over][gate.column] if gate.over else value
    except (KeyError, ZeroDivisionError):
        return None


def check(bench: str, fresh: Rows, baseline: Rows, smoke: bool = False) -> list[tuple[bool, str]]:
    """(passed, verdict) for each of ``bench``'s gates.  A gated cell
    missing from the fresh results or from the committed baseline fails:
    the baseline is the record of the surface its gates defend."""
    verdicts = []
    for gate in GATES:
        bound = gate.smoke if smoke else gate.full
        if gate.bench != bench or bound is None:
            continue
        name = f"{gate.row}/{gate.column}" + (f" / {gate.over}" if gate.over else "")
        value, recorded = _value(gate, fresh), _value(gate, baseline)
        if value is None or recorded is None:
            origin = "fresh results" if value is None else "committed baseline"
            verdicts.append((False, f"{name}: missing from the {origin}"))
            continue
        limit = bound * recorded if gate.baseline else bound
        relative = f" ({bound:g} x baseline {recorded:.4g})" if gate.baseline else ""
        verdicts.append(
            (OPS[gate.op](value, limit),
             f"{name} = {value:.4g}, must be {gate.op} {limit:.4g}{relative}")
        )
    return verdicts


def paired(measure: Callable, modes: tuple, pairs: int) -> dict:
    """Median reading per mode over ``pairs`` passes of each mode.

    ``measure(mode)`` returns one reading: a number, or a tuple of numbers
    whose median is taken element by element.  The modes take turns going
    first, so machine drift and warm-up land on both.  Every pass starts
    after a full garbage collection: without it a pass pays for collecting
    the previous pass's garbage, and whichever mode ran first read up to
    45 % slower on the warm merge.  The median, unlike the best of N, is
    not one lucky pass: over ten full runs each, the idle governor's cost
    read 5.5-14.0 % under a fixed-order best of 3 and 10.4-12.6 % (nine of
    ten) under these paired medians.
    """
    readings: dict = {mode: [] for mode in modes}
    order = list(modes)
    for _ in range(pairs):
        for mode in order:
            gc.collect()
            readings[mode].append(measure(mode))
        order.reverse()
    return {
        mode: tuple(map(statistics.median, zip(*values)))
        if isinstance(values[0], tuple)
        else statistics.median(values)
        for mode, values in readings.items()
    }


def measure(name: str, smoke: bool):
    """One run of bench ``name`` under a fresh metrics registry and tracer.
    Their report rides on ``result.metrics`` unless the bench's figure
    drivers attached their own."""
    module = importlib.import_module(BENCHES[name][0])
    with obs.use_registry() as registry, obs.use_tracer() as tracer:
        result = module.run(**(module.SMOKE if smoke else {}))
    if result.metrics is None:
        experiment = "bench-" + name.replace("_", "-")
        result.metrics = obs.report_dict(registry, tracer, experiment=experiment)
    return result


def write(name: str, result, smoke: bool) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` (a full run: the committed baseline) or
    ``BENCH_<name>.smoke.json``, and the metrics report beside it."""
    path = RESULTS_DIR / f"BENCH_{name}{'.smoke' if smoke else ''}.json"
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(result.to_json(unit=BENCHES[name][1]))
    result.write_metrics(path.with_name(path.stem + ".metrics.json"))
    return path


def run_gate(name: str, smoke: bool) -> list[str]:
    """Measure bench ``name``, write its results and print the verdict of
    every gate it has; returns the failed ones."""
    # Read before a full run rewrites it.
    baseline = load_rows(json.loads((RESULTS_DIR / f"BENCH_{name}.json").read_text()))
    result = measure(name, smoke)
    verdicts = []
    if name in DETERMINISTIC:
        again = measure(name, smoke)
        same = all(
            json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
            for a, b in ((result.to_dict(), again.to_dict()), (result.metrics, again.metrics))
        )
        result.note(f"double run byte-identical: {same}")
        verdicts.append((same, f"double run byte-identical: {same}"))
    print(result.format())
    print(f"wrote {write(name, result, smoke)}")
    verdicts += check(name, load_rows(result.to_dict()), baseline, smoke)
    for passed, verdict in verdicts:
        print(f"  {'ok  ' if passed else 'FAIL'} {name} {verdict}")
    return [f"{name} {verdict}" for passed, verdict in verdicts if not passed]


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    names = [arg for arg in argv if arg != "--smoke"] or list(BENCHES)
    unknown = [name for name in names if name not in BENCHES]
    if unknown:
        print(f"usage: gates.py [{' | '.join(BENCHES)} ...] [--smoke]", file=sys.stderr)
        return 2
    failures = [failure for name in names for failure in run_gate(name, smoke)]
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def pytest_generate_tests(metafunc):
    if "bench" in metafunc.fixturenames:
        metafunc.parametrize("bench", list(BENCHES))


def test_gate(bench):
    """Pytest entry: one bench at smoke size; writes only its smoke file."""
    failures = run_gate(bench, smoke=True)
    assert not failures, "; ".join(failures)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
