"""The BENCH_*.json gate table and its runner (benchmarks/gates.py)."""

import copy
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import bench_overload  # noqa: E402
import gates  # noqa: E402
from repro.bench.harness import FigureResult  # noqa: E402

RESULTS = BENCHMARKS / "results"


def committed(bench):
    return gates.load_rows(json.loads((RESULTS / f"BENCH_{bench}.json").read_text()))


def failures(bench, fresh, baseline, smoke=False):
    return [verdict for passed, verdict in gates.check(bench, fresh, baseline, smoke) if not passed]


@pytest.fixture(scope="module")
def baseline():
    return committed("scan_merge")


def test_committed_baseline_is_loadable(baseline):
    assert "reference" in baseline
    assert "shipping-warm" in baseline
    assert baseline["shipping-warm"]["merge_rps"] > baseline["reference"]["merge_rps"]


def test_baseline_vs_itself_passes(baseline, monkeypatch):
    assert failures("scan_merge", baseline, baseline) == []
    assert failures("scan_merge", baseline, baseline, smoke=True) == []
    # Even with no slack at all, a self-comparison holds exactly.
    exact = tuple(gate._replace(full=1.0) if gate.baseline else gate for gate in gates.GATES)
    monkeypatch.setattr(gates, "GATES", exact)
    assert failures("scan_merge", baseline, baseline) == []


def slowed_shipping(baseline, factor):
    slowed = copy.deepcopy(baseline)
    for label, values in slowed.items():
        if label == "reference":
            continue  # the normalizer; only the shipping path regresses
        for column in values:
            values[column] *= factor
    return slowed


def test_synthetic_40pct_slowdown_fails(baseline):
    """A 40% drop in the shipping path exceeds the 35% the table allows."""
    found = failures("scan_merge", slowed_shipping(baseline, 0.60), baseline)
    assert found, "a 40% hot-path slowdown must trip the gate"
    assert any("shipping-warm/merge_rps" in f for f in found)


def test_slowdown_within_tolerance_passes(baseline):
    assert failures("scan_merge", slowed_shipping(baseline, 0.70), baseline) == []


def test_uniform_machine_slowdown_passes(baseline):
    """A slower host scales every row including the reference: ratios are unchanged,
    so the gate must not fire (machine-independence)."""
    slowed = {
        label: {column: value * 0.5 for column, value in values.items()}
        for label, values in baseline.items()
    }
    assert failures("scan_merge", slowed, baseline) == []


def test_missing_row_is_a_failure(baseline):
    partial = {label: values for label, values in baseline.items() if label != "shipping-warm"}
    found = failures("scan_merge", partial, baseline)
    assert any("shipping-warm" in f and "missing" in f for f in found)
    # ...and so is a cell the committed baseline lacks.
    reversed_found = failures("scan_merge", baseline, partial)
    assert any("missing from the committed baseline" in f for f in reversed_found)


def test_normalized_requires_reference_row(baseline):
    partial = {label: values for label, values in baseline.items() if label != "reference"}
    found = failures("scan_merge", partial, baseline)
    assert len(found) == 5 and all("missing from the fresh results" in f for f in found)


# ------------------------------------------------------------- serving gate
@pytest.fixture(scope="module")
def serving_baseline():
    return committed("serving")


def test_committed_serving_baseline_is_loadable(serving_baseline):
    assert "victim-solo" in serving_baseline
    assert "victim-shared" in serving_baseline
    assert serving_baseline["scale-all"]["sessions"] >= 2_000
    assert serving_baseline["flooder"]["shed"] > 0
    assert serving_baseline["victim-shared"]["p99_vs_solo"] <= 2.0


def test_serving_baseline_vs_itself_passes(serving_baseline):
    assert failures("serving", serving_baseline, serving_baseline) == []
    assert failures("serving", serving_baseline, serving_baseline, smoke=True) == []


def test_victim_latency_inflation_fails(serving_baseline):
    """The victim's shared latency blowing past tolerance trips the gate —
    latency ratios gate in the OPPOSITE direction from hot-path speedups."""
    worse = copy.deepcopy(serving_baseline)
    for column in ("p50_ms", "p99_ms"):
        worse["victim-shared"][column] *= 1.5  # 50% > the 35% tolerance
    found = failures("serving", worse, serving_baseline)
    assert found, "a 50% victim latency inflation must trip the gate"
    assert any("victim-shared/p99_ms" in f for f in found)


def test_flooder_latency_noise_is_not_gated(serving_baseline):
    """The flooder's own latency multiple (admitted requests only, tiny
    sample) swings between smoke and full sizes; it must never gate."""
    noisy = copy.deepcopy(serving_baseline)
    noisy["flooder"]["p50_ms"] *= 10.0
    noisy["flooder"]["p99_ms"] *= 10.0
    assert failures("serving", noisy, serving_baseline) == []


def test_uniform_latency_scaling_passes(serving_baseline):
    """A uniformly slower run scales victim-solo too: ratios unchanged."""
    slowed = copy.deepcopy(serving_baseline)
    for values in slowed.values():
        for column in ("p50_ms", "p99_ms", "p999_ms"):
            if column in values:
                values[column] *= 3.0
    assert failures("serving", slowed, serving_baseline) == []


def test_missing_serving_cells_fail(serving_baseline):
    partial = {
        label: values for label, values in serving_baseline.items() if label != "victim-shared"
    }
    found = failures("serving", partial, serving_baseline)
    assert any("victim-shared" in f and "missing" in f for f in found)


def test_absolute_isolation_ceiling_trips(serving_baseline):
    """Even a baseline that itself regressed cannot launder a victim p99
    above the absolute 2x ceiling through the relative tolerance."""
    bad = copy.deepcopy(serving_baseline)
    bad["victim-shared"]["p99_vs_solo"] = 2.5
    assert any("victim-shared/p99_vs_solo" in f for f in failures("serving", bad, bad))


def test_quota_that_never_engages_fails(serving_baseline):
    vacuous = copy.deepcopy(serving_baseline)
    vacuous["flooder"]["shed"] = 0.0
    assert any("flooder/shed" in f for f in failures("serving", vacuous, serving_baseline))


def test_serving_ratios_require_solo_row(serving_baseline):
    partial = {
        label: values for label, values in serving_baseline.items() if label != "victim-solo"
    }
    found = failures("serving", partial, serving_baseline)
    assert any("victim-shared/p99_ms / victim-solo: missing" in f for f in found)


def test_shed_rate_ceiling_holds_at_smoke_size(serving_baseline):
    """The serving-scale shed ceiling is one of the serving gates, so the
    smoke run CI makes checks it too."""
    shedding = copy.deepcopy(serving_baseline)
    shedding["scale-all"]["shed_rate"] = 0.30
    found = failures("serving", shedding, serving_baseline, smoke=True)
    assert any("scale-all/shed_rate" in f for f in found)


# ------------------------------------------------------------- the table
#: Every check the gate scripts' ``check_gates``/``main``/``test_*`` and
#: ``check_regression``'s ``compare*``/``main`` made before the table, with
#: the bounds they enforced: (bench, row, column, op, full, smoke, live row
#: divided by, relative to the committed baseline).
OLD_CHECKS = [
    # bench_scan_merge_hotpath: warm merge >= 2x the reference (1.5x smoke).
    ("scan_merge", "shipping-warm", "merge_rps", ">=", 2.0, 1.5, "reference", False),
    # check_regression.compare: shipping ratios at most 35% below the baseline's.
    ("scan_merge", "shipping-cold", "merge_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    ("scan_merge", "shipping-cold", "pipeline_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    ("scan_merge", "shipping-warm", "merge_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    ("scan_merge", "shipping-warm", "pipeline_rps", ">=", 1 - 0.35, 1 - 0.35, "reference", True),
    # bench_fault_overhead: overhead <= 20% (35% smoke) on warm merge and WAL.
    ("fault_overhead", "enabled", "warm_rps", ">=", 1 - 0.20, 1 - 0.35, "disabled", False),
    ("fault_overhead", "enabled", "wal_appends_per_s", ">=", 1 - 0.20, 1 - 0.35, "disabled", False),
    # bench_sim_overhead: overhead <= 5% (15% smoke).
    ("sim_overhead", "shipped", "apply_rate", ">=", 1 - 0.05, 1 - 0.15, "noop", False),
    # bench_overload: overhead <= 10% (30% smoke).
    ("overload", "governed", "apply_ups", ">=", 1 - 0.10, 1 - 0.30, "ungoverned", False),
    # bench_serving.check_gates: >= 2,000 sessions at full size only.
    ("serving", "scale-all", "sessions", ">=", 2_000, None, None, False),
    # check_regression.compare_serving: shed-rate ceiling, latency multiples
    # at most 35% above the baseline's.
    ("serving", "scale-all", "shed_rate", "<=", 0.25, 0.25, None, False),
    ("serving", "victim-shared", "p50_ms", "<=", 1 + 0.35, 1 + 0.35, "victim-solo", True),
    ("serving", "victim-shared", "p99_ms", "<=", 1 + 0.35, 1 + 0.35, "victim-solo", True),
    # both: the 2x isolation ceiling and the flooder actually shed.
    ("serving", "victim-shared", "p99_vs_solo", "<=", 2.0, 2.0, None, False),
    ("serving", "flooder", "shed", ">", 0, 0, None, False),
    # bench_availability.check_gates, every size.
    ("availability", "all", "wrong", "<=", 0, 0, None, False),
    ("availability", "all", "success_rate", ">=", 0.999, 0.999, None, False),
    ("availability", "failover-window", "p99_vs_baseline", "<=", 2.0, 2.0, None, False),
    ("availability", "all", "failovers", ">", 0, 0, None, False),
    ("availability", "all", "hedge_wins", ">", 0, 0, None, False),
    ("availability", "baseline", "hedges", "<=", 1, 1, None, False),
    ("availability", "failover-window", "hedges", "<=", 1, 1, None, False),
    ("availability", "recovered", "hedges", "<=", 1, 1, None, False),
    # check_regression: a required cell, never bounded.
    ("availability", "brownout-window", "hedges", ">=", 0, 0, None, False),
    # bench_durability.check_gates, every size.
    ("durability", "all", "wrong", "<=", 0, 0, None, False),
    ("durability", "all", "success_rate", ">=", 0.999, 0.999, None, False),
    ("durability", "all", "wal_bound_ratio", "<=", 0.35, 0.35, None, False),
    ("durability", "all", "checkpoints", ">", 0, 0, None, False),
    ("durability", "all", "bootstraps", ">", 0, 0, None, False),
    ("durability", "all", "repairs", ">", 0, 0, None, False),
    ("durability", "all", "unrepaired", "<=", 0, 0, None, False),
]


def test_every_old_check_is_exactly_one_table_row():
    table = [tuple(gate) for gate in gates.GATES]
    assert len(set(table)) == len(table)
    assert sorted(table, key=repr) == sorted(OLD_CHECKS, key=repr)
    assert {gate.bench for gate in gates.GATES} == set(gates.BENCHES)
    # The serving, availability and durability scripts each compared two
    # runs' metrics reports; the runner double-runs exactly those benches.
    assert set(gates.DETERMINISTIC) == {"serving", "availability", "durability"}


@pytest.mark.parametrize("bench", sorted(gates.BENCHES))
def test_committed_baseline_passes_its_own_gates(bench):
    rows = committed(bench)
    assert failures(bench, rows, rows) == []
    assert failures(bench, rows, rows, smoke=True) == []


def test_paired_alternates_order_and_collects_before_each_pass(monkeypatch):
    calls = []
    monkeypatch.setattr(gates.gc, "collect", lambda: calls.append("gc"))
    readings = {"a": iter([1.0, 5.0, 3.0]), "b": iter([(2.0, 9.0), (4.0, 7.0), (6.0, 8.0)])}

    def measure(mode):
        calls.append(mode)
        return next(readings[mode])

    medians = gates.paired(measure, ("a", "b"), 3)
    assert calls == ["gc", "a", "gc", "b", "gc", "b", "gc", "a", "gc", "a", "gc", "b"]
    assert medians == {"a": 3.0, "b": (4.0, 8.0)}


def overload_result(governed_rate):
    result = FigureResult("BENCH overload", "stub", "mode", ["apply_ups"])
    result.add_row("ungoverned", apply_ups=100.0)
    result.add_row("governed", apply_ups=governed_rate)
    return result


def test_only_a_full_cli_run_writes_the_committed_baseline(tmp_path, monkeypatch):
    baseline = tmp_path / "BENCH_overload.json"
    baseline.write_bytes((RESULTS / "BENCH_overload.json").read_bytes())
    before = baseline.read_bytes()
    sizes = []
    monkeypatch.setattr(gates, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(
        bench_overload, "run", lambda **kwargs: sizes.append(kwargs) or overload_result(95.0)
    )

    gates.test_gate("overload")  # the pytest entry
    assert gates.main(["overload", "--smoke"]) == 0
    assert sizes == [bench_overload.SMOKE, bench_overload.SMOKE]
    assert baseline.read_bytes() == before
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "BENCH_overload.json", "BENCH_overload.smoke.json", "BENCH_overload.smoke.metrics.json"
    ]

    assert gates.main(["overload"]) == 0  # a deliberate full run re-baselines
    assert sizes[-1] == {}
    written = json.loads(baseline.read_text())
    assert written.keys() == json.loads(before).keys()
    assert written["unit"] == "updates/sec"


def test_failing_and_nondeterministic_runs_fail(tmp_path, monkeypatch):
    for bench in ("overload", "serving"):
        name = f"BENCH_{bench}.json"
        (tmp_path / name).write_bytes((RESULTS / name).read_bytes())
    monkeypatch.setattr(gates, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(bench_overload, "run", lambda **kwargs: overload_result(85.0))
    assert gates.main(["overload"]) == 1  # 15% overhead > 10%
    assert gates.main(["overload", "--smoke"]) == 0  # < 30%

    import bench_serving

    serving = committed("serving")
    runs = iter(range(2))

    def drifting_run(**kwargs):
        columns = sorted({column for values in serving.values() for column in values})
        result = FigureResult("BENCH serving", "stub", "row", columns)
        for label, values in serving.items():
            result.add_row(label, **values)
        result.note(f"run {next(runs)}")
        return result

    monkeypatch.setattr(bench_serving, "run", drifting_run)
    assert gates.run_gate("serving", smoke=True) == ["serving double run byte-identical: False"]


def test_unknown_bench_is_a_usage_error():
    assert gates.main(["no-such-bench"]) == 2
    assert gates.main(["--smok"]) == 2
