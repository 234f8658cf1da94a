"""The CI hot-path regression gate (benchmarks/check_regression.py)."""

import copy
import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from check_regression import (  # noqa: E402
    SERVING_P99_CEILING,
    compare,
    compare_serving,
    load_rows,
    normalized,
    serving_ratios,
)

BASELINE_PATH = BENCHMARKS / "results" / "BENCH_scan_merge.json"
SERVING_BASELINE_PATH = BENCHMARKS / "results" / "BENCH_serving.json"


@pytest.fixture(scope="module")
def baseline():
    return load_rows(json.loads(BASELINE_PATH.read_text()))


def test_committed_baseline_is_loadable(baseline):
    assert "reference" in baseline
    assert "shipping-warm" in baseline
    assert baseline["shipping-warm"]["merge_rps"] > baseline["reference"]["merge_rps"]


def test_baseline_vs_itself_passes(baseline):
    assert compare(baseline, baseline, tolerance=0.20) == []
    # even a zero-tolerance self-comparison holds exactly
    assert compare(baseline, baseline, tolerance=0.0) == []


def test_synthetic_25pct_slowdown_fails(baseline):
    """A 25% drop in the shipping path exceeds the 20% tolerance."""
    slowed = copy.deepcopy(baseline)
    for label, values in slowed.items():
        if label == "reference":
            continue  # the normalizer; only the shipping path regresses
        for column in values:
            values[column] *= 0.75
    failures = compare(baseline, slowed, tolerance=0.20)
    assert failures, "a 25% hot-path slowdown must trip the gate"
    assert any("shipping-warm/merge_rps" in f for f in failures)


def test_slowdown_within_tolerance_passes(baseline):
    slowed = copy.deepcopy(baseline)
    for label, values in slowed.items():
        if label == "reference":
            continue
        for column in values:
            values[column] *= 0.85  # 15% < the 20% tolerance
    assert compare(baseline, slowed, tolerance=0.20) == []


def test_uniform_machine_slowdown_passes(baseline):
    """A slower host scales every row including the reference: ratios are unchanged,
    so the gate must not fire (machine-independence)."""
    slowed = {
        label: {column: value * 0.5 for column, value in values.items()}
        for label, values in baseline.items()
    }
    assert compare(baseline, slowed, tolerance=0.20) == []


def test_missing_row_is_a_failure(baseline):
    partial = {
        label: values for label, values in baseline.items() if label != "shipping-warm"
    }
    failures = compare(baseline, partial, tolerance=0.20)
    assert any("shipping-warm" in f and "missing" in f for f in failures)


def test_normalized_requires_reference_row(baseline):
    with pytest.raises(ValueError):
        normalized({"shipping-warm": {"merge_rps": 1.0}})


# ------------------------------------------------------------- serving gate
@pytest.fixture(scope="module")
def serving_baseline():
    return load_rows(json.loads(SERVING_BASELINE_PATH.read_text()))


def test_committed_serving_baseline_is_loadable(serving_baseline):
    assert "victim-solo" in serving_baseline
    assert "victim-shared" in serving_baseline
    assert serving_baseline["scale-all"]["sessions"] >= 2_000
    assert serving_baseline["flooder"]["shed"] > 0
    assert (
        serving_baseline["victim-shared"]["p99_vs_solo"] <= SERVING_P99_CEILING
    )


def test_serving_baseline_vs_itself_passes(serving_baseline):
    assert compare_serving(serving_baseline, serving_baseline) == []
    assert compare_serving(serving_baseline, serving_baseline, tolerance=0.0) == []


def test_victim_latency_inflation_fails(serving_baseline):
    """The victim's shared latency blowing past tolerance trips the gate —
    latency ratios gate in the OPPOSITE direction from hot-path speedups."""
    worse = copy.deepcopy(serving_baseline)
    for column in ("p50_ms", "p99_ms"):
        worse["victim-shared"][column] *= 1.5  # 50% > the 35% tolerance
    failures = compare_serving(serving_baseline, worse, tolerance=0.35)
    assert failures, "a 50% victim latency inflation must trip the gate"
    assert any("victim-shared/p99_ms" in f for f in failures)


def test_flooder_latency_noise_is_not_gated(serving_baseline):
    """The flooder's own latency multiple (admitted requests only, tiny
    sample) swings between smoke and full sizes; it must never gate."""
    noisy = copy.deepcopy(serving_baseline)
    noisy["flooder"]["p50_ms"] *= 10.0
    noisy["flooder"]["p99_ms"] *= 10.0
    assert compare_serving(serving_baseline, noisy, tolerance=0.35) == []


def test_uniform_latency_scaling_passes(serving_baseline):
    """A uniformly slower run scales victim-solo too: ratios unchanged."""
    slowed = copy.deepcopy(serving_baseline)
    for values in slowed.values():
        for column in ("p50_ms", "p99_ms", "p999_ms"):
            if column in values:
                values[column] *= 3.0
    assert compare_serving(serving_baseline, slowed, tolerance=0.35) == []


def test_missing_serving_cells_fail(serving_baseline):
    partial = {
        label: values
        for label, values in serving_baseline.items()
        if label != "victim-shared"
    }
    failures = compare_serving(serving_baseline, partial)
    assert any("victim-shared" in f and "missing" in f for f in failures)


def test_absolute_isolation_ceiling_trips(serving_baseline):
    """Even a baseline that itself regressed cannot launder a victim p99
    above the absolute 2x ceiling through the relative tolerance."""
    bad = copy.deepcopy(serving_baseline)
    bad["victim-shared"]["p99_vs_solo"] = SERVING_P99_CEILING + 0.5
    failures = compare_serving(bad, bad, tolerance=0.35)
    assert any("absolute ceiling" in f for f in failures)


def test_quota_that_never_engages_fails(serving_baseline):
    vacuous = copy.deepcopy(serving_baseline)
    vacuous["flooder"]["shed"] = 0.0
    failures = compare_serving(serving_baseline, vacuous)
    assert any("never shed" in f for f in failures)


def test_serving_ratios_require_solo_row(serving_baseline):
    with pytest.raises(ValueError):
        serving_ratios({"victim-shared": {"p99_ms": 1.0}})
