"""Smoke tests: every figure driver runs at tiny scale and produces a
well-formed FigureResult.  The real shape assertions live in benchmarks/."""

import pytest

from repro.bench.figures import ALL_DRIVERS
from repro.bench.harness import FigureResult

# (driver key, kwargs tuned for a fast smoke run)
FAST = {
    "figure-1": {"scale": 0.05},
    "figure-3": {"scale": 0.2},
    "figure-4": {"scale": 0.2, "num_updates": 100},
    "figure-9": {"scale": 0.15, "repeats": 1},
    "figure-10": {"scale": 0.15, "repeats": 1},
    "figure-11": {"scale": 0.2},
    "figure-12": {"scale": 0.2},
    "figure-13": {"scale": 0.2},
    "figure-14": {"scale": 0.2},
    "hdd-cache": {"scale": 0.2, "repeats": 1},
    "latency-stability": {"scale": 0.1, "flood_updates": 200},
    "lsm-write-amplification": {"scale": 0.2},
    "theorem-writes": {"scale": 0.2},
    "ablation-materialization": {"scale": 0.2, "queries": 2},
    "ablation-skew": {"scale": 0.2, "updates": 3000},
    "serving-scale": {"scale": 0.02},
    "noisy-neighbor": {"scale": 0.15, "requests": 2},
    "availability-under-chaos": {"scale": 0.15, "requests": 40},
    "durability-under-churn": {"scale": 0.15, "requests": 40},
}


def test_every_driver_is_covered():
    assert set(FAST) == set(ALL_DRIVERS)


@pytest.mark.parametrize("key", sorted(ALL_DRIVERS))
def test_driver_smoke(key):
    result = ALL_DRIVERS[key](**FAST[key])
    assert isinstance(result, FigureResult)
    assert result.rows, f"{key} produced no rows"
    assert result.columns
    # Every row has at least one populated cell, all finite and sane.
    for label, values in result.rows:
        assert values, f"{key}: empty row {label}"
        for column, value in values.items():
            assert value == value, f"{key}: NaN in {label}/{column}"
            assert value >= 0, f"{key}: negative in {label}/{column}"
    # The rendered table includes the figure id and all columns.
    text = result.format()
    assert result.figure in text
    for column in result.columns:
        assert column in text
