"""Experiment drivers, one per table/figure of the paper (see DESIGN.md's
experiment index).  Each module exposes ``run(scale=...) -> FigureResult``.

Every driver in :data:`ALL_DRIVERS` is wrapped so it executes under a fresh
metrics registry and tracer (tracing is always on): devices, engines and
measured regions built inside the driver register into an isolated
namespace, and the finished :class:`FigureResult` carries the full
observability report on ``result.metrics`` — the machine-readable dump the
bench CLI writes next to the figure's CSV and CI uploads as an artifact.
"""

import functools

from repro import obs
from repro.bench.figures import (
    ablations,
    availability_chaos,
    durability_churn,
    fig01_migration_tradeoff,
    fig03_tpch_inplace_rowstore,
    fig04_tpch_inplace_columnstore,
    fig09_scheme_comparison,
    fig10_cache_fill,
    fig11_migration,
    fig12_sustained_updates,
    fig13_cpu_cost,
    fig14_tpch_replay,
    hdd_cache,
    latency_stability,
    lsm_write_amplification,
    noisy_neighbor,
    serving_scale,
    theorem_writes,
)


def instrumented(key, driver):
    """Run ``driver`` under its own registry + tracer; attach the report."""

    @functools.wraps(driver)
    def run(**kwargs):
        with obs.use_registry() as registry, obs.use_tracer() as tracer:
            result = driver(**kwargs)
        result.metrics = obs.report_dict(registry, tracer, experiment=key)
        return result

    return run


ALL_DRIVERS = {
    key: instrumented(key, driver)
    for key, driver in {
        "figure-1": fig01_migration_tradeoff.run,
        "figure-3": fig03_tpch_inplace_rowstore.run,
        "figure-4": fig04_tpch_inplace_columnstore.run,
        "figure-9": fig09_scheme_comparison.run,
        "figure-10": fig10_cache_fill.run,
        "figure-11": fig11_migration.run,
        "figure-12": fig12_sustained_updates.run,
        "figure-13": fig13_cpu_cost.run,
        "figure-14": fig14_tpch_replay.run,
        "availability-under-chaos": availability_chaos.run,
        "durability-under-churn": durability_churn.run,
        "hdd-cache": hdd_cache.run,
        "latency-stability": latency_stability.run,
        "lsm-write-amplification": lsm_write_amplification.run,
        "noisy-neighbor": noisy_neighbor.run,
        "serving-scale": serving_scale.run,
        "theorem-writes": theorem_writes.run,
        "ablation-materialization": ablations.run_materialization,
        "ablation-skew": ablations.run_skew,
    }.items()
}

__all__ = ["ALL_DRIVERS", "instrumented"]
