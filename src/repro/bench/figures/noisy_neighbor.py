"""Noisy-neighbor isolation: per-tenant quotas contain a flooding tenant.

Two phases over identical warehouses (same seed, same warmup):

* **solo** — the victim tenant runs its open-loop workload alone; its p99
  is the baseline the SLO is written against.
* **shared** — the same victim workload runs next to a flooding tenant
  whose open-loop arrival rate is far above its quota.  The flood is shed
  (or delayed) at the admission door *before* it can occupy the router, so
  the victim's latency surface should stay close to its solo baseline.

The acceptance bound (enforced by ``benchmarks/bench_serving.py`` and the
regression gate): victim p99 with the flooder present stays within 2x the
solo baseline, while the flooder shows a non-trivial shed count — i.e. the
quota did real work, it didn't just never trigger.
"""

from __future__ import annotations

from repro import obs
from repro.bench.figures.serving_scale import build_warehouse
from repro.bench.harness import FigureResult
from repro.server import (
    ArrivalKind,
    FrontDoor,
    QuotaPolicy,
    ReplicatedBackend,
    SessionManager,
    SessionMode,
    SessionSpec,
    TenantQuota,
)

from repro.bench.figures.serving_scale import NODES, RECORDS_PER_NODE

VICTIM = "victim"
FLOODER = "flooder"


def _victim_spec(scale: float, requests: int) -> SessionSpec:
    # Offered load stays well under the router's service capacity at every
    # scale (the victim must be unsaturated solo for its baseline p99 to
    # mean anything): ~24 sessions x 0.5/s = 12 q/s at scale 1.0 against a
    # ~45 q/s single-router capacity.
    return SessionSpec(
        tenant=VICTIM,
        sessions=max(4, int(24 * scale)),
        requests=requests,
        mode=SessionMode.OPEN,
        rate=0.5,
        arrivals=ArrivalKind.POISSON,
        range_records=24,
    )


def _flooder_spec(scale: float, requests: int) -> SessionSpec:
    return SessionSpec(
        tenant=FLOODER,
        sessions=max(4, int(30 * scale)),
        requests=requests * 4,
        mode=SessionMode.OPEN,
        rate=20.0,
        arrivals=ArrivalKind.BURSTY,
        burst_len=8,
        idle_seconds=0.25,
        range_records=48,
    )


def _quotas() -> dict:
    return {
        # The victim's quota is roomy: it should essentially never meter.
        VICTIM: TenantQuota(rate=300.0, burst=64.0),
        # The flooder's sustainable rate is a small fraction of its arrival
        # rate and its burst is shallow, so even a full burst occupies the
        # router only briefly; everything over quota is shed immediately
        # (SHED) and never reaches the router at all.
        FLOODER: TenantQuota(rate=8.0, burst=4.0, policy=QuotaPolicy.SHED),
    }


def _phase(specs, seed: int, scope: str) -> dict:
    """Run one phase on a fresh warehouse; return its tenant report."""
    warehouse = build_warehouse(seed)
    frontdoor = FrontDoor(
        ReplicatedBackend(warehouse, scope=scope), quotas=_quotas(), scope=scope
    )
    manager = SessionManager(
        frontdoor,
        specs,
        key_universe=2 * NODES * RECORDS_PER_NODE,
        seed=seed,
    )
    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = False
    try:
        manager.run()
    finally:
        tracer.enabled = was_enabled
    return frontdoor.tenant_report()


def run(scale: float = 1.0, seed: int = 23, requests: int = 6) -> FigureResult:
    result = FigureResult(
        figure="Noisy neighbor",
        title="Quota isolation: victim latency with and without a flooding tenant",
        row_label="tenant/phase",
        columns=[
            "requests",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "admitted",
            "shed",
            "p99 vs solo",
        ],
    )
    solo = _phase([_victim_spec(scale, requests)], seed, scope="nn.solo")
    shared = _phase(
        [_victim_spec(scale, requests), _flooder_spec(scale, requests)],
        seed,
        scope="nn.shared",
    )

    solo_victim = solo[VICTIM]
    baseline_p99 = max(solo_victim["latency_p99_ms"], 1e-9)

    def add(label: str, surface: dict) -> None:
        result.add_row(
            label,
            **{
                "requests": float(surface["requests"]),
                "p50 (ms)": surface["latency_p50_ms"],
                "p99 (ms)": surface["latency_p99_ms"],
                "p999 (ms)": surface["latency_p999_ms"],
                "admitted": float(surface.get("admitted", surface["requests"])),
                "shed": float(surface.get("shed", 0)),
                "p99 vs solo": surface["latency_p99_ms"] / baseline_p99,
            },
        )

    add("victim-solo", solo_victim)
    add("victim-shared", shared[VICTIM])
    add(FLOODER, shared[FLOODER])
    result.note(
        "flood arrivals far above the flooder's quota are shed at the "
        "admission door before they can occupy the router; the victim's "
        "p99-vs-solo ratio is the isolation metric (target: <= 2.0)"
    )
    return result
