"""Serving at scale: thousands of concurrent sessions on one warehouse.

The MaSM paper measures one query at a time; a warehouse front door serves
thousands of concurrent sessions whose scans all ride the same cached
updates.  This driver stands up the full serving stack — a sharded
warehouse on one simulated timeline, a quota-gated front door, and a
session population mixing open-loop Poisson, open-loop bursty and
closed-loop think-time clients across three tenant classes — and reports
the per-tenant latency surface (p50/p99/p999), admission outcomes and
aggregate throughput.

Everything runs on virtual time, so the whole run is a pure function of
``(scale, seed)``: the benchmark suite runs it twice and asserts the
exported metrics are byte-identical.  The default scale drives ~2,400
concurrent sessions; ``--scale`` trades session count for wall time.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.bench.harness import FigureResult
from repro.core.replication import ReplicatedWarehouse
from repro.engine.record import synthetic_schema
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
from repro.storage.clock import SimClock
from repro.workloads.synthetic import SyntheticUpdateGenerator

#: Sessions at scale=1.0 (the acceptance floor is 2,000 concurrent).
BASE_SESSIONS = 2_400
#: Warehouse sizing: small shards so a run stays minutes, not hours — the
#: serving experiment stresses concurrency, not table size.
NODES = 4
RECORDS_PER_NODE = 4_000
#: Updates absorbed before serving starts, so every scan really merges
#: cached update runs (scans of a pristine heap would flatter latency).
WARMUP_UPDATES = 1_500


def build_warehouse(seed: int) -> ReplicatedWarehouse:
    """A served warehouse: shared timeline, warmed update cache."""
    warehouse = ReplicatedWarehouse(
        synthetic_schema(100),
        NODES,
        SimClock(),
        replication=1,
        records_per_node=RECORDS_PER_NODE,
    )
    total = NODES * RECORDS_PER_NODE
    warehouse.bulk_load((i * 2, f"rec-{i}") for i in range(total))
    generator = SyntheticUpdateGenerator(
        num_records=total, seed=seed, oracle=warehouse.oracle
    )
    for _ in range(WARMUP_UPDATES):
        update = generator.next_update()
        warehouse.shards[warehouse.route(update.key)].apply(update)
    warehouse.flush_all()
    return warehouse


def tenant_specs(sessions: int, requests: int) -> list[SessionSpec]:
    """Three tenant classes splitting the session population 50/30/20.

    Per-session rates are low — thousands of mostly-idle sessions, like a
    real warehouse front door — sized so the aggregate offered load sits
    around 75% of the single router's ~45 queries/sec service capacity.
    Queueing is visible in the tails but the system is stable; only the
    batch class's bursts herd hard enough to hit their quota.
    """
    standard = max(1, sessions * 5 // 10)
    batch = max(1, sessions * 3 // 10)
    gold = max(1, sessions - standard - batch)
    return [
        SessionSpec(
            tenant="standard",
            sessions=standard,
            requests=requests,
            mode=SessionMode.OPEN,
            rate=0.01,
            arrivals=ArrivalKind.POISSON,
            range_records=24,
        ),
        SessionSpec(
            tenant="batch",
            sessions=batch,
            requests=requests,
            mode=SessionMode.OPEN,
            rate=4.0,
            arrivals=ArrivalKind.BURSTY,
            burst_len=4,
            idle_seconds=90.0,
            range_records=48,
        ),
        SessionSpec(
            tenant="gold",
            sessions=gold,
            requests=requests,
            mode=SessionMode.CLOSED,
            think_seconds=60.0,
            range_records=16,
        ),
    ]


def default_quotas() -> dict:
    """Roomy DELAY quotas for the interactive classes; the batch class is
    metered hard (SHED) so its burst herds cannot monopolize the door."""
    return {
        "standard": TenantQuota(rate=100.0, burst=64.0),
        "gold": TenantQuota(rate=100.0, burst=64.0),
        # Below the batch class's ~16 q/s aggregate arrival rate, so the
        # meter engages and sheds the excess above the contracted rate.
        "batch": TenantQuota(
            rate=10.0, burst=16.0, policy=QuotaPolicy.SHED
        ),
    }


def run(
    scale: float = 1.0,
    seed: int = 11,
    sessions: Optional[int] = None,
    requests: int = 2,
) -> FigureResult:
    result = FigureResult(
        figure="Serving scale",
        title="Multi-tenant front door under thousands of concurrent sessions",
        row_label="tenant",
        columns=[
            "sessions",
            "requests",
            "p50 (ms)",
            "p99 (ms)",
            "p999 (ms)",
            "delayed",
            "shed",
            "queries/sec",
        ],
    )
    population = sessions if sessions is not None else max(30, int(BASE_SESSIONS * scale))
    warehouse = build_warehouse(seed)
    frontdoor = FrontDoor(
        ReplicatedBackend(warehouse, scope="serving"),
        quotas=default_quotas(),
        scope="serving",
    )
    specs = tenant_specs(population, requests)
    manager = SessionManager(
        frontdoor,
        specs,
        key_universe=2 * NODES * RECORDS_PER_NODE,
        seed=seed,
    )
    # The per-request fan-out would emit far more spans than the tracer's
    # cap; the latency surfaces live in the registry, so trace only the
    # warmup and keep the exported artifact small.
    tracer = obs.get_tracer()
    was_enabled = tracer.enabled
    tracer.enabled = False
    try:
        stats = manager.run()
    finally:
        tracer.enabled = was_enabled

    by_tenant = {spec.tenant: spec for spec in specs}
    report = frontdoor.tenant_report()
    for tenant in sorted(report):
        surface = report[tenant]
        result.add_row(
            tenant,
            **{
                "sessions": float(by_tenant[tenant].sessions),
                "requests": float(surface["requests"]),
                "p50 (ms)": surface["latency_p50_ms"],
                "p99 (ms)": surface["latency_p99_ms"],
                "p999 (ms)": surface["latency_p999_ms"],
                "delayed": float(surface.get("delayed", 0)),
                "shed": float(surface.get("shed", 0)),
            },
        )
    elapsed = max(stats.elapsed, 1e-12)
    result.add_row(
        "all",
        **{
            "sessions": float(manager.num_sessions),
            "requests": float(stats.executed),
            "shed": float(stats.shed),
            "delayed": float(stats.reschedules),
            "queries/sec": stats.executed / elapsed,
        },
    )
    result.note(
        f"{manager.num_sessions} concurrent sessions, {requests} requests "
        f"each, over {NODES}x{RECORDS_PER_NODE}-record shards with "
        f"{WARMUP_UPDATES} cached updates; all latencies are simulated "
        f"(virtual clock), so the run is deterministic in (scale, seed)"
    )
    return result
