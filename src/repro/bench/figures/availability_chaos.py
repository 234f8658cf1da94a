"""Availability under chaos: replica kills and brownouts during serving.

The robustness acceptance experiment for the replication subsystem: a
3-way replicated warehouse serves a deterministic stream of range queries
while chaos unfolds on the shared virtual timeline —

* **crash**: the primary replica of shard 0 is killed mid-run (a
  :class:`~repro.storage.faults.NodeFaultPlan` node crash, discovered by
  the next operation that touches it); the set fails over and the router's
  circuit breaker routes around the corpse.  The victim later rejoins via
  recover + catch-up.
* **brownout**: shard 1's primary is slow-degraded for a window; once a
  scan on it runs past the router's break-even hedge delay (its own
  predicted scan time plus the backup's plus k deviations), a backup read
  at the same snapshot wins.

Every response is byte-compared against a fault-free :class:`ModelTable`
oracle at the request's pinned snapshot timestamp — failover and hedging
may change *where* rows come from, never *what* they are.  The figure
reports per-phase latency percentiles, the success rate, the wrong-answer
count (must be zero), the hedges each phase issued (a window without a
fault should issue none: there a backup can only add a whole scan) and the
chaos counters.  Virtual time makes the whole run a pure function of
``(scale, seed)``; the benchmark suite runs it twice and asserts
byte-identical metrics.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.bench.harness import FigureResult
from repro.core.replication import ReplicatedWarehouse
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import ReproError
from repro.obs import get_registry
from repro.server import QueryRequest, ReplicatedBackend, RequestRouter
from repro.sim.model import ModelTable
from repro.storage.clock import SimClock
from repro.storage.faults import NodeFaultPlan

SHARDS = 2
REPLICATION = 3
RECORDS_PER_NODE = 1_200
#: Requests at scale=1.0; chaos landmarks are fractions of this stream.
BASE_REQUESTS = 240
#: Updates absorbed (and replicated) before serving starts, so scans merge
#: real cached runs on every replica.
WARMUP_UPDATES = 300
#: Updates interleaved between consecutive requests during serving.
UPDATES_PER_REQUEST = 2

#: Chaos schedule as fractions of the request stream: the crash window is
#: [CRASH_AT, REJOIN_AT) and the brownout window is [SLOW_AT, SLOW_END).
CRASH_AT, REJOIN_AT = 0.25, 0.50
SLOW_AT, SLOW_END = 0.65, 0.85
#: Virtual seconds a browned-out node adds to every operation it serves.
BROWNOUT_OP_SECONDS = 0.05
#: One phase's outcome counts before its first request.
EMPTY_TALLY = {"ok": 0, "failed": 0, "wrong": 0, "hedges": 0}


def _phase(i: int, total: int) -> str:
    if i < int(total * CRASH_AT):
        return "baseline"
    if i < int(total * REJOIN_AT):
        return "failover-window"
    if int(total * SLOW_AT) <= i < int(total * SLOW_END):
        return "brownout-window"
    return "recovered"


def _p(samples: list, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def run(
    scale: float = 1.0, seed: int = 23, requests: Optional[int] = None
) -> FigureResult:
    total_requests = (
        requests if requests is not None else max(80, int(BASE_REQUESTS * scale))
    )
    rng = random.Random(f"{seed}:availability")
    clock = SimClock()
    schema = synthetic_schema(100)
    crash_plan = NodeFaultPlan()
    slow_plan = NodeFaultPlan(slow_op_seconds=BROWNOUT_OP_SECONDS)
    warehouse = ReplicatedWarehouse(
        schema,
        SHARDS,
        clock,
        replication=REPLICATION,
        records_per_node=RECORDS_PER_NODE,
        node_faults={(0, 0): crash_plan, (1, 0): slow_plan},
    )
    total = SHARDS * RECORDS_PER_NODE
    base = [(i * 2, f"rec-{i}") for i in range(total)]
    warehouse.bulk_load(base)
    model = ModelTable(schema, base)
    universe = 2 * total

    def apply_one(tag: str) -> None:
        """One replicated update, acknowledged to the fault-free oracle."""
        state = model.snapshot(2**62)
        live = sorted(state)
        ts = warehouse.oracle.next()
        roll = rng.random()
        if roll < 0.2:
            key = rng.randrange(1, universe, 2)  # odd keys stay insertable
            if key in state:
                update = UpdateRecord(
                    ts, key, UpdateType.MODIFY, {"payload": tag}
                )
            else:
                update = UpdateRecord(
                    ts, key, UpdateType.INSERT, (key, tag)
                )
        elif roll < 0.35 and live:
            update = UpdateRecord(ts, rng.choice(live), UpdateType.DELETE, None)
        else:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.MODIFY, {"payload": tag}
            )
        warehouse.shards[warehouse.route(update.key)].apply(update)
        model.record(update)

    for i in range(WARMUP_UPDATES):
        apply_one(f"warm-{i}")
    warehouse.flush_all()

    backend = ReplicatedBackend(warehouse, scope="availability")
    router = RequestRouter(backend, scope="availability", keep_records=True)
    hedges = get_registry().counter("availability.hedges")

    latencies: dict[str, list] = {}
    counts: dict[str, dict] = {}
    wrong_answers = 0
    for i in range(total_requests):
        if i == int(total_requests * REJOIN_AT):
            warehouse.rejoin_replica(0, 0)
        if i == int(total_requests * SLOW_AT):
            slow_plan.slow_at = clock.now  # shard 1's primary browns out
        if i == int(total_requests * SLOW_END):
            slow_plan.slow_at = None
        for j in range(UPDATES_PER_REQUEST):
            apply_one(f"u{i}.{j}")
        if i == int(total_requests * CRASH_AT):
            # Shard 0's primary dies NOW — after this step's updates, so
            # the *router* is first to touch the corpse: its attempt fails
            # typed, the breaker records it, and the read fails over.
            crash_plan.crash_at = clock.now
        lo = rng.randrange(universe)
        hi = lo + rng.randrange(150, 600)
        phase = _phase(i, total_requests)
        tally = counts.setdefault(phase, dict(EMPTY_TALLY))
        request = QueryRequest(
            tenant="chaos",
            session=0,
            seq=i,
            begin_key=lo,
            end_key=hi,
            arrival=clock.now,
        )
        hedged_before = hedges.value
        try:
            result = router.execute(request)
        except ReproError:
            tally["failed"] += 1
            continue
        finally:
            tally["hedges"] += hedges.value - hedged_before
        expected = tuple(model.snapshot_records(result.query_ts, lo, hi))
        if result.records != expected:
            tally["wrong"] += 1
            wrong_answers += 1
        else:
            tally["ok"] += 1
        latencies.setdefault(phase, []).append(result.latency_seconds)

    registry = get_registry()

    def counter(name: str) -> float:
        return float(registry.counter(f"availability.{name}").value)

    result = FigureResult(
        figure="Availability under chaos",
        title=(
            "3-way replicated serving through a primary kill, failover, "
            "rejoin and a brownout"
        ),
        row_label="phase",
        columns=[
            "requests",
            "ok",
            "failed",
            "wrong",
            "p50 (ms)",
            "p99 (ms)",
            "success_rate",
            "p99_vs_baseline",
            "failovers",
            "hedges",
            "hedge_wins",
        ],
    )
    baseline_p99 = _p(latencies.get("baseline", []), 0.99)
    for phase in ("baseline", "failover-window", "brownout-window", "recovered"):
        tally = counts.get(phase, EMPTY_TALLY)
        samples = latencies.get(phase, [])
        attempts = tally["ok"] + tally["failed"] + tally["wrong"]
        p99 = _p(samples, 0.99)
        result.add_row(
            phase,
            **{
                "requests": float(attempts),
                "ok": float(tally["ok"]),
                "failed": float(tally["failed"]),
                "wrong": float(tally["wrong"]),
                "p50 (ms)": _p(samples, 0.50) * 1e3,
                "p99 (ms)": p99 * 1e3,
                "success_rate": tally["ok"] / max(attempts, 1),
                "p99_vs_baseline": p99 / baseline_p99 if baseline_p99 else 0.0,
                "hedges": float(tally["hedges"]),
            },
        )
    all_ok = sum(t["ok"] for t in counts.values())
    all_attempts = sum(
        t["ok"] + t["failed"] + t["wrong"] for t in counts.values()
    )
    result.add_row(
        "all",
        **{
            "requests": float(all_attempts),
            "ok": float(all_ok),
            "failed": float(sum(t["failed"] for t in counts.values())),
            "wrong": float(wrong_answers),
            "success_rate": all_ok / max(all_attempts, 1),
            "failovers": counter("read_failovers"),
            "hedges": counter("hedges"),
            "hedge_wins": counter("hedge_wins"),
        },
    )
    report = warehouse.replica_report()
    result.note(
        f"{total_requests} requests over {SHARDS} shards x {REPLICATION} "
        f"replicas; shard0.r0 killed at {CRASH_AT:.0%} of the stream and "
        f"rejoined at {REJOIN_AT:.0%}; shard1.r0 browned out "
        f"[{SLOW_AT:.0%}, {SLOW_END:.0%}); every response byte-compared "
        f"to the fault-free oracle at its snapshot ts"
    )
    result.note(
        f"wrong answers: {wrong_answers}; final replica states: "
        + ", ".join(f"{k}={v}" for k, v in sorted(report.items()))
    )
    return result
