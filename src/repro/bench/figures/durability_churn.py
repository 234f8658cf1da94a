"""Durability under churn: checkpoints, bootstrap and repair while serving.

The robustness acceptance experiment for the durability subsystem: a
3-way replicated warehouse serves a deterministic stream of range queries
while the full durability lifecycle unfolds on the shared virtual
timeline —

* **checkpointed WAL truncation**: every ``MAINT_EVERY`` requests each
  ONLINE replica flushes, cuts a checkpoint and compacts its WAL behind
  the fence into the log's next generation.  The figure tracks the
  primary's live WAL bytes against the cumulative bytes ever appended —
  bounded (flat) versus linear is the whole point of checkpointing.
* **wipe + snapshot bootstrap**: one follower's durable state (runs, WAL,
  heap) is destroyed mid-run; serving continues on the survivors, and the
  node is later revived wholesale from a healthy peer's CRC-verified
  snapshot and catches up from the primary's (finite) WAL.
* **silent corruption + read-repair**: a byte of a primary's sealed run
  is flipped.  The next scan that touches the block fails typed, fails
  over to a healthy replica (the response is still byte-correct) and
  drops a read-repair intent on the :class:`~repro.server.health.RepairQueue`;
  draining the queue runs an anti-entropy pass that repairs the run from
  the replica's own log or a peer.

Every response is byte-compared against a fault-free :class:`ModelTable`
oracle at its pinned snapshot timestamp — truncation, bootstrap and
repair may change where bytes live, never what a query answers.  Virtual
time makes the run a pure function of ``(scale, seed)``; the benchmark
suite runs it twice and asserts byte-identical metrics.
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
from repro.server import (
    QueryRequest,
    RepairQueue,
    ReplicatedBackend,
    RequestRouter,
)
from repro.sim.model import ModelTable
from repro.storage.clock import SimClock

SHARDS = 2
REPLICATION = 3
RECORDS_PER_NODE = 1_200
#: Requests at scale=1.0; durability landmarks are fractions of this stream.
BASE_REQUESTS = 240
#: Updates absorbed (and replicated) before serving starts.
WARMUP_UPDATES = 300
#: Updates interleaved between consecutive requests during serving.
UPDATES_PER_REQUEST = 2
#: Requests between checkpoint/truncate maintenance ticks.
MAINT_EVERY = 10

#: Lifecycle schedule as fractions of the request stream.
WIPE_AT, BOOTSTRAP_AT = 0.25, 0.45
FLIP_AT, FLIP_END = 0.60, 0.80


def _phase(i: int, total: int) -> str:
    if i < int(total * WIPE_AT):
        return "baseline"
    if i < int(total * BOOTSTRAP_AT):
        return "wiped-window"
    if i < int(total * FLIP_AT):
        return "bootstrapped"
    if i < int(total * FLIP_END):
        return "corruption-window"
    return "recovered"


PHASES = (
    "baseline",
    "wiped-window",
    "bootstrapped",
    "corruption-window",
    "recovered",
)


def _p(samples: list, q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


def run(
    scale: float = 1.0, seed: int = 31, requests: Optional[int] = None
) -> FigureResult:
    total_requests = (
        requests if requests is not None else max(80, int(BASE_REQUESTS * scale))
    )
    rng = random.Random(f"{seed}:durability")
    clock = SimClock()
    schema = synthetic_schema(100)
    warehouse = ReplicatedWarehouse(
        schema,
        SHARDS,
        clock,
        replication=REPLICATION,
        records_per_node=RECORDS_PER_NODE,
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
                update = UpdateRecord(ts, key, UpdateType.INSERT, (key, tag))
        elif roll < 0.35 and live:
            update = UpdateRecord(ts, rng.choice(live), UpdateType.DELETE, None)
        else:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.MODIFY, {"payload": tag}
            )
        warehouse.shards[warehouse.route(update.key)].apply(update)
        model.record(update)

    def primary_wal_bytes() -> int:
        return sum(
            shard.primary.wal.live_bytes
            for shard in warehouse.shards
            if shard.primary.wal is not None
        )

    for i in range(WARMUP_UPDATES):
        apply_one(f"warm-{i}")
    warehouse.flush_all()
    # Checkpoint away the warmup WAL so the serving-time measurement
    # starts from a truncated baseline.
    warehouse.maintenance(force_checkpoint=True)
    reclaimed = 0.0

    queue = RepairQueue(scope="durability")
    backend = ReplicatedBackend(
        warehouse, scope="durability", repair_queue=queue
    )
    router = RequestRouter(backend, scope="durability", keep_records=True)

    latencies: dict[str, list] = {}
    counts: dict[str, dict] = {}
    wrong_answers = 0
    max_wal = primary_wal_bytes()
    appended = float(max_wal)
    last_wal = max_wal
    for i in range(total_requests):
        if i and i % MAINT_EVERY == 0:
            warehouse.flush_all()
            for entry in warehouse.maintenance(force_checkpoint=True).values():
                reclaimed += entry.get("reclaimed_bytes", 0)
        if len(queue):
            # Background repair tick: drain read-repair intents through
            # one anti-entropy pass per implicated shard.
            warehouse.run_repairs(queue)
        if i == int(total_requests * WIPE_AT):
            warehouse.wipe_replica(0, 1)
        if i == int(total_requests * BOOTSTRAP_AT):
            warehouse.bootstrap_replica(0, 1)
        if i == int(total_requests * FLIP_AT):
            victim = warehouse.shards[1].primary.masm
            run_ = victim.runs[0]
            flip_at = run_.block_size // 2
            byte = run_.file.read(flip_at, 1)[0]
            run_.file.write(flip_at, bytes([byte ^ 0xFF]))
            victim.block_cache.invalidate_run(run_.name)
        for j in range(UPDATES_PER_REQUEST):
            apply_one(f"u{i}.{j}")
        wal_now = primary_wal_bytes()
        # Live bytes only ever move by appends (up) or truncation (down);
        # cumulative appends = positive deltas + what truncation reclaimed.
        appended += max(0, wal_now - last_wal)
        last_wal = wal_now
        max_wal = max(max_wal, wal_now)
        lo = rng.randrange(universe)
        hi = lo + rng.randrange(150, 600)
        phase = _phase(i, total_requests)
        tally = counts.setdefault(phase, {"ok": 0, "failed": 0, "wrong": 0})
        request = QueryRequest(
            tenant="churn",
            session=0,
            seq=i,
            begin_key=lo,
            end_key=hi,
            arrival=clock.now,
        )
        try:
            result = router.execute(request)
        except ReproError:
            tally["failed"] += 1
            continue
        expected = tuple(model.snapshot_records(result.query_ts, lo, hi))
        if result.records != expected:
            tally["wrong"] += 1
            wrong_answers += 1
        else:
            tally["ok"] += 1
        latencies.setdefault(phase, []).append(result.latency_seconds)

    # Final background passes: anything still queued gets repaired, and a
    # last scrub proves no silent damage is left anywhere in the fleet.
    if len(queue):
        warehouse.run_repairs(queue)
    final_scrub = warehouse.anti_entropy()
    unrepaired = sum(len(r["unrepaired"]) for r in final_scrub.values())
    appended += reclaimed

    registry = get_registry()

    def counter(name: str) -> float:
        return float(registry.counter(name).value)

    result = FigureResult(
        figure="Durability under churn",
        title=(
            "3-way replicated serving through checkpointed WAL truncation, "
            "a wipe + snapshot bootstrap, and bit-flip read-repair"
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
            "max_wal_kb",
            "appended_kb",
            "wal_bound_ratio",
            "checkpoints",
            "bootstraps",
            "repairs",
            "repairs_scheduled",
            "failovers",
            "unrepaired",
        ],
    )
    for phase in PHASES:
        tally = counts.get(phase, {"ok": 0, "failed": 0, "wrong": 0})
        samples = latencies.get(phase, [])
        attempts = tally["ok"] + tally["failed"] + tally["wrong"]
        result.add_row(
            phase,
            **{
                "requests": float(attempts),
                "ok": float(tally["ok"]),
                "failed": float(tally["failed"]),
                "wrong": float(tally["wrong"]),
                "p50 (ms)": _p(samples, 0.50) * 1e3,
                "p99 (ms)": _p(samples, 0.99) * 1e3,
                "success_rate": tally["ok"] / max(attempts, 1),
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
            "max_wal_kb": max_wal / 1024.0,
            "appended_kb": appended / 1024.0,
            "wal_bound_ratio": max_wal / max(appended, 1.0),
            "checkpoints": counter("replication.checkpoints"),
            "bootstraps": counter("replication.bootstraps"),
            "repairs": counter("replication.repairs"),
            "repairs_scheduled": counter("durability.repairs.scheduled"),
            "failovers": counter("durability.read_failovers"),
            "unrepaired": float(unrepaired),
        },
    )
    result.note(
        f"{total_requests} requests over {SHARDS} shards x {REPLICATION} "
        f"replicas; checkpoint+truncate every {MAINT_EVERY} requests; "
        f"shard0.r1 wiped at {WIPE_AT:.0%} and snapshot-bootstrapped at "
        f"{BOOTSTRAP_AT:.0%}; shard1 primary's run bit-flipped at "
        f"{FLIP_AT:.0%}; every response byte-compared to the fault-free "
        f"oracle at its snapshot ts"
    )
    result.note(
        f"wrong answers: {wrong_answers}; live WAL peaked at "
        f"{max_wal / 1024:.0f} KB against {appended / 1024:.0f} KB ever "
        f"appended ({max_wal / max(appended, 1.0):.0%} — flat, not linear); "
        f"final replica states: "
        + ", ".join(
            f"{k}={v}" for k, v in sorted(warehouse.replica_report().items())
        )
    )
    return result
