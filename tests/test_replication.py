"""Shard replication: ships, failover, catch-up, hedged/deadline fan-out.

``MASM_CHAOS_SEED`` selects the chaos seed (CI runs two fixed seeds); the
assertions hold for any seed — correctness here is byte-identity against
either a sibling replica or the model oracle, never golden values.
"""

import os
import random

import pytest

from repro.core.replication import (
    ReplicaSet,
    ReplicaState,
    ReplicatedWarehouse,
)
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import (
    DeadlineExceededError,
    NoHealthyReplicaError,
    QuotaExceededError,
    ReplicaUnavailableError,
    ReplicationError,
    ReproError,
)
from repro.obs import use_registry
from repro.server import (
    DeadlineMode,
    DeadlinePolicy,
    FrontDoor,
    HedgePolicy,
    FleetHealth,
    QueryRequest,
    ReplicatedBackend,
    RequestRouter,
)
from repro.server.health import HEDGE_BURST
from repro.sim.model import ModelTable
from repro.storage.clock import SimClock
from repro.storage.faults import NodeFaultPlan
from repro.txn.timestamps import TimestampOracle

pytestmark = pytest.mark.chaos

#: CI exercises two fixed seeds (see .github/workflows/ci.yml).
SEED = int(os.environ.get("MASM_CHAOS_SEED", "3"))

SCHEMA = synthetic_schema()
ROWS = 120


def build_set(replication=3, node_faults=None, clock=None):
    oracle = TimestampOracle()
    rset = ReplicaSet.build(
        0,
        SCHEMA,
        oracle,
        clock or SimClock(),
        replication,
        records_per_node=4 * ROWS,
        node_faults=node_faults,
    )
    base = [(i * 2, f"rec-{i}") for i in range(ROWS)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    return rset, ModelTable(SCHEMA, base)


def apply_mixed(rset, model, count, tag, rng=None):
    rng = rng or random.Random(f"{SEED}:{tag}")
    for i in range(count):
        state = model.snapshot(2**62)
        live = sorted(state)
        ts = rset.oracle.next()
        roll = rng.random()
        if roll < 0.3:
            key = rng.randrange(1, 2 * ROWS, 2)
            if key in state:
                update = UpdateRecord(
                    ts, key, UpdateType.MODIFY, {"payload": f"{tag}-{i}"}
                )
            else:
                update = UpdateRecord(
                    ts, key, UpdateType.INSERT, (key, f"{tag}-{i}")
                )
        elif roll < 0.45 and live:
            update = UpdateRecord(ts, rng.choice(live), UpdateType.DELETE, None)
        else:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.MODIFY,
                {"payload": f"{tag}-{i}"},
            )
        rset.apply(update)
        model.record(update)


def assert_replicas_identical(rset, model, context):
    """Every ONLINE replica must answer a pinned-ts scan byte-identically."""
    query_ts = rset.oracle.next()
    expected = model.snapshot_records(query_ts, 0, 4 * ROWS)
    for replica_id in rset.online_ids():
        got = list(rset.scan(0, 4 * ROWS, query_ts, replica_id=replica_id))
        assert got == expected, f"{context}: replica {replica_id} diverged"


# ------------------------------------------------------------------ shipping
def test_apply_replicates_to_all_followers():
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 60, "ship")
        assert rset.online_ids() == [0, 1, 2]
        assert_replicas_identical(rset, model, "after ships")


def test_replicas_identical_despite_different_flush_schedules():
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 30, "flush")
        # Skew the physical layout: flush one follower, migrate nothing
        # else.  Visibility is a pure function of (stream, ts), so the
        # answers must not move.
        rset.replica(1).masm.flush_buffer()
        apply_mixed(rset, model, 30, "flush2")
        assert_replicas_identical(rset, model, "after skewed flushes")


def test_replication_requires_at_least_one_replica():
    with pytest.raises(ReplicationError):
        ReplicaSet.build(0, SCHEMA, TimestampOracle(), SimClock(), 0)


# ------------------------------------------------------------------ failover
def test_primary_crash_promotes_next_follower():
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 40, "pre-crash")
        rset.crash_replica(0)
        assert rset.primary_id == 1
        assert rset.replica(0).state is ReplicaState.CRASHED
        # The promoted follower carries the full shipped history...
        assert_replicas_identical(rset, model, "post-failover")
        # ...and ingests new writes, still replicated to the survivor.
        apply_mixed(rset, model, 20, "post-crash")
        assert_replicas_identical(rset, model, "post-failover writes")


def test_primary_fault_mid_apply_retries_on_promoted():
    with use_registry():
        clock = SimClock()
        plan = NodeFaultPlan()
        rset, model = build_set(node_faults={0: plan}, clock=clock)
        apply_mixed(rset, model, 10, "warm")
        plan.crash_at = clock.now  # the next op on replica 0 fails typed
        ts = rset.oracle.next()
        update = UpdateRecord(ts, 1, UpdateType.INSERT, (1, "survives"))
        rset.apply(update)  # one successful ingest, no client-visible error
        model.record(update)
        assert rset.primary_id == 1
        assert_replicas_identical(rset, model, "fault mid-apply")


def test_follower_ship_failure_drops_follower():
    with use_registry():
        clock = SimClock()
        plan = NodeFaultPlan()
        rset, model = build_set(node_faults={2: plan}, clock=clock)
        apply_mixed(rset, model, 10, "warm")
        plan.crash_at = clock.now
        apply_mixed(rset, model, 1, "drop")
        # The failed ship may not leave a silently stale reader behind.
        assert rset.replica(2).state is ReplicaState.CRASHED
        assert rset.primary_id == 0
        assert_replicas_identical(rset, model, "after follower drop")


ILL_FORMED = [
    UpdateRecord(0, 1, UpdateType.INSERT, (1, "x" * 200)),
    UpdateRecord(0, 2, UpdateType.MODIFY, {"key": "not a number"}),
    UpdateRecord(0, 2, UpdateType.MODIFY, {"no_such_field": 1}),
]


@pytest.mark.parametrize("update", ILL_FORMED, ids=lambda u: f"{u.type.name}-{list(u.content)[-1]}")
def test_ill_formed_update_is_rejected_before_any_replica_sees_it(update):
    """The set encodes — and so validates — once, first: the codec's own
    error reaches the caller and no replica logged, buffered or was dropped
    for it."""
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 20, "warm")

        def footprint():
            return [
                (r.wal.live_bytes, r.wal.records_written, r.masm.buffer.count,
                 r.masm.buffer.used_bytes, r.masm.stats.updates_ingested, r.state)
                for r in rset.replicas
            ]

        before = footprint()
        update.timestamp = rset.oracle.next()
        with pytest.raises(ReproError) as codec_error:
            UpdateCodec(SCHEMA).encode(update)
        with pytest.raises(type(codec_error.value)) as raised:
            rset.apply(update)
        assert str(raised.value) == str(codec_error.value)
        assert footprint() == before
        assert rset.online_ids() == [0, 1, 2] and rset.primary_id == 0
        apply_mixed(rset, model, 5, "after")
        assert_replicas_identical(rset, model, "after a rejected update")


def test_dropped_follower_catches_up_to_identical_bytes():
    """A follower that fails its ship after the primary applied ends
    CRASHED; rejoined, its log holds the very bytes the primary's does."""
    with use_registry():
        clock = SimClock()
        plan = NodeFaultPlan()
        rset, model = build_set(node_faults={1: plan}, clock=clock)
        apply_mixed(rset, model, 10, "warm")
        plan.crash_at = clock.now
        apply_mixed(rset, model, 8, "missed")
        follower = rset.replica(1)
        assert follower.state is ReplicaState.CRASHED and rset.primary_id == 0
        assert rset.primary.masm.buffer.count == follower.masm.buffer.count + 8
        assert rset.rejoin(1) == 8
        assert follower.state is ReplicaState.ONLINE
        table = rset.primary.table.name
        logged = [list(r.wal.encoded_updates(table)) for r in rset.replicas]
        assert logged[0] == logged[1] == logged[2] and len(logged[0]) == 18
        assert_replicas_identical(rset, model, "after the dropped follower rejoined")


def test_all_replicas_down_raises_typed():
    with use_registry():
        rset, model = build_set(replication=2)
        rset.crash_replica(1)
        rset.crash_replica(0)
        with pytest.raises(NoHealthyReplicaError):
            rset.insert((1, "nope"))
        with pytest.raises(ReplicaUnavailableError):
            list(rset.scan(0, 4 * ROWS, rset.oracle.next()))


# ------------------------------------------------------------------- rejoin
def test_rejoin_recovers_and_catches_up():
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 40, "before")
        rset.crash_replica(2)
        # Everything shipped while it was down is strictly newer than its
        # recovered watermark; catch-up must replay exactly that.
        apply_mixed(rset, model, 25, "while-down")
        replica = rset.recover_replica(2)
        assert replica.state is ReplicaState.CATCHING_UP
        applied = rset.catch_up(2)
        assert applied == 25
        assert replica.state is ReplicaState.ONLINE
        assert_replicas_identical(rset, model, "after rejoin")


def test_rejoined_primary_after_failover():
    with use_registry():
        rset, model = build_set()
        apply_mixed(rset, model, 20, "before")
        rset.crash_replica(0)  # old primary dies; 1 promoted
        apply_mixed(rset, model, 20, "during")
        assert rset.rejoin(0) == 20  # catches up from the NEW primary's log
        assert rset.primary_id == 1  # rejoin does not usurp
        assert_replicas_identical(rset, model, "old primary rejoined")
        # The rejoined node is promotable again.
        rset.crash_replica(1)
        assert rset.primary_id == 0
        assert_replicas_identical(rset, model, "re-promoted")


def test_catch_up_requires_recovery_first():
    with use_registry():
        rset, _ = build_set()
        rset.crash_replica(1)
        with pytest.raises(ReplicationError):
            rset.catch_up(1)
        with pytest.raises(ReplicationError):
            rset.recover_replica(0)  # not crashed


# ------------------------------------------------------ snapshot bootstrap
def test_wiped_replica_bootstraps_from_peer():
    with use_registry():
        from repro.obs import get_registry

        rset, model = build_set()
        apply_mixed(rset, model, 40, "pre-wipe")
        for replica in rset.replicas:
            replica.masm.flush_buffer()
        rset.wipe_replica(2)  # total node loss: SSD files AND heap gone
        assert rset.replica(2).state is ReplicaState.CRASHED
        apply_mixed(rset, model, 20, "while-wiped")
        rset.rejoin(2)  # transparently falls back to a snapshot bootstrap
        assert rset.replica(2).state is ReplicaState.ONLINE
        assert get_registry().counter("replication.bootstraps").value == 1
        assert_replicas_identical(rset, model, "after wipe bootstrap")
        # The bootstrapped node is a first-class replica: more churn and
        # its own checkpoint cycle keep it byte-identical.
        apply_mixed(rset, model, 15, "post-bootstrap")
        for replica in rset.replicas:
            replica.masm.flush_buffer()
        rset.maintenance(force_checkpoint=True)
        assert_replicas_identical(rset, model, "bootstrapped + checkpointed")


def test_truncation_past_watermark_forces_bootstrap():
    with use_registry():
        from repro.obs import get_registry

        rset, model = build_set()
        apply_mixed(rset, model, 30, "before")
        rset.crash_replica(1)
        # Churn + checkpoint while it is down: the primary's WAL prefix
        # the laggard would need is truncated away.
        apply_mixed(rset, model, 30, "while-down")
        for replica in rset.replicas:
            if replica.state is ReplicaState.ONLINE:
                replica.masm.flush_buffer()
        rset.maintenance(force_checkpoint=True)
        assert rset.primary.masm.redo_log.truncated_through > 0
        rset.rejoin(1)  # incremental catch-up impossible -> bootstrap
        assert get_registry().counter("replication.bootstraps").value == 1
        assert_replicas_identical(rset, model, "bootstrap past truncation")


def test_total_outage_is_typed_retryable_then_bootstrap_restores_service():
    """Satellite: every replica down surfaces as a *typed, retryable*
    error through the serving front door, and a recovery + snapshot
    bootstrap restores byte-identical service."""
    with use_registry():
        warehouse, model, clock = build_warehouse(
            num_shards=2, replication=2
        )
        warehouse_mixed(warehouse, model, 60, "pre-outage")
        warehouse.flush_all()
        door = FrontDoor(
            ReplicatedBackend(warehouse, scope="test.outage"),
            scope="test.outage",
            keep_records=True,
        )
        baseline = door.query("t", 0, 8 * ROWS, seq=0)
        assert list(baseline.records) == model.snapshot_records(
            baseline.query_ts, 0, 8 * ROWS
        )
        # Take down EVERY replica of shard 0: the shard is gone, not slow.
        warehouse.crash_replica(0, 0)
        warehouse.crash_replica(0, 1)
        with pytest.raises(NoHealthyReplicaError) as excinfo:
            door.query("t", 0, 8 * ROWS, seq=1)
        assert excinfo.value.retryable  # clients may back off and retry
        # The last replica to crash rejoins first (it holds every
        # acknowledged update) and is promoted straight from its own WAL
        # recovery; the other was wiped and bootstraps from it.
        warehouse.rejoin_replica(0, 1)
        warehouse.wipe_replica(0, 0)
        warehouse.bootstrap_replica(0, 0)
        after = door.query("t", 0, 8 * ROWS, seq=2)
        assert list(after.records) == model.snapshot_records(
            after.query_ts, 0, 8 * ROWS
        )
        assert not after.partial


# ------------------------------------------------- replicated fan-out (router)
def build_warehouse(num_shards=2, replication=3, node_faults=None):
    clock = SimClock()
    warehouse = ReplicatedWarehouse(
        SCHEMA,
        num_shards,
        clock,
        replication=replication,
        records_per_node=4 * ROWS,
        node_faults=node_faults,
    )
    base = [(i * 2, f"rec-{i}") for i in range(num_shards * ROWS)]
    warehouse.bulk_load(base)
    model = ModelTable(SCHEMA, base)
    return warehouse, model, clock


def warehouse_mixed(warehouse, model, count, tag):
    rng = random.Random(f"{SEED}:{tag}")
    hi_key = 4 * ROWS * warehouse.num_shards
    for i in range(count):
        state = model.snapshot(2**62)
        live = sorted(state)
        ts = warehouse.oracle.next()
        roll = rng.random()
        if roll < 0.3:
            key = rng.randrange(1, hi_key, 2)
            kind = (
                UpdateType.MODIFY if key in state else UpdateType.INSERT
            )
            content = (
                {"payload": f"{tag}-{i}"}
                if kind is UpdateType.MODIFY
                else (key, f"{tag}-{i}")
            )
            update = UpdateRecord(ts, key, kind, content)
        elif roll < 0.45 and live:
            update = UpdateRecord(ts, rng.choice(live), UpdateType.DELETE, None)
        else:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.MODIFY,
                {"payload": f"{tag}-{i}"},
            )
        warehouse.shards[warehouse.route(update.key)].apply(update)
        model.record(update)


def test_router_failover_returns_identical_rows():
    with use_registry():
        plan = NodeFaultPlan()
        warehouse, model, clock = build_warehouse(
            node_faults={(0, 0): plan}
        )
        warehouse_mixed(warehouse, model, 80, "router")
        warehouse.flush_all()
        router = RequestRouter(
            ReplicatedBackend(warehouse, scope="test.failover"),
            scope="test.failover",
            keep_records=True,
        )
        hi = 8 * ROWS
        baseline = router.execute(
            QueryRequest("t", 0, 0, 0, hi, arrival=clock.now)
        )
        assert baseline.records == tuple(
            model.snapshot_records(baseline.query_ts, 0, hi)
        )
        plan.crash_at = clock.now  # kill shard 0's primary under the router
        failed_over = router.execute(
            QueryRequest("t", 0, 1, 0, hi, arrival=clock.now)
        )
        assert failed_over.records == tuple(
            model.snapshot_records(failed_over.query_ts, 0, hi)
        )
        assert warehouse.shards[0].primary_id == 1


def test_hedged_read_same_snapshot_identical_rows():
    with use_registry():
        slow = NodeFaultPlan(slow_op_seconds=0.05)
        warehouse, model, clock = build_warehouse(
            num_shards=1, node_faults={(0, 0): slow}
        )
        warehouse_mixed(warehouse, model, 80, "hedge")
        warehouse.flush_all()
        health = FleetHealth(
            clock, scope="test.hedge", hedge=HedgePolicy(min_samples=2)
        )
        backend = ReplicatedBackend(
            warehouse, health=health, scope="test.hedge"
        )
        router = RequestRouter(
            backend, scope="test.hedge", keep_records=True
        )
        hi = 4 * ROWS
        for seq in range(3):  # warm the primary's latency tracker
            router.execute(QueryRequest("t", 0, seq, 0, hi, arrival=clock.now))
        slow.slow_at = clock.now  # brownout: primary drags, hedge fires
        result = router.execute(
            QueryRequest("t", 0, 9, 0, hi, arrival=clock.now)
        )
        assert result.records == tuple(
            model.snapshot_records(result.query_ts, 0, hi)
        )
        outcome = backend.fanout_scan(0, hi, warehouse.oracle.next())
        assert outcome.hedges >= 1
        assert outcome.hedge_wins >= 1
        assert outcome.records == model.snapshot_records(
            warehouse.oracle.current, 0, hi
        )


#: Keys in the 2 x 2 fleet the hedge-policy tests serve.
FLEET_ROWS = 4_000


def build_fleet(node_faults=None):
    """A 2-shard x 2-replica warehouse of dense keys with cached updates
    on every replica, and the model that shadows it."""
    clock = SimClock()
    warehouse = ReplicatedWarehouse(
        SCHEMA,
        2,
        clock,
        replication=2,
        records_per_node=FLEET_ROWS,
        node_faults=node_faults,
    )
    base = [(key, f"rec-{key}") for key in range(FLEET_ROWS)]
    warehouse.bulk_load(base)
    return warehouse, ModelTable(SCHEMA, base), clock


def modify_some(warehouse, model, rng, count, tag):
    for i in range(count):
        key = rng.randrange(FLEET_ROWS)
        update = UpdateRecord(
            warehouse.oracle.next(), key, UpdateType.MODIFY,
            {"payload": f"{tag}-{i}"},
        )
        warehouse.shards[warehouse.route(key)].apply(update)
        model.record(update)


def serve_ranges(router, warehouse, model, clock, rng, count, tag):
    """``count`` requests of 40-1000 records, each checked against the
    model at its pinned ts, with updates applied between them."""
    for seq in range(count):
        modify_some(warehouse, model, rng, 3, f"{tag}{seq}")
        length = rng.randrange(40, 1_001)
        lo = rng.randrange(FLEET_ROWS - length)
        result = router.execute(
            QueryRequest("t", 0, seq, lo, lo + length - 1, arrival=clock.now)
        )
        assert result.records == tuple(
            model.snapshot_records(result.query_ts, lo, lo + length - 1)
        ), f"{tag} request {seq} diverged"


def test_healthy_fleet_makes_no_hedges():
    """On a healthy fleet a scan's latency spread is seek distance, never a
    whole extra scan, so the break-even delay is never reached."""
    with use_registry() as registry:
        warehouse, model, clock = build_fleet()
        rng = random.Random(f"{SEED}:healthy")
        modify_some(warehouse, model, rng, 300, "warm")
        warehouse.flush_all()
        router = RequestRouter(
            ReplicatedBackend(warehouse, scope="test.healthy"),
            scope="test.healthy",
            keep_records=True,
        )
        serve_ranges(router, warehouse, model, clock, rng, 300, "healthy")
        assert registry.counter("test.healthy.requests").value == 300
        assert registry.counter("test.healthy.hedges").value == 0
        assert registry.counter("test.healthy.hedge_denied").value == 0


def test_brownout_after_warm_up_still_hedges_and_every_backup_wins():
    with use_registry() as registry:
        slow = NodeFaultPlan(slow_op_seconds=0.05)
        warehouse, model, clock = build_fleet(node_faults={(0, 0): slow})
        rng = random.Random(f"{SEED}:brownout")
        modify_some(warehouse, model, rng, 300, "warm")
        warehouse.flush_all()
        router = RequestRouter(
            ReplicatedBackend(warehouse, scope="test.brownout"),
            scope="test.brownout",
            keep_records=True,
        )
        serve_ranges(router, warehouse, model, clock, rng, 40, "before")
        hedges = registry.counter("test.brownout.hedges")
        assert hedges.value == 0
        slow.slow_at = clock.now  # shard 0's primary browns out
        serve_ranges(router, warehouse, model, clock, rng, 20, "during")
        assert hedges.value > 0
        assert registry.counter("test.brownout.hedge_wins").value == hedges.value
        assert registry.counter("test.brownout.hedge_losses").value == 0


def test_a_brownout_on_a_wide_request_is_hedged_in_full_at_onset():
    """A request with more shard scans than ``HEDGE_BURST`` meets a
    brownout: the budget's bucket is as deep as that request's fan-out, so
    every slow partition gets its backup and none is denied."""
    with use_registry() as registry:
        slow = NodeFaultPlan(slow_op_seconds=0.05)
        warehouse, model, clock = build_fleet(node_faults={(0, 0): slow})
        rng = random.Random(f"{SEED}:wide-brownout")
        modify_some(warehouse, model, rng, 8_000, "warm")
        warehouse.flush_all()
        backend = ReplicatedBackend(
            warehouse, blocks_per_partition=1, scope="test.wide"
        )
        router = RequestRouter(backend, scope="test.wide", keep_records=True)
        hi = FLEET_ROWS - 1
        assert len(backend._bounds(0, hi)) > HEDGE_BURST
        hedges = registry.counter("test.wide.hedges")
        for seq in range(12):
            if seq == 10:
                slow.slow_at = clock.now  # shard 0's primary browns out
            result = router.execute(
                QueryRequest("t", 0, seq, 0, hi, arrival=clock.now)
            )
            assert result.records == tuple(
                model.snapshot_records(result.query_ts, 0, hi)
            ), f"request {seq} diverged"
            if seq == 9:
                assert hedges.value == 0
            if seq == 10:
                assert hedges.value > HEDGE_BURST
        assert registry.counter("test.wide.hedge_denied").value == 0
        assert registry.counter("test.wide.hedge_wins").value == hedges.value


#: The deadline contract holds for an unreplicated cluster too.
REPLICATION = pytest.mark.parametrize("replication", [1, 3], ids=["r1", "r3"])


@REPLICATION
def test_strict_deadline_raises_typed(replication):
    with use_registry():
        warehouse, model, clock = build_warehouse(
            num_shards=1, replication=replication
        )
        warehouse_mixed(warehouse, model, 120, "strict")
        warehouse.flush_all()
        router = RequestRouter(
            ReplicatedBackend(
                warehouse, blocks_per_partition=1, scope="test.strict"
            ),
            scope="test.strict",
        )
        with pytest.raises(DeadlineExceededError) as excinfo:
            router.execute(
                QueryRequest("t", 0, 0, 0, 4 * ROWS, arrival=clock.now),
                deadline_policy=DeadlinePolicy(budget_seconds=1e-9),
            )
        assert excinfo.value.elapsed > excinfo.value.budget
        assert excinfo.value.retryable


@REPLICATION
def test_degraded_deadline_returns_partial_with_uncovered(replication):
    with use_registry():
        warehouse, model, clock = build_warehouse(
            num_shards=1, replication=replication
        )
        warehouse_mixed(warehouse, model, 120, "degraded")
        warehouse.flush_all()
        router = RequestRouter(
            ReplicatedBackend(
                warehouse, blocks_per_partition=1, scope="test.degraded"
            ),
            scope="test.degraded",
            keep_records=True,
        )
        hi = 4 * ROWS
        result = router.execute(
            QueryRequest("t", 0, 0, 0, hi, arrival=clock.now),
            deadline_policy=DeadlinePolicy(
                budget_seconds=1e-9, mode=DeadlineMode.DEGRADED
            ),
        )
        assert result.partial
        assert result.uncovered
        # Returned rows + rows inside the uncovered ranges must exactly
        # reassemble the full snapshot: nothing lost, nothing misleading.
        expected = model.snapshot_records(result.query_ts, 0, hi)

        def uncovered(key):
            return any(lo <= key <= hi_ for lo, hi_ in result.uncovered)

        assert list(result.records) == [
            r for r in expected if not uncovered(SCHEMA.key(r))
        ]


def test_frontdoor_threads_deadlines_and_counts():
    with use_registry():
        warehouse, model, clock = build_warehouse(num_shards=1)
        warehouse_mixed(warehouse, model, 120, "door")
        warehouse.flush_all()
        door = FrontDoor(
            ReplicatedBackend(
                warehouse, blocks_per_partition=1, scope="test.door"
            ),
            scope="test.door",
            deadlines={
                "strict": DeadlinePolicy(budget_seconds=1e-9),
                "soft": DeadlinePolicy(
                    budget_seconds=1e-9, mode=DeadlineMode.DEGRADED
                ),
            },
        )
        with pytest.raises(DeadlineExceededError):
            door.query("strict", 0, 4 * ROWS)
        result = door.query("soft", 0, 4 * ROWS, seq=1)
        assert result.partial
        report = door.tenant_report()
        assert report["strict"]["deadline_exceeded"] == 1
        assert report["soft"]["partial_results"] == 1
        # Tenants without a policy run unbounded, as before.
        complete = door.query("unbounded", 0, 4 * ROWS, seq=2)
        assert not complete.partial


# ---------------------------------------------------------------- quota jitter
def test_retry_after_jitter_spreads_the_herd():
    """Shed clients must not learn identical retry_after values."""
    from repro.server.quotas import TenantAdmission, TenantQuota, QuotaPolicy

    with use_registry():
        clock = SimClock()
        admission = TenantAdmission(
            clock,
            {"t": TenantQuota(rate=1.0, burst=1.0, policy=QuotaPolicy.SHED)},
            scope="test.jitter",
            seed=SEED,
        )
        assert admission.decide("t") == 0.0  # burst token
        retry_afters = []
        for _ in range(20):
            with pytest.raises(QuotaExceededError) as excinfo:
                admission.decide("t")
            retry_afters.append(excinfo.value.retry_after)
            clock.advance(1e-3)
        # All shed at (nearly) the same bucket state, yet the advertised
        # backoffs are spread out — no two clients wake in lockstep...
        assert len(set(round(r, 9) for r in retry_afters)) == len(retry_afters)
        # ...and every backoff stays within [wait, 2 * wait]: positive and
        # bounded, never shorter than the true token wait.
        assert all(0.0 < r <= 2.0 + 1e-9 for r in retry_afters)

        # Same seed, same spread: the jitter is deterministic.
        clock2 = SimClock()
        again = TenantAdmission(
            clock2,
            {"t": TenantQuota(rate=1.0, burst=1.0, policy=QuotaPolicy.SHED)},
            scope="test.jitter2",
            seed=SEED,
        )
        again.decide("t")
        replay = []
        for _ in range(20):
            with pytest.raises(QuotaExceededError) as excinfo:
                again.decide("t")
            replay.append(excinfo.value.retry_after)
            clock2.advance(1e-3)
        assert replay == retry_afters


def test_followers_keep_pace_with_their_primarys_run_merges():
    """A follower's runs are merged in maintenance once its primary's scans
    merged (not only when a hedge or failover happens to scan it)."""
    with use_registry():
        rset, model = build_set()
        budget = rset.primary.masm.params.query_pages
        tag = 0
        while len(rset.replica(1).masm.runs) <= budget:
            apply_mixed(rset, model, 6, f"run-{tag}")
            for replica in rset.replicas:
                replica.masm.flush_buffer()
            tag += 1
        follower_runs = [len(r.masm.runs) for r in rset.replicas[1:]]
        rset.maintenance()  # the primary merged nothing: followers untouched
        assert [len(r.masm.runs) for r in rset.replicas[1:]] == follower_runs
        query_ts = rset.oracle.next()
        expected = model.snapshot_records(query_ts, 0, 4 * ROWS)
        assert list(rset.scan(0, 4 * ROWS, query_ts)) == expected
        assert rset.primary.masm.stats.runs_merged > 0  # the scan's preamble
        rset.maintenance()
        assert all(len(r.masm.runs) <= budget for r in rset.replicas)
        assert_replicas_identical(rset, model, "followers merged in maintenance")
        merged = [r.masm.stats.runs_merged for r in rset.replicas[1:]]
        rset.maintenance()  # nothing new on the primary: no further merges
        assert [r.masm.stats.runs_merged for r in rset.replicas[1:]] == merged
