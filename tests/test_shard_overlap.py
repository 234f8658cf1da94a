"""A partition's shards scan concurrently on the simulated timeline.

The shards of a :class:`ReplicatedWarehouse` share no device, so the router
forks the clock per shard (``SimClock.concurrently``): every shard's branch
starts where the partition starts and the partition costs its slowest
shard.  Each branch must still see exactly the timeline it would see alone
-- its own fault plan, deadline checks, hedge decisions and tracker samples
-- which is what these tests pin.  Every world is built deterministically,
so a twin world built the same way measures the per-shard drain times a
test then sets its deadlines and crash instants against.
"""

import pytest

from repro.core.replication import ReplicatedWarehouse
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import DeadlineExceededError
from repro.obs import use_registry
from repro.server import (
    DeadlineMode,
    DeadlinePolicy,
    FleetHealth,
    HedgePolicy,
    QueryRequest,
    ReplicatedBackend,
    RequestRouter,
)
from repro.sim.model import ModelTable
from repro.storage.clock import SimClock
from repro.storage.faults import NodeFaultPlan

pytestmark = [pytest.mark.serving, pytest.mark.chaos]

SCHEMA = synthetic_schema()
ROWS = 2_000
#: The browned-out shard: its primary charges SLOW_OP per fault-plan check.
SLOW, FAST = 0, 1
SLOW_OP = 0.004
NO_HEDGE = HedgePolicy(enabled=False)
ONE_PARTITION = 10**6


class TimedBackend(ReplicatedBackend):
    """Records each shard branch's simulated start and drain time."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.branches: list = []

    def _scan_shard(self, shard_id, lo, hi, query_ts, deadline, outcome):
        began = self.clock.now
        try:
            return super()._scan_shard(shard_id, lo, hi, query_ts, deadline, outcome)
        finally:
            self.branches.append((shard_id, began, self.clock.now - began))

    def drains(self) -> dict:
        return {shard_id: took for shard_id, _, took in self.branches}


def build(plans=None, hedge=NO_HEDGE, blocks_per_partition=ONE_PARTITION, every=5):
    """2 shards x 2 replicas of dense keys, cached updates (one per
    ``every`` keys) in runs on every replica; ``plans`` maps (shard,
    replica) to a NodeFaultPlan."""
    clock = SimClock()
    warehouse = ReplicatedWarehouse(
        SCHEMA,
        2,
        clock,
        replication=2,
        records_per_node=ROWS,
        node_faults=plans,
    )
    base = [(key, f"rec-{key}") for key in range(ROWS)]
    warehouse.bulk_load(base)
    model = ModelTable(SCHEMA, base)
    for key in range(0, ROWS, every):
        update = UpdateRecord(
            warehouse.oracle.next(), key, UpdateType.MODIFY, {"payload": f"m{key}"}
        )
        warehouse.shards[warehouse.route(key)].apply(update)
        model.record(update)
    warehouse.flush_all()
    backend = TimedBackend(
        warehouse,
        health=FleetHealth(clock, scope="test.overlap", hedge=hedge),
        blocks_per_partition=blocks_per_partition,
        scope="test.overlap",
    )
    router = RequestRouter(backend, scope="test.overlap", keep_records=True)
    return warehouse, model, clock, backend, router


def brownout():
    return {(SLOW, 0): NodeFaultPlan(slow_at=0.0, slow_op_seconds=SLOW_OP)}


def request(clock, seq=0, hi=ROWS - 1):
    return QueryRequest("t", 0, seq, 0, hi, arrival=clock.now)


def assert_rows(result, model, hi=ROWS - 1):
    assert result.records == tuple(model.snapshot_records(result.query_ts, 0, hi))


def twin_drains(plans=None, **kwargs) -> dict:
    """Per-shard drain times of one full-range request in a fresh world."""
    with use_registry():
        _, model, clock, backend, router = build(plans, **kwargs)
        assert_rows(router.execute(request(clock)), model)
        return backend.drains()


def test_a_request_costs_its_slowest_shard():
    with use_registry():
        _, model, clock, backend, router = build(brownout())
        result = router.execute(request(clock))
    assert_rows(result, model)
    drains = backend.drains()
    assert [began for _, began, _ in backend.branches] == [result.started] * 2
    assert drains[SLOW] > drains[FAST] > 0
    assert result.service_seconds == pytest.approx(drains[SLOW], rel=1e-12)
    assert result.service_seconds < drains[SLOW] + drains[FAST]


def test_a_strict_budget_between_max_and_sum_now_holds():
    """A serial fan-out checks the fast shard's strides after the slow
    shard's whole drain, so it overruns this budget; the concurrent one
    never sees more than the slow shard's own elapsed time, which still
    overruns a budget of the fast shard's drain."""
    drains = twin_drains(brownout())
    budget = drains[SLOW] + drains[FAST] / 2
    assert max(drains.values()) < budget < sum(drains.values())
    with use_registry():
        _, model, clock, _, router = build(brownout())
        result = router.execute(
            request(clock), deadline_policy=DeadlinePolicy(budget_seconds=budget)
        )
    assert_rows(result, model)
    assert not result.partial
    assert result.service_seconds <= budget
    with use_registry():
        _, _, clock, _, router = build(brownout())
        with pytest.raises(DeadlineExceededError):
            router.execute(
                request(clock),
                deadline_policy=DeadlinePolicy(budget_seconds=drains[FAST]),
            )


def test_a_degraded_overrun_on_the_slow_shard_uncovers_exact_ranges():
    """Partitions stay serial: the budget covers the partitions before k and
    the fast shard of partition k, the slow shard of partition k overruns,
    and the request returns the rows before k and partitions k.. as
    uncovered."""
    world = dict(blocks_per_partition=1, every=1)
    with use_registry():
        _, model, clock, backend, router = build(brownout(), **world)
        bounds = backend._bounds(0, ROWS - 1)
        router.execute(request(clock))
        branches = backend.branches
    # The first partition after partition 0 wide enough for several
    # strides on each shard.
    k = next(i for i, (lo, hi) in enumerate(bounds) if i and hi - lo > 8 * 64)
    took = {(i // 2, shard): t for i, (shard, _, t) in enumerate(branches)}
    assert took[k, SLOW] > took[k, FAST]
    budget = sum(max(took[i, SLOW], took[i, FAST]) for i in range(k))
    budget += took[k, FAST]
    with use_registry():
        _, model, clock, backend, router = build(brownout(), **world)
        result = router.execute(
            request(clock),
            deadline_policy=DeadlinePolicy(
                budget_seconds=budget, mode=DeadlineMode.DEGRADED
            ),
        )
    assert result.partial
    assert result.uncovered == tuple(bounds[k:])
    covered_hi = bounds[k][0] - 1
    assert result.records == tuple(
        model.snapshot_records(result.query_ts, 0, covered_hi)
    )


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "after"])
def test_a_crash_is_seen_at_its_own_shards_branch_time(inside):
    """The fast shard's primary crashes inside the request window.  Inside
    the fast branch's own window the scan fails over; after that branch
    finished (but before the slow shard did) it does not see the crash, a
    serial fan-out would have."""
    drains = twin_drains(brownout())
    assert drains[SLOW] > 2 * drains[FAST]
    with use_registry() as registry:
        warehouse, model, clock, _, router = build(brownout())
        crash = NodeFaultPlan()
        warehouse.shards[FAST].replicas[0].faults = crash
        started = clock.now
        crash.crash_at = started + (
            drains[FAST] / 2 if inside else (drains[FAST] + drains[SLOW]) / 2
        )
        result = router.execute(request(clock))
        assert_rows(result, model)
        assert result.finished > crash.crash_at
        failovers = registry.counter("test.overlap.read_failovers").value
    fast = warehouse.shards[FAST]
    if inside:
        assert failovers == 1
        assert fast.replicas[0].state.value == "crashed"
        assert fast.primary_id == 1
    else:
        assert failovers == 0
        assert fast.replicas[0].state.value == "online"
        assert fast.primary_id == 0


def test_a_hedge_on_the_slow_shard_leaves_the_fast_shards_tracker_alone():
    """The slow shard hedges once; the fast shard's tracker learns its own
    drain, timed from the partition's start."""
    eager = HedgePolicy(min_samples=1, min_delay_seconds=1e-6)
    slow = NodeFaultPlan(slow_op_seconds=SLOW_OP)
    with use_registry() as registry:
        _, model, clock, backend, router = build({(SLOW, 0): slow}, hedge=eager)
        assert_rows(router.execute(request(clock)), model)  # warm both trackers
        for shard_id in (SLOW, FAST):
            backend.health.for_replica(shard_id, 0).tracker.alpha = 1.0
        slow.slow_at = clock.now
        backend.branches.clear()
        result = router.execute(request(clock, seq=1))
        hedges = registry.counter("test.overlap.hedges").value
        wins = registry.counter("test.overlap.hedge_wins").value
    assert_rows(result, model)
    assert (hedges, wins) == (1, 1)
    drains = backend.drains()
    report = backend.health.report()
    assert report["%d.0" % FAST]["latency_mean"] == pytest.approx(
        drains[FAST], rel=1e-12
    )
    assert report["%d.0" % FAST]["samples"] == 2
    assert drains[FAST] < drains[SLOW]
    assert result.service_seconds == pytest.approx(drains[SLOW], rel=1e-12)
