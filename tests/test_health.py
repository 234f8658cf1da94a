"""Failure detection: circuit breakers, latency trackers, route order."""

import pytest

from repro.core.replication import ReplicatedWarehouse
from repro.engine.record import synthetic_schema
from repro.obs import use_registry
from repro.server import ReplicatedBackend
from repro.server.health import (
    HEDGE_BUDGET_RATIO,
    HEDGE_BURST,
    BreakerState,
    CircuitBreaker,
    FleetHealth,
    HedgeBudget,
    HedgePolicy,
    LatencyTracker,
)
from repro.storage.clock import SimClock
from repro.storage.faults import NodeFaultPlan

pytestmark = pytest.mark.chaos


# ------------------------------------------------------------ circuit breaker
def test_breaker_validates_parameters():
    clock = SimClock()
    with pytest.raises(ValueError):
        CircuitBreaker(clock, failure_threshold=0)
    with pytest.raises(ValueError):
        CircuitBreaker(clock, reset_seconds=0.0)


def test_breaker_opens_on_consecutive_failures_only():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=3, reset_seconds=1.0)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()  # resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert not breaker.allow()


def test_breaker_half_open_probe_success_closes():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, reset_seconds=1.0)
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    clock.advance(1.0)
    # First caller past the reset window is the probe...
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    # ...and concurrent callers keep failing fast while it is out.
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_breaker_half_open_probe_failure_reopens():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, reset_seconds=1.0)
    breaker.record_failure()
    clock.advance(1.0)
    assert breaker.allow()  # the probe
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    # A fresh full reset window starts from the probe failure.
    assert not breaker.allow()
    clock.advance(1.0)
    assert breaker.allow()


def test_would_allow_is_pure():
    clock = SimClock()
    breaker = CircuitBreaker(clock, failure_threshold=1, reset_seconds=1.0)
    breaker.record_failure()
    clock.advance(1.0)
    # Peeking does not claim the probe or transition state...
    assert breaker.would_allow()
    assert breaker.would_allow()
    assert breaker.state is BreakerState.OPEN
    # ...so the real attempt still gets it.
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.would_allow()  # probe out: peek says no


# ------------------------------------------------------------ latency tracker
def test_tracker_warms_up_before_hedging():
    tracker = LatencyTracker(min_samples=4)
    for _ in range(3):
        tracker.observe(0.010)
    assert tracker.hedge_delay(3.0, 1e-4) is None
    tracker.observe(0.010)
    delay = tracker.hedge_delay(3.0, 1e-4)
    assert delay is not None
    # Identical samples: deviation ~0, and the backup scan is priced at
    # this replica's mean, so the delay is two means.
    assert delay == pytest.approx(0.020, rel=0.05)


def test_tracker_deviation_raises_delay():
    steady = LatencyTracker(min_samples=4)
    jittery = LatencyTracker(min_samples=4)
    for i in range(20):
        steady.observe(0.010)
        jittery.observe(0.010 if i % 2 else 0.030)
    assert jittery.hedge_delay(3.0, 1e-4) > steady.hedge_delay(3.0, 1e-4)


def test_tracker_floor_guards_near_zero_ewma():
    tracker = LatencyTracker(min_samples=2)
    for _ in range(8):
        tracker.observe(1e-9)
    assert tracker.hedge_delay(3.0, 1e-4) == 1e-4


def test_delay_is_the_break_even_point_of_a_synchronous_hedge():
    """This scan's predicted time, plus a backup scan's priced at this
    replica's, plus k deviations."""
    tracker = LatencyTracker(min_samples=4)
    for i in range(20):
        tracker.observe(0.010 if i % 2 else 0.030)
    assert tracker.deviation > 0
    assert tracker.hedge_delay(3.0, 1e-4) == pytest.approx(
        tracker.mean + tracker.mean + 3.0 * tracker.deviation
    )


# --------------------------------------------------------------- hedge budget
def test_budget_grants_the_burst_then_paces_by_attempts():
    with use_registry() as registry:
        budget = HedgeBudget("test.budget", ratio=0.25, burst=2.0)
        assert [budget.spend() for _ in range(3)] == [True, True, False]
        for _ in range(3):
            budget.earn()
        assert not budget.spend()  # 0.75 tokens: not yet a whole backup
        budget.earn()
        assert budget.spend()
        for _ in range(100):
            budget.earn()
        assert budget.tokens == 2.0  # refill stops at the burst
        assert registry.counter("test.budget.hedge_granted").value == 3
        assert registry.counter("test.budget.hedge_denied").value == 2


def test_budget_covers_the_widest_request_with_a_full_bucket():
    with use_registry():
        budget = HedgeBudget("test.cover", ratio=0.25, burst=2.0)
        assert budget.spend()
        budget.cover(2)  # no wider than the burst: nothing changes
        assert (budget.burst, budget.tokens) == (2.0, 1.0)
        budget.cover(6)  # the added depth arrives full
        assert (budget.burst, budget.tokens) == (6, 5.0)
        budget.cover(4)  # a narrower request never shrinks the bucket
        assert budget.burst == 6
        assert [budget.spend() for _ in range(6)] == [True] * 5 + [False]


# --------------------------------------------------------------- fleet health
def test_route_order_primary_first_blocked_last():
    clock = SimClock()
    fleet = FleetHealth(clock, scope="test.fleet", failure_threshold=1)
    assert fleet.route_order(0, 1, [0, 1, 2]) == [1, 0, 2]
    # Open the primary's breaker: it sorts to the back, but stays listed
    # (a fully-open shard still deserves one last-resort attempt).
    fleet.for_replica(0, 1).failure()
    assert fleet.route_order(0, 1, [0, 1, 2]) == [0, 2, 1]


def test_route_order_does_not_claim_probe():
    clock = SimClock()
    fleet = FleetHealth(
        clock, scope="test.fleet2", failure_threshold=1, reset_seconds=0.5
    )
    fleet.for_replica(0, 0).failure()
    clock.advance(0.5)
    for _ in range(3):  # ordering peeks; the probe must survive all of them
        fleet.route_order(0, 0, [0, 1])
    assert fleet.for_replica(0, 0).breaker.state is BreakerState.OPEN
    assert fleet.for_replica(0, 0).allow()  # the actual attempt probes


def test_hedge_disabled_policy():
    clock = SimClock()
    fleet = FleetHealth(
        clock, scope="test.fleet3", hedge=HedgePolicy(enabled=False)
    )
    for _ in range(20):
        fleet.for_replica(0, 0).success(0.01)
    assert fleet.hedge_delay(0, 0) is None


def test_fleet_report_shape():
    clock = SimClock()
    fleet = FleetHealth(clock, scope="test.fleet4", failure_threshold=1)
    fleet.for_replica(0, 0).success(0.02)
    fleet.for_replica(0, 1).failure()
    report = fleet.report()
    assert report["0.0"]["state"] == "closed"
    assert report["0.1"]["state"] == "open"
    assert report["0.0"]["samples"] == 1


# ------------------------------------------------- hedge budget under a fleet
def test_hedge_budget_caps_backups_of_an_always_slow_replica():
    """While a slow primary's tracker still remembers it fast, every scan
    on it wants a backup; the budget grants at most its burst plus its
    share of attempts and counts the rest."""
    with use_registry() as registry:
        clock = SimClock()
        slow = NodeFaultPlan(slow_op_seconds=0.05)
        warehouse = ReplicatedWarehouse(
            synthetic_schema(),
            1,
            clock,
            replication=2,
            records_per_node=2_000,
            node_faults={(0, 0): slow},
        )
        warehouse.bulk_load((key, f"rec-{key}") for key in range(2_000))
        policy = HedgePolicy(min_samples=1, min_delay_seconds=1e-6)
        backend = ReplicatedBackend(
            warehouse,
            health=FleetHealth(clock, scope="test.budgeted", hedge=policy),
            blocks_per_partition=1,
            scope="test.budgeted",
        )
        attempts = []
        attempt = backend._attempt

        def counted(*args):
            attempts.append(args[:2])
            return attempt(*args)

        backend._attempt = counted
        backend.fanout_scan(0, 1_999, warehouse.oracle.next())  # warm, fast
        slow.slow_at = clock.now
        for _ in range(10):
            outcome = backend.fanout_scan(0, 1_999, warehouse.oracle.next())
            assert len(outcome.records) == 2_000
        hedges = registry.counter("test.budgeted.hedges").value
        denied = registry.counter("test.budgeted.hedge_denied").value
        # No request here is wider than the burst, so it is the bucket.
        assert backend.health.budget.burst == HEDGE_BURST
        assert 0 < hedges <= HEDGE_BUDGET_RATIO * len(attempts) + HEDGE_BURST
        assert denied > 0
        assert registry.counter("test.budgeted.hedge_granted").value == hedges
