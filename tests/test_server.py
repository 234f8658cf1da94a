"""The serving front door: quotas, snapshot routing, the session loop.

``MASM_SERVING_SEED`` selects the session seed (CI runs two fixed seeds);
the assertions are written to hold for *any* seed — determinism checks
compare two runs at the same seed rather than pinning golden values.
"""

import os

import pytest

from repro.core.replication import ReplicatedWarehouse
from repro.engine.record import synthetic_schema
from repro.errors import QuotaExceededError
from repro.obs import MetricsRegistry, use_registry
from repro.server import (
    ArrivalKind,
    FrontDoor,
    QuotaPolicy,
    ReplicatedBackend,
    SessionManager,
    SessionMode,
    SessionSpec,
    TenantAdmission,
    TenantQuota,
)
from repro.storage.clock import SimClock

pytestmark = pytest.mark.serving

#: CI exercises two fixed seeds (see .github/workflows/ci.yml).
SEED = int(os.environ.get("MASM_SERVING_SEED", "7"))

SCHEMA = synthetic_schema()


def build_warehouse(n=300, nodes=2, cached_updates=40):
    warehouse = ReplicatedWarehouse(
        SCHEMA, nodes, SimClock(), replication=1, records_per_node=n
    )
    warehouse.bulk_load((i * 2, f"rec-{i}") for i in range(nodes * n))
    for i in range(cached_updates):
        warehouse.modify(i * 4, {"payload": f"patched-{i}"})
    warehouse.flush_all()
    return warehouse


# ------------------------------------------------------------------- quotas
def test_quota_validates_parameters():
    with pytest.raises(ValueError):
        TenantQuota(rate=0.0)
    with pytest.raises(ValueError):
        TenantQuota(rate=1.0, burst=0.5)
    with pytest.raises(ValueError):
        TenantQuota(rate=1.0, max_delay_seconds=-0.1)


def test_admission_burst_then_delay_then_shed():
    clock = SimClock()
    admission = TenantAdmission(
        clock,
        {"t": TenantQuota(rate=1.0, burst=2.0, max_delay_seconds=2.0)},
        scope="test.admission",
    )
    # The full burst is admitted back-to-back...
    assert admission.decide("t") == 0.0
    assert admission.decide("t") == 0.0
    # ...then DELAY: a positive reschedule wait, not a block.
    wait = admission.decide("t")
    assert 0.0 < wait <= 1.0
    clock.advance(wait)
    assert admission.decide("t", waited=wait) == 0.0  # token accrued


def test_admission_delay_budget_is_cumulative():
    clock = SimClock()
    admission = TenantAdmission(
        clock,
        {"t": TenantQuota(rate=1.0, burst=1.0, max_delay_seconds=0.5)},
        scope="test.budget",
    )
    assert admission.decide("t") == 0.0
    # A request that has already waited most of its budget is shed even
    # though a fresh request would merely be delayed.
    with pytest.raises(QuotaExceededError) as excinfo:
        admission.decide("t", waited=0.49)
    rejection = excinfo.value
    assert rejection.retryable is True
    assert rejection.tenant == "t"
    assert rejection.retry_after > 0.0


def test_admission_shed_policy_rejects_immediately():
    clock = SimClock()
    admission = TenantAdmission(
        clock,
        {"t": TenantQuota(rate=1.0, burst=1.0, policy=QuotaPolicy.SHED)},
        scope="test.shed",
    )
    assert admission.decide("t") == 0.0
    with pytest.raises(QuotaExceededError):
        admission.decide("t")
    report = admission.report()["t"]
    assert report["admitted"] == 1
    assert report["shed"] == 1
    assert report["delayed"] == 0


def test_unmetered_tenant_is_always_admitted():
    admission = TenantAdmission(SimClock(), scope="test.unmetered")
    for _ in range(100):
        assert admission.decide("anyone") == 0.0


def test_admission_bug_is_not_counted_as_a_rejection():
    """Only a quota decision is a tenant rejection; any other error raised
    by admission propagates untouched and leaves ``rejected`` alone."""
    with use_registry(MetricsRegistry()) as registry:
        warehouse = build_warehouse(n=10, cached_updates=0)
        frontdoor = FrontDoor(ReplicatedBackend(warehouse), scope="test.bug")
        rejected = registry.counter("test.bug.tenant.t.rejected")

        def broken(tenant, waited=0.0):
            raise RuntimeError("admission bug")

        frontdoor.admission.decide = broken
        with pytest.raises(RuntimeError, match="admission bug"):
            frontdoor.try_admit("t")
        assert rejected.value == 0


# ------------------------------------------------------------------- router
def test_warehouse_requires_shared_clock():
    with pytest.raises(ValueError, match="clock"):
        ReplicatedWarehouse(SCHEMA, 2, None, replication=1)


def test_request_draws_exactly_one_snapshot_timestamp():
    warehouse = build_warehouse()
    frontdoor = FrontDoor(ReplicatedBackend(warehouse))
    before = warehouse.oracle.current
    frontdoor.query("t", 0, 10**9)
    # One timestamp per request, however many partitions the scan fans
    # out into.
    assert warehouse.oracle.current == before + 1


def test_request_rows_match_direct_scan_at_its_snapshot():
    warehouse = build_warehouse()
    frontdoor = FrontDoor(ReplicatedBackend(warehouse))
    result = frontdoor.query("t", 100, 700)
    reference = list(
        warehouse.partitioned_range_scan(100, 700, query_ts=result.query_ts)
    )
    assert result.rows == len(reference) > 0
    assert result.finished >= result.started
    assert result.latency_seconds >= result.service_seconds


def test_frontdoor_query_pays_delay_on_the_clock():
    warehouse = build_warehouse(cached_updates=0)
    frontdoor = FrontDoor(
        ReplicatedBackend(warehouse),
        quotas={"t": TenantQuota(rate=0.5, burst=1.0, max_delay_seconds=10.0)},
    )
    frontdoor.query("t", 0, 100)
    before = frontdoor.clock.now
    frontdoor.query("t", 0, 100)  # bucket empty: the lone caller waits
    assert frontdoor.clock.now > before
    report = frontdoor.tenant_report()["t"]
    assert report["requests"] == 2
    assert report["delayed"] >= 1
    for key in ("latency_p50_ms", "latency_p99_ms", "latency_p999_ms"):
        assert report[key] >= 0.0


# ------------------------------------------------------------ session specs
def test_session_spec_validation():
    with pytest.raises(ValueError):
        SessionSpec(tenant="t", sessions=0, requests=1)
    with pytest.raises(ValueError):
        SessionSpec(tenant="t", sessions=1, requests=0)
    with pytest.raises(ValueError):
        SessionSpec(tenant="t", sessions=1, requests=1, rate=0.0)
    with pytest.raises(ValueError):
        SessionSpec(tenant="t", sessions=1, requests=1, write_fraction=1.5)


def test_write_fraction_requires_write_op():
    warehouse = build_warehouse(cached_updates=0)
    frontdoor = FrontDoor(ReplicatedBackend(warehouse))
    spec = SessionSpec(
        tenant="t", sessions=1, requests=1, write_fraction=1.0
    )
    with pytest.raises(ValueError, match="write_op"):
        SessionManager(frontdoor, [spec], key_universe=1000)


# ------------------------------------------------------------- session loop
def _mixed_specs(requests=3):
    return [
        SessionSpec(
            tenant="open-poisson",
            sessions=8,
            requests=requests,
            mode=SessionMode.OPEN,
            rate=2.0,
            arrivals=ArrivalKind.POISSON,
            range_records=16,
        ),
        SessionSpec(
            tenant="open-bursty",
            sessions=6,
            requests=requests,
            mode=SessionMode.OPEN,
            rate=4.0,
            arrivals=ArrivalKind.BURSTY,
            burst_len=3,
            idle_seconds=2.0,
            range_records=16,
        ),
        SessionSpec(
            tenant="closed",
            sessions=4,
            requests=requests,
            mode=SessionMode.CLOSED,
            think_seconds=0.5,
            range_records=8,
        ),
    ]


def _run_population(quotas=None, specs=None, write_op_factory=None, seed=SEED):
    """One full manager run in a fresh registry; returns (stats, report)."""
    with use_registry(MetricsRegistry()):
        warehouse = build_warehouse()
        frontdoor = FrontDoor(
            ReplicatedBackend(warehouse), quotas=quotas, scope="test.serving"
        )
        manager = SessionManager(
            frontdoor,
            specs if specs is not None else _mixed_specs(),
            key_universe=2 * 2 * 300,
            seed=seed,
            write_op=write_op_factory(warehouse) if write_op_factory else None,
        )
        stats = manager.run()
        return stats, frontdoor.tenant_report()


def test_session_loop_drains_every_request():
    stats, report = _run_population()
    expected = sum(s.sessions * s.requests for s in _mixed_specs())
    assert stats.executed == expected
    assert stats.shed == 0
    # Every dispatch is accounted for: executions, writes, sheds, parks.
    assert stats.dispatched == (
        stats.executed + stats.writes + stats.shed + stats.reschedules
    )
    assert stats.rows > 0
    assert stats.elapsed > 0.0
    for tenant in ("open-poisson", "open-bursty", "closed"):
        surface = report[tenant]
        assert surface["requests"] > 0
        assert surface["latency_p99_ms"] >= surface["latency_p50_ms"] >= 0.0


def test_session_loop_is_deterministic_at_a_seed():
    first = _run_population(seed=SEED)
    second = _run_population(seed=SEED)
    assert first[0].to_dict() == second[0].to_dict()
    assert first[1] == second[1]
    different = _run_population(seed=SEED + 1)
    assert different[0].to_dict() != first[0].to_dict()


def test_closed_loop_sessions_retry_after_shed():
    specs = [
        SessionSpec(
            tenant="t",
            sessions=4,
            requests=4,
            mode=SessionMode.CLOSED,
            think_seconds=0.01,
            range_records=8,
            max_retries=2,
        )
    ]
    quotas = {
        "t": TenantQuota(rate=0.2, burst=1.0, policy=QuotaPolicy.SHED)
    }
    stats, report = _run_population(quotas=quotas, specs=specs)
    assert stats.shed > 0
    assert stats.retries > 0  # closed-loop clients back off and resubmit
    assert report["t"]["rejected"] == stats.shed


def test_open_loop_sessions_drop_shed_requests():
    specs = [
        SessionSpec(
            tenant="t",
            sessions=6,
            requests=4,
            mode=SessionMode.OPEN,
            rate=50.0,
            arrivals=ArrivalKind.POISSON,
            range_records=8,
        )
    ]
    quotas = {
        "t": TenantQuota(rate=1.0, burst=2.0, policy=QuotaPolicy.SHED)
    }
    stats, _ = _run_population(quotas=quotas, specs=specs)
    assert stats.shed > 0
    assert stats.retries == 0  # the flood keeps coming; no resubmission
    assert stats.executed + stats.shed == 6 * 4


def test_delay_quota_parks_and_eventually_serves():
    specs = [
        SessionSpec(
            tenant="t",
            sessions=4,
            requests=3,
            mode=SessionMode.OPEN,
            rate=50.0,
            arrivals=ArrivalKind.POISSON,
            range_records=8,
        )
    ]
    quotas = {
        "t": TenantQuota(rate=5.0, burst=1.0, max_delay_seconds=60.0)
    }
    stats, report = _run_population(quotas=quotas, specs=specs)
    assert stats.reschedules > 0  # DELAY came back as parks, not blocks
    assert stats.shed == 0  # the budget was roomy enough to serve them all
    assert stats.executed == 4 * 3
    assert report["t"]["delayed"] == stats.reschedules


def test_write_requests_ride_the_same_surfaces():
    def write_op_factory(warehouse):
        def write(rng):
            key = 2 * rng.randrange(0, 600)
            warehouse.modify(key, {"payload": "written"})
            return 1

        return write

    specs = [
        SessionSpec(
            tenant="t",
            sessions=3,
            requests=4,
            mode=SessionMode.CLOSED,
            think_seconds=0.1,
            write_fraction=1.0,
        )
    ]
    stats, report = _run_population(
        specs=specs, write_op_factory=write_op_factory
    )
    assert stats.writes == 3 * 4
    assert stats.executed == 0
    assert stats.rows == stats.writes  # write_op reported one row each
    assert report["t"]["requests"] == stats.writes
