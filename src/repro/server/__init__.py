"""Multi-tenant query serving over the MaSM engine.

The serving layer turns the single-caller
:class:`~repro.core.replication.ReplicatedWarehouse` into a query
*service*: a session manager drives thousands of simulated clients
(open-loop Poisson/bursty and closed-loop think-time) on one shared
:class:`SimClock`; a request router executes each admitted request under
exactly one snapshot timestamp via the :class:`ReplicatedBackend`
key-range-partitioned fan-out/merge executor; per-tenant token-bucket
quotas decide, per request, between ADMIT, DELAY (a reschedule interval —
the event loop never blocks) and SHED (a typed retryable
:class:`~repro.errors.QuotaExceededError`).  All outcomes land in ``repro.obs`` so every run exports per-tenant
p50/p99/p999 latency surfaces, queue depths and shed/delay counters.
"""

from repro.server.frontdoor import LATENCY_RESERVOIR, FrontDoor
from repro.server.health import (
    BreakerState,
    CircuitBreaker,
    FleetHealth,
    HedgePolicy,
    LatencyTracker,
    RepairQueue,
    ReplicaHealth,
)
from repro.server.quotas import QuotaPolicy, TenantAdmission, TenantQuota
from repro.server.router import (
    Deadline,
    DeadlineMode,
    DeadlinePolicy,
    FanoutOutcome,
    QueryRequest,
    QueryResult,
    ReplicatedBackend,
    RequestRouter,
)
from repro.server.session import (
    ArrivalKind,
    ServingStats,
    SessionManager,
    SessionMode,
    SessionSpec,
)

__all__ = [
    "ArrivalKind",
    "BreakerState",
    "CircuitBreaker",
    "Deadline",
    "DeadlineMode",
    "DeadlinePolicy",
    "FanoutOutcome",
    "FleetHealth",
    "FrontDoor",
    "HedgePolicy",
    "LATENCY_RESERVOIR",
    "LatencyTracker",
    "QueryRequest",
    "QueryResult",
    "QuotaPolicy",
    "RepairQueue",
    "ReplicaHealth",
    "ReplicatedBackend",
    "RequestRouter",
    "ServingStats",
    "SessionManager",
    "SessionMode",
    "SessionSpec",
    "TenantAdmission",
    "TenantQuota",
]
