"""The multi-tenant front door: admission + routing + latency surfaces.

``FrontDoor`` is what a client (or a simulated session) talks to.  It owns
the tenant admission table and the request router, and records every
client-visible outcome into the metrics registry under one unique scope:

* ``<scope>.tenant.<t>.latency_seconds`` — arrival-to-completion latency
  histogram per tenant (p50/p99/p999 surfaces in every exported
  ``<experiment>.metrics.json``);
* ``<scope>.tenant.<t>.queue_wait_seconds`` — time between arrival and
  dispatch (backlog + admission delays);
* ``<scope>.tenant.<t>.requests / rows / rejected`` counters, next to the
  admission layer's ``admitted / delayed / shed``;
* ``<scope>.queue_depth`` gauge + histogram — sampled backlog depth.

The front door itself never sleeps and never blocks: DELAY decisions come
back to the caller as a reschedule interval (see
:class:`~repro.server.quotas.TenantAdmission`), SHED decisions as the typed
retryable :class:`~repro.errors.QuotaExceededError`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import DeadlineExceededError, QuotaExceededError
from repro.obs import get_registry
from repro.server.quotas import TenantAdmission, TenantQuota
from repro.server.router import (
    DeadlinePolicy,
    QueryRequest,
    QueryResult,
    RequestRouter,
)


#: Reservoir size for latency histograms: p999 needs more resolution than
#: the default 512-sample reservoir gives.
LATENCY_RESERVOIR = 4096


class FrontDoor:
    """One serving endpoint over a router backend, with per-tenant quotas."""

    def __init__(
        self,
        backend,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        scope: Optional[str] = None,
        deadlines: Optional[Dict[str, DeadlinePolicy]] = None,
        seed: int = 0,
        keep_records: bool = False,
    ) -> None:
        registry = get_registry()
        self.scope = scope if scope is not None else registry.unique_scope("server")
        self.backend = backend
        self.clock = backend.clock
        self.router = RequestRouter(
            backend, scope=self.scope, keep_records=keep_records
        )
        self.admission = TenantAdmission(
            self.clock, quotas, scope=self.scope, seed=seed
        )
        #: Per-tenant end-to-end deadline budgets; tenants without an entry
        #: run unbounded (the pre-deadline behaviour).
        self.deadlines: Dict[str, DeadlinePolicy] = dict(deadlines or {})
        self._depth_gauge = registry.gauge(f"{self.scope}.queue_depth")
        self._depth_hist = registry.histogram(f"{self.scope}.queue_depth_sampled")
        self._tenant_instruments: Dict[str, dict] = {}

    # ------------------------------------------------------------ admission
    def try_admit(self, tenant: str, waited: float = 0.0) -> float:
        """0.0 = admitted; > 0 = park the request that long and retry.

        Raises :class:`QuotaExceededError` when the request is shed; the
        caller surfaces it to the client (open-loop sessions drop the
        request, closed-loop sessions back off ``retry_after`` and retry).
        """
        try:
            return self.admission.decide(tenant, waited)
        except QuotaExceededError:
            self._instruments(tenant)["rejected"].add(1)
            raise

    # ------------------------------------------------------------ execution
    def execute(self, request: QueryRequest) -> QueryResult:
        """Route one admitted request; record its latency surfaces.

        The tenant's :class:`DeadlinePolicy` (if any) is armed here and
        threaded through the router's fan-out.  STRICT overruns surface as
        the typed retryable :class:`DeadlineExceededError` and land on the
        tenant's ``deadline_exceeded`` counter; DEGRADED overruns come
        back as a partial :class:`QueryResult` carrying the uncovered key
        ranges and count on ``partial_results``.
        """
        instruments = self._instruments(request.tenant)
        try:
            result = self.router.execute(
                request, deadline_policy=self.deadlines.get(request.tenant)
            )
        except DeadlineExceededError:
            instruments["deadline_exceeded"].add(1)
            raise
        instruments["requests"].add(1)
        instruments["rows"].add(result.rows)
        if result.partial:
            instruments["partial_results"].add(1)
        instruments["latency"].observe(result.latency_seconds)
        instruments["queue_wait"].observe(
            max(0.0, result.started - request.arrival)
        )
        return result

    def query(
        self, tenant: str, begin_key: int, end_key: int, session: int = 0, seq: int = 0
    ) -> QueryResult:
        """Convenience single-shot client: admit (paying any DELAY on the
        shared clock, as a lone caller would) and execute."""
        waited = 0.0
        while True:
            wait = self.try_admit(tenant, waited)
            if wait <= 0:
                break
            self.clock.advance(wait)
            waited += wait
        request = QueryRequest(
            tenant=tenant,
            session=session,
            seq=seq,
            begin_key=begin_key,
            end_key=end_key,
            arrival=self.clock.now,
        )
        return self.execute(request)

    # ----------------------------------------------------------- instruments
    def _instruments(self, tenant: str) -> dict:
        found = self._tenant_instruments.get(tenant)
        if found is None:
            registry = get_registry()
            prefix = f"{self.scope}.tenant.{tenant}"
            found = {
                "requests": registry.counter(f"{prefix}.requests"),
                "rows": registry.counter(f"{prefix}.rows"),
                "rejected": registry.counter(f"{prefix}.rejected"),
                "deadline_exceeded": registry.counter(
                    f"{prefix}.deadline_exceeded"
                ),
                "partial_results": registry.counter(f"{prefix}.partial_results"),
                "latency": registry.histogram(
                    f"{prefix}.latency_seconds", reservoir=LATENCY_RESERVOIR
                ),
                "queue_wait": registry.histogram(
                    f"{prefix}.queue_wait_seconds", reservoir=LATENCY_RESERVOIR
                ),
            }
            self._tenant_instruments[tenant] = found
        return found

    def observe_queue_depth(self, depth: int) -> None:
        """Session-manager hook: record a sampled backlog depth."""
        self._depth_gauge.set(depth)
        self._depth_hist.observe(depth)

    # ------------------------------------------------------------- reporting
    def tenant_report(self) -> Dict[str, dict]:
        """Per-tenant SLO surface: latency percentiles (ms) and counters."""
        admission = self.admission.report()
        out: Dict[str, dict] = {}
        for tenant in sorted(self._tenant_instruments):
            instruments = self._tenant_instruments[tenant]
            latency = instruments["latency"]
            queue_wait = instruments["queue_wait"]
            entry = {
                "requests": instruments["requests"].value,
                "rows": instruments["rows"].value,
                "rejected": instruments["rejected"].value,
                "deadline_exceeded": instruments["deadline_exceeded"].value,
                "partial_results": instruments["partial_results"].value,
                "latency_p50_ms": latency.percentile(50) * 1e3,
                "latency_p99_ms": latency.percentile(99) * 1e3,
                "latency_p999_ms": latency.percentile(99.9) * 1e3,
                "latency_mean_ms": latency.mean * 1e3,
                "queue_wait_p99_ms": queue_wait.percentile(99) * 1e3,
            }
            entry.update(admission.get(tenant, {}))
            out[tenant] = entry
        return out
