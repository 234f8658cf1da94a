"""Per-tenant admission quotas for the serving front door.

One :class:`~repro.core.governor.TokenBucket` per tenant meters queries the
same way the engine's :class:`~repro.core.governor.LoadGovernor` meters
updates — the difference is *where the wait happens*.  The governor's DELAY
blocks the updating caller on the shared clock; a query server cannot stall
its whole event loop for one tenant, so here DELAY is a *reschedule*: the
admission decision tells the session manager how long to park the request,
and only the parked request's own latency pays for it.  A tenant that keeps
arriving faster than its refill rate exhausts its per-request delay budget
and is shed with a typed, retryable :class:`~repro.errors.QuotaExceededError`
that carries ``retry_after``.

Every decision lands in the metrics registry under the front door's scope:
``<scope>.tenant.<name>.admitted / delayed / shed`` counters and a
``tokens`` gauge per tenant, so the noisy-neighbor driver can show exactly
which tenant absorbed the flood.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.governor import TokenBucket
from repro.errors import QuotaExceededError
from repro.obs import get_registry

#: ``retry_after`` jitter: the advertised backoff is the true token wait
#: stretched by up to this fraction, drawn from the admission table's
#: seeded RNG.  Shed closed-loop clients all learn the same ``wait`` from
#: the same empty bucket; without jitter they sleep in lockstep and return
#: as a synchronized herd that sheds again — the jitter de-phases them
#: deterministically (same seed, same spread).  Always >= the true wait,
#: so a client that honours ``retry_after`` finds a token accrued.
RETRY_JITTER_FRACTION = 1.0


class QuotaPolicy(enum.Enum):
    """What admission does with a request that finds the bucket empty."""

    #: Park the request until a token accrues (bounded per request by
    #: ``max_delay_seconds``); past the budget it is shed anyway.
    DELAY = "delay"
    #: Reject immediately with :class:`QuotaExceededError`.
    SHED = "shed"


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission contract.

    ``rate`` is the sustainable queries per simulated second; ``burst`` is
    the bucket depth (how many back-to-back requests a quiet tenant may
    fire before metering starts).
    """

    rate: float
    burst: float = 16.0
    policy: QuotaPolicy = QuotaPolicy.DELAY
    #: Total DELAY budget for one request; exceeding it sheds the request.
    max_delay_seconds: float = 0.5

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"quota rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"quota burst must be >= 1, got {self.burst}")
        if self.max_delay_seconds < 0:
            raise ValueError(
                f"max_delay_seconds must be >= 0, got {self.max_delay_seconds}"
            )


class _TenantState:
    """Bucket plus instruments for one tenant (internal)."""

    __slots__ = ("quota", "bucket", "admitted", "delayed", "shed", "tokens")

    def __init__(self, scope: str, tenant: str, quota: TenantQuota, now: float):
        registry = get_registry()
        prefix = f"{scope}.tenant.{tenant}"
        self.quota = quota
        self.bucket = TokenBucket(quota.rate, quota.burst, now=now)
        self.admitted = registry.counter(f"{prefix}.admitted")
        self.delayed = registry.counter(f"{prefix}.delayed")
        self.shed = registry.counter(f"{prefix}.shed")
        self.tokens = registry.gauge(f"{prefix}.tokens")


class TenantAdmission:
    """Admission control over a set of tenant quotas.

    :meth:`decide` is the session manager's one entry point: ``0.0`` means
    the request is admitted (a token was consumed), a positive value is the
    reschedule wait under DELAY, and :class:`QuotaExceededError` means the
    request is shed.  Tenants without a quota are admitted unmetered.
    """

    def __init__(
        self,
        clock,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        scope: str = "server",
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.scope = scope
        self._tenants: Dict[str, _TenantState] = {}
        #: Deterministic jitter source for shed ``retry_after`` values.
        self._jitter_rng = random.Random(f"{seed}:retry-jitter")
        for tenant, quota in (quotas or {}).items():
            self.set_quota(tenant, quota)

    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        self._tenants[tenant] = _TenantState(
            self.scope, tenant, quota, self.clock.now
        )

    def decide(self, tenant: str, waited: float = 0.0) -> float:
        """Admit, reschedule, or shed one request for ``tenant``.

        ``waited`` is the DELAY time this request has already accumulated
        across earlier reschedules; the caller threads it back in on retry
        so the per-request delay budget is cumulative, not per attempt.
        """
        state = self._tenants.get(tenant)
        if state is None:
            return 0.0  # unmetered tenant
        now = self.clock.now
        if state.bucket.take(now):
            state.admitted.add(1)
            state.tokens.set(state.bucket.tokens)
            return 0.0
        wait = state.bucket.wait_needed(now)
        state.tokens.set(state.bucket.tokens)
        quota = state.quota
        if (
            quota.policy is QuotaPolicy.DELAY
            and waited + wait <= quota.max_delay_seconds
        ):
            state.delayed.add(1)
            return wait
        state.shed.add(1)
        retry_after = wait * (
            1.0 + RETRY_JITTER_FRACTION * self._jitter_rng.random()
        )
        raise QuotaExceededError(
            f"tenant {tenant!r} over quota ({quota.rate:g}/s, "
            f"policy={quota.policy.value}); retry after {retry_after:.6f}s",
            tenant=tenant,
            retry_after=retry_after,
        )

    def report(self) -> Dict[str, dict]:
        """JSON-ready per-tenant admission counters."""
        out: Dict[str, dict] = {}
        for tenant in sorted(self._tenants):
            state = self._tenants[tenant]
            out[tenant] = {
                "rate": state.quota.rate,
                "policy": state.quota.policy.value,
                "admitted": state.admitted.value,
                "delayed": state.delayed.value,
                "shed": state.shed.value,
                "tokens": state.bucket.tokens,
            }
        return out
