"""Per-replica failure detection: circuit breakers + latency trackers.

Fan-out amplifies tails: one crashed, stuck, or pathologically slow replica
lands in *every* request that routes through it.  This module supplies the
detectors and the throttle the serving layer uses to route around trouble:

* :class:`CircuitBreaker` — the classic three-state machine on simulated
  time.  CLOSED counts consecutive typed failures (errors or deadline
  overruns); at ``failure_threshold`` it OPENs and fail-fasts every caller
  for ``reset_seconds``; then the first caller through becomes the
  HALF_OPEN *probe* — its success re-CLOSEs the breaker, its failure
  re-OPENs it for another full window.
* :class:`LatencyTracker` — EWMA mean + EWMA mean-absolute-deviation of
  scan service times.  ``hedge_delay()`` returns the break-even point of a
  synchronous hedge: two means (the serving scan's and a backup's, priced
  at the serving replica's) plus k·deviation.  The fan-out drains the
  backup *after* the serving replica has already paid its seek, so a
  backup issued any earlier can only add a whole scan; past this point it
  can only save time.  It is ``None`` until ``min_samples`` observations
  exist, so cold replicas are never hedged against noise.
* :class:`HedgeBudget` — a token bucket that caps backups at a fixed share
  of shard-scan attempts, so a replica that is slow on every scan cannot
  double the fleet's work however often it trips the delay.

:class:`FleetHealth` owns one (breaker, tracker) pair per replica of every
shard plus the fleet's hedge budget, exports a per-replica health gauge
(1.0 CLOSED / 0.5 HALF_OPEN / 0.0 OPEN), and computes the route order the
fan-out executor tries: the shard's primary first, then followers,
breaker-blocked replicas last (a fully-open shard still gets one
last-resort attempt rather than none).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.obs import get_registry


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Gauge value per breaker state (per-replica health surface).
_HEALTH_VALUE = {
    BreakerState.CLOSED: 1.0,
    BreakerState.HALF_OPEN: 0.5,
    BreakerState.OPEN: 0.0,
}


class CircuitBreaker:
    """Three-state circuit breaker on a shared :class:`SimClock`."""

    def __init__(
        self,
        clock,
        failure_threshold: int = 3,
        reset_seconds: float = 0.25,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_seconds <= 0:
            raise ValueError(f"reset_seconds must be > 0, got {reset_seconds}")
        self.clock = clock
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at = 0.0
        #: Set while the half-open probe is in flight so concurrent callers
        #: keep failing fast instead of stampeding the recovering replica.
        self._probe_out = False

    def allow(self) -> bool:
        """May the caller attempt an operation right now?

        In OPEN, the first call at or past ``opened_at + reset_seconds``
        transitions to HALF_OPEN and *is* the probe: it returns True while
        every other HALF_OPEN caller gets False until the probe resolves.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self.clock.now >= self.opened_at + self.reset_seconds:
                self.state = BreakerState.HALF_OPEN
                self._probe_out = True
                return True
            return False
        # HALF_OPEN: exactly one probe at a time.
        if not self._probe_out:
            self._probe_out = True
            return True
        return False

    def would_allow(self) -> bool:
        """Pure peek at :meth:`allow` — no state transition, no probe claim.

        Route ordering consults every replica's breaker; only the actual
        attempt may claim the half-open probe, so ordering uses this.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            return self.clock.now >= self.opened_at + self.reset_seconds
        return not self._probe_out

    def record_success(self) -> None:
        self.consecutive_failures = 0
        self._probe_out = False
        self.state = BreakerState.CLOSED

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        self._probe_out = False
        if self.state is BreakerState.HALF_OPEN:
            # The probe failed: re-open for a fresh reset window.
            self.state = BreakerState.OPEN
            self.opened_at = self.clock.now
            return
        if self.consecutive_failures >= self.failure_threshold:
            self.state = BreakerState.OPEN
            self.opened_at = self.clock.now


class LatencyTracker:
    """EWMA latency estimator feeding the hedge-delay policy.

    Keeps an exponentially weighted mean and mean absolute deviation of
    observed service times.  The mean predicts what one more scan on this
    replica costs; the deviation says how far a healthy scan strays from
    it.  Together they decide *when a scan is late enough that a backup
    scan run after it would still finish first*, which is all hedging
    needs.
    """

    def __init__(self, alpha: float = 0.2, min_samples: int = 8) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.min_samples = min_samples
        self.samples = 0
        self.mean = 0.0
        self.deviation = 0.0

    def observe(self, seconds: float) -> None:
        self.samples += 1
        if self.samples == 1:
            self.mean = seconds
            self.deviation = 0.0
            return
        error = seconds - self.mean
        self.mean += self.alpha * error
        self.deviation += self.alpha * (abs(error) - self.deviation)

    def hedge_delay(self, multiplier: float, floor: float) -> float | None:
        """Delay after which a backup read should be issued, or None.

        The backup runs after this replica's drain so far, so it pays off
        only once this scan is late by a whole backup scan: the delay is
        two means (this scan's and a backup's, priced at this replica's)
        plus ``multiplier`` deviations.
        """
        if self.samples < self.min_samples:
            return None
        return max(floor, 2.0 * self.mean + multiplier * self.deviation)


class HedgeBudget:
    """Token bucket that caps hedged backups at a share of scan attempts.

    Every shard-scan attempt earns ``ratio`` of a token and every backup
    spends one.  The bucket starts full and holds ``burst`` tokens, or one
    per shard scan of the widest request :meth:`cover` has seen if that is
    more: a fault's onset is hedged in full on whichever request it lands
    in, and after that backups run at most ``ratio`` times as often as
    scans.
    """

    def __init__(self, scope: str, ratio: float, burst: float) -> None:
        self.ratio = ratio
        self.burst = burst
        self.tokens = burst
        registry = get_registry()
        self._obs_granted = registry.counter(f"{scope}.hedge_granted")
        self._obs_denied = registry.counter(f"{scope}.hedge_denied")

    def cover(self, scans: int) -> None:
        """Deepen the bucket to fund a backup for each of one request's
        ``scans`` shard scans; the added depth starts full."""
        if scans > self.burst:
            self.tokens += scans - self.burst
            self.burst = scans

    def earn(self) -> None:
        """Credit one shard-scan attempt."""
        self.tokens = min(self.burst, self.tokens + self.ratio)

    def spend(self) -> bool:
        """Take one token for a backup; False (and counted) when empty."""
        if self.tokens < 1.0:
            self._obs_denied.add(1)
            return False
        self.tokens -= 1.0
        self._obs_granted.add(1)
        return True


#: Share of shard-scan attempts the fleet may hedge.
HEDGE_BUDGET_RATIO = 0.05
#: Shard-scan attempts the budget's share is measured over: the bucket
#: holds one window's share, so however few scans a request makes, a
#: fault's first backups are granted back to back.
HEDGE_BUDGET_WINDOW = 100
#: Least depth of the hedge budget's bucket.
HEDGE_BURST = HEDGE_BUDGET_RATIO * HEDGE_BUDGET_WINDOW


@dataclass(frozen=True)
class HedgePolicy:
    """When the fan-out executor issues a backup read."""

    enabled: bool = True
    #: k in ``2 * mean + k * deviation``: how far past the break-even
    #: point a scan must run before it is hedged.
    deviation_multiplier: float = 3.0
    #: Never hedge before this many observed scans on the serving replica.
    min_samples: int = 8
    #: Lower bound on the hedge delay (guards against a near-zero EWMA
    #: hedging every scan after a burst of cache hits).
    min_delay_seconds: float = 1e-4


class ReplicaHealth:
    """Breaker + latency tracker + health gauge for one replica."""

    __slots__ = ("breaker", "tracker", "_gauge")

    def __init__(self, clock, scope: str, shard_id: int, replica_id: int,
                 breaker_kwargs: dict, tracker_kwargs: dict) -> None:
        self.breaker = CircuitBreaker(clock, **breaker_kwargs)
        self.tracker = LatencyTracker(**tracker_kwargs)
        self._gauge = get_registry().gauge(
            f"{scope}.replica.{shard_id}.{replica_id}.health"
        )
        self._gauge.set(_HEALTH_VALUE[self.breaker.state])

    def allow(self) -> bool:
        allowed = self.breaker.allow()
        self._gauge.set(_HEALTH_VALUE[self.breaker.state])
        return allowed

    def would_allow(self) -> bool:
        return self.breaker.would_allow()

    def success(self, seconds: float) -> None:
        self.breaker.record_success()
        self.tracker.observe(seconds)
        self._gauge.set(_HEALTH_VALUE[self.breaker.state])

    def failure(self) -> None:
        self.breaker.record_failure()
        self._gauge.set(_HEALTH_VALUE[self.breaker.state])


class FleetHealth:
    """Health bookkeeping for every replica the fan-out executor can pick."""

    def __init__(
        self,
        clock,
        scope: str = "server",
        failure_threshold: int = 3,
        reset_seconds: float = 0.25,
        hedge: HedgePolicy | None = None,
    ) -> None:
        self.clock = clock
        self.scope = scope
        self.hedge = hedge if hedge is not None else HedgePolicy()
        self._breaker_kwargs = dict(
            failure_threshold=failure_threshold, reset_seconds=reset_seconds
        )
        self._tracker_kwargs = dict(min_samples=self.hedge.min_samples)
        self.budget = HedgeBudget(scope, HEDGE_BUDGET_RATIO, HEDGE_BURST)
        self._replicas: Dict[Tuple[int, int], ReplicaHealth] = {}

    def for_replica(self, shard_id: int, replica_id: int) -> ReplicaHealth:
        key = (shard_id, replica_id)
        found = self._replicas.get(key)
        if found is None:
            found = ReplicaHealth(
                self.clock, self.scope, shard_id, replica_id,
                self._breaker_kwargs, self._tracker_kwargs,
            )
            self._replicas[key] = found
        return found

    def hedge_delay(self, shard_id: int, replica_id: int) -> float | None:
        """Hedge delay for a scan currently served by this replica."""
        if not self.hedge.enabled:
            return None
        return self.for_replica(shard_id, replica_id).tracker.hedge_delay(
            self.hedge.deviation_multiplier, self.hedge.min_delay_seconds
        )

    def route_order(
        self, shard_id: int, primary_id: int, replica_ids: Sequence[int]
    ) -> list[int]:
        """Replica attempt order: primary first, breaker-allowed first.

        Breaker-blocked replicas sort to the back rather than dropping out:
        when every breaker of a shard is open, the first blocked candidate
        still gets a last-resort attempt (and, in HALF_OPEN, that attempt
        is the probe that can re-close the breaker).  Ordering is a pure
        peek (:meth:`CircuitBreaker.would_allow`); only the executor's
        actual attempt claims the half-open probe.
        """
        ordered = sorted(replica_ids, key=lambda r: (r != primary_id, r))
        return sorted(
            ordered, key=lambda r: not self.for_replica(shard_id, r).would_allow()
        )

    def report(self) -> Dict[str, dict]:
        """JSON-ready per-replica breaker states (for operator surfaces)."""
        out: Dict[str, dict] = {}
        for (shard_id, replica_id), health in sorted(self._replicas.items()):
            out[f"{shard_id}.{replica_id}"] = {
                "state": health.breaker.state.value,
                "consecutive_failures": health.breaker.consecutive_failures,
                "latency_mean": health.tracker.mean,
                "latency_deviation": health.tracker.deviation,
                "samples": health.tracker.samples,
            }
        return out


class RepairQueue:
    """Deduplicated read-repair intents, one slot per shard.

    The fan-out executor *observes* symptoms of replica damage — a typed
    scan failure, or a hedged backup whose rows disagree with the
    primary's — but repairing mid-request would blow the request deadline.
    So it drops a shard id here and a background tick later drains the
    queue through
    :meth:`~repro.core.replication.ReplicatedWarehouse.run_repairs`
    (one anti-entropy pass per distinct shard).  Scheduling the same shard
    twice before a drain is a no-op: anti-entropy is idempotent and one
    pass repairs every damaged run on the shard.
    """

    def __init__(self, scope: str = "server") -> None:
        self._pending: dict[int, str] = {}
        self._obs_scheduled = get_registry().counter(
            f"{scope}.repairs.scheduled"
        )

    def schedule(self, shard_id: int, reason: str) -> bool:
        """Queue a repair for ``shard_id``; False when already queued."""
        if shard_id in self._pending:
            return False
        self._pending[shard_id] = reason
        self._obs_scheduled.add(1)
        return True

    def drain(self) -> list[int]:
        """Pop every queued shard id (oldest first)."""
        shard_ids = list(self._pending)
        self._pending.clear()
        return shard_ids

    def pending(self) -> Dict[int, str]:
        """Queued shard → reason, without consuming the queue."""
        return dict(self._pending)

    def __len__(self) -> int:
        return len(self._pending)
