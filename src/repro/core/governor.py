"""Overload governance: admission control, backpressure, paced migration.

The paper's sustained-update experiment (Section 7.3 / Figure 12) assumes
MaSM keeps absorbing updates while scans run.  The ungoverned engine meets a
full SSD cache with a stop-the-world ``migrate_all`` at flush time and a
full in-memory buffer with :class:`~repro.errors.UpdateCacheFullError` at
the caller — under a sustained flood both latency spikes and dropped
updates are possible (exactly the LSM write-stall failure mode of Luo &
Carey's stability study).  This module makes the degradation *governed*:

* **Watermarks.**  SSD-cache occupancy is classified against three
  configurable fractions of ``cache_bytes`` — *low* (idle), *high* (start
  paced migration), *critical* (apply the overload policy before accepting
  more work).  The current band is exported as a gauge.

* **Paced incremental migration.**  Instead of migrating the whole cache in
  one stall, the governor sweeps a key-range cursor across the cached runs
  and migrates one *slice* at a time via
  :func:`repro.core.migration.migrate_range`.  A pacing controller sizes
  the slice in heap *pages* (via the sparse index) so one step's simulated
  duration tracks ``target_stall_seconds``: each measured step
  multiplicatively adjusts the slice fraction (EWMA-smoothed), so per-step
  stall stays bounded whatever the device speeds are.  Steps trickle on
  the apply path — one slice per admitted update while anticipated
  occupancy (cached runs plus the in-memory buffer) is above the high
  watermark — plus between scans; a flush whose bytes would still push
  occupancy past critical falls into :meth:`LoadGovernor.make_room`, the
  emergency valve.  Full migrations piggyback on
  :class:`~repro.core.migration.CoordinatedMigration` (which resets the
  sweep).

* **Token-bucket admission control.**  ``admit()`` runs in front of
  ``MaSM.apply``.  When the bucket is empty the configured
  :class:`OverloadPolicy` decides what happens:

  - ``DELAY``   — wait for tokens, charged to the shared
    :class:`~repro.storage.clock.SimClock`; a single wait never exceeds
    ``max_delay_seconds`` (bounded backpressure);
  - ``SHED``    — raise a typed :class:`~repro.errors.BackpressureError`;
    every shed is counted, never silent;
  - ``SYNC_MIGRATE`` — the caller pays for one paced migration slice (the
    paper's fallback: the writer performs the maintenance it is outrunning)
    and is then admitted.

Once an update is *admitted* it is never dropped: buffer-capacity pressure
downstream is resolved by :meth:`LoadGovernor.make_room`, which paces
slices until the flush fits and only escalates to a full migration as a
counted last resort — so the governed engine never raises
``UpdateCacheFullError`` on the apply path.

Every decision is observable: ``governor.<scope>.admitted / delayed /
shed / sync_migrate_steps / migrate_steps / forced_full_migrations``
counters, ``utilization`` / ``watermark_state`` / ``tokens`` gauges, and
``delay_seconds`` / ``migrate_step_seconds`` stall histograms.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import BackpressureError
from repro.obs import get_registry, trace
from repro.sim.hooks import interleave as sim_interleave

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.masm import MaSM

FULL_KEY_RANGE = (0, 2**63 - 1)


class OverloadPolicy(enum.Enum):
    """What ``admit()`` does when the token bucket runs dry."""

    #: Backpressure: wait (on the SimClock) for tokens, at most
    #: ``max_delay_seconds`` per update.  Never drops, never errors.
    DELAY = "delay"
    #: Load shedding: raise :class:`BackpressureError`.  The caller decides
    #: whether to retry; the engine counts every shed update.
    SHED = "shed"
    #: The paper's fallback: the updating caller synchronously performs one
    #: paced migration slice, then proceeds.
    SYNC_MIGRATE = "sync_migrate"


#: Watermark bands, exported through the ``watermark_state`` gauge.
STATE_NORMAL = 0
STATE_LOW = 1
STATE_HIGH = 2
STATE_CRITICAL = 3

_STATE_NAMES = {
    STATE_NORMAL: "normal",
    STATE_LOW: "low",
    STATE_HIGH: "high",
    STATE_CRITICAL: "critical",
}


@dataclass
class GovernorConfig:
    """Tunables for one :class:`LoadGovernor`.

    Watermarks are fractions of the engine's ``cache_bytes`` and must be
    ordered ``0 < low <= high <= critical <= 1``.  ``admit_rate`` is the
    token-bucket refill rate in updates per simulated second (``None``
    leaves admission unmetered — watermark governance still applies).
    """

    low_watermark: float = 0.5
    high_watermark: float = 0.75
    critical_watermark: float = 0.9
    overload_policy: OverloadPolicy = OverloadPolicy.DELAY
    #: Sustainable updates per simulated second; None = unmetered.
    admit_rate: Optional[float] = None
    #: Token-bucket capacity (burst tolerance), in updates.
    burst: float = 256.0
    #: Upper bound on one DELAY wait, in simulated seconds.
    max_delay_seconds: float = 0.05
    #: Pacing target for one migration slice, in simulated seconds.
    target_stall_seconds: float = 0.02
    #: Bounds on the key-space fraction one slice may cover.
    min_slice_fraction: float = 1.0 / 4096.0
    max_slice_fraction: float = 0.25
    #: Run a paced slice when a scan finishes and occupancy is above the
    #: high watermark ("slices scheduled between scans").
    migrate_between_scans: bool = True
    #: Trickle: run one pacer-sized slice per admitted update while
    #: occupancy is above the high watermark.  Spreading retirement over
    #: the (many) applies between flushes is what keeps any single stall
    #: near ``target_stall_seconds`` instead of paying a whole sweep at
    #: flush time.
    migrate_on_apply: bool = True
    #: Safety valve: paced steps per make_room() call before escalating to
    #: a full stop-the-world migration (counted, never silent).
    max_steps_per_room: int = 64

    def __post_init__(self) -> None:
        if not 0.0 < self.low_watermark <= self.high_watermark <= self.critical_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low <= high <= critical <= 1, "
                f"got {self.low_watermark}/{self.high_watermark}/{self.critical_watermark}"
            )
        if self.admit_rate is not None and self.admit_rate <= 0:
            raise ValueError(f"admit_rate must be > 0, got {self.admit_rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.max_delay_seconds < 0:
            raise ValueError(
                f"max_delay_seconds must be >= 0, got {self.max_delay_seconds}"
            )
        if self.target_stall_seconds <= 0:
            raise ValueError(
                f"target_stall_seconds must be > 0, got {self.target_stall_seconds}"
            )
        if not 0.0 < self.min_slice_fraction <= self.max_slice_fraction <= 1.0:
            raise ValueError(
                "slice fractions must satisfy 0 < min <= max <= 1, got "
                f"{self.min_slice_fraction}/{self.max_slice_fraction}"
            )
        if self.max_steps_per_room < 1:
            raise ValueError(
                f"max_steps_per_room must be >= 1, got {self.max_steps_per_room}"
            )


class TokenBucket:
    """A token bucket over simulated time.

    ``rate`` tokens accrue per second up to ``burst``; :meth:`take` consumes
    one if available, :meth:`wait_needed` reports how long until one
    accrues.  The bucket reads time from a callable so it works against any
    :class:`SimClock` (or a test stub) without owning it.
    """

    __slots__ = ("rate", "burst", "_tokens", "_last")

    def __init__(self, rate: float, burst: float, now: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = rate
        self.burst = burst
        self._tokens = burst
        self._last = now

    @property
    def tokens(self) -> float:
        return self._tokens

    def refill(self, now: float) -> None:
        if now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = max(self._last, now)

    def take(self, now: float) -> bool:
        """Consume one token if available (refilling first)."""
        self.refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def wait_needed(self, now: float) -> float:
        """Seconds until one full token accrues (0 if already available)."""
        self.refill(now)
        if self._tokens >= 1.0:
            return 0.0
        wait = (1.0 - self._tokens) / self.rate
        # At tiny deficits the quotient can fall below one ULP of ``now``;
        # a caller that parks until ``now + wait`` would then wake at the
        # same float instant with the same deficit, forever.  Round up
        # until the wait moves the clock to a strictly later instant.
        while wait and now + wait == now:
            wait *= 2.0
        return wait

    def force_take(self, now: float) -> None:
        """Consume one token even if it drives the balance negative.

        Used after a bounded DELAY wait: the update is admitted anyway (the
        stall bound wins over strict rate conformance) and the debt is
        repaid by later refills.
        """
        self.refill(now)
        self._tokens -= 1.0


class PacingController:
    """Multiplicatively adapts the migration slice size to a stall target.

    The controller holds a *fraction of the cached key span* to migrate per
    step.  After each step it compares the measured simulated duration with
    ``target_stall_seconds`` and nudges the fraction toward the target
    (EWMA-smoothed so one outlier slice cannot whipsaw the pace).
    """

    __slots__ = ("target", "min_fraction", "max_fraction", "fraction")

    def __init__(
        self, target: float, min_fraction: float, max_fraction: float
    ) -> None:
        self.target = target
        self.min_fraction = min_fraction
        self.max_fraction = max_fraction
        # Start small: the first slice under pressure must already be cheap;
        # the controller grows the slice if steps come in under target.
        self.fraction = min(max_fraction, max(min_fraction, min_fraction * 4))

    def observe(self, duration: float) -> None:
        """Adjust the slice fraction after a step that took ``duration``."""
        if duration <= 0:
            # Free step (nothing left in this stretch): keep the fraction.
            # Growing here would arm a mega-slice for the next dense
            # stretch — free steps cost no time, so a small slice loses
            # nothing while sweeping empty key space.
            return
        proposed = self.fraction * (self.target / duration)
        blended = 0.5 * self.fraction + 0.5 * proposed
        self.fraction = min(self.max_fraction, max(self.min_fraction, blended))


class LoadGovernor:
    """Per-engine overload governance (one instance per :class:`MaSM`)."""

    def __init__(self, masm: "MaSM", config: Optional[GovernorConfig] = None) -> None:
        self.masm = masm
        self.config = config or GovernorConfig()
        self.clock = masm.ssd.device.clock
        self.pacer = PacingController(
            self.config.target_stall_seconds,
            self.config.min_slice_fraction,
            self.config.max_slice_fraction,
        )
        self.bucket: Optional[TokenBucket] = (
            TokenBucket(
                self.config.admit_rate, self.config.burst, now=self.clock.now
            )
            if self.config.admit_rate is not None
            else None
        )
        self._cursor: Optional[int] = None  # next key the sweep migrates
        self._admit_lock = threading.Lock()
        # Per-apply fast path: cache the run-bytes total keyed on the
        # engine's run-manifest version, and precompute the trickle
        # threshold in bytes, so admission costs no lock/sum/divide per
        # update.
        self._runs_version = -1
        self._runs_bytes = 0
        self._trickle_threshold = int(
            masm.cache_bytes * self.config.high_watermark
        )
        registry = get_registry()
        scope = f"governor.{masm.name}"
        self.scope = scope
        self._admitted = registry.counter(f"{scope}.admitted")
        self._delayed = registry.counter(f"{scope}.delayed")
        self._shed = registry.counter(f"{scope}.shed")
        self._sync_steps = registry.counter(f"{scope}.sync_migrate_steps")
        self._steps = registry.counter(f"{scope}.migrate_steps")
        self._forced_full = registry.counter(f"{scope}.forced_full_migrations")
        self._migrated_updates = registry.counter(f"{scope}.migrated_updates")
        self._util_gauge = registry.gauge(f"{scope}.utilization")
        self._state_gauge = registry.gauge(f"{scope}.watermark_state")
        self._tokens_gauge = registry.gauge(f"{scope}.tokens")
        self._delay_hist = registry.histogram(f"{scope}.delay_seconds")
        self._step_hist = registry.histogram(f"{scope}.migrate_step_seconds")

    # ----------------------------------------------------------- watermarks
    def utilization(self) -> float:
        """Current SSD-cache occupancy as a fraction of ``cache_bytes``."""
        return self.masm.cached_run_bytes / self.masm.cache_bytes

    def watermark_state(self, utilization: Optional[float] = None) -> int:
        """Classify occupancy into a watermark band (and export gauges)."""
        util = self.utilization() if utilization is None else utilization
        cfg = self.config
        if util >= cfg.critical_watermark:
            state = STATE_CRITICAL
        elif util >= cfg.high_watermark:
            state = STATE_HIGH
        elif util >= cfg.low_watermark:
            state = STATE_LOW
        else:
            state = STATE_NORMAL
        self._util_gauge.set(util)
        self._state_gauge.set(state)
        return state

    def watermark_name(self) -> str:
        return _STATE_NAMES[self.watermark_state()]

    # ------------------------------------------------------------ admission
    def admit(self, update) -> None:
        """Gate one update in front of ``MaSM.apply``.

        Raises :class:`BackpressureError` only under the ``SHED`` policy;
        ``DELAY`` charges a bounded wait to the SimClock and
        ``SYNC_MIGRATE`` makes the caller pay one migration slice.  Either
        way, an update that returns from here *is admitted* and will be
        visible to every later scan.
        """
        sim_interleave("governor.admit")
        bucket = self.bucket
        if bucket is not None:
            with self._admit_lock:
                granted = bucket.take(self.clock.now)
            if not granted:
                self._overloaded(update)
            self._tokens_gauge.set(bucket.tokens)
        # Anticipatory trigger: count the in-memory buffer too — those
        # bytes land in the cache at the next flush, and a flush can be a
        # sizeable fraction of a small cache.  Starting the trickle one
        # flush early is what keeps pressure from ever reaching critical.
        masm = self.masm
        if (
            self.config.migrate_on_apply
            and masm.runs
            and self._run_bytes() + masm.buffer.used_bytes
            >= self._trickle_threshold
        ):
            self.migrate_step()
        self._admitted.add(1)

    def _run_bytes(self) -> int:
        """Cached ``masm.cached_run_bytes`` (exact: refreshed whenever the
        run list changes), cheap enough for the per-update admit path."""
        masm = self.masm
        version = masm.manifest.version
        if version != self._runs_version:
            self._runs_bytes = masm.cached_run_bytes
            self._runs_version = version
        return self._runs_bytes

    def _overloaded(self, update) -> None:
        policy = self.config.overload_policy
        if policy is OverloadPolicy.SHED:
            self._shed.add(1)
            raise BackpressureError(
                f"{self.masm.name}: admission rate exceeded "
                f"(policy=SHED, key={update.key}, ts={update.timestamp})"
            )
        if policy is OverloadPolicy.DELAY:
            wait = min(
                self.bucket.wait_needed(self.clock.now),
                self.config.max_delay_seconds,
            )
            if wait > 0:
                self.clock.advance(wait)
                self._delay_hist.observe(wait)
            self._delayed.add(1)
            self.bucket.force_take(self.clock.now)
            return
        # SYNC_MIGRATE: the caller performs the maintenance it is outrunning.
        self._sync_steps.add(1)
        self.migrate_step()
        self.bucket.force_take(self.clock.now)

    # ------------------------------------------------------- paced migration
    def _key_span(self) -> Optional[tuple[int, int]]:
        runs = self.masm.runs
        if not runs:
            return None
        return min(r.min_key for r in runs), max(r.max_key for r in runs)

    def _measure_start(self) -> tuple[float, float]:
        disk = self.masm.table.heap.file.device
        ssd = self.masm.ssd.device
        return disk.stats.busy_time, ssd.stats.busy_time

    def _measure_elapsed(self, before: tuple[float, float]) -> float:
        disk = self.masm.table.heap.file.device
        ssd = self.masm.ssd.device
        return max(
            disk.stats.busy_time - before[0], ssd.stats.busy_time - before[1]
        )

    def migrate_step(self, min_fraction: Optional[float] = None) -> bool:
        """Migrate one paced key-range slice; True if any work was done.

        The slice is the next stretch of the cached key span under the
        sweep cursor, sized by the pacing controller (``min_fraction``
        raises the floor when the caller needs guaranteed sweep progress —
        see :meth:`make_room`).  Governed slices go through
        :func:`migrate_range`, so they log MIGRATION_START/END and honour
        the ``migration.emit`` crash point exactly like full migrations.
        """
        from repro.core.migration import migrate_range

        from bisect import bisect_right

        masm = self.masm
        sim_interleave("governor.migrate_step")
        with masm._lock:
            span = self._key_span()
            if span is None:
                self._cursor = None
                return False
            lo, hi = span
            fraction = self.pacer.fraction
            if min_fraction is not None:
                fraction = max(fraction, min(1.0, min_fraction))
            cursor = self._cursor
            if cursor is None or cursor < lo or cursor > hi:
                cursor = lo
            begin = cursor
            # Size the slice in *pages*, the unit that actually costs I/O:
            # a key-width slice meets wildly different page counts in dense
            # vs sparse stretches, which defeats the stall target.
            entries = masm.table.index.entries()
            if entries:
                starts = [key for key, _ in entries]
                i = max(0, bisect_right(starts, begin) - 1)
                pages = max(1, round(fraction * len(entries)))
                j = i + pages
                end = min(hi, starts[j] - 1) if j < len(starts) else hi
            else:
                width = hi - lo + 1
                end = min(hi, begin + max(1, int(width * fraction)) - 1)
            before = self._measure_start()
            with trace(
                f"{self.scope}.migrate_step", begin=begin, end=end
            ):
                stats = migrate_range(masm, begin, end, redo_log=masm.redo_log)
            duration = self._measure_elapsed(before)
            self._cursor = end + 1 if end < hi else None  # None = wrapped
            self.pacer.observe(duration)
            self._steps.add(1)
            self._step_hist.observe(duration)
            if stats is not None:
                self._migrated_updates.add(stats.updates_applied)
            self.watermark_state()
            return stats is not None

    def make_room(self, incoming_bytes: int) -> None:
        """Emergency valve for a flush of ``incoming_bytes``.

        In steady state the per-apply trickle (``migrate_on_apply``) keeps
        occupancy below the critical watermark and this does nothing.  When
        pressure still reaches critical — the trickle disabled, or a burst
        outran it — the governor sweeps in large strides until the flush
        fits with critical-watermark headroom, and as a counted last resort
        (a cache smaller than one flush, or pages rejecting their
        insertions) falls back to one full migration — never silent, still
        logged/crash-point-covered like any migration.
        """
        masm = self.masm
        sim_interleave("governor.make_room")
        cfg = self.config
        cache = masm.cache_bytes
        budget = int(cache * cfg.critical_watermark)
        if masm.cached_run_bytes + incoming_bytes <= budget:
            self.watermark_state()
            return
        with trace(f"{self.scope}.make_room", incoming=incoming_bytes):
            for _ in range(cfg.max_steps_per_room):
                if not masm.runs:
                    break
                if masm.cached_run_bytes + incoming_bytes <= budget:
                    break
                self.migrate_step(min_fraction=0.25)
            if masm.runs and masm.cached_run_bytes + incoming_bytes > cache:
                # Last resort: the paced sweep could not keep up.
                self._forced_full.add(1)
                masm.migrate()
        self.watermark_state()

    # ----------------------------------------------------------- scheduling
    def on_scan_end(self) -> None:
        """Between-scans hook: a paced migration slice when occupancy is
        high (migration frees cache space)."""
        state = self.watermark_state()
        if self.config.migrate_between_scans and state >= STATE_HIGH:
            self.migrate_step()

    def on_full_migration(self) -> None:
        """A full/coordinated migration emptied the cache: reset the sweep."""
        self._cursor = None
        self.watermark_state()

    # ------------------------------------------------------------- reporting
    def report(self) -> dict:
        """JSON-ready snapshot of the governor's counters and state."""
        return {
            "scope": self.scope,
            "policy": self.config.overload_policy.value,
            "utilization": self.utilization(),
            "watermark_state": self.watermark_name(),
            "admitted": self._admitted.value,
            "delayed": self._delayed.value,
            "shed": self._shed.value,
            "sync_migrate_steps": self._sync_steps.value,
            "migrate_steps": self._steps.value,
            "forced_full_migrations": self._forced_full.value,
            "migrated_updates": self._migrated_updates.value,
            "tokens": self.bucket.tokens if self.bucket is not None else None,
            "slice_fraction": self.pacer.fraction,
        }
