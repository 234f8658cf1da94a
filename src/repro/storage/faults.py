"""Deterministic fault injection for simulated devices.

The simulated devices are perfectly reliable, so the paper's correctness-
under-failure claims (Section 3.6) were untestable against media faults.
This module supplies the adverse conditions:

* :class:`FaultPlan` — a seedable, fully deterministic schedule of faults:
  transient read/write errors (probabilistic or pinned to specific
  operation indexes), torn writes that persist only a prefix, silent
  bit-flip corruption of stored bytes, latency spikes, and named crash
  points that raise :class:`~repro.errors.SimulatedCrash`;
* :class:`FaultyDevice` — a wrapper that composes over ``SimulatedDisk`` /
  ``SimulatedSSD`` and injects the plan's faults around the inner device's
  cost model (which it never touches);
* :func:`crash_point` — a hook the library calls at named sites
  (``"masm.flush.run_written"``, ``"migration.emit"``, ``"wal.append"``)
  so tests can schedule a crash at an exact logical moment instead of
  hand-tearing state.

Every injected fault increments the process-wide ``faults.injected``
counter (plus a per-kind counter), so a metrics report proves the run was
actually exercised under faults rather than silently fault-free.

Determinism: a plan owns one ``random.Random(seed)``; outcomes depend only
on the seed and the exact operation sequence, so a deterministic workload
fails the same way every run.  Probabilistic transient errors are capped at
``max_consecutive_errors`` in a row, which keeps them *transient by
construction*: a retry policy with more attempts than the cap always
eventually succeeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulatedCrash, TransientIOError
from repro.obs.registry import get_registry


def _count_fault(kind: str) -> None:
    registry = get_registry()
    registry.counter("faults.injected").add(1)
    registry.counter(f"faults.injected.{kind}").add(1)


@dataclass
class ReadFault:
    """Outcome of one read-op consultation."""

    transient: bool = False
    latency: float = 0.0


@dataclass
class WriteFault:
    """Outcome of one write-op consultation."""

    transient: bool = False
    torn_keep_fraction: Optional[float] = None
    bit_flip: bool = False
    latency: float = 0.0


class FaultPlan:
    """A deterministic, seedable schedule of storage faults.

    Probabilistic faults (``read_error_rate`` etc.) draw from the plan's
    seeded RNG per operation; scheduled faults pin a fault to an exact
    operation index (0-based, counted separately for reads and writes,
    shared across every device the plan wraps).  ``read_op_count`` /
    ``write_op_count`` expose the counters so callers can schedule a fault
    on *the next* operation (``plan.torn_write_at(plan.write_op_count)``)
    without knowing absolute indexes.
    """

    def __init__(
        self,
        seed: int = 0,
        read_error_rate: float = 0.0,
        write_error_rate: float = 0.0,
        latency_spike_rate: float = 0.0,
        latency_spike_seconds: float = 5e-3,
        max_consecutive_errors: int = 2,
    ) -> None:
        for name, rate in (
            ("read_error_rate", read_error_rate),
            ("write_error_rate", write_error_rate),
            ("latency_spike_rate", latency_spike_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if max_consecutive_errors < 1:
            raise ValueError("max_consecutive_errors must be >= 1")
        self.seed = seed
        self.read_error_rate = read_error_rate
        self.write_error_rate = write_error_rate
        self.latency_spike_rate = latency_spike_rate
        self.latency_spike_seconds = latency_spike_seconds
        self.max_consecutive_errors = max_consecutive_errors
        self._rng = random.Random(seed)
        self.read_op_count = 0
        self.write_op_count = 0
        self._consecutive = 0
        self._read_error_ops: set[int] = set()
        self._write_error_ops: set[int] = set()
        self._torn_writes: dict[int, float] = {}
        self._bit_flip_ops: set[int] = set()
        self._crash_sites: dict[str, int] = {}
        self._crash_hits: dict[str, int] = {}

    # ------------------------------------------------------------ scheduling
    def fail_read_at(self, op_index: int) -> "FaultPlan":
        """Inject a transient error on the ``op_index``-th read operation."""
        self._read_error_ops.add(op_index)
        return self

    def fail_write_at(self, op_index: int) -> "FaultPlan":
        """Inject a transient error on the ``op_index``-th write operation."""
        self._write_error_ops.add(op_index)
        return self

    def torn_write_at(self, op_index: int, keep_fraction: float = 0.5) -> "FaultPlan":
        """Tear the ``op_index``-th write: persist a prefix, then crash.

        Models power loss mid-write: the device keeps ``keep_fraction`` of
        the data and :class:`SimulatedCrash` unwinds the writer.  Never
        retried (it is not a :class:`TransientIOError`), so the torn state
        survives for recovery to find.
        """
        if not 0.0 <= keep_fraction < 1.0:
            raise ValueError(f"keep_fraction must be in [0, 1), got {keep_fraction}")
        self._torn_writes[op_index] = keep_fraction
        return self

    def bit_flip_at(self, op_index: int) -> "FaultPlan":
        """Silently flip one stored bit of the ``op_index``-th write.

        The write reports success; the damage is only discoverable by
        checksum verification on a later read or scrub.
        """
        self._bit_flip_ops.add(op_index)
        return self

    def crash_at(self, site: str, occurrence: int = 1) -> "FaultPlan":
        """Raise :class:`SimulatedCrash` the ``occurrence``-th time the named
        crash-point site is reached (see :func:`crash_point`)."""
        if occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {occurrence}")
        self._crash_sites[site] = occurrence
        return self

    # ----------------------------------------------------------- consultation
    def _roll(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if self._consecutive >= self.max_consecutive_errors:
            # Forced-clean op: keeps probabilistic errors transient by
            # construction (a bounded retry loop always outlasts them).
            return False
        return self._rng.random() < rate

    def next_read_fault(self) -> ReadFault:
        """Consult the plan for the next read operation (advances counters)."""
        op = self.read_op_count
        self.read_op_count += 1
        fault = ReadFault()
        if self.latency_spike_rate and self._rng.random() < self.latency_spike_rate:
            fault.latency = self.latency_spike_seconds
        if op in self._read_error_ops or self._roll(self.read_error_rate):
            fault.transient = True
            self._consecutive += 1
        else:
            self._consecutive = 0
        return fault

    def next_write_fault(self) -> WriteFault:
        """Consult the plan for the next write operation (advances counters)."""
        op = self.write_op_count
        self.write_op_count += 1
        fault = WriteFault()
        if self.latency_spike_rate and self._rng.random() < self.latency_spike_rate:
            fault.latency = self.latency_spike_seconds
        if op in self._torn_writes:
            fault.torn_keep_fraction = self._torn_writes[op]
            return fault
        if op in self._bit_flip_ops:
            fault.bit_flip = True
            return fault
        if op in self._write_error_ops or self._roll(self.write_error_rate):
            fault.transient = True
            self._consecutive += 1
        else:
            self._consecutive = 0
        return fault

    def corruption_position(self, size: int) -> tuple[int, int]:
        """Deterministic (byte offset, bit mask) for a bit flip in ``size``
        bytes, drawn from the plan's RNG."""
        return self._rng.randrange(size), 1 << self._rng.randrange(8)

    def check_crash_point(self, site: str) -> None:
        """Record a crash-point hit; raise when its occurrence is reached."""
        target = self._crash_sites.get(site)
        if target is None:
            return
        hits = self._crash_hits.get(site, 0) + 1
        self._crash_hits[site] = hits
        if hits == target:
            _count_fault("crash")
            raise SimulatedCrash(f"crash point {site!r} (occurrence {hits})")


class FaultyDevice:
    """A device wrapper injecting a :class:`FaultPlan`'s faults.

    Composes over any simulated device: cost models, statistics and the
    byte store stay on the inner device (every attribute not overridden
    here delegates to it), so a ``StorageVolume`` built over a
    ``FaultyDevice`` behaves identically until a fault fires.

    Failed operations charge no device service time (the command aborts);
    retry backoff time is charged separately by the retry policy.  Latency
    spikes advance the shared clock and land in ``stats.busy_time`` so the
    overlap model sees them on the critical path.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultyDevice({self.inner!r})"

    # -------------------------------------------------------------- plumbing
    def _charge_latency(self, extra: float) -> None:
        if extra <= 0.0:
            return
        _count_fault("latency_spike")
        get_registry().counter("faults.latency_seconds").add(extra)
        inner = self.inner
        with inner._lock:
            inner.stats.busy_time += extra
            inner.clock.charge(inner, extra)

    def _flip_stored_bit(self, offset: int, size: int) -> None:
        _count_fault("bit_flip")
        pos, mask = self.plan.corruption_position(size)
        raw = bytearray(self.inner.store.read(offset + pos, 1))
        raw[0] ^= mask
        self.inner.store.write(offset + pos, bytes(raw))

    # ------------------------------------------------------------------ reads
    def read(self, offset: int, size: int) -> bytes:
        fault = self.plan.next_read_fault()
        self._charge_latency(fault.latency)
        if fault.transient:
            _count_fault("read_error")
            raise TransientIOError(
                f"injected transient read error at offset {offset} (+{size})"
            )
        return self.inner.read(offset, size)

    def read_batch(self, requests) -> list[bytes]:
        inner_batch = getattr(self.inner, "read_batch", None)
        latency = 0.0
        transient = False
        for _ in requests:
            fault = self.plan.next_read_fault()
            latency = max(latency, fault.latency)
            transient = transient or fault.transient
        self._charge_latency(latency)
        if transient:
            _count_fault("read_error")
            raise TransientIOError(
                f"injected transient read error in a batch of {len(requests)}"
            )
        if inner_batch is not None:
            return inner_batch(requests)
        return [self.inner.read(offset, size) for offset, size in requests]

    def read_sync(self, offset: int, size: int) -> bytes:
        fault = self.plan.next_read_fault()
        self._charge_latency(fault.latency)
        if fault.transient:
            _count_fault("read_error")
            raise TransientIOError(
                f"injected transient sync-read error at offset {offset}"
            )
        return self.inner.read_sync(offset, size)

    # ----------------------------------------------------------------- writes
    def write(self, offset: int, data: bytes) -> None:
        fault = self.plan.next_write_fault()
        self._charge_latency(fault.latency)
        if fault.transient:
            _count_fault("write_error")
            raise TransientIOError(
                f"injected transient write error at offset {offset} "
                f"(+{len(data)})"
            )
        if fault.torn_keep_fraction is not None:
            kept = int(len(data) * fault.torn_keep_fraction)
            if kept:
                self.inner.write(offset, data[:kept])
            _count_fault("torn_write")
            raise SimulatedCrash(
                f"torn write at offset {offset}: {kept}/{len(data)} bytes persisted"
            )
        self.inner.write(offset, data)
        if fault.bit_flip:
            self._flip_stored_bit(offset, len(data))


class NodeFaultPlan:
    """A node-level fault schedule keyed to *simulated time*.

    Device-level plans (:class:`FaultPlan`) model media faults per I/O
    operation; a :class:`NodeFaultPlan` models whole-node pathologies the
    availability layer must survive — the three shapes that dominate tail
    latency under fan-out:

    * **crash** — from ``crash_at`` on, every operation fails immediately
      with :class:`ReplicaUnavailableError` (fail-fast node death) until
      :meth:`recover` is called;
    * **stuck** — inside ``[stuck_at, stuck_until)`` an operation first
      burns ``stuck_op_seconds`` of the caller's clock (a hung RPC eating
      the deadline budget), *then* fails;
    * **slow-degrade** — inside ``[slow_at, slow_until)`` operations
      succeed but charge ``slow_op_seconds`` of extra latency, ramping
      linearly over ``slow_ramp_seconds`` (brown-out, not black-out).

    Consulted by :class:`~repro.core.replication.ReplicaSet` at the scan /
    apply boundary (not per device I/O), so cache-served scans on a dead
    node still fail — the node is gone, not just its disk.
    """

    def __init__(
        self,
        *,
        crash_at: Optional[float] = None,
        stuck_at: Optional[float] = None,
        stuck_until: float = float("inf"),
        stuck_op_seconds: float = 0.05,
        slow_at: Optional[float] = None,
        slow_until: float = float("inf"),
        slow_op_seconds: float = 0.02,
        slow_ramp_seconds: float = 0.0,
    ) -> None:
        self.crash_at = crash_at
        self.stuck_at = stuck_at
        self.stuck_until = stuck_until
        self.stuck_op_seconds = stuck_op_seconds
        self.slow_at = slow_at
        self.slow_until = slow_until
        self.slow_op_seconds = slow_op_seconds
        self.slow_ramp_seconds = slow_ramp_seconds

    # ---------------------------------------------------------------- queries
    def crashed(self, now: float) -> bool:
        return self.crash_at is not None and now >= self.crash_at

    def stuck(self, now: float) -> bool:
        return self.stuck_at is not None and self.stuck_at <= now < self.stuck_until

    def slow_penalty(self, now: float) -> float:
        if self.slow_at is None or not (self.slow_at <= now < self.slow_until):
            return 0.0
        if self.slow_ramp_seconds > 0.0:
            frac = min(1.0, (now - self.slow_at) / self.slow_ramp_seconds)
            return self.slow_op_seconds * frac
        return self.slow_op_seconds

    # ------------------------------------------------------------ consultation
    def before_op(self, clock) -> None:
        """Consult the plan before a node operation.

        Raises :class:`ReplicaUnavailableError` for crash/stuck (charging
        the stuck penalty first), advances ``clock`` for slow-degrade.
        """
        from repro.errors import ReplicaUnavailableError

        now = clock.now
        if self.crashed(now):
            _count_fault("node_crash")
            raise ReplicaUnavailableError(f"node crashed at t={self.crash_at}")
        if self.stuck(now):
            if self.stuck_op_seconds > 0.0:
                clock.advance(self.stuck_op_seconds)
            _count_fault("node_stuck")
            raise ReplicaUnavailableError(
                f"node stuck (hung {self.stuck_op_seconds}s before failing)"
            )
        penalty = self.slow_penalty(now)
        if penalty > 0.0:
            _count_fault("node_slow")
            get_registry().counter("faults.node_slow_seconds").add(penalty)
            clock.advance(penalty)

    def recover(self) -> None:
        """Clear the crash schedule (the node was repaired and restarted)."""
        self.crash_at = None


# ---------------------------------------------------------------------------
# Crash points.  Library code calls crash_point("site") at moments worth
# crashing at; the call is a no-op unless a plan with a matching crash_at()
# schedule is installed.
_active_plans: list[FaultPlan] = []


def crash_point(site: str) -> None:
    """Give every installed fault plan the chance to crash at ``site``."""
    if not _active_plans:
        return
    for plan in _active_plans:
        plan.check_crash_point(site)


def install_plan(plan: FaultPlan) -> None:
    _active_plans.append(plan)


def uninstall_plan(plan: FaultPlan) -> None:
    if plan in _active_plans:
        _active_plans.remove(plan)


class use_fault_plan:
    """Context manager installing a plan for crash-point checks.

    >>> plan = FaultPlan().crash_at("migration.emit", occurrence=100)
    >>> with use_fault_plan(plan):
    ...     run_workload()   # raises SimulatedCrash at the 100th emit
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def __enter__(self) -> FaultPlan:
        install_plan(self.plan)
        return self.plan

    def __exit__(self, exc_type, exc, tb) -> None:
        uninstall_plan(self.plan)
