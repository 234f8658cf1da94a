"""Request router: one snapshot timestamp, one fan-out/merge scan.

The router is the serving layer's only path into the engine.  Every request
draws exactly ONE timestamp from the global oracle and executes the whole
fan-out under it — however many key-range partitions, per-node scans,
hedged backups and failover retries the executor splits into, the request
observes a single committed prefix.  That single pinned timestamp is also
what makes failover and hedging *safe*: a backup replica scanned at the
same ``query_ts`` returns byte-identical rows, so retrying elsewhere can
never change an answer, only rescue it.

The backend protocol is ``clock`` + ``snapshot_ts()`` + ``fanout_scan()``,
and :class:`ReplicatedBackend` is its one implementation: a
:class:`~repro.core.replication.ReplicatedWarehouse` (``replication=1`` for
an unreplicated cluster) scanned partition by partition, each shard's rows
on one replica, a partition's shards concurrently on the simulated timeline
(the nodes share no device, so a partition costs its slowest shard), with
per-partition hedged reads (once a scan is late by a whole predicted backup
scan, a backup replica is scanned under the same
snapshot; first success wins, the loser is cancelled and counted),
circuit-breaker-routed failover, and
deadline-budgeted execution with per-tenant strict/degraded partial-result
policies.  The deterministic simulator serves through its own test double
of the same protocol (``repro.sim.actors._EnvBackend``).

Deadlines: a :class:`Deadline` is armed per request at dispatch and
threaded through the fan-out; it is checked at every partition boundary
and after every full :data:`~repro.core.replication.SCAN_STRIDE` rows
inside a drain.  Under :attr:`DeadlineMode.STRICT` an overrun raises the
typed, retryable :class:`~repro.errors.DeadlineExceededError`; under
:attr:`DeadlineMode.DEGRADED` the request returns the rows of every fully
covered key range plus the exact uncovered ranges, so the client knows
precisely what it did not see.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain, islice
from typing import Optional

from repro.core.replication import SCAN_STRIDE
from repro.errors import (
    DeadlineExceededError,
    NoHealthyReplicaError,
    ReplicationError,
    StorageError,
)
from repro.obs import get_registry


@dataclass(frozen=True)
class QueryRequest:
    """One tenant range query as the session manager dispatches it."""

    tenant: str
    session: int
    seq: int
    begin_key: int
    end_key: int
    #: Simulated instant the request arrived at the front door (open-loop
    #: arrivals may be long before dispatch when the server is backlogged).
    arrival: float = 0.0


@dataclass(frozen=True)
class QueryResult:
    """The client-visible outcome of one executed query."""

    request: QueryRequest
    rows: int
    query_ts: int
    #: Dispatch start (after queueing and admission delays), simulated.
    started: float
    finished: float
    #: DEGRADED deadline policy only: True when the deadline expired before
    #: the fan-out covered the whole range; ``uncovered`` then lists the
    #: exact closed key ranges the result is missing.
    partial: bool = False
    uncovered: tuple = ()
    #: The returned records themselves, kept only when the router was built
    #: with ``keep_records=True`` (correctness oracles; rows stay a count
    #: in serving benchmarks to keep memory flat).
    records: Optional[tuple] = None

    @property
    def service_seconds(self) -> float:
        return self.finished - self.started

    @property
    def latency_seconds(self) -> float:
        """Arrival-to-completion: queueing + admission delay + service."""
        return self.finished - self.request.arrival


class DeadlineMode(enum.Enum):
    """What a deadline overrun does to the request."""

    #: Fail the whole request with :class:`DeadlineExceededError`.
    STRICT = "strict"
    #: Return what was fully covered, plus the uncovered key ranges.
    DEGRADED = "degraded"


@dataclass(frozen=True)
class DeadlinePolicy:
    """One tenant's end-to-end budget contract."""

    budget_seconds: float
    mode: DeadlineMode = DeadlineMode.STRICT

    def __post_init__(self) -> None:
        if self.budget_seconds <= 0:
            raise ValueError(
                f"budget_seconds must be > 0, got {self.budget_seconds}"
            )


class Deadline:
    """A per-request budget armed on the shared simulated clock."""

    __slots__ = ("clock", "budget", "started")

    def __init__(self, clock, budget_seconds: float) -> None:
        self.clock = clock
        self.budget = budget_seconds
        self.started = clock.now

    @property
    def elapsed(self) -> float:
        return self.clock.now - self.started

    @property
    def remaining(self) -> float:
        return self.budget - self.elapsed

    @property
    def expired(self) -> bool:
        return self.elapsed > self.budget

    def check(self) -> None:
        """Raise :class:`DeadlineExceededError` once the budget is spent."""
        elapsed = self.elapsed
        if elapsed > self.budget:
            raise DeadlineExceededError(
                f"deadline exceeded: {elapsed:.6f}s elapsed of "
                f"{self.budget:.6f}s budget",
                budget=self.budget,
                elapsed=elapsed,
            )


def _full_strides(stream, rows: list):
    """Drain ``stream`` into ``rows`` a stride at a time, pausing after each
    full stride (the deadline and hedge checkpoint); a short stride means
    the stream is exhausted and ends the drain without a checkpoint."""
    while True:
        drained = len(rows)
        rows.extend(islice(stream, SCAN_STRIDE))
        if len(rows) - drained < SCAN_STRIDE:
            return
        yield


@dataclass
class FanoutOutcome:
    """What one replicated fan-out produced (rows + per-request counters)."""

    records: list
    uncovered: list
    hedges: int = 0
    hedge_wins: int = 0
    hedge_losses: int = 0
    failovers: int = 0


class ReplicatedBackend:
    """Hedged, failover-routed fan-out over a :class:`ReplicatedWarehouse`.

    Scheduling unit: one (partition, shard) scan on one replica.
    Partitions run one after another, so deadline checks at partition
    boundaries and DEGRADED's all-or-nothing partitions keep their meaning;
    a partition's shards run concurrently on the simulated timeline, each
    branch starting at the partition's start, so the partition costs its
    slowest shard.  Within a shard everything below is synchronous.  For
    each scan the executor asks :class:`~repro.server.health.FleetHealth`
    for the route order (primary first, open breakers last), drains the
    chosen replica, and

    * **fails over** on a typed replica error — the breaker records the
      failure and the next candidate is scanned under the same snapshot;
    * **hedges** when the drain outlives the break-even delay of
      :meth:`~repro.server.health.FleetHealth.hedge_delay` — the serving
      replica's predicted scan time plus a backup's (priced at the serving
      replica's) plus k deviations.  Within a shard the fan-out is
      synchronous: the backup starts where the serving drain pauses, with
      that drain's time already spent, so an earlier backup could only add
      a whole scan.
      The fleet's :class:`~repro.server.health.HedgeBudget` (deep enough to
      back up every shard scan of the widest request) must grant it; then
      the backup replica runs the same scan at the same ts, the first
      complete result wins and the loser is cancelled (its partial drain
      is simply abandoned; with one snapshot both answers were
      interchangeable).  A lost backup's time is not charged to the
      serving replica's tracker;
    * **checks the deadline** at every partition boundary and drain stride.
    """

    def __init__(
        self,
        warehouse,
        health=None,
        blocks_per_partition: Optional[int] = None,
        scope: str = "server",
        repair_queue=None,
    ) -> None:
        from repro.server.health import FleetHealth

        self.warehouse = warehouse
        self.clock = warehouse.clock
        self.health = health if health is not None else FleetHealth(
            self.clock, scope=scope
        )
        self.blocks_per_partition = blocks_per_partition
        #: Optional :class:`~repro.server.health.RepairQueue`: typed scan
        #: failures and hedge-detected divergence drop a repair intent here
        #: instead of repairing inline (read-repair must not blow the
        #: request deadline).
        self.repair_queue = repair_queue
        registry = get_registry()
        self._obs_hedges = registry.counter(f"{scope}.hedges")
        self._obs_hedge_wins = registry.counter(f"{scope}.hedge_wins")
        self._obs_hedge_losses = registry.counter(f"{scope}.hedge_losses")
        self._obs_cancelled = registry.counter(f"{scope}.hedged_cancelled")
        self._obs_failovers = registry.counter(f"{scope}.read_failovers")
        self._obs_unavailable = registry.counter(f"{scope}.shard_unavailable")
        self._obs_divergence = registry.counter(f"{scope}.read_divergence")

    def _schedule_repair(self, shard_id: int, reason: str) -> None:
        if self.repair_queue is not None:
            self.repair_queue.schedule(shard_id, reason)

    def snapshot_ts(self) -> int:
        return self.warehouse.oracle.next()

    # ------------------------------------------------------------- execution
    def fanout_scan(
        self,
        begin_key: int,
        end_key: int,
        query_ts: int,
        deadline: Optional[Deadline] = None,
        strict: bool = True,
    ) -> FanoutOutcome:
        """Run the full hedged/failover fan-out; returns rows + counters.

        STRICT (``strict=True``): any deadline overrun or fully
        unavailable shard raises.  DEGRADED: the outcome carries the rows
        of every completed partition and the exact uncovered key ranges
        (a partition is all-or-nothing, so returned rows are never a
        partial, misleading slice of a key range).
        """
        bounds = self._bounds(begin_key, end_key)
        self.health.budget.cover(len(bounds) * self.warehouse.num_shards)
        outcome = FanoutOutcome(records=[], uncovered=[])
        for index, (lo, hi) in enumerate(bounds):
            if deadline is not None and deadline.expired:
                if strict:
                    deadline.check()
                outcome.uncovered.extend(bounds[index:])
                break
            try:
                outcome.records.extend(
                    self._scan_partition(lo, hi, query_ts, deadline, outcome)
                )
            except DeadlineExceededError:
                if strict:
                    raise
                outcome.uncovered.extend(bounds[index:])
                break
            except NoHealthyReplicaError:
                self._obs_unavailable.add(1)
                if strict:
                    raise
                outcome.uncovered.append((lo, hi))
        return outcome

    def _bounds(self, begin_key: int, end_key: int) -> list:
        if self.blocks_per_partition is None:
            return self.warehouse.partition_bounds(begin_key, end_key)
        return self.warehouse.partition_bounds(
            begin_key, end_key, self.blocks_per_partition
        )

    def _scan_partition(
        self, lo: int, hi: int, query_ts: int, deadline, outcome: FanoutOutcome
    ) -> list:
        """One partition: every shard's rows, merged key-ordered.

        The shards share no device, so their scans run concurrently on the
        simulated timeline (:meth:`~repro.storage.clock.SimClock.concurrently`):
        each starts at the partition's start and the partition costs its
        slowest shard.  Each shard's list is one sorted run, so sorting
        their concatenation is a Timsort merge of k runs on a C-level key.
        """
        per_shard = self.clock.concurrently(
            self._scan_shard,
            range(self.warehouse.num_shards),
            lo,
            hi,
            query_ts,
            deadline,
            outcome,
        )
        return sorted(
            chain.from_iterable(per_shard), key=self.warehouse.schema.key_of
        )

    def _scan_shard(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        query_ts: int,
        deadline,
        outcome: FanoutOutcome,
    ) -> list:
        """One shard's rows for one partition, with failover + hedging."""
        primary_id, replica_ids = self.warehouse.shard_route_ids(shard_id)
        order = self.health.route_order(shard_id, primary_id, replica_ids)
        attempted = 0
        for replica_id in order:
            health = self.health.for_replica(shard_id, replica_id)
            if not health.allow():
                continue
            attempted += 1
            rows = self._attempt(
                shard_id, replica_id, lo, hi, query_ts, deadline, outcome
            )
            if rows is not None:
                return rows
            outcome.failovers += 1
            self._obs_failovers.add(1)
        if attempted == 0 and order:
            # Every breaker open: one last-resort attempt beats certain
            # failure, and its outcome feeds the breaker either way.
            rows = self._attempt(
                shard_id, order[0], lo, hi, query_ts, deadline, outcome
            )
            if rows is not None:
                return rows
        raise NoHealthyReplicaError(
            f"shard {shard_id}: no replica could serve [{lo}, {hi}] "
            f"at ts={query_ts}"
        )

    def _attempt(
        self,
        shard_id: int,
        replica_id: int,
        lo: int,
        hi: int,
        query_ts: int,
        deadline,
        outcome: FanoutOutcome,
    ) -> Optional[list]:
        """Drain one replica; hedge if slow.  None = typed failure."""
        health = self.health.for_replica(shard_id, replica_id)
        self.health.budget.earn()
        hedge_delay = self.health.hedge_delay(shard_id, replica_id)
        start = self.clock.now
        rows: list = []
        hedged = False
        try:
            stream = self.warehouse.scan_shard_partition(
                shard_id, lo, hi, query_ts, replica_id=replica_id
            )
            for _ in _full_strides(stream, rows):
                if deadline is not None:
                    deadline.check()
                if (
                    not hedged
                    and hedge_delay is not None
                    and self.clock.now - start > hedge_delay
                ):
                    hedged = True
                    hedge_start = self.clock.now
                    backup_rows = self._hedge(
                        shard_id, replica_id, lo, hi, query_ts, deadline, outcome
                    )
                    if backup_rows is not None:
                        # Backup won: cancel the primary drain (abandon its
                        # stream — same snapshot, interchangeable answers).
                        # Interchangeable means the abandoned prefix must be
                        # a prefix of the winner; disagreement is evidence
                        # of replica damage → schedule a read-repair.
                        if rows != backup_rows[: len(rows)]:
                            self._obs_divergence.add(1)
                            self._schedule_repair(shard_id, "hedge-divergence")
                        self._obs_cancelled.add(1)
                        return backup_rows
                    # The lost backup's time is its own, not this replica's.
                    start += self.clock.now - hedge_start
        except (StorageError, ReplicationError):
            health.failure()
            self._schedule_repair(shard_id, "scan-failure")
            return None
        except DeadlineExceededError:
            # Overruns count against the breaker too: a replica that keeps
            # blowing budgets is as useless as one that errors.
            health.failure()
            raise
        health.success(self.clock.now - start)
        return rows

    def _hedge(
        self,
        shard_id: int,
        serving_id: int,
        lo: int,
        hi: int,
        query_ts: int,
        deadline,
        outcome: FanoutOutcome,
    ) -> Optional[list]:
        """Issue the backup read; returns its rows, or None if it lost or
        the hedge budget is spent."""
        backup_id = self._pick_backup(shard_id, serving_id)
        if backup_id is None or not self.health.budget.spend():
            return None
        outcome.hedges += 1
        self._obs_hedges.add(1)
        backup = self.health.for_replica(shard_id, backup_id)
        if not backup.allow():
            outcome.hedge_losses += 1
            self._obs_hedge_losses.add(1)
            return None
        start = self.clock.now
        rows: list = []
        try:
            stream = self.warehouse.scan_shard_partition(
                shard_id, lo, hi, query_ts, replica_id=backup_id
            )
            for _ in _full_strides(stream, rows):
                if deadline is not None:
                    deadline.check()
        except (StorageError, ReplicationError):
            backup.failure()
            self._schedule_repair(shard_id, "hedge-scan-failure")
            outcome.hedge_losses += 1
            self._obs_hedge_losses.add(1)
            return None
        backup.success(self.clock.now - start)
        outcome.hedge_wins += 1
        self._obs_hedge_wins.add(1)
        return rows

    def _pick_backup(self, shard_id: int, serving_id: int) -> Optional[int]:
        primary_id, replica_ids = self.warehouse.shard_route_ids(shard_id)
        for replica_id in self.health.route_order(
            shard_id, primary_id, replica_ids
        ):
            if replica_id == serving_id:
                continue
            if self.health.for_replica(shard_id, replica_id).would_allow():
                return replica_id
        return None


class RequestRouter:
    """Executes admitted requests against a backend, fully draining each.

    The router is deliberately synchronous: one request occupies the server
    between ``started`` and ``finished`` on the shared simulated timeline,
    which is exactly what makes queueing visible to open-loop sessions.
    """

    def __init__(
        self, backend, scope: str = "server", keep_records: bool = False
    ) -> None:
        self.backend = backend
        self.clock = backend.clock
        self.keep_records = keep_records
        registry = get_registry()
        self._requests = registry.counter(f"{scope}.requests")
        self._rows = registry.counter(f"{scope}.rows")
        self._service_hist = registry.histogram(f"{scope}.service_seconds")
        self._deadline_exceeded = registry.counter(f"{scope}.deadline_exceeded")
        self._partials = registry.counter(f"{scope}.partial_results")

    def execute(
        self,
        request: QueryRequest,
        deadline_policy: Optional[DeadlinePolicy] = None,
    ) -> QueryResult:
        """Run one query under one fresh snapshot timestamp."""
        started = self.clock.now
        query_ts = self.backend.snapshot_ts()
        deadline = (
            Deadline(self.clock, deadline_policy.budget_seconds)
            if deadline_policy is not None
            else None
        )
        strict = (
            deadline_policy is None
            or deadline_policy.mode is DeadlineMode.STRICT
        )
        try:
            outcome = self.backend.fanout_scan(
                request.begin_key,
                request.end_key,
                query_ts,
                deadline=deadline,
                strict=strict,
            )
        except DeadlineExceededError:
            self._deadline_exceeded.add(1)
            raise
        finished = self.clock.now
        records, uncovered = outcome.records, outcome.uncovered
        partial = bool(uncovered)
        if partial:
            self._partials.add(1)
        self._requests.add(1)
        self._rows.add(len(records))
        self._service_hist.observe(finished - started)
        return QueryResult(
            request=request,
            rows=len(records),
            query_ts=query_ts,
            started=started,
            finished=finished,
            partial=partial,
            uncovered=tuple(uncovered),
            records=tuple(records) if self.keep_records else None,
        )
