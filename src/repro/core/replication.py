"""Shard replication: N MaSM engines per key range, failover, catch-up.

A :class:`ReplicaSet` runs the same key range on N independent nodes (each
built by the exact :func:`~repro.core.sharding.build_shard_node` recipe an
unreplicated shard uses).  Replication is deterministic
*primary-admits-then-ships*: the primary admits an update, then it and
every ONLINE follower ingest the **same** :class:`UpdateRecord` (same
timestamp, same payload), each logging it to its own redo log before
buffering, side by side on the simulated timeline.
Because MaSM visibility is a pure function of the update stream
and the query timestamp, two replicas that ingested the same stream return
byte-identical rows for any scan at the same snapshot ts, regardless of how
differently their buffers flushed or their runs merged.

Failure model (driven by :class:`~repro.storage.faults.NodeFaultPlan` or by
explicit :meth:`crash_replica` calls):

* a **crashed** replica loses its in-memory state; its heap file, SSD run
  files and redo log survive.  A crashed primary is failed over: the next
  ONLINE follower is promoted (it holds the full shipped history, so no
  data is lost — replication is synchronous).
* a follower that fails a ship is marked CRASHED immediately: a replica
  that missed even one update may no longer serve reads.
* **rejoin** is a two-step path: :meth:`recover_replica` rebuilds the
  engine from the surviving durable state (the standard crash restart,
  :func:`~repro.txn.recovery.restart_masm`), then
  :meth:`catch_up` replays, from the *current primary's* redo log, exactly
  the UPDATE records newer than the rejoiner's recovered watermark.

Checkpointing bounds the WAL (:meth:`ReplicaSet.maintenance`): each ONLINE
replica periodically cuts a :class:`~repro.core.manifest.Checkpoint` — a fence
``checkpoint_ts`` below which its flushed runs and migrated ranges are the
durable home of every update — and compacts away the WAL prefix it covers,
leaving the stale tail to its generation stamp.  That makes redo logs
*finite*, which introduces the one case incremental rejoin cannot handle: a
replica whose recovered watermark predates the primary's truncation fence
(or whose durable state was wiped entirely) raises
:class:`~repro.errors.BootstrapRequiredError` and is instead rebuilt
wholesale by :meth:`ReplicaSet.bootstrap_replica`: a CRC-verified engine
snapshot (heap + runs + checkpoint) exported from a healthy peer is laid
down as the replica's durable state (:func:`~repro.txn.recovery.lay_down_snapshot`:
heap bytes, run files, a fresh WAL whose first frame is the checkpoint),
the replica restarts through the same crash recovery a rejoin runs
(:func:`~repro.txn.recovery.restart_masm`), then catches up ``ts >
fence`` as usual.

Anti-entropy (:meth:`ReplicaSet.anti_entropy`) closes the silent-corruption
gap: each ONLINE replica checksum-verifies its runs; a damaged run is
rebuilt from the replica's own redo log when the log still covers its span,
otherwise from a healthy peer (the donor hands over the damaged run's raw
timestamp span — run *layouts* diverge across replicas, run *contents* per
span do not).  The serving router additionally schedules a targeted repair
whenever a fan-out scan fails typed or hedged replicas disagree
(read-repair).

Watermark correctness: timestamps are drawn from one shared oracle, and a
replica receives every update while ONLINE — so everything it missed has a
timestamp strictly greater than everything it durably saw
(``RecoveryReport.max_timestamp_seen``).  Catch-up replays ``ts >
watermark`` and can neither skip nor double-apply an update.

:class:`ReplicatedWarehouse` composes one :class:`ReplicaSet` per shard
behind one routing surface (bulk load, routed updates, fan-out scans,
node-local migration), plus the per-replica scan entry points the hedged
fan-out executor in :mod:`repro.server.router` schedules over.  It is the
one warehouse topology: the paper's unreplicated shared-nothing cluster
(Section 5) is ``ReplicatedWarehouse(schema, n, SimClock(), replication=1)``.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

import dataclasses as _dc

from repro.core import kernels
from repro.core.masm import MaSM, MaSMConfig
from repro.core.sharding import ShardNode, build_shard_node, hash_partitioner
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import Schema
from repro.engine.table import Table
from repro.errors import (
    BootstrapRequiredError,
    NoHealthyReplicaError,
    RecoveryError,
    ReplicaUnavailableError,
    ReplicationError,
    ReproError,
)
from repro.obs import get_registry, trace
from repro.storage.clock import SimClock
from repro.storage.faults import NodeFaultPlan
from repro.txn.log import RedoLog
from repro.txn.recovery import RecoveryReport, lay_down_snapshot, restart_masm
from repro.txn.timestamps import TimestampOracle
from repro.util.units import MB

#: Rows a served scan moves per step.  The replica re-consults its fault
#: plan, and the router its deadline and hedge delay, once per full stride:
#: a node that crashes while a scan is draining fails the scan within one
#: stride, not at the next scan.
SCAN_STRIDE = 64


class ReplicaState(enum.Enum):
    ONLINE = "online"
    CRASHED = "crashed"
    CATCHING_UP = "catching_up"
    #: A snapshot bootstrap is in flight: the replica's durable state was lost
    #: (or predates the primary's WAL truncation fence) and is being rebuilt
    #: wholesale from a healthy peer's export.
    BOOTSTRAPPING = "bootstrapping"


@dataclass
class Replica:
    """One member of a replica set: a full shard node plus replica state."""

    shard_id: int
    replica_id: int
    node: ShardNode
    config: MaSMConfig
    state: ReplicaState = ReplicaState.ONLINE
    faults: Optional[NodeFaultPlan] = None
    #: Durable state (runs + WAL) was destroyed; only a snapshot bootstrap
    #: can bring this replica back.
    wiped: bool = False

    @property
    def masm(self) -> MaSM:
        return self.node.masm

    @property
    def table(self) -> Table:
        return self.node.table

    @property
    def wal(self) -> Optional[RedoLog]:
        return self.node.masm.redo_log

    @property
    def name(self) -> str:
        return f"shard{self.shard_id}.r{self.replica_id}"


class ReplicaSet:
    """N MaSM engines over one key range with deterministic replication."""

    def __init__(
        self,
        shard_id: int,
        schema: Schema,
        oracle: TimestampOracle,
        clock: SimClock,
        replicas: list[Replica],
    ) -> None:
        if not replicas:
            raise ReplicationError("a replica set needs at least one replica")
        self.shard_id = shard_id
        self.schema = schema
        #: Encodes each update once for every replica's log and buffer.
        self.codec = UpdateCodec(schema)
        self.oracle = oracle
        self.clock = clock
        self.replicas = replicas
        self.primary_id = replicas[0].replica_id
        #: (primary id, its ``runs_merged``) at the last maintenance tick.
        self._merges_seen = (self.primary_id, 0)
        registry = get_registry()
        self._obs_ships = registry.counter("replication.ships")
        self._obs_failovers = registry.counter("replication.failovers")
        self._obs_follower_drops = registry.counter("replication.follower_drops")
        self._obs_catchup = registry.counter("replication.catchup_updates")
        self._obs_recoveries = registry.counter("replication.recoveries")
        self._obs_checkpoints = registry.counter("replication.checkpoints")
        self._obs_bootstraps = registry.counter("replication.bootstraps")
        self._obs_repairs = registry.counter("replication.repairs")
        self._obs_scrubs = registry.counter("replication.scrubs")
        self._online_gauge = registry.gauge(
            f"replication.shard.{shard_id}.online"
        )
        self._online_gauge.set(len(replicas))

    # -------------------------------------------------------------- building
    @classmethod
    def build(
        cls,
        shard_id: int,
        schema: Schema,
        oracle: TimestampOracle,
        clock: SimClock,
        replication: int = 3,
        *,
        records_per_node: int = 20_000,
        disk_capacity: int = 256 * MB,
        ssd_capacity: int = 8 * MB,
        masm_config: Optional[MaSMConfig] = None,
        wrap_device: Optional[Callable[[str, object], object]] = None,
        node_faults: Optional[Dict[int, NodeFaultPlan]] = None,
    ) -> "ReplicaSet":
        """Build ``replication`` identical nodes for one shard.

        Every replica gets a redo log (replication *requires* WALs: the
        catch-up path replays the primary's).  Followers are built with
        admission governance stripped — the primary's admission decision
        is the set's decision; a follower that shed a shipped update would
        silently diverge.
        """
        if replication < 1:
            raise ReplicationError(f"replication must be >= 1, got {replication}")
        replicas: list[Replica] = []
        for replica_id in range(replication):
            config = (
                _dc.replace(masm_config)
                if masm_config is not None
                else MaSMConfig(alpha=1.2, auto_migrate=False)
            )
            if replica_id > 0:
                config = _dc.replace(config, governor=None)
            node = build_shard_node(
                shard_id,
                schema,
                records_per_node=records_per_node,
                disk_capacity=disk_capacity,
                ssd_capacity=ssd_capacity,
                masm_config=config,
                oracle=oracle,
                clock=clock,
                wrap_device=wrap_device,
                attach_log=True,
                device_label=f"{shard_id}.{replica_id}",
                table_name=f"shard-{shard_id}",
                masm_name=f"masm-shard-{shard_id}r{replica_id}",
                wal_name=f"wal-{shard_id}r{replica_id}",
            )
            plan = (node_faults or {}).get(replica_id)
            replicas.append(
                Replica(shard_id, replica_id, node, config, faults=plan)
            )
        return cls(shard_id, schema, oracle, clock, replicas)

    # --------------------------------------------------------------- queries
    @property
    def primary(self) -> Replica:
        return self.replicas[self.primary_id]

    def replica(self, replica_id: int) -> Replica:
        return self.replicas[replica_id]

    def online_ids(self) -> list[int]:
        return [r.replica_id for r in self.replicas if r.state is ReplicaState.ONLINE]

    def replica_ids(self) -> list[int]:
        return [r.replica_id for r in self.replicas]

    def _set_state(self, replica: Replica, state: ReplicaState) -> None:
        replica.state = state
        self._online_gauge.set(len(self.online_ids()))

    # --------------------------------------------------------------- updates
    def _guard(self, replica: Replica) -> None:
        """State + node-fault check before any operation on ``replica``.

        A fault-plan crash converges into replica state here, so the set's
        view of who is alive tracks the injected schedule.
        """
        if replica.state is not ReplicaState.ONLINE:
            raise ReplicaUnavailableError(
                f"replica {replica.name} is {replica.state.value}"
            )
        if replica.faults is not None:
            try:
                replica.faults.before_op(self.clock)
            except ReplicaUnavailableError:
                if replica.faults.crashed(self.clock.now):
                    self._mark_crashed(replica)
                raise

    def _mark_crashed(self, replica: Replica) -> None:
        if replica.state is ReplicaState.CRASHED:
            return
        self._set_state(replica, ReplicaState.CRASHED)
        if replica.replica_id == self.primary_id:
            self._promote()

    def _promote(self) -> None:
        """Fail the primary over to the next ONLINE follower.

        Safe because replication is synchronous: every ONLINE follower has
        ingested the complete shipped history, so any of them can serve as
        primary without data loss.
        """
        for replica in self.replicas:
            if replica.state is ReplicaState.ONLINE:
                self.primary_id = replica.replica_id
                self._obs_failovers.add(1)
                with trace(
                    "replication.failover",
                    shard=self.shard_id,
                    new_primary=replica.replica_id,
                ):
                    pass
                return
        # No ONLINE replica: leave primary_id pointing at the corpse; the
        # next apply/scan raises NoHealthyReplicaError.

    def apply(self, update: UpdateRecord) -> None:
        """Primary admits, then every ONLINE replica ingests the same record.

        The update is encoded once, first: an ill-formed one is rejected
        before any replica sees it, and every replica logs and buffers the
        same bytes.  The primary's admission (delay, shed or a migration
        slice) is the set's and precedes any ship; from the instant it ends,
        the primary's ingest and each ship are concurrent branches of the
        simulated timeline (no shared device: an update costs its slowest
        replica).  Python still runs them primary first, so all but the
        clock is what a serial ship would do.

        A primary that fails mid-apply is marked CRASHED and the apply is
        retried on the promoted follower, from the instant the failure was
        detected — the client sees one successful ingest, not a failure
        plus a retry.  Followers that fail their ship are dropped (CRASHED)
        and must rejoin via recover + catch-up.
        """
        encoded = self.codec.encode(update)
        while True:
            primary = self.primary
            if primary.state is not ReplicaState.ONLINE:
                raise NoHealthyReplicaError(
                    f"shard {self.shard_id}: no online replica to apply "
                    f"update ts={update.timestamp}"
                )
            try:
                self._guard(primary)
                masm = primary.masm
                masm.admit(update)
                admitted = self.clock.now
                masm.ingest(update, encoded)
                break
            except ReplicaUnavailableError:
                self._mark_crashed(primary)
                if not self.online_ids():
                    raise NoHealthyReplicaError(
                        f"shard {self.shard_id}: every replica is down"
                    ) from None
                continue
        for follower in self.clock.branches(self.replicas, origin=admitted):
            if (
                follower.replica_id == self.primary_id
                or follower.state is not ReplicaState.ONLINE
            ):
                continue
            try:
                self._guard(follower)
                masm = follower.masm
                masm.admit(update)
                masm.ingest(update, encoded)
                self._obs_ships.add(1)
            except ReproError:
                # Any failed ship (node fault, storage error, shed) leaves
                # the follower behind by one update: drop it from the set
                # until it rejoins through recover + catch-up.
                self._obs_follower_drops.add(1)
                self._mark_crashed(follower)

    def insert(self, record: tuple) -> int:
        ts = self.oracle.next()
        self.apply(
            UpdateRecord(ts, self.schema.key(record), UpdateType.INSERT, record)
        )
        return ts

    def delete(self, key: int) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.DELETE, None))
        return ts

    def modify(self, key: int, changes: dict) -> int:
        ts = self.oracle.next()
        self.apply(UpdateRecord(ts, key, UpdateType.MODIFY, dict(changes)))
        return ts

    # ----------------------------------------------------------------- scans
    def scan(
        self,
        begin_key: int,
        end_key: int,
        query_ts: int,
        replica_id: Optional[int] = None,
    ) -> Iterator[tuple]:
        """Scan one replica (default: the primary) at a pinned snapshot ts.

        The stream re-consults the replica's fault plan after every full
        :data:`SCAN_STRIDE` rows have been handed over, so a node that
        crashes or wedges *mid-drain* fails the scan with
        :class:`ReplicaUnavailableError` promptly — which is what lets the
        fan-out executor fail the partition over to another replica under
        the same ``query_ts`` and still return byte-identical rows.  Rows
        move a stride-sized list at a time, so a consumer that drains with
        ``islice``/``extend`` runs no Python frame per row.
        """
        replica = self.replicas[
            self.primary_id if replica_id is None else replica_id
        ]
        self._guard(replica)
        inner = replica.masm.range_scan(begin_key, end_key, query_ts=query_ts)

        def strides() -> Iterator[list]:
            while True:
                stride = list(islice(inner, SCAN_STRIDE))
                yield stride
                if len(stride) < SCAN_STRIDE:
                    return
                self._guard(replica)

        return chain.from_iterable(strides())

    # ------------------------------------------------------------- lifecycle
    def crash_replica(self, replica_id: int) -> None:
        """Kill a replica: in-memory state is lost, durable files survive."""
        self._mark_crashed(self.replicas[replica_id])

    def recover_replica(self, replica_id: int) -> "Replica":
        """Rebuild a crashed replica's engine from its surviving storage.

        The standard crash-recovery path: a bare table over the surviving
        heap, the surviving redo log rescanned from offset zero, runs
        reloaded from the SSD.  The replica comes back CATCHING_UP — it
        holds everything it durably saw, but nothing shipped while it was
        down — and must :meth:`catch_up` before serving again.
        """
        replica = self.replicas[replica_id]
        if replica.state is not ReplicaState.CRASHED:
            raise ReplicationError(
                f"replica {replica.name} is {replica.state.value}, not crashed"
            )
        if replica.wiped:
            raise BootstrapRequiredError(
                f"replica {replica.name} was wiped: no durable state to "
                "recover; bootstrap from a healthy peer"
            )
        old = replica.masm
        if old.redo_log is None:
            raise ReplicationError(
                f"replica {replica.name} has no redo log to recover from"
            )
        recovered, report = self._restart(replica, old.redo_log.file)
        if report.unrecoverable_gaps:
            # Damaged runs whose content predates the checkpoint fence: the
            # truncated log cannot rebuild them, so the local state is
            # silently incomplete — serving from it would break the
            # byte-identical invariant.  Stay CRASHED; bootstrap instead.
            raise BootstrapRequiredError(
                f"replica {replica.name}: recovery found "
                f"{report.unrecoverable_gaps} timestamp gap(s) below the "
                f"checkpoint fence {report.checkpoint_ts}; local rebuild is "
                "impossible — bootstrap from a healthy peer"
            )
        self._swap_in(replica, recovered, report)
        return replica

    def _restart(self, replica: Replica, wal_file) -> tuple[MaSM, RecoveryReport]:
        """Crash-restart ``replica``'s engine over its durable state."""
        old = replica.masm
        return restart_masm(
            old.table,
            old.ssd,
            wal_file,
            config=replica.config,
            oracle=self.oracle,
            name=old.name,
        )

    def _swap_in(
        self, replica: Replica, engine: MaSM, report: RecoveryReport
    ) -> None:
        """Make a restarted ``engine`` the replica's; it comes back
        CATCHING_UP."""
        # Everything the replica durably ingested has ts <= this watermark;
        # everything it missed while down is strictly newer (one shared,
        # monotonic oracle).  catch_up() replays exactly ts > watermark.
        engine.last_update_ts = max(
            report.max_timestamp_seen, engine.flushed_through
        )
        node = replica.node
        replica.node = ShardNode(
            node.node_id, node.disk, node.ssd, engine.table, engine, node.cpu
        )
        replica.wiped = False
        if replica.faults is not None:
            replica.faults.recover()
        self._set_state(replica, ReplicaState.CATCHING_UP)
        self._obs_recoveries.add(1)

    def catch_up(self, replica_id: int) -> int:
        """Replay missed updates from the current primary's redo log.

        Returns the number of updates applied.  The rejoiner transitions
        ONLINE afterwards and is eligible for reads, ships and promotion.
        """
        replica = self.replicas[replica_id]
        if replica.state is not ReplicaState.CATCHING_UP:
            raise ReplicationError(
                f"replica {replica.name} is {replica.state.value}; "
                "recover_replica() first"
            )
        primary = self.primary
        if primary.state is not ReplicaState.ONLINE:
            if not self.online_ids():
                # Total outage, and this replica is the first one back:
                # there is nobody to replay from, so its recovered local
                # WAL *is* the authoritative state.  (Ships are synchronous
                # to every online replica, so the last replica to crash —
                # which is the one operators rejoin first — holds every
                # acknowledged update.)  Promote it and resume service;
                # later rejoiners catch up or bootstrap from it as usual.
                self._set_state(replica, ReplicaState.ONLINE)
                self.primary_id = replica_id
                return 0
            raise NoHealthyReplicaError(
                f"shard {self.shard_id}: no online primary to catch up from"
            )
        applied = 0
        if replica is not primary:
            watermark = replica.masm.last_update_ts
            source = primary.wal
            if source is None:
                raise ReplicationError(
                    f"primary {primary.name} has no redo log to catch up from"
                )
            if source.truncated_through > watermark:
                # The primary checkpointed and reclaimed WAL records the
                # rejoiner still needs: incremental catch-up would silently
                # skip them.  Only a snapshot bootstrap can close the gap.
                self._set_state(replica, ReplicaState.CRASHED)
                raise BootstrapRequiredError(
                    f"replica {replica.name}: watermark {watermark} predates "
                    f"the primary's WAL truncation fence "
                    f"{source.truncated_through}; bootstrap required"
                )
            with trace(
                "replication.catch_up",
                shard=self.shard_id,
                replica=replica_id,
                watermark=watermark,
            ):
                decode = self.codec.decode
                for encoded in source.encoded_updates(primary.table.name, watermark + 1):
                    replica.masm.apply(decode(encoded)[0], encoded)
                    applied += 1
        self._obs_catchup.add(applied)
        self._set_state(replica, ReplicaState.ONLINE)
        return applied

    def rejoin(self, replica_id: int) -> int:
        """Recover + catch up, falling back to a snapshot bootstrap.

        The incremental path (local crash recovery, then WAL replay from
        the primary) is tried first; when it is impossible — the replica
        was wiped, its damaged runs predate the checkpoint fence, or its
        watermark predates the primary's WAL truncation — the replica is
        bootstrapped wholesale from a healthy peer instead.  Either way
        the replica ends ONLINE with byte-identical content.
        """
        try:
            self.recover_replica(replica_id)
        except BootstrapRequiredError:
            return self.bootstrap_replica(replica_id)
        try:
            return self.catch_up(replica_id)
        except BootstrapRequiredError:
            return self.bootstrap_replica(replica_id)

    def wipe_replica(self, replica_id: int) -> None:
        """Destroy a replica's durable state (runs *and* WAL).

        Models total node loss — disk replacement, datacenter fire, a
        provisioning bug.  The replica is crashed first (if it was not
        already); afterwards only :meth:`bootstrap_replica` can revive it.
        """
        replica = self.replicas[replica_id]
        if replica.state is not ReplicaState.CRASHED:
            self._mark_crashed(replica)
        ssd_volume = replica.masm.ssd
        for file_name in list(ssd_volume):
            ssd_volume.delete(file_name)
        # Total loss includes the base data: truncating to nothing zeroes
        # the heap's logical extent, so nothing of the old contents can leak
        # into a later bootstrap.
        replica.table.heap.truncate(0)
        replica.wiped = True
        get_registry().counter("replication.wipes").add(1)

    def bootstrap_replica(
        self, replica_id: int, source_id: Optional[int] = None
    ) -> int:
        """Rebuild a replica wholesale from a healthy peer's snapshot.

        Exports a consistent engine snapshot (heap + runs + checkpoint,
        CRC-verified end to end) from ``source_id`` (default: the primary),
        lays it down as the target's durable state, restarts the target
        through the same crash recovery :meth:`recover_replica` runs — which
        must come back at the snapshot's fence with every run — then
        catches up ``ts > fence`` from the primary's (finite) WAL.  Returns
        the number of catch-up updates applied.
        """
        replica = self.replicas[replica_id]
        if replica.state not in (ReplicaState.CRASHED, ReplicaState.ONLINE):
            raise ReplicationError(
                f"replica {replica.name} is {replica.state.value}; cannot "
                "bootstrap"
            )
        if replica.state is ReplicaState.ONLINE:
            self._mark_crashed(replica)
        if source_id is None:
            source_id = (
                self.primary_id
                if self.primary.state is ReplicaState.ONLINE
                else next(iter(self.online_ids()), None)
            )
        if source_id is None or source_id == replica_id:
            raise NoHealthyReplicaError(
                f"shard {self.shard_id}: no healthy peer to bootstrap "
                f"replica {replica_id} from"
            )
        source = self.replicas[source_id]
        self._guard(source)
        self._set_state(replica, ReplicaState.BOOTSTRAPPING)
        with trace(
            "replication.bootstrap",
            shard=self.shard_id,
            replica=replica_id,
            source=source_id,
        ):
            snapshot = source.masm.export_snapshot()
            old = replica.masm
            wal_file = lay_down_snapshot(
                snapshot, old.table, old.ssd, old.name, old.redo_log.file.name
            )
            engine, report = self._restart(replica, wal_file)
            fence = snapshot.checkpoint.checkpoint_ts
            if (
                report.checkpoint_ts != fence
                or report.runs_reloaded != len(snapshot.runs)
            ):
                raise RecoveryError(
                    f"replica {replica.name}: the laid-down snapshot restarted "
                    f"at fence {report.checkpoint_ts} with "
                    f"{report.runs_reloaded} run(s), not at {fence} with "
                    f"{len(snapshot.runs)}"
                )
            self._swap_in(replica, engine, report)
            self._obs_bootstraps.add(1)
        return self.catch_up(replica_id)

    # ---------------------------------------------------------- housekeeping
    def maintenance(
        self,
        wal_budget_bytes: Optional[int] = None,
        force_checkpoint: bool = False,
    ) -> dict:
        """One background housekeeping tick per ONLINE replica.

        Cuts a checkpoint (and truncates the WAL behind it) on any replica
        whose live WAL exceeds ``wal_budget_bytes`` (default: half the WAL
        file), and refreshes the per-replica gauges
        (``replication.shard.S.rR.*``).  If the primary's scans merged runs
        since the last tick, every ONLINE follower brings its own run set
        within the query budget (:meth:`MaSM.ensure_run_budget`): a
        follower's runs are otherwise merged only by the hedges and
        failovers that happen to scan it, in their own preambles.  The
        replicas' ticks are concurrent branches of the simulated timeline.
        """
        registry = get_registry()
        report: dict = {}
        merges = (self.primary_id, self.primary.masm.stats.runs_merged)
        follow, self._merges_seen = merges != self._merges_seen, merges
        for replica in self.clock.branches(self.replicas):
            wal = replica.wal
            entry = {"state": replica.state.value}
            if (
                follow
                and replica.state is ReplicaState.ONLINE
                and replica.replica_id != self.primary_id
            ):
                replica.masm.ensure_run_budget()
            if wal is not None and not replica.wiped:
                budget = wal.file.size // 2 if wal_budget_bytes is None else wal_budget_bytes
                if replica.state is ReplicaState.ONLINE and (
                    force_checkpoint or wal.live_bytes >= budget
                ):
                    result = replica.masm.checkpoint_and_truncate()
                    if result is not None:
                        cp, trunc = result
                        entry["checkpoint_ts"] = cp.checkpoint_ts
                        entry["reclaimed_bytes"] = trunc.reclaimed_bytes
                        self._obs_checkpoints.add(1)
                entry["wal_bytes"] = wal.live_bytes
                entry["checkpoint_age"] = max(
                    0,
                    replica.masm.last_update_ts
                    - replica.masm.last_checkpoint_ts,
                )
                prefix = (
                    f"replication.shard.{self.shard_id}.r{replica.replica_id}"
                )
                registry.gauge(f"{prefix}.wal_bytes").set(wal.live_bytes)
                registry.gauge(f"{prefix}.checkpoint_age").set(
                    entry["checkpoint_age"]
                )
            report[replica.name] = entry
        return report

    def anti_entropy(self) -> dict:
        """One scrub-and-repair pass over every ONLINE replica.

        Each replica checksum-verifies its runs; damage is repaired from
        the replica's own redo log when the log still covers it, otherwise
        by fetching the damaged run's timestamp span from a healthy peer.
        Runs that stay quarantined (no covering log, no healthy peer) are
        reported so the operator can bootstrap the replica.
        """
        online = [
            r for r in self.replicas if r.state is ReplicaState.ONLINE
        ]
        repaired: list[tuple[str, str]] = []
        unrepaired: list[tuple[str, str]] = []
        for replica in online:
            report = replica.masm.scrub(repair=True)
            self._obs_scrubs.add(1)
            for run_name in report.repaired:
                repaired.append((replica.name, run_name))
                self._obs_repairs.add(1)
            for run_name in report.quarantined:
                fixed = False
                for donor in online:
                    if donor is replica:
                        continue
                    try:
                        fixed = replica.masm.repair_run_from_peer(
                            run_name, donor.masm
                        )
                    except ReproError:
                        continue
                    if fixed:
                        break
                if fixed:
                    repaired.append((replica.name, run_name))
                    self._obs_repairs.add(1)
                else:
                    unrepaired.append((replica.name, run_name))
        return {"repaired": repaired, "unrepaired": unrepaired}


def _drain(shard: ReplicaSet, lo: int, hi: int, query_ts: int) -> list:
    """One primary's rows for one partition (a fan-out branch)."""
    return list(shard.scan(lo, hi, query_ts))


class ReplicatedWarehouse:
    """N shards of ``replication`` MaSM nodes each, behind one router.

    The routing API (``bulk_load`` / ``insert`` / ``delete`` / ``modify`` /
    ``partitioned_range_scan`` / ``migrate_all``), plus
    the per-replica scan entry points (:meth:`scan_shard_partition`,
    :meth:`shard_route_ids`) the hedged fan-out executor schedules over,
    and the chaos levers (:meth:`crash_replica` / :meth:`rejoin_replica`)
    the availability driver pulls.  ``replication=1`` is the unreplicated
    cluster.  A shared clock is mandatory: failover, hedging and serving
    latency are decisions *about time*, so every node lives on one
    timeline.  The nodes share no device, so work on several of them forks
    that timeline (:meth:`~repro.storage.clock.SimClock.branches`): a
    fan-out forks per shard, so a partition's scan costs its slowest shard;
    a write forks per replica at the primary's admission instant
    (:meth:`ReplicaSet.apply`), so an update costs its slowest replica;
    maintenance forks per shard and per replica.
    """

    def __init__(
        self,
        schema: Schema,
        num_shards: int,
        clock: SimClock,
        replication: int = 3,
        partitioner: Optional[Callable[[int], int]] = None,
        records_per_node: int = 20_000,
        disk_capacity: int = 256 * MB,
        ssd_capacity: int = 8 * MB,
        masm_config: Optional[MaSMConfig] = None,
        wrap_device: Optional[Callable[[str, object], object]] = None,
        node_faults: Optional[Dict[Tuple[int, int], NodeFaultPlan]] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("need at least one shard")
        if clock is None:
            raise ValueError(
                "a warehouse needs one shared timeline: pass clock=SimClock()"
            )
        self.schema = schema
        self.route = partitioner or hash_partitioner(num_shards)
        self.oracle = TimestampOracle()
        self.clock = clock
        self.replication = replication
        faults = node_faults or {}
        self.shards: list[ReplicaSet] = [
            ReplicaSet.build(
                shard_id,
                schema,
                self.oracle,
                clock,
                replication,
                records_per_node=records_per_node,
                disk_capacity=disk_capacity,
                ssd_capacity=ssd_capacity,
                masm_config=masm_config,
                wrap_device=wrap_device,
                node_faults={
                    rid: plan
                    for (sid, rid), plan in faults.items()
                    if sid == shard_id
                },
            )
            for shard_id in range(num_shards)
        ]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------- loading
    def bulk_load(self, records: Iterable[tuple]) -> None:
        """Partition and load records into *every* replica of each shard."""
        shares: list[list[tuple]] = [[] for _ in self.shards]
        for record in records:
            shares[self.route(self.schema.key(record))].append(record)
        for shard, share in zip(self.shards, shares):
            share.sort(key=self.schema.key_of)
            for replica in shard.replicas:
                replica.table.bulk_load(share)

    @property
    def row_count(self) -> int:
        return sum(shard.primary.table.row_count for shard in self.shards)

    # -------------------------------------------------------------- updates
    def insert(self, record: tuple) -> int:
        return self.shards[self.route(self.schema.key(record))].insert(record)

    def delete(self, key: int) -> int:
        return self.shards[self.route(key)].delete(key)

    def modify(self, key: int, changes: dict) -> int:
        return self.shards[self.route(key)].modify(key, changes)

    # ---------------------------------------------------------------- scans
    def partition_bounds(
        self,
        begin_key: int,
        end_key: int,
        blocks_per_partition: int = kernels.DEFAULT_BLOCKS_PER_PARTITION,
    ) -> list[tuple[int, int]]:
        """Key-range partitions from the primaries' run indexes.

        Bounds only decide scan granularity, never visibility — a failover
        that changes which replica's indexes seed the split cannot change
        which rows a snapshot returns.
        """
        indexes = [
            run.index
            for shard in self.shards
            for run in shard.primary.masm.runs
        ]
        bounds = kernels.partition_points(
            indexes, begin_key, end_key, blocks_per_partition
        )
        return [
            (lo, end_key if hi is None else hi)
            for lo, hi in kernels.partition_ranges(bounds, begin_key, end_key)
        ]

    def scan_shard_partition(
        self,
        shard_id: int,
        begin_key: int,
        end_key: int,
        query_ts: int,
        replica_id: Optional[int] = None,
    ) -> Iterator[tuple]:
        """One shard's contribution to one partition, on one replica."""
        return self.shards[shard_id].scan(
            begin_key, end_key, query_ts, replica_id=replica_id
        )

    def shard_route_ids(self, shard_id: int) -> tuple[int, list[int]]:
        """(primary id, schedulable replica ids) — the executor's routing.

        Only ONLINE replicas are offered to the fan-out executor: a
        BOOTSTRAPPING or CATCHING_UP replica would fail the scan's guard
        anyway, and offering it just burns a hedge attempt.  When nothing
        is ONLINE the full roster is returned so the executor surfaces
        :class:`NoHealthyReplicaError` through its normal typed path.
        """
        shard = self.shards[shard_id]
        online = shard.online_ids()
        if not online:
            return shard.primary_id, shard.replica_ids()
        primary = (
            shard.primary_id if shard.primary_id in online else online[0]
        )
        return primary, online

    def partitioned_range_scan(
        self,
        begin_key: int,
        end_key: int,
        blocks_per_partition: int = kernels.DEFAULT_BLOCKS_PER_PARTITION,
        query_ts: Optional[int] = None,
    ) -> Iterator[tuple]:
        """Primary-only partitioned fan-out (no hedging, no failover).

        The plain path for clients that do not run through the serving
        router.  Partitions run one after another; within one, the
        primaries drain concurrently on the simulated timeline (they share
        no device, so a partition costs its slowest shard) and their rows
        merge key-ordered.  ``query_ts`` pins the whole fan-out to a
        caller-drawn snapshot.
        """
        if query_ts is None:
            query_ts = self.oracle.next()

        def scan_partition(lo: int, hi: int) -> Iterator[tuple]:
            per_shard = self.clock.concurrently(
                _drain, self.shards, lo, hi, query_ts
            )
            return heapq.merge(*per_shard, key=self.schema.key_of)

        return chain.from_iterable(
            scan_partition(lo, hi)
            for lo, hi in self.partition_bounds(
                begin_key, end_key, blocks_per_partition
            )
        )

    # ----------------------------------------------------------------- chaos
    def crash_replica(self, shard_id: int, replica_id: int) -> None:
        self.shards[shard_id].crash_replica(replica_id)

    def rejoin_replica(self, shard_id: int, replica_id: int) -> int:
        return self.shards[shard_id].rejoin(replica_id)

    def wipe_replica(self, shard_id: int, replica_id: int) -> None:
        self.shards[shard_id].wipe_replica(replica_id)

    def bootstrap_replica(
        self,
        shard_id: int,
        replica_id: int,
        source_id: Optional[int] = None,
    ) -> int:
        return self.shards[shard_id].bootstrap_replica(
            replica_id, source_id=source_id
        )

    # ----------------------------------------------------------- background
    def maintenance(self, **kwargs) -> Dict[str, dict]:
        """One checkpoint/truncate tick across every shard, the shards (and
        within each, its replicas) concurrent on the simulated timeline."""
        report: Dict[str, dict] = {}
        for shard in self.clock.branches(self.shards):
            report.update(shard.maintenance(**kwargs))
        return report

    def anti_entropy(self) -> Dict[int, dict]:
        """One scrub-and-peer-repair pass across every shard."""
        return {
            shard.shard_id: shard.anti_entropy() for shard in self.shards
        }

    def run_repairs(self, queue) -> list[dict]:
        """Drain a :class:`~repro.server.health.RepairQueue`.

        Each entry names a shard whose fan-out observed a failed or
        divergent replica scan; one anti-entropy pass per distinct shard
        repairs whatever the divergence was symptomatic of.
        """
        results: list[dict] = []
        for shard_id in queue.drain():
            results.append(self.shards[shard_id].anti_entropy())
        return results

    # ------------------------------------------------------------- migration
    def _online_replicas(self) -> Iterator[Replica]:
        for shard in self.shards:
            for replica in shard.replicas:
                if replica.state is ReplicaState.ONLINE:
                    yield replica

    def flush_all(self) -> None:
        """Flush every replica's buffer (bench warmup helper)."""
        for replica in self._online_replicas():
            replica.masm.flush_buffer()

    def migrate_all(self) -> None:
        """Flush, then migrate every replica's cache (node-local migrations)."""
        for replica in self._online_replicas():
            replica.masm.flush_buffer()
            if replica.masm.runs:
                replica.masm.migrate()

    # ------------------------------------------------------------- reporting
    def replica_report(self) -> Dict[str, str]:
        """JSON-ready replica states, keyed ``shard.replica``."""
        return {
            replica.name: replica.state.value
            for shard in self.shards
            for replica in shard.replicas
        }
