"""The snapshot bootstrap from before it became lay-down plus crash restart.

``export_snapshot`` packed the heap, each run's bytes *and* its metadata
(count, passes, timestamp extremes, covered span, migrated ranges) and the
watermarks; ``install_snapshot`` rebuilt an engine from them by hand —
sparse index, run reload, manifest restore, watermark seeding — and
``bootstrap_replica`` wired the result to a fresh WAL seeded with the
translated checkpoint.  All three are kept verbatim (methods turned into
functions: ``self``/``cls`` are the first argument, and the bootstrap calls
the two functions here instead of the engine's methods) as the oracle the
bootstrap twin tests compare ``lay_down_snapshot`` + ``restart_masm``
against.  Production code does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.masm import MaSM, MaSMConfig
from repro.core.replication import ReplicaSet, ReplicaState
from repro.core.sharding import ShardNode
from repro.engine.table import Table
from repro.errors import NoHealthyReplicaError, ReplicationError, StorageError
from repro.obs import get_registry, trace
from repro.storage.file import StorageVolume
from repro.txn.log import RedoLog
from repro.txn.timestamps import TimestampOracle


@dataclass(frozen=True)
class RunSnapshot:
    """One run's verbatim content inside an :class:`EngineSnapshot`."""

    name: str
    payload: bytes
    crc: int
    count: int
    passes: int
    min_ts: int
    max_ts: int
    covered_min_ts: int
    covered_max_ts: int
    migrated_ranges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class EngineSnapshot:
    """A consistent, CRC-verified export of one engine's durable state.

    Everything a brand-new (or wiped) replica needs to serve reads up to
    ``snapshot_ts``: the heap pages (main data), the materialized runs with
    their durability metadata, and the checkpoint manifest that seeds the
    installing replica's fresh WAL.  Updates with ``ts > snapshot_ts`` are
    deliberately absent — the installer catches them up from the primary's
    (now finite) WAL.
    """

    table: str
    snapshot_ts: int
    migrated_ts: int
    heap_pages: int
    heap_payload: bytes
    heap_crc: int
    runs: tuple[RunSnapshot, ...]
    checkpoint: "object"  # repro.txn.log.Checkpoint (lazy import cycle)

    @property
    def size_bytes(self) -> int:
        return len(self.heap_payload) + sum(len(r.payload) for r in self.runs)


def export_snapshot(self) -> EngineSnapshot:
    """Export a consistent, CRC-stamped copy of the durable state.

    The fence is the same one :meth:`checkpoint` would cut: the heap
    plus the runs hold every update with ``ts <= fence``, so a replica
    that installs this snapshot only needs ``ts > fence`` from the
    primary's WAL to catch up.  Raises when a run is quarantined — an
    unhealthy replica must not donate.
    """
    from repro.storage.checksum import checksum as _crc

    with self._lock:
        quarantined = [r.name for r in self.runs if r.quarantined]
        if quarantined:
            raise StorageError(
                f"{self.name}: cannot export snapshot with quarantined "
                f"run(s) {quarantined}"
            )
        fence = self._checkpoint_fence()
        heap = self.table.heap
        heap_bytes = heap.num_pages * heap.page_size
        heap_payload = (
            heap.file.read(0, heap_bytes) if heap_bytes else b""
        )
        run_snaps = []
        for run in self.runs:
            payload = run.file.read(0, run.num_blocks * run.block_size)
            run_snaps.append(
                RunSnapshot(
                    name=run.name,
                    payload=payload,
                    crc=_crc(payload),
                    count=run.count,
                    passes=run.passes,
                    min_ts=run.min_ts,
                    max_ts=run.max_ts,
                    covered_min_ts=run.covered_min_ts,
                    covered_max_ts=run.covered_max_ts,
                    migrated_ranges=tuple(run.migrated_ranges),
                )
            )
        snapshot = EngineSnapshot(
            table=self.table.name,
            snapshot_ts=fence,
            migrated_ts=min(self.migrated_through, fence),
            heap_pages=heap.num_pages,
            heap_payload=heap_payload,
            heap_crc=_crc(heap_payload),
            runs=tuple(run_snaps),
            checkpoint=self.manifest.snapshot(fence),
        )
    get_registry().counter("masm.snapshots.exported").add(1)
    return snapshot

def install_snapshot(
    cls,
    snapshot: EngineSnapshot,
    table: Table,
    ssd_volume: StorageVolume,
    config: Optional[MaSMConfig] = None,
    oracle: Optional[TimestampOracle] = None,
    name: Optional[str] = None,
):
    """Install an exported snapshot into a brand-new engine.

    ``table`` wraps an empty heap file of sufficient capacity;
    ``ssd_volume`` must not hold conflicting run files.  Every payload
    is CRC-verified before anything is written, run files are
    re-verified block-by-block after landing, and the runs keep their
    *source sequence numbers* under this engine's name so replicas of
    one shard stay name-aligned (anti-entropy compares runs by name).

    Returns ``(masm, checkpoint)`` — the checkpoint carries the
    translated run names and seeds the installing replica's fresh WAL.
    """
    import re as _re

    from repro.core.manifest import Checkpoint, Checkpointed, Recovered, RunManifestEntry
    from repro.core.sortedrun import load_run
    from repro.errors import ChecksumError
    from repro.storage.checksum import checksum as _crc

    if _crc(snapshot.heap_payload) != snapshot.heap_crc:
        raise ChecksumError("snapshot heap payload failed CRC verification")
    for run_snap in snapshot.runs:
        if _crc(run_snap.payload) != run_snap.crc:
            raise ChecksumError(
                f"snapshot run {run_snap.name!r} failed CRC verification"
            )

    masm = cls(table, ssd_volume, config=config, oracle=oracle, name=name)
    heap = table.heap
    if snapshot.heap_payload:
        heap.file.write(0, snapshot.heap_payload)
    heap.num_pages = snapshot.heap_pages
    # A wiped device may hold stale bytes past the installed prefix;
    # zero the next page so the post-crash index rebuild (which scans
    # until the first unparseable page) stops where the data does.
    if heap.capacity_pages > snapshot.heap_pages:
        heap.file.zero_range(
            snapshot.heap_pages * heap.page_size, heap.page_size
        )
    from repro.txn.recovery import rebuild_table_index

    rebuild_table_index(table)

    seq_pattern = _re.compile(r"-run-(\d+)$")
    entries = []
    runs = []
    for run_snap in snapshot.runs:
        match = seq_pattern.search(run_snap.name)
        seq = int(match.group(1)) if match else masm._run_seq
        new_name = f"{masm.name}-run-{seq:05d}"
        masm._run_seq = max(masm._run_seq, seq + 1)
        file = ssd_volume.create(new_name, len(run_snap.payload))
        file.append(run_snap.payload)
        run = load_run(
            ssd_volume,
            new_name,
            masm.codec,
            block_size=masm.config.block_size,
            passes=run_snap.passes,
        )
        run.covered_min_ts = run_snap.covered_min_ts
        run.covered_max_ts = run_snap.covered_max_ts
        run.migrated_ranges = [tuple(r) for r in run_snap.migrated_ranges]
        runs.append(run)
        entries.append(
            RunManifestEntry(
                name=new_name,
                covered_min_ts=run_snap.covered_min_ts,
                covered_max_ts=run_snap.covered_max_ts,
                migrated_ranges=tuple(run_snap.migrated_ranges),
            )
        )
    masm.manifest.apply(Recovered(tuple(runs)))
    masm.manifest.apply(
        Checkpointed(
            Checkpoint(table.name, snapshot.snapshot_ts, snapshot.migrated_ts), runs=()
        )
    )
    masm.last_update_ts = snapshot.snapshot_ts
    masm.last_checkpoint_ts = snapshot.snapshot_ts
    masm.oracle.advance_past(snapshot.snapshot_ts)
    translated = Checkpoint(
        table=table.name,
        checkpoint_ts=snapshot.snapshot_ts,
        migrated_ts=snapshot.migrated_ts,
        runs=tuple(entries),
    )
    get_registry().counter("masm.snapshots.installed").add(1)
    return masm, translated


def bootstrap_replica(
    self: ReplicaSet, replica_id: int, source_id: Optional[int] = None
) -> int:
    """Rebuild a replica wholesale from a healthy peer's snapshot.

    Exports a consistent engine snapshot (heap + runs + checkpoint
    manifest, CRC-verified end to end) from ``source_id`` (default: the
    primary), installs it into the target over a fresh WAL seeded with
    the translated checkpoint, then catches up ``ts > snapshot_ts``
    from the primary's (finite) WAL.  Returns the number of catch-up
    updates applied.
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
        snapshot = export_snapshot(source.masm)
        old = replica.masm
        wal_name = (
            old.redo_log.file.name
            if old.redo_log is not None
            else f"wal-{self.shard_id}r{replica_id}"
        )
        ssd_volume = old.ssd
        for file_name in list(ssd_volume):
            ssd_volume.delete(file_name)
        bare = Table(old.table.name, old.table.schema, old.table.heap)
        fresh_log = RedoLog(
            ssd_volume.create(
                wal_name, ssd_volume.device.capacity // 4
            )
        )
        installed, translated = install_snapshot(
            MaSM,
            snapshot,
            bare,
            ssd_volume,
            config=replica.config,
            oracle=self.oracle,
            name=old.name,
        )
        installed.attach_log(fresh_log)
        fresh_log.log_checkpoint(translated)
        # The fresh WAL genuinely lacks everything below the snapshot
        # fence — mark it so log-fallback/coverage checks stay honest.
        fresh_log.truncated_through = snapshot.snapshot_ts
        installed.last_checkpoint_ts = snapshot.snapshot_ts
        node = replica.node
        replica.node = ShardNode(
            node.node_id, node.disk, node.ssd, bare, installed, node.cpu
        )
        replica.wiped = False
        if replica.faults is not None:
            replica.faults.recover()
        self._set_state(replica, ReplicaState.CATCHING_UP)
        self._obs_bootstraps.add(1)
        self._obs_recoveries.add(1)
    return self.catch_up(replica_id)
