"""Serial-timeline replication, kept as the oracle of the write-fork tests.

``ReplicaSet.apply`` admits an update on the primary, then forks the
simulated clock so the primary's ingest and every follower's ship start at
the admission instant; ``ReplicaSet.maintenance`` and
``ReplicatedWarehouse.maintenance`` fork per replica and per shard.  These
are the passes they replaced, ported to functions over a set or warehouse:
the primary applies, then each ONLINE follower applies in turn, every step
on one serial timeline.  Python runs the same steps in the same order either
way, so a test can drive one warehouse through these and an identical one
through the forks and compare everything but ``clock.now``.  Production code
does not import this module.
"""

from __future__ import annotations

from typing import Optional

from repro.core.replication import ReplicaSet, ReplicaState, ReplicatedWarehouse
from repro.core.update import UpdateRecord
from repro.errors import NoHealthyReplicaError, ReplicaUnavailableError, ReproError
from repro.obs import get_registry


def serial_apply(rset: ReplicaSet, update: UpdateRecord) -> None:
    """``ReplicaSet.apply`` with the primary and each follower one after
    another on the shared clock."""
    encoded = rset.codec.encode(update)
    while True:
        primary = rset.primary
        if primary.state is not ReplicaState.ONLINE:
            raise NoHealthyReplicaError(
                f"shard {rset.shard_id}: no online replica to apply "
                f"update ts={update.timestamp}"
            )
        try:
            rset._guard(primary)
            primary.masm.apply(update, encoded)
            break
        except ReplicaUnavailableError:
            rset._mark_crashed(primary)
            if not rset.online_ids():
                raise NoHealthyReplicaError(
                    f"shard {rset.shard_id}: every replica is down"
                ) from None
    for follower in rset.replicas:
        if (
            follower.replica_id == rset.primary_id
            or follower.state is not ReplicaState.ONLINE
        ):
            continue
        try:
            rset._guard(follower)
            follower.masm.apply(update, encoded)
            rset._obs_ships.add(1)
        except ReproError:
            rset._obs_follower_drops.add(1)
            rset._mark_crashed(follower)


def serial_maintenance(
    rset: ReplicaSet,
    wal_budget_bytes: Optional[int] = None,
    force_checkpoint: bool = False,
) -> dict:
    """``ReplicaSet.maintenance`` with one replica after another."""
    registry = get_registry()
    report: dict = {}
    for replica in rset.replicas:
        wal = replica.wal
        entry = {"state": replica.state.value}
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
                    rset._obs_checkpoints.add(1)
            entry["wal_bytes"] = wal.live_bytes
            entry["checkpoint_age"] = max(
                0, replica.masm.last_update_ts - replica.masm.last_checkpoint_ts
            )
            prefix = f"replication.shard.{rset.shard_id}.r{replica.replica_id}"
            registry.gauge(f"{prefix}.wal_bytes").set(wal.live_bytes)
            registry.gauge(f"{prefix}.checkpoint_age").set(entry["checkpoint_age"])
        report[replica.name] = entry
    return report


def serialize(warehouse: ReplicatedWarehouse) -> ReplicatedWarehouse:
    """Make ``warehouse`` apply and maintain on the serial timeline."""

    def maintenance(**kwargs) -> dict:
        report: dict = {}
        for shard in warehouse.shards:
            report.update(serial_maintenance(shard, **kwargs))
        return report

    for shard in warehouse.shards:
        shard.apply = serial_apply.__get__(shard)
    warehouse.maintenance = maintenance
    return warehouse

