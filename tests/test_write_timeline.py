"""A replicated write on the simulated timeline: the replicas ingest side by side.

Each replica of a shard is its own node (own SSD, own disk, own WAL), so
``ReplicaSet.apply`` admits an update on the primary and then lets the
primary's ingest and every follower's ship start at the admission instant
(``SimClock.concurrently``): the update costs its slowest replica.

* one apply over 1, 2 and 3 replicas costs the max of what each replica's
  ingest costs alone;
* a follower that fails mid-ship is dropped, and the time it spent counts;
* a primary that fails mid-apply fails over, and the retry starts at the
  instant the failure was detected;
* a governor delay on the primary comes before every follower's branch;
* a maintenance tick costs its slowest replica across shards;
* a twin run over a random insert/delete/modify/crash/rejoin/maintenance mix
  matches the serial timeline of ``reference_replication`` in rows, WAL
  bytes, run files and every registry instrument — only ``clock.now``
  differs.

``MASM_CHAOS_SEED`` seeds the update mixes (CI runs two chaos seeds).
"""

from __future__ import annotations

import dataclasses
import os
import random

import pytest

import reference_replication as ref
from repro.core.governor import GovernorConfig, OverloadPolicy
from repro.core.masm import MaSMConfig
from repro.core.replication import ReplicaSet, ReplicaState, ReplicatedWarehouse
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import ReplicaUnavailableError, StorageError
from repro.obs import MetricsRegistry, use_registry
from repro.storage.clock import SimClock
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB, MB

pytestmark = pytest.mark.chaos

SEED = int(os.environ.get("MASM_CHAOS_SEED", "3"))

SCHEMA = synthetic_schema()
ROWS = 120
#: Small pages and a small SSD, so a few hundred updates flush a run.
CONFIG = MaSMConfig(alpha=1.2, ssd_page_size=4 * KB, block_size=4 * KB, auto_migrate=False)


class Recorded:
    """A device that records the clock as each write starts, adds
    ``extra`` seconds to every write, and can be armed to fail its next
    write after stalling."""

    def __init__(self, label: str, inner, log: list, extra: float) -> None:
        self.label = label
        self.inner = inner
        self.log = log
        self.extra = extra
        self.fail = None  # (exception, stall seconds)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def write(self, offset: int, data: bytes) -> None:
        clock = self.inner.clock
        self.log.append((self.label, clock.now))
        if self.fail is not None:
            error, stall = self.fail
            self.fail = None
            clock.advance(stall)
            raise error
        self.inner.write(offset, data)
        clock.advance(self.extra)


def build_set(replication: int, extra=lambda label: 0.0, governor=None):
    """A replica set over recorded SSDs: (set, devices by label, write log)."""
    devices: dict = {}
    writes: list = []

    def wrap(label, device):
        if not label.startswith("ssd-"):
            return device
        devices[label] = Recorded(label, device, writes, extra(label))
        return devices[label]

    rset = ReplicaSet.build(
        0,
        SCHEMA,
        TimestampOracle(),
        SimClock(),
        replication,
        records_per_node=4 * ROWS,
        ssd_capacity=1 * MB,
        masm_config=dataclasses.replace(CONFIG, governor=governor),
        wrap_device=wrap,
    )
    base = [(i * 2, f"rec-{i}") for i in range(ROWS)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    return rset, devices, writes


class Updates:
    """Well-formed random updates: inserts of absent keys, deletes and
    modifications of live ones."""

    def __init__(self, seed: str) -> None:
        self.rng = random.Random(seed)
        self.live = {i * 2 for i in range(ROWS)}

    def next(self, ts: int) -> UpdateRecord:
        rng = self.rng
        roll = rng.random()
        if roll < 0.4 or not self.live:
            key = rng.randrange(0, 2 * ROWS)
            if key not in self.live:
                self.live.add(key)
                return UpdateRecord(ts, key, UpdateType.INSERT, (key, f"ins-{ts}"))
        key = rng.choice(sorted(self.live))
        if roll < 0.6:
            self.live.discard(key)
            return UpdateRecord(ts, key, UpdateType.DELETE, None)
        return UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"mod-{ts}"})


def ssd_label(replica_id: int) -> str:
    return f"ssd-0.{replica_id}"


def first_writes(writes: list, since: int) -> dict:
    """label -> the clock at the first write logged from ``since`` on."""
    starts: dict = {}
    for label, now in writes[since:]:
        starts.setdefault(label, now)
    return starts


# ------------------------------------------------------------------ the join
@pytest.mark.parametrize("replication", [1, 2, 3])
def test_an_update_costs_its_slowest_replica(replication):
    """Replica r's SSD writes cost r * 30 us more, so the slowest replica
    changes nothing but the clock; its twin set, driven one replica at a
    time, measures what each replica's ingest costs alone."""
    extra = lambda label: 30e-6 * int(label.rsplit(".", 1)[1])
    rset, _, _ = build_set(replication, extra)
    alone, _, _ = build_set(replication, extra)
    updates = Updates(f"{SEED}:join:{replication}")
    flushes = 0
    for _ in range(1500):
        update = updates.next(rset.oracle.next())
        encoded = alone.codec.encode(update)
        costs = []
        for replica in alone.replicas:
            start = alone.clock.now
            replica.masm.apply(update, encoded)
            costs.append(alone.clock.now - start)
        before = rset.primary.masm.stats.flushes
        start = rset.clock.now
        rset.apply(update)
        assert rset.clock.now - start == pytest.approx(max(costs), rel=1e-9, abs=1e-12)
        flushes += rset.primary.masm.stats.flushes - before
    assert flushes > 0  # the join holds across flushes too
    assert [r.state for r in rset.replicas] == [ReplicaState.ONLINE] * replication


# ---------------------------------------------------------------- failures
def test_a_follower_failing_mid_ship_is_dropped_and_its_time_counts():
    rset, devices, writes = build_set(3)
    updates = Updates(f"{SEED}:follower")
    for _ in range(20):
        rset.apply(updates.next(rset.oracle.next()))
    stall = 4e-3  # far above any replica's ingest
    devices[ssd_label(1)].fail = (StorageError("injected: SSD lost mid-ship"), stall)
    since = len(writes)
    start = rset.clock.now
    drops = rset._obs_follower_drops.value
    rset.apply(updates.next(rset.oracle.next()))
    assert rset._obs_follower_drops.value == drops + 1
    assert rset.replicas[1].state is ReplicaState.CRASHED
    assert rset.replicas[2].state is ReplicaState.ONLINE
    assert rset.primary_id == 0
    # The failed branch began at the fork and is the slowest one.
    starts = first_writes(writes, since)
    assert starts[ssd_label(1)] == starts[ssd_label(0)] == starts[ssd_label(2)] == start
    assert rset.clock.now - start == pytest.approx(stall, rel=1e-12)
    # The dropped follower gets no further ships.
    since = len(writes)
    rset.apply(updates.next(rset.oracle.next()))
    assert ssd_label(1) not in first_writes(writes, since)


def test_a_primary_failing_mid_apply_retries_after_the_detected_failure():
    rset, devices, writes = build_set(3)
    updates = Updates(f"{SEED}:primary")
    for _ in range(20):
        rset.apply(updates.next(rset.oracle.next()))
    stall = 3e-3
    devices[ssd_label(0)].fail = (ReplicaUnavailableError("injected: node died"), stall)
    since = len(writes)
    start = rset.clock.now
    update = updates.next(rset.oracle.next())
    rset.apply(update)
    assert rset.replicas[0].state is ReplicaState.CRASHED
    assert rset.primary_id == 1
    assert rset.replicas[2].state is ReplicaState.ONLINE
    starts = first_writes(writes, since)
    assert starts[ssd_label(0)] == start
    # The retry — the promoted primary's ingest and the remaining follower's
    # ship — forks at the instant the failure surfaced.
    assert starts[ssd_label(1)] == starts[ssd_label(2)] == pytest.approx(start + stall, rel=1e-12)
    for replica in rset.replicas[1:]:
        assert replica.masm.last_update_ts == update.timestamp


def test_a_governor_delay_precedes_every_follower_branch():
    governor = GovernorConfig(
        overload_policy=OverloadPolicy.DELAY, admit_rate=2_000.0, burst=1.0
    )
    rset, _, writes = build_set(3, governor=governor)
    assert rset.primary.masm.governor is not None
    assert all(r.masm.governor is None for r in rset.replicas[1:])
    updates = Updates(f"{SEED}:governor")
    delayed = 0
    for _ in range(40):
        since = len(writes)
        start = rset.clock.now
        rset.apply(updates.next(rset.oracle.next()))
        starts = first_writes(writes, since)
        fork = starts[ssd_label(0)]
        # Every replica's branch starts where the primary's admission ended.
        assert starts[ssd_label(1)] == starts[ssd_label(2)] == fork >= start
        delayed += fork > start
    assert delayed > 0
    assert rset.primary.masm.governor.report()["delayed"] >= delayed


def test_a_maintenance_tick_costs_its_slowest_replica():
    """Shards and, within each, replicas checkpoint side by side: a forced
    tick costs the slowest replica's checkpoint, measured alone on a twin."""

    def build():
        def wrap(label, device):
            if not label.startswith("ssd-"):
                return device
            shard, replica = map(int, label[4:].split("."))
            return Recorded(label, device, [], 20e-6 * (1 + 2 * shard + replica))

        warehouse = ReplicatedWarehouse(
            SCHEMA,
            2,
            SimClock(),
            replication=2,
            records_per_node=4 * ROWS,
            ssd_capacity=1 * MB,
            masm_config=CONFIG,
            wrap_device=wrap,
        )
        warehouse.bulk_load((i * 2, f"rec-{i}") for i in range(ROWS))
        return warehouse

    forked, alone = build(), build()
    updates = Updates(f"{SEED}:maintenance")
    for _ in range(300):
        update = updates.next(forked.oracle.next())
        for warehouse in (forked, alone):
            warehouse.shards[warehouse.route(update.key)].apply(update)
    for warehouse in (forked, alone):
        warehouse.flush_all()
    costs = []
    for shard in alone.shards:
        for replica in shard.replicas:
            start = alone.clock.now
            replica.masm.checkpoint_and_truncate()
            costs.append(alone.clock.now - start)
    start = forked.clock.now
    report = forked.maintenance(force_checkpoint=True)
    assert all("checkpoint_ts" in entry for entry in report.values())
    assert len(report) == len(costs) == 4
    assert forked.clock.now - start == pytest.approx(max(costs), rel=1e-9)


# ---------------------------------------------------------------- twin run
def drive(warehouse: ReplicatedWarehouse, devices: dict, seed: str) -> None:
    """A random mix of updates, crashes, rejoins, maintenance ticks, flushes
    and migrations, and of updates whose ship or primary ingest fails."""
    rng = random.Random(seed)
    updates = Updates(seed)
    for _ in range(700):
        roll = rng.random()
        if roll < 0.03:
            shard = rng.choice(warehouse.shards)
            online = shard.online_ids()
            if len(online) > 1:
                warehouse.crash_replica(shard.shard_id, rng.choice(online))
        elif roll < 0.06:
            shard = rng.choice(warehouse.shards)
            down = [r.replica_id for r in shard.replicas if r.state is ReplicaState.CRASHED]
            if down:
                warehouse.rejoin_replica(shard.shard_id, rng.choice(down))
        elif roll < 0.08:
            warehouse.maintenance(
                wal_budget_bytes=16 * KB, force_checkpoint=rng.random() < 0.5
            )
        elif roll < 0.1:
            warehouse.flush_all()
        elif roll < 0.105:
            warehouse.migrate_all()
        else:
            update = updates.next(warehouse.oracle.next())
            shard = warehouse.shards[warehouse.route(update.key)]
            online = shard.online_ids()
            if roll < 0.13 and len(online) > 1:
                victim = rng.choice(online)
                error = (
                    ReplicaUnavailableError("injected: node died")
                    if victim == shard.primary_id
                    else StorageError("injected: SSD lost mid-ship")
                )
                devices[f"ssd-{shard.shard_id}.{victim}"].fail = (error, 1e-3)
            shard.apply(update)


def outcome(warehouse: ReplicatedWarehouse, registry: MetricsRegistry) -> dict:
    rows = list(warehouse.partitioned_range_scan(0, 2 * ROWS))
    replicas = {}
    for shard in warehouse.shards:
        for replica in shard.replicas:
            volume = replica.masm.ssd
            files = {name: volume.open(name) for name in sorted(volume)}
            replicas[replica.name] = (
                replica.state,
                replica.wal.file.peek(0, replica.wal.live_bytes),
                {name: file.peek(0, file.append_pos) for name, file in files.items()},
                [run.name for run in replica.masm.runs],
            )
    return {
        "rows": rows,
        "replicas": replicas,
        "primaries": [shard.primary_id for shard in warehouse.shards],
        "registry": registry.snapshot().as_dict(),
    }


def test_the_fork_changes_nothing_but_the_clock():
    """Two identical warehouses take the same random mix, one on the serial
    timeline: everything but the clock agrees, and the fork's clock is
    strictly behind."""
    seen = {}
    for name in ("serial", "forked"):
        devices: dict = {}

        def wrap(label, device):
            if not label.startswith("ssd-"):
                return device
            devices[label] = Recorded(label, device, [], 0.0)
            return devices[label]

        with use_registry(MetricsRegistry()) as registry:
            warehouse = ReplicatedWarehouse(
                SCHEMA,
                2,
                SimClock(),
                replication=3,
                records_per_node=4 * ROWS,
                ssd_capacity=1 * MB,
                masm_config=CONFIG,
                wrap_device=wrap,
            )
            warehouse.bulk_load((i * 2, f"rec-{i}") for i in range(ROWS))
            if name == "serial":
                ref.serialize(warehouse)
            drive(warehouse, devices, f"{SEED}:twin")
            seen[name] = (outcome(warehouse, registry), warehouse.clock.now)
    (serial, serial_now), (forked, forked_now) = seen["serial"], seen["forked"]
    assert forked["rows"] == serial["rows"]
    assert forked["primaries"] == serial["primaries"]
    assert forked["replicas"] == serial["replicas"]
    assert forked["registry"] == serial["registry"]
    registry = forked["registry"]
    assert registry["replication.ships"]["value"] > 0
    assert registry["replication.checkpoints"]["value"] > 0
    assert registry["replication.recoveries"]["value"] > 0
    assert registry["replication.follower_drops"]["value"] > 0
    assert registry["replication.failovers"]["value"] > 0
    assert 0 < forked_now < serial_now
