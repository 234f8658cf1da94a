"""Snapshot bootstrap: lay the donor's durable state down, then restart.

Twin tests: ``reference_snapshot`` keeps the bootstrap from before it
became lay-down plus crash restart (an engine rebuilt by hand from a
metadata-carrying snapshot).  Two replica sets are driven through the same
deterministic history — merged 2-pass runs, partial-migration ranges, a
heap grown or shrunk by migration, an emptied table, updates buffered above
the fence — then one replica of each is bootstrapped, one set the old way
and one the new.  The two bootstrapped engines must agree on every piece of
state a later operation reads, and answer every scan alike, both right after
the restart and after catch-up and further traffic.

The fuzz leg garbles the snapshot (heap payload or one run payload) or the
CHECKPOINT frame the lay-down wrote, and requires a typed error or a replica
that answers every scan like its donor — never a silent wrong answer.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_snapshot as ref
from repro.core import replication
from repro.core.masm import MaSMConfig
from repro.core.migration import migrate_range
from repro.core.replication import ReplicaSet
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import BootstrapRequiredError, ChecksumError, RecoveryError
from repro.obs import use_registry
from repro.storage.clock import SimClock
from repro.txn.recovery import lay_down_snapshot
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB

SCHEMA = synthetic_schema()
ROWS = 200
KEY_MAX = 2**63 - 1
TARGET = 2  # the replica every case bootstraps; replica 0 donates


def build_set():
    rset = ReplicaSet.build(
        0,
        SCHEMA,
        TimestampOracle(),
        SimClock(),
        3,
        records_per_node=4 * ROWS,
        masm_config=MaSMConfig(
            alpha=1.2, ssd_page_size=4 * KB, block_size=2 * KB, auto_migrate=False
        ),
    )
    base = [(i * 2, f"rec-{i}") for i in range(ROWS)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    return rset


class Traffic:
    """Deterministic traffic and maintenance over one replica set."""

    def __init__(self, rset, seed):
        self.rset = rset
        self.rng = random.Random(seed)
        self.live = {i * 2 for i in range(ROWS)}

    def _apply(self, kind, key, content):
        self.rset.apply(UpdateRecord(self.rset.oracle.next(), key, kind, content))

    def modify(self, n, tag):
        for key in self.rng.sample(sorted(self.live), min(n, len(self.live))):
            self._apply(UpdateType.MODIFY, key, {"payload": f"{tag}-{key}"})

    def insert(self, n, tag):
        free = [k for k in range(1, 8 * ROWS, 2) if k not in self.live]
        for key in self.rng.sample(free, n):
            self._apply(UpdateType.INSERT, key, (key, f"{tag}-{key}"))
            self.live.add(key)

    def delete(self, n):
        for key in self.rng.sample(sorted(self.live), min(n, len(self.live))):
            self._apply(UpdateType.DELETE, key, None)
            self.live.discard(key)

    def online(self):
        return [self.rset.replicas[i].masm for i in self.rset.online_ids()]

    def flush(self):
        for masm in self.online():
            masm.flush_buffer()

    def merge(self, fan_in):
        for masm in self.online():
            masm._merge_earliest_runs(fan_in)

    def migrate(self):
        for masm in self.online():
            masm.flush_buffer()
            masm.migrate()

    def migrate_slice(self, lo, hi):
        for masm in self.online():
            migrate_range(masm, lo, hi, redo_log=masm.redo_log)

    def checkpoint(self):
        self.rset.maintenance(force_checkpoint=True)


def merged(d):
    for flush in range(6):
        d.modify(25, f"m{flush}")
        d.flush()
    d.merge(3)  # runs: 1 1 1 2
    d.checkpoint()
    d.modify(10, "above")


def nested_merge(d):
    for flush in range(5):
        d.modify(20, f"n{flush}")
        d.flush()
    d.merge(3)
    d.merge(2)
    d.merge(2)  # no two 1-pass runs left: a 3-pass product
    d.checkpoint()


def partial(d):
    for flush in range(4):
        d.modify(30, f"p{flush}")
        d.insert(10, f"p{flush}")
        d.flush()
    d.migrate_slice(0, ROWS)
    d.migrate_slice(3 * ROWS, 5 * ROWS)
    d.checkpoint()
    d.modify(5, "above")


def grown(d):
    d.insert(400, "g")
    d.migrate()
    d.modify(30, "after")
    d.flush()
    d.checkpoint()


def shrunk(d):
    d.delete(3 * ROWS // 4)
    d.migrate()
    d.modify(10, "after")
    d.flush()
    d.checkpoint()


def emptied(d):
    d.delete(ROWS)
    d.migrate()
    d.checkpoint()
    d.insert(5, "reborn")


def migrated(d):
    # No checkpoint either, but the heap holds migrated updates: replaying
    # the donor's whole WAL over it would apply them a second time.
    d.modify(30, "a")
    d.insert(20, "a")
    d.delete(10)
    d.migrate()
    d.modify(30, "b")
    d.insert(10, "b")
    d.flush()


def buffered(d):
    # No checkpoint: the donor's WAL is whole, the fence is its last flush.
    d.modify(40, "b")
    d.flush()
    d.modify(15, "above")
    d.insert(5, "above")


SCENARIOS = {
    fn.__name__: fn
    for fn in (
        merged, nested_merge, partial, grown, shrunk, emptied, migrated, buffered
    )
}


def state(masm, probes):
    """Everything of a bootstrapped engine a later operation reads."""
    return {
        "runs": [
            (
                run.name,
                run.passes,
                run.covered_min_ts,
                run.covered_max_ts,
                list(run.migrated_ranges),
                run.count,
            )
            for run in masm.runs
        ],
        "run_seq": masm._run_seq,
        "flushed_through": masm.flushed_through,
        "migrated_through": masm.migrated_through,
        "last_update_ts": masm.last_update_ts,
        "last_checkpoint_ts": masm.last_checkpoint_ts,
        "truncated_through": masm.redo_log.truncated_through,
        "index": masm.table.index.entries(),
        "row_count": masm.table.row_count,
        "heap_pages": masm.table.heap.num_pages,
        "scans": scans(masm, probes),
    }


def scans(masm, probes):
    return {ts: list(masm.range_scan(0, KEY_MAX, query_ts=ts)) for ts in probes}


def probe_ts(rset):
    now = rset.oracle.current
    fence = rset.primary.masm.checkpoint()
    fence = fence.checkpoint_ts if fence is not None else 0
    picked = {0, 1, fence - 1, fence, fence + 1, now}
    picked.update(range(0, now + 1, max(1, now // 12)))
    return sorted(ts for ts in picked if ts >= 0)


def drive(scenario, loss, seed=0):
    """One replica set driven through ``scenario``; the target replica is
    lost before the history (``crash``: its old heap, runs and WAL stay on
    its devices) or after it (``wipe``: nothing survives)."""
    rset = build_set()
    traffic = Traffic(rset, seed=f"{scenario}:{loss}:{seed}")
    if loss == "crash":
        rset.crash_replica(TARGET)
    SCENARIOS[scenario](traffic)
    if loss == "wipe":
        rset.wipe_replica(TARGET)
    return rset, traffic


def bootstrap_capturing(rset, bootstrap, probes):
    """Run ``bootstrap`` and return the target's state as the restart left
    it, before catch-up replays anything."""
    restarted = []

    def catch_up(replica_id):
        restarted.append(state(rset.replicas[replica_id].masm, probes))
        return ReplicaSet.catch_up(rset, replica_id)

    rset.catch_up = catch_up
    bootstrap()
    del rset.catch_up
    (before_catch_up,) = restarted
    return before_catch_up


@pytest.mark.parametrize("loss", ["wipe", "crash"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_lay_down_and_restart_rebuilds_what_install_built(scenario, loss):
    with use_registry():
        old_set, old_traffic = drive(scenario, loss)
        new_set, new_traffic = drive(scenario, loss)
        probes = probe_ts(new_set)
        assert probe_ts(old_set) == probes

        old = bootstrap_capturing(
            old_set, lambda: ref.bootstrap_replica(old_set, TARGET), probes
        )
        new = bootstrap_capturing(
            new_set, lambda: new_set.bootstrap_replica(TARGET), probes
        )
        assert new == old
        most_passes = max((passes for _, passes, *_ in new["runs"]), default=0)
        assert most_passes == {"merged": 2, "nested_merge": 3}.get(scenario, most_passes)

        # Caught up: the target answers like its donor, both ways alike.
        donor = new_set.primary.masm
        target_old = old_set.replicas[TARGET].masm
        target_new = new_set.replicas[TARGET].masm
        probes = probe_ts(new_set)
        assert state(target_new, probes) == state(target_old, probes)
        assert scans(target_new, probes) == scans(donor, probes)

        # Later traffic, flushes and merges go the same way on both.
        for traffic in (old_traffic, new_traffic):
            for flush in range(3):
                traffic.modify(20, f"later{flush}")
                traffic.flush()
            traffic.merge(2)
        probes = probe_ts(new_set)
        assert state(target_new, probes) == state(target_old, probes)
        assert scans(target_new, probes) == scans(new_set.primary.masm, probes)


# ------------------------------------------------------------------ fuzz leg
def _garble(data: bytes, mode: str, at: float, bit: int) -> bytes:
    pos = min(int(at * len(data)), len(data) - 1)
    if mode == "truncate":
        return data[:pos]
    return data[:pos] + bytes([data[pos] ^ (1 << bit)]) + data[pos + 1 :]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    scenario=st.sampled_from(["merged", "migrated"]),
    seed=st.integers(min_value=0, max_value=7),
    where=st.sampled_from(["heap", "run", "checkpoint"]),
    mode=st.sampled_from(["flip", "truncate"]),
    at=st.floats(min_value=0.0, max_value=1.0),
    bit=st.integers(min_value=0, max_value=7),
    which=st.integers(min_value=0, max_value=7),
)
def test_a_garbled_snapshot_fails_typed_or_bootstraps_exactly(
    scenario, seed, where, mode, at, bit, which, monkeypatch
):
    """``merged`` donates past a WAL truncation; ``migrated`` donates an
    untruncated WAL over a migrated heap, where a restart that lost the
    CHECKPOINT frame and went on to replay the whole WAL would answer old
    timestamps wrongly instead of failing."""

    def garbling(snapshot, table, ssd_volume, name, wal_name):
        if where == "heap":
            snapshot = dataclasses.replace(
                snapshot, heap_payload=_garble(snapshot.heap_payload, mode, at, bit)
            )
        elif where == "run":
            runs = list(snapshot.runs)
            i = which % len(runs)
            runs[i] = dataclasses.replace(
                runs[i], payload=_garble(runs[i].payload, mode, at, bit)
            )
            snapshot = dataclasses.replace(snapshot, runs=tuple(runs))
        wal = lay_down_snapshot(snapshot, table, ssd_volume, name, wal_name)
        if where == "checkpoint":
            frame = wal.read(0, wal.append_pos)
            wal.zero_range(0, len(frame))
            wal.write(0, _garble(frame, mode, at, bit))
        return wal

    monkeypatch.setattr(replication, "lay_down_snapshot", garbling)
    with use_registry():
        rset, _ = drive(scenario, "wipe", seed)
        try:
            rset.bootstrap_replica(TARGET)
        except (ChecksumError, RecoveryError, BootstrapRequiredError):
            return
        probes = probe_ts(rset)
        assert scans(rset.replicas[TARGET].masm, probes) == scans(
            rset.primary.masm, probes
        )
