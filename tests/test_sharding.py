"""Shared-nothing MaSM: routing, fan-out scans, node-local migration.

The unreplicated cluster of Section 5 is a ``ReplicatedWarehouse`` with
``replication=1``: one MaSM node per shard, every node on one timeline.
"""

import os

import pytest

from repro.core.replication import ReplicatedWarehouse
from repro.core.sharding import hash_partitioner, range_partitioner
from repro.engine.record import synthetic_schema
from repro.obs import MetricsRegistry, get_registry, use_registry
from repro.storage.clock import SimClock
from repro.storage.faults import FaultPlan, FaultyDevice

SCHEMA = synthetic_schema()

FAULT_SEED = int(os.environ.get("MASM_FAULT_SEED", "11"))


def cluster(num_nodes, n, **kwargs):
    """An unreplicated cluster: one node per shard on one shared clock."""
    return ReplicatedWarehouse(
        SCHEMA, num_nodes, SimClock(), replication=1, records_per_node=n,
        **kwargs,
    )


def nodes(warehouse):
    return [shard.primary for shard in warehouse.shards]


def make(num_nodes=3, n=600):
    warehouse = cluster(num_nodes, n)
    warehouse.bulk_load([(i * 2, f"rec-{i}") for i in range(n)])
    return warehouse


def test_needs_at_least_one_node():
    with pytest.raises(ValueError):
        ReplicatedWarehouse(SCHEMA, 0, SimClock(), replication=1)


def test_bulk_load_partitions_all_rows():
    wh = make(3, 600)
    assert wh.row_count == 600
    sizes = [node.table.row_count for node in nodes(wh)]
    assert len(sizes) == 3
    assert all(s > 0 for s in sizes)


def test_hash_partitioner_spreads_keys():
    route = hash_partitioner(4)
    counts = [0] * 4
    for key in range(0, 2000, 2):
        counts[route(key)] += 1
    assert min(counts) > 100


def test_range_partitioner_routes_by_boundary():
    route = range_partitioner([100, 200])
    assert route(50) == 0
    assert route(150) == 1
    assert route(500) == 2


def test_fanout_scan_is_key_ordered_and_complete():
    wh = make(3, 500)
    keys = [SCHEMA.key(r) for r in wh.partitioned_range_scan(0, 10**9)]
    assert keys == [i * 2 for i in range(500)]


def test_partitioned_scan_matches_fanout_scan():
    wh = make(3, 500)
    # Mixed cached updates across nodes so runs (and their indexes) exist.
    for i in range(200):
        wh.insert((i * 4 + 1, f"new-{i}"))
    for i in range(50):
        wh.modify(i * 8, {"payload": f"patched-{i}"})
    wh.flush_all()
    reference = list(wh.partitioned_range_scan(0, 10**9))
    # Tiny partitions: the scan actually splits into several key ranges.
    partitioned = list(wh.partitioned_range_scan(0, 10**9, blocks_per_partition=1))
    assert partitioned == reference
    keys = [SCHEMA.key(r) for r in partitioned]
    assert keys == sorted(keys)


def test_partitioned_scan_uses_one_snapshot_timestamp():
    wh = make(2, 100)
    wh.insert((11, "cached"))
    before = wh.oracle.current
    list(wh.partitioned_range_scan(0, 10**9))
    # One global timestamp per partitioned scan, however many partitions
    # and per-node scans it fans out into.
    assert wh.oracle.current == before + 1


def test_updates_route_and_remain_visible():
    wh = make(3, 400)
    wh.insert((801, "new"))
    wh.modify(40, {"payload": "patched"})
    wh.delete(42)
    got = {SCHEMA.key(r): r for r in wh.partitioned_range_scan(0, 10**9)}
    assert got[801] == (801, "new")
    assert got[40] == (40, "patched")
    assert 42 not in got


def test_update_lands_on_exactly_one_node():
    wh = make(3, 300)
    before = [n.masm.stats.updates_ingested for n in nodes(wh)]
    wh.modify(100, {"payload": "x"})
    after = [n.masm.stats.updates_ingested for n in nodes(wh)]
    assert sum(after) - sum(before) == 1


def test_migrate_all_clears_every_cache():
    wh = make(2, 300)
    for i in range(60):
        wh.modify(i * 2, {"payload": f"v{i}"})
    wh.migrate_all()
    assert all(not n.masm.runs for n in nodes(wh))
    got = {SCHEMA.key(r): r for r in wh.partitioned_range_scan(0, 200)}
    assert got[0] == (0, "v0")


def test_partitioned_scan_costs_the_slowest_shard():
    """The primaries share no device, so they drain concurrently: a
    one-partition scan takes the busiest primary's time on the shared
    clock, not the sum over primaries.  Within a primary the disk and the
    SSD overlap too (Section 3.7): its time is its busier device's."""
    wh = make(3, 600)
    for i in range(150):
        wh.insert((i * 8 + 1, f"new-{i}"))
    wh.flush_all()
    devices = [(node.node.disk, node.node.ssd) for node in nodes(wh)]

    def busy():
        return [(disk.stats.busy_time, ssd.stats.busy_time) for disk, ssd in devices]

    before, began = busy(), wh.clock.now
    rows = list(wh.partitioned_range_scan(0, 10**9, blocks_per_partition=10**6))
    elapsed = wh.clock.now - began
    per_device = [
        (disk - disk0, ssd - ssd0) for (disk, ssd), (disk0, ssd0) in zip(busy(), before)
    ]
    per_shard = [max(pair) for pair in per_device]
    assert len(rows) == 750
    assert all(disk > 0 and ssd > 0 for disk, ssd in per_device)
    assert elapsed == pytest.approx(max(per_shard), rel=1e-12)
    assert elapsed < sum(per_shard)  # concurrent, not serial
    assert elapsed < max(disk + ssd for disk, ssd in per_device)  # overlapped


# --------------------------------------------------- fan-out scans under faults
def flip_one_bit(run, block_no=0, bit=3):
    """Silently corrupt one stored bit of a run block (no time charged)."""
    device = run.file.device
    offset = run.file.offset + block_no * run.block_size + 100
    raw = bytearray(device.store.read(offset, 1))
    raw[0] ^= 1 << bit
    device.store.write(offset, bytes(raw))


def loaded(n=600, **kwargs):
    """A warehouse with base data, cached updates and flushed runs, plus
    the shadow dict the scans must reproduce."""
    wh = cluster(2, n, **kwargs)
    wh.bulk_load([(i * 2, f"rec-{i}") for i in range(n)])
    shadow = {i * 2: (i * 2, f"rec-{i}") for i in range(n)}
    for i in range(n // 8):
        wh.modify(i * 4, {"payload": f"patched-{i}"})
        shadow[i * 4] = (i * 4, f"patched-{i}")
    for i in range(n // 10):
        wh.insert((i * 4 + 1, f"new-{i}"))
        shadow[i * 4 + 1] = (i * 4 + 1, f"new-{i}")
    wh.flush_all()
    return wh, shadow


@pytest.mark.faults
def test_partitioned_scan_absorbs_transient_read_errors():
    """Probabilistic transient read errors on every node device are retried
    away inside the fan-out; the merged stream is byte-exact."""
    plan = FaultPlan(seed=FAULT_SEED, read_error_rate=0.25)
    with use_registry(MetricsRegistry()):
        wh, shadow = loaded(
            wrap_device=lambda name, device: FaultyDevice(device, plan)
        )
        # Pin two back-to-back failures to the scan's FIRST device read
        # (live op counter, so this holds for any fault seed): the retry
        # loop must absorb both before the 4-attempt policy gives up.
        at = plan.read_op_count
        plan.fail_read_at(at).fail_read_at(at + 1)
        got = {
            SCHEMA.key(r): r
            for r in wh.partitioned_range_scan(0, 10**9, blocks_per_partition=1)
        }
        assert got == shadow
        # The faults really fired, and every injected error stayed below
        # the client.
        assert get_registry().counter("faults.injected.read_error").value >= 2


@pytest.mark.faults
def test_partitioned_scan_survives_corrupt_shard_run():
    """A mid-scan checksum failure on ONE shard's run quarantines that run
    and falls back to its redo log — without corrupting the merged result
    or leaking post-snapshot updates into the pinned timestamp."""
    wh, shadow = loaded()
    victim = next(node for node in nodes(wh) if node.masm.runs)
    flip_one_bit(victim.masm.runs[0])
    ts = wh.oracle.next()
    # Updates committed after the snapshot was drawn: the scan pinned at
    # ``ts`` must not see them, even on the log-replay fallback path.
    for i in range(10):
        wh.modify(i * 4, {"payload": "TOO-NEW"})
    got = {
        SCHEMA.key(r): r
        for r in wh.partitioned_range_scan(
            0, 10**9, blocks_per_partition=1, query_ts=ts
        )
    }
    assert got == shadow
    assert victim.masm.runs[0].quarantined
    assert victim.masm.stats.quarantined_runs >= 1
    # The quarantine is sticky but the warehouse stays serviceable: a fresh
    # scan at a fresh snapshot now sees the newer updates too.
    after = {SCHEMA.key(r): r for r in wh.partitioned_range_scan(0, 10**9)}
    for i in range(10):
        assert after[i * 4] == (i * 4, "TOO-NEW")
