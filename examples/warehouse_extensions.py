#!/usr/bin/env python
"""The Section 5 toolbox: a warehouse using every MaSM extension at once.

* a shared-nothing cluster of MaSM nodes (hash-partitioned);
* a secondary index that stays correct under cached updates;
* lazily maintained materialized views;
* coordinated migration (a query scan that migrates as it reads).

Run:  python examples/warehouse_extensions.py
"""

from repro import MB, SimulatedDisk, SimulatedSSD, StorageVolume
from repro.core.masm import MaSM, MaSMConfig
from repro.core.migration import CoordinatedMigration
from repro.core.replication import ReplicatedWarehouse
from repro.core.secondary import SecondaryIndexManager
from repro.core.views import ViewCatalog
from repro.engine.record import Schema
from repro.engine.table import Table
from repro.storage.clock import SimClock
from repro.util.units import KB, fmt_time

ORDERS = Schema([("o_id", "u32"), ("o_region", "u32"), ("o_total", "u32"), ("o_status", "s10")])


def sharded_cluster_demo() -> None:
    print("=== shared-nothing cluster (3 nodes, hash-partitioned) ===")
    warehouse = ReplicatedWarehouse(
        ORDERS, 3, SimClock(), replication=1, records_per_node=4000
    )
    warehouse.bulk_load(
        [(i, i % 7, (i * 37) % 10_000, "OPEN") for i in range(9000)]
    )
    sizes = [shard.primary.table.row_count for shard in warehouse.shards]
    print(f"rows per shard: {sizes}")
    warehouse.modify(1234, {"o_status": "SHIPPED"})
    warehouse.insert((9500, 3, 42, "OPEN"))
    warehouse.delete(10)
    fresh = {r[0]: r for r in warehouse.partitioned_range_scan(1230, 1240)}
    print(f"routed updates visible: order 1234 -> {fresh[1234][3]}")
    devices = [
        device
        for shard in warehouse.shards
        for device in (shard.primary.node.disk, shard.primary.node.ssd)
    ]
    busy_before = sum(device.stats.busy_time for device in devices)
    began = warehouse.clock.now
    for _ in warehouse.partitioned_range_scan(0, 10_000):
        pass
    elapsed = warehouse.clock.now - began
    serial = sum(device.stats.busy_time for device in devices) - busy_before
    print(
        f"fan-out full scan: {fmt_time(elapsed)} concurrent vs "
        f"{fmt_time(serial)} if serial ({serial / elapsed:.1f}x)"
    )
    warehouse.migrate_all()
    print(f"after node-local migrations: caches empty = "
          f"{all(not s.primary.masm.runs for s in warehouse.shards)}\n")


def single_node() -> MaSM:
    disk_vol = StorageVolume(SimulatedDisk(capacity=256 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "orders", ORDERS, 8000)
    table.bulk_load((i, i % 7, (i * 37) % 10_000, "OPEN") for i in range(8000))
    config = MaSMConfig(alpha=1.2, ssd_page_size=8 * KB, block_size=4 * KB,
                        auto_migrate=False)
    return MaSM(table, ssd_vol, config=config)


def secondary_index_demo(masm: MaSM) -> None:
    print("=== secondary index under cached updates ===")
    by_total = SecondaryIndexManager(masm, "o_total")
    masm.modify(100, {"o_total": 5})  # moves order 100 into the cheap bucket
    masm.insert((9100, 2, 3, "OPEN"))  # a cheap new order
    cheap = list(by_total.index_scan(0, 10))
    print(f"orders with o_total <= 10: {len(cheap)} "
          f"(includes modified #100: {any(r[0] == 100 for r in cheap)}, "
          f"inserted #9100: {any(r[0] == 9100 for r in cheap)})\n")


def views_demo(masm: MaSM) -> None:
    print("=== lazily maintained materialized views ===")
    catalog = ViewCatalog(masm)
    open_orders = catalog.define("open", predicate=lambda r: r[3] == "OPEN")
    big = catalog.define("big", predicate=lambda r: r[2] > 9000)
    print(f"initial refreshes: {catalog.maintain_all()} views built "
          f"(open={len(open_orders)}, big={len(big)})")
    masm.modify(200, {"o_status": "CANCELLED"})
    print(f"stale after an update: {catalog.stale_views()}")
    before = len(open_orders)
    rows = list(open_orders.read())  # lazy refresh on read
    print(f"read refreshed 'open': {before} -> {len(rows)} rows; "
          f"'big' still stale: {big.is_stale}\n")


def coordinated_migration_demo(masm: MaSM) -> None:
    print("=== coordinated migration (scan + migrate in one pass) ===")
    for i in range(0, 2000, 5):
        masm.modify(i, {"o_total": (i * 11) % 10_000})
    combined = CoordinatedMigration(masm)
    count = sum(1 for _ in combined)
    stats = combined.stats
    print(f"one pass returned {count} fresh rows AND migrated "
          f"{stats.updates_applied} updates "
          f"({stats.pages_written} pages rewritten in place); "
          f"cache now empty: {not masm.runs}")


def main() -> None:
    sharded_cluster_demo()
    masm = single_node()
    secondary_index_demo(masm)
    views_demo(masm)
    coordinated_migration_demo(masm)


if __name__ == "__main__":
    main()
