"""Shared-nothing MaSM (Section 5, "Shared-Nothing Architectures").

Large analytical warehouses distribute the main data across machine nodes
by hash or range partitioning; updates are routed to their node and queries
fan out.  Because both decompose into per-node operations, "we can apply
MaSM algorithms on a per-machine-node basis" — each node gets its own disk,
SSD update cache, and MaSM instance.

This module holds the per-node pieces: :class:`ShardNode` and its one
construction recipe :func:`build_shard_node`, plus the hash and range
partitioners.  The cluster itself — routing, bulk load, fan-out scans,
node-local migration — is
:class:`~repro.core.replication.ReplicatedWarehouse`; an unreplicated
cluster is one built with ``replication=1``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.masm import MaSM, MaSMConfig
from repro.engine.record import Schema
from repro.engine.table import Table
from repro.storage.clock import SimClock
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.iosched import CpuMeter
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.timestamps import TimestampOracle


@dataclass
class ShardNode:
    """One shared-nothing node: local disk, local SSD, local MaSM."""

    node_id: int
    disk: SimulatedDisk
    ssd: SimulatedSSD
    table: Table
    masm: MaSM
    cpu: CpuMeter


def build_shard_node(
    node_id: int,
    schema: Schema,
    *,
    records_per_node: int,
    disk_capacity: int,
    ssd_capacity: int,
    masm_config: Optional[MaSMConfig],
    oracle: TimestampOracle,
    clock: Optional[SimClock] = None,
    wrap_device: Optional[Callable[[str, object], object]] = None,
    attach_log: bool = False,
    device_label: Optional[str] = None,
    table_name: Optional[str] = None,
    masm_name: Optional[str] = None,
    wal_name: Optional[str] = None,
) -> ShardNode:
    """Build one shared-nothing node: disk + SSD + table + MaSM (+ WAL).

    The single construction recipe every node uses — each member of a
    :class:`~repro.core.replication.ReplicaSet`, and so each shard of an
    unreplicated cluster too.  ``masm_config`` is copied per node — each
    node builds its own governor, nothing is shared.
    """
    label = device_label if device_label is not None else str(node_id)
    disk = SimulatedDisk(capacity=disk_capacity, clock=clock)
    ssd = SimulatedSSD(capacity=ssd_capacity, clock=clock)
    if wrap_device is not None:
        disk = wrap_device(f"disk-{label}", disk)
        ssd = wrap_device(f"ssd-{label}", ssd)
    cpu = CpuMeter()
    ssd_volume = StorageVolume(ssd)
    table = Table.create(
        StorageVolume(disk),
        table_name if table_name is not None else f"shard-{node_id}",
        schema,
        records_per_node,
        cpu=cpu,
    )
    config = (
        dataclasses.replace(masm_config)
        if masm_config is not None
        else MaSMConfig(alpha=1.2, auto_migrate=False)
    )
    masm = MaSM(
        table,
        ssd_volume,
        config=config,
        oracle=oracle,
        cpu=cpu,
        name=masm_name if masm_name is not None else f"masm-shard-{node_id}",
    )
    if attach_log:
        masm.attach_log(
            RedoLog(
                ssd_volume.create(
                    wal_name if wal_name is not None else f"wal-{node_id}",
                    ssd.capacity // 4,
                )
            )
        )
    return ShardNode(node_id, disk, ssd, table, masm, cpu)


def hash_partitioner(num_nodes: int) -> Callable[[int], int]:
    """Key -> node by hash (golden-ratio multiplicative, stable)."""

    def route(key: int) -> int:
        mixed = (key * 2654435761) & 0xFFFFFFFF
        # Use the high bits: the low bits of a multiplicative hash preserve
        # the key's parity, which would starve half the nodes for even keys.
        return (mixed >> 17) % num_nodes

    return route


def range_partitioner(boundaries: Sequence[int]) -> Callable[[int], int]:
    """Key -> node by range: node i holds keys < boundaries[i]."""
    import bisect

    bounds = list(boundaries)

    def route(key: int) -> int:
        return bisect.bisect_right(bounds, key)

    return route
