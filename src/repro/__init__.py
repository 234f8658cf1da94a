"""repro — a from-scratch reproduction of *MaSM: Efficient Online Updates in
Data Warehouses* (Athanassoulis, Chen, Ailamaki, Gibbons, Stoica; SIGMOD 2011).

Quickstart::

    from repro import (
        MaSM, MaSMConfig, SimulatedDisk, SimulatedSSD, StorageVolume,
        build_synthetic_table,
    )

    disk = StorageVolume(SimulatedDisk(capacity=256 * MB))
    ssd = StorageVolume(SimulatedSSD(capacity=16 * MB))
    table = build_synthetic_table(disk, num_records=100_000)
    masm = MaSM.masm_m(table, ssd)

    masm.modify(40, {"payload": "fresh"})          # cached on the SSD
    rows = list(masm.range_scan(0, 100))           # sees the update
    masm.migrate()                                 # in-place migration

Layers:

* :mod:`repro.storage`   — simulated HDD/SSD devices, files, async overlap;
* :mod:`repro.engine`    — row-store substrate (pages, heap files, tables,
  Volcano operators) and a column-store variant;
* :mod:`repro.core`      — the paper's contribution: MaSM-2M/M/αM;
* :mod:`repro.baselines` — in-place, Indexed Updates, LSM, in-memory diff;
* :mod:`repro.txn`       — timestamps, WAL + recovery, snapshot isolation,
  two-phase locking;
* :mod:`repro.workloads` — synthetic and TPC-H-style generators;
* :mod:`repro.bench`     — drivers reproducing every figure/table.
"""

from repro.baselines import (
    IndexedUpdates,
    InMemoryDifferential,
    InPlaceUpdater,
    LSMUpdateCache,
)
from repro.core import (
    GovernorConfig,
    LoadGovernor,
    MaSM,
    MaSMConfig,
    MaSMStats,
    MaterializedSortedRun,
    MigrationStats,
    OverloadPolicy,
    ReplicaSet,
    ReplicaState,
    ReplicatedWarehouse,
    UpdateRecord,
    UpdateType,
    migrate_all,
    migrate_range,
)
from repro.engine import Schema, SlottedPage, synthetic_schema
from repro.engine.columnstore import ColumnTable
from repro.engine.table import Table
from repro.errors import (
    BackpressureError,
    BootstrapRequiredError,
    ChecksumError,
    DeadlineExceededError,
    NoHealthyReplicaError,
    QuotaExceededError,
    ReplicaUnavailableError,
    ReplicationError,
    ReproError,
    SimulatedCrash,
    StorageError,
    TransactionAborted,
    TransientIOError,
    UpdateCacheFullError,
)
from repro.storage import (
    CpuMeter,
    FaultPlan,
    FaultyDevice,
    OverlapWindow,
    SimulatedDisk,
    SimulatedSSD,
    StorageVolume,
)
from repro.txn import RedoLog, TimestampOracle, recover_masm
from repro.util.units import GB, KB, MB
from repro.workloads import (
    SyntheticUpdateGenerator,
    build_synthetic_table,
    generate_tpch,
)

__version__ = "1.0.0"

__all__ = [
    "GB",
    "KB",
    "MB",
    "BackpressureError",
    "ColumnTable",
    "BootstrapRequiredError",
    "ChecksumError",
    "CpuMeter",
    "DeadlineExceededError",
    "FaultPlan",
    "FaultyDevice",
    "GovernorConfig",
    "LoadGovernor",
    "OverloadPolicy",
    "IndexedUpdates",
    "InMemoryDifferential",
    "InPlaceUpdater",
    "LSMUpdateCache",
    "MaSM",
    "MaSMConfig",
    "MaSMStats",
    "MaterializedSortedRun",
    "MigrationStats",
    "NoHealthyReplicaError",
    "QuotaExceededError",
    "RedoLog",
    "OverlapWindow",
    "ReplicaSet",
    "ReplicaState",
    "ReplicaUnavailableError",
    "ReplicatedWarehouse",
    "ReplicationError",
    "ReproError",
    "SimulatedCrash",
    "Schema",
    "SimulatedDisk",
    "SimulatedSSD",
    "SlottedPage",
    "StorageError",
    "StorageVolume",
    "SyntheticUpdateGenerator",
    "Table",
    "TimestampOracle",
    "TransactionAborted",
    "TransientIOError",
    "UpdateCacheFullError",
    "UpdateRecord",
    "UpdateType",
    "__version__",
    "build_synthetic_table",
    "generate_tpch",
    "migrate_all",
    "migrate_range",
    "recover_masm",
    "synthetic_schema",
]
