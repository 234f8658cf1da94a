"""The paper's contribution: MaSM update caching on SSDs.

Key entry points: :class:`MaSM` (engines via ``MaSM.masm_2m`` / ``masm_m`` or
``MaSMConfig(alpha=...)``), update records in :mod:`repro.core.update`,
migration in :mod:`repro.core.migration`, and the closed-form models of the
paper in :mod:`repro.core.theory`.
"""

from repro.core.governor import (
    GovernorConfig,
    LoadGovernor,
    OverloadPolicy,
    PacingController,
    TokenBucket,
)
from repro.core.masm import (
    MaSM,
    MaSMConfig,
    MaSMParameters,
    MaSMStats,
    derive_parameters,
)
from repro.core.replication import (
    Replica,
    ReplicaSet,
    ReplicaState,
    ReplicatedWarehouse,
)
from repro.core.secondary import SecondaryIndexManager
from repro.core.sharding import (
    build_shard_node,
    hash_partitioner,
    range_partitioner,
)
from repro.core.sortorders import MultiOrderTable, projection_schema
from repro.core.views import LazyMaterializedView, ViewCatalog
from repro.core.blockcache import DecodedBlockCache
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.migration import MigrationStats, migrate_all, migrate_range
from repro.core.operators import (
    MemScan,
    MergeDataUpdates,
    MergeUpdates,
    RunScan,
)
from repro.core.runindex import (
    COARSE_GRANULARITY,
    FINE_GRANULARITY,
    RunIndex,
)
from repro.core.sortedrun import MaterializedSortedRun, write_run
from repro.core.update import (
    UpdateCodec,
    UpdateConflictError,
    UpdateRecord,
    UpdateType,
    apply_update,
    combine,
    combine_chain,
)

__all__ = [
    "COARSE_GRANULARITY",
    "FINE_GRANULARITY",
    "DecodedBlockCache",
    "GovernorConfig",
    "InMemoryUpdateBuffer",
    "LoadGovernor",
    "OverloadPolicy",
    "PacingController",
    "TokenBucket",
    "LazyMaterializedView",
    "MaSM",
    "MultiOrderTable",
    "Replica",
    "ReplicaSet",
    "ReplicaState",
    "ReplicatedWarehouse",
    "SecondaryIndexManager",
    "ViewCatalog",
    "build_shard_node",
    "hash_partitioner",
    "projection_schema",
    "range_partitioner",
    "MaSMConfig",
    "MaSMParameters",
    "MaSMStats",
    "MaterializedSortedRun",
    "MemScan",
    "MergeDataUpdates",
    "MergeUpdates",
    "MigrationStats",
    "RunIndex",
    "RunScan",
    "UpdateCodec",
    "UpdateConflictError",
    "UpdateRecord",
    "UpdateType",
    "apply_update",
    "combine",
    "combine_chain",
    "derive_parameters",
    "migrate_all",
    "migrate_range",
    "write_run",
]
