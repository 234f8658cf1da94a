"""The four workloads and the two system shapes they run on.

A workload is a traffic mix: how big the table is, how full the update
cache is when measurement starts, and what one *round* of timed work holds
(how many updates, which range scans, interleaved or not).  Every workload
holds both updates and scans, because the benchmark contract has every
workload report every end-to-end metric; what differs is which side does
nearly all the work, and that is the reason each workload exists (``why``).

Sizes are fixed at :data:`REF_SECONDS` of timed work on the reference
machine and scale linearly with ``--seconds``.  The work of a run is a pure
function of ``(workload, seed, seconds)``: round counts do not depend on how
fast the machine is, so simulated-time metrics and counts repeat exactly.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

from repro.core.masm import MaSMConfig
from repro.core.replication import ReplicatedWarehouse
from repro.core.sharding import ShardNode, build_shard_node
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.server import FrontDoor, QueryRequest, ReplicatedBackend, TenantQuota
from repro.storage.clock import SimClock
from repro.txn import recovery
from repro.txn.log import RedoLog
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB, MB
from repro.workloads.synthetic import UpdateMix

#: ``--seconds`` the round counts below are sized for.
REF_SECONDS = 15.0

FULL_RANGE = (0, 2**62)

#: Engine sizing shared by every workload: 4 KB run-index blocks (the
#: paper's fine-grain index), 8 KB SSD pages so a 1-2 MB cache still has
#: M >= 11 pages, alpha = 1 (MaSM-M).  Everything else is the default.
SSD_PAGE = 8 * KB
RUN_BLOCK = 4 * KB
SSD_CAPACITY = 8 * MB  # the WAL takes a quarter of it
DISK_CAPACITY = 256 * MB

#: Checkpoint a replica's WAL once this much of it is live.  The default
#: (half the 2 MB file) would give a run two or three checkpoints; this gives
#: ``ingest`` well over ten per replica.  It is also kept below the 256 KB
#: zeroing slice of one maintenance tick on purpose: a truncation that
#: reclaims more than one slice leaves stale bytes behind the log's end, and
#: until the next tick every append pays an extra guard-zero write (a random
#: SSD write, ~2 ms simulated).  With the budget at the slice size that was a
#: coin flip per checkpoint and made ``sim_update_per_s`` lumpy.
WAL_BUDGET = 192 * KB

#: Updates between ``maintenance()`` ticks.
MAINT_EVERY = 500

#: Update types are drawn at random as in the paper's section 4.1, with
#: inserts slightly ahead of deletes so every table grows (~3 % of the
#: updates applied).  Growth is also what keeps the workloads clear of a
#: defect in the code under test: a full migration that *shrinks* the heap
#: leaves the old tail pages formatted, and crash recovery, which finds the
#: heap's end by scanning to the first unformatted page, brings their stale
#: rows back (README, "Known defect").
UPDATE_MIX = UpdateMix(insert=1.1, delete=1.0, modify=1.0)

TENANT = "bench"
#: A quota far above any offered rate: the token-bucket path runs on every
#: request, and a request it delays or sheds is a failure.
QUOTA = TenantQuota(rate=1e6, burst=1e6)


def engine_config(cache_bytes: int) -> MaSMConfig:
    return MaSMConfig(
        alpha=1.0,
        ssd_page_size=SSD_PAGE,
        block_size=RUN_BLOCK,
        cache_bytes=cache_bytes,
    )


# ---------------------------------------------------------------- workloads
@dataclass(frozen=True)
class Phase:
    """``rounds`` timed rounds, each ``updates`` updates and one list of
    scan ranges, interleaved evenly when a round has both.

    ``ranges(rng, workload)`` is called once per run and returns the
    function that draws one round's list (so a skewed generator keeps the
    same hot set for the whole run)."""

    rounds: int
    updates: int = 0
    ranges: Optional[Callable[[random.Random, "Workload"], Callable[[], list]]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    served: bool  # FrontDoor -> router -> replicas, or one bare MaSM
    rows: int  # base rows (even keys 0, 2, 4, ...)
    cache_bytes: int  # per engine
    #: Set-up: apply updates until the cache is this full (0..1) ...
    warm_fill: float
    #: ... or, when warm_fill is 0, exactly this many.
    warm_updates: int
    distribution: str  # update keys: "uniform" or "zipf"
    phases: tuple[Phase, ...]
    #: Open-loop phase: records per request, the three fixed arrival rates
    #: R1 < R2 < R3 (requests per simulated second) and the p95 limit a rate
    #: must meet.  Frozen so that the seed code passes R1 and R2 (a quarter
    #: to a third of capacity) and fails R3 (three times capacity).
    open_records: tuple[int, int]
    open_rates: tuple[float, float, float]
    open_limit_ms: float
    #: Open-loop requests per rate at REF_SECONDS; R2's p95 is a gated
    #: metric, so it gets the large sample.
    open_requests: tuple[int, int, int] = (200, 1000, 150)

    @property
    def universe(self) -> int:
        """Exclusive upper bound of the base key space."""
        return 2 * self.rows


def span_of(rng: random.Random, workload: Workload, records: int) -> tuple[int, int]:
    """A uniformly placed range covering ``records`` base records."""
    width = 2 * records
    lo = rng.randrange(0, max(1, workload.universe - width))
    return lo, lo + width - 1


def scan_large_ranges(rng: random.Random, workload: Workload):
    """One full-range scan and ten 4 % ranges."""
    part = workload.rows // 25
    return lambda: [FULL_RANGE] + [span_of(rng, workload, part) for _ in range(10)]


#: serve_small start keys: zipf over this many equal slots of the key space,
#: so the hot slots' run blocks stay in the 128-block decoded cache.
HOT_SLOTS = 256


def serve_small_ranges(rng: random.Random, workload: Workload, count: int = 200):
    """``count`` ranges of 40-1000 records with zipf(1.2)-skewed starts."""
    # Which slots are hot is part of the workload, not of the seed: it
    # decides how many pages and partitions the typical request touches.
    slots = list(range(HOT_SLOTS))
    random.Random(0).shuffle(slots)
    cdf = list(accumulate(1.0 / (rank + 1) ** 1.2 for rank in range(HOT_SLOTS)))
    slot_keys = workload.universe // HOT_SLOTS

    def draw() -> list:
        out = []
        for _ in range(count):
            records = rng.randrange(40, 1001)
            slot = slots[bisect_right(cdf, rng.random() * cdf[-1])]
            lo = slot * slot_keys + rng.randrange(0, slot_keys // 4)
            lo = min(lo, workload.universe - 2 * records)
            out.append((lo, lo + 2 * records - 1))
        return out

    return draw


def ingest_ranges(rng: random.Random, workload: Workload):
    """Forty uniformly placed ranges of 100-600 records: narrow enough that
    under 2 % of them span two merge partitions, so the simulated p95 stays
    on one side of that step whatever the cache holds."""
    return lambda: [span_of(rng, workload, rng.randrange(100, 601)) for _ in range(40)]


def mixed_ranges(rng: random.Random, workload: Workload):
    """Forty uniformly placed ranges of 1-5 % of the key space."""
    low, high = workload.rows // 100, workload.rows // 20
    return lambda: [span_of(rng, workload, rng.randrange(low, high + 1)) for _ in range(40)]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="scan_large",
            why=(
                "bare MaSM, 60K rows, cache half full in runs twice the decoded-block cache: "
                "page decode, record unpack and MergeDataUpdates do the work, serving and "
                "replication none"
            ),
            served=False,
            rows=60_000,
            cache_bytes=2 * MB,
            warm_fill=0.5,
            warm_updates=0,
            distribution="uniform",
            phases=(
                Phase(rounds=20, ranges=scan_large_ranges),
                # 24K updates on a half-full 2 MB cache: the one migration
                # falls near 10K, a second would need 30K.
                Phase(rounds=20, updates=1_200),
            ),
            open_records=(300, 900),
            open_rates=(15.0, 30.0, 300.0),
            open_limit_ms=60.0,
        ),
        Workload(
            name="serve_small",
            why=(
                "closed loop of 40-1000-record ranges through FrontDoor, hot blocks fit the "
                "decoded-block cache: per-request fixed cost dominates, so codec work is "
                "bypassed and router/backend work shows"
            ),
            served=True,
            rows=40_000,
            cache_bytes=1 * MB,
            warm_fill=0.0,
            warm_updates=6_000,
            distribution="uniform",
            phases=(
                Phase(rounds=20, ranges=serve_small_ranges),
                Phase(rounds=10, updates=1_000),
            ),
            open_records=(40, 1000),
            open_rates=(10.0, 20.0, 220.0),
            open_limit_ms=80.0,
        ),
        Workload(
            name="ingest",
            why=(
                "update-only rounds through ReplicaSet.apply with WAL, shipping, flush, "
                "migration and checkpoints: update codec, redo log, membuffer and write_run "
                "do the work, the read stack almost none"
            ),
            served=True,
            rows=40_000,
            cache_bytes=1 * MB,
            warm_fill=0.0,
            warm_updates=500,
            distribution="uniform",
            # Scans are the off-axis side here; four short bursts of them
            # between the update rounds meet four different cache states, so
            # their metrics do not hinge on where the last migration fell.
            phases=(
                Phase(rounds=12, updates=1_250),
                Phase(rounds=10, ranges=ingest_ranges),
            ) * 4,
            open_records=(100, 600),
            open_rates=(10.0, 20.0, 220.0),
            open_limit_ms=80.0,
        ),
        Workload(
            name="mixed",
            why=(
                "zipf updates interleaved with 1-5% scans through FrontDoor: scans meet a "
                "non-empty MemScan, overlapping runs and flush/merge/migration stalls, so a "
                "read gain paid for on the write side shows"
            ),
            served=True,
            rows=40_000,
            cache_bytes=1 * MB,
            warm_fill=0.0,
            warm_updates=4_000,
            distribution="zipf",
            phases=(Phase(rounds=20, updates=2_000, ranges=mixed_ranges),),
            open_records=(200, 1000),
            open_rates=(10.0, 20.0, 200.0),
            open_limit_ms=100.0,
        ),
    )
}


# ------------------------------------------------------------------ systems
def base_rows(rows: int) -> list[tuple]:
    return [(i * 2, f"rec-{i}") for i in range(rows)]


class BareSystem:
    """One MaSM engine with its WAL on one node: no server, no replicas."""

    def __init__(self, workload: Workload) -> None:
        self.clock = SimClock()
        self.schema = synthetic_schema()
        self.oracle = TimestampOracle()
        self.config = engine_config(workload.cache_bytes)
        self.node = build_shard_node(
            0,
            self.schema,
            records_per_node=workload.rows,
            disk_capacity=DISK_CAPACITY,
            ssd_capacity=SSD_CAPACITY,
            masm_config=self.config,
            oracle=self.oracle,
            clock=self.clock,
            attach_log=True,
            table_name="bench",
            masm_name="masm-bench",
            wal_name="wal-bench",
        )
        self.node.table.bulk_load(base_rows(workload.rows))
        self.scope = None

    @property
    def masm(self):
        return self.node.masm

    def engines(self) -> list:
        return [self.masm]

    def primaries(self) -> list:
        return [self.masm]

    def disks(self) -> list:
        return [self.node.disk]

    def ssds(self) -> list:
        return [self.node.ssd]

    def apply(self, update) -> None:
        self.masm.apply(update)

    def maintenance(self) -> None:
        """What ``ReplicaSet.maintenance`` does for one replica."""
        masm = self.masm
        wal = masm.redo_log
        if wal.live_bytes >= WAL_BUDGET:
            masm.checkpoint_and_truncate()
        wal.scrub_dirty(256 * KB)

    def flush(self) -> None:
        self.masm.flush_buffer()

    def request(self, lo: int, hi: int, arrival: Optional[float] = None):
        """(records, dispatch instant); a lone caller never queues."""
        started = self.clock.now
        return list(self.masm.range_scan(lo, hi)), started

    def base_scan(self, lo: int, hi: int) -> int:
        return sum(1 for _ in self.node.table.range_scan(lo, hi))

    def outage_and_recover(self) -> None:
        """Lose every volatile structure, rebuild from heap + SSD + WAL
        (the steps ``ReplicaSet.recover_replica`` takes for one replica)."""
        old = self.masm
        bare = Table(old.table.name, old.table.schema, old.table.heap)
        bare.heap.num_pages = old.table.heap.capacity_pages
        log = RedoLog(old.redo_log.file)
        log.file._append_pos = 0
        # Through the module, so the traced pass's rebinding is seen.
        recovered, _ = recovery.recover_masm(
            bare, old.ssd, log, config=self.config, oracle=self.oracle, name=old.name
        )
        node = self.node
        self.node = ShardNode(node.node_id, node.disk, node.ssd, bare, recovered, node.cpu)


class ServedSystem:
    """FrontDoor -> RequestRouter -> ReplicatedBackend over 2 shards x 2
    replicas, each replica a full MaSM node with its own WAL."""

    SHARDS = 2
    REPLICATION = 2

    def __init__(self, workload: Workload) -> None:
        self.clock = SimClock()
        self.schema = synthetic_schema()
        self.warehouse = ReplicatedWarehouse(
            self.schema,
            self.SHARDS,
            self.clock,
            replication=self.REPLICATION,
            records_per_node=workload.rows // self.SHARDS,
            disk_capacity=DISK_CAPACITY,
            ssd_capacity=SSD_CAPACITY,
            masm_config=engine_config(workload.cache_bytes),
        )
        self.oracle = self.warehouse.oracle
        self.warehouse.bulk_load(base_rows(workload.rows))
        self.frontdoor = FrontDoor(
            ReplicatedBackend(self.warehouse),
            quotas={TENANT: QUOTA},
            keep_records=True,
        )
        self.scope = self.frontdoor.scope
        self._seq = 0

    def _replicas(self) -> list:
        return [r for shard in self.warehouse.shards for r in shard.replicas]

    def engines(self) -> list:
        return [r.masm for r in self._replicas()]

    def primaries(self) -> list:
        return [shard.primary.masm for shard in self.warehouse.shards]

    def disks(self) -> list:
        return [r.node.disk for r in self._replicas()]

    def ssds(self) -> list:
        return [r.node.ssd for r in self._replicas()]

    def apply(self, update) -> None:
        warehouse = self.warehouse
        warehouse.shards[warehouse.route(update.key)].apply(update)

    def maintenance(self) -> None:
        self.warehouse.maintenance(wal_budget_bytes=WAL_BUDGET)

    def flush(self) -> None:
        self.warehouse.flush_all()

    def request(self, lo: int, hi: int, arrival: Optional[float] = None):
        """(records, dispatch instant).  ``arrival`` is the open-loop due
        time; without it the request is a closed-loop ``FrontDoor.query``."""
        frontdoor = self.frontdoor
        if arrival is None:
            result = frontdoor.query(TENANT, lo, hi)
        else:
            waited = 0.0
            while True:  # FrontDoor.query's admission loop, with an arrival
                wait = frontdoor.try_admit(TENANT, waited)
                if wait <= 0:
                    break
                self.clock.advance(wait)
                waited += wait
            self._seq += 1
            result = frontdoor.execute(
                QueryRequest(TENANT, 0, self._seq, lo, hi, arrival=arrival)
            )
        return list(result.records), result.started

    def base_scan(self, lo: int, hi: int) -> int:
        return sum(
            1
            for shard in self.warehouse.shards
            for _ in shard.primary.table.range_scan(lo, hi)
        )

    def outage_and_recover(self) -> None:
        """Crash every replica of shard 0, then rejoin them — the last one
        down first, since it holds every acknowledged update."""
        shard = self.warehouse.shards[0]
        ids = shard.replica_ids()
        for replica_id in ids:
            shard.crash_replica(replica_id)
        for replica_id in reversed(ids):
            shard.rejoin(replica_id)


def build_system(workload: Workload):
    return ServedSystem(workload) if workload.served else BareSystem(workload)
