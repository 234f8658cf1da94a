"""Simulation environment + entry points: (seed, config) -> verdict.

``run_simulation(config, seed)`` builds a miniature but fully real MaSM
stack (simulated disk + SSD, WAL, governor), a :class:`ModelTable` oracle,
and a cast of actors, then lets the seeded scheduler interleave them.  The
whole run executes inside a fresh metrics registry/tracer so nothing leaks
between runs — two calls with the same ``(config, seed)`` produce the same
trace byte-for-byte, which CI asserts.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.core.governor import GovernorConfig
from repro.core.masm import MaSM, MaSMConfig
from repro.core.update import UpdateRecord
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.obs import get_registry, use_registry, use_tracer
from repro.sim import actors
from repro.sim.model import ModelTable, diff_states
from repro.sim.scheduler import Schedule, SimFailure, SimScheduler, Step
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.txn.snapshot import SnapshotManager
from repro.util.units import KB, MB

FULL_RANGE = (0, 2**62)


@dataclass(frozen=True)
class SimConfig:
    """Everything (besides the seed) that determines a simulated run."""

    rows: int = 96
    key_stride: int = 2  # odd keys stay free for inserts
    ssd_page_size: int = 1 * KB
    block_size: int = 1 * KB
    cache_bytes: int = 64 * KB
    alpha: float = 1.0
    updaters: int = 1
    scanners: int = 1
    flushers: int = 1
    migrators: int = 1
    crashers: int = 0
    txn_writers: int = 0
    #: Serving front doors (see :func:`repro.sim.actors.server`).
    servers: int = 0
    #: Replica-set chaos drivers (see :func:`repro.sim.actors.replicator`).
    replicators: int = 0
    #: Durability-churn drivers: checkpoint/truncate, wipe + snapshot
    #: bootstrap, bit-flip + anti-entropy (see
    #: :func:`repro.sim.actors.durability`).
    durability_actors: int = 0
    update_ops: int = 40
    scans: int = 3
    scan_batch: int = 16
    flush_ops: int = 4
    migrate_ops: int = 3
    crasher_idle: int = 10
    txns: int = 3
    serve_requests: int = 8
    replica_ops: int = 24
    durability_ops: int = 30
    #: Run-index blocks per kernel merge partition (None = library default).
    #: The ``kernels`` scenario sets this tiny so even the simulation's
    #: small runs split into several partitions, exercising the partition
    #: boundaries under flush/migration interleave.
    kernel_partition_blocks: Optional[int] = None

    @property
    def key_universe(self) -> int:
        return self.rows * self.key_stride

    @classmethod
    def canonical(cls) -> "SimConfig":
        """The 4-actor scenario the crash explorer sweeps exhaustively."""
        return cls()

    def with_crasher(self) -> "SimConfig":
        return replace(self, crashers=1)


@dataclass
class SimReport:
    """Deterministic, text-serializable outcome of one simulated run."""

    seed: int
    verdict: str  # "ok" | "crashed"
    steps: List[Step]
    schedule: Schedule
    updates_acknowledged: int
    final_records: int
    #: Same-key chains the run's engines folded (flushes and merges).
    chains_folded: int = 0

    def to_text(self) -> str:
        lines = [
            f"seed: {self.seed}",
            f"verdict: {self.verdict}",
            f"updates_acknowledged: {self.updates_acknowledged}",
            f"final_records: {self.final_records}",
            f"schedule: {self.schedule.to_text()}",
            "trace:",
        ]
        lines.extend("  " + s.to_text() for s in self.steps)
        return "\n".join(lines) + "\n"


class SimEnv:
    """The engine-under-test plus its model oracle and crash machinery."""

    def __init__(self, config: SimConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        self.schema = synthetic_schema()
        self.disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
        self.ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
        table = Table.create(self.disk_vol, "sim", self.schema, config.rows)
        table.bulk_load(
            (i * config.key_stride, f"base-{i}") for i in range(config.rows)
        )
        self.masm_config = MaSMConfig(
            alpha=config.alpha,
            ssd_page_size=config.ssd_page_size,
            block_size=config.block_size,
            cache_bytes=config.cache_bytes,
            kernel_blocks_per_partition=config.kernel_partition_blocks,
            auto_migrate=False,
            # All migration happens through explicitly scheduled actor
            # steps (migrate_step / make_room): no hidden trickle work.
            governor=GovernorConfig(
                admit_rate=None,
                migrate_on_apply=False,
                migrate_between_scans=False,
            ),
        )
        self.log = RedoLog(self.ssd_vol.create("wal", 2 * MB))
        self.masm = MaSM(table, self.ssd_vol, config=self.masm_config)
        self.masm.attach_log(self.log)
        self.snapshots = SnapshotManager(self.masm)
        self.model = ModelTable(
            self.schema,
            ((i * config.key_stride, f"base-{i}") for i in range(config.rows)),
        )
        #: Bumped on every crash+recover; actors holding pre-crash
        #: iterators/transactions check it and abandon them.
        self.epoch = 0
        #: The single update currently inside ``masm.apply`` — in-doubt if
        #: a crash unwinds the call (see :meth:`crash_and_recover`).
        self.in_flight: Optional[UpdateRecord] = None
        #: Replica sets actors drive beside the main engine; their engines
        #: are under the invariant monitor too.
        self.replica_sets: list = []
        #: Each run manifest's state at the last check, by manifest.
        self._manifests = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------- updates
    def issue_update(self, update: UpdateRecord) -> None:
        """Apply ``update`` to the engine; acknowledge to the model after."""
        self.in_flight = update
        self.masm.apply(update)
        self.in_flight = None
        self.model.record(update)

    # ------------------------------------------------------------ crashing
    def crash_and_recover(self) -> None:
        """Simulate a whole-process crash, recover, validate vs the model.

        Only durable state survives: the heap file, the SSD run files and
        the redo log.  The in-memory buffer, open scans and transactions
        die.  An update in flight inside ``masm.apply`` at crash time is
        in-doubt — recovery may legitimately restore it (logged before the
        crash) or not (crashed before the log append): the recovered state
        must match the model with or without exactly that update, and the
        model adopts whichever branch the engine durably took.
        """
        old = self.masm
        recovered, _report = restart_masm(
            old.table, self.ssd_vol, self.log.file, config=self.masm_config
        )
        # Timestamps must stay monotonic across the crash even when the
        # newest issued timestamps never reached the log.
        recovered.oracle.advance_past(old.oracle.current)
        self.masm = recovered
        self.log = recovered.redo_log
        self.snapshots = SnapshotManager(recovered)
        self.epoch += 1
        live = {run.name for run in recovered.runs}
        prefix = f"{recovered.name}-run-"
        stray = [n for n in self.ssd_vol if n.startswith(prefix) and n not in live]
        if stray:
            raise AssertionError(f"run files no live run owns after recovery: {stray}")
        self._settle_in_doubt()

    # ------------------------------------------------------------ invariants
    def check_invariants(self) -> None:
        """The run-manifest invariants of every engine in the world, read
        only: live run names unique and in sequence order, and no change to
        a manifest without a version increase."""
        replicas = [r.masm for rset in self.replica_sets for r in rset.replicas]
        for masm in [self.masm, *replicas]:
            manifest = masm.manifest
            seqs = [int(run.name.rpartition("-run-")[2]) for run in manifest.runs]
            if seqs != sorted(set(seqs)):
                raise AssertionError(f"{masm.name}: live runs out of sequence: {seqs}")
            state = (manifest.flushed_through, manifest.migrated_through) + tuple(
                (r.name, r.passes, r.covered_min_ts, r.covered_max_ts, tuple(r.migrated_ranges))
                for r in manifest.runs
            )
            version, before = self._manifests.get(manifest, (manifest.version, state))
            if manifest.version < version or (manifest.version == version and state != before):
                raise AssertionError(f"{masm.name}: manifest changed at version {version}")
            self._manifests[manifest] = (manifest.version, state)

    def _settle_in_doubt(self) -> None:
        update = self.in_flight
        self.in_flight = None
        got = self.read_engine_state()
        query_ts = self.masm.oracle.current
        without = self.model.snapshot(query_ts)
        if update is None:
            if got != without:
                raise AssertionError(
                    "post-recovery state diverged from model: "
                    + diff_states(without, got)
                )
            return
        with_it = self.model.snapshot(query_ts, extra=update)
        if got == without:
            return  # the in-flight update did not survive: drop it
        if got == with_it:
            self.model.record(update)  # it was durable: adopt it
            return
        raise AssertionError(
            "post-recovery state matches neither in-doubt branch for "
            f"update ts={update.timestamp} key={update.key}: "
            f"vs without: {diff_states(without, got)}; "
            f"vs with: {diff_states(with_it, got)}"
        )

    # ----------------------------------------------------------- validation
    def read_engine_state(self) -> dict[int, tuple]:
        """Current full-range engine contents, keyed by record key."""
        query_ts = self.masm.oracle.current
        return {
            self.schema.key(r): r
            for r in self.masm.range_scan(*FULL_RANGE, query_ts=query_ts)
        }

    def validate_full(self) -> None:
        """Final-state oracle check (beyond the scanners' per-step checks)."""
        if self.in_flight is not None:
            return self._settle_in_doubt()
        got = self.read_engine_state()
        want = self.model.snapshot(self.masm.oracle.current)
        if got != want:
            raise AssertionError(
                "final engine state diverged from model: "
                + diff_states(want, got)
            )


def build_actor_factories(
    env: SimEnv, config: SimConfig, seed: int
) -> Dict[str, Callable[[], object]]:
    """Name -> zero-arg factory for every actor the config asks for."""
    factories: Dict[str, Callable[[], object]] = {}

    def add(kind: str, count: int, make: Callable[[str], object]) -> None:
        for i in range(count):
            name = f"{kind}-{i}"
            factories[name] = (lambda n=name: make(n))

    add(
        "updater",
        config.updaters,
        lambda n: actors.updater(env, n, seed, config.update_ops),
    )
    add(
        "scanner",
        config.scanners,
        lambda n: actors.scanner(
            env, n, seed, config.scans, batch=config.scan_batch
        ),
    )
    add(
        "flusher",
        config.flushers,
        lambda n: actors.flusher(env, n, seed, config.flush_ops),
    )
    add(
        "migrator",
        config.migrators,
        lambda n: actors.migrator(env, n, seed, config.migrate_ops),
    )
    add(
        "crasher",
        config.crashers,
        lambda n: actors.crasher(env, n, seed, config.crasher_idle),
    )
    add(
        "txn",
        config.txn_writers,
        lambda n: actors.txn_writer(env, n, seed, config.txns),
    )
    add(
        "server",
        config.servers,
        lambda n: actors.server(env, n, seed, config.serve_requests),
    )
    add(
        "replicator",
        config.replicators,
        lambda n: actors.replicator(env, n, seed, config.replica_ops),
    )
    add(
        "durability",
        config.durability_actors,
        lambda n: actors.durability(env, n, seed, config.durability_ops),
    )
    return factories


@dataclass
class SimRun:
    """A finished simulation with its environment still inspectable."""

    env: SimEnv
    scheduler: SimScheduler
    report: SimReport


def _chains_folded(registry) -> int:
    """The ``duplicates_merged`` counters of every engine in ``registry``."""
    return int(
        sum(
            registry.get(name).value
            for name in registry.names()
            if name.endswith(".duplicates_merged")
        )
    )


def run_simulation(
    config: Optional[SimConfig] = None,
    seed: int = 0,
    schedule: Optional[Schedule] = None,
    max_steps: int = 100_000,
    validate: bool = True,
) -> SimRun:
    """Run one deterministic simulation; raises SimFailure on divergence."""
    config = config or SimConfig.canonical()
    with use_registry(), use_tracer():
        env = SimEnv(config, seed)
        factories = build_actor_factories(env, config, seed)
        sched = SimScheduler(
            {name: factories[name]() for name in sorted(factories)},
            seed=seed,
            schedule=schedule,
            monitor=env.check_invariants,
        )
        sched.run(max_steps=max_steps)
        if validate and not sched.crashed:
            try:
                env.validate_full()
            except Exception as exc:  # noqa: BLE001 - rewrapped with trace
                raise SimFailure(
                    f"final validation raised {type(exc).__name__}: {exc}",
                    seed=seed,
                    schedule=sched.recorded,
                    steps=sched.steps,
                    actor="<validate_full>",
                    cause=exc,
                ) from exc
        verdict = "crashed" if sched.crashed else "ok"
        report = SimReport(
            seed=seed,
            verdict=verdict,
            steps=sched.steps,
            schedule=sched.recorded,
            updates_acknowledged=len(env.model.history),
            final_records=(
                0 if sched.crashed else len(env.model.snapshot(2**62))
            ),
            chains_folded=_chains_folded(get_registry()),
        )
        return SimRun(env=env, scheduler=sched, report=report)
