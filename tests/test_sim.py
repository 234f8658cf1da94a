"""The deterministic simulator's own guarantees.

Three families:

* determinism/replay — a schedule is a pure function of (seed, config);
  the recorded schedule replays to the identical trace, and the shrinker
  preserves failure while minimizing;
* the model oracle — plain-dict snapshot semantics the engine is checked
  against;
* pinned schedules — minimal reproducers of concurrency bugs the
  simulator found, frozen as regressions (each one failed before its fix).
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.sim.__main__ import SCENARIOS
from repro.sim.explorer import (
    DEFAULT_CRASH_SITES,
    explore_crash_schedules,
    run_crash_probe,
)
from repro.sim.harness import FULL_RANGE, SimConfig, SimEnv, run_simulation
from repro.sim.hooks import active_context, interleave, simulation_active
from repro.sim.model import ModelTable
from repro.sim.scheduler import Schedule
from repro.sim.shrink import shrink_schedule
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema

pytestmark = pytest.mark.sim

SCHEMA = synthetic_schema()

HEAVY = replace(SimConfig.canonical(), updaters=2, scanners=2, update_ops=60)


# --------------------------------------------------------------- determinism
def test_same_seed_same_report_byte_for_byte():
    first = run_simulation(seed=5).report.to_text()
    second = run_simulation(seed=5).report.to_text()
    assert first == second


def test_recorded_schedule_replays_to_identical_trace():
    seeded = run_simulation(seed=7)
    replayed = run_simulation(seed=7, schedule=seeded.report.schedule)
    assert replayed.report.to_text() == seeded.report.to_text()


def test_different_seeds_take_different_schedules():
    schedules = {
        run_simulation(seed=s).report.schedule.to_text() for s in (1, 2, 3)
    }
    assert len(schedules) == 3


def test_schedule_text_round_trip():
    schedule = Schedule(["updater-0", "scanner-0", "flusher-0", "updater-0"])
    assert Schedule.from_text(schedule.to_text()).choices == schedule.choices


def test_crasher_scenario_is_deterministic():
    config = SimConfig.canonical().with_crasher()
    first = run_simulation(config, seed=4).report.to_text()
    second = run_simulation(config, seed=4).report.to_text()
    assert first == second


# Mirrors the ``kernels`` scenario in ``repro.sim.__main__``: tiny merge
# partitions force every scan through several kernel partitions while
# flushers and migrators run between scheduler steps.
KERNELS = replace(
    SimConfig.canonical(),
    scanners=2,
    update_ops=80,
    flush_ops=6,
    kernel_partition_blocks=1,
)


def test_kernels_scenario_is_deterministic_and_validates():
    first = run_simulation(KERNELS, seed=6)
    second = run_simulation(KERNELS, seed=6)
    assert first.report.to_text() == second.report.to_text()
    # run_simulation validated the final engine state against the model
    # oracle (validate=True); "ok" means the kernel-path scans agreed with
    # it at every scanner step too.
    assert first.report.verdict == "ok"


def test_kernels_scenario_scans_cross_partition_boundaries():
    run = run_simulation(KERNELS, seed=2)
    sites = [s for step in run.report.steps for s in step.sites]
    # The scans actually took the partitioned kernel path (several
    # partitions per merge), under interleaved flush/migration steps.
    assert sites.count("kernels.partition") >= 2
    assert any(s.startswith("flush") or "flush" in s for s in sites) or any(
        step.actor.startswith("flusher") for step in run.report.steps
    )


# ------------------------------------------------------------------ shrinker
def test_shrinker_minimizes_while_preserving_failure():
    # Synthetic predicate: a schedule "fails" iff it keeps >= 3 updater
    # steps; ddmin must land on exactly 3 choices.
    schedule = Schedule(
        ["updater-0", "scanner-0"] * 6 + ["updater-0", "flusher-0"] * 2
    )

    def fails(candidate: Schedule) -> bool:
        return candidate.choices.count("updater-0") >= 3

    minimal = shrink_schedule(schedule, fails)
    assert fails(minimal)
    assert minimal.choices == ["updater-0"] * 3


# -------------------------------------------------------------- interleaving
def test_interleave_is_a_noop_outside_simulation():
    assert active_context() is None
    interleave("anything.at.all")  # must not raise, must not record


def test_simulation_active_records_sites():
    class Recorder:
        def __init__(self):
            self.sites = []

        def on_interleave(self, site):
            self.sites.append(site)

    recorder = Recorder()
    with simulation_active(recorder):
        interleave("a")
        interleave("b")
    interleave("c")  # deactivated again
    assert recorder.sites == ["a", "b"]
    assert active_context() is None


# -------------------------------------------------------------- model oracle
def test_model_snapshot_respects_timestamps():
    model = ModelTable(SCHEMA, [(0, "base-0"), (2, "base-1")])
    model.record(UpdateRecord(1, 4, UpdateType.INSERT, (4, "ins")))
    model.record(UpdateRecord(2, 0, UpdateType.MODIFY, {"payload": "mod"}))
    model.record(UpdateRecord(3, 2, UpdateType.DELETE, None))

    at0 = model.snapshot(0)
    assert set(at0) == {0, 2}
    at1 = model.snapshot(1)
    assert set(at1) == {0, 2, 4}
    at2 = model.snapshot(2)
    assert at2[0] == (0, "mod")
    at3 = model.snapshot(3)
    assert set(at3) == {0, 4}


def test_model_in_doubt_extra_update():
    model = ModelTable(SCHEMA, [(0, "base-0")])
    extra = UpdateRecord(1, 6, UpdateType.INSERT, (6, "maybe"))
    assert 6 in model.snapshot(5, extra=extra)
    assert 6 not in model.snapshot(5)  # not recorded: still absent


# --------------------------------------------------------- pinned schedules
def test_pinned_memscan_learns_registration_epoch():
    """A flush between scan registration and first pull must hand over.

    Found by the simulator at heavy/seed 2 (shrunk from 64 choices): the
    lazily-built buffer cursor learned the *post-flush* epoch, so the
    flushed updates silently vanished from the scan.
    """
    schedule = Schedule.from_text("updater-1,scanner-0,flusher-0,scanner-0")
    run = run_simulation(HEAVY, seed=2, schedule=schedule)
    assert run.report.verdict == "ok"


def test_pinned_partial_migration_survives_recovery():
    """A governed slice's MIGRATION_END must not delete the run on recover.

    Found by the simulator at crasher/seed 1 (shrunk from 86 choices):
    recovery treated any completed migration as covering the whole run and
    deleted it, losing the unmigrated keys.
    """
    schedule = Schedule.from_text(
        "scanner-0,crasher-0,updater-0,scanner-0,updater-0,flusher-0,"
        "scanner-0,scanner-0,scanner-0,scanner-0,crasher-0,scanner-0,"
        "scanner-0,migrator-0,crasher-0,crasher-0,crasher-0,crasher-0,"
        "crasher-0,crasher-0,crasher-0,crasher-0,crasher-0"
    )
    config = SimConfig.canonical().with_crasher()
    run = run_simulation(config, seed=1, schedule=schedule)
    assert run.report.verdict == "ok"


def test_pinned_crasher_seed_one_full_run():
    """The originally-failing seed, end to end (86 scheduler choices)."""
    run = run_simulation(SimConfig.canonical().with_crasher(), seed=1)
    assert run.report.verdict == "ok"


def test_pinned_migration_slice_under_older_scan():
    """A paced slice must not apply updates newer than an active scan.

    Found by the simulator at canonical/seed 1: the slice rewrote pages
    with ts>=2 updates while a ts=1 scan was open, so the scan saw future
    payloads.  The schedule pins the exact interleaving: scan registered,
    update applied, flushed, migrated, scan pulled.
    """
    schedule = Schedule.from_text(
        "scanner-0,updater-0,flusher-0,migrator-0,scanner-0,scanner-0,"
        "scanner-0,scanner-0,scanner-0,scanner-0,scanner-0"
    )
    run = run_simulation(seed=1, schedule=schedule)
    assert run.report.verdict == "ok"


def test_pinned_merge_victims_discarded_on_recovery():
    """Victims of a committed merge must not survive a crash.

    Found by hypothesis (test_prop_sim, seed 177, shrunk from 45 choices):
    a merge retired its victims into the graveyard for an active scan, the
    crash hit before graveyard GC, and recovery reloaded victims *and*
    product — every merged update served twice, surfacing as a
    duplicate-INSERT conflict in the combine chain.  Merges now WAL a
    RUN_MERGE record before writing the product, and recovery discards
    victim files whenever the product file is intact.
    """
    config = replace(
        SimConfig.canonical(), updaters=2, scanners=2, flushers=2,
        migrators=0, crashers=1, txn_writers=1, update_ops=5, scans=1,
        scan_batch=4, flush_ops=3, migrate_ops=0, crasher_idle=6,
    )
    schedule = Schedule.from_text(
        "crasher-0,txn-0,crasher-0,txn-0,flusher-1,crasher-0,updater-0,"
        "flusher-1,updater-1,crasher-0,flusher-1,crasher-0,updater-0,"
        "flusher-0,crasher-0,updater-0,scanner-1,flusher-0,txn-0,crasher-0"
    )
    run = run_simulation(config, seed=177, schedule=schedule)
    assert run.report.verdict == "ok"


def test_pinned_zombie_scan_teardown_after_recovery():
    """Closing a pre-crash scan must survive recovery's leftover deletion.

    Found by hypothesis (test_prop_sim, seed 2): the recovered engine
    deleted a fully-migrated run's file, then the pre-crash engine's
    graveyard GC — triggered by the abandoned scan's teardown — tried to
    delete it again and raised StorageError.
    """
    config = replace(
        SimConfig.canonical(), flushers=2, crashers=1, update_ops=5,
        scans=1, scan_batch=4, flush_ops=1, migrate_ops=1, crasher_idle=1,
    )
    schedule = Schedule.from_text(
        "updater-0,scanner-0,flusher-0,migrator-0,scanner-0,crasher-0,"
        "crasher-0,scanner-0"
    )
    run = run_simulation(config, seed=2, schedule=schedule)
    assert run.report.verdict == "ok"


# ------------------------------------- governor x scanner (direct, no sim)
def _issue(env, ts, key, kind, content):
    env.issue_update(UpdateRecord(ts, key, kind, content))


def test_scan_spanning_migration_slices_sees_its_snapshot():
    """A scan that opens before paced slices run must keep its snapshot."""
    config = SimConfig.canonical()
    with obs.use_registry(), obs.use_tracer():
        env = SimEnv(config, seed=0)
        masm = env.masm
        for i in range(8):
            ts = masm.oracle.next()
            _issue(env, ts, i * 2, UpdateType.MODIFY, {"payload": f"early-{i}"})
        masm.flush_buffer()

        scan_ts = masm.oracle.next()
        expected = env.model.snapshot_records(scan_ts, *FULL_RANGE)
        stream = iter(masm.range_scan(*FULL_RANGE, query_ts=scan_ts))
        got = [next(stream) for _ in range(4)]  # scan is mid-flight

        for i in range(8):
            ts = masm.oracle.next()
            _issue(env, ts, i * 2, UpdateType.MODIFY, {"payload": f"late-{i}"})
        masm.flush_buffer()
        for _ in range(6):
            masm.governor.migrate_step(min_fraction=1.0)

        got.extend(stream)
        assert got == expected
        env.validate_full()


def test_scan_beginning_mid_migration_sees_consistent_snapshot():
    """A scan opened *between* two slices of one sweep double-counts
    nothing: migrated pages carry timestamps that dedupe the run's copy."""
    config = SimConfig.canonical()
    with obs.use_registry(), obs.use_tracer():
        env = SimEnv(config, seed=0)
        masm = env.masm
        for i in range(12):
            ts = masm.oracle.next()
            key = i * 2
            kind = UpdateType.DELETE if i % 3 == 0 else UpdateType.MODIFY
            content = None if i % 3 == 0 else {"payload": f"u-{i}"}
            _issue(env, ts, key, kind, content)
        masm.flush_buffer()

        # First slice of the sweep (no scans active: applies in place).
        masm.governor.migrate_step()

        scan_ts = masm.oracle.next()
        expected = env.model.snapshot_records(scan_ts, *FULL_RANGE)
        stream = iter(masm.range_scan(*FULL_RANGE, query_ts=scan_ts))
        first = [next(stream) for _ in range(3)]

        # Rest of the sweep while the scan is open.
        for _ in range(6):
            masm.governor.migrate_step(min_fraction=1.0)

        assert first + list(stream) == expected
        env.validate_full()


# ------------------------------------------------------------ explorer smoke
def test_crash_explorer_validates_every_probe():
    config = replace(
        SimConfig.canonical(), update_ops=10, scans=1, flush_ops=2,
        migrate_ops=2,
    )
    report = explore_crash_schedules(config, seed=1, prefix_stride=4)
    assert report.sites == DEFAULT_CRASH_SITES
    assert report.attempted > 0
    assert not report.failures
    # The WAL-append crash point sits on every logged update, so a sweep
    # that never fires it is not actually crashing anything.
    assert report.fired("wal.append") > 0


def test_crash_explorer_skips_only_probes_that_cannot_fire():
    """The sweep skips a (prefix, site) probe only when no step from that
    prefix on reaches the site: running every probe anyway fires exactly
    the ones the explorer ran, and fails none it skipped."""
    config = replace(
        SimConfig.canonical(), update_ops=10, scans=1, flush_ops=2,
        migrate_ops=2,
    )
    report = explore_crash_schedules(config, seed=1, prefix_stride=3)
    ran = {(probe.prefix, probe.site) for probe in report.probes}
    everything = [
        run_crash_probe(config, 1, report.schedule, prefix, site)
        for prefix in range(0, len(report.schedule.choices) + 1, 3)
        for site in DEFAULT_CRASH_SITES
    ]
    assert report.attempted + sum(report.skipped.values()) == len(everything)
    assert sum(report.skipped.values()) > 0
    for probe in everything:
        if (probe.prefix, probe.site) not in ran:
            assert not probe.fired and probe.validated, probe
    for site in DEFAULT_CRASH_SITES:
        assert report.fired(site) == sum(
            1 for probe in everything if probe.fired and probe.site == site
        )
        assert report.to_dict()["per_site"][site]["skipped"] == report.skipped.get(site, 0)


def test_crash_explorer_fires_the_migration_emit_site():
    """``migration.emit`` sits on every output page of a full migration (and
    on every page of a paced slice); seed 11's canonical schedule reaches it,
    so a sweep that never fires it has lost the site."""
    report = explore_crash_schedules(seed=11, sites=("migration.emit",))
    assert report.fired("migration.emit") > 0
    assert not report.failures


def test_crash_explorer_fires_the_merge_sites():
    """The ``merge`` scenario runs a RUN_MERGE on seed 2's schedule, so both
    crash sites inside the protocol fire, and every torn state recovers to
    the model."""
    sites = ("masm.merge.logged", "masm.merge.product_written")
    report = explore_crash_schedules(
        SCENARIOS["merge"](), seed=2, sites=sites, prefix_stride=4
    )
    assert not report.failures
    for site in sites:
        assert report.fired(site) > 0


def test_merge_scenario_folds_a_chain():
    """Seed 2's ``merge`` schedule folds a key's versions in a merge, so the
    explorer's sweep of the merge sites covers a folded product."""
    run = run_simulation(SCENARIOS["merge"](), seed=2)
    assert run.report.verdict == "ok"
    assert run.report.chains_folded > 0


@pytest.mark.parametrize("seed", [2, 3, 11])
def test_durability_scenario_bootstraps_and_validates(seed, monkeypatch):
    """The one scenario that wipes replicas and revives them by snapshot
    bootstrap: every read is model-checked and the final state validated,
    and at least one bootstrap must run, or the test proves nothing about
    the lay-down-and-restart path."""
    from repro.core.replication import ReplicaSet

    bootstraps = []
    bootstrap = ReplicaSet.bootstrap_replica

    def counted(self, replica_id, source_id=None):
        bootstraps.append(replica_id)
        return bootstrap(self, replica_id, source_id=source_id)

    monkeypatch.setattr(ReplicaSet, "bootstrap_replica", counted)
    run = run_simulation(SCENARIOS["durability"](), seed=seed)
    assert run.report.verdict == "ok"
    assert bootstraps


# ------------------------------------------------------------------ the CLI
def test_cli_sweep_covers_the_pinned_txn_vs_plain_seeds(capsys):
    """``--sweep`` runs a seed range of one scenario and fails on any
    divergence; seeds 373 and 390 of ``txn-vs-plain`` are the two that used
    to commit a snapshot MODIFY on top of a plain DELETE."""
    from repro.sim.__main__ import main

    assert main(["--scenario", "txn-vs-plain", "--seed", "370", "--sweep", "25"]) == 0
    assert "swept seeds 370..394 of 'txn-vs-plain': 0 failed" in capsys.readouterr().out
