"""Overload governance: watermarks, admission control, paced migration.

Unit tests cover the governor's pieces (token bucket, pacing controller,
config validation, watermark bands, policy dispatch); the ``overload``-marked
flood tests drive a governed engine at twice its admission rate and check
the headline invariants: no ``UpdateCacheFullError``, bounded stalls under
``DELAY``, counted sheds only under ``SHED``, and a post-flood scan that
matches the oracle of admitted updates exactly.
"""

import random

import pytest

from repro.core.governor import (
    STATE_CRITICAL,
    STATE_HIGH,
    STATE_LOW,
    STATE_NORMAL,
    GovernorConfig,
    OverloadPolicy,
    PacingController,
    TokenBucket,
)
from repro.core.masm import MaSM, MaSMConfig
from repro.core.replication import ReplicaSet, ReplicatedWarehouse
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import BackpressureError, UpdateCacheFullError
from repro.obs import use_registry
from repro.storage.clock import SimClock
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.timestamps import TimestampOracle
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


# ------------------------------------------------------------- token bucket
class TestTokenBucket:
    def test_starts_full_and_refills_to_burst(self):
        bucket = TokenBucket(rate=10.0, burst=5.0)
        assert bucket.tokens == 5.0
        for _ in range(5):
            assert bucket.take(0.0)
        assert not bucket.take(0.0)
        bucket.refill(100.0)  # plenty of time: capped at burst
        assert bucket.tokens == 5.0

    def test_wait_needed_matches_rate(self):
        bucket = TokenBucket(rate=4.0, burst=1.0)
        assert bucket.take(0.0)
        assert bucket.wait_needed(0.0) == pytest.approx(0.25)
        assert bucket.wait_needed(0.25) == pytest.approx(0.0)
        assert bucket.take(0.25)

    def test_force_take_goes_negative_and_repays(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.take(0.0)
        bucket.force_take(0.0)
        assert bucket.tokens == pytest.approx(-1.0)
        # The debt is repaid by later refills before new tokens accrue.
        bucket.refill(1.0)
        assert bucket.tokens == pytest.approx(0.0)
        assert not bucket.take(1.0)
        assert bucket.take(3.0)

    def test_backwards_time_is_ignored(self):
        bucket = TokenBucket(rate=1.0, burst=2.0)
        assert bucket.take(5.0)
        bucket.refill(1.0)  # clock went backwards: no refill, no crash
        assert bucket.tokens == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)


# ------------------------------------------------------- pacing controller
class TestPacingController:
    def test_shrinks_when_over_target(self):
        pacer = PacingController(target=0.01, min_fraction=0.001, max_fraction=0.5)
        before = pacer.fraction
        pacer.observe(0.1)  # 10x over target
        assert pacer.fraction < before
        for _ in range(50):
            pacer.observe(0.1)
        assert pacer.fraction == pytest.approx(0.001)

    def test_grows_when_under_target(self):
        pacer = PacingController(target=0.01, min_fraction=0.001, max_fraction=0.5)
        before = pacer.fraction
        pacer.observe(0.001)  # 10x under target
        assert pacer.fraction > before
        for _ in range(80):
            pacer.observe(0.005)  # consistently under target: keep growing
        assert pacer.fraction == pytest.approx(0.5)

    def test_free_steps_do_not_arm_a_mega_slice(self):
        """Empty stretches of the sweep cost nothing, so they must not grow
        the slice — the next dense stretch would pay for the growth."""
        pacer = PacingController(target=0.01, min_fraction=0.001, max_fraction=0.5)
        before = pacer.fraction
        for _ in range(50):
            pacer.observe(0.0)
        assert pacer.fraction == before

    def test_smoothing_damps_one_outlier(self):
        pacer = PacingController(target=0.01, min_fraction=0.001, max_fraction=0.5)
        before = pacer.fraction
        pacer.observe(10.0)  # wild outlier: halves at most (EWMA blend)
        assert pacer.fraction >= before * 0.49


# ---------------------------------------------------------- config checks
class TestGovernorConfig:
    def test_watermark_ordering_enforced(self):
        with pytest.raises(ValueError):
            GovernorConfig(low_watermark=0.8, high_watermark=0.5)
        with pytest.raises(ValueError):
            GovernorConfig(critical_watermark=1.5)
        with pytest.raises(ValueError):
            GovernorConfig(low_watermark=0.0)

    def test_rate_and_slice_validation(self):
        with pytest.raises(ValueError):
            GovernorConfig(admit_rate=0.0)
        with pytest.raises(ValueError):
            GovernorConfig(burst=0.0)
        with pytest.raises(ValueError):
            GovernorConfig(min_slice_fraction=0.5, max_slice_fraction=0.1)
        with pytest.raises(ValueError):
            GovernorConfig(target_stall_seconds=0.0)
        with pytest.raises(ValueError):
            GovernorConfig(max_steps_per_room=0)

    def test_only_the_primary_of_a_replica_set_is_governed(self):
        """The primary's admission decision is the set's: a follower that
        shed a shipped update would silently diverge, so ``ReplicaSet.build``
        strips the governor from every follower's config."""
        with use_registry():
            tuned = GovernorConfig(overload_policy=OverloadPolicy.SHED)
            rset = ReplicaSet.build(
                0,
                SCHEMA,
                TimestampOracle(),
                SimClock(),
                replication=3,
                records_per_node=400,
                masm_config=MaSMConfig(alpha=1.2, auto_migrate=False, governor=tuned),
            )
            primary, *followers = rset.replicas
            assert primary.config.governor is tuned
            assert primary.masm.governor.config.overload_policy is OverloadPolicy.SHED
            for follower in followers:
                assert follower.config.governor is None
                assert follower.masm.governor is None


# -------------------------------------------------------------- test rig
def build_governed(
    policy=OverloadPolicy.DELAY,
    admit_rate=2000.0,
    burst=16.0,
    cache_bytes=96 * KB,
    n=1200,
    governor_kwargs=None,
    with_log=False,
):
    clock = SimClock()
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB, clock=clock))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB, clock=clock))
    # Generous extent slack and half-full pages: bulk loads leave room so
    # in-place migration (and tail-page splits) can absorb the flood's
    # inserts without waiting for a heap rewrite.
    table = Table.create(disk_vol, "t", SCHEMA, n, slack=3.0)
    table.bulk_load(((i * 2, f"rec-{i}") for i in range(n)), fill_factor=0.5)
    kwargs = dict(
        overload_policy=policy,
        admit_rate=admit_rate,
        burst=burst,
        target_stall_seconds=0.005,
        max_steps_per_room=16,
    )
    kwargs.update(governor_kwargs or {})
    config = MaSMConfig(
        alpha=1.4,
        ssd_page_size=4 * KB,
        block_size=2 * KB,
        cache_bytes=cache_bytes,
        auto_migrate=False,
        governor=GovernorConfig(**kwargs),
    )
    masm = MaSM(table, ssd_vol, config=config)
    log = None
    if with_log:
        from repro.txn.log import RedoLog

        log = RedoLog(ssd_vol.create("wal", 4 * MB))
        masm.attach_log(log)
    return masm, clock, log


def flood(masm, clock, updates, arrival_rate, seed=3):
    """Drive ``updates`` well-formed ops at ``arrival_rate``; returns the
    admitted-state model, per-apply stalls, and the shed count.

    Inserts follow the warehouse pattern: mostly new rows appended past the
    table's highest key (absorbed by tail-page splits), plus some keys
    interleaved into existing half-full pages.
    """
    rng = random.Random(seed)
    model = {SCHEMA.key(r): r for r in masm.table.range_scan(0, 2**62)}
    # Start past every in-range insert candidate so appends never collide.
    tail_key = (max(model) if model else 0) + 3
    gap = 1.0 / arrival_rate
    stalls = []
    shed = 0
    for step in range(updates):
        clock.advance(gap)
        roll = rng.random()
        started = clock.now
        try:
            if roll < 0.25:
                if roll < 0.15:
                    key = tail_key
                    tail_key += 2
                else:
                    key = rng.randrange(1200) * 2 + 1
                    if key in model:
                        continue
                masm.insert((key, f"i{step}"))
                model[key] = (key, f"i{step}")
            elif roll < 0.45 and model:
                key = rng.choice(sorted(model))
                masm.delete(key)
                del model[key]
            elif model:
                key = rng.choice(sorted(model))
                masm.modify(key, {"payload": f"m{step}"})
                model[key] = (key, f"m{step}")
        except BackpressureError:
            shed += 1
        stalls.append(clock.now - started)
    return model, stalls, shed


# ------------------------------------------------------------ watermarks
class TestWatermarks:
    def test_bands(self):
        with use_registry():
            masm, clock, _ = build_governed()
            governor = masm.governor
            assert governor.watermark_state(0.1) == STATE_NORMAL
            assert governor.watermark_state(0.5) == STATE_LOW
            assert governor.watermark_state(0.75) == STATE_HIGH
            assert governor.watermark_state(0.95) == STATE_CRITICAL
            assert governor.watermark_name() == "normal"  # empty cache

    def test_scan_end_runs_slice_above_high_water(self):
        with use_registry():
            masm, clock, _ = build_governed(
                admit_rate=None,
                cache_bytes=48 * KB,
                # Let pressure build (no trickle) and put high water within
                # reach of make_room's steady state: this test is about the
                # scan-end slice.
                governor_kwargs={
                    "migrate_on_apply": False,
                    "low_watermark": 0.3,
                    "high_watermark": 0.5,
                },
            )
            # Fill past the high watermark without tripping admission.
            model, _, _ = flood(masm, clock, 1200, arrival_rate=1e9)
            masm.flush_buffer()
            assert masm.governor.watermark_state() >= STATE_HIGH
            before = masm.governor._steps.value
            list(masm.range_scan(0, 50))
            assert masm.governor._steps.value > before

    def test_report_shape(self):
        with use_registry():
            masm, clock, _ = build_governed()
            report = masm.governor.report()
            assert report["policy"] == "delay"
            assert report["watermark_state"] == "normal"
            assert report["admitted"] == 0
            assert report["tokens"] == pytest.approx(16.0)


# ----------------------------------------------------------- flood tests
@pytest.mark.overload
@pytest.mark.parametrize(
    "policy",
    [OverloadPolicy.DELAY, OverloadPolicy.SHED, OverloadPolicy.SYNC_MIGRATE],
)
def test_flood_scan_matches_admitted_oracle(policy):
    """2x-rate flood: never UpdateCacheFullError; scan == admitted updates."""
    with use_registry():
        masm, clock, _ = build_governed(policy=policy)
        try:
            model, _, shed = flood(
                masm, clock, 4000, arrival_rate=2 * masm.governor.bucket.rate
            )
        except UpdateCacheFullError as exc:  # pragma: no cover - the bug
            pytest.fail(f"governed engine raised UpdateCacheFullError: {exc}")
        report = masm.governor.report()
        assert report["shed"] == shed
        if policy is not OverloadPolicy.SHED:
            assert shed == 0
        got = {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}
        assert got == model


@pytest.mark.overload
def test_flood_delay_bounds_every_stall():
    """Under DELAY no single apply stalls past the configured bound."""
    with use_registry():
        masm, clock, _ = build_governed(policy=OverloadPolicy.DELAY)
        cfg = masm.governor.config
        _, stalls, shed = flood(
            masm, clock, 4000, arrival_rate=2 * masm.governor.bucket.rate
        )
        assert shed == 0
        # Admission waits honour the hard cap exactly.
        delay_hist = masm.governor._delay_hist
        assert delay_hist.count > 0
        assert delay_hist.max <= cfg.max_delay_seconds + 1e-9
        # Whole-apply stalls (wait + flush + paced slices) stay within the
        # documented worst case: one admission wait plus a bounded number
        # of paced slices, with generous slack for pacer convergence.
        bound = cfg.max_delay_seconds + cfg.max_steps_per_room * (
            4 * cfg.target_stall_seconds
        )
        assert max(stalls) <= bound
        # The paced path never fell back to stop-the-world migration.
        assert masm.governor.report()["forced_full_migrations"] == 0


@pytest.mark.overload
def test_flood_shed_is_typed_and_counted():
    with use_registry():
        masm, clock, _ = build_governed(policy=OverloadPolicy.SHED, burst=4.0)
        model, stalls, shed = flood(
            masm, clock, 3000, arrival_rate=4 * masm.governor.bucket.rate
        )
        assert shed > 0
        assert masm.governor.report()["shed"] == shed
        # SHED never waits: applies are as fast as the devices allow.
        delay_hist = masm.governor._delay_hist
        assert delay_hist.count == 0
        got = {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}
        assert got == model


@pytest.mark.overload
def test_flood_sync_migrate_makes_writer_pay():
    with use_registry():
        masm, clock, _ = build_governed(policy=OverloadPolicy.SYNC_MIGRATE)
        model, _, shed = flood(
            masm, clock, 4000, arrival_rate=2 * masm.governor.bucket.rate
        )
        assert shed == 0
        report = masm.governor.report()
        assert report["sync_migrate_steps"] > 0
        got = {SCHEMA.key(r): r for r in masm.range_scan(0, 2**62)}
        assert got == model


@pytest.mark.overload
def test_governed_stalls_beat_stop_the_world():
    """The point of the subsystem: paced slices cut the worst stall well
    below the ungoverned flush-time migrate-everything.  A table several
    times the cache makes the stop-the-world rewrite genuinely expensive —
    the regime the governor is for (tiny tables stream so fast that one
    full migration is itself cheap)."""
    n = 6000
    with use_registry():
        governed, clock_g, _ = build_governed(
            policy=OverloadPolicy.DELAY,
            admit_rate=None,
            cache_bytes=256 * KB,
            n=n,
        )
        _, governed_stalls, _ = flood(governed, clock_g, 6000, arrival_rate=1e9)

        clock = SimClock()
        disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB, clock=clock))
        ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB, clock=clock))
        table = Table.create(disk_vol, "t", SCHEMA, n, slack=3.0)
        table.bulk_load(
            ((i * 2, f"rec-{i}") for i in range(n)), fill_factor=0.5
        )
        ungoverned = MaSM(
            table,
            ssd_vol,
            config=MaSMConfig(
                alpha=1.4,
                ssd_page_size=4 * KB,
                block_size=2 * KB,
                cache_bytes=256 * KB,
                auto_migrate=True,
                migration_threshold=0.5,
            ),
        )
        _, ungoverned_stalls, _ = flood(ungoverned, clock, 6000, arrival_rate=1e9)
        assert max(governed_stalls) < max(ungoverned_stalls) / 2


# ---------------------------------------------- buffer growth (satellite)
class TestBufferGrowthAccounting:
    def test_scan_reclaims_stolen_pages(self):
        """Page steals must be taken back when a scan starts, not at some
        later flush — otherwise query pages and stolen capacity double-book
        the memory budget between flushes."""
        masm, clock, _ = build_governed(admit_rate=None)
        page = masm.ssd_page_size
        s_bytes = masm.params.update_pages * page
        # Grow the buffer via page steals (no scan active).
        step = 0
        while masm.buffer.capacity_bytes <= s_bytes and step < 20000:
            masm.modify((step % 1200) * 2, {"payload": f"g{step}"})
            step += 1
        assert masm.buffer.capacity_bytes > s_bytes, "no page steal happened"
        assert masm.stats.page_steals > 0
        # Starting a scan returns the stolen pages before pinning its own.
        stream = masm.range_scan(0, 100)
        first = next(stream)
        assert first is not None
        assert masm.buffer.capacity_bytes <= s_bytes
        budget = masm.params.total_memory_pages * page
        indexes = sum(run.index.memory_bytes for run in masm.runs)
        assert masm.memory_bytes <= budget + indexes
        list(stream)

    def test_memory_bytes_surfaces_overage(self):
        masm, clock, _ = build_governed(admit_rate=None)
        page = masm.ssd_page_size
        budget = masm.params.total_memory_pages * page
        masm.buffer.capacity_bytes = budget + 3 * page  # simulate the bug
        indexes = sum(run.index.memory_bytes for run in masm.runs)
        assert masm.memory_bytes == budget + 3 * page + indexes


# -------------------------------------------------------------- sharding
class TestShardedGovernance:
    def test_per_node_governors_are_distinct(self):
        with use_registry():
            config = MaSMConfig(
                alpha=1.4,
                ssd_page_size=4 * KB,
                block_size=2 * KB,
                cache_bytes=96 * KB,
                auto_migrate=False,
                governor=GovernorConfig(
                    overload_policy=OverloadPolicy.DELAY, admit_rate=None
                ),
            )
            warehouse = ReplicatedWarehouse(
                SCHEMA,
                3,
                SimClock(),
                replication=1,
                records_per_node=400,
                masm_config=config,
            )
            governors = [
                shard.primary.masm.governor for shard in warehouse.shards
            ]
            assert all(g is not None for g in governors)
            assert len({id(g) for g in governors}) == 3
            assert len({g.scope for g in governors}) == 3
