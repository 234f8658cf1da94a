"""Cost-based incremental compaction: cost model, slice protocol, recovery.

The cost model tests pin the scoring function as a *pure* function of its
explicit inputs (run manifest, traffic counters, device profile, clock):
same inputs, same ranking, independent of dict insertion order and of
``PYTHONHASHSEED``.  The scheduler tests exercise the MERGE_SLICE protocol
end to end: WAL-fenced slices, publication deferred past active scans,
checkpoint/snapshot gating, the structural emergency fallback, and crash
recovery resuming a half-merged plan.
"""

import heapq
import json
import os
import subprocess
import sys

import pytest

import reference_operators as ref_ops
from repro.core import sortedrun
from repro.core.compaction import (
    KEY_MAX,
    CompactionConfig,
    CompactionScheduler,
    RunStat,
    estimate_merge_seconds,
    manifest_of,
    score_candidates,
)
from repro.core.masm import MaSM, MaSMConfig
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import SimulatedCrash, StorageError
from repro.storage.device import DeviceProfile, X25E_SSD
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, use_fault_plan
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import recover_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


def build_system(n=1000, compaction="cost", config_kwargs=None, **compact_kwargs):
    compact_kwargs.setdefault("min_slice_records", 16)
    compact_kwargs.setdefault("trigger_runs", 2)
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.0,
        ssd_page_size=16 * KB,
        block_size=4 * KB,
        auto_migrate=False,
        compaction=compaction,
        compaction_config=(
            CompactionConfig(**compact_kwargs) if compaction == "cost" else None
        ),
        **(config_kwargs or {}),
    )
    log = RedoLog(ssd_vol.create("redo-log", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    return masm, table, ssd_vol, log, config


def crash_and_recover(masm, table, ssd_vol, log, config):
    bare_table = Table(table.name, table.schema, table.heap)
    bare_table.heap.num_pages = table.heap.capacity_pages
    fresh_log = RedoLog(log.file)
    fresh_log.file._append_pos = 0
    return recover_masm(bare_table, ssd_vol, fresh_log, config=config)


def churn(masm, rounds, per_round=60, seed_base=0):
    """Apply modify rounds, flushing each, and return the expected dict."""
    expect = {}
    for r in range(rounds):
        for j in range(per_round):
            key = ((seed_base + r * per_round + j) * 37 % 1000) * 2
            value = f"v{r}-{key}"
            masm.modify(key, {"payload": value})
            expect[key] = value
        masm.flush_buffer()
    return expect


def scan_values(masm):
    return {SCHEMA.key(r): r[1] for r in masm.range_scan(0, 2**62)}


def drive(masm, steps=300):
    """Step the compactor until idle (or ``steps`` exhausted)."""
    for _ in range(steps):
        if not masm.compactor.maybe_step() and not masm.compactor.busy:
            break


# ------------------------------------------------------------ cost model
def _manifest():
    return [
        RunStat("r-0", 64 * KB, 16, 640, 0, 1000, 10, 1),
        RunStat("r-1", 32 * KB, 8, 320, 0, 900, 40, 1),
        RunStat("r-2", 96 * KB, 24, 960, 100, 2000, 70, 1),
        RunStat("r-3", 16 * KB, 4, 160, 0, 500, 95, 1),
    ]


def test_score_is_pure_and_order_independent():
    manifest = _manifest()
    traffic_a = {"r-0": 5.0, "r-1": 3.0, "r-2": 1.0}
    traffic_b = dict(reversed(list(traffic_a.items())))  # other insert order
    args = (X25E_SSD, 1000, CompactionConfig(), 4)
    first = score_candidates(manifest, traffic_a, *args)
    second = score_candidates(manifest, traffic_b, *args)
    assert first == second
    assert first == score_candidates(list(manifest), dict(traffic_a), *args)


def test_score_hash_seed_independent():
    """The ranking must not move with PYTHONHASHSEED (set-order hazards)."""
    script = (
        "from repro.core.compaction import *\n"
        "from repro.storage.device import X25E_SSD\n"
        "from repro.util.units import KB\n"
        "import json\n"
        "manifest = [\n"
        "    RunStat('r-0', 64 * KB, 16, 640, 0, 1000, 10, 1),\n"
        "    RunStat('r-1', 32 * KB, 8, 320, 0, 900, 40, 1),\n"
        "    RunStat('r-2', 96 * KB, 24, 960, 100, 2000, 70, 1),\n"
        "]\n"
        "traffic = {'r-0': 2.0, 'r-2': 2.0}\n"
        "ranked = score_candidates(\n"
        "    manifest, traffic, X25E_SSD, 500, CompactionConfig(), 3)\n"
        "print(json.dumps([list(c.names) for c in ranked]))\n"
    )
    outputs = []
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert result.returncode == 0, result.stderr
        outputs.append(json.loads(result.stdout))
    assert outputs[0] == outputs[1] == outputs[2]


def test_score_prefers_traffic_heavy_windows():
    manifest = _manifest()
    config = CompactionConfig(aging_weight=0.0)
    hot = score_candidates(
        manifest, {"r-0": 100.0, "r-1": 100.0}, X25E_SSD, 100, config, 2
    )
    assert hot[0].names == ("r-0", "r-1")
    cold = score_candidates(
        manifest, {"r-2": 100.0, "r-3": 100.0}, X25E_SSD, 100, config, 2
    )
    assert cold[0].names == ("r-2", "r-3")


def test_aging_term_prevents_starvation():
    """A never-scanned window must eventually outrank the hot one."""
    manifest = _manifest()
    traffic = {"r-2": 1000.0, "r-3": 1000.0}  # old runs r-0/r-1 never read
    config = CompactionConfig(aging_weight=1e-3)

    def winner(now_ts):
        return score_candidates(
            manifest, traffic, X25E_SSD, now_ts, config, 2
        )[0].names

    assert winner(100) == ("r-2", "r-3")
    # The aging term grows without bound with the oldest victim's age, so
    # some horizon flips the decision toward the starved window.
    flipped = next(
        (t for t in (10**3, 10**5, 10**7, 10**9) if "r-0" in winner(t)), None
    )
    assert flipped is not None, "cold window never won: starvation"


def test_score_without_traffic_ranks_deterministically():
    manifest = _manifest()
    ranked = score_candidates(
        manifest, {}, X25E_SSD, 100, CompactionConfig(), 4
    )
    assert ranked == sorted(ranked, key=lambda c: (-c.score, c.names))
    assert len({c.names for c in ranked}) == len(ranked)


def test_degenerate_fallback_uses_first_two_runs():
    manifest = [
        RunStat("r-0", 64 * KB, 16, 640, 0, 1000, 10, 2),
        RunStat("r-1", 32 * KB, 8, 320, 0, 900, 40, 3),
        RunStat("r-2", 96 * KB, 24, 960, 0, 800, 70, 2),
    ]
    ranked = score_candidates(
        manifest, {}, X25E_SSD, 100, CompactionConfig(), 4
    )
    assert len(ranked) == 1
    assert ranked[0].names == ("r-0", "r-1")


def test_estimate_merge_seconds_charges_bandwidth_and_latency():
    profile = DeviceProfile(
        name="test",
        capacity=1 * MB,
        seq_read_bw=100 * MB,
        seq_write_bw=50 * MB,
        read_latency=1e-3,
        write_latency=2e-3,
        internal_parallelism=2,
    )
    seconds = estimate_merge_seconds(1 * MB, 10, profile)
    expected = 1 / 100 + 1 / 50 + 10 * (1e-3 + 2e-3) / 2
    assert seconds == pytest.approx(expected)


def test_config_validation():
    with pytest.raises(ValueError):
        CompactionConfig(fan_in=1)
    with pytest.raises(ValueError):
        CompactionConfig(min_slice_records=0)
    with pytest.raises(ValueError):
        CompactionConfig(target_stall_seconds=0)
    with pytest.raises(ValueError):
        CompactionConfig(min_slice_fraction=0.9, max_slice_fraction=0.1)
    with pytest.raises(ValueError):
        CompactionConfig(aging_weight=-1)
    with pytest.raises(ValueError):
        CompactionConfig(trigger_runs=0)


def test_invalid_mode_rejected_at_engine_construction():
    with pytest.raises(ValueError):
        build_system(compaction="bogus")


# ------------------------------------------------------- slice protocol
def test_incremental_compaction_preserves_content():
    masm, *_ = build_system()
    expect = churn(masm, rounds=8)
    assert len(masm.runs) > 2
    drive(masm)
    assert not masm.compactor.busy
    got = scan_values(masm)
    for key, value in expect.items():
        assert got[key] == value
    report = masm.compactor.report()
    assert report["plans_started"] > 0
    assert report["slices_applied"] > 0
    assert report["victims_retired"] > 0


def test_plan_completion_strictly_reduces_run_count():
    masm, *_ = build_system()
    churn(masm, rounds=6)
    before = len(masm.runs)
    drive(masm)
    assert len(masm.runs) < before


def test_publication_deferred_past_active_scans():
    """Slices emitted under an open scan must not mutate its run set."""
    # A huge emergency slack keeps the scan preamble's structural fallback
    # out of the picture: only incremental slices may move the run set.
    masm, *_ = build_system(emergency_slack=100)
    expect = churn(masm, rounds=6)
    scan_ts = masm.oracle.next()
    stream = iter(masm.range_scan(0, 2**62, query_ts=scan_ts))
    head = [next(stream) for _ in range(5)]
    version_before = masm.runs_version
    for _ in range(10):
        masm.compactor.maybe_step()
    # Products may pile up in the pending queue but nothing publishes while
    # the scan is open — its snapshot of the run list stays coherent.
    assert masm.runs_version == version_before
    tail = list(stream)
    got = {SCHEMA.key(r): r[1] for r in head + tail}
    for key, value in expect.items():
        assert got[key] == value
    drive(masm)
    assert masm.runs_version > version_before


def test_emergency_structural_fallback_bounds_run_count():
    masm, *_ = build_system(trigger_runs=2, emergency_slack=1)
    churn(masm, rounds=10)
    assert len(masm.runs) > 3  # the burst outran the (unscheduled) slices
    # The scan preamble's budget enforcement restores the hard ceiling.
    list(masm.range_scan(0, 10))
    assert len(masm.runs) <= 2 + 1
    assert masm.compactor.report()["emergency_merges"] > 0


def test_structural_mode_has_no_scheduler():
    masm, *_ = build_system(compaction="structural")
    assert masm.compactor is None
    expect = churn(masm, rounds=6)
    got = scan_values(masm)
    for key, value in expect.items():
        assert got[key] == value


def test_checkpoint_gated_while_plan_open():
    masm, *_ = build_system()
    churn(masm, rounds=6)
    assert masm.compactor.maybe_step()  # plan open, at least one slice out
    assert masm.compactor.busy
    assert masm.checkpoint() is None
    drive(masm)
    assert masm.checkpoint() is not None


def test_snapshot_export_refused_mid_compaction():
    masm, *_ = build_system()
    churn(masm, rounds=6)
    assert masm.compactor.maybe_step()
    with pytest.raises(StorageError):
        masm.export_snapshot()
    drive(masm)
    masm.export_snapshot()  # clean state exports fine


def test_full_migration_abandons_open_plan():
    masm, *_ = build_system()
    churn(masm, rounds=6)
    masm.compactor.maybe_step()
    had_plan = masm.compactor.plan is not None
    drive(masm)  # publish whatever is pending so abandon is allowed
    masm.compactor.maybe_step()
    masm.migrate()
    assert masm.compactor.plan is None or masm.compactor.pending
    got = scan_values(masm)
    assert had_plan or masm.compactor.report()["plans_started"] > 0
    assert got  # still serves


# ------------------------------------------------------- crash + recovery
def test_recovery_resumes_partial_plan():
    # Big slack: the scan preamble must not structurally consume the
    # masked victims before the resumed plan gets to finish them.
    masm, table, ssd_vol, log, config = build_system(emergency_slack=100)
    expect = churn(masm, rounds=8)
    plan = FaultPlan().crash_at("compaction.slice_committed", occurrence=2)
    crashed = False
    try:
        with use_fault_plan(plan):
            drive(masm)
    except SimulatedCrash:
        crashed = True
    assert crashed, "workload too small to emit two slices"
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    # The committed slices' masks were re-applied from the WAL.
    assert any(r.merged_ranges for r in recovered.runs)
    got = scan_values(recovered)
    for key, value in expect.items():
        assert got[key] == value
    drive(recovered)
    assert recovered.compactor.report()["plans_resumed"] >= 1
    assert not recovered.compactor.busy
    got = scan_values(recovered)
    for key, value in expect.items():
        assert got[key] == value


def test_crash_before_product_write_leaves_victims_authoritative():
    masm, table, ssd_vol, log, config = build_system()
    expect = churn(masm, rounds=8)
    plan = FaultPlan().crash_at("compaction.slice_emitted", occurrence=1)
    crashed = False
    try:
        with use_fault_plan(plan):
            drive(masm)
    except SimulatedCrash:
        crashed = True
    assert crashed
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    got = scan_values(recovered)
    for key, value in expect.items():
        assert got[key] == value


def test_logged_slice_product_name_never_reused():
    masm, table, ssd_vol, log, config = build_system()
    churn(masm, rounds=8)
    plan = FaultPlan().crash_at("compaction.slice_emitted", occurrence=1)
    try:
        with use_fault_plan(plan):
            drive(masm)
    except SimulatedCrash:
        pass
    seq_at_crash = masm._run_seq
    recovered, _report = recover_masm(
        Table(table.name, table.schema, table.heap), ssd_vol,
        RedoLog(log.file), config=config,
    )
    # The crashed slice logged a product name without writing the file;
    # recovery must still burn that sequence number.
    assert recovered._run_seq >= seq_at_crash


def test_checkpoint_after_compaction_completes_and_recovers():
    masm, table, ssd_vol, log, config = build_system()
    expect = churn(masm, rounds=8)
    drive(masm)
    cut = masm.checkpoint_and_truncate()
    assert cut is not None
    expect.update(churn(masm, rounds=2, seed_base=500))
    recovered, _report = crash_and_recover(masm, table, ssd_vol, log, config)
    got = scan_values(recovered)
    for key, value in expect.items():
        assert got[key] == value


def test_a_slice_reads_its_victims_a_group_at_a_time_like_the_record_merge(monkeypatch):
    # Two-block read groups, so a run of a dozen blocks is six reads.
    monkeypatch.setattr(sortedrun, "READ_BATCH_BLOCKS", 2)
    masm, *_ = build_system(trigger_runs=99)
    churn(masm, rounds=3, per_round=450)
    victims = list(masm.runs)
    assert len(victims) == 3 and all(run.num_blocks >= 6 for run in victims)
    reads = masm.ssd.device.stats

    def record_merge(cursor, target):
        """What ``_emit_slice`` took from the lazy record-at-a-time merge."""
        stream = heapq.merge(
            *masm.run_update_sources(victims, cursor, KEY_MAX, None, use_cache=False),
            key=UpdateRecord.sort_key,
        )
        taken, leftover = [], False
        for update in stream:
            if len(taken) >= target and update.key != taken[-1].key:
                leftover = True
                break
            taken.append(update)
        return taken, leftover

    whole = None
    for cursor, target in [(0, 10**6), (0, 1), (0, 40), (0, 400), (700, 150), (1990, 5), (2500, 5)]:
        before = reads.reads
        want, want_leftover = record_merge(cursor, target)
        record_reads, before = reads.reads - before, reads.reads
        updates, leftover = masm.compactor._take_merged(victims, cursor, target)
        slice_reads = reads.reads - before
        assert (updates.records if updates is not None else []) == want
        assert leftover == want_leftover
        assert slice_reads == record_reads
        whole = whole or slice_reads
    assert slice_reads < whole  # a short slice does not read the victims whole



# ------------------------------------------------------------ degraded reads
def insert_rounds(masm, rounds=6, per_round=60):
    """Fresh odd keys (none in the table), one flushed run per round."""
    expect = {}
    for r in range(rounds):
        for j in range(per_round):
            key = (r * per_round + j) * 2 + 1
            masm.insert((key, f"ins-{key}"))
            expect[key] = f"ins-{key}"
        masm.flush_buffer()
    return expect


def test_log_fallback_of_a_merged_victim_skips_its_masked_keys():
    """A victim whose keys a published slice product re-homed is served
    from the log without those keys: the product already hands them over."""
    masm, *_ = build_system(emergency_slack=100)
    expect = insert_rounds(masm)
    masm.compactor.maybe_step()
    masm.compactor.apply_pending()
    victim = next(run for run in masm.runs if run.merged_ranges)
    victim.quarantine("test damage")
    got = scan_values(masm)
    assert masm.stats.log_fallback_scans > 0
    for key, value in expect.items():
        assert got[key] == value


def test_peer_repair_rebuilds_the_reference_run():
    """The donor hands over its runs and its buffer, deduplicated by (ts,
    key): here slice products overlap their masked victims, and the damaged
    run's span reaches past the donor's runs into its buffer.  The rebuilt
    run is, block for block, what the record-at-a-time writer makes of that
    reference set."""
    import reference_run_writer

    donor, *_ = build_system(emergency_slack=100)
    receiver, *_ = build_system(compaction="structural")
    stream = [
        UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"v{ts}"})
        for ts, key in enumerate(((i * 37) % 1000 * 2 for i in range(420)), start=1)
    ]
    for i, update in enumerate(stream):
        donor.apply(update)
        receiver.apply(update)
        if i % 60 == 59 and i < 360:
            donor.flush_buffer()
    donor.compactor.maybe_step()
    donor.compactor.apply_pending()
    assert any(run.merged_ranges for run in donor.runs) and donor.buffer.count
    damaged = receiver.flush_buffer()
    assert (damaged.covered_min_ts, damaged.covered_max_ts) == (1, len(stream))
    damaged.quarantine("test damage")

    stored = []  # every update the donor holds, runs first, then its buffer
    for run in donor.runs:
        for block in range(run.num_blocks):
            data = run.file.peek(block * run.block_size, run.block_size)
            stored += run.codec.decode_block(data)
    stored += ref_ops.buffered_records(donor.buffer, 0, KEY_MAX, 2**62)
    assert len({(u.timestamp, u.key) for u in stored}) < len(stored)  # overlap
    unique = {}
    for update in stored:
        unique.setdefault((update.timestamp, update.key), update)
    expected = reference_run_writer.reference_write_run(
        StorageVolume(SimulatedSSD(capacity=16 * MB)),
        damaged.name,
        sorted(unique.values(), key=UpdateRecord.sort_key),
        receiver.codec,
        block_size=receiver.config.block_size,
    )

    assert receiver.repair_run_from_peer(damaged.name, donor)
    rebuilt = next(run for run in receiver.runs if run.name == damaged.name)
    assert not rebuilt.quarantined
    assert rebuilt.block_digests() == expected.block_digests()
