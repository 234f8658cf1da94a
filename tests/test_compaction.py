"""Run merging (the compaction of sorted runs): victim choice, the crash
windows of the RUN_MERGE protocol, checkpoints after merges, peer repair
of a run whose span a donor holds in differently merged (and folded) runs,
and MaSM-M's bound of two SSD writes per update."""

import reference_operators as ref_ops
from repro.core.masm import MaSM, MaSMConfig
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.errors import SimulatedCrash
from repro.storage.disk import SimulatedDisk
from repro.storage.faults import FaultPlan, use_fault_plan
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.txn.log import RedoLog
from repro.txn.recovery import restart_masm
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
KEY_MAX = 2**63 - 1
BASE = {i * 2: f"rec-{i}" for i in range(1000)}  # the table before updates


def build_system(n=1000):
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=16 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.0, ssd_page_size=16 * KB, block_size=4 * KB, auto_migrate=False
    )
    log = RedoLog(ssd_vol.create("redo-log", 4 * MB))
    masm = MaSM(table, ssd_vol, config=config)
    masm.attach_log(log)
    return masm, table, ssd_vol, log, config


def crash_and_recover(masm, table, ssd_vol, log, config):
    return restart_masm(table, ssd_vol, log.file, config=config)


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


def crash_merging(masm, site):
    """Merge the two earliest runs with a crash armed at ``site``."""
    try:
        with use_fault_plan(FaultPlan().crash_at(site, occurrence=1)):
            masm._merge_earliest_runs(2)
    except SimulatedCrash:
        return
    raise AssertionError(f"{site} never fired")


def test_degenerate_fallback_uses_first_two_runs():
    """With no two 1-pass runs left, the two earliest runs merge whatever
    their pass count."""
    masm, *_ = build_system()
    expect = churn(masm, rounds=6)
    for _ in range(3):
        masm._merge_earliest_runs(2)
    assert [run.passes for run in masm.runs] == [2, 2, 2]
    third = masm.runs[2]
    product = masm._merge_earliest_runs(2)
    assert masm.runs == (third, product)
    assert product.passes == 3
    assert scan_values(masm) == {**BASE, **expect}


def test_crash_before_product_write_leaves_victims_authoritative():
    """Logged but never written: the victims stay and the merge is
    forgotten."""
    masm, table, ssd_vol, log, config = build_system()
    expect = churn(masm, rounds=4)
    victims = [run.name for run in masm.runs[:2]]
    product = f"{masm.name}-run-{masm._run_seq:05d}"
    crash_merging(masm, "masm.merge.logged")
    assert product not in ssd_vol
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.merge_victims_discarded == 0
    assert [run.name for run in recovered.runs[:2]] == victims
    assert scan_values(recovered) == {**BASE, **expect}


def test_logged_slice_product_name_never_reused():
    """A merge that logged its product name but crashed before writing the
    file still burns that sequence number: recovery never hands it out."""
    masm, table, ssd_vol, log, config = build_system()
    churn(masm, rounds=8)
    product = f"{masm.name}-run-{masm._run_seq:05d}"
    crash_merging(masm, "masm.merge.logged")
    seq_at_crash = masm._run_seq
    recovered, _report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert recovered._run_seq >= seq_at_crash
    recovered.modify(0, {"payload": "after"})
    assert recovered.flush_buffer().name != product


def test_crash_after_product_write_discards_the_victims():
    """Product written, victims not yet retired: recovery serves the
    product alone — keeping the victims would apply every update twice."""
    masm, table, ssd_vol, log, config = build_system()
    expect = churn(masm, rounds=4)
    victims = [run.name for run in masm.runs[:2]]
    product = f"{masm.name}-run-{masm._run_seq:05d}"
    crash_merging(masm, "masm.merge.product_written")
    assert all(name in ssd_vol for name in victims)
    recovered, report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert report.merge_victims_discarded == 2
    assert not any(name in ssd_vol for name in victims)
    assert [run.name for run in recovered.runs] == [
        run.name for run in masm.runs[2:] if run.name != product
    ] + [product]
    assert scan_values(recovered) == {**BASE, **expect}


def test_checkpoint_after_compaction_completes_and_recovers():
    masm, table, ssd_vol, log, config = build_system()
    expect = churn(masm, rounds=8)
    for _ in range(3):
        masm._merge_earliest_runs(3)
    cut = masm.checkpoint_and_truncate()
    assert cut is not None
    expect.update(churn(masm, rounds=2, seed_base=500))
    recovered, _report = crash_and_recover(masm, table, ssd_vol, log, config)
    assert [run.name for run in recovered.runs] == [run.name for run in masm.runs]
    assert scan_values(recovered) == {**BASE, **expect}


def test_peer_repair_rebuilds_the_reference_run():
    """The donor hands over its runs and its buffer: here it merged runs
    the receiver never merged, and the damaged run's span reaches past the
    donor's runs into its buffer.  The rebuilt run is, block for block,
    what the record-at-a-time writer makes of that reference set."""
    import reference_run_writer

    donor, *_ = build_system()
    receiver, *_ = build_system()
    stream = [
        UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"v{ts}"})
        for ts, key in enumerate(((i * 37) % 1000 * 2 for i in range(420)), start=1)
    ]
    for i, update in enumerate(stream):
        donor.apply(update)
        receiver.apply(update)
        if i % 60 == 59 and i < 360:
            donor.flush_buffer()
    donor._merge_earliest_runs(4)
    assert [run.passes for run in donor.runs] == [1, 1, 2] and donor.buffer.count
    damaged = receiver.flush_buffer()
    assert (damaged.covered_min_ts, damaged.covered_max_ts) == (1, len(stream))
    damaged.quarantine("test damage")

    stored = []  # every update the donor holds, runs first, then its buffer
    for run in donor.runs:
        for block in range(run.num_blocks):
            data = run.file.peek(block * run.block_size, run.block_size)
            stored += run.codec.decode_block(data)
    stored += ref_ops.buffered_records(donor.buffer, 0, KEY_MAX, 2**62)
    assert len(stored) == len(stream)
    expected = reference_run_writer.reference_write_run(
        StorageVolume(SimulatedSSD(capacity=16 * MB)),
        damaged.name,
        sorted(stored, key=UpdateRecord.sort_key),
        receiver.codec,
        block_size=receiver.config.block_size,
    )

    assert receiver.repair_run_from_peer(damaged.name, donor)
    rebuilt = next(run for run in receiver.runs if run.name == damaged.name)
    assert not rebuilt.quarantined
    assert rebuilt.block_digests() == expected.block_digests()


def test_peer_repair_never_cuts_a_folded_chain():
    """A donor's merge folds INSERT@t1 + MODIFY@t2 into INSERT@t2.  The
    receiver's damaged run ends between t1 and t2, so that donor refuses the
    span (shipping it would drop the insert) and anti-entropy repairs from
    the next donor; every replica then answers like the model."""
    import pytest

    from repro.core.replication import ReplicaSet
    from repro.errors import ReproError
    from repro.sim.model import ModelTable
    from repro.storage.clock import SimClock
    from repro.txn.timestamps import TimestampOracle

    oracle = TimestampOracle()
    rset = ReplicaSet.build(0, SCHEMA, oracle, SimClock(), 3, records_per_node=400)
    base = [(i * 2, f"rec-{i}") for i in range(100)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    model = ModelTable(SCHEMA, base)
    receiver, folder, plain = (replica.masm for replica in rset.replicas)

    def apply(kind, key, content):
        update = UpdateRecord(oracle.next(), key, kind, content)
        rset.apply(update)
        model.record(update)

    apply(UpdateType.INSERT, 43, (43, "other"))
    apply(UpdateType.INSERT, 41, (41, "v1"))
    receiver.flush_buffer()
    folder.flush_buffer()
    apply(UpdateType.MODIFY, 41, {"payload": "v2"})
    receiver.checkpoint_and_truncate()  # its log no longer covers the run
    receiver.flush_buffer()
    folder.flush_buffer()
    assert folder._merge_earliest_runs(2).passes == 2
    assert folder.stats.duplicates_merged == 1
    damaged = receiver.runs[0]
    with pytest.raises(ReproError):
        folder.updates_in_ts_span(damaged.covered_min_ts, damaged.covered_max_ts)

    offset = 100
    byte = damaged.file.read(offset, 1)[0]
    damaged.file.write(offset, bytes([byte ^ 0xFF]))
    receiver.block_cache.invalidate_run(damaged.name)
    report = rset.anti_entropy()
    assert report == {"repaired": [(rset.replicas[0].name, damaged.name)], "unrepaired": []}
    want = model.snapshot_records(oracle.next(), 0, KEY_MAX)
    for masm in (receiver, folder, plain):
        assert list(masm.range_scan(0, KEY_MAX)) == want


def test_scan_preamble_migrates_instead_of_writing_a_3_pass_run():
    """With fewer than two 1-pass runs left, an ungoverned engine that
    migrates on its own empties the cache rather than merge 2-pass runs."""
    masm, *_ = build_system()
    masm.config.auto_migrate = True
    expect = churn(masm, rounds=6)
    for _ in range(3):
        masm._merge_earliest_runs(2)
    assert [run.passes for run in masm.runs] == [2, 2, 2]
    masm.params.query_pages = 2  # the next scan's preamble must drop a run
    assert scan_values(masm) == {**BASE, **expect}
    assert not masm.runs
    assert (masm.stats.migrations, masm.stats.multi_pass_merges) == (1, 0)


def test_scan_preamble_under_an_open_reader_still_merges_past_two_passes():
    """An open scan could see a migration's in-place writes: the preamble
    keeps the multi-pass merge, and counts it."""
    masm, *_ = build_system()
    masm.config.auto_migrate = True
    expect = churn(masm, rounds=6)
    for _ in range(3):
        masm._merge_earliest_runs(2)
    reader = masm.range_scan(0, KEY_MAX)
    masm.params.query_pages = 2
    assert scan_values(masm) == {**BASE, **expect}
    assert [run.passes for run in masm.runs] == [2, 3]
    assert (masm.stats.migrations, masm.stats.multi_pass_merges) == (0, 1)
    assert {SCHEMA.key(r): r[1] for r in reader} == {**BASE, **expect}


def test_masm_m_writes_each_update_at_most_twice_on_a_skewed_stream():
    """Theorem 3.3 on a zipf stream at the end-to-end benchmark's sizing
    (alpha 1, 8 KB pages, 4 KB blocks, 1 MB cache) with a scan every 50
    updates: no 3-pass run is ever written, and merges fold the hot keys'
    versions, so each update reaches the SSD at most twice."""
    import random

    from repro.workloads.synthetic import SyntheticUpdateGenerator

    rows = 40_000
    table = Table.create(StorageVolume(SimulatedDisk(capacity=256 * MB)), "t", SCHEMA, rows)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(rows))
    config = MaSMConfig(alpha=1.0, ssd_page_size=8 * KB, block_size=4 * KB, cache_bytes=1 * MB)
    masm = MaSM(table, StorageVolume(SimulatedSSD(capacity=4 * MB)), config=config)
    updates = SyntheticUpdateGenerator(rows, seed=7, distribution="zipf", oracle=masm.oracle)
    rng = random.Random(7)
    for i in range(40_000):
        masm.apply(updates.next_update())
        if i % 50 == 49:
            lo = rng.randrange(2 * rows)
            list(masm.range_scan(lo, lo + 200))
    stats = masm.stats
    assert stats.runs_merged > 0 and stats.duplicates_merged > 0 and stats.migrations > 0
    assert stats.multi_pass_merges == 0
    assert stats.updates_written_to_ssd / stats.updates_ingested <= 2.0


def test_scan_preamble_folds_no_versions_its_own_query_ts_tells_apart():
    """A scan at an older ts is not registered while its preamble merges,
    so the merge is told the ts: reading at t1 itself, it must still see
    the version written at t1, not the one folded in from t2."""
    masm, *_ = build_system()
    t1 = masm.modify(0, {"payload": "old"})
    masm.flush_buffer()
    masm.modify(0, {"payload": "new"})
    masm.flush_buffer()
    for i in range(masm.params.query_pages):
        masm.modify(2 + 2 * i, {"payload": f"x{i}"})
        masm.flush_buffer()
    assert list(masm.range_scan(0, 0, query_ts=t1)) == [(0, "old")]
    assert masm.stats.runs_merged > 0 and masm.stats.duplicates_merged == 0
    assert list(masm.range_scan(0, 0)) == [(0, "new")]
