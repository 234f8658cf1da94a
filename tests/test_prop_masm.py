"""Property-based tests of MaSM's core invariant: a range scan over the
cached-update view equals the same operations applied to a dict model —
across flushes, run merges, and migrations."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.governor import GovernorConfig, OverloadPolicy
from repro.core.masm import MaSM, MaSMConfig
from repro.errors import BackpressureError
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType, apply_update, combine_chain
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()

# Each op: (kind, key_choice, payload_tag, control)
ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "modify", "flush", "migrate", "scan"]),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=80,
)


def make_masm(n=60):
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, n, slack=1.0)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(n))
    config = MaSMConfig(
        alpha=1.2, ssd_page_size=4 * KB, block_size=2 * KB, auto_migrate=False
    )
    masm = MaSM(table, ssd_vol, config=config)
    return masm


@given(ops=ops_strategy)
@settings(max_examples=40, deadline=None)
def test_masm_view_equals_model(ops):
    masm = make_masm()
    model = {i * 2: (i * 2, f"rec-{i}") for i in range(60)}
    for kind, key_choice, tag in ops:
        if kind == "insert":
            key = key_choice
            if key in model:
                continue
            record = (key, f"p{tag}")
            masm.insert(record)
            model[key] = record
        elif kind == "delete":
            if not model:
                continue
            key = sorted(model)[key_choice % len(model)]
            masm.delete(key)
            del model[key]
        elif kind == "modify":
            if not model:
                continue
            key = sorted(model)[key_choice % len(model)]
            record = (key, f"m{tag}")
            masm.modify(key, {"payload": f"m{tag}"})
            model[key] = record
        elif kind == "flush":
            masm.flush_buffer()
        elif kind == "migrate":
            masm.flush_buffer()
            masm.migrate()
        else:  # scan a sub-range and compare there and then
            lo = key_choice
            hi = lo + 40
            got = {SCHEMA.key(r): r for r in masm.range_scan(lo, hi)}
            expected = {k: v for k, v in model.items() if lo <= k <= hi}
            assert got == expected
    got = {SCHEMA.key(r): r for r in masm.range_scan(0, 10**9)}
    assert got == model


# ------------------------------------------------------ governed admission
def make_governed(policy, admit_rate, n=40):
    """A small governed engine with a deliberately tight token bucket."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    # Half-full pages + extent slack so paced in-place slices (which the
    # governor may run inside admit()) have room to absorb inserts.
    table = Table.create(disk_vol, "t", SCHEMA, n, slack=2.0)
    table.bulk_load(((i * 2, f"rec-{i}") for i in range(n)), fill_factor=0.5)
    config = MaSMConfig(
        alpha=1.4,  # the 64 KB cache gives M=4, which needs alpha >= 1.26
        ssd_page_size=4 * KB,
        block_size=2 * KB,
        cache_bytes=64 * KB,
        auto_migrate=False,
        governor=GovernorConfig(
            overload_policy=policy,
            admit_rate=admit_rate,
            burst=4,
            max_delay_seconds=0.01,
            target_stall_seconds=0.005,
        ),
    )
    return MaSM(table, ssd_vol, config=config)


governed_ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "modify", "flush", "scan"]),
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=60,
)


@given(
    policy=st.sampled_from(list(OverloadPolicy)),
    admit_rate=st.sampled_from([50.0, 500.0, None]),
    ops=governed_ops_strategy,
)
@settings(max_examples=25, deadline=None)
def test_governed_scan_returns_exactly_admitted_updates(policy, admit_rate, ops):
    """Under any overload policy and arrival pattern, a scan returns exactly
    the *admitted* updates: sheds leave no trace, delays/sync slices lose
    nothing, and paced migration inside admit() never perturbs the view."""
    masm = make_governed(policy, admit_rate)
    # Counters are scoped by engine name in the process-wide registry, so
    # other suites' governors (same name) leak in: compare deltas.
    base = masm.governor.report()
    model = {i * 2: (i * 2, f"rec-{i}") for i in range(40)}
    for kind, key_choice, tag in ops:
        try:
            if kind == "insert":
                key = key_choice
                if key in model:
                    continue
                masm.insert((key, f"p{tag}"))
                model[key] = (key, f"p{tag}")
            elif kind == "delete":
                if not model:
                    continue
                key = sorted(model)[key_choice % len(model)]
                masm.delete(key)
                del model[key]
            elif kind == "modify":
                if not model:
                    continue
                key = sorted(model)[key_choice % len(model)]
                masm.modify(key, {"payload": f"m{tag}"})
                model[key] = (key, f"m{tag}")
            elif kind == "flush":
                masm.flush_buffer()
            else:
                lo = key_choice
                got = {SCHEMA.key(r): r for r in masm.range_scan(lo, lo + 40)}
                assert got == {k: v for k, v in model.items() if lo <= k <= lo + 40}
        except BackpressureError:
            # SHED refused the update before it touched the engine; the
            # model must not record it either.
            assert policy is OverloadPolicy.SHED
    got = {SCHEMA.key(r): r for r in masm.range_scan(0, 10**9)}
    assert got == model
    report = masm.governor.report()
    if policy is not OverloadPolicy.SHED:
        assert report["shed"] == base["shed"]


# --------------------------------------------------------- combine algebra
def _chain_strategy():
    """A legal per-key update chain: starts from a known record state."""
    step = st.sampled_from(["delete-insert", "modify", "delete_end"])
    return st.lists(
        st.tuples(step, st.integers(min_value=0, max_value=9)), min_size=1, max_size=6
    )


@given(
    start_exists=st.booleans(),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["insert", "delete", "modify"]),
            st.integers(min_value=0, max_value=9),
        ),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=120, deadline=None)
def test_combined_chain_equals_sequential_application(start_exists, steps):
    """apply(combine(chain)) == fold(apply, chain) for every legal chain."""
    key = 10
    base = (key, "base") if start_exists else None
    state = base
    chain = []
    ts = 0
    for kind, tag in steps:
        ts += 1
        if kind == "insert":
            if state is not None:
                continue  # ill-formed: skip
            update = UpdateRecord(ts, key, UpdateType.INSERT, (key, f"i{tag}"))
        elif kind == "delete":
            if state is None:
                continue
            update = UpdateRecord(ts, key, UpdateType.DELETE, None)
        else:
            if state is None:
                continue
            update = UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"m{tag}"})
        chain.append(update)
        state = apply_update(state, update, SCHEMA)
    if not chain:
        return
    combined = combine_chain(chain, SCHEMA)
    assert apply_update(base, combined, SCHEMA) == state
    assert combined.timestamp == chain[-1].timestamp


# ------------------------------------------------------ sorted run scans
updates_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=120,
)


@given(pairs=updates_strategy, lo=st.integers(0, 500), span=st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_run_scan_equals_filtered_list(pairs, lo, span):
    """A run scan with the run index returns exactly the in-range updates."""
    codec = UpdateCodec(SCHEMA)
    updates = sorted(
        (
            UpdateRecord(ts + 1, key, UpdateType.MODIFY, {"payload": f"v{ts}"})
            for ts, (key, _tag) in enumerate(pairs)
        ),
        key=UpdateRecord.sort_key,
    )
    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    run = write_run(vol, "r", codec.encode_columns(updates), codec, block_size=1024)
    hi = lo + span
    got = list(run.scan(lo, hi))
    expected = [u for u in updates if lo <= u.key <= hi]
    assert got == expected


@given(pairs=updates_strategy, query_ts=st.integers(0, 130))
@settings(max_examples=60, deadline=None)
def test_run_scan_timestamp_visibility(pairs, query_ts):
    codec = UpdateCodec(SCHEMA)
    updates = sorted(
        (
            UpdateRecord(ts + 1, key, UpdateType.DELETE, None)
            for ts, (key, _tag) in enumerate(pairs)
        ),
        key=UpdateRecord.sort_key,
    )
    vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    run = write_run(vol, "r", codec.encode_columns(updates), codec, block_size=1024)
    got = list(run.scan(0, 10**9, query_ts=query_ts))
    expected = [u for u in updates if u.timestamp <= query_ts]
    assert got == expected
