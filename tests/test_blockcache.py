"""Decoded-block cache: LRU behavior, counters, invalidation, and its effect
on SSD reads; plus the batch codec API and migrated-range coalescing that
back the block-granular read pipeline."""

import pytest

import reference_codec
import reference_operators as ref
from repro.core.blockcache import DecodedBlockCache
from repro.core.sortedrun import write_run
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()
CODEC = UpdateCodec(SCHEMA)
FIELDS = [(field.name, field.type_code) for field in SCHEMA.fields]


def make_run(n=2000, name="r0", block_size=4 * KB, vol=None):
    vol = vol or StorageVolume(SimulatedSSD(capacity=64 * MB))
    ups = [
        UpdateRecord(i + 1, i * 2, UpdateType.INSERT, (i * 2, f"v{i}"))
        for i in range(n)
    ]
    return write_run(vol, name, CODEC.encode_columns(ups), CODEC, block_size=block_size)


def _columnar_entry(n=50):
    ups = [
        UpdateRecord(i + 1, i * 2, UpdateType.INSERT, (i * 2, f"v{i}"))
        for i in range(n)
    ]
    from repro.core.update import ColumnarBlock

    return ColumnarBlock(CODEC.encode_block(ups), CODEC)


# ------------------------------------------------------------------ LRU core
def test_cache_hit_miss_eviction_counters():
    cache = DecodedBlockCache(2)
    assert cache.get("r", 0) is None
    first = _columnar_entry(1)
    cache.put("r", 0, first)
    cache.put("r", 1, _columnar_entry(1))
    assert cache.get("r", 0) is first
    cache.put("r", 2, _columnar_entry(1))  # evicts block 1 (LRU; 0 was touched)
    assert cache.get("r", 1) is None
    assert cache.get("r", 0) is not None
    assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 1)
    assert cache.hit_rate == pytest.approx(0.5)


def test_cache_invalidate_run_drops_only_that_run():
    cache = DecodedBlockCache(8)
    cache.put("a", 0, _columnar_entry(1))
    cache.put("a", 1, _columnar_entry(1))
    cache.put("b", 0, _columnar_entry(1))
    assert cache.invalidate_run("a") == 2
    assert len(cache) == 1
    assert cache.get("b", 0) is not None


def test_cache_zero_capacity_disables_storage():
    cache = DecodedBlockCache(0)
    cache.put("r", 0, _columnar_entry(1))
    assert len(cache) == 0


def test_stats_sink_receives_counts():
    class Sink:
        block_cache_hits = 0
        block_cache_misses = 0
        block_cache_evictions = 0

    sink = Sink()
    cache = DecodedBlockCache(1, stats=sink)
    cache.get("r", 0)
    cache.put("r", 0, _columnar_entry(1))
    cache.get("r", 0)
    cache.put("r", 1, _columnar_entry(1))
    assert (sink.block_cache_hits, sink.block_cache_misses) == (1, 1)
    assert sink.block_cache_evictions == 1


def test_group_calls_match_per_block_calls():
    """``get_many`` / ``put_many`` (what a run scan issues per read group)
    leave the cache exactly where the per-block calls would: same hits,
    misses, evictions, LRU order and byte charges, on the cache and on the
    stats sink."""
    import random

    class Sink:
        block_cache_hits = 0
        block_cache_misses = 0
        block_cache_evictions = 0

    rng = random.Random(11)
    sinks = Sink(), Sink()
    per_block = DecodedBlockCache(6, stats=sinks[0])
    grouped = DecodedBlockCache(6, stats=sinks[1])
    for _ in range(300):
        run = rng.choice(["a", "b"])
        first = rng.randrange(12)
        group = range(first, first + rng.randrange(1, 6))
        found = [per_block.get(run, b) for b in group]
        assert grouped.get_many(run, group) == found
        missing = [b for b, entry in zip(group, found) if entry is None]
        fresh = [(b, _columnar_entry(n=rng.randrange(1, 9))) for b in missing]
        for b, entry in fresh:
            per_block.put(run, b, entry)
        grouped.put_many(run, fresh)
        assert list(grouped._entries) == list(per_block._entries)  # LRU order
    for attr in ("hits", "misses", "evictions", "resident_bytes"):
        assert getattr(grouped, attr) == getattr(per_block, attr)
    assert vars(sinks[0]) == vars(sinks[1])
    assert per_block.evictions > 50 and per_block.hits > 50


def test_run_scan_publishes_gauges_once_per_read_group(monkeypatch):
    """One gauge publish per insert group, none for hits (a hit moves
    neither the block count nor the resident bytes)."""
    run = make_run(n=1500, block_size=1 * KB)
    cache = DecodedBlockCache(512)
    publishes = []
    original = DecodedBlockCache._publish_bytes
    monkeypatch.setattr(
        DecodedBlockCache, "_publish_bytes", lambda self: publishes.append(1) or original(self)
    )
    cold = run.slice_columns(0, 10**9, cache=cache)
    assert run.num_blocks > 128 and len(publishes) == -(-run.num_blocks // 128)
    publishes.clear()
    warm = run.slice_columns(0, 10**9, cache=cache)
    assert not publishes and cache.hits == run.num_blocks
    assert warm.keys.tolist() == cold.keys.tolist()


# ------------------------------------------------------- byte accounting
def test_resident_bytes_track_lazy_materialization():
    cache = DecodedBlockCache(8)
    entry = _columnar_entry()
    cache.put("r", 0, entry)
    assert cache.resident_bytes == entry.nbytes
    # Decoding a block's records builds nothing the block keeps.
    assert len(entry.update_columns().records) == entry.count
    assert cache.get("r", 0) is entry
    assert cache.resident_bytes == entry.nbytes
    cache.put("r", 1, _columnar_entry(3))
    assert cache.invalidate_run("r") == 2
    assert cache.resident_bytes == 0


# -------------------------------------------------------- cached run scans
def test_warm_scan_skips_ssd_reads():
    vol = StorageVolume(SimulatedSSD(capacity=64 * MB))
    run = make_run(vol=vol)
    cache = DecodedBlockCache(256)
    assert list(run.scan(0, 10**9, cache=cache)) == list(ref.scan_run(run, 0, 10**9))
    before = vol.device.snapshot()
    warm = list(run.scan(0, 10**9, cache=cache))
    delta = vol.device.stats.delta(before)
    assert delta.bytes_read == 0  # fully served from decoded blocks
    assert [u.key for u in warm] == [i * 2 for i in range(2000)]


def test_blocks_decoded_counter():
    class Stats:
        blocks_decoded = 0
        block_cache_hits = 0
        block_cache_misses = 0
        block_cache_evictions = 0

    run = make_run()
    stats = Stats()
    cache = DecodedBlockCache(256, stats=stats)
    list(run.scan(0, 10**9, cache=cache, stats=stats))
    assert stats.blocks_decoded == run.num_blocks
    list(run.scan(0, 10**9, cache=cache, stats=stats))
    assert stats.blocks_decoded == run.num_blocks  # warm pass decodes nothing
    assert stats.block_cache_hits == run.num_blocks


# ------------------------------------------------------------- batch codec
def test_encode_block_decode_block_round_trip():
    updates = [
        UpdateRecord(1, 5, UpdateType.INSERT, (5, "hello")),
        UpdateRecord(2, 5, UpdateType.MODIFY, {"payload": "patched"}),
        UpdateRecord(3, 9, UpdateType.DELETE, None),
        UpdateRecord(4, 12, UpdateType.REPLACE, (12, "replaced")),
    ]
    block = CODEC.encode_block(updates)
    assert CODEC.decode_block(block) == updates
    # The batch encoder agrees byte for byte with the per-field reference.
    assert block == reference_codec.encode_block(FIELDS, [_plain(u) for u in updates])


def test_decode_block_matches_record_decoder():
    run = make_run(n=300)
    data = run.file.read(0, run.block_size)
    batch = CODEC.decode_block(data)
    singles = reference_codec.decode_block(FIELDS, data)
    assert [_plain(u) for u in batch] == singles


def _plain(update):
    return (update.timestamp, update.key, int(update.type), update.content)


# ------------------------------------------------- migrated-range coalescing
def test_mark_migrated_coalesces_overlaps():
    run = make_run(n=100)
    run.mark_migrated(10, 20)
    run.mark_migrated(15, 30)
    run.mark_migrated(31, 40)  # adjacent: merges too
    run.mark_migrated(60, 70)
    assert run.migrated_ranges == [(10, 40), (60, 70)]
    run.mark_migrated(0, 100)
    assert run.migrated_ranges == [(0, 100)]


def test_is_migrated_bisect_semantics():
    run = make_run(n=100)
    for lo, hi in [(10, 20), (40, 50), (90, 95)]:
        run.mark_migrated(lo, hi)
    covered = {k for lo, hi in [(10, 20), (40, 50), (90, 95)] for k in range(lo, hi + 1)}
    for key in range(0, 120):
        assert ref.is_masked(run, key) == (key in covered)


def test_many_partial_migrations_stay_compact():
    run = make_run(n=2000)
    for i in range(1000):
        run.mark_migrated(i * 2, i * 2 + 2)  # each adjacent to the previous
    assert run.migrated_ranges == [(0, 2000)]
