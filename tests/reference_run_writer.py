"""The record-at-a-time run writer and flush-time duplicate merge, kept for
the flush tests.

``sortedrun.write_run`` packs blocks from the length column of encoded
updates and ``MaSM._merge_duplicates`` folds chains on their encoded form.
These are the loops they replaced: every :class:`UpdateRecord` encoded as it
is met, the order check, block packing and min/max kept per record, each
block laid out by the per-field reference codec, chunks written as they
fill; duplicates combined pairwise through :func:`combine`.
Same files, same run metadata, same errors, so a test can hand one input to
both and compare everything.  Production code does not import this module.
"""

from __future__ import annotations

from typing import Iterable, Optional

import reference_codec
from repro.core.runindex import COARSE_GRANULARITY, RunIndex
from repro.core.sortedrun import DEFAULT_WRITE_CHUNK, MaterializedSortedRun
from repro.core.update import UpdateCodec, UpdateConflictError, UpdateRecord, combine
from repro.errors import StorageError
from repro.storage import checksum as _checksum
from repro.storage.file import SimFile, StorageVolume


def reference_write_run(
    volume: StorageVolume,
    name: str,
    updates: Iterable[UpdateRecord],
    codec: UpdateCodec,
    block_size: int = COARSE_GRANULARITY,
    write_chunk: int = DEFAULT_WRITE_CHUNK,
    passes: int = 1,
    size_hint: Optional[int] = None,
) -> MaterializedSortedRun:
    """``write_run`` over a stream of records, one record at a time."""
    if write_chunk % block_size != 0:
        write_chunk = block_size * max(1, write_chunk // block_size)

    fields = [(field.name, field.type_code) for field in codec.schema.fields]
    first_keys: list[int] = []
    blocks_in_chunk: list[bytes] = []
    block_records: list[tuple] = []
    block_bytes = reference_codec.BLOCK_HEAD.size
    block_first_key: Optional[int] = None

    stats = {
        "count": 0,
        "min_key": None,
        "max_key": None,
        "min_ts": None,
        "max_ts": None,
    }
    file: Optional[SimFile] = None
    written_blocks = 0
    last_sort_key: Optional[tuple[int, int]] = None

    def ensure_file(total_hint: int) -> SimFile:
        nonlocal file
        if file is None:
            file = volume.create(name, total_hint)
        return file

    def flush_chunk() -> None:
        nonlocal written_blocks
        if not blocks_in_chunk:
            return
        data = b"".join(blocks_in_chunk)
        target = ensure_file(size_hint if size_hint else len(data))
        if target.append_pos + len(data) > target.size:
            raise StorageError(
                f"run {name!r} overflows its pre-allocated extent "
                f"({target.size} bytes; size_hint too small)"
            )
        target.append(data)
        written_blocks += len(blocks_in_chunk)
        blocks_in_chunk.clear()

    def close_block() -> None:
        nonlocal block_records, block_bytes, block_first_key
        if not block_records:
            return
        body = reference_codec.encode_block(fields, block_records)
        blocks_in_chunk.append(_checksum.seal(body, block_size))
        first_keys.append(block_first_key)
        block_records = []
        block_bytes = reference_codec.BLOCK_HEAD.size
        block_first_key = None
        # Without a size hint the file cannot be allocated yet; buffer all
        # blocks and write once at the end (1-pass runs fit in memory by
        # construction — they come from the in-memory buffer).
        if size_hint is not None and len(blocks_in_chunk) * block_size >= write_chunk:
            flush_chunk()

    for update in updates:
        encoded = codec.encode(update)
        sort_key = (update.key, update.timestamp)
        if last_sort_key is not None and sort_key < last_sort_key:
            raise StorageError(
                f"updates for run {name!r} are not (key, ts)-sorted"
            )
        last_sort_key = sort_key
        # Each block's payload budget leaves room for the checksum
        # trailer stamped by close_block.
        payload_budget = block_size - _checksum.TRAILER_SIZE
        if reference_codec.BLOCK_HEAD.size + len(encoded) > payload_budget:
            raise StorageError(
                f"update of {len(encoded)} bytes exceeds block size {block_size}"
            )
        if block_bytes + len(encoded) > payload_budget:
            close_block()
        if block_first_key is None:
            block_first_key = update.key
        block_records.append((update.timestamp, update.key, int(update.type), update.content))
        block_bytes += len(encoded)
        stats["count"] += 1
        if stats["min_key"] is None:
            stats["min_key"] = update.key
            stats["min_ts"] = stats["max_ts"] = update.timestamp
        stats["max_key"] = update.key
        stats["min_ts"] = min(stats["min_ts"], update.timestamp)
        stats["max_ts"] = max(stats["max_ts"], update.timestamp)

    close_block()
    if stats["count"] == 0:
        raise StorageError(f"refusing to materialize empty run {name!r}")
    if size_hint is None and file is None:
        # Everything still buffered: allocate exactly and write once.
        data = b"".join(blocks_in_chunk)
        file = volume.create(name, len(data))
        file.append(data)
        written_blocks = len(blocks_in_chunk)
        blocks_in_chunk.clear()
    else:
        flush_chunk()

    if file is None:  # pragma: no cover - guarded by the count check above
        raise StorageError(f"run {name!r} was never allocated a file")
    used = written_blocks * block_size
    if used < file.size:
        shrink = getattr(volume, "shrink", None)
        if shrink is not None:
            shrink(name, used)

    index = RunIndex(first_keys, block_size)
    return MaterializedSortedRun(
        name=name,
        file=volume.open(name),
        codec=codec,
        index=index,
        num_blocks=written_blocks,
        count=stats["count"],
        min_key=stats["min_key"],
        max_key=stats["max_key"],
        min_ts=stats["min_ts"],
        max_ts=stats["max_ts"],
        passes=passes,
    )


def reference_merge_duplicates(
    updates: list[UpdateRecord], scan_timestamps: list[int], schema
) -> list[UpdateRecord]:
    """``MaSM._merge_duplicates`` on (key, ts)-sorted records: same-key
    neighbours at t1 < t2 combine unless a reader's timestamp t sees the
    first and not the second (t1 <= t < t2) or the pair cannot be
    combined."""

    def may_merge(t1: int, t2: int) -> bool:
        return not any(t1 <= t < t2 for t in scan_timestamps)

    merged: list[UpdateRecord] = []
    for update in updates:
        if (
            merged
            and merged[-1].key == update.key
            and may_merge(merged[-1].timestamp, update.timestamp)
        ):
            try:
                merged[-1] = combine(merged[-1], update, schema)
                continue
            except UpdateConflictError:
                pass  # uncombinable chain: keep both records
        merged.append(update)
    return merged
