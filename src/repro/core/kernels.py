"""Array-at-a-time merge kernels over structure-of-arrays update blocks.

The scan-side operators (:mod:`repro.core.operators`) spend most of their
time in per-record Python work: tuple keys, heap pushes, one iterator
round-trip per update.  These kernels replace that with column operations
over the :class:`~repro.core.update.ColumnarBlock` layout:

* a **galloping two-source merge**: each side's key column is binary-searched
  into the other (``np.searchsorted``), producing the merged permutation with
  no per-record comparisons — used whenever the two sides' key sets do not
  collide;
* a **k-way lexicographic merge**: concatenate key/timestamp columns in
  source order and ``np.lexsort`` — the stable sort reproduces exactly the
  source-order tie-breaking of the ``heapq``-based reference merge;
* a **vectorized same-key combine**: duplicate-key chains are located with
  one shifted comparison over the merged key column and only those chains go
  through :func:`~repro.core.update.combine_chain`; unique keys (the common
  case) never touch per-record combine logic;
* **key-range partition planning**: boundary keys picked from the runs' own
  sparse indexes split a scan into independently mergeable partitions —
  the unit of intra-shard parallelism and of bounded-memory batching.

Record objects are only gathered (from the blocks' lazily materialized
record lists) for positions that survive merging — the lazy materialization
boundary the columnar layout exists for.

``MASM_DISABLE_KERNELS=1`` (see :func:`enabled`) forces the legacy
record-at-a-time paths (CI runs the equivalence suite both ways).
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Optional, Sequence

import numpy as _np

from repro.core.update import UpdateRecord, UpdateType, combine_chain, record_array
from repro.engine.record import Schema
from repro.storage.iosched import (
    KERNEL_COMBINE_CPU_PER_UPDATE,
    KERNEL_MERGE_CPU_PER_UPDATE,
    CpuMeter,
)


#: Identity-compared in the join's hot loops (enum ``in`` tests cost more).
_INSERT = UpdateType.INSERT
_REPLACE = UpdateType.REPLACE
_MODIFY = UpdateType.MODIFY


def enabled() -> bool:
    """True when the kernel fast path may run (not disabled).

    The environment variable is consulted on every call so a test or an
    operator can flip ``MASM_DISABLE_KERNELS`` without re-importing.
    """
    return not os.environ.get("MASM_DISABLE_KERNELS")


class SourceSlice:
    """One source's contribution to a key partition, in columnar form.

    ``keys``/``timestamps`` are int64 arrays sorted by (key, ts);
    ``records`` is the aligned :class:`UpdateRecord` object ndarray (pointer
    array — merging gathers records with one fancy-index operation).
    """

    __slots__ = ("keys", "timestamps", "records")

    def __init__(self, keys, timestamps, records) -> None:
        self.keys = keys
        self.timestamps = timestamps
        self.records = records

    def __len__(self) -> int:
        return len(self.records)

    @classmethod
    def from_records(cls, records: Sequence[UpdateRecord]) -> "SourceSlice":
        """Columnarize an already-sorted record list (buffer/fallback rows)."""
        n = len(records)
        keys = _np.fromiter((u.key for u in records), _np.int64, n)
        ts = _np.fromiter((u.timestamp for u in records), _np.int64, n)
        return cls(keys, ts, record_array(records))


class UpdateBatch:
    """One partition's merged output: combined updates in strict key order.

    ``keys`` (int64, strictly increasing) mirrors ``records`` (an object
    ndarray, or a plain list when same-key chains were combined) so the
    batch join can binary-search updates against data keys without touching
    the record objects.
    """

    __slots__ = ("keys", "records")

    def __init__(self, keys, records) -> None:
        self.keys = keys
        self.records = records

    def __len__(self) -> int:
        return len(self.records)


# --------------------------------------------------------------------- merge
def _gallop_two_source_order(a: SourceSlice, b: SourceSlice):
    """Merged permutation of two slices via galloping binary search.

    Returns the ``order`` array (indices into the a++b concatenation), or
    None when a key occurs in both sides — cross-source ties order by
    timestamp, which positional search cannot see; the caller falls back to
    the lexicographic merge.  Within-source duplicate keys are fine: they
    stay in source (timestamp) order.
    """
    lo = _np.searchsorted(a.keys, b.keys, side="left")
    hi = _np.searchsorted(a.keys, b.keys, side="right")
    if not (lo == hi).all():
        return None  # key collision across sources: need timestamp order
    na = len(a.keys)
    nb = len(b.keys)
    order = _np.empty(na + nb, dtype=_np.int64)
    # b's element i lands after lo[i] a-elements and i earlier b-elements;
    # a's element j lands after j a-elements and (number of b-keys < it).
    b_pos = lo + _np.arange(nb, dtype=_np.int64)
    a_pos = _np.arange(na, dtype=_np.int64) + _np.searchsorted(
        b.keys, a.keys, side="left"
    )
    order[a_pos] = _np.arange(na, dtype=_np.int64)
    order[b_pos] = na + _np.arange(nb, dtype=_np.int64)
    return order


def merge_slices(
    slices: Sequence[SourceSlice],
    schema: Schema,
    cpu: Optional[CpuMeter] = None,
) -> UpdateBatch:
    """Merge (key, ts)-sorted slices and combine same-key chains.

    ``slices`` must be in source order: the stable lexicographic sort (and
    the galloping two-source path) then break (key, ts) ties exactly like
    the reference ``heapq`` merge breaks them, by source position.
    """
    live = [s for s in slices if len(s)]
    if not live:
        return UpdateBatch(_np.empty(0, dtype=_np.int64), [])
    if len(live) == 1:
        src = live[0]
        keys, recs = src.keys, src.records
    else:
        order = None
        if len(live) == 2:
            order = _gallop_two_source_order(live[0], live[1])
        keys = _np.concatenate([s.keys for s in live])
        if order is None:
            ts = _np.concatenate([s.timestamps for s in live])
            order = _np.lexsort((ts, keys))
        keys = keys[order]
        recs = _np.concatenate([s.records for s in live])[order]
    if cpu is not None:
        cpu.charge_batch(len(recs), KERNEL_MERGE_CPU_PER_UPDATE, kind="merge")
    return _combine_same_key_runs(keys, recs, schema, cpu)


def _combine_same_key_runs(
    keys, recs, schema: Schema, cpu: Optional[CpuMeter]
) -> UpdateBatch:
    """Collapse runs of equal keys via combine_chain; unique keys pass through.

    Duplicates are located with one shifted comparison; only the (typically
    rare) duplicated positions pay per-record combine cost.  The combined
    record takes the chain's position; absorbed records are dropped, keeping
    the slice-assembly cost proportional to the number of chains.
    """
    n = len(recs)
    if n < 2:
        return UpdateBatch(keys, recs)
    dup = keys[1:] == keys[:-1]
    if not dup.any():
        return UpdateBatch(keys, recs)
    recs = recs.tolist() if isinstance(recs, _np.ndarray) else recs
    dup_pos = _np.flatnonzero(dup)
    # Group consecutive duplicate positions into chains: positions p where
    # keys[p] == keys[p+1]; a gap > 1 between positions starts a new chain.
    splits = _np.flatnonzero(_np.diff(dup_pos) > 1) + 1
    pieces: list[list[UpdateRecord]] = []
    prev = 0
    combined_records = 0
    for group in _np.split(dup_pos, splits):
        start = int(group[0])
        end = int(group[-1]) + 1  # inclusive index of the chain's last record
        pieces.append(recs[prev:start])
        pieces.append([combine_chain(recs[start : end + 1], schema)])
        combined_records += end + 1 - start
        prev = end + 1
    pieces.append(recs[prev:])
    out = list(chain.from_iterable(pieces))
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    keep[1:] = ~dup  # one survivor per chain, at the chain's first position
    if cpu is not None:
        cpu.charge_batch(
            combined_records, KERNEL_COMBINE_CPU_PER_UPDATE, kind="combine"
        )
    return UpdateBatch(keys[keep], out)


# ----------------------------------------------------------------- partitions
#: Default partition grain: how many run blocks one partition may cover in
#: total across sources.  At the coarse 64 KB granularity this keeps a
#: partition's decoded working set in the low tens of MB while leaving the
#: per-partition kernel invocations large enough to amortize array setup.
DEFAULT_BLOCKS_PER_PARTITION = 32


def partition_points(
    indexes,
    begin_key: int,
    end_key: int,
    blocks_per_partition: int = DEFAULT_BLOCKS_PER_PARTITION,
) -> list[int]:
    """Interior boundary keys splitting [begin, end] into merge partitions.

    Boundaries are drawn from the runs' own sparse indexes (each candidate
    is some block's first key), so partitions tend to align with block
    edges and per-partition slicing re-reads few boundary blocks.  Returns
    a strictly increasing list of keys ``b`` with ``begin < b <= end``;
    partition ``i`` covers ``[b[i-1], b[i] - 1]`` (with ``begin`` and
    ``end`` closing the ends).  Empty when one partition suffices.
    """
    total_blocks = 0
    candidates: set[int] = set()
    for index in indexes:
        span = index.block_span(begin_key, end_key)
        if span is None:
            continue
        first, last = span
        total_blocks += last - first + 1
        for key in index.keys_in_range(begin_key, end_key):
            if begin_key < key <= end_key:
                candidates.add(key)
    if total_blocks <= blocks_per_partition or not candidates:
        return []
    wanted = min(
        -(-total_blocks // blocks_per_partition) - 1, len(candidates)
    )
    ordered = sorted(candidates)
    step = len(ordered) / (wanted + 1)
    picks = sorted({ordered[int((i + 1) * step)] for i in range(wanted)})
    return picks


def partition_ranges(
    bounds: Sequence[int], begin_key: int, end_key: Optional[int]
) -> list[tuple[int, Optional[int]]]:
    """Expand boundary keys into inclusive (lo, hi) partition ranges.

    ``end_key=None`` leaves the final partition unbounded (the caller
    drains non-columnar sources past the last run key through it).
    """
    ranges: list[tuple[int, Optional[int]]] = []
    lo = begin_key
    for bound in bounds:
        ranges.append((lo, bound - 1))
        lo = bound
    ranges.append((lo, end_key))
    return ranges


# ----------------------------------------------------------------- batch join
def join_partition(
    batch: UpdateBatch,
    data_records: list[tuple],
    data_keys,
    data_ts,
    schema: Schema,
    out: list,
) -> None:
    """Outer-join one update batch against one key-span of table records.

    ``data_keys`` (int64) and ``data_ts`` are arrays aligned with
    ``data_records``, covering exactly the keys <= the batch's max key that
    the data stream has produced.  Appends result records to ``out`` in key
    order, applying the page-timestamp rule per matched record (an update at
    or before the page timestamp was already migrated in place and the base
    record wins).

    Untouched data spans are extended wholesale, and batches past the end of
    the data (or otherwise match-free) turn into one list comprehension over
    the surviving insertions; matched updates dispatch on their type right
    here — the per-record ``schema.key`` and ``apply_update`` calls of the
    record-at-a-time join are what this kernel deletes.
    """
    if not len(data_records):
        # No base records at these keys: only (re)insertions produce output.
        out.extend(
            tuple(u.content)
            for u in batch.records
            if u.type is _INSERT or u.type is _REPLACE
        )
        return
    positions = _np.searchsorted(data_keys, batch.keys, side="left")
    ndata = len(data_records)
    clipped = positions if positions[-1] < ndata else _np.minimum(positions, ndata - 1)
    matched = data_keys[clipped] == batch.keys
    if not matched.any():
        # Match-free batch: data and insertions interleave by position.
        prev = 0
        for update, pos in zip(batch.records, positions.tolist()):
            if pos > prev:
                out.extend(data_records[prev:pos])
                prev = pos
            if update.type is _INSERT or update.type is _REPLACE:
                out.append(tuple(update.content))
        if prev < ndata:
            out.extend(data_records[prev:])
        return
    prev = 0
    for update, pos, hit, page_ts in zip(
        batch.records, positions.tolist(), matched.tolist(), data_ts[clipped].tolist()
    ):
        if pos > prev:
            out.extend(data_records[prev:pos])
            prev = pos
        t = update.type
        if not hit:
            if t is _INSERT or t is _REPLACE:
                out.append(tuple(update.content))
            continue
        prev = pos + 1
        if update.timestamp <= page_ts:
            out.append(data_records[pos])  # already applied in place
        elif t is _INSERT or t is _REPLACE:
            out.append(tuple(update.content))
        elif t is _MODIFY:
            out.append(schema.apply_modification(data_records[pos], update.content))
    if prev < ndata:
        out.extend(data_records[prev:])
