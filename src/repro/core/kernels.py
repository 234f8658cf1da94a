"""Array-at-a-time merge kernels over columnar update blocks.

What the scan-side operators (:mod:`repro.core.operators`) are made of:
column operations over :class:`~repro.core.update.UpdateColumns` — header
columns plus payload offsets into the bytes that were read — in place of
per-record tuple keys, heap pushes and one
:class:`~repro.core.update.UpdateRecord` per update:

* a **galloping two-source merge**: each side's key column is binary-searched
  into the other (``np.searchsorted``), producing the merged permutation with
  no per-record comparisons — used whenever the two sides' key sets do not
  collide;
* a **k-way lexicographic merge**: concatenate key/timestamp columns in
  source order and ``np.lexsort`` — the stable sort reproduces exactly the
  source-order tie-breaking of the ``heapq``-based reference merge;
* a **same-key combine**: duplicate-key chains are located with one shifted
  comparison over the merged key column and folded on their encoded form
  (:meth:`~repro.core.update.UpdateCodec.fold_chain`, which hands a chain
  that conflicts to :func:`~repro.core.update.combine_chain` for its
  error); unique keys (the common case) pass through as columns;
* **key-range partition planning**: boundary keys picked from the runs' own
  sparse indexes split a scan into independently mergeable partitions —
  the unit of intra-shard parallelism and of bounded-memory batching;
* an **array-in/array-out outer join** of a merged batch with a key span of
  table rows (:func:`join_partition`): the page-timestamp rule as one vector
  compare, DELETE as a mask, MODIFY as per-field column patches copied from
  the payload bytes, INSERT/REPLACE as a row gather.  Each joined row comes
  with the timestamp of the last update in it; row tuples are built by the
  caller (a scan), or pages packed (a migration), from the joined arrays.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as _np

from repro.core.update import UpdateColumns, UpdateType, combine_chain
from repro.errors import ReproError
from repro.storage.iosched import (
    KERNEL_COMBINE_CPU_PER_UPDATE,
    KERNEL_MERGE_CPU_PER_UPDATE,
    CpuMeter,
)

_INSERT, _DELETE, _MODIFY, _REPLACE = map(int, UpdateType)


# --------------------------------------------------------------------- merge
def _gallop_two_source_order(a: UpdateColumns, b: UpdateColumns):
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


def merge_order(slices: Sequence[UpdateColumns]):
    """``(rows, order)``: the non-empty slices back to back and the
    permutation that puts them in (key, ts) order (None: as they stand);
    ``(None, None)`` when every slice is empty.

    ``slices`` must be in source order: the stable lexicographic sort (and
    the galloping two-source path) then break (key, ts) ties exactly like
    the reference ``heapq`` merge breaks them, by source position.
    """
    live = [s for s in slices if len(s)]
    if not live:
        return None, None
    merged = UpdateColumns.concat(live)
    order = None
    if len(live) == 2:
        order = _gallop_two_source_order(live[0], live[1])
    if order is None and len(live) > 1:
        order = _np.lexsort((merged.timestamps, merged.keys))
    return merged, order


def merge_sorted(slices: Sequence[UpdateColumns]) -> Optional[UpdateColumns]:
    """Merge (key, ts)-sorted slices (in source order) into one, every
    update kept.  None when every slice is empty."""
    merged, order = merge_order(slices)
    return merged if order is None else merged.rows(order)


def merge_slices(
    slices: Sequence[UpdateColumns], cpu: Optional[CpuMeter] = None
) -> Optional[UpdateColumns]:
    """Merge (key, ts)-sorted slices (in source order) and combine same-key
    chains into one batch, strictly increasing in key; None when every slice
    is empty."""
    merged, order = merge_order(slices)
    if merged is None:
        return None
    if cpu is not None:
        cpu.charge_batch(len(merged), KERNEL_MERGE_CPU_PER_UPDATE, kind="merge")
    keys = merged.keys if order is None else merged.keys[order]
    follows = _np.zeros(len(keys), dtype=bool)  # same key as the row before
    _np.equal(keys[1:], keys[:-1], out=follows[1:])
    return fold_chains(merged, order, follows, cpu)


def fold_chains(
    merged: UpdateColumns, order, follows, cpu: Optional[CpuMeter] = None
) -> UpdateColumns:
    """``merged`` in ``order`` (None: as it stands) with every row flagged in
    ``follows`` folded into the row before it: each run of flagged rows and
    the row they follow — one key's updates in timestamp order — collapses
    into the chain's combined update.

    Chains are folded on their encoded form (:meth:`UpdateCodec.fold_chain`):
    most keep one member's payload as it is, the rest get a freshly spliced
    payload appended to the batch's buffer.  The combined update takes the
    chain's first position, its last member's timestamp and the folded op
    code, all in the columns.  Unflagged rows pass through untouched, and
    nothing becomes an object.  A chain that cannot be combined raises
    :func:`~repro.core.update.combine_chain`'s error for its records.
    """
    dup = follows[1:]
    if not dup.any():
        return merged if order is None else merged.rows(order)
    member = follows.copy()
    member[:-1] |= dup
    member_rows = member.nonzero()[0]
    if order is not None:
        member_rows = order[member_rows]
    codec = merged.codec
    data = merged.data
    ops = merged.ops[member_rows].tolist()
    bodies = merged.offsets[member_rows].tolist()
    lengths = merged.lengths[member_rows].tolist()
    # Chain c owns members[starts[c] : starts[c + 1]].
    starts = (~follows[member]).nonzero()[0].tolist()
    starts.append(len(ops))
    folded_ops = []
    kept = []  # per chain: the member whose payload (or row) it keeps
    fresh = []  # (chain, new payload bytes)
    for chain, (lo, hi) in enumerate(zip(starts, starts[1:])):
        folded = codec.fold_chain(data, ops[lo:hi], bodies[lo:hi], lengths[lo:hi])
        if folded is None:
            combine_chain(merged.rows(member_rows[lo:hi]).records, codec.schema)
            raise ReproError("illegal update chain combined")  # pragma: no cover
        op, payload = folded
        folded_ops.append(op)
        if isinstance(payload, int):
            kept.append(lo + payload)
        else:
            kept.append(hi - 1)
            fresh.append((chain, payload))
    if cpu is not None:
        cpu.charge_batch(len(ops), KERNEL_COMBINE_CPU_PER_UPDATE, kind="combine")
    # One output row per key: a unique key's own row, a chain's combined one.
    heads = (~follows).nonzero()[0]
    chains = member[heads].nonzero()[0]  # output rows that are chains
    source = heads if order is None else order[heads]
    source[chains] = member_rows[kept]
    out = merged.rows(source)
    out.ops[chains] = folded_ops
    out.timestamps[chains] = merged.timestamps[member_rows[_np.array(starts[1:]) - 1]]
    if fresh:
        # The batch's payload bytes, then the new payloads (rows in any
        # order: the span runs from the lowest payload to the highest).
        first = int(merged.offsets.min())
        end = int((merged.offsets + merged.lengths).max())
        pieces = [memoryview(data)[first:end]]
        out.offsets -= first
        at = end - first
        for chain, payload in fresh:
            pieces.append(payload)
            out.offsets[chains[chain]] = at
            out.lengths[chains[chain]] = len(payload)
            at += len(payload)
        out.data = b"".join(pieces)
    return out


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
#: What a batch row does in the join, indexed [op, newer, unmatched]: its
#: packed record is emitted, the base row it matches is dropped, its MODIFY
#: payload patches the base row it matches.  ``newer`` compares it with the
#: page timestamp of the base row at its position (meaningless when
#: ``unmatched``); an unmatched DELETE or MODIFY does nothing, and neither
#: does anything at or before its page's timestamp — a migration already
#: applied it in place.
_EMIT, _DROP, _PATCH = 1, 2, 4
_ACTIONS = _np.zeros((4, 2, 2), dtype=_np.uint8)
_ACTIONS[[_INSERT, _REPLACE], :, 1] = _EMIT
_ACTIONS[[_INSERT, _REPLACE], 1, 0] = _EMIT | _DROP
_ACTIONS[_DELETE, 1, 0] = _DROP
_ACTIONS[_MODIFY, 1, 0] = _PATCH


def join_partition(batch: UpdateColumns, data, data_keys, data_ts):
    """Outer-join one update batch against one key span of table rows,
    array in, array out.

    ``data`` is a structured array of the schema's dtype holding the rows
    with keys <= the batch's max key that the data stream has produced;
    ``data_keys`` (uint64) and ``data_ts`` (each row's page timestamp,
    uint64) are aligned with it.  Returns ``(rows, timestamps)``: the joined
    rows in key order, as an array of the same dtype (``data`` itself when
    no update touches it), and for each the timestamp of the last update in
    it — its page timestamp, or the timestamp of the update the join applied
    (what a migration stamps the row's new page with).

    The page-timestamp rule is one vector compare per batch (an update at or
    before the page timestamp of the row it matches was already migrated in
    place and the base row wins); deletions and whole-row replacements drop
    base rows through a mask, INSERT/REPLACE payloads are gathered straight
    from the batch's bytes, and MODIFYs copy their packed field values into
    the matching rows' columns.  No row becomes a tuple here.
    """
    n = len(data)
    if not n:
        # No base rows at these keys: only (re)insertions produce output.
        ops = batch.ops
        emitted = (ops == _INSERT) | (ops == _REPLACE)
        return batch.packed_records(emitted), batch.timestamps[emitted]
    positions = data_keys.searchsorted(batch.keys)
    unmatched = data_keys.take(positions, mode="clip") != batch.keys
    newer = batch.timestamps > data_ts.take(positions, mode="clip")
    actions = _ACTIONS[batch.ops, newer.view(_np.uint8), unmatched.view(_np.uint8)]
    out = data
    out_ts = data_ts
    patched = (actions == _PATCH).nonzero()[0]
    if len(patched):
        out = data.copy()
        batch.apply_modifies(patched, out, positions[patched])
        out_ts = data_ts.copy()
        out_ts[positions[patched]] = batch.timestamps[patched]
    emitted = (actions & _EMIT).nonzero()[0]
    dropped = positions[(actions & _DROP).nonzero()[0]]
    if not len(emitted) and not len(dropped):
        return out, out_ts
    before = positions[emitted]  # each emitted row goes before this base row
    if len(dropped):
        keep = _np.ones(n, dtype=bool)
        keep[dropped] = False
        out = out[keep]
        out_ts = out_ts[keep]
        before -= dropped.searchsorted(before)  # ... counted in kept rows
    if not len(emitted):
        return out, out_ts
    before += _np.arange(len(emitted))  # ... and in output rows
    joined = _np.empty(len(out) + len(emitted), dtype=out.dtype)
    joined_ts = _np.empty(len(joined), dtype=_np.uint64)
    base = _np.ones(len(joined), dtype=bool)
    base[before] = False
    joined[before] = batch.packed_records(emitted)
    joined[base] = out
    joined_ts[before] = batch.timestamps[emitted]
    joined_ts[base] = out_ts
    return joined, joined_ts
