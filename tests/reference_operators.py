"""The record-at-a-time scan operators of Figure 6, kept for the read-path
tests.

``repro.core.operators`` moves updates as columns: runs and the memory
buffer hand over key partitions as ``UpdateColumns``, a kernel merges and
combines them, and the join works on arrays.  These are the literal
operators that pipeline must agree with: a run read block by block and
decoded one update at a time by the per-field reference codec, a ``heapq``
merge keyed on ``UpdateRecord.sort_key`` with ``combine_chain`` per key,
and the outer join one ``apply_update`` per record under the page-timestamp
rule.  Same rows, same order, same errors,
so a test can hand one input to both and compare everything.  Production
code does not import this module.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Iterable, Iterator, Optional

import reference_codec
from repro.core import sortedrun
from repro.core.sortedrun import MaterializedSortedRun
from repro.core.update import UpdateRecord, UpdateType, apply_update, combine_chain
from repro.engine.record import Schema
from repro.storage import checksum


def buffered_records(buffer, begin_key: int, end_key: int, query_ts: int) -> list[UpdateRecord]:
    """The memory buffer's updates with keys in [begin, end] visible at
    ``query_ts``, decoded, in (key, ts) order."""
    columns, _ = buffer.columns_range(begin_key, end_key, query_ts)
    return columns.records if columns is not None else []


def is_masked(run: MaterializedSortedRun, key: int) -> bool:
    """Does ``key`` lie in one of ``run``'s migrated ranges?  One bisection
    over the coalesced range list."""
    ranges = run.migrated_ranges
    i = bisect_right(ranges, (key, float("inf"))) - 1
    return i >= 0 and ranges[i][0] <= key <= ranges[i][1]


def scan_run(
    run: MaterializedSortedRun,
    begin_key: int,
    end_key: int,
    query_ts: Optional[int] = None,
    after: Optional[tuple[int, int]] = None,
) -> Iterator[UpdateRecord]:
    """``run``'s updates with keys in [begin, end] visible at ``query_ts``,
    past position ``after`` and outside its migrated ranges — every block of
    the index's span read, verified and decoded one update at a time."""
    span = run.index.block_span(begin_key, end_key)
    if span is None:
        return
    block, last_block = span
    fields = [(field.name, field.type_code) for field in run.codec.schema.fields]
    while block <= last_block:
        group = range(block, min(block + sortedrun.READ_BATCH_BLOCKS, last_block + 1))
        requests = [(b * run.block_size, run.block_size) for b in group]
        for b, data in zip(group, run.file.read_batch(requests)):
            checksum.verify(data, context=f"run {run.name!r} block {b}")
            for timestamp, key, utype, content in reference_codec.decode_block(fields, data):
                update = UpdateRecord(timestamp, key, UpdateType(utype), content)
                if update.key < begin_key:
                    continue
                if update.key > end_key:
                    break
                if query_ts is not None and update.timestamp > query_ts:
                    continue
                if after is not None and update.sort_key() <= after:
                    continue
                if is_masked(run, update.key):
                    continue
                yield update
        block = group.stop


def merge_updates(
    sources: Iterable[Iterable[UpdateRecord]], schema: Schema
) -> Iterator[UpdateRecord]:
    """Merge_updates: (key, ts)-sorted streams merged (ties by source
    position), each key's chain combined into one update."""
    chain: list[UpdateRecord] = []
    for update in heapq.merge(*sources, key=UpdateRecord.sort_key):
        if chain and update.key != chain[0].key:
            yield combine_chain(chain, schema)
            chain = []
        chain.append(update)
    if chain:
        yield combine_chain(chain, schema)


def merge_data_updates(
    data_pairs: Iterable[tuple[tuple, int]],
    updates: Iterable[UpdateRecord],
    schema: Schema,
) -> Iterator[tuple]:
    """Merge_data_updates: the outer join of key-ordered ``(record,
    page_ts)`` pairs with key-ordered combined updates.  An update at or
    before the page timestamp of the record it matches was already applied
    in place by a migration: the record wins."""
    updates = iter(updates)
    update = next(updates, None)
    for record, page_ts in data_pairs:
        key = schema.key(record)
        # Updates strictly before this data key have no base record in the
        # table: only (re)insertions produce output.
        while update is not None and update.key < key:
            produced = apply_update(None, update, schema)
            if produced is not None:
                yield produced
            update = next(updates, None)
        if update is not None and update.key == key:
            if update.timestamp > page_ts:
                record = apply_update(record, update, schema)
            update = next(updates, None)
        if record is not None:
            yield record
    # Insertions with keys past the end of the data stream.
    while update is not None:
        produced = apply_update(None, update, schema)
        if produced is not None:
            yield produced
        update = next(updates, None)


def scan_rows(data_pairs, sources, schema: Schema) -> list[tuple]:
    """The whole Figure 6 pipeline over record streams."""
    return list(merge_data_updates(data_pairs, merge_updates(sources, schema), schema))
