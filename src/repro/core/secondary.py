"""Secondary-index scans over MaSM-cached data (Section 5, "Secondary Index").

An index scan on attribute ``Y`` is served in two steps: search the
secondary index for record keys in ``[y_begin, y_end]``, then fetch the
records.  With cached updates in play the paper prescribes a *secondary
update index* over every update record that contains a Y value — a
read-only index per materialized run plus an in-memory index over the
unsorted buffer — so the scan also finds inserted/modified records whose Y
landed in the range, and drops records whose Y moved out.

:class:`SecondaryIndexManager` implements exactly that:

* the base table maintains an ordinary secondary index (Y -> primary key);
* per run, a read-only (Y -> update) index is built on first use and cached;
* the in-memory buffer is indexed on demand (it is small by construction);
* ``index_scan`` merges both sides and re-checks Y on the merged records.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.core.masm import MaSM
from repro.core.sortedrun import MaterializedSortedRun
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.btree import BPlusTree
from repro.errors import SchemaError


class SecondaryIndexManager:
    """Secondary-attribute scans over one MaSM-managed table."""

    def __init__(self, masm: MaSM, field: str) -> None:
        self.masm = masm
        self.field = field
        schema = masm.table.schema
        self.field_pos = schema.index_of(field)
        if field == schema.key_field:
            raise SchemaError("use range_scan for the clustering key")
        self._base_index: Optional[BPlusTree] = None
        # run name -> read-only secondary index over its update records
        self._run_indexes: dict[str, BPlusTree] = {}

    # ------------------------------------------------------------ base index
    def build_base_index(self) -> None:
        """(Re)build the table's secondary index with one sequential scan."""
        tree = BPlusTree()
        table = self.masm.table
        for record in table.range_scan(*table.full_key_range()):
            tree.insert(record[self.field_pos], table.schema.key(record))
        self._base_index = tree

    @property
    def base_index(self) -> BPlusTree:
        if self._base_index is None:
            self.build_base_index()
        assert self._base_index is not None
        return self._base_index

    # -------------------------------------------------- secondary update idx
    def _y_of_update(self, update: UpdateRecord):
        """The Y value an update carries, or None if it has none."""
        if update.type in (UpdateType.INSERT, UpdateType.REPLACE):
            return update.content[self.field_pos]
        if update.type == UpdateType.MODIFY and self.field in update.content:
            return update.content[self.field]
        return None

    def _index_for_run(self, run: MaterializedSortedRun) -> BPlusTree:
        """The read-only secondary update index of one materialized run.

        Built on first use (one run read) and cached; runs are immutable so
        the index never goes stale.
        """
        cached = self._run_indexes.get(run.name)
        if cached is not None:
            return cached
        tree = BPlusTree()
        for update in run.scan(0, 2**63 - 1):
            y = self._y_of_update(update)
            if y is not None:
                tree.insert(y, update.key)
        self._run_indexes[run.name] = tree
        return tree

    def _buffer_keys(self, y_begin, y_end, query_ts: int) -> set[int]:
        keys: set[int] = set()
        columns, _ = self.masm.buffer.columns_range(0, 2**63 - 1, query_ts)
        for update in columns.records if columns is not None else ():
            y = self._y_of_update(update)
            if y is not None and y_begin <= y <= y_end:
                keys.add(update.key)
        return keys

    # ------------------------------------------------------------ index scan
    def index_scan(self, y_begin, y_end) -> Iterator[tuple]:
        """Fresh records whose Y lies in [y_begin, y_end], in key order.

        Functionally correct under cached updates (the paper's requirement):
        deletions and Y-moving modifications are filtered out, insertions
        and Y-moving modifications into the range are found via the
        secondary update indexes.
        """
        query_ts = self.masm.oracle.current + 1  # peek; scan assigns its own
        candidates: set[int] = set()
        for y, key in self.base_index.range(y_begin, y_end):
            candidates.add(key)
        with self.masm._lock:
            runs = list(self.masm.runs)
        for run in runs:
            for y, key in self._index_for_run(run).range(y_begin, y_end):
                candidates.add(key)
        candidates |= self._buffer_keys(y_begin, y_end, query_ts)
        # Fetch the merged, fresh records and re-check Y (a candidate's Y
        # may have moved out of the range, or the record may be deleted).
        for key in sorted(candidates):
            for record in self.masm.range_scan(key, key):
                if y_begin <= record[self.field_pos] <= y_end:
                    yield record

    def invalidate_after_migration(self) -> None:
        """Drop caches after runs were retired and Y values moved to disk.

        The base index is rebuilt lazily on next use (the paper notes the
        primary/secondary indexes are "examined and updated accordingly"
        during migration; a rebuild keeps this reproduction simple).
        """
        self._base_index = None
        self._run_indexes.clear()

    @property
    def memory_bytes(self) -> int:
        """Rough footprint of the secondary update indexes (Section 5)."""
        per_entry = 48
        total = sum(len(t) for t in self._run_indexes.values()) * per_entry
        if self._base_index is not None:
            total += len(self._base_index) * per_entry
        return total
