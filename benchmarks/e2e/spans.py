"""Benchmark-side span recorder: per-layer time without touching ``src/``.

For the traced pass the recorder rebinds the public callables listed in
:data:`TARGETS` to timing wrappers (class attributes, and every ``repro.*``
module namespace that imported a module-level function by name) and puts the
originals back afterwards.  Nothing under ``src/`` knows about it.

A span has an id, its parent's id, the id of the request (or update chunk)
it served, a name ``<layer>.<op>`` where *layer* is the module name under
``repro``, and start/end on both ``time.perf_counter`` and the simulated
clock.  A layer's **self time** is its spans' duration minus the part their
child spans cover.

Three wrapper kinds keep per-row code unwrapped:

* ``call``  — one span per call (per request / block / page / batch);
* ``steps`` — the callable returns a generator that yields once per batch
  or page; each ``next()`` is one span;
* ``drain`` — the callable returns a per-row iterator; the call itself is
  one span (the preamble) and the whole drain, first pull to exhaustion, is
  a second span ``<name>.drain``.  The per-row work of a pass-through
  generator that wraps an inner drain therefore lands in the innermost drain
  span — the price of never timing per row.

Per-update callables (``apply``, ``encoded_size``, ``log_update``...) are
``call`` targets with ``keep=False``: they are counted and timed but their
individual spans are not stored.

Simulated time only advances inside ``storage.device`` calls, so those spans
are *transparent* for simulated self time: the device seconds stay with the
layer that issued the I/O, which is the useful attribution.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

_perf = time.perf_counter

# Indexes into a per-name aggregate row.
COUNT, WALL, WALL_SELF, SIM, SIM_SELF = range(5)


class _FrozenClock:
    now = 0.0


class NullRecorder:
    """What the untraced pass uses: roots cost one no-op context manager."""

    def root(self, name: str, request_id: int = 0):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def fold(self, wall_factor: float) -> None:
        return None


class _Frame:
    """One open span."""

    __slots__ = ("name", "id", "parent", "keep", "transparent", "t0", "sim0",
                 "child_wall", "child_sim", "carry_wall", "carry_sim")

    def __init__(self, name, span_id, parent, keep, transparent) -> None:
        self.name = name
        self.id = span_id
        self.parent = parent
        self.keep = keep
        self.transparent = transparent
        self.child_wall = self.child_sim = 0.0
        #: Part of this span already charged to a former parent that closed
        #: first (see :meth:`Recorder.exit`).
        self.carry_wall = self.carry_sim = 0.0


class _Root:
    __slots__ = ("rec", "name", "request_id", "frame")

    def __init__(self, rec: "Recorder", name: str, request_id: int) -> None:
        self.rec = rec
        self.name = name
        self.request_id = request_id

    def __enter__(self):
        self.rec.request_id = self.request_id
        self.frame = self.rec.enter(self.name, True, False)
        return self

    def __exit__(self, *exc) -> None:
        self.rec.exit(self.frame)


_NULL = NullRecorder()


class Recorder:
    """Collects spans and per-name aggregates for one traced pass."""

    def __init__(self, clock=None, keep_spans: bool = True) -> None:
        #: True while a :class:`Rebinding` has the wrappers installed; roots
        #: opened outside one (untraced phases of a traced pass) are no-ops.
        self.active = False
        self.clock = clock if clock is not None else _FrozenClock()
        self.keep_spans = keep_spans
        #: Finished spans: (id, parent, request, name, t0, t1, sim0, sim1).
        self.spans: list[tuple] = []
        #: name -> [count, wall, wall_self, sim, sim_self]; wall fields are at
        #: reference machine speed once :meth:`fold` has run.
        self.totals: dict[str, list[float]] = {}
        self._round: dict[str, list[float]] = {}
        #: Free-form counters the ``post`` hooks of targets add to.
        self.counts: dict[str, float] = {}
        self._stack: list[_Frame] = []
        self._next_id = 1
        self.request_id = 0

    # ------------------------------------------------------------------ spans
    def root(self, name: str, request_id: int = 0):
        """A harness-level span every span of one request hangs under."""
        return _Root(self, name, request_id) if self.active else _NULL

    def enter(self, name: str, keep: bool, transparent: bool) -> "_Frame":
        stack = self._stack
        frame = _Frame(name, self._next_id, stack[-1] if stack else None, keep, transparent)
        self._next_id += 1
        stack.append(frame)
        frame.sim0 = self.clock.now
        frame.t0 = _perf()  # last, so the wrapper's own work stays outside
        return frame

    def exit(self, frame: "_Frame") -> None:
        t1 = _perf()
        sim1 = self.clock.now
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            # Interleaved drains (a k-way merge pulling several generators)
            # finish out of order.  Spans opened under this one and still
            # running are its children up to now and its parent's from now.
            index = stack.index(frame)
            for other in stack[index + 1:]:
                if other.parent is frame:
                    other.parent = frame.parent
                    other.carry_wall = t1 - other.t0
                    frame.child_wall += other.carry_wall
                    if not other.transparent:
                        other.carry_sim = sim1 - other.sim0
                        frame.child_sim += other.carry_sim
            del stack[index]
        wall = t1 - frame.t0
        sim = 0.0 if frame.transparent else sim1 - frame.sim0
        row = self._round.get(frame.name)
        if row is None:
            row = self._round[frame.name] = [0, 0.0, 0.0, 0.0, 0.0]
        row[COUNT] += 1
        row[WALL] += wall
        row[WALL_SELF] += wall - frame.child_wall
        row[SIM] += sim
        row[SIM_SELF] += sim - frame.child_sim
        parent = frame.parent
        if parent is not None:
            parent.child_wall += wall - frame.carry_wall
            parent.child_sim += sim - frame.carry_sim
        if frame.keep and self.keep_spans:
            self.spans.append(
                (frame.id, parent.id if parent is not None else 0,
                 self.request_id, frame.name, frame.t0, t1, frame.sim0, sim1)
            )

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def hook(self, post: Callable, args, result) -> None:
        """Run a target's ``post`` hook.  Hooks read attributes of the
        program's own objects; if a later change renames one, the count is
        lost (and ``hook_errors`` says so) but the benchmark still runs."""
        try:
            post(self, args, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.count("hook_errors")

    def fold(self, wall_factor: float) -> None:
        """Close a round: add its aggregates to the totals, wall fields
        scaled to reference machine speed by ``wall_factor``."""
        for name, row in self._round.items():
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0.0, 0.0, 0.0, 0.0]
            total[COUNT] += row[COUNT]
            total[WALL] += row[WALL] * wall_factor
            total[WALL_SELF] += row[WALL_SELF] * wall_factor
            total[SIM] += row[SIM]
            total[SIM_SELF] += row[SIM_SELF]
        self._round = {}

    # ---------------------------------------------------------------- queries
    def total(self, name: str, field: int) -> float:
        row = self.totals.get(name)
        return row[field] if row is not None else 0.0

    def sum_of(self, names: Iterable[str], field: int) -> float:
        return sum(self.total(name, field) for name in names)

    def by_layer(self) -> dict[str, list[float]]:
        """layer -> [spans, wall_self, sim_self] over the folded rounds."""
        layers: dict[str, list[float]] = {}
        for name, row in self.totals.items():
            layer = layer_of(name)
            entry = layers.setdefault(layer, [0, 0.0, 0.0])
            entry[0] += row[COUNT]
            entry[1] += row[WALL_SELF]
            entry[2] += row[SIM_SELF]
        return layers

    def write_jsonl(self, path) -> int:
        """One JSON object per kept span; returns the number written."""
        with open(path, "w") as out:
            for span_id, parent, request, name, t0, t1, sim0, sim1 in self.spans:
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "request": request,
                    "name": name, "wall_start": t0, "wall_end": t1,
                    "sim_start": sim0, "sim_end": sim1,
                }) + "\n")
        return len(self.spans)


def layer_of(span_name: str) -> str:
    """``core.masm.range_scan.drain`` -> ``core.masm``."""
    parts = span_name.split(".")
    if parts[-1] == "drain":
        parts = parts[:-1]
    return ".".join(parts[:-1])


# ------------------------------------------------------------------ wrappers
def _wrap_call(rec: Recorder, name: str, fn, keep: bool, transparent: bool, post):
    enter, leave = rec.enter, rec.exit

    if post is None:
        def call(*args, **kwargs):
            frame = enter(name, keep, transparent)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)
    else:
        def call(*args, **kwargs):
            frame = enter(name, keep, transparent)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            rec.hook(post, args, result)
            return result

    call.__wrapped__ = fn
    return call


def _drained(rec: Recorder, name: str, iterable) -> Iterator:
    frame = rec.enter(name, True, False)
    try:
        yield from iterable
    finally:
        rec.exit(frame)


def _wrap_drain(rec: Recorder, name: str, fn, post):
    drain_name = name + ".drain"

    def call(*args, **kwargs):
        frame = rec.enter(name, True, False)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(frame)
        if post is not None:
            rec.hook(post, args, result)
        return _drained(rec, drain_name, result)

    call.__wrapped__ = fn
    return call


def _stepped(rec: Recorder, name: str, iterable, post) -> Iterator:
    iterator = iter(iterable)
    while True:
        frame = rec.enter(name, True, False)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            rec.exit(frame)
        if post is not None:
            rec.hook(post, (), item)
        yield item


def _wrap_steps(rec: Recorder, name: str, fn, post):
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        if result is None:
            return None
        return _stepped(rec, name, result, post)

    call.__wrapped__ = fn
    return call


# ------------------------------------------------------------------- targets
@dataclass(frozen=True)
class Target:
    """One callable the traced pass rebinds."""

    layer: str  # module name under ``repro`` — the budget's unit
    op: str
    owner: str  # "module" or "module:Class"
    attr: str
    kind: str = "call"  # call | steps | drain
    keep: bool = True  # store individual spans (False for per-update calls)
    transparent: bool = False
    post: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.op}"


def _count_len(counter: str):
    def post(rec: Recorder, args, result) -> None:
        if result is not None:
            rec.count(counter, len(result))
    return post


def _post_range_scan(rec: Recorder, args, result) -> None:
    rec.count("core.masm.scans")
    rec.count("core.masm.runs_at_scan", len(args[0].runs))


def _post_write_run(rec: Recorder, args, result) -> None:
    rec.count("core.sortedrun.bytes_written", result.size_bytes)


def _post_truncate(rec: Recorder, args, result) -> None:
    rec.count("txn.log.reclaimed_bytes", result.reclaimed_bytes)


def _post_recover(rec: Recorder, args, result) -> None:
    rec.count("txn.recovery.records_replayed", result[1].buffer_updates_replayed)


def _post_batch(rec: Recorder, args, item) -> None:
    rec.count("core.operators.updates_consumed", len(item))


def _post_page(rec: Recorder, args, item) -> None:
    rec.count("engine.heapfile.pages_read")


TARGETS: tuple[Target, ...] = (
    # -- serving ----------------------------------------------------------
    Target("server.frontdoor", "query", "repro.server.frontdoor:FrontDoor", "query"),
    Target("server.frontdoor", "try_admit", "repro.server.frontdoor:FrontDoor", "try_admit"),
    Target("server.frontdoor", "execute", "repro.server.frontdoor:FrontDoor", "execute"),
    Target("server.quotas", "decide", "repro.server.quotas:TenantAdmission", "decide"),
    Target("server.router", "execute", "repro.server.router:RequestRouter", "execute"),
    Target("server.router", "fanout_scan", "repro.server.router:ReplicatedBackend", "fanout_scan"),
    # -- replication ------------------------------------------------------
    Target("core.replication", "partition_bounds",
           "repro.core.replication:ReplicatedWarehouse", "partition_bounds",
           post=_count_len("server.router.partitions")),
    Target("core.replication", "scan", "repro.core.replication:ReplicaSet", "scan", kind="drain"),
    Target("core.replication", "apply", "repro.core.replication:ReplicaSet", "apply", keep=False),
    Target("core.replication", "maintenance", "repro.core.replication:ReplicaSet", "maintenance"),
    Target("core.replication", "recover_replica",
           "repro.core.replication:ReplicaSet", "recover_replica"),
    Target("core.replication", "catch_up", "repro.core.replication:ReplicaSet", "catch_up"),
    # -- the MaSM engine --------------------------------------------------
    Target("core.masm", "apply", "repro.core.masm:MaSM", "apply", keep=False),
    Target("core.masm", "range_scan", "repro.core.masm:MaSM", "range_scan",
           kind="drain", post=_post_range_scan),
    Target("core.masm", "flush_buffer", "repro.core.masm:MaSM", "flush_buffer"),
    Target("core.masm", "merge_runs", "repro.core.masm:MaSM", "_merge_earliest_runs"),
    Target("core.masm", "checkpoint", "repro.core.masm:MaSM", "checkpoint_and_truncate"),
    Target("core.migration", "migrate", "repro.core.masm:MaSM", "migrate"),
    Target("core.migration", "migrate_all", "repro.core.migration", "migrate_all"),
    Target("core.migration", "migrate_range", "repro.core.migration", "migrate_range"),
    # -- scan operators and kernels ---------------------------------------
    Target("core.operators", "merge_data_updates",
           "repro.core.operators:MergeDataUpdates", "__iter__", kind="drain"),
    Target("core.operators", "merge_updates",
           "repro.core.operators:MergeUpdates", "kernel_batches",
           kind="steps", post=_post_batch),
    Target("core.kernels", "merge_slices", "repro.core.kernels", "merge_slices"),
    Target("core.kernels", "join_partition", "repro.core.kernels", "join_partition"),
    Target("core.kernels", "partition_points", "repro.core.kernels", "partition_points"),
    # -- runs, blocks, codec ----------------------------------------------
    Target("core.sortedrun", "slice_columns",
           "repro.core.sortedrun:MaterializedSortedRun", "slice_columns"),
    Target("core.sortedrun", "scan",
           "repro.core.sortedrun:MaterializedSortedRun", "scan", kind="drain"),
    Target("core.sortedrun", "write_run", "repro.core.sortedrun", "write_run",
           post=_post_write_run),
    Target("core.update", "encoded_size", "repro.core.update:UpdateCodec", "encoded_size",
           keep=False),
    Target("core.update", "encode", "repro.core.update:UpdateCodec", "encode", keep=False),
    Target("core.update", "encode_many", "repro.core.update:UpdateCodec", "encode_many"),
    Target("core.update", "decode_block", "repro.core.update:UpdateCodec", "decode_block",
           post=_count_len("core.update.records_materialized")),
    Target("core.update", "block_columns", "repro.core.update:UpdateCodec", "block_columns"),
    Target("core.membuffer", "append",
           "repro.core.membuffer:InMemoryUpdateBuffer", "append", keep=False),
    Target("core.membuffer", "drain_sorted",
           "repro.core.membuffer:InMemoryUpdateBuffer", "drain_sorted"),
    Target("core.membuffer", "sort", "repro.core.membuffer:InMemoryUpdateBuffer", "sort"),
    # -- row store --------------------------------------------------------
    Target("engine.record", "unpack", "repro.engine.record:Schema", "unpack", keep=False,
           post=lambda rec, args, result: rec.count("engine.record.records_unpacked")),
    Target("engine.record", "unpack_many", "repro.engine.record:Schema", "unpack_many",
           post=_count_len("engine.record.records_unpacked")),
    Target("engine.record", "pack", "repro.engine.record:Schema", "pack", keep=False),
    Target("engine.page", "from_bytes", "repro.engine.page:SlottedPage", "from_bytes",
           keep=False),
    Target("engine.page", "to_bytes", "repro.engine.page:SlottedPage", "to_bytes",
           keep=False),
    Target("engine.heapfile", "scan_pages", "repro.engine.heapfile:HeapFile", "scan_pages",
           kind="steps", post=_post_page),
    Target("engine.heapfile", "read_page", "repro.engine.heapfile:HeapFile", "read_page"),
    Target("engine.heapfile", "write_pages",
           "repro.engine.heapfile:HeapFile", "write_pages_sequential"),
    Target("engine.table", "range_scan_chunks",
           "repro.engine.table:Table", "range_scan_pair_chunks",
           kind="steps"),
    Target("engine.table", "range_scan", "repro.engine.table:Table", "range_scan",
           kind="drain"),
    # -- devices ----------------------------------------------------------
    Target("storage.device", "read", "repro.storage.device:Device", "read",
           keep=False, transparent=True),
    Target("storage.device", "write", "repro.storage.device:Device", "write",
           keep=False, transparent=True),
    Target("storage.device", "read_batch", "repro.storage.ssd:SimulatedSSD", "read_batch",
           keep=False, transparent=True),
    Target("storage.device", "read_sync", "repro.storage.ssd:SimulatedSSD", "read_sync",
           keep=False, transparent=True),
    # -- log and recovery -------------------------------------------------
    Target("txn.log", "log_update", "repro.txn.log:RedoLog", "log_update", keep=False),
    Target("txn.log", "log_run_flush", "repro.txn.log:RedoLog", "log_run_flush"),
    Target("txn.log", "log_checkpoint", "repro.txn.log:RedoLog", "log_checkpoint"),
    Target("txn.log", "truncate", "repro.txn.log:RedoLog", "truncate_through",
           post=_post_truncate),
    Target("txn.log", "scrub_dirty", "repro.txn.log:RedoLog", "scrub_dirty"),
    Target("txn.log", "records", "repro.txn.log:RedoLog", "records", kind="drain"),
    Target("txn.recovery", "recover_masm", "repro.txn.recovery", "recover_masm",
           post=_post_recover),
)


class Rebinding:
    """Install the wrappers for a ``with`` block, then restore by identity.

    A target the code no longer has (renamed or deleted by a later change)
    is skipped and listed in :attr:`missing`, so the traced pass degrades
    to a zero for that layer instead of failing the benchmark.
    """

    def __init__(self, recorder: Recorder, targets: Iterable[Target] = TARGETS) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Rebinding":
        try:
            for target in self.targets:
                self._install(target)
        except BaseException:
            self._restore()
            raise
        self.recorder.active = True
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.active = False
        self._restore()

    def _install(self, target: Target) -> None:
        module_name, _, class_name = target.owner.partition(":")
        try:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            # ``__dict__`` lookup keeps staticmethod/classmethod wrappers.
            raw = owner.__dict__[target.attr]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target.name)
            return
        rec = self.recorder
        fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
        if target.kind == "call":
            wrapped = _wrap_call(rec, target.name, fn, target.keep,
                                 target.transparent, target.post)
        elif target.kind == "steps":
            wrapped = _wrap_steps(rec, target.name, fn, target.post)
        elif target.kind == "drain":
            wrapped = _wrap_drain(rec, target.name, fn, target.post)
        else:
            raise ValueError(f"unknown target kind {target.kind!r}")
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(wrapped)
        if class_name:
            self._bind(owner, target.attr, raw, wrapped)
            return
        # A module-level function: every repro module that imported it by
        # name holds its own reference (``from ... import`` copies).
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if mod.__dict__.get(target.attr) is raw:
                self._bind(mod, target.attr, raw, wrapped)

    def _bind(self, owner, attr: str, original, wrapped) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
