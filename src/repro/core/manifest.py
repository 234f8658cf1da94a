"""The run manifest: the one owner of an engine's set of sorted runs.

Crash recovery (Section 3.6) rebuilds the run set from the run files and
the redo log, so each rule for how an event changes it must mean the same
at run time and at restart: here each is written once, as an *edit* (the
design of LevelDB's MANIFEST).  There is one edit kind per WAL record that
changes the run set, which the live engine applies and logs and recovery
decodes and replays, and three that are not logged: :class:`RunReplaced`
(scrub or peer repair), :class:`Recovered` and :class:`GapRebuilt`
(recovery).  The manifest never touches a file: :meth:`RunManifest.apply`
returns the runs an edit retired.  The WAL record is the edit itself, as
:func:`encode_edit` packs it: a ``(ts, table)`` head, then its fields, each
run as its name (:func:`decode_edit` returns names; ``resolved`` maps them).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import ClassVar, Optional

from repro.errors import RecoveryError

#: The WAL frame type byte of each run-set record (an UPDATE's is 1).
RUN_FLUSH, MIGRATION_START, MIGRATION_END, RUN_MERGE, CHECKPOINT = range(2, 7)

_TS = struct.Struct("<Q")
_U16 = struct.Struct("<H")
_COVERED = struct.Struct("<QQ")  # a covered timestamp span
_KEY_SPAN = struct.Struct("<qq")
_SPAN_COUNT = struct.Struct("<i")  # -1: a full migration, which marks no spans
_CHECKPOINT = struct.Struct("<QQ")  # checkpoint ts, migrated ts
_MANIFEST_ENTRY = struct.Struct("<QQBH")  # covered lo, covered hi, passes, range count


def pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U16.pack(len(raw)) + raw


def unpack_str(data, offset: int) -> tuple[str, int]:
    (length,) = _U16.unpack_from(data, offset)
    start = offset + 2
    return bytes(data[start : start + length]).decode("utf-8"), start + length


def _pack_name(run) -> bytes:
    """A run slot as logged: the run's name (a merge logs its product's
    name before the run exists, and a decoded edit holds names)."""
    return pack_str(run if isinstance(run, str) else run.name)


def _pack_names(runs) -> bytes:
    return _U16.pack(len(runs)) + b"".join(map(_pack_name, runs))


def _pack_spans(spans) -> bytes:
    return b"".join(_KEY_SPAN.pack(lo, hi) for lo, hi in spans)


class _Reader:
    """A cursor over a payload, the inverse of the packing above."""

    def __init__(self, data, offset: int = 0) -> None:
        self.data, self.offset = data, offset

    def take(self, layout: struct.Struct) -> tuple:
        values = layout.unpack_from(self.data, self.offset)
        self.offset += layout.size
        return values

    def name(self) -> str:
        text, self.offset = unpack_str(self.data, self.offset)
        return text

    def names(self) -> tuple[str, ...]:
        return tuple(self.name() for _ in range(self.take(_U16)[0]))

    def spans(self, count: int) -> tuple[tuple[int, int], ...]:
        return tuple(self.take(_KEY_SPAN) for _ in range(count))


@dataclass(frozen=True)
class RunManifestEntry:
    """One run's durability metadata inside a :class:`Checkpoint`: what
    the truncated edits established — the *raw* covered span (content may
    be narrower after duplicate combining), the key spans migrated in
    place, and how many times the run's updates were written to the SSD.
    """

    name: str
    covered_min_ts: int
    covered_max_ts: int
    migrated_ranges: tuple[tuple[int, int], ...] = ()
    passes: int = 1


@dataclass(frozen=True)
class Checkpoint:
    """An engine-state fence: proof that a WAL prefix is reclaimable.

    Every update of ``table`` with ``ts <= checkpoint_ts`` is durable in
    one of the manifest's runs or was migrated in place (``ts <=
    migrated_ts``).  Log records at or below the fence therefore carry no
    information recovery still needs — *provided* this record survives to
    seed the watermarks those records used to establish.
    """

    table: str
    checkpoint_ts: int
    migrated_ts: int
    runs: tuple[RunManifestEntry, ...] = ()


def merged_passes(victims) -> int:
    """A merge product's passes: one more than its most-written victim."""
    return 1 + max((victim.passes for victim in victims), default=1)


class LostRun:
    """Recovery's stand-in for a run whose file is damaged, or gone while a
    record names it.  Only a logged migration removes a named file, so a
    gone one counts as migrated; a damaged one stays, to be rebuilt over
    the covered span its logged edits give it."""

    min_key = max_key = None

    def __init__(self, name: str, damaged: bool) -> None:
        self.name = name
        self.damaged = damaged
        self.passes = 1
        self.covered_min_ts, self.covered_max_ts = 2**64, 0
        self.migrated_ranges: list[tuple[int, int]] = []

    def mark_migrated(self, begin_key: int, end_key: int) -> None:
        pass

    def fully_migrated(self, table_min, table_max) -> bool:
        return not self.damaged


@dataclass(frozen=True)
class RunFlushed:
    """RUN_FLUSH: a 1-pass run joins with ``covered``, the raw span the
    flush drained; ``flushed_through`` rises to ``timestamp``."""

    tag: ClassVar[int] = RUN_FLUSH
    run: object
    timestamp: int
    covered: tuple[int, int]

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        self.run.covered_min_ts, self.run.covered_max_ts = self.covered
        manifest._add(self.run)
        manifest.flushed_through = max(manifest.flushed_through, self.timestamp)

    def resolved(self, resolve) -> "RunFlushed":
        return replace(self, run=resolve(self.run))


@dataclass(frozen=True)
class RunsMerged:
    """RUN_MERGE, logged at ``timestamp`` before the product is written:
    the product replaces its victims with one pass more and their joint
    covered span.  A replayed merge whose product file did not load intact
    never ``committed``: only the product's passes count."""

    tag: ClassVar[int] = RUN_MERGE
    timestamp: int
    product: object
    victims: tuple
    covered: tuple[int, int]
    committed: bool = True

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        product = self.product
        product.passes = merged_passes(self.victims)
        if not self.committed:
            return None
        product.covered_min_ts = min(product.covered_min_ts, self.covered[0])
        product.covered_max_ts = max(product.covered_max_ts, self.covered[1])
        retired = manifest._drop(self.victims)
        manifest._add(product)
        return retired

    def resolved(self, resolve) -> "RunsMerged":
        product = resolve(self.product)
        return replace(
            self,
            product=product,
            victims=tuple(map(resolve, self.victims)),
            committed=not isinstance(product, LostRun),
        )


@dataclass(frozen=True)
class MigrationStarted:
    """MIGRATION_START: the intent recovery redoes when no MIGRATION_END
    of the same ``timestamp`` follows.  Not an edit: it changes nothing."""

    tag: ClassVar[int] = MIGRATION_START
    timestamp: int


@dataclass(frozen=True)
class MigrationEnded:
    """MIGRATION_END.  A full migration (``spans`` None) retires ``runs``
    and moves ``migrated_through``; a range migration marks the ``spans``
    its loop applied (a deferred page's span is not among them) and
    retires the runs they cover."""

    tag: ClassVar[int] = MIGRATION_END
    timestamp: int
    runs: tuple
    spans: Optional[tuple[tuple[int, int], ...]] = None

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        if self.spans is None:
            manifest.migrated_through = max(manifest.migrated_through, self.timestamp)
            return manifest._drop(self.runs)
        live = [run for run in self.runs if run in manifest.runs]
        for run in live:
            for span in self.spans:
                run.mark_migrated(*span)
        return manifest._drop(
            [run for run in live if run.fully_migrated(run.min_key, run.max_key)]
        )

    def resolved(self, resolve) -> "MigrationEnded":
        return replace(self, runs=tuple(map(resolve, self.runs)))


@dataclass(frozen=True)
class Checkpointed:
    """CHECKPOINT: ``runs`` (those its entries name) join with the entries'
    metadata, and the watermarks rise to the fence's — the records that
    established both were truncated.  Its payload is the checkpoint's alone
    (the runs are its entries' names), with the migrated ts inside its
    head: ``(ts, migrated ts, table)``."""

    tag: ClassVar[int] = CHECKPOINT
    checkpoint: Checkpoint
    runs: tuple = ()

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        for run, entry in zip(self.runs, self.checkpoint.runs):
            run.passes = entry.passes
            run.covered_min_ts = min(run.covered_min_ts, entry.covered_min_ts)
            run.covered_max_ts = max(run.covered_max_ts, entry.covered_max_ts)
            for lo, hi in entry.migrated_ranges:
                run.mark_migrated(lo, hi)
            manifest._add(run)
        cp = self.checkpoint
        manifest.flushed_through = max(manifest.flushed_through, cp.checkpoint_ts)
        manifest.migrated_through = max(manifest.migrated_through, cp.migrated_ts)

    def resolved(self, resolve) -> "Checkpointed":
        return replace(
            self, runs=tuple(resolve(entry.name) for entry in self.checkpoint.runs)
        )


def encode_edit(table: str, edit) -> bytes:
    """The WAL payload of a logged edit of ``table`` (a CHECKPOINT's table
    is its checkpoint's)."""
    if isinstance(edit, Checkpointed):
        cp = edit.checkpoint
        payload = [_CHECKPOINT.pack(cp.checkpoint_ts, cp.migrated_ts), pack_str(cp.table)]
        payload.append(_U16.pack(len(cp.runs)))
        for entry in cp.runs:
            ranges = entry.migrated_ranges
            lo, hi, passes = entry.covered_min_ts, entry.covered_max_ts, entry.passes
            payload.append(pack_str(entry.name))
            payload += [_MANIFEST_ENTRY.pack(lo, hi, passes, len(ranges)), _pack_spans(ranges)]
        return b"".join(payload)
    payload = [_TS.pack(edit.timestamp), pack_str(table)]
    if isinstance(edit, RunFlushed):
        payload += [_pack_name(edit.run), _COVERED.pack(*edit.covered)]
    elif isinstance(edit, RunsMerged):
        payload += [
            _pack_name(edit.product),
            _pack_names(edit.victims),
            _COVERED.pack(*edit.covered),
        ]
    elif isinstance(edit, MigrationEnded):
        spans = edit.spans
        count = _SPAN_COUNT.pack(-1 if spans is None else len(spans))
        payload += [_pack_names(edit.runs), count, _pack_spans(spans or ())]
    return b"".join(payload)


def edit_head(tag: int, data, offset: int = 0) -> tuple[int, str]:
    """``(ts, table)`` of the run-set payload at ``data[offset:]``: all a
    truncation needs to tell whether the record outlives a fence."""
    read = _Reader(data, offset)
    timestamp = read.take(_CHECKPOINT if tag == CHECKPOINT else _TS)[0]
    return timestamp, read.name()


def decode_edit(tag: int, payload):
    """The edit a run-set payload whose frame has type ``tag`` holds, with
    run names where the logged one held runs."""
    kinds = (RunFlushed, MigrationStarted, MigrationEnded, RunsMerged, Checkpointed)
    kind = next((kind for kind in kinds if kind.tag == tag), None)
    if kind is None:
        raise RecoveryError(f"corrupt log record type {tag}")
    read = _Reader(payload)
    try:
        if kind is Checkpointed:
            timestamp, migrated_ts = read.take(_CHECKPOINT)
            table = read.name()
            entries = []
            for _ in range(read.take(_U16)[0]):
                name = read.name()
                lo, hi, passes, count = read.take(_MANIFEST_ENTRY)
                entries.append(RunManifestEntry(name, lo, hi, read.spans(count), passes))
            return Checkpointed(Checkpoint(table, timestamp, migrated_ts, tuple(entries)))
        (timestamp,) = read.take(_TS)
        read.name()  # the table, which only the head holds
        if kind is RunFlushed:
            return RunFlushed(read.name(), timestamp, read.take(_COVERED))
        if kind is RunsMerged:
            return RunsMerged(timestamp, read.name(), read.names(), read.take(_COVERED))
        if kind is MigrationEnded:
            runs, (count,) = read.names(), read.take(_SPAN_COUNT)
            return MigrationEnded(timestamp, runs, None if count < 0 else read.spans(count))
        return MigrationStarted(timestamp)
    except (struct.error, UnicodeDecodeError) as exc:
        raise RecoveryError(f"corrupt {kind.__name__} record: {exc}") from exc


@dataclass(frozen=True)
class RunReplaced:
    """A scrub or peer repair rewrote ``old`` as ``new``: same name,
    position, covered span and migrated ranges."""

    old: object
    new: object

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        old, new = self.old, self.new
        new.covered_min_ts, new.covered_max_ts = old.covered_min_ts, old.covered_max_ts
        new.migrated_ranges = list(old.migrated_ranges)
        manifest.runs = tuple(new if run is old else run for run in manifest.runs)


@dataclass(frozen=True)
class Recovered:
    """Recovery's run set: the files it found, then the ones it kept."""

    runs: tuple

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        manifest.runs = tuple(self.runs)


@dataclass(frozen=True)
class GapRebuilt:
    """Recovery re-materialized a lost span's logged updates, ``covered``,
    as a fresh 1-pass run."""

    run: object
    covered: tuple[int, int]

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        self.run.covered_min_ts, self.run.covered_max_ts = self.covered
        manifest._add(self.run)


class RunManifest:
    """One engine's run set, run metadata, watermarks and version."""

    def __init__(self, table: str) -> None:
        self.table = table
        self.runs: tuple = ()  # in sequence order; a scan keeps its tuple
        self.version = 0  # bumped by every edit
        #: Every logged update with ts <= this is durable in a run.
        self.flushed_through = 0
        #: Every update with ts <= this was migrated in place (only a full
        #: migration moves it).
        self.migrated_through = 0

    def apply(self, edit) -> list:
        """Apply one edit; the runs it retired (their files are the
        caller's to delete)."""
        retired = edit._apply(self) or []
        self.version += 1
        return retired

    def _add(self, run) -> None:
        if run not in self.runs:
            self.runs += (run,)

    def _drop(self, runs) -> list:
        retired = [run for run in runs if run in self.runs]
        self.runs = tuple(run for run in self.runs if run not in retired)
        return retired

    def snapshot(self, fence: int) -> Checkpoint:
        """The manifest as a CHECKPOINT record cut at ``fence``."""
        return Checkpoint(
            table=self.table,
            checkpoint_ts=fence,
            migrated_ts=min(self.migrated_through, fence),
            runs=tuple(
                RunManifestEntry(
                    run.name, run.covered_min_ts, run.covered_max_ts,
                    tuple(run.migrated_ranges), run.passes,
                )
                for run in self.runs
            ),
        )
