"""The run manifest: the one owner of an engine's set of sorted runs.

Crash recovery (Section 3.6) rebuilds the run set from the run files and
the redo log, so each rule for how an event changes it must mean the same
at run time and at restart: here each is written once, as an *edit* (the
design of LevelDB's MANIFEST).  There is one edit kind per WAL record that
changes the run set, which the live engine applies and recovery replays,
and three that are not logged: :class:`RunReplaced` (scrub or peer repair),
:class:`Recovered` and :class:`GapRebuilt` (recovery).  The manifest never
touches a file: :meth:`RunManifest.apply` returns the runs an edit retired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.txn.log import Checkpoint, RunManifestEntry


def merged_passes(victims) -> int:
    """A merge product's passes: one more than its most-written victim."""
    return 1 + max((victim.passes for victim in victims), default=1)


class LostRun:
    """Recovery's stand-in for a run whose file is damaged, or gone while a
    record names it.  Only a logged migration removes a named file, so a
    gone one counts as migrated; a damaged one stays, to be rebuilt."""

    min_key = max_key = None

    def __init__(self, name: str, damaged: bool) -> None:
        self.name = name
        self.damaged = damaged
        self.passes = 1
        self.covered_min_ts = self.covered_max_ts = 0
        self.migrated_ranges: list[tuple[int, int]] = []

    def mark_migrated(self, begin_key: int, end_key: int) -> None:
        pass

    def fully_migrated(self, table_min, table_max) -> bool:
        return not self.damaged


@dataclass(frozen=True)
class RunFlushed:
    """RUN_FLUSH: a 1-pass run joins; ``flushed_through`` rises to
    ``through``.  ``covered``: the raw span drained (replay: the file's)."""

    run: object
    through: int
    covered: Optional[tuple[int, int]] = None

    def _apply(self, manifest: "RunManifest") -> Optional[list]:
        if self.covered is not None:
            self.run.covered_min_ts, self.run.covered_max_ts = self.covered
        manifest._add(self.run)
        manifest.flushed_through = max(manifest.flushed_through, self.through)


@dataclass(frozen=True)
class RunsMerged:
    """RUN_MERGE: the product replaces its victims with one pass more and
    their joint covered span.  A replayed merge whose product file did not
    load intact never ``committed``: only the product's passes count."""

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


@dataclass(frozen=True)
class MigrationEnded:
    """MIGRATION_END with its START's runs.  A full migration (``spans``
    None) retires them and moves ``migrated_through``; a range migration
    marks ``spans`` (replay: the whole logged range) and retires the runs
    they cover."""

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


@dataclass(frozen=True)
class Checkpointed:
    """CHECKPOINT: ``runs`` (those its entries name) join with the entries'
    metadata, and the watermarks rise to the fence's — the records that
    established both were truncated."""

    checkpoint: Checkpoint
    runs: tuple

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
