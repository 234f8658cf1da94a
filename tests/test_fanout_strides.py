"""The served fan-out drains a stride at a time, on the per-row timeline.

``ReplicaSet.scan`` and the router's ``_attempt``/``_hedge`` move rows a
stride-sized list at a time.  ``tests/reference_fanout.py`` pins the per-row
loops they replaced.  One world is built twice and served once through each:
every fault-plan consultation, deadline check, hedge decision and scan
begin/end is logged with the rows pulled from the engines so far and the
simulated clock, and the logs, rows, counters and errors must be equal.
"""

import gc

import pytest

from reference_fanout import ReferenceBackend
from repro.core.replication import ReplicatedWarehouse
from repro.core.update import UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.errors import ReplicaUnavailableError, ReproError
from repro.obs import use_registry
from repro.server import FleetHealth, HedgePolicy, ReplicatedBackend
from repro.server.router import Deadline
from repro.storage.clock import SimClock

pytestmark = pytest.mark.chaos

SCHEMA = synthetic_schema()
ROWS = 1_200
REPLICATION = 3
LENGTHS = (0, 1, 63, 64, 65, 128, 129, 1_000)

#: Simulated seconds a browned-out replica charges per fault-plan check.
PENALTY = 0.004
#: A STRICT budget that a browned-out drain overruns at its third full
#: stride: the first stride's reads take ~7 ms, each later one PENALTY.
STRICT_BUDGET = 0.017


class ScriptedPlan:
    """A node fault plan that logs every consultation.

    It charges ``penalty`` seconds per call (a slow-degrade brownout), runs
    ``hooks[k]`` at the k-th call and fails every call from ``crash_on`` on.
    """

    def __init__(self, world, name, penalty=0.0, crash_on=None, hooks=None):
        self.world = world
        self.name = name
        self.penalty = penalty
        self.crash_on = crash_on
        self.hooks = hooks or {}
        self.calls = 0

    def before_op(self, clock) -> None:
        self.calls += 1
        self.world.log("guard", self.name)
        hook = self.hooks.get(self.calls)
        if hook is not None:
            hook()
        if self.crashed(clock.now):
            raise ReplicaUnavailableError(f"{self.name} crashed")
        if self.penalty:
            clock.advance(self.penalty)

    def crashed(self, now) -> bool:
        return self.crash_on is not None and self.calls >= self.crash_on

    def recover(self) -> None:
        self.crash_on = None


class LoggedDeadline(Deadline):
    __slots__ = ("world",)

    def __init__(self, world, budget_seconds):
        super().__init__(world.clock, budget_seconds)
        self.world = world

    def check(self) -> None:
        self.world.log("deadline", None)
        super().check()


class World:
    """One cluster, its logs, and the backend that serves it."""

    def __init__(self, backend_cls, num_shards, plans, hedge, budget):
        self.events: list = []
        self.pulled = 0
        #: Graveyard sizes right after each ``migrate_on`` hook ran.
        self.parked: list = []
        self.clock = SimClock()
        warehouse = ReplicatedWarehouse(
            SCHEMA,
            num_shards,
            self.clock,
            replication=REPLICATION,
            records_per_node=2 * ROWS,
        )
        warehouse.bulk_load((key, f"rec-{key}") for key in range(ROWS))
        # Cached updates in runs and in the buffer, so every scan merges.
        for keys in (range(0, ROWS // 2, 7), range(ROWS // 2, ROWS, 7)):
            for key in keys:
                shard = warehouse.shards[warehouse.route(key)]
                ts = warehouse.oracle.next()
                shard.apply(
                    UpdateRecord(ts, key, UpdateType.MODIFY, {"payload": f"m{ts}"})
                )
            if keys.start == 0:
                warehouse.flush_all()
        self.warehouse = warehouse
        for shard in warehouse.shards:
            for replica in shard.replicas:
                self._instrument(replica)
                spec = dict(plans.get(replica.replica_id, {}))
                hooks = self._hooks(replica, spec.pop("migrate_on", None))
                replica.faults = ScriptedPlan(self, replica.name, hooks=hooks, **spec)
        health = FleetHealth(self.clock, scope="test.strides", hedge=hedge)
        for shard_id in range(num_shards):
            # Warm the primary's latency tracker: the hedge delay is its floor.
            health.for_replica(shard_id, 0).success(0.0)
        self.health = health
        self.backend = backend_cls(
            warehouse,
            health=health,
            blocks_per_partition=10**6,
            scope="test.strides",
        )
        hedge_call = self.backend._hedge

        def logged_hedge(*args):
            self.log("hedge", None)
            return hedge_call(*args)

        self.backend._hedge = logged_hedge
        self.deadline = LoggedDeadline(self, budget)

    def log(self, event, name) -> None:
        self.events.append((event, name, self.pulled, self.clock.now))

    def _hooks(self, replica, migrate_on):
        """``migrate_on=k``: at this replica's k-th guard, migrate the
        shard's replica 0 (the drain every abandon case gives up) while its
        scan is open, so its retired runs park in the graveyard."""
        if migrate_on is None:
            return {}
        abandoned = self.warehouse.shards[replica.shard_id].replicas[0].masm

        def migrate():
            abandoned.migrate()
            self.parked.append(len(abandoned._graveyard))

        return {migrate_on: migrate}

    def _instrument(self, replica) -> None:
        masm = replica.masm
        range_scan, gc_graveyard = masm.range_scan, masm._gc_graveyard

        def counted(rows):
            for row in rows:
                self.pulled += 1
                yield row

        def logged_scan(*args, **kwargs):
            self.log("scan_begin", replica.name)
            return counted(range_scan(*args, **kwargs))

        def logged_gc():
            self.log("scan_end", replica.name)
            gc_graveyard()

        masm.range_scan, masm._gc_graveyard = logged_scan, logged_gc

    def serve(self, begin_key, end_key):
        """One fan-out; returns everything a test compares."""
        query_ts = self.warehouse.oracle.next()
        error = None
        rows = counters = None
        try:
            outcome = self.backend.fanout_scan(
                begin_key, end_key, query_ts, deadline=self.deadline, strict=True
            )
        except ReproError as exc:
            error = type(exc).__name__
        else:
            rows = outcome.records
            counters = (
                outcome.hedges,
                outcome.hedge_wins,
                outcome.hedge_losses,
                outcome.failovers,
            )
        # Logged after the error (and its traceback) is released, so the
        # scan-end of an abandoned drain is in the log either way.
        self.log("served", None)
        return {
            "events": self.events,
            "rows": rows,
            "counters": counters,
            "error": error,
            "health": self.health.report(),
            "states": self.warehouse.replica_report(),
        }

    def open_scans(self) -> dict:
        return {
            replica.name: (dict(replica.masm._active_scans), len(replica.masm._graveyard))
            for shard in self.warehouse.shards
            for replica in shard.replicas
            if replica.masm._active_scans or replica.masm._graveyard
        }


NO_HEDGE = HedgePolicy(enabled=False)
#: One warm sample and a tiny floor: any drain that took simulated time by
#: its first full stride hedges there.
EAGER_HEDGE = HedgePolicy(min_samples=1, min_delay_seconds=1e-6)

#: name -> (per-replica plan specs, hedge policy, deadline budget)
SCENARIOS = {
    "no-hedge": ({}, NO_HEDGE, 10.0),
    "hedge-wins": ({0: dict(penalty=PENALTY)}, EAGER_HEDGE, 10.0),
    "hedge-loses": (
        {0: dict(penalty=PENALTY), 1: dict(crash_on=2)},
        EAGER_HEDGE,
        10.0,
    ),
    "brownout": ({0: dict(penalty=PENALTY)}, NO_HEDGE, 10.0),
    "crash-at-guard-3": ({0: dict(penalty=PENALTY, crash_on=3)}, NO_HEDGE, 10.0),
    "strict-deadline": ({0: dict(penalty=PENALTY)}, NO_HEDGE, STRICT_BUDGET),
}


def serve_both(scenario, length, num_shards=1):
    plans, hedge, budget = SCENARIOS[scenario]
    # An empty stream: a one-key range past the table's last key.
    begin, end = (ROWS + 1, ROWS + 1) if length == 0 else (0, length - 1)
    results = []
    for backend_cls in (ReplicatedBackend, ReferenceBackend):
        with use_registry():
            world = World(backend_cls, num_shards, plans, hedge, budget)
            results.append(world.serve(begin, end))
    return results


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stride_drain_matches_the_per_row_reference(scenario, length):
    shipped, reference = serve_both(scenario, length)
    assert shipped["events"] == reference["events"]
    assert shipped == reference
    if shipped["rows"] is not None:
        assert len(shipped["rows"]) == length


def test_scenarios_reach_the_events_they_name():
    """The matrix is not vacuous: each scenario does what it is named for."""
    by_name = {name: serve_both(name, 1_000)[0] for name in SCENARIOS}
    assert by_name["no-hedge"]["counters"] == (0, 0, 0, 0)
    assert by_name["hedge-wins"]["counters"][:2] == (1, 1)
    hedged_at = [e[2] for e in by_name["hedge-wins"]["events"] if e[0] == "hedge"]
    assert hedged_at == [64]
    assert by_name["hedge-loses"]["counters"][:3] == (1, 0, 1)
    brownout = by_name["brownout"]["events"]
    assert sum(e[0] == "guard" for e in brownout) == 1 + 1_000 // 64
    assert by_name["crash-at-guard-3"]["counters"][3] == 1
    assert by_name["strict-deadline"]["error"] == "DeadlineExceededError"
    strict = by_name["strict-deadline"]["events"]
    assert any(e[0] == "deadline" and e[2] % 64 == 0 and e[2] > 0 for e in strict)


@pytest.mark.parametrize("scenario", ["no-hedge", "hedge-wins", "crash-at-guard-3"])
def test_multi_shard_merge_matches_the_reference(scenario):
    shipped, reference = serve_both(scenario, 1_000, num_shards=3)
    assert shipped == reference
    keys = [SCHEMA.key(row) for row in shipped["rows"]]
    assert keys == list(range(1_000))


#: name -> (per-replica plan specs, hedge policy, deadline budget); each
#: migrates the abandoned replica while its scan is open.
ABANDONED = {
    # The backup's first guard migrates the primary, whose drain then loses.
    "hedge-win": (
        {0: dict(penalty=PENALTY), 1: dict(migrate_on=1)},
        EAGER_HEDGE,
        10.0,
    ),
    "failover": ({0: dict(migrate_on=2, crash_on=3)}, NO_HEDGE, 10.0),
    "strict-deadline": (
        {0: dict(penalty=PENALTY, migrate_on=2)},
        NO_HEDGE,
        STRICT_BUDGET,
    ),
}


@pytest.mark.parametrize("case", sorted(ABANDONED))
def test_abandoned_drains_release_their_scans(case):
    plans, hedge, budget = ABANDONED[case]
    gc.disable()  # only reference counting may close the scans
    try:
        with use_registry():
            world = World(ReplicatedBackend, 1, plans, hedge, budget)
            result = world.serve(0, 999)
            open_scans = world.open_scans()
    finally:
        gc.enable()
    assert world.parked and world.parked[0] > 0, "nothing parked in a graveyard"
    assert open_scans == {}
    if case == "hedge-win":
        assert result["counters"][:2] == (1, 1)
    elif case == "failover":
        assert result["counters"][3] == 1
    else:
        assert result["error"] == "DeadlineExceededError"


def test_a_lost_hedge_is_not_charged_to_the_serving_replica():
    """The backup crashes mid-hedge and the primary finishes the scan: the
    primary's tracker learns its own drain time, not the backup's too."""
    plans, hedge, budget = SCENARIOS["hedge-loses"]
    with use_registry():
        world = World(ReplicatedBackend, 1, plans, hedge, budget)
        world.health.for_replica(0, 0).tracker.alpha = 1.0  # mean = last sample
        hedge_call = world.backend._hedge
        in_hedge = []

        def timed_hedge(*args):
            began = world.clock.now
            try:
                return hedge_call(*args)
            finally:
                in_hedge.append(world.clock.now - began)

        world.backend._hedge = timed_hedge
        began = world.clock.now
        result = world.serve(0, 999)
        elapsed = world.clock.now - began
    assert result["counters"] == (1, 0, 1, 0)
    assert len(in_hedge) == 1 and in_hedge[0] > 0
    assert result["health"]["0.0"]["latency_mean"] == pytest.approx(
        elapsed - in_hedge[0], rel=1e-12
    )
