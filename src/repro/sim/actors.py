"""Actor coroutines for the deterministic simulator.

Each actor is a generator: every ``yield`` is an operation boundary where
the scheduler may interleave another actor.  Actors draw randomness only
from their own ``random.Random(f"{seed}:{name}")`` stream (string seeding
is ``PYTHONHASHSEED``-independent), and always reach the engine through
``env.masm`` — never a captured reference — so they keep working across a
crash+recover performed by another actor.

The scanner actor is where the model oracle bites: it freezes a query
timestamp, computes the expected snapshot from the model *before* pulling
a single record, then checks the engine's output prefix after every batch.
"""

from __future__ import annotations

import random
from itertools import islice

from repro.core.update import UpdateRecord, UpdateType
from repro.sim.model import diff_states


def updater(env, name: str, seed: int, ops: int):
    """Issue ``ops`` randomized updates, one per step, model-acknowledged.

    Workload validity: the engine treats a second INSERT for a live key as
    a conflict, so inserts draw from currently-free keys only.  Keys
    congruent to 3 (mod 4) are reserved for :func:`txn_writer` inserts —
    a plain updater inserting one concurrently with an uncommitted staged
    insert would be an application-level duplicate no isolation level can
    referee.
    """
    rng = random.Random(f"{seed}:{name}")
    universe = env.config.key_universe
    for i in range(ops):
        state = env.model.snapshot(2**62)
        live = sorted(state)
        free = [k for k in range(universe) if k not in state and k % 4 != 3]
        roll = rng.random()
        ts = env.masm.oracle.next()
        if (roll < 0.35 or not live) and free:
            key = rng.choice(free)
            update = UpdateRecord(
                ts, key, UpdateType.INSERT, (key, f"{name}-i{i}")
            )
        elif roll < 0.55 and live:
            key = rng.choice(live)
            update = UpdateRecord(ts, key, UpdateType.DELETE, None)
        elif live:
            key = rng.choice(live)
            update = UpdateRecord(
                ts, key, UpdateType.MODIFY, {"payload": f"{name}-m{i}"}
            )
        else:  # nothing live and nothing free: key space exhausted
            return
        env.issue_update(update)
        yield


def scanner(env, name: str, seed: int, scans: int, batch: int = 8):
    """Run ``scans`` full-range scans, oracle-checked after every batch.

    Each scan freezes its own query timestamp, so updates and migrations
    interleaved mid-scan must not change what it yields.  A crash+recover
    by another actor (``env.epoch`` bump) invalidates the open iterator —
    the actor abandons that scan rather than read a torn-down engine.
    """
    rng = random.Random(f"{seed}:{name}")
    lo, hi = 0, env.config.key_universe
    for _ in range(scans):
        epoch = env.epoch
        query_ts = env.masm.oracle.next()
        expected = env.model.snapshot_records(query_ts, lo, hi)
        stream = env.masm.range_scan(lo, hi, query_ts=query_ts)
        got: list[tuple] = []
        yield  # scan registered; records not yet pulled
        while True:
            if env.epoch != epoch:
                stream.close()
                break
            chunk = list(islice(stream, batch))
            got.extend(chunk)
            prefix = expected[: len(got)]
            if got != prefix:
                want = {env.schema.key(r): r for r in prefix}
                have = {env.schema.key(r): r for r in got}
                raise AssertionError(
                    f"{name}: scan at ts={query_ts} diverged from model "
                    f"after {len(got)} records: {diff_states(want, have)}"
                )
            if len(chunk) < batch:
                if len(got) != len(expected):
                    raise AssertionError(
                        f"{name}: scan at ts={query_ts} ended after "
                        f"{len(got)} records; model expects {len(expected)}"
                    )
                break
            yield
        # Deterministic pause between scans keeps schedules interesting.
        if rng.random() < 0.5:
            yield


def flusher(env, name: str, seed: int, ops: int):
    """Force ``ops`` buffer flushes (runs materialize off-schedule)."""
    del seed  # flushing takes no decisions
    del name
    for _ in range(ops):
        env.masm.flush_buffer()
        yield


def migrator(env, name: str, seed: int, ops: int):
    """Run ``ops`` governor-paced migration slices."""
    del seed
    del name
    for _ in range(ops):
        governor = env.masm.governor
        if governor is not None:
            governor.migrate_step()
        else:
            env.masm.migrate()
        yield


def crasher(env, name: str, seed: int, idle_steps: int):
    """Idle for a while, then tear the engine down and recover it.

    This is a *clean* whole-process crash between operations (the torn
    mid-operation crashes are the explorer's job): the surviving heap, SSD
    runs and redo log are handed to recovery and the result is validated
    against the model before any other actor takes another step.
    """
    del seed
    del name
    for _ in range(idle_steps):
        yield
    env.crash_and_recover()
    yield


class _EnvBackend:
    """Router backend test double that re-reads ``env.masm`` on every call.

    The serving layer's backend captures a warehouse; in the simulator the
    engine is replaced wholesale by crash+recover, so the sim's backend
    proxies through ``env`` instead — same rule every actor follows.  The
    clock is stable across crashes (the SSD device survives recovery).
    """

    def __init__(self, env) -> None:
        self.env = env
        self.clock = env.masm.ssd.device.clock

    def snapshot_ts(self) -> int:
        return self.env.masm.oracle.next()

    def fanout_scan(
        self, begin_key: int, end_key: int, query_ts: int, deadline=None, strict=True
    ):
        """One scan of the current engine, never partial: the simulator's
        front door arms no deadlines, so ``deadline``/``strict`` are unused."""
        from repro.server.router import FanoutOutcome

        records = list(
            self.env.masm.range_scan(begin_key, end_key, query_ts=query_ts)
        )
        return FanoutOutcome(records=records, uncovered=[])


def server(env, name: str, seed: int, requests: int):
    """Serve quota-gated tenant range queries, model-checked per request.

    Exercises the full serving path — admission (DELAY pays simulated time,
    SHED drops the request), one snapshot timestamp per request, latency
    surfaces — interleaved with updaters, flushers, migrators and crashers.
    Execution is atomic within a step, so the model snapshot at the served
    timestamp taken right after the scan is the ground truth for it.
    """
    from repro.errors import QuotaExceededError
    from repro.server import FrontDoor, QueryRequest, QuotaPolicy, TenantQuota

    rng = random.Random(f"{seed}:{name}")
    fd = FrontDoor(
        _EnvBackend(env),
        quotas={
            "gold": TenantQuota(rate=50.0, burst=8.0),
            "bronze": TenantQuota(
                rate=5.0, burst=2.0, policy=QuotaPolicy.SHED
            ),
        },
        scope=f"sim.{name}",
    )
    universe = env.config.key_universe
    for i in range(requests):
        tenant = "gold" if rng.random() < 0.7 else "bronze"
        lo = rng.randrange(universe)
        hi = lo + rng.randrange(1, universe)
        arrival = fd.clock.now
        waited = 0.0
        shed = False
        while True:
            try:
                wait = fd.try_admit(tenant, waited)
            except QuotaExceededError:
                shed = True
                break
            if wait <= 0.0:
                break
            # The sim serves one request at a time, so DELAY may simply
            # pay the wait on the shared clock before retrying.
            fd.clock.advance(wait)
            waited += wait
            yield
        if shed:
            yield  # the client drops the request and moves on
            continue
        request = QueryRequest(
            tenant=tenant, session=0, seq=i,
            begin_key=lo, end_key=hi, arrival=arrival,
        )
        result = fd.execute(request)
        expected = env.model.snapshot_records(result.query_ts, lo, hi)
        if result.rows != len(expected):
            raise AssertionError(
                f"{name}: served request {i} for {tenant!r} at "
                f"ts={result.query_ts} returned {result.rows} rows; "
                f"model expects {len(expected)} in [{lo}, {hi}]"
            )
        if result.latency_seconds < 0:
            raise AssertionError(
                f"{name}: negative latency {result.latency_seconds} "
                f"for request {i}"
            )
        yield


def txn_writer(env, name: str, seed: int, txns: int, keys_per_txn: int = 3):
    """Snapshot-isolation transactions: stage, maybe conflict, commit.

    Staged writes are model-acknowledged only on successful commit, each as
    the exact update the transaction publishes (same type/content, commit
    timestamp, sorted key order) — aborted transactions leave no trace.
    """
    from repro.errors import TransactionAborted

    rng = random.Random(f"{seed}:{name}")
    for i in range(txns):
        if env.snapshots is None:
            return
        epoch = env.epoch
        txn = env.snapshots.begin()
        for j in range(keys_per_txn):
            # Inserts stay inside the reserved (3 mod 4) stripe; see updater.
            key = rng.randrange(env.config.key_universe // 4) * 4 + 3
            if txn.get(key) is None:
                txn.insert((key, f"{name}-t{i}.{j}"))
            else:
                txn.modify(key, {"payload": f"{name}-t{i}.{j}"})
        yield  # staged but uncommitted: invisible to everyone else
        if env.epoch != epoch:
            # The engine crashed under us: uncommitted writes die with it.
            txn.abort()
            yield
            continue
        try:
            commit_ts = txn.commit()
        except TransactionAborted:
            yield
            continue
        for key in sorted(txn._writes):
            staged = txn._writes[key]
            env.model.record(
                UpdateRecord(commit_ts, key, staged.type, staged.content)
            )
        yield

def replicator(env, name: str, seed: int, ops: int, replication: int = 3):
    """Drive a replica set through updates, crashes, failover and rejoin.

    The set lives beside the main engine (own oracle, own clock, own
    model) so replica chaos never perturbs the other actors' oracle
    checks — what interleaves is the *schedule*.  Every read pins a
    snapshot timestamp, picks a random ONLINE replica (frequently a
    freshly promoted primary or a rejoined catcher-upper) and must match
    the model byte-for-byte; the final step rejoins every crashed node
    and asserts all replicas answer identically.
    """
    from repro.core.replication import ReplicaSet
    from repro.sim.model import ModelTable
    from repro.storage.clock import SimClock
    from repro.txn.timestamps import TimestampOracle

    rng = random.Random(f"{seed}:{name}")
    oracle = TimestampOracle()
    rows = max(env.config.rows // 2, 8)
    stride = env.config.key_stride
    universe = rows * stride
    rset = ReplicaSet.build(
        0,
        env.schema,
        oracle,
        SimClock(),
        replication,
        records_per_node=rows * 4,
        masm_config=env.masm_config,
    )
    env.replica_sets.append(rset)
    base = [(i * stride, f"{name}-base{i}") for i in range(rows)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    model = ModelTable(env.schema, base)
    crashed: list[int] = []

    def check_scan(replica_id: int, context: str) -> None:
        query_ts = oracle.next()
        expected = model.snapshot_records(query_ts, 0, universe)
        got = list(rset.scan(0, universe, query_ts, replica_id=replica_id))
        if got != expected:
            want = {env.schema.key(r): r for r in expected}
            have = {env.schema.key(r): r for r in got}
            raise AssertionError(
                f"{name}: {context} read on replica {replica_id} at "
                f"ts={query_ts} diverged from model: "
                f"{diff_states(want, have)}"
            )

    for i in range(ops):
        roll = rng.random()
        online = rset.online_ids()
        if roll < 0.45:
            state = model.snapshot(2**62)
            live = sorted(state)
            free = [k for k in range(universe) if k not in state]
            sub = rng.random()
            ts = oracle.next()
            if (sub < 0.4 or not live) and free:
                key = rng.choice(free)
                update = UpdateRecord(
                    ts, key, UpdateType.INSERT, (key, f"{name}-i{i}")
                )
            elif sub < 0.6 and live:
                key = rng.choice(live)
                update = UpdateRecord(ts, key, UpdateType.DELETE, None)
            elif live:
                key = rng.choice(live)
                update = UpdateRecord(
                    ts, key, UpdateType.MODIFY, {"payload": f"{name}-m{i}"}
                )
            else:  # key space exhausted this step
                yield
                continue
            rset.apply(update)
            model.record(update)
        elif roll < 0.60 and len(online) > 1:
            # Kill a random ONLINE replica — killing the primary forces a
            # failover; the set must keep answering either way.
            victim = rng.choice(online)
            rset.crash_replica(victim)
            crashed.append(victim)
        elif roll < 0.75 and crashed:
            rejoiner = crashed.pop(0)
            rset.recover_replica(rejoiner)
            # Yield while CATCHING_UP: updates shipped in this window are
            # exactly what catch_up() must find in the primary's log.
            yield
            rset.catch_up(rejoiner)
            check_scan(rejoiner, "post-rejoin")
        else:
            check_scan(rng.choice(online), "steady-state")
        yield

    # Drain: bring everyone back and require byte-identical answers.
    while crashed:
        rejoiner = crashed.pop(0)
        rset.recover_replica(rejoiner)
        rset.catch_up(rejoiner)
        yield
    for replica_id in rset.online_ids():
        check_scan(replica_id, "final")
    yield


def durability(env, name: str, seed: int, ops: int, replication: int = 3):
    """Drive a replica set through the full durability lifecycle.

    Everything :func:`replicator` does, plus the churn that makes WALs
    finite and disks lie: forced checkpoints that truncate the primaries'
    logs (so rejoins routinely cross the truncation fence and must
    bootstrap from a snapshot), total replica wipes, and silently flipped
    run bytes immediately chased by an anti-entropy pass that must repair
    them from the log or a peer.  Every read pins a snapshot and must
    match the model byte-for-byte; the final drain rejoins everyone,
    repairs everything, and requires all replicas to answer identically.
    """
    from repro.core.replication import ReplicaSet, ReplicaState
    from repro.sim.model import ModelTable
    from repro.storage.clock import SimClock
    from repro.txn.timestamps import TimestampOracle

    rng = random.Random(f"{seed}:{name}")
    oracle = TimestampOracle()
    rows = max(env.config.rows // 2, 8)
    stride = env.config.key_stride
    universe = rows * stride
    rset = ReplicaSet.build(
        0,
        env.schema,
        oracle,
        SimClock(),
        replication,
        records_per_node=rows * 4,
        masm_config=env.masm_config,
    )
    env.replica_sets.append(rset)
    base = [(i * stride, f"{name}-base{i}") for i in range(rows)]
    for replica in rset.replicas:
        replica.table.bulk_load(base)
    model = ModelTable(env.schema, base)
    crashed: list[int] = []

    def check_scan(replica_id: int, context: str) -> None:
        query_ts = oracle.next()
        expected = model.snapshot_records(query_ts, 0, universe)
        got = list(rset.scan(0, universe, query_ts, replica_id=replica_id))
        if got != expected:
            want = {env.schema.key(r): r for r in expected}
            have = {env.schema.key(r): r for r in got}
            raise AssertionError(
                f"{name}: {context} read on replica {replica_id} at "
                f"ts={query_ts} diverged from model: "
                f"{diff_states(want, have)}"
            )

    def apply_one(i: int) -> bool:
        state = model.snapshot(2**62)
        live = sorted(state)
        free = [k for k in range(universe) if k not in state]
        sub = rng.random()
        ts = oracle.next()
        if (sub < 0.4 or not live) and free:
            key = rng.choice(free)
            update = UpdateRecord(
                ts, key, UpdateType.INSERT, (key, f"{name}-i{i}")
            )
        elif sub < 0.6 and live:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.DELETE, None
            )
        elif live:
            update = UpdateRecord(
                ts, rng.choice(live), UpdateType.MODIFY,
                {"payload": f"{name}-m{i}"},
            )
        else:  # key space exhausted this step
            return False
        rset.apply(update)
        model.record(update)
        return True

    for i in range(ops):
        roll = rng.random()
        online = rset.online_ids()
        if roll < 0.40:
            apply_one(i)
        elif roll < 0.50 and len(online) > 1:
            victim = rng.choice(online)
            rset.crash_replica(victim)
            crashed.append(victim)
        elif roll < 0.58 and crashed:
            # rejoin() transparently bootstraps when the rejoiner was
            # wiped or the primary truncated past its watermark.
            rejoiner = crashed.pop(0)
            yield
            rset.rejoin(rejoiner)
            check_scan(rejoiner, "post-rejoin")
        elif roll < 0.66 and len(online) > 1:
            # Total node loss: runs, WAL and heap all destroyed.
            victim = rng.choice(online)
            rset.wipe_replica(victim)
            crashed.append(victim)
        elif roll < 0.76:
            # Checkpoint + WAL truncation on every ONLINE replica (flush
            # first so the fence can advance past recent updates).
            for replica in rset.replicas:
                if replica.state is ReplicaState.ONLINE:
                    replica.masm.flush_buffer()
            rset.maintenance(force_checkpoint=True)
        elif roll < 0.86 and len(online) > 1:
            # Silent corruption: flip one run byte on one replica, then
            # run anti-entropy — the damage must be repaired from the
            # replica's own log or a healthy peer, never served.
            victim = rset.replicas[rng.choice(online)]
            runs = victim.masm.runs
            if runs:
                run = rng.choice(runs)
                offset = rng.randrange(run.num_blocks * run.block_size)
                byte = run.file.read(offset, 1)[0]
                run.file.write(offset, bytes([byte ^ (1 << rng.randrange(8))]))
                victim.masm.block_cache.invalidate_run(run.name)
                yield
                report = rset.anti_entropy()
                if report["unrepaired"]:
                    raise AssertionError(
                        f"{name}: anti-entropy left damage unrepaired: "
                        f"{report['unrepaired']}"
                    )
                check_scan(victim.replica_id, "post-repair")
        elif online:
            check_scan(rng.choice(online), "steady-state")
        yield

    # Drain: everyone back (bootstrapping where needed), everything
    # repaired, every replica byte-identical.
    while crashed:
        rset.rejoin(crashed.pop(0))
        yield
    report = rset.anti_entropy()
    if report["unrepaired"]:
        raise AssertionError(
            f"{name}: final anti-entropy left damage: {report['unrepaired']}"
        )
    rset.maintenance(force_checkpoint=True)
    for replica_id in rset.online_ids():
        check_scan(replica_id, "final")
    yield
