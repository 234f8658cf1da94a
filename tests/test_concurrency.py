"""Real-thread concurrency: the latching and epoch machinery under load.

The benchmarks model concurrency analytically, but the data structures are
genuinely thread-safe; these tests drive them with actual threads.  (The
deterministic interleaving coverage lives in ``repro.sim`` / test_sim.py —
these tests keep the latches honest under real preemption.)

Discipline shared by every test here:

* phases are coordinated with events/barriers, so readers provably overlap
  writers instead of racing past them;
* worker failures are captured with full tracebacks and asserted on, so a
  failing thread produces a readable report instead of a bare truthiness
  error (or worse, a silently-passing test);
* joins are bounded and followed by liveness asserts — a deadlocked thread
  fails the test instead of hanging it past the join timeout.
"""

import threading
import traceback

from repro.core.masm import MaSM, MaSMConfig
from repro.core.membuffer import InMemoryUpdateBuffer
from repro.core.update import UpdateCodec, UpdateRecord, UpdateType
from repro.engine.record import synthetic_schema
from repro.engine.table import Table
from repro.storage.disk import SimulatedDisk
from repro.storage.file import StorageVolume
from repro.storage.ssd import SimulatedSSD
from repro.util.units import KB, MB

SCHEMA = synthetic_schema()


class WorkerPool:
    """Threads whose exceptions are captured as formatted tracebacks."""

    def __init__(self) -> None:
        self.errors: list[str] = []
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()

    def spawn(self, fn, *args, name: str = None) -> None:
        def guarded():
            try:
                fn(*args)
            except BaseException:
                with self._lock:
                    self.errors.append(
                        f"--- worker {threading.current_thread().name} ---\n"
                        + traceback.format_exc()
                    )

        thread = threading.Thread(target=guarded, name=name or fn.__name__)
        self._threads.append(thread)

    def run(self, timeout: float = 30.0) -> None:
        for t in self._threads:
            t.start()
        for t in self._threads:
            t.join(timeout=timeout)
        stuck = [t.name for t in self._threads if t.is_alive()]
        assert not stuck, f"workers still alive after {timeout}s join: {stuck}"
        assert not self.errors, "worker failures:\n" + "\n".join(self.errors)


def test_buffer_concurrent_append_and_cursor():
    buffer = InMemoryUpdateBuffer(SCHEMA, capacity_bytes=1 * MB)
    pool = WorkerPool()
    writer_started = threading.Event()
    readers_done = threading.Event()
    total = 3000
    encode = UpdateCodec(SCHEMA).encode

    def writer():
        for ts in range(1, total + 1):
            buffer.append(
                encode(UpdateRecord(ts, (ts * 7) % 1000, UpdateType.DELETE, None))
            )
            if ts >= 50:
                writer_started.set()  # readers overlap a live writer
        # Keep appending pressure until every reader has finished at least
        # one overlapped pass, so the overlap is guaranteed, not likely.
        readers_done.wait(timeout=20)

    finished = threading.Semaphore(0)

    def reader():
        assert writer_started.wait(timeout=20), "writer never reached 50 appends"
        for _ in range(30):
            seen, _ = buffer.columns_range(0, 1000, query_ts=10**9)
            keys = list(zip(seen.keys.tolist(), seen.timestamps.tolist()))
            assert keys == sorted(keys), "buffer read out of order"
        finished.release()

    readers = 3
    pool.spawn(writer, name="writer")
    for i in range(readers):
        pool.spawn(reader, name=f"reader-{i}")

    def release_writer():
        for _ in range(readers):
            assert finished.acquire(timeout=25), "a reader never finished"
        readers_done.set()

    pool.spawn(release_writer, name="release")
    pool.run(timeout=30)
    assert buffer.count == total


def test_masm_concurrent_scans_with_updates():
    disk_vol = StorageVolume(SimulatedDisk(capacity=128 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 2000)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(2000))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(
            alpha=1.2, ssd_page_size=8 * KB, block_size=4 * KB, auto_migrate=False
        ),
    )
    pool = WorkerPool()
    updates_started = threading.Event()
    done = threading.Event()

    def updater():
        try:
            for i in range(4000):
                masm.modify((i % 2000) * 2, {"payload": f"u{i}"})
                if i >= 100:
                    updates_started.set()
        finally:
            done.set()

    def scanner():
        assert updates_started.wait(timeout=30), "updater never reached 100 ops"
        overlapped = 0
        while not done.is_set():
            keys = [SCHEMA.key(r) for r in masm.range_scan(0, 4000)]
            assert keys == sorted(set(keys)), "scan order violated"
            overlapped += 1
        assert overlapped > 0, "scanner never ran while updates were live"

    pool.spawn(updater, name="updater")
    for i in range(2):
        pool.spawn(scanner, name=f"scanner-{i}")
    pool.run(timeout=60)
    assert masm.stats.updates_ingested == 4000
    # Everything is still consistent afterwards.
    final = {SCHEMA.key(r): r for r in masm.range_scan(0, 4000)}
    assert len(final) == 2000


def test_masm_flush_during_open_scans():
    """Scans opened right before a flush hand over to the run mid-stream."""
    disk_vol = StorageVolume(SimulatedDisk(capacity=64 * MB))
    ssd_vol = StorageVolume(SimulatedSSD(capacity=8 * MB))
    table = Table.create(disk_vol, "t", SCHEMA, 500)
    table.bulk_load((i * 2, f"rec-{i}") for i in range(500))
    masm = MaSM(
        table,
        ssd_vol,
        config=MaSMConfig(
            alpha=1.0, ssd_page_size=4 * KB, block_size=4 * KB, auto_migrate=False
        ),
    )
    for i in range(200):
        masm.modify((i % 500) * 2, {"payload": f"pre{i}"})

    pool = WorkerPool()
    scans_registered = threading.Barrier(4, timeout=20)

    def flusher():
        scans_registered.wait()
        for _ in range(5):
            masm.flush_buffer()
            for i in range(50):
                masm.modify((i % 500) * 2, {"payload": f"mid{i}"})

    def scanner():
        query_ts = masm.oracle.current
        stream = iter(masm.range_scan(0, 2000, query_ts=query_ts))
        head = [next(stream) for _ in range(10)]
        scans_registered.wait()  # flushes start only once all scans are open
        rest = list(stream)
        keys = [SCHEMA.key(r) for r in head + rest]
        assert keys == sorted(set(keys)), "scan order violated across flush"
        assert len(keys) == 500, f"scan lost records across flush: {len(keys)}"

    pool.spawn(flusher, name="flusher")
    for i in range(3):
        pool.spawn(scanner, name=f"scanner-{i}")
    pool.run(timeout=30)


def test_timestamps_unique_across_threads():
    from repro.txn.timestamps import TimestampOracle

    oracle = TimestampOracle()
    seen: list[int] = []
    lock = threading.Lock()
    start = threading.Barrier(4, timeout=10)

    def worker():
        start.wait()  # all threads hit the oracle together
        local = [oracle.next() for _ in range(2000)]
        with lock:
            seen.extend(local)

    pool = WorkerPool()
    for i in range(4):
        pool.spawn(worker, name=f"ts-{i}")
    pool.run(timeout=30)
    assert len(seen) == 8000
    assert len(set(seen)) == 8000
