"""SimClock invariants: monotonicity, reset and fork/join semantics."""

from contextlib import nullcontext

import pytest

from repro.storage.clock import SimClock


def test_clock_starts_at_zero():
    assert SimClock().now == 0.0


def test_advance_accumulates():
    clock = SimClock()
    clock.advance(1.5)
    clock.advance(0.5)
    assert clock.now == pytest.approx(2.0)


def test_advance_rejects_negative():
    clock = SimClock()
    with pytest.raises(ValueError):
        clock.advance(-0.1)


def test_advance_to_only_moves_forward():
    clock = SimClock()
    clock.advance_to(5.0)
    assert clock.now == 5.0
    clock.advance_to(3.0)  # in the past: no-op
    assert clock.now == 5.0


def test_reset():
    clock = SimClock(start=2.0)
    assert clock.now == 2.0
    clock.advance(1.0)
    clock.reset()
    assert clock.now == 0.0


def _branch(clock, starts):
    def run(delta):
        starts.append(clock.now)
        clock.advance(delta)
        return delta * 10

    return run


def test_concurrently_forks_at_the_origin_and_joins_at_the_latest_finish():
    clock = SimClock(start=1.0)
    starts = []
    results = clock.concurrently(_branch(clock, starts), [0.5, 2.0, 0.25])
    assert starts == [1.0, 1.0, 1.0]
    assert clock.now == 3.0
    assert results == [5.0, 20.0, 2.5]  # in item order


def test_concurrently_passes_extra_arguments_to_every_branch():
    clock = SimClock()
    calls = []

    def run(item, lo, hi):
        calls.append((item, lo, hi, clock.now))
        clock.advance(item)

    clock.concurrently(run, [1.0, 2.0], "a", "b")
    assert calls == [(1.0, "a", "b", 0.0), (2.0, "a", "b", 0.0)]
    assert clock.now == 2.0


def test_concurrently_with_no_items_leaves_the_clock_alone():
    clock = SimClock(start=4.0)
    assert clock.concurrently(_branch(clock, []), []) == []
    assert clock.now == 4.0


@pytest.mark.parametrize(
    "deltas, raising, expected",
    [
        # The raising branch got furthest.
        ([1.0, 3.0], 1, 5.0),
        # An earlier branch got further than the raising one.
        ([3.0, 1.0], 1, 5.0),
        # The first branch raises at once: the clock stays at the origin.
        ([0.0, 9.0], 0, 2.0),
    ],
)
def test_a_raising_branch_leaves_the_clock_at_the_furthest_instant(
    deltas, raising, expected
):
    clock = SimClock(start=2.0)
    ran = []

    def run(index):
        ran.append(index)
        clock.advance(deltas[index])
        if index == raising:
            raise RuntimeError("branch failed")

    with pytest.raises(RuntimeError, match="branch failed"):
        clock.concurrently(run, range(len(deltas)))
    assert clock.now == expected
    assert clock.now >= 2.0
    assert ran == list(range(raising + 1))  # later branches never run


def test_nested_forks_join_at_the_critical_path():
    clock = SimClock()
    starts = []

    def outer(deltas):
        starts.append(("outer", clock.now))
        clock.advance(1.0)
        clock.concurrently(_branch(clock, starts), deltas)

    clock.concurrently(outer, [[0.5, 4.0], [2.0]])
    # Branch 0: 1 + max(0.5, 4) = 5; branch 1: 1 + 2 = 3.
    assert clock.now == 5.0
    assert starts == [
        ("outer", 0.0),
        1.0,
        1.0,
        ("outer", 0.0),
        1.0,
    ]
    clock.advance(1.0)
    assert clock.now == 6.0


def test_branches_start_at_the_origin_and_join_at_the_latest_finish():
    clock = SimClock(start=1.0)
    starts = []
    for delta in clock.branches([0.5, 2.0, 0.25]):
        starts.append(clock.now)
        clock.advance(delta)
    assert starts == [1.0, 1.0, 1.0]
    assert clock.now == 3.0


def test_an_earlier_origin_counts_the_work_since_it_as_a_branch():
    clock = SimClock(start=1.0)
    clock.advance(0.75)  # the branch that already ran, from 1.0
    starts = []
    for delta in clock.branches([0.5, 0.25], origin=1.0):
        starts.append(clock.now)
        clock.advance(delta)
    assert starts == [1.0, 1.0]
    assert clock.now == 1.75  # the branch already run is the slowest
    for delta in clock.branches([2.0], origin=1.0):
        clock.advance(delta)
    assert clock.now == 3.0


def test_an_origin_in_the_future_is_rejected():
    clock = SimClock(start=1.0)
    with pytest.raises(ValueError, match="in the future"):
        for _ in clock.branches([1], origin=1.5):
            pass
    assert clock.now == 1.0


@pytest.mark.parametrize("leave", ["break", "raise"])
def test_a_loop_left_early_leaves_the_clock_at_the_furthest_instant(leave):
    clock = SimClock(start=2.0)
    with pytest.raises(RuntimeError) if leave == "raise" else nullcontext():
        for delta in clock.branches([3.0, 1.0, 9.0]):
            clock.advance(delta)
            if delta == 1.0:
                if leave == "break":
                    break
                raise RuntimeError("branch failed")
    assert clock.now == 5.0
