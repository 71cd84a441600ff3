import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from sipf import lanes
from sipf.lanes import _buffers, _lanes, _run_lanes, run_blocks


def _blocks(n):
    return [(start, start + 1) for start in range(n)]


def test_lanes_alternate_from_the_last_block_back():
    assert _lanes(_blocks(5)) == ([(4, 5), (2, 3), (0, 1)], [(3, 4), (1, 2)])
    assert _lanes(_blocks(1)) == ([(0, 1)], [])


def test_every_block_runs_once_and_lane_one_on_the_executor():
    ran = []

    def step(lane, start, stop):
        ran.append((lane, start, threading.current_thread().name.startswith("sipf-lane")))

    _run_lanes(_lanes(_blocks(6)), step)
    assert sorted(ran) == [(0, 1, False), (0, 3, False), (0, 5, False), (1, 0, True), (1, 2, True), (1, 4, True)]


def test_one_lane_stays_off_the_executor(monkeypatch):
    def no_worker(fn):
        raise AssertionError("a one-block call reached the executor")

    monkeypatch.setattr(lanes._executor, "submit", no_worker)
    ran = []
    _run_lanes(_lanes(_blocks(1)), lambda lane, start, stop: ran.append(lane))
    assert ran == [0]


def test_executor_lane_takes_the_callers_floating_point_error_state():
    seen = {}

    def handler(kind, flag):
        pass

    def step(lane, start, stop):
        seen[lane] = (np.geterr(), np.geterrcall())

    with np.errstate(divide="raise", over="call", under="ignore", invalid="warn", call=handler):
        expected = (np.geterr(), handler)
        _run_lanes(_lanes(_blocks(2)), step)
    assert seen == {0: expected, 1: expected}

    def divide(lane, start, stop):
        if lane == 1:
            np.float64(1.0) / np.float64(0.0)

    with pytest.raises(FloatingPointError), np.errstate(divide="raise"):
        _run_lanes(_lanes(_blocks(2)), divide)


@pytest.mark.parametrize("slow_lane", [0, 1])
@pytest.mark.parametrize("bad, raised", [((0, 5), 0), ((3, 4), 3), ((2, 5), 2)])
def test_lower_blocks_error_is_raised(monkeypatch, slow_lane, bad, raised):
    # Six blocks: lane 0 runs 5, 3, 1 and lane 1 runs 4, 2, 0.  The slow lane starts only
    # once the other has finished, so either lane's error can come first.
    finished = {0: threading.Event(), 1: threading.Event()}
    lane = lanes._lane

    def ordered(blocks, step, number):
        if number == slow_lane:
            assert finished[1 - number].wait(60)
        try:
            return lane(blocks, step, number)
        finally:
            finished[number].set()

    monkeypatch.setattr(lanes, "_lane", ordered)
    ran = []

    def step(lane, start, stop):
        ran.append(start)
        if start in bad:
            raise ValueError(f"block {start}")

    with pytest.raises(ValueError, match=f"^block {raised}$"):
        _run_lanes(_lanes(_blocks(6)), step)
    assert finished[0].is_set() and finished[1].is_set()
    # A lane stops at its first error: no block after it in the lane runs.
    for blocks in _lanes(_blocks(6)):
        starts = [start for start, _ in blocks]
        first_bad = min(i for i, start in enumerate(starts) if start in bad)
        assert [start for start in starts if start in ran] == starts[: first_bad + 1]


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_both_lanes_are_joined_before_an_error_is_raised(error):
    # Lane 0 fails at once; lane 1 is still running then, and must have finished when
    # the error reaches the caller, also for an error that is not an Exception.
    lane_one_done = threading.Event()

    def step(lane, start, stop):
        if lane == 0:
            raise error("lane 0")
        time.sleep(0.2)
        lane_one_done.set()

    with pytest.raises(error):
        _run_lanes(_lanes(_blocks(2)), step)
    assert lane_one_done.is_set()


def test_buffers_are_reused_by_name_and_shape_and_reserved_ahead():
    alloc = _buffers([("a", (2, 3), np.float64), ("b", (4,), np.int64)])
    a, b = alloc("a", (2, 3)), alloc("b", (4,), np.int64)
    assert b.dtype == np.int64
    assert alloc("a", (2, 3)) is a and alloc("b", (4,), np.int64) is b
    assert alloc("a", (3, 2)) is not a
    # A reserved allocator refuses a name its list left out, before allocating anything.
    with pytest.raises(RuntimeError, match="'c' was not reserved"):
        alloc("c", (2, 3))
    assert _buffers()("c", (2, 3)).shape == (2, 3)


def _record_blocks(n, rows, last_first=False):
    """The (lane, start, stop) calls of ``run_blocks``, each lane in its order."""
    ran = {0: [], 1: []}
    run_blocks(n, rows, lambda lane, alloc, start, stop: ran[lane].append((start, stop)), last_first=last_first)
    return ran


@pytest.mark.parametrize(
    "n, blocks",
    [(0, [(0, 0)]), (1, [(0, 1)]), (4, [(0, 4)]), (5, [(0, 4), (4, 5)]), (9, [(0, 4), (4, 8), (8, 9)])],
)
def test_run_blocks_covers_the_rows_once(n, blocks):
    ran = _record_blocks(n, 4)
    assert sorted(ran[0] + ran[1]) == blocks
    # The last block is lane 0's; a call with one block leaves lane 1 empty.
    assert blocks[-1] in ran[0] and bool(ran[1]) == (len(blocks) > 1)


@pytest.mark.parametrize(
    "last_first, lanes", [(False, [[0, 2, 4], [1, 3]]), (True, [[4, 2, 0], [3, 1]])]
)
def test_run_blocks_orders_each_lane(last_first, lanes):
    ran = _record_blocks(5, 1, last_first)
    assert [[start for start, _ in ran[lane]] for lane in (0, 1)] == lanes


def test_run_blocks_allocates_lane_ones_arrays_in_the_calling_thread(monkeypatch):
    caller = threading.current_thread()
    made_in = []
    empty = np.empty

    def recorded_empty(*args, **kwargs):
        made_in.append(threading.current_thread() is caller)
        return empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded_empty)
    arrays = {0: [], 1: []}

    def step(lane, alloc, start, stop):
        arrays[lane].append((threading.current_thread() is caller, alloc("a", (2,)), alloc("b", (3,), np.int64)))

    run_blocks(4, 1, step, [("a", (2,), np.float64), ("b", (3,), np.int64)])
    # Lane 1 runs on the executor, in the arrays made here before it started; lane 0 makes its
    # own as its first block asks for them.  Each lane's blocks reuse its arrays.
    assert made_in == [True] * 4
    for lane, on_caller in ((0, True), (1, False)):
        first = arrays[lane][0]
        assert len(arrays[lane]) == 2 and {r[0] for r in arrays[lane]} == {on_caller}
        assert all(r[1] is first[1] and r[2] is first[2] for r in arrays[lane])
        assert first[2].dtype == np.int64
    assert arrays[0][0][1] is not arrays[1][0][1]


def test_forked_child_gets_its_own_executor():
    # The parent's executor thread does not exist in a forked child: a child that queued
    # lane 1 to the parent's executor would wait forever.  The child must finish in 60 s.
    _run_lanes(_lanes(_blocks(2)), lambda lane, start, stop: None)
    parents = lanes._executor
    with warnings.catch_warnings():
        # Python 3.12 on warns that forking a process with threads may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            if lanes._executor is not parents:
                ran = []
                _run_lanes(_lanes(_blocks(4)), lambda lane, start, stop: ran.append(start))
                code = 0 if sorted(ran) == [0, 1, 2, 3] else 2
        finally:
            os._exit(code)
    status = None
    try:
        deadline = time.monotonic() + 60
        while status is None and time.monotonic() < deadline:
            done, wait_status = os.waitpid(pid, os.WNOHANG)
            status = wait_status if done else None
            time.sleep(0.01)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert status is not None, "the forked child did not finish within 60 s"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
