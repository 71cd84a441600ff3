import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from sipf import lanes
from sipf.lanes import _buffers, _lanes, _run_lanes


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
