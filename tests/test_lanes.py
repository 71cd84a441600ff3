import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from sipf import lanes
from sipf.lanes import Workspace, _buffers, _lanes, _run_lanes, run_blocks


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


def test_buffers_are_reused_by_name_and_shape():
    alloc = _buffers()
    a, b = alloc("a", (2, 3)), alloc("b", (4,), np.int64)
    assert b.dtype == np.int64
    assert alloc("a", (2, 3)) is a and alloc("b", (4,), np.int64) is b
    # Another shape makes the name's array anew; another allocator shares none of them.
    a_t = alloc("a", (3, 2))
    assert a_t is not a and alloc("a", (3, 2)) is a_t
    assert _buffers()("a", (3, 2)) is not a_t


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


def test_run_blocks_makes_each_lanes_arrays_once_on_its_own_thread(monkeypatch):
    caller = threading.current_thread()
    made_on = []
    empty = np.empty

    def recorded_empty(*args, **kwargs):
        array = empty(*args, **kwargs)
        made_on.append((threading.current_thread(), array))
        return array

    monkeypatch.setattr(np, "empty", recorded_empty)

    def run():
        arrays = {0: [], 1: []}

        def step(lane, alloc, start, stop):
            # Lane 1 asks for a name that lane 0 never asks for: no list of names is declared.
            names = [("a", (2,), np.float64), ("b", (3,), np.int64)] + [("c", (1,), np.float64)] * lane
            arrays[lane].append((threading.current_thread(), [alloc(*name) for name in names]))

        made_on.clear()
        run_blocks(4, 1, step)
        return arrays, list(made_on)

    first, made = run()
    # Each lane's two blocks run on its own thread, lane 1's on the executor, and reuse the
    # arrays its first block asked for, made then, on that thread, once each.
    assert len(made) == 5
    for lane in (0, 1):
        (thread, arrays), (again, reused) = first[lane]
        assert again is thread and (thread is caller) == (lane == 0)
        assert len(arrays) == 2 + lane and all(a is b for a, b in zip(arrays, reused))
        assert all(any(t is thread and m is a for t, m in made) for a in arrays)
        assert arrays[1].dtype == np.int64
    assert first[0][0][1][0] is not first[1][0][1][0]
    # Without a workspace, a second call makes its own arrays again: it shares none with the first.
    second, made = run()
    assert len(made) == 5
    assert all(a is not b for lane in (0, 1) for a, b in zip(first[lane][0][1], second[lane][0][1]))


def _workspace_arrays(workspace, n=4, shape=(3,)):
    """{lane: (thread, [array of each block])} of one ``run_blocks`` call in ``workspace``."""
    got = {0: [], 1: []}

    def step(lane, alloc, start, stop):
        got[lane].append((threading.current_thread(), alloc("a", shape)))

    run_blocks(n, 1, step, workspace=workspace)
    return {lane: (blocks[0][0], [a for _, a in blocks]) for lane, blocks in got.items()}


def test_workspace_arrays_outlive_the_call(monkeypatch):
    workspace = Workspace()
    first = _workspace_arrays(workspace)
    made = []
    empty = np.empty

    def recorded_empty(*args, **kwargs):
        made.append(args)
        return empty(*args, **kwargs)

    monkeypatch.setattr(np, "empty", recorded_empty)
    again = _workspace_arrays(workspace)
    # A later call on the same threads gets each lane's arrays of the call before, and makes none.
    assert made == []
    for lane in (0, 1):
        thread, arrays = first[lane]
        assert again[lane][0] is thread and all(a is arrays[0] for a in arrays + again[lane][1])
    assert first[0][1][0] is not first[1][1][0]
    # Another shape makes each lane's array anew, once; another workspace shares none of them.
    reshaped = _workspace_arrays(workspace, shape=(4,))
    assert len(made) == 2 and all(reshaped[lane][1][0] is not first[lane][1][0] for lane in (0, 1))
    other = _workspace_arrays(Workspace(), shape=(4,))
    assert all(other[lane][1][0] is not reshaped[lane][1][0] for lane in (0, 1))


def test_workspace_lane_zero_is_the_callers_and_lane_one_the_executors():
    workspace = Workspace()
    calls = []

    def call():
        calls.append(_workspace_arrays(workspace))

    for _ in range(2):
        thread = threading.Thread(target=call)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
    call()
    # Each calling thread runs lane 0 in arrays of its own; every lane 1 runs on the one
    # executor thread, in its arrays.
    lane_zero = [c[0] for c in calls]
    assert len({id(thread) for thread, _ in lane_zero}) == 3
    assert len({id(arrays[0]) for _, arrays in lane_zero}) == 3
    lane_one = [c[1] for c in calls]
    assert all(thread.name.startswith("sipf-lane") and thread is lane_one[0][0] for thread, _ in lane_one)
    assert all(arrays[0] is lane_one[0][1][0] for _, arrays in lane_one)


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
