"""Two fixed lanes for the per-row stages: the attention layer's row blocks,
``sipf_field``'s row blocks and ``knn_graph``'s query.

A stage that runs over several row blocks splits them into two fixed lanes
that alternate counting down from the last block (``_lanes``).  The calling
thread runs the lane holding the last block and one persistent
``ThreadPoolExecutor`` thread the other, on every host, while numpy's
products and ufuncs and the kd-tree query release the GIL; on one CPU, where
the lanes take turns, a multi-block call takes longer than in one thread
(about 9 % for the attention layer).  A caller with a single block runs it
inline and submits nothing.

``_run_lanes`` joins both lanes before it returns or raises.  A lane stops at
its first error, and of the two lanes' errors the lower block's is raised,
as in a one-lane loop.  numpy's floating-point error state is per thread:
the executor's lane runs under the caller's.  Lanes write disjoint rows of
their outputs, so the bits of a result do not depend on the lanes; where a
caller adds per-lane partial sums, it fixes their order itself.  A caller
allocates lane 1's arrays (``_buffers`` with a reserve list) before handing
it over, so the executor thread's malloc arena holds none of them between
calls; the kd-tree query allocates its own small per-block results.

The executor runs lanes one at a time, and each lane waits only on itself,
so calls from several threads are safe.  A fork hook gives a forked child a
new executor, since the parent's thread does not exist there.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _buffers(reserve=()):
    """One lane's allocator of named arrays: asking again for a name and shape returns the same
    memory.  ``reserve`` lists (name, shape, dtype) to allocate now, in the calling thread."""
    arrays = {}

    def alloc(name, shape, dtype=np.float64):
        if name not in arrays or arrays[name].shape != shape:
            arrays[name] = np.empty(shape, dtype)
        return arrays[name]

    for name, shape, dtype in reserve:
        alloc(name, shape, dtype)
    return alloc


def _lanes(blocks):
    """Two lanes of (start, stop) blocks, alternating from the last block back, each in descending
    order; lane 0 holds the last block and runs in the calling thread."""
    return blocks[::-2], blocks[-2::-2]


def _new_executor():
    """Lane 1's executor.  A forked child needs its own: lanes queued to the parent's never run."""
    global _executor
    _executor = ThreadPoolExecutor(1, thread_name_prefix="sipf-lane")


_new_executor()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_executor)


def _lane(blocks, step, lane):
    """``step(lane, start, stop)`` over one lane's blocks in order; the first error ends the
    lane and is returned with its block's start."""
    for start, stop in blocks:
        try:
            step(lane, start, stop)
        except Exception as exc:
            return start, exc
    return None


def _run_lanes(lanes, step):
    """Run lane 0 in this thread and lane 1, if it holds a block, on the executor.  Both are
    joined before this returns or raises; of the lanes' errors, the lower block's is raised."""
    future = None
    if lanes[1]:
        # numpy's floating-point error handling is per thread: the worker takes the caller's.
        errstate = {**np.geterr(), "call": np.geterrcall()}

        def other_lane():
            with np.errstate(**errstate):
                return _lane(lanes[1], step, 1)

        future = _executor.submit(other_lane)
    try:
        own = _lane(lanes[0], step, 0)
    finally:
        # Joined even when this thread's lane raised something other than an Exception.
        other = future.result() if future is not None else None
    failures = [f for f in (own, other) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
