"""One blocked-stage runner for the per-row stages: the attention layer's
forward and backward, ``sipf_field``, ``knn_graph``'s query, the CSV writer
``format_rows`` and the trials of ``field_deviations``, one trial a block,
each running the field's blocks in its lane's buffers.

``run_blocks(n, rows, step, last_first)`` cuts the rows [0, n) into blocks
of ``rows`` rows (n = 0 gives one empty block) and calls
``step(lane, alloc, start, stop)`` once for each.  The blocks go to two fixed
lanes that alternate counting down from the last block (``_lanes``), so lane
0 holds the last block.  Each lane runs its blocks first to last, or last to
first with ``last_first``.  The calling thread runs lane 0 and one
persistent ``ThreadPoolExecutor`` thread lane 1, on every host, while
numpy's products and ufuncs and the kd-tree query release the GIL; on one
CPU, where the lanes take turns, a multi-block call takes longer than in one
thread (about 9 % for the attention layer).  A call with one block leaves
lane 1 empty: it runs inline and submits nothing.

Lane buffers: ``alloc(name, shape, dtype)`` is the lane's allocator of
named arrays.  Asking again for a name and shape returns the same memory, so
a lane's blocks write into the arrays its block before used instead of
allocating (and page-faulting) anew.  Each lane's allocator makes an array
when a block first asks for it, in use order, on the lane's own thread; a
name asked for in another shape is made again, so a stage whose last block
is shorter (the field's) asks for the full shape and writes into its first
part.  A call shares no buffer with another, nor one lane with the other.

Per-block code makes few numpy calls, each a ufunc or a C-level array
method (``np.take``, ``np.copyto``, ``ufunc.reduce``), not one of numpy's
Python-level wrappers (``np.clip``, ``np.any``, ``ndarray.max``), and keeps
its Python between calls short.  A lane holds the GIL for everything but
the work inside numpy's calls, and while it does the other lane waits, so a
block's fixed cost stalls both lanes.  A field block's fixed cost, timed on
1-row blocks of a 20-neighbour field in one thread, fell from about 190 to
about 96 microseconds (medians of six processes a side, 2-CPU x86-64 host)
when its 100 or so calls, many of them wrappers, became about 50 ufunc
calls and C-level methods.  An attention block's, timed on 1-row blocks of
a 256-point 16-channel layer with 20 neighbours, fell from about 35 to about
30 microseconds forward and from about 74 to about 71 backward, recompute
included (best of ten rounds, three processes, same host), when its
reductions and finite checks became ufunc reduces into lane buffers.

``_run_lanes`` joins both lanes before it returns or raises.  A lane stops at
its first error, and of the two lanes' errors the lower block's is raised.
This is the one error rule of every blocked stage, whose callers add none of
their own: a call raises the first error of its lowest failing block, as a
one-lane loop would.  Each stage's block size depends only on its rows, so
the error does not depend on the lanes, their timing or the CPU count.
numpy's floating-point error state is per thread: the executor's lane runs
under the caller's.  Lanes write disjoint rows of their outputs, so the bits
of a result do not depend on the lanes; where a caller adds per-lane partial
sums, it fixes their order itself.

The executor runs lanes one at a time, and each lane waits only on itself,
so calls from several threads are safe.  A fork hook gives a forked child a
new executor, since the parent's thread does not exist there.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def _buffers():
    """One lane's allocator of named arrays: asking again for a name and shape returns the same
    memory."""
    arrays = {}

    def alloc(name, shape, dtype=np.float64):
        if name not in arrays or arrays[name].shape != shape:
            arrays[name] = np.empty(shape, dtype)
        return arrays[name]

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


def run_blocks(n, rows, step, last_first=False):
    """``step(lane, alloc, start, stop)`` over the blocks of ``rows`` rows that cover [0, n), on
    the two lanes, each first to last or, with ``last_first``, last to first; ``alloc`` is the
    lane's allocator of named arrays, one for each lane and call."""
    blocks = [(start, min(start + rows, n)) for start in range(0, max(n, 1), rows)]
    lanes = _lanes(blocks) if last_first else [lane[::-1] for lane in _lanes(blocks)]
    allocs = [_buffers(), _buffers()]
    _run_lanes(lanes, lambda lane, start, stop: step(lane, allocs[lane], start, stop))
