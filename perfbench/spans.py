"""In-memory span recorder that wraps library functions from outside.

A traced run replaces selected attributes of the program's modules (where
their callers look them up) by wrappers that record a span per call:
``(name, start_ns, end_ns, parent, op)``.  The originals are restored when
the ``patched`` context exits.  Self time is a span's duration minus the part
of it covered by its children.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# Span recorded around the computation of traced counters, so that counting
# does not inflate the self time of the layer that called the counted function.
COUNTERS_SPAN = "trace.counters"


def layer_of(name):
    """Layer a span belongs to: the part of its name before the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent_index, op_id]
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []
        self.op_id = -1

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter_ns()

    def add(self, key, value):
        self.counts[key] += value

    def keep_max(self, key, value):
        self.maxima[key] = max(self.maxima[key], value)

    def wrap(self, fn, name, counter=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(COUNTERS_SPAN):
                    counter(self, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for ``(namespace, attribute, span_name, counter)`` targets."""
        saved = []
        try:
            for namespace, attr, name, counter in targets:
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                "parent": parent, "op": op}) + "\n"
                )


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given (start, end) intervals."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent, op) in enumerate(spans):
        out.append((end - start) - covered_length(children.get(i, ()), start, end))
    return out


def summarize(spans):
    """Busy nanoseconds and calls per span name, and self nanoseconds per layer."""
    busy = defaultdict(int)
    calls = defaultdict(int)
    layer_self = defaultdict(int)
    for (name, start, end, parent, op), own in zip(spans, self_times(spans)):
        busy[name] += end - start
        calls[name] += 1
        layer_self[layer_of(name)] += own
    return {"busy": busy, "calls": calls, "layer_self": layer_self}
