"""Self-time arithmetic and wrapper bookkeeping of the span recorder."""

import types

import pytest

from perfbench import spans


def _span(name, start, end, parent=-1, op=0):
    return [name, start, end, parent, op]


def test_nested_self_times():
    recorded = [
        _span("training", 0, 100),
        _span("riattn.forward", 10, 40, parent=0),
        _span("inner", 15, 25, parent=1),
        _span("bingham.loss_grad", 50, 60, parent=0),
    ]
    assert spans.self_times(recorded) == [60, 20, 10, 10]


def test_overlapping_children_are_counted_once_and_clipped_to_parent():
    recorded = [
        _span("cli", 0, 100),
        _span("a", 10, 50, parent=0),
        _span("b", 40, 70, parent=0),  # overlaps a on [40, 50]
        _span("c", 90, 120, parent=0),  # reaches past the parent's end
    ]
    assert spans.self_times(recorded)[0] == 100 - 60 - 10


def test_covered_length_merges_touching_and_disjoint_intervals():
    assert spans.covered_length([(0, 5), (5, 8), (20, 30)], 0, 25) == 13
    assert spans.covered_length([], 0, 10) == 0
    assert spans.covered_length([(30, 40)], 0, 10) == 0


def test_layer_self_times_add_up_to_root_duration():
    recorded = [
        _span("training", 0, 1000),
        _span("riattn.forward", 100, 300, parent=0),
        _span("riattn.backward", 300, 450, parent=0),
        _span("bingham.loss_grad", 500, 700, parent=0),
        _span("trace.counters", 700, 710, parent=0),
        _span("geometry.knn_graph", 800, 850, parent=0),
    ]
    summary = spans.summarize(recorded)
    assert sum(summary["layer_self"].values()) == 1000
    assert summary["layer_self"]["riattn"] == 350
    assert summary["layer_self"]["training"] == 1000 - 610
    assert summary["calls"]["riattn.forward"] == 1


def test_patched_wraps_records_parents_and_restores_on_error():
    def leaf(x):
        return x + 1

    def outer(x):
        return ns.leaf(x) * 2

    ns = types.SimpleNamespace(leaf=leaf, outer=outer)
    counted = []
    tracer = spans.Tracer()
    targets = [
        (ns, "outer", "lrf.frames", None),
        (ns, "leaf", "geometry.knn_graph", lambda tr, a, kw, r: counted.append(r)),
    ]
    with tracer.patched(targets):
        with tracer.span("bench.encode"):
            assert ns.outer(1) == 4
    assert ns.leaf is leaf and ns.outer is outer
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["bench.encode", "lrf.frames", "geometry.knn_graph", spans.COUNTERS_SPAN]
    # the counter runs after the counted call has closed, beside it rather than inside it
    assert parents == [-1, 0, 1, 1]
    assert counted == [2]

    with pytest.raises(RuntimeError):
        with tracer.patched(targets):
            raise RuntimeError("boom")
    assert ns.leaf is leaf and ns.outer is outer
