"""Every emitted name uses only letters, digits, ``_``, ``.`` and ``-``, and matches BENCHMARK.json."""

import json
import re
import types
from pathlib import Path

from perfbench import run, spans, workloads

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fake_run(root_span="training"):
    tracer = spans.Tracer()
    with tracer.span(root_span):
        with tracer.span("riattn.forward"):
            pass
    wl = types.SimpleNamespace(name="wingtip-train", ops_per_call=5, work_per_call=5,
                               work_label="epochs", root_span=root_span)
    records = [
        {"traced": False, "seconds": 0.5, "failure": None, "probe_s": 0.02},
        {"traced": True, "seconds": 0.6, "failure": None, "probe_s": 0.03},
    ]
    return wl, tracer, records


def test_benchmark_names_and_units_are_well_formed_and_unique():
    bench = _bench()
    names = [w["name"] for w in bench["workloads"]]
    for section in ("end_to_end", "per_layer"):
        for metric in bench[section]:
            assert NAME.match(metric["name"]), metric
            assert UNIT.match(metric["unit"]), metric
            names.append(metric["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_emitted_end_to_end_metrics_match_benchmark():
    wl, _, records = _fake_run()
    metrics, _ = run.end_to_end_metrics(wl, records, setup_s=1.0, peak_rss_mb=80.0)
    declared = {m["name"]: m["unit"] for m in _bench()["end_to_end"]}
    assert {k: unit for k, (value, unit) in metrics.items()} == declared


def test_emitted_per_layer_metrics_match_benchmark():
    wl, tracer, records = _fake_run()
    metrics, _ = run.layer_metrics(wl, tracer, records)
    declared = {m["name"]: m["unit"] for m in _bench()["per_layer"]}
    assert {k: unit for k, (value, unit) in metrics.items()} == declared


def test_span_names_are_well_formed_and_reported():
    span_names = set()
    for cls in workloads.WORKLOADS.values():
        span_names.add(cls.root_span)
    span_names.update(run.FUNCTION_SPANS)
    span_names.add(spans.COUNTERS_SPAN)
    assert all(NAME.match(n) for n in span_names)
    layers = {spans.layer_of(n) for n in span_names} - {"trace"}
    assert layers == set(run.LAYERS)


def test_layer_map_cites_declared_names():
    bench = _bench()
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    assert set(layer_map["workloads"]) == set(run.WORKLOAD_NAMES)
    assert set(layer_map["layers"]) <= set(run.LAYERS)
    for layer in layer_map["layers"].values():
        assert set(layer["metrics"]) <= per_layer
        for metric, workload in layer["moves"] + layer["no_change"]:
            assert metric in end_to_end and workload in run.WORKLOAD_NAMES
