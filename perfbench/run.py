"""Run one benchmark workload, or all of them, and print the result.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
End-to-end times and rates are scaled to a reference host speed by a probe
timed around every call (see hostspeed.py); the report lines before the JSON
give the wall-clock figures beside them.  Inputs, outputs and span files go
under ``.perfbench-out/`` in the repository root; inputs and outputs are
deleted when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
# Input generation runs this many times per run; setup_s takes the median.
# setup_s is import + input generation + one discarded warm-up call, scaled to
# the reference host speed like the call times (hostspeed.py).
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("wingtip-train", "scan-features", "scan-invariance", "scan-encode")
# Human-readable name of each workload's throughput figure.
THROUGHPUT_NAMES = {
    "wingtip-train": "train.epochs_per_s",
    "scan-features": "features.points_per_s",
    "scan-invariance": "invariance.trials_per_s",
    "scan-encode": "encode.points_per_s",
}

# Spans of single library functions: calls per op and share of traced op time.
FUNCTION_SPANS = (
    "geometry.knn_graph",
    "lrf.frames",
    "lrf.input_descriptor",
    "descriptors.shadow_of",
    "descriptors.sipf_field",
    "descriptors.audit",
    "bingham.loss_grad",
    "bingham.sample",
    "riattn.forward",
    "riattn.backward",
    "cloudio.load",
    "cloudio.write",
)
# Functions that run on every workload, so their busy seconds per op are never 0.
SECONDS_SPANS = ("geometry.knn_graph", "lrf.frames", "descriptors.shadow_of", "descriptors.sipf_field")
# Self time of each layer (span name prefix), as a share of traced op time.
LAYERS = ("geometry", "lrf", "descriptors", "bingham", "riattn", "training", "cloudio", "cli", "bench")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def run_all(args):
    """Each workload in its own process, one after another; a failing one does not stop the rest."""
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            summary[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = {"correct": False, "exit_code": proc.returncode}
            print(f"[{name}] no result (exit code {proc.returncode})")
    ok = all(s.get("correct") for s in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "sipf" / "__init__.py").is_file():
        return _fail(f"program sources not found at {SRC / 'sipf'}")
    sys.path.insert(0, str(ROOT))
    from perfbench import envinfo

    envinfo.pin_blas_threads(os.environ)
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import sipf

    import_s = time.perf_counter() - t0
    if not Path(sipf.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported sipf from {sipf.__file__}, not from {SRC}")

    from perfbench import hostspeed, spans, stats, workloads

    probe_before_setup = hostspeed.probe()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t)
        tracer = spans.Tracer()
        # One full-size call, discarded, so that timed calls start from a warm
        # heap and filled caches; its time is part of set-up.
        warmup = run_call(wl, tracer, traced=False)
        setup_wall_s = import_s + stats.median(setup_times) + warmup["seconds"]
        # Scaled like the call times, by the mean of the probes around set-up.
        setup_s = hostspeed.scale(setup_wall_s, (probe_before_setup + hostspeed.probe()) / 2)
        setup_note = (f"setup_s wall clock {setup_wall_s:.4g} s: import {import_s:.4g} s, input generation"
                      f" {stats.median(setup_times):.4g} s (median of {SETUP_REPEATS}),"
                      f" warm-up call {warmup['seconds']:.4g} s")
        records = measure(wl, tracer, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        wl.check(records)
        env = envinfo.record(ROOT, args.seed, wl.sizes())
        if args.trace:
            tracer.write_jsonl(OUT_DIR / f"{tag}-spans.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(records) * wl.ops_per_call
    failed = sum(r["failure"] is not None for r in records) * wl.ops_per_call
    if args.trace:
        metrics, notes = layer_metrics(wl, tracer, records)
    else:
        metrics, notes = end_to_end_metrics(wl, records, setup_s, peak_rss_mb)
        notes.append(setup_note)
    notes.append("call seconds: " + " ".join(
        f"{r['seconds']:.4f}{'T' if r['traced'] else ''}" for r in records))
    notes.append("host-speed probe ms around each call: " + " ".join(
        f"{r['probe_s'] * 1000:.2f}" for r in records))
    notes.append(f"fail_frac = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    failures = Counter(r["failure"] for r in records if r["failure"] is not None)
    if failures:
        notes.append("failed calls by cause: " + json.dumps(dict(failures), sort_keys=True))
    notes.append("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"{tag}-result.json", "w") as handle:
        json.dump({**result, "notes": notes, "env": env}, handle, indent=1)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


def measure(wl, tracer, seconds, trace):
    """Closed loop: one call after another until the next would end past ``seconds``.

    With tracing, calls alternate untraced and traced so that the run also
    gives the tracing overhead.  A call that raises, exits nonzero, or whose
    output cannot be captured is recorded as failed and the loop goes on.
    The host-speed probe runs before the first call and after every call;
    each record keeps the mean of the two probes around its call.
    """
    from perfbench import hostspeed

    records = []
    start = time.perf_counter()
    before = hostspeed.probe()
    while True:
        traced = trace and len(records) % 2 == 1
        record = run_call(wl, tracer, traced)
        after = hostspeed.probe()
        record["probe_s"] = (before + after) / 2
        before = after
        records.append(record)
        elapsed = time.perf_counter() - start
        typical = sorted(r["seconds"] for r in records)[len(records) // 2]
        if elapsed + typical > seconds and (not trace or len(records) >= 2):
            return records


def run_call(wl, tracer, traced):
    failure = None
    code = None
    with tracer.patched(wl.targets()) if traced else nullcontext():
        tracer.op_id += traced
        t = time.perf_counter()
        try:
            with tracer.span(wl.root_span) if traced else nullcontext():
                code = wl.call()
        except (Exception, SystemExit) as exc:
            failure = type(exc).__name__
            traceback.print_exc(file=sys.stderr)
        seconds = time.perf_counter() - t
    if failure is None and code not in (None, 0):
        failure = f"exit:{code}"
    captured = None
    if failure is None:
        try:
            captured = wl.capture()
        except Exception as exc:
            failure = f"capture:{type(exc).__name__}"
            traceback.print_exc(file=sys.stderr)
    return {"traced": traced, "seconds": seconds, "failure": failure, "captured": captured}


def _usable(records, traced):
    """Successful calls of one kind; all calls of that kind if none succeeded."""
    same = [r for r in records if r["traced"] == traced]
    return [r for r in same if r["failure"] is None] or same


def _scaled_seconds(records):
    from perfbench import hostspeed

    return [hostspeed.scale(r["seconds"], r["probe_s"]) for r in records]


def end_to_end_metrics(wl, records, setup_s, peak_rss_mb):
    """Rates and op times at the reference host speed (see hostspeed.py); wall figures go in the notes."""
    from perfbench import hostspeed, stats

    calls = _usable(records, traced=False)
    scaled = _scaled_seconds(calls)
    op_ms = [s * 1000 / wl.ops_per_call for s in scaled]
    throughput = len(calls) * wl.work_per_call / sum(scaled)
    wall_op_ms = [r["seconds"] * 1000 / wl.ops_per_call for r in calls]
    wall_throughput = len(calls) * wl.work_per_call / sum(r["seconds"] for r in calls)
    probe_ms = [r["probe_s"] * 1000 for r in calls]
    metrics = {
        "scaled_throughput": (throughput, "1/s"),
        "scaled_op_ms.p50": (stats.median(op_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"scaled_throughput = {throughput:.6g} {wl.work_label}/s ({THROUGHPUT_NAMES[wl.name]}"
        f" at the reference host speed; wall clock {wall_throughput:.6g})",
        f"scaled_op_ms.p50 = {stats.median(op_ms):.6g} ms over {len(op_ms)} calls"
        f" of {wl.ops_per_call} op(s) each (wall clock {stats.median(wall_op_ms):.6g} ms)",
        f"host-speed probe = {stats.median(probe_ms):.6g} ms median, {min(probe_ms):.6g} to"
        f" {max(probe_ms):.6g} ms (reference {hostspeed.REFERENCE_S * 1000:g} ms)",
        f"setup_s = {setup_s:.6g} s at the reference host speed",
        f"peak_rss_mb = {peak_rss_mb:.6g} MB",
    ]
    tail = stats.tail(op_ms)
    if tail is None:
        notes.append(f"scaled_op_ms.tail = n/a: {len(op_ms)} samples, fewer than a tail percentile needs")
    else:
        notes.append(f"scaled_op_ms.tail = {tail[1]:.6g} ms at p{tail[0]:g} of {len(op_ms)} samples")
    return metrics, notes


def layer_metrics(wl, tracer, records):
    from perfbench import envinfo, spans, stats

    summary = spans.summarize(tracer.spans)
    traced = [r for r in records if r["traced"]]
    ops = len(traced) * wl.ops_per_call
    op_ns = summary["busy"][wl.root_span]
    counts, busy, calls = tracer.counts, summary["busy"], summary["calls"]
    m = {}
    for name in FUNCTION_SPANS:
        m[f"{name}.calls"] = (calls[name] / ops, "calls/op")
        m[f"{name}.share"] = (busy[name] / op_ns, "frac")
    for name in SECONDS_SPANS:
        m[f"{name}.s"] = (busy[name] / ops / 1e9, "s")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (summary["layer_self"][layer] / op_ns, "frac")
    edges = counts["descriptors.sipf_field.edges"]
    m["descriptors.sipf_field.edges"] = (edges / ops, "count")
    m["descriptors.zero_sippf_frac"] = (counts["descriptors.zero_sippf.edges"] / edges if edges else 0.0, "frac")
    m["lrf.invalid_frames"] = (counts["lrf.invalid_frames"] / ops, "count")
    n_samples = calls["bingham.sample"]
    m["bingham.sample.accept_rate"] = (counts["bingham.sample.rate_sum"] / n_samples if n_samples else 0.0, "frac")
    m["riattn.edges"] = (counts["riattn.edges"] / ops, "count")
    m["riattn.act_mb"] = (tracer.maxima["riattn.act_bytes"] / 1e6, "MB")
    m["cloudio.load.bytes"] = (counts["cloudio.load.bytes"] / ops, "B")
    m["cloudio.write.bytes"] = (counts["cloudio.write.bytes"] / ops, "B")
    m["cloudio.floats_formatted"] = (counts["cloudio.floats_formatted"] / ops, "count")
    m["trace.counters_share"] = (summary["layer_self"]["trace"] / op_ns, "frac")
    m["trace.op_ms"] = (op_ns / ops / 1e6, "ms")
    untraced = _scaled_seconds(_usable(records, traced=False))
    traced_s = _scaled_seconds(_usable(records, traced=True))
    m["trace.slowdown"] = (stats.median(traced_s) / stats.median(untraced), "ratio")
    failed = sum(r["failure"] is not None for r in records)
    m["fail_frac"] = (failed / len(records), "frac")

    attributed = sum(summary["layer_self"].values()) / op_ns
    notes = [
        f"traced ops = {ops} in {len(traced)} calls; trace.op_ms = {m['trace.op_ms'][0]:.6g} ms;"
        f" tracing slowdown = {m['trace.slowdown'][0]:.4f}x (traced / untraced median scaled call time)",
        "self-time shares of traced op time: "
        + ", ".join(f"{layer} {m[f'{layer}.self_share'][0]:.4f}" for layer in LAYERS)
        + f", trace.counters {m['trace.counters_share'][0]:.4f}; sum {attributed:.6f}",
        f"riattn.act_mb = {m['riattn.act_mb'][0]:.6g} MB (computed: largest activation record)"
        f" beside caches {json.dumps(envinfo.cache_sizes(), sort_keys=True)}",
        "computed counts (no hardware counters): *.edges, riattn.act_mb, cloudio.*.bytes,"
        " cloudio.floats_formatted; ratios: zero_sippf_frac over sipf_field.edges,"
        " accept_rate over sampler proposals (mean per call), fail_frac over attempted calls",
    ]
    return m, notes


if __name__ == "__main__":
    sys.exit(main())
