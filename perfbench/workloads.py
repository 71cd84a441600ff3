"""The four closed-loop workloads: one client issuing one call after another.

Each workload generates its inputs from the seed in ``setup`` (files for the
CLI workloads, arrays for the library workloads) and runs one call per
``call``.  ``capture`` takes a digest of a call's output outside the timed
region, and ``check`` compares the digests of a run against each other or
against a reference.  ``targets`` names the functions a traced call wraps, in
the namespaces where the program (or this benchmark, for the library
workload) looks them up.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import types

import numpy as np

import sipf.bingham
import sipf.cli
import sipf.training
from sipf import cloudio, descriptors, geometry, lrf, riattn, training

from perfbench import scans

K = 20
INVARIANCE_BOUND = 1e-8  # the CLI's fixed invariance contract
_CSV_FLOAT_COLUMNS = 8


# -- counters run by traced wrappers (their time is recorded as trace.counters) --

def _count_field(tracer, args, kwargs, result):
    valid = kwargs.get("valid")
    rows = result if valid is None else result[np.asarray(valid, dtype=bool)]
    tracer.add("descriptors.sipf_field.edges", rows.shape[0] * rows.shape[1])
    tracer.add("descriptors.zero_sippf.edges", int(np.count_nonzero(~rows[..., 4:].any(axis=-1))))


def _count_invalid_frames(tracer, args, kwargs, result):
    tracer.add("lrf.invalid_frames", int(np.count_nonzero(~np.asarray(result[1]))))


def _count_forward(tracer, args, kwargs, result):
    idx = args[3] if len(args) > 3 else kwargs["neighbor_idx"]
    tracer.add("riattn.edges", np.asarray(idx).size)
    act = result[1]
    nbytes = sum(v.nbytes for v in vars(act).values() if isinstance(v, np.ndarray))
    tracer.keep_max("riattn.act_bytes", nbytes)


def _count_sample(tracer, args, kwargs, result):
    tracer.add("bingham.sample.rate_sum", float(result[1]))


def _count_load(tracer, args, kwargs, result):
    tracer.add("cloudio.load.bytes", os.path.getsize(args[0]))


def _count_write(tracer, args, kwargs, result):
    tracer.add("cloudio.write.bytes", len(args[1].encode()))


def _count_csv_write(tracer, args, kwargs, result):
    _count_write(tracer, args, kwargs, result)
    rows = args[1].count("\n") - 1  # minus the header
    tracer.add("cloudio.floats_formatted", rows * _CSV_FLOAT_COLUMNS)


def _present(targets):
    """Drop targets whose attribute no longer exists, so a refactor does not break tracing."""
    return [t for t in targets if hasattr(t[0], t[1])]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _same_digest(records, label):
    """Mark every call whose digest differs from the first successful call's."""
    first = next((r["captured"] for r in records if r["failure"] is None), None)
    for r in records:
        if r["failure"] is None and r["captured"] != first:
            r["failure"] = label


class Workload:
    name = ""
    root_span = ""
    work_label = ""  # unit of the throughput figure, e.g. "points"
    ops_per_call = 1
    work_per_call = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rng_key = [seed, sum(self.name.encode())]

    def path(self, name):
        return os.path.join(self.workdir, name)


class WingtipTrain(Workload):
    """``train_toy`` on the demo wing-tip dataset; one call trains EPOCHS epochs."""

    name = "wingtip-train"
    root_span = "training"
    work_label = "epochs"
    EPOCHS = 5
    ops_per_call = EPOCHS
    work_per_call = EPOCHS

    def setup(self):
        self.dataset = training.make_wingtip_dataset(
            n_clouds=training.DEFAULT_N_CLOUDS,
            points_per_cloud=training.DEFAULT_POINTS_PER_CLOUD,
            noise_sigma=0.0,
            seed=self.seed + 1000,
        )
        self.config = training.ToyTaskConfig(epochs=self.EPOCHS, k=K, seed=self.seed)

    def call(self):
        self.result = training.train_toy(self.dataset, self.config)

    def capture(self):
        metrics = self.result.metrics
        for m in metrics:
            values = [m["task_loss"], m["bingham_loss"], m["total_loss"], m["accuracy"], *m["rg_quaternion"]]
            if not all(math.isfinite(v) for v in values):
                raise ValueError("non-finite training metric")
            if not 0.0 <= m["accuracy"] <= 1.0:
                raise ValueError("accuracy outside [0, 1]")
        return hashlib.sha256(training.metrics_to_jsonl(metrics).encode()).hexdigest()

    def check(self, records):
        _same_digest(records, "check:metrics_jsonl_differs")

    def sizes(self):
        return {
            "clouds": training.DEFAULT_N_CLOUDS,
            "points_per_cloud": training.DEFAULT_POINTS_PER_CLOUD,
            "k": self.config.k,
            "epochs_per_call": self.EPOCHS,
            "bingham_loss": getattr(self.config, "bingham_loss_kind", None),
            "quadrature_order": getattr(self.config, "quadrature_order", None),
        }

    def targets(self):
        t, b = sipf.training, sipf.bingham
        return _present([
            (t, "knn_graph", "geometry.knn_graph", None),
            (t, "build_all_lrfs", "lrf.frames", None),
            (t, "input_descriptor", "lrf.input_descriptor", None),
            (t, "shadow_of", "descriptors.shadow_of", None),
            (t, "sipf_field", "descriptors.sipf_field", _count_field),
            (t, "detect_axis_alignment", "descriptors.audit", None),
            (t, "layer_forward", "riattn.forward", _count_forward),
            (t, "backward", "riattn.backward", None),
            (b, "bingham_loss_and_seed_gradient", "bingham.loss_grad", None),
            (b, "sample_with_rate", "bingham.sample", _count_sample),
        ])


def _cli_targets(write_counter):
    c = sipf.cli
    return _present([
        (c, "load_cloud", "cloudio.load", _count_load),
        (c, "write_text_atomic", "cloudio.write", write_counter),
        (c, "knn_graph", "geometry.knn_graph", None),
        (c, "try_build_all_lrfs", "lrf.frames", _count_invalid_frames),
        (c, "shadow_of", "descriptors.shadow_of", None),
        (c, "sipf_field", "descriptors.sipf_field", _count_field),
    ])


def _quaternion_text(rng):
    q = rng.standard_normal(4)
    return ",".join(repr(float(v)) for v in q / np.linalg.norm(q))


class ScanFeatures(Workload):
    """``sipf features`` on a 5k-point torus scan with normals; one call is one command.

    5k points keep a command near 1.5 s, so a run holds enough commands for a
    steady median and the host-speed probes around each stay close to it.
    """

    name = "scan-features"
    root_span = "cli"
    work_label = "points"
    N = 5000
    work_per_call = N

    def _argv(self):
        return ["features", "--input", self.input, "--out", self.out, "--k", str(K),
                f"--rotation={self.rotation}"]

    def setup(self):
        rng = np.random.default_rng(self.rng_key)
        self.rotation = _quaternion_text(rng)
        self.input = self.path("scan.xyz")
        self.out = self.path("features.csv")
        scans.write_xyz(self.input, *scans.torus_scan(rng, self.N, with_normals=True))

    def call(self):
        return sipf.cli.main(self._argv())

    def capture(self):
        return _file_digest(self.out)

    def check(self, records):
        expected = reference_features_digest(self.input, self.rotation)
        for r in records:
            if r["failure"] is None and r["captured"] != expected:
                r["failure"] = "check:csv_differs_from_reference"

    def sizes(self):
        return {"points": self.N, "k": K, "normals": True, "frame_mode": "normal"}

    def targets(self):
        return _cli_targets(_count_csv_write)


def reference_features_digest(src, rotation_text):
    """SHA-256 of the CSV ``features`` must emit, built with plain ``format(v, ".17g")``."""
    cloud = cloudio.load_cloud(src)
    graph = geometry.knn_graph(cloud, K)
    frames, valid = lrf.try_build_all_lrfs(cloud, graph, lrf.FRAME_MODE_NORMAL)
    q = geometry.UnitQuaternion.from_array([float(p) for p in rotation_text.split(",")])
    shadow = descriptors.shadow_of(cloud, frames, geometry.quat_to_matrix(q))
    moved = np.linalg.norm(shadow.points - cloud.points, axis=1) >= descriptors.COINCIDENT_DISTANCE_FLOOR
    valid = valid & moved
    field = descriptors.sipf_field(cloud, frames, graph, shadow, mask=descriptors.MASK_SIPF, valid=valid)
    h = hashlib.sha256(b"ref_index,nbr_index,ppf1,ppf2,ppf3,ppf4,sippf1,sippf2,sippf3,sippf4\n")
    valid_list = valid.tolist()
    for r, (nbrs, rows) in enumerate(zip(graph.indices.tolist(), field.tolist())):
        if not valid_list[r]:
            continue
        lines = [
            f"{r},{j}," + ",".join(format(v, ".17g") for v in row) + "\n"
            for j, row in zip(nbrs, rows)
            if valid_list[j]
        ]
        h.update("".join(lines).encode())
    return h.hexdigest()


class ScanInvariance(Workload):
    """``sipf verify-invariance`` on a 5k-point coordinates-only scan; one op is one trial."""

    name = "scan-invariance"
    root_span = "cli"
    work_label = "trials"
    N = 5000
    TRIALS = 20  # about 1.7 s a command; load, knn and frames are about a fifth of it
    ops_per_call = TRIALS
    work_per_call = TRIALS

    def _argv(self):
        return ["verify-invariance", "--input", self.input, "--out", self.out, "--k", str(K),
                "--seed", str(self.seed), "--trials", str(self.TRIALS)]

    def setup(self):
        rng = np.random.default_rng(self.rng_key)
        self.input = self.path("scan.xyz")
        self.out = self.path("invariance.json")
        scans.write_xyz(self.input, scans.torus_scan(rng, self.N, with_normals=False)[0])

    def call(self):
        return sipf.cli.main(self._argv())

    def capture(self):
        with open(self.out) as handle:
            return json.load(handle)

    def check(self, records):
        for r in records:
            if r["failure"] is None:
                report = r["captured"]
                if report.get("pass") is not True or not report["max_abs_deviation"] <= INVARIANCE_BOUND:
                    r["failure"] = "check:invariance_not_within_1e-8"

    def sizes(self):
        return {"points": self.N, "k": K, "normals": False, "frame_mode": "barycenter",
                "trials_per_call": self.TRIALS}

    def targets(self):
        return _cli_targets(_count_write)


class ScanEncode(Workload):
    """One forward and backward pass over a 5k-point scan through two attention layers.

    At 5k points the 16->16 activation record is about 100 MB, far above L2,
    so riattn is bound by memory traffic, while a pass stays near 1 s.
    """

    name = "scan-encode"
    root_span = "bench.encode"
    work_label = "points"
    N = 5000
    HIDDEN = 16
    work_per_call = N

    def setup(self):
        rng = np.random.default_rng(self.rng_key)
        self.lib = types.SimpleNamespace(
            knn_graph=geometry.knn_graph,
            try_build_all_lrfs=lrf.try_build_all_lrfs,
            input_descriptor=lrf.input_descriptor,
            shadow_of=descriptors.shadow_of,
            sipf_field=descriptors.sipf_field,
            layer_forward=riattn.layer_forward,
            backward=riattn.backward,
        )
        self.cloud = geometry.PointCloud(*scans.torus_scan(rng, self.N, with_normals=True))
        self.rotation = geometry.random_rotation(rng)
        self.layers = [
            riattn.RIAttnLayer.init(3, self.HIDDEN, rng),
            riattn.RIAttnLayer.init(self.HIDDEN, self.HIDDEN, rng),
        ]
        self.d_output = rng.standard_normal((self.N, self.HIDDEN)) / self.N

    def call(self):
        lib = self.lib
        cloud = self.cloud
        graph = lib.knn_graph(cloud, K)
        frames, valid = lib.try_build_all_lrfs(cloud, graph, lrf.FRAME_MODE_NORMAL)
        shadow = lib.shadow_of(cloud, frames, self.rotation)
        pose = lib.sipf_field(cloud, frames, graph, shadow, mask=descriptors.MASK_SIPF, valid=valid)
        x = lib.input_descriptor(cloud, frames)
        acts = []
        for layer in self.layers:
            x, act = lib.layer_forward(layer, pose, x, graph.indices)
            acts.append(act)
        grads = []
        d_x = self.d_output
        for layer, act in zip(reversed(self.layers), reversed(acts)):
            g, d_x = lib.backward(layer, d_x, act)
            grads.append(g)
        self.result = x, grads, d_x

    def capture(self):
        out, grads, d_in = self.result
        self.result = None  # release the pass's arrays before the next call
        arrays = [out, d_in] + [a for g in grads for a in (g if isinstance(g, dict) else g.as_dict()).values()]
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("non-finite output or gradient")
        return _digest(*arrays)

    def check(self, records):
        _same_digest(records, "check:encode_not_bitwise_repeatable")

    def sizes(self):
        return {"points": self.N, "k": K, "normals": True, "frame_mode": "normal",
                "layers": f"3->{self.HIDDEN}->{self.HIDDEN}"}

    def targets(self):
        lib = self.lib
        return _present([
            (lib, "knn_graph", "geometry.knn_graph", None),
            (lib, "try_build_all_lrfs", "lrf.frames", _count_invalid_frames),
            (lib, "input_descriptor", "lrf.input_descriptor", None),
            (lib, "shadow_of", "descriptors.shadow_of", None),
            (lib, "sipf_field", "descriptors.sipf_field", _count_field),
            (lib, "layer_forward", "riattn.forward", _count_forward),
            (lib, "backward", "riattn.backward", None),
        ])


WORKLOADS = {w.name: w for w in (WingtipTrain, ScanFeatures, ScanInvariance, ScanEncode)}
