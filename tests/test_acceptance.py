"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import json
import time

import numpy as np

from sipf import bingham
from sipf.cli import load_config, main
from sipf.descriptors import MASK_SIPF, ShadowCloud, shadow_of, sipf_field
from sipf.geometry import PointCloud, Rotation3, knn_graph, random_rotation
from sipf.lrf import FRAME_MODE_BARYCENTER, build_all_lrfs, input_descriptor
from sipf.riattn import RIAttnLayer, layer_forward
from sipf.training import ToyTaskConfig, total_loss

from conftest import mirrored_blob_cloud, pair_rows, primary_axis, random_axes, random_cloud
from test_descriptors import circle_ambiguous_pair
from test_riattn import run_gradcheck


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num} ({name}): PASS [{detail}]")


class TestCriterion1RotationInvariance:
    def test_descriptor_and_layer_invariance(self):
        started = time.monotonic()
        rng = np.random.default_rng(101)
        layers = [RIAttnLayer.init(3, 6, rng), RIAttnLayer.init(6, 6, rng)]
        worst_descriptor = 0.0
        worst_layer = 0.0
        for _ in range(1000):
            cloud = random_cloud(rng, 10)
            graph = knn_graph(cloud, 3)
            axes = random_axes(rng, 10)
            shadow = shadow_of(cloud, axes, random_rotation(rng))
            feats = input_descriptor(cloud, axes)
            base_field = sipf_field(cloud, axes, graph, shadow)
            x = feats
            base_outs = []
            for layer in layers:
                x, _ = layer_forward(layer, base_field, x, graph.indices)
                base_outs.append(x)

            rot = random_rotation(rng).matrix
            cloud_r = PointCloud(points=cloud.points @ rot)
            axes_r = axes @ rot
            shadow_r = ShadowCloud(points=shadow.points @ rot, axes=shadow.axes @ rot)
            feats_r = input_descriptor(cloud_r, axes_r)
            field_r = sipf_field(cloud_r, axes_r, graph, shadow_r)
            worst_descriptor = max(worst_descriptor, np.abs(field_r - base_field).max())
            x = feats_r
            for layer, base_out in zip(layers, base_outs):
                x, _ = layer_forward(layer, field_r, x, graph.indices)
                worst_layer = max(worst_layer, np.abs(x - base_out).max())
        elapsed = time.monotonic() - started
        assert worst_descriptor < 1e-9
        assert worst_layer < 1e-8
        assert elapsed < 30.0
        _report(
            1,
            "rotation invariance",
            f"descriptor dev {worst_descriptor:.2e}, layer dev {worst_layer:.2e}, {elapsed:.1f}s",
        )


class TestCriterion2CircleAmbiguity:
    def test_equal_ppf_separated_sipf(self):
        p_r, a_r, p_j, a_j, p_j2, a_j2, _ = circle_ambiguous_pair()
        shadow_p = p_r + np.array([0.4, -0.7, 0.25])
        shadow_a = primary_axis([-0.3, 0.8, 0.52])
        a, b = pair_rows(p_r, a_r, [(p_j, a_j), (p_j2, a_j2)], shadow_p, shadow_a)
        ppf_gap = np.abs(a[:4] - b[:4]).max()
        separation = np.linalg.norm(a - b)
        assert ppf_gap < 1e-12
        assert separation > 1e-3
        _report(2, "circle ambiguity", f"PPF gap {ppf_gap:.2e}, SiPF separation {separation:.3f}")


class TestCriterion3DegeneracyRegressions:
    def test_b1_axis_alignment_collapse(self):
        p_r, a_r, p_j, a_j, p_j2, a_j2, axis = circle_ambiguous_pair()
        shadow_p = p_r + 0.6 * axis
        a, b = pair_rows(p_r, a_r, [(p_j, a_j), (p_j2, a_j2)], shadow_p, a_r)
        separation = np.linalg.norm(a[4:] - b[4:])
        assert separation < 1e-6
        _report(3, "B.1 shadow-axis alignment", f"shadow-block separation {separation:.2e}")

    def test_b2_shadow_local_coincidence(self):
        rng = np.random.default_rng(31)
        cloud, half_turn = mirrored_blob_cloud(rng)
        graph = knn_graph(cloud, 6)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        shadow = shadow_of(cloud, axes, Rotation3(half_turn))
        field = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF)
        half = len(cloud) // 2
        gap = np.abs(field[:half] - field[half:]).max()
        assert gap < 1e-9
        _report(3, "B.2 shadow-local coincidence", f"mirrored stack gap {gap:.2e}")


class TestCriterion4WingTipExperiment:
    def test_collapse_and_rescue(self, tmp_path):
        started = time.monotonic()
        out_dir = tmp_path / "demo"
        assert main(["demo-wingtip", "--out", str(out_dir)]) == 0
        elapsed = time.monotonic() - started
        summary = json.loads((out_dir / "summary.json").read_text())
        ppf_accs = [
            json.loads(line)["accuracy"]
            for line in (out_dir / "metrics-ppf.jsonl").read_text().strip().split("\n")
        ]
        sipf_accs = [
            json.loads(line)["accuracy"]
            for line in (out_dir / "metrics-sipf.jsonl").read_text().strip().split("\n")
        ]
        assert len(sipf_accs) == 200
        assert max(ppf_accs) <= 0.60
        assert max(sipf_accs) >= 0.95
        assert summary["collapse_confirmed"] is True
        assert elapsed < 600.0
        _report(
            4,
            "wing-tip collapse/rescue",
            f"ppf max {max(ppf_accs):.3f}, sipf best {max(sipf_accs):.3f} "
            f"(first at epoch {summary['sipf_first_epoch_at_target']}), {elapsed:.0f}s",
        )


class TestCriterion5SamplerStatistics:
    def test_scatter_alignment_and_containment(self):
        started = time.monotonic()
        v = bingham.birdal_V(np.array([0.3, -0.5, 0.8, 0.1]))
        params = bingham.BinghamParams(V=v, lambdas=np.array([-10.0, -5.0, -2.0, 0.0]))
        qs = bingham.sample_with_rate(params, np.random.default_rng(52), 100_000)[0]
        scatter = qs.T @ qs / len(qs)
        _, vecs = np.linalg.eigh(scatter)
        worst_angle = 0.0
        for i in range(4):
            cosine = abs(vecs[:, i] @ params.V[:, i])
            worst_angle = max(worst_angle, np.degrees(np.arccos(min(1.0, cosine))))
        assert worst_angle < 2.0

        concentrated = bingham.BinghamParams(V=v, lambdas=np.array([-200.0, -200.0, -200.0, 0.0]))
        qs2 = bingham.sample_with_rate(concentrated, np.random.default_rng(53), 10_000)[0]
        mode_q = bingham.mode(concentrated).array
        dist = np.arccos(np.clip(np.abs(qs2 @ mode_q), 0.0, 1.0))
        containment = (dist < 0.2).mean()
        elapsed = time.monotonic() - started
        assert containment >= 0.99
        assert elapsed < 60.0
        _report(
            5,
            "sampler statistics",
            f"eigvec angle {worst_angle:.2f} deg, containment {containment:.4f}, {elapsed:.1f}s",
        )


class TestCriterion6EntropyFormula:
    def test_three_regimes_and_uniform_limit(self):
        v = bingham.birdal_V(np.array([0.3, -0.5, 0.8, 0.1]))
        regimes = {
            "diffuse": np.array([-0.5, -0.3, -0.1, 0.0]),
            "moderate": np.array([-10.0, -5.0, -2.0, 0.0]),
            "concentrated": np.array([-100.0, -100.0, -100.0, 0.0]),
        }
        gaps = {}
        for name, lam in regimes.items():
            params = bingham.BinghamParams(V=v, lambdas=lam)
            qs = bingham.sample_with_rate(params, np.random.default_rng(61), 100_000)[0]
            res = bingham.normalization(params)
            proj = qs @ params.V
            log_density = (proj**2 * params.lambdas).sum(axis=1) - np.log(res.F)
            mc_entropy = -log_density.mean()
            gaps[name] = abs(res.entropy - mc_entropy)
            assert gaps[name] < 0.02

        uniform = bingham.BinghamParams(V=v, lambdas=np.array([-3e-6, -2e-6, -1e-6, 0.0]))
        uniform_gap = abs(bingham.normalization(uniform).entropy - np.log(2 * np.pi**2))
        assert uniform_gap < 1e-3
        detail = ", ".join(f"{k} {v:.4f}" for k, v in gaps.items())
        _report(6, "entropy formula", f"MC gaps: {detail}; uniform gap {uniform_gap:.1e}")


class TestCriterion7GradientCorrectness:
    def test_finite_difference_match(self):
        worst = run_gradcheck(
            np.random.default_rng(71), n=8, k=3, c_in=3, hidden=4, c_out=4
        )
        _report(7, "gradient correctness", f"worst relative error {worst:.2e}")


class TestCriterion8LossIdentity:
    def test_matched_losses_sweep_and_config_default(self, tmp_path):
        worst = 0.0
        for t in np.linspace(0.0, 10.0, 41):
            for delta in np.linspace(0.0, 2.0, 21):
                worst = max(worst, abs(total_loss(t, 0.1 * t, delta) - t))
        assert worst <= 2.1e-6  # the 1e-12 smoothing floor contributes delta * 1e-6
        assert ToyTaskConfig().delta == 0.8
        config_path = tmp_path / "config.json"
        config_path.write_text('{"delta": 0.8}')
        assert load_config(str(config_path)).delta == 0.8
        _report(8, "loss identity", f"max deviation {worst:.2e}, delta default 0.8")


class TestCriterion9CliDeterminism:
    def test_every_command_byte_identical(self, tmp_path):
        cloud_path = tmp_path / "cloud.xyz"
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, (12, 3))
        cloud_path.write_text(
            "\n".join(" ".join(repr(float(v)) for v in row) for row in pts) + "\n"
        )
        fast = tmp_path / "fast.json"
        fast.write_text('{"epochs": 3, "k": 6, "seed": 4}')

        invocations = {
            "features": ["features", "--input", str(cloud_path), "--k", "4", "--seed", "2"],
            "verify-invariance": [
                "verify-invariance", "--input", str(cloud_path), "--k", "4",
                "--seed", "2", "--trials", "10",
            ],
            "bingham-sample": ["bingham", "sample", "-n", "100", "--seed", "2"],
            "bingham-entropy": ["bingham", "entropy", "--seed", "2"],
            "bingham-mode": ["bingham", "mode", "--seed", "2"],
            "train-toy": ["train-toy", "--config", str(fast)],
        }
        for name, argv in invocations.items():
            outs = []
            for run in range(2):
                out = tmp_path / f"{name}-{run}.out"
                assert main(argv + ["--out", str(out)]) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1], f"{name} output differs between runs"

        demo_outputs = []
        for run in range(2):
            out_dir = tmp_path / f"demo-{run}"
            assert main(["demo-wingtip", "--config", str(fast), "--out", str(out_dir)]) == 0
            demo_outputs.append(
                tuple(
                    (out_dir / f).read_bytes()
                    for f in ("summary.json", "metrics-sipf.jsonl", "metrics-ppf.jsonl")
                )
            )
        assert demo_outputs[0] == demo_outputs[1]
        _report(9, "CLI determinism", f"{len(invocations) + 1} commands byte-identical across runs")
