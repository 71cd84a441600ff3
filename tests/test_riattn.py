import concurrent.futures
import gc
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipf import bingham, lanes, riattn
from sipf.descriptors import MASK_PPF, MASK_SIPF, shadow_of, sipf_field
from sipf.errors import InvalidArgumentError, NumericError
from sipf.geometry import PointCloud, apply_rotation, knn_graph, random_rotation, rotation_from_axis_angle
from sipf.lrf import FRAME_MODE_BARYCENTER, build_all_lrfs, input_descriptor
from sipf.riattn import (
    LEAKY_SLOPE,
    RIAttnLayer,
    _attend,
    _buffers,
    backward,
    layer_forward,
    total_loss,
    total_loss_gradients,
)
from sipf.training import ClassifierHead, _cross_entropy, make_wingtip_dataset

from conftest import random_cloud


def _zero_layer(c_in, c_out, hidden=None):
    h = hidden or c_in
    return RIAttnLayer(
        c_in=c_in,
        c_out=c_out,
        mlp_w1=np.zeros((8, h)),
        mlp_b1=np.zeros(h),
        mlp_w2=np.zeros((h, c_in)),
        mlp_b2=np.zeros(c_in),
        fuse_w=np.zeros((2 * c_in, c_out)),
        fuse_b=np.zeros(c_out),
    )


def _random_instance(rng, n=10, k=4, c_in=3, c_out=5):
    cloud = random_cloud(rng, n)
    graph = knn_graph(cloud, k)
    frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
    shadow = shadow_of(cloud, frames, random_rotation(rng))
    pose = sipf_field(cloud, frames, graph, shadow)
    feats = input_descriptor(cloud, frames)
    layer = RIAttnLayer.init(c_in, c_out, rng)
    return cloud, graph, frames, shadow, pose, feats, layer


def _encode(cloud, frames, graph, shadow, feats, layer, mask=MASK_SIPF):
    """Descriptor field plus one layer pass, as a library caller composes them."""
    pose = sipf_field(cloud, frames, graph, shadow, mask=mask)
    out, _ = layer_forward(layer, pose, feats, graph.indices)
    return out


def _one_stack(layer, pose_stack, neighbor_features, x_r=None):
    """layer_forward on a single reference row (point 0) with its k x 8 stack.

    Point 0's neighbors are points 1..k, whose features are the given rows;
    the other rows of the cloud only list point 0 and are not inspected.
    Returns point 0's output, the activation record, and the per-edge
    intermediates of every row from the layer's block function, row-major.
    """
    pose_stack = np.asarray(pose_stack, dtype=float)
    xn = np.asarray(neighbor_features, dtype=float)
    k = len(pose_stack)
    x_r = np.zeros(xn.shape[1]) if x_r is None else np.asarray(x_r, dtype=float)
    feats = np.vstack([x_r, xn])
    pose = np.tile(pose_stack, (k + 1, 1, 1))
    idx = np.array([np.arange(1, k + 1)] + [[0] * k] * k)
    out, act = layer_forward(layer, pose, feats, idx)
    return out[0], act, _row_major(_attend(layer, pose, feats, idx, 0, k + 1, _buffers()))


def _row_major(block):
    """A block's per-edge arrays in row-major (m, k, .) order, its attention as (m, k, k) rows.

    The block stores them slot-major, (k, m, .), with attention[j, r, i] the
    weight of slot j in row r's output slot i.
    """
    arrays = {name: np.swapaxes(v, 0, 1) for name, v in vars(block).items() if name != "start"}
    arrays["attention"] = block.attention.transpose(1, 2, 0)
    return types.SimpleNamespace(start=block.start, **arrays)


def _row_oracle(layer, pose_stack, xn, x_r):
    """Per-reference composition of the published formula in plain numpy."""
    hidden = pose_stack @ layer.mlp_w1 + layer.mlp_b1
    hidden = np.where(hidden > 0, hidden, LEAKY_SLOPE * hidden)
    w = hidden @ layer.mlp_w2 + layer.mlp_b2
    scores = w @ xn.T / np.sqrt(layer.c_in)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn_out = (e / e.sum(axis=1, keepdims=True)) @ (w * xn)
    return np.concatenate([attn_out.max(axis=0) - x_r, x_r]) @ layer.fuse_w + layer.fuse_b


class TestKernelWeights:
    def test_zero_parameters_zero_output(self, rng):
        layer = _zero_layer(3, 4)
        _, _, blk = _one_stack(layer, rng.standard_normal((5, 8)), rng.standard_normal((5, 3)))
        assert np.array_equal(blk.kernel, np.zeros((6, 5, 3)))

    def test_k1_equals_vector_mlp(self, rng):
        layer = RIAttnLayer.init(3, 4, rng)
        row = rng.standard_normal(8)
        _, _, blk = _one_stack(layer, row[None, :], rng.standard_normal((1, 3)))
        single = blk.kernel[0, 0]
        hidden = row @ layer.mlp_w1 + layer.mlp_b1
        hidden = np.where(hidden > 0, hidden, LEAKY_SLOPE * hidden)
        expected = hidden @ layer.mlp_w2 + layer.mlp_b2
        assert np.abs(single - expected).max() < 1e-15

    def test_matches_row_loop_oracle(self, rng):
        layer = RIAttnLayer.init(4, 4, rng)
        pose = rng.standard_normal((7, 8))
        _, _, blk = _one_stack(layer, pose, rng.standard_normal((7, 4)))
        for i, row in enumerate(pose):
            _, _, single = _one_stack(layer, row[None, :], rng.standard_normal((1, 4)))
            assert np.abs(blk.kernel[0, i] - single.kernel[0, 0]).max() < 1e-14

    def test_shape_mismatch(self, rng):
        layer = RIAttnLayer.init(3, 4, rng)
        with pytest.raises(InvalidArgumentError):
            _one_stack(layer, rng.standard_normal((5, 7)), rng.standard_normal((5, 3)))


class TestRiAttention:
    def test_k1_is_hadamard(self, rng):
        layer = RIAttnLayer.init(4, 2, rng)
        _, _, blk = _one_stack(layer, rng.standard_normal((1, 8)), rng.standard_normal((1, 4)))
        w, x = blk.kernel[0], blk.neighbor_features[0]
        assert np.abs(blk.attn_out[0] - w * x).max() < 1e-15

    def test_identical_rows_identical_output(self, rng):
        layer = RIAttnLayer.init(3, 2, rng)
        pose = np.tile(rng.standard_normal(8), (5, 1))
        xn = np.tile(rng.standard_normal(3), (5, 1))
        _, _, blk = _one_stack(layer, pose, xn)
        out = blk.attn_out[0]
        assert np.abs(out - out[0]).max() < 1e-15

    def test_matches_dense_oracle(self, rng):
        k, c = 6, 4
        layer = RIAttnLayer.init(c, 2, rng)
        _, _, blk = _one_stack(layer, rng.standard_normal((k, 8)), rng.standard_normal((k, c)))
        w, x = blk.kernel[0], blk.neighbor_features[0]
        scores = w @ x.T / np.sqrt(c)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        expected = attn @ (w * x)
        assert np.abs(blk.attn_out[0] - expected).max() < 1e-12

    def test_non_finite_scores(self, rng):
        layer = RIAttnLayer.init(2, 2, rng)
        x = rng.standard_normal((3, 2))
        x[1, 0] = np.inf
        with pytest.raises(NumericError):
            _one_stack(layer, rng.standard_normal((3, 8)), x)


class TestReversedEdgeConv:
    def test_identity_fusion_exposes_concatenation(self, rng):
        c = 3
        layer = RIAttnLayer.init(c, 2 * c, rng)
        layer.fuse_w = np.eye(2 * c)
        layer.fuse_b = np.zeros(2 * c)
        x_r = rng.standard_normal(c)
        out, act, blk = _one_stack(layer, rng.standard_normal((4, 8)), rng.standard_normal((4, c)), x_r)
        expected = np.concatenate([blk.attn_out[0].max(axis=0) - x_r, x_r])
        assert np.array_equal(act.aggregated[0], blk.attn_out[0].max(axis=0))
        assert np.abs(out - expected).max() < 1e-15

    def test_rows_equal_reference_zeroes_first_block(self, rng):
        # Constant kernel weights of one and every neighbor feature equal to
        # x_r: each attention row is a convex mix of copies of x_r.
        c = 4
        layer = _zero_layer(c, 2 * c)
        layer.mlp_b2 = np.ones(c)
        layer.fuse_w = np.eye(2 * c)
        x_r = rng.standard_normal(c)
        out, _, blk = _one_stack(layer, rng.standard_normal((5, 8)), np.tile(x_r, (5, 1)), x_r)
        assert np.abs(blk.attn_out[0] - x_r).max() < 1e-15
        assert np.abs(out[:c]).max() < 1e-15
        assert np.abs(out[c:] - x_r).max() < 1e-15

    def test_matches_dense_oracle(self, rng):
        layer = RIAttnLayer.init(3, 5, rng)
        x_r = rng.standard_normal(3)
        out, _, blk = _one_stack(layer, rng.standard_normal((6, 8)), rng.standard_normal((6, 3)), x_r)
        attn_out = blk.attn_out[0]
        expected = np.concatenate([attn_out.max(axis=0) - x_r, x_r]) @ layer.fuse_w + layer.fuse_b
        assert np.abs(out - expected).max() < 1e-14


class TestLayerForward:
    def test_composition_of_published_ops(self, rng):
        _, graph, _, _, pose, feats, layer = _random_instance(rng)
        out, act = layer_forward(layer, pose, feats, graph.indices)
        for r in range(len(feats)):
            expected = _row_oracle(layer, pose[r], feats[graph.indices[r]], feats[r])
            assert np.abs(out[r] - expected).max() < 1e-12

    def test_attention_rows_sum_to_one(self, rng):
        _, graph, _, _, pose, feats, layer = _random_instance(rng)
        blk = _row_major(_attend(layer, pose, feats, graph.indices, 0, len(feats), _buffers()))
        assert np.abs(blk.attention.sum(axis=-1) - 1.0).max() < 1e-9

    def test_layer_rotation_invariance(self, rng):
        worst = 0.0
        for _ in range(30):
            cloud, graph, frames, shadow, pose, feats, layer = _random_instance(rng)
            base = _encode(cloud, frames, graph, shadow, feats, layer)
            rot = random_rotation(rng)
            m = rot.matrix
            shadow_r = type(shadow)(
                points=shadow.points @ m, frames=shadow.frames @ m, rotation=shadow.rotation
            )
            moved = _encode(apply_rotation(cloud, rot), frames @ m, graph, shadow_r, feats, layer)
            worst = max(worst, np.abs(moved - base).max())
        assert worst < 1e-8

    def test_collapse_and_rescue_at_layer_level(self, rng):
        dataset = make_wingtip_dataset(1, 64, 0.0, seed=3)
        cloud = dataset.clouds[0]
        graph = knn_graph(cloud, 12)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        feats = input_descriptor(cloud, frames)
        layer = RIAttnLayer.init(3, 6, rng)
        half = len(cloud) // 2
        generic = random_rotation(rng)
        shadow = shadow_of(cloud, frames, generic)
        plain_out = _encode(cloud, frames, graph, shadow, feats, layer, mask=MASK_PPF)
        full_out = _encode(cloud, frames, graph, shadow, feats, layer, mask=MASK_SIPF)
        assert np.abs(plain_out[:half] - plain_out[half:]).max() < 1e-9
        assert np.abs(full_out[:half] - full_out[half:]).max() > 1e-3


class TestGoldenTinyInstance:
    def _hand_setup(self):
        p0 = np.array([0.2, 0.1, -0.3])
        p1 = np.array([1.0, -0.4, 0.5])
        f0 = np.eye(3)
        f1 = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        rot = rotation_from_axis_angle([0.0, 0.0, 1.0], np.pi / 2)
        feats = np.array([[0.3, -0.2], [-0.1, 0.4]])
        layer = RIAttnLayer(
            c_in=2,
            c_out=2,
            mlp_w1=0.1 * np.arange(16, dtype=float).reshape(8, 2) - 0.4,
            mlp_b1=np.array([0.05, -0.1]),
            mlp_w2=np.array([[0.2, -0.3], [0.4, 0.1]]),
            mlp_b2=np.array([-0.02, 0.03]),
            fuse_w=np.array([[0.5, -0.1], [0.2, 0.3], [-0.4, 0.2], [0.1, 0.6]]),
            fuse_b=np.array([0.01, -0.02]),
        )
        return p0, p1, f0, f1, rot, feats, layer

    def _hand_sipf(self, pa, fa, pb, fb, sa_p, sa_f):
        def pair(px, ax, py, ay):
            d = [py[0] - px[0], py[1] - px[1], py[2] - px[2]]
            n = (d[0] ** 2 + d[1] ** 2 + d[2] ** 2) ** 0.5
            dot = lambda u, v: u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
            return [n, dot(ax, d) / n, dot(ay, d) / n, dot(ax, ay)]

        plain = pair(pa, fa[0], pb, fb[0])
        da = pair(pa, fa[0], sa_p, sa_f[0])
        db = pair(pb, fb[0], sa_p, sa_f[0])
        diff = [da[i] - db[i] for i in range(4)]
        nd = sum(v * v for v in diff) ** 0.5
        shadow_block = [v / nd for v in diff] if nd >= 1e-12 else [0.0] * 4
        return plain + shadow_block

    def test_hand_unrolled_two_point_layer(self):
        p0, p1, f0, f1, rot, feats, layer = self._hand_setup()
        cloud = PointCloud(points=[p0, p1])
        frames = np.stack([f0, f1])
        graph = knn_graph(cloud, 1)
        shadow = shadow_of(cloud, frames, rot)
        out = _encode(cloud, frames, graph, shadow, feats, layer)

        m = rot.matrix
        expected = []
        for (pa, fa, xa), (pb, fb, xb) in (((p0, f0, feats[0]), (p1, f1, feats[1])),
                                           ((p1, f1, feats[1]), (p0, f0, feats[0]))):
            sa_p = pa @ m
            sa_f = fa @ m
            pose = self._hand_sipf(pa, fa, pb, fb, sa_p, sa_f)
            hidden = [
                sum(pose[i] * layer.mlp_w1[i, h] for i in range(8)) + layer.mlp_b1[h]
                for h in range(2)
            ]
            hidden = [v if v > 0 else LEAKY_SLOPE * v for v in hidden]
            w = [
                sum(hidden[h] * layer.mlp_w2[h, c] for h in range(2)) + layer.mlp_b2[c]
                for c in range(2)
            ]
            # Single neighbor: softmax of one score is 1, output = w * x_neighbor.
            attn_row = [w[c] * xb[c] for c in range(2)]
            fused_in = [attn_row[0] - xa[0], attn_row[1] - xa[1], xa[0], xa[1]]
            row = [
                sum(fused_in[i] * layer.fuse_w[i, c] for i in range(4)) + layer.fuse_b[c]
                for c in range(2)
            ]
            expected.append(row)
        expected = np.array(expected)
        assert np.abs(out - expected).max() < 1e-12
        golden = np.array(
            [
                [-0.24211824869921655, 0.012029344910360801],
                [0.053971657669785816, 0.068938325827224325],
            ]
        )
        assert np.abs(out - golden).max() < 1e-12


class TestBackward:
    def test_zero_parameters_force_zero_kernel_gradients(self, rng):
        _, graph, _, _, pose, feats, _ = _random_instance(rng, c_out=4)
        layer = _zero_layer(3, 4)
        out, act = layer_forward(layer, pose, feats, graph.indices)
        grads, _ = backward(layer, np.ones_like(out), act)
        # Zero fusion weights cut every path into the attention block.
        for name in ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            assert np.array_equal(grads[name], np.zeros_like(grads[name])), name

    def test_max_tie_routes_to_lowest_index(self, rng):
        # Identical pose rows and neighbor features make all attention-output
        # rows equal; the subgradient must pick row 0, and only row 0.
        layer = RIAttnLayer.init(2, 2, rng)
        pose = np.tile(rng.standard_normal(8), (1, 3, 1))
        feats = np.array([[0.5, -0.2]])
        idx = np.zeros((1, 3), dtype=np.int64)
        out, act = layer_forward(layer, pose, feats, idx)
        d_out = rng.standard_normal(out.shape)
        _, inter = einsum_layer_forward(layer, pose, feats, idx)
        assert np.array_equal(inter["argmax"], np.zeros((1, 2), dtype=np.int64))
        ref_grads, ref_d_x = einsum_backward(layer, d_out, inter)
        # Routing to every tied row instead would count d_x_hat three times.
        grads, d_x = backward(layer, d_out, act)
        assert np.abs(d_x - ref_d_x).max() <= 1e-12
        for name, ref in ref_grads.items():
            assert np.abs(grads[name] - ref).max() <= 1e-12, name

    def test_gradients_match_finite_differences(self, rng):
        run_gradcheck(rng, n=8, k=3, c_in=3, hidden=4, c_out=4)


def einsum_layer_forward(layer, pose, feats, idx):
    """Independent einsum transcription of the layer; returns output and intermediates."""
    xn = feats[idx]
    pre = np.einsum("nkp,ph->nkh", pose, layer.mlp_w1) + layer.mlp_b1
    hidden = np.where(pre > 0.0, pre, LEAKY_SLOPE * pre)
    kernel = np.einsum("nkh,hc->nkc", hidden, layer.mlp_w2) + layer.mlp_b2
    scores = np.einsum("nkc,nmc->nkm", kernel, xn) / np.sqrt(layer.c_in)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)
    values = kernel * xn
    attn_out = np.einsum("nkm,nmc->nkc", attn, values)
    argmax = attn_out.argmax(axis=1)
    x_hat = attn_out.max(axis=1)
    fused_input = np.concatenate([x_hat - feats, feats], axis=1)
    out = np.einsum("ni,io->no", fused_input, layer.fuse_w) + layer.fuse_b
    inter = {
        "pose_stack": pose, "features": feats, "neighbor_features": xn, "neighbor_idx": idx,
        "mlp_pre": pre, "mlp_hidden": hidden, "kernel": kernel, "attention": attn,
        "values": values, "attn_out": attn_out, "argmax": argmax, "aggregated": x_hat,
        "fused_input": fused_input, "output": out,
    }
    return out, inter


def einsum_backward(layer, d_out, inter):
    """Reverse mode of einsum_layer_forward; the feature scatter is an explicit edge loop."""
    n, k, c = inter["neighbor_features"].shape
    attn, kernel, xn = inter["attention"], inter["kernel"], inter["neighbor_features"]
    grads = {
        "fuse_w": np.einsum("ni,no->io", inter["fused_input"], d_out),
        "fuse_b": d_out.sum(axis=0),
    }
    d_fused = np.einsum("no,io->ni", d_out, layer.fuse_w)
    d_xhat = d_fused[:, :c]
    d_x = d_fused[:, c:] - d_xhat
    d_attn_out = np.zeros((n, k, c))
    for r in range(n):
        for ch in range(c):
            d_attn_out[r, inter["argmax"][r, ch], ch] = d_xhat[r, ch]
    d_attn = np.einsum("nkc,nmc->nkm", d_attn_out, inter["values"])
    d_values = np.einsum("nkm,nkc->nmc", attn, d_attn_out)
    d_scores = (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * attn / np.sqrt(c)
    d_kernel = d_values * xn + np.einsum("nkm,nmc->nkc", d_scores, xn)
    d_xn = d_values * kernel + np.einsum("nkm,nkc->nmc", d_scores, kernel)
    grads["mlp_w2"] = np.einsum("nkh,nkc->hc", inter["mlp_hidden"], d_kernel)
    grads["mlp_b2"] = d_kernel.sum(axis=(0, 1))
    d_pre = np.einsum("nkc,hc->nkh", d_kernel, layer.mlp_w2)
    d_pre = d_pre * np.where(inter["mlp_pre"] > 0.0, 1.0, LEAKY_SLOPE)
    grads["mlp_w1"] = np.einsum("nkp,nkh->ph", inter["pose_stack"], d_pre)
    grads["mlp_b1"] = d_pre.sum(axis=(0, 1))
    for r in range(n):
        for s in range(k):
            d_x[inter["neighbor_idx"][r, s]] += d_xn[r, s]
    return grads, d_x


def _block_arrays(block):
    """The per-edge intermediates of a block, by name, row-major."""
    return {name: v for name, v in vars(_row_major(block)).items() if name != "start"}


def _record_arrays(act):
    """Every array an activation record holds, the last block's included."""
    arrays = {name: v for name, v in vars(act).items() if isinstance(v, np.ndarray)}
    arrays.update({f"last_block.{name}": v for name, v in vars(act.last_block).items() if name != "start"})
    return arrays


def _random_layer(rng, c_in, hidden, c_out):
    # Fan-in scaled weights as in RIAttnLayer.init, plus non-zero biases so
    # every parameter path carries signal.
    return RIAttnLayer(
        c_in=c_in,
        c_out=c_out,
        mlp_w1=rng.standard_normal((8, hidden)) / np.sqrt(8.0),
        mlp_b1=0.1 * rng.standard_normal(hidden),
        mlp_w2=rng.standard_normal((hidden, c_in)) / np.sqrt(hidden),
        mlp_b2=0.1 * rng.standard_normal(c_in),
        fuse_w=rng.standard_normal((2 * c_in, c_out)) / np.sqrt(2.0 * c_in),
        fuse_b=0.1 * rng.standard_normal(c_out),
    )


class TestEinsumOracle:
    @pytest.mark.parametrize(
        "n, k, c_in, hidden, c_out",
        [
            (1, 1, 1, 1, 1),
            (1, 4, 3, 2, 5),
            (6, 1, 2, 3, 4),
            (7, 3, 1, 4, 2),
            (9, 5, 4, 4, 4),
            (12, 6, 5, 3, 7),
            (20, 8, 16, 16, 16),
        ],
    )
    def test_forward_and_backward_match(self, n, k, c_in, hidden, c_out, monkeypatch):
        rng = np.random.default_rng([n, k, c_in, hidden, c_out])
        layer = _random_layer(rng, c_in, hidden, c_out)
        pose = rng.standard_normal((n, k, 8))
        feats = rng.standard_normal((n, c_in))
        # Random neighbor lists repeat points, so the feature scatter accumulates.
        idx = rng.integers(0, n, (n, k))
        d_out = rng.standard_normal((n, c_out))
        ref_out, inter = einsum_layer_forward(layer, pose, feats, idx)
        ref_grads, ref_d_x = einsum_backward(layer, d_out, inter)

        # One intermediate per edge, from the block function run over all rows.
        for name, got in _block_arrays(_attend(layer, pose, feats, idx, 0, n, _buffers())).items():
            assert got.shape == inter[name].shape, name
            assert np.abs(got - inter[name]).max() <= 1e-12, name

        outputs = []
        for chunk in (1, 7, n):
            monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
            out, act = layer_forward(layer, pose, feats, idx)
            outputs.append(out)
            assert np.abs(out - ref_out).max() <= 1e-12
            assert np.array_equal(act.neighbor_idx, inter["neighbor_idx"])
            for name in ("pose_stack", "features", "aggregated", "fused_input", "output"):
                got = getattr(act, name)
                assert got.shape == inter[name].shape, name
                assert np.abs(got - inter[name]).max() <= 1e-12, name
            # The record keeps the last block, rows start..n-1, and no other.
            start = act.last_block.start
            assert start == (n - 1) // chunk * chunk
            for name, got in _block_arrays(act.last_block).items():
                assert np.abs(got - inter[name][start:]).max() <= 1e-12, name

            grads, d_x = backward(layer, d_out, act)
            assert d_x.shape == (n, c_in)
            assert np.abs(d_x - ref_d_x).max() <= 1e-12
            for name, ref in ref_grads.items():
                got = grads[name]
                assert got.shape == ref.shape, name
                assert np.abs(got - ref).max() <= 1e-12, name
        # Every forward quantity is per row, so the block size leaves the output's bits alone.
        assert all(out.tobytes() == outputs[0].tobytes() for out in outputs)

    def test_exact_ties_route_once_as_the_lowest_index_argmax(self, monkeypatch):
        # Even rows list one point at slots 2 and 5 with equal pose rows, so those
        # slots' attention outputs are equal bit for bit: a column whose max lies
        # there is an exact tie away from slot 0.  Rows 1, 5, 9, ... list only
        # points whose channel 0 is zero, so that channel's output is zero in
        # every slot; their attention rows differ, so only slot 0 gives the
        # oracle's feature gradient.  Rows 3, 7, ... have no tie.
        rng = np.random.default_rng(5)
        n, k, c = 20, 8, 4
        layer = _random_layer(rng, c, 3, 3)
        pose = rng.standard_normal((n, k, 8))
        feats = rng.standard_normal((n, c))
        feats[:5, 0] = 0.0
        idx = rng.integers(0, n, (n, k))
        idx[::2, 5] = idx[::2, 2]
        pose[::2, 5] = pose[::2, 2]
        idx[1::4] = rng.integers(0, 5, (len(idx[1::4]), k))
        d_out = rng.standard_normal((n, 3))
        _, inter = einsum_layer_forward(layer, pose, feats, idx)
        ref_grads, ref_d_x = einsum_backward(layer, d_out, inter)
        attn_out = _row_major(_attend(layer, pose, feats, idx, 0, n, _buffers())).attn_out
        hits = (attn_out == attn_out.max(axis=1, keepdims=True)).sum(axis=1)
        rows, channels = np.arange(n)[:, None], np.arange(c)
        zero_channel = (rows % 4 == 1) & (channels == 0)
        assert np.array_equal(hits > 1, ((inter["argmax"] == 2) & (rows % 2 == 0)) | zero_channel)
        assert np.all(hits[zero_channel] == k) and np.all(inter["argmax"][zero_channel] == 0)
        # One-row blocks take the tie scan on some rows and the count alone on others.
        assert (hits[::2] > 1).any() and not (hits[3::4] > 1).any()
        for chunk in (1, 7, n):
            monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
            _, act = layer_forward(layer, pose, feats, idx)
            grads, d_x = backward(layer, d_out, act)
            assert np.abs(d_x - ref_d_x).max() <= 1e-12
            for name, ref in ref_grads.items():
                assert np.abs(grads[name] - ref).max() <= 1e-12, name

    def test_backward_repeats_bitwise_and_keeps_the_record(self, rng, monkeypatch):
        layer = _random_layer(rng, 4, 5, 3)
        pose, feats = rng.standard_normal((10, 6, 8)), rng.standard_normal((10, 4))
        idx = rng.integers(0, 10, (10, 6))
        d_out = rng.standard_normal((10, 3))
        for chunk in (1, 7, 10):
            monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
            _, act = layer_forward(layer, pose, feats, idx)
            before = {name: np.copy(v) for name, v in _record_arrays(act).items()}
            first = backward(layer, d_out, act)
            second = backward(layer, d_out, act)
            for name, value in _record_arrays(act).items():
                assert value.tobytes() == before[name].tobytes(), name
            assert first[1].tobytes() == second[1].tobytes()
            assert list(first[0]) == list(layer.parameters())
            for name, value in first[0].items():
                assert value.tobytes() == second[0][name].tobytes(), name

    @pytest.mark.parametrize("chunk", [1, 7, 20])
    def test_non_finite_scores_name_the_global_row(self, rng, monkeypatch, chunk):
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
        n = 20
        layer = _random_layer(rng, 2, 2, 2)
        feats = rng.standard_normal((n, 2))
        feats[12, 0] = np.inf
        # Row r lists points r+1..r+3, so rows 9, 10 and 11 see point 12.
        idx = (np.arange(n)[:, None] + np.arange(1, 4)) % n
        with pytest.raises(NumericError, match="at reference row 9$"):
            layer_forward(layer, rng.standard_normal((n, 3, 8)), feats, idx)

    def test_record_is_bounded_by_per_point_arrays_and_one_block(self, rng):
        # The record holds (N, c) arrays and one block of (rows, k, .) intermediates,
        # never an (N, k, k) attention block.  The pose field is the caller's array.
        n, k, c = 2000, 20, 16
        assert riattn._CHUNK_ROWS <= 256  # a block size that grows toward N bounds nothing
        layer = _random_layer(rng, c, c, c)
        pose = rng.standard_normal((n, k, 8))
        _, act = layer_forward(layer, pose, rng.standard_normal((n, c)), rng.integers(0, n, (n, k)))
        assert act.pose_stack is pose
        # features, neighbor_idx, aggregated, fused_input, output
        per_point = 8 * n * (c + k + c + 2 * c + c)
        # pose_stack (slot-major rows), neighbor_features, mlp_hidden, kernel, attention,
        # values, attn_out
        one_block = 8 * riattn._CHUNK_ROWS * k * (8 + c + c + c + k + c + c)
        held = sum(v.nbytes for v in _record_arrays(act).values())
        assert held <= pose.nbytes + per_point + one_block

    def test_empty_cloud_gives_empty_output_and_zero_gradients(self, rng):
        layer = _random_layer(rng, 3, 2, 4)
        out, act = layer_forward(layer, np.zeros((0, 5, 8)), np.zeros((0, 3)), np.zeros((0, 5), dtype=np.int64))
        grads, d_x = backward(layer, np.zeros((0, 4)), act)
        assert out.shape == (0, 4) and d_x.shape == (0, 3)
        for name, p in layer.parameters().items():
            assert np.array_equal(grads[name], np.zeros_like(p)), name

    @pytest.mark.parametrize("chunk", [1, 7, 20])
    def test_minus_inf_score_beside_finite_ones_raises(self, rng, monkeypatch, chunk):
        # A constant kernel (1, 1) scores slot j by the sum of its features, so a
        # -inf feature gives that slot -inf in every output slot while the others
        # stay finite: the slot max misses it, but 0 * -inf reaches x_hat.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
        n = 20
        layer = _zero_layer(2, 2)
        layer.mlp_b2[:] = 1.0
        feats = rng.standard_normal((n, 2))
        feats[12, 0] = -np.inf
        idx = (np.arange(n)[:, None] + np.arange(1, 4)) % n
        with pytest.raises(NumericError, match="non-finite aggregated features at reference row 9$"), \
                np.errstate(invalid="ignore"):
            layer_forward(layer, rng.standard_normal((n, 3, 8)), feats, idx)

    @pytest.mark.parametrize("chunk", [1, 5, 7, 128])
    def test_minus_inf_row_above_a_nan_score_row_is_named_at_every_block_size(self, rng, monkeypatch, chunk):
        # A constant kernel: the -inf feature at point 5 reaches only x_hat of rows 2-4, and
        # the NaN feature at point 10 the scores of rows 7-9.  Row 2 comes first in every block.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
        n = 20
        layer = _zero_layer(2, 2)
        layer.mlp_b2[:] = 1.0
        feats = rng.standard_normal((n, 2))
        feats[5, 0], feats[10, 0] = -np.inf, np.nan
        idx = (np.arange(n)[:, None] + np.arange(1, 4)) % n
        with pytest.raises(NumericError, match="^non-finite aggregated features at reference row 2$"), \
                np.errstate(invalid="ignore"):
            layer_forward(layer, rng.standard_normal((n, 3, 8)), feats, idx)

    def test_infinite_feature_seen_by_a_row_always_raises(self):
        # Random small layers with one +inf feature: whenever some row lists the
        # point as a neighbor, forward raises instead of returning a non-finite output.
        seen = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            layer = RIAttnLayer.init(2, 2, rng)
            pose, feats = rng.standard_normal((6, 3, 8)), rng.standard_normal((6, 2))
            idx = rng.integers(0, 6, (6, 3))
            point = rng.integers(6)
            feats[point, rng.integers(2)] = np.inf
            if point in idx:
                seen += 1
                with pytest.raises(NumericError), np.errstate(invalid="ignore", over="ignore"):
                    layer_forward(layer, pose, feats, idx)
        assert seen > 40

    def test_backward_rejects_neighbor_index_changed_out_of_range(self, rng, monkeypatch):
        # backward recomputes blocks from the recorded index array, the caller's own.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 2)
        layer, inputs, d_out = _layer_problem(rng, 6, 3, 2, 2)
        _, act = layer_forward(layer, *inputs)
        inputs[2][0, 0] = 6
        with pytest.raises(InvalidArgumentError):
            backward(layer, d_out, act)

    def test_neighbor_index_out_of_range_rejected(self, rng):
        layer = _random_layer(rng, 2, 2, 2)
        pose = rng.standard_normal((3, 2, 8))
        feats = rng.standard_normal((3, 2))
        for bad in (-1, 3):
            idx = np.zeros((3, 2), dtype=np.int64)
            idx[1, 1] = bad
            with pytest.raises(InvalidArgumentError):
                layer_forward(layer, pose, feats, idx)


def _layer_problem(rng, n, k, c_in, c_out):
    """A random layer with inputs and an output gradient."""
    layer = _random_layer(rng, c_in, c_in + 1, c_out)
    inputs = (rng.standard_normal((n, k, 8)), rng.standard_normal((n, c_in)), rng.integers(0, n, (n, k)))
    return layer, inputs, rng.standard_normal((n, c_out))


def _forward_backward(layer, inputs, d_out):
    out, act = layer_forward(layer, *inputs)
    grads, d_x = backward(layer, d_out, act)
    return out, act, grads, d_x


def _result_arrays(out, act, grads, d_x):
    """Every array a forward and backward pass hands its caller, by name."""
    arrays = {"output": out, "d_x": d_x, **{f"grad.{name}": g for name, g in grads.items()}}
    arrays.update((f"record.{name}", v) for name, v in _record_arrays(act).items())
    return arrays


class TestBufferReuse:
    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_later_calls_leave_earlier_results_unchanged(self, rng, monkeypatch, chunk):
        # Blocks within a call overwrite one another's buffers; what a call
        # returns, the record's last block included, no later call may.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
        first = _result_arrays(*_forward_backward(*_layer_problem(rng, 40, 6, 4, 3)))
        before = {name: v.tobytes() for name, v in first.items()}
        _forward_backward(*_layer_problem(rng, 40, 6, 4, 3))
        layer, inputs, _ = _layer_problem(rng, 40, 6, 4, 3)
        layer_forward(layer, *inputs)
        for name, value in first.items():
            assert value.tobytes() == before[name], name

    def test_no_block_array_outlives_the_call(self, monkeypatch):
        # Once a multi-block forward and backward return and their results are dropped,
        # neither lane, nor the executor's idle thread, may keep an array of theirs.  The
        # collector is off: arrays held in a reference cycle would live until it ran.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 7)
        problem = _layer_problem(np.random.default_rng(31), 40, 6, 4, 3)
        arrays = []
        empty = np.empty

        def recorded_empty(*args, **kwargs):
            a = empty(*args, **kwargs)
            arrays.append(weakref.ref(a))
            return a

        collecting = gc.isenabled()
        gc.disable()
        try:
            monkeypatch.setattr(np, "empty", recorded_empty)
            results = _forward_backward(*problem)
            monkeypatch.setattr(np, "empty", empty)
            assert len(arrays) > 20
            del results
            # The executor's thread lets go of a lane just after handing its result over.
            deadline = time.monotonic() + 10
            while any(a() is not None for a in arrays) and time.monotonic() < deadline:
                time.sleep(0.01)
            alive = sum(a() is not None for a in arrays)
        finally:
            if collecting:
                gc.enable()
        assert alive == 0

    def test_threads_give_the_serial_bits(self, monkeypatch):
        # More threads than cores alternate forward and backward on layers of different
        # widths, switching often; with buffers shared across calls they would overwrite
        # each other's blocks.  All of them queue their second lanes on the one executor thread.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 7)
        rng = np.random.default_rng(11)
        problems = [_layer_problem(rng, 50, 6, c_in, 3) for c_in in (2, 3, 5, 7)]
        serial = [
            {name: v.tobytes() for name, v in _result_arrays(*_forward_backward(*problem)).items()}
            for problem in problems
        ]
        mismatches, done = [], []

        def run(i):
            for _ in range(20):
                got = _result_arrays(*_forward_backward(*problems[i]))
                mismatches.extend((i, name) for name, v in got.items() if v.tobytes() != serial[i][name])
            done.append(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(problems))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(done) == list(range(len(problems)))
        assert mismatches == []


# A 300-point layer, three 128-row blocks: sha256 of its output and of its
# parameter gradients (in layer.parameters() order), as the single-lane loop
# gave them.  The lanes must keep both bitwise.  d_x adds the lanes' sums, the
# last block's lane first; its digest pins that order.
PINNED_SHA256 = [
    "83f3735b2c7c2e3c8606c01488981b4defd0f5ec6137c752640ebae2411babc0",
    "9a54ada1763faa7f505791a0de2d8ac08afbc7f4132b08a44c190c01de388c65",
    "4804f7ee7713b44263eb2445d10406c61d418cdf16ef7c02817bb1a7ecf28313",
]


def _three_block_digests():
    """sha256 of the 300-point layer's output, parameter gradients and d_x."""
    layer, inputs, d_out = _layer_problem(np.random.default_rng(300), 300, 8, 4, 3)
    out, act = layer_forward(layer, *inputs)
    grads, d_x = backward(layer, d_out, act)
    assert list(grads) == list(layer.parameters())
    arrays = (out.tobytes(), b"".join(g.tobytes() for g in grads.values()), d_x.tobytes())
    return [hashlib.sha256(a).hexdigest() for a in arrays]


def _nan_feature_problem(n, bad_points):
    """A layer whose row r lists points r+1..r+3, with a NaN feature at each bad point:
    every row that lists one has NaN scores, so the first of them is named."""
    rng = np.random.default_rng(23)
    layer = _random_layer(rng, 2, 2, 2)
    feats = rng.standard_normal((n, 2))
    feats[list(bad_points), 0] = np.nan
    idx = (np.arange(n)[:, None] + np.arange(1, 4)) % n
    return layer, rng.standard_normal((n, 3, 8)), feats, idx


class TestLanes:
    @pytest.mark.parametrize("chunk", [1, 7, 40])
    def test_lane_one_runs_on_the_executor_in_caller_allocated_arrays(self, monkeypatch, chunk):
        # Lane 1 runs on the executor's thread whenever it holds a block, and every block
        # array, lane 1's included, is allocated by the calling thread.  Every returned
        # array has the bits of a run whose lane 1 runs in the calling thread.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", chunk)
        problem = _layer_problem(np.random.default_rng(17), 40, 6, 4, 3)
        caller = threading.current_thread()
        ran_on = []
        lane = lanes._lane

        def recorded(blocks, step, number):
            thread = threading.current_thread()
            ran_on.append((number, "caller" if thread is caller else thread.name.rsplit("_", 1)[0]))
            return lane(blocks, step, number)

        monkeypatch.setattr(lanes, "_lane", recorded)
        allocated_here = []
        empty = np.empty

        def recorded_empty(*args, **kwargs):
            allocated_here.append(threading.current_thread() is caller)
            return empty(*args, **kwargs)

        monkeypatch.setattr(np, "empty", recorded_empty)
        on_executor = {name: v.tobytes() for name, v in _result_arrays(*_forward_backward(*problem)).items()}
        # Forward and backward each run lane 0 here and, given a second block, lane 1 on the executor.
        assert sorted(ran_on) == [(0, "caller")] * 2 + [(1, "sipf-lane")] * 2 * (chunk < 40)
        assert allocated_here and all(allocated_here)

        class Inline:
            def submit(self, fn):
                future = concurrent.futures.Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr(lanes, "_executor", Inline())
        inline = {name: v.tobytes() for name, v in _result_arrays(*_forward_backward(*problem)).items()}
        assert inline == on_executor

    def test_three_block_layer_keeps_the_pinned_bits(self):
        assert riattn._CHUNK_ROWS == 128
        assert _three_block_digests() == PINNED_SHA256

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_three_block_layer_keeps_the_pinned_bits_on_one_cpu(self):
        # A child process pins itself to one CPU before numpy loads, so BLAS, the calling
        # thread and the executor's thread all share it.
        script = "\n".join([
            "import json, os, sys, threading",
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})",
            f"sys.path.insert(0, {os.path.dirname(os.path.abspath(__file__))!r})",
            "import test_riattn",
            "digests = test_riattn._three_block_digests()",
            "executor_ran = any(t.name.startswith('sipf-lane') for t in threading.enumerate())",
            "print(json.dumps([len(os.sched_getaffinity(0)), executor_ran, digests]))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(riattn.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout.splitlines()[-1]) == [1, True, PINNED_SHA256]

    def test_single_block_calls_stay_off_the_worker(self, rng, monkeypatch):
        def no_worker(fn):
            raise AssertionError("a single-block call reached the executor")

        monkeypatch.setattr(lanes._executor, "submit", no_worker)
        _forward_backward(*_layer_problem(rng, riattn._CHUNK_ROWS, 6, 3, 2))

    @pytest.mark.parametrize("slow_lane", [0, 1])
    @pytest.mark.parametrize("bad_points, row", [((3, 15), 0), ((7, 27), 4)])
    def test_lowest_bad_row_across_lanes_is_named(self, monkeypatch, slow_lane, bad_points, row):
        # Four-row blocks over 40 rows: lane 0 holds the blocks from rows 36, 28, ..., 4
        # and lane 1 those from 32, 24, ..., 0.  A bad point p spoils rows p-3..p-1, so
        # each case has a bad block in both lanes, the lower in lane 1 (row 0) or in
        # lane 0 (row 4).  The slow lane starts only after the other has finished.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 4)
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
        with pytest.raises(NumericError, match=f"^non-finite attention scores at reference row {row}$"):
            layer_forward(*_nan_feature_problem(40, bad_points))
        assert finished[0].is_set() and finished[1].is_set()

    def test_worker_lane_follows_the_callers_floating_point_error_state(self, rng, monkeypatch):
        # numpy keeps its error state per thread.  A -inf feature seen only by rows of
        # the worker's lane gives 0 * inf in its attention output: under the caller's
        # errstate(invalid="raise") that raises FloatingPointError, not the NumericError
        # of the x_hat check that follows it.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 4)
        layer = _zero_layer(2, 2)
        layer.mlp_b2[:] = 1.0
        feats = rng.standard_normal((12, 2))
        feats[7, 0] = -np.inf  # rows 4, 5 and 6: the block from row 4, lane 1's
        idx = (np.arange(12)[:, None] + np.arange(1, 4)) % 12
        with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
            layer_forward(layer, rng.standard_normal((12, 3, 8)), feats, idx)

    def test_forked_child_starts_its_own_worker(self, monkeypatch):
        # The thread of the parent's executor does not exist in a forked child; a child
        # that queued lanes to it would wait forever.  The child must finish in 60 s.
        monkeypatch.setattr(riattn, "_CHUNK_ROWS", 7)
        problem = _layer_problem(np.random.default_rng(29), 40, 6, 3, 2)
        expected = {name: v.tobytes() for name, v in _result_arrays(*_forward_backward(*problem)).items()}
        parents = lanes._executor
        assert any(t.name.startswith("sipf-lane") for t in threading.enumerate())
        with warnings.catch_warnings():
            # Python 3.12 on warns that forking a process with threads may deadlock.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if lanes._executor is not parents:
                    got = {name: v.tobytes() for name, v in _result_arrays(*_forward_backward(*problem)).items()}
                    started = any(t.name.startswith("sipf-lane") for t in threading.enumerate())
                    code = 0 if got == expected and started else 2
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


def build_gradcheck_problem(rng, n, k, c_in, hidden, c_out):
    cloud = random_cloud(rng, n)
    graph = knn_graph(cloud, k)
    frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
    shadow = shadow_of(cloud, frames, random_rotation(rng))
    pose = sipf_field(cloud, frames, graph, shadow)
    feats = input_descriptor(cloud, frames)
    labels = rng.integers(0, 2, n)
    layers = [RIAttnLayer.init(c_in, hidden, rng), RIAttnLayer.init(hidden, c_out, rng)]
    head = ClassifierHead.init(c_out, rng)
    z1 = rng.standard_normal(4)
    z2 = rng.standard_normal(3)
    delta = 0.8

    def loss_value():
        x = feats
        for layer in layers:
            x, _ = layer_forward(layer, pose, x, graph.indices)
        task, _, _, _, _ = _cross_entropy(head, x, labels)
        b_loss, _ = bingham.bingham_loss_and_seed_gradient(bingham.BinghamSeed(z1, z2))
        return total_loss(task, b_loss, delta)

    def analytic_grads():
        x = feats
        acts = []
        for layer in layers:
            x, act = layer_forward(layer, pose, x, graph.indices)
            acts.append(act)
        task, _, g_w, g_b, d_feats = _cross_entropy(head, x, labels)
        b_loss, d_z2 = bingham.bingham_loss_and_seed_gradient(bingham.BinghamSeed(z1, z2))
        d_task, d_bingham = total_loss_gradients(task, b_loss, delta)
        grads = {"head.weight": d_task * g_w, "head.bias": d_task * g_b}
        d_x = d_feats
        for li in (1, 0):
            layer_grads, d_x = backward(layers[li], d_x, acts[li])
            for name, val in layer_grads.items():
                grads[f"layer{li}.{name}"] = d_task * val
        grads["seed.z1"] = np.zeros(4)  # the Bingham loss does not depend on z1
        grads["seed.z2"] = d_bingham * d_z2
        return grads

    tensors = {"head.weight": head.weight, "head.bias": head.bias}
    for li, layer in enumerate(layers):
        for name, val in layer.parameters().items():
            tensors[f"layer{li}.{name}"] = val
    tensors["seed.z1"] = z1
    tensors["seed.z2"] = z2
    return loss_value, analytic_grads, tensors


def run_gradcheck(rng, n, k, c_in, hidden, c_out, step=1e-5, rtol=1e-4, atol=1e-7):
    loss_value, analytic_grads, tensors = build_gradcheck_problem(rng, n, k, c_in, hidden, c_out)
    grads = analytic_grads()
    worst = 0.0
    for name, tensor in tensors.items():
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = tensor[ix]
            tensor[ix] = orig + step
            up = loss_value()
            tensor[ix] = orig - step
            down = loss_value()
            tensor[ix] = orig
            fd = (up - down) / (2 * step)
            ana = grads[name][ix] if grads[name].ndim else grads[name]
            err = abs(ana - fd)
            if err > atol + rtol * max(abs(ana), abs(fd)):
                raise AssertionError(f"gradient mismatch at {name}{ix}: analytic {ana}, fd {fd}")
            denom = max(abs(fd), abs(ana), 1e-7)
            worst = max(worst, err / denom)
    return worst


class TestTotalLoss:
    def test_exact_cancellation(self):
        assert total_loss(1.0, 0.1, 0.8) == pytest.approx(1.0, abs=1e-6)

    def test_zero_task(self):
        assert total_loss(0.0, 2.0, 0.8) == pytest.approx(1.6, abs=1e-9)

    def test_negative_delta_rejected(self):
        with pytest.raises(InvalidArgumentError):
            total_loss(1.0, 1.0, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    )
    def test_identity_on_matched_losses(self, t, delta):
        # Tolerance: the 1e-12 smoothing floor plus one rounding ulp of t + s.
        assert abs(total_loss(t, 0.1 * t, delta) - t) <= delta * 1.0000001e-6 + 1e-14

    def test_gradient_sign_branches(self):
        d_task, d_bingham = total_loss_gradients(1.0, 5.0, 0.8)
        assert d_bingham == pytest.approx(0.8, abs=1e-9)
        assert d_task == pytest.approx(1.0 - 0.08, abs=1e-9)
        d_task, d_bingham = total_loss_gradients(1.0, -5.0, 0.8)
        assert d_bingham == pytest.approx(-0.8, abs=1e-9)
        assert d_task == pytest.approx(1.0 + 0.08, abs=1e-9)
