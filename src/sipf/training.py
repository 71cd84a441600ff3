"""Toy trainer: epoch-wise shadow relocation with a learned rotation distribution.

Training protocol per epoch: draw one global rotation from the current
Bingham distribution, keep it fixed for every mini-batch of the epoch, run
forward / loss / backward / SGD on the layer stack and the concentration
seed jointly, then resample at the epoch boundary.  The joint objective is

    total = task + delta * |bingham - 0.1 * task|

with the Bingham term given by the distribution entropy.

The synthetic wing-tip dataset pairs two congruent patches related by an
exact half-turn and connects them with a thin strip.  Every point has a
partner with bitwise-equal local geometry, so descriptors that see only
local structure cannot do better than chance on the left/right labels.
The shape is lifted off the half-turn's invariant plane; configurations
inside that plane relate partners by point negation, which would leave even
shadow-relative distances pairwise equal.
"""

from __future__ import annotations

import json
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import bingham
from .descriptors import (
    COINCIDENT_DISTANCE_FLOOR,
    DESCRIPTOR_MASKS,
    MASK_SIPF,
    coincident_pairs,
    detect_axis_alignment,
    detect_local_coincidence,
    shadow_of,
    sipf_field,
)
from .errors import DegenerateFrameError, InvalidArgumentError, NumericError
from .geometry import (
    NeighborGraph,
    PointCloud,
    Rotation3,
    UnitQuaternion,
    is_near_identity,
    knn_graph,
    quat_to_matrix,
)
from .lrf import FRAME_MODE_BARYCENTER, FRAME_MODE_NORMAL, build_all_lrfs, input_descriptor, try_build_all_lrfs
from .riattn import RIAttnLayer, backward, layer_forward

__all__ = [
    "ToyTaskConfig",
    "WingTipDataset",
    "ClassifierHead",
    "TrainResult",
    "make_wingtip_dataset",
    "train_toy",
    "metrics_to_jsonl",
    "total_loss",
    "total_loss_gradients",
]

# Trainer-internal defaults for the wing-tip demonstration.
DEFAULT_HIDDEN_DIM = 16
DEFAULT_BATCH_SIZE = 2
DEFAULT_N_CLOUDS = 4
DEFAULT_POINTS_PER_CLOUD = 64
WING_FRACTION = 0.75
WING_Z_OFFSET = 1.0
# Concentration-seed init: start sharp so the epoch-wise resample refines the
# anchor instead of resetting it; the entropy term then adapts it.
_Z2_INIT_LOC = np.array([600.0, 20.0, 20.0])
_Z2_INIT_SCALE = 0.25
_IDENTITY_PERTURB = 1e-3
_LOSS_SMOOTHING = 1e-12


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# field -> (accepts the value, requirement named in the error)
_CONFIG_RULES = {
    "epochs": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "learning_rate": (lambda v: _is_real(v) and v > 0, "a number > 0"),
    "k": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "delta": (lambda v: _is_real(v) and v >= 0, "a number >= 0"),
    "descriptor_mask": (lambda v: v in DESCRIPTOR_MASKS, f"one of {DESCRIPTOR_MASKS}"),
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
}


@dataclass(frozen=True)
class ToyTaskConfig:
    """The run configuration shared by the library and the CLI; defaults mirror the demo.

    Its fields are exactly the keys of the JSON config file.  Every value is
    checked on construction, ``dataclasses.replace`` included.
    """

    epochs: int = 200
    learning_rate: float = 0.15
    k: int = 20
    delta: float = 0.8
    descriptor_mask: str = MASK_SIPF
    seed: int = 0

    def __post_init__(self):
        for name, (accepts, requirement) in _CONFIG_RULES.items():
            value = getattr(self, name)
            if not accepts(value):
                raise InvalidArgumentError(f"{name} must be {requirement}, got {value!r}")


@dataclass(frozen=True)
class WingTipDataset:
    """Labeled clouds plus the half-turn that generated the mirrored halves."""

    clouds: list
    labels: list
    symmetry: Rotation3

    def __len__(self):
        return len(self.clouds)


def make_wingtip_dataset(
    n_clouds: int,
    points_per_cloud: int,
    noise_sigma: float,
    seed: int,
) -> WingTipDataset:
    """Mirror-symmetric wing-tip clouds with per-point left/right labels.

    Each half is one compact wing-tip blob plus its share of the connecting
    strip; the other half is the exact image under a half-turn about the
    vertical axis.  Noise (if any) is applied after mirroring, independently
    per point, so the two patches stay congruent up to the noise level.
    """
    if n_clouds < 1:
        raise InvalidArgumentError("n_clouds must be >= 1")
    if points_per_cloud < 32 or points_per_cloud % 2 != 0:
        raise InvalidArgumentError("points_per_cloud must be even and >= 32")
    if noise_sigma < 0:
        raise InvalidArgumentError("noise_sigma must be >= 0")
    rng = np.random.default_rng(seed)
    symmetry = quat_to_matrix(UnitQuaternion(0.0, 0.0, 0.0, 1.0))  # half-turn about z
    z0 = WING_Z_OFFSET
    clouds = []
    labels = []
    for _ in range(n_clouds):
        half = points_per_cloud // 2
        n_wing = int(round(half * WING_FRACTION))
        n_strip = half - n_wing
        wing = np.stack(
            [
                rng.uniform(-1.25, -1.05, n_wing),
                rng.uniform(-0.10, 0.10, n_wing),
                rng.uniform(z0 - 0.05, z0 + 0.05, n_wing),
            ],
            axis=1,
        )
        strip = np.stack(
            [
                rng.uniform(-1.03, -0.004, n_strip),
                rng.uniform(-0.05, 0.05, n_strip),
                rng.uniform(z0 - 0.05, z0 + 0.05, n_strip),
            ],
            axis=1,
        )
        left = np.vstack([wing, strip])
        right = left @ symmetry.matrix
        pts = np.vstack([left, right])
        if noise_sigma > 0:
            pts = pts + rng.normal(0.0, noise_sigma, pts.shape)
        clouds.append(PointCloud(points=pts))
        labels.append(np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)]))
    return WingTipDataset(clouds=clouds, labels=labels, symmetry=symmetry)


@dataclass
class ClassifierHead:
    """Per-point linear map to two logits."""

    weight: np.ndarray
    bias: np.ndarray

    @classmethod
    def init(cls, c_in: int, rng: np.random.Generator) -> "ClassifierHead":
        return cls(weight=rng.standard_normal((c_in, 2)) / np.sqrt(c_in), bias=np.zeros(2))


def _loss_and_accuracy(head: ClassifierHead, feats: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy, accuracy, and the log-softmax of the head's logits."""
    logits = feats @ head.weight + head.bias
    m = logits.max(axis=1, keepdims=True)
    log_z = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    log_p = logits - log_z
    loss = float(-log_p[np.arange(len(labels)), labels].mean())
    accuracy = float((logits.argmax(axis=1) == labels).mean())
    return loss, accuracy, log_p


def _cross_entropy(head: ClassifierHead, feats: np.ndarray, labels: np.ndarray):
    """Loss and accuracy plus the head's gradients and the gradient at its input."""
    loss, accuracy, log_p = _loss_and_accuracy(head, feats, labels)
    n = len(labels)
    d_logits = np.exp(log_p)
    d_logits[np.arange(n), labels] -= 1.0
    d_logits /= n
    g_w = feats.T @ d_logits
    g_b = d_logits.sum(axis=0)
    d_feats = d_logits @ head.weight.T
    return loss, accuracy, g_w, g_b, d_feats


@dataclass
class TrainResult:
    layers: list
    head: ClassifierHead
    seed_params: bingham.BinghamSeed
    metrics: list = field(default_factory=list)
    b1_max_score: float = 0.0
    b2_min_distance_rad: float = float("inf")


def total_loss(task_loss: float, bingham_loss: float, delta: float) -> float:
    """task + delta * |bingham - 0.1 task|, with a 1e-12 smoothing under the root."""
    if delta < 0:
        raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
    resid = bingham_loss - 0.1 * task_loss
    return float(task_loss + delta * np.sqrt(resid * resid + _LOSS_SMOOTHING))


def total_loss_gradients(task_loss: float, bingham_loss: float, delta: float):
    """(d total / d task, d total / d bingham) of the smoothed absolute penalty."""
    if delta < 0:
        raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
    resid = bingham_loss - 0.1 * task_loss
    root = np.sqrt(resid * resid + _LOSS_SMOOTHING)
    return float(1.0 - 0.1 * delta * resid / root), float(delta * resid / root)


def _normalize_labels(labels, n_points, cloud):
    """Cloud number ``cloud``'s labels as one 0/1 integer per point; a scalar labels every point."""
    lab = np.asarray(labels)
    if lab.ndim == 0:
        lab = np.full(n_points, lab)
    if lab.shape != (n_points,):
        raise InvalidArgumentError(
            f"labels of cloud {cloud}: shape {lab.shape} does not match cloud size {n_points}"
        )
    if lab.dtype.kind not in "iuf":
        raise InvalidArgumentError(f"labels of cloud {cloud} must be numbers, got dtype {lab.dtype}")
    bad = lab[(lab != 0) & (lab != 1)]
    if bad.size:
        raise InvalidArgumentError(f"labels of cloud {cloud} must be 0 or 1, got {bad[0].item()!r}")
    return lab.astype(np.int64)


def _forward_cloud(layers, pose, feats, idx):
    """The layer stack's output on one cloud and each layer's activation record."""
    acts = []
    x = feats
    for layer in layers:
        x, act = layer_forward(layer, pose, x, idx)
        acts.append(act)
    return x, acts


def _keep(cloud, index, keep, k, i, what):
    """Cloud ``i`` and its points' original ``index`` at the points in ``keep``, and the rebuilt graph."""
    if keep.sum() <= k:
        raise InvalidArgumentError(
            f"cloud {i}: {keep.sum()} point(s) left after dropping {what} points, k = {k} needs more"
        )
    normals = None if cloud.normals is None else cloud.normals[keep]
    cloud = PointCloud(points=cloud.points[keep], normals=normals)
    return cloud, knn_graph(cloud, k), index[keep]


def _prepare_cloud(cloud, k, i):
    """Cloud number ``i`` after :func:`train_toy`'s row rules: the kept cloud, its graph and
    (N, 3) primary axes, and the original index of every kept point.

    Dropping a point moves its neighbours' barycenter axes, so the graph and
    axes are rebuilt until every axis is defined.
    """
    mode = FRAME_MODE_NORMAL if cloud.normals is not None else FRAME_MODE_BARYCENTER
    index = np.arange(len(cloud))
    graph = knn_graph(cloud, k)
    drop = np.linalg.norm(cloud.points, axis=1) < COINCIDENT_DISTANCE_FLOOR
    if drop.any():
        warnings.warn(f"cloud {i}: {drop.sum()} origin point(s) dropped", stacklevel=3)
        cloud, graph, index = _keep(cloud, index, ~drop, k, i, "origin")
    drop = np.isin(np.arange(len(cloud)), coincident_pairs(cloud, graph))
    if drop.any():
        warnings.warn(f"cloud {i}: {drop.sum()} coincident point(s) dropped", stacklevel=3)
        cloud, graph, index = _keep(cloud, index, ~drop, k, i, "coincident")
    dropped = 0
    while True:
        try:  # a cloud whose axes are all defined takes one pass
            axes = build_all_lrfs(cloud, graph, mode)
            break
        except DegenerateFrameError:
            valid = try_build_all_lrfs(cloud, graph, mode)[1]
        dropped += int((~valid).sum())
        cloud, graph, index = _keep(cloud, index, valid, k, i, "degenerate-frame")
    if dropped:
        warnings.warn(f"cloud {i}: {dropped} degenerate-frame point(s) dropped", stacklevel=3)
    return cloud, graph, axes, index


def _flatten_parameters(layers, head):
    """Move every head and layer parameter into one float64 vector, each owner keeping a view of
    its part under the same attribute, so a step on the vector updates them all in place.  Returns
    the vector and the parameter names in its order."""
    slots = [("head.weight", head, "weight"), ("head.bias", head, "bias")]
    slots += [(f"layer{i}.{name}", layer, name) for i, layer in enumerate(layers) for name in layer.parameters()]
    flat = np.concatenate([getattr(owner, attr).ravel() for _, owner, attr in slots])
    start = 0
    for _, owner, attr in slots:
        p = getattr(owner, attr)
        setattr(owner, attr, flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return flat, [name for name, _, _ in slots]


def _cloud_gradient(layers, acts, g_w, g_b, d_feats, names):
    """One cloud's gradient of every parameter as one vector, in the order of ``names``."""
    grads = {"head.weight": g_w, "head.bias": g_b}
    d_x = d_feats
    for i in reversed(range(len(layers))):
        layer_grads, d_x = backward(layers[i], d_x, acts[i])
        grads.update((f"layer{i}.{name}", g) for name, g in layer_grads.items())
    return np.concatenate([grads[name].ravel() for name in names])


def _stack_clouds(clouds, axes, graphs):
    """The prepared clouds as one cloud, in cloud order: its points, (N, 3) primary axes and graph,
    each cloud's neighbour indices offset by its first row, and the rows at which ``np.split`` cuts
    an (N, ...) array of the stack back into the clouds' parts.

    Shadow, field and audit compute each point from its own row and its neighbours' rows alone, so
    on the stack they give each cloud's bits; the tests check it.  The audit's dots are BLAS
    products, which some OpenBLAS cores (Prescott) round by a row's address, so there a cloud
    after one of odd size may differ from its own audit in the last bit.
    """
    ends = np.cumsum([len(c) for c in clouds])
    starts = [0, *ends[:-1]]
    graph = NeighborGraph(graphs[0].k, np.concatenate([g.indices + s for g, s in zip(graphs, starts)]))
    return PointCloud(points=np.concatenate([c.points for c in clouds])), np.concatenate(axes), graph, ends[:-1]


def _sample_rotation(seed_z1, seed_z2, rng):
    params = bingham.params_from_seed(bingham.BinghamSeed(seed_z1, seed_z2))
    q = bingham.sample_with_rate(params, rng, 1)[0][0]
    return UnitQuaternion.from_array(q).canonical()


def train_toy(dataset, config: ToyTaskConfig) -> TrainResult:
    """Epoch-wise training with a fixed within-epoch global rotation.

    Emits one metrics dict per epoch: task loss, Bingham loss, total loss,
    full-dataset accuracy, and the epoch's rotation quaternion.  All
    randomness comes from one seeded generator, so runs are reproducible.
    Before the first epoch, cloud by cloud, every point at the origin (on
    the axis of every shadow rotation), both points of a coincident pair and
    every point whose primary axis is undefined (a degenerate frame) are
    dropped with their labels, with one warning per cloud and rule.  Each
    cloud's primary axes are its normals when it has them and its barycenter
    axes otherwise.

    Each epoch makes one shadow, field and audit call on every cloud stacked
    (``_stack_clouds``); the layers, the loss and the evaluation run cloud by
    cloud, and each batch steps every parameter at once through the flat
    vector of ``_flatten_parameters``.
    """
    clouds = list(dataset.clouds)
    if not clouds:
        raise InvalidArgumentError("dataset is empty")
    labels = [
        _normalize_labels(lab, len(c), i) for i, (c, lab) in enumerate(zip(clouds, dataset.labels))
    ]
    symmetry = getattr(dataset, "symmetry", None)
    rng = np.random.default_rng(config.seed)

    prepared = []
    for i, cloud in enumerate(clouds):  # a comprehension's own frame would shift the warnings' stacklevel
        prepared.append(_prepare_cloud(cloud, config.k, i))
    clouds, graphs, axes, kept = zip(*prepared)
    labels = [lab[index] for lab, index in zip(labels, kept)]
    feats0 = [input_descriptor(c, a) for c, a in zip(clouds, axes)]
    stack, stack_axes, stack_graph, splits = _stack_clouds(clouds, axes, graphs)

    c_in = 3
    hid = DEFAULT_HIDDEN_DIM
    layers = [RIAttnLayer.init(c_in, hid, rng), RIAttnLayer.init(hid, hid, rng)]
    head = ClassifierHead.init(hid, rng)

    z1 = rng.standard_normal(4)
    z2 = _Z2_INIT_LOC + _Z2_INIT_SCALE * rng.standard_normal(3)
    q_g = _sample_rotation(z1, z2, rng)
    flat, names = _flatten_parameters(layers, head)

    result = TrainResult(layers=layers, head=head, seed_params=bingham.BinghamSeed(z1, z2))
    bingham_terms = None  # the Bingham loss and z2 gradient at the current z2, once computed

    for epoch in range(1, config.epochs + 1):
        # Identity guard: an identity anchor would collapse every shadow onto
        # its source point, so perturb the quaternion seed and redraw.
        while is_near_identity(q_g):
            z1 = z1 + _IDENTITY_PERTURB * rng.standard_normal(4)
            q_g = _sample_rotation(z1, z2, rng)
        rot = quat_to_matrix(q_g)
        shadow = shadow_of(stack, stack_axes, rot)
        fields = np.split(sipf_field(stack, stack_axes, stack_graph, shadow, mask=config.descriptor_mask), splits)

        for start in range(0, len(clouds), DEFAULT_BATCH_SIZE):
            batch_loss = 0.0
            batch_points = 0
            grad_sum = None
            for ci in range(start, min(start + DEFAULT_BATCH_SIZE, len(clouds))):
                x, acts = _forward_cloud(layers, fields[ci], feats0[ci], graphs[ci].indices)
                loss, _, g_w, g_b, d_feats = _cross_entropy(head, x, labels[ci])
                weight = len(labels[ci])
                batch_loss += loss * weight
                batch_points += weight
                g = _cloud_gradient(layers, acts, g_w, g_b, d_feats, names)
                g *= weight
                if grad_sum is None:
                    grad_sum = g
                else:
                    grad_sum += g
            task_loss = batch_loss / batch_points
            if not np.isfinite(task_loss):
                raise NumericError(f"non-finite task loss at epoch {epoch}, batch {start}")

            # Both depend on z2 alone, so the epoch-end pair serves the next epoch's first batch.
            b_loss, d_z2 = bingham_terms or bingham.bingham_loss_and_seed_gradient(bingham.BinghamSeed(z1, z2))
            d_task, d_bingham = total_loss_gradients(task_loss, b_loss, config.delta)

            lr = config.learning_rate
            flat -= lr * d_task * (grad_sum / batch_points)
            z2 = z2 - lr * d_bingham * d_z2
            bingham_terms = None

        # Epoch metrics on the full dataset with the epoch's rotation.
        total_correct = 0.0
        total_points = 0
        eval_loss = 0.0
        for ci in range(len(clouds)):
            x, _ = _forward_cloud(layers, fields[ci], feats0[ci], graphs[ci].indices)
            loss, acc, _ = _loss_and_accuracy(head, x, labels[ci])
            n_pts = len(labels[ci])
            total_correct += acc * n_pts
            total_points += n_pts
            eval_loss += loss * n_pts
        accuracy = total_correct / total_points
        eval_loss /= total_points
        bingham_terms = bingham.bingham_loss_and_seed_gradient(bingham.BinghamSeed(z1, z2))
        b_loss = bingham_terms[0]
        result.metrics.append(
            {
                "epoch": epoch,
                "task_loss": float(eval_loss),
                "bingham_loss": float(b_loss),
                "total_loss": total_loss(eval_loss, b_loss, config.delta),
                "accuracy": float(accuracy),
                "rg_quaternion": [q_g.w, q_g.x, q_g.y, q_g.z],
            }
        )

        # Degeneracy audit for the epoch's rotation.
        scores = detect_axis_alignment(stack.points, stack_axes, shadow.points, shadow.axes)
        result.b1_max_score = max(result.b1_max_score, float(scores.max()))
        if symmetry is not None:
            dist = detect_local_coincidence(rot, symmetry)
            result.b2_min_distance_rad = min(result.b2_min_distance_rad, dist)

        q_g = _sample_rotation(z1, z2, rng)

    result.seed_params = bingham.BinghamSeed(z1, z2)
    return result


def metrics_to_jsonl(metrics) -> str:
    """One JSON object per line; float formatting is repr-based and stable."""
    return "".join(json.dumps(entry) + "\n" for entry in metrics)
