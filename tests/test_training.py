import dataclasses
import json

import numpy as np
import pytest

from sipf.descriptors import MASK_PPF
from sipf.errors import InvalidArgumentError
from sipf.geometry import PointCloud, UnitQuaternion, is_near_identity, knn_graph, quat_to_matrix
from sipf.lrf import FRAME_MODE_BARYCENTER, build_all_lrfs
from sipf.descriptors import shadow_of, sipf_field
from sipf.training import (
    DEFAULT_N_CLOUDS,
    DEFAULT_POINTS_PER_CLOUD,
    ToyTaskConfig,
    make_wingtip_dataset,
    metrics_to_jsonl,
    train_toy,
)

from conftest import scalar_axis_alignment


def kabsch_residual(a, b):
    """RMS residual of the best rigid alignment of a onto b (both centered)."""
    ac = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    u, _, vt = np.linalg.svd(ac.T @ bc)
    d = np.sign(np.linalg.det(u @ vt))
    rot = u @ np.diag([1.0, 1.0, d]) @ vt
    return float(np.sqrt(((ac @ rot - bc) ** 2).sum(axis=1).mean()))


class TestWingTipDataset:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            make_wingtip_dataset(0, 64, 0.0, 1)
        with pytest.raises(InvalidArgumentError):
            make_wingtip_dataset(1, 30, 0.0, 1)
        with pytest.raises(InvalidArgumentError):
            make_wingtip_dataset(1, 63, 0.0, 1)
        with pytest.raises(InvalidArgumentError):
            make_wingtip_dataset(1, 64, -0.1, 1)

    def test_noise_free_halves_map_exactly(self):
        dataset = make_wingtip_dataset(2, 64, 0.0, 9)
        for cloud in dataset.clouds:
            half = len(cloud) // 2
            left, right = cloud.points[:half], cloud.points[half:]
            assert np.array_equal(left @ dataset.symmetry.matrix, right)

    def test_labels_balanced(self):
        dataset = make_wingtip_dataset(3, 64, 0.01, 5)
        for labels in dataset.labels:
            assert labels.sum() == len(labels) // 2

    def test_noisy_patches_still_congruent(self):
        sigma = 0.01
        dataset = make_wingtip_dataset(1, 128, sigma, 3)
        cloud = dataset.clouds[0]
        half = len(cloud) // 2
        mapped = cloud.points[:half] @ dataset.symmetry.matrix
        residual = kabsch_residual(mapped, cloud.points[half:])
        assert residual < 4 * sigma

    def test_plain_pair_stacks_identical_across_halves(self, rng):
        # The dataset's purpose: local descriptors cannot tell the halves apart.
        dataset = make_wingtip_dataset(1, 64, 0.0, 21)
        cloud = dataset.clouds[0]
        graph = knn_graph(cloud, 20)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        from sipf.geometry import random_rotation

        shadow = shadow_of(cloud, frames, random_rotation(rng))
        plain = sipf_field(cloud, frames, graph, shadow, mask=MASK_PPF)
        half = len(cloud) // 2
        assert np.abs(plain[:half] - plain[half:]).max() < 1e-9


class TestToyTaskConfig:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(epochs=0)
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(delta=-1.0)
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(k=0)
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(descriptor_mask="bogus")
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(bingham_loss_kind="bogus")
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(k=2.5)
        with pytest.raises(InvalidArgumentError):
            ToyTaskConfig(seed=-1)
        for name in ("epochs", "k", "seed", "learning_rate", "delta"):
            with pytest.raises(InvalidArgumentError, match=name):
                ToyTaskConfig(**{name: True})
        with pytest.raises(InvalidArgumentError):
            dataclasses.replace(ToyTaskConfig(), seed=-3)
        # Boundary values and an integer learning rate are accepted.
        ToyTaskConfig(learning_rate=1, seed=0, delta=0)

    def test_fields_are_the_config_file_keys(self):
        assert [f.name for f in dataclasses.fields(ToyTaskConfig)] == [
            "epochs",
            "learning_rate",
            "k",
            "delta",
            "descriptor_mask",
            "seed",
            "bingham_loss_kind",
        ]


class TestTrainToy:
    def _short_config(self, **kw):
        base = dict(epochs=3, k=8, seed=1)
        base.update(kw)
        return ToyTaskConfig(**base)

    def test_metrics_schema(self):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        result = train_toy(dataset, self._short_config())
        assert len(result.metrics) == 3
        for i, entry in enumerate(result.metrics):
            assert set(entry) == {
                "epoch",
                "task_loss",
                "bingham_loss",
                "total_loss",
                "accuracy",
                "rg_quaternion",
            }
            assert entry["epoch"] == i + 1
            assert np.isfinite(entry["task_loss"])
            assert 0.0 <= entry["accuracy"] <= 1.0
            assert len(entry["rg_quaternion"]) == 4
            assert abs(np.linalg.norm(entry["rg_quaternion"]) - 1.0) < 1e-9

    def test_deterministic_metrics_log(self):
        dataset_a = make_wingtip_dataset(2, 32, 0.0, 100)
        dataset_b = make_wingtip_dataset(2, 32, 0.0, 100)
        log_a = metrics_to_jsonl(train_toy(dataset_a, self._short_config()).metrics)
        log_b = metrics_to_jsonl(train_toy(dataset_b, self._short_config()).metrics)
        assert log_a == log_b
        for line in log_a.strip().split("\n"):
            json.loads(line)

    def test_identity_draw_is_redrawn(self, monkeypatch):
        from sipf import training

        real = training._sample_rotation
        seeds = []

        def identity_first(z1, z2, rng):
            seeds.append(z1)
            return UnitQuaternion(1.0, 0.0, 0.0, 0.0) if len(seeds) == 1 else real(z1, z2, rng)

        monkeypatch.setattr(training, "_sample_rotation", identity_first)
        result = train_toy(make_wingtip_dataset(2, 32, 0.0, 100), self._short_config(epochs=1))
        assert len(seeds) >= 2
        assert not np.array_equal(seeds[1], seeds[0])  # the quaternion seed was perturbed
        assert not is_near_identity(UnitQuaternion.from_array(result.metrics[0]["rg_quaternion"]))

    def test_different_seeds_differ(self):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        log_a = metrics_to_jsonl(train_toy(dataset, self._short_config(seed=1)).metrics)
        log_b = metrics_to_jsonl(train_toy(dataset, self._short_config(seed=2)).metrics)
        assert log_a != log_b

    def test_audit_fields_populated(self):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        result = train_toy(dataset, self._short_config())
        assert 0.0 <= result.b1_max_score <= 1.0
        assert 0.0 <= result.b2_min_distance_rad <= np.pi

    def test_audit_matches_per_point_oracle_on_demo_dataset(self):
        # Recompute every epoch's B1 scores point by point from the logged
        # rotation; the run maximum must match the vectorised audit's.
        dataset = make_wingtip_dataset(DEFAULT_N_CLOUDS, DEFAULT_POINTS_PER_CLOUD, 0.0, 100)
        config = self._short_config()
        result = train_toy(dataset, config)
        expected = 0.0
        for entry in result.metrics:
            rot = quat_to_matrix(UnitQuaternion(*entry["rg_quaternion"]))
            for cloud in dataset.clouds:
                frames = build_all_lrfs(cloud, knn_graph(cloud, config.k), FRAME_MODE_BARYCENTER)
                shadow = shadow_of(cloud, frames, rot)
                for i in range(len(cloud)):
                    score = scalar_axis_alignment(
                        cloud.points[i], frames[i], shadow.points[i], shadow.frames[i]
                    )
                    expected = max(expected, score)
        assert abs(result.b1_max_score - expected) <= 1e-15

    def test_empty_dataset_rejected(self):
        dataset = make_wingtip_dataset(1, 32, 0.0, 100)
        empty = type(dataset)(clouds=[], labels=[], symmetry=dataset.symmetry)
        with pytest.raises(InvalidArgumentError):
            train_toy(empty, self._short_config())

    @pytest.mark.parametrize("bad", [-1, 2, 0.5, 1.5])
    @pytest.mark.parametrize("per_point", [False, True])
    def test_labels_outside_zero_one_rejected(self, bad, per_point):
        # -1 would index class 1 and 0.5 would truncate to class 0 without this check.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        labels = list(dataset.labels)
        labels[1] = np.where(np.arange(32) == 7, bad, labels[1]) if per_point else bad
        relabeled = type(dataset)(clouds=dataset.clouds, labels=labels, symmetry=dataset.symmetry)
        with pytest.raises(InvalidArgumentError, match=f"labels of cloud 1 must be 0 or 1, got {bad}$"):
            train_toy(relabeled, self._short_config())

    @pytest.mark.parametrize("bad", ["1", True])
    def test_labels_that_are_not_numbers_rejected(self, bad):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        relabeled = type(dataset)(clouds=dataset.clouds, labels=[0, bad], symmetry=dataset.symmetry)
        with pytest.raises(InvalidArgumentError, match="labels of cloud 1 must be numbers, got dtype"):
            train_toy(relabeled, self._short_config())

    def test_per_cloud_scalar_labels_accepted(self):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        relabeled = type(dataset)(
            clouds=dataset.clouds, labels=[0, 1], symmetry=dataset.symmetry
        )
        result = train_toy(relabeled, self._short_config())
        assert len(result.metrics) == 3

    def test_coincident_points_dropped_before_training(self):
        # Points 5 and 6 of cloud 1 coincide: both go, with their labels, as in
        # the field commands, and the run equals one on the cloud without them.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        points = dataset.clouds[1].points.copy()
        points[6] = points[5]
        clouds = [dataset.clouds[0], PointCloud(points=points)]
        duplicated = type(dataset)(clouds=clouds, labels=dataset.labels, symmetry=dataset.symmetry)
        with pytest.warns(UserWarning, match=r"^cloud 1: 2 coincident point\(s\) dropped$"):
            log = metrics_to_jsonl(train_toy(duplicated, self._short_config()).metrics)
        keep = ~np.isin(np.arange(32), [5, 6])
        reduced = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points[keep])],
            labels=[dataset.labels[0], dataset.labels[1][keep]],
            symmetry=dataset.symmetry,
        )
        assert log == metrics_to_jsonl(train_toy(reduced, self._short_config()).metrics)

    def test_degenerate_frame_points_dropped_before_training(self):
        # Two collinear patches of 10 points on a line through the centroid of
        # cloud 1, far from its body: each patch point's barycenter axis and
        # centroid direction both run along the line, so its frame is degenerate.
        # The patches go, with their labels, and the run equals one without them.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        body = dataset.clouds[1].points
        line = np.array([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
        offsets = np.concatenate([np.arange(5.0, 6.0, 0.1), -np.arange(5.0, 6.0, 0.1)])
        points = np.vstack([body, body.mean(axis=0) + offsets[:, None] * line])
        labels = np.concatenate([dataset.labels[1], np.arange(20) % 2])
        patched = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points)],
            labels=[dataset.labels[0], labels],
            symmetry=dataset.symmetry,
        )
        with pytest.warns(UserWarning, match=r"^cloud 1: 20 degenerate-frame point\(s\) dropped$"):
            log = metrics_to_jsonl(train_toy(patched, self._short_config()).metrics)
        assert log == metrics_to_jsonl(train_toy(dataset, self._short_config()).metrics)

    def test_cloud_left_with_k_points_or_fewer_is_named(self):
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        collinear = PointCloud(points=np.arange(12.0)[:, None] * np.array([1.0, 2.0, 0.5]))
        degenerate = type(dataset)(
            clouds=[dataset.clouds[0], collinear],
            labels=[dataset.labels[0], np.zeros(12, dtype=np.int64)],
            symmetry=dataset.symmetry,
        )
        with pytest.raises(InvalidArgumentError, match=r"^cloud 1: 0 point\(s\) left after dropping degenerate-frame"):
            train_toy(degenerate, self._short_config())

    def test_bingham_terms_computed_once_per_concentration_seed(self, monkeypatch):
        # The loss and its z2 gradient depend on z2 alone: the epoch-end pair
        # serves the next epoch's first batch, so no two calls see one z2.
        from sipf import bingham

        seen = []
        real = bingham.bingham_loss_and_seed_gradient

        def counted(seed, kind):
            seen.append(seed.z2.tobytes())
            return real(seed, kind)

        monkeypatch.setattr(bingham, "bingham_loss_and_seed_gradient", counted)
        dataset = make_wingtip_dataset(4, 32, 0.0, 100)
        train_toy(dataset, self._short_config())
        # 2 batches an epoch: 2 + 1 calls in the first epoch, 1 + 1 in each later one.
        assert len(seen) == 7
        assert len(set(seen)) == len(seen)


# Per-epoch metrics of a 3-epoch run on the demo dataset at seed 0 (the
# demo-wingtip command's data), as the trainer logged them before the attention
# block went slot-major.  Layout changes may move the losses by rounding only.
_GOLDEN_METRICS = [
    (1, 1.2157641570726199, -5.7313153093362, 5.898077537107457, 0.5,
     [0.34267463462309294, 0.879165926625177, 0.14027921073397834, -0.29993851250393944]),
    (2, 0.7239938590671647, -5.7313131435869575, 5.366963882662174, 0.5,
     [0.2991112422124831, 0.9210512240701133, 0.08866580304754762, -0.23309972713623006]),
    (3, 0.6955020627207962, -5.731310977831098, 5.336191010003407, 0.5078125,
     [0.3189200465417582, 0.897487788081295, 0.16634526652550047, -0.25521545106695126]),
]


def test_short_demo_run_matches_golden_metrics():
    dataset = make_wingtip_dataset(DEFAULT_N_CLOUDS, DEFAULT_POINTS_PER_CLOUD, 0.0, seed=1000)
    metrics = train_toy(dataset, ToyTaskConfig(epochs=3, seed=0)).metrics
    assert len(metrics) == len(_GOLDEN_METRICS)
    for got, (epoch, task, bingham_loss, total, accuracy, quat) in zip(metrics, _GOLDEN_METRICS):
        assert got["epoch"] == epoch
        want = [task, bingham_loss, total, accuracy, *quat]
        have = [got["task_loss"], got["bingham_loss"], got["total_loss"], got["accuracy"], *got["rg_quaternion"]]
        for h, w in zip(have, want):
            assert abs(h - w) <= 1e-12 * abs(w), (epoch, h, w)
