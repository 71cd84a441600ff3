import dataclasses
import json
import warnings

import numpy as np
import pytest

from sipf import descriptors, training
from sipf.descriptors import DESCRIPTOR_MASKS, MASK_PPF, detect_axis_alignment, shadow_of, sipf_field
from sipf.errors import CoincidentPointError, InvalidArgumentError
from sipf.geometry import (
    PointCloud,
    UnitQuaternion,
    is_near_identity,
    knn_graph,
    quat_to_matrix,
    random_rotation,
)
from sipf.lrf import FRAME_MODE_BARYCENTER, FRAME_MODE_NORMAL, build_all_lrfs
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
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        plain = sipf_field(cloud, axes, graph, shadow, mask=MASK_PPF)
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
                axes = build_all_lrfs(cloud, knn_graph(cloud, config.k), FRAME_MODE_BARYCENTER)
                shadow = shadow_of(cloud, axes, rot)
                for i in range(len(cloud)):
                    score = scalar_axis_alignment(cloud.points[i], axes[i], shadow.points[i], shadow.axes[i])
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

    def test_point_at_origin_dropped_before_training(self):
        # The origin lies on the axis of every shadow rotation, so its shadow
        # coincides with it in every epoch: it goes, with its label, and the
        # run equals one on the cloud without it.
        dataset = make_wingtip_dataset(DEFAULT_N_CLOUDS, DEFAULT_POINTS_PER_CLOUD, 0.0, 1000)
        points = dataset.clouds[0].points.copy()
        points[5] = 0.0
        clouds = [PointCloud(points=points), *dataset.clouds[1:]]
        moved = type(dataset)(clouds=clouds, labels=dataset.labels, symmetry=dataset.symmetry)
        config = ToyTaskConfig(epochs=2)
        with pytest.warns(UserWarning, match=r"^cloud 0: 1 origin point\(s\) dropped$"):
            log = metrics_to_jsonl(train_toy(moved, config).metrics)
        keep = np.arange(DEFAULT_POINTS_PER_CLOUD) != 5
        reduced = type(dataset)(
            clouds=[PointCloud(points=points[keep]), *dataset.clouds[1:]],
            labels=[dataset.labels[0][keep], *dataset.labels[1:]],
            symmetry=dataset.symmetry,
        )
        assert log == metrics_to_jsonl(train_toy(reduced, config).metrics)

    def test_degenerate_frame_points_dropped_before_training(self):
        # Two 9-point stars far above and below cloud 1: each centre's 8
        # neighbours are the rest of its star, in opposite pairs, so its
        # barycenter axis is zero and its frame undefined.  The centres go, with
        # their labels; the graph is rebuilt, and the run equals one without them.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        body = dataset.clouds[1].points
        spokes = np.vstack([np.eye(3), -np.eye(3), [[1.5, 1.5, 1.5], [-1.5, -1.5, -1.5]] / np.sqrt(3.0)])
        stars = [body.mean(axis=0) + [0.0, 0.0, z] + 0.1 * np.vstack([np.zeros(3), spokes]) for z in (4.0, -4.0)]
        points = np.vstack([body, *stars])
        labels = np.concatenate([dataset.labels[1], np.arange(18) % 2])
        patched = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points)],
            labels=[dataset.labels[0], labels],
            symmetry=dataset.symmetry,
        )
        with pytest.warns(UserWarning, match=r"^cloud 1: 2 degenerate-frame point\(s\) dropped$"):
            log = metrics_to_jsonl(train_toy(patched, self._short_config()).metrics)
        keep = ~np.isin(np.arange(len(points)), [32, 41])
        reduced = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points[keep])],
            labels=[dataset.labels[0], labels[keep]],
            symmetry=dataset.symmetry,
        )
        assert log == metrics_to_jsonl(train_toy(reduced, self._short_config()).metrics)

    def test_two_degenerate_clouds_warn_cloud_by_cloud(self):
        # A coincident pair in cloud 0 and a point at the origin in cloud 1: each
        # cloud goes through every rule before the next cloud, each warning names
        # the trainer's caller, and the run equals one on the reduced clouds.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        first, second = dataset.clouds[0].points.copy(), dataset.clouds[1].points.copy()
        first[6] = first[5]
        second[3] = 0.0
        degenerate = type(dataset)(
            clouds=[PointCloud(points=first), PointCloud(points=second)],
            labels=dataset.labels,
            symmetry=dataset.symmetry,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log = metrics_to_jsonl(train_toy(degenerate, self._short_config()).metrics)
        assert [str(w.message) for w in caught] == [
            "cloud 0: 2 coincident point(s) dropped",
            "cloud 1: 1 origin point(s) dropped",
        ]
        assert {w.filename for w in caught} == {__file__}
        keep0 = ~np.isin(np.arange(32), [5, 6])
        keep1 = np.arange(32) != 3
        reduced = type(dataset)(
            clouds=[PointCloud(points=first[keep0]), PointCloud(points=second[keep1])],
            labels=[dataset.labels[0][keep0], dataset.labels[1][keep1]],
            symmetry=dataset.symmetry,
        )
        assert log == metrics_to_jsonl(train_toy(reduced, self._short_config()).metrics)

    @pytest.mark.parametrize("with_normals", [0, 1])
    def test_each_cloud_takes_its_frame_mode_from_its_own_normals(self, with_normals, monkeypatch):
        # Normals on one cloud only: that cloud's frames are normal-based and the
        # other's barycenter-based, whichever cloud comes first.
        from sipf import training

        modes = []
        real = training.build_all_lrfs

        def recorded(cloud, graph, mode):
            modes.append(mode)
            return real(cloud, graph, mode)

        monkeypatch.setattr(training, "build_all_lrfs", recorded)
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        normals = np.random.default_rng(7).standard_normal((32, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        clouds = list(dataset.clouds)
        clouds[with_normals] = PointCloud(points=clouds[with_normals].points, normals=normals)
        mixed = type(dataset)(clouds=clouds, labels=dataset.labels, symmetry=dataset.symmetry)
        result = train_toy(mixed, self._short_config())
        assert len(result.metrics) == 3
        expected = [FRAME_MODE_BARYCENTER, FRAME_MODE_BARYCENTER]
        expected[with_normals] = FRAME_MODE_NORMAL
        assert modes == expected

    def test_cloud_left_with_k_points_or_fewer_is_named(self):
        # A 9-point star about (1, 2, 0.5) and the origin: with k = 8 the star's
        # centre sees the other 8 star points, in opposite pairs, so its frame is undefined.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        spokes = np.vstack([np.eye(3), -np.eye(3), [[1.5, 1.5, 1.5], [-1.5, -1.5, -1.5]] / np.sqrt(3.0)])
        star = PointCloud(points=np.vstack([np.zeros(3), [1.0, 2.0, 0.5] + 0.1 * np.vstack([np.zeros(3), spokes])]))
        degenerate = type(dataset)(
            clouds=[dataset.clouds[0], star],
            labels=[dataset.labels[0], np.zeros(10, dtype=np.int64)],
            symmetry=dataset.symmetry,
        )
        # The origin goes first, under its own rule, and then the centre, leaving k points.
        with pytest.warns(UserWarning, match=r"^cloud 1: 1 origin point\(s\) dropped$"):
            with pytest.raises(InvalidArgumentError, match=r"^cloud 1: 8 point\(s\) left after dropping degenerate-frame"):
                train_toy(degenerate, self._short_config())

    @pytest.mark.parametrize("mask, message", [
        ("sipf", "cloud 1: shadow coincides with point 20"),
        ("sipf-no-direction", "cloud 1: shadow coincides with point 20"),
        ("ppf", "cloud 1: shadow coincides with point 20"),
    ])
    def test_shadow_coincidence_raises(self, monkeypatch, mask, message):
        # Every epoch turns about z, so point 20 of cloud 1, put on the z axis,
        # is its own shadow.  The check before the field names it by its cloud
        # and index under every mask, not by its row of the stacked clouds.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        points = dataset.clouds[1].points.copy()
        points[20] = [0.0, 0.0, 1.0]
        on_axis = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points)], labels=dataset.labels, symmetry=dataset.symmetry
        )
        about_z = UnitQuaternion(np.cos(0.5), 0.0, 0.0, np.sin(0.5))
        monkeypatch.setattr(training, "_sample_rotation", lambda z1, z2, rng: about_z)
        with pytest.raises(CoincidentPointError, match=f"^{message}$"):
            train_toy(on_axis, self._short_config(descriptor_mask=mask))

    def test_shadow_coincidence_names_the_index_before_the_row_rules(self, monkeypatch):
        # Point 5 of cloud 1, at the origin, is dropped first: point 20 is then row 19 of its
        # cloud and row 51 of the stack, and the error still names point 20 of cloud 1.
        dataset = make_wingtip_dataset(2, 32, 0.0, 100)
        points = dataset.clouds[1].points.copy()
        points[5] = 0.0
        points[20] = [0.0, 0.0, 1.0]
        on_axis = type(dataset)(
            clouds=[dataset.clouds[0], PointCloud(points=points)], labels=dataset.labels, symmetry=dataset.symmetry
        )
        about_z = UnitQuaternion(np.cos(0.5), 0.0, 0.0, np.sin(0.5))
        monkeypatch.setattr(training, "_sample_rotation", lambda z1, z2, rng: about_z)
        with pytest.warns(UserWarning, match=r"^cloud 1: 1 origin point\(s\) dropped$"):
            with pytest.raises(CoincidentPointError, match="^cloud 1: shadow coincides with point 20$"):
                train_toy(on_axis, self._short_config())

    def test_bingham_terms_computed_once_per_concentration_seed(self, monkeypatch):
        # The loss and its z2 gradient depend on z2 alone: the epoch-end pair
        # serves the next epoch's first batch, so no two calls see one z2.
        from sipf import bingham

        seen = []
        real = bingham.bingham_loss_and_seed_gradient

        def counted(seed):
            seen.append(seed.z2.tobytes())
            return real(seed)

        monkeypatch.setattr(bingham, "bingham_loss_and_seed_gradient", counted)
        dataset = make_wingtip_dataset(4, 32, 0.0, 100)
        train_toy(dataset, self._short_config())
        # 2 batches an epoch: 2 + 1 calls in the first epoch, 1 + 1 in each later one.
        assert len(seen) == 7
        assert len(set(seen)) == len(seen)

    def test_first_layer_is_asked_for_no_input_gradient(self, monkeypatch):
        # Each cloud's backward pass runs layer 1, whose input gradient feeds layer 0, then
        # layer 0, whose input gradient would be the input descriptor's and is not asked for.
        calls = []
        real = training.backward

        def recorded(layer, d_output, act, **kwargs):
            calls.append((layer, kwargs))
            grads, d_x = real(layer, d_output, act, **kwargs)
            assert (d_x is None) == (kwargs == {"input_grad": False})
            return grads, d_x

        monkeypatch.setattr(training, "backward", recorded)
        train_toy(make_wingtip_dataset(2, 32, 0.0, 100), self._short_config(epochs=1))
        # Two clouds, one epoch: two backward passes of two layers each.
        assert [kwargs for _, kwargs in calls] == [{"input_grad": True}, {"input_grad": False}] * 2
        layer1, layer0 = calls[0][0], calls[1][0]
        assert layer1 is not layer0
        assert all(layer is (layer1, layer0)[i % 2] for i, (layer, _) in enumerate(calls))


def _stacked_case(mode):
    """Three clouds of unequal size with their graphs and primary axes, k = 8, and a rotation."""
    rng = np.random.default_rng(29)
    clouds = []
    for n in (40, 57, 64):
        normals = rng.standard_normal((n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        points = rng.standard_normal((n, 3)) + [0.0, 0.0, 2.0]
        clouds.append(PointCloud(points=points, normals=normals if mode == FRAME_MODE_NORMAL else None))
    graphs = [knn_graph(c, 8) for c in clouds]
    axes = [build_all_lrfs(c, g, mode) for c, g in zip(clouds, graphs)]
    return clouds, axes, graphs, random_rotation(rng)


class TestStackedClouds:
    """The trainer's one shadow, field and audit call an epoch on its stacked clouds."""

    @pytest.mark.parametrize("field_rows", [None, 7])
    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_stacked_shadow_and_field_give_each_clouds_bits(self, monkeypatch, field_rows, mask, mode):
        # 7-row field blocks straddle the clouds' boundaries.
        if field_rows:
            monkeypatch.setattr(descriptors, "_FIELD_ROWS", field_rows)
        clouds, axes, graphs, rot = _stacked_case(mode)
        stack, stack_axes, stack_graph, splits = training._stack_clouds(clouds, axes, graphs)
        shadow = shadow_of(stack, stack_axes, rot)
        field = sipf_field(stack, stack_axes, stack_graph, shadow, mask=mask)
        parts = zip(np.split(shadow.points, splits), np.split(shadow.axes, splits), np.split(field, splits))
        for cloud, a, graph, (s_points, s_axes, f) in zip(clouds, axes, graphs, parts, strict=True):
            own = shadow_of(cloud, a, rot)
            assert s_points.tobytes() == own.points.tobytes()
            assert s_axes.tobytes() == own.axes.tobytes()
            assert f.tobytes() == sipf_field(cloud, a, graph, own, mask=mask).tobytes()

    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_stacked_audit_gives_each_clouds_bits_on_this_hosts_kernels(self, mode):
        # Host-specific: the audit's dots are BLAS products, and under
        # OPENBLAS_CORETYPE=Prescott a row's last bit depends on its address, so
        # the 57-point cloud, which moves the next one's rows by 8 bytes, fails.
        clouds, axes, graphs, rot = _stacked_case(mode)
        stack, stack_axes, _, splits = training._stack_clouds(clouds, axes, graphs)
        shadow = shadow_of(stack, stack_axes, rot)
        scores = np.split(detect_axis_alignment(stack.points, stack_axes, shadow.points, shadow.axes), splits)
        for cloud, a, score in zip(clouds, axes, scores, strict=True):
            own = shadow_of(cloud, a, rot)
            assert score.tobytes() == detect_axis_alignment(cloud.points, a, own.points, own.axes).tobytes()


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
