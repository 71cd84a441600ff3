import numpy as np
import pytest

from sipf.errors import DegenerateFrameError, DegenerateGeometryError, InvalidArgumentError
from sipf.geometry import PointCloud, knn_graph, random_rotation
from sipf.lrf import (
    FRAME_MODE_BARYCENTER,
    FRAME_MODE_NORMAL,
    build_all_lrfs,
    input_descriptor,
    try_build_all_lrfs,
)

from conftest import LocalFrame, barycenter_axis, build_lrf, random_cloud


def frame_row(e1, e2):
    """``try_build_all_lrfs`` row and validity for the direction pair (e1, e2).

    Point 0 sits at the origin with normal e1 / |e1| and has one neighbor at
    e2, so its normal-mode frame is the Gram-Schmidt frame of (e1, e2).
    """
    e1 = np.asarray(e1, dtype=np.float64)
    normal = e1 / np.linalg.norm(e1)
    cloud = PointCloud(points=[[0.0, 0.0, 0.0], e2], normals=[normal, normal])
    frames, valid = try_build_all_lrfs(cloud, knn_graph(cloud, 1), FRAME_MODE_NORMAL)
    return frames[0], bool(valid[0])


class TestBarycenterAxis:
    # In barycenter mode the primary axis is the normalized barycenter axis.

    def test_arithmetic_mean(self):
        # The far fourth point moves the centroid off the barycenter axis.
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 5]])
        graph = knn_graph(cloud, 2)
        assert np.allclose(barycenter_axis(cloud, graph, 0), [0.5, 0.5, 0.0], atol=1e-15)
        frames, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert valid[0]
        assert np.allclose(frames[0, 0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15)

    def test_symmetric_neighbors_degenerate(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [-1, 0, 0]])
        graph = knn_graph(cloud, 2)
        with pytest.raises(DegenerateGeometryError):
            barycenter_axis(cloud, graph, 0)
        _, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert not valid[0]

    def test_matches_direct_mean_oracle(self, rng):
        cloud = random_cloud(rng, 32)
        graph = knn_graph(cloud, 5)
        frames, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert valid.all()
        for i in range(len(cloud)):
            expected = cloud.points[graph.indices[i]].mean(axis=0) - cloud.points[i]
            assert np.allclose(barycenter_axis(cloud, graph, i), expected, atol=0)
            assert np.abs(frames[i, 0] - expected / np.linalg.norm(expected)).max() < 1e-15

    def test_index_out_of_range(self, rng):
        # The one-point oracle checks its index argument.
        cloud = random_cloud(rng, 8)
        graph = knn_graph(cloud, 2)
        with pytest.raises(InvalidArgumentError):
            barycenter_axis(cloud, graph, 8)


class TestBuildLrf:
    # try_build_all_lrfs rows against the one-point Gram-Schmidt oracle.

    def test_canonical_axes(self):
        frame, valid = frame_row([1, 0, 0], [0, 1, 0])
        assert valid
        assert np.allclose(frame, np.eye(3), atol=1e-15)
        assert np.allclose(build_lrf([1, 0, 0], [0, 1, 0]).axes, np.eye(3), atol=1e-15)

    def test_scale_and_parallel_component_irrelevant(self, rng):
        a, _ = frame_row([1, 0, 0], [0, 1, 0])
        b, _ = frame_row([2, 0, 0], [1, 1, 0])
        assert np.allclose(a, b, atol=1e-15)
        # Barycenter mode: scaling the cloud scales both directions.
        cloud = random_cloud(rng, 24)
        graph = knn_graph(cloud, 5)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        scaled = build_all_lrfs(PointCloud(points=3.7 * cloud.points), graph, FRAME_MODE_BARYCENTER)
        assert np.abs(scaled - frames).max() < 1e-12

    def test_parallel_directions_degenerate(self):
        for e2 in ([2, 0, 0], [1, 1e-9, 0]):
            assert not frame_row([1, 0, 0], e2)[1]
            with pytest.raises(DegenerateFrameError):
                build_lrf([1, 0, 0], e2)

    def test_zero_direction_degenerate(self):
        assert not frame_row([1, 0, 0], [0, 0, 0])[1]
        with pytest.raises(DegenerateFrameError):
            build_lrf([1, 0, 0], [0, 0, 0])
        with pytest.raises(DegenerateFrameError):
            build_lrf([0, 0, 0], [1, 0, 0])

    def test_invariance_to_e1_component_of_e2(self, rng):
        for _ in range(50):
            e1 = rng.standard_normal(3)
            e2 = rng.standard_normal(3)
            frame, _ = frame_row(e1, e2)
            shifted, _ = frame_row(3.7 * e1, e2 + 1.9 * e1)
            assert np.abs(frame - shifted).max() < 1e-12

    def test_output_is_valid_frame(self, rng):
        for _ in range(100):
            e1, e2 = rng.standard_normal(3), rng.standard_normal(3)
            a, valid = frame_row(e1, e2)
            assert valid
            assert np.abs(a @ a.T - np.eye(3)).max() < 1e-9
            assert np.abs(np.cross(a[0], a[1]) - a[2]).max() < 1e-9
            assert np.abs(a - build_lrf(e1, e2).axes).max() < 1e-12


class TestBuildAllLrfs:
    def test_planar_grid_normals(self):
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(16)], axis=1)
        normals = np.tile([0.0, 0.0, 1.0], (16, 1))
        cloud = PointCloud(points=pts, normals=normals)
        graph = knn_graph(cloud, 3)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_NORMAL)
        assert np.abs(frames[:, 0, :] - np.array([0.0, 0.0, 1.0])).max() < 1e-12

    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_frame_equivariance(self, rng, mode):
        cloud = random_cloud(rng, 24, with_normals=True)
        graph = knn_graph(cloud, 6)
        frames = build_all_lrfs(cloud, graph, mode)
        for _ in range(25):
            rot = random_rotation(rng)
            rotated = PointCloud(points=cloud.points @ rot.matrix, normals=cloud.normals @ rot.matrix)
            # Same graph: rotation preserves all pairwise distances.
            frames_rot = build_all_lrfs(rotated, graph, mode)
            assert np.abs(frames_rot - frames @ rot.matrix).max() < 1e-9

    def test_every_frame_valid(self, rng):
        cloud = random_cloud(rng, 40, with_normals=True)
        graph = knn_graph(cloud, 8)
        for mode in (FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER):
            frames = build_all_lrfs(cloud, graph, mode)
            for axes in frames:
                LocalFrame(axes=axes)  # validates orthonormal + right-handed

    def test_normal_mode_requires_normals(self, rng):
        cloud = random_cloud(rng, 8)
        graph = knn_graph(cloud, 2)
        with pytest.raises(InvalidArgumentError):
            build_all_lrfs(cloud, graph, FRAME_MODE_NORMAL)

    def test_degenerate_row_raises_with_index(self):
        # Point 0 sits between symmetric neighbors: zero barycenter axis.
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 5, 0], [0, -5, 0]])
        graph = knn_graph(cloud, 2)
        with pytest.raises(DegenerateFrameError) as excinfo:
            build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert excinfo.value.index == 0

    def test_try_variant_masks_instead(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 5, 0], [0, -5, 0]])
        graph = knn_graph(cloud, 2)
        frames, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert not valid[0]
        assert frames.shape == (5, 3, 3)

    # A graph shorter than the cloud made numpy's broadcast error, a longer one an IndexError.
    @pytest.mark.parametrize("n_cloud, n_graph", [(50, 30), (30, 50)])
    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_graph_must_have_the_clouds_rows(self, rng, n_cloud, n_graph, mode):
        graph = knn_graph(random_cloud(rng, n_graph), 4)
        cloud = random_cloud(rng, n_cloud, with_normals=True)
        message = f"cloud of {n_cloud} points does not match a graph of {n_graph} rows"
        with pytest.raises(InvalidArgumentError, match=message):
            try_build_all_lrfs(cloud, graph, mode)


class TestInputDescriptor:
    def _single_point_descriptor(self, point, primary):
        # Embed the probe point in a 2-point cloud whose centroid is the origin.
        point = np.asarray(point, dtype=float)
        cloud = PointCloud(points=[point, -point])
        frames = np.stack([np.eye(3), np.eye(3)])
        frames = frames.copy()
        frames[0] = build_lrf(primary, [0.3, 0.9, 0.1]).axes
        return input_descriptor(cloud, frames)[0]

    def test_zero_angle(self):
        rho, s, c = self._single_point_descriptor([1, 0, 0], [1, 0, 0])
        assert abs(rho - 1) < 1e-15 and abs(s) < 1e-7 and abs(c - 1) < 1e-12

    def test_right_angle(self):
        rho, s, c = self._single_point_descriptor([0, 2, 0], [1, 0, 0])
        assert abs(rho - 2) < 1e-15 and abs(s - 1) < 1e-12 and abs(c) < 1e-12

    def test_centroid_coincident_point_convention(self):
        pts = [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
        cloud = PointCloud(points=pts)
        frames = np.tile(np.eye(3), (5, 1, 1))
        desc = input_descriptor(cloud, frames)
        assert tuple(desc[0]) == (0.0, 0.0, 1.0)

    def test_rotation_invariance_with_equivariant_frames(self, rng):
        cloud = random_cloud(rng, 20, with_normals=True)
        graph = knn_graph(cloud, 5)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_NORMAL)
        base = input_descriptor(cloud, frames)
        worst = 0.0
        for _ in range(100):
            rot = random_rotation(rng)
            rotated = PointCloud(points=cloud.points @ rot.matrix, normals=cloud.normals @ rot.matrix)
            desc = input_descriptor(rotated, frames @ rot.matrix)
            worst = max(worst, np.abs(desc - base).max())
        assert worst < 1e-9

    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_cos_reads_the_bits_of_einsum(self, rng, mode):
        cloud = random_cloud(rng, 400, with_normals=True)
        frames, _ = try_build_all_lrfs(cloud, knn_graph(cloud, 8), mode)
        v = cloud.points - cloud.centroid
        cos_a = np.clip(np.einsum("nd,nd->n", frames[:, 0, :], v) / np.linalg.norm(v, axis=1), -1.0, 1.0)
        got = input_descriptor(cloud, frames)[:, 2]
        np.testing.assert_array_equal(got.view(np.int64), cos_a.view(np.int64))

    def test_sin_cos_identity(self, rng):
        cloud = random_cloud(rng, 30)
        graph = knn_graph(cloud, 6)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        desc = input_descriptor(cloud, frames)
        assert np.abs(desc[:, 1] ** 2 + desc[:, 2] ** 2 - 1.0).max() < 1e-9
        assert (desc[:, 0] >= 0).all()
