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

from conftest import barycenter_axis, primary_axis, random_cloud


def axis_row(e1, e2):
    """``try_build_all_lrfs`` row and validity of a point with normal e1 / |e1| and one neighbour.

    Point 0 sits at the origin with one neighbour at e2; in normal mode its
    primary axis is its normal, whatever e2 is.
    """
    e1 = np.asarray(e1, dtype=np.float64)
    normal = e1 / np.linalg.norm(e1)
    cloud = PointCloud(points=[[0.0, 0.0, 0.0], e2], normals=[normal, normal])
    axes, valid = try_build_all_lrfs(cloud, knn_graph(cloud, 1), FRAME_MODE_NORMAL)
    return axes[0], bool(valid[0])


class TestBarycenterAxis:
    # In barycenter mode the primary axis is the normalized barycenter axis.

    def test_arithmetic_mean(self):
        # The far fourth point moves the centroid off the barycenter axis.
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 5]])
        graph = knn_graph(cloud, 2)
        assert np.allclose(barycenter_axis(cloud, graph, 0), [0.5, 0.5, 0.0], atol=1e-15)
        axes, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert valid[0]
        assert np.allclose(axes[0], np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-15)

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
        axes, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert valid.all()
        for i in range(len(cloud)):
            expected = cloud.points[graph.indices[i]].mean(axis=0) - cloud.points[i]
            assert np.allclose(barycenter_axis(cloud, graph, i), expected, atol=0)
            assert np.abs(axes[i] - primary_axis(expected)).max() < 1e-15

    def test_index_out_of_range(self, rng):
        # The one-point oracle checks its index argument.
        cloud = random_cloud(rng, 8)
        graph = knn_graph(cloud, 2)
        with pytest.raises(InvalidArgumentError):
            barycenter_axis(cloud, graph, 8)


class TestPrimaryAxis:
    # try_build_all_lrfs rows against the one-point primary-axis oracle.

    def test_canonical_axis(self):
        axis, valid = axis_row([1, 0, 0], [0, 1, 0])
        assert valid
        assert np.array_equal(axis, [1.0, 0.0, 0.0])
        assert np.array_equal(primary_axis([1, 0, 0]), [1.0, 0.0, 0.0])

    def test_scale_irrelevant(self, rng):
        a, _ = axis_row([1, 0, 0], [0, 1, 0])
        b, _ = axis_row([2, 0, 0], [1, 1, 0])
        assert np.allclose(a, b, atol=1e-15)
        # Barycenter mode: scaling the cloud scales the barycenter axes.
        cloud = random_cloud(rng, 24)
        graph = knn_graph(cloud, 5)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        scaled = build_all_lrfs(PointCloud(points=3.7 * cloud.points), graph, FRAME_MODE_BARYCENTER)
        assert np.abs(scaled - axes).max() < 1e-12

    def test_neighbours_do_not_move_the_normal_axis(self, rng):
        # A neighbour along the normal, next to it or on the point leaves the axis defined.
        e1 = rng.standard_normal(3)
        base, _ = axis_row(e1, [0.3, -0.2, 0.9])
        for e2 in (2.0 * e1, e1 + [0.0, 1e-9, 0.0], [0.0, 0.0, 0.0], rng.standard_normal(3)):
            axis, valid = axis_row(e1, e2)
            assert valid
            assert np.array_equal(axis, base)

    def test_zero_direction_degenerate(self):
        with pytest.raises(DegenerateFrameError):
            primary_axis([0, 0, 0])
        with pytest.raises(DegenerateFrameError):
            primary_axis([5e-13, 0, 0])

    @pytest.mark.parametrize("gap, defined", [(4e-12, True), (1e-12, False)])
    def test_undefined_only_below_the_zero_axis_tolerance(self, gap, defined):
        # Point 0's two neighbours put its barycenter axis at (gap / 2, 0, 0).
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [-1 + gap, 0, 0], [0, 5, 0], [0, -5, 0]])
        graph = knn_graph(cloud, 2)
        axes, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert valid[0] == defined and valid[1:].all()
        assert np.array_equal(axes[0], [1.0, 0.0, 0.0])

    def test_matches_one_point_oracle(self, rng):
        for _ in range(100):
            e1, e2 = rng.standard_normal(3), rng.standard_normal(3)
            a, valid = axis_row(e1, e2)
            assert valid
            assert abs(np.linalg.norm(a) - 1.0) < 1e-15
            assert np.abs(a - primary_axis(e1)).max() < 1e-15


class TestBuildAllLrfs:
    def test_planar_grid_normals(self):
        xs, ys = np.meshgrid(np.arange(4.0), np.arange(4.0))
        pts = np.stack([xs.ravel(), ys.ravel(), np.zeros(16)], axis=1)
        normals = np.tile([0.0, 0.0, 1.0], (16, 1))
        cloud = PointCloud(points=pts, normals=normals)
        graph = knn_graph(cloud, 3)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_NORMAL)
        assert np.array_equal(axes, normals)

    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_frame_equivariance(self, rng, mode):
        cloud = random_cloud(rng, 24, with_normals=True)
        graph = knn_graph(cloud, 6)
        axes = build_all_lrfs(cloud, graph, mode)
        for _ in range(25):
            rot = random_rotation(rng)
            rotated = PointCloud(points=cloud.points @ rot.matrix, normals=cloud.normals @ rot.matrix)
            # Same graph: rotation preserves all pairwise distances.
            axes_rot = build_all_lrfs(rotated, graph, mode)
            assert np.abs(axes_rot - axes @ rot.matrix).max() < 1e-9

    def test_every_frame_valid(self, rng):
        cloud = random_cloud(rng, 40, with_normals=True)
        graph = knn_graph(cloud, 8)
        for mode in (FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER):
            axes = build_all_lrfs(cloud, graph, mode)
            assert axes.shape == (40, 3)
            assert np.abs(np.linalg.norm(axes, axis=1) - 1.0).max() < 1e-15

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
        axes, valid = try_build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        assert not valid[0]
        assert axes.shape == (5, 3)
        assert np.array_equal(axes[0], [1.0, 0.0, 0.0])

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
        axes = np.array([primary_axis(primary), [1.0, 0.0, 0.0]])
        return input_descriptor(cloud, axes)[0]

    def test_zero_angle(self):
        rho, s, c = self._single_point_descriptor([1, 0, 0], [1, 0, 0])
        assert abs(rho - 1) < 1e-15 and abs(s) < 1e-7 and abs(c - 1) < 1e-12

    def test_right_angle(self):
        rho, s, c = self._single_point_descriptor([0, 2, 0], [1, 0, 0])
        assert abs(rho - 2) < 1e-15 and abs(s - 1) < 1e-12 and abs(c) < 1e-12

    def test_centroid_coincident_point_convention(self):
        pts = [[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
        cloud = PointCloud(points=pts)
        axes = np.tile([1.0, 0.0, 0.0], (5, 1))
        desc = input_descriptor(cloud, axes)
        assert tuple(desc[0]) == (0.0, 0.0, 1.0)

    def test_rotation_invariance_with_equivariant_frames(self, rng):
        cloud = random_cloud(rng, 20, with_normals=True)
        graph = knn_graph(cloud, 5)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_NORMAL)
        base = input_descriptor(cloud, axes)
        worst = 0.0
        for _ in range(100):
            rot = random_rotation(rng)
            rotated = PointCloud(points=cloud.points @ rot.matrix, normals=cloud.normals @ rot.matrix)
            desc = input_descriptor(rotated, axes @ rot.matrix)
            worst = max(worst, np.abs(desc - base).max())
        assert worst < 1e-9

    @pytest.mark.parametrize("mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    def test_cos_reads_the_bits_of_einsum(self, rng, mode):
        cloud = random_cloud(rng, 400, with_normals=True)
        axes, _ = try_build_all_lrfs(cloud, knn_graph(cloud, 8), mode)
        v = cloud.points - cloud.centroid
        cos_a = np.clip(np.einsum("nd,nd->n", axes, v) / np.linalg.norm(v, axis=1), -1.0, 1.0)
        got = input_descriptor(cloud, axes)[:, 2]
        np.testing.assert_array_equal(got.view(np.int64), cos_a.view(np.int64))

    def test_sin_cos_identity(self, rng):
        cloud = random_cloud(rng, 30)
        graph = knn_graph(cloud, 6)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        desc = input_descriptor(cloud, axes)
        assert np.abs(desc[:, 1] ** 2 + desc[:, 2] ** 2 - 1.0).max() < 1e-9
        assert (desc[:, 0] >= 0).all()
