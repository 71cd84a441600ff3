import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipf import geometry, lanes
from sipf.errors import InvalidArgumentError, InvalidInputError
from sipf.geometry import (
    NeighborGraph,
    PointCloud,
    Rotation3,
    UnitQuaternion,
    dot3,
    is_near_identity,
    knn_graph,
    quat_to_matrix,
    random_rotation,
)

from conftest import (
    apply_rotation,
    brute_force_knn,
    lexsort_knn,
    matrix_to_quat,
    quaternion_distance,
    random_cloud,
    rotation_from_axis_angle,
)


class TestPointCloud:
    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            PointCloud(points=[[0.0, 0.0, np.nan], [1.0, 0.0, 0.0]])

    def test_rejects_single_point(self):
        with pytest.raises(InvalidInputError):
            PointCloud(points=[[0.0, 0.0, 0.0]])

    def test_rejects_bad_normal_norm(self):
        with pytest.raises(InvalidInputError):
            PointCloud(points=np.eye(3), normals=np.eye(3) * 1.5)

    def test_normals_renormalized(self):
        normals = np.tile([1.0 + 5e-7, 0.0, 0.0], (2, 1))
        cloud = PointCloud(points=[[0, 0, 0], [1, 1, 1]], normals=normals)
        assert np.abs(np.linalg.norm(cloud.normals, axis=1) - 1.0).max() < 1e-12

    def test_immutable(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 1, 1]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 5.0


class TestKnnGraph:
    def test_collinear_three_points(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        graph = knn_graph(cloud, 1)
        assert graph.indices[:, 0].tolist() == [1, 0, 1]

    def test_unit_square_edges_beat_diagonal(self):
        cloud = PointCloud(points=[[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        graph = knn_graph(cloud, 2)
        expected = {0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {0, 2}}
        for i, row in enumerate(graph.indices):
            assert set(row.tolist()) == expected[i]

    def test_matches_brute_force_random(self, rng):
        pts = rng.uniform(-1, 1, (64, 3))
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 20)
        assert np.array_equal(graph.indices, brute_force_knn(pts, 20))

    @pytest.mark.parametrize("k", [1, 3, 7, 13])
    def test_matches_brute_force_on_tied_grid(self, k):
        # Integer grid: massive exact distance ties exercise the tie-break.
        axes = np.arange(4.0)
        pts = np.stack(np.meshgrid(axes, axes, axes), axis=-1).reshape(-1, 3)
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, k)
        assert np.array_equal(graph.indices, brute_force_knn(pts, k))

    def test_matches_brute_force_sweep(self, rng):
        for n, k in [(5, 1), (17, 4), (50, 12), (256, 31)]:
            pts = rng.standard_normal((n, 3))
            cloud = PointCloud(points=pts)
            graph = knn_graph(cloud, k)
            assert np.array_equal(graph.indices, brute_force_knn(pts, k))

    def test_rows_sorted_by_distance(self, rng):
        pts = rng.standard_normal((40, 3))
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 10)
        for i, row in enumerate(graph.indices):
            d = np.linalg.norm(pts[row] - pts[i], axis=1)
            assert np.all(np.diff(d) >= 0)
            assert i not in row

    @pytest.mark.parametrize("k", [1, 6, 20])
    @pytest.mark.parametrize("kind", ["random", "lattice", "duplicates", "k_plus_one"])
    def test_matches_whole_window_lexsort(self, kind, k):
        rng = np.random.default_rng([k, len(kind)])
        pts = rng.uniform(-1, 1, (800, 3))
        if kind == "lattice":
            pts = np.round(pts * 8) / 8  # a 1/8 lattice: most windows hold exact ties
        elif kind == "duplicates":
            # Forty copies of one point outnumber a k + 8 window, so the self
            # entry can be missing from its own window.
            pts = np.vstack([pts[:300], pts[:100], np.tile(pts[7], (40, 1))])
        elif kind == "k_plus_one":
            pts = pts[: k + 1]
        graph = knn_graph(PointCloud(points=pts), k)
        assert np.array_equal(graph.indices, lexsort_knn(pts, k))

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize("kind, k", [("random", 6), ("lattice", 6), ("duplicates", 20), ("k_plus_one", 6)])
    def test_same_indices_at_every_block_size(self, monkeypatch, kind, k, rows):
        # Blocks of 1, 7 and N query points, on both lanes, give the whole-window graph: with
        # exact distance ties, with rows resolved by the window-edge fallback and at N = k + 1.
        rng = np.random.default_rng(len(kind))
        pts = rng.uniform(-1, 1, (150, 3))
        if kind == "lattice":
            pts = np.round(pts * 4) / 4
        elif kind == "duplicates":
            pts = np.vstack([pts[:60], pts[:30], np.tile(pts[7], (40, 1))])
        elif kind == "k_plus_one":
            pts = pts[: k + 1]
        monkeypatch.setattr(geometry, "_QUERY_ROWS", rows or len(pts))
        full_scans = []
        row_distances = geometry._row_distances

        def counted(points, i):
            full_scans.append(i)
            return row_distances(points, i)

        monkeypatch.setattr(geometry, "_row_distances", counted)
        graph = knn_graph(PointCloud(points=pts), k)
        assert np.array_equal(graph.indices, lexsort_knn(pts, k))
        assert bool(full_scans) == (kind in ("lattice", "duplicates"))

    @pytest.mark.parametrize("n, size", [(21, 21), (1024, 1024), (1025, 513), (3000, 750), (5000, 834), (9000, 900)])
    def test_query_blocks_are_even_and_equal(self, monkeypatch, n, size):
        # One block, or an even number of one size but a shorter last, so the lanes query as many.
        calls = []
        run_blocks = geometry.run_blocks

        def recorded(total, rows, step):
            calls.append((total, rows))
            return run_blocks(total, rows, step)

        monkeypatch.setattr(geometry, "run_blocks", recorded)
        pts = np.random.default_rng(n).uniform(-1, 1, (n, 3))
        graph = knn_graph(PointCloud(points=pts), 20)
        assert calls == [(n, size)]
        blocks = -(-n // size)
        assert blocks == 1 or blocks % 2 == 0
        assert n - (blocks - 1) * size > size - blocks
        for i in range(0, n, 499):
            d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            assert np.array_equal(graph.indices[i], np.lexsort((np.arange(n), d))[:20])

    def test_lane_one_queries_on_the_executor(self, rng, monkeypatch):
        monkeypatch.setattr(geometry, "_QUERY_ROWS", 16)
        threads = set()
        lane = lanes._lane

        def recorded(blocks, step, number):
            threads.add((number, threading.current_thread().name.rsplit("_", 1)[0]))
            return lane(blocks, step, number)

        monkeypatch.setattr(lanes, "_lane", recorded)
        pts = rng.uniform(-1, 1, (100, 3))
        graph = knn_graph(PointCloud(points=pts), 5)
        assert threads == {(0, threading.current_thread().name.rsplit("_", 1)[0]), (1, "sipf-lane")}
        assert np.array_equal(graph.indices, brute_force_knn(pts, 5))

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=2, max_value=40),
        st.booleans(),
    )
    def test_matches_brute_force_property(self, seed, n, snap_to_grid):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-2, 2, (n, 3))
        if snap_to_grid:
            pts = np.round(pts)  # heavy exact ties
        k = int(rng.integers(1, n))
        graph = knn_graph(PointCloud(points=pts), k)
        assert np.array_equal(graph.indices, brute_force_knn(pts, k))

    def test_k_out_of_range(self):
        cloud = PointCloud(points=np.eye(3))
        with pytest.raises(InvalidArgumentError):
            knn_graph(cloud, 0)
        with pytest.raises(InvalidArgumentError):
            knn_graph(cloud, 3)

    def test_non_integer_k(self):
        cloud = PointCloud(points=np.eye(3))
        with pytest.raises(InvalidArgumentError):
            knn_graph(cloud, 1.5)

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(InvalidInputError):
            PointCloud(points=[[0, 0, 0], [np.inf, 0, 0]])

    def test_graph_invariant_validation(self):
        with pytest.raises(InvalidInputError):
            NeighborGraph(k=2, indices=np.zeros((4, 3), dtype=int))


class TestQuaternionMatrix:
    def test_identity_quaternion(self):
        rot = quat_to_matrix(UnitQuaternion(1, 0, 0, 0))
        assert np.allclose(rot.matrix, np.eye(3), atol=0)

    def test_half_pi_about_x(self):
        s = np.sqrt(0.5)
        rot = quat_to_matrix(UnitQuaternion(s, s, 0, 0))
        assert np.abs(rot.matrix @ np.array([0, 1, 0]) - np.array([0, 0, 1])).max() < 1e-15

    def test_antipodal_pair_same_matrix(self, rng):
        # Renormalising -q moves the last bit of the matrix for about 1 in 65 draws.
        for _ in range(2000):
            v = rng.standard_normal(4)
            q = UnitQuaternion.from_array(v / np.linalg.norm(v))
            assert np.array_equal(quat_to_matrix(q).matrix, quat_to_matrix(-q).matrix)

    def test_bad_norm_rejected(self):
        with pytest.raises(InvalidInputError):
            quat_to_matrix(np.array([1.0, 0.1, 0.0, 0.0]))

    def test_wrong_component_count_rejected(self):
        with pytest.raises(InvalidInputError, match="4 components"):
            UnitQuaternion.from_array([1, 0, 0])
        with pytest.raises(InvalidInputError, match="4 components"):
            quat_to_matrix([1.0, 0.0, 0.0, 0.0, 0.0])

    def test_matrix_to_quat_identity(self):
        q = matrix_to_quat(Rotation3(np.eye(3)))
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_matrix_to_quat_pi_about_z(self):
        rot = rotation_from_axis_angle([0, 0, 1], np.pi)
        q = matrix_to_quat(rot)
        assert q.w >= 0
        assert np.abs(q.array - np.array([0, 0, 0, 1])).max() < 1e-12

    def test_matrix_to_quat_rejects_non_orthogonal(self):
        bad = np.eye(3)
        bad[0, 1] = 1e-4
        with pytest.raises(InvalidInputError):
            matrix_to_quat(bad)

    def test_round_trip_quat_matrix_quat(self, rng):
        for _ in range(100):
            v = rng.standard_normal(4)
            q = UnitQuaternion.from_array(v / np.linalg.norm(v))
            back = matrix_to_quat(quat_to_matrix(q))
            assert min(np.abs(back.array - q.array).max(), np.abs(back.array + q.array).max()) < 1e-10

    def test_round_trip_matrix_quat_matrix(self, rng):
        worst = 0.0
        for _ in range(1000):
            rot = random_rotation(rng)
            back = quat_to_matrix(matrix_to_quat(rot))
            worst = max(worst, np.abs(back.matrix - rot.matrix).max())
        assert worst < 1e-10

    def test_w_positive_representative(self, rng):
        for _ in range(50):
            assert matrix_to_quat(random_rotation(rng)).w >= 0

    def test_round_trip_near_half_turns(self, rng):
        # Rotations near pi have w ~ 0 and exercise the non-trace branches.
        for _ in range(200):
            axis = rng.standard_normal(3)
            rot = rotation_from_axis_angle(axis, np.pi - 1e-8 * rng.random())
            back = quat_to_matrix(matrix_to_quat(rot))
            assert np.abs(back.matrix - rot.matrix).max() < 1e-10


class TestApplyRotation:
    def test_identity_rotation(self, rng):
        cloud = random_cloud(rng, 10, with_normals=True)
        out = apply_rotation(cloud, Rotation3(np.eye(3)))
        assert np.array_equal(out.points, cloud.points)
        assert np.array_equal(out.normals, cloud.normals)

    def test_row_convention_half_pi_about_z(self):
        # Row action p @ R with the standard column-active matrix gives the
        # inverse sense: (1,0,0) lands on (0,-1,0).
        cloud = PointCloud(points=[[1, 0, 0], [0, 0, 0]])
        rot = rotation_from_axis_angle([0, 0, 1], np.pi / 2)
        out = apply_rotation(cloud, rot)
        assert np.abs(out.points[0] - np.array([0, -1, 0])).max() < 1e-15

    def test_distance_matrix_preserved(self, rng):
        cloud = random_cloud(rng, 30)
        rot = random_rotation(rng)
        out = apply_rotation(cloud, rot)
        d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None], axis=-1)
        d1 = np.linalg.norm(out.points[:, None] - out.points[None], axis=-1)
        scale = np.maximum(d0, 1e-30)
        assert (np.abs(d0 - d1) / scale).max() < 1e-12


class TestRandomRotation:
    def test_deterministic_per_seed(self):
        a = random_rotation(np.random.default_rng(7))
        b = random_rotation(np.random.default_rng(7))
        assert np.array_equal(a.matrix, b.matrix)

    def test_satisfies_rotation_invariants(self, rng):
        for _ in range(100):
            rot = random_rotation(rng)  # Rotation3 validates orthogonality and det
            assert np.abs(rot.matrix.T @ rot.matrix - np.eye(3)).max() < 1e-10

    def test_mean_entry_near_zero(self, rng):
        total = sum(random_rotation(rng).matrix[0, 0] for _ in range(10_000))
        assert abs(total / 10_000) < 0.05

    def test_quaternion_scatter_near_isotropic(self):
        # The underlying quaternion draw should have scatter ~ I/4.
        rng = np.random.default_rng(3)
        acc = np.zeros((4, 4))
        n = 100_000
        for _ in range(n):
            q = matrix_to_quat(random_rotation(rng)).array
            acc += np.outer(q, q)
        assert np.abs(acc / n - np.eye(4) / 4).max() < 0.01


def _einsum_rows_and_dot3(x, y):
    """np.einsum's dot over the rows of x and y, and dot3's over their coordinate planes."""
    expected = np.einsum("...d,...d->...", x, y)
    got = dot3(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0), out=np.empty_like(expected),
               work=np.empty_like(expected))
    return expected.view(np.int64), got.view(np.int64)


class TestDot3:
    """dot3 is the production dot product: these pin its bits to np.einsum's, so a numpy whose
    einsum associates its 3-term sum differently fails here by name."""

    SHAPES = [((300, 7), (300, 7)), ((300, 1), (300, 7)), ((300, 1), (300, 1))]

    @pytest.mark.parametrize("x_shape, y_shape", SHAPES)
    def test_bits_of_einsum_from_1e_minus_300_to_1e300(self, x_shape, y_shape):
        rng = np.random.default_rng(sum(x_shape + y_shape))

        def triples(shape):
            signs = rng.choice([-1.0, 1.0], (*shape, 3))
            return signs * 10.0 ** rng.uniform(-300.0, 300.0, (*shape, 3))

        for _ in range(20):
            with np.errstate(all="ignore"):  # products overflow and underflow across this range
                expected, got = _einsum_rows_and_dot3(triples(x_shape), triples(y_shape))
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("x_shape, y_shape", SHAPES)
    def test_bits_of_einsum_on_unit_scale_triples(self, x_shape, y_shape):
        rng = np.random.default_rng(len(x_shape + y_shape))
        expected, got = _einsum_rows_and_dot3(rng.normal(size=(*x_shape, 3)), rng.normal(size=(*y_shape, 3)))
        np.testing.assert_array_equal(got, expected)

    ZERO_AND_UNIT = np.array([0.0, -0.0, 1.0, -1.0])

    @pytest.mark.parametrize("x_shape, y_shape", SHAPES)
    def test_signed_zeros(self, x_shape, y_shape):
        rng = np.random.default_rng(7)
        x, y = rng.choice(self.ZERO_AND_UNIT, (*x_shape, 3)), rng.choice(self.ZERO_AND_UNIT, (*y_shape, 3))
        expected, got = _einsum_rows_and_dot3(x, y)
        np.testing.assert_array_equal(got, expected)

    def test_every_sign_pattern_of_zero_and_unit_products(self):
        # Three -0 products sum to +0, as from einsum's +0 start.
        triples = np.array(np.meshgrid(*[self.ZERO_AND_UNIT] * 6)).reshape(6, -1).T
        expected, got = _einsum_rows_and_dot3(triples[:, :3], triples[:, 3:])
        np.testing.assert_array_equal(got, expected)
        assert np.array([-0.0]).view(np.int64)[0] not in got


class TestHelpers:
    def test_rotation_from_axis_angle_zero_axis(self):
        with pytest.raises(InvalidArgumentError):
            rotation_from_axis_angle([0, 0, 0], 1.0)

    def test_quaternion_distance_antipodal(self):
        q = UnitQuaternion(0.5, 0.5, 0.5, 0.5)
        assert quaternion_distance(q, -q) == 0.0
        assert abs(quaternion_distance(UnitQuaternion(1, 0, 0, 0), UnitQuaternion(0, 1, 0, 0)) - np.pi / 2) < 1e-12

    def test_is_near_identity(self):
        assert is_near_identity(UnitQuaternion(1, 0, 0, 0))
        assert is_near_identity(UnitQuaternion(-1, 0, 0, 0))
        assert is_near_identity(UnitQuaternion(np.cos(5e-11), np.sin(5e-11), 0, 0))  # angle 1e-10
        assert not is_near_identity(UnitQuaternion(np.cos(5e-7), 0, np.sin(5e-7), 0))
        assert not is_near_identity(UnitQuaternion(0.5, 0.5, 0.5, 0.5))

    def test_is_near_identity_resolves_its_tolerance(self):
        # 2 arccos|w| reads 0 up to about 2e-8 rad; the 1e-9 bound must still split these.
        def turn(angle):
            return UnitQuaternion(np.cos(angle / 2), 0.0, np.sin(angle / 2), 0.0)

        assert is_near_identity(turn(5e-10))
        assert not is_near_identity(turn(2e-9))
        assert not is_near_identity(turn(1e-8))
