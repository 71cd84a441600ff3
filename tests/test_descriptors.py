import concurrent.futures
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sipf import descriptors, geometry, lanes
from sipf.descriptors import (
    DESCRIPTOR_MASKS,
    MASK_PPF,
    MASK_SIPF,
    MASK_SIPF_NO_DIRECTION,
    ShadowCloud,
    coincident_pairs,
    detect_axis_alignment,
    detect_local_coincidence,
    field_deviations,
    shadow_of,
    sipf_field,
)
from sipf.errors import CoincidentPointError, InvalidArgumentError, InvalidInputError
from sipf.geometry import (
    NeighborGraph,
    PointCloud,
    Rotation3,
    UnitQuaternion,
    knn_graph,
    quat_to_matrix,
    random_rotation,
)
from sipf.lrf import FRAME_MODE_BARYCENTER, FRAME_MODE_NORMAL, build_all_lrfs, input_descriptor, try_build_all_lrfs
from sipf.training import make_wingtip_dataset

from conftest import (
    matrix_to_quat,
    mirrored_blob_cloud,
    pair_rows,
    ppf,
    primary_axis,
    random_axes,
    random_cloud,
    reference_sipf_field,
    rotation_from_axis_angle,
    scalar_axis_alignment,
    sipf,
    sipf_stack,
    sippf,
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def circle_ambiguous_pair(azimuth=1.1):
    """Reference point with two neighbors on a circle around its primary axis.

    The second neighbor (and its primary axis) is the first rotated about the
    axis line through the reference point, which leaves the plain pair feature
    unchanged by construction.
    """
    p_r = np.array([0.3, -0.2, 0.5])
    axis = _unit([0.2, 0.4, 0.9])
    a_r = primary_axis(axis)
    side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
    p_j = p_r + 0.8 * side + 0.3 * axis
    a_j = primary_axis(axis + 0.7 * side)
    # Row-convention transport: x -> p_r + (x - p_r) @ m rotates about the axis.
    m = rotation_from_axis_angle(axis, azimuth).matrix.T
    p_j2 = p_r + (p_j - p_r) @ m
    a_j2 = a_j @ m
    return p_r, a_r, p_j, a_j, p_j2, a_j2, axis


def field_ppf(p_r, a_r, p_j, a_j):
    """Plain pair block of sipf_field for one pair; the plain mask never reads the shadow."""
    return pair_rows(p_r, a_r, [(p_j, a_j)], np.asarray(p_r, dtype=float) + 1.0, a_r, mask=MASK_PPF)[0, :4]


def field_sippf(p_r, a_r, p_j, a_j, shadow_p, shadow_a):
    """Shadow-informed block of sipf_field for one pair."""
    return pair_rows(p_r, a_r, [(p_j, a_j)], shadow_p, shadow_a)[0, 4:]


def field_sipf(p_r, a_r, p_j, a_j, shadow_p, shadow_a):
    """Full 8-dim sipf_field row for one pair."""
    return pair_rows(p_r, a_r, [(p_j, a_j)], shadow_p, shadow_a)[0]


def transcription_sippf(p_r, a_r, p_j, a_j, p_s, a_s):
    """Independent component-by-component transcription of the defining formula."""

    def pair(pa, aa, pb, ab):
        d = pb - pa
        n = np.linalg.norm(d)
        return np.array([n, aa @ d / n, ab @ d / n, aa @ ab])

    diff = pair(p_r, a_r, p_s, a_s) - pair(p_j, a_j, p_s, a_s)
    norm = np.linalg.norm(diff)
    return np.zeros(4) if norm < 1e-12 else diff / norm


class TestPpf:
    def test_all_aligned(self):
        a_r = primary_axis([1, 0, 0])
        out = field_ppf([0, 0, 0], a_r, [2, 0, 0], a_r)
        assert np.allclose(out, [2, 1, 1, 1], atol=1e-15)

    def test_orthogonal_axes(self):
        a_r = primary_axis([1, 0, 0])
        a_j = primary_axis([0, 1, 0])
        out = field_ppf([0, 0, 0], a_r, [2, 0, 0], a_j)
        assert np.allclose(out, [2, 1, 0, 0], atol=1e-15)

    def test_coincident_points(self):
        a = np.array([1.0, 0.0, 0.0])
        with pytest.raises(CoincidentPointError):
            field_ppf([1, 2, 3], a, [1, 2, 3], a)

    def test_circle_ambiguity(self):
        p_r, a_r, p_j, a_j, p_j2, a_j2, _ = circle_ambiguous_pair()
        a = field_ppf(p_r, a_r, p_j, a_j)
        b = field_ppf(p_r, a_r, p_j2, a_j2)
        assert not np.allclose(p_j, p_j2)
        assert np.abs(a - b).max() < 1e-12

    def test_rotation_invariance(self, rng):
        for _ in range(200):
            p_r, p_j = rng.standard_normal(3), rng.standard_normal(3)
            a_r, a_j = random_axes(rng, 2)
            rot = random_rotation(rng).matrix
            a = field_ppf(p_r, a_r, p_j, a_j)
            b = field_ppf(p_r @ rot, a_r @ rot, p_j @ rot, a_j @ rot)
            assert np.abs(a - b).max() < 1e-12


class TestShadowOf:
    def test_identity_rotation_keeps_cloud(self, rng):
        cloud = random_cloud(rng, 12)
        axes = random_axes(rng, 12)
        shadow = shadow_of(cloud, axes, quat_to_matrix(UnitQuaternion(1, 0, 0, 0)))
        assert np.array_equal(shadow.points, cloud.points)
        assert np.array_equal(shadow.axes, axes)

    def test_half_turn_about_z(self):
        cloud = PointCloud(points=[[1, 0, 0], [0, 0, 1]])
        axes = np.tile([1.0, 0.0, 0.0], (2, 1))
        rot = rotation_from_axis_angle([0, 0, 1], np.pi)
        shadow = shadow_of(cloud, axes, rot)
        assert np.abs(shadow.points[0] - np.array([-1, 0, 0])).max() < 1e-15

    def test_norms_preserved(self, rng):
        cloud = random_cloud(rng, 30)
        axes = random_axes(rng, 30)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        n0 = np.linalg.norm(cloud.points, axis=1)
        n1 = np.linalg.norm(shadow.points, axis=1)
        assert (np.abs(n0 - n1) / np.maximum(n0, 1e-30)).max() < 1e-12

    def test_axes_equal_row_zero_of_the_transported_frames_bitwise(self, rng):
        # Transporting the (N, 3) primary axes alone gives row 0 of the
        # transported whole bases, bit for bit.
        for n in (2, 7, 600):
            cloud = random_cloud(rng, n)
            frames = np.stack([random_rotation(rng).matrix for _ in range(n)])
            rot = random_rotation(rng)
            shadow = shadow_of(cloud, np.ascontiguousarray(frames[:, 0, :]), rot)
            assert np.array_equal(shadow.axes, (frames @ rot.matrix)[:, 0, :])
            assert shadow.axes.shape == shadow.points.shape == (n, 3)


class TestSippf:
    def test_zero_for_symmetric_configuration(self):
        axis = primary_axis([0, 1, 0])
        out = field_sippf([1, 0, 0], axis, [-1, 0, 0], axis, [0, 1, 0], axis)
        assert np.array_equal(out, np.zeros(4))

    def test_norm_is_zero_or_one(self, rng):
        for _ in range(300):
            pts = rng.standard_normal((3, 3))
            a = random_axes(rng, 3)
            out = field_sippf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
            n = np.linalg.norm(out)
            assert n == 0.0 or abs(n - 1.0) < 1e-9

    def test_matches_transcription_oracle(self, rng):
        for _ in range(200):
            pts = rng.standard_normal((3, 3))
            a = random_axes(rng, 3)
            ours = field_sippf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
            ref = transcription_sippf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
            assert np.abs(ours - ref).max() < 1e-12

    def test_coincident_shadow(self):
        a = np.array([1.0, 0.0, 0.0])
        with pytest.raises(CoincidentPointError):
            field_sippf([1, 0, 0], a, [0, 1, 0], a, [1, 0, 0], a)


class TestSipf:
    def test_concatenation(self, rng):
        pts = rng.standard_normal((3, 3))
        a = random_axes(rng, 3)
        full = field_sipf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
        assert np.array_equal(full[:4], field_ppf(pts[0], a[0], pts[1], a[1]))
        oracle = sipf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
        assert np.array_equal(oracle[:4], ppf(pts[0], a[0], pts[1], a[1]))
        assert np.array_equal(oracle[4:], sippf(pts[0], a[0], pts[1], a[1], pts[2], a[2]))
        assert np.abs(full - oracle).max() < 1e-12

    def test_joint_rotation_invariance(self, rng):
        worst = 0.0
        for _ in range(300):
            pts = rng.standard_normal((3, 3))
            a = random_axes(rng, 3)
            base = field_sipf(pts[0], a[0], pts[1], a[1], pts[2], a[2])
            rot = random_rotation(rng).matrix
            moved = field_sipf(
                pts[0] @ rot, a[0] @ rot, pts[1] @ rot, a[1] @ rot, pts[2] @ rot, a[2] @ rot
            )
            worst = max(worst, np.abs(base - moved).max())
        assert worst < 1e-9

    def test_circle_pair_resolved_by_generic_shadow(self):
        p_r, a_r, p_j, a_j, p_j2, a_j2, _ = circle_ambiguous_pair()
        shadow_p = p_r + np.array([0.4, -0.7, 0.25])
        shadow_a = primary_axis([-0.3, 0.8, 0.52])
        a = field_sipf(p_r, a_r, p_j, a_j, shadow_p, shadow_a)
        b = field_sipf(p_r, a_r, p_j2, a_j2, shadow_p, shadow_a)
        assert np.abs(a[:4] - b[:4]).max() < 1e-12  # plain block still ambiguous
        assert np.abs(a[4:] - b[4:]).max() > 1e-3   # shadow block separates

    def test_axis_aligned_shadow_degenerates_to_plain_pair(self):
        # Shadow displaced along the primary axis with coinciding primary
        # axes: the shadow block is identical for both ambiguous neighbors.
        p_r, a_r, p_j, a_j, p_j2, a_j2, axis = circle_ambiguous_pair()
        shadow_p = p_r + 0.6 * axis
        a = field_sipf(p_r, a_r, p_j, a_j, shadow_p, a_r)
        b = field_sipf(p_r, a_r, p_j2, a_j2, shadow_p, a_r)
        assert np.abs(a[4:] - b[4:]).max() < 1e-6


class TestSipfStack:
    def test_k1_equals_single_call(self, rng):
        cloud = random_cloud(rng, 6)
        graph = knn_graph(cloud, 1)
        axes = random_axes(rng, 6)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        field = sipf_field(cloud, axes, graph, shadow)
        stack = sipf_stack(cloud, axes, graph, shadow, 2)
        j = graph.indices[2][0]
        direct = sipf(
            cloud.points[2], axes[2], cloud.points[j], axes[j], shadow.points[2], shadow.axes[2]
        )
        assert np.array_equal(stack, direct[None, :])
        assert np.abs(field[2] - direct[None, :]).max() < 1e-12

    def test_rows_follow_graph_order(self, rng):
        cloud = random_cloud(rng, 12)
        graph = knn_graph(cloud, 4)
        axes = random_axes(rng, 12)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        field = sipf_field(cloud, axes, graph, shadow)
        stack = sipf_stack(cloud, axes, graph, shadow, 0)
        for col, j in enumerate(graph.indices[0]):
            direct = sipf(
                cloud.points[0], axes[0], cloud.points[j], axes[j],
                shadow.points[0], shadow.axes[0],
            )
            assert np.array_equal(stack[col], direct)
            assert np.abs(field[0, col] - direct).max() < 1e-12

    def test_error_carries_pair_context(self, rng):
        cloud = random_cloud(rng, 6)
        graph = knn_graph(cloud, 2)
        axes = random_axes(rng, 6)
        # Identity-rotation shadow coincides with every source point.
        shadow = shadow_of(cloud, axes, quat_to_matrix(UnitQuaternion(1, 0, 0, 0)))
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(cloud, axes, graph, shadow)
        assert str(excinfo.value) == "shadow coincides with point 0"
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_stack(cloud, axes, graph, shadow, 3)
        assert "(3," in str(excinfo.value)

    def test_field_matches_per_pair_loop(self, rng):
        cloud = random_cloud(rng, 16)
        graph = knn_graph(cloud, 5)
        axes = random_axes(rng, 16)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        field = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF)
        for r in range(len(cloud)):
            assert np.abs(field[r] - sipf_stack(cloud, axes, graph, shadow, r)).max() < 1e-12

    def test_masks(self, rng):
        cloud = random_cloud(rng, 16)
        graph = knn_graph(cloud, 5)
        axes = random_axes(rng, 16)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        full = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF)
        plain = sipf_field(cloud, axes, graph, shadow, mask=MASK_PPF)
        nod = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF_NO_DIRECTION)
        assert np.array_equal(full[..., :4], plain[..., :4])
        assert np.array_equal(plain[..., 4:], np.zeros_like(plain[..., 4:]))
        assert np.array_equal(nod[..., 5:], np.zeros_like(nod[..., 5:]))
        assert (nod[..., 4] >= 0).all()
        with pytest.raises(InvalidArgumentError):
            sipf_field(cloud, axes, graph, shadow, mask="bogus")

    def test_coincident_pair_message_prints_plain_ints(self, rng):
        cloud = random_cloud(rng, 8)
        pts = cloud.points.copy()
        pts[7] = pts[5]
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 2)
        axes = random_axes(rng, 8)
        shadow = shadow_of(cloud, axes, random_rotation(rng))
        # Reference point 5 and neighbor point 7 by point index, also when
        # masked rows shift the positions of the computed rows.
        for valid in (None, np.arange(8) != 0):
            with pytest.raises(CoincidentPointError) as excinfo:
                sipf_field(cloud, axes, graph, shadow, valid=valid)
            assert str(excinfo.value) == "coincident pair at index (5, 7)"


def _field_case(rng, n, k, frame_mode):
    cloud = random_cloud(rng, n, with_normals=True)
    graph = knn_graph(cloud, k)
    axes, _ = try_build_all_lrfs(cloud, graph, frame_mode)
    return cloud, axes, graph, shadow_of(cloud, axes, random_rotation(rng))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFieldBitwise:
    """sipf_field reproduces the frozen per-edge reference bit for bit."""

    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    @pytest.mark.parametrize("frame_mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    @pytest.mark.parametrize("n, k", [(200, 10), (12, 1), (7, 6)])
    def test_matches_reference(self, rng, mask, frame_mode, n, k):
        cloud, axes, graph, shadow = _field_case(rng, n, k, frame_mode)
        for valid in (None, np.arange(n) % 3 != 1, np.zeros(n, dtype=bool)):
            field = sipf_field(cloud, axes, graph, shadow, mask=mask, valid=valid)
            ref = reference_sipf_field(cloud, axes, graph, shadow, mask=mask, valid=valid)
            assert field.shape == (n, k, 8)
            assert np.array_equal(_bits(field), _bits(ref))
        assert np.array_equal(_bits(field), _bits(np.zeros((n, k, 8))))

    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    def test_zero_difference_rows_match_reference(self, mask):
        # Both points are equidistant from their shadows and share one primary axis,
        # so each row's difference is exactly the zero vector.
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
        axes = np.tile([0.0, 0.0, 1.0], (3, 1))
        graph = NeighborGraph(k=1, indices=[[1], [0], [0]])
        shadow = ShadowCloud(points=np.tile([0.0, 1.0, 0.5], (3, 1)), axes=axes)
        field = sipf_field(cloud, axes, graph, shadow, mask=mask)
        ref = reference_sipf_field(cloud, axes, graph, shadow, mask=mask)
        assert np.array_equal(_bits(field), _bits(ref))
        assert np.array_equal(field[:2, 0, 4:], np.zeros((2, 4)))
        assert mask == MASK_PPF or np.abs(field[2, 0, 4:]).max() > 0.0


class TestFieldInputs:
    def test_read_only_frames_and_inputs_untouched(self, rng):
        cloud, axes, graph, shadow = _field_case(rng, 30, 5, FRAME_MODE_BARYCENTER)
        read_only = axes.copy()
        read_only.setflags(write=False)
        writable = axes.copy()
        before = [a.copy() for a in (cloud.points, shadow.points, shadow.axes)]
        for mask in DESCRIPTOR_MASKS:
            for valid in (None, np.arange(30) % 4 != 0):
                first = sipf_field(cloud, read_only, graph, shadow, mask=mask, valid=valid)
                second = sipf_field(cloud, writable, graph, shadow, mask=mask, valid=valid)
                assert np.array_equal(_bits(first), _bits(second))
                assert np.array_equal(_bits(writable), _bits(axes))
        after = [cloud.points, shadow.points, shadow.axes]
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(before, after))

    @pytest.mark.parametrize("bad", [-3, -1, 40])
    def test_neighbour_index_outside_the_graph_is_rejected(self, bad):
        # A negative index would read a point counted from the end, as numpy indexes.
        cloud, axes, graph, shadow = _field_case(np.random.default_rng(5), 40, 4, FRAME_MODE_BARYCENTER)
        idx = graph.indices.copy()
        idx[35, 2] = bad
        with pytest.raises(InvalidInputError, match=r"neighbor indices must lie in \[0, 40\)"):
            NeighborGraph(k=4, indices=idx)

    @pytest.mark.parametrize("short", ["cloud", "axes", "shadow"])
    def test_inputs_must_have_the_graphs_rows(self, rng, short):
        cloud, axes, graph, shadow = _field_case(rng, 40, 4, FRAME_MODE_BARYCENTER)
        inputs = dict(cloud=cloud, axes=axes, graph=graph, shadow=shadow)
        if short == "cloud":
            inputs["cloud"] = PointCloud(points=cloud.points[:39])
        elif short == "axes":
            inputs["axes"] = axes[:39]
        else:
            inputs["shadow"] = ShadowCloud(points=shadow.points[:39], axes=shadow.axes[:39])
        with pytest.raises(InvalidArgumentError, match="do not match a graph of 40 rows"):
            sipf_field(**inputs)

    @pytest.mark.parametrize("stage", ["shadow_of", "sipf_field", "field_deviations", "input_descriptor"])
    def test_a_whole_frame_stack_is_rejected(self, rng, stage):
        # An (N, 3, 3) stack of full bases, whose row 0 was the primary axis, is
        # rejected: no stage reads some other row of it as N axes.
        cloud, _, graph, shadow = _field_case(rng, 40, 4, FRAME_MODE_BARYCENTER)
        frames = np.stack([random_rotation(rng).matrix for _ in range(40)])
        calls = {
            "shadow_of": lambda: shadow_of(cloud, frames, random_rotation(rng)),
            "sipf_field": lambda: sipf_field(cloud, frames, graph, shadow),
            "field_deviations": lambda: field_deviations(
                cloud.points, frames, graph, shadow, np.zeros((40, 4, 8)), np.eye(3)[None]),
            "input_descriptor": lambda: input_descriptor(cloud, frames),
        }
        with pytest.raises(InvalidArgumentError, match=r"axes.*\(40, 3, 3\)") as error:
            calls[stage]()
        # The field's stages name the axes' shape, not a row count that does match the graph.
        if stage in ("sipf_field", "field_deviations"):
            assert str(error.value) == "axes must be (N, 3) primary axes, got (40, 3, 3)"

    # A graph shorter than the cloud made numpy's broadcast error, a longer one an IndexError.
    @pytest.mark.parametrize("n_cloud, n_graph", [(50, 30), (30, 50)])
    def test_coincident_pairs_needs_the_graphs_rows(self, rng, n_cloud, n_graph):
        graph = knn_graph(random_cloud(rng, n_graph), 4)
        message = f"cloud of {n_cloud} points does not match a graph of {n_graph} rows"
        with pytest.raises(InvalidArgumentError, match=message):
            coincident_pairs(random_cloud(rng, n_cloud), graph)

    def test_coincident_pairs_reads_the_bits_of_np_linalg_norm(self, monkeypatch):
        # At a floor of L and of the next double above L, an edge is counted exactly when its
        # length is below L and when it is at most L: so every edge must read L bit for bit.
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1.0, 1.0, (40, 3)) * 10.0 ** rng.uniform(-6.0, 3.0, (40, 1))
        for i, offset in zip(range(0, 12, 2), (0.0, 1e-16, 7e-16, 1e-15, 3e-15, 1e-9)):
            pts[i + 1] = pts[i] + rng.uniform(-1.0, 1.0, 3) * offset
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 4)
        lengths = np.linalg.norm(pts[graph.indices] - pts[:, None, :], axis=-1)

        def pairs_below(floor):
            ref, slot = np.nonzero(lengths < floor)
            return np.unique(np.sort(np.column_stack([ref, graph.indices[ref, slot]]), axis=1), axis=0)

        assert (lengths < descriptors.COINCIDENT_DISTANCE_FLOOR).sum() > 2
        for length in np.unique(lengths):
            for floor in (length, np.nextafter(length, np.inf)):
                monkeypatch.setattr(descriptors, "COINCIDENT_DISTANCE_FLOOR", floor)
                assert np.array_equal(coincident_pairs(cloud, graph), pairs_below(floor))


def _coincidence_case(pairs=(), shadows=(), shadow_on_neighbor=None):
    """A 40-point cloud, k = 4, in which each (i, j, exact) of ``pairs`` puts point j on point i,
    each (i, exact) of ``shadows`` puts point i's shadow on it, and ``shadow_on_neighbor`` = r
    puts row r's shadow on its first neighbour; not ``exact`` means one ulp away."""
    rng = np.random.default_rng(41)
    pts = rng.uniform(-1.0, 1.0, (40, 3))
    for i, j, exact in pairs:
        pts[j] = pts[i] if exact else [np.nextafter(pts[i, 0], 2.0), *pts[i, 1:]]
    cloud = PointCloud(points=pts)
    graph = knn_graph(cloud, 4)
    axes = random_axes(rng, 40)
    rotation = random_rotation(rng)
    shadow_pts = pts @ rotation.matrix
    for i, exact in shadows:
        shadow_pts[i] = pts[i] if exact else [np.nextafter(pts[i, 0], 2.0), *pts[i, 1:]]
    if shadow_on_neighbor is not None:
        shadow_pts[shadow_on_neighbor] = pts[graph.indices[shadow_on_neighbor, 0]]
    shadow = ShadowCloud(points=shadow_pts, axes=axes @ rotation.matrix)
    return cloud, axes, graph, shadow


class TestFieldBlocks:
    """Blocks of 1, 7 and N rows, on the lanes, give the one-block field's bits; a failing call
    raises the first error of its lowest failing block."""

    @pytest.mark.parametrize("rows", [1, 7, 40])
    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    def test_matches_reference_at_every_block_size(self, rng, monkeypatch, mask, rows):
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        cloud, axes, graph, shadow = _field_case(rng, 40, 6, FRAME_MODE_BARYCENTER)
        for valid in (None, np.arange(40) % 3 != 1, np.zeros(40, dtype=bool)):
            field = sipf_field(cloud, axes, graph, shadow, mask=mask, valid=valid)
            ref = reference_sipf_field(cloud, axes, graph, shadow, mask=mask, valid=valid)
            assert np.array_equal(_bits(field), _bits(ref))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_lane_one_runs_on_the_executor_in_its_own_arrays(self, monkeypatch, rows):
        # Lane 1 runs on the executor's thread and makes the three arrays its blocks ask for
        # there (work planes, field and mask), once each however many blocks it runs.  The field has the bits of a run
        # whose lane 1 runs in the calling thread.
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        case = _field_case(np.random.default_rng(17), 40, 6, FRAME_MODE_BARYCENTER)
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
        on_executor = sipf_field(*case)
        assert sorted(ran_on) == [(0, "caller"), (1, "sipf-lane")]
        assert allocated_here.count(False) == 3 and any(allocated_here)

        class Inline:
            def submit(self, fn):
                future = concurrent.futures.Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr(lanes, "_executor", Inline())
        assert np.array_equal(_bits(sipf_field(*case)), _bits(on_executor))

    @pytest.mark.parametrize(
        "n, sizes",
        [(1, [1]), (1023, [1023]), (1024, [1024]), (1025, [513, 512]), (2049, [683] * 3), (5000, [1000] * 5)],
    )
    def test_blocks_are_equal_and_cover_the_rows_once(self, monkeypatch, n, sizes):
        # The fewest blocks of at most 1,024 rows, of one size but a last one at most a few rows
        # shorter, in the blocks of the lanes and of a lane's allocator alike.
        blocks = []

        def recorded(*args):
            rows = args[5]
            blocks.append(rows.tolist())
            return np.zeros((8, len(rows), 1))

        monkeypatch.setattr(descriptors, "_field_rows", recorded)
        graph = NeighborGraph(k=1, indices=np.zeros((n, 1), dtype=np.int64))
        _, run = descriptors._field_blocks(graph, None)
        assert descriptors._block_rows(n) == sizes[0]
        for alloc in (None, lanes._buffers()):
            blocks.clear()
            run(np.zeros((6, n)), np.zeros((6, n)), MASK_SIPF, lambda *args: None, alloc)
            blocks.sort()
            assert [len(rows) for rows in blocks] == sizes
            assert sum(blocks, []) == list(range(n))

    def test_single_block_call_stays_off_the_executor(self, rng, monkeypatch):
        def no_worker(fn):
            raise AssertionError("a single-block call reached the executor")

        monkeypatch.setattr(lanes._executor, "submit", no_worker)
        cloud, axes, graph, shadow = _field_case(rng, descriptors._FIELD_ROWS, 3, FRAME_MODE_BARYCENTER)
        field = sipf_field(cloud, axes, graph, shadow)
        assert np.array_equal(_bits(field), _bits(reference_sipf_field(cloud, axes, graph, shadow)))

    def test_threads_give_the_serial_bits(self, monkeypatch):
        # More threads than cores build graphs, fields and trials' deviations of different sizes
        # at once, switching often, and all queue their lane 1 on the one executor thread: no
        # call may write into another's arrays.
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", 7)
        monkeypatch.setattr(geometry, "_QUERY_ROWS", 7)
        rng = np.random.default_rng(13)
        cases = [_field_case(rng, 40 + 5 * i, 3 + i, FRAME_MODE_BARYCENTER) for i in range(4)]
        rotations = np.array([random_rotation(rng).matrix for _ in range(3)])

        def bits(cloud, axes, graph, shadow):
            field = sipf_field(cloud, axes, graph, shadow)
            deviations = field_deviations(cloud.points, axes, graph, shadow, field, rotations)
            return knn_graph(cloud, graph.k).indices.tobytes(), field.tobytes(), deviations.tobytes()

        serial = [bits(*case) for case in cases]
        mismatches, done = [], []

        def run(i):
            for _ in range(20):
                if bits(*cases[i]) != serial[i]:
                    mismatches.append(i)
            done.append(i)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
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
        assert sorted(done) == list(range(len(cases)))
        assert mismatches == []

    @pytest.mark.parametrize("rows", [1, 7, 40])
    @pytest.mark.parametrize(
        "case, one_block, blocked",
        [
            # In one block the neighbour-pair check comes before the shadow checks.
            (dict(pairs=[(30, 33, True)], shadows=[(2, True)]),
             "coincident pair at index (30, 33)", "shadow coincides with point 2"),
            # Of several close pairs in one block, the first closest in row-major order is named.
            (dict(pairs=[(4, 5, False), (30, 33, True)]),
             "coincident pair at index (30, 33)", "coincident pair at index (4, 5)"),
            (dict(pairs=[(4, 5, True), (30, 33, True)]),
             "coincident pair at index (4, 5)", "coincident pair at index (4, 5)"),
            (dict(shadows=[(3, False), (20, True)]),
             "shadow coincides with point 20", "shadow coincides with point 3"),
            (dict(shadows=[(3, True), (20, True)]),
             "shadow coincides with point 3", "shadow coincides with point 3"),
            # In one block a row's shadow on itself is checked before one on a neighbour.
            (dict(shadows=[(25, True)], shadow_on_neighbor=10),
             "shadow coincides with point 25", "coincident pair at index (10, 21)"),
        ],
    )
    def test_the_lowest_failing_block_names_its_first_error(self, monkeypatch, rows, case, one_block, blocked):
        # Blocks of 1 and 7 rows put the two faults in different blocks; 40 rows make one block.
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(*_coincidence_case(**case))
        assert str(excinfo.value) == (one_block if rows == 40 else blocked)

    @pytest.mark.parametrize("slow_lane", [0, 1])
    @pytest.mark.parametrize(
        "case, message",
        [
            # Seven-row blocks over 40 rows: lane 1 runs the blocks from rows 0, 14 and 28,
            # lane 0 those from 7, 21 and 35.  The lower fault is in lane 1's block, then in lane 0's.
            (dict(pairs=[(4, 5, True)], shadows=[(25, True)]), "coincident pair at index (4, 5)"),
            (dict(pairs=[(30, 33, True)], shadows=[(10, True)]), "shadow coincides with point 10"),
        ],
    )
    def test_lowest_failing_block_across_lanes_is_named(self, monkeypatch, slow_lane, case, message):
        # The slow lane starts only after the other has finished.  sipf_field runs the blocks on
        # the lanes; field_deviations runs two trials, one a lane, each running every block.
        cloud, axes, graph, shadow = _coincidence_case(**case)
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", 7)
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
        calls = [
            lambda: sipf_field(cloud, axes, graph, shadow),
            # Identity rotations keep the coincidences exact.
            lambda: field_deviations(cloud.points, axes, graph, shadow, np.zeros((40, 4, 8)),
                                     np.stack([np.eye(3)] * 2)),
        ]
        for call in calls:
            for event in finished.values():
                event.clear()
            with pytest.raises(CoincidentPointError) as excinfo:
                call()
            assert str(excinfo.value) == message
            assert finished[0].is_set() and finished[1].is_set()

    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_shadow_on_a_neighbour_names_the_pair(self, monkeypatch, rows):
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        cloud, axes, graph, shadow = _coincidence_case(shadow_on_neighbor=10)
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(cloud, axes, graph, shadow)
        assert str(excinfo.value) == f"coincident pair at index (10, {graph.indices[10, 0]})"

    @pytest.mark.parametrize(
        "case, message",
        [
            (dict(shadows=[(25, True)]), "shadow coincides with point 25"),
            # The shadows on points 30 and 33, in later blocks, make reference pairs of length 0,
            # which the call computes with every other one before its first block runs.
            (dict(pairs=[(8, 9, True)], shadows=[(30, True)]), "coincident pair at index (8, 9)"),
            (dict(shadows=[(33, True)], shadow_on_neighbor=10), "coincident pair at index (10, 21)"),
            (dict(), None),
        ],
    )
    def test_no_floating_point_error_comes_before_the_coincidence(self, monkeypatch, case, message):
        # Seven-row blocks over 40 rows; every numpy floating-point error and warning raises.
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", 7)
        cloud, axes, graph, shadow = _coincidence_case(**case)
        calls = [
            lambda: sipf_field(cloud, axes, graph, shadow),
            # Identity rotations keep the coincidences exact.
            lambda: field_deviations(cloud.points, axes, graph, shadow, np.zeros((40, 4, 8)),
                                     np.stack([np.eye(3)] * 2)),
        ]
        with np.errstate(all="raise"), warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                if message is None:
                    call()
                    continue
                with pytest.raises(CoincidentPointError) as excinfo:
                    call()
                assert str(excinfo.value) == message


def _deviation_case(n, trials=1, seed=29, dropped=(3, -2)):
    """An n-point cloud (k = 5) with the rows ``dropped`` dropped (rows 3 and n - 2 by default), as
    (cloud, axes, graph, shadow), its base field, its row mask (None when none is dropped) and
    ``trials`` joint rotations."""
    rng = np.random.default_rng(seed)
    cloud = random_cloud(rng, n)
    graph = knn_graph(cloud, 5)
    axes = random_axes(rng, n)
    shadow = shadow_of(cloud, axes, random_rotation(rng))
    keep = None
    if dropped:
        keep = np.ones(n, dtype=bool)
        keep[list(dropped)] = False
    base = sipf_field(cloud, axes, graph, shadow, valid=keep)
    rotations = np.array([random_rotation(rng).matrix for _ in range(trials)])
    return (cloud, axes, graph, shadow), base, keep, rotations


def _deviations(case, base, valid, rotations, break_shadow=False):
    cloud, axes, graph, shadow = case
    return field_deviations(cloud.points, axes, graph, shadow, base, rotations, valid,
                            rotate_shadow=not break_shadow)


def _gathered_deviation(case, base, valid, m, break_shadow):
    """The oracle: the whole rotated field, gathered at the usable edges, against ``base``.  The
    rotated inputs are the products ``field_deviations`` forms, so the fields have the same bits."""
    cloud, axes, graph, shadow = case
    rotated = axes @ m
    shadow_r = shadow if break_shadow else ShadowCloud(points=shadow.points @ m, axes=shadow.axes @ m)
    field = sipf_field(PointCloud(points=cloud.points @ m), rotated, graph, shadow_r, valid=valid)
    keep = valid[:, None] & valid[graph.indices]
    return np.abs(field[keep] - base[keep]).max()


class TestFieldDeviations:
    """field_deviations reduces each block of each trial's rotated field to the maximum the whole field gives."""

    @pytest.mark.parametrize("break_shadow", [False, True])
    @pytest.mark.parametrize("n", [1024, 1025, 2100])
    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_matches_the_gathered_usable_edges(self, trials, n, break_shadow):
        case, base, valid, rotations = _deviation_case(n, trials)
        got = _deviations(case, base, valid, rotations, break_shadow)
        expected = [_gathered_deviation(case, base, valid, m, break_shadow) for m in rotations]
        assert got.shape == (trials,)
        assert np.array_equal(_bits(got), _bits(np.array(expected)))
        assert all((e > 1e-3) == break_shadow for e in expected)

    def test_dropped_edge_that_deviates_most_is_left_out(self):
        case, base, valid, rotations = _deviation_case(2100, 2)
        graph = case[2]
        row, slot = np.argwhere(valid[:, None] & ~valid[graph.indices])[-1]
        assert descriptors._block_rows(int(valid.sum())) == 700
        assert row >= 700  # not in the first block
        expected = _deviations(case, base, valid, rotations)
        base[row, slot] = 100.0  # the largest deviation, on an edge to a dropped neighbour
        got = _deviations(case, base, valid, rotations)
        assert np.array_equal(got, expected) and (got < 1e-9).all()
        assert (_deviations(case, base, None, rotations) > 99.0).all()

    def test_nan_in_the_last_block_propagates(self):
        case, base, valid, rotations = _deviation_case(2100, 3)
        base[2099, 0, 6] = np.nan
        assert np.isnan(_deviations(case, base, valid, rotations, break_shadow=True)).all()

    def test_coincident_pair_in_the_second_block_raises_what_sipf_field_raises(self):
        pts = np.random.default_rng(31).uniform(-1.0, 1.0, (2100, 3))
        pts[1900] = pts[1100]
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 5)
        axes = random_axes(np.random.default_rng(32), 2100)
        shadow = shadow_of(cloud, axes, random_rotation(np.random.default_rng(33)))
        # A shadow on point 5, in the first of the three 700-row blocks, the lowest failing one.
        shadow = ShadowCloud(points=np.vstack([shadow.points[:5], pts[5:6], shadow.points[6:]]), axes=shadow.axes)
        with pytest.raises(CoincidentPointError) as field_error:
            sipf_field(cloud, axes, graph, shadow)
        with pytest.raises(CoincidentPointError) as deviation_error:
            field_deviations(pts, axes, graph, shadow, np.zeros((2100, 5, 8)), np.eye(3)[None])
        assert str(deviation_error.value) == str(field_error.value) == "shadow coincides with point 5"

    @pytest.mark.parametrize("failing", [(1, 3), (2, 3), (3, 4)])
    def test_lowest_failing_trials_error_is_raised(self, monkeypatch, failing):
        # The failing trials raise different errors; they run on both lanes or, for (1, 3), on lane 1.
        case, base, valid, rotations = _deviation_case(1025, 5)
        firsts = [(case[0].points @ m)[0] for m in rotations]
        field_rows = descriptors._field_rows

        def failing_rows(planes, *args):
            t = next(t for t, first in enumerate(firsts) if np.array_equal(planes[:3, 0], first))
            if t in failing:
                raise CoincidentPointError(f"trial {t}")
            return field_rows(planes, *args)

        monkeypatch.setattr(descriptors, "_field_rows", failing_rows)
        with pytest.raises(CoincidentPointError, match=f"^trial {failing[0]}$"):
            _deviations(case, base, valid, rotations)

    @pytest.mark.parametrize("n, dropped, size", [(2100, (), 700), (5000, (3, 2500, -2), 1000)])
    def test_each_lane_makes_its_arrays_once_on_its_own_thread(self, monkeypatch, n, dropped, size):
        # Six trials of three 700-row blocks, or of five 1,000-row blocks over 4,997 kept rows, the
        # last one 997 rows: each lane makes each array on its own thread as its first trial asks
        # for it, and no block of any trial makes another; the shorter block writes into the
        # first part of its lane's arrays.
        case, base, valid, rotations = _deviation_case(n, 6, dropped=dropped)
        caller = threading.current_thread()
        ran_on = []
        lane = lanes._lane

        def recorded(blocks, step, number):
            ran_on.append((number, threading.current_thread() is caller, [start for start, _ in blocks]))
            return lane(blocks, step, number)

        made = []
        empty = np.empty

        def recorded_empty(*args, **kwargs):
            array = empty(*args, **kwargs)
            made.append((threading.current_thread() is caller, array.shape))
            return array

        monkeypatch.setattr(lanes, "_lane", recorded)
        monkeypatch.setattr(np, "empty", recorded_empty)
        _deviations(case, base, valid, rotations)
        assert sorted(ran_on) == [(0, True, [1, 3, 5]), (1, False, [0, 2, 4])]
        # A trial's stacked planes of the points and axes and of the shadow; with rows dropped,
        # those of the kept rows; the work array, which first holds the reference pairs' d and
        # products; the reference pairs; a block's field and zero-difference mask, flat.
        kept = n - len(dropped)
        arrays = [(6, n), (6, n), (max(9 * size * 5, 6 * kept),), (4, kept), (8 * size * 5,), (size * 5,)]
        if dropped:
            arrays += [(6, kept), (6, kept)]
        assert sorted(shape for on_caller, shape in made if on_caller) == sorted(arrays + [(6,)])
        assert sorted(shape for on_caller, shape in made if not on_caller) == sorted(arrays)

    def test_one_rotation_stays_off_the_executor(self, monkeypatch):
        def no_worker(fn):
            raise AssertionError("a one-trial call reached the executor")

        case, base, valid, rotations = _deviation_case(2100)
        expected = _gathered_deviation(case, base, valid, rotations[0], False)
        monkeypatch.setattr(lanes._executor, "submit", no_worker)
        assert np.array_equal(_bits(_deviations(case, base, valid, rotations)), _bits(np.array([expected])))

    def test_no_rotation_gives_no_deviation(self, monkeypatch):
        def no_lanes(*args):
            raise AssertionError("an empty call ran the lanes")

        case, base, valid, _ = _deviation_case(40)
        monkeypatch.setattr(descriptors, "run_blocks", no_lanes)
        assert _deviations(case, base, valid, np.empty((0, 3, 3))).shape == (0,)

    def test_inputs_must_have_the_graphs_shape(self, rng):
        cloud, axes, graph, shadow = _field_case(rng, 40, 4, FRAME_MODE_BARYCENTER)
        base, one = np.zeros((40, 4, 8)), np.eye(3)[None]
        with pytest.raises(InvalidArgumentError, match=r"base field must be \(40, 4, 8\), got \(40, 4, 7\)"):
            field_deviations(cloud.points, axes, graph, shadow, np.zeros((40, 4, 7)), one)
        with pytest.raises(InvalidArgumentError, match="do not match a graph of 40 rows"):
            field_deviations(cloud.points, axes[:39], graph, shadow, base, one)
        with pytest.raises(InvalidArgumentError, match=r"rotations must be \(T, 3, 3\), got \(3, 3\)"):
            field_deviations(cloud.points, axes, graph, shadow, base, np.eye(3))


class TestDegeneracyDetectors:
    def test_axis_alignment_extremes(self):
        axis = primary_axis([1, 0, 0])
        p = np.zeros((2, 3))
        axes = np.array([axis, axis])
        got = detect_axis_alignment(p, axes, p + np.array([[2.0, 0, 0], [0.0, 3.0, 0]]), axes)
        assert got[0] == pytest.approx(1.0)
        assert got[1] == pytest.approx(0.0, abs=1e-15)

    def test_axis_alignment_transcription(self, rng):
        n = 100
        p = rng.standard_normal((n, 3))
        a_r = random_axes(rng, n)
        a_s = random_axes(rng, n)
        s = p + rng.standard_normal((n, 3))
        d = s - p
        expected = np.minimum(1.0, np.abs((a_r * d).sum(axis=1)) / np.linalg.norm(d, axis=1))
        expected *= np.abs((a_r * a_s).sum(axis=1))
        assert np.abs(detect_axis_alignment(p, a_r, s, a_s) - expected).max() < 1e-12

    def test_axis_alignment_batch_matches_scalar_oracle(self, rng):
        n = 200
        p = rng.standard_normal((n, 3))
        a_r = random_axes(rng, n)
        a_s = random_axes(rng, n)
        s = p + rng.standard_normal((n, 3))
        # Fully degenerate rows: shadow on the primary axis, axes shared.
        s[:3] = p[:3] + 2.0 * a_r[:3]
        a_s[:3] = a_r[:3]
        got = detect_axis_alignment(p, a_r, s, a_s)
        assert got.shape == (n,)
        expected = np.array([scalar_axis_alignment(p[i], a_r[i], s[i], a_s[i]) for i in range(n)])
        assert np.array_equal(_bits(got), _bits(expected))
        assert np.abs(got[:3] - 1.0).max() <= 1e-15

    def test_axis_alignment_batch_rejects_coincident_shadow(self, rng):
        p = rng.standard_normal((5, 3))
        axes = random_axes(rng, 5)
        s = p + 1.0
        s[3] = p[3]
        with pytest.raises(CoincidentPointError):
            detect_axis_alignment(p, axes, s, axes)

    def test_axis_alignment_shape_mismatch(self, rng):
        p = rng.standard_normal((5, 3))
        axes = random_axes(rng, 4)
        with pytest.raises(InvalidInputError, match="must all be"):
            detect_axis_alignment(p, axes, p + 1.0, axes)
        with pytest.raises(InvalidInputError, match=r"points \(3,\) and \(3,\)"):
            detect_axis_alignment(p[0], axes[0], p[0] + 1.0, axes[0])

    def test_local_coincidence_zero_and_pi(self, rng):
        rot = random_rotation(rng)
        assert detect_local_coincidence(rot, rot) == pytest.approx(0.0, abs=1e-7)
        axis = rng.standard_normal(3)
        flipped = rotation_from_axis_angle(axis, np.pi)
        combined = type(rot)(rot.matrix @ flipped.matrix)
        assert detect_local_coincidence(rot, combined) == pytest.approx(np.pi, abs=1e-7)

    def test_local_coincidence_quaternion_oracle(self, rng):
        for _ in range(100):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            q1, q2 = matrix_to_quat(r1).array, matrix_to_quat(r2).array
            expected = 2.0 * np.arccos(np.clip(abs(q1 @ q2), 0.0, 1.0))
            assert abs(detect_local_coincidence(r1, r2) - expected) < 1e-7


class TestB1Regression:
    def test_separation_grows_from_axis_to_orthogonal(self):
        p_r, a_r, p_j, a_j, p_j2, a_j2, axis = circle_ambiguous_pair()
        side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
        seps = []
        for beta in np.linspace(0.0, np.pi / 2, 12):
            shadow_p = p_r + 0.6 * (np.cos(beta) * axis + np.sin(beta) * side)
            a = field_sippf(p_r, a_r, p_j, a_j, shadow_p, a_r)
            b = field_sippf(p_r, a_r, p_j2, a_j2, shadow_p, a_r)
            seps.append(np.linalg.norm(a - b))
        assert seps[0] < 1e-6
        assert all(seps[i] <= seps[i + 1] + 1e-9 for i in range(len(seps) - 1))
        assert seps[-1] >= 10 * max(seps[0], 1e-12)

    def test_detector_tracks_the_sweep(self):
        p_r, a_r, _, _, _, _, axis = circle_ambiguous_pair()
        side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
        betas = np.linspace(0.0, np.pi / 2, 12)[:, None]
        shadow_points = p_r + 0.6 * (np.cos(betas) * axis + np.sin(betas) * side)
        axes = np.tile(a_r, (12, 1))
        scores = detect_axis_alignment(np.tile(p_r, (12, 1)), axes, shadow_points, axes)
        assert all(scores[i] >= scores[i + 1] - 1e-12 for i in range(len(scores) - 1))
        assert scores[0] == pytest.approx(1.0)


class TestWingTipCollapse:
    def test_plain_block_collapses_and_shadow_rescues(self):
        dataset = make_wingtip_dataset(1, 64, 0.0, seed=7)
        cloud, labels = dataset.clouds[0], dataset.labels[0]
        graph = knn_graph(cloud, 12)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        half = len(cloud) // 2
        rng = np.random.default_rng(5)
        generic = random_rotation(rng)
        # Generic rotation is far from both failure geometries.
        assert detect_local_coincidence(generic, dataset.symmetry) > 0.1
        shadow = shadow_of(cloud, axes, generic)
        plain = sipf_field(cloud, axes, graph, shadow, mask=MASK_PPF)
        full = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF)
        assert np.abs(plain[:half] - plain[half:]).max() < 1e-9
        assert max(np.abs(full[i] - full[i + half]).max() for i in range(half)) > 1e-3

    def test_shadow_equal_to_patch_rotation_keeps_collapse(self):
        # Shared rotation equal to the patch-swapping rotation: the shadow
        # block goes blind to the swap and mirrored stacks stay identical.
        rng = np.random.default_rng(11)
        cloud, half_turn = mirrored_blob_cloud(rng)
        graph = knn_graph(cloud, 6)
        axes = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        half = len(cloud) // 2
        shadow = shadow_of(cloud, axes, Rotation3(half_turn))
        full = sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF)
        assert np.abs(full[:half] - full[half:]).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sippf_norm_never_intermediate(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((3, 3)) * rng.uniform(0.1, 10)
    axes = random_axes(rng, 3)
    out = field_sippf(pts[0], axes[0], pts[1], axes[1], pts[2], axes[2])
    n = np.linalg.norm(out)
    assert n == 0.0 or abs(n - 1.0) < 1e-9
