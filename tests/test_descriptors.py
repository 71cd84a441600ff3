import concurrent.futures
import sys
import threading

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
    detect_axis_alignment,
    detect_local_coincidence,
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
    matrix_to_quat,
    quat_to_matrix,
    random_rotation,
    rotation_from_axis_angle,
)
from sipf.lrf import FRAME_MODE_BARYCENTER, FRAME_MODE_NORMAL, build_all_lrfs, try_build_all_lrfs
from sipf.training import make_wingtip_dataset

from conftest import (
    build_lrf,
    mirrored_blob_cloud,
    pair_rows,
    ppf,
    random_cloud,
    random_frames,
    reference_sipf_field,
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

    The second neighbor (and its frame) is the first rotated about the axis
    line through the reference point, which leaves the plain pair feature
    unchanged by construction.
    """
    p_r = np.array([0.3, -0.2, 0.5])
    axis = _unit([0.2, 0.4, 0.9])
    frame_r = build_lrf(axis, [1.0, 0.0, 0.0]).axes
    side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
    p_j = p_r + 0.8 * side + 0.3 * axis
    frame_j = build_lrf(axis + 0.7 * side, [0.1, 0.9, -0.3]).axes
    # Row-convention transport: x -> p_r + (x - p_r) @ m rotates about the axis.
    m = rotation_from_axis_angle(axis, azimuth).matrix.T
    p_j2 = p_r + (p_j - p_r) @ m
    frame_j2 = frame_j @ m
    return p_r, frame_r, p_j, frame_j, p_j2, frame_j2, axis


def field_ppf(p_r, f_r, p_j, f_j):
    """Plain pair block of sipf_field for one pair; the plain mask never reads the shadow."""
    return pair_rows(p_r, f_r, [(p_j, f_j)], np.asarray(p_r, dtype=float) + 1.0, f_r, mask=MASK_PPF)[0, :4]


def field_sippf(p_r, f_r, p_j, f_j, shadow_p, shadow_f):
    """Shadow-informed block of sipf_field for one pair."""
    return pair_rows(p_r, f_r, [(p_j, f_j)], shadow_p, shadow_f)[0, 4:]


def field_sipf(p_r, f_r, p_j, f_j, shadow_p, shadow_f):
    """Full 8-dim sipf_field row for one pair."""
    return pair_rows(p_r, f_r, [(p_j, f_j)], shadow_p, shadow_f)[0]


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
        f_r = build_lrf([1, 0, 0], [0, 1, 0]).axes
        out = field_ppf([0, 0, 0], f_r, [2, 0, 0], f_r)
        assert np.allclose(out, [2, 1, 1, 1], atol=1e-15)

    def test_orthogonal_axes(self):
        f_r = build_lrf([1, 0, 0], [0, 1, 0]).axes
        f_j = build_lrf([0, 1, 0], [0, 0, 1]).axes
        out = field_ppf([0, 0, 0], f_r, [2, 0, 0], f_j)
        assert np.allclose(out, [2, 1, 0, 0], atol=1e-15)

    def test_coincident_points(self):
        f = np.eye(3)
        with pytest.raises(CoincidentPointError):
            field_ppf([1, 2, 3], f, [1, 2, 3], f)

    def test_circle_ambiguity(self):
        p_r, f_r, p_j, f_j, p_j2, f_j2, _ = circle_ambiguous_pair()
        a = field_ppf(p_r, f_r, p_j, f_j)
        b = field_ppf(p_r, f_r, p_j2, f_j2)
        assert not np.allclose(p_j, p_j2)
        assert np.abs(a - b).max() < 1e-12

    def test_rotation_invariance(self, rng):
        for _ in range(200):
            p_r, p_j = rng.standard_normal(3), rng.standard_normal(3)
            f_r, f_j = random_frames(rng, 2)
            rot = random_rotation(rng).matrix
            a = field_ppf(p_r, f_r, p_j, f_j)
            b = field_ppf(p_r @ rot, f_r @ rot, p_j @ rot, f_j @ rot)
            assert np.abs(a - b).max() < 1e-12


class TestShadowOf:
    def test_identity_rotation_keeps_cloud(self, rng):
        cloud = random_cloud(rng, 12)
        frames = random_frames(rng, 12)
        shadow = shadow_of(cloud, frames, quat_to_matrix(UnitQuaternion(1, 0, 0, 0)))
        assert np.array_equal(shadow.points, cloud.points)
        assert np.array_equal(shadow.frames, frames)

    def test_half_turn_about_z(self):
        cloud = PointCloud(points=[[1, 0, 0], [0, 0, 1]])
        frames = np.tile(np.eye(3), (2, 1, 1))
        rot = rotation_from_axis_angle([0, 0, 1], np.pi)
        shadow = shadow_of(cloud, frames, rot)
        assert np.abs(shadow.points[0] - np.array([-1, 0, 0])).max() < 1e-15

    def test_norms_preserved(self, rng):
        cloud = random_cloud(rng, 30)
        frames = random_frames(rng, 30)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        n0 = np.linalg.norm(cloud.points, axis=1)
        n1 = np.linalg.norm(shadow.points, axis=1)
        assert (np.abs(n0 - n1) / np.maximum(n0, 1e-30)).max() < 1e-12


class TestSippf:
    def test_zero_for_symmetric_configuration(self):
        frame = build_lrf([0, 1, 0], [0, 0, 1]).axes
        out = field_sippf([1, 0, 0], frame, [-1, 0, 0], frame, [0, 1, 0], frame)
        assert np.array_equal(out, np.zeros(4))

    def test_norm_is_zero_or_one(self, rng):
        for _ in range(300):
            pts = rng.standard_normal((3, 3))
            f = random_frames(rng, 3)
            out = field_sippf(pts[0], f[0], pts[1], f[1], pts[2], f[2])
            n = np.linalg.norm(out)
            assert n == 0.0 or abs(n - 1.0) < 1e-9

    def test_matches_transcription_oracle(self, rng):
        for _ in range(200):
            pts = rng.standard_normal((3, 3))
            f = random_frames(rng, 3)
            ours = field_sippf(pts[0], f[0], pts[1], f[1], pts[2], f[2])
            ref = transcription_sippf(pts[0], f[0][0], pts[1], f[1][0], pts[2], f[2][0])
            assert np.abs(ours - ref).max() < 1e-12

    def test_coincident_shadow(self):
        f = np.eye(3)
        with pytest.raises(CoincidentPointError):
            field_sippf([1, 0, 0], f, [0, 1, 0], f, [1, 0, 0], f)


class TestSipf:
    def test_concatenation(self, rng):
        pts = rng.standard_normal((3, 3))
        f = random_frames(rng, 3)
        full = field_sipf(pts[0], f[0], pts[1], f[1], pts[2], f[2])
        assert np.array_equal(full[:4], field_ppf(pts[0], f[0], pts[1], f[1]))
        oracle = sipf(pts[0], f[0], pts[1], f[1], pts[2], f[2])
        assert np.array_equal(oracle[:4], ppf(pts[0], f[0], pts[1], f[1]))
        assert np.array_equal(oracle[4:], sippf(pts[0], f[0], pts[1], f[1], pts[2], f[2]))
        assert np.abs(full - oracle).max() < 1e-12

    def test_joint_rotation_invariance(self, rng):
        worst = 0.0
        for _ in range(300):
            pts = rng.standard_normal((3, 3))
            f = random_frames(rng, 3)
            base = field_sipf(pts[0], f[0], pts[1], f[1], pts[2], f[2])
            rot = random_rotation(rng).matrix
            moved = field_sipf(
                pts[0] @ rot, f[0] @ rot, pts[1] @ rot, f[1] @ rot, pts[2] @ rot, f[2] @ rot
            )
            worst = max(worst, np.abs(base - moved).max())
        assert worst < 1e-9

    def test_circle_pair_resolved_by_generic_shadow(self):
        p_r, f_r, p_j, f_j, p_j2, f_j2, _ = circle_ambiguous_pair()
        shadow_p = p_r + np.array([0.4, -0.7, 0.25])
        shadow_f = build_lrf([-0.3, 0.8, 0.52], [1, 0, 0]).axes
        a = field_sipf(p_r, f_r, p_j, f_j, shadow_p, shadow_f)
        b = field_sipf(p_r, f_r, p_j2, f_j2, shadow_p, shadow_f)
        assert np.abs(a[:4] - b[:4]).max() < 1e-12  # plain block still ambiguous
        assert np.abs(a[4:] - b[4:]).max() > 1e-3   # shadow block separates

    def test_axis_aligned_shadow_degenerates_to_plain_pair(self):
        # Shadow displaced along the primary axis with coinciding primary
        # axes: the shadow block is identical for both ambiguous neighbors.
        p_r, f_r, p_j, f_j, p_j2, f_j2, axis = circle_ambiguous_pair()
        shadow_p = p_r + 0.6 * axis
        a = field_sipf(p_r, f_r, p_j, f_j, shadow_p, f_r)
        b = field_sipf(p_r, f_r, p_j2, f_j2, shadow_p, f_r)
        assert np.abs(a[4:] - b[4:]).max() < 1e-6


class TestSipfStack:
    def test_k1_equals_single_call(self, rng):
        cloud = random_cloud(rng, 6)
        graph = knn_graph(cloud, 1)
        frames = random_frames(rng, 6)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        field = sipf_field(cloud, frames, graph, shadow)
        stack = sipf_stack(cloud, frames, graph, shadow, 2)
        j = graph.indices[2][0]
        direct = sipf(
            cloud.points[2], frames[2], cloud.points[j], frames[j], shadow.points[2], shadow.frames[2]
        )
        assert np.array_equal(stack, direct[None, :])
        assert np.abs(field[2] - direct[None, :]).max() < 1e-12

    def test_rows_follow_graph_order(self, rng):
        cloud = random_cloud(rng, 12)
        graph = knn_graph(cloud, 4)
        frames = random_frames(rng, 12)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        field = sipf_field(cloud, frames, graph, shadow)
        stack = sipf_stack(cloud, frames, graph, shadow, 0)
        for col, j in enumerate(graph.indices[0]):
            direct = sipf(
                cloud.points[0], frames[0], cloud.points[j], frames[j],
                shadow.points[0], shadow.frames[0],
            )
            assert np.array_equal(stack[col], direct)
            assert np.abs(field[0, col] - direct).max() < 1e-12

    def test_error_carries_pair_context(self, rng):
        cloud = random_cloud(rng, 6)
        graph = knn_graph(cloud, 2)
        frames = random_frames(rng, 6)
        # Identity-rotation shadow coincides with every source point.
        shadow = shadow_of(cloud, frames, quat_to_matrix(UnitQuaternion(1, 0, 0, 0)))
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(cloud, frames, graph, shadow)
        assert str(excinfo.value) == "shadow coincides with point 0"
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_stack(cloud, frames, graph, shadow, 3)
        assert "(3," in str(excinfo.value)

    def test_field_matches_per_pair_loop(self, rng):
        cloud = random_cloud(rng, 16)
        graph = knn_graph(cloud, 5)
        frames = random_frames(rng, 16)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        field = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF)
        for r in range(len(cloud)):
            assert np.abs(field[r] - sipf_stack(cloud, frames, graph, shadow, r)).max() < 1e-12

    def test_masks(self, rng):
        cloud = random_cloud(rng, 16)
        graph = knn_graph(cloud, 5)
        frames = random_frames(rng, 16)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        full = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF)
        plain = sipf_field(cloud, frames, graph, shadow, mask=MASK_PPF)
        nod = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF_NO_DIRECTION)
        assert np.array_equal(full[..., :4], plain[..., :4])
        assert np.array_equal(plain[..., 4:], np.zeros_like(plain[..., 4:]))
        assert np.array_equal(nod[..., 5:], np.zeros_like(nod[..., 5:]))
        assert (nod[..., 4] >= 0).all()
        with pytest.raises(InvalidArgumentError):
            sipf_field(cloud, frames, graph, shadow, mask="bogus")

    def test_coincident_pair_message_prints_plain_ints(self, rng):
        cloud = random_cloud(rng, 8)
        pts = cloud.points.copy()
        pts[7] = pts[5]
        cloud = PointCloud(points=pts)
        graph = knn_graph(cloud, 2)
        frames = random_frames(rng, 8)
        shadow = shadow_of(cloud, frames, random_rotation(rng))
        # Reference point 5 and neighbor point 7 by point index, also when
        # masked rows shift the positions of the computed rows.
        for valid in (None, np.arange(8) != 0):
            with pytest.raises(CoincidentPointError) as excinfo:
                sipf_field(cloud, frames, graph, shadow, valid=valid)
            assert str(excinfo.value) == "coincident pair at index (5, 7)"


def _field_case(rng, n, k, frame_mode):
    cloud = random_cloud(rng, n, with_normals=True)
    graph = knn_graph(cloud, k)
    frames, _ = try_build_all_lrfs(cloud, graph, frame_mode)
    return cloud, frames, graph, shadow_of(cloud, frames, random_rotation(rng))


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestFieldBitwise:
    """sipf_field reproduces the frozen per-edge reference bit for bit."""

    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    @pytest.mark.parametrize("frame_mode", [FRAME_MODE_NORMAL, FRAME_MODE_BARYCENTER])
    @pytest.mark.parametrize("n, k", [(200, 10), (12, 1), (7, 6)])
    def test_matches_reference(self, rng, mask, frame_mode, n, k):
        cloud, frames, graph, shadow = _field_case(rng, n, k, frame_mode)
        for valid in (None, np.arange(n) % 3 != 1, np.zeros(n, dtype=bool)):
            field = sipf_field(cloud, frames, graph, shadow, mask=mask, valid=valid)
            ref = reference_sipf_field(cloud, frames, graph, shadow, mask=mask, valid=valid)
            assert field.shape == (n, k, 8)
            assert np.array_equal(_bits(field), _bits(ref))
        assert np.array_equal(_bits(field), _bits(np.zeros((n, k, 8))))

    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    def test_zero_difference_rows_match_reference(self, mask):
        # Both points are equidistant from their shadows and share one frame,
        # so each row's difference is exactly the zero vector.
        cloud = PointCloud(points=np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 3.0, 0.0]]))
        frames = np.tile(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), (3, 1, 1))
        graph = NeighborGraph(k=1, indices=[[1], [0], [0]])
        shadow = ShadowCloud(
            points=np.tile([0.0, 1.0, 0.5], (3, 1)), frames=frames, rotation=Rotation3(np.eye(3))
        )
        field = sipf_field(cloud, frames, graph, shadow, mask=mask)
        ref = reference_sipf_field(cloud, frames, graph, shadow, mask=mask)
        assert np.array_equal(_bits(field), _bits(ref))
        assert np.array_equal(field[:2, 0, 4:], np.zeros((2, 4)))
        assert mask == MASK_PPF or np.abs(field[2, 0, 4:]).max() > 0.0


class TestFieldInputs:
    def test_read_only_frames_and_inputs_untouched(self, rng):
        cloud, frames, graph, shadow = _field_case(rng, 30, 5, FRAME_MODE_BARYCENTER)
        read_only = frames.copy()
        read_only.setflags(write=False)
        writable = frames.copy()
        before = [a.copy() for a in (cloud.points, shadow.points, shadow.frames)]
        for mask in DESCRIPTOR_MASKS:
            for valid in (None, np.arange(30) % 4 != 0):
                first = sipf_field(cloud, read_only, graph, shadow, mask=mask, valid=valid)
                second = sipf_field(cloud, writable, graph, shadow, mask=mask, valid=valid)
                assert np.array_equal(_bits(first), _bits(second))
                assert np.array_equal(_bits(writable), _bits(frames))
        after = [cloud.points, shadow.points, shadow.frames]
        assert all(np.array_equal(_bits(a), _bits(b)) for a, b in zip(before, after))


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
    frames = random_frames(rng, 40)
    rotation = random_rotation(rng)
    shadow_pts = pts @ rotation.matrix
    for i, exact in shadows:
        shadow_pts[i] = pts[i] if exact else [np.nextafter(pts[i, 0], 2.0), *pts[i, 1:]]
    if shadow_on_neighbor is not None:
        shadow_pts[shadow_on_neighbor] = pts[graph.indices[shadow_on_neighbor, 0]]
    shadow = ShadowCloud(points=shadow_pts, frames=frames @ rotation.matrix, rotation=rotation)
    return cloud, frames, graph, shadow


class TestFieldBlocks:
    """Blocks of 1, 7 and N rows, on the lanes, give the one-block field's bits and errors."""

    @pytest.mark.parametrize("rows", [1, 7, 40])
    @pytest.mark.parametrize("mask", DESCRIPTOR_MASKS)
    def test_matches_reference_at_every_block_size(self, rng, monkeypatch, mask, rows):
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        cloud, frames, graph, shadow = _field_case(rng, 40, 6, FRAME_MODE_BARYCENTER)
        for valid in (None, np.arange(40) % 3 != 1, np.zeros(40, dtype=bool)):
            field = sipf_field(cloud, frames, graph, shadow, mask=mask, valid=valid)
            ref = reference_sipf_field(cloud, frames, graph, shadow, mask=mask, valid=valid)
            assert np.array_equal(_bits(field), _bits(ref))

    @pytest.mark.parametrize("rows", [1, 7])
    def test_lane_one_runs_on_the_executor_in_caller_allocated_arrays(self, monkeypatch, rows):
        # Lane 1 runs on the executor's thread, and every array the blocks ask for, lane 1's
        # included, is allocated by the calling thread.  The field has the bits of a run
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
        assert allocated_here and all(allocated_here)

        class Inline:
            def submit(self, fn):
                future = concurrent.futures.Future()
                future.set_result(fn())
                return future

        monkeypatch.setattr(lanes, "_executor", Inline())
        assert np.array_equal(_bits(sipf_field(*case)), _bits(on_executor))

    def test_single_block_call_stays_off_the_executor(self, rng, monkeypatch):
        def no_worker(fn):
            raise AssertionError("a single-block call reached the executor")

        monkeypatch.setattr(lanes._executor, "submit", no_worker)
        cloud, frames, graph, shadow = _field_case(rng, descriptors._FIELD_ROWS, 3, FRAME_MODE_BARYCENTER)
        field = sipf_field(cloud, frames, graph, shadow)
        assert np.array_equal(_bits(field), _bits(reference_sipf_field(cloud, frames, graph, shadow)))

    def test_threads_give_the_serial_bits(self, monkeypatch):
        # More threads than cores build graphs and fields of different sizes at once, switching
        # often, and all queue their lane 1 on the one executor thread: no call may write
        # into another's arrays.
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", 7)
        monkeypatch.setattr(geometry, "_QUERY_ROWS", 7)
        rng = np.random.default_rng(13)
        cases = [_field_case(rng, 40 + 5 * i, 3 + i, FRAME_MODE_BARYCENTER) for i in range(4)]

        def bits(cloud, frames, graph, shadow):
            return knn_graph(cloud, graph.k).indices.tobytes(), sipf_field(cloud, frames, graph, shadow).tobytes()

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
        "case, message",
        [
            # The neighbour-pair check over all rows comes before the shadow checks.
            (dict(pairs=[(30, 33, True)], shadows=[(2, True)]), "coincident pair at index (30, 33)"),
            # Of several close pairs, the first closest in row-major order is named.
            (dict(pairs=[(4, 5, False), (30, 33, True)]), "coincident pair at index (30, 33)"),
            (dict(pairs=[(4, 5, True), (30, 33, True)]), "coincident pair at index (4, 5)"),
            (dict(shadows=[(3, False), (20, True)]), "shadow coincides with point 20"),
            (dict(shadows=[(3, True), (20, True)]), "shadow coincides with point 3"),
            # A row's shadow on itself is checked over all rows before one on a neighbour.
            (dict(shadows=[(25, True)], shadow_on_neighbor=10), "shadow coincides with point 25"),
        ],
    )
    def test_errors_in_different_blocks_name_what_one_block_names(self, monkeypatch, rows, case, message):
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(*_coincidence_case(**case))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("rows", [1, 7, 40])
    def test_shadow_on_a_neighbour_names_the_pair(self, monkeypatch, rows):
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        cloud, frames, graph, shadow = _coincidence_case(shadow_on_neighbor=10)
        with pytest.raises(CoincidentPointError) as excinfo:
            sipf_field(cloud, frames, graph, shadow)
        assert str(excinfo.value) == f"coincident pair at index (10, {graph.indices[10, 0]})"

    @pytest.mark.parametrize("rows", [1, 7])
    def test_neighbour_indices_read_as_numpy_reads_them(self, monkeypatch, rows):
        # A negative index counts from the end; one out of range raises numpy's IndexError.
        cloud, frames, graph, shadow = _field_case(np.random.default_rng(5), 40, 4, FRAME_MODE_BARYCENTER)
        idx = graph.indices.copy()
        idx[35, 2] = -3
        negative = NeighborGraph(k=4, indices=idx)
        idx = idx.copy()
        idx[35, 2] = 40
        outside = NeighborGraph(k=4, indices=idx)
        with pytest.raises(IndexError) as whole:
            sipf_field(cloud, frames, outside, shadow)
        monkeypatch.setattr(descriptors, "_FIELD_ROWS", rows)
        field = sipf_field(cloud, frames, negative, shadow)
        assert np.array_equal(_bits(field), _bits(reference_sipf_field(cloud, frames, negative, shadow)))
        with pytest.raises(IndexError) as blocked:
            sipf_field(cloud, frames, outside, shadow)
        assert str(blocked.value) == str(whole.value)


class TestDegeneracyDetectors:
    def test_axis_alignment_extremes(self):
        frame = build_lrf([1, 0, 0], [0, 1, 0]).axes
        p = np.array([0.0, 0.0, 0.0])
        assert detect_axis_alignment(p, frame, p + np.array([2.0, 0, 0]), frame) == pytest.approx(1.0)
        assert detect_axis_alignment(p, frame, p + np.array([0.0, 3.0, 0]), frame) == pytest.approx(0.0, abs=1e-15)

    def test_axis_alignment_transcription(self, rng):
        for _ in range(100):
            p = rng.standard_normal(3)
            f_r, f_s = random_frames(rng, 2)
            s = p + rng.standard_normal(3)
            d = s - p
            expected = abs(f_r[0] @ d) / np.linalg.norm(d) * abs(f_r[0] @ f_s[0])
            got = detect_axis_alignment(p, f_r, s, f_s)
            assert abs(got - min(1.0, expected)) < 1e-12

    def test_axis_alignment_batch_matches_scalar_oracle(self, rng):
        n = 200
        p = rng.standard_normal((n, 3))
        f_r = random_frames(rng, n)
        f_s = random_frames(rng, n)
        s = p + rng.standard_normal((n, 3))
        # Fully degenerate rows: shadow on the primary axis, axes shared.
        s[:3] = p[:3] + 2.0 * f_r[:3, 0]
        f_s[:3] = f_r[:3]
        got = detect_axis_alignment(p, f_r, s, f_s)
        assert got.shape == (n,)
        expected = np.array([scalar_axis_alignment(p[i], f_r[i], s[i], f_s[i]) for i in range(n)])
        assert np.abs(got - expected).max() <= 1e-15
        assert np.abs(got[:3] - 1.0).max() <= 1e-15
        single = [detect_axis_alignment(p[i], f_r[i], s[i], f_s[i]) for i in range(n)]
        assert all(isinstance(v, float) for v in single)
        assert np.array_equal(np.array(single), got)

    def test_axis_alignment_batch_rejects_coincident_shadow(self, rng):
        p = rng.standard_normal((5, 3))
        frames = random_frames(rng, 5)
        s = p + 1.0
        s[3] = p[3]
        with pytest.raises(CoincidentPointError):
            detect_axis_alignment(p, frames, s, frames)

    def test_axis_alignment_shape_mismatch(self, rng):
        p = rng.standard_normal((5, 3))
        frames = random_frames(rng, 4)
        with pytest.raises(InvalidInputError):
            detect_axis_alignment(p, frames, p + 1.0, frames)

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
        p_r, f_r, p_j, f_j, p_j2, f_j2, axis = circle_ambiguous_pair()
        side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
        seps = []
        for beta in np.linspace(0.0, np.pi / 2, 12):
            shadow_p = p_r + 0.6 * (np.cos(beta) * axis + np.sin(beta) * side)
            a = field_sippf(p_r, f_r, p_j, f_j, shadow_p, f_r)
            b = field_sippf(p_r, f_r, p_j2, f_j2, shadow_p, f_r)
            seps.append(np.linalg.norm(a - b))
        assert seps[0] < 1e-6
        assert all(seps[i] <= seps[i + 1] + 1e-9 for i in range(len(seps) - 1))
        assert seps[-1] >= 10 * max(seps[0], 1e-12)

    def test_detector_tracks_the_sweep(self):
        p_r, f_r, _, _, _, _, axis = circle_ambiguous_pair()
        side = _unit(np.cross(axis, [1.0, 0.0, 0.0]))
        scores = [
            detect_axis_alignment(p_r, f_r, p_r + 0.6 * (np.cos(b) * axis + np.sin(b) * side), f_r)
            for b in np.linspace(0.0, np.pi / 2, 12)
        ]
        assert all(scores[i] >= scores[i + 1] - 1e-12 for i in range(len(scores) - 1))
        assert scores[0] == pytest.approx(1.0)


class TestWingTipCollapse:
    def test_plain_block_collapses_and_shadow_rescues(self):
        dataset = make_wingtip_dataset(1, 64, 0.0, seed=7)
        cloud, labels = dataset.clouds[0], dataset.labels[0]
        graph = knn_graph(cloud, 12)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        half = len(cloud) // 2
        rng = np.random.default_rng(5)
        generic = random_rotation(rng)
        # Generic rotation is far from both failure geometries.
        assert detect_local_coincidence(generic, dataset.symmetry) > 0.1
        shadow = shadow_of(cloud, frames, generic)
        plain = sipf_field(cloud, frames, graph, shadow, mask=MASK_PPF)
        full = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF)
        assert np.abs(plain[:half] - plain[half:]).max() < 1e-9
        assert max(np.abs(full[i] - full[i + half]).max() for i in range(half)) > 1e-3

    def test_shadow_equal_to_patch_rotation_keeps_collapse(self):
        # Shared rotation equal to the patch-swapping rotation: the shadow
        # block goes blind to the swap and mirrored stacks stay identical.
        rng = np.random.default_rng(11)
        cloud, half_turn = mirrored_blob_cloud(rng)
        graph = knn_graph(cloud, 6)
        frames = build_all_lrfs(cloud, graph, FRAME_MODE_BARYCENTER)
        half = len(cloud) // 2
        shadow = shadow_of(cloud, frames, Rotation3(half_turn))
        full = sipf_field(cloud, frames, graph, shadow, mask=MASK_SIPF)
        assert np.abs(full[:half] - full[half:]).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_sippf_norm_never_intermediate(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((3, 3)) * rng.uniform(0.1, 10)
    frames = random_frames(rng, 3)
    out = field_sippf(pts[0], frames[0], pts[1], frames[1], pts[2], frames[2])
    n = np.linalg.norm(out)
    assert n == 0.0 or abs(n - 1.0) < 1e-9
