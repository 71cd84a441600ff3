import math

import numpy as np
import pytest
from hypothesis import settings
from scipy import integrate, special
from scipy.spatial import cKDTree

from sipf.descriptors import (
    COINCIDENT_DISTANCE_FLOOR,
    MASK_PPF,
    MASK_SIPF,
    MASK_SIPF_NO_DIRECTION,
    ShadowCloud,
    sipf_field,
)
from sipf.errors import (
    CoincidentPointError,
    DegenerateFrameError,
    DegenerateGeometryError,
    InvalidArgumentError,
    ParseError,
)
from sipf.geometry import (
    NeighborGraph,
    PointCloud,
    Rotation3,
    UnitQuaternion,
    _as_float_array,
    _rotation_matrix,
    random_rotation,
)
from sipf.lrf import _ZERO_AXIS_TOL


# A large budget for the CSV formatter's bit-pattern property; only the CI
# step that runs that property selects it (--hypothesis-profile).
settings.register_profile("csv-formatter-stress", max_examples=100_000, deadline=None)


def format_float(x: float) -> str:
    """One-value oracle of the CSV writer: 17 significant digits round-trip any double bitwise."""
    return format(float(x), ".17g")


# Rotation constructors the tests build their cases with.


def matrix_to_quat(rotation) -> UnitQuaternion:
    """Rotation matrix to the w >= 0 quaternion via Shepperd's branch rule.

    Accepts a :class:`Rotation3` or a raw 3x3 array; raw input is rejected if
    it deviates from orthogonality / unit determinant by more than 1e-6.
    """
    if isinstance(rotation, Rotation3):
        m = rotation.matrix
    else:
        m = _rotation_matrix(rotation, 1e-6)
    t = np.trace(m)
    # Branch on the largest of (trace, m00, m11, m22) for stability.
    choices = np.array([t, m[0, 0], m[1, 1], m[2, 2]])
    branch = int(np.argmax(choices))
    if branch == 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s, (m[1, 0] - m[0, 1]) / s]
        )
    elif branch == 1:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s, (m[0, 2] + m[2, 0]) / s]
        )
    elif branch == 2:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s, (m[1, 2] + m[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s, (m[1, 2] + m[2, 1]) / s, 0.25 * s]
        )
    q /= np.linalg.norm(q)
    return UnitQuaternion.from_array(q).canonical()


def rotation_from_axis_angle(axis, angle: float) -> Rotation3:
    """Rotation by `angle` radians about `axis` (need not be unit length)."""
    a = _as_float_array(axis, "axis")
    n = np.linalg.norm(a)
    if n == 0.0:
        raise InvalidArgumentError("rotation axis must be nonzero")
    x, y, z = a / n
    kmat = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    m = np.eye(3) + np.sin(angle) * kmat + (1.0 - np.cos(angle)) * (kmat @ kmat)
    return Rotation3(m)


def apply_rotation(cloud: PointCloud, rotation: Rotation3) -> PointCloud:
    """Right-multiply every point (and normal) by the rotation matrix."""
    m = rotation.matrix
    normals = None if cloud.normals is None else cloud.normals @ m
    return PointCloud(points=cloud.points @ m, normals=normals)


def brute_force_knn(points: np.ndarray, k: int) -> np.ndarray:
    """O(N^2) reference: full distance sort, ties broken by ascending index."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        out[i] = np.lexsort((np.arange(n), d))[:k]
    return out


def lexsort_knn(points: np.ndarray, k: int) -> np.ndarray:
    """kd-tree windows re-sorted whole by (row, distance, index): the graph knn_graph must give.

    Each window holds k + 8 candidates with the self entry masked to an
    infinite distance; a row whose k-th distance ties with the window edge
    falls back to a full scan.
    """
    n = len(points)
    pad = min(n, k + 8)
    dist, idx = cKDTree(points).query(points, k=pad)
    rows = np.repeat(np.arange(n), pad)
    dist = np.where(idx == np.arange(n)[:, None], np.inf, dist)
    order = np.lexsort((idx.ravel(), dist.ravel(), rows))
    dist_sorted = dist.ravel()[order].reshape(n, pad)
    out = idx.ravel()[order].reshape(n, pad)[:, :k].copy()
    if pad < n:
        for i in np.nonzero(dist_sorted[:, k - 1] >= dist_sorted[:, pad - 2])[0]:
            d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            out[i] = np.lexsort((np.arange(n), d))[:k]
    return out


def scalar_axis_alignment(p_r, axis_r, shadow_point, shadow_axis) -> float:
    """One-point form of ``detect_axis_alignment``, the oracle its (N, 3) results match bit for bit:
    |cos(a_r, d)| * |cos(a_r, a_s)|, each capped at 1."""
    a_r = np.asarray(axis_r, dtype=np.float64)
    a_s = np.asarray(shadow_axis, dtype=np.float64)
    d = np.asarray(shadow_point, dtype=np.float64) - np.asarray(p_r, dtype=np.float64)
    norm = np.linalg.norm(d)
    if norm < COINCIDENT_DISTANCE_FLOOR:
        raise CoincidentPointError("shadow coincides with the point")
    return min(1.0, abs(float(a_r @ d)) / norm) * min(1.0, abs(float(a_r @ a_s)))


# One-point oracles of the primary axes that try_build_all_lrfs computes for a
# whole cloud; they share its degeneracy threshold.


def barycenter_axis(cloud: PointCloud, graph: NeighborGraph, i: int) -> np.ndarray:
    """Vector from point i to the barycenter of its k neighbors."""
    if not 0 <= i < len(cloud):
        raise InvalidArgumentError(f"point index {i} out of range")
    m = cloud.points[graph.indices[i]].mean(axis=0)
    v = m - cloud.points[i]
    if np.linalg.norm(v) < _ZERO_AXIS_TOL:
        raise DegenerateGeometryError("neighbor barycenter coincides with the point", index=i)
    return v


def primary_axis(direction) -> np.ndarray:
    """The unit primary axis along ``direction``, a point's normal or barycenter axis; the scale
    of ``direction`` does not affect it.  Raises where the axis is undefined (norm below 1e-12)."""
    e = np.asarray(direction, dtype=np.float64)
    norm = np.linalg.norm(e)
    if norm < _ZERO_AXIS_TOL:
        raise DegenerateFrameError(f"primary direction has norm {norm:.3e}")
    return e / norm


# One-pair oracles of the descriptor that sipf_field computes for a whole cloud.


def ppf(p, a, q, b) -> np.ndarray:
    """4-vector (distance, three angle cosines) for points p and q with primary axes a and b."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    d = q - p
    norm = np.linalg.norm(d)
    if norm < COINCIDENT_DISTANCE_FLOOR:
        raise CoincidentPointError(f"pair distance {norm:.3e} below tolerance")
    dhat = d / norm
    return np.array(
        [
            norm,
            np.clip(a @ dhat, -1.0, 1.0),
            np.clip(b @ dhat, -1.0, 1.0),
            np.clip(a @ b, -1.0, 1.0),
        ]
    )


def sippf(p_r, a_r, p_j, a_j, shadow_point, shadow_axis) -> np.ndarray:
    """Unit direction of the pair-feature difference against the shadow point and its primary axis.

    Returns the exact zero vector when the difference norm is below 1e-12;
    this configuration is reachable (shadow on the primary axis) and carries
    no directional information.
    """
    diff = ppf(p_r, a_r, shadow_point, shadow_axis) - ppf(p_j, a_j, shadow_point, shadow_axis)
    norm = np.linalg.norm(diff)
    if norm < 1e-12:
        return np.zeros(4)
    return diff / norm


def sipf(p_r, a_r, p_j, a_j, shadow_point, shadow_axis) -> np.ndarray:
    """8-vector: plain pair block followed by the shadow-informed block."""
    return np.concatenate(
        [
            ppf(p_r, a_r, p_j, a_j),
            sippf(p_r, a_r, p_j, a_j, shadow_point, shadow_axis),
        ]
    )


def sipf_stack(
    cloud: PointCloud,
    axes: np.ndarray,
    graph: NeighborGraph,
    shadow: ShadowCloud,
    r: int,
) -> np.ndarray:
    """k x 8 descriptor stack for reference point r, rows in graph order."""
    if not 0 <= r < len(cloud):
        raise InvalidArgumentError(f"reference index {r} out of range")
    axes = np.asarray(axes, dtype=np.float64)
    rows = []
    for j in graph.indices[r]:
        try:
            rows.append(
                sipf(
                    cloud.points[r],
                    axes[r],
                    cloud.points[j],
                    axes[j],
                    shadow.points[r],
                    shadow.axes[r],
                )
            )
        except CoincidentPointError as exc:
            raise CoincidentPointError(f"pair ({r}, {int(j)}): {exc}") from exc
    return np.stack(rows)


def _reference_ppf_rows(p_r, a_r, p_j, a_j, ref, nbr):
    d = p_j - p_r
    norm = np.linalg.norm(d, axis=-1)
    if np.any(norm < COINCIDENT_DISTANCE_FLOOR):
        row, col = np.unravel_index(int(np.argmin(norm)), norm.shape)
        raise CoincidentPointError(f"coincident pair at index ({int(ref[row])}, {int(nbr[row, col])})")
    dhat = d / norm[..., None]
    c1 = np.clip(np.einsum("...d,...d->...", a_r, dhat), -1.0, 1.0)
    c2 = np.clip(np.einsum("...d,...d->...", a_j, dhat), -1.0, 1.0)
    c3 = np.clip(np.einsum("...d,...d->...", a_r, a_j), -1.0, 1.0)
    return np.stack([norm, c1, c2, c3], axis=-1)


def reference_sipf_field(cloud, axes, graph, shadow, mask=MASK_SIPF, valid=None) -> np.ndarray:
    """Frozen per-edge formulation of ``sipf_field``: the bitwise oracle of the production field.

    Every pair block, the reference-to-shadow one included, is evaluated on
    (m, k) broadcasts with ``np.linalg.norm`` norms, ``np.einsum`` cosines and
    ``np.where`` normalisation; the production field must reproduce its bits.
    """
    a1 = np.asarray(axes, dtype=np.float64)
    pts = cloud.points
    idx = graph.indices
    n, k = idx.shape
    rows = np.arange(n) if valid is None else np.arange(n)[np.asarray(valid, dtype=bool)]
    idx = idx[rows]
    m = len(rows)
    p_r = np.broadcast_to(pts[rows][:, None, :], (m, k, 3))
    a_r = np.broadcast_to(a1[rows][:, None, :], (m, k, 3))
    p_j = pts[idx]
    a_j = a1[idx]
    out = np.zeros((n, k, 8))
    out[rows, :, :4] = _reference_ppf_rows(p_r, a_r, p_j, a_j, rows, idx)
    if mask == MASK_PPF:
        return out
    s_p = np.broadcast_to(shadow.points[rows][:, None, :], (m, k, 3))
    s_a = np.broadcast_to(shadow.axes[rows][:, None, :], (m, k, 3))
    diff = _reference_ppf_rows(p_r, a_r, s_p, s_a, rows, idx) - _reference_ppf_rows(
        p_j, a_j, s_p, s_a, rows, idx
    )
    norm = np.linalg.norm(diff, axis=-1)
    if mask == MASK_SIPF_NO_DIRECTION:
        out[rows, :, 4] = norm
        return out
    safe = np.where(norm > 0.0, norm, 1.0)
    out[rows, :, 4:] = np.where(norm[..., None] >= 1e-12, diff / safe[..., None], 0.0)
    return out


def pair_rows(p_r, a_r, neighbors, shadow_point, shadow_axis, mask=MASK_SIPF) -> np.ndarray:
    """Production descriptor rows of one reference point against chosen neighbors.

    Runs ``sipf_field`` on the cloud (p_r, *neighbor points) with row 0
    listing the neighbors in order and every other row marked invalid, so
    only the reference row is computed.  ``neighbors`` holds (point, primary
    axis) pairs.  The shadow point and primary axis
    are free inputs, not the image of p_r and its axis under a rotation.
    """
    points = np.array([p_r, *(p for p, _ in neighbors)], dtype=np.float64)
    axes = np.array([a_r, *(a for _, a in neighbors)], dtype=np.float64)
    n, k = len(points), len(neighbors)
    graph = NeighborGraph(k=k, indices=[list(range(1, n))] + [[0] * k] * k)
    shadow = ShadowCloud(
        points=np.tile(np.asarray(shadow_point, dtype=np.float64), (n, 1)),
        axes=np.tile(np.asarray(shadow_axis, dtype=np.float64), (n, 1)),
    )
    valid = np.arange(n) == 0
    return sipf_field(PointCloud(points=points), axes, graph, shadow, mask=mask, valid=valid)[0]


def _quat_array(q) -> np.ndarray:
    return (q if isinstance(q, UnitQuaternion) else UnitQuaternion.from_array(q)).array


def log_unnormalized_density(q, params) -> float:
    """Bingham exponent q^T V L V^T q; at most 0, with equality exactly at the mode."""
    q = q.array if isinstance(q, UnitQuaternion) else np.asarray(q, dtype=np.float64)
    proj = q @ params.V
    return float((proj**2 * params.lambdas).sum())


def quaternion_distance(q1, q2) -> float:
    """Arc distance on the quaternion sphere with antipodal identification, in [0, pi/2]."""
    return float(np.arccos(np.clip(abs(float(_quat_array(q1) @ _quat_array(q2))), 0.0, 1.0)))


def bingham_moments_oracle(lambdas3):
    """F, dF/dl_i and d2F/dl_i dl_j of the Bingham normalizer by adaptive quadrature.

    F is the integral over S^3 of exp(l1 q1^2 + l2 q2^2 + l3 q3^2).  This
    oracle pairs (q1, q3) on one circle of radius^2 t and (q2, q4) on the
    other (production pairs (q1, q2) and (q3, q4)); each circle is averaged
    in closed form as a Dirichlet moment, 1F1 with Beta constants, and each
    moment of q_i^2 q_j^2 is one ``scipy.integrate.quad`` over t in [0, 1].
    """
    l1, l2, l3 = (float(v) for v in lambdas3)

    def circle(r, lam_x, lam_y, p_x, p_y):
        # Mean of x^(2 p_x) y^(2 p_y) exp(r (lam_x x^2 + lam_y y^2)) over
        # x^2 + y^2 = 1, written with the larger eigenvalue factored out.
        if lam_x > lam_y:
            return circle(r, lam_y, lam_x, p_y, p_x)
        const = special.beta(p_x + 0.5, p_y + 0.5) / np.pi
        kummer = special.hyp1f1(p_x + 0.5, p_x + p_y + 1.0, -(lam_y - lam_x) * r)
        return np.exp(lam_y * r) * const * kummer

    def moment(p1, p2, p3):
        def integrand(t):
            s = 1.0 - t
            return t ** (p1 + p3) * circle(t, l1, l3, p1, p3) * s**p2 * circle(s, l2, 0.0, p2, 0)

        value, _ = integrate.quad(
            integrand, 0.0, 1.0, epsabs=0.0, epsrel=1.2e-14, limit=400, points=(1e-3, 1e-2, 0.1)
        )
        return 2.0 * np.pi**2 * value

    unit = np.eye(3, dtype=int)
    f = moment(0, 0, 0)
    grad = np.array([moment(*unit[i]) for i in range(3)])
    hess = np.array([[moment(*(unit[i] + unit[j])) for j in range(3)] for i in range(3)])
    return f, grad, hess


# Line-by-line reference of the cloud loader: one float() a field, one list a line.


def _oracle_row_values(fields, path, lineno):
    try:
        values = [float(f) for f in fields]
    except ValueError as exc:
        raise ParseError(f"non-numeric field: {exc}", path=path, line=lineno) from exc
    if not all(map(math.isfinite, values)):
        raise ParseError("non-finite value", path=path, line=lineno)
    return values


def _oracle_finish(points, normals, path):
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < 2:
        raise ParseError("a point cloud needs at least 2 points", path=path)
    if normals is not None:
        normals = np.asarray(normals, dtype=np.float64)
        lengths = np.linalg.norm(normals, axis=1)
        if np.any(lengths == 0):
            bad = int(np.nonzero(lengths == 0)[0][0])
            raise ParseError(f"zero-length normal for point {bad}", path=path)
        normals = normals / lengths[:, None]
    return PointCloud(points=pts, normals=normals)


def oracle_parse_xyz(lines, path):
    points = []
    normals = []
    expect = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 6):
            raise ParseError(f"expected 3 or 6 columns, found {len(fields)}", path=path, line=lineno)
        if expect is None:
            expect = len(fields)
        elif len(fields) != expect:
            raise ParseError(
                f"inconsistent column count (expected {expect}, found {len(fields)})", path=path, line=lineno
            )
        values = _oracle_row_values(fields, path, lineno)
        points.append(values[:3])
        if expect == 6:
            normals.append(values[3:])
    if expect is None:
        raise ParseError("file contains no data rows", path=path)
    return _oracle_finish(points, normals if normals else None, path)


def oracle_parse_ply_body(lines, header_end, properties, n_vertices, path):
    """The vertex rows of an ascii PLY whose header, with ``properties``, ends at line ``header_end``."""
    has_normals = all(name in properties for name in ("nx", "ny", "nz"))
    col = {name: i for i, name in enumerate(properties)}
    points = []
    normals = [] if has_normals else None
    row = 0
    for lineno, raw in enumerate(lines[header_end:], start=header_end + 1):
        line = raw.strip()
        if not line:
            continue
        if row >= n_vertices:
            break
        fields = line.split()
        if len(fields) != len(properties):
            raise ParseError(
                f"expected {len(properties)} vertex fields, found {len(fields)}", path=path, line=lineno
            )
        values = _oracle_row_values(fields, path, lineno)
        points.append([values[col["x"]], values[col["y"]], values[col["z"]]])
        if has_normals:
            normals.append([values[col["nx"]], values[col["ny"]], values[col["nz"]]])
        row += 1
    if row != n_vertices:
        raise ParseError(f"expected {n_vertices} vertices, found {row}", path=path)
    return _oracle_finish(points, normals, path)


def random_cloud(rng: np.random.Generator, n: int, with_normals: bool = False) -> PointCloud:
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    normals = None
    if with_normals:
        normals = rng.standard_normal((n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=pts, normals=normals)


def random_axes(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 3) random unit primary axes, each the first row of a uniform random rotation."""
    return np.stack([random_rotation(rng).matrix[0] for _ in range(n)])


def mirrored_blob_cloud(rng: np.random.Generator, n_half: int = 16):
    """Two compact congruent patches related by an exact half-turn about z.

    The patches sit far from the rotation axis, so a shadow rotation equal to
    the half-turn maps each point onto its partner without landing inside any
    neighborhood.
    """
    left = np.stack(
        [
            rng.uniform(-1.25, -1.05, n_half),
            rng.uniform(-0.10, 0.10, n_half),
            rng.uniform(0.95, 1.05, n_half),
        ],
        axis=1,
    )
    half_turn = np.diag([-1.0, -1.0, 1.0])
    pts = np.vstack([left, left @ half_turn])
    return PointCloud(points=pts), half_turn


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
