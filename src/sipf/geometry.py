"""Point-cloud containers, quaternion/rotation algebra, and kNN graphs.

Conventions used across the package:

* points are row vectors and rotations act by right multiplication,
  ``p' = p @ R``;
* quaternions are scalar-first ``(w, x, y, z)``, with ``q`` and ``-q``
  identified;
* all arithmetic is 64-bit.

``quat_to_matrix`` returns the standard matrix whose *column* action
``R @ v`` rotates ``v`` by the quaternion; under the row convention the same
matrix applied as ``p @ R`` therefore realizes the inverse rotation.  Nothing
downstream depends on which of the two is called "forward": every derived
feature is tested for invariance over all of SO(3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidArgumentError, InvalidInputError
from .lanes import _lanes, _run_lanes

__all__ = [
    "PointCloud",
    "UnitQuaternion",
    "Rotation3",
    "NeighborGraph",
    "knn_graph",
    "quat_to_matrix",
    "matrix_to_quat",
    "apply_rotation",
    "random_rotation",
    "rotation_from_axis_angle",
    "is_near_identity",
]

_NORMAL_NORM_TOL = 1e-6
_QUAT_NORM_TOL = 1e-6
_ROTATION_TOL = 1e-10
_MATRIX_INPUT_TOL = 1e-6
_IDENTITY_ANGLE_TOL = 1e-9


def set_read_only(obj, name, value):
    """Store a read-only copy of ``value`` as field ``name`` of the frozen dataclass ``obj``."""
    arr = np.array(value)
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)


def _as_float_array(values, name):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """N x 3 positions with optional unit normals.

    Normals are accepted if within 1e-6 of unit length and stored
    re-normalized so the unit invariant holds to machine precision.
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_float_array(self.points, "points")
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"points must be (N, 3), got {pts.shape}")
        if len(pts) < 2:
            raise InvalidInputError("a point cloud needs at least 2 points")
        set_read_only(self, "points", pts)
        if self.normals is not None:
            nrm = _as_float_array(self.normals, "normals")
            if nrm.shape != pts.shape:
                raise InvalidInputError(
                    f"normals shape {nrm.shape} does not match points {pts.shape}"
                )
            lengths = np.linalg.norm(nrm, axis=1)
            if np.any(np.abs(lengths - 1.0) > _NORMAL_NORM_TOL):
                worst = int(np.argmax(np.abs(lengths - 1.0)))
                raise InvalidInputError(
                    f"normal {worst} has norm {lengths[worst]:.9f}, expected 1"
                )
            set_read_only(self, "normals", nrm / lengths[:, None])

    def __len__(self):
        return len(self.points)

    @property
    def centroid(self):
        return self.points.mean(axis=0)


@dataclass(frozen=True)
class UnitQuaternion:
    """Scalar-first unit quaternion; q and -q describe the same rotation."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        v = np.array([self.w, self.x, self.y, self.z], dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("quaternion has non-finite components")
        n = np.linalg.norm(v)
        if abs(n - 1.0) > _QUAT_NORM_TOL:
            raise InvalidInputError(f"quaternion norm {n:.9f} deviates from 1")
        v /= n
        object.__setattr__(self, "w", float(v[0]))
        object.__setattr__(self, "x", float(v[1]))
        object.__setattr__(self, "y", float(v[2]))
        object.__setattr__(self, "z", float(v[3]))

    @classmethod
    def from_array(cls, values) -> "UnitQuaternion":
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (4,):
            raise InvalidInputError(f"quaternion must have 4 components, got shape {v.shape}")
        return cls(*v)

    @property
    def array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    def __neg__(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)

    def canonical(self) -> "UnitQuaternion":
        """Antipodal representative with w >= 0 (first nonzero positive on the w = 0 slice)."""
        v = self.array
        nz = np.nonzero(v)[0]
        if len(nz) and v[nz[0]] < 0:
            v = -v
        return UnitQuaternion.from_array(v)


def _rotation_matrix(values, tol) -> np.ndarray:
    """A 3x3 array that is orthogonal with determinant +1 to within ``tol``."""
    m = _as_float_array(values, "rotation matrix")
    if m.shape != (3, 3):
        raise InvalidInputError(f"rotation matrix must be 3x3, got {m.shape}")
    err = np.abs(m.T @ m - np.eye(3)).max()
    if err > tol:
        raise InvalidInputError(f"matrix is not orthogonal (deviation {err:.3e})")
    det = np.linalg.det(m)
    if abs(det - 1.0) > tol:
        raise InvalidInputError(f"matrix determinant {det:.12f} is not +1")
    return m


@dataclass(frozen=True)
class Rotation3:
    """Proper rotation matrix, validated to 1e-10."""

    matrix: np.ndarray

    def __post_init__(self):
        set_read_only(self, "matrix", _rotation_matrix(self.matrix, _ROTATION_TOL))

    @classmethod
    def identity(cls) -> "Rotation3":
        return cls(np.eye(3))


@dataclass(frozen=True)
class NeighborGraph:
    """Row i holds the k nearest neighbors of point i, self excluded.

    Rows are sorted by ascending distance, ties broken by ascending index.
    """

    k: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != self.k:
            raise InvalidInputError(f"indices must be (N, {self.k}), got {idx.shape}")
        set_read_only(self, "indices", idx)

    def __len__(self):
        return len(self.indices)


def _row_distances(points, i):
    d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
    d[i] = np.inf
    return d


# Query points per block of ``knn_graph``.
_QUERY_ROWS = 1024


def knn_graph(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k-nearest-neighbor graph via a kd-tree.

    Deterministic under the (distance, index) tie-break regardless of how the
    kd-tree orders equidistant candidates.  The tree returns each candidate
    window sorted by distance, so only the rows with a tie (two equal
    adjacent distances) are re-sorted by (distance, index); any row whose
    k-th distance ties with the window edge falls back to a full scan so
    hidden ties beyond the window cannot change membership.

    The query, the self-entry move and the tie re-sort run in blocks of
    ``_QUERY_ROWS`` points on the two lanes of ``sipf.lanes`` (the query
    releases the GIL); the window-edge fallback runs after them, in this
    thread.  Each row is found on its own, so the indices do not depend on
    the blocks or the lanes.
    """
    n = len(cloud)
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidArgumentError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n - 1:
        raise InvalidArgumentError(f"k={k} out of range [1, {n - 1}]")
    pts = cloud.points
    pad = min(n, k + 8)
    tree = cKDTree(pts)
    out = np.empty((n, k), dtype=np.int64)
    unsure = np.zeros(n, dtype=bool)

    def step(lane, start, stop):
        dist, idx = tree.query(pts[start:stop], k=pad)
        # The self entry moves last, at infinite distance; the rest keep their order.
        self_mask = idx == np.arange(start, stop)[:, None]
        dist[self_mask] = np.inf
        order = np.argsort(self_mask, axis=1, kind="stable")
        dist = np.take_along_axis(dist, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        # Ties sort by ascending point index.  A non-increasing step also catches
        # a window the tree did not return in order.
        tied = np.nonzero((dist[:, 1:] <= dist[:, :-1]).any(axis=1))[0]
        if tied.size:
            order = np.lexsort((idx[tied], dist[tied]))
            dist[tied] = np.take_along_axis(dist[tied], order, axis=1)
            idx[tied] = np.take_along_axis(idx[tied], order, axis=1)
        out[start:stop] = idx[:, :k]
        if pad < n:
            # A tie at the window edge may hide equal-distance candidates outside
            # the window.  The last slot is the masked self entry, so the true
            # edge is the slot before it.
            unsure[start:stop] = dist[:, k - 1] >= dist[:, pad - 2]

    blocks = [(start, min(start + _QUERY_ROWS, n)) for start in range(0, n, _QUERY_ROWS)]
    _run_lanes(_lanes(blocks), step)
    # Resolve the unsure rows exactly.
    for i in np.nonzero(unsure)[0]:
        d = _row_distances(pts, i)
        full = np.lexsort((np.arange(n), d))
        out[i] = full[:k]
    return NeighborGraph(k=k, indices=out)


def quat_to_matrix(q) -> Rotation3:
    """Standard scalar-first quaternion-to-matrix map; identical for q and -q."""
    w, x, y, z = (q if isinstance(q, UnitQuaternion) else UnitQuaternion.from_array(q)).array
    m = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )
    return Rotation3(m)


def matrix_to_quat(rotation) -> UnitQuaternion:
    """Rotation matrix to the w >= 0 quaternion via Shepperd's branch rule.

    Accepts a :class:`Rotation3` or a raw 3x3 array; raw input is rejected if
    it deviates from orthogonality / unit determinant by more than 1e-6.
    """
    if isinstance(rotation, Rotation3):
        m = rotation.matrix
    else:
        m = _rotation_matrix(rotation, _MATRIX_INPUT_TOL)
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


def apply_rotation(cloud: PointCloud, rotation: Rotation3) -> PointCloud:
    """Right-multiply every point (and normal) by the rotation matrix."""
    m = rotation.matrix
    normals = None if cloud.normals is None else cloud.normals @ m
    return PointCloud(points=cloud.points @ m, normals=normals)


def random_rotation(rng: np.random.Generator) -> Rotation3:
    """Uniform SO(3) sample from a normalized 4-component Gaussian quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


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


def is_near_identity(q: UnitQuaternion) -> bool:
    """True when q rotates by less than 1e-9 rad; 2 atan2(|v|, |w|) resolves that, 2 arccos|w| does not."""
    return 2.0 * math.atan2(math.hypot(q.x, q.y, q.z), abs(q.w)) < _IDENTITY_ANGLE_TOL
