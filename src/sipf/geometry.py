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
from .lanes import run_blocks

__all__ = [
    "PointCloud",
    "UnitQuaternion",
    "Rotation3",
    "NeighborGraph",
    "knn_graph",
    "quat_to_matrix",
    "random_rotation",
    "is_near_identity",
]

_NORMAL_NORM_TOL = 1e-6
_QUAT_NORM_TOL = 1e-6
_ROTATION_TOL = 1e-10
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


def dot3(x, y, out=None, work=None):
    """Dot products of the 3-vectors with coordinate planes x[0..2] and y[0..2], with the bits of
    ``np.einsum("...d,...d->...")`` on their rows: (x0 y0 + x2 y2) + x1 y1 from a +0 start, so that
    three -0 products sum to +0.  ``work`` takes the later products; without ``out``, x[0] y[0] needs the full shape."""
    out = np.multiply(x[0], y[0], out=out)
    out += np.multiply(x[2], y[2], out=work)
    out += np.multiply(x[1], y[1], out=work)
    out += 0.0
    return out


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
        """-q with each stored component negated exactly: renormalising could move the last bit."""
        neg = object.__new__(UnitQuaternion)
        vars(neg).update(w=-self.w, x=-self.x, y=-self.y, z=-self.z)
        return neg

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


@dataclass(frozen=True)
class NeighborGraph:
    """Row i holds the k nearest neighbors of point i, self excluded.

    Rows are sorted by ascending distance, ties broken by ascending index.
    Every index names a row of the graph: it lies in [0, N).
    """

    k: int
    indices: np.ndarray = field(repr=False)

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 2 or idx.shape[1] != self.k:
            raise InvalidInputError(f"indices must be (N, {self.k}), got {idx.shape}")
        if idx.size and (idx.min() < 0 or idx.max() >= len(idx)):
            raise InvalidInputError(f"neighbor indices must lie in [0, {len(idx)})")
        set_read_only(self, "indices", idx)

    def __len__(self):
        return len(self.indices)


def _row_distances(points, i):
    d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
    d[i] = np.inf
    return d


# Query points per block of ``knn_graph``, at most.
_QUERY_ROWS = 1024


def _query_rows(n):
    """Rows a block of ``knn_graph``'s query of n points: the fewest blocks of at most
    ``_QUERY_ROWS`` rows, made even when there is more than one, so the two lanes get as many
    blocks each (5,000 points: 6 of 834, the last 830).  All blocks have this size but the last,
    which is shorter by fewer rows than there are blocks.  Below a million points at 1,024 rows
    the count stays even."""
    blocks = -(-n // _QUERY_ROWS)
    if blocks > 1:
        blocks += blocks % 2
    return max(1, -(-n // blocks))


def knn_graph(cloud: PointCloud, k: int) -> NeighborGraph:
    """Exact k-nearest-neighbor graph via a kd-tree.

    Deterministic under the (distance, index) tie-break regardless of how the
    kd-tree orders equidistant candidates.  The tree returns each candidate
    window of k + 8 points sorted by distance.  Where every row of a block
    has its own index first, that entry is sliced off; otherwise (a block
    with duplicate points) each row's self entry moves last at infinite
    distance by a stable argsort.  Only the rows with a tie (two equal
    adjacent distances) are re-sorted by (distance, index); any row whose
    k-th distance ties with the window edge falls back to a full scan so
    hidden ties beyond the window cannot change membership.  The window
    stays k + 8 wide because that scan is O(N) a row: a k + 2 window sends
    216 of a 30 x 30 grid's 900 rows to it at k = 20.

    The query, the self-entry step and the tie re-sort run in the even
    number of equal blocks of ``_query_rows`` with ``sipf.lanes.run_blocks``
    (the query releases the GIL); the window-edge fallback runs after them,
    in this thread.  Each row is found on its own, so the indices do not
    depend on the blocks or the lanes.
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

    def step(lane, alloc, start, stop):
        dist, idx = tree.query(pts[start:stop], k=pad)
        own = np.arange(start, stop)
        if (idx[:, 0] == own).all():
            dist, idx = dist[:, 1:], idx[:, 1:]
        else:
            # The self entry moves last, at infinite distance; the rest keep their order.
            self_mask = idx == own[:, None]
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
            # the window.  Slot pad - 2 is the last one before the self entry, or
            # the last one once the self entry is sliced off.
            unsure[start:stop] = dist[:, k - 1] >= dist[:, pad - 2]

    run_blocks(n, _query_rows(n), step)
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


def random_rotation(rng: np.random.Generator) -> Rotation3:
    """Uniform SO(3) sample from a normalized 4-component Gaussian quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


def is_near_identity(q: UnitQuaternion) -> bool:
    """True when q rotates by less than 1e-9 rad; 2 atan2(|v|, |w|) resolves that, 2 arccos|w| does not."""
    return 2.0 * math.atan2(math.hypot(q.x, q.y, q.z), abs(q.w)) < _IDENTITY_ANGLE_TOL
