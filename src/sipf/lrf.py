"""Per-point local reference frames and the centroid-based input descriptor.

A frame is built from two direction vectors by Gram-Schmidt:

    a1 = e1 / |e1|,   a3 = (a1 x e2) / |a1 x e2|,   a2 = a3 x a1.

With normals available the pair is (e1, e2) = (normal, barycenter axis);
for coordinates-only input it is (barycenter axis, centroid-to-point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFrameError, DegenerateGeometryError, InvalidArgumentError, InvalidInputError
from .geometry import NeighborGraph, PointCloud

__all__ = [
    "LocalFrame",
    "FRAME_MODE_NORMAL",
    "FRAME_MODE_BARYCENTER",
    "barycenter_axis",
    "build_lrf",
    "build_all_lrfs",
    "try_build_all_lrfs",
    "input_descriptor",
]

FRAME_MODE_NORMAL = "normal"
FRAME_MODE_BARYCENTER = "barycenter"

_FRAME_ORTHO_TOL = 1e-9
_PARALLEL_SIN_TOL = 1e-7
_ZERO_AXIS_TOL = 1e-12


@dataclass(frozen=True)
class LocalFrame:
    """Right-handed orthonormal basis; rows are the three axes."""

    axes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.axes, dtype=np.float64)
        if a.shape != (3, 3):
            raise InvalidInputError(f"frame axes must be 3x3, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise InvalidInputError("frame axes contain non-finite values")
        gram = np.abs(a @ a.T - np.eye(3)).max()
        if gram > _FRAME_ORTHO_TOL:
            raise InvalidInputError(f"frame rows not orthonormal (deviation {gram:.3e})")
        if np.abs(np.cross(a[0], a[1]) - a[2]).max() > _FRAME_ORTHO_TOL:
            raise InvalidInputError("frame is not right-handed")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "axes", a)

    @property
    def primary(self) -> np.ndarray:
        return self.axes[0]


def barycenter_axis(cloud: PointCloud, graph: NeighborGraph, i: int) -> np.ndarray:
    """Vector from point i to the barycenter of its k neighbors."""
    if not 0 <= i < len(cloud):
        raise InvalidArgumentError(f"point index {i} out of range")
    m = cloud.points[graph.indices[i]].mean(axis=0)
    v = m - cloud.points[i]
    if np.linalg.norm(v) < _ZERO_AXIS_TOL:
        raise DegenerateGeometryError("neighbor barycenter coincides with the point", index=i)
    return v


def build_lrf(e1, e2) -> LocalFrame:
    """Gram-Schmidt frame from two directions; scale of e1 and the component
    of e2 along e1 do not affect the result."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    n1 = np.linalg.norm(e1)
    n2 = np.linalg.norm(e2)
    if n1 == 0.0 or n2 == 0.0:
        raise DegenerateFrameError("frame directions must be nonzero")
    a1 = e1 / n1
    cross = np.cross(a1, e2 / n2)
    sin_angle = np.linalg.norm(cross)
    if sin_angle < _PARALLEL_SIN_TOL:
        raise DegenerateFrameError(
            f"frame directions are parallel within tolerance (sin angle {sin_angle:.3e})"
        )
    a3 = cross / sin_angle
    a2 = np.cross(a3, a1)
    return LocalFrame(np.stack([a1, a2, a3]))


def _frame_inputs(cloud: PointCloud, graph: NeighborGraph, mode: str):
    pts = cloud.points
    bary = pts[graph.indices].mean(axis=1) - pts
    if mode == FRAME_MODE_NORMAL:
        if cloud.normals is None:
            raise InvalidArgumentError("normal-based frames require normals in the cloud")
        return cloud.normals, bary
    if mode == FRAME_MODE_BARYCENTER:
        return bary, pts - cloud.centroid
    raise InvalidArgumentError(f"unknown frame mode {mode!r}")


def _frames_from_pairs(e1: np.ndarray, e2: np.ndarray):
    """Vectorized Gram-Schmidt; returns (frames, sin_angle, e1_norms, e2_norms)."""
    n1 = np.linalg.norm(e1, axis=1)
    n2 = np.linalg.norm(e2, axis=1)
    safe1 = np.where(n1 > 0, n1, 1.0)
    safe2 = np.where(n2 > 0, n2, 1.0)
    a1 = e1 / safe1[:, None]
    cross = np.cross(a1, e2 / safe2[:, None])
    sin_angle = np.linalg.norm(cross, axis=1)
    safe_sin = np.where(sin_angle > 0, sin_angle, 1.0)
    a3 = cross / safe_sin[:, None]
    a2 = np.cross(a3, a1)
    return np.stack([a1, a2, a3], axis=1), sin_angle, n1, n2


def try_build_all_lrfs(cloud: PointCloud, graph: NeighborGraph, mode: str = FRAME_MODE_NORMAL):
    """Like :func:`build_all_lrfs` but returns ``(frames, valid)`` instead of raising.

    Rows of ``frames`` with ``valid[i] == False`` are filled with the identity
    basis and must not be consumed.
    """
    e1, e2 = _frame_inputs(cloud, graph, mode)
    frames, sin_angle, n1, n2 = _frames_from_pairs(e1, e2)
    valid = (n1 >= _ZERO_AXIS_TOL) & (n2 >= _ZERO_AXIS_TOL) & (sin_angle >= _PARALLEL_SIN_TOL)
    if not valid.all():
        frames = frames.copy()
        frames[~valid] = np.eye(3)
    return frames, valid


def build_all_lrfs(cloud: PointCloud, graph: NeighborGraph, mode: str = FRAME_MODE_NORMAL) -> np.ndarray:
    """Frames for every point as an (N, 3, 3) stack of axis rows."""
    frames, valid = try_build_all_lrfs(cloud, graph, mode)
    if not valid.all():
        bad = int(np.nonzero(~valid)[0][0])
        raise DegenerateFrameError("degenerate local frame", index=bad)
    return frames


def input_descriptor(cloud: PointCloud, frames: np.ndarray) -> np.ndarray:
    """Per-point (distance to centroid, sin, cos of the angle to the primary axis).

    A point coinciding with the centroid gets (0, 0, 1), the continuous limit
    along its own primary axis.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != (len(cloud), 3, 3):
        raise InvalidArgumentError(
            f"frames shape {frames.shape} does not match cloud of {len(cloud)} points"
        )
    v = cloud.points - cloud.centroid
    rho = np.linalg.norm(v, axis=1)
    safe = np.where(rho > 0, rho, 1.0)
    cos_a = np.einsum("nd,nd->n", frames[:, 0, :], v) / safe
    cos_a = np.clip(cos_a, -1.0, 1.0)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a**2))
    out = np.stack([rho, sin_a, cos_a], axis=1)
    out[rho == 0.0] = (0.0, 0.0, 1.0)
    return out
