"""Per-point local reference frames and the centroid-based input descriptor.

A frame is built from two direction vectors by Gram-Schmidt:

    a1 = e1 / |e1|,   a3 = (a1 x e2) / |a1 x e2|,   a2 = a3 x a1.

With normals available the pair is (e1, e2) = (normal, barycenter axis);
for coordinates-only input it is (barycenter axis, centroid-to-point).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFrameError, InvalidArgumentError
from .geometry import NeighborGraph, PointCloud, dot3

__all__ = [
    "FRAME_MODE_NORMAL",
    "FRAME_MODE_BARYCENTER",
    "build_all_lrfs",
    "try_build_all_lrfs",
    "input_descriptor",
]

FRAME_MODE_NORMAL = "normal"
FRAME_MODE_BARYCENTER = "barycenter"

_PARALLEL_SIN_TOL = 1e-7
_ZERO_AXIS_TOL = 1e-12


def _frame_inputs(cloud: PointCloud, graph: NeighborGraph, mode: str):
    if len(cloud) != len(graph):
        raise InvalidArgumentError(f"cloud of {len(cloud)} points does not match a graph of {len(graph)} rows")
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
    cos_a = dot3(frames[:, 0, :].T, v.T) / safe
    cos_a = np.clip(cos_a, -1.0, 1.0)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a**2))
    out = np.stack([rho, sin_a, cos_a], axis=1)
    out[rho == 0.0] = (0.0, 0.0, 1.0)
    return out
