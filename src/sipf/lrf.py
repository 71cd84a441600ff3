"""Per-point primary axes and the centroid-based input descriptor.

A point's frame is its primary axis, the one direction that the pair feature
and its shadow difference read: the unit normal when the cloud has normals,
and otherwise the unit barycenter axis, from the point to the mean of its k
neighbours.  A frame is degenerate only where that axis is undefined: the
direction's norm is below 1e-12.
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

_ZERO_AXIS_TOL = 1e-12


def _direction(cloud: PointCloud, graph: NeighborGraph, mode: str) -> np.ndarray:
    """The (N, 3) unnormalised primary direction of every point: its normal or its barycenter axis."""
    if len(cloud) != len(graph):
        raise InvalidArgumentError(f"cloud of {len(cloud)} points does not match a graph of {len(graph)} rows")
    if mode == FRAME_MODE_NORMAL:
        if cloud.normals is None:
            raise InvalidArgumentError("normal-based frames require normals in the cloud")
        return cloud.normals
    if mode == FRAME_MODE_BARYCENTER:
        pts = cloud.points
        return pts.take(graph.indices, axis=0).mean(axis=1) - pts
    raise InvalidArgumentError(f"unknown frame mode {mode!r}")


def try_build_all_lrfs(cloud: PointCloud, graph: NeighborGraph, mode: str = FRAME_MODE_NORMAL):
    """Like :func:`build_all_lrfs` but returns ``(axes, valid)`` instead of raising.

    Rows of ``axes`` with ``valid[i] == False`` hold (1, 0, 0) and must not be consumed.
    """
    e = _direction(cloud, graph, mode)
    norm = np.linalg.norm(e, axis=1)
    valid = norm >= _ZERO_AXIS_TOL
    axes = e / np.where(valid, norm, 1.0)[:, None]
    axes[~valid] = (1.0, 0.0, 0.0)
    return axes, valid


def build_all_lrfs(cloud: PointCloud, graph: NeighborGraph, mode: str = FRAME_MODE_NORMAL) -> np.ndarray:
    """The (N, 3) unit primary axis of every point; raises on the first undefined one."""
    axes, valid = try_build_all_lrfs(cloud, graph, mode)
    if not valid.all():
        bad = int(np.nonzero(~valid)[0][0])
        raise DegenerateFrameError("degenerate local frame", index=bad)
    return axes


def input_descriptor(cloud: PointCloud, axes: np.ndarray) -> np.ndarray:
    """Per-point (distance to centroid, sin, cos of the angle to the primary axis).

    A point coinciding with the centroid gets (0, 0, 1), the continuous limit
    along its own primary axis.
    """
    axes = np.asarray(axes, dtype=np.float64)
    if axes.shape != (len(cloud), 3):
        raise InvalidArgumentError(f"axes shape {axes.shape} does not match cloud of {len(cloud)} points")
    v = cloud.points - cloud.centroid
    rho = np.linalg.norm(v, axis=1)
    safe = np.where(rho > 0, rho, 1.0)
    cos_a = dot3(axes.T, v.T) / safe
    cos_a = np.clip(cos_a, -1.0, 1.0)
    sin_a = np.sqrt(np.maximum(0.0, 1.0 - cos_a**2))
    out = np.stack([rho, sin_a, cos_a], axis=1)
    out[rho == 0.0] = (0.0, 0.0, 1.0)
    return out
