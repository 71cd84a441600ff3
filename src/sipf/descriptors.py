"""Pairwise pose descriptors and their shadow-informed extension.

The plain pair feature for two oriented points is

    (|d|, cos(a1, d), cos(aj, d), cos(a1, aj)),    d = p_j - p_r,

where a1/aj are the primary frame axes.  The shadow-informed block compares
both endpoints against a shared reference copy of the point ("shadow"):

    (pair(p_r, p_r') - pair(p_j, p_r')) / |...|_2,

an L2-normalized difference that degenerates to the exact zero vector when
the difference norm falls below 1e-12.  Concatenating the two blocks gives
the 8-dimensional descriptor used by the attention layer.

Two scored degeneracy detectors cover the known failure geometries: shadow
displacement along the primary axis with coinciding axes, and coincidence of
the global shadow rotation with a local patch rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointError, InvalidArgumentError, InvalidInputError
from .geometry import NeighborGraph, PointCloud, Rotation3

__all__ = [
    "MASK_SIPF",
    "MASK_PPF",
    "MASK_SIPF_NO_DIRECTION",
    "DESCRIPTOR_MASKS",
    "B1_SCORE_THRESHOLD",
    "B2_DISTANCE_THRESHOLD_RAD",
    "COINCIDENT_DISTANCE_FLOOR",
    "ShadowCloud",
    "shadow_of",
    "sipf_field",
    "detect_axis_alignment",
    "detect_local_coincidence",
]

MASK_SIPF = "sipf"
MASK_PPF = "ppf"
MASK_SIPF_NO_DIRECTION = "sipf-no-direction"
DESCRIPTOR_MASKS = (MASK_SIPF, MASK_PPF, MASK_SIPF_NO_DIRECTION)

# Default audit thresholds for the two degeneracy scores.
B1_SCORE_THRESHOLD = 0.99
B2_DISTANCE_THRESHOLD_RAD = 0.1

_ZERO_DIFF_TOL = 1e-12
# Pairs closer than this are treated as coincident everywhere in the module.
COINCIDENT_DISTANCE_FLOOR = 1e-15


@dataclass(frozen=True)
class ShadowCloud:
    """Reference copy of a cloud under one shared rotation.

    Frames are transported (right-multiplied) rather than recomputed; by
    frame equivariance the two are identical and transport avoids a second
    neighbor pass.
    """

    points: np.ndarray
    frames: np.ndarray
    rotation: Rotation3

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        frm = np.asarray(self.frames, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"shadow points must be (N, 3), got {pts.shape}")
        if frm.shape != (len(pts), 3, 3):
            raise InvalidInputError(f"shadow frames must be (N, 3, 3), got {frm.shape}")
        pts = pts.copy()
        pts.setflags(write=False)
        frm = frm.copy()
        frm.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "frames", frm)


def shadow_of(cloud: PointCloud, frames: np.ndarray, rotation: Rotation3) -> ShadowCloud:
    """Shadow points p' = p @ R_g with transported frames L' = L @ R_g."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != (len(cloud), 3, 3):
        raise InvalidArgumentError(
            f"frames shape {frames.shape} does not match cloud of {len(cloud)} points"
        )
    m = rotation.matrix
    return ShadowCloud(points=cloud.points @ m, frames=frames @ m, rotation=rotation)


def _ppf_rows(p_r, a_r, p_j, a_j, ref, nbr):
    """Vectorized pair features over (m, k) edges from point ``ref[row]`` to point ``nbr[row, col]``."""
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


def sipf_field(
    cloud: PointCloud,
    frames: np.ndarray,
    graph: NeighborGraph,
    shadow: ShadowCloud,
    mask: str = MASK_SIPF,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """All descriptor stacks at once as an (N, k, 8) array.

    ``mask`` selects the descriptor variant: the full 8-dim descriptor, the
    plain pair feature with a zeroed shadow block, or the direction-free
    variant that keeps only the difference norm in slot 4.  Reference rows
    flagged invalid in ``valid`` are skipped and left zero; their values must
    not be consumed.
    """
    if mask not in DESCRIPTOR_MASKS:
        raise InvalidArgumentError(f"unknown descriptor mask {mask!r}")
    frames = np.asarray(frames, dtype=np.float64)
    pts = cloud.points
    idx = graph.indices
    n, k = idx.shape
    rows = np.arange(n)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (n,):
            raise InvalidArgumentError(f"valid mask must have shape ({n},), got {valid.shape}")
        rows = rows[valid]
    idx = idx[rows]
    m = len(rows)
    a1 = frames[:, 0, :]
    p_r = np.broadcast_to(pts[rows][:, None, :], (m, k, 3))
    a_r = np.broadcast_to(a1[rows][:, None, :], (m, k, 3))
    p_j = pts[idx]
    a_j = a1[idx]
    out = np.zeros((n, k, 8))
    out[rows, :, :4] = _ppf_rows(p_r, a_r, p_j, a_j, rows, idx)
    if mask == MASK_PPF:
        return out
    s_p = np.broadcast_to(shadow.points[rows][:, None, :], (m, k, 3))
    s_a = np.broadcast_to(shadow.frames[rows][:, 0, :][:, None, :], (m, k, 3))
    diff = _ppf_rows(p_r, a_r, s_p, s_a, rows, idx) - _ppf_rows(p_j, a_j, s_p, s_a, rows, idx)
    norm = np.linalg.norm(diff, axis=-1)
    if mask == MASK_SIPF_NO_DIRECTION:
        out[rows, :, 4] = norm
        return out
    safe = np.where(norm > 0.0, norm, 1.0)
    out[rows, :, 4:] = np.where(norm[..., None] >= _ZERO_DIFF_TOL, diff / safe[..., None], 0.0)
    return out


def _row_dot(a, b):
    """Dot products over the last axis, through the same BLAS route as a 1-D ``a @ b``."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def detect_axis_alignment(p_r, frame_r, shadow_point, shadow_frame):
    """Score in [0, 1] for the shadow-on-primary-axis degeneracy.

    Product of |cos| between the shadow displacement and the primary axis and
    |cos| between the two primary axes; 1 means fully degenerate.  Takes one
    point, (3,) positions and 3 x 3 frames, and returns a float; or N points,
    (N, 3) positions and (N, 3, 3) frames, and returns an (N,) array.
    """
    p_r = np.asarray(p_r, dtype=np.float64)
    shadow_point = np.asarray(shadow_point, dtype=np.float64)
    frame_r = np.asarray(frame_r, dtype=np.float64)
    shadow_frame = np.asarray(shadow_frame, dtype=np.float64)
    if not (
        p_r.shape == shadow_point.shape
        and p_r.shape[-1:] == (3,)
        and frame_r.shape == shadow_frame.shape == p_r.shape + (3,)
    ):
        raise InvalidInputError(
            f"points {p_r.shape} and {shadow_point.shape} do not match "
            f"frames {frame_r.shape} and {shadow_frame.shape}"
        )
    a_r = frame_r[..., 0, :]
    a_s = shadow_frame[..., 0, :]
    d = shadow_point - p_r
    norm = np.sqrt(_row_dot(d, d))
    if np.any(norm < COINCIDENT_DISTANCE_FLOOR):
        raise CoincidentPointError("shadow coincides with the point")
    c_disp = np.minimum(1.0, np.abs(_row_dot(a_r, d)) / norm)
    c_axes = np.minimum(1.0, np.abs(_row_dot(a_r, a_s)))
    score = c_disp * c_axes
    return float(score) if score.ndim == 0 else score


def detect_local_coincidence(r_g: Rotation3, r_j: Rotation3) -> float:
    """Geodesic distance in radians between the two rotations; 0 flags coincidence."""
    rel = r_g.matrix.T @ r_j.matrix
    cos_angle = (np.trace(rel) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_angle, -1.0, 1.0)))
