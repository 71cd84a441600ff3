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
from .geometry import NeighborGraph, PointCloud, Rotation3, set_read_only
from .lanes import _buffers, _lanes, _run_lanes

__all__ = [
    "MASK_SIPF",
    "MASK_PPF",
    "MASK_SIPF_NO_DIRECTION",
    "DESCRIPTOR_MASKS",
    "B1_SCORE_THRESHOLD",
    "B2_DISTANCE_THRESHOLD_RAD",
    "COINCIDENT_DISTANCE_FLOOR",
    "coincident_pairs",
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
        set_read_only(self, "points", pts)
        set_read_only(self, "frames", frm)


def shadow_of(cloud: PointCloud, frames: np.ndarray, rotation: Rotation3) -> ShadowCloud:
    """Shadow points p' = p @ R_g with transported frames L' = L @ R_g."""
    frames = np.asarray(frames, dtype=np.float64)
    if frames.shape != (len(cloud), 3, 3):
        raise InvalidArgumentError(
            f"frames shape {frames.shape} does not match cloud of {len(cloud)} points"
        )
    m = rotation.matrix
    return ShadowCloud(points=cloud.points @ m, frames=frames @ m, rotation=rotation)


def coincident_pairs(cloud: PointCloud, graph: NeighborGraph) -> np.ndarray:
    """(P, 2) index pairs, i < j and ascending, of the graph edges shorter than COINCIDENT_DISTANCE_FLOOR."""
    edge_length = np.linalg.norm(cloud.points[graph.indices] - cloud.points[:, None, :], axis=-1)
    ref, slot = np.nonzero(edge_length < COINCIDENT_DISTANCE_FLOOR)
    return np.unique(np.sort(np.column_stack([ref, graph.indices[ref, slot]]), axis=1), axis=0)


def _norm(parts, out=None, square=None):
    """Norm of the vector with components ``parts``, summed left to right as ``np.linalg.norm`` does.

    ``square``, if given, receives each later component's square in turn."""
    out = np.multiply(parts[0], parts[0], out=out)
    for p in parts[1:]:
        out += np.multiply(p, p, out=square)
    return np.sqrt(out, out=out)


def _pair_rows(out, p, a, q, b, name_pair, d=None, square=None):
    """Pair features (|d|, cos(a, d), cos(b, d), cos(a, b)), d = q - p, into ``out[0]`` .. ``out[3]``; returns ``out``.

    ``d`` and ``square``, if given, receive q - p and ``_norm``'s squares.  A coincident pair
    raises the message that ``name_pair`` makes of the closest pair's (row, col).
    """
    d = np.subtract(q, p, out=d)
    _norm(np.moveaxis(d, -1, 0), out=out[0], square=square)
    if np.any(out[0] < COINCIDENT_DISTANCE_FLOOR):
        raise CoincidentPointError(name_pair(np.unravel_index(int(np.argmin(out[0])), out[0].shape)))
    d /= out[0][..., None]
    for o, (x, y) in zip(out[1:], ((a, d), (b, d), (a, b))):
        np.einsum("...d,...d->...", x, y, out=o)
    np.clip(out[1:], -1.0, 1.0, out=out[1:])
    return out


# Kept rows per block of ``sipf_field``: a block's arrays stay in cache through every step.
_FIELD_ROWS = 1024


def _field_arrays(m, k, mask):
    """What a block of m rows asks its allocator for in ``_field_rows``, so a lane's can be made ahead."""
    arrays = [("p_j", (m, k, 3)), ("a_j", (m, k, 3)), ("f", (8, m, k)), ("d", (m, k, 3)), ("square", (m, k))]
    if mask != MASK_PPF:
        arrays += [("ref", (4, m, 1)), ("norm", (m, k))]
    return [(name, shape, np.float64) for name, shape in arrays]


def _new_array(name, shape, dtype=np.float64):
    """An allocator that makes a new array on every request."""
    return np.empty(shape, dtype)


def _field_rows(points, a1, shadow, mask, rows, idx, alloc=None):
    """The component-major (8, m, k) field of the kept rows ``rows``, whose neighbours are ``idx``.

    With ``alloc``, a lane's allocator, the block's arrays come from it and the neighbour
    gathers use mode "wrap", which reads an index in [-len, len) as the default mode does,
    without its buffered copy: the caller has checked that every index lies in that range.
    Without it, the arrays are new and the gathers index as numpy does by default.
    """
    m, k = idx.shape
    p_r, a_r = points[rows][:, None, :], a1[rows][:, None, :]
    if alloc is None:
        p_j, a_j = points.take(idx, axis=0), a1.take(idx, axis=0)
        alloc = _new_array
    else:
        p_j = np.take(points, idx, axis=0, out=alloc("p_j", (m, k, 3)), mode="wrap")
        a_j = np.take(a1, idx, axis=0, out=alloc("a_j", (m, k) + a1.shape[1:]), mode="wrap")

    def pair(rc):
        return f"coincident pair at index ({int(rows[rc[0]])}, {int(idx[rc])})"

    # Component-major, so that every step writes contiguous memory.
    f = alloc("f", (8, m, k))
    d, square = alloc("d", (m, k, 3)), alloc("square", (m, k))
    _pair_rows(f[:4], p_r, a_r, p_j, a_j, pair, d, square)
    if mask == MASK_PPF:
        f[4:] = 0.0
        return f
    s_p, s_a = shadow.points[rows][:, None, :], shadow.frames[rows, 0, :][:, None, :]
    ref = _pair_rows(alloc("ref", (4, m, 1)), p_r, a_r, s_p, s_a,
                     lambda rc: f"shadow coincides with point {int(rows[rc[0]])}")
    diff = _pair_rows(f[4:], p_j, a_j, s_p, s_a, pair, d, square)
    np.subtract(ref, diff, out=diff)
    norm = _norm(diff, out=alloc("norm", (m, k)), square=square)
    if mask == MASK_SIPF_NO_DIRECTION:
        diff[0] = norm
        diff[1:] = 0.0
    else:
        zero = ~(norm >= _ZERO_DIFF_TOL)
        diff /= np.maximum(norm, _ZERO_DIFF_TOL, out=norm)
        diff[:, zero] = 0.0
    return f


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

    pair(p_r, p_r') is computed once per row and broadcast over its k
    neighbours.  Every value is bitwise that of the per-edge formulas with
    ``np.linalg.norm`` norms and ``np.einsum`` cosines; the tests check it.

    The kept rows run in blocks of ``_FIELD_ROWS`` on the two lanes of
    ``sipf.lanes``; a call with one block runs inline.  Each block builds its
    component-major (8, m, k) field and writes its transpose into its own
    rows of the output, so no bit depends on the blocks or the lanes.  A
    call whose blocks meet an error computes again as one block over all
    kept rows, which raises the error that one pass over all rows meets
    first: the neighbour-pair check over all rows comes before the shadow
    checks, and the pair named is the first closest one in row-major order.
    """
    if mask not in DESCRIPTOR_MASKS:
        raise InvalidArgumentError(f"unknown descriptor mask {mask!r}")
    frames = np.asarray(frames, dtype=np.float64)
    idx = graph.indices
    n, k = idx.shape
    rows = np.arange(n)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (n,):
            raise InvalidArgumentError(f"valid mask must have shape ({n},), got {valid.shape}")
        if not valid.all():
            rows = rows[valid]
            idx = idx[rows]
    m = len(rows)
    a1 = frames[:, 0, :]
    out = np.empty((n, k, 8)) if m == n else np.zeros((n, k, 8))

    def fill(start, stop, alloc):
        f = _field_rows(cloud.points, a1, shadow, mask, rows[start:stop], idx[start:stop], alloc)
        out[slice(start, stop) if m == n else rows[start:stop]] = f.transpose(1, 2, 0)

    blocks = [(start, min(start + _FIELD_ROWS, m)) for start in range(0, m, _FIELD_ROWS)]
    # A neighbour index outside [-len, len) leaves the rows to the one-block pass, which
    # raises numpy's IndexError.
    reach = min(n, len(a1))
    if len(blocks) > 1 and (not idx.size or (-reach <= idx.min() and idx.max() < reach)):
        # Each lane runs its blocks first to last; lane 1's are full blocks, allocated here.
        lanes = [lane[::-1] for lane in _lanes(blocks)]
        allocs = [_buffers(), _buffers(_field_arrays(_FIELD_ROWS, k, mask))]
        try:
            _run_lanes(lanes, lambda lane, start, stop: fill(start, stop, allocs[lane]))
        except Exception:
            pass  # the one-block pass below raises the error of a pass over all rows
        else:
            return out
    if m:
        fill(0, m, None)
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
