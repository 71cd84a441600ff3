"""Pairwise pose descriptors and their shadow-informed extension.

The plain pair feature for two oriented points is

    (|d|, cos(a1, d), cos(aj, d), cos(a1, aj)),    d = p_j - p_r,

where a1/aj are the points' primary axes, their frames in ``sipf.lrf``, given
as (N, 3) arrays.  The shadow-informed block compares both endpoints against
a shared reference copy of the point ("shadow"), p_r' = p_r R_g with primary
axis a1' = a1 R_g:

    (pair(p_r, p_r') - pair(p_j, p_r')) / |...|_2,

an L2-normalized difference that degenerates to the exact zero vector when
the difference norm falls below 1e-12.  Concatenating the two blocks gives
the 8-dimensional descriptor used by the attention layer.  The field is computed
on (3, ...) coordinate planes and sums each cosine as (x0 y0 + x2 y2) + x1 y1 + 0,
the order of ``geometry.dot3`` and of ``np.einsum`` on (..., 3) rows, to keep its bits.

Two scored degeneracy detectors cover the known failure geometries: shadow
displacement along the primary axis with coinciding axes, and coincidence of
the global shadow rotation with a local patch rotation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPointError, InvalidArgumentError, InvalidInputError
from .geometry import NeighborGraph, PointCloud, Rotation3, set_read_only
from .lanes import run_blocks

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
    "field_deviations",
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
    """Reference copy of a cloud under one shared rotation: the rotated points
    and their rotated primary axes, both (N, 3).

    The axes are transported (right-multiplied) rather than recomputed; by
    frame equivariance the two are identical and transport avoids a second
    neighbor pass.
    """

    points: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        axes = np.asarray(self.axes, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"shadow points must be (N, 3), got {pts.shape}")
        if axes.shape != pts.shape:
            raise InvalidInputError(f"shadow axes must be {pts.shape}, got {axes.shape}")
        set_read_only(self, "points", pts)
        set_read_only(self, "axes", axes)


def shadow_of(cloud: PointCloud, axes: np.ndarray, rotation: Rotation3) -> ShadowCloud:
    """Shadow points p' = p @ R_g with transported primary axes a' = a1 @ R_g; ``axes`` is (N, 3)."""
    axes = np.asarray(axes, dtype=np.float64)
    if axes.shape != (len(cloud), 3):
        raise InvalidArgumentError(f"axes shape {axes.shape} does not match cloud of {len(cloud)} points")
    m = rotation.matrix
    return ShadowCloud(points=cloud.points @ m, axes=axes @ m)


def coincident_pairs(cloud: PointCloud, graph: NeighborGraph) -> np.ndarray:
    """(P, 2) index pairs, i < j and ascending, of the graph edges shorter than COINCIDENT_DISTANCE_FLOOR."""
    if len(cloud) != len(graph):
        raise InvalidArgumentError(f"cloud of {len(cloud)} points does not match a graph of {len(graph)} rows")
    # One coordinate plane at a time: the bits of np.linalg.norm over an (N, k, 3) gather, without it.
    edge_length = _norm([plane[graph.indices] - plane[:, None] for plane in cloud.points.T])
    ref, slot = np.nonzero(edge_length < COINCIDENT_DISTANCE_FLOOR)
    return np.unique(np.sort(np.column_stack([ref, graph.indices[ref, slot]]), axis=1), axis=0)


def _norm(parts):
    """Norm of the vector with components ``parts``, summed left to right as ``np.linalg.norm`` does."""
    out = parts[0] * parts[0]
    for p in parts[1:]:
        out += p * p
    return np.sqrt(out, out=out)


def _pair_rows(out, p, a, q, b, d, prod, name_pair=None):
    """Pair features (|d|, cos(a, d), cos(b, d), cos(a, b)), d = q - p, into ``out[0]`` .. ``out[3]``; returns ``out``.

    The vectors are (3, ...) coordinate planes.  Each squared norm and cosine takes one three-plane
    product into ``prod`` and sums it in the order of ``_norm`` and ``geometry.dot3``: (x0² + x1²) + x2²,
    and (x0 y0 + x2 y2) + x1 y1 + 0.  ``d`` receives q - p.  A coincident pair raises the message that
    ``name_pair`` makes of the closest pair's (row, col), before d is divided; without ``name_pair``
    nothing is checked here and such a pair's d is divided by the floor instead, which raises no
    floating-point error, so its caller must check ``out[0]`` before it reads the pair.
    """
    np.subtract(q, p, out=d)
    square = np.multiply(d, d, out=prod)
    norm = np.add(square[0], square[1], out=out[0])
    norm += square[2]
    np.sqrt(norm, out=norm)
    if name_pair is None:
        d /= np.maximum(norm, COINCIDENT_DISTANCE_FLOOR, out=prod[0])
    else:
        _check_pairs(norm, name_pair)
        d /= norm
    for o, (x, y) in zip(out[1:], ((a, d), (b, d), (a, b))):
        product = np.multiply(x, y, out=prod)
        np.add(product[0], product[2], out=o)
        o += product[1]
    cos = out[1:]
    cos += 0.0
    np.maximum(cos, -1.0, out=cos)
    np.minimum(cos, 1.0, out=cos)
    return out


def _check_pairs(norm, name_pair):
    """Raise the message ``name_pair`` makes of the first closest (row, col) if a norm is below the
    floor.  ``np.fmin`` skips a NaN as a comparison does."""
    if np.fmin.reduce(norm, axis=None, initial=np.inf) < COINCIDENT_DISTANCE_FLOOR:
        raise CoincidentPointError(name_pair(np.unravel_index(int(np.argmin(norm)), norm.shape)))


# Kept rows per block of the field, at most: a block's arrays stay in cache through every step.
# ``_block_rows`` cuts the kept rows into the fewest blocks of one size (5,000 rows: 5 of 1,000),
# the last one a few rows shorter where the size does not divide the rows (1,025: 513 and 512),
# which writes into the first part of its lane's arrays.  So a lane's blocks, over every trial of
# ``field_deviations`` too, use the same arrays, which the lane makes once a call.  Equal blocks
# are kept for speed: cutting 5,000 rows as 4 x 1,024 + 904 made a 5k x 20 ``sipf_field`` take
# 9.7-14.2 ms against 6.3-9.3 ms (medians of 20 calls in 6 alternating processes a side, one BLAS
# thread, 2-CPU x86-64 host).
_FIELD_ROWS = 1024


def _block_rows(n):
    """Rows a block of the field's n kept rows: the fewest blocks of at most ``_FIELD_ROWS`` rows,
    all of this size but the last, which is shorter by fewer rows than there are blocks."""
    blocks = max(1, -(-n // _FIELD_ROWS))
    return max(1, -(-n // blocks))


def _field_rows(planes, own, shadow, ref, mask, rows, idx, arrays):
    """The component-major (8, m, k) field of the kept rows ``rows``, whose neighbours are ``idx``.

    ``planes`` holds the (6, N) stacked coordinate planes of the points and primary axes; ``own``
    and ``shadow`` hold the block's (6, m, 1) planes of its points and of their shadow points and
    axes, and ``ref`` its (4, m, 1) pairs pair(p_r, p_r'), which this block checks (None for
    ``MASK_PPF``).  ``arrays`` are the block's (9, m, k) work planes, (8, m, k) field and (m, k)
    mask.  Each step writes whole (m, k) planes, and the cosines are ``_pair_rows``' einsum-ordered
    dots.  The neighbours' points and axes are one gather with mode "wrap", which writes into the
    work planes without numpy's buffered copy.  None wraps: ``NeighborGraph`` keeps every index in
    [0, N), and ``_check_rows`` checks that the points and axes have N rows.
    """
    work, f, zero = arrays
    gathered = np.take(planes, idx, axis=1, out=work[:6], mode="wrap")
    p_j, a_j = gathered[:3], gathered[3:]

    def pair(rc):
        return f"coincident pair at index ({int(rows[rc[0]])}, {int(idx[rc])})"

    # The products go to planes not yet written: f's shadow block, then p_j once d is made of it.
    _pair_rows(f[:4], own[:3], own[3:], p_j, a_j, work[6:], f[4:7], pair)
    if mask == MASK_PPF:
        f[4:] = 0.0
        return f
    _check_pairs(ref[0], lambda rc: f"shadow coincides with point {int(rows[rc[0]])}")
    diff = _pair_rows(f[4:], p_j, a_j, shadow[:3], shadow[3:], work[6:], work[:3], pair)
    np.subtract(ref, diff, out=diff)
    # Every work plane is free now.
    square = np.multiply(diff, diff, out=work[:4])
    norm = np.add(square[0], square[1], out=work[4])
    norm += square[2]
    norm += square[3]
    np.sqrt(norm, out=norm)
    if mask == MASK_SIPF_NO_DIRECTION:
        diff[0] = norm
        diff[1:] = 0.0
    else:
        np.logical_not(np.greater_equal(norm, _ZERO_DIFF_TOL, out=zero), out=zero)
        diff /= np.maximum(norm, _ZERO_DIFF_TOL, out=norm)
        np.copyto(diff, 0.0, where=zero)
    return f


def _check_rows(points, axes, graph, shadow):
    """Raise unless the points and primary axes, both (N, 3), and the shadow have the graph's N rows."""
    if axes.ndim != 2 or axes.shape[1] != 3:
        raise InvalidArgumentError(f"axes must be (N, 3) primary axes, got {axes.shape}")
    n = len(graph)
    if points.shape != (n, 3) or axes.shape != (n, 3) or len(shadow.points) != n:
        raise InvalidArgumentError(
            f"points {points.shape}, axes {axes.shape} and shadow of {len(shadow.points)} points "
            f"do not match a graph of {n} rows"
        )


def _planes(out, points, axes):
    """The (6, N) coordinate planes of (N, 3) points and axes, stacked in ``out``."""
    np.copyto(out[:3], points.T)
    np.copyto(out[3:], axes.T)
    return out


def _new_array(name, shape, dtype=np.float64):
    """The allocator of a run without a lane: every array is new."""
    return np.empty(shape, dtype)


def _field_blocks(graph, valid):
    """The block runner of ``sipf_field`` and ``field_deviations``: selects the rows of the graph
    that ``valid`` keeps.  Returns ``valid`` as a boolean mask, or None when it keeps every row,
    and ``run(planes, shadow, mask, consume, alloc=None)``.

    ``run`` computes the kept rows of the field whose inputs are ``planes`` and ``shadow``, the
    (6, N) stacked coordinate planes of the points and primary axes and of the shadow points and
    axes, in blocks of ``_block_rows`` rows, and hands each block's component-major (8, m, k) field,
    in its lane's buffers, to ``consume(start, rows, idx, f)``: ``start`` numbers the block's first
    kept row, ``rows`` selects its rows of an (N, ...) array (a slice when every row is kept) and
    ``idx`` holds their neighbours.  Without ``alloc`` the blocks run on the two lanes of
    ``sipf.lanes.run_blocks``; with a lane's allocator ``alloc`` they run first to last in the
    calling thread, in that lane's buffers, as a step that already runs on a lane must: its own
    ``run_blocks`` call would queue its lane 1 behind itself on the one executor thread.  Each
    lane's arrays fit its longest block; a shorter block writes into their first part.

    pair(p_r, p_r') is computed once a run for every kept row, in the work array of ``alloc`` (a
    new one without it), and each block checks its rows of it.  Errors follow ``run_blocks``' rule:
    a run raises the first error of its lowest failing block.  Within a block the neighbour-pair
    check comes before the shadow checks, and the pair named is the block's first closest one in
    row-major order.  The block size depends only on the kept rows, so the error does not depend
    on the lanes or the host.  Under a floating-point error state that raises on underflow or
    overflow (``np.errstate``), such an error in the reference pairs (from a shadow offset or axis
    component below about 1e-154 or above 1e154) is raised before the first block runs.
    """
    idx = graph.indices
    n, k = idx.shape
    rows = np.arange(n)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != (n,):
            raise InvalidArgumentError(f"valid mask must have shape ({n},), got {valid.shape}")
        if valid.all():
            valid = None
        else:
            rows = rows[valid]
            idx = idx[rows]
    kept = len(rows)
    size = _block_rows(kept)
    # The work array holds a block's nine work planes or the reference pairs' d and products.
    work_size = max(9 * size * k, 6 * kept)

    def run(planes, shadow, mask, consume, alloc=None):
        call_alloc = alloc or _new_array
        own, own_shadow, ref = planes, shadow, None
        if valid is not None:
            own = np.take(planes, rows, axis=1, out=call_alloc("own", (6, kept)), mode="wrap")
            own_shadow = np.take(shadow, rows, axis=1, out=call_alloc("own_shadow", (6, kept)), mode="wrap")
        if mask != MASK_PPF:
            # In a lane, the reference pairs' d and products take the first part of its work array.
            work = (np.empty(6 * kept) if alloc is None else alloc("work", (work_size,)))[:6 * kept].reshape(6, kept)
            ref = _pair_rows(call_alloc("ref", (4, kept)), own[:3], own[3:], own_shadow[:3], own_shadow[3:],
                             work[:3], work[3:])

        def step(lane, alloc, start, stop):
            block, m = slice(start, stop), stop - start
            arrays = (alloc("work", (work_size,))[:9 * m * k].reshape(9, m, k),
                      alloc("f", (8 * size * k,))[:8 * m * k].reshape(8, m, k),
                      alloc("zero", (size * k,), bool)[:m * k].reshape(m, k))
            f = _field_rows(planes, own[:, block, None], own_shadow[:, block, None],
                            None if ref is None else ref[:, block, None], mask, rows[block], idx[block], arrays)
            consume(start, block if valid is None else rows[block], idx[block], f)

        if alloc is None:
            run_blocks(kept, size, step)
        else:
            for start in range(0, max(kept, 1), size):
                step(0, alloc, start, min(start + size, kept))

    return valid, run


def sipf_field(
    cloud: PointCloud,
    axes: np.ndarray,
    graph: NeighborGraph,
    shadow: ShadowCloud,
    mask: str = MASK_SIPF,
    valid: np.ndarray | None = None,
) -> np.ndarray:
    """All descriptor stacks at once as an (N, k, 8) array, from the (N, 3) primary ``axes``.

    ``mask`` selects the descriptor variant: the full 8-dim descriptor, the
    plain pair feature with a zeroed shadow block, or the direction-free
    variant that keeps only the difference norm in slot 4.  Reference rows
    flagged invalid in ``valid`` are skipped and left zero; their values must
    not be consumed.

    pair(p_r, p_r') is computed once per row and broadcast over its k neighbours, on (3, m, k)
    coordinate planes with (x0 y0 + x2 y2) + x1 y1 cosines: bitwise the per-edge formulas with
    ``np.linalg.norm`` norms and ``np.einsum`` cosines on (..., 3) rows; the tests check it.

    The kept rows run in ``_field_blocks``' equal blocks on the two lanes.
    Each block writes the transpose of its (8, m, k) field into its own rows
    of the output, so no bit depends on the blocks or the lanes.
    """
    if mask not in DESCRIPTOR_MASKS:
        raise InvalidArgumentError(f"unknown descriptor mask {mask!r}")
    axes = np.asarray(axes, dtype=np.float64)
    _check_rows(cloud.points, axes, graph, shadow)
    valid, run = _field_blocks(graph, valid)
    out = (np.empty if valid is None else np.zeros)((*graph.indices.shape, 8))

    def fill(start, rows, idx, f):
        out[rows] = f.transpose(1, 2, 0)

    n = len(graph)
    run(_planes(np.empty((6, n)), cloud.points, axes), _planes(np.empty((6, n)), shadow.points, shadow.axes),
        mask, fill)
    return out


def field_deviations(points, axes, graph: NeighborGraph, shadow: ShadowCloud, base, rotations,
                     valid=None, rotate_shadow=True) -> np.ndarray:
    """The (T,) largest deviations max |field - base| over the usable edges, one for each of the T
    joint rotations ``rotations``, (T, 3, 3).  Under the rotation m, field is the full descriptor
    field (``MASK_SIPF``) of ``points @ m`` with primary axes ``axes @ m``, both (N, 3), and of the
    shadow rotated by m too or, without ``rotate_shadow``, left as it is.

    ``base`` is an (N, k, 8) field with the same ``graph`` and ``valid``, such as ``sipf_field``'s
    of the unrotated inputs.  An edge is usable when ``valid`` keeps its reference point and its
    neighbour.

    The trials are the lanes' units: trial t is block [t, t + 1) of one ``run_blocks`` call, and
    it runs the field's blocks first to last in its lane's buffers, so each lane makes its arrays
    once a call.  Each block reduces its field to one maximum, so no (N, k, 8) field is made; a
    maximum is exact, so a result does not depend on the blocks or the lanes, and a NaN deviation
    on a usable edge gives NaN.  Of the trials that fail, the lowest one's error is raised.
    """
    points = np.asarray(points, dtype=np.float64)
    axes = np.asarray(axes, dtype=np.float64)
    base = np.asarray(base, dtype=np.float64)
    rotations = np.asarray(rotations, dtype=np.float64)
    if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
        raise InvalidArgumentError(f"rotations must be (T, 3, 3), got {rotations.shape}")
    if base.shape != (*graph.indices.shape, 8):
        raise InvalidArgumentError(f"base field must be {(*graph.indices.shape, 8)}, got {base.shape}")
    _check_rows(points, axes, graph, shadow)
    valid, run = _field_blocks(graph, valid)
    n = len(graph)
    unrotated = None if rotate_shadow else _planes(np.empty((6, n)), shadow.points, shadow.axes)
    out = np.empty(len(rotations))

    def trial(lane, alloc, t, stop):
        m = rotations[t]
        planes = _planes(alloc("planes", (6, n)), points @ m, axes @ m)
        if unrotated is None:
            shadow_planes = _planes(alloc("shadow_planes", (6, n)), shadow.points @ m, shadow.axes @ m)
        else:
            shadow_planes = unrotated
        maxima = []

        def reduce(start, rows, idx, f):
            dev = np.abs(np.subtract(f, base[rows].transpose(2, 0, 1), out=f), out=f)
            if valid is not None:
                np.copyto(dev, 0.0, where=~valid[idx])  # edges to a dropped neighbour; deviations are >= 0
            maxima.append(np.maximum.reduce(dev, axis=None, initial=0.0))

        run(planes, shadow_planes, MASK_SIPF, reduce, alloc)
        # np.max keeps a NaN, where a comparison with NaN would drop it.
        out[t] = np.max(maxima)

    if len(rotations):
        run_blocks(len(rotations), 1, trial)
    return out


def _row_dot(a, b):
    """Dot products over the last axis, each a stacked (1 x 3) @ (3 x 1) matmul.  Its bits equal a
    1-D ``a @ b``'s on some OpenBLAS cores only: under ``OPENBLAS_CORETYPE=Prescott`` some rows
    differ from that one-point form in the last bit."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def detect_axis_alignment(p_r, axis_r, shadow_point, shadow_axis) -> np.ndarray:
    """(N,) scores in [0, 1] for the shadow-on-primary-axis degeneracy of N points.

    Product of |cos| between the shadow displacement and the primary axis and
    |cos| between the two primary axes; 1 means fully degenerate.  Takes (N, 3)
    positions and primary axes.
    """
    p_r, axis_r, shadow_point, shadow_axis = (
        np.asarray(a, dtype=np.float64) for a in (p_r, axis_r, shadow_point, shadow_axis)
    )
    if not (p_r.ndim == 2 and p_r.shape[1:] == (3,) and p_r.shape == axis_r.shape == shadow_point.shape
            == shadow_axis.shape):
        raise InvalidInputError(
            f"points {p_r.shape} and {shadow_point.shape} and axes {axis_r.shape} and {shadow_axis.shape} "
            "must all be (N, 3)"
        )
    d = shadow_point - p_r
    norm = np.sqrt(_row_dot(d, d))
    if np.any(norm < COINCIDENT_DISTANCE_FLOOR):
        raise CoincidentPointError("shadow coincides with the point")
    c_disp = np.minimum(1.0, np.abs(_row_dot(axis_r, d)) / norm)
    c_axes = np.minimum(1.0, np.abs(_row_dot(axis_r, shadow_axis)))
    return c_disp * c_axes


def detect_local_coincidence(r_g: Rotation3, r_j: Rotation3) -> float:
    """Geodesic distance in radians between the two rotations; 0 flags coincidence."""
    rel = r_g.matrix.T @ r_j.matrix
    cos_angle = (np.trace(rel) - 1.0) / 2.0
    return float(np.arccos(np.clip(cos_angle, -1.0, 1.0)))
