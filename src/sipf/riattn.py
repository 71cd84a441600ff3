"""Attention-based rotation-invariant convolution layer.

One layer, for reference point r with neighbor stack P_r (k x 8) and
neighbor features X_r (k x c_in):

    W_r       = kernel_mlp(P_r)                    (k x c_in)
    scores    = W_r X_r^T / sqrt(c_in)             (k x k, row-softmaxed)
    V         = W_r * X_r                          (elementwise)
    attn_out  = softmax(scores) V                  (k x c_in)
    x_hat     = columnwise max over the k rows     (c_in)
    out       = fuse((x_hat - x_r) ++ x_r)         (c_out)

The elementwise product in V is the only dimensionally consistent reading of
applying per-neighbor kernel weights to per-neighbor features.  The kernel
MLP is two affine maps around a leaky rectifier (slope 0.01), hidden width
c_in; the fusion map is a single affine layer.

``backward`` provides exact reverse-mode gradients for all parameters and
the input features.  Forward records only x_hat; ``backward`` routes the
max's gradient to the slot whose attention output equals it, the lowest slot
on an exact tie (the rule of ``argmax``).

Memory: ``layer_forward`` runs the reference rows in blocks of
``_CHUNK_ROWS`` and keeps only per-point arrays plus the last block's
per-edge intermediates, so the activation record is O(N c + _CHUNK_ROWS k^2)
and never holds the (N, k, k) attention block.  ``backward`` recomputes every
other block from the recorded inputs.  Every forward quantity is computed
row by row, so the output does not depend on the block size wherever BLAS
rounds a product row independently of the rows around it.

A call over several blocks runs them on the two lanes of ``sipf.lanes``; a
single-block call runs inline.  Forward output and the parameter gradients
are bitwise those of a single-lane loop: lanes write disjoint ``x_hat`` rows,
and ``backward`` keeps each block's kernel-MLP gradients and adds them up
last block first.  ``d_x`` adds one neighbour-gradient sum per lane, the
last block's lane first, so it differs from a single-lane sum by rounding
only, and repeats bitwise.

Layout: a block's per-edge arrays are slot-major, (k, m, .), so every
reduction over the k slots is one leading-axis vector operation; the batched
products write through (m, k, .) views that BLAS takes without a copy.  The
softmax takes one max over the slots, which is both its shift and the
non-finite check (a NaN or +inf score reaches it), scales by 1/sqrt(c_in)
after the shift, and divides by one leading-axis sum that adds the k slots
in slot order, 0 first.  The max misses a -inf score, which makes x_hat
non-finite: ``layer_forward`` checks x_hat, above a bad score first.

Buffers: within one call, each lane's blocks write their intermediates and
``backward``'s temporaries into the arrays the lane's block before used,
instead of allocating (and page-faulting) anew.  The calling thread
allocates both lanes' arrays, its own lane's as its blocks first use them
and lane 1's before handing it over, so the executor thread's malloc arena
holds none of them between calls.  A call shares no buffer with another.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .lanes import _buffers, _lanes, _run_lanes

__all__ = [
    "LEAKY_SLOPE",
    "RIAttnLayer",
    "LayerActivation",
    "layer_forward",
    "backward",
    "total_loss",
    "total_loss_gradients",
]

LEAKY_SLOPE = 0.01
_LOSS_SMOOTHING = 1e-12


@dataclass
class RIAttnLayer:
    """Learnable state: kernel MLP (8 -> c_in) and fusion map (2 c_in -> c_out)."""

    c_in: int
    c_out: int
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    fuse_w: np.ndarray
    fuse_b: np.ndarray

    def _shapes(self) -> dict[str, tuple]:
        """Parameter names, in the order :meth:`parameters` lists them, and their shapes."""
        h = self.mlp_w1.shape[1]
        return {
            "mlp_w1": (8, h),
            "mlp_b1": (h,),
            "mlp_w2": (h, self.c_in),
            "mlp_b2": (self.c_in,),
            "fuse_w": (2 * self.c_in, self.c_out),
            "fuse_b": (self.c_out,),
        }

    def __post_init__(self):
        for name, shape in self._shapes().items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise InvalidArgumentError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise InvalidArgumentError(f"{name} contains non-finite values")
            setattr(self, name, arr)

    @classmethod
    def init(cls, c_in: int, c_out: int, rng: np.random.Generator) -> "RIAttnLayer":
        """Gaussian init scaled by 1/sqrt(fan-in); hidden width equals c_in."""
        h = c_in
        return cls(
            c_in=c_in,
            c_out=c_out,
            mlp_w1=rng.standard_normal((8, h)) / np.sqrt(8.0),
            mlp_b1=np.zeros(h),
            mlp_w2=rng.standard_normal((h, c_in)) / np.sqrt(h),
            mlp_b2=np.zeros(c_in),
            fuse_w=rng.standard_normal((2 * c_in, c_out)) / np.sqrt(2.0 * c_in),
            fuse_b=np.zeros(c_out),
        )

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._shapes()}


# Reference rows per block.  Forward holds one block's per-edge intermediates
# at a time; backward reuses the last block and recomputes the others.
_CHUNK_ROWS = 128


@dataclass
class _Block:
    """Per-edge intermediates of the m reference rows from ``start`` on, slot-major."""

    start: int
    pose_stack: np.ndarray        # (k, m, 8) the rows' pose stacks
    neighbor_features: np.ndarray  # (k, m, c_in)
    mlp_hidden: np.ndarray        # (k, m, h) after the leaky rectifier
    kernel: np.ndarray            # (k, m, c_in) kernel weights W_r
    attention: np.ndarray         # (k, m, k): [j, r, i] is row r's weight of slot j in output slot i
    values: np.ndarray            # (k, m, c_in) elementwise W_r * X_r
    attn_out: np.ndarray          # (k, m, c_in)


@dataclass
class LayerActivation:
    """What the backward pass needs: per-point arrays plus the last block's intermediates.
    Backward recomputes blocks from the caller's arrays: they must not change in between."""

    pose_stack: np.ndarray        # (N, k, 8) the caller's pose field, not a copy
    features: np.ndarray          # (N, c_in) reference features, the caller's array if float64
    neighbor_idx: np.ndarray      # (N, k), the caller's array if int64, range-checked again by backward
    aggregated: np.ndarray        # (N, c_in) x_hat
    fused_input: np.ndarray       # (N, 2 c_in)
    output: np.ndarray            # (N, c_out)
    last_block: _Block = field(repr=False)


def _worker_arrays(layer: RIAttnLayer, k: int, m: int, backward: bool):
    """What a worker-lane block of m rows asks its allocator for, in ``_attend`` and, if
    ``backward``, in backward's block step: the caller allocates it, so the worker allocates none."""
    c, h = layer.c_in, layer.mlp_w1.shape[1]
    e = 2 if k * m == 1 else k * m  # kernel-MLP rows: a one-edge block runs as two copies
    f = np.float64
    arrays = [
        ("xn", (k, m, c), f), ("pose", (k, m, 8), f), ("hidden", (e, h), f), ("slope", (e, h), f),
        ("kernel", (e, c), f), ("attention", (k, m, k), f), ("values", (k, m, c), f), ("attn_out", (k, m, c), f),
    ]
    if backward:
        arrays += [
            ("d_attn_out", (k, m, c), f), ("d_values", (k, m, c), f), ("d_scores", (k, m, k), f),
            ("d_kernel", (k, m, c), f), ("d_xn", (k, m, c), f), ("d_pre", (k * m, h), f), ("bins", (k, m, c), np.int64),
        ]
    return arrays


def _lane_allocators(layer, k, lanes, backward):
    """Lane 0's allocator, filled by this thread as it runs, and lane 1's, filled now for its blocks."""
    return [_buffers(), _buffers(_worker_arrays(layer, k, _CHUNK_ROWS, backward) if lanes[1] else ())]


def _check_neighbors(idx, n):
    """Raise unless every neighbor index lies in [0, n): the blocks gather with mode "clip"."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgumentError(f"neighbor_idx entries must lie in [0, {n})")


def _rows(a):
    """(k, m, .) -> (m, k, .) view: one matrix per reference row for the batched products."""
    return a.transpose(1, 0, 2)


class _BadScores(NumericError):
    """Non-finite attention scores, first at reference row ``row``."""
    def __init__(self, row):
        super().__init__(f"non-finite attention scores at reference row {row}")
        self.row = row


def _attend(layer: RIAttnLayer, p, x, idx, start: int, stop: int, alloc) -> _Block:
    """Kernel MLP, attention and values of the reference rows [start, stop), in arrays from ``alloc``."""
    nbrs = idx[start:stop].T
    k, m = nbrs.shape
    c, h = layer.c_in, layer.mlp_w1.shape[1]
    # The callers range-check the indices; mode "clip" lets take write into out unbuffered.
    xn = np.take(x, nbrs, axis=0, out=alloc("xn", (k, m, c)), mode="clip")
    pose = alloc("pose", (k, m, 8))
    np.copyto(pose, _rows(p[start:stop]))
    # Kernel MLP as flat GEMMs over all (slot, reference) rows, biases added in place.
    # numpy sends a one-row product to gemv, which rounds unlike gemm, so a
    # block of one edge runs as two copies of it and takes the route of the others.
    flat = pose.reshape(-1, 8)
    if len(flat) == 1:
        flat = np.repeat(flat, 2, axis=0)
    hidden = np.matmul(flat, layer.mlp_w1, out=alloc("hidden", (len(flat), h)))
    hidden += layer.mlp_b1
    # Leaky rectifier in place, max(x, slope x); a unit is positive after it exactly where it was before.
    np.maximum(hidden, np.multiply(hidden, LEAKY_SLOPE, out=alloc("slope", hidden.shape)), out=hidden)
    kernel = np.matmul(hidden, layer.mlp_w2, out=alloc("kernel", (len(flat), c)))
    kernel += layer.mlp_b2
    hidden = hidden[: m * k].reshape(k, m, h)
    kernel = kernel[: m * k].reshape(k, m, c)
    # Attention, batched over reference rows, written through views of slot-major buffers.
    scores = alloc("attention", (k, m, k))
    np.matmul(_rows(xn), kernel.transpose(1, 2, 0), out=_rows(scores))
    # Softmax over the slots j, in place.  The slot max is both the shift and the
    # non-finite check: a NaN or +inf score reaches it.
    shift = scores.max(axis=0)
    if not np.isfinite(shift).all():
        raise _BadScores(start + int(np.nonzero(~np.isfinite(shift).all(axis=1))[0][0]))
    scores -= shift
    scores *= 1.0 / np.sqrt(c)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=0)
    values = np.multiply(kernel, xn, out=alloc("values", (k, m, c)))
    attn_out = alloc("attn_out", (k, m, c))
    np.matmul(scores.transpose(1, 2, 0), _rows(values), out=_rows(attn_out))
    return _Block(start, pose, xn, hidden, kernel, scores, values, attn_out)


def layer_forward(
    layer: RIAttnLayer,
    pose_field: np.ndarray,
    features: np.ndarray,
    neighbor_idx: np.ndarray,
) -> tuple[np.ndarray, LayerActivation]:
    """Full layer over all reference points; returns output and the activation record."""
    p = np.asarray(pose_field, dtype=np.float64)
    x = np.asarray(features, dtype=np.float64)
    idx = np.asarray(neighbor_idx, dtype=np.int64)
    n, k, d = p.shape
    if d != 8:
        raise InvalidArgumentError(f"pose field last dim must be 8, got {d}")
    if x.shape != (n, layer.c_in):
        raise InvalidArgumentError(f"features must be ({n}, {layer.c_in}), got {x.shape}")
    if idx.shape != (n, k):
        raise InvalidArgumentError(f"neighbor_idx must be ({n}, {k}), got {idx.shape}")
    _check_neighbors(idx, n)
    x_hat = np.empty((n, layer.c_in))
    blocks = [(start, min(start + _CHUNK_ROWS, n)) for start in range(0, max(n, 1), _CHUNK_ROWS)]
    # Each lane runs its blocks first to last, so the last block, lane 0's, goes into the record.
    lanes = [lane[::-1] for lane in _lanes(blocks)]
    allocs = _lane_allocators(layer, k, lanes, backward=False)
    kept = []

    def aggregate(lane, start, stop):
        block = _attend(layer, p, x, idx, start, stop, allocs[lane])
        np.max(block.attn_out, axis=0, out=x_hat[start:stop])
        # A -inf score beside finite ones passes the slot max; its value reaches x_hat as 0 * inf.
        finite = np.isfinite(x_hat[start:stop]).all(axis=1)
        if not finite.all():
            raise NumericError(f"non-finite aggregated features at reference row {start + int(np.argmin(finite))}")
        if stop == n:
            kept.append(block)

    def step(lane, start, stop):
        try:
            aggregate(lane, start, stop)
        except _BadScores as exc:
            # A -inf score above the first bad one shows only in x_hat: check those rows first.
            if exc.row > start:
                aggregate(lane, start, exc.row)
            raise

    _run_lanes(lanes, step)
    fused_input = np.concatenate([x_hat - x, x], axis=1)
    out = fused_input @ layer.fuse_w + layer.fuse_b
    act = LayerActivation(
        pose_stack=p,
        features=x,
        neighbor_idx=idx,
        aggregated=x_hat,
        fused_input=fused_input,
        output=out,
        last_block=kept[0],
    )
    return out, act


def backward(
    layer: RIAttnLayer, d_output: np.ndarray, act: LayerActivation
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Parameter gradients, keyed like ``layer.parameters()``, and input-feature
    gradients for one recorded pass.

    Each lane runs its blocks last to first: the recorded last block is
    reused, and every other block is recomputed by the function forward ran,
    so its intermediates are bitwise those of forward.  The max aggregation
    routes gradient to the slot whose attention output equals x_hat, the
    lowest slot on an exact tie.  Each block's kernel-MLP gradients are kept
    and added up last block first, so they do not depend on the lanes.  The
    feature gradient sums, for each point, the neighbor-row gradients of
    every reference row that lists it as a neighbor: per block, one
    ``np.bincount`` over (point, channel) bins with the edges in slot-major
    (slot, reference) order.  Each lane adds its block sums into its own
    vector, last block first, and the lanes' vectors are added onto the
    point's own fused-map gradient, lane 0's first.  The summation order is
    fixed by the neighbor graph and the block size alone, so the result is
    bitwise repeatable across runs and CPU counts.
    """
    d_out = np.asarray(d_output, dtype=np.float64)
    n, c = act.features.shape
    if d_out.shape != act.output.shape:
        raise InvalidArgumentError(f"d_output shape {d_out.shape} != output {act.output.shape}")
    _check_neighbors(act.neighbor_idx, n)
    g_fuse_w = act.fused_input.T @ d_out
    g_fuse_b = d_out.sum(axis=0)
    d_fused = d_out @ layer.fuse_w.T
    d_xhat = d_fused[:, :c]
    d_x = d_fused[:, c:] - d_xhat
    h = layer.mlp_w1.shape[1]
    scale = 1.0 / np.sqrt(c)
    last = act.last_block
    blocks = [(start, min(start + _CHUNK_ROWS, last.start)) for start in range(0, last.start, _CHUNK_ROWS)]
    lanes = _lanes([*blocks, (last.start, n)])
    allocs = _lane_allocators(layer, act.neighbor_idx.shape[1], lanes, backward=True)
    # Neighbor-row gradients summed per (point, channel) bin, one vector per lane.
    d_nbr = [np.zeros(n * c) for lane in lanes if lane]
    block_grads = {}

    def step(lane, start, stop):
        scratch = allocs[lane]
        if start == last.start:
            blk = last
        else:
            blk = _attend(layer, act.pose_stack, act.features, act.neighbor_idx, start, stop, scratch)
        k, m = blk.attn_out.shape[:2]
        rows = slice(start, stop)
        # The max's subgradient: d_x_hat goes to the slot holding x_hat; more
        # hits than (row, channel) pairs means an exact tie, kept at its lowest slot.
        d_attn_out = np.equal(blk.attn_out, act.aggregated[rows], out=scratch("d_attn_out", (k, m, c)))
        if np.count_nonzero(d_attn_out) > m * c:
            d_attn_out[1:] *= ~np.logical_or.accumulate(d_attn_out, axis=0)[:-1]
        d_attn_out *= d_xhat[rows]
        d_values = scratch("d_values", (k, m, c))
        np.matmul(_rows(blk.attention), _rows(d_attn_out), out=_rows(d_values))
        # Softmax backward, in place: d_scores = (d_attn - <d_attn, attn>) * attn, then scaled.
        # <d_attn, attn> over the slots j is <d_attn_out, attn_out> over the channels, and
        # d_attn_out is nonzero only where attn_out equals x_hat.
        d_scores = scratch("d_scores", (k, m, k))
        np.matmul(_rows(blk.values), d_attn_out.transpose(1, 2, 0), out=_rows(d_scores))
        d_scores -= np.matmul(_rows(d_attn_out), act.aggregated[rows, :, None])[..., 0]
        d_scores *= blk.attention
        d_scores *= scale
        # Kernel and neighbour-feature gradients: the score path's product plus the values path.
        d_kernel = scratch("d_kernel", (k, m, c))
        np.matmul(d_scores.transpose(1, 2, 0), _rows(blk.neighbor_features), out=_rows(d_kernel))
        d_xn = scratch("d_xn", (k, m, c))
        np.matmul(_rows(d_scores), _rows(blk.kernel), out=_rows(d_xn))
        d_kernel += np.multiply(d_values, blk.neighbor_features, out=d_attn_out)
        d_xn += np.multiply(d_values, blk.kernel, out=d_values)
        d_kernel = d_kernel.reshape(-1, c)
        d_pre = np.matmul(d_kernel, layer.mlp_w2.T, out=scratch("d_pre", (k * m, h)))
        # Leaky-rectifier derivative as mask arithmetic: 1 where the unit is positive, else the slope.
        d_pre *= np.maximum(blk.mlp_hidden.reshape(d_pre.shape) > 0.0, LEAKY_SLOPE)
        # Bias gradients sum over the slots first, one leading-axis pass, then over the rows.
        block_grads[start] = {
            "mlp_w1": blk.pose_stack.reshape(-1, 8).T @ d_pre,
            "mlp_b1": d_pre.reshape(blk.mlp_hidden.shape).sum(axis=0).sum(axis=0),
            "mlp_w2": blk.mlp_hidden.reshape(d_pre.shape).T @ d_kernel,
            "mlp_b2": d_kernel.reshape(blk.kernel.shape).sum(axis=0).sum(axis=0),
        }
        bins = scratch("bins", (k, m, c), np.int64)
        np.add(act.neighbor_idx[rows].T[:, :, None] * c, np.arange(c), out=bins)
        d_nbr[lane] += np.bincount(bins.ravel(), weights=d_xn.ravel(), minlength=n * c)

    _run_lanes(lanes, step)
    grads = {}
    for start in sorted(block_grads, reverse=True):
        grads = {name: grads[name] + g if grads else g for name, g in block_grads[start].items()}
    for lane_sum in d_nbr:
        d_x += lane_sum.reshape(n, c)
    grads["fuse_w"] = g_fuse_w
    grads["fuse_b"] = g_fuse_b
    return grads, d_x


def total_loss(task_loss: float, bingham_loss: float, delta: float) -> float:
    """task + delta * |bingham - 0.1 task|, with a 1e-12 smoothing under the root."""
    if delta < 0:
        raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
    resid = bingham_loss - 0.1 * task_loss
    return float(task_loss + delta * np.sqrt(resid * resid + _LOSS_SMOOTHING))


def total_loss_gradients(task_loss: float, bingham_loss: float, delta: float):
    """(d total / d task, d total / d bingham) of the smoothed absolute penalty."""
    if delta < 0:
        raise InvalidArgumentError(f"delta must be >= 0, got {delta}")
    resid = bingham_loss - 0.1 * task_loss
    root = np.sqrt(resid * resid + _LOSS_SMOOTHING)
    return float(1.0 - 0.1 * delta * resid / root), float(delta * resid / root)
