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

``backward`` provides exact reverse-mode gradients for all parameters and,
unless called with ``input_grad=False``, the input features; without them a
block skips the neighbour-feature products and the binning, and the
parameter gradients keep their bits.  A stack's first layer needs no input
gradient.  Forward records only x_hat; ``backward`` marks, in a bool mask,
the slots whose attention output equals it, keeps the lowest slot of an
exact tie (the rule of ``argmax``), and routes the max's gradient as the
mask times d_x_hat, so a slot off the max holds 0.0 * d_x_hat, -0.0 where
that is negative.

Memory: ``layer_forward`` runs the reference rows in blocks of
``_CHUNK_ROWS`` and keeps only per-point arrays plus the last block's
per-edge intermediates, so the activation record is O(N c + _CHUNK_ROWS k^2)
and never holds the (N, k, k) attention block.  ``backward`` recomputes every
other block from the recorded inputs.  Every forward quantity is computed
row by row, so the output does not depend on the block size wherever BLAS
rounds a product row independently of the rows around it.

Forward and backward run their blocks with ``sipf.lanes.run_blocks`` (blocks,
lanes and lane buffers are described there); each lane makes its block arrays
on its own thread, as its first block asks for them.  Forward output and the
parameter gradients are bitwise those of a single-lane loop: lanes write
disjoint ``x_hat`` rows, and ``backward`` keeps each block's kernel-MLP
gradients and adds them up last block first.  ``d_x`` adds one
neighbour-gradient sum per lane, the last block's lane first, so it differs
from a single-lane sum by rounding only, and repeats bitwise.

Layout: a block's per-edge arrays are slot-major, (k, m, .), so every
reduction over the k slots is one leading-axis vector operation; the batched
products write through (m, k, .) views that BLAS takes without a copy.  The
softmax takes one max over the slots, which is both its shift and the
non-finite check (a NaN or +inf score reaches it), scales by 1/sqrt(c_in)
after the shift, and divides by one leading-axis sum that adds the k slots
in slot order, 0 first.  The max misses a -inf score, which makes x_hat
non-finite, so ``layer_forward`` checks each block's x_hat too.  The block
code keeps ``sipf.lanes``' per-block rule: the max and sum reductions are
ufunc reduces with ``out=``, each finite check is ``np.isfinite`` into a
lane's bool buffer and one ``logical_and`` reduce, and the failing row is
searched for only after a check fails.

Errors: a failing forward raises the first error of its lowest failing block,
``run_blocks``' rule.  A block checks its scores before its x_hat, so a NaN
score row is named before a -inf row above it in the same block; the block
size is a constant, so the error does not depend on the lanes or the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericError
from .lanes import run_blocks

__all__ = [
    "LEAKY_SLOPE",
    "RIAttnLayer",
    "LayerActivation",
    "layer_forward",
    "backward",
]

LEAKY_SLOPE = 0.01


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
    last_block: _Block = field(repr=False)


def _check_neighbors(idx, n):
    """Raise unless every neighbor index lies in [0, n): the blocks gather with mode "clip"."""
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgumentError(f"neighbor_idx entries must lie in [0, {n})")


def _rows(a):
    """(k, m, .) -> (m, k, .) view: one matrix per reference row for the batched products."""
    return a.transpose(1, 0, 2)


def _fused_input(x_hat, x):
    """The fusion map's (N, 2 c_in) input (x_hat - x) ++ x; ``backward`` rebuilds forward's bits."""
    return np.concatenate([x_hat - x, x], axis=1)


def _finite(a, alloc, k, c):
    """``np.isfinite`` of a block's (m, k) slot maxima or (m, c) x_hat rows ``a``, in the first
    entries of the lane's bool buffer of m max(k, c) entries, which forward's two checks share.
    The mask is contiguous: numpy 2.4's ``isfinite`` leaves most of a strided bool ``out``
    unwritten (seen on an AVX-512 x86-64 host)."""
    mask = alloc("finite", (len(a) * max(k, c),), bool)
    return np.isfinite(a, out=mask[: a.size].reshape(a.shape))


def _first_bad_row(finite):
    """The first row of an (m, .) bool mask that holds a False: the error path's row search."""
    return int(np.argmin(np.logical_and.reduce(finite, axis=1)))


def _attend(layer: RIAttnLayer, p, x, idx, start: int, stop: int, alloc) -> _Block:
    """Kernel MLP, attention and values of the reference rows [start, stop), in arrays from ``alloc``."""
    nbrs = idx[start:stop].T
    k, m = nbrs.shape
    c, h = layer.c_in, layer.mlp_w1.shape[1]
    # The callers range-check the indices; mode "clip" lets take write into out unbuffered.
    xn = x.take(nbrs, axis=0, out=alloc("xn", (k, m, c)), mode="clip")
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
    # non-finite check: a NaN or +inf score reaches it.  Its buffer then takes the sum.
    shift = np.maximum.reduce(scores, axis=0, out=alloc("shift", (m, k)))
    finite = _finite(shift, alloc, k, c)
    if not np.logical_and.reduce(finite, axis=None):
        raise NumericError(f"non-finite attention scores at reference row {start + _first_bad_row(finite)}")
    scores -= shift
    scores *= 1.0 / math.sqrt(c)
    np.exp(scores, out=scores)
    scores /= np.add.reduce(scores, axis=0, out=shift)
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
    kept = []

    def aggregate(lane, alloc, start, stop):
        block = _attend(layer, p, x, idx, start, stop, alloc)
        rows = np.maximum.reduce(block.attn_out, axis=0, out=x_hat[start:stop])
        # A -inf score beside finite ones passes the slot max; its value reaches x_hat as 0 * inf.
        finite = _finite(rows, alloc, k, layer.c_in)
        if not np.logical_and.reduce(finite, axis=None):
            raise NumericError(f"non-finite aggregated features at reference row {start + _first_bad_row(finite)}")
        if stop == n:
            kept.append(block)

    # Each lane runs its blocks first to last, so the last block's arrays, lane 0's, survive
    # in its buffers for the record.
    run_blocks(n, _CHUNK_ROWS, aggregate)
    out = _fused_input(x_hat, x) @ layer.fuse_w + layer.fuse_b
    act = LayerActivation(
        pose_stack=p,
        features=x,
        neighbor_idx=idx,
        aggregated=x_hat,
        last_block=kept[0],
    )
    return out, act


def backward(
    layer: RIAttnLayer, d_output: np.ndarray, act: LayerActivation, *, input_grad: bool = True
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """Parameter gradients, keyed like ``layer.parameters()``, and input-feature
    gradients for one recorded pass, or ``None`` for them with ``input_grad=False``.

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
    bitwise repeatable across runs and CPU counts.  Without ``input_grad``
    the blocks skip the neighbour-feature products and the binning, and the
    parameter gradients keep their bits.
    """
    d_out = np.asarray(d_output, dtype=np.float64)
    n, c = act.features.shape
    if d_out.shape != (n, layer.c_out):
        raise InvalidArgumentError(f"d_output shape {d_out.shape} != output {(n, layer.c_out)}")
    _check_neighbors(act.neighbor_idx, n)
    g_fuse_w = _fused_input(act.aggregated, act.features).T @ d_out
    g_fuse_b = d_out.sum(axis=0)
    d_fused = d_out @ layer.fuse_w.T
    # Contiguous, for the blocks' products with their masks.
    d_xhat = d_fused[:, :c].copy()
    h = layer.mlp_w1.shape[1]
    scale = 1.0 / math.sqrt(c)
    last = act.last_block
    channels = np.arange(c)
    # Neighbor-row gradients summed per (point, channel) bin, one vector per lane that runs:
    # adding a lane's all-zero vector would turn a -0.0 of d_x into +0.0.
    d_nbr = {}
    block_grads = {}

    def step(lane, scratch, start, stop):
        if start == last.start:
            blk = last
        else:
            blk = _attend(layer, act.pose_stack, act.features, act.neighbor_idx, start, stop, scratch)
        k, m = blk.attn_out.shape[:2]
        rows = slice(start, stop)
        x_hat = act.aggregated[rows]
        # The max's subgradient: d_x_hat goes to the slot holding x_hat, marked in a bool mask;
        # more hits than (row, channel) pairs means an exact tie, kept at its lowest slot.
        hit = np.equal(blk.attn_out, x_hat, out=scratch("hit", (k, m, c), bool))
        if np.count_nonzero(hit) > m * c:
            hit[1:] &= ~np.logical_or.accumulate(hit, axis=0)[:-1]
        # The mask, as 1.0 and 0.0, times d_x_hat: a slot off the max holds 0.0 * d_x_hat.
        d_attn_out = scratch("d_attn_out", (k, m, c))
        np.copyto(d_attn_out, hit)
        d_attn_out *= d_xhat[rows]
        d_values = scratch("d_values", (k, m, c))
        np.matmul(_rows(blk.attention), _rows(d_attn_out), out=_rows(d_values))
        # Softmax backward, in place: d_scores = (d_attn - <d_attn, attn>) * attn, then scaled.
        # <d_attn, attn> over the slots j is <d_attn_out, attn_out> over the channels, and
        # d_attn_out is nonzero only where attn_out equals x_hat.  This row dot goes into the
        # buffer of the softmax's shift, which a recomputed block no longer needs.
        d_scores = scratch("d_scores", (k, m, k))
        np.matmul(_rows(blk.values), d_attn_out.transpose(1, 2, 0), out=_rows(d_scores))
        rowdot = scratch("shift", (m, k))
        np.matmul(_rows(d_attn_out), x_hat[:, :, None], out=rowdot[:, :, None])
        d_scores -= rowdot
        d_scores *= blk.attention
        d_scores *= scale
        # Kernel gradient: the score path's product plus the values path, whose product
        # goes into the spent d_attn_out buffer.
        d_kernel = scratch("d_kernel", (k, m, c))
        np.matmul(d_scores.transpose(1, 2, 0), _rows(blk.neighbor_features), out=_rows(d_kernel))
        d_kernel += np.multiply(d_values, blk.neighbor_features, out=d_attn_out)
        flat_kernel = d_kernel.reshape(-1, c)
        d_pre = np.matmul(flat_kernel, layer.mlp_w2.T, out=scratch("d_pre", (k * m, h)))
        # Leaky-rectifier derivative as mask arithmetic: 1 where the unit is positive, else the slope.
        flat_hidden = blk.mlp_hidden.reshape(d_pre.shape)
        leak = np.greater(flat_hidden, 0.0, out=scratch("slope", d_pre.shape))
        d_pre *= np.maximum(leak, LEAKY_SLOPE, out=leak)
        # Bias gradients sum over the slots first, one leading-axis pass into a spent buffer,
        # then over the rows.
        block_grads[start] = {
            "mlp_w1": blk.pose_stack.reshape(-1, 8).T @ d_pre,
            "mlp_b1": np.add.reduce(np.add.reduce(d_pre.reshape(k, m, h), axis=0, out=leak[:m]), axis=0),
            "mlp_w2": flat_hidden.T @ flat_kernel,
            "mlp_b2": np.add.reduce(np.add.reduce(d_kernel, axis=0, out=d_attn_out[0]), axis=0),
        }
        if not input_grad:
            return
        # Neighbour-feature gradient: the score path's product plus the values path, binned.
        d_xn = scratch("d_xn", (k, m, c))
        np.matmul(_rows(d_scores), _rows(blk.kernel), out=_rows(d_xn))
        d_xn += np.multiply(d_values, blk.kernel, out=d_values)
        # Point i's channel bins are i c .. i c + c - 1; the spent d_kernel buffer, read as
        # int64, holds the edges' bins.
        bins = np.add(act.neighbor_idx[rows].T[:, :, None] * c, channels, out=d_kernel.view(np.int64))
        # A bincount holds no -0.0, so a lane's first block sum starts its vector with the bits
        # of zeros plus that sum.
        sums = np.bincount(bins.ravel(), weights=d_xn.ravel(), minlength=n * c)
        if lane in d_nbr:
            d_nbr[lane] += sums
        else:
            d_nbr[lane] = sums

    run_blocks(n, _CHUNK_ROWS, step, last_first=True)
    grads = {}
    for start in sorted(block_grads, reverse=True):
        grads = {name: grads[name] + g if grads else g for name, g in block_grads[start].items()}
    grads["fuse_w"] = g_fuse_w
    grads["fuse_b"] = g_fuse_b
    if not input_grad:
        return grads, None
    d_x = d_fused[:, c:] - d_xhat
    for lane in sorted(d_nbr):
        d_x += d_nbr[lane].reshape(n, c)
    return grads, d_x
