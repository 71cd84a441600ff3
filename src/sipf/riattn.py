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

Layout: a block's per-edge arrays are slot-major, (k, m, .), so every
reduction over the k slots is one leading-axis vector operation; the batched
products write through (m, k, .) views that BLAS takes without a copy.  The
softmax sum adds in numpy's pairwise order, so scores and softmax keep the
bits of a row-major layout; attention times values may round differently,
as BLAS runs it on the transposed attention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericError

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
    mlp_pre: np.ndarray           # (k, m, h) pre-activation of the hidden layer
    mlp_hidden: np.ndarray        # (k, m, h)
    kernel: np.ndarray            # (k, m, c_in) kernel weights W_r
    attention: np.ndarray         # (k, m, k): [j, r, i] is row r's weight of slot j in output slot i
    values: np.ndarray            # (k, m, c_in) elementwise W_r * X_r
    attn_out: np.ndarray          # (k, m, c_in)


@dataclass
class LayerActivation:
    """What the backward pass needs: per-point arrays plus the last block's intermediates."""

    pose_stack: np.ndarray        # (N, k, 8) the caller's pose field, not a copy
    features: np.ndarray          # (N, c_in) reference features
    neighbor_idx: np.ndarray      # (N, k)
    aggregated: np.ndarray        # (N, c_in) x_hat
    fused_input: np.ndarray       # (N, 2 c_in)
    output: np.ndarray            # (N, c_out)
    last_block: _Block = field(repr=False)


def _leaky(x):
    # Equal bit for bit to where(x > 0, x, slope * x), signed zeros and NaN included.
    return np.maximum(x, LEAKY_SLOPE * x)


def _slot_sum(a):
    """Sum over the leading axis, added in the order numpy's pairwise sum adds a trailing axis."""
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _slot_sum(a[:half]) + _slot_sum(a[half:])
    if n < 8:
        return a.sum(axis=0)
    acc = a[:8]
    for i in range(8, n - n % 8, 8):
        acc = acc + a[i : i + 8]
    pairs = acc[0::2] + acc[1::2]
    total = pairs[0::2] + pairs[1::2]
    total = total[0] + total[1]
    for row in a[n - n % 8 :]:
        total += row
    return total


def _rows(a):
    """(k, m, .) -> (m, k, .) view: one matrix per reference row for the batched products."""
    return a.transpose(1, 0, 2)


def _attend(layer: RIAttnLayer, p, x, idx, start: int, stop: int) -> _Block:
    """Kernel MLP, attention and values of the reference rows [start, stop)."""
    nbrs = idx[start:stop].T
    k, m = nbrs.shape
    xn = x.take(nbrs, axis=0)
    pose = np.ascontiguousarray(_rows(p[start:stop]))
    # Kernel MLP as flat GEMMs over all (slot, reference) rows, biases added in place.
    # numpy sends a one-row product to gemv, which rounds unlike gemm, so a
    # block of one edge runs as two copies of it and takes the route of the others.
    h = layer.mlp_w1.shape[1]
    flat = pose.reshape(-1, 8)
    if len(flat) == 1:
        flat = np.repeat(flat, 2, axis=0)
    mlp_pre = flat @ layer.mlp_w1
    mlp_pre += layer.mlp_b1
    hidden = _leaky(mlp_pre)
    kernel = hidden @ layer.mlp_w2
    kernel += layer.mlp_b2
    mlp_pre = mlp_pre[: m * k].reshape(k, m, h)
    hidden = hidden[: m * k].reshape(k, m, h)
    kernel = kernel[: m * k].reshape(k, m, layer.c_in)
    # Attention, batched over reference rows, written through views of slot-major buffers.
    scores = np.empty((k, m, k))
    np.matmul(_rows(xn), kernel.transpose(1, 2, 0), out=_rows(scores))
    scores /= np.sqrt(layer.c_in)
    if not np.all(np.isfinite(scores)):
        bad = start + int(np.nonzero(~np.isfinite(scores).all(axis=(0, 2)))[0][0])
        raise NumericError(f"non-finite attention scores at reference row {bad}")
    # Softmax over the slots j, in place.
    scores -= scores.max(axis=0)
    np.exp(scores, out=scores)
    scores /= _slot_sum(scores)
    values = kernel * xn
    attn_out = np.empty((k, m, layer.c_in))
    np.matmul(scores.transpose(1, 2, 0), _rows(values), out=_rows(attn_out))
    return _Block(start, pose, xn, mlp_pre, hidden, kernel, scores, values, attn_out)


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
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InvalidArgumentError(f"neighbor_idx entries must lie in [0, {n})")
    x_hat = np.empty((n, layer.c_in))
    for start in range(0, max(n, 1), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        block = _attend(layer, p, x, idx, start, stop)
        np.max(block.attn_out, axis=0, out=x_hat[start:stop])
    fused_input = np.concatenate([x_hat - x, x], axis=1)
    out = fused_input @ layer.fuse_w + layer.fuse_b
    act = LayerActivation(
        pose_stack=p,
        features=x,
        neighbor_idx=idx,
        aggregated=x_hat,
        fused_input=fused_input,
        output=out,
        last_block=block,
    )
    return out, act


def backward(
    layer: RIAttnLayer, d_output: np.ndarray, act: LayerActivation
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Parameter gradients, keyed like ``layer.parameters()``, and input-feature
    gradients for one recorded pass.

    Blocks run last to first: the recorded last block is reused, and every
    other block is recomputed by the function forward ran, so its
    intermediates are bitwise those of forward.  The max aggregation routes
    gradient to the slot whose attention output equals x_hat, the lowest slot
    on an exact tie.  Each block's kernel-MLP gradients are added into running
    sums.  The feature gradient sums, for each point, the neighbor-row
    gradients of every reference row that lists it as a neighbor: per block,
    one ``np.bincount`` over (point, channel) bins with the edges in row-major
    (reference, slot) order.  The block sums add up last block first, and
    their total is added onto the point's own fused-map gradient.  The
    summation order is fixed by the neighbor graph and the block size alone,
    so the result is bitwise repeatable across runs.
    """
    d_out = np.asarray(d_output, dtype=np.float64)
    n, c = act.features.shape
    if d_out.shape != act.output.shape:
        raise InvalidArgumentError(f"d_output shape {d_out.shape} != output {act.output.shape}")
    g_fuse_w = act.fused_input.T @ d_out
    g_fuse_b = d_out.sum(axis=0)
    d_fused = d_out @ layer.fuse_w.T
    d_xhat = d_fused[:, :c]
    d_x = d_fused[:, c:] - d_xhat
    scale = 1.0 / np.sqrt(c)
    # Neighbor-row gradients summed per (point, channel) bin.
    d_nbr = np.zeros(n * c)
    last = act.last_block
    grads = {}
    for start in [last.start, *reversed(range(0, last.start, _CHUNK_ROWS))]:
        if start == last.start:
            blk = last
        else:
            stop = min(start + _CHUNK_ROWS, last.start)
            blk = _attend(layer, act.pose_stack, act.features, act.neighbor_idx, start, stop)
        m = blk.attn_out.shape[1]
        rows = slice(start, start + m)
        # The max's subgradient: d_x_hat goes to the slot holding x_hat; more
        # hits than (row, channel) pairs means an exact tie, kept at its lowest slot.
        hit = blk.attn_out == act.aggregated[rows]
        if np.count_nonzero(hit) > m * c:
            hit[1:] &= ~np.logical_or.accumulate(hit, axis=0)[:-1]
        d_attn_out = hit * d_xhat[rows]
        d_values = np.empty_like(blk.values)
        np.matmul(_rows(blk.attention), _rows(d_attn_out), out=_rows(d_values))
        d_kernel = d_values * blk.neighbor_features
        d_xn = d_values * blk.kernel
        # Softmax backward, in place: d_scores = (d_attn - <d_attn, attn>) * attn, then scaled.
        d_scores = np.empty_like(blk.attention)
        np.matmul(_rows(blk.values), d_attn_out.transpose(1, 2, 0), out=_rows(d_scores))
        d_scores -= (d_scores * blk.attention).sum(axis=0)
        d_scores *= blk.attention
        d_scores *= scale
        d_part = np.empty_like(d_kernel)
        np.matmul(d_scores.transpose(1, 2, 0), _rows(blk.neighbor_features), out=_rows(d_part))
        d_kernel += d_part
        np.matmul(_rows(d_scores), _rows(blk.kernel), out=_rows(d_part))
        d_xn += d_part
        d_kernel = d_kernel.reshape(-1, c)
        d_pre = d_kernel @ layer.mlp_w2.T
        # Leaky-rectifier derivative as mask arithmetic: 1 where pre > 0, else the slope.
        d_pre *= np.maximum(blk.mlp_pre.reshape(d_pre.shape) > 0.0, LEAKY_SLOPE)
        # Bias gradients sum over the slots first, one leading-axis pass, then over the rows.
        block_grads = {
            "mlp_w1": blk.pose_stack.reshape(-1, 8).T @ d_pre,
            "mlp_b1": d_pre.reshape(blk.mlp_pre.shape).sum(axis=0).sum(axis=0),
            "mlp_w2": blk.mlp_hidden.reshape(d_pre.shape).T @ d_kernel,
            "mlp_b2": d_kernel.reshape(blk.kernel.shape).sum(axis=0).sum(axis=0),
        }
        for name, g in block_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
        bins = act.neighbor_idx[rows, :, None] * c + np.arange(c)
        d_nbr += np.bincount(bins.ravel(), weights=_rows(d_xn).ravel(), minlength=n * c)
    d_x += d_nbr.reshape(n, c)
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
