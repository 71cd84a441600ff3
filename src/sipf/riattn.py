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
the input features; the max aggregation routes gradient to the argmax row
(lowest index on ties).

Memory: ``layer_forward`` runs the reference rows in blocks of
``_CHUNK_ROWS`` and keeps only per-point arrays plus the last block's
per-edge intermediates, so the activation record is O(N c + _CHUNK_ROWS k^2)
and never holds the (N, k, k) attention block.  ``backward`` recomputes every
other block from the recorded inputs.  Every forward quantity is computed
row by row, so the output does not depend on the block size wherever BLAS
rounds a product row independently of the rows around it.
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
    """Per-edge intermediates of the m reference rows from ``start`` on."""

    start: int
    neighbor_features: np.ndarray  # (m, k, c_in)
    mlp_pre: np.ndarray           # (m, k, h) pre-activation of the hidden layer
    mlp_hidden: np.ndarray        # (m, k, h)
    kernel: np.ndarray            # (m, k, c_in) kernel weights W_r
    attention: np.ndarray         # (m, k, k) row-stochastic
    values: np.ndarray            # (m, k, c_in) elementwise W_r * X_r
    attn_out: np.ndarray          # (m, k, c_in)


@dataclass
class LayerActivation:
    """What the backward pass needs: per-point arrays plus the last block's intermediates."""

    pose_stack: np.ndarray        # (N, k, 8) the caller's pose field, not a copy
    features: np.ndarray          # (N, c_in) reference features
    neighbor_idx: np.ndarray      # (N, k)
    argmax: np.ndarray            # (N, c_in) row index chosen by the max
    aggregated: np.ndarray        # (N, c_in) x_hat
    fused_input: np.ndarray       # (N, 2 c_in)
    output: np.ndarray            # (N, c_out)
    last_block: _Block = field(repr=False)


def _leaky(x):
    # Equal bit for bit to where(x > 0, x, slope * x), signed zeros and NaN included.
    return np.maximum(x, LEAKY_SLOPE * x)


def _leaky_grad(x):
    return np.where(x > 0.0, 1.0, LEAKY_SLOPE)


def _softmax_rows(scores):
    """Row softmax over the last axis, computed in place in ``scores``."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _rows(a):
    """(N, k, m) -> (N k, m), so per-row products run as one GEMM."""
    return a.reshape(-1, a.shape[-1])


def _attend(layer: RIAttnLayer, p, x, idx, start: int, stop: int) -> _Block:
    """Kernel MLP, attention and values of the reference rows [start, stop)."""
    xn = x[idx[start:stop]]
    m, k = xn.shape[:2]
    # Kernel MLP as flat GEMMs over all (reference, slot) rows, biases added in place.
    # numpy sends a one-row product to gemv, which rounds unlike gemm, so a
    # block of one edge runs as two copies of it and takes the route of the others.
    h = layer.mlp_w1.shape[1]
    flat = _rows(p[start:stop])
    if len(flat) == 1:
        flat = np.repeat(flat, 2, axis=0)
    mlp_pre = flat @ layer.mlp_w1
    mlp_pre += layer.mlp_b1
    hidden = _leaky(mlp_pre)
    kernel = hidden @ layer.mlp_w2
    kernel += layer.mlp_b2
    mlp_pre = mlp_pre[: m * k].reshape(m, k, h)
    hidden = hidden[: m * k].reshape(m, k, h)
    kernel = kernel[: m * k].reshape(m, k, layer.c_in)
    # Attention, batched over reference rows.
    scores = kernel @ xn.transpose(0, 2, 1)
    scores /= np.sqrt(layer.c_in)
    if not np.all(np.isfinite(scores)):
        bad = start + int(np.nonzero(~np.isfinite(scores).all(axis=(1, 2)))[0][0])
        raise NumericError(f"non-finite attention scores at reference row {bad}")
    attn = _softmax_rows(scores)
    values = kernel * xn
    return _Block(start, xn, mlp_pre, hidden, kernel, attn, values, attn @ values)


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
    argmax = np.empty((n, layer.c_in), dtype=np.int64)
    x_hat = np.empty((n, layer.c_in))
    for start in range(0, max(n, 1), _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        block = _attend(layer, p, x, idx, start, stop)
        argmax[start:stop] = block.attn_out.argmax(axis=1)
        x_hat[start:stop] = np.take_along_axis(block.attn_out, argmax[start:stop, None, :], axis=1)[:, 0, :]
    fused_input = np.concatenate([x_hat - x, x], axis=1)
    out = fused_input @ layer.fuse_w + layer.fuse_b
    act = LayerActivation(
        pose_stack=p,
        features=x,
        neighbor_idx=idx,
        argmax=argmax,
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
    intermediates are bitwise those of forward.  Each block's kernel-MLP
    gradients are added into running sums.  The feature gradient sums, for
    each point, the neighbor-row gradients of every reference row that lists
    it as a neighbor: per block and channel, one ``np.bincount`` over the
    block's neighbor indices in row-major (reference, slot) order.  The block
    sums add up last block first, and their total is added onto the point's
    own fused-map gradient.  The summation order is fixed by the neighbor
    graph and the block size alone, so the result is bitwise repeatable
    across runs.
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
    # Neighbor-row gradients summed per point, channel-major so each block adds whole rows.
    d_nbr = np.zeros((c, n))
    last = act.last_block
    grads = {}
    for start in [last.start, *reversed(range(0, last.start, _CHUNK_ROWS))]:
        if start == last.start:
            blk = last
        else:
            stop = min(start + _CHUNK_ROWS, last.start)
            blk = _attend(layer, act.pose_stack, act.features, act.neighbor_idx, start, stop)
        rows = slice(start, start + len(blk.attn_out))
        d_attn_out = np.zeros_like(blk.attn_out)
        np.put_along_axis(d_attn_out, act.argmax[rows, None, :], d_xhat[rows, None, :], axis=1)
        d_values = blk.attention.transpose(0, 2, 1) @ d_attn_out
        d_kernel = d_values * blk.neighbor_features
        d_xn = d_values * blk.kernel
        # Softmax backward, in place: d_scores = (d_attn - <d_attn, attn>) * attn.
        d_scores = d_attn_out @ blk.values.transpose(0, 2, 1)
        d_scores -= (d_scores * blk.attention).sum(axis=-1, keepdims=True)
        d_scores *= blk.attention
        d_kernel += (d_scores @ blk.neighbor_features) * scale
        d_xn += (d_scores.transpose(0, 2, 1) @ blk.kernel) * scale
        d_kernel = _rows(d_kernel)
        d_pre = d_kernel @ layer.mlp_w2.T
        d_pre *= _leaky_grad(_rows(blk.mlp_pre))
        block_grads = {
            "mlp_w1": _rows(act.pose_stack[rows]).T @ d_pre,
            "mlp_b1": d_pre.sum(axis=0),
            "mlp_w2": _rows(blk.mlp_hidden).T @ d_kernel,
            "mlp_b2": d_kernel.sum(axis=0),
        }
        for name, g in block_grads.items():
            if name in grads:
                grads[name] += g
            else:
                grads[name] = g
        nbr = act.neighbor_idx[rows].ravel()
        d_xn = _rows(d_xn)
        for ch in range(c):
            d_nbr[ch] += np.bincount(nbr, weights=d_xn[:, ch], minlength=n)
    d_x += d_nbr.T
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
