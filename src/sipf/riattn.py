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


@dataclass
class LayerActivation:
    """Everything the backward pass needs, batched over reference points."""

    pose_stack: np.ndarray        # (N, k, 8)
    features: np.ndarray          # (N, c_in) reference features
    neighbor_features: np.ndarray  # (N, k, c_in)
    neighbor_idx: np.ndarray      # (N, k)
    mlp_pre: np.ndarray           # (N, k, h) pre-activation of the hidden layer
    mlp_hidden: np.ndarray        # (N, k, h)
    kernel: np.ndarray            # (N, k, c_in) kernel weights W_r
    attention: np.ndarray         # (N, k, k) row-stochastic
    values: np.ndarray            # (N, k, c_in) elementwise W_r * X_r
    attn_out: np.ndarray          # (N, k, c_in)
    argmax: np.ndarray            # (N, c_in) row index chosen by the max
    aggregated: np.ndarray        # (N, c_in) x_hat
    fused_input: np.ndarray = field(repr=False, default=None)  # (N, 2 c_in)
    output: np.ndarray = field(repr=False, default=None)       # (N, c_out)


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
    xn = x[idx]
    # Kernel MLP as flat GEMMs over all (reference, slot) rows, biases added in place.
    h = layer.mlp_w1.shape[1]
    mlp_pre = _rows(p) @ layer.mlp_w1
    mlp_pre += layer.mlp_b1
    hidden = _leaky(mlp_pre)
    kernel = hidden @ layer.mlp_w2
    kernel += layer.mlp_b2
    mlp_pre = mlp_pre.reshape(n, k, h)
    hidden = hidden.reshape(n, k, h)
    kernel = kernel.reshape(n, k, layer.c_in)
    # Attention, batched over reference rows.
    scores = kernel @ xn.transpose(0, 2, 1)
    scores /= np.sqrt(layer.c_in)
    if not np.all(np.isfinite(scores)):
        bad = int(np.nonzero(~np.isfinite(scores).all(axis=(1, 2)))[0][0])
        raise NumericError(f"non-finite attention scores at reference row {bad}")
    attn = _softmax_rows(scores)
    values = kernel * xn
    attn_out = attn @ values
    argmax = attn_out.argmax(axis=1)
    x_hat = np.take_along_axis(attn_out, argmax[:, None, :], axis=1)[:, 0, :]
    fused_input = np.concatenate([x_hat - x, x], axis=1)
    out = fused_input @ layer.fuse_w + layer.fuse_b
    act = LayerActivation(
        pose_stack=p,
        features=x,
        neighbor_features=xn,
        neighbor_idx=idx,
        mlp_pre=mlp_pre,
        mlp_hidden=hidden,
        kernel=kernel,
        attention=attn,
        values=values,
        attn_out=attn_out,
        argmax=argmax,
        aggregated=x_hat,
        fused_input=fused_input,
        output=out,
    )
    return out, act


def backward(
    layer: RIAttnLayer, d_output: np.ndarray, act: LayerActivation
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Parameter gradients, keyed like ``layer.parameters()``, and input-feature
    gradients for one recorded pass.

    The feature gradient sums, for each point, the neighbor-row gradients of
    every reference row that lists it as a neighbor.  Each channel is one
    ``np.bincount`` over the neighbor indices in row-major (reference, slot)
    order, added onto the point's own fused-map gradient.  The summation order
    is fixed by the neighbor graph alone, so the result is bitwise repeatable
    across runs.
    """
    d_out = np.asarray(d_output, dtype=np.float64)
    n, k, c = act.neighbor_features.shape
    if d_out.shape != act.output.shape:
        raise InvalidArgumentError(f"d_output shape {d_out.shape} != output {act.output.shape}")
    g_fuse_w = act.fused_input.T @ d_out
    g_fuse_b = d_out.sum(axis=0)
    d_fused = d_out @ layer.fuse_w.T
    d_xhat = d_fused[:, :c]
    d_x = d_fused[:, c:] - d_xhat
    d_attn_out = np.zeros_like(act.attn_out)
    np.put_along_axis(d_attn_out, act.argmax[:, None, :], d_xhat[:, None, :], axis=1)
    d_values = act.attention.transpose(0, 2, 1) @ d_attn_out
    d_kernel = d_values * act.neighbor_features
    d_xn = d_values * act.kernel
    # Softmax backward, in place: d_scores = (d_attn - <d_attn, attn>) * attn.
    d_scores = d_attn_out @ act.values.transpose(0, 2, 1)
    d_scores -= (d_scores * act.attention).sum(axis=-1, keepdims=True)
    d_scores *= act.attention
    scale = 1.0 / np.sqrt(c)
    d_kernel += (d_scores @ act.neighbor_features) * scale
    d_xn += (d_scores.transpose(0, 2, 1) @ act.kernel) * scale
    del d_scores  # free the (N, k, k) block before the MLP backward allocates
    d_kernel = _rows(d_kernel)
    g_mlp_w2 = _rows(act.mlp_hidden).T @ d_kernel
    g_mlp_b2 = d_kernel.sum(axis=0)
    d_pre = d_kernel @ layer.mlp_w2.T
    d_pre *= _leaky_grad(_rows(act.mlp_pre))
    g_mlp_w1 = _rows(act.pose_stack).T @ d_pre
    g_mlp_b1 = d_pre.sum(axis=0)
    nbr = act.neighbor_idx.ravel()
    d_xn = _rows(d_xn)
    for ch in range(c):
        d_x[:, ch] += np.bincount(nbr, weights=d_xn[:, ch], minlength=n)
    grads = {
        "mlp_w1": g_mlp_w1,
        "mlp_b1": g_mlp_b1,
        "mlp_w2": g_mlp_w2,
        "mlp_b2": g_mlp_b2,
        "fuse_w": g_fuse_w,
        "fuse_b": g_fuse_b,
    }
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
