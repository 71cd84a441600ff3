"""Bingham distribution over unit quaternions.

Density (antipodally symmetric on the 3-sphere):

    B(q | V, L) = exp(q^T V L V^T q) / F(L),

with orthogonal 4x4 ``V`` and diagonal ``L = diag(l1, l2, l3, 0)``,
``l1 <= l2 <= l3 < 0``.  The mode is the V column paired with the zero
eigenvalue.

F depends on the eigenvalues only.  With q = (c cos a, c sin a, s cos b,
s sin b) in the V-diagonalized frame both circle integrals are closed forms
and F is one integral over t = c^2 (Kume & Wood, Biometrika 2005):

    F = 2 pi^2 int_0^1 exp(l2 t) ive(0, (l2 - l1) t / 2) ive(0, -l3 (1 - t) / 2) dt.

Its lambda-derivatives are the moments of q_i^2 and q_i^2 q_j^2 over the
same integral.  One fixed 127-node tanh-sinh rule (Takahasi & Mori, Publ.
RIMS 1974) evaluates all of them to 1e-12 relative for lambdas in
[-1e3, -1e-6]; the error grows with |l2| beyond (about 1e-6 at 1e6, 1e-3 at
1e10), and a larger |l2| is a NumericError.

Sampling uses acceptance-rejection with an angular-central-Gaussian envelope
(covariance ``(I + 2A)^{-1}``, ``A = -V L V^T``).  The rejection constant is
the analytic supremum of exp(-s) (1 + 2s)^2 over the reachable range of the
quadratic form s = q^T A q, times a 1.0001 safety factor.

Differentiable parameterization from a 7-dim seed (z1, z2): z1 is normalized
and placed into a fixed orthogonal sign pattern to obtain V; softplus of z2
accumulates into the ordered negative eigenvalues.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, expit, hyp1f1

from .errors import InvalidArgumentError, InvalidInputError, NumericError, SamplerStallError
from .geometry import UnitQuaternion, is_near_identity, set_read_only

__all__ = [
    "BinghamSeed",
    "BinghamParams",
    "NormalizationResult",
    "IdentityModeWarning",
    "birdal_V",
    "lambda_from",
    "params_from_seed",
    "normalization",
    "mode",
    "sample_with_rate",
    "bingham_loss_and_seed_gradient",
]

_STALL_RATE_FLOOR = 1e-4
_STALL_BATCH_CAP = 200
_MSTAR_SAFETY = 1.0001


class IdentityModeWarning(UserWarning):
    """The distribution mode is the identity rotation; shadows would collapse."""


@dataclass(frozen=True)
class BinghamSeed:
    """7-dim differentiable parameterization: quaternion seed + concentration seed.

    Holds read-only float copies; :func:`birdal_V` checks z1 and :func:`lambda_from`
    checks z2 where they are used.
    """

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        for name in ("z1", "z2"):
            set_read_only(self, name, np.asarray(getattr(self, name), dtype=np.float64))


@dataclass(frozen=True)
class BinghamParams:
    """Orthogonal V plus the diagonal (l1, l2, l3, 0), ordered and negative."""

    V: np.ndarray
    lambdas: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.V, dtype=np.float64)
        lam = np.asarray(self.lambdas, dtype=np.float64)
        if v.shape != (4, 4):
            raise InvalidInputError(f"V must be 4x4, got {v.shape}")
        if not np.abs(v.T @ v - np.eye(4)).max() <= 1e-10:
            raise InvalidInputError("V is not orthogonal")
        if lam.shape != (4,):
            raise InvalidInputError(f"lambdas must have shape (4,), got {lam.shape}")
        if lam[3] != 0.0:
            raise InvalidInputError("fourth diagonal entry must be exactly 0")
        if not (-np.inf < lam[0] <= lam[1] <= lam[2] < 0.0):
            raise InvalidInputError(f"lambdas must satisfy -inf < l1 <= l2 <= l3 < 0, got {lam[:3]}")
        set_read_only(self, "V", v)
        set_read_only(self, "lambdas", lam)


@dataclass(frozen=True)
class NormalizationResult:
    """Normalization constant, its derivatives w.r.t. (l1, l2, l3), and the entropy they give."""

    F: float
    gradF: np.ndarray
    entropy: float


def _finite_vector(values, n, name) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (n,):
        raise InvalidInputError(f"{name} must have shape ({n},), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} must be finite")
    return arr


def birdal_V(z1) -> np.ndarray:
    """Orthogonal 4x4 from a nonzero 4-vector via the fixed sign pattern."""
    z = _finite_vector(z1, 4, "z1")
    norm = np.linalg.norm(z)
    if norm == 0.0:
        raise InvalidArgumentError("z1 must be nonzero")
    a, b, c, d = z / norm
    return np.array(
        [
            [a, -b, -c, d],
            [b, a, d, c],
            [c, -d, a, -b],
            [d, c, -b, -a],
        ]
    )


def lambda_from(z2) -> np.ndarray:
    """Diagonal (l1, l2, l3, 0) from cumulative sums of softplus(z2)."""
    z = _finite_vector(z2, 3, "z2")
    p0, p1, p2 = np.logaddexp(0.0, z).tolist()
    lam = np.array([-(p0 + p1 + p2), -(p0 + p1), -p0, 0.0])
    if np.isinf(lam[0]):
        raise NumericError(f"z2 = {z.tolist()} overflows the concentration l1")
    return lam


def params_from_seed(seed: BinghamSeed) -> BinghamParams:
    return BinghamParams(V=birdal_V(seed.z1), lambdas=lambda_from(seed.z2))


_TANH_SINH_STEP = 0.05


def _tanh_sinh_rule():
    """Nodes t, 1 - t and weights (times 2 pi^2) of the fixed tanh-sinh rule on [0, 1].

    t = expit(pi sinh(tau)) for tau = k * _TANH_SINH_STEP, |k| <= 63.  1 - t is
    expit(-pi sinh(tau)), computed on its own so nodes near t = 1 keep their precision.
    """
    tau = _TANH_SINH_STEP * np.arange(-63, 64)
    t = expit(np.pi * np.sinh(tau))
    s = expit(-np.pi * np.sinh(tau))
    weight = 2.0 * np.pi**2 * _TANH_SINH_STEP * np.pi * np.cosh(tau) * t * s
    return t, s, weight


_T, _S, _W = _tanh_sinh_rule()
# Largest |l2| the rule resolves to about 1e-3: exp(l2 t) has a boundary layer of width 1/|l2|.
_MAX_CONCENTRATION = 1e10


def _cos_mean(p, y):
    """Mean of cos^(2p) exp(-y cos^2) over a circle, for y >= 0.

    Equal to B(p + 1/2, 1/2) / pi * 1F1(p + 1/2; p + 1; -y).  Written with Bessel
    functions the p >= 1 means need differences such as I0(y/2) - I1(y/2), which
    lose up to log10(y^2) digits on a sharp circle.
    """
    return beta(p + 0.5, 0.5) / np.pi * hyp1f1(p + 0.5, p + 1.0, -y)


def _moments(lambdas3, hessian=False):
    """F, dF/dl_i and optionally d2F/dl_i dl_j, the moments of 1, q_i^2 and q_i^2 q_j^2.

    Rejects a concentration the rule cannot resolve, and an F that is not finite and positive.
    """
    l1, l2, l3 = (float(v) for v in lambdas3)
    if l2 < -_MAX_CONCENTRATION:
        raise NumericError(f"concentration |l2| = {-l2:.6g} is beyond the normalizer's range")
    # On the circle (q1, q2) of radius^2 t the exponent is l2 t - y1 cos^2, on
    # (q3, q4) of radius^2 1 - t it is -y2 cos^2; exp(l2 t) goes into the weights.
    y1 = (l2 - l1) * _T
    y2 = -l3 * _S
    w = _W * np.exp(l2 * _T)
    n_means = 3 if hessian else 2
    c = [_cos_mean(p, y1) for p in range(n_means)]
    d = [_cos_mean(p, y2) for p in range(n_means)]
    f = float(w @ (c[0] * d[0]))
    if not np.isfinite(f) or f <= 0.0:
        raise NumericError(f"normalization constant degenerated to {f!r}")
    # Sine means as differences of cosine means; the weight exp(-y cos^2) favours
    # small cos^2, so each difference keeps at least a quarter of its first term.
    sin2 = c[0] - c[1]
    r1 = _T * c[1]  # q1^2, q2^2 and q3^2 averaged over their circles
    r2 = _T * sin2
    r3 = _S * d[1]
    grad = np.array([w @ (r1 * d[0]), w @ (r2 * d[0]), w @ (c[0] * r3)])
    if not hessian:
        return f, grad, None
    cos2_sin2 = c[1] - c[2]
    t2 = _T**2
    h11 = w @ (t2 * c[2] * d[0])
    h12 = w @ (t2 * cos2_sin2 * d[0])
    h22 = w @ (t2 * (sin2 - cos2_sin2) * d[0])
    h33 = w @ (c[0] * _S**2 * d[2])
    h13 = w @ (r1 * r3)
    h23 = w @ (r2 * r3)
    hess = np.array([[h11, h12, h13], [h12, h22, h23], [h13, h23, h33]])
    return f, grad, hess


def _entropy(f, grad, lambdas3) -> float:
    """Differential entropy log F - (L . grad F) / F from the moments."""
    return float(np.log(f) - lambdas3 @ grad / f)


def normalization(params: BinghamParams) -> NormalizationResult:
    """Normalization constant F, its three lambda-derivatives and the entropy; V does not enter."""
    f, grad, _ = _moments(params.lambdas[:3])
    return NormalizationResult(F=f, gradF=grad, entropy=_entropy(f, grad, params.lambdas[:3]))


def mode(params: BinghamParams) -> UnitQuaternion:
    """Mode quaternion: the V column paired with the zero eigenvalue.

    Warns (not fatal) when the mode is the identity rotation within 1e-9
    geodesic: shadows generated from it coincide with their sources and the
    caller must perturb.
    """
    q = UnitQuaternion.from_array(params.V[:, 3]).canonical()
    if is_near_identity(q):
        warnings.warn(
            "Bingham mode is the identity rotation; shadow generation degenerates",
            IdentityModeWarning,
            stacklevel=2,
        )
    return q


def _rejection_bound(lambdas3) -> float:
    """Analytic sup of exp(-s) (1 + 2s)^2 over s in [0, -l1], padded by 1.0001."""
    s_peak = 1.5
    s = min(s_peak, float(-lambdas3[0]))
    return float(np.exp(-s) * (1.0 + 2.0 * s) ** 2) * _MSTAR_SAFETY


def sample_with_rate(params: BinghamParams, rng: np.random.Generator, n: int):
    """n quaternions (rows, scalar-first) by batched acceptance-rejection, and the empirical
    acceptance rate.

    Deterministic per generator state.  Proposals come from the angular
    central Gaussian with covariance (I + 2A)^{-1}; the acceptance test is
    u < f*(q) / (M* g*(q)).
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise InvalidArgumentError(f"sample count must be a positive integer, got {n!r}")
    lam = params.lambdas[:3]
    v = params.V
    a_eigs = np.concatenate([-lam, [0.0]])  # eigenvalues of A = -V L V^T
    psi_inv_diag = 1.0 + 2.0 * a_eigs
    m_star = _rejection_bound(lam)
    batch = int(max(2048, min(n, 65536)))
    chunks = []
    accepted = 0
    proposed = 0
    rounds = 0
    while accepted < n:
        eps = rng.standard_normal((batch, 4))
        u = rng.random(batch)
        y = (eps / np.sqrt(psi_inv_diag)) @ v.T
        q = y / np.linalg.norm(y, axis=1, keepdims=True)
        proj = q @ v
        q_a_q = (proj**2 * a_eigs).sum(axis=1)
        f_star = np.exp(-q_a_q)
        g_star = ((proj**2 * psi_inv_diag).sum(axis=1)) ** -2.0
        keep = u < f_star / (m_star * g_star)
        chunks.append(q[keep])
        accepted += int(keep.sum())
        proposed += batch
        rounds += 1
        if rounds >= _STALL_BATCH_CAP and accepted / proposed < _STALL_RATE_FLOOR:
            raise SamplerStallError(
                f"acceptance rate {accepted / proposed:.2e} after {proposed} proposals "
                f"(M*={m_star:.4f}, lambdas={lam.tolist()})"
            )
    return np.vstack(chunks)[:n], accepted / proposed


# Cumulative-sum pattern of lambda_from: dl_i / d softplus(z2_j).
_LAMBDA_JACOBIAN = np.array(
    [
        [-1.0, -1.0, -1.0],
        [-1.0, -1.0, 0.0],
        [-1.0, 0.0, 0.0],
    ]
)


def bingham_loss_and_seed_gradient(seed: BinghamSeed):
    """The differential entropy and its gradient w.r.t. z2.

    The entropy depends on the eigenvalues only, so it does not depend on z1.
    """
    lam3 = lambda_from(seed.z2)[:3]
    f, grad, hess = _moments(lam3, hessian=True)
    value = _entropy(f, grad, lam3)
    d_lam = -(hess @ lam3) / f + (lam3 @ grad) * grad / f**2
    sigmoid = expit(seed.z2)
    d_z2 = (d_lam @ _LAMBDA_JACOBIAN) * sigmoid
    return value, d_z2
