"""Bingham distribution over unit quaternions.

Density (antipodally symmetric on the 3-sphere):

    B(q | V, L) = exp(q^T V L V^T q) / F(L),

with orthogonal 4x4 ``V`` and diagonal ``L = diag(l1, l2, l3, 0)``,
``l1 <= l2 <= l3 < 0``.  The mode is the V column paired with the zero
eigenvalue.  The normalization constant and its lambda-derivatives are
computed by Gauss-Legendre product quadrature over the three hyperspherical
angles after diagonalizing; F therefore depends on the eigenvalues only.

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
from functools import lru_cache

import numpy as np
from scipy.special import expit

from .errors import InvalidArgumentError, InvalidInputError, NumericError, SamplerStallError
from .geometry import UnitQuaternion, is_near_identity

__all__ = [
    "BinghamSeed",
    "BinghamParams",
    "NormalizationResult",
    "IdentityModeWarning",
    "LOSS_ENTROPY",
    "LOSS_NLL_MODE",
    "BINGHAM_LOSS_KINDS",
    "MIN_QUADRATURE_ORDER",
    "birdal_V",
    "lambda_from",
    "params_from_seed",
    "log_unnormalized_density",
    "normalization",
    "entropy",
    "mode",
    "sample",
    "sample_with_rate",
    "bingham_loss_and_seed_gradient",
]

LOSS_ENTROPY = "entropy"
LOSS_NLL_MODE = "nll_mode"
BINGHAM_LOSS_KINDS = (LOSS_ENTROPY, LOSS_NLL_MODE)

MIN_QUADRATURE_ORDER = 16
DEFAULT_QUADRATURE_ORDER = 48

_STALL_RATE_FLOOR = 1e-4
_STALL_BATCH_CAP = 200
_MSTAR_SAFETY = 1.0001


class IdentityModeWarning(UserWarning):
    """The distribution mode is the identity rotation; shadows would collapse."""


@dataclass(frozen=True)
class BinghamSeed:
    """7-dim differentiable parameterization: quaternion seed + concentration seed."""

    z1: np.ndarray
    z2: np.ndarray

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=np.float64)
        z2 = np.asarray(self.z2, dtype=np.float64)
        if z1.shape != (4,) or z2.shape != (3,):
            raise InvalidInputError(f"seed shapes must be (4,) and (3,), got {z1.shape}, {z2.shape}")
        if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
            raise InvalidInputError("seed values must be finite")
        if np.linalg.norm(z1) == 0.0:
            raise InvalidArgumentError("z1 must be nonzero")
        z1 = z1.copy()
        z1.setflags(write=False)
        z2 = z2.copy()
        z2.setflags(write=False)
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)


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
        if np.abs(v.T @ v - np.eye(4)).max() > 1e-10:
            raise InvalidInputError("V is not orthogonal")
        if lam.shape != (4,):
            raise InvalidInputError(f"lambdas must have shape (4,), got {lam.shape}")
        if lam[3] != 0.0:
            raise InvalidInputError("fourth diagonal entry must be exactly 0")
        if not (lam[0] <= lam[1] <= lam[2] < 0.0):
            raise InvalidInputError(f"lambdas must satisfy l1 <= l2 <= l3 < 0, got {lam[:3]}")
        v = v.copy()
        v.setflags(write=False)
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "lambdas", lam)


@dataclass(frozen=True)
class NormalizationResult:
    """Normalization constant, its derivatives w.r.t. (l1, l2, l3), and the entropy they give."""

    F: float
    gradF: np.ndarray
    entropy: float


def birdal_V(z1) -> np.ndarray:
    """Orthogonal 4x4 from a nonzero 4-vector via the fixed sign pattern."""
    z = np.asarray(z1, dtype=np.float64)
    if z.shape != (4,):
        raise InvalidInputError(f"z1 must have shape (4,), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("z1 must be finite")
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


def _softplus(x):
    return np.logaddexp(0.0, x)


def lambda_from(z2) -> np.ndarray:
    """Diagonal (l1, l2, l3, 0) from cumulative sums of softplus(z2)."""
    z = np.asarray(z2, dtype=np.float64)
    if z.shape != (3,):
        raise InvalidInputError(f"z2 must have shape (3,), got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("z2 must be finite")
    p = _softplus(z)
    return np.array([-(p[0] + p[1] + p[2]), -(p[0] + p[1]), -p[0], 0.0])


def params_from_seed(seed: BinghamSeed) -> BinghamParams:
    return BinghamParams(V=birdal_V(seed.z1), lambdas=lambda_from(seed.z2))


def log_unnormalized_density(q, params: BinghamParams) -> float:
    """q^T V L V^T q; at most 0, with equality exactly at the mode."""
    if isinstance(q, UnitQuaternion):
        q = q.array
    q = np.asarray(q, dtype=np.float64)
    proj = q @ params.V
    return float((proj**2 * params.lambdas).sum())


@lru_cache(maxsize=16)
def _angle_nodes(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    psi = 0.5 * np.pi * (x + 1.0)
    w_psi = 0.5 * np.pi * w
    phi = np.pi * (x + 1.0)
    w_phi = np.pi * w
    return psi, w_psi, phi, w_phi


@lru_cache(maxsize=8)
def _quadrature_grid(order: int):
    """Squared coordinates and combined weights on the hyperspherical grid.

    Coordinates: u1 = cos(psi), u2 = sin(psi) cos(theta),
    u3 = sin(psi) sin(theta) cos(phi); area element sin^2(psi) sin(theta).
    """
    psi, w_psi, phi, w_phi = _angle_nodes(order)
    theta, w_theta = psi, w_psi  # theta spans [0, pi] like psi
    sin_psi = np.sin(psi)
    u1sq = (np.cos(psi) ** 2)[:, None, None]
    u2sq = (sin_psi**2)[:, None, None] * (np.cos(theta) ** 2)[None, :, None]
    u3sq = (
        (sin_psi**2)[:, None, None]
        * (np.sin(theta) ** 2)[None, :, None]
        * (np.cos(phi) ** 2)[None, None, :]
    )
    weight = (
        (w_psi * sin_psi**2)[:, None, None]
        * (w_theta * np.sin(theta))[None, :, None]
        * w_phi[None, None, :]
    )
    return u1sq, u2sq, u3sq, weight


def _moments(lambdas3, order, hessian=False):
    """F, dF/dl_i and optionally d2F/dl_i dl_j by product quadrature.

    Rejects a bad quadrature order, and an F that is not finite and positive.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise InvalidArgumentError(f"quadrature order must be an integer, got {order!r}")
    if order < MIN_QUADRATURE_ORDER:
        raise InvalidArgumentError(f"quadrature order {order} below minimum {MIN_QUADRATURE_ORDER}")
    u1sq, u2sq, u3sq, weight = _quadrature_grid(int(order))
    ex = np.exp(lambdas3[0] * u1sq + lambdas3[1] * u2sq + lambdas3[2] * u3sq) * weight
    usq = (u1sq, u2sq, u3sq)
    f = float(ex.sum())
    if not np.isfinite(f) or f <= 0.0:
        raise NumericError(f"normalization constant degenerated to {f!r}")
    grad = np.array([float((ex * np.broadcast_to(u, ex.shape)).sum()) for u in usq])
    if not hessian:
        return f, grad, None
    hess = np.empty((3, 3))
    for i in range(3):
        for j in range(i, 3):
            hess[i, j] = hess[j, i] = float((ex * usq[i] * usq[j]).sum())
    return f, grad, hess


def _entropy(f, grad, lambdas3) -> float:
    """Differential entropy log F - (L . grad F) / F from the moments."""
    return float(np.log(f) - lambdas3 @ grad / f)


def normalization(params: BinghamParams, order: int = DEFAULT_QUADRATURE_ORDER) -> NormalizationResult:
    """Normalization constant F and its three lambda-derivatives.

    F depends only on the eigenvalues: the integral is evaluated in the
    V-diagonalized coordinates, so any orthogonal V yields the same value.
    """
    f, grad, _ = _moments(params.lambdas[:3], order)
    return NormalizationResult(F=f, gradF=grad, entropy=_entropy(f, grad, params.lambdas[:3]))


def entropy(params: BinghamParams, order: int = DEFAULT_QUADRATURE_ORDER) -> float:
    """Differential entropy log F - (L . grad F) / F."""
    return normalization(params, order).entropy


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


def sample(params: BinghamParams, rng: np.random.Generator, n: int) -> np.ndarray:
    """n quaternions (rows, scalar-first) by batched acceptance-rejection.

    Deterministic per generator state.  Proposals come from the angular
    central Gaussian with covariance (I + 2A)^{-1}; the acceptance test is
    u < f*(q) / (M* g*(q)).
    """
    return sample_with_rate(params, rng, n)[0]


def sample_with_rate(params: BinghamParams, rng: np.random.Generator, n: int):
    """Like :func:`sample` but also returns the empirical acceptance rate."""
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


def bingham_loss_and_seed_gradient(
    seed: BinghamSeed, kind: str = LOSS_ENTROPY, order: int = DEFAULT_QUADRATURE_ORDER
):
    """Loss value plus gradients w.r.t. (z1, z2).

    ``entropy`` is the differential entropy; ``nll_mode`` is the negative log
    density at the mode, which equals log F.  Both depend on the eigenvalues
    only, so the z1 gradient is identically zero.
    """
    if kind not in BINGHAM_LOSS_KINDS:
        raise InvalidArgumentError(f"unknown bingham loss kind {kind!r}")
    lam3 = lambda_from(seed.z2)[:3]
    f, grad, hess = _moments(lam3, order, hessian=kind == LOSS_ENTROPY)
    if kind == LOSS_ENTROPY:
        value = _entropy(f, grad, lam3)
        d_lam = -(hess @ lam3) / f + (lam3 @ grad) * grad / f**2
    else:
        value = float(np.log(f))
        d_lam = grad / f
    sigmoid = expit(seed.z2)
    d_z2 = (d_lam @ _LAMBDA_JACOBIAN) * sigmoid
    return value, np.zeros(4), d_z2
