import numpy as np
import pytest

from sipf.descriptors import COINCIDENT_DISTANCE_FLOOR
from sipf.errors import CoincidentPointError
from sipf.geometry import PointCloud, random_rotation


def brute_force_knn(points: np.ndarray, k: int) -> np.ndarray:
    """O(N^2) reference: full distance sort, ties broken by ascending index."""
    n = len(points)
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        d = np.sqrt(((points - points[i]) ** 2).sum(axis=1))
        d[i] = np.inf
        out[i] = np.lexsort((np.arange(n), d))[:k]
    return out


def scalar_axis_alignment(p_r, frame_r, shadow_point, shadow_frame) -> float:
    """One-point transcription of the B1 score: |cos(a_r, d)| * |cos(a_r, a_s)|, each capped at 1."""
    a_r = np.asarray(frame_r, dtype=np.float64)[0]
    a_s = np.asarray(shadow_frame, dtype=np.float64)[0]
    d = np.asarray(shadow_point, dtype=np.float64) - np.asarray(p_r, dtype=np.float64)
    norm = np.linalg.norm(d)
    if norm < COINCIDENT_DISTANCE_FLOOR:
        raise CoincidentPointError("shadow coincides with the point")
    return min(1.0, abs(float(a_r @ d)) / norm) * min(1.0, abs(float(a_r @ a_s)))


def random_cloud(rng: np.random.Generator, n: int, with_normals: bool = False) -> PointCloud:
    pts = rng.uniform(-1.0, 1.0, (n, 3))
    normals = None
    if with_normals:
        normals = rng.standard_normal((n, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(points=pts, normals=normals)


def random_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    """Stack of random orthonormal right-handed row bases."""
    return np.stack([random_rotation(rng).matrix for _ in range(n)])


def mirrored_blob_cloud(rng: np.random.Generator, n_half: int = 16):
    """Two compact congruent patches related by an exact half-turn about z.

    The patches sit far from the rotation axis, so a shadow rotation equal to
    the half-turn maps each point onto its partner without landing inside any
    neighborhood.
    """
    left = np.stack(
        [
            rng.uniform(-1.25, -1.05, n_half),
            rng.uniform(-0.10, 0.10, n_half),
            rng.uniform(0.95, 1.05, n_half),
        ],
        axis=1,
    )
    half_turn = np.diag([-1.0, -1.0, 1.0])
    pts = np.vstack([left, left @ half_turn])
    return PointCloud(points=pts), half_turn


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
