"""Seeded synthetic scans: noisy torus surfaces, with or without normals.

Coordinates are drawn from continuous distributions; the generator neither
removes nor injects duplicate points, so degenerate-input handling is not
exercised here by construction.
"""

from __future__ import annotations

import numpy as np

TORUS_MAJOR = 1.0
TORUS_MINOR = 0.35
POSITION_NOISE = 0.003
NORMAL_NOISE = 0.02


def torus_scan(rng, n, with_normals):
    """n points drawn area-uniformly on a torus, jittered, optionally with unit normals."""
    accepted = []
    count = 0
    while count < n:
        v = rng.uniform(0.0, 2.0 * np.pi, 2 * n)
        keep = rng.uniform(0.0, 1.0, 2 * n) < (TORUS_MAJOR + TORUS_MINOR * np.cos(v)) / (
            TORUS_MAJOR + TORUS_MINOR
        )
        accepted.append(v[keep])
        count += int(keep.sum())
    v = np.concatenate(accepted)[:n]
    u = rng.uniform(0.0, 2.0 * np.pi, n)
    normal = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=1)
    center = np.stack([TORUS_MAJOR * np.cos(u), TORUS_MAJOR * np.sin(u), np.zeros(n)], axis=1)
    points = center + TORUS_MINOR * normal + rng.normal(0.0, POSITION_NOISE, (n, 3))
    if not with_normals:
        return points, None
    noisy = normal + rng.normal(0.0, NORMAL_NOISE, (n, 3))
    return points, noisy / np.linalg.norm(noisy, axis=1, keepdims=True)


def write_xyz(path, points, normals=None):
    """Whitespace-separated rows with 17 significant digits, so values re-parse bitwise."""
    data = points if normals is None else np.hstack([points, normals])
    np.savetxt(path, data, fmt="%.17g")
