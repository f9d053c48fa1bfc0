"""Plain reference implementations the fast paths are checked against.

Each oracle is the direct definition, written for clarity, not speed; they
stay here permanently so every faster path keeps a ground truth.
"""

import numpy as np

from depthsr.grid import FeatureMap, extract_patches
from depthsr.matcher import MIN_PATCH_NORM, MatchResult


def correlation_set_naive(target: FeatureMap, source: FeatureMap) -> np.ndarray:
    """Two-loop hw x hw cosines: row = target patch, col = source patch."""
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")
    t = extract_patches(target).vectors
    s = extract_patches(source).vectors
    n = t.shape[0]
    t_norm = [float(np.sqrt(np.dot(row, row))) for row in t]
    s_norm = [float(np.sqrt(np.dot(row, row))) for row in s]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        if t_norm[i] < MIN_PATCH_NORM:
            continue
        for j in range(n):
            if s_norm[j] < MIN_PATCH_NORM:
                continue
            out[i, j] = float(np.dot(t[i], s[j])) / (t_norm[i] * s_norm[j])
    return np.clip(out, -1.0, 1.0)


def top_k_naive(values: np.ndarray, k: int) -> MatchResult:
    """Full-sort top-k per row (stable sort on negated scores)."""
    m = values.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    eta = np.argsort(-values, axis=1, kind="stable")[:, :k]
    return MatchResult(eta, np.take_along_axis(values, eta, axis=1))


def central_difference(fn, x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of a scalar function at x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        probe = x.copy()
        probe[i] = x[i] + eps
        hi = fn(probe)
        probe[i] = x[i] - eps
        lo = fn(probe)
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad
