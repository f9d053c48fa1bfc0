"""Plain reference implementations the fast paths are checked against.

Each oracle is the direct definition, written for clarity, not speed; they
stay here permanently so every faster path keeps a ground truth.
"""

import numpy as np

from depthsr.grid import FeatureMap, conv2d, extract_patches, sigmoid
from depthsr.matcher import MIN_PATCH_NORM, MatchResult
from depthsr.structdet import StructureDescriptor


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


def refine_gate_stack(descriptor: StructureDescriptor, width: int = 4) -> FeatureMap:
    """The detector gate as a fixed stack of three 3x3 convolutions, widths
    1 -> width -> width -> 1, zero biases: Gaussian spread, ReLU, identity,
    ReLU, channel average, sigmoid."""
    gauss = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0
    k1 = np.zeros((width, 1, 3, 3))
    k1[:, 0] = gauss
    k2 = np.zeros((width, width, 3, 3))
    for i in range(width):
        k2[i, i, 1, 1] = 1.0
    k3 = np.zeros((1, width, 3, 3))
    k3[0, :, 1, 1] = 1.0 / width
    x = np.maximum(conv2d(descriptor.s, k1).data, 0.0)
    x = np.maximum(conv2d(FeatureMap(x), k2).data, 0.0)
    return FeatureMap(sigmoid(conv2d(FeatureMap(x), k3).data))
