"""Plain reference implementations the fast paths are checked against.

Each oracle is the direct definition, written for clarity, not speed; they
stay here permanently so every faster path keeps a ground truth.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from depthsr.grid import PATCH_SIZE, FeatureMap, conv2d, extract_patches, fold_patches, sigmoid
from depthsr.matcher import MIN_PATCH_NORM, softmax_rows


def correlation_set_naive(target: FeatureMap, source: FeatureMap) -> np.ndarray:
    """Two-loop hw x hw cosines: row = target patch, col = source patch."""
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")
    t = extract_patches(target)
    s = extract_patches(source)
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


def top_k_naive(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Full-sort top-k (eta, psi) per row (stable sort on negated scores)."""
    m = values.shape[1]
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    eta = np.argsort(-values, axis=1, kind="stable")[:, :k]
    return eta, np.take_along_axis(values, eta, axis=1)


def windows_edge_pad(data: np.ndarray) -> np.ndarray:
    """The (c, h, w, 3, 3) windows of a (c, h, w) array: np.pad in "edge"
    mode, then sliding_window_view."""
    pad = np.pad(data, ((0, 0), (1, 1), (1, 1)), mode="edge")
    return sliding_window_view(pad, (PATCH_SIZE, PATCH_SIZE), axis=(1, 2))


def matching_selection_einsum(
    patches: np.ndarray, shape: tuple[int, int, int], eta: np.ndarray, psi: np.ndarray
) -> FeatureMap:
    """Softmax blend of the whole (hw, k, 9c) gather in one einsum, folded."""
    mixed = np.einsum("rk,rkd->rd", softmax_rows(psi), patches[eta])
    return fold_patches(mixed, shape)


def fold_patches_loop(vectors: np.ndarray, shape: tuple[int, int, int]) -> FeatureMap:
    """Overlap-add (h*w, 9*c) patch rows onto a (c, h, w) grid with one
    np.add.at per 3x3 offset, averaging by contribution count."""
    c, h, w = shape
    vec = vectors.reshape(h, w, c, PATCH_SIZE, PATCH_SIZE)
    acc = np.zeros((c, h, w), dtype=np.float64)
    cnt = np.zeros((h, w), dtype=np.float64)
    ys = np.arange(h)
    xs = np.arange(w)
    for dy in range(PATCH_SIZE):
        ty = np.clip(ys + dy - 1, 0, h - 1)
        for dx in range(PATCH_SIZE):
            tx = np.clip(xs + dx - 1, 0, w - 1)
            np.add.at(
                acc,
                (slice(None), ty[:, None], tx[None, :]),
                vec[:, :, :, dy, dx].transpose(2, 0, 1),
            )
            np.add.at(cnt, (ty[:, None], tx[None, :]), 1.0)
    return FeatureMap(acc / cnt)


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


def scene_loss_gradient(loss, vec: np.ndarray) -> np.ndarray:
    """The central-difference gradient of a `trainer.SceneLoss` at `vec`:
    `central_difference` of its `report`, every probe in this process, with
    float overflow and invalid operations raising."""
    with np.errstate(over="raise", invalid="raise"):
        return central_difference(lambda v: loss.report(v).l_total, vec, loss.tcfg.fd_epsilon)


def refine_gate_stack(s: FeatureMap, width: int = 4) -> FeatureMap:
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
    x = np.maximum(conv2d(s, k1).data, 0.0)
    x = np.maximum(conv2d(FeatureMap(x), k2).data, 0.0)
    return FeatureMap(sigmoid(conv2d(FeatureMap(x), k3).data))
