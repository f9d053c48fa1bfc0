"""Multi-order loss, RMSE, and seeded noise injection.

`loss_total` is the one loss: it builds the valid-pixel mask once and sums
three L1 terms over the valid GT pixels, of depth, of gradient magnitude
and of Hessian norm (the count is reported so callers can normalize).
A caller that scores many predictions against one GT passes the GT's
`loss_planes` in, computed once. RMSE is a mean by definition and
reported in centimeters. Reductions run in fixed row-major order, so
results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffops import gradient_magnitude, hessian_norm
from .grid import MIN_DEPTH_M, DepthMap

DEFAULT_ALPHA_LOSS = 0.001


@dataclass(frozen=True)
class LossReport:
    """Loss components, their weighted total, and the valid-pixel count."""

    l_rec: float
    l_grad: float
    l_hes: float
    l_total: float
    valid_count: int


def _valid_mask(gt: DepthMap, pred: DepthMap) -> np.ndarray:
    if gt.depth.shape != pred.depth.shape:
        raise ValueError(
            f"shape mismatch: gt {gt.depth.shape} vs pred {pred.depth.shape}"
        )
    mask = gt.valid
    if not mask.any():
        raise ValueError("no valid pixels in GT depth")
    return mask


def loss_planes(d: DepthMap) -> tuple[np.ndarray, np.ndarray]:
    """The gradient-magnitude and Hessian-norm planes of `d` that
    loss_total compares."""
    f = d.as_feature()
    return gradient_magnitude(f).data[0], hessian_norm(f).data[0]


def loss_total(
    gt: DepthMap,
    pred: DepthMap,
    alpha_loss: float = DEFAULT_ALPHA_LOSS,
    gt_planes: tuple[np.ndarray, np.ndarray] | None = None,
) -> LossReport:
    """l_rec + l_grad + alpha_loss * l_hes with the valid-pixel count: the L1
    of depth, of gradient magnitude and of Hessian norm over valid GT pixels.
    `gt_planes`, when given, must be loss_planes(gt)."""
    mask = _valid_mask(gt, pred)
    rec = float(np.abs(gt.depth - pred.depth)[mask].sum())
    grad, hes = (
        float(np.abs(g - p)[mask].sum())
        for g, p in zip(loss_planes(gt) if gt_planes is None else gt_planes, loss_planes(pred))
    )
    return LossReport(
        l_rec=rec,
        l_grad=grad,
        l_hes=hes,
        l_total=rec + grad + alpha_loss * hes,
        valid_count=int(mask.sum()),
    )


def rmse_cm(gt: DepthMap, pred: DepthMap) -> float:
    """Root mean square error over valid pixels, in centimeters."""
    mask = _valid_mask(gt, pred)
    err = 100.0 * (gt.depth - pred.depth)
    return float(np.sqrt(np.mean(err[mask] ** 2)))


def add_noise(d: DepthMap, sigma: float, seed: int) -> DepthMap:
    """Add seeded Gaussian noise in normalized depth units to valid pixels.

    Depth is scaled to [0, 1] by the scene maximum, noised at std `sigma`,
    and rescaled; invalid pixels are untouched and results are clamped to
    stay positive where valid.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if not d.valid.any():
        raise ValueError("no valid pixels to noise")
    if sigma == 0:
        return DepthMap(d.depth.copy(), d.valid.copy())
    scene_max = float(d.depth[d.valid].max())
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, sigma, size=d.depth.shape)
    noised = d.depth / scene_max + noise
    depth = np.where(d.valid, np.maximum(noised * scene_max, MIN_DEPTH_M), d.depth)
    return DepthMap(depth, d.valid.copy())
