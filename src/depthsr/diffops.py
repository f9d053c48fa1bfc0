"""First- and second-order differential operators on feature maps.

Central differences with unit pixel spacing and replicate borders; the
stencils are exact on affine images (gradient) and quadratic images
(Hessian), which the tests exploit.
"""

from __future__ import annotations

import numpy as np

from .grid import FeatureMap, _windows


def gradient_magnitude(f: FeatureMap) -> FeatureMap:
    """Per-channel sqrt(dx^2 + dy^2) via central differences."""
    p = _windows(f.data)
    dx = (p[..., 1, 2] - p[..., 1, 0]) * 0.5
    dy = (p[..., 2, 1] - p[..., 0, 1]) * 0.5
    return FeatureMap(np.sqrt(dx * dx + dy * dy))


def hessian_field(f: FeatureMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel (dxx, dyy, dxy); dxy uses the 4-point cross stencil."""
    p = _windows(f.data)
    dxx = p[..., 1, 2] - 2.0 * p[..., 1, 1] + p[..., 1, 0]
    dyy = p[..., 2, 1] - 2.0 * p[..., 1, 1] + p[..., 0, 1]
    dxy = (p[..., 2, 2] - p[..., 2, 0] - p[..., 0, 2] + p[..., 0, 0]) * 0.25
    return dxx, dyy, dxy


def hessian_norm(f: FeatureMap) -> FeatureMap:
    """Frobenius norm sqrt(dxx^2 + dyy^2 + 2*dxy^2) of the Hessian per pixel."""
    dxx, dyy, dxy = hessian_field(f)
    return FeatureMap(np.sqrt(dxx * dxx + dyy * dyy + 2.0 * dxy * dxy))


def eigenvalues(
    dxx: np.ndarray, dyy: np.ndarray, dxy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form symmetric 2x2 eigenvalues (l1, l2) with |l1| >= |l2|.

    On an |l1| == |l2| tie, l1 takes the algebraically larger value.
    """
    trace = dxx + dyy
    root = np.sqrt((dxx - dyy) ** 2 + 4.0 * dxy * dxy)
    hi = 0.5 * (trace + root)
    lo = 0.5 * (trace - root)
    swap = np.abs(lo) > np.abs(hi)
    return np.where(swap, lo, hi), np.where(swap, hi, lo)
