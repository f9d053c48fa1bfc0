"""Hessian-eigenvalue structure detector.

Normalizes and channel-compresses a feature map, takes per-pixel 2x2
Hessian eigenvalues (|l1| >= |l2|), and combines three constraints into a
descriptor in [0, 1]:

    S = (1 - exp(-|l1| / (alpha + eps)))        # structure awareness
        * exp(-|l1 * l2| / (beta + eps))        # texture suppression
        * [l2 < 0]                              # geometric mask (hard)

The gate sigmoid(G * S), G the 3x3 Gaussian `grid.GAUSS_3X3`, multiplies
the input features. It is the closed form of a fixed 1->4->4->1 stack of
3x3 convolutions with ReLUs: on S >= 0 no ReLU clips, the middle kernel is
the identity and the last averages four equal channels. alpha and beta are
the trainable scalars, the fields `alpha_det` and `beta` of the
`fusion.PipelineConfig` each function is given, which checks them finite
and positive; eps is a module constant.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .diffops import eigenvalues, hessian_field
from .grid import GAUSS_3X3, FeatureMap, conv2d, sigmoid, standardize

if TYPE_CHECKING:
    from .fusion import PipelineConfig

EPSILON = 1e-8


def normalize_and_compress(f: FeatureMap) -> FeatureMap:
    """Standardize each channel over space, then average channels to one."""
    return FeatureMap(standardize(f.data).mean(axis=0, keepdims=True))


def structure_descriptor(l1: np.ndarray, l2: np.ndarray, cfg: PipelineConfig) -> FeatureMap:
    """Triple-constraint descriptor S from sorted eigenvalues, as a map with
    values in [0, 1] that is exactly 0 where l2 >= 0."""
    awareness = 1.0 - np.exp(-np.abs(l1) / (cfg.alpha_det + EPSILON))
    suppression = np.exp(-np.abs(l1 * l2) / (cfg.beta + EPSILON))
    mask = (l2 < 0.0).astype(np.float64)
    return FeatureMap(awareness * suppression * mask)


def compute_descriptor(f: FeatureMap, cfg: PipelineConfig) -> FeatureMap:
    """Full descriptor pipeline: normalize, compress, Hessian, eigen, S."""
    comp = normalize_and_compress(f)
    return structure_descriptor(*eigenvalues(*hessian_field(comp)), cfg)


def refine_gate(s: FeatureMap) -> FeatureMap:
    """sigmoid(G * S) with G the 3x3 Gaussian, a (0, 1) gate map."""
    return FeatureMap(sigmoid(conv2d(s, GAUSS_3X3[None, None]).data))


def detect(f_r: FeatureMap, cfg: PipelineConfig) -> FeatureMap:
    """Gate the input features by the refined structure descriptor."""
    gate = refine_gate(compute_descriptor(f_r, cfg))
    return FeatureMap(gate.data * f_r.data)
