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
the trainable scalars; eps is a module constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffops import eigenvalues, hessian_field
from .grid import GAUSS_3X3, FeatureMap, check_finite_settings, conv2d, sigmoid, standardize

EPSILON = 1e-8


@dataclass(frozen=True)
class DetectorParams:
    """The detector's two trainable scalars, both strictly positive."""

    alpha_det: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        check_finite_settings(self, "alpha_det", "beta")
        if self.alpha_det <= 0:
            raise ValueError("alpha_det must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def normalize_and_compress(f: FeatureMap) -> FeatureMap:
    """Standardize each channel over space, then average channels to one."""
    return FeatureMap(standardize(f.data).mean(axis=0, keepdims=True))


def structure_descriptor(l1: np.ndarray, l2: np.ndarray, p: DetectorParams) -> FeatureMap:
    """Triple-constraint descriptor S from sorted eigenvalues, as a map with
    values in [0, 1] that is exactly 0 where l2 >= 0."""
    awareness = 1.0 - np.exp(-np.abs(l1) / (p.alpha_det + EPSILON))
    suppression = np.exp(-np.abs(l1 * l2) / (p.beta + EPSILON))
    mask = (l2 < 0.0).astype(np.float64)
    return FeatureMap(awareness * suppression * mask)


def compute_descriptor(f: FeatureMap, p: DetectorParams) -> FeatureMap:
    """Full descriptor pipeline: normalize, compress, Hessian, eigen, S."""
    comp = normalize_and_compress(f)
    return structure_descriptor(*eigenvalues(*hessian_field(comp)), p)


def refine_gate(s: FeatureMap) -> FeatureMap:
    """sigmoid(G * S) with G the 3x3 Gaussian, a (0, 1) gate map."""
    return FeatureMap(sigmoid(conv2d(s, GAUSS_3X3[None, None]).data))


def detect(f_r: FeatureMap, p: DetectorParams) -> FeatureMap:
    """Gate the input features by the refined structure descriptor."""
    gate = refine_gate(compute_descriptor(f_r, p))
    return FeatureMap(gate.data * f_r.data)
