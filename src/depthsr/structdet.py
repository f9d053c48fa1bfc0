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

from .diffops import EigenField, eigenvalues, hessian_field
from .grid import GAUSS_3X3, FeatureMap, check_finite_settings, conv2d, sigmoid

EPSILON = 1e-8
_STD_GUARD = 1e-8


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


@dataclass(frozen=True)
class StructureDescriptor:
    """Single-channel descriptor S with 0 <= S <= 1, S = 0 where l2 >= 0."""

    s: FeatureMap

    def __post_init__(self):
        if self.s.channels != 1:
            raise ValueError("descriptor must be single channel")
        if self.s.data.min() < 0.0 or self.s.data.max() > 1.0:
            raise ValueError("descriptor values must lie in [0, 1]")


def normalize_and_compress(f: FeatureMap) -> FeatureMap:
    """Standardize each channel over space, then average channels to one."""
    data = f.data
    mean = data.mean(axis=(1, 2), keepdims=True)
    std = data.std(axis=(1, 2), keepdims=True)
    norm = (data - mean) / (std + _STD_GUARD)
    return FeatureMap(norm.mean(axis=0, keepdims=True))


def structure_descriptor(eig: EigenField, p: DetectorParams) -> StructureDescriptor:
    """Evaluate the triple-constraint descriptor from sorted eigenvalues."""
    l1 = eig.lambda1.data
    l2 = eig.lambda2.data
    awareness = 1.0 - np.exp(-np.abs(l1) / (p.alpha_det + EPSILON))
    suppression = np.exp(-np.abs(l1 * l2) / (p.beta + EPSILON))
    mask = (l2 < 0.0).astype(np.float64)
    return StructureDescriptor(FeatureMap(awareness * suppression * mask))


def compute_descriptor(f: FeatureMap, p: DetectorParams) -> StructureDescriptor:
    """Full descriptor pipeline: normalize, compress, Hessian, eigen, S."""
    comp = normalize_and_compress(f)
    return structure_descriptor(eigenvalues(hessian_field(comp)), p)


def refine_gate(descriptor: StructureDescriptor) -> FeatureMap:
    """sigmoid(G * S) with G the 3x3 Gaussian, a (0, 1) gate map."""
    return FeatureMap(sigmoid(conv2d(descriptor.s, GAUSS_3X3[None, None]).data))


def detect(f_r: FeatureMap, p: DetectorParams) -> FeatureMap:
    """Gate the input features by the refined structure descriptor."""
    gate = refine_gate(compute_descriptor(f_r, p))
    return FeatureMap(gate.data * f_r.data)
