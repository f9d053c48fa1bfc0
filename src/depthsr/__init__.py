"""Alignment-free guided depth super-resolution via multi-order matching."""

from .diffops import eigenvalues, gradient_magnitude, hessian_field, hessian_norm
from .fusion import PipelineConfig, encode_depth, encode_rgb, reconstruct, run_pipeline
from .grid import (
    DepthMap,
    FeatureMap,
    NonFiniteError,
    bicubic_resample,
    conv2d,
    extract_patches,
    fold_patches,
    pixel_shuffle,
    pixel_unshuffle,
)
from .losses import LossReport, add_noise, loss_total, rmse_cm
from .matcher import match_order, matching_selection, top_k
from .structdet import compute_descriptor, detect, normalize_and_compress, structure_descriptor
from .trainer import DivergenceError, FitResult, TrainConfig, fit
from .scenes import Scene, SceneSpec, render_scene

__version__ = "0.1.0"

__all__ = [
    "DepthMap",
    "DivergenceError",
    "FeatureMap",
    "FitResult",
    "LossReport",
    "NonFiniteError",
    "PipelineConfig",
    "Scene",
    "SceneSpec",
    "TrainConfig",
    "add_noise",
    "bicubic_resample",
    "compute_descriptor",
    "conv2d",
    "detect",
    "eigenvalues",
    "encode_depth",
    "encode_rgb",
    "extract_patches",
    "fit",
    "fold_patches",
    "gradient_magnitude",
    "hessian_field",
    "hessian_norm",
    "loss_total",
    "match_order",
    "matching_selection",
    "normalize_and_compress",
    "pixel_shuffle",
    "pixel_unshuffle",
    "reconstruct",
    "render_scene",
    "rmse_cm",
    "run_pipeline",
    "structure_descriptor",
    "top_k",
]
