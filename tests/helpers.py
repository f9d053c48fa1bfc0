"""Scene and config helpers that only the tests use."""

import numpy as np

from depthsr.fusion import PipelineConfig, rgb_order_maps
from depthsr.grid import DepthMap, FeatureMap
from depthsr.matcher import match_order
from depthsr.scenes import _CHECKER_CELLS, _unit_grid, render_depth, shade, value_noise


def tiny_config(**kwargs) -> PipelineConfig:
    """A quick config: 2 channels and 2 iterations unless given."""
    return PipelineConfig(**{"channels": 2, "moma_iters": 2, **kwargs})


def match_pair(target: FeatureMap, source: FeatureMap, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) of two maps of one shape: match_order at zero order."""
    return match_order(rgb_order_maps(source, PipelineConfig(orders=("zero",))), target, "zero", k)


def textured_map(h: int, w: int, c: int = 1, seed: int = 0) -> FeatureMap:
    """A c-channel value-noise map, one seed per channel."""
    return FeatureMap(np.stack([value_noise(h, w, 3, seed + i) for i in range(c)]))


def shift_plane(plane: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift content by (+dy, +dx) pixels with replicate borders."""
    h, w = plane.shape
    ys = np.clip(np.arange(h) - dy, 0, h - 1)
    xs = np.clip(np.arange(w) - dx, 0, w - 1)
    return plane[np.ix_(ys, xs)]


def render_shifted_pair(
    preset: str,
    height: int,
    width: int,
    dy: int,
    dx: int,
    texture_weight: float = 0.15,
    seed: int = 11,
) -> tuple[DepthMap, FeatureMap]:
    """LR-resolution depth plus an RGB view of the same scene shifted by
    (+dy, +dx) integer pixels; the shift is the ground-truth misalignment."""
    depth = render_depth(preset, height, width)
    view = shift_plane(depth, dy, dx)
    tex = value_noise(height, width, max(4, width // 6), seed)
    gray = np.clip(
        (1.0 - texture_weight) * shade(view, float(depth.min()), float(depth.max()))
        + texture_weight * tex,
        0.0,
        1.0,
    )
    rgb = FeatureMap(np.clip(np.stack((gray, 0.94 * gray + 0.03, 0.88 * gray + 0.02)), 0.0, 1.0))
    return DepthMap.all_valid(depth), rgb


def checker_corner_mask(height: int, width: int) -> np.ndarray:
    """Pixels near the cell junctions of the checker preset."""
    v, u = _unit_grid(height, width)
    fu = u * _CHECKER_CELLS
    fv = v * _CHECKER_CELLS
    du = np.abs(fu - np.rint(fu)) * (width / _CHECKER_CELLS)
    dv = np.abs(fv - np.rint(fv)) * (height / _CHECKER_CELLS)
    corners = (du <= 1.5) & (dv <= 1.5)
    # Junctions on the image border are not proper corners.
    inner = (fu > 0.5) & (fu < _CHECKER_CELLS - 0.5) & (fv > 0.5) & (fv < _CHECKER_CELLS - 0.5)
    return corners & inner
