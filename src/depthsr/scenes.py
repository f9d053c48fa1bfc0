"""Synthetic RGB-D scenes with controlled misalignment.

Depth is rendered from piecewise geometry presets; RGB is rendered from a
camera shifted by (dx, dy) pixels and rotated by a few degrees, so the true
misalignment is known exactly and can be checked by matching oracles. The
LR depth is a bicubic downsample of the GT depth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GAUSS_3X3, DepthMap, FeatureMap, bicubic_resample, check_finite_settings, conv2d, cubic_taps
from .losses import add_noise

PRESETS = ("planes", "boxes", "ridge", "checker")

MAX_ROTATION_DEG = 10.0

# Per-preset procedural texture weight in the rendered gray image; the
# ridge preset keeps texture low so curvature is dominated by geometry.
_TEXTURE_WEIGHT = {"planes": 0.20, "boxes": 0.18, "ridge": 0.06, "checker": 0.12}

_CHECKER_CELLS = 8


@dataclass(frozen=True)
class SceneSpec:
    """HR geometry, misalignment, texture, and degradation settings."""

    width: int = 64
    height: int = 64
    scale: int = 4
    dx: float = 4.0
    dy: float = 3.0
    rotation_deg: float = 0.0
    texture_seed: int = 7
    noise_sigma: float = 0.07
    preset: str = "boxes"

    def __post_init__(self):
        check_finite_settings(self, "dx", "dy", "rotation_deg", "noise_sigma")
        if self.width < 1 or self.height < 1:
            raise ValueError("scene dimensions must be positive")
        if self.scale < 1:
            raise ValueError("scale must be positive")
        if self.width % self.scale or self.height % self.scale:
            raise ValueError(
                f"HR dims {self.height}x{self.width} not divisible by scale {self.scale}"
            )
        if abs(self.rotation_deg) > MAX_ROTATION_DEG:
            raise ValueError(f"|rotation| must be <= {MAX_ROTATION_DEG} degrees")
        if self.noise_sigma < 0:
            raise ValueError("noise sigma must be non-negative")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")


@dataclass(frozen=True)
class Scene:
    """Scene: RGB, GT depth, LR depth; a rendered one adds its spec and noisy LR depth."""

    rgb: FeatureMap
    d_gt: DepthMap
    d_lr: DepthMap
    d_lr_noisy: DepthMap | None = None
    spec: SceneSpec | None = None


def _unit_grid(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    v = (np.arange(height, dtype=np.float64)[:, None] + 0.5) / height
    u = (np.arange(width, dtype=np.float64)[None, :] + 0.5) / width
    return np.broadcast_to(v, (height, width)), np.broadcast_to(u, (height, width))


def _ridge_center_u(v: np.ndarray) -> np.ndarray:
    return 0.5 + 0.10 * np.sin(2.0 * math.pi * 0.75 * v + 0.6)


def render_depth(preset: str, height: int, width: int) -> np.ndarray:
    """Depth plane in meters for a geometry preset."""
    if preset not in PRESETS:
        raise ValueError(f"unknown preset {preset!r}")
    v, u = _unit_grid(height, width)
    if preset == "planes":
        depth = 2.6 - 0.8 * u - 0.5 * v
        quad = (u >= 0.30) & (u < 0.70) & (v >= 0.25) & (v < 0.65)
        depth = np.where(quad, 1.4 + 0.3 * u, depth)
        return depth
    if preset == "boxes":
        # Slanted faces plus smooth deterministic relief keep patches locally
        # distinctive; perfectly planar faces make matching ties degenerate.
        depth = 3.0 + 0.30 * u + 0.20 * v
        rects = (
            (0.15, 0.45, 0.20, 0.50, 1.2 + 0.25 * u - 0.15 * v),
            (0.55, 0.85, 0.15, 0.45, 1.8 - 0.20 * u + 0.25 * v),
            (0.25, 0.55, 0.60, 0.85, 2.2 + 0.15 * u + 0.20 * v),
        )
        for u0, u1, v0, v1, face in rects:
            inside = (u >= u0) & (u < u1) & (v >= v0) & (v < v1)
            depth = np.where(inside, face, depth)
        relief = value_noise(height, width, max(3, width // 12), seed=101)
        # Taper the relief near borders: a shifted view has no true
        # counterpart there, so border patches should stay low-gradient.
        yy = np.arange(height, dtype=np.float64)[:, None]
        xx = np.arange(width, dtype=np.float64)[None, :]
        dist = np.minimum(np.minimum(yy, height - 1 - yy), np.minimum(xx, width - 1 - xx))
        window = np.minimum(1.0, dist / 8.0)
        return depth + 0.16 * (relief - 0.5) * window
    if preset == "ridge":
        # Scenes shade farther-as-brighter, so the crest sits farther than
        # its surroundings and renders bright; the gentle dome keeps the
        # along-crest brightness curvature slightly negative so the crest
        # reads as structure, not a perfectly flat line.
        dome = np.exp(-(((u - 0.5) ** 2 + (v - 0.5) ** 2)) / (2 * 0.32**2))
        dist_px = (u - _ridge_center_u(v)) * width
        bump = np.exp(-(dist_px**2) / (2.0 * 2.0**2))
        return 2.0 + 0.5 * dome + 0.9 * bump
    # checker: slightly smoothed so curvature is well defined at corners
    cell_u = np.floor(u * _CHECKER_CELLS).astype(int)
    cell_v = np.floor(v * _CHECKER_CELLS).astype(int)
    pattern = ((cell_u + cell_v) % 2).astype(np.float64)
    depth = 2.0 + 0.3 * (2.0 * pattern - 1.0)
    return conv2d(FeatureMap.from_plane(depth), GAUSS_3X3[None, None]).data[0]


def sample_bicubic(plane: np.ndarray, ys: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Catmull-Rom sample a plane at float coordinates, replicate outside."""
    h, w = plane.shape
    iy, wy = cubic_taps(ys, h)
    ix, wx = cubic_taps(xs, w)
    taps = plane[iy[..., :, None], ix[..., None, :]]
    return np.einsum("...yx,...y,...x->...", taps, wy, wx)


def value_noise(height: int, width: int, cell: int, seed: int) -> np.ndarray:
    """Smooth seeded noise in [0, 1] from a bicubic-upsampled random grid."""
    if cell < 1:
        raise ValueError("cell must be positive")
    rng = np.random.default_rng(seed)
    grid = rng.uniform(0.0, 1.0, size=(height // cell + 3, width // cell + 3))
    ys = (np.arange(height, dtype=np.float64)[:, None] + 0.5) / cell + 0.5
    xs = (np.arange(width, dtype=np.float64)[None, :] + 0.5) / cell + 0.5
    ys, xs = np.broadcast_arrays(ys, xs)
    return np.clip(sample_bicubic(grid, ys, xs), 0.0, 1.0)


def shade(depth: np.ndarray, d_min: float, d_max: float) -> np.ndarray:
    """Depth-proportional shading in [0, 1] (farther is brighter).

    Linear in depth so rendered brightness correlates positively with the
    depth modality after standardization; cross-modal matching depends on
    that polarity.
    """
    if d_max - d_min < 1e-9:
        return np.full(depth.shape, 0.5)
    return np.clip((depth - d_min) / (d_max - d_min), 0.0, 1.0)


def render_scene(spec: SceneSpec) -> Scene:
    """Render GT depth, misaligned RGB, and the bicubic LR depth."""
    h, w = spec.height, spec.width
    depth = render_depth(spec.preset, h, w)

    # RGB pixels look up scene content at the inverse camera transform, so
    # features appear shifted by (+dx, +dy) and rotated in the RGB image.
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(spec.rotation_deg)
    oy, ox = yy - cy - spec.dy, xx - cx - spec.dx
    src_y = math.cos(th) * oy + math.sin(th) * ox + cy
    src_x = -math.sin(th) * oy + math.cos(th) * ox + cx

    depth_view = sample_bicubic(depth, src_y, src_x)
    tex = value_noise(h, w, max(4, w // 8), spec.texture_seed)
    tex_view = sample_bicubic(tex, src_y, src_x)

    tw = _TEXTURE_WEIGHT[spec.preset]
    gray = np.clip(
        (1.0 - tw) * shade(depth_view, float(depth.min()), float(depth.max()))
        + tw * tex_view,
        0.0,
        1.0,
    )
    rgb = FeatureMap(
        np.clip(np.stack((gray, 0.94 * gray + 0.03, 0.88 * gray + 0.02)), 0.0, 1.0)
    )

    d_gt = DepthMap.all_valid(depth)
    d_lr = bicubic_resample(d_gt, 1.0 / spec.scale)
    noisy = None
    if spec.noise_sigma > 0:
        noisy = add_noise(d_lr, spec.noise_sigma, spec.texture_seed)
    return Scene(rgb=rgb, d_gt=d_gt, d_lr=d_lr, d_lr_noisy=noisy, spec=spec)


def ridge_masks(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(crest, flat-background) masks for the ridge preset geometry."""
    v, u = _unit_grid(height, width)
    dist_px = np.abs((u - _ridge_center_u(v)) * width)
    crest = dist_px <= 1.5
    border = max(2, width // 16)
    interior = np.zeros((height, width), dtype=bool)
    interior[border:-border, border:-border] = True
    flat = (dist_px >= 10.0) & interior
    return crest, flat
