"""Core grid containers plus patch, convolution, and resampling primitives.

All grids follow the (channels, height, width) convention with row-major
pixel order inside each channel. Operations are pure functions of their
inputs; containers are immutable once built and safe to share between
threads. Every result is independent of worker/thread count: the heavy
contractions go through ``np.einsum`` with a fixed accumulation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

PATCH_SIZE = 3

# Smallest depth (meters) a valid pixel may carry; predictions and noisy
# inputs are clamped here so validity always implies a positive depth.
MIN_DEPTH_M = 1e-6

# Read-only 3x3 Gaussian of the filter bank, the checker preset and the gate.
GAUSS_3X3 = np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 2.0], [1.0, 2.0, 1.0]]) / 16.0
GAUSS_3X3.setflags(write=False)


class NonFiniteError(ValueError):
    """Raised when NaN or Inf values would enter a grid container."""


def check_finite_settings(settings, *names: str) -> None:
    """Reject a NaN or +-Inf setting with ValueError, before any range check."""
    for name in names:
        value = getattr(settings, name)
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _finite_array(data, what: str, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(data, dtype=dtype))
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{what} contains NaN or Inf values")
    return arr


@dataclass(frozen=True)
class FeatureMap:
    """Dense c x h x w grid of finite real values."""

    data: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.data, "FeatureMap")
        if arr.ndim != 3:
            raise ValueError(f"FeatureMap expects 3d (c,h,w) data, got {arr.ndim}d")
        if min(arr.shape) < 1:
            raise ValueError("FeatureMap dimensions must be positive")
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @staticmethod
    def from_plane(plane) -> "FeatureMap":
        """Wrap a single (h, w) plane as a one-channel map."""
        return FeatureMap(np.asarray(plane, dtype=np.float64)[None, :, :])


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel depth in meters plus a validity mask.

    Valid pixels carry finite, strictly positive depth; invalid pixels are
    excluded from every loss and metric.
    """

    depth: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        depth = _finite_array(self.depth, "DepthMap.depth")
        if depth.ndim != 2:
            raise ValueError("DepthMap expects 2d (h,w) depth")
        valid = np.ascontiguousarray(np.asarray(self.valid, dtype=bool))
        if valid.shape != depth.shape:
            raise ValueError("DepthMap validity mask shape mismatch")
        if np.any(valid & (depth <= 0.0)):
            raise ValueError("valid pixels must have positive depth")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "valid", valid)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]

    @staticmethod
    def all_valid(depth) -> "DepthMap":
        depth = np.asarray(depth, dtype=np.float64)
        return DepthMap(depth, np.ones(depth.shape, dtype=bool))

    def as_feature(self) -> FeatureMap:
        """View the depth plane as a one-channel FeatureMap."""
        return FeatureMap.from_plane(self.depth)


@dataclass(frozen=True)
class PatchSet:
    """All 3x3 patches of a map, one flattened 9*c vector per pixel.

    Patch i is centered at pixel i (row-major); vectors store channel-major
    blocks, each a row-major 3x3 window with replicate border padding.
    """

    vectors: np.ndarray
    channels: int
    height: int
    width: int

    def __post_init__(self):
        vec = _finite_array(self.vectors, "PatchSet")
        n = self.height * self.width
        d = PATCH_SIZE * PATCH_SIZE * self.channels
        if vec.shape != (n, d):
            raise ValueError(f"PatchSet expects shape {(n, d)}, got {vec.shape}")
        object.__setattr__(self, "vectors", vec)

    @property
    def count(self) -> int:
        return self.height * self.width


def extract_patches(f: FeatureMap) -> PatchSet:
    """Extract every 3x3 patch at stride 1 with replicate border padding."""
    c, h, w = f.shape
    pad = np.pad(f.data, ((0, 0), (1, 1), (1, 1)), mode="edge")
    win = sliding_window_view(pad, (PATCH_SIZE, PATCH_SIZE), axis=(1, 2))
    vec = win.transpose(1, 2, 0, 3, 4).reshape(h * w, c * PATCH_SIZE * PATCH_SIZE)
    return PatchSet(np.ascontiguousarray(vec), c, h, w)


def fold_patches(p: PatchSet) -> FeatureMap:
    """Overlap-add patches back onto the grid, averaging by contribution count.

    Each patch element is accumulated at the pixel it was read from under
    replicate-border geometry, then divided by the per-pixel contribution
    count, so fold(extract(f)) returns f. Vectors that already carry
    selection weights fold the same way.
    """
    c, h, w = p.channels, p.height, p.width
    vec = p.vectors.reshape(h, w, c, PATCH_SIZE, PATCH_SIZE)
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


def conv2d(f: FeatureMap, kernels, stride: int = 1) -> FeatureMap:
    """Cross-correlate with a fixed (c_out, c_in, kh, kw) kernel stack.

    Replicate padding keeps output spatial size at ceil(input / stride).
    """
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 4:
        raise ValueError("kernels must have shape (c_out, c_in, kh, kw)")
    c_out, c_in, kh, kw = k.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernel spatial size must be odd")
    if c_in != f.channels:
        raise ValueError(f"kernel expects {c_in} input channels, map has {f.channels}")
    if stride < 1:
        raise ValueError("stride must be positive")
    ph, pw = kh // 2, kw // 2
    pad = np.pad(f.data, ((0, 0), (ph, ph), (pw, pw)), mode="edge")
    win = sliding_window_view(pad, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out = np.einsum("ihwyx,oiyx->ohw", win, k)
    return FeatureMap(out)


def _cubic_weights(t: np.ndarray) -> np.ndarray:
    # Catmull-Rom (a = -0.5) weights for the four taps around floor(src).
    t2 = t * t
    t3 = t2 * t
    return np.stack(
        (
            -0.5 * t3 + t2 - 0.5 * t,
            1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t,
            0.5 * t3 - 0.5 * t2,
        ),
        axis=-1,
    )


def _resample_axis(arr: np.ndarray, out_n: int) -> np.ndarray:
    """Catmull-Rom resample along the last axis to out_n samples."""
    n = arr.shape[-1]
    ratio = n / out_n
    src = (np.arange(out_n, dtype=np.float64) + 0.5) * ratio - 0.5
    base = np.floor(src)
    t = src - base
    idx = np.clip(base[:, None].astype(np.int64) + np.arange(-1, 3), 0, n - 1)
    w = _cubic_weights(t)
    return np.einsum("...ot,ot->...o", arr[..., idx], w)


def _nearest_indices(n: int, out_n: int) -> np.ndarray:
    src = (np.arange(out_n, dtype=np.float64) + 0.5) * (n / out_n) - 0.5
    return np.clip(np.rint(src).astype(np.int64), 0, n - 1)


def _target_size(n: int, scale: float) -> int:
    out = int(round(n * scale))
    if out < 1:
        raise ValueError(f"resample target size must be positive, got {out}")
    return out


def bicubic_resample(image, scale: float):
    """Resample a FeatureMap or DepthMap by a positive scale factor.

    Values use Catmull-Rom bicubic sampling with replicate borders; a
    DepthMap's validity mask is resampled by nearest neighbor and valid
    depths are clamped to stay positive against cubic undershoot.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if isinstance(image, FeatureMap):
        c, h, w = image.shape
        oh, ow = _target_size(h, scale), _target_size(w, scale)
        tmp = _resample_axis(image.data, ow)
        out = _resample_axis(tmp.swapaxes(1, 2), oh).swapaxes(1, 2)
        return FeatureMap(np.ascontiguousarray(out))
    if isinstance(image, DepthMap):
        h, w = image.depth.shape
        oh, ow = _target_size(h, scale), _target_size(w, scale)
        tmp = _resample_axis(image.depth[None], ow)
        depth = _resample_axis(tmp.swapaxes(1, 2), oh).swapaxes(1, 2)[0]
        valid = image.valid[np.ix_(_nearest_indices(h, oh), _nearest_indices(w, ow))]
        depth = np.where(valid, np.maximum(depth, MIN_DEPTH_M), depth)
        return DepthMap(np.ascontiguousarray(depth), valid)
    raise TypeError(f"cannot resample {type(image).__name__}")


def pixel_shuffle(f: FeatureMap, scale: int) -> FeatureMap:
    """Depth-to-space: (s*s*c', h, w) -> (c', s*h, s*w).

    output(ch, y*s+dy, x*s+dx) = input(ch*s*s + dy*s + dx, y, x).
    """
    if scale < 1:
        raise ValueError("scale must be positive")
    c, h, w = f.shape
    if c % (scale * scale) != 0:
        raise ValueError(f"channels {c} not divisible by scale^2 = {scale * scale}")
    cc = c // (scale * scale)
    out = (
        f.data.reshape(cc, scale, scale, h, w)
        .transpose(0, 3, 1, 4, 2)
        .reshape(cc, h * scale, w * scale)
    )
    return FeatureMap(np.ascontiguousarray(out))


def pixel_unshuffle(f: FeatureMap, scale: int) -> FeatureMap:
    """Space-to-depth, the exact inverse of :func:`pixel_shuffle`."""
    if scale < 1:
        raise ValueError("scale must be positive")
    c, h, w = f.shape
    if h % scale != 0 or w % scale != 0:
        raise ValueError("spatial dims must be divisible by scale")
    out = (
        f.data.reshape(c, h // scale, scale, w // scale, scale)
        .transpose(0, 2, 4, 1, 3)
        .reshape(c * scale * scale, h // scale, w // scale)
    )
    return FeatureMap(np.ascontiguousarray(out))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out
