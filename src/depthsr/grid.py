"""Core grid containers plus patch, convolution, and resampling primitives.

All grids follow the (channels, height, width) convention with row-major
pixel order inside each channel. Operations are pure functions of their
inputs. FeatureMap and DepthMap are the checked containers passed between
stages; steps inside a stage pass plain ndarrays. A container's fields are
frozen, and its arrays are checked at construction but not copied (an
array already contiguous and of the right dtype is kept as is), so the
caller must not write to an array after wrapping it. `cubic_taps` (the
Catmull-Rom taps) and `standardize` serve every resampler and encoder,
so each rule is stated once.

What is computed per call and per shape: every 3x3 window user
(extract_patches, conv2d, the diffops stencils) copies its input once per
call into an edge-padded array, filled by slice assignment, and reads a
strided view of it. fold_patches' index plan (the pixel each patch element
came from, and each pixel's contribution count) depends only on (h, w), so
it is computed once per shape and kept, read-only, in a small cache; each
call sums one channel at a time over it. Every result is independent of
the thread count. The contractions here go through
``np.einsum``, which runs numpy's own one-thread loops, and fold_patches
sums with ``np.bincount``, which adds in input order. The one BLAS product,
the matcher's cosine GEMM, runs over fixed-shape tiles, and OpenBLAS splits
no dot product across threads (see the matcher docstring for the tests
that guard both).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def check_int_settings(settings, *names: str) -> None:
    """Reject a setting that is a bool or not an integer (a float such as
    4.0 included) with ValueError, before any range check; store a numpy
    integer as int."""
    for name in names:
        value = getattr(settings, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(settings, name, int(value))


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


def _windows(data: np.ndarray) -> np.ndarray:
    """The (c, h, w, 3, 3) view of every 3x3 window of a (c, h, w) array,
    centered on each pixel, with replicate border padding.

    The padded copy is filled by slice assignment: edge rows first, then
    edge columns from the padded rows, so the corners take the corner
    pixels. The view is read-only. It is built with the ndarray
    constructor, the same view as numpy's as_strided at a fifth of its
    per-call cost.
    """
    c, h, w = data.shape
    pad = np.empty((c, h + 2, w + 2), dtype=data.dtype)
    pad[:, 1:-1, 1:-1] = data
    pad[:, 0, 1:-1] = data[:, 0]
    pad[:, -1, 1:-1] = data[:, -1]
    pad[:, :, 0] = pad[:, :, 1]
    pad[:, :, -1] = pad[:, :, -2]
    _, row, col = pad.strides
    shape = (c, h, w, PATCH_SIZE, PATCH_SIZE)
    view = np.ndarray(shape, pad.dtype, pad, 0, pad.strides + (row, col))
    view.setflags(write=False)
    return view


def extract_patches(f: FeatureMap) -> np.ndarray:
    """Every 3x3 patch at stride 1 with replicate border padding, as (h*w, 9*c).

    Row i is the patch centered at pixel i (row-major); each row stores
    channel-major blocks, each a row-major 3x3 window.
    """
    c, h, w = f.shape
    vec = _windows(f.data).transpose(1, 2, 0, 3, 4).reshape(h * w, c * PATCH_SIZE * PATCH_SIZE)
    return np.ascontiguousarray(vec)


def fold_patches(vectors: np.ndarray, shape: tuple[int, int, int]) -> FeatureMap:
    """Overlap-add (h*w, 9*c) patch rows onto a (c, h, w) grid, averaging by
    contribution count.

    The adjoint of extract_patches: each patch element is added to the pixel
    it was read from (the 3x3 windows of the pixel-index plane), then divided
    by the per-pixel contribution count, so fold_patches(extract_patches(f),
    f.shape) returns f. Rows that already carry selection weights fold the
    same way. Sums run offset-major, then over patches in row-major order.
    """
    c, h, w = shape
    src, counts = _fold_plan(h, w)
    # One channel's elements at a time, offset-major as `src` lists them.
    vals = vectors.reshape(h * w, c, PATCH_SIZE * PATCH_SIZE)
    acc = np.empty(shape)
    for ch in range(c):
        acc[ch] = np.bincount(src, weights=vals[:, ch].T.ravel(), minlength=h * w).reshape(h, w)
    acc /= counts
    return FeatureMap(acc)


@lru_cache(maxsize=16)
def _fold_plan(h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """fold_patches' index plan for an h x w grid, computed once per shape:
    the pixel each patch element was read from (offset-major, then patches
    in row-major order) and each pixel's (h, w) contribution count. Both
    arrays are read-only."""
    n = h * w
    src = _windows(np.arange(n).reshape(1, h, w))[0].transpose(2, 3, 0, 1).ravel()
    counts = np.bincount(src, minlength=n).reshape(h, w)
    src.setflags(write=False)
    counts.setflags(write=False)
    return src, counts


def conv2d(f: FeatureMap, kernels) -> FeatureMap:
    """Cross-correlate with a fixed (c_out, c_in, 3, 3) kernel stack.

    Replicate padding keeps the output spatial size equal to the input's.
    """
    k = np.asarray(kernels, dtype=np.float64)
    if k.ndim != 4 or k.shape[1:] != (f.channels, PATCH_SIZE, PATCH_SIZE):
        raise ValueError(f"kernels must have shape (c_out, {f.channels}, 3, 3), got {k.shape}")
    return FeatureMap(np.einsum("ihwyx,oiyx->ohw", _windows(f.data), k))


def standardize(data: np.ndarray) -> np.ndarray:
    """Shift each channel of a (c, h, w) array to zero mean and scale it to
    unit standard deviation over space; a constant channel maps to zeros."""
    mean = data.mean(axis=(1, 2), keepdims=True)
    std = data.std(axis=(1, 2), keepdims=True)
    return (data - mean) / (std + 1e-8)


def _sample_centers(n: int, out_n: int) -> np.ndarray:
    """Source coordinates of the centers of `out_n` samples spanning `n`."""
    return (np.arange(out_n, dtype=np.float64) + 0.5) * (n / out_n) - 0.5


def cubic_taps(src, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Catmull-Rom (a = -0.5) taps of float coordinates `src` on an axis of
    `n` samples: the four indices around floor(src), clipped to [0, n) for
    replicate borders, and their weights, each of shape src.shape + (4,)."""
    src = np.asarray(src, dtype=np.float64)
    base = np.floor(src)
    t = src - base
    t2 = t * t
    t3 = t2 * t
    weights = np.stack(
        (
            -0.5 * t3 + t2 - 0.5 * t,
            1.5 * t3 - 2.5 * t2 + 1.0,
            -1.5 * t3 + 2.0 * t2 + 0.5 * t,
            0.5 * t3 - 0.5 * t2,
        ),
        axis=-1,
    )
    return np.clip(base[..., None].astype(np.int64) + np.arange(-1, 3), 0, n - 1), weights


def _resample_axis(arr: np.ndarray, out_n: int) -> np.ndarray:
    """Catmull-Rom resample along the last axis to out_n samples."""
    idx, w = cubic_taps(_sample_centers(arr.shape[-1], out_n), arr.shape[-1])
    return np.einsum("...ot,ot->...o", arr[..., idx], w)


def _nearest_indices(n: int, out_n: int) -> np.ndarray:
    return np.clip(np.rint(_sample_centers(n, out_n)).astype(np.int64), 0, n - 1)


def _target_size(n: int, scale: float) -> int:
    out = int(round(n * scale))
    if out < 1:
        raise ValueError(f"resample target size must be positive, got {out}")
    return out


def _bicubic(data: np.ndarray, scale: float) -> np.ndarray:
    """Separable Catmull-Rom resample of a (c, h, w) array by `scale`."""
    _, h, w = data.shape
    oh, ow = _target_size(h, scale), _target_size(w, scale)
    tmp = _resample_axis(data, ow)
    return np.ascontiguousarray(_resample_axis(tmp.swapaxes(1, 2), oh).swapaxes(1, 2))


def bicubic_resample(image, scale: float):
    """Resample a FeatureMap or DepthMap by a positive scale factor.

    Values use Catmull-Rom bicubic sampling with replicate borders; a
    DepthMap's validity mask is resampled by nearest neighbor and valid
    depths are clamped to stay positive against cubic undershoot.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if isinstance(image, FeatureMap):
        return FeatureMap(_bicubic(image.data, scale))
    if isinstance(image, DepthMap):
        depth = _bicubic(image.depth[None], scale)[0]
        (h, w), (oh, ow) = image.depth.shape, depth.shape
        valid = image.valid[np.ix_(_nearest_indices(h, oh), _nearest_indices(w, ow))]
        return DepthMap(np.where(valid, np.maximum(depth, MIN_DEPTH_M), depth), valid)
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
