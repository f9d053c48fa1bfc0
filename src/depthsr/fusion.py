"""End-to-end fusion pipeline: encoders, iterative matching/aggregation,
and residual reconstruction.

Both encoders standardize their input plane and apply the same fixed 3x3
filter bank, so RGB and depth features live on a comparable scale across
modalities. Each iteration matches RGB to the current depth features in up
to three orders, gates the matched features with the structure detector,
and fuses everything through a 1x1 linear map; the head predicts a
pixel-shuffled residual over bicubic upsampling, so an untrained model
reproduces bicubic exactly.

Per run: one rgb_maps value (rgb_order_maps), the RGB features under
"zero" and their order map for every enabled order, which no iteration
changes. Per iteration: the depth-side order maps and each order's
(eta, psi) (order_matches), the selection at those matches with the
detector gating (gated_blocks) and the 1x1 fuse (aggregate). The gating
and the fuse are separate stages so that a caller holding fixed matches
and detector scalars, such as the trainer's first iteration, can select
and gate once and fuse many weight settings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import GAUSS_3X3, MIN_DEPTH_M, DepthMap, FeatureMap, bicubic_resample, check_finite_settings, conv2d, pixel_shuffle, sigmoid, standardize
from .losses import DEFAULT_ALPHA_LOSS
from .matcher import ORDERS, match_order, matching_selection, order_map
from .structdet import detect

SCALES = (4, 8, 16)
MAX_CHANNELS = 8
_WEIGHTS = ("w_fuse", "w_head")


def filter_bank(channels: int) -> np.ndarray:
    """First `channels` of the fixed bank: identity, Gaussian, Sobel-x,
    Sobel-y, Laplacian, two oriented edges, box."""
    if not 1 <= channels <= MAX_CHANNELS:
        raise ValueError(f"filter bank provides 1..{MAX_CHANNELS} channels")
    ident = np.zeros((3, 3))
    ident[1, 1] = 1.0
    sobel_x = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]]) / 8.0
    sobel_y = sobel_x.T.copy()
    laplace = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])
    diag_a = np.array([[2.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, -1.0, -2.0]]) / 8.0
    diag_b = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 1.0], [-2.0, -1.0, 0.0]]) / 8.0
    box = np.ones((3, 3)) / 9.0
    bank = np.stack((ident, GAUSS_3X3, sobel_x, sobel_y, laplace, diag_a, diag_b, box))
    return bank[:channels, None, :, :]


@dataclass(frozen=True)
class PipelineConfig:
    """All pipeline knobs in one flat value: scale, feature width, matching
    orders, the detector and its scalars alpha_det and beta (finite and
    positive), the weights and alpha_loss. Each field is one config key.

    A value: every field is checked at construction and none can be
    assigned afterwards; the weight matrices are read-only float64 copies.
    Derive a variant with `dataclasses.replace`, which checks it again.
    Equal configs have equal fields and element-wise equal weights, and
    hash alike, so a config can key a dict. A pickled config comes back
    through the constructor, so it is an equal value with read-only weights.
    """

    scale: int = 4
    channels: int = 8
    k: int = 4
    moma_iters: int = 3
    orders: tuple[str, ...] = ORDERS
    detector: bool = True
    alpha_det: float = 1.0
    beta: float = 1.0
    w_fuse: np.ndarray | None = None
    w_head: np.ndarray | None = None
    alpha_loss: float = DEFAULT_ALPHA_LOSS

    def __post_init__(self):
        if self.scale not in SCALES:
            raise ValueError(f"scale must be one of {SCALES}")
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise ValueError(f"channels must be in 1..{MAX_CHANNELS}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.moma_iters < 1:
            raise ValueError("moma_iters must be at least 1")
        check_finite_settings(self, "alpha_det", "beta", "alpha_loss")
        if self.alpha_det <= 0:
            raise ValueError("alpha_det must be positive")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.alpha_loss < 0:
            raise ValueError("alpha_loss must be non-negative")
        unknown = set(self.orders) - set(ORDERS)
        if unknown:
            raise ValueError(f"unknown orders {sorted(unknown)}")
        object.__setattr__(self, "orders", tuple(o for o in ORDERS if o in self.orders))
        c = self.channels
        w_fuse = default_fuse_weights(c) if self.w_fuse is None else self.w_fuse
        w_head = default_head_weights(self.scale, c) if self.w_head is None else self.w_head
        object.__setattr__(self, "w_fuse", _weight_matrix(w_fuse, (c, 4 * c), "w_fuse"))
        object.__setattr__(
            self, "w_head", _weight_matrix(w_head, (self.scale * self.scale, c), "w_head")
        )

    def _scalars(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.name not in _WEIGHTS)

    def __eq__(self, other):
        if not isinstance(other, PipelineConfig):
            return NotImplemented
        return self._scalars() == other._scalars() and all(
            np.array_equal(getattr(self, w), getattr(other, w)) for w in _WEIGHTS
        )

    def __hash__(self):
        # Weights stay out: configs equal under np.array_equal hash alike.
        return hash(self._scalars())

    def __reduce__(self):
        # Unpickle (and copy) through the constructor, which checks the
        # fields and makes the weights read-only again.
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _weight_matrix(value, shape: tuple[int, int], name: str) -> np.ndarray:
    """A read-only float64 copy of `value`, checked against `shape`."""
    matrix = np.array(value, dtype=np.float64, order="C")
    if matrix.shape != shape:
        raise ValueError(f"{name} must have shape {shape}")
    matrix.setflags(write=False)
    return matrix


def default_fuse_weights(channels: int) -> np.ndarray:
    """Identity skip on the depth block, zeros on the three RGB blocks."""
    return np.concatenate(
        [np.eye(channels), np.zeros((channels, 3 * channels))], axis=1
    )


def default_head_weights(scale: int, channels: int) -> np.ndarray:
    """Zero residual head: the untrained pipeline reproduces bicubic."""
    return np.zeros((scale * scale, channels))


def bank_features(plane: np.ndarray, channels: int) -> FeatureMap:
    """Standardize a single plane and apply the fixed filter bank."""
    std = standardize(np.asarray(plane, dtype=np.float64)[None])
    return conv2d(FeatureMap(std), filter_bank(channels))


def encode_rgb(img: FeatureMap, scale: int, channels: int) -> FeatureMap:
    """Grayscale, bicubic-downsample by `scale`, then the fixed bank."""
    if img.channels != 3:
        raise ValueError(f"RGB image needs 3 channels, got {img.channels}")
    if scale < 1:
        raise ValueError("scale must be positive")
    if img.height % scale or img.width % scale:
        raise ValueError(
            f"image dims {img.height}x{img.width} not divisible by scale {scale}"
        )
    gray = FeatureMap(img.data.mean(axis=0, keepdims=True))
    if scale > 1:
        gray = bicubic_resample(gray, 1.0 / scale)
    return bank_features(gray.data[0], channels)


def encode_depth(d: DepthMap, channels: int) -> FeatureMap:
    """Fixed-bank features of the (already LR) depth plane."""
    return bank_features(d.depth, channels)


def rgb_order_maps(f_r: FeatureMap, cfg: PipelineConfig) -> dict[str, FeatureMap]:
    """The run's RGB side: the features `f_r` under "zero", plus order_map
    of them for every enabled order. The RGB features stay fixed across
    MOMA iterations, so a run maps them once."""
    return {"zero": f_r} | {order: order_map(f_r, order) for order in cfg.orders}


def order_matches(
    rgb_maps: dict[str, FeatureMap], f_d: FeatureMap, cfg: PipelineConfig
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """match_order's (eta, psi) of every enabled order. `rgb_maps` is the
    run's rgb_order_maps."""
    return {order: match_order(rgb_maps, f_d, order, cfg.k) for order in cfg.orders}


def gated_blocks(
    f_d: FeatureMap,
    rgb_maps: dict[str, FeatureMap],
    matches: dict[str, tuple[np.ndarray, np.ndarray]],
    cfg: PipelineConfig,
) -> np.ndarray:
    """The (4 * channels, h, w) fuse input: [depth, zero, sigmoid(grad-prior)
    * first, sigmoid(hessian-prior) * second], with zero blocks for disabled
    orders. An order's block is matching_selection of the RGB features
    (rgb_maps["zero"]) at that order's (eta, psi), gated by
    `structdet.detect` with the detector on; its prior is matching_selection
    of rgb_maps[order] at the same match. Read-only."""
    blocks = [f_d.data]
    for order in ORDERS:
        if order not in matches:
            blocks.append(np.zeros_like(f_d.data))
            continue
        eta, psi = matches[order]
        feat = matching_selection(rgb_maps["zero"], eta, psi)
        if cfg.detector:
            feat = detect(feat, cfg)
        if feat.shape != f_d.shape:
            raise ValueError(f"{order}-order block shape {feat.shape} != {f_d.shape}")
        block = feat.data
        if order != "zero":
            block = sigmoid(matching_selection(rgb_maps[order], eta, psi).data) * block
        blocks.append(block)
    cat = np.concatenate(blocks, axis=0)
    cat.setflags(write=False)
    return cat


def aggregate(blocks: np.ndarray, cfg: PipelineConfig) -> FeatureMap:
    """Project gated blocks back to `channels` with the 1x1 fuse map."""
    return FeatureMap(np.einsum("oc,chw->ohw", cfg.w_fuse, blocks))


def moma_step(f_d: FeatureMap, rgb_maps: dict[str, FeatureMap], cfg: PipelineConfig) -> FeatureMap:
    """One matching + aggregation iteration; returns the refined depth features.

    `rgb_maps` is the run's rgb_order_maps. Its RGB features must have the
    depth features' shape, which is checked here even when no order is
    enabled.
    """
    f_r = rgb_maps["zero"]
    if f_d.shape != f_r.shape:
        raise ValueError(f"feature shape mismatch: depth {f_d.shape}, rgb {f_r.shape}")
    matches = order_matches(rgb_maps, f_d, cfg)
    return aggregate(gated_blocks(f_d, rgb_maps, matches, cfg), cfg)


def reconstruct(f_d: FeatureMap, d_lr: DepthMap, cfg: PipelineConfig) -> DepthMap:
    """Bicubic upsample of the LR depth plus a pixel-shuffled residual."""
    if f_d.height != d_lr.height or f_d.width != d_lr.width:
        raise ValueError("feature grid does not match LR depth grid")
    res = np.einsum("qc,chw->qhw", cfg.w_head, f_d.data)
    res_hr = pixel_shuffle(FeatureMap(res), cfg.scale).data[0]
    base = bicubic_resample(d_lr, float(cfg.scale))
    depth = base.depth + res_hr
    depth = np.where(base.valid, np.maximum(depth, MIN_DEPTH_M), depth)
    return DepthMap(depth, base.valid)


def check_scaled(name: str, shape: tuple[int, int], d_lr: DepthMap, scale: int) -> None:
    """Reject an image whose (h, w) `shape` is not `scale` x the LR depth."""
    h, w = shape
    if (h, w) != (scale * d_lr.height, scale * d_lr.width):
        raise ValueError(f"{name} {h}x{w} is not {scale}x the LR depth {d_lr.height}x{d_lr.width}")


def run_pipeline(img: FeatureMap, d_lr: DepthMap, cfg: PipelineConfig) -> DepthMap:
    """Encode both modalities, iterate MOMA steps, reconstruct HR depth."""
    check_scaled("RGB", (img.height, img.width), d_lr, cfg.scale)
    rgb_maps = rgb_order_maps(encode_rgb(img, cfg.scale, cfg.channels), cfg)
    f_d = encode_depth(d_lr, cfg.channels)
    for _ in range(cfg.moma_iters):
        f_d = moma_step(f_d, rgb_maps, cfg)
    return reconstruct(f_d, d_lr, cfg)
