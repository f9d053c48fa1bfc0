"""End-to-end fusion pipeline: encoders, iterative matching/aggregation,
and residual reconstruction.

Both encoders standardize their input plane and apply the same fixed 3x3
filter bank, so RGB and depth features live on a comparable scale across
modalities. Each iteration matches RGB to the current depth features in up
to three orders, gates the matched features with the structure detector,
and fuses everything through a 1x1 linear map; the head predicts a
pixel-shuffled residual over bicubic upsampling, so an untrained model
reproduces bicubic exactly.

A run is three stages: encode_scene, moma_features and reconstruct, which
is all run_pipeline does; the trainer and `depthsr match` call the same
stages. reconstruct adds the head's residual to a bicubic base its caller
upsamples once: run_pipeline per run, the trainer per scene. encode_scene
gives the depth features and the run's one rgb_maps value
(rgb_order_maps, a matcher.RgbSide): the RGB features under "zero" and
their order map for every enabled order, which no iteration changes.
When their patch matrices and unit rows fit in matcher.HOLD_BYTES (0.88 MB
at LR 16^2 with 8 channels and all three orders), the value holds them, so
a three-iteration LR 16^2 run extracts patches 12 times instead of 33. At
LR 64^2 they would take 14.2 MB, more than a whole run's tracemalloc peak
under the fitted config (9.4 MB matching on one thread, 11.8 MB on two),
so nothing is held. moma_features runs every iteration: each order's
(eta, psi) (order_matches), the selection at those matches with the
detector gating (gated_blocks) and the 1x1 fuse (aggregate). Given the
first iteration's gated blocks, it fuses them without matching again, so
a caller whose config scalars stay fixed, such as the trainer, matches,
selects and gates once and fuses many weight settings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .grid import GAUSS_3X3, MIN_DEPTH_M, DepthMap, FeatureMap, bicubic_resample, check_finite_settings, check_int_settings, conv2d, pixel_shuffle, sigmoid, standardize
from .losses import DEFAULT_ALPHA_LOSS
from .matcher import ORDERS, RgbSide, match_order, matching_selection, order_map
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
        check_int_settings(self, "scale", "channels", "k", "moma_iters")
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

    def scalars(self) -> tuple:
        """Every field but the weights, in field order."""
        return tuple(getattr(self, f.name) for f in fields(self) if f.name not in _WEIGHTS)

    def __eq__(self, other):
        if not isinstance(other, PipelineConfig):
            return NotImplemented
        return self.scalars() == other.scalars() and all(
            np.array_equal(getattr(self, w), getattr(other, w)) for w in _WEIGHTS
        )

    def __hash__(self):
        # Weights stay out: configs equal under np.array_equal hash alike.
        return hash(self.scalars())

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


def encode_scene(img: FeatureMap, d_lr: DepthMap, cfg: PipelineConfig) -> tuple[RgbSide, FeatureMap]:
    """A run's encoded inputs: its RGB side (rgb_order_maps of encode_rgb)
    and the depth features. The RGB image must be cfg.scale x the LR depth."""
    check_scaled("RGB", (img.height, img.width), d_lr, cfg.scale)
    return rgb_order_maps(encode_rgb(img, cfg.scale, cfg.channels), cfg), encode_depth(d_lr, cfg.channels)


def rgb_order_maps(f_r: FeatureMap, cfg: PipelineConfig) -> RgbSide:
    """The run's RGB side: the features `f_r` under "zero", plus order_map
    of them for every enabled order. The RGB features stay fixed across
    MOMA iterations, so a run maps them once."""
    return RgbSide({"zero": f_r} | {order: order_map(f_r, order) for order in cfg.orders})


def order_matches(
    rgb_maps: RgbSide, f_d: FeatureMap, cfg: PipelineConfig
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """match_order's (eta, psi) of every enabled order. `rgb_maps` is the
    run's rgb_order_maps."""
    return {order: match_order(rgb_maps, f_d, order, cfg.k) for order in cfg.orders}


def gated_blocks(
    f_d: FeatureMap,
    rgb_maps: RgbSide,
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
        feat = matching_selection(rgb_maps.patches("zero"), rgb_maps["zero"].shape, eta, psi)
        if cfg.detector:
            feat = detect(feat, cfg)
        if feat.shape != f_d.shape:
            raise ValueError(f"{order}-order block shape {feat.shape} != {f_d.shape}")
        block = feat.data
        if order != "zero":
            # One expression, so that no prior or patch matrix outlives it.
            block = sigmoid(
                matching_selection(rgb_maps.patches(order), rgb_maps[order].shape, eta, psi).data
            ) * block
        blocks.append(block)
    cat = np.concatenate(blocks, axis=0)
    cat.setflags(write=False)
    return cat


def aggregate(blocks: np.ndarray, cfg: PipelineConfig) -> FeatureMap:
    """Project gated blocks back to `channels` with the 1x1 fuse map."""
    return FeatureMap(np.einsum("oc,chw->ohw", cfg.w_fuse, blocks))


def moma_features(
    f_d: FeatureMap, rgb_maps: RgbSide, cfg: PipelineConfig, first_blocks: np.ndarray | None = None
) -> FeatureMap:
    """The depth features after all cfg.moma_iters MOMA iterations from `f_d`.
    Each iteration fuses (aggregate) the gated_blocks at its order_matches;
    `first_blocks`, when given, are the first iteration's gated_blocks,
    fused without matching again. `rgb_maps` is the run's rgb_order_maps;
    its RGB features must have the depth features' shape, which is checked
    even when no order is enabled."""
    if f_d.shape != rgb_maps["zero"].shape:
        raise ValueError(f"feature shape mismatch: depth {f_d.shape}, rgb {rgb_maps['zero'].shape}")
    for i in range(cfg.moma_iters):
        if i or first_blocks is None:
            f_d = aggregate(gated_blocks(f_d, rgb_maps, order_matches(rgb_maps, f_d, cfg), cfg), cfg)
        else:
            f_d = aggregate(first_blocks, cfg)
    return f_d


def reconstruct(f_d: FeatureMap, base: DepthMap, cfg: PipelineConfig) -> DepthMap:
    """`base`, the bicubic upsample of the LR depth by cfg.scale, plus the
    pixel-shuffled head residual of `f_d`; `base` keeps its valid mask."""
    if (cfg.scale * f_d.height, cfg.scale * f_d.width) != base.depth.shape:
        raise ValueError(f"base {base.depth.shape} is not {cfg.scale}x the feature grid {f_d.shape[1:]}")
    res = np.einsum("qc,chw->qhw", cfg.w_head, f_d.data)
    res_hr = pixel_shuffle(FeatureMap(res), cfg.scale).data[0]
    depth = base.depth + res_hr
    depth = np.where(base.valid, np.maximum(depth, MIN_DEPTH_M), depth)
    return DepthMap(depth, base.valid)


def check_scaled(name: str, shape: tuple[int, int], d_lr: DepthMap, scale: int) -> None:
    """Reject an image whose (h, w) `shape` is not `scale` x the LR depth."""
    h, w = shape
    if (h, w) != (scale * d_lr.height, scale * d_lr.width):
        raise ValueError(f"{name} {h}x{w} is not {scale}x the LR depth {d_lr.height}x{d_lr.width}")


def run_pipeline(img: FeatureMap, d_lr: DepthMap, cfg: PipelineConfig) -> DepthMap:
    """Encode both modalities, run the MOMA iterations, reconstruct HR depth."""
    rgb_maps, f_d = encode_scene(img, d_lr, cfg)
    f_d = moma_features(f_d, rgb_maps, cfg)
    return reconstruct(f_d, bicubic_resample(d_lr, float(cfg.scale)), cfg)
