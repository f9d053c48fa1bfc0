"""Cross-modal patch matching: correlation, exact top-k, and selection.

The correlation between two c x h x w maps is an hw x hw matrix of cosine
similarities over flattened 3x3 patches. The fast path multiplies blocks of
L2-normalized patch matrices; the naive double-loop oracle lives here too
and stays in the test suite permanently. Top-k retrieval is exact with a
deterministic lowest-index tie-break, so results never depend on partition
order or thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import diffops
from .grid import FeatureMap, extract_patches, fold_patches

ORDERS = ("zero", "first", "second")

# Patches with a smaller L2 norm correlate as 0 instead of dividing by ~0.
MIN_PATCH_NORM = 1e-12


@dataclass(frozen=True)
class CorrelationSet:
    """hw x hw cosine similarities; row = target patch, col = source patch."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if vals.ndim != 2:
            raise ValueError("CorrelationSet expects a 2d matrix")
        if vals.size and (vals.min() < -1.0 or vals.max() > 1.0):
            raise ValueError("correlations must lie in [-1, 1]")
        object.__setattr__(self, "values", vals)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class MatchResult:
    """Top-k source-patch indices (eta) and scores (psi) per target patch.

    Scores are non-increasing within each row; ties broke toward the lowest
    source index when retrieved.
    """

    eta: np.ndarray
    psi: np.ndarray
    order_tag: str = "zero"

    def __post_init__(self):
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=np.int64))
        psi = np.ascontiguousarray(np.asarray(self.psi, dtype=np.float64))
        if eta.ndim != 2 or eta.shape != psi.shape:
            raise ValueError("eta and psi must share an (hw, k) shape")
        if np.any(np.diff(psi, axis=1) > 0):
            raise ValueError("scores must be non-increasing per row")
        if self.order_tag not in ORDERS:
            raise ValueError(f"unknown order tag {self.order_tag!r}")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "psi", psi)

    @property
    def k(self) -> int:
        return self.eta.shape[1]


def _check_same_shape(target: FeatureMap, source: FeatureMap) -> None:
    if target.shape != source.shape:
        raise ValueError(
            f"target shape {target.shape} != source shape {source.shape}"
        )


def normalized_patch_matrix(f: FeatureMap) -> np.ndarray:
    """L2-normalized patch rows; rows below MIN_PATCH_NORM become zero."""
    vec = extract_patches(f).vectors
    norms = np.sqrt(np.einsum("id,id->i", vec, vec))
    degenerate = norms < MIN_PATCH_NORM
    unit = vec / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    return unit


def iter_correlation_blocks(
    target: FeatureMap, source: FeatureMap, block_rows: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (row_start, block) slices of the correlation matrix.

    Bounds peak memory at hw * block_rows instead of hw^2; concatenating all
    blocks reproduces correlation_set exactly.
    """
    if block_rows < 1:
        raise ValueError("block_rows must be positive")
    _check_same_shape(target, source)
    t = normalized_patch_matrix(target)
    s = normalized_patch_matrix(source)
    n = t.shape[0]
    for r0 in range(0, n, block_rows):
        block = np.einsum("id,jd->ij", t[r0 : r0 + block_rows], s)
        yield r0, np.clip(block, -1.0, 1.0)


def correlation_set(
    target: FeatureMap, source: FeatureMap, block_rows: int | None = None
) -> CorrelationSet:
    """Full cosine-similarity matrix between target and source patches."""
    _check_same_shape(target, source)
    n = target.height * target.width
    if block_rows is None:
        block_rows = n
    out = np.empty((n, n), dtype=np.float64)
    for r0, block in iter_correlation_blocks(target, source, block_rows):
        out[r0 : r0 + block.shape[0]] = block
    return CorrelationSet(out)


def correlation_set_naive(target: FeatureMap, source: FeatureMap) -> CorrelationSet:
    """Two-loop reference: one cosine per (target, source) patch pair.

    Kept as the permanent oracle for the blocked fast path.
    """
    _check_same_shape(target, source)
    t = extract_patches(target).vectors
    s = extract_patches(source).vectors
    n = t.shape[0]
    t_norm = [float(np.sqrt(np.dot(row, row))) for row in t]
    s_norm = [float(np.sqrt(np.dot(row, row))) for row in s]
    out = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        if t_norm[i] < MIN_PATCH_NORM:
            continue
        for j in range(n):
            if s_norm[j] < MIN_PATCH_NORM:
                continue
            out[i, j] = float(np.dot(t[i], s[j])) / (t_norm[i] * s_norm[j])
    return CorrelationSet(np.clip(out, -1.0, 1.0))


def _order_rows_by_score(
    vals: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort (per row) by descending score; cols arrive index-ascending, so a
    stable sort keeps the lowest-index-first rule inside tied scores."""
    psi = np.take_along_axis(vals, cols, axis=1)
    order = np.argsort(-psi, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(psi, order, axis=1)


def top_k(cs: CorrelationSet, k: int, order_tag: str = "zero") -> MatchResult:
    """Exact per-row top-k via partial selection plus tie repair.

    Matches the full-sort oracle bit for bit: the retained set are the k
    largest values, tied boundary values resolve to the lowest source
    indices, and rows come back score-descending.
    """
    n, m = cs.rows, cs.cols
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    vals = cs.values
    kth = np.partition(vals, m - k, axis=1)[:, m - k]
    above = vals > kth[:, None]
    need = k - above.sum(axis=1)
    at_kth = vals == kth[:, None]
    pick = at_kth & (np.cumsum(at_kth, axis=1) <= need[:, None])
    sel = above | pick
    cols = np.nonzero(sel)[1].reshape(n, k)
    eta, psi = _order_rows_by_score(vals, cols)
    return MatchResult(eta, psi, order_tag)


def top_k_naive(cs: CorrelationSet, k: int, order_tag: str = "zero") -> MatchResult:
    """Full-sort reference for top_k (stable sort on negated scores)."""
    n, m = cs.rows, cs.cols
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    eta = np.argsort(-cs.values, axis=1, kind="stable")[:, :k]
    psi = np.take_along_axis(cs.values, eta, axis=1)
    return MatchResult(eta, psi, order_tag)


def top_k_streamed(
    target: FeatureMap,
    source: FeatureMap,
    k: int,
    block_rows: int,
    order_tag: str = "zero",
) -> MatchResult:
    """Top-k over streamed correlation blocks; equals the full-matrix path."""
    n = target.height * target.width
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    etas = []
    psis = []
    for _, block in iter_correlation_blocks(target, source, block_rows):
        part = top_k(CorrelationSet(block), k, order_tag)
        etas.append(part.eta)
        psis.append(part.psi)
    return MatchResult(np.concatenate(etas), np.concatenate(psis), order_tag)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the k retained scores."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def matching_selection(source: FeatureMap, m: MatchResult) -> FeatureMap:
    """Softmax-weighted gather of the top-k source patches, folded to a map.

    For each target position the k matched source patches are blended with
    softmax weights over their scores, then overlap-added back onto the
    grid. Output shape equals source shape.
    """
    patches = extract_patches(source)
    n = patches.count
    if m.eta.shape[0] != n:
        raise ValueError(f"match rows {m.eta.shape[0]} != patch count {n}")
    if m.eta.min() < 0 or m.eta.max() >= n:
        raise ValueError("match indices out of range for source patches")
    weights = softmax_rows(m.psi)
    gathered = patches.vectors[m.eta]
    mixed = np.einsum("rk,rkd->rd", weights, gathered)
    ps = type(patches)(mixed, patches.channels, patches.height, patches.width)
    return fold_patches(ps)


def order_map(f: FeatureMap, order: str) -> FeatureMap:
    """Feature map an order matches on: raw, gradient, or Hessian norm."""
    if order == "zero":
        return f
    if order == "first":
        return diffops.gradient_magnitude(f)
    if order == "second":
        return diffops.hessian_norm(diffops.hessian_field(f))
    raise ValueError(f"unknown matching order {order!r}")


def match_order(
    rgb: FeatureMap, depth: FeatureMap, order: str, k: int
) -> tuple[FeatureMap, FeatureMap | None]:
    """Run one matching order and select matched features.

    zero:   correlate raw depth vs raw RGB, select from RGB -> (matched, None)
    first:  correlate gradient maps, select from RGB and from the RGB
            gradient -> (matched RGB, matched gradient)
    second: correlate Hessian-norm maps, select from RGB and from the RGB
            Hessian norm -> (matched RGB, matched Hessian)
    """
    _check_same_shape(rgb, depth)
    target = order_map(depth, order)
    source = order_map(rgb, order)
    m = top_k(correlation_set(target, source), k, order)
    matched_rgb = matching_selection(rgb, m)
    matched_prior = None if order == "zero" else matching_selection(source, m)
    return matched_rgb, matched_prior


def self_match_stats(cs: CorrelationSet, m: MatchResult) -> tuple[int, int]:
    """(# rows with a unique maximum, # of those whose top-1 is the self index)."""
    vals = cs.values
    row_max = vals.max(axis=1)
    unique = (vals == row_max[:, None]).sum(axis=1) == 1
    hits = m.eta[:, 0] == np.arange(cs.rows)
    return int(unique.sum()), int((unique & hits).sum())
