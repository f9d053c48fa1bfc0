"""Cross-modal patch matching: correlation, exact top-k, and selection.

The correlation between two c x h x w maps is an hw x hw matrix of cosine
similarities over flattened, L2-normalized 3x3 patches. Matching streams it
in row blocks of at most MATCH_BLOCK_BYTES and keeps each block's top-k, so
it holds a few blocks, never hw^2 floats. The naive double-loop oracles live
permanently in tests/oracles.py. Top-k is exact with a lowest-index
tie-break, so results never depend on partition order, block size or thread
count, and the first k columns of a top-k' result (k' > k) equal top-k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffops
from .grid import FeatureMap, extract_patches, fold_patches

ORDERS = ("zero", "first", "second")

# Patches with a smaller L2 norm correlate as 0 instead of dividing by ~0.
MIN_PATCH_NORM = 1e-12

# Bytes of correlations one streamed block may hold (a row takes 8 * hw).
MATCH_BLOCK_BYTES = 2 << 20


@dataclass(frozen=True)
class MatchResult:
    """Top-k source-patch indices (eta) and scores (psi) per target patch.

    Scores are non-increasing within each row; ties broke toward the lowest
    source index when retrieved.
    """

    eta: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        eta = np.ascontiguousarray(np.asarray(self.eta, dtype=np.int64))
        psi = np.ascontiguousarray(np.asarray(self.psi, dtype=np.float64))
        if eta.ndim != 2 or eta.shape != psi.shape:
            raise ValueError("eta and psi must share an (hw, k) shape")
        if np.any(np.diff(psi, axis=1) > 0):
            raise ValueError("scores must be non-increasing per row")
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "psi", psi)

    @property
    def k(self) -> int:
        return self.eta.shape[1]


def normalized_patch_matrix(f: FeatureMap) -> np.ndarray:
    """L2-normalized patch rows; rows below MIN_PATCH_NORM become zero."""
    vec = extract_patches(f).vectors
    norms = np.sqrt(np.einsum("id,id->i", vec, vec))
    degenerate = norms < MIN_PATCH_NORM
    unit = vec / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    return unit


def _cosines(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Cosines between the rows of two normalized patch matrices."""
    return np.clip(np.einsum("id,jd->ij", t, s), -1.0, 1.0)


def _order_rows_by_score(
    vals: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sort (per row) by descending score; cols arrive index-ascending, so a
    stable sort keeps the lowest-index-first rule inside tied scores."""
    psi = np.take_along_axis(vals, cols, axis=1)
    order = np.argsort(-psi, axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1), np.take_along_axis(psi, order, axis=1)


def top_k(values: np.ndarray, k: int) -> MatchResult:
    """Exact per-row top-k of a cosine block via partial selection plus tie repair.

    Matches the full-sort oracle bit for bit: the retained set are the k
    largest values, tied boundary values resolve to the lowest source
    indices, and rows come back score-descending.
    """
    n, m = values.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    kth = np.partition(values, m - k, axis=1)[:, m - k]
    above = values > kth[:, None]
    need = k - above.sum(axis=1)
    at_kth = values == kth[:, None]
    pick = at_kth & (np.cumsum(at_kth, axis=1) <= need[:, None])
    sel = above | pick
    cols = np.nonzero(sel)[1].reshape(n, k)
    eta, psi = _order_rows_by_score(values, cols)
    return MatchResult(eta, psi)


def top_k_streamed(target: FeatureMap, source: FeatureMap, k: int) -> MatchResult:
    """Top-k source patches per target patch, one row block of cosines at a time.

    A block holds at most MATCH_BLOCK_BYTES of correlations (at least one row).
    Rows are independent, so every block size gives a bit-identical result.
    """
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")
    t, s = normalized_patch_matrix(target), normalized_patch_matrix(source)
    n = t.shape[0]
    rows = max(1, MATCH_BLOCK_BYTES // (8 * n))
    parts = [top_k(_cosines(t[r0 : r0 + rows], s), k) for r0 in range(0, n, rows)]
    return MatchResult(
        np.concatenate([p.eta for p in parts]), np.concatenate([p.psi for p in parts])
    )


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
    target = order_map(depth, order)
    source = order_map(rgb, order)
    m = top_k_streamed(target, source, k)
    matched_rgb = matching_selection(rgb, m)
    matched_prior = None if order == "zero" else matching_selection(source, m)
    return matched_rgb, matched_prior


def self_match_stats(m: MatchResult) -> tuple[int, int]:
    """(# rows with a unique maximum, # of those whose top-1 is the self index).

    m holds each row's top min(2, hw) scores of a square correlation: a row's
    maximum is unique when its best score beats its second one.
    """
    n = m.eta.shape[0]
    if m.k < min(2, n):
        raise ValueError("self_match_stats needs the top 2 scores of each row")
    unique = m.psi[:, 0] > m.psi[:, 1] if m.k > 1 else np.ones(n, dtype=bool)
    hits = m.eta[:, 0] == np.arange(n)
    return int(unique.sum()), int((unique & hits).sum())
