"""Cross-modal patch matching: correlation, exact top-k, and selection.

The correlation between two c x h x w maps is an hw x hw matrix of cosine
similarities over flattened, L2-normalized 3x3 patches. Matching streams it
one tile of MATCH_TILE_ROWS target rows at a time and keeps each tile's
top-k, so it never holds hw^2 floats: one (MATCH_TILE_ROWS, hw) cosine
buffer, reused by every tile, plus what top_k takes from it, which is at
most about 9 times the tile's bytes when every score ties and top_k
gathers the whole tile. A match is the plain array pair (eta, psi), each
(hw, k): per target patch, the source indices of its k best patches and
their cosines, scores non-increasing along each row. The naive
double-loop oracles live permanently in tests/oracles.py.

What is computed per run and per call: the RGB side is fixed for a run,
so match_order takes it as one value (fusion.rgb_order_maps) and maps
only the depth side. Within one call each patch matrix is extracted once:
the source's gives both the unit rows of the cosines and the prior
selection, and at zero order it is the RGB one too. No (hw, 9c) matrix
outlives the call, and the selection gathers matched patches for
SELECT_ROWS target rows at a time instead of holding the (hw, k, 9c)
gather.

Each tile's cosines are one BLAS GEMM call of one shape: tiles start at
multiples of the tile size and the last one is zero-padded (a product of
another row count would reach gemv or edge kernels and differ in the last
bit). OpenBLAS splits a GEMM across threads by output rows and columns,
never inside one dot product, so the thread count changes no bit either;
tests/test_package.py guards that at the LR 64^2 shape and at a padded
tail tile.

Top-k reads a tile once. Column j lies in group j mod g, g the largest
divisor of hw in [k, max(64, 4 isqrt(hw))] (hw when there is none): 64
groups at hw 256, 128 at 1024, 256 at 4096 and 512 at 16384. The k-th
largest group maximum of a row bounds its k-th largest cosine from below,
so only the groups that reach it are gathered and sorted. A row thus
costs one pass for its g group maxima, a partition of those g maxima and
a gather of at least k groups of hw/g cosines; a g that grows as sqrt(hw)
keeps both the partition and the gather short. In a fully tied tile every
group reaches the bound, so top_k gathers the whole tile, once: the 9
tiles' bytes above. The cosines are clipped to [-1, 1] inside top_k, on
the gathered groups only: top_k returns the top-k of the clipped tile.
Top-k is exact with a lowest-index tie-break, so the first k columns of a
top-k' result (k' > k) equal top-k.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from . import diffops
from .grid import FeatureMap, extract_patches, fold_patches

ORDERS = ("zero", "first", "second")

# Patches with a smaller L2 norm correlate as 0 instead of dividing by ~0.
MIN_PATCH_NORM = 1e-12

# Target rows per cosine GEMM call and per top_k call.
MATCH_TILE_ROWS = 64

# Target rows whose matched patches matching_selection gathers and blends
# at once (a block's gather takes rows * k * 9c * 8 bytes).
SELECT_ROWS = 256


def unit_rows(patches: np.ndarray) -> np.ndarray:
    """L2-normalized copy of patch rows; rows below MIN_PATCH_NORM become zero."""
    norms = np.sqrt(np.einsum("id,id->i", patches, patches))
    degenerate = norms < MIN_PATCH_NORM
    unit = patches / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    return unit


def _check_same_shape(target: FeatureMap, source: FeatureMap) -> None:
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")


@lru_cache(maxsize=64)
def _group_count(m: int, k: int) -> int:
    """top_k's group count g for rows of m columns, computed once per (m, k)."""
    top = min(m, max(64, 4 * isqrt(m)))
    return next((d for d in range(top, k - 1, -1) if m % d == 0), m)


def top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-k of clip(values, -1, 1) as (eta, psi), each (rows, k).

    eta holds source indices and psi their clipped scores, non-increasing
    per row. Column j lies in group j mod g, where g is the largest divisor
    of m in [k, max(64, 4 isqrt(m))], or m if there is none. A row has at
    least k groups whose maximum reaches the k-th largest group maximum, so
    that value bounds the row's k-th largest score from below. Only the
    groups that reach the bound are gathered and clipped, and their entries
    that reach it are the candidates. The bound is clamped to 1 (-inf at or
    below -1), so a score that clips to the bound still ties. One stable
    sort by (row, descending score, column) keeps tied scores
    index-ascending, and each row keeps its first k candidates: the
    full-sort oracle, bit for bit.

    A larger g shortens the gather of m/g scores per hit group and gives
    the group-maximum pass fewer, longer slices; a smaller g shortens the
    partition. g near 4 sqrt(m) was the fastest divisor when timed on
    64-row tiles of m = 1024 to 16384 (numpy 2.4, x86-64). A fully tied
    tile is gathered whole, once.
    """
    n, m = values.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    g = _group_count(m, k)
    groups = values.reshape(n, m // g, g)
    peaks = groups.max(axis=1)
    bound = np.partition(peaks, g - k, axis=1)[:, g - k]
    bound = np.where(bound > -1.0, np.minimum(bound, 1.0), -np.inf)
    hit_rows, hit_groups = np.divmod(np.flatnonzero(peaks >= bound[:, None]), g)
    gathered = np.clip(groups[hit_rows, :, hit_groups], -1.0, 1.0)
    hit, offset = np.divmod(np.flatnonzero(gathered >= bound[hit_rows, None]), m // g)
    rows, cols, scores = hit_rows[hit], offset * g + hit_groups[hit], gathered[hit, offset]
    order = np.lexsort((cols, -scores, rows))
    pick = order[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]
    return cols[pick], scores[pick]


def top_k_rows(t: np.ndarray, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) of the cosines between unit target rows t and unit
    source rows s (both from unit_rows), one tile of MATCH_TILE_ROWS target
    rows at a time.

    Each tile is one GEMM written in place into a buffer that every tile
    reuses. The tile never shares memory with the source matrix, so numpy
    does not switch to SYRK.
    """
    n, tile = t.shape[0], MATCH_TILE_ROWS
    cosines = np.empty((tile, n))
    matches = []
    for r0 in range(0, n, tile):
        part = t[r0 : r0 + tile]
        rows = len(part)
        if rows < tile:
            part = np.pad(part, ((0, tile - rows), (0, 0)))
        np.matmul(part, s.T, out=cosines)
        matches.append(top_k(cosines[:rows], k))
    eta, psi = zip(*matches)
    return np.concatenate(eta), np.concatenate(psi)


def top_k_streamed(
    target: FeatureMap, source: FeatureMap, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) per target patch of two maps of one shape (top_k_rows)."""
    _check_same_shape(target, source)
    return top_k_rows(unit_rows(extract_patches(target)), unit_rows(extract_patches(source)), k)


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the k retained scores."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def matching_selection(
    patches: np.ndarray, shape: tuple[int, int, int], eta: np.ndarray, psi: np.ndarray
) -> FeatureMap:
    """Softmax-weighted gather of the top-k source patches, folded to a map.

    `patches` is extract_patches of the source map, whose shape is `shape`.
    For each target position the k matched source patch rows are blended
    with softmax weights over their scores, then overlap-added back onto
    the grid. The blend is one einsum per block of SELECT_ROWS target rows,
    so it holds that block's (rows, k, 9c) gather, not all hw rows' (each
    row's sum is the same either way). Output shape equals `shape`.
    """
    n = patches.shape[0]
    if eta.shape[0] != n:
        raise ValueError(f"match rows {eta.shape[0]} != patch count {n}")
    if eta.min() < 0 or eta.max() >= n:
        raise ValueError("match indices out of range for source patches")
    weights = softmax_rows(psi)
    mixed = np.empty(patches.shape)
    for r0 in range(0, n, SELECT_ROWS):
        rows = slice(r0, r0 + SELECT_ROWS)
        np.einsum("rk,rkd->rd", weights[rows], patches[eta[rows]], out=mixed[rows])
    return fold_patches(mixed, shape)


def order_map(f: FeatureMap, order: str) -> FeatureMap:
    """Feature map an order matches on: raw, gradient, or Hessian norm."""
    if order == "zero":
        return f
    if order == "first":
        return diffops.gradient_magnitude(f)
    if order == "second":
        return diffops.hessian_norm(f)
    raise ValueError(f"unknown matching order {order!r}")


def match_order(
    rgb_maps: dict[str, FeatureMap], depth: FeatureMap, order: str, k: int
) -> tuple[FeatureMap, FeatureMap | None]:
    """Run one matching order and select matched features.

    `rgb_maps` is the run's RGB side (fusion.rgb_order_maps): the RGB
    features under "zero" and order_map of them under `order`.

    zero:   correlate raw depth vs raw RGB, select from RGB -> (matched, None)
    first:  correlate gradient maps, select from RGB and from the RGB
            gradient -> (matched RGB, matched gradient)
    second: correlate Hessian-norm maps, select from RGB and from the RGB
            Hessian norm -> (matched RGB, matched Hessian)
    """
    target = order_map(depth, order)
    rgb, source = rgb_maps["zero"], rgb_maps[order]
    _check_same_shape(target, source)
    source_patches = extract_patches(source)
    eta, psi = top_k_rows(unit_rows(extract_patches(target)), unit_rows(source_patches), k)
    if order == "zero":
        return matching_selection(source_patches, rgb.shape, eta, psi), None
    matched_rgb = matching_selection(extract_patches(rgb), rgb.shape, eta, psi)
    return matched_rgb, matching_selection(source_patches, source.shape, eta, psi)


def self_match_stats(eta: np.ndarray, psi: np.ndarray) -> tuple[int, int]:
    """(# rows with a unique maximum, # of those whose top-1 is the self index).

    (eta, psi) hold each row's top min(2, hw) matches of a square correlation:
    a row's maximum is unique when its best score beats its second one.
    """
    n, k = eta.shape
    if k < min(2, n):
        raise ValueError("self_match_stats needs the top 2 scores of each row")
    unique = psi[:, 0] > psi[:, 1] if k > 1 else np.ones(n, dtype=bool)
    hits = eta[:, 0] == np.arange(n)
    return int(unique.sum()), int((unique & hits).sum())
