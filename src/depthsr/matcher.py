"""Cross-modal patch matching: correlation, exact top-k, and selection.

The correlation between two c x h x w maps is an hw x hw matrix of cosine
similarities over flattened, L2-normalized 3x3 patches. Matching streams it
one tile of MATCH_TILE_ROWS target rows at a time and keeps each tile's
top-k, so it never holds hw^2 floats: per matching thread, one
(MATCH_TILE_ROWS, hw) cosine buffer, reused by every tile it runs, plus
what top_k takes from it, which is at most about 9 times the tile's bytes
when every score ties and top_k gathers the whole tile. A match is the
plain array pair (eta, psi), each (hw, k): per target patch, the source
indices of its k best patches and their cosines, scores non-increasing
along each row. The naive double-loop oracles live permanently in
tests/oracles.py.

The two stages: match_order retrieves one order's (eta, psi), the only
thing matching hands on, and matching_selection blends one map's patch
matrix at a match (fusion.gated_blocks selects the RGB features and the
order's prior at each order's match). The RGB side is fixed for a run, so
match_order takes it as one RgbSide value (fusion.rgb_order_maps) and maps
only the depth side. A small RgbSide holds each map's patch matrix and
unit rows (see HOLD_BYTES); otherwise each stage extracts the patch matrix
it reads and frees it when it returns, so the matching's are gone before
the selection's are made, which lowers the peak; extracting a map once
more costs about what selecting from a matrix gone cold in cache would.
The selection gathers matched patches for SELECT_ROWS target rows at a
time instead of holding the (hw, k, 9c) gather.

Each tile's cosines are one BLAS GEMM call of one shape: tiles start at
multiples of the tile size and the last one is zero-padded (a product of
another row count would reach gemv or edge kernels and differ in the last
bit). OpenBLAS splits a GEMM across threads by output rows and columns,
never inside one dot product, so the thread count changes no bit either;
tests/test_package.py guards that at the LR 64^2 shape and at a padded
tail tile.

From THREAD_MIN_ROWS target rows on, top_k_rows shares its tiles among
threads, as many as the caller's BLAS budget. Each thread takes whole
tiles off one queue and runs both steps of each, the GEMM into its own
buffer on a one-thread BLAS and top_k, then writes the tile's rows of the
result; the calling thread is one of them, and no bit depends on which
thread ran a tile. numpy's OpenBLAS exports openblas_set_num_threads_local,
bound once through ctypes. Setting one thread hands back the caller's
count, which is the budget: 2 under OPENBLAS_NUM_THREADS=2, 1 in a fit
probe worker. Without that symbol (another BLAS) or with a budget of 1,
and on smaller maps, where starting threads cost more than they saved, the
calling thread runs every tile. Matching holds one cosine buffer and one
top_k's temporaries per thread, O(threads x tile x hw): at LR 64^2 with 8
channels, 2 threads take 9 c x h x w maps more than one (the test_fusion
stage peaks). The per-thread tile is the lever at LR 64^2: the GEMM, about
half of a tile's time, already ran on both cores, but top_k ran on one. A
helper thread that overlapped top_k with a two-thread GEMM gained nothing,
since it put three busy threads, the GEMM's OpenBLAS workers spinning, on
two cores; whole tiles per thread keep one busy thread per core.

Top-k has two exact kernels, chosen by the width m of the rows of cosines
(see SWEEP_MAX_M). Short rows take k argmax sweeps over a clipped copy of the
tile: each sweep takes every row's first maximum and sets it to -inf.
Longer rows are read once, by column groups. Column j lies in group
j mod g, g the largest divisor of hw in [k, max(64, 4 isqrt(hw))] (hw when
there is none): 64 groups at hw 256, 128 at 1024, 256 at 4096 and 512 at
16384. The k-th largest group maximum of a row bounds its k-th largest
cosine from below, so only the groups that reach it are gathered and
sorted. A row thus costs one pass for its g group maxima, a partition of
those g maxima and a gather of at least k groups of hw/g cosines; a g that
grows as sqrt(hw) keeps both the partition and the gather short. In a
fully tied tile every group reaches the bound, so top_k gathers the whole
tile, once: the 9 tiles' bytes above. Both kernels return the top-k of the
tile clipped to [-1, 1] (the group kernel clips the gathered groups only)
and break ties to the lowest index, keeping the sign of -0.0, so the first
k columns of a top-k' result (k' > k) equal top-k.
"""

from __future__ import annotations

import ctypes
import threading
from collections import deque
from functools import lru_cache
from math import isqrt

import numpy as np

from . import diffops
from .grid import PATCH_SIZE, FeatureMap, extract_patches, fold_patches

ORDERS = ("zero", "first", "second")

# Patches with a smaller L2 norm correlate as 0 instead of dividing by ~0.
MIN_PATCH_NORM = 1e-12

# Target rows per cosine GEMM call and per top_k call.
MATCH_TILE_ROWS = 64

# Target rows whose matched patches matching_selection gathers and blends
# at once (a block's gather takes rows * k * 9c * 8 bytes).
SELECT_ROWS = 256

# top_k sweeps rows of at most this many cosines, and reads longer rows by
# column groups. A sweep pass reads the whole row, so the width decides.
# Per 64-row tile of boxes cosines, one BLAS thread, numpy 2.4, x86-64,
# sweep against group: at m <= 1024 the sweep was faster for every k from
# 1 to 128 (m 1024, k 16: 255 against 325 us), at m 4096 the group kernel
# (k 2: 418 against 249 us); at m 2048 which won changed with k. The one
# exception timed: at m 1024 with k 256 the sweep took 18% longer.
SWEEP_MAX_M = 1024

# top_k_rows shares its tiles among threads from this many target rows on.
# Per top_k_rows call on the boxes pair at k 4, zero and first order, 2 BLAS
# threads, numpy 2.4, x86-64, one thread against two: 256 rows (LR 16^2)
# 0.36 against 0.50 ms, 576 rows 1.39 against 1.58 ms, 784 rows a tie at
# 2.4 ms, 1024 rows (LR 32^2) 3.5 against 3.2 ms, 4096 rows (LR 64^2) 46
# against 37 ms. Below about 800 rows the threads cost more than they save.
THREAD_MIN_ROWS = 1024

# An RgbSide holds its maps' patch matrices and unit rows when they take at
# most this many bytes: 0.88 MB at LR 16^2 with 8 channels and three
# orders, where the holding saves 21 of the 33 patch extractions of a
# three-iteration run. At LR 64^2 they would take 14.2 MB: holding them
# there raised the tracemalloc peak of one run_pipeline under the fitted
# config from 12.5 to 24.3 MB and ru_maxrss from 58 to 66 MB (numpy 2.4),
# where matching, not extraction, takes the time.
HOLD_BYTES = 2 * 1024 * 1024


def unit_rows(patches: np.ndarray) -> np.ndarray:
    """L2-normalized copy of patch rows; rows below MIN_PATCH_NORM become zero."""
    norms = np.sqrt(np.einsum("id,id->i", patches, patches))
    degenerate = norms < MIN_PATCH_NORM
    unit = patches / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    return unit


@lru_cache(maxsize=64)
def _group_count(m: int, k: int) -> int:
    """top_k's group count g for rows of m columns, computed once per (m, k)."""
    top = min(m, max(64, 4 * isqrt(m)))
    return next((d for d in range(top, k - 1, -1) if m % d == 0), m)


def top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-k of clip(values, -1, 1) as (eta, psi), each (rows, k).

    eta holds source indices and psi their clipped scores, non-increasing
    per row, ties in index order. Rows of at most SWEEP_MAX_M scores are
    swept (_top_k_sweep). Otherwise column j lies in group
    j mod g, where g is the largest divisor of m in [k, max(64, 4 isqrt(m))],
    or m if there is none. A row has at least k groups whose maximum
    reaches the k-th largest group maximum, so that value bounds the row's
    k-th largest score from below. Only the groups that reach the bound are
    gathered and clipped, and their entries that reach it are the
    candidates. The bound is clamped to 1 (-inf at or below -1), so a score
    that clips to the bound still ties. One stable sort by (row, descending
    score, column) keeps tied scores index-ascending, and each row keeps
    its first k candidates: the full-sort oracle, bit for bit.

    A larger g shortens the gather of m/g scores per hit group and gives
    the group-maximum pass fewer, longer slices; a smaller g shortens the
    partition. g near 4 sqrt(m) was the fastest divisor when timed on
    64-row tiles of m = 1024 to 16384 (numpy 2.4, x86-64). A fully tied
    tile is gathered whole, once.
    """
    n, m = values.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    if m <= SWEEP_MAX_M:
        return _top_k_sweep(values, k)
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


def _top_k_sweep(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """top_k by k argmax sweeps over a clipped copy of `values`. argmax takes
    each row's first maximum, and -0.0 ties 0.0, so ties go to the lowest
    index and every score keeps its sign, as in a stable full sort; each
    taken entry is then set to -inf, below every clipped score."""
    n, m = values.shape
    work = np.clip(values, -1.0, 1.0)
    flat = work.reshape(-1)
    starts = np.arange(n) * m
    eta = np.empty((n, k), dtype=np.intp)
    psi = np.empty((n, k))
    for j in range(k):
        cols = work.argmax(axis=1)
        at = starts + cols
        eta[:, j] = cols
        psi[:, j] = flat[at]
        flat[at] = -np.inf
    return eta, psi


def top_k_rows(t: np.ndarray, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) of the cosines between unit target rows t and unit
    source rows s (both from unit_rows), one tile of MATCH_TILE_ROWS target
    rows at a time.

    Each tile is one GEMM written in place into its thread's buffer, then
    top_k; the tile never shares memory with the source matrix, so numpy
    does not switch to SYRK. From THREAD_MIN_ROWS target rows on, the tiles
    are shared among as many threads as the caller's BLAS budget allows,
    each on a one-thread BLAS (see the module docstring); the calling
    thread is one of them. Each thread writes the rows of its tiles, so
    which thread runs a tile changes no bit.
    """
    n = t.shape[0]
    eta, psi = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    tiles = deque(range(0, n, MATCH_TILE_ROWS))
    set_local = _openblas_set_local() if n >= THREAD_MIN_ROWS else None
    if set_local is None:
        _match_tiles(t, s, k, tiles, eta, psi, top_k)
        return eta, psi
    errors: list[BaseException] = []
    helpers = []
    with _BLAS_COUNT_LOCK:
        budget = set_local(1)
        try:
            for _ in range(min(budget, len(tiles)) - 1):
                helper = threading.Thread(target=_helper, args=(set_local, errors, t, s, k, tiles, eta, psi))
                helper.start()
                helpers.append(helper)
            _match_tiles(t, s, k, tiles, eta, psi, top_k)
        finally:
            for helper in helpers:
                helper.join()
            set_local(budget)
    if errors:
        raise errors[0]
    return eta, psi


def _match_tiles(
    t: np.ndarray, s: np.ndarray, k: int, tiles: deque, eta: np.ndarray, psi: np.ndarray, select=top_k
) -> None:
    """Take tile starts off `tiles` until none is left, writing each tile's
    top-k rows into eta and psi. `select` defaults to top_k as defined
    here, which the helper threads use; the calling thread passes the
    module's top_k, so a tracer that replaces module functions
    (perfbench/tracer.py keeps one span stack per process) times only its
    tiles."""
    n, size = t.shape[0], MATCH_TILE_ROWS
    cosines = np.empty((size, n))
    while True:
        try:
            r0 = tiles.popleft()
        except IndexError:
            return
        part = t[r0 : r0 + size]
        rows = len(part)
        if rows < size:
            part = np.pad(part, ((0, size - rows), (0, 0)))
        np.matmul(part, s.T, out=cosines)
        eta[r0 : r0 + rows], psi[r0 : r0 + rows] = select(cosines[:rows], k)


def _helper(set_local, errors: list, *args) -> None:
    """A helper thread of top_k_rows: _match_tiles(*args) on a one-thread
    BLAS (setting it is a no-op where the count is the process's, which
    the calling thread has already set). An exception goes to `errors`,
    which top_k_rows raises from."""
    previous = set_local(1)
    try:
        _match_tiles(*args)
    except BaseException as exc:  # re-raised by top_k_rows after the join
        errors.append(exc)
    finally:
        set_local(previous)


# OpenBLAS 0.3.31 keeps the thread count that openblas_set_num_threads_local
# sets for the whole process, so a second caller setting one thread while
# the first still matches would read 1 as its budget and restore that, for
# good. top_k_rows holds this lock from setting the count to restoring it.
_BLAS_COUNT_LOCK = threading.Lock()


@lru_cache(maxsize=1)
def _openblas_set_local():
    """numpy's openblas_set_num_threads_local, bound through ctypes: set
    the BLAS thread count, return the one before. None when numpy's BLAS
    does not export it (another BLAS, numpy 1.x)."""
    try:
        fn = ctypes.CDLL(np._core._multiarray_umath.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    fn.argtypes = [ctypes.c_int]
    fn.restype = ctypes.c_int
    return fn


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the k retained scores."""
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class RgbSide:
    """The run's RGB side: feature maps by name, "zero" and the order map of
    each enabled order (fusion.rgb_order_maps builds it), fixed for a run.

    When every map's patch matrix and unit rows together take at most
    HOLD_BYTES, they are extracted here once and held read-only; otherwise
    `patches` and `unit_rows` extract them on every call. Either way the
    two methods return the same values, so no caller asks which. A value
    pickles as its maps alone and is built again on unpickling, so it then
    holds again.
    """

    def __init__(self, maps: dict[str, FeatureMap]):
        self.maps = dict(maps)
        self._held: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # A c x h x w map has an (hw, 9c) patch matrix, as do its unit rows.
        nbytes = 2 * PATCH_SIZE * PATCH_SIZE * sum(f.data.nbytes for f in self.maps.values())
        if nbytes <= HOLD_BYTES:
            for name, f in self.maps.items():
                patches = extract_patches(f)
                unit = unit_rows(patches)
                patches.setflags(write=False)
                unit.setflags(write=False)
                self._held[name] = (patches, unit)

    def __getitem__(self, name: str) -> FeatureMap:
        return self.maps[name]

    def __reduce__(self):
        return (type(self), (self.maps,))

    def patches(self, name: str) -> np.ndarray:
        """extract_patches of the map `name`."""
        if name in self._held:
            return self._held[name][0]
        return extract_patches(self.maps[name])

    def unit_rows(self, name: str) -> np.ndarray:
        """unit_rows of the patches of the map `name`."""
        if name in self._held:
            return self._held[name][1]
        return unit_rows(extract_patches(self.maps[name]))


# perfbench's matcher.matching_selection.self_s metric reads this name.
def matching_selection(
    patches: np.ndarray, shape: tuple[int, int, int], eta: np.ndarray, psi: np.ndarray
) -> FeatureMap:
    """Softmax-weighted gather of the top-k patches of a map, folded back to
    a map of its `shape`; `patches` is its extract_patches (RgbSide.patches).

    For each target position the k patches that eta names are blended with
    softmax weights over their scores psi, then overlap-added back onto the
    grid. The blend is one einsum per block of SELECT_ROWS target rows, so
    it holds that block's (rows, k, 9c) gather, not all hw rows' (each
    row's sum is the same either way).
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
    del patches  # free an extracted matrix, or the fold would set this call's peak
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


# perfbench's matcher.match_order.calls metric reads this name.
def match_order(
    rgb_maps: RgbSide, depth: FeatureMap, order: str, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) of one order, each (hw, k): the patches of
    order_map(depth, order) against those of rgb_maps[order] (top_k_rows).
    `rgb_maps` is the run's RGB side (fusion.rgb_order_maps)."""
    target, source = order_map(depth, order), rgb_maps[order]
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")
    return top_k_rows(unit_rows(extract_patches(target)), rgb_maps.unit_rows(order), k)

