"""Cross-modal patch matching: correlation, exact top-k, and selection.

The correlation between two c x h x w maps is an hw x hw matrix of cosine
similarities over flattened, L2-normalized 3x3 patches. A match is the
plain array pair (eta, psi), each (hw, k): per target patch, the source
indices of its k best patches and their cosines, scores non-increasing
along each row. match_order retrieves one order's match, and top_k_rows
streams its cosines tile by tile, so matching never holds hw^2 floats.
matching_selection blends one map's patch matrix at a match. The RGB side
is fixed for a run, so matching takes it as one RgbSide value and maps
only the depth side. The naive double-loop oracles live permanently in
tests/oracles.py.

Bits: every cosine the matcher returns is one element of a float64 BLAS
GEMM whose row and column counts are multiples of MATCH_TILE_ROWS (64).
In such a call OpenBLAS computes an element from its row and column
vectors alone, so a product of gathered source rows, padded to a multiple
of 64, has the full tile's bits. A product of another shape would reach
gemv or edge kernels and differ in the last bit, so a short tile is
zero-padded and a gathered source list is padded with source 0. OpenBLAS
splits a GEMM across threads by output rows and columns, never inside one
dot product, so the thread count changes no bit either.
tests/test_matcher.py pins the gather rule and tests/test_package.py the
thread count.

Screen and confirm: on rows longer than SWEEP_MAX_M sources a float32 GEMM
screens first. For unit rows of d entries rounded to float32, a float32
cosine lies within (d + 2) 2^-24 of the float64 one in any summation
order, up to terms of order d^2 2^-48 and the float64 GEMM's own rounding;
clipping keeps that. So a row's k-th float32 score is at most that much
above its k-th float64 score, and every source whose float64 score
reaches the latter, each top-k member and each tie, scores within twice
that of the k-th float32 score. The screen keeps every source within
slack = 2 (d + 3) 2^-24 of it, the extra 2^-23 covering those small terms
and the float32 rounding of the threshold. The float64 GEMM above then
confirms the candidates, and their top-k is the row's, bit for bit. A
zero target row scores every source 0, so its candidates are the first k
sources. The screen decides no score.

Ties: every top-k kernel returns the top-k of the scores clipped to
[-1, 1] and breaks ties to the lowest index, keeping the sign of -0.0, so
the first k columns of a top-k' result (k' > k) equal top-k.
"""

from __future__ import annotations

import ctypes
import threading
from collections import deque
from functools import lru_cache
from math import isqrt

import numpy as np

from . import diffops
from .grid import PATCH_SIZE, FeatureMap, _edge_pad, _patch_rows, extract_patches, fold_patches

ORDERS = ("zero", "first", "second")

# Patches with a smaller L2 norm correlate as 0 instead of dividing by ~0.
MIN_PATCH_NORM = 1e-12

# Target rows per cosine GEMM call and per top_k call.
MATCH_TILE_ROWS = 64

# Source rows per confirm GEMM call of a long-row match: the rows it
# gathers take GATHER_ROWS * 9c * 8 bytes, however many sources tie.
GATHER_ROWS = 512

# Target rows whose matched patches matching_selection gathers and blends
# at once (a block's gather takes rows * k * 9c * 8 bytes).
SELECT_ROWS = 256

# top_k sweeps rows of at most this many cosines and reads longer rows by
# column groups: a sweep pass reads the whole row, so the row width decides
# which kernel is faster. Timings: the CHANGES.md entry that turned
# SWEEP_MAX_KM into this bound.
SWEEP_MAX_M = 1024

# top_k_rows shares its tiles among threads from this many target rows on;
# on smaller maps starting the threads costs more than they save. Timings:
# the CHANGES.md entry that put LR 64^2 matching on both cores.
THREAD_MIN_ROWS = 1024

# An RgbSide holds its maps' patch matrices and unit rows when they take at
# most this many bytes. Holding saves most extractions of a small run; on
# large maps it would raise the run's memory peak, and there matching, not
# extraction, takes the time. Sizes and peaks: the CHANGES.md entry that
# introduced RgbSide.
HOLD_BYTES = 2 * 1024 * 1024


def unit_rows(patches: np.ndarray) -> np.ndarray:
    """L2-normalized copy of patch rows; rows below MIN_PATCH_NORM become zero."""
    return _divide_rows(patches, np.sqrt(np.einsum("id,id->i", patches, patches)))


def _divide_rows(patches: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """unit_rows of `patches` given their row norms."""
    degenerate = norms < MIN_PATCH_NORM
    unit = patches / np.where(degenerate, 1.0, norms)[:, None]
    unit[degenerate] = 0.0
    return unit


class _MapRows:
    """unit_rows(extract_patches(f)) without the (hw, 9c) matrix: indexing
    gathers the rows from f's edge-padded copy and divides them by norms
    computed once from the whole matrix, so each row equals the matrix's
    row bit for bit. match_order passes a long row's target as one, since
    top_k_rows reads the target a tile at a time."""

    def __init__(self, f: FeatureMap):
        patches = extract_patches(f)
        self._norms = np.sqrt(np.einsum("id,id->i", patches, patches))
        self._pad = _edge_pad(f.data)

    def __len__(self) -> int:
        return len(self._norms)

    def __getitem__(self, index) -> np.ndarray:
        rows = np.arange(len(self))[index]
        return _divide_rows(_patch_rows(self._pad, rows), self._norms[rows])


@lru_cache(maxsize=64)
def _group_count(m: int, k: int) -> int:
    """top_k's group count g for rows of m columns, computed once per (m, k)."""
    top = min(m, max(64, 4 * isqrt(m)))
    return next((d for d in range(top, k - 1, -1) if m % d == 0), m)


def top_k(values: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact per-row top-k of clip(values, -1, 1) as (eta, psi), each (rows, k).

    eta holds source indices and psi their clipped scores, non-increasing
    per row, ties as the module docstring says. Rows of at most SWEEP_MAX_M
    scores are swept (_top_k_sweep). Longer rows are read once, by column
    groups: column j lies in group j mod g, where g is the largest divisor
    of m in [k, max(64, 4 isqrt(m))], or m if there is none. A row has at
    least k groups whose maximum reaches the k-th largest group maximum, so
    that value bounds the row's k-th largest score from below. Only the
    groups that reach the bound are gathered and clipped, and their entries
    that reach it are the candidates. The bound is clamped to 1 (-inf at or
    below -1), so a score that clips to the bound still ties. One stable
    sort by (row, descending score, column) keeps tied scores
    index-ascending, and each row keeps its first k candidates: the
    full-sort oracle, bit for bit.

    A larger g shortens the gather of m/g scores per hit group; a smaller g
    shortens the partition of the g group maxima. So g grows as sqrt(m)
    (timings per g: the CHANGES.md entry that added _group_count). In a
    fully tied tile every group reaches the bound, so the tile is gathered
    whole, once: at most about 9 times the tile's bytes.
    """
    n, m = values.shape
    _check_k(k, m)
    if m <= SWEEP_MAX_M:
        return _top_k_sweep(values, k)
    rows, cols, scores = _top_k_candidates(values, k)
    order = np.lexsort((cols, -scores, rows))
    pick = order[np.searchsorted(rows, np.arange(n))[:, None] + np.arange(k)]
    return cols[pick], scores[pick]


def _check_k(k: int, m: int) -> None:
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")


def _top_k_candidates(
    values: np.ndarray, k: int, slack: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """top_k's group pass: (rows, cols, clipped scores) of every entry that
    reaches its row's bound lowered by `slack`, rows ascending."""
    n, m = values.shape
    g = _group_count(m, k)
    groups = values.reshape(n, m // g, g)
    peaks = groups.max(axis=1)
    bound = np.partition(peaks, g - k, axis=1)[:, g - k]
    bound = np.where(bound > -1.0, np.minimum(bound, 1.0), -np.inf) - slack
    hit_rows, hit_groups = np.divmod(np.flatnonzero(peaks >= bound[:, None]), g)
    gathered = np.clip(groups[hit_rows, :, hit_groups], -1.0, 1.0)
    hit, offset = np.divmod(np.flatnonzero(gathered >= bound[hit_rows, None]), m // g)
    return hit_rows[hit], offset * g + hit_groups[hit], gathered[hit, offset]


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


def top_k_rows(t: np.ndarray | _MapRows, s: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Top-k (eta, psi) of the cosines between unit target rows t (from
    unit_rows, or a _MapRows) and unit source rows s, of any row counts,
    one tile of target rows at a time.

    On rows of at most SWEEP_MAX_M sources each tile of MATCH_TILE_ROWS
    target rows is one float64 GEMM written in place into its thread's
    cosine buffer, then top_k; the tile never shares memory with the
    source matrix, so numpy does not switch to SYRK. Longer rows are
    screened and confirmed by the module docstring's rule (_screen_tiles).
    Such a call holds s in float32 besides its arguments, and each thread
    one buffer of a 64-row float64 tile's bytes, which holds the screen's
    float32 tile of 2 * MATCH_TILE_ROWS rows and then the confirm's
    cosines, and one confirm's gathered rows.

    From THREAD_MIN_ROWS target rows on, the tiles are shared among as
    many threads as the caller's BLAS budget: the count that setting one
    thread through _openblas_set_local hands back, such as 2 under
    OPENBLAS_NUM_THREADS=2 or 1 in a fit probe worker. Each thread, the
    calling one among them, takes whole tiles off one queue and runs every
    step of each on a one-thread BLAS, so each core runs one busy thread.
    On smaller maps, without the binding or with a budget of 1, the
    calling thread runs every tile. Each thread writes only its tiles'
    rows, so which thread runs a tile changes no bit.
    """
    n, m = len(t), len(s)
    _check_k(k, m)
    eta, psi = np.empty((n, k), dtype=np.intp), np.empty((n, k))
    if m > SWEEP_MAX_M:
        work, size, rows = _screen_tiles, 2 * MATCH_TILE_ROWS, (t, s, s.astype(np.float32))
    else:
        work, size, rows = _match_tiles, MATCH_TILE_ROWS, (t, s)
    tiles = deque(range(0, n, size))
    args = (*rows, k, tiles, eta, psi)
    set_local = _openblas_set_local() if n >= THREAD_MIN_ROWS else None
    if set_local is None:
        work(*args, top_k)
        return eta, psi
    errors: list[BaseException] = []
    helpers = []
    with _BLAS_COUNT_LOCK:
        budget = set_local(1)
        try:
            for _ in range(min(budget, len(tiles)) - 1):
                helper = threading.Thread(target=_helper, args=(set_local, errors, work, *args))
                helper.start()
                helpers.append(helper)
            work(*args, top_k)
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
    size = MATCH_TILE_ROWS
    cosines = np.empty((size, len(s)))
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


def _screen_tiles(
    t: np.ndarray | _MapRows,
    s: np.ndarray,
    narrow: np.ndarray,
    k: int,
    tiles: deque,
    eta: np.ndarray,
    psi: np.ndarray,
    select=top_k,
) -> None:
    """_match_tiles on rows longer than SWEEP_MAX_M, with tiles of
    2 * MATCH_TILE_ROWS target rows and `narrow`, s in float32.

    The tile's nonzero rows in float32 are screened against `narrow` in
    one GEMM, and _top_k_candidates with the module docstring's slack
    names their candidates. The tile then confirms the union of its rows'
    candidates, in index order (with the first k sources if a row is
    zero): float64 GEMMs of GATHER_ROWS sources at a time, the last list
    padded with source 0, into the buffer the screen used, and `select`
    on the union's columns. A union too wide for the buffer is confirmed
    by 64-row halves instead, each with its own union.
    """
    size, m = MATCH_TILE_ROWS, len(s)
    buffer = np.empty(size * -(-m // size) * size)
    screen = buffer.view(np.float32)[: 2 * size * m].reshape(2 * size, m)
    slack = 2 * (narrow.shape[1] + 3) * 2.0**-24
    while True:
        try:
            r0 = tiles.popleft()
        except IndexError:
            return
        tile = t[r0 : r0 + 2 * size]
        zero = ~tile.any(axis=1)
        live = np.flatnonzero(~zero)
        np.matmul(tile[live].astype(np.float32), narrow.T, out=screen[: len(live)])
        hit_rows, hit_cols, _ = _top_k_candidates(screen[: len(live)], k, slack)
        hit_rows = live[hit_rows]
        spans = [(0, len(tile))]
        while spans:
            b0, b1 = spans.pop()
            lo, hi = np.searchsorted(hit_rows, (b0, b1))
            keep = np.zeros(m, dtype=bool)
            keep[hit_cols[lo:hi]] = True
            keep[:k] |= zero[b0:b1].any()
            cand = np.flatnonzero(keep)
            rows, cols = b1 - b0, len(cand)
            shape = (rows + -rows % size, cols + -cols % size)
            if shape[0] * shape[1] > len(buffer):
                spans += [(b0, b0 + size), (b0 + size, b1)]
                continue
            block = tile[b0:b1]
            if rows < shape[0]:
                block = np.pad(block, ((0, shape[0] - rows), (0, 0)))
            cand = np.concatenate((cand, np.zeros(shape[1] - cols, dtype=cand.dtype)))
            cosines = buffer[: shape[0] * shape[1]].reshape(shape)
            for c0 in range(0, cols, GATHER_ROWS):
                part = cand[c0 : c0 + GATHER_ROWS]
                np.matmul(block, s[part].T, out=cosines[:, c0 : c0 + len(part)])
            at, scores = select(cosines[:rows, :cols], k)
            eta[r0 + b0 : r0 + b1], psi[r0 + b0 : r0 + b1] = cand[at], scores


def _helper(set_local, errors: list, work, *args) -> None:
    """A helper thread of top_k_rows: work(*args) on a one-thread BLAS
    (setting it is a no-op where the count is the process's, which the
    calling thread has already set). An exception goes to `errors`, which
    top_k_rows raises from."""
    previous = set_local(1)
    try:
        work(*args)
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
    order_map(depth, order) against those of rgb_maps[order] (top_k_rows)."""
    target, source = order_map(depth, order), rgb_maps[order]
    if target.shape != source.shape:
        raise ValueError(f"target shape {target.shape} != source shape {source.shape}")
    if target.height * target.width > SWEEP_MAX_M:
        t = _MapRows(target)
    else:
        t = unit_rows(extract_patches(target))
    return top_k_rows(t, rgb_maps.unit_rows(order), k)

