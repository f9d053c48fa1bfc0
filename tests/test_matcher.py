import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import match_pair, shift_plane, textured_map
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import correlation_set_naive, matching_selection_einsum, top_k_naive

from depthsr import matcher
from depthsr.fusion import PipelineConfig, encode_depth, encode_rgb, rgb_order_maps
from depthsr.grid import DepthMap, FeatureMap, extract_patches, fold_patches
from depthsr.matcher import (
    match_order,
    matching_selection,
    order_map,
    softmax_rows,
    top_k,
    unit_rows,
)
from depthsr.scenes import SceneSpec, render_depth, render_scene


def all_cosines(target, source):
    """hw x hw cosines from the production kernel: top-k at k = hw, back in column order."""
    eta, psi = match_pair(target, source, target.height * target.width)
    values = np.empty(psi.shape)
    np.put_along_axis(values, eta, psi, axis=1)
    return values


def quantized_map(rng, c, h, w):
    """Values in {-1, 0, 1}: many cosines tie exactly."""
    return FeatureMap(rng.integers(-1, 2, size=(c, h, w)).astype(np.float64))


class TestCorrelationSet:
    def test_self_correlation_diagonal_is_one(self):
        f = textured_map(5, 5)
        np.testing.assert_allclose(np.diag(all_cosines(f, f)), 1.0, atol=1e-12)

    def test_scaled_source_diagonal_is_one(self):
        f = textured_map(4, 4)
        doubled = FeatureMap(2.0 * f.data)
        np.testing.assert_allclose(np.diag(all_cosines(f, doubled)), 1.0, atol=1e-12)

    def test_orthogonal_patches(self):
        # Center patches are one-hot at different offsets: cosine 0.
        a = np.zeros((1, 3, 3))
        a[0, 0, 0] = 1.0
        b = np.zeros((1, 3, 3))
        b[0, 0, 1] = 1.0
        assert all_cosines(FeatureMap(a), FeatureMap(b))[4, 4] == 0.0

    def test_zero_norm_patch_gives_zero(self):
        z = FeatureMap(np.zeros((1, 3, 3)))
        f = textured_map(3, 3)
        assert np.all(all_cosines(z, f) == 0.0)
        assert np.all(all_cosines(f, z) == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            match_pair(textured_map(3, 3), textured_map(3, 4), 9)

    def test_fast_path_matches_naive(self):
        # The 8-channel 12 x 12 pair spans three tiles, the last one padded.
        rng = np.random.default_rng(5)
        for shape in ((2, 6, 6), (2, 6, 6), (2, 6, 6), (8, 12, 12)):
            t = FeatureMap(rng.normal(size=shape))
            s = FeatureMap(rng.normal(size=shape))
            fast = all_cosines(t, s)
            naive = correlation_set_naive(t, s)
            assert np.abs(fast - naive).max() <= 1e-12

    def test_scale_invariance_of_source(self):
        rng = np.random.default_rng(7)
        t = FeatureMap(rng.normal(size=(1, 5, 5)))
        s = FeatureMap(rng.normal(size=(1, 5, 5)))
        base = all_cosines(t, s)
        scaled = all_cosines(t, FeatureMap(1234.5 * s.data))
        assert np.abs(base - scaled).max() <= 1e-6

    def test_values_lie_in_unit_interval(self):
        # Parallel and anti-parallel patches sit at +-1, where rounding could
        # step outside the interval without the clip.
        rng = np.random.default_rng(6)
        t = quantized_map(rng, 2, 6, 6)
        for s in (t, FeatureMap(-3.0 * t.data), quantized_map(rng, 2, 6, 6)):
            values = all_cosines(t, s)
            assert values.min() >= -1.0 and values.max() <= 1.0


class TestTopK:
    def test_self_match_top1(self):
        # Every row whose best score beats its second one matches itself.
        f = textured_map(6, 6, seed=3)
        eta, psi = match_pair(f, f, 2)
        unique = psi[:, 0] > psi[:, 1]
        assert unique.any()
        np.testing.assert_array_equal(eta[unique, 0], np.flatnonzero(unique))

    def test_constant_rows_tie_to_lowest_indices(self):
        f = FeatureMap(np.full((1, 3, 3), 2.0))
        eta, _ = match_pair(f, f, 2)
        np.testing.assert_array_equal(eta, np.tile([0, 1], (9, 1)))
        # Equal patches of this map have GEMM cosines of 1 + ulp, which clip
        # to a 1.0 tie.
        f = FeatureMap(np.full((1, 16, 16), 0.7))
        eta, psi = match_pair(f, f, 2)
        np.testing.assert_array_equal(eta, np.tile([0, 1], (256, 1)))
        np.testing.assert_array_equal(psi, 1.0)
        # The sweep clips before its argmax. On 16384 columns top_k works on
        # 512 column groups: a group maximum of 1 + ulp clamps the bound to
        # 1, so the group of the exact 1.0 at the lower index is kept and
        # comes first.
        for m in (256, 16384):
            row = np.zeros((1, m))
            row[0, 5] = 1.0
            row[0, 70] = np.nextafter(1.0, 2.0)
            for k in (1, 2):
                eta, psi = top_k(row, k)
                ref_eta, ref_psi = top_k_naive(np.clip(row, -1.0, 1.0), k)
                np.testing.assert_array_equal(eta, ref_eta)
                np.testing.assert_array_equal(psi, ref_psi)
                np.testing.assert_array_equal(eta, [[5, 70][:k]])
                np.testing.assert_array_equal(psi, 1.0)

    def test_k_equals_hw_is_full_sort(self):
        rng = np.random.default_rng(8)
        t = FeatureMap(rng.normal(size=(1, 4, 4)))
        s = FeatureMap(rng.normal(size=(1, 4, 4)))
        values = correlation_set_naive(t, s)
        eta, psi = top_k(values, 16)
        ref_eta, ref_psi = top_k_naive(values, 16)
        np.testing.assert_array_equal(eta, ref_eta)
        np.testing.assert_array_equal(psi, ref_psi)
        for row in eta:
            assert sorted(row) == list(range(16))

    def test_matches_full_sort_oracle_with_ties(self):
        # Quantized correlations force plenty of exact ties; -0.0 ties 0.0,
        # a constant block ties every entry of a row, and scores beyond +-1
        # tie once clipped. Rows of at most SWEEP_MAX_M (1024) columns are
        # swept: widths 12, 97, 256 and 1024, at every k. Wider rows take
        # the group kernel: widths 4096 and 16384 split into 256 and 512
        # column groups up to that k, and into one column per group above
        # it; the prime 1031 has one group at k = 1 and no divisor in
        # [k, 128] for k > 1, so those k put one column in each group.
        rng = np.random.default_rng(9)
        ulp = np.nextafter(1.0, 2.0)
        sweep_kernel, kernels = matcher._top_k_sweep, set()
        for m, ks in ((12, (1, 3, 7, 12)), (97, (1, 4, 64, 65, 97)),
                      (256, (1, 4, 64, 65, 256)), (1024, (1, 4, 65, 128, 129, 1024)),
                      (1031, (1, 4, 129, 1031)), (4096, (1, 4, 64, 65, 256, 257, 4096)),
                      (16384, (1, 4, 65, 512, 513))):
            blocks = (
                np.round(rng.uniform(-1, 1, size=(12, m)), 1),
                rng.choice([-0.0, 0.0, 0.5], size=(12, m)),
                np.full((12, m), 0.25),
                rng.choice([-2.0, -ulp, -1.0, 1.0, ulp, 2.0], size=(12, m)),
                rng.choice([-2.0, -ulp], size=(12, m)),
            )
            for vals in blocks:
                for k in ks:
                    with mock.patch.object(matcher, "_top_k_sweep", wraps=sweep_kernel) as sweep:
                        fast_eta, fast_psi = top_k(vals, k)
                    kernels.add((m, k, sweep.called))
                    ref_eta, ref_psi = top_k_naive(np.clip(vals, -1.0, 1.0), k)
                    np.testing.assert_array_equal(fast_eta, ref_eta)
                    np.testing.assert_array_equal(fast_psi, ref_psi)
                    assert np.array_equal(np.signbit(fast_psi), np.signbit(ref_psi))
        assert all(swept == (m <= matcher.SWEEP_MAX_M) for m, k, swept in kernels)
        assert {swept for _, _, swept in kernels} == {True, False}

    def test_real_lr16_tile_matches_full_sort_oracle(self):
        # One 64-row tile of the LR 16^2 boxes pair at first order: hw = 256,
        # so top_k sweeps at every k, 65 included.
        scene = render_scene(SceneSpec(width=64, height=64))
        target = order_map(encode_depth(scene.d_lr, 8), "first")
        source = order_map(encode_rgb(scene.rgb, 4, 8), "first")
        t, s = (unit_rows(extract_patches(f)) for f in (target, source))
        tile = t[128:192] @ s.T
        for k in (1, 4, 65):
            eta, psi = top_k(tile, k)
            ref_eta, ref_psi = top_k_naive(np.clip(tile, -1.0, 1.0), k)
            np.testing.assert_array_equal(eta, ref_eta)
            np.testing.assert_array_equal(psi, ref_psi)
            assert np.array_equal(np.signbit(psi), np.signbit(ref_psi))

    def test_real_lr64_tile_matches_full_sort_oracle(self):
        # One 64-row tile of the LR 64^2 boxes pair at first order, as
        # top_k_rows computes it: hw = 4096, 256 column groups for each k.
        scene = render_scene(SceneSpec(width=256, height=256))
        target = order_map(encode_depth(scene.d_lr, 8), "first")
        source = order_map(encode_rgb(scene.rgb, 4, 8), "first")
        t, s = (unit_rows(extract_patches(f)) for f in (target, source))
        tile = t[2048:2112] @ s.T
        for k in (1, 4, 65):
            eta, psi = top_k(tile, k)
            ref_eta, ref_psi = top_k_naive(np.clip(tile, -1.0, 1.0), k)
            np.testing.assert_array_equal(eta, ref_eta)
            np.testing.assert_array_equal(psi, ref_psi)

    def test_k_out_of_range(self):
        f = textured_map(3, 3)
        values = all_cosines(f, f)
        for k in (0, 10):
            with pytest.raises(ValueError):
                top_k(values, k)
            with pytest.raises(ValueError):
                match_pair(f, f, k)

    def test_streamed_equals_full(self):
        # The 5 x 6 maps fit in one padded tile; the quantized pair has
        # values in {-1, 0, 1}, so many cosines tie exactly. The 8 x 8 pair
        # fills exactly one tile. The 8-channel 12 x 12 pair (hw = 144,
        # d = 72) has two full tiles and a 16-row tail.
        rng = np.random.default_rng(10)
        normal = [FeatureMap(rng.normal(size=(1, 5, 6))) for _ in range(2)]
        quantized = [quantized_map(rng, 1, 5, 6) for _ in range(2)]
        one_tile = [FeatureMap(rng.normal(size=(2, 8, 8))) for _ in range(2)]
        wide = [FeatureMap(rng.normal(size=(8, 12, 12))) for _ in range(2)]
        for t, s in (normal, quantized, one_tile, wide):
            n = t.height * t.width
            values = all_cosines(t, s)
            for k in (1, 3, n):
                eta, psi = match_pair(t, s, k)
                for ref_eta, ref_psi in (top_k(values, k), top_k_naive(values, k)):
                    np.testing.assert_array_equal(eta, ref_eta)
                    np.testing.assert_array_equal(psi, ref_psi)

    def test_rerun_bit_identical(self):
        t = textured_map(6, 6, seed=1)
        s = textured_map(6, 6, seed=2)
        a_eta, a_psi = match_pair(t, s, 4)
        b_eta, b_psi = match_pair(t, s, 4)
        np.testing.assert_array_equal(a_eta, b_eta)
        np.testing.assert_array_equal(a_psi, b_psi)

    def test_first_columns_of_larger_k_are_top_k(self):
        # `depthsr match` keeps the first k columns of a wider request.
        rng = np.random.default_rng(13)
        t, s = quantized_map(rng, 1, 5, 6), quantized_map(rng, 1, 5, 6)
        wide_eta, wide_psi = match_pair(t, s, 30)
        for k in (1, 2, 7, 29):
            eta, psi = match_pair(t, s, k)
            np.testing.assert_array_equal(wide_eta[:, :k], eta)
            np.testing.assert_array_equal(wide_psi[:, :k], psi)


class TestMatchingSelection:
    def test_k1_is_fold_of_best_patch(self):
        rng = np.random.default_rng(11)
        src = FeatureMap(rng.normal(size=(1, 4, 4)))
        patches = extract_patches(src)
        eta = rng.integers(0, 16, size=(16, 1))
        out = matching_selection(patches, src.shape, eta, np.zeros((16, 1)))
        ref = fold_patches(patches[eta[:, 0]], src.shape)
        np.testing.assert_array_equal(out.data, ref.data)

    def test_self_match_identity(self):
        f = textured_map(5, 5, seed=4)
        out = matching_selection(extract_patches(f), f.shape, *match_pair(f, f, 1))
        np.testing.assert_allclose(out.data, f.data, atol=1e-12)

    def test_equal_scores_average_patches(self):
        rng = np.random.default_rng(12)
        src = FeatureMap(rng.normal(size=(1, 3, 3)))
        patches = extract_patches(src)
        eta = np.tile([0, 5], (9, 1))
        out = matching_selection(patches, src.shape, eta, np.full((9, 2), 0.25))
        mixed = 0.5 * patches[eta[:, 0]] + 0.5 * patches[eta[:, 1]]
        ref = fold_patches(mixed, src.shape)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_out_of_range_indices_rejected(self):
        src = textured_map(3, 3)
        with pytest.raises(ValueError):
            matching_selection(
                extract_patches(src), src.shape, np.full((9, 1), 9), np.zeros((9, 1))
            )

    @given(
        c=st.integers(1, 8),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        k=st.integers(1, 8),
        exponent=st.sampled_from([-300, -8, 0, 8, 300]),
        select_rows=st.integers(1, 81),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(c=1, h=1, w=1, k=1, exponent=0, select_rows=1, seed=0)
    @example(c=3, h=1, w=9, k=8, exponent=-300, select_rows=4, seed=1)
    @example(c=8, h=9, w=1, k=5, exponent=300, select_rows=81, seed=2)
    @settings(max_examples=200, deadline=None)
    def test_equals_einsum_gather_oracle(self, c, h, w, k, exponent, select_rows, seed):
        # Blocks of select_rows target rows, the last one short or the only one.
        rng = np.random.default_rng(seed)
        src = FeatureMap(rng.normal(size=(c, h, w)) * 10.0**exponent)
        eta = rng.integers(0, h * w, (h * w, k))
        psi = rng.uniform(-1.0, 1.0, (h * w, k))
        patches = extract_patches(src)
        with mock.patch.object(matcher, "SELECT_ROWS", select_rows):
            out = matching_selection(patches, src.shape, eta, psi)
        oracle = matching_selection_einsum(patches, src.shape, eta, psi)
        assert np.array_equal(out.data, oracle.data)

    def test_softmax_rows_normalized(self):
        w = softmax_rows(np.array([[1.0, 1.0, 1.0], [0.0, 10.0, -10.0]]))
        np.testing.assert_allclose(w.sum(axis=1), 1.0)
        np.testing.assert_allclose(w[0], 1.0 / 3.0)


class TestMatchOrder:
    def test_zero_order_self_is_identity(self):
        f = textured_map(5, 5, seed=5)
        matched = matching_selection(extract_patches(f), f.shape, *match_pair(f, f, 1))
        np.testing.assert_allclose(matched.data, f.data, atol=1e-12)

    def test_first_order_constant_maps_degenerate(self):
        # Constant maps have zero gradients, all correlations are 0, ties
        # resolve to the first k indices with uniform softmax weights.
        c = FeatureMap(np.full((1, 4, 4), 3.0))
        k = 3
        rgb_maps = rgb_order_maps(c, PipelineConfig(orders=("first",)))
        eta, psi = match_order(rgb_maps, c, "first", k)
        np.testing.assert_array_equal(eta, np.tile(np.arange(k), (16, 1)))
        matched = matching_selection(rgb_maps.patches("zero"), c.shape, eta, psi)
        mixed = extract_patches(c)[:k].mean(axis=0)
        ref = fold_patches(np.tile(mixed, (16, 1)), c.shape)
        np.testing.assert_allclose(matched.data, ref.data, atol=1e-12)
        prior = matching_selection(rgb_maps.patches("first"), c.shape, eta, psi)
        np.testing.assert_allclose(prior.data, 0.0, atol=1e-12)

    def test_second_order_recovers_shift_on_structured_scene(self):
        h = w = 32
        d = render_depth("boxes", h, w)
        shifted = shift_plane(d, 3, 4)
        rgb = FeatureMap.from_plane(shifted)
        depth = FeatureMap.from_plane(d)
        from depthsr.diffops import hessian_norm

        target = hessian_norm(depth)
        source = hessian_norm(rgb)
        eta, _ = match_pair(target, source, 1)
        idx = np.arange(h * w)
        expected = np.clip(idx // w + 3, 0, h - 1) * w + np.clip(idx % w + 4, 0, w - 1)
        hn = target.data[0].ravel()
        mask = hn > np.percentile(hn, 70)
        recovered = (eta[:, 0] == expected)[mask].mean()
        assert recovered >= 0.95

    def test_unknown_order(self):
        f = textured_map(3, 3)
        with pytest.raises(ValueError):
            match_order(rgb_order_maps(f, PipelineConfig(orders=("zero",))), f, "third", 1)

    def test_peak_memory_stays_below_one_dense_matrix(self):
        def match_and_select(rgb_maps, depth):
            eta, psi = match_order(rgb_maps, depth, "first", 4)
            return [
                matching_selection(rgb_maps.patches(name), depth.shape, eta, psi)
                for name in ("zero", "first")
            ]

        # hw = 1024: one dense correlation matrix takes 8 MiB, one 64-row
        # tile 512 KiB, which top_k's sweep copies once. On constant maps
        # every cosine ties.
        constant = FeatureMap(np.full((2, 32, 32), 0.5))
        pairs = (
            (textured_map(32, 32, c=2, seed=1), textured_map(32, 32, c=2, seed=3)),
            (constant, constant),
        )
        for rgb, depth in pairs:
            rgb_maps = rgb_order_maps(rgb, PipelineConfig(orders=("first",)))
            match_and_select(rgb_maps, depth)  # warm up
            tracemalloc.start()
            try:
                match_and_select(rgb_maps, depth)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024 * 1024 * 8
