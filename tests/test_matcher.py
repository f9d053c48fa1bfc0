import tracemalloc

import numpy as np
import pytest
from helpers import shift_plane
from oracles import correlation_set_naive, top_k_naive

from depthsr import matcher
from depthsr.grid import DepthMap, FeatureMap, extract_patches, fold_patches
from depthsr.matcher import (
    MatchResult,
    match_order,
    matching_selection,
    self_match_stats,
    softmax_rows,
    top_k,
    top_k_streamed,
)
from depthsr.scenes import render_depth, value_noise


def textured_map(h, w, c=1, seed=0):
    return FeatureMap(
        np.stack([value_noise(h, w, 3, seed + i) for i in range(c)])
    )


def all_cosines(target, source):
    """hw x hw cosines from the production kernel: top-k at k = hw, back in column order."""
    m = top_k_streamed(target, source, target.height * target.width)
    values = np.empty(m.psi.shape)
    np.put_along_axis(values, m.eta, m.psi, axis=1)
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
            top_k_streamed(textured_map(3, 3), textured_map(3, 4), 9)

    def test_fast_path_matches_naive(self):
        rng = np.random.default_rng(5)
        for trial in range(3):
            t = FeatureMap(rng.normal(size=(2, 6, 6)))
            s = FeatureMap(rng.normal(size=(2, 6, 6)))
            fast = all_cosines(t, s)
            naive = correlation_set_naive(t, s)
            assert np.abs(fast - naive).max() <= 1e-6

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
        f = textured_map(6, 6, seed=3)
        unique, hits = self_match_stats(top_k_streamed(f, f, 2))
        assert unique > 0
        assert hits == unique

    def test_constant_rows_tie_to_lowest_indices(self):
        f = FeatureMap(np.full((1, 3, 3), 2.0))
        m = top_k_streamed(f, f, 2)
        np.testing.assert_array_equal(m.eta, np.tile([0, 1], (9, 1)))

    def test_k_equals_hw_is_full_sort(self):
        rng = np.random.default_rng(8)
        t = FeatureMap(rng.normal(size=(1, 4, 4)))
        s = FeatureMap(rng.normal(size=(1, 4, 4)))
        values = correlation_set_naive(t, s)
        m = top_k(values, 16)
        ref = top_k_naive(values, 16)
        np.testing.assert_array_equal(m.eta, ref.eta)
        np.testing.assert_array_equal(m.psi, ref.psi)
        for row in m.eta:
            assert sorted(row) == list(range(16))

    def test_matches_full_sort_oracle_with_ties(self):
        # Quantized correlations force plenty of exact ties.
        rng = np.random.default_rng(9)
        vals = np.round(rng.uniform(-1, 1, size=(12, 12)), 1)
        for k in (1, 3, 7, 12):
            fast = top_k(vals, k)
            ref = top_k_naive(vals, k)
            np.testing.assert_array_equal(fast.eta, ref.eta)
            np.testing.assert_array_equal(fast.psi, ref.psi)

    def test_k_out_of_range(self):
        f = textured_map(3, 3)
        values = all_cosines(f, f)
        for k in (0, 10):
            with pytest.raises(ValueError):
                top_k(values, k)
            with pytest.raises(ValueError):
                top_k_streamed(f, f, k)

    def test_streamed_equals_full(self, monkeypatch):
        # 5 x 6 maps: 30 rows of 240 bytes each. Budgets below one row still
        # give 1-row blocks; 7 rows leave a short last block. The quantized
        # pair has values in {-1, 0, 1}, so many cosines tie exactly.
        rng = np.random.default_rng(10)
        normal = [FeatureMap(rng.normal(size=(1, 5, 6))) for _ in range(2)]
        quantized = [quantized_map(rng, 1, 5, 6) for _ in range(2)]
        for t, s in (normal, quantized):
            values = all_cosines(t, s)
            for k in (1, 3, 30):
                full = top_k(values, k)
                naive = top_k_naive(values, k)
                for budget in (1, 240, 4 * 240, 7 * 240, 30 * 240):
                    monkeypatch.setattr(matcher, "MATCH_BLOCK_BYTES", budget)
                    streamed = top_k_streamed(t, s, k)
                    for ref in (full, naive):
                        np.testing.assert_array_equal(streamed.eta, ref.eta)
                        np.testing.assert_array_equal(streamed.psi, ref.psi)

    def test_rerun_bit_identical(self):
        t = textured_map(6, 6, seed=1)
        s = textured_map(6, 6, seed=2)
        a = top_k_streamed(t, s, 4)
        b = top_k_streamed(t, s, 4)
        np.testing.assert_array_equal(a.eta, b.eta)
        np.testing.assert_array_equal(a.psi, b.psi)

    def test_first_columns_of_larger_k_are_top_k(self):
        # `depthsr match` keeps the first k columns of a wider request.
        rng = np.random.default_rng(13)
        t, s = quantized_map(rng, 1, 5, 6), quantized_map(rng, 1, 5, 6)
        widest = top_k_streamed(t, s, 30)
        for k in (1, 2, 7, 29):
            m = top_k_streamed(t, s, k)
            np.testing.assert_array_equal(widest.eta[:, :k], m.eta)
            np.testing.assert_array_equal(widest.psi[:, :k], m.psi)


class TestSelfMatchStats:
    @staticmethod
    def dense_stats(values, top1):
        """Rows whose maximum occurs once, and those whose top-1 is the self index."""
        unique = (values == values.max(axis=1)[:, None]).sum(axis=1) == 1
        hits = top1 == np.arange(values.shape[0])
        return int(unique.sum()), int((unique & hits).sum())

    def test_top_two_equal_dense_definition(self):
        # The statistic counts exact ties, so the dense definition reads the
        # production cosines: the naive oracle sums the products in another
        # order, and distinct patches with equal cosines can differ there in
        # the last bit. Those cosines agree with the oracle to 1e-12.
        rng = np.random.default_rng(14)
        for h, w in ((1, 1), (1, 4), (3, 3), (4, 5), (6, 6)):
            t = quantized_map(rng, 1, h, w)
            for s in (t, quantized_map(rng, 1, h, w)):
                values = all_cosines(t, s)
                assert np.abs(values - correlation_set_naive(t, s)).max() <= 1e-12
                hw = h * w
                for k in range(1, hw + 1):
                    wide = top_k_streamed(t, s, min(max(k, 2), hw))
                    expected = self.dense_stats(values, top_k_naive(values, 1).eta[:, 0])
                    assert self_match_stats(wide) == expected

    def test_one_column_needs_a_single_patch(self):
        f = textured_map(3, 3)
        with pytest.raises(ValueError):
            self_match_stats(top_k_streamed(f, f, 1))
        one = textured_map(1, 1)
        assert self_match_stats(top_k_streamed(one, one, 1)) == (1, 1)


class TestMatchingSelection:
    def test_k1_is_fold_of_best_patch(self):
        rng = np.random.default_rng(11)
        src = FeatureMap(rng.normal(size=(1, 4, 4)))
        patches = extract_patches(src)
        eta = rng.integers(0, 16, size=(16, 1))
        m = MatchResult(eta, np.zeros((16, 1)))
        out = matching_selection(src, m)
        ref = fold_patches(
            type(patches)(patches.vectors[eta[:, 0]], 1, 4, 4)
        )
        np.testing.assert_array_equal(out.data, ref.data)

    def test_self_match_identity(self):
        f = textured_map(5, 5, seed=4)
        out = matching_selection(f, top_k_streamed(f, f, 1))
        np.testing.assert_allclose(out.data, f.data, atol=1e-12)

    def test_equal_scores_average_patches(self):
        rng = np.random.default_rng(12)
        src = FeatureMap(rng.normal(size=(1, 3, 3)))
        patches = extract_patches(src).vectors
        eta = np.tile([0, 5], (9, 1))
        m = MatchResult(eta, np.full((9, 2), 0.25))
        out = matching_selection(src, m)
        mixed = 0.5 * patches[eta[:, 0]] + 0.5 * patches[eta[:, 1]]
        ref = fold_patches(type(extract_patches(src))(mixed, 1, 3, 3))
        np.testing.assert_allclose(out.data, ref.data, atol=1e-12)

    def test_out_of_range_indices_rejected(self):
        src = textured_map(3, 3)
        m = MatchResult(np.full((9, 1), 9), np.zeros((9, 1)))
        with pytest.raises(ValueError):
            matching_selection(src, m)

    def test_softmax_rows_normalized(self):
        w = softmax_rows(np.array([[1.0, 1.0, 1.0], [0.0, 10.0, -10.0]]))
        np.testing.assert_allclose(w.sum(axis=1), 1.0)
        np.testing.assert_allclose(w[0], 1.0 / 3.0)


class TestMatchOrder:
    def test_zero_order_self_is_identity(self):
        f = textured_map(5, 5, seed=5)
        matched, prior = match_order(f, f, "zero", 1)
        assert prior is None
        np.testing.assert_allclose(matched.data, f.data, atol=1e-12)

    def test_first_order_constant_maps_degenerate(self):
        # Constant maps have zero gradients, all correlations are 0, ties
        # resolve to the first k indices with uniform softmax weights.
        c = FeatureMap(np.full((1, 4, 4), 3.0))
        k = 3
        matched, prior = match_order(c, c, "first", k)
        patches = extract_patches(c).vectors
        mixed = patches[:k].mean(axis=0)
        ref = fold_patches(
            type(extract_patches(c))(np.tile(mixed, (16, 1)), 1, 4, 4)
        )
        np.testing.assert_allclose(matched.data, ref.data, atol=1e-12)
        assert prior is not None
        np.testing.assert_allclose(prior.data, 0.0, atol=1e-12)

    def test_second_order_recovers_shift_on_structured_scene(self):
        h = w = 32
        d = render_depth("boxes", h, w)
        shifted = shift_plane(d, 3, 4)
        rgb = FeatureMap.from_plane(shifted)
        depth = FeatureMap.from_plane(d)
        from depthsr.diffops import hessian_field, hessian_norm

        target = hessian_norm(hessian_field(depth))
        source = hessian_norm(hessian_field(rgb))
        m = top_k_streamed(target, source, 1)
        idx = np.arange(h * w)
        expected = np.clip(idx // w + 3, 0, h - 1) * w + np.clip(idx % w + 4, 0, w - 1)
        hn = target.data[0].ravel()
        mask = hn > np.percentile(hn, 70)
        recovered = (m.eta[:, 0] == expected)[mask].mean()
        assert recovered >= 0.95

    def test_unknown_order(self):
        f = textured_map(3, 3)
        with pytest.raises(ValueError):
            match_order(f, f, "third", 1)

    def test_peak_memory_stays_below_one_dense_matrix(self, monkeypatch):
        # hw = 1024: one dense correlation matrix takes 8 MiB; a 64 KiB
        # budget streams it in 8-row blocks.
        monkeypatch.setattr(matcher, "MATCH_BLOCK_BYTES", 64 << 10)
        rgb = textured_map(32, 32, c=2, seed=1)
        depth = textured_map(32, 32, c=2, seed=3)
        match_order(rgb, depth, "first", 4)  # warm up lazy allocations
        tracemalloc.start()
        try:
            match_order(rgb, depth, "first", 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8
