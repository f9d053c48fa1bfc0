import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthsr.grid import (
    GAUSS_3X3,
    DepthMap,
    FeatureMap,
    NonFiniteError,
    PatchSet,
    bicubic_resample,
    conv2d,
    extract_patches,
    fold_patches,
    pixel_shuffle,
    pixel_unshuffle,
)

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])


def ramp_x(h, w):
    return np.tile(np.arange(w, dtype=np.float64), (h, 1))


class TestContainers:
    def test_feature_map_rejects_nan(self):
        with pytest.raises(NonFiniteError):
            FeatureMap(np.array([[[np.nan]]]))

    def test_feature_map_rejects_bad_ndim(self):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros((2, 2)))

    def test_depth_map_rejects_nonpositive_valid_depth(self):
        with pytest.raises(ValueError):
            DepthMap(np.array([[0.0]]), np.array([[True]]))

    def test_depth_map_allows_zero_on_invalid(self):
        d = DepthMap(np.array([[0.0, 1.5]]), np.array([[False, True]]))
        assert d.valid.sum() == 1

    def test_patch_set_shape_checked(self):
        with pytest.raises(ValueError):
            PatchSet(np.zeros((4, 8)), channels=1, height=2, width=2)


class TestExtractPatches:
    def test_single_pixel_replicates(self):
        f = FeatureMap(np.full((1, 1, 1), 5.0))
        p = extract_patches(f)
        assert p.count == 1
        np.testing.assert_array_equal(p.vectors[0], np.full(9, 5.0))

    def test_center_patch_of_3x3_is_the_map(self):
        f = FeatureMap(np.arange(9, dtype=np.float64).reshape(1, 3, 3))
        p = extract_patches(f)
        np.testing.assert_array_equal(p.vectors[4], np.arange(9, dtype=np.float64))

    def test_corner_patch_replicate_padding(self):
        # Hand-applied replicate padding on [[1,2],[3,4]] at (0,0).
        f = FeatureMap(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        p = extract_patches(f)
        assert p.count == 4
        np.testing.assert_array_equal(
            p.vectors[0], np.array([1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 3.0, 3.0, 4.0])
        )

    def test_patch_centers_are_row_major(self):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.normal(size=(2, 4, 5)))
        p = extract_patches(f)
        # center value of patch at (y, x) lives at offset 4 within each
        # channel block of 9
        centers = p.vectors[:, 4].reshape(4, 5)
        np.testing.assert_array_equal(centers, f.data[0])


class TestFoldPatches:
    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        f = FeatureMap(rng.normal(size=(4, 6, 5)))
        g = fold_patches(extract_patches(f))
        np.testing.assert_allclose(g.data, f.data, rtol=0, atol=1e-12)

    def test_round_trip_exhaustive_small_sizes(self):
        rng = np.random.default_rng(2)
        for c in range(1, 5):
            for h in range(1, 7):
                for w in range(1, 7):
                    f = FeatureMap(rng.normal(size=(c, h, w)))
                    g = fold_patches(extract_patches(f))
                    np.testing.assert_allclose(g.data, f.data, rtol=0, atol=1e-12)

    def test_all_ones_patches_fold_to_ones(self):
        ones = PatchSet(np.ones((9, 9)), channels=1, height=3, width=3)
        np.testing.assert_allclose(fold_patches(ones).data, np.ones((1, 3, 3)))

    def test_single_interior_patch_weighted_by_counts(self):
        # One interior patch of ones on a 5x5 grid; every pixel's
        # contribution count is 9 under replicate geometry, so the folded
        # map is 1/9 on the patch footprint and 0 elsewhere.
        vec = np.zeros((25, 9))
        vec[2 * 5 + 2] = 1.0
        folded = fold_patches(PatchSet(vec, channels=1, height=5, width=5))
        expected = np.zeros((5, 5))
        expected[1:4, 1:4] = 1.0 / 9.0
        np.testing.assert_allclose(folded.data[0], expected, atol=1e-15)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(3)
        f = FeatureMap(rng.normal(size=(2, 5, 6)))
        k = np.zeros((2, 2, 3, 3))
        k[0, 0, 1, 1] = 1.0
        k[1, 1, 1, 1] = 1.0
        np.testing.assert_array_equal(conv2d(f, k).data, f.data)

    def test_gauss_kernel_is_read_only_and_normalized(self):
        assert not GAUSS_3X3.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            GAUSS_3X3[1, 1] = 0.0
        assert GAUSS_3X3.sum() == 1.0

    def test_box_kernel_preserves_constant(self):
        f = FeatureMap(np.full((1, 4, 4), 2.5))
        k = np.ones((1, 1, 3, 3)) / 9.0
        np.testing.assert_allclose(conv2d(f, k).data, f.data, atol=1e-12)

    def test_sobel_x_on_ramp(self):
        # Raw Sobel-x response on f(x, y) = x is 8 at interior pixels.
        f = FeatureMap(ramp_x(5, 7)[None])
        out = conv2d(f, SOBEL_X[None, None]).data[0]
        np.testing.assert_allclose(out[:, 1:-1], 8.0, atol=1e-12)

    def test_rejects_even_kernel(self):
        f = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            conv2d(f, np.zeros((1, 1, 2, 2)))

    def test_stride_output_is_ceil(self):
        f = FeatureMap(np.zeros((1, 5, 7)))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        out = conv2d(f, k, stride=2)
        assert out.shape == (1, 3, 4)

    def test_linearity(self):
        rng = np.random.default_rng(4)
        f = FeatureMap(rng.normal(size=(1, 6, 6)))
        g = FeatureMap(rng.normal(size=(1, 6, 6)))
        k = rng.normal(size=(2, 1, 3, 3))
        lhs = conv2d(FeatureMap(2.0 * f.data + 3.0 * g.data), k).data
        rhs = 2.0 * conv2d(f, k).data + 3.0 * conv2d(g, k).data
        np.testing.assert_allclose(lhs, rhs, rtol=1e-6)


class TestBicubicResample:
    def test_scale_one_is_identity(self):
        rng = np.random.default_rng(5)
        f = FeatureMap(rng.normal(size=(2, 5, 7)))
        np.testing.assert_array_equal(bicubic_resample(f, 1.0).data, f.data)

    def test_constant_preserved(self):
        f = FeatureMap(np.full((1, 6, 6), 3.25))
        for scale in (0.5, 2.0, 1.5):
            out = bicubic_resample(f, scale)
            np.testing.assert_allclose(out.data, 3.25, atol=1e-6)

    def test_upsample_reproduces_linear_ramp_interior(self):
        h, w = 8, 8
        f = FeatureMap((0.5 * ramp_x(h, w) + 0.25 * ramp_x(w, h).T)[None])
        out = bicubic_resample(f, 2.0).data[0]
        ys = (np.arange(2 * h) + 0.5) / 2.0 - 0.5
        xs = (np.arange(2 * w) + 0.5) / 2.0 - 0.5
        expected = 0.5 * xs[None, :] + 0.25 * ys[:, None]
        # Exact cubic reproduction needs the full 4-tap support in bounds,
        # which trims 3 output pixels per border at 2x.
        np.testing.assert_allclose(out[3:-3, 3:-3], expected[3:-3, 3:-3], atol=1e-6)

    def test_depth_mask_nearest(self):
        depth = np.full((4, 4), 2.0)
        valid = np.ones((4, 4), dtype=bool)
        valid[0, 0] = False
        depth[0, 0] = 0.0
        d = DepthMap(depth, valid)
        up = bicubic_resample(d, 2.0)
        assert up.depth.shape == (8, 8)
        assert not up.valid[0, 0] and not up.valid[1, 1]
        assert up.valid[2, 2]

    def test_rejects_nonpositive_target(self):
        f = FeatureMap(np.zeros((1, 4, 4)))
        with pytest.raises(ValueError):
            bicubic_resample(f, 0.01)
        with pytest.raises(ValueError):
            bicubic_resample(f, -1.0)


class TestPixelShuffle:
    def test_scale_one_identity(self):
        rng = np.random.default_rng(6)
        f = FeatureMap(rng.normal(size=(3, 4, 4)))
        np.testing.assert_array_equal(pixel_shuffle(f, 1).data, f.data)

    def test_constant_channels_tile_pattern(self):
        f = FeatureMap(np.stack([np.full((2, 2), float(i)) for i in range(4)]))
        out = pixel_shuffle(f, 2).data[0]
        tile = np.array([[0.0, 1.0], [2.0, 3.0]])
        np.testing.assert_array_equal(out, np.tile(tile, (2, 2)))

    def test_unshuffle_then_shuffle_round_trip(self):
        rng = np.random.default_rng(7)
        f = FeatureMap(rng.normal(size=(2, 6, 9)))
        back = pixel_shuffle(pixel_unshuffle(f, 3), 3)
        np.testing.assert_array_equal(back.data, f.data)

    def test_rejects_indivisible_channels(self):
        f = FeatureMap(np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            pixel_shuffle(f, 2)

    @given(
        c=st.integers(1, 3),
        s=st.integers(1, 3),
        h=st.integers(1, 4),
        w=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_is_bijection_on_entries(self, c, s, h, w, seed):
        rng = np.random.default_rng(seed)
        f = FeatureMap(rng.normal(size=(c * s * s, h, w)))
        out = pixel_shuffle(f, s)
        assert out.shape == (c, h * s, w * s)
        np.testing.assert_array_equal(np.sort(out.data.ravel()), np.sort(f.data.ravel()))
