import numpy as np
import pytest
from helpers import checker_corner_mask, render_shifted_pair, shift_plane

from depthsr.grid import FeatureMap, bicubic_resample
from depthsr.matcher import top_k_streamed
from depthsr.scenes import (
    PRESETS,
    Scene,
    SceneSpec,
    render_depth,
    render_scene,
    ridge_masks,
    sample_bicubic,
    value_noise,
)


class TestSceneSpec:
    def test_defaults_valid(self):
        spec = SceneSpec()
        assert spec.preset == "boxes"
        assert spec.width % spec.scale == 0

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError):
            SceneSpec(width=30, height=32, scale=4)

    def test_rotation_bounded(self):
        with pytest.raises(ValueError):
            SceneSpec(rotation_deg=11.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            SceneSpec(preset="spheres")

    @pytest.mark.parametrize("name", ["dx", "dy", "rotation_deg", "noise_sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SceneSpec(**{name: value})


class TestRenderDepth:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_positive_finite_depth(self, preset):
        d = render_depth(preset, 48, 48)
        assert np.isfinite(d).all()
        assert d.min() > 0.0

    def test_deterministic(self):
        a = render_depth("boxes", 32, 32)
        b = render_depth("boxes", 32, 32)
        np.testing.assert_array_equal(a, b)

    def test_boxes_have_sharp_steps(self):
        d = render_depth("boxes", 64, 64)
        jumps = np.abs(np.diff(d, axis=1)).max()
        assert jumps > 0.5


class TestWarpHelpers:
    def test_shift_plane_moves_content(self):
        plane = np.arange(16, dtype=np.float64).reshape(4, 4)
        out = shift_plane(plane, 1, 2)
        assert out[1, 2] == plane[0, 0]
        # replicate border
        assert out[0, 0] == plane[0, 0]

    def test_sample_bicubic_at_grid_points(self):
        rng = np.random.default_rng(0)
        plane = rng.normal(size=(6, 6))
        ys, xs = np.mgrid[0:6, 0:6].astype(np.float64)
        np.testing.assert_allclose(sample_bicubic(plane, ys, xs), plane, atol=1e-12)

    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.5, 2.0, 4.0])
    def test_sample_bicubic_at_sample_centers_equals_bicubic_resample(self, scale):
        # Both apply the Catmull-Rom taps of grid.cubic_taps: one separably
        # per axis, the other as a 4x4 stencil at each point.
        plane = np.random.default_rng(1).normal(size=(8, 12))
        out = bicubic_resample(FeatureMap(plane[None]), scale).data[0]
        (h, w), (oh, ow) = plane.shape, out.shape
        ys = (np.arange(oh) + 0.5) * (h / oh) - 0.5
        xs = (np.arange(ow) + 0.5) * (w / ow) - 0.5
        ys, xs = np.meshgrid(ys, xs, indexing="ij")
        np.testing.assert_allclose(sample_bicubic(plane, ys, xs), out, rtol=0, atol=1e-12)

    def test_value_noise_deterministic_in_unit_range(self):
        a = value_noise(16, 16, 4, seed=3)
        b = value_noise(16, 16, 4, seed=3)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0.0 and a.max() <= 1.0


class TestRenderScene:
    def test_outputs_and_shapes(self):
        spec = SceneSpec(width=32, height=32, scale=4, noise_sigma=0.05)
        scene = render_scene(spec)
        assert isinstance(scene, Scene)
        assert scene.rgb.shape == (3, 32, 32)
        assert scene.d_gt.depth.shape == (32, 32)
        assert scene.d_lr.depth.shape == (8, 8)
        assert scene.d_lr_noisy is not None
        assert scene.d_lr_noisy.depth.shape == (8, 8)

    def test_no_noise_variant_when_sigma_zero(self):
        scene = render_scene(SceneSpec(width=32, height=32, scale=4, noise_sigma=0.0))
        assert scene.d_lr_noisy is None

    def test_rgb_in_unit_range(self):
        scene = render_scene(SceneSpec(width=32, height=32, scale=4))
        assert scene.rgb.data.min() >= 0.0
        assert scene.rgb.data.max() <= 1.0

    def test_deterministic(self):
        spec = SceneSpec(width=32, height=32, scale=4)
        a = render_scene(spec)
        b = render_scene(spec)
        np.testing.assert_array_equal(a.rgb.data, b.rgb.data)
        np.testing.assert_array_equal(a.d_lr_noisy.depth, b.d_lr_noisy.depth)

    def test_aligned_scene_recovers_zero_shift(self):
        # With no misalignment the depth-vs-depth match oracle reports (0,0).
        d_lr, _rgb = render_shifted_pair("boxes", 32, 32, 0, 0)
        f = FeatureMap.from_plane(d_lr.depth)
        eta, _ = top_k_streamed(f, f, 1)
        unique_rows = np.arange(32 * 32)
        assert (eta[:, 0] == unique_rows).mean() > 0.95

    def test_rotation_changes_rgb_only(self):
        base = render_scene(SceneSpec(width=32, height=32, scale=4, rotation_deg=0.0))
        rot = render_scene(SceneSpec(width=32, height=32, scale=4, rotation_deg=5.0))
        np.testing.assert_array_equal(base.d_gt.depth, rot.d_gt.depth)
        assert np.any(base.rgb.data != rot.rgb.data)


class TestMasks:
    def test_ridge_masks_disjoint(self):
        crest, flat = ridge_masks(64, 64)
        assert not np.any(crest & flat)
        assert crest.any() and flat.any()

    def test_checker_corner_mask_nonempty_interior(self):
        mask = checker_corner_mask(64, 64)
        assert mask.any()
        assert not mask[0].any() and not mask[-1].any()
