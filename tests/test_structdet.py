import math

import numpy as np
import pytest
from helpers import checker_corner_mask
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from oracles import refine_gate_stack

from depthsr.diffops import eigenvalues, hessian_field
from depthsr.fusion import PipelineConfig, encode_rgb
from depthsr.grid import FeatureMap
from depthsr.scenes import SceneSpec, render_scene, ridge_masks
from depthsr.structdet import (
    compute_descriptor,
    detect,
    normalize_and_compress,
    refine_gate,
    structure_descriptor,
)


def s_of(l1, l2, p):
    """S at one pixel with eigenvalues (l1, l2)."""
    return structure_descriptor(np.array([[[l1]]]), np.array([[[l2]]]), p).data[0, 0, 0]


class TestDetectorParams:
    """The detector's two scalars, checked as PipelineConfig fields."""

    def test_positivity_enforced(self):
        with pytest.raises(ValueError, match="alpha_det must be positive"):
            PipelineConfig(alpha_det=0.0)
        with pytest.raises(ValueError, match="beta must be positive"):
            PipelineConfig(beta=-1.0)

    @pytest.mark.parametrize("name", ["alpha_det", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_scalars_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PipelineConfig(**{name: value})

    def test_epsilon_fixed(self):
        # eps is the module constant EPSILON, not a config field.
        with pytest.raises(TypeError):
            PipelineConfig(epsilon=1e-6)


class TestNormalizeAndCompress:
    def test_constant_map_is_zero(self):
        out = normalize_and_compress(FeatureMap(np.full((3, 4, 4), 9.0)))
        np.testing.assert_array_equal(out.data, 0.0)

    def test_single_channel_is_standardized_copy(self):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.normal(size=(1, 5, 5)))
        out = normalize_and_compress(f)
        plane = f.data[0]
        expected = (plane - plane.mean()) / (plane.std() + 1e-8)
        np.testing.assert_allclose(out.data[0], expected)

    def test_opposite_channels_cancel(self):
        rng = np.random.default_rng(1)
        plane = rng.normal(size=(4, 4))
        f = FeatureMap(np.stack([plane, -plane]))
        out = normalize_and_compress(f)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


class TestStructureDescriptor:
    def test_flat_curvature_is_zero(self):
        assert s_of(0.0, 0.0, PipelineConfig()) == 0.0

    def test_strong_corner_suppressed(self):
        # l1 = -5, l2 = -4, alpha = beta = 1: texture term exp(-20/(1+eps))
        p = PipelineConfig()
        s = s_of(-5.0, -4.0, p)
        expected = (1 - math.exp(-5.0 / (1 + 1e-8))) * math.exp(-20.0 / (1 + 1e-8))
        assert s == pytest.approx(expected, rel=1e-12)
        assert s < 1e-8

    def test_ridge_scores_high(self):
        # l1 = -5, l2 = -0.01: S ~ 0.9448
        p = PipelineConfig()
        s = s_of(-5.0, -0.01, p)
        expected = (1 - math.exp(-5.0 / (1 + 1e-8))) * math.exp(-0.05 / (1 + 1e-8))
        assert s == pytest.approx(expected, rel=1e-12)
        assert s == pytest.approx(0.9448, abs=2e-4)

    def test_zero_where_lambda2_nonnegative(self):
        p = PipelineConfig()
        assert s_of(-3.0, 0.0, p) == 0.0
        assert s_of(5.0, 2.0, p) == 0.0

    def test_monotone_in_lambda1_with_fixed_product(self):
        # With l2 < 0 and |l1*l2| held fixed, S grows with |l1|.
        p = PipelineConfig()
        values = []
        for l1 in (-1.0, -2.0, -4.0, -8.0):
            l2 = -1.0 / abs(l1)
            values.append(s_of(l1, l2, p))
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_in_product_with_fixed_lambda1(self):
        p = PipelineConfig()
        values = []
        for l2 in (-0.01, -0.1, -1.0, -4.0):
            values.append(s_of(-5.0, l2, p))
        assert all(b < a for a, b in zip(values, values[1:]))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7)),
            elements=st.one_of(
                st.floats(-1e6, 1e6),
                st.floats(-1e-300, 1e-300),
                st.sampled_from([0.0, 5e-324, -1e6, 1e6]),
            ),
        ),
        st.floats(0.01, 10.0),
        st.floats(0.01, 10.0),
    )
    @example(np.full((2, 5, 5), 3.0), 1.0, 1.0)
    @example(np.full((1, 4, 6), 1e-300), 1.0, 1.0)
    @example(np.full((3, 7, 7), -1e6), 0.5, 2.0)
    @settings(max_examples=200, deadline=None)
    def test_descriptor_in_unit_interval_and_masked(self, x, alpha, beta):
        f = FeatureMap(x)
        s = compute_descriptor(f, PipelineConfig(alpha_det=alpha, beta=beta))
        assert s.shape == (1, *x.shape[1:])
        assert s.data.min() >= 0.0 and s.data.max() <= 1.0
        _, l2 = eigenvalues(*hessian_field(normalize_and_compress(f)))
        assert np.all(s.data[l2 >= 0.0] == 0.0)


class TestRefineAndDetect:
    def test_zero_descriptor_gives_half_gate(self):
        gate = refine_gate(FeatureMap(np.zeros((1, 5, 5))))
        np.testing.assert_array_equal(gate.data, 0.5)

    @given(
        arrays(
            np.float64,
            array_shapes(min_dims=2, max_dims=2, max_side=7),
            elements=st.one_of(
                st.floats(0.0, 1.0),
                st.floats(0.0, 1e-300),
                st.sampled_from([0.0, 5e-324, 1e-310, 1.0 / 3.0, 1.0]),
            ),
        )
    )
    @example(np.zeros((4, 4)))
    @example(np.full((3, 5), 5e-324))
    @example(np.full((6, 6), 1.0 / 3.0))
    @settings(max_examples=200, deadline=None)
    def test_closed_form_equals_convolution_stack(self, s):
        d = FeatureMap(s[None])
        np.testing.assert_allclose(
            refine_gate(d).data, refine_gate_stack(d).data, rtol=0, atol=1e-15
        )

    def test_flat_input_gated_at_half(self):
        p = PipelineConfig()
        f = FeatureMap(np.full((3, 5, 5), 2.0))
        out = detect(f, p)
        np.testing.assert_allclose(out.data, 0.5 * f.data)

    def test_gate_bounds_magnitude(self):
        rng = np.random.default_rng(2)
        f = FeatureMap(rng.normal(size=(2, 8, 8)))
        out = detect(f, PipelineConfig())
        assert np.all(np.abs(out.data) <= np.abs(f.data) + 1e-15)

    def test_detect_equals_gate_times_input(self):
        rng = np.random.default_rng(3)
        f = FeatureMap(rng.normal(size=(2, 6, 6)))
        p = PipelineConfig()
        gate = refine_gate(compute_descriptor(f, p))
        out = detect(f, p)
        np.testing.assert_allclose(out.data, gate.data * f.data, atol=1e-12)


class TestSyntheticPatterns:
    @pytest.fixture(scope="class")
    def descriptors(self):
        params = PipelineConfig()
        out = {}
        for preset in ("ridge", "checker"):
            spec = SceneSpec(
                width=64, height=64, scale=4, dx=0.0, dy=0.0,
                noise_sigma=0.0, preset=preset,
            )
            scene = render_scene(spec)
            f = encode_rgb(scene.rgb, 1, 1)
            out[preset] = compute_descriptor(f, params).data[0]
        return out

    def test_ridge_crest_dominates_flat(self, descriptors):
        crest, flat = ridge_masks(64, 64)
        s = descriptors["ridge"]
        assert s[crest].mean() >= 5.0 * s[flat].mean()

    def test_ridge_beats_checker_corners(self, descriptors):
        crest, _ = ridge_masks(64, 64)
        corners = checker_corner_mask(64, 64)
        assert descriptors["ridge"][crest].mean() > descriptors["checker"][corners].mean()

    def test_descriptor_in_unit_interval(self, descriptors):
        for s in descriptors.values():
            assert s.min() >= 0.0 and s.max() <= 1.0

    def test_zero_exactly_where_lambda2_nonnegative(self):
        params = PipelineConfig()
        spec = SceneSpec(width=48, height=48, scale=4, dx=0.0, dy=0.0,
                         noise_sigma=0.0, preset="ridge")
        scene = render_scene(spec)
        f = encode_rgb(scene.rgb, 1, 1)
        comp = normalize_and_compress(f)
        _, l2 = eigenvalues(*hessian_field(comp))
        s = compute_descriptor(f, params).data
        assert np.all(s[l2 >= 0] == 0.0)
        assert np.all(s[l2 < 0] >= 0.0)
