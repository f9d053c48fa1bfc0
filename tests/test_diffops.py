import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthsr.diffops import eigenvalues, gradient_magnitude, hessian_field, hessian_norm
from depthsr.grid import FeatureMap


def coords(h, w):
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    return y, x


def interior(a):
    return a[..., 1:-1, 1:-1]


class TestGradientMagnitude:
    def test_constant_is_zero(self):
        f = FeatureMap(np.full((2, 5, 5), 7.0))
        np.testing.assert_array_equal(gradient_magnitude(f).data, 0.0)

    def test_ramp_is_one_interior(self):
        y, x = coords(6, 7)
        g = gradient_magnitude(FeatureMap(x[None])).data[0]
        np.testing.assert_allclose(interior(g), 1.0, atol=1e-12)

    def test_diagonal_ramp_is_sqrt2(self):
        y, x = coords(6, 6)
        g = gradient_magnitude(FeatureMap((x + y)[None])).data[0]
        np.testing.assert_allclose(interior(g), np.sqrt(2.0), atol=1e-12)

    def test_exact_on_affine(self):
        y, x = coords(8, 9)
        f = FeatureMap((1.5 + 2.0 * x - 0.75 * y)[None])
        g = gradient_magnitude(f).data[0]
        np.testing.assert_allclose(interior(g), np.hypot(2.0, 0.75), atol=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.normal(size=(3, 6, 6)))
        assert gradient_magnitude(f).data.min() >= 0.0


class TestHessianField:
    def test_linear_ramp_is_zero_interior(self):
        y, x = coords(6, 6)
        for part in hessian_field(FeatureMap((2.0 * x + 3.0 * y)[None])):
            np.testing.assert_allclose(interior(part), 0.0, atol=1e-12)

    def test_x_squared(self):
        y, x = coords(6, 7)
        dxx, dyy, dxy = hessian_field(FeatureMap((x * x)[None]))
        np.testing.assert_allclose(interior(dxx), 2.0, atol=1e-6)
        np.testing.assert_allclose(interior(dyy), 0.0, atol=1e-6)
        np.testing.assert_allclose(interior(dxy), 0.0, atol=1e-6)

    def test_y_squared(self):
        y, x = coords(7, 6)
        dxx, dyy, _ = hessian_field(FeatureMap((y * y)[None]))
        np.testing.assert_allclose(interior(dyy), 2.0, atol=1e-6)
        np.testing.assert_allclose(interior(dxx), 0.0, atol=1e-6)

    def test_xy_cross_term(self):
        y, x = coords(6, 6)
        dxx, dyy, dxy = hessian_field(FeatureMap((x * y)[None]))
        np.testing.assert_allclose(interior(dxy), 1.0, atol=1e-6)
        np.testing.assert_allclose(interior(dxx), 0.0, atol=1e-6)
        np.testing.assert_allclose(interior(dyy), 0.0, atol=1e-6)


class TestHessianNorm:
    """Norms on quadratic images, whose stencil Hessian is exact inside."""

    def test_zero_field(self):
        y, x = coords(5, 6)
        out = hessian_norm(FeatureMap((1.0 + 2.0 * x - 3.0 * y)[None]))
        np.testing.assert_allclose(interior(out.data), 0.0, atol=1e-12)

    def test_single_term(self):
        y, x = coords(6, 7)
        out = hessian_norm(FeatureMap((x * x)[None]))
        np.testing.assert_allclose(interior(out.data), 2.0, atol=1e-12)

    def test_cross_term(self):
        y, x = coords(6, 7)
        out = hessian_norm(FeatureMap((x * y)[None]))
        np.testing.assert_allclose(interior(out.data), np.sqrt(2.0), atol=1e-12)

    def test_mixed_terms(self):
        y, x = coords(7, 6)
        out = hessian_norm(FeatureMap((0.5 * (x * x + y * y) + x * y)[None]))
        np.testing.assert_allclose(interior(out.data), 2.0, atol=1e-12)  # sqrt(1 + 1 + 2)


def _field(dxx, dyy, dxy):
    return tuple(np.full((1, 1, 1), float(v)) for v in (dxx, dyy, dxy))


class TestEigenvalues:
    def test_diagonal(self):
        l1, l2 = eigenvalues(*_field(2.0, -1.0, 0.0))
        assert l1[0, 0, 0] == 2.0
        assert l2[0, 0, 0] == -1.0

    def test_tie_goes_to_algebraically_larger(self):
        l1, l2 = eigenvalues(*_field(1.0, -1.0, 0.0))
        assert l1[0, 0, 0] == 1.0
        assert l2[0, 0, 0] == -1.0

    def test_pure_cross(self):
        l1, l2 = eigenvalues(*_field(0.0, 0.0, 1.0))
        assert l1[0, 0, 0] == pytest.approx(1.0)
        assert l2[0, 0, 0] == pytest.approx(-1.0)

    def test_against_generic_eigensolver(self):
        rng = np.random.default_rng(42)
        n = 10_000
        dxx = rng.normal(size=n)
        dyy = rng.normal(size=n)
        dxy = rng.normal(size=n)
        l1, l2 = eigenvalues(dxx, dyy, dxy)
        mats = np.stack(
            [np.stack([dxx, dxy], axis=-1), np.stack([dxy, dyy], axis=-1)], axis=-2
        )
        lo, hi = np.linalg.eigvalsh(mats).T
        swap = np.abs(lo) > np.abs(hi)
        ref1 = np.where(swap, lo, hi)
        ref2 = np.where(swap, hi, lo)
        np.testing.assert_allclose(l1, ref1, atol=1e-6)
        np.testing.assert_allclose(l2, ref2, atol=1e-6)

    @given(
        dxx=st.floats(-10, 10),
        dyy=st.floats(-10, 10),
        dxy=st.floats(-10, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_trace_and_determinant_preserved(self, dxx, dyy, dxy):
        l1, l2 = (v[0, 0, 0] for v in eigenvalues(*_field(dxx, dyy, dxy)))
        assert abs(l1) >= abs(l2)
        assert l1 + l2 == pytest.approx(dxx + dyy, rel=1e-5, abs=1e-8)
        assert l1 * l2 == pytest.approx(dxx * dyy - dxy * dxy, rel=1e-5, abs=1e-7)
