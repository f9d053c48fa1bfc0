import numpy as np
import pytest

from depthsr.grid import DepthMap
from depthsr.losses import LossReport, add_noise, loss_total, rmse_cm


def dyadic_depth(h, w, seed=0):
    """Depth on a dyadic grid so constant offsets add exactly in binary."""
    rng = np.random.default_rng(seed)
    quantized = rng.integers(1024, 4096, size=(h, w)) / 1024.0
    return DepthMap.all_valid(quantized)


def interior_valid(d: DepthMap) -> DepthMap:
    valid = np.zeros_like(d.valid)
    valid[1:-1, 1:-1] = True
    return DepthMap(d.depth, valid)


class TestLossRec:
    def test_zero_when_equal(self):
        gt = dyadic_depth(4, 4)
        assert loss_total(gt, gt).l_rec == 0.0

    def test_hand_sum_in_meters(self):
        # |diff| of 1, 2, 3, 4 cm sums to 0.10 m
        gt = DepthMap.all_valid(np.full((2, 2), 2.0))
        pred = DepthMap.all_valid(
            np.array([[2.01, 1.98], [2.03, 2.04]])
        )
        assert loss_total(gt, pred).l_rec == pytest.approx(0.10, abs=1e-12)

    def test_invalid_pixels_excluded(self):
        gt = DepthMap(
            np.array([[2.0, 0.0], [2.0, 2.0]]),
            np.array([[True, False], [True, True]]),
        )
        pred = DepthMap.all_valid(np.array([[2.0, 9.0], [2.0, 2.5]]))
        assert loss_total(gt, pred).l_rec == pytest.approx(0.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_total(dyadic_depth(2, 2), dyadic_depth(2, 3)).l_rec

    def test_empty_valid_set(self):
        gt = DepthMap(np.zeros((2, 2)), np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            loss_total(gt, dyadic_depth(2, 2)).l_rec


class TestMappedLosses:
    def test_zero_when_equal(self):
        gt = dyadic_depth(5, 5, seed=1)
        assert loss_total(gt, gt).l_grad == 0.0
        assert loss_total(gt, gt).l_hes == 0.0

    def test_constant_offset_invisible_to_derivatives(self):
        gt = dyadic_depth(5, 5, seed=2)
        pred = DepthMap.all_valid(gt.depth + 0.03125)
        assert loss_total(gt, pred).l_rec > 0.0
        assert loss_total(gt, pred).l_grad == 0.0
        assert loss_total(gt, pred).l_hes == 0.0

    def test_planar_ramp_has_gradient_but_no_hessian_interior(self):
        y, x = np.mgrid[0:6, 0:6].astype(np.float64)
        gt = interior_valid(DepthMap.all_valid(np.full((6, 6), 2.0)))
        ramp = (x + 2.0 * y) / 64.0
        pred = DepthMap.all_valid(gt.depth + ramp)
        assert loss_total(gt, pred).l_grad > 0.0
        assert loss_total(gt, pred).l_hes == 0.0


class TestLossTotal:
    def test_weighted_sum(self):
        report = LossReport(1.0, 0.5, 2.0, 1.0 + 0.5 + 0.001 * 2.0, 4)
        assert report.l_total == pytest.approx(1.502)

    def test_alpha_zero(self):
        gt = dyadic_depth(4, 4, seed=3)
        pred = DepthMap.all_valid(gt.depth * 1.01)
        r = loss_total(gt, pred, alpha_loss=0.0)
        assert r.l_total == pytest.approx(r.l_rec + r.l_grad, rel=1e-12)

    def test_algebra_relative_tolerance(self):
        rng = np.random.default_rng(4)
        gt = dyadic_depth(6, 6, seed=5)
        pred = DepthMap.all_valid(gt.depth + 0.02 * rng.normal(size=(6, 6)))
        r = loss_total(gt, pred)
        assert r.l_total == pytest.approx(r.l_rec + r.l_grad + 0.001 * r.l_hes, rel=1e-9)
        assert r.valid_count == 36

    def test_zero_when_equal(self):
        gt = dyadic_depth(4, 4, seed=6)
        r = loss_total(gt, gt)
        assert r.l_total == 0.0

    def test_derivative_in_alpha_is_l_hes(self):
        gt = dyadic_depth(5, 5, seed=7)
        pred = DepthMap.all_valid(gt.depth * 1.02)
        r1 = loss_total(gt, pred, alpha_loss=0.25)
        r2 = loss_total(gt, pred, alpha_loss=0.75)
        slope = (r2.l_total - r1.l_total) / 0.5
        assert slope == pytest.approx(r1.l_hes, rel=1e-9)


class TestRmse:
    def test_zero_when_equal(self):
        gt = dyadic_depth(3, 3, seed=8)
        assert rmse_cm(gt, gt) == 0.0

    def test_uniform_one_cm(self):
        gt = DepthMap.all_valid(np.full((4, 4), 2.0))
        pred = DepthMap.all_valid(np.full((4, 4), 2.01))
        assert rmse_cm(gt, pred) == pytest.approx(1.0, rel=1e-9)

    def test_mixed_errors(self):
        gt = DepthMap.all_valid(np.array([[2.0, 2.0]]))
        pred = DepthMap.all_valid(np.array([[2.0, 2.02]]))
        assert rmse_cm(gt, pred) == pytest.approx(np.sqrt(2.0), rel=1e-9)


class TestFiniteDifferenceStructure:
    def test_rec_subgradient_sign_structure(self):
        # Away from kinks the FD gradient of l_rec per pixel is exactly
        # -sign(gt - pred).
        rng = np.random.default_rng(9)
        gt = dyadic_depth(4, 4, seed=10)
        offset = rng.choice([-1.0, 1.0], size=(4, 4)) * rng.uniform(0.01, 0.05, size=(4, 4))
        pred_depth = gt.depth + offset
        eps = 1e-4
        for y in range(4):
            for x in range(4):
                hi = pred_depth.copy()
                hi[y, x] += eps
                lo = pred_depth.copy()
                lo[y, x] -= eps
                fd = (
                    loss_total(gt, DepthMap.all_valid(hi)).l_rec
                    - loss_total(gt, DepthMap.all_valid(lo)).l_rec
                ) / (2 * eps)
                expected = -np.sign(gt.depth[y, x] - pred_depth[y, x])
                assert fd == pytest.approx(expected, abs=1e-6)

    def test_total_fd_is_sum_of_component_fds(self):
        gt = dyadic_depth(4, 4, seed=11)
        rng = np.random.default_rng(12)
        pred_depth = gt.depth + rng.uniform(0.01, 0.05, size=(4, 4))
        eps = 1e-5
        hi = pred_depth.copy()
        hi[2, 2] += eps
        lo = pred_depth.copy()
        lo[2, 2] -= eps
        fd = {}
        for name in ("rec", "grad", "hes"):
            fd[name] = (
                getattr(loss_total(gt, DepthMap.all_valid(hi)), f"l_{name}")
                - getattr(loss_total(gt, DepthMap.all_valid(lo)), f"l_{name}")
            ) / (2 * eps)
        total_fd = (
            loss_total(gt, DepthMap.all_valid(hi)).l_total
            - loss_total(gt, DepthMap.all_valid(lo)).l_total
        ) / (2 * eps)
        assert total_fd == pytest.approx(
            fd["rec"] + fd["grad"] + 0.001 * fd["hes"], rel=1e-9, abs=1e-9
        )


class TestAddNoise:
    def test_sigma_zero_identity(self):
        d = dyadic_depth(5, 5, seed=13)
        out = add_noise(d, 0.0, seed=1)
        np.testing.assert_array_equal(out.depth, d.depth)
        np.testing.assert_array_equal(out.valid, d.valid)

    def test_deterministic_per_seed(self):
        d = dyadic_depth(6, 6, seed=14)
        a = add_noise(d, 0.07, seed=5)
        b = add_noise(d, 0.07, seed=5)
        np.testing.assert_array_equal(a.depth, b.depth)
        c = add_noise(d, 0.07, seed=6)
        assert np.any(c.depth != a.depth)

    def test_sample_std_within_ten_percent(self):
        d = DepthMap.all_valid(np.full((64, 64), 2.0))
        out = add_noise(d, 0.07, seed=0)
        scene_max = 2.0
        noise = (out.depth - d.depth) / scene_max
        assert abs(noise.std() - 0.07) <= 0.007

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(dyadic_depth(2, 2), -0.1, seed=0)

    def test_invalid_pixels_untouched(self):
        depth = np.full((4, 4), 2.0)
        valid = np.ones((4, 4), dtype=bool)
        valid[0, :] = False
        depth[0, :] = 0.0
        d = DepthMap(depth, valid)
        out = add_noise(d, 0.1, seed=2)
        np.testing.assert_array_equal(out.depth[0], 0.0)
        np.testing.assert_array_equal(out.valid, valid)
        assert np.all(out.depth[1:] != depth[1:])
