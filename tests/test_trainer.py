import csv
import warnings

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, fields, replace
from oracles import central_difference

from depthsr.fusion import PipelineConfig, default_fuse_weights, run_pipeline
from depthsr.grid import DepthMap
from depthsr.losses import add_noise, loss_total
from depthsr.scenes import SceneSpec, render_scene
from depthsr.trainer import (
    DivergenceError,
    SceneLoss,
    TrainConfig,
    fit,
    numeric_grad,
    pack_params,
    unpack_params,
)


@pytest.fixture(scope="module")
def small_scene():
    spec = SceneSpec(width=32, height=32, scale=4, dx=4.0, dy=3.0,
                     noise_sigma=0.07, preset="boxes")
    scene = render_scene(spec)
    return replace(scene, d_lr=scene.d_lr_noisy)


class TestCentralDifference:
    def test_quadratic_gradient(self):
        # d/dp p^2 at p = 3 with eps = 1e-3 is 6.000000 to 1e-6.
        grad = central_difference(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-3)
        assert grad[0] == pytest.approx(6.0, abs=1e-6)

    def test_multivariate(self):
        fn = lambda v: float(v[0] ** 2 + 3.0 * v[1])
        grad = central_difference(fn, np.array([1.0, 5.0]), 1e-4)
        np.testing.assert_allclose(grad, [2.0, 3.0], atol=1e-6)


class TestPacking:
    def test_round_trip(self):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(fit_head=True, fit_fuse=True, fit_alpha=True, fit_beta=True)
        vec = pack_params(cfg, tcfg)
        assert vec.size == cfg.w_head.size + cfg.w_fuse.size + 2
        out = unpack_params(vec + 0.5, cfg, tcfg)
        np.testing.assert_allclose(out.w_head, cfg.w_head + 0.5)
        np.testing.assert_allclose(out.w_fuse, cfg.w_fuse + 0.5)
        assert out.detector_params.alpha_det == pytest.approx(1.5)

    def test_detector_scalars_clamped_positive(self):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(fit_head=False, fit_fuse=False, fit_alpha=True, fit_beta=True)
        out = unpack_params(np.array([-5.0, -1.0]), cfg, tcfg)
        assert out.detector_params.alpha_det > 0
        assert out.detector_params.beta > 0

    def test_empty_subset(self):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(fit_head=False, fit_fuse=False)
        assert pack_params(cfg, tcfg).size == 0


class TestNumericGrad:
    def test_zero_influence_parameters_have_zero_gradient(self, small_scene):
        # A constant-depth scene standardizes to all-zero features, so no
        # head weight can influence the prediction.
        spec = SceneSpec(width=32, height=32, scale=4, dx=0.0, dy=0.0,
                         noise_sigma=0.0, preset="boxes")
        scene = render_scene(spec)
        flat = replace(
            scene,
            d_lr=type(scene.d_lr)(
                np.full_like(scene.d_lr.depth, 2.0), scene.d_lr.valid.copy()
            ),
        )
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(fit_head=True, fit_fuse=False)
        grad = numeric_grad(pack_params(cfg, tcfg), flat, cfg, tcfg)
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_detector_scalars_dead_when_detector_disabled(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4, detector=False)
        tcfg = TrainConfig(fit_head=False, fit_fuse=False, fit_alpha=True, fit_beta=True)
        grad = numeric_grad(pack_params(cfg, tcfg), small_scene, cfg, tcfg)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_staged_probes_match_plain_central_differences(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(fit_head=True, fit_fuse=True, seed=1)
        rng = np.random.default_rng(0)
        vec = pack_params(cfg, tcfg) + 0.05 * rng.normal(size=pack_params(cfg, tcfg).size)
        loss = SceneLoss(small_scene, cfg, tcfg)
        staged = loss.gradient(vec, 0)
        plain = central_difference(lambda v: loss.report(v).l_total, vec, tcfg.fd_epsilon)
        np.testing.assert_allclose(staged, plain, rtol=0, atol=1e-12)


class TestTrainerRunsThePipeline:
    @pytest.mark.parametrize("preset, gt_hole", [("boxes", False), ("ridge", True)])
    def test_report_equals_pipeline_loss(self, preset, gt_hole):
        spec = SceneSpec(width=32, height=32, scale=4, dx=2.0, dy=-1.0,
                         noise_sigma=0.0, preset=preset)
        scene = render_scene(spec)
        if gt_hole:
            valid = scene.d_gt.valid.copy()
            valid[8:14, 20:30] = False
            scene = replace(scene, d_gt=DepthMap(scene.d_gt.depth, valid))
        rng = np.random.default_rng(11)
        cfg = PipelineConfig.tiny(scale=4)
        c = cfg.channels
        cfg = replace(
            cfg,
            w_head=0.05 * rng.normal(size=(16, c)),
            w_fuse=default_fuse_weights(c) + 0.2 * rng.normal(size=(c, 4 * c)),
        )
        tcfg = TrainConfig()
        staged = SceneLoss(scene, cfg, tcfg).report(pack_params(cfg, tcfg))
        plain = loss_total(scene.d_gt, run_pipeline(scene.rgb, scene.d_lr, cfg), cfg.alpha_loss)
        assert staged == plain


class TestFit:
    def test_no_enabled_parameters_returns_config_unchanged(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=2, fit_head=False, fit_fuse=False)
        result = fit(small_scene, tcfg, cfg)
        np.testing.assert_array_equal(result.config.w_head, cfg.w_head)
        np.testing.assert_array_equal(result.config.w_fuse, cfg.w_fuse)
        assert len(result.history) == 1

    def test_lr_zero_keeps_loss_constant(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=3, lr=0.0, seed=0)
        result = fit(small_scene, tcfg, cfg)
        totals = [r.l_total for r in result.history]
        assert all(t == pytest.approx(totals[0], rel=1e-12) for t in totals)

    def test_best_so_far_property(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=8, seed=0)
        result = fit(small_scene, tcfg, cfg)
        best = min(r.l_total for r in result.history)
        refit = SceneLoss(small_scene, cfg, TrainConfig(steps=1, init_scale=0.0))
        achieved = refit.report(pack_params(result.config, tcfg)).l_total
        assert achieved == pytest.approx(best, rel=1e-12)

    def test_deterministic_trajectory(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=4, seed=3)
        a = fit(small_scene, tcfg, cfg)
        b = fit(small_scene, tcfg, cfg)
        assert [r.l_total for r in a.history] == [r.l_total for r in b.history]

    def test_loss_decreases_in_few_steps(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=10, seed=0)
        result = fit(small_scene, tcfg, cfg)
        totals = [r.l_total for r in result.history]
        assert min(totals) < totals[0]

    def test_csv_log_schema(self, small_scene, tmp_path):
        log_path = tmp_path / "loss.csv"
        cfg = PipelineConfig.tiny(scale=4)
        tcfg = TrainConfig(steps=2, seed=0, log_path=str(log_path))
        result = fit(small_scene, tcfg, cfg)
        with log_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "l_rec", "l_grad", "l_hes", "l_total"]
        assert len(rows) == len(result.history) + 1
        assert float(rows[1][4]) == pytest.approx(result.history[0].l_total, abs=1e-6)

    def test_divergent_loss_raises_with_step(self, small_scene):
        cfg = PipelineConfig.tiny(scale=4)
        # A colossal init throws the first loss evaluation into overflow,
        # which must surface as the typed error, not a numpy warning.
        tcfg = TrainConfig(steps=2, seed=0, init_scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(small_scene, tcfg, cfg)
        assert err.value.step == 0

    def test_config_is_frozen(self):
        tcfg = TrainConfig()
        for f in fields(tcfg):
            with pytest.raises(FrozenInstanceError):
                setattr(tcfg, f.name, getattr(tcfg, f.name))
        with pytest.raises(ValueError):
            replace(tcfg, steps=0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(fd_epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=-0.1)

    def test_negative_lr_rejected_and_zero_allowed(self):
        with pytest.raises(ValueError, match="lr must be non-negative"):
            TrainConfig(lr=-0.05)
        assert TrainConfig(lr=0.0).lr == 0.0

    @pytest.mark.parametrize("name", ["lr", "fd_epsilon", "init_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})
