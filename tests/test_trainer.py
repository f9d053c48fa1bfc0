import csv
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import FrozenInstanceError, fields, replace
from helpers import tiny_config
from oracles import central_difference, scene_loss_gradient

from depthsr import fusion, trainer
from depthsr.fusion import default_fuse_weights, run_pipeline
from depthsr.grid import DepthMap
from depthsr.losses import add_noise, loss_total
from depthsr.scenes import SceneSpec, render_scene
from depthsr.trainer import (
    DivergenceError,
    SceneLoss,
    TrainConfig,
    fit,
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
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=("head", "fuse", "alpha", "beta"))
        vec = pack_params(cfg, tcfg)
        assert vec.size == cfg.w_head.size + cfg.w_fuse.size + 2
        out = unpack_params(vec + 0.5, cfg, tcfg)
        np.testing.assert_allclose(out.w_head, cfg.w_head + 0.5)
        np.testing.assert_allclose(out.w_fuse, cfg.w_fuse + 0.5)
        assert out.alpha_det == pytest.approx(1.5)

    def test_detector_scalars_clamped_positive(self):
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=("alpha", "beta"))
        out = unpack_params(np.array([-5.0, -1.0]), cfg, tcfg)
        assert out.alpha_det > 0
        assert out.beta > 0

    def test_empty_subset(self):
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=())
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
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=("head",))
        grad = scene_loss_gradient(SceneLoss(flat, cfg, tcfg), pack_params(cfg, tcfg))
        np.testing.assert_allclose(grad, 0.0, atol=1e-9)

    def test_staged_probes_match_plain_central_differences(self, small_scene):
        # The plain side runs the whole pipeline per probe, so gated blocks
        # reused across probes must follow every detector-scalar probe.
        cases = ((2, True, False), (3, True, True), (3, False, False))
        for moma_iters, detector, fit_detector in cases:
            cfg = tiny_config(moma_iters=moma_iters, detector=detector)
            extra = ("alpha", "beta") if fit_detector else ()
            tcfg = TrainConfig(fit_params=("head", "fuse", *extra), seed=1)
            rng = np.random.default_rng(0)
            vec = pack_params(cfg, tcfg) + 0.05 * rng.normal(size=pack_params(cfg, tcfg).size)
            staged = scene_loss_gradient(SceneLoss(small_scene, cfg, tcfg), vec)

            def pipeline_loss(v):
                probe = unpack_params(v, cfg, tcfg)
                pred = run_pipeline(small_scene.rgb, small_scene.d_lr, probe)
                return loss_total(small_scene.d_gt, pred, probe.alpha_loss).l_total

            plain = central_difference(pipeline_loss, vec, tcfg.fd_epsilon)
            np.testing.assert_allclose(staged, plain, rtol=0, atol=1e-12)
            if fit_detector:
                # alpha_det and beta are the last two coordinates.
                assert np.all(staged[-2:] != 0.0)

    def test_gradient_gates_first_iteration_once(self, small_scene, monkeypatch):
        # Every probe re-matches iterations 2.. and gates their blocks; the
        # first iteration's blocks are gated once for the base detector
        # setting and reused by all fuse probes.
        cfg = tiny_config(moma_iters=3)
        tcfg = TrainConfig()
        loss = SceneLoss(small_scene, cfg, tcfg)
        calls = []
        detect = fusion.detect
        monkeypatch.setattr(fusion, "detect", lambda f, p: calls.append(p) or detect(f, p))
        scene_loss_gradient(loss, pack_params(cfg, tcfg))
        rematch_probes = 2 * cfg.w_fuse.size
        orders = len(cfg.orders)
        assert orders == 3
        assert len(calls) == orders + orders * (cfg.moma_iters - 1) * (rematch_probes + 1)

    @pytest.mark.parametrize("fit_fuse", [False, True])
    def test_fused_features_computed_once_per_fuse_weights(self, small_scene, monkeypatch,
                                                          fit_fuse):
        # Head probes leave the detector setting and the fuse weights
        # unchanged, so they share one fused-features evaluation; each fuse
        # probe needs its own.
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=("head", "fuse") if fit_fuse else ("head",))
        loss = SceneLoss(small_scene, cfg, tcfg)
        calls = []
        moma_features = trainer.moma_features
        monkeypatch.setattr(trainer, "moma_features",
                            lambda *a: calls.append(1) or moma_features(*a))
        scene_loss_gradient(loss, pack_params(cfg, tcfg))
        assert len(calls) == 1 + (2 * cfg.w_fuse.size if fit_fuse else 0)


def _no_workers(*args, **kwargs):
    raise AssertionError("fit started worker processes")


# Calls `fit` at module level: spawned workers re-run it and cannot start.
_UNGUARDED_SCRIPT = """
from depthsr.fusion import PipelineConfig
from depthsr.scenes import SceneSpec, render_scene
from depthsr.trainer import TrainConfig, fit

scene = render_scene(SceneSpec(width=32, height=32, scale=4))
fit(scene, TrainConfig(steps=1), PipelineConfig(channels=2, moma_iters=2))
"""


class TestProbeWorkers:
    def test_fit_gradient_equals_in_process(self, small_scene, monkeypatch):
        # Detector-scalar probes gate the first iteration again in a worker.
        cfg = tiny_config()
        tcfg = TrainConfig(steps=1, seed=0, fit_params=("head", "fuse", "alpha", "beta"))
        seen = []

        def descend(loss, gradient, params):
            seen.append((params, gradient(params), multiprocessing.active_children()))
            return params, []

        monkeypatch.setattr(trainer, "_descend", descend)
        fit(small_scene, tcfg, cfg)
        assert multiprocessing.active_children() == []
        [(params, grad, children)] = seen
        assert children != []
        assert np.array_equal(grad, scene_loss_gradient(SceneLoss(small_scene, cfg, tcfg), params))
        assert np.all(grad[-2:] != 0.0)

    def test_one_worker_fit_equals_two_worker_fit(self, small_scene, monkeypatch):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=2, seed=1, fit_params=("head", "fuse", "alpha", "beta"))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        two = fit(small_scene, tcfg, cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        one = fit(small_scene, tcfg, cfg)
        assert multiprocessing.active_children() == []
        assert two.history == one.history
        assert two.config == one.config

    def test_unguarded_script_raises_instead_of_hanging(self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(_UNGUARDED_SCRIPT)
        src = str(Path(trainer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        # A session of its own, so that a hang can be killed with every worker.
        proc = subprocess.Popen([sys.executable, str(script)], env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("fit hung on workers that cannot start")
        assert proc.returncode != 0
        assert "BrokenProcessPool" in stderr


class TestSceneLossTravels:
    def test_pickled_scene_loss_reports_bit_identically(self, small_scene):
        # A probe task carries the parent's SceneLoss with both caches warm.
        cfg = tiny_config()
        tcfg = TrainConfig(fit_params=("head", "fuse", "alpha", "beta"))
        loss = SceneLoss(small_scene, cfg, tcfg)
        base = pack_params(cfg, tcfg)
        vec = base + 0.05 * np.random.default_rng(2).normal(size=base.size)
        loss.report(vec)
        copy = pickle.loads(pickle.dumps(loss))
        fuse, alpha = vec.copy(), vec.copy()
        # The vector holds w_head, w_fuse, alpha_det and beta, in that order.
        fuse[cfg.w_head.size] += 0.1
        alpha[-2] += 0.1
        for probe in (vec, fuse, alpha):
            assert copy.report(probe) == loss.report(probe)
        chunk = np.arange(1, vec.size, 2)
        assert np.array_equal(trainer._worker_probes(loss, vec, chunk),
                              scene_loss_gradient(loss, vec)[chunk])


    def test_rgb_side_travels_as_its_maps(self, small_scene):
        # A probe task carries the RGB side as its maps; the worker's copy
        # holds the patches again.
        cfg = tiny_config()
        tcfg = TrainConfig()
        loss = SceneLoss(small_scene, cfg, tcfg)
        copy = pickle.loads(pickle.dumps(loss))
        for name, f in loss.rgb_maps.maps.items():
            assert copy.rgb_maps.patches(name) is copy.rgb_maps.patches(name)
            assert np.array_equal(copy.rgb_maps.unit_rows(name), loss.rgb_maps.unit_rows(name))
        vec = pack_params(cfg, tcfg) + 0.05
        assert copy.report(vec) == loss.report(vec)


class TestTrainerRunsThePipeline:
    @pytest.mark.parametrize("preset, gt_hole, loop", [
        pytest.param("boxes", False, {}, id="boxes-False"),
        pytest.param("ridge", True, {}, id="ridge-True"),
        # One iteration fuses only the cached first blocks; with no order
        # enabled every iteration fuses the depth block and zero blocks.
        pytest.param("boxes", False, {"moma_iters": 1}, id="one-iteration"),
        pytest.param("ridge", False, {"orders": ()}, id="no-orders"),
    ])
    def test_report_equals_pipeline_loss(self, preset, gt_hole, loop):
        spec = SceneSpec(width=32, height=32, scale=4, dx=2.0, dy=-1.0,
                         noise_sigma=0.0, preset=preset)
        scene = render_scene(spec)
        if gt_hole:
            valid = scene.d_gt.valid.copy()
            valid[8:14, 20:30] = False
            scene = replace(scene, d_gt=DepthMap(scene.d_gt.depth, valid))
        rng = np.random.default_rng(11)
        cfg = tiny_config(**loop)
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

    def test_reports_follow_every_config_scalar(self, small_scene):
        # Reused stage results are keyed on every config scalar, so a report
        # after any setting changes, matching's k and orders included,
        # still equals a full pipeline run.
        rng = np.random.default_rng(3)
        cfg = tiny_config()
        c = cfg.channels
        cfg = replace(
            cfg,
            w_head=0.05 * rng.normal(size=(16, c)),
            w_fuse=default_fuse_weights(c) + 0.2 * rng.normal(size=(c, 4 * c)),
        )
        tcfg = TrainConfig()
        loss = SceneLoss(small_scene, cfg, tcfg)
        vec = pack_params(cfg, tcfg)
        loss.report(vec)
        for changed in (replace(cfg, k=2), replace(cfg, k=2, orders=("zero", "second"))):
            loss.cfg = changed
            pred = run_pipeline(small_scene.rgb, small_scene.d_lr, changed)
            assert loss.report(vec) == loss_total(small_scene.d_gt, pred, changed.alpha_loss)


class TestFit:
    @pytest.mark.parametrize("scalar", ["alpha", "beta"], ids=lambda name: f"fit_{name}")
    def test_detector_scalars_rejected_with_detector_off(self, small_scene, monkeypatch, scalar):
        # With the detector off, alpha_det and beta gate nothing.
        cfg = tiny_config(detector=False)
        tcfg = TrainConfig(steps=1, fit_params=(scalar,))
        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", _no_workers)
        with pytest.raises(ValueError, match="only with the detector on"):
            fit(small_scene, tcfg, cfg)
        with pytest.raises(ValueError, match="only with the detector on"):
            pack_params(cfg, tcfg)

    def test_no_enabled_parameters_returns_config_unchanged(self, small_scene, monkeypatch):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=2, fit_params=())
        monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", _no_workers)
        result = fit(small_scene, tcfg, cfg)
        np.testing.assert_array_equal(result.config.w_head, cfg.w_head)
        np.testing.assert_array_equal(result.config.w_fuse, cfg.w_fuse)
        assert len(result.history) == 1

    def test_lr_zero_keeps_loss_constant(self, small_scene):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=3, lr=0.0, seed=0)
        result = fit(small_scene, tcfg, cfg)
        totals = [r.l_total for r in result.history]
        assert all(t == pytest.approx(totals[0], rel=1e-12) for t in totals)

    def test_best_so_far_property(self, small_scene):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=8, seed=0)
        result = fit(small_scene, tcfg, cfg)
        best = min(r.l_total for r in result.history)
        refit = SceneLoss(small_scene, cfg, TrainConfig(steps=1, init_scale=0.0))
        achieved = refit.report(pack_params(result.config, tcfg)).l_total
        assert achieved == pytest.approx(best, rel=1e-12)

    def test_deterministic_trajectory(self, small_scene):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=4, seed=3)
        a = fit(small_scene, tcfg, cfg)
        b = fit(small_scene, tcfg, cfg)
        assert [r.l_total for r in a.history] == [r.l_total for r in b.history]

    def test_loss_decreases_in_few_steps(self, small_scene):
        cfg = tiny_config()
        tcfg = TrainConfig(steps=10, seed=0)
        result = fit(small_scene, tcfg, cfg)
        totals = [r.l_total for r in result.history]
        assert min(totals) < totals[0]

    def test_csv_log_schema(self, small_scene, tmp_path):
        log_path = tmp_path / "loss.csv"
        cfg = tiny_config()
        tcfg = TrainConfig(steps=2, seed=0, log_path=str(log_path))
        result = fit(small_scene, tcfg, cfg)
        with log_path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "l_rec", "l_grad", "l_hes", "l_total"]
        assert len(rows) == len(result.history) + 1
        assert float(rows[1][4]) == pytest.approx(result.history[0].l_total, abs=1e-6)

    def test_divergent_loss_raises_with_step(self, small_scene):
        cfg = tiny_config()
        # A colossal init throws the first loss evaluation into overflow,
        # which must surface as the typed error, not a numpy warning.
        tcfg = TrainConfig(steps=2, seed=0, init_scale=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(small_scene, tcfg, cfg)
        assert err.value.step == 0
        assert multiprocessing.active_children() == []

    def test_divergent_probe_raises_with_step(self, small_scene):
        cfg = tiny_config()
        # A colossal probe step overflows only in the gradient's probes,
        # which run in the probe workers.
        tcfg = TrainConfig(steps=2, seed=0, fd_epsilon=1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError) as err:
                fit(small_scene, tcfg, cfg)
        assert err.value.step == 1
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("diverge", [False, True])
    @pytest.mark.parametrize("value", [None, "3"])
    def test_blas_thread_vars_restored(self, small_scene, monkeypatch, value, diverge):
        for name in trainer._BLAS_THREAD_VARS:
            if value is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, value)
        cfg = tiny_config()
        # fd_epsilon=1e200 overflows in the first gradient's probes.
        tcfg = TrainConfig(steps=1, seed=0, fd_epsilon=1e200 if diverge else 1e-3)
        if diverge:
            with pytest.raises(DivergenceError):
                fit(small_scene, tcfg, cfg)
        else:
            fit(small_scene, tcfg, cfg)
        assert [os.environ.get(name) for name in trainer._BLAS_THREAD_VARS] == [value] * 3

    def test_config_is_frozen(self):
        tcfg = TrainConfig()
        for f in fields(tcfg):
            with pytest.raises(FrozenInstanceError):
                setattr(tcfg, f.name, getattr(tcfg, f.name))
        with pytest.raises(ValueError):
            replace(tcfg, steps=0)

    @pytest.mark.parametrize("name", ["steps", "seed"])
    @pytest.mark.parametrize("value", [1.0, True, 1.5, "1"], ids=repr)
    def test_integer_settings_reject_other_types(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            TrainConfig(**{name: value})
        tcfg = TrainConfig(**{name: np.int64(1)})
        assert type(getattr(tcfg, name)) is int and tcfg == TrainConfig(**{name: 1})

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(fd_epsilon=0.0)
        with pytest.raises(ValueError):
            TrainConfig(init_scale=-0.1)

    def test_fit_params_canonicalized_and_checked(self):
        # Like PipelineConfig.orders: any order in, the vector's order kept.
        assert TrainConfig(fit_params=("beta", "head", "beta")).fit_params == ("head", "beta")
        assert TrainConfig().fit_params == ("head", "fuse")
        with pytest.raises(ValueError, match=r"unknown fit parameters \['gamma'\]"):
            TrainConfig(fit_params=("head", "gamma"))

    def test_negative_lr_rejected_and_zero_allowed(self):
        with pytest.raises(ValueError, match="lr must be non-negative"):
            TrainConfig(lr=-0.05)
        assert TrainConfig(lr=0.0).lr == 0.0

    @pytest.mark.parametrize("name", ["lr", "fd_epsilon", "init_scale"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_settings_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            TrainConfig(**{name: value})
