import tracemalloc

import numpy as np
import pytest

from depthsr import fusion, matcher
from depthsr.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, _build_parser, _load_pipeline_config, main
from depthsr.configio import dump_config, load_config
from depthsr.fileio import read_depth_pfm, read_pfm, read_ppm8, write_depth_pfm, write_ppm8
from depthsr.fusion import PipelineConfig
from depthsr.grid import DepthMap, FeatureMap
from depthsr.scenes import value_noise
from depthsr.structdet import DetectorParams


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    code = main(
        [
            "synth", "--out", str(out),
            "--width", "32", "--height", "32", "--scale", "4",
            "--dx", "4", "--dy", "3", "--sigma", "0.07", "--seed", "7",
        ]
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_writes_expected_files(self, scene_dir):
        for name in ("rgb.ppm", "d_gt.pfm", "d_lr.pfm", "d_lr_noisy.pfm", "scene.meta"):
            assert (scene_dir / name).exists(), name

    def test_meta_records_misalignment(self, scene_dir):
        meta = dict(
            line.split("=", 1)
            for line in (scene_dir / "scene.meta").read_text().splitlines()
        )
        assert meta["preset"] == "boxes"
        assert float(meta["dx"]) == 4.0
        assert float(meta["dy"]) == 3.0

    def test_no_noisy_file_when_sigma_zero(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path), "--width", "16", "--height", "16",
             "--scale", "4", "--sigma", "0"]
        )
        assert code == EXIT_OK
        assert not (tmp_path / "d_lr_noisy.pfm").exists()

    def test_invalid_dims_usage_error(self, tmp_path):
        code = main(
            ["synth", "--out", str(tmp_path), "--width", "30", "--height", "32",
             "--scale", "4"]
        )
        assert code == EXIT_USAGE

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--width", "16", "--height", "16", "--scale", "4", "--seed", "5"]
        assert main(["synth", "--out", str(a)] + args) == EXIT_OK
        assert main(["synth", "--out", str(b)] + args) == EXIT_OK
        for name in ("rgb.ppm", "d_gt.pfm", "d_lr.pfm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestMatch:
    def test_identical_inputs_self_match(self, tmp_path, capsys):
        # RGB gray and depth built from the same quantized plane, so both
        # encoders see identical inputs at scale 1.
        plane = np.round(value_noise(12, 12, 3, seed=2) * 255) / 255 + 1.0
        rgb = FeatureMap(np.stack([plane - 1.0] * 3))
        write_ppm8(tmp_path / "rgb.ppm", rgb)
        write_depth_pfm(tmp_path / "d.pfm", DepthMap.all_valid(plane - 1.0 + 1e-3))
        code = main(
            ["match", "--rgb", str(tmp_path / "rgb.ppm"), "--depth", str(tmp_path / "d.pfm"),
             "--out", str(tmp_path), "--order", "zero", "--k", "1", "--scale", "1",
             "--channels", "1"]
        )
        assert code == EXIT_OK
        stats = dict(
            line.split("=", 1)
            for line in (tmp_path / "stats.txt").read_text().splitlines()
        )
        assert float(stats["self_match_fraction"]) >= 0.99
        eta = read_pfm(tmp_path / "eta.pfm")
        assert eta.data.shape == (1, 144, 1)

    def test_k_exceeding_patch_count_is_usage_error(self, scene_dir, tmp_path):
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"),
             "--depth", str(scene_dir / "d_lr.pfm"),
             "--out", str(tmp_path), "--k", "100000"]
        )
        assert code == EXIT_USAGE

    def test_shifted_scene_reduces_distance(self, scene_dir, tmp_path):
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"),
             "--depth", str(scene_dir / "d_lr.pfm"),
             "--out", str(tmp_path), "--order", "zero", "--k", "4"]
        )
        assert code == EXIT_OK
        stats = dict(
            line.split("=", 1)
            for line in (tmp_path / "stats.txt").read_text().splitlines()
        )
        assert float(stats["matched_mean_abs_distance"]) < float(
            stats["unmatched_mean_abs_distance"]
        )

    def test_zero_k_is_usage_error_before_writing(self, scene_dir, tmp_path, capsys):
        # The second score column requested for the stats must not let k = 0
        # through to the selection.
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"),
             "--depth", str(scene_dir / "d_lr.pfm"), "--out", str(out), "--k", "0"]
        )
        assert code == EXIT_USAGE
        assert "k must be in [1, 64], got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_peak_memory_stays_below_one_dense_matrix(self, tmp_path, monkeypatch):
        # LR 32^2: hw = 1024, so one dense correlation matrix takes 8 MiB; a
        # 64 KiB budget streams it in 8-row blocks.
        scene = tmp_path / "scene"
        assert main(["synth", "--out", str(scene), "--width", "128", "--height", "128"]) == EXIT_OK
        monkeypatch.setattr(matcher, "MATCH_BLOCK_BYTES", 64 << 10)
        argv = ["match", "--rgb", str(scene / "rgb.ppm"), "--depth", str(scene / "d_lr.pfm")]
        assert main(argv + ["--out", str(tmp_path / "warm")]) == EXIT_OK
        tracemalloc.start()
        try:
            code = main(argv + ["--out", str(tmp_path / "m")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 1024 * 1024 * 8


class TestSr:
    def test_zero_head_matches_bicubic_baseline(self, scene_dir, tmp_path):
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(out), "--tiny"]
        )
        assert code == EXIT_OK
        report = dict(
            line.split("=", 1) for line in (out / "report.txt").read_text().splitlines()
        )
        assert report["rmse_cm"] == report["bicubic_rmse_cm"]
        assert (out / "d_hr.pfm").exists()
        assert (out / "error_map.ppm").exists()
        pred = read_depth_pfm(out / "d_hr.pfm")
        assert pred.depth.shape == (32, 32)

    def test_missing_file_is_io_error(self, scene_dir, tmp_path):
        code = main(
            ["sr", "--rgb", str(scene_dir / "missing.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(tmp_path)]
        )
        assert code == EXIT_IO

    def test_size_mismatch_is_usage_error(self, scene_dir, tmp_path):
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_gt.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(tmp_path), "--tiny"]
        )
        assert code == EXIT_USAGE

    def test_pipeline_error_leaves_no_output_directory(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(out), "--tiny", "--k", "1000"]
        )
        assert code == EXIT_USAGE
        assert "k must be in [1, 64], got 1000" in capsys.readouterr().err
        assert not out.exists()

    def test_gt_shape_checked_before_pipeline(self, scene_dir, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fusion, "run_pipeline", lambda *args: calls.append(args))
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_lr.pfm"),
             "--out", str(out), "--tiny"]
        )
        assert code == EXIT_USAGE
        assert "GT depth 8x8 is not 4x the LR depth 8x8" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_orders_flag_accepted(self, scene_dir, tmp_path):
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(tmp_path), "--tiny", "--orders", "z"]
        )
        assert code == EXIT_OK

    def test_ablation_grid_emits_eight_rows(self, scene_dir, tmp_path):
        out = tmp_path / "ab"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(out), "--tiny", "--ablate"]
        )
        assert code == EXIT_OK
        rows = (out / "ablation.txt").read_text().splitlines()
        assert len(rows) == 8
        subsets = [row.split()[0].split("=")[1] for row in rows]
        assert subsets == ["none", "z", "f", "s", "zf", "zs", "fs", "zfs"]
        for row in rows:
            assert "rmse_cm=" in row


class TestSrConfigOverrides:
    """`sr` builds its config from a config file plus override flags."""

    @pytest.fixture
    def weighted(self, tmp_path):
        # Weights pass through float32 sidecars, so draw float32 values.
        rng = np.random.default_rng(8)
        cfg = PipelineConfig(
            scale=4, channels=2, k=3, moma_iters=2, alpha_loss=0.002,
            detector_params=DetectorParams(alpha_det=0.5, beta=2.0),
            w_fuse=rng.normal(size=(2, 8)).astype(np.float32).astype(np.float64),
            w_head=rng.normal(size=(16, 2)).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "w.cfg"
        dump_config(cfg, path)
        return cfg, path

    @staticmethod
    def sr_argv(scene_dir, out, config, *flags):
        return [
            "sr", "--rgb", str(scene_dir / "rgb.ppm"),
            "--d-lr", str(scene_dir / "d_lr.pfm"),
            "--d-gt", str(scene_dir / "d_gt.pfm"),
            "--out", str(out), "--config", str(config), *flags,
        ]

    def build(self, scene_dir, tmp_path, config, *flags):
        args = _build_parser().parse_args(self.sr_argv(scene_dir, tmp_path / "sr", config, *flags))
        return _load_pipeline_config(args)

    def test_flags_override_and_weights_kept(self, scene_dir, tmp_path, weighted):
        cfg, path = weighted
        out = self.build(
            scene_dir, tmp_path, path,
            "--k", "2", "--iters", "1", "--orders", "zf", "--detector", "off",
        )
        assert (out.k, out.moma_iters, out.orders, out.detector) == (
            2, 1, ("zero", "first"), False
        )
        assert (out.scale, out.channels, out.alpha_loss) == (4, 2, 0.002)
        assert (out.detector_params.alpha_det, out.detector_params.beta) == (0.5, 2.0)
        np.testing.assert_array_equal(out.w_fuse, cfg.w_fuse)
        np.testing.assert_array_equal(out.w_head, cfg.w_head)

    def test_scale_change_with_config_is_usage_error(self, scene_dir, tmp_path, weighted, capsys):
        # The fitted weights belong to the config's scale; dropping them would
        # silently turn the run into plain bicubic.
        cfg, path = weighted
        out = tmp_path / "sr"
        assert main(self.sr_argv(scene_dir, out, path, "--scale", "8")) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--scale 8" in err and "scale 4" in err
        assert not out.exists()
        same = self.build(scene_dir, tmp_path, path, "--scale", "4")
        np.testing.assert_array_equal(same.w_head, cfg.w_head)

    def test_zero_k_is_usage_error(self, scene_dir, tmp_path, weighted):
        _, path = weighted
        assert main(self.sr_argv(scene_dir, tmp_path / "sr", path, "--k", "0")) == EXIT_USAGE


class TestDetect:
    def test_flat_image_descriptor_zero(self, tmp_path, capsys):
        write_ppm8(tmp_path / "flat.ppm", FeatureMap(np.full((3, 16, 16), 0.5)))
        code = main(["detect", "--rgb", str(tmp_path / "flat.ppm"), "--out", str(tmp_path)])
        assert code == EXIT_OK
        s = read_pfm(tmp_path / "S.pfm")
        assert s.data.max() < 1e-3
        assert (tmp_path / "gate.ppm").exists()

    def test_ridge_preset_prints_crest_ratio(self, tmp_path, capsys):
        scene = tmp_path / "ridge"
        assert main(
            ["synth", "--out", str(scene), "--preset", "ridge", "--width", "64",
             "--height", "64", "--scale", "4", "--dx", "0", "--dy", "0", "--sigma", "0"]
        ) == EXIT_OK
        code = main(
            ["detect", "--rgb", str(scene / "rgb.ppm"), "--out", str(tmp_path),
             "--meta", str(scene / "scene.meta")]
        )
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        stats = dict(
            line.split("=", 1) for line in printed.splitlines() if "=" in line
        )
        assert float(stats["crest_mean"]) >= 5.0 * float(stats["flat_mean"])

    def test_small_ridge_meta_is_usage_error_before_writing(self, tmp_path, capsys):
        scene = tmp_path / "ridge"
        assert main(
            ["synth", "--out", str(scene), "--preset", "ridge", "--width", "4",
             "--height", "4"]
        ) == EXIT_OK
        out = tmp_path / "detect"
        code = main(
            ["detect", "--rgb", str(scene / "rgb.ppm"), "--out", str(out),
             "--meta", str(scene / "scene.meta")]
        )
        assert code == EXIT_USAGE
        assert "ridge image 4x4 is too small" in capsys.readouterr().err
        assert not out.exists()


class TestEval:
    def test_identical_inputs(self, scene_dir, capsys):
        code = main(
            ["eval", "--pred", str(scene_dir / "d_gt.pfm"), "--gt", str(scene_dir / "d_gt.pfm")]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "rmse_cm=0.00" in out

    def test_planted_uniform_one_cm(self, tmp_path, capsys):
        gt = DepthMap.all_valid(np.full((8, 8), 2.0))
        pred = DepthMap.all_valid(np.full((8, 8), 2.01))
        write_depth_pfm(tmp_path / "gt.pfm", gt)
        write_depth_pfm(tmp_path / "pred.pfm", pred)
        code = main(["eval", "--pred", str(tmp_path / "pred.pfm"), "--gt", str(tmp_path / "gt.pfm")])
        assert code == EXIT_OK
        assert "rmse_cm=1.00" in capsys.readouterr().out

    def test_planted_checkerboard_error(self, tmp_path, capsys):
        gt = np.full((8, 8), 2.0)
        pred = gt.copy()
        pred[::2, ::2] += 0.02
        pred[1::2, 1::2] += 0.02
        write_depth_pfm(tmp_path / "gt.pfm", DepthMap.all_valid(gt))
        write_depth_pfm(tmp_path / "pred.pfm", DepthMap.all_valid(pred))
        code = main(["eval", "--pred", str(tmp_path / "pred.pfm"), "--gt", str(tmp_path / "gt.pfm")])
        assert code == EXIT_OK
        assert "rmse_cm=1.41" in capsys.readouterr().out

    def test_shape_mismatch_usage_error(self, scene_dir):
        code = main(
            ["eval", "--pred", str(scene_dir / "d_lr.pfm"), "--gt", str(scene_dir / "d_gt.pfm")]
        )
        assert code == EXIT_USAGE


class TestFitCommand:
    def test_fit_writes_loadable_config_and_log(self, scene_dir, tmp_path):
        out_cfg = tmp_path / "fitted.cfg"
        log = tmp_path / "loss.csv"
        code = main(
            ["fit", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr_noisy.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out-config", str(out_cfg), "--tiny", "--steps", "3",
             "--log", str(log)]
        )
        assert code == EXIT_OK
        cfg = load_config(out_cfg)
        assert isinstance(cfg, PipelineConfig)
        assert np.any(cfg.w_head != 0.0)
        lines = log.read_text().splitlines()
        assert lines[0] == "step,l_rec,l_grad,l_hes,l_total"
        assert len(lines) == 5  # header + init + 3 steps

    def test_unknown_fit_params_usage_error(self, scene_dir, tmp_path):
        code = main(
            ["fit", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out-config", str(tmp_path / "x.cfg"), "--fit-params", "head,gamma"]
        )
        assert code == EXIT_USAGE


class TestNonFiniteSettings:
    """NaN, Inf or a negative learning rate is a usage error before any output."""

    @pytest.mark.parametrize("flag", ["--dx", "--dy", "--rot", "--sigma"])
    def test_synth(self, tmp_path, capsys, flag):
        out = tmp_path / "s"
        code = main(["synth", "--out", str(out), "--width", "16", "--height", "16", flag, "nan"])
        assert code == EXIT_USAGE
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value", [("alpha_det", "nan"), ("beta", "inf"), ("alpha_loss", "inf")]
    )
    def test_config_file(self, scene_dir, tmp_path, capsys, key, value):
        path = tmp_path / "c.cfg"
        dump_config(PipelineConfig(), path)
        lines = path.read_text().splitlines()
        path.write_text("".join(
            f"{key} = {value}\n" if line.startswith(f"{key} =") else line + "\n"
            for line in lines
        ))
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"), "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"), "--out", str(out), "--config", str(path)]
        )
        assert code == EXIT_USAGE
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--lr", "-0.05"], ["--lr", "nan"], ["--lr", "inf"], ["--fd-eps", "nan"]]
    )
    def test_fit(self, scene_dir, tmp_path, flags):
        out_cfg = tmp_path / "fit.cfg"
        code = main(
            ["fit", "--rgb", str(scene_dir / "rgb.ppm"), "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"), "--out-config", str(out_cfg),
             "--tiny", "--steps", "1", *flags]
        )
        assert code == EXIT_USAGE
        assert not out_cfg.exists()

    @pytest.mark.parametrize("flag", ["--alpha", "--beta"])
    def test_detect(self, scene_dir, tmp_path, flag):
        out = tmp_path / "d"
        code = main(["detect", "--rgb", str(scene_dir / "rgb.ppm"), "--out", str(out), flag, "nan"])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestParser:
    def test_unknown_command_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_usage_error(self):
        assert main(["synth"]) == EXIT_USAGE

    def test_config_round_trip_via_cli_dump(self, tmp_path):
        cfg = PipelineConfig(scale=4)
        path = tmp_path / "c.cfg"
        dump_config(cfg, path)
        first = path.read_bytes()
        dump_config(load_config(path), path)
        assert path.read_bytes() == first
