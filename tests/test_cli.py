import argparse
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from helpers import tiny_config

from depthsr import cli, configio, fusion, matcher, scenes, structdet, trainer
from depthsr.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, _build_parser, _load_pipeline_config, main
from depthsr.scenes import SceneSpec
from depthsr.configio import dump_config, load_config
from depthsr.fileio import read_depth_pfm, read_pfm, read_ppm8, write_depth_pfm, write_pfm, write_ppm8
from depthsr.fusion import PipelineConfig
from depthsr.grid import DepthMap, FeatureMap
from depthsr.scenes import value_noise
from depthsr.trainer import TrainConfig


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


# The quick pipeline settings of tests.helpers.tiny_config.
TINY = ("--channels", "2", "--iters", "2")


def scene_inputs(scene_dir):
    return ["--rgb", str(scene_dir / "rgb.ppm"), "--d-lr", str(scene_dir / "d_lr.pfm"),
            "--d-gt", str(scene_dir / "d_gt.pfm")]


def subparser(command):
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def config_flags(command):
    """{config key: flag} for the flags of `command` that set a config key."""
    actions = subparser(command)._actions
    return {a.dest: a.option_strings[0] for a in actions if a.dest in configio._SCALARS}


def empty_gt(path):
    """An HR 32x32 GT depth file in which no pixel is valid."""
    write_depth_pfm(path, DepthMap(np.zeros((32, 32)), np.zeros((32, 32), dtype=bool)))
    return path


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
        # RGB gray and depth built from the same quantized plane; the RGB
        # repeats each pixel over a 4 x 4 block, which the scale-4 bicubic
        # downsample maps back to the plane, so both encoders see identical
        # inputs.
        plane = np.round(value_noise(12, 12, 3, seed=2) * 255) / 255 + 1.0
        rgb = FeatureMap(np.stack([np.kron(plane - 1.0, np.ones((4, 4)))] * 3))
        write_ppm8(tmp_path / "rgb.ppm", rgb)
        write_depth_pfm(tmp_path / "d.pfm", DepthMap.all_valid(plane - 1.0 + 1e-3))
        code = main(
            ["match", "--rgb", str(tmp_path / "rgb.ppm"), "--depth", str(tmp_path / "d.pfm"),
             "--out", str(tmp_path), "--order", "zero", "--k", "1", "--channels", "1"]
        )
        assert code == EXIT_OK
        eta = read_pfm(tmp_path / "eta.pfm")
        assert eta.data.shape == (1, 144, 1)
        assert np.mean(eta.data[0, :, 0] == np.arange(144)) >= 0.99

    def test_k_exceeding_patch_count_is_usage_error(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"),
             "--depth", str(scene_dir / "d_lr.pfm"),
             "--out", str(out), "--k", "100000"]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: k must be in [1, 64], got 100000\n"
        assert not out.exists()

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
        # PipelineConfig rejects k = 0 before any input is read.
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"),
             "--depth", str(scene_dir / "d_lr.pfm"), "--out", str(out), "--k", "0"]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: k must be positive\n"
        assert not out.exists()

    def test_rgb_size_checked_before_encoding(self, scene_dir, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(fusion, "encode_rgb", lambda *args: calls.append(args))
        rgb = tmp_path / "rgb.ppm"
        write_ppm8(rgb, FeatureMap(np.full((3, 64, 64), 0.5)))
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(rgb), "--depth", str(scene_dir / "d_lr.pfm"), "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: RGB 64x64 is not 4x the LR depth 8x8\n"
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("flag", (["--scale", "2"], ["--channels", "9"]), ids=("scale", "channels"))
    def test_settings_checked_before_reading(self, tmp_path, monkeypatch, flag):
        # The 32^2 RGB and 16^2 LR depth fit scale 2, which sr rejects too.
        write_ppm8(tmp_path / "rgb.ppm", FeatureMap(np.full((3, 32, 32), 0.5)))
        write_depth_pfm(tmp_path / "d.pfm", DepthMap.all_valid(np.full((16, 16), 2.0)))
        reads = []
        monkeypatch.setattr(cli, "read_ppm8", reads.append)
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(tmp_path / "rgb.ppm"), "--depth", str(tmp_path / "d.pfm"),
             "--out", str(out), *flag]
        )
        assert code == EXIT_USAGE
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("order", matcher.ORDERS)
    def test_files_are_the_shared_match_stages(self, scene_dir, tmp_path, order):
        out = tmp_path / "m"
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"), "--depth", str(scene_dir / "d_lr.pfm"),
             "--out", str(out), "--order", order, "--k", "4"]
        )
        assert code == EXIT_OK
        cfg = PipelineConfig(k=4)
        f_r = fusion.encode_rgb(read_ppm8(scene_dir / "rgb.ppm"), cfg.scale, cfg.channels)
        f_d = fusion.encode_depth(read_depth_pfm(scene_dir / "d_lr.pfm"), cfg.channels)
        rgb_maps = fusion.rgb_order_maps(f_r, cfg)
        eta, psi = matcher.match_order(rgb_maps, f_d, order, 4)
        np.testing.assert_array_equal(read_pfm(out / "eta.pfm").data[0], eta)
        np.testing.assert_array_equal(read_pfm(out / "psi.pfm").data[0], psi.astype(np.float32))
        matched = matcher.matching_selection(f_r, eta, psi)
        stats = dict(line.split("=", 1) for line in (out / "stats.txt").read_text().splitlines())
        distance = float(np.mean(np.abs(matched.data - f_d.data)))
        assert stats["matched_mean_abs_distance"] == f"{distance:.6f}"

    @pytest.mark.parametrize("order", matcher.ORDERS)
    def test_blends_only_the_rgb_side(self, scene_dir, tmp_path, monkeypatch, order):
        # No output reads a matched prior, so no order blends one.
        calls = []
        selection = matcher.matching_selection
        monkeypatch.setattr(
            matcher, "matching_selection", lambda *args: calls.append(args) or selection(*args)
        )
        code = main(
            ["match", "--rgb", str(scene_dir / "rgb.ppm"), "--depth", str(scene_dir / "d_lr.pfm"),
             "--out", str(tmp_path / "m"), "--order", order, "--k", "4"]
        )
        assert code == EXIT_OK
        assert len(calls) == 1

    def test_peak_memory_stays_below_one_dense_matrix(self, tmp_path):
        # LR 32^2: hw = 1024, so one dense correlation matrix takes 8 MiB,
        # one 64-row tile of cosines 512 KiB.
        scene = tmp_path / "scene"
        assert main(["synth", "--out", str(scene), "--width", "128", "--height", "128"]) == EXIT_OK
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
             "--out", str(out), *TINY]
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
             "--out", str(tmp_path), *TINY]
        )
        assert code == EXIT_USAGE

    def test_pipeline_error_leaves_no_output_directory(self, scene_dir, tmp_path, capsys):
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(out), *TINY, "--k", "1000"]
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
             "--out", str(out), *TINY]
        )
        assert code == EXIT_USAGE
        assert "GT depth 8x8 is not 4x the LR depth 8x8" in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_gt_without_valid_pixels_rejected_before_pipeline(
        self, scene_dir, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(fusion, "run_pipeline", lambda *args: calls.append(args))
        out = tmp_path / "sr"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(empty_gt(tmp_path / "d_gt.pfm")),
             "--out", str(out), *TINY]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: no valid pixels in GT depth\n"
        assert calls == []
        assert not out.exists()

    def test_orders_flag_accepted(self, scene_dir, tmp_path):
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(tmp_path), *TINY, "--orders", "z"]
        )
        assert code == EXIT_OK

    def test_ablation_grid_emits_eight_rows(self, scene_dir, tmp_path):
        out = tmp_path / "ab"
        code = main(
            ["sr", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out", str(out), *TINY, "--ablate"]
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
            alpha_det=0.5, beta=2.0,
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
        assert (out.alpha_det, out.beta) == (0.5, 2.0)
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

    def test_color_weight_sidecar_is_usage_error(self, scene_dir, tmp_path, capsys):
        write_pfm(tmp_path / "head.pfm", FeatureMap(np.ones((3, 16, 8))))
        path = tmp_path / "h.cfg"
        path.write_text("w_head = head.pfm\n")
        assert main(self.sr_argv(scene_dir, tmp_path / "sr", path)) == EXIT_USAGE
        assert "head.pfm" in capsys.readouterr().err

    def test_zero_k_is_usage_error(self, scene_dir, tmp_path, weighted):
        _, path = weighted
        assert main(self.sr_argv(scene_dir, tmp_path / "sr", path, "--k", "0")) == EXIT_USAGE

    @pytest.mark.parametrize("command, out_flag", [("sr", "--out"), ("fit", "--out-config")])
    def test_channels_change_with_config_usage_error(
        self, scene_dir, tmp_path, weighted, capsys, monkeypatch, command, out_flag
    ):
        # Like the scale, the channel count sets the shapes of the config's weights.
        _, path = weighted
        reads = []
        for name in ("read_ppm8", "read_depth_pfm"):
            monkeypatch.setattr(cli, name, lambda *args: reads.append(args))
        out = tmp_path / "out"
        code = main(
            [command, *scene_inputs(scene_dir), "--config", str(path), "--channels", "8",
             out_flag, str(out)]
        )
        assert code == EXIT_USAGE
        assert f"--channels 8 differs from channels 2 of config {path}" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()
        same = self.build(scene_dir, tmp_path, path, "--channels", "2")
        np.testing.assert_array_equal(same.w_fuse, weighted[0].w_fuse)


class TestFlagsParseAsConfigKeys:
    """A flag that sets a config key reads its text as the key's file line does."""

    # Texts for each key that has a flag; orders and detector in each form a file takes.
    TEXTS = {
        "scale": ["8"],
        "channels": ["2"],
        "k": ["2"],
        "moma_iters": ["1"],
        "orders": ["zero,second", "none", "zf"],
        "detector": ["true", "0", "off", "on"],
        "alpha_det": ["0.5", "2"],
        "beta": ["1e-3"],
    }

    @pytest.mark.parametrize("command", ["sr", "fit", "match", "detect"])
    def test_every_flagged_key_has_texts(self, command):
        assert set(config_flags(command)) <= set(self.TEXTS)

    def test_every_text_is_a_flag(self):
        flagged = set().union(*map(config_flags, ("sr", "fit", "match", "detect")))
        assert flagged == set(self.TEXTS)

    @pytest.mark.parametrize("command, out_flag", [("sr", "--out"), ("fit", "--out-config")])
    @pytest.mark.parametrize(
        "key, text", [(k, t) for k, ts in TEXTS.items() if k in config_flags("sr") for t in ts]
    )
    def test_flag_and_file_build_equal_configs(
        self, scene_dir, tmp_path, command, out_flag, key, text
    ):
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {text}\n")
        argv = [command, *scene_inputs(scene_dir), out_flag, str(tmp_path / "out")]
        flag = config_flags(command)[key]
        by_flag = _load_pipeline_config(_build_parser().parse_args([*argv, flag, text]))
        by_file = _load_pipeline_config(_build_parser().parse_args([*argv, "--config", str(path)]))
        assert by_flag == by_file

    @pytest.mark.parametrize(
        "command, key", [(c, k) for c in ("match", "detect") for k in config_flags(c)]
    )
    def test_match_and_detect_flags_read_as_file_lines(self, scene_dir, tmp_path, command, key):
        # Neither command takes --config: a flag sets its key as a file line
        # would and leaves every other setting at the command's default.
        inputs = {"match": ["--depth", str(scene_dir / "d_lr.pfm")], "detect": []}[command]
        argv = [command, "--rgb", str(scene_dir / "rgb.ppm"), *inputs, "--out", str(tmp_path / "o")]
        base = _load_pipeline_config(_build_parser().parse_args(argv))
        flag = config_flags(command)[key]
        others = [name for name in configio._SCALARS if name != key]
        for text in self.TEXTS[key]:
            path = tmp_path / "c.cfg"
            path.write_text(f"{key} = {text}\n")
            by_flag = _load_pipeline_config(_build_parser().parse_args([*argv, flag, text]))
            assert getattr(by_flag, key) == getattr(load_config(path), key)
            assert [getattr(by_flag, n) for n in others] == [getattr(base, n) for n in others]

    @pytest.mark.parametrize(
        "key, flag, text", [("detector", "--detector", "maybe"), ("moma_iters", "--iters", "two"),
                            ("orders", "--orders", "zero,third"), ("k", "--k", "1.5")]
    )
    def test_bad_value_names_the_key(self, scene_dir, tmp_path, capsys, key, flag, text):
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {text}\n")
        out = tmp_path / "sr"
        argv = ["sr", *scene_inputs(scene_dir), "--out", str(out)]
        assert main([*argv, flag, text]) == EXIT_USAGE
        by_flag = capsys.readouterr().err
        assert main([*argv, "--config", str(path)]) == EXIT_USAGE
        assert by_flag == capsys.readouterr().err
        assert by_flag.startswith(f"usage error: {key}: ")
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flag", (["--channels", "9"], ["--alpha", "0"], ["--beta", "nan"]),
        ids=("channels", "alpha", "beta"),
    )
    def test_settings_checked_before_reading(self, tmp_path, monkeypatch, flag):
        write_ppm8(tmp_path / "rgb.ppm", FeatureMap(np.full((3, 16, 16), 0.5)))
        reads = []
        monkeypatch.setattr(cli, "read_ppm8", reads.append)
        out = tmp_path / "d"
        code = main(["detect", "--rgb", str(tmp_path / "rgb.ppm"), "--out", str(out), *flag])
        assert code == EXIT_USAGE
        assert reads == []
        assert not out.exists()

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
             "--out-config", str(out_cfg), *TINY, "--steps", "3",
             "--log", str(log)]
        )
        assert code == EXIT_OK
        cfg = load_config(out_cfg)
        assert isinstance(cfg, PipelineConfig)
        assert np.any(cfg.w_head != 0.0)
        lines = log.read_text().splitlines()
        assert lines[0] == "step,l_rec,l_grad,l_hes,l_total"
        assert len(lines) == 5  # header + init + 3 steps

    @pytest.mark.parametrize(
        "rgb_edge, d_gt, message",
        [
            (64, "d_gt.pfm", "RGB 64x64 is not 4x the LR depth 8x8"),
            (32, "d_lr.pfm", "GT depth 8x8 is not 4x the LR depth 8x8"),
        ],
    )
    def test_input_sizes_checked_before_fitting(
        self, scene_dir, tmp_path, capsys, monkeypatch, rgb_edge, d_gt, message
    ):
        calls = []
        monkeypatch.setattr(trainer, "fit", lambda *args: calls.append(args))
        rgb = tmp_path / "rgb.ppm"
        write_ppm8(rgb, FeatureMap(np.full((3, rgb_edge, rgb_edge), 0.5)))
        inputs = ["--rgb", str(rgb), "--d-lr", str(scene_dir / "d_lr.pfm"),
                  "--d-gt", str(scene_dir / d_gt), *TINY]
        out_cfg = tmp_path / "fit.cfg"
        assert main(["fit", *inputs, "--out-config", str(out_cfg)]) == EXIT_USAGE
        fit_err = capsys.readouterr().err
        assert main(["sr", *inputs, "--out", str(tmp_path / "sr")]) == EXIT_USAGE
        assert fit_err == capsys.readouterr().err == f"usage error: {message}\n"
        assert calls == []
        assert not out_cfg.exists()

    def test_gt_without_valid_pixels_rejected_before_fitting(
        self, scene_dir, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(trainer, "fit", lambda *args: calls.append(args))
        out_cfg = tmp_path / "fit.cfg"
        code = main(
            ["fit", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(empty_gt(tmp_path / "d_gt.pfm")),
             "--out-config", str(out_cfg), *TINY]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "usage error: no valid pixels in GT depth\n"
        assert calls == []
        assert not out_cfg.exists()

    @pytest.mark.parametrize("flag", ["--out-config", "--log"])
    def test_missing_output_directory_is_io_error_before_fitting(
        self, scene_dir, tmp_path, capsys, monkeypatch, flag
    ):
        calls = []
        monkeypatch.setattr(trainer, "fit", lambda *args: calls.append(args))
        outputs = {"--out-config": tmp_path / "fit.cfg", "--log": tmp_path / "loss.csv"}
        outputs[flag] = tmp_path / "missing" / outputs[flag].name
        code = main(
            ["fit", *scene_inputs(scene_dir), *TINY,
             *(arg for name, path in outputs.items() for arg in (name, str(path)))]
        )
        assert code == EXIT_IO
        assert f"directory {tmp_path / 'missing'} of {outputs[flag]}" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out-config", "--log"])
    def test_output_that_is_a_directory_is_io_error_before_fitting(
        self, scene_dir, tmp_path, capsys, monkeypatch, flag
    ):
        calls = []
        monkeypatch.setattr(trainer, "fit", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "read_ppm8", lambda *args: calls.append(args))
        outputs = {"--out-config": tmp_path / "fit.cfg", "--log": tmp_path / "loss.csv"}
        outputs[flag].mkdir()
        listing = sorted(tmp_path.rglob("*"))
        code = main(
            ["fit", *scene_inputs(scene_dir), *TINY,
             *(arg for name, path in outputs.items() for arg in (name, str(path)))]
        )
        assert code == EXIT_IO
        assert f"output {outputs[flag]} is a directory" in capsys.readouterr().err
        assert calls == []
        assert sorted(tmp_path.rglob("*")) == listing

    def test_unknown_fit_params_usage_error(self, scene_dir, tmp_path):
        code = main(
            ["fit", "--rgb", str(scene_dir / "rgb.ppm"),
             "--d-lr", str(scene_dir / "d_lr.pfm"),
             "--d-gt", str(scene_dir / "d_gt.pfm"),
             "--out-config", str(tmp_path / "x.cfg"), "--fit-params", "head,gamma"]
        )
        assert code == EXIT_USAGE

    def test_detector_scalar_with_detector_off_usage_error(self, scene_dir, tmp_path, capsys):
        # The loaded config turns the detector off.
        cfg_path = tmp_path / "off.cfg"
        dump_config(tiny_config(detector=False), cfg_path)
        out_cfg = tmp_path / "fit.cfg"
        code = main(
            ["fit", *scene_inputs(scene_dir), "--config", str(cfg_path),
             "--fit-params", "alpha", "--out-config", str(out_cfg)]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("usage error: alpha_det and beta")
        assert not out_cfg.exists()


class TestOutFile:
    @pytest.mark.parametrize("below", ["", "sub"])
    @pytest.mark.parametrize(
        "command, module, compute",
        [
            ("sr", fusion, "run_pipeline"),
            ("match", matcher, "match_order"),
            ("detect", structdet, "compute_descriptor"),
            ("synth", scenes, "render_scene"),
        ],
    )
    def test_out_naming_a_file_is_io_error_before_any_work(
        self, scene_dir, tmp_path, capsys, monkeypatch, command, module, compute, below
    ):
        calls = []
        monkeypatch.setattr(module, compute, lambda *args: calls.append(args))
        inputs = {
            "sr": [*scene_inputs(scene_dir), *TINY],
            "match": ["--rgb", str(scene_dir / "rgb.ppm"), "--depth", str(scene_dir / "d_lr.pfm")],
            "detect": ["--rgb", str(scene_dir / "rgb.ppm")],
            "synth": [],
        }[command]
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / below
        assert main([command, *inputs, "--out", str(out)]) == EXIT_IO
        assert f"output directory {out}: {taken} is not a directory" in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == [taken]
        assert taken.read_text() == "kept\n"


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
             *TINY, "--steps", "1", *flags]
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
    class Stop(Exception):
        pass

    def test_left_out_flags_build_default_settings(self, scene_dir, tmp_path, monkeypatch):
        # Each default is stated once, in its dataclass: a left-out flag sets nothing.
        runs = (
            (scenes, "render_scene", ["synth", "--out", str(tmp_path / "s")], (SceneSpec(),)),
            (structdet, "compute_descriptor",
             ["detect", "--rgb", str(scene_dir / "rgb.ppm"), "--out", str(tmp_path / "d")],
             (PipelineConfig(channels=1),)),
            (fusion, "run_pipeline", ["sr", *scene_inputs(scene_dir), "--out", str(tmp_path / "r")],
             (PipelineConfig(),)),
            (trainer, "fit",
             ["fit", *scene_inputs(scene_dir), "--out-config", str(tmp_path / "f.cfg")],
             (TrainConfig(), PipelineConfig())),
        )
        for module, name, argv, expected in runs:
            seen = []

            def stop(*args):
                seen.append(args)
                raise self.Stop

            monkeypatch.setattr(module, name, stop)
            with pytest.raises(self.Stop):
                main(argv)
            assert seen[0][-len(expected):] == expected, argv[0]
        assert list(tmp_path.iterdir()) == []

    def test_every_option_sets_a_field_or_names_a_file(self):
        # A flag is a settings field, an input or output path, --ablate, or
        # the match order and scene metadata of match and detect.
        settings = {f.name for f in (*fields(PipelineConfig), *fields(TrainConfig))}
        files = {"rgb", "d_lr", "d_gt", "depth", "config", "out", "out_config"}
        allowed = settings | files | {"ablate", "help", "order", "meta"}
        stray = {
            (command, action.dest)
            for command in ("sr", "fit", "match", "detect")
            for action in subparser(command)._actions
            if action.dest not in allowed
        }
        assert stray == set()

    def test_fit_params_flag_sets_the_field(self, scene_dir, tmp_path, monkeypatch):
        seen = []

        def stop(scene, tcfg, cfg):
            seen.append(tcfg.fit_params)
            raise self.Stop

        monkeypatch.setattr(trainer, "fit", stop)
        argv = ["fit", *scene_inputs(scene_dir), "--out-config", str(tmp_path / "f.cfg")]
        with pytest.raises(self.Stop):
            main([*argv, "--fit-params", "beta, head"])
        assert seen == [("head", "beta")]

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
