import pickle
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from helpers import render_shifted_pair, textured_map, tiny_config
from oracles import matching_selection_einsum

from depthsr import fusion, matcher
from depthsr.fusion import (
    PipelineConfig,
    aggregate,
    default_fuse_weights,
    encode_depth,
    encode_rgb,
    filter_bank,
    gated_blocks,
    moma_features,
    order_matches,
    reconstruct,
    rgb_order_maps,
    run_pipeline,
)
from depthsr.grid import DepthMap, FeatureMap, bicubic_resample, extract_patches, sigmoid
from depthsr.losses import add_noise
from depthsr.matcher import ORDERS, RgbSide, match_order
from depthsr.scenes import SceneSpec, render_scene
from depthsr.structdet import detect


def gray_image(plane):
    return FeatureMap(np.stack([plane] * 3))


def identity_match(hw):
    """(eta, psi) matching every target patch to its own index, k = 1."""
    return np.arange(hw)[:, None], np.zeros((hw, 1))


class TestPipelineConfig:
    def test_defaults_follow_protocol(self):
        cfg = PipelineConfig()
        assert cfg.moma_iters == 3
        assert cfg.channels == 8
        assert cfg.k == 4
        assert cfg.alpha_loss == 0.001
        assert cfg.orders == ("zero", "first", "second")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_alpha_loss_rejected(self, value):
        with pytest.raises(ValueError, match="alpha_loss must be finite"):
            PipelineConfig(alpha_loss=value)

    def test_scale_restricted(self):
        with pytest.raises(ValueError):
            PipelineConfig(scale=3)

    @pytest.mark.parametrize("name", ["scale", "channels", "k", "moma_iters"])
    @pytest.mark.parametrize("value", [4.0, True, 2.5, "4"], ids=repr)
    def test_integer_settings_reject_other_types(self, name, value):
        # 4.0 and True pass every range check, so they are rejected by type.
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PipelineConfig(**{name: value})
        cfg = PipelineConfig(**{name: np.int64(4)})
        assert type(getattr(cfg, name)) is int and cfg == PipelineConfig(**{name: 4})

    def test_weight_shapes_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(w_fuse=np.zeros((8, 8)))
        with pytest.raises(ValueError):
            PipelineConfig(w_head=np.zeros((4, 8)))

    def test_orders_canonicalized(self):
        cfg = PipelineConfig(orders=("second", "zero"))
        assert cfg.orders == ("zero", "second")
        with pytest.raises(ValueError):
            PipelineConfig(orders=("zeroth",))

    def test_weights_are_copied_at_construction(self):
        w = np.zeros((16, 8))
        cfg = PipelineConfig(w_head=w)
        w[0, 0] = 1.0
        assert cfg.w_head[0, 0] == 0.0

    def test_weights_are_read_only(self):
        cfg = PipelineConfig()
        for matrix in (cfg.w_head, cfg.w_fuse):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0

    def test_fields_cannot_be_assigned(self):
        cfg = PipelineConfig()
        for f in fields(cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            replace(PipelineConfig(), k=0)

    def test_equal_configs_compare_and_hash_alike(self):
        cfg = PipelineConfig()
        same = PipelineConfig(w_head=np.zeros((16, 8)))
        assert cfg == same and hash(cfg) == hash(same)
        assert {cfg: "entry"}[same] == "entry"
        assert replace(cfg, k=2) != cfg
        assert replace(cfg, w_head=np.ones((16, 8))) != cfg
        assert cfg != "not a config"

    def test_pickle_round_trip_is_an_equal_value(self):
        rng = np.random.default_rng(0)
        cfg = PipelineConfig(
            k=2, orders=("zero", "second"), alpha_det=0.5, beta=2.0,
            w_fuse=default_fuse_weights(8) + rng.normal(size=(8, 32)), w_head=rng.normal(size=(16, 8)),
        )
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and hash(back) == hash(cfg)
        for matrix in (back.w_head, back.w_fuse):
            assert not matrix.flags.writeable


class TestEncoders:
    def test_constant_image_gives_flat_features(self):
        img = gray_image(np.full((16, 16), 0.5))
        f = encode_rgb(img, 4, 8)
        assert f.shape == (8, 4, 4)
        np.testing.assert_allclose(f.data, 0.0, atol=1e-12)

    def test_single_pixel_output(self):
        img = gray_image(np.random.default_rng(0).uniform(size=(4, 4)))
        f = encode_rgb(img, 4, 3)
        assert f.shape == (3, 1, 1)

    def test_step_edge_peaks_sobel_x(self):
        plane = np.zeros((8, 8))
        plane[:, 4:] = 1.0
        img = gray_image(plane)
        f = encode_rgb(img, 1, 4)
        sobel_x = np.abs(f.data[2])
        peak_col = np.argmax(sobel_x.mean(axis=0))
        assert peak_col in (3, 4)

    def test_indivisible_dims_rejected(self):
        img = gray_image(np.zeros((10, 10)))
        with pytest.raises(ValueError):
            encode_rgb(img, 4, 8)

    def test_constant_depth_zero_features(self):
        d = DepthMap.all_valid(np.full((6, 6), 2.0))
        f = encode_depth(d, 4)
        np.testing.assert_allclose(f.data, 0.0, atol=1e-12)

    def test_ramp_depth_constant_sobel_interior(self):
        y, x = np.mgrid[0:8, 0:8].astype(np.float64)
        d = DepthMap.all_valid(2.0 + 0.1 * x)
        f = encode_depth(d, 4)
        sobel_x = f.data[2]
        interior = sobel_x[1:-1, 1:-1]
        assert interior.std() <= 1e-8 * max(1.0, abs(interior.mean()))

    def test_bank_size_limit(self):
        with pytest.raises(ValueError):
            filter_bank(9)


class TestAggregate:
    def test_all_orders_disabled_identity_skip(self):
        rng = np.random.default_rng(1)
        cfg = PipelineConfig(scale=4, channels=4, orders=())
        f_d = FeatureMap(rng.normal(size=(4, 5, 5)))
        out = aggregate(gated_blocks(f_d, RgbSide({"zero": f_d}), {}, cfg), cfg)
        np.testing.assert_array_equal(out.data, f_d.data)

    def test_zero_prior_gates_at_half(self):
        # At identity matches selection returns each map itself.
        rng = np.random.default_rng(2)
        c = 4
        cfg = PipelineConfig(
            scale=4,
            channels=c,
            orders=("first",),
            detector=False,
            w_fuse=np.concatenate([np.zeros((c, 2 * c)), np.eye(c), np.zeros((c, c))], axis=1),
        )
        f_d = FeatureMap(rng.normal(size=(c, 4, 4)))
        f_r = FeatureMap(rng.normal(size=(c, 4, 4)))
        rgb_maps = RgbSide({"zero": f_r, "first": FeatureMap(np.zeros((c, 4, 4)))})
        out = aggregate(gated_blocks(f_d, rgb_maps, {"first": identity_match(16)}, cfg), cfg)
        np.testing.assert_allclose(out.data, 0.5 * f_r.data, atol=1e-12)

    def test_gates_are_sigmoid_of_prior(self):
        rng = np.random.default_rng(3)
        c = 2
        cfg = PipelineConfig(
            scale=4,
            channels=c,
            orders=("second",),
            detector=False,
            w_fuse=np.concatenate([np.zeros((c, 3 * c)), np.eye(c)], axis=1),
        )
        f_d = FeatureMap(rng.normal(size=(c, 3, 3)))
        f_r = FeatureMap(rng.normal(size=(c, 3, 3)))
        prior = FeatureMap(rng.normal(size=(c, 3, 3)))
        rgb_maps = RgbSide({"zero": f_r, "second": prior})
        out = aggregate(gated_blocks(f_d, rgb_maps, {"second": identity_match(9)}, cfg), cfg)
        np.testing.assert_allclose(out.data, sigmoid(prior.data) * f_r.data, atol=1e-12)

    @pytest.mark.parametrize("order", ORDERS)
    def test_gated_blocks_equal_einsum_gather_oracle(self, order):
        # The 8-channel 20 x 20 pair selects in two blocks of SELECT_ROWS
        # rows; each enabled block is the oracle's selection, gated.
        rgb, depth = textured_map(20, 20, c=8, seed=6), textured_map(20, 20, c=8, seed=7)
        cfg = PipelineConfig(channels=8, orders=(order,), alpha_det=0.5, beta=2.0)
        assert cfg.detector
        rgb_maps = rgb_order_maps(rgb, cfg)
        matches = order_matches(rgb_maps, depth, cfg)
        blocks = gated_blocks(depth, rgb_maps, matches, cfg)

        def oracle(f):
            return matching_selection_einsum(extract_patches(f), f.shape, *matches[order]).data

        expected = detect(FeatureMap(oracle(rgb)), cfg).data
        if order != "zero":
            expected = sigmoid(oracle(rgb_maps[order])) * expected
        rgb_blocks = {o: np.zeros_like(depth.data) for o in ORDERS} | {order: expected}
        assert np.array_equal(blocks, np.concatenate([depth.data, *rgb_blocks.values()]))

    def test_one_step_beats_addition_fusion_on_shifted_scene(self):
        d_lr, rgb = render_shifted_pair("boxes", 48, 48, 3, 4)
        noisy = add_noise(d_lr, 0.07, seed=3)
        c = 8
        f_r = encode_rgb(rgb, 1, c)
        f_d0 = encode_depth(noisy, c)
        reference = encode_depth(d_lr, c)
        w_fuse = np.concatenate(
            [0.5 * np.eye(c), 0.5 * np.eye(c), np.zeros((c, 2 * c))], axis=1
        )
        cfg = PipelineConfig(
            scale=4, channels=c, moma_iters=1, orders=("zero",),
            detector=False, w_fuse=w_fuse,
        )
        rgb_maps = rgb_order_maps(f_r, cfg)
        matches = order_matches(rgb_maps, f_d0, cfg)
        fused = aggregate(gated_blocks(f_d0, rgb_maps, matches, cfg), cfg)
        addition = 0.5 * (f_d0.data + f_r.data)
        d_matched = np.abs(fused.data - reference.data).mean()
        d_addition = np.abs(addition - reference.data).mean()
        assert d_matched < d_addition


def holds(rgb_maps: RgbSide) -> bool:
    """Whether the RGB side hands out one kept patch matrix per map."""
    return all(rgb_maps.patches(name) is rgb_maps.patches(name) for name in rgb_maps.maps)


class TestRgbSide:
    def test_held_side_is_bit_equal_to_extracting(self, monkeypatch):
        # LR 16^2 with 8 channels and all orders: 0.88 MB held.
        scene = render_scene(SceneSpec(width=64, height=64, dx=3.0, dy=-2.0))
        rng = np.random.default_rng(7)
        cfg = PipelineConfig(
            w_fuse=default_fuse_weights(8) + 0.1 * rng.normal(size=(8, 32)),
            w_head=0.01 * rng.normal(size=(16, 8)),
        )
        f_r = encode_rgb(scene.rgb, cfg.scale, cfg.channels)
        f_d = encode_depth(scene.d_lr, cfg.channels)

        def stages():
            rgb_maps = rgb_order_maps(f_r, cfg)
            matches = {o: match_order(rgb_maps, f_d, o, cfg.k) for o in ORDERS}
            blocks = gated_blocks(f_d, rgb_maps, matches, cfg)
            depth = run_pipeline(scene.rgb, scene.d_lr, cfg).depth
            return holds(rgb_maps), [*(a for m in matches.values() for a in m), blocks, depth]

        held, at_budget = stages()
        monkeypatch.setattr(matcher, "HOLD_BYTES", 0)
        extracting, without = stages()
        assert held and not extracting
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(at_budget, without))

    def test_pickles_as_its_maps_and_holds_again(self):
        rgb_maps = rgb_order_maps(textured_map(16, 16, c=8, seed=3), PipelineConfig())
        assert holds(rgb_maps)
        # Held: an (hw, 72) patch matrix and its unit rows per map, 18 times
        # the maps' 48 KiB.
        assert len(pickle.dumps(rgb_maps)) < len(pickle.dumps(rgb_maps.maps)) + 256
        copy = pickle.loads(pickle.dumps(rgb_maps))
        assert holds(copy)
        for name, f in rgb_maps.maps.items():
            assert np.array_equal(copy[name].data, f.data)
            assert np.array_equal(copy.patches(name), rgb_maps.patches(name))
            assert np.array_equal(copy.unit_rows(name), rgb_maps.unit_rows(name))


class TestMomaFeatures:
    def test_shapes_preserved_and_rgb_untouched(self):
        d_lr, rgb = render_shifted_pair("boxes", 16, 16, 1, 1)
        cfg = tiny_config(scale=4)
        f_d, f_r = encode_depth(d_lr, cfg.channels), encode_rgb(rgb, 1, cfg.channels)
        before = f_r.data.copy()
        out = moma_features(f_d, rgb_order_maps(f_r, cfg), cfg)
        assert out.shape == f_d.shape
        np.testing.assert_array_equal(f_r.data, before)

    def test_feature_shape_mismatch_rejected(self):
        # No enabled order, so only moma_features' own check can catch it.
        cfg = PipelineConfig(channels=2, orders=())
        rgb_maps = rgb_order_maps(FeatureMap(np.zeros((2, 4, 5))), cfg)
        with pytest.raises(ValueError):
            moma_features(FeatureMap(np.zeros((2, 4, 4))), rgb_maps, cfg)

    @pytest.mark.parametrize("moma_iters", [1, 3])
    def test_given_first_blocks_skip_only_the_first_matching(self, monkeypatch, moma_iters):
        d_lr, rgb = render_shifted_pair("boxes", 16, 16, 1, 1)
        rng = np.random.default_rng(5)
        cfg = tiny_config(scale=4, moma_iters=moma_iters)
        cfg = replace(cfg, w_fuse=cfg.w_fuse + 0.1 * rng.normal(size=cfg.w_fuse.shape))
        f_d, f_r = encode_depth(d_lr, cfg.channels), encode_rgb(rgb, 1, cfg.channels)
        rgb_maps = rgb_order_maps(f_r, cfg)
        first = gated_blocks(f_d, rgb_maps, order_matches(rgb_maps, f_d, cfg), cfg)
        matched = moma_features(f_d, rgb_maps, cfg)
        calls = []
        monkeypatch.setattr(fusion, "match_order", lambda *a: calls.append(a[2]) or match_order(*a))
        given = moma_features(f_d, rgb_maps, cfg, first)
        assert np.array_equal(given.data, matched.data)
        assert len(calls) == len(cfg.orders) * (moma_iters - 1)


@pytest.fixture(scope="module")
def lr64_stage_inputs():
    """The default config's first-iteration inputs on the LR 64^2 boxes scene."""
    scene = render_scene(SceneSpec(width=256, height=256))
    cfg = PipelineConfig(moma_iters=1)
    rgb_maps, f_d = fusion.encode_scene(scene.rgb, scene.d_lr, cfg)
    return cfg, rgb_maps, f_d, order_matches(rgb_maps, f_d, cfg)


class TestStagePeakMemory:
    """Each stage's tracemalloc peak at LR 64^2, 8 channels, in units of one
    c x h x w map (256 KiB; a patch matrix takes 9, a 64-row cosine tile 8).
    Measured with numpy 2.4.6: gated_blocks 23.8 maps, match_order 28.1 at
    zero order and 29.1 at the others, one moma_features iteration 31.1.
    Each bound is half a map above, so that one more map held through the
    peak fails; a numpy build with other temporaries may need new figures."""

    @staticmethod
    def peak_maps(call, f_d: FeatureMap) -> float:
        """The peak of call() after a warm-up call, in maps of f_d's size."""
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / f_d.data.nbytes
        finally:
            tracemalloc.stop()

    def test_gated_blocks(self, lr64_stage_inputs):
        cfg, rgb_maps, f_d, matches = lr64_stage_inputs
        peak = self.peak_maps(lambda: gated_blocks(f_d, rgb_maps, matches, cfg), f_d)
        assert peak < 24.5

    @pytest.mark.parametrize("order, bound", [("zero", 28.5), ("first", 29.5), ("second", 29.5)])
    def test_match_order(self, lr64_stage_inputs, order, bound):
        cfg, rgb_maps, f_d, _ = lr64_stage_inputs
        peak = self.peak_maps(lambda: match_order(rgb_maps, f_d, order, cfg.k), f_d)
        assert peak < bound

    def test_one_moma_features_iteration(self, lr64_stage_inputs):
        cfg, rgb_maps, f_d, _ = lr64_stage_inputs
        assert cfg.moma_iters == 1
        assert self.peak_maps(lambda: moma_features(f_d, rgb_maps, cfg), f_d) < 31.5


class TestReconstruct:
    def test_zero_head_reproduces_bicubic(self):
        rng = np.random.default_rng(4)
        d_lr = DepthMap(2.0 + rng.uniform(size=(6, 6)), rng.uniform(size=(6, 6)) > 0.2)
        cfg = PipelineConfig(scale=4, channels=2)
        f_d = FeatureMap(rng.normal(size=(2, 6, 6)))
        base = bicubic_resample(d_lr, 4.0)
        out = reconstruct(f_d, base, cfg)
        np.testing.assert_array_equal(out.depth, base.depth)
        np.testing.assert_array_equal(out.valid, base.valid)

    def test_constant_features_give_periodic_residual(self):
        base = DepthMap.all_valid(np.full((16, 16), 2.0))
        rng = np.random.default_rng(5)
        cfg = PipelineConfig(scale=4, channels=2, w_head=rng.normal(size=(16, 2)))
        f_d = FeatureMap(np.ones((2, 4, 4)))
        out = reconstruct(f_d, base, cfg)
        residual = out.depth - 2.0
        tile = residual[:4, :4]
        np.testing.assert_allclose(residual, np.tile(tile, (4, 4)), atol=1e-12)

    def test_output_dims_scale_up(self):
        base = bicubic_resample(DepthMap.all_valid(np.full((3, 5), 2.0)), 8.0)
        cfg = PipelineConfig(scale=8, channels=2)
        out = reconstruct(FeatureMap(np.zeros((2, 3, 5))), base, cfg)
        assert out.depth.shape == (24, 40)

    @pytest.mark.parametrize("base_shape", [(12, 20), (24, 24), (3, 5)])
    def test_base_must_be_scale_times_the_feature_grid(self, base_shape):
        base = DepthMap.all_valid(np.full(base_shape, 2.0))
        with pytest.raises(ValueError, match=r"is not 8x the feature grid \(3, 5\)"):
            reconstruct(FeatureMap(np.zeros((2, 3, 5))), base, PipelineConfig(scale=8, channels=2))


class TestRunPipeline:
    def test_rgb_order_maps_computed_once_per_run(self, monkeypatch):
        scene = render_scene(SceneSpec(width=64, height=64, scale=4, noise_sigma=0.0))
        cfg = tiny_config(scale=4, moma_iters=3)
        assert cfg.orders == ORDERS
        f_r = encode_rgb(scene.rgb, cfg.scale, cfg.channels)
        rgb_calls, depth_calls, stage_calls = Counter(), Counter(), Counter()
        order_map = matcher.order_map

        def counted(f, order):
            side = rgb_calls if np.array_equal(f.data, f_r.data) else depth_calls
            side[order] += 1
            return order_map(f, order)

        monkeypatch.setattr(matcher, "order_map", counted)
        monkeypatch.setattr(fusion, "order_map", counted)

        def counting(name, stage):
            def wrapper(*args):
                stage_calls[name] += 1
                return stage(*args)
            return wrapper

        for name in ("match_order", "matching_selection"):
            monkeypatch.setattr(fusion, name, counting(name, getattr(fusion, name)))
        extract = counting("extract_patches", matcher.extract_patches)
        monkeypatch.setattr(matcher, "extract_patches", extract)
        # LR 16^2: the RGB side holds its patches within the byte budget and
        # extracts them at every use above it.
        for budget, extractions in ((matcher.HOLD_BYTES, 12), (0, 33)):
            monkeypatch.setattr(matcher, "HOLD_BYTES", budget)
            for calls in (rgb_calls, depth_calls, stage_calls):
                calls.clear()
            run_pipeline(scene.rgb, scene.d_lr, cfg)
            assert rgb_calls == {order: 1 for order in ORDERS}
            assert depth_calls == {order: cfg.moma_iters for order in ORDERS}
            # Per iteration: one match per order; the RGB features at every
            # order plus the first- and second-order priors are selected.
            # Held: 3 RGB maps once per run, then 3 depth order maps per
            # iteration; otherwise 11 per iteration: 3 pairs matched, 5 selected.
            assert stage_calls == {"match_order": 3 * cfg.moma_iters,
                                   "matching_selection": 5 * cfg.moma_iters,
                                   "extract_patches": extractions}

    def test_size_mismatch_rejected(self):
        cfg = tiny_config(scale=4)
        rgb = gray_image(np.zeros((16, 16)))
        d_lr = DepthMap.all_valid(np.full((5, 4), 2.0))
        with pytest.raises(ValueError):
            run_pipeline(rgb, d_lr, cfg)

    def test_deterministic_rerun(self):
        spec = SceneSpec(width=32, height=32, scale=4, noise_sigma=0.0)
        scene = render_scene(spec)
        cfg = tiny_config(scale=4)
        a = run_pipeline(scene.rgb, scene.d_lr, cfg)
        b = run_pipeline(scene.rgb, scene.d_lr, cfg)
        np.testing.assert_array_equal(a.depth, b.depth)

    def test_zero_head_pipeline_is_bicubic(self):
        spec = SceneSpec(width=32, height=32, scale=4, noise_sigma=0.0)
        scene = render_scene(spec)
        cfg = tiny_config(scale=4)
        out = run_pipeline(scene.rgb, scene.d_lr, cfg)
        base = bicubic_resample(scene.d_lr, 4.0)
        np.testing.assert_array_equal(out.depth, base.depth)

    def test_disabled_orders_change_nothing_with_default_fuse(self):
        # Default fuse weights are the identity skip, so matched blocks are
        # multiplied by zero and any order subset yields the same output.
        spec = SceneSpec(width=32, height=32, scale=4, noise_sigma=0.0)
        scene = render_scene(spec)
        full = tiny_config(scale=4)
        none = tiny_config(scale=4, orders=())
        np.testing.assert_array_equal(
            run_pipeline(scene.rgb, scene.d_lr, full).depth,
            run_pipeline(scene.rgb, scene.d_lr, none).depth,
        )

    def test_fused_blocks_reach_output_with_mixing_weights(self):
        spec = SceneSpec(width=32, height=32, scale=4, noise_sigma=0.0)
        scene = render_scene(spec)
        cfg = tiny_config(scale=4)
        c = cfg.channels
        rng = np.random.default_rng(6)
        cfg = replace(
            cfg,
            w_fuse=np.concatenate([0.5 * np.eye(c), 0.5 * np.eye(c), np.zeros((c, 2 * c))], axis=1),
            w_head=0.01 * rng.normal(size=(16, c)),
        )
        mixed = run_pipeline(scene.rgb, scene.d_lr, cfg)
        cfg_skip = replace(tiny_config(scale=4), w_head=cfg.w_head)
        skip = run_pipeline(scene.rgb, scene.d_lr, cfg_skip)
        assert np.any(mixed.depth != skip.depth)
