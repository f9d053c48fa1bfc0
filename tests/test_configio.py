from dataclasses import fields

import numpy as np
import pytest

from depthsr.configio import dump_config, load_config, orders_to_token, token_to_orders
from depthsr.fileio import write_pfm
from depthsr.fusion import PipelineConfig
from depthsr.grid import FeatureMap


class TestOrderTokens:
    def test_round_trip(self):
        for orders in ((), ("zero",), ("zero", "second"), ("zero", "first", "second")):
            assert token_to_orders(orders_to_token(orders)) == orders

    def test_named_form(self):
        assert token_to_orders("zero,first") == ("zero", "first")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            token_to_orders("zero,third")


class TestConfigRoundTrip:
    def test_default_config_round_trips_byte_identical(self, tmp_path):
        cfg = PipelineConfig(scale=4)
        path = tmp_path / "p.cfg"
        dump_config(cfg, path)
        first = path.read_bytes()
        loaded = load_config(path)
        dump_config(loaded, path)
        assert path.read_bytes() == first

    def test_nondefault_weights_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cfg = PipelineConfig(
            scale=4,
            channels=2,
            w_head=rng.normal(size=(16, 2)).astype(np.float32).astype(np.float64),
            w_fuse=rng.normal(size=(2, 8)).astype(np.float32).astype(np.float64),
        )
        path = tmp_path / "w.cfg"
        dump_config(cfg, path)
        first = path.read_bytes()
        loaded = load_config(path)
        np.testing.assert_array_equal(loaded.w_head, cfg.w_head)
        np.testing.assert_array_equal(loaded.w_fuse, cfg.w_fuse)
        dump_config(loaded, path)
        assert path.read_bytes() == first

    def test_loaded_config_equals_dumped(self, tmp_path):
        rng = np.random.default_rng(1)
        weighted = PipelineConfig(
            scale=8, channels=2, k=3, orders=("first",), alpha_loss=0.25,
            w_head=rng.normal(size=(64, 2)).astype(np.float32).astype(np.float64),
        )
        for i, cfg in enumerate((PipelineConfig(), weighted)):
            path = tmp_path / f"c{i}.cfg"
            dump_config(cfg, path)
            assert load_config(path) == cfg

    def test_scalar_fields_survive(self, tmp_path):
        cfg = PipelineConfig(
            scale=8,
            channels=4,
            k=2,
            moma_iters=2,
            orders=("zero", "second"),
            detector=False,
            alpha_det=0.5,
            beta=2.0,
            alpha_loss=0.002,
        )
        path = tmp_path / "s.cfg"
        dump_config(cfg, path)
        loaded = load_config(path)
        assert loaded.scale == 8
        assert loaded.channels == 4
        assert loaded.k == 2
        assert loaded.moma_iters == 2
        assert loaded.orders == ("zero", "second")
        assert loaded.detector is False
        assert loaded.alpha_det == 0.5
        assert loaded.beta == 2.0
        assert loaded.alpha_loss == 0.002

    def test_one_key_per_setting(self, tmp_path):
        # A field missing from the key table would silently load as its default.
        path = tmp_path / "k.cfg"
        dump_config(PipelineConfig(), path)
        keys = [line.partition("=")[0].strip() for line in path.read_text().splitlines()]
        assert len(keys) == len(set(keys))
        assert set(keys) == {f.name for f in fields(PipelineConfig)}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("scale = 4\nwidth = 10\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "d.cfg"
        path.write_text("scale = 4\nscale = 8\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\n\nscale = 8\n")
        assert load_config(path).scale == 8

    def test_missing_keys_use_defaults(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("scale = 4\n")
        cfg = load_config(path)
        assert cfg.channels == 8
        assert cfg.moma_iters == 3
        path.write_text("")
        assert load_config(path) == PipelineConfig()
        path.write_text("scale = 8\n")
        assert load_config(path) == PipelineConfig(scale=8)

    def test_color_weight_sidecar_rejected(self, tmp_path):
        # A 3-channel PF sidecar whose planes have w_head's 16 x 8 shape.
        write_pfm(tmp_path / "head.pfm", FeatureMap(np.ones((3, 16, 8))))
        path = tmp_path / "h.cfg"
        path.write_text("w_head = head.pfm\n")
        with pytest.raises(ValueError, match=r"head.pfm: shape \(3, 16, 8\)"):
            load_config(path)
