import numpy as np
import pytest

from depthsr.fileio import (
    ImageIOError,
    MalformedHeaderError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    read_depth_pfm,
    read_pfm,
    read_ppm8,
    write_depth_pfm,
    write_pfm,
    write_ppm8,
)
from depthsr.grid import DepthMap, FeatureMap


class TestPfm:
    def test_round_trip_bit_exact_single_channel(self, tmp_path):
        rng = np.random.default_rng(0)
        f = FeatureMap(rng.normal(size=(1, 5, 7)).astype(np.float32).astype(np.float64))
        path = tmp_path / "a.pfm"
        write_pfm(path, f)
        first = path.read_bytes()
        g = read_pfm(path)
        np.testing.assert_array_equal(g.data, f.data)
        write_pfm(path, g)
        assert path.read_bytes() == first

    def test_round_trip_color(self, tmp_path):
        rng = np.random.default_rng(1)
        f = FeatureMap(rng.normal(size=(3, 4, 6)).astype(np.float32).astype(np.float64))
        path = tmp_path / "c.pfm"
        write_pfm(path, f)
        np.testing.assert_array_equal(read_pfm(path).data, f.data)

    def test_big_endian_scale_rejected(self, tmp_path):
        path = tmp_path / "b.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + b"\x00" * 16)
        with pytest.raises(UnsupportedMaxvalError):
            read_pfm(path)

    @pytest.mark.parametrize("scale", [b"nan", b"-nan", b"inf", b"-inf"])
    def test_non_finite_scale_rejected(self, tmp_path, scale):
        path = tmp_path / "s.pfm"
        path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + b"\x00" * 16)
        with pytest.raises(MalformedHeaderError):
            read_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "t.pfm"
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(TruncatedPayloadError):
            read_pfm(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.pfm"
        path.write_bytes(b"PX\n2 2\n-1.0\n" + b"\x00" * 16)
        with pytest.raises(MalformedHeaderError):
            read_pfm(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        path = tmp_path / "n.pfm"
        payload = np.array([np.inf, 0, 0, 0], dtype="<f4").tobytes()
        path.write_bytes(b"Pf\n2 2\n-1.0\n" + payload)
        with pytest.raises(ImageIOError):
            read_pfm(path)

    def test_depth_pfm_invalid_encoded_as_zero(self, tmp_path):
        d = DepthMap(np.array([[1.5, 0.0], [2.5, 3.5]]), np.array([[True, False], [True, True]]))
        path = tmp_path / "d.pfm"
        write_depth_pfm(path, d)
        back = read_depth_pfm(path)
        np.testing.assert_array_equal(back.valid, d.valid)
        np.testing.assert_array_equal(back.depth, d.depth)


class TestPpm8:
    def test_header_parse(self, tmp_path):
        path = tmp_path / "p.ppm"
        path.write_bytes(b"P6 2 2 255\n" + bytes(range(12)))
        f = read_ppm8(path)
        assert f.shape == (3, 2, 2)
        assert f.data[0, 0, 0] == 0.0
        assert f.data[2, 1, 1] == 11.0 / 255.0

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n1 1 # size\n255\n" + bytes([255, 0, 51]))
        f = read_ppm8(path)
        np.testing.assert_array_equal(f.data[:, 0, 0], [1.0, 0.0, 0.2])

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        f = FeatureMap(rng.integers(0, 256, size=(3, 3, 4)).astype(np.float64) / 255.0)
        path = tmp_path / "r.ppm"
        write_ppm8(path, f)
        first = path.read_bytes()
        back = read_ppm8(path)
        np.testing.assert_array_equal(back.data, f.data)
        write_ppm8(path, back)
        assert path.read_bytes() == first

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "g.ppm"
        path.write_bytes(b"P6\n1 1\n255\n" + b"\x00" * 4)
        with pytest.raises(MalformedHeaderError):
            read_ppm8(path)

    def test_wrong_channels_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm8(tmp_path / "x.ppm", FeatureMap(np.zeros((1, 2, 2))))
