"""Strict readers and writers for the two on-disk image formats.

Supported formats, and nothing else:

* PPM (P6, maxval 255): 8-bit RGB, stored as [0, 1] floats in memory.
* PFM (Pf single channel / PF color, scale -1.0 = little-endian): lossless
  float payloads for features and depth in meters; rows are stored
  bottom-to-top per the format convention.

Writers emit canonical headers, so write(read(path)) reproduces a file this
module wrote byte for byte.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .grid import DepthMap, FeatureMap

_WHITESPACE = b" \t\r\n"


class ImageIOError(Exception):
    """Base error for image file parsing and encoding."""


class MalformedHeaderError(ImageIOError):
    """Header is syntactically invalid or carries impossible dimensions."""


class TruncatedPayloadError(ImageIOError):
    """Payload holds fewer bytes than the header promises."""


class UnsupportedMaxvalError(ImageIOError):
    """Maxval (or PFM scale/byte-order) outside the supported contract."""


def _read_tokens(buf: bytes, count: int, what: str) -> tuple[list[bytes], int]:
    """Pull `count` whitespace-separated header tokens, honoring # comments.

    Returns the tokens and the offset of the single whitespace byte that
    separates the header from the payload.
    """
    tokens: list[bytes] = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        if i >= n:
            raise MalformedHeaderError(f"{what}: truncated header")
        ch = buf[i : i + 1]
        if ch in _WHITESPACE:
            i += 1
            continue
        if ch == b"#":
            while i < n and buf[i : i + 1] not in (b"\r", b"\n"):
                i += 1
            continue
        j = i
        while j < n and buf[j : j + 1] not in _WHITESPACE + b"#":
            j += 1
        tokens.append(buf[i:j])
        i = j
    if i >= n or buf[i : i + 1] not in _WHITESPACE:
        raise MalformedHeaderError(f"{what}: missing separator before payload")
    return tokens, i + 1


def _parse_dims(tokens: list[bytes], what: str) -> tuple[int, int]:
    try:
        w, h = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise MalformedHeaderError(f"{what}: non-integer dimensions") from exc
    if w < 1 or h < 1:
        raise MalformedHeaderError(f"{what}: non-positive dimensions {w}x{h}")
    return w, h


def _payload(buf: bytes, start: int, nbytes: int, what: str) -> bytes:
    data = buf[start:]
    if len(data) < nbytes:
        raise TruncatedPayloadError(
            f"{what}: payload holds {len(data)} bytes, expected {nbytes}"
        )
    if len(data) > nbytes:
        raise MalformedHeaderError(f"{what}: unexpected trailing data")
    return data


def read_ppm8(path) -> FeatureMap:
    """Read 8-bit PPM into a 3 x h x w map scaled to [0, 1]."""
    buf = Path(path).read_bytes()
    tokens, start = _read_tokens(buf, 4, "PPM")
    if tokens[0] != b"P6":
        raise MalformedHeaderError(f"PPM: bad magic {tokens[0]!r}")
    w, h = _parse_dims(tokens[1:3], "PPM")
    try:
        maxval = int(tokens[3])
    except ValueError as exc:
        raise MalformedHeaderError("PPM: non-integer maxval") from exc
    if maxval != 255:
        raise UnsupportedMaxvalError(f"PPM: maxval {maxval} unsupported (need 255)")
    raw = _payload(buf, start, 3 * w * h, "PPM")
    rgb = np.frombuffer(raw, dtype=np.uint8).reshape(h, w, 3)
    return FeatureMap(rgb.transpose(2, 0, 1).astype(np.float64) / 255.0)


def write_ppm8(path, f: FeatureMap) -> None:
    """Write a 3-channel [0, 1] map as 8-bit PPM (values clipped)."""
    if f.channels != 3:
        raise ValueError(f"PPM needs 3 channels, map has {f.channels}")
    u8 = np.clip(np.rint(f.data * 255.0), 0, 255).astype(np.uint8)
    header = f"P6\n{f.width} {f.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(u8.transpose(1, 2, 0).tobytes())


def read_pfm(path) -> FeatureMap:
    """Read little-endian PFM (Pf = 1 channel, PF = 3 channels)."""
    buf = Path(path).read_bytes()
    tokens, start = _read_tokens(buf, 4, "PFM")
    if tokens[0] == b"Pf":
        channels = 1
    elif tokens[0] == b"PF":
        channels = 3
    else:
        raise MalformedHeaderError(f"PFM: bad magic {tokens[0]!r}")
    w, h = _parse_dims(tokens[1:3], "PFM")
    try:
        scale = float(tokens[3])
    except ValueError as exc:
        raise MalformedHeaderError("PFM: non-numeric scale") from exc
    if not np.isfinite(scale):
        raise MalformedHeaderError(f"PFM: non-finite scale {scale}")
    if scale >= 0:
        raise UnsupportedMaxvalError("PFM: big-endian payloads unsupported")
    raw = _payload(buf, start, 4 * w * h * channels, "PFM")
    flat = np.frombuffer(raw, dtype="<f4").reshape(h, w, channels)
    if not np.isfinite(flat).all():
        raise ImageIOError("PFM: payload contains non-finite samples")
    # Rows are stored bottom-to-top.
    return FeatureMap(flat[::-1].transpose(2, 0, 1).astype(np.float64))


def pfm_bytes(f: FeatureMap) -> bytes:
    """A 1- or 3-channel map as the bytes of a little-endian float32 PFM. A
    sample beyond the float32 range raises ImageIOError, since it would be
    stored as inf, which read_pfm rejects."""
    if f.channels not in (1, 3):
        raise ValueError(f"PFM needs 1 or 3 channels, map has {f.channels}")
    magic = b"Pf" if f.channels == 1 else b"PF"
    header = magic + f"\n{f.width} {f.height}\n-1.0\n".encode("ascii")
    with np.errstate(over="ignore"):
        payload = f.data.transpose(1, 2, 0)[::-1].astype("<f4")
    if not np.isfinite(payload).all():
        raise ImageIOError("PFM: sample beyond the float32 range")
    return header + payload.tobytes()


def write_pfm(path, f: FeatureMap) -> None:
    """Write pfm_bytes of the map; the file is not opened when that raises."""
    Path(path).write_bytes(pfm_bytes(f))


def read_depth_pfm(path) -> DepthMap:
    """Read a single-channel PFM as depth in meters; values <= 0 are invalid."""
    f = read_pfm(path)
    if f.channels != 1:
        raise MalformedHeaderError("depth PFM must be single channel (Pf)")
    plane = f.data[0]
    valid = plane > 0.0
    return DepthMap(np.where(valid, plane, 0.0), valid)


def write_depth_pfm(path, d: DepthMap) -> None:
    """Write depth in meters as single-channel PFM; invalid pixels become 0."""
    plane = np.where(d.valid, d.depth, 0.0)
    write_pfm(path, FeatureMap.from_plane(plane))

