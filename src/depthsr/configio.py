"""Plain-text pipeline config files: one `key = value` per line.

Lines starting with '#' are comments; unknown or duplicate keys are
rejected. Weight matrices live in PFM sidecars referenced by relative path
(or the literal `default`), so dump -> load -> dump is byte-identical.
The sidecars are `<f4`, so weights round-trip at float32 precision: a
loaded fitted config reproduces the fit's loss only to about 1e-7 relative.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fileio import read_pfm, write_pfm
from .fusion import PipelineConfig, default_fuse_weights, default_head_weights
from .grid import FeatureMap
from .matcher import ORDERS
from .structdet import DetectorParams

_KEYS = (
    "scale",
    "channels",
    "k",
    "moma_iters",
    "orders",
    "detector",
    "alpha_det",
    "beta",
    "alpha_loss",
    "w_fuse",
    "w_head",
)

_ORDER_LETTERS = {"zero": "z", "first": "f", "second": "s"}
_LETTER_ORDERS = {v: k for k, v in _ORDER_LETTERS.items()}


def orders_to_token(orders: tuple[str, ...]) -> str:
    if not orders:
        return "none"
    return "".join(_ORDER_LETTERS[o] for o in ORDERS if o in orders)


def token_to_orders(token: str) -> tuple[str, ...]:
    token = token.strip().lower()
    if token in ("none", ""):
        return ()
    if all(ch in _LETTER_ORDERS for ch in token):
        return tuple(_LETTER_ORDERS[ch] for ch in token)
    names = tuple(part.strip() for part in token.split(",") if part.strip())
    unknown = set(names) - set(ORDERS)
    if unknown:
        raise ValueError(f"unknown orders {sorted(unknown)}")
    return names


def dump_config(cfg: PipelineConfig, path) -> None:
    """Write the config; non-default weights go to PFM sidecars."""
    path = Path(path)
    values: dict[str, str] = {
        "scale": str(cfg.scale),
        "channels": str(cfg.channels),
        "k": str(cfg.k),
        "moma_iters": str(cfg.moma_iters),
        "orders": orders_to_token(cfg.orders),
        "detector": "on" if cfg.detector else "off",
        "alpha_det": repr(float(cfg.detector_params.alpha_det)),
        "beta": repr(float(cfg.detector_params.beta)),
        "alpha_loss": repr(float(cfg.alpha_loss)),
    }
    for key, matrix, default in (
        ("w_fuse", cfg.w_fuse, default_fuse_weights(cfg.channels)),
        ("w_head", cfg.w_head, default_head_weights(cfg.scale, cfg.channels)),
    ):
        if np.array_equal(matrix, default):
            values[key] = "default"
        else:
            sidecar = path.with_suffix(f".{key}.pfm")
            write_pfm(sidecar, FeatureMap(matrix[None]))
            values[key] = sidecar.name
    lines = [f"{key} = {values[key]}\n" for key in _KEYS]
    path.write_text("".join(lines), encoding="ascii")


def _parse_lines(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in out:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _load_matrix(token: str, base: Path, shape: tuple[int, int]) -> np.ndarray | None:
    if token == "default":
        return None
    matrix = read_pfm(base / token).data[0]
    if matrix.shape != shape:
        raise ValueError(f"weight matrix {token}: shape {matrix.shape} != {shape}")
    return matrix


def load_config(path) -> PipelineConfig:
    """Parse a config file; missing keys fall back to defaults."""
    path = Path(path)
    kv = _parse_lines(path.read_text(encoding="ascii"))
    scale = int(kv.get("scale", "4"))
    channels = int(kv.get("channels", "8"))
    cfg = PipelineConfig(
        scale=scale,
        channels=channels,
        k=int(kv.get("k", "4")),
        moma_iters=int(kv.get("moma_iters", "3")),
        orders=token_to_orders(kv.get("orders", "zfs")),
        detector=_parse_switch(kv.get("detector", "on")),
        detector_params=DetectorParams(
            alpha_det=float(kv.get("alpha_det", "1.0")),
            beta=float(kv.get("beta", "1.0")),
        ),
        alpha_loss=float(kv.get("alpha_loss", "0.001")),
        w_fuse=_load_matrix(kv.get("w_fuse", "default"), path.parent, (channels, 4 * channels)),
        w_head=_load_matrix(
            kv.get("w_head", "default"), path.parent, (scale * scale, channels)
        ),
    )
    return cfg


def _parse_switch(token: str) -> bool:
    token = token.strip().lower()
    if token in ("on", "true", "1"):
        return True
    if token in ("off", "false", "0"):
        return False
    raise ValueError(f"expected on/off, got {token!r}")
