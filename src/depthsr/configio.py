"""Plain-text pipeline config files: one `key = value` per line.

Lines starting with '#' are comments; unknown or duplicate keys are
rejected. One table, `_SCALARS`, gives each scalar key in file order with
its parser and formatter. Each key is the `PipelineConfig` field of that
name, so dump and load are one loop over the table; the two weight keys
follow. Through `parse_scalars` the table parses the command-line flags
that set a key, too. Weight matrices live in PFM sidecars referenced by
relative path (or the literal `default`), so dump -> load -> dump is
byte-identical.
The sidecars are `<f4`, so weights round-trip at float32 precision: a
loaded fitted config reproduces the fit's loss only to about 1e-7 relative.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .fileio import pfm_bytes, read_pfm
from .fusion import PipelineConfig, default_fuse_weights, default_head_weights
from .grid import FeatureMap
from .matcher import ORDERS

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


def _parse_switch(token: str) -> bool:
    token = token.strip().lower()
    if token in ("on", "true", "1"):
        return True
    if token in ("off", "false", "0"):
        return False
    raise ValueError(f"expected on/off, true/false or 1/0, got {token!r}")


_FLOAT = (float, lambda value: repr(float(value)))

# Every scalar key in file order, with its (parse, format) pair.
_SCALARS = {
    "scale": (int, str),
    "channels": (int, str),
    "k": (int, str),
    "moma_iters": (int, str),
    "orders": (token_to_orders, orders_to_token),
    "detector": (_parse_switch, lambda on: "on" if on else "off"),
    "alpha_det": _FLOAT,
    "beta": _FLOAT,
    "alpha_loss": _FLOAT,
}
_KEYS = (*_SCALARS, "w_fuse", "w_head")


def parse_scalars(texts: dict[str, str]) -> dict:
    """Each key's text parsed by its `_SCALARS` row; ValueError names a bad key."""
    values = {}
    for key, text in texts.items():
        try:
            values[key] = _SCALARS[key][0](text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    return values


def dump_config(cfg: PipelineConfig, path) -> None:
    """Write the config; non-default weights go to PFM sidecars. A weight
    beyond the float32 range raises ImageIOError before any file is written."""
    path = Path(path)
    values = {key: fmt(getattr(cfg, key)) for key, (_, fmt) in _SCALARS.items()}
    sidecars = {}
    for key, matrix, default in (
        ("w_fuse", cfg.w_fuse, default_fuse_weights(cfg.channels)),
        ("w_head", cfg.w_head, default_head_weights(cfg.scale, cfg.channels)),
    ):
        if np.array_equal(matrix, default):
            values[key] = "default"
        else:
            sidecar = path.with_suffix(f".{key}.pfm")
            sidecars[sidecar] = pfm_bytes(FeatureMap(matrix[None]))
            values[key] = sidecar.name
    for sidecar, data in sidecars.items():
        sidecar.write_bytes(data)
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
    # A sidecar is one single-channel (Pf) plane of the matrix's shape.
    planes = read_pfm(base / token).data
    if planes.shape != (1, *shape):
        raise ValueError(f"weight matrix {token}: shape {planes.shape} != {(1, *shape)}")
    return planes[0]


def load_config(path) -> PipelineConfig:
    """Parse a config file; missing keys take the PipelineConfig defaults."""
    path = Path(path)
    kv = _parse_lines(path.read_text(encoding="ascii"))
    cfg = PipelineConfig(**parse_scalars({key: kv[key] for key in _SCALARS if key in kv}))
    c = cfg.channels
    return replace(
        cfg,
        w_fuse=_load_matrix(kv.get("w_fuse", "default"), path.parent, (c, 4 * c)),
        w_head=_load_matrix(kv.get("w_head", "default"), path.parent, (cfg.scale * cfg.scale, c)),
    )

