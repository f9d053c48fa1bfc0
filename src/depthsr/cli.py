"""Command-line front end: synth | match | sr | detect | eval | fit.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
Every command is deterministic given its flags and seed. The four pipeline
commands (`sr`, `fit`, `match` and `detect`) build their settings in one
helper before reading any input: a flag that sets a pipeline config key
parses its text the same way as that key's line in a config file.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields, replace
from functools import cache
from pathlib import Path

import numpy as np

from . import configio, fusion, losses, matcher, scenes, structdet, trainer
from .fileio import (
    ImageIOError,
    read_depth_pfm,
    read_ppm8,
    write_depth_pfm,
    write_pfm,
    write_ppm8,
)
from .grid import DepthMap, FeatureMap, NonFiniteError, bicubic_resample

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3

_ABLATION_ROWS = ("none", "z", "f", "s", "zf", "zs", "fs", "zfs")


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError on bad usage. A flag with no explicit default is
    absent when left out, so the settings dataclass whose field it names (its
    `dest`) supplies the value: each default is stated once. A flag whose
    dest is a PipelineConfig field stays text here and is parsed by that
    config key's `configio` row, exactly as a config file's line is."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _lines(stats: dict) -> list[str]:
    """`key=value` report lines: floats with _fmt, everything else as is."""
    return [f"{key}={_fmt(val) if isinstance(val, float) else val}" for key, val in stats.items()]


def _check_outputs(args) -> None:
    """Fail before any input is read, not after the work: the nearest existing
    path up from --out must be a directory, and a file output (--out-config,
    --log) must not be a directory and needs an existing parent directory."""
    if "out" in args:
        out = Path(args.out)
        found = next(path for path in (out, *out.parents) if path.exists())
        if not found.is_dir():
            raise NotADirectoryError(f"cannot create output directory {out}: {found} is not a directory")
    for path in (getattr(args, name) for name in ("out_config", "log_path") if name in args):
        if Path(path).is_dir():
            raise IsADirectoryError(f"output {path} is a directory")
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"directory {Path(path).parent} of {path} does not exist")


@cache  # once per process; parse_args leaves a parser unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="depthsr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic misaligned RGB-D scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=scenes.PRESETS)
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--scale", type=int, choices=fusion.SCALES)
    p.add_argument("--dx", type=float)
    p.add_argument("--dy", type=float)
    p.add_argument("--rot", dest="rotation_deg", type=float, help="rotation in degrees")
    p.add_argument("--seed", dest="texture_seed", type=int)
    p.add_argument("--sigma", dest="noise_sigma", type=float, help="noise std, normalized units")

    p = sub.add_parser("match", help="dump matching indices, scores, and stats")
    p.add_argument("--rgb", required=True)
    p.add_argument("--depth", required=True, help="LR depth PFM")
    p.add_argument("--out", required=True)
    p.add_argument("--order", default="zero", choices=matcher.ORDERS)
    p.add_argument("--k")
    p.add_argument("--scale")
    p.add_argument("--channels")

    # The scene files and every pipeline setting of `sr` and `fit`.
    pipeline = _Parser(add_help=False)
    pipeline.add_argument("--rgb", required=True)
    pipeline.add_argument("--d-lr", required=True)
    pipeline.add_argument("--d-gt", required=True)
    pipeline.add_argument("--config", default=None)
    pipeline.add_argument("--scale")
    pipeline.add_argument("--channels")
    pipeline.add_argument("--k")
    pipeline.add_argument("--iters", dest="moma_iters")
    pipeline.add_argument("--orders", help="z/f/s letters, names joined by commas, or 'none'; "
                          "parsed as the config key")
    pipeline.add_argument("--detector", help="on/off, true/false or 1/0; parsed as the config key")

    p = sub.add_parser("sr", help="run the super-resolution pipeline", parents=[pipeline])
    p.add_argument("--out", required=True)
    p.add_argument("--ablate", action="store_true", default=False,
                   help="run all 8 order subsets")

    p = sub.add_parser("detect", help="emit structure descriptor and gate images")
    p.add_argument("--rgb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", dest="alpha_det")
    p.add_argument("--beta")
    p.add_argument("--channels", default="1")
    p.add_argument("--meta", default=None, help="scene.meta sidecar for preset stats")

    p = sub.add_parser("eval", help="compare predicted depth against GT")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)

    p = sub.add_parser("fit", help="fit head/fuse weights on a scene", parents=[pipeline])
    p.add_argument("--out-config", required=True)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--fd-eps", dest="fd_epsilon", type=float)
    p.add_argument("--fit-params", help="comma subset of head,fuse,alpha,beta",
                   type=lambda text: tuple(filter(None, map(str.strip, text.split(",")))))
    p.add_argument("--seed", type=int)
    p.add_argument("--log", dest="log_path", help="CSV loss log path")
    return parser


def _given(args, settings) -> dict:
    """The flags on the command line that set a field of dataclass `settings`."""
    return {f.name: getattr(args, f.name) for f in fields(settings) if f.name in args}


def _load_pipeline_config(args) -> fusion.PipelineConfig:
    """The settings of `sr`, `fit`, `match` and `detect`: the config file
    (`--config`, of `sr` and `fit`), or the default config, with the given
    flags applied. Scale and channels set the weights' shapes, so with a
    config file their flags may only repeat the file's value."""
    given = configio.parse_scalars(_given(args, fusion.PipelineConfig))
    if getattr(args, "config", None) is None:
        return fusion.PipelineConfig(**given)
    cfg = configio.load_config(args.config)
    for key, value in (("scale", cfg.scale), ("channels", cfg.channels)):
        if given.get(key, value) != value:
            raise _UsageError(
                f"--{key} {given[key]} differs from {key} {value} of config {args.config}"
            )
    return replace(cfg, **given)


def cmd_synth(args) -> int:
    spec = scenes.SceneSpec(**_given(args, scenes.SceneSpec))
    scene = scenes.render_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ppm8(out / "rgb.ppm", scene.rgb)
    write_depth_pfm(out / "d_gt.pfm", scene.d_gt)
    write_depth_pfm(out / "d_lr.pfm", scene.d_lr)
    if scene.d_lr_noisy is not None:
        write_depth_pfm(out / "d_lr_noisy.pfm", scene.d_lr_noisy)
    meta = _lines({
        "preset": spec.preset,
        "width": spec.width,
        "height": spec.height,
        "scale": spec.scale,
        "dx": spec.dx,
        "dy": spec.dy,
        "rotation": spec.rotation_deg,
        "seed": spec.texture_seed,
        "sigma": spec.noise_sigma,
    })
    (out / "scene.meta").write_text("\n".join(meta) + "\n", encoding="ascii")
    print(f"wrote scene to {out}")
    return EXIT_OK


def cmd_match(args) -> int:
    cfg = _load_pipeline_config(args)
    rgb = read_ppm8(args.rgb)
    d_lr = read_depth_pfm(args.depth)
    rgb_maps, f_d = fusion.encode_scene(rgb, d_lr, replace(cfg, orders=(args.order,)))
    f_r = rgb_maps["zero"]
    # top_k rejects a k above the patch count before any output is written.
    eta, psi = matcher.match_order(rgb_maps, f_d, args.order, cfg.k)
    # No output reads a matched prior, so only the RGB features are blended.
    matched = matcher.matching_selection(rgb_maps.patches("zero"), f_r.shape, eta, psi)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pfm(out / "eta.pfm", FeatureMap(eta.astype(np.float64)[None]))
    write_pfm(out / "psi.pfm", FeatureMap(psi[None]))
    matched_dist = float(np.mean(np.abs(matched.data - f_d.data)))
    unmatched_dist = float(np.mean(np.abs(f_r.data - f_d.data)))
    stats = _lines({
        "order": args.order,
        "rows": len(eta),
        "k": cfg.k,
        "matched_mean_abs_distance": matched_dist,
        "unmatched_mean_abs_distance": unmatched_dist,
    })
    (out / "stats.txt").write_text("\n".join(stats) + "\n", encoding="ascii")
    print("\n".join(stats))
    return EXIT_OK


def _hot_colormap(t: np.ndarray) -> FeatureMap:
    r = np.clip(3.0 * t, 0.0, 1.0)
    g = np.clip(3.0 * t - 1.0, 0.0, 1.0)
    b = np.clip(3.0 * t - 2.0, 0.0, 1.0)
    return FeatureMap(np.stack((r, g, b)))


def _error_map(pred: DepthMap, gt: DepthMap) -> FeatureMap:
    err_cm = np.where(gt.valid, np.abs(pred.depth - gt.depth) * 100.0, 0.0)
    peak = float(err_cm.max())
    t = err_cm / peak if peak > 0 else np.zeros_like(err_cm)
    return _hot_colormap(t)


def _read_scene_inputs(args, scale: int) -> tuple[FeatureMap, DepthMap, DepthMap]:
    """The --rgb, --d-lr and --d-gt files of `sr` and `fit`, with the GT depth
    and RGB `scale` x the LR depth and at least one valid GT pixel."""
    rgb, d_lr, d_gt = read_ppm8(args.rgb), read_depth_pfm(args.d_lr), read_depth_pfm(args.d_gt)
    fusion.check_scaled("GT depth", d_gt.depth.shape, d_lr, scale)
    fusion.check_scaled("RGB", rgb.shape[1:], d_lr, scale)
    if not d_gt.valid.any():
        raise _UsageError("no valid pixels in GT depth")
    return rgb, d_lr, d_gt


def _run_sr_once(rgb, d_lr, d_gt, cfg) -> tuple[DepthMap, dict[str, float]]:
    pred = fusion.run_pipeline(rgb, d_lr, cfg)
    report = losses.loss_total(d_gt, pred, cfg.alpha_loss)
    base = bicubic_resample(d_lr, float(cfg.scale))
    stats = {
        "rmse_cm": losses.rmse_cm(d_gt, pred),
        "bicubic_rmse_cm": losses.rmse_cm(d_gt, base),
        **asdict(report),
    }
    return pred, stats


def cmd_sr(args) -> int:
    cfg = _load_pipeline_config(args)
    rgb, d_lr, d_gt = _read_scene_inputs(args, cfg.scale)
    pred, stats = _run_sr_once(rgb, d_lr, d_gt, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_depth_pfm(out / "d_hr.pfm", pred)
    write_ppm8(out / "error_map.ppm", _error_map(pred, d_gt))
    lines = _lines(stats)
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    print("\n".join(lines))

    if args.ablate:
        rows = []
        for token in _ABLATION_ROWS:
            sub_cfg = replace(cfg, orders=configio.token_to_orders(token))
            _, sub_stats = _run_sr_once(rgb, d_lr, d_gt, sub_cfg)
            rows.append(f"orders={token} rmse_cm={_fmt(sub_stats['rmse_cm'])}")
        (out / "ablation.txt").write_text("\n".join(rows) + "\n", encoding="ascii")
        print("\n".join(rows))
    return EXIT_OK


def _read_meta(path) -> dict[str, str]:
    out = {}
    for line in Path(path).read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def cmd_detect(args) -> int:
    cfg = _load_pipeline_config(args)
    f_r = fusion.encode_rgb(read_ppm8(args.rgb), 1, cfg.channels)
    ridge = args.meta is not None and _read_meta(args.meta).get("preset") == "ridge"
    if ridge:
        crest, flat = scenes.ridge_masks(f_r.height, f_r.width)
        if not (crest.any() and flat.any()):
            raise _UsageError(
                f"ridge image {f_r.height}x{f_r.width} is too small for the "
                "--meta crest and flat statistics"
            )
    descriptor = structdet.compute_descriptor(f_r, cfg)
    gate = structdet.refine_gate(descriptor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pfm(out / "S.pfm", descriptor)
    write_ppm8(out / "gate.ppm", FeatureMap(np.repeat(gate.data, 3, axis=0)))

    s = descriptor.data[0]
    stats = {"s_mean": float(s.mean()), "s_max": float(s.max())}
    if ridge:
        crest_mean = float(s[crest].mean())
        flat_mean = float(s[flat].mean())
        ratio = crest_mean / flat_mean if flat_mean > 0 else float("inf")
        stats.update(crest_mean=crest_mean, flat_mean=flat_mean, crest_to_flat_ratio=ratio)
    print("\n".join(_lines(stats)))
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = read_depth_pfm(args.pred)
    gt = read_depth_pfm(args.gt)
    stats = {"rmse_cm": f"{losses.rmse_cm(gt, pred):.2f}", **asdict(losses.loss_total(gt, pred))}
    print("\n".join(_lines(stats)))
    return EXIT_OK


def cmd_fit(args) -> int:
    tcfg = trainer.TrainConfig(**_given(args, trainer.TrainConfig))
    cfg = _load_pipeline_config(args)
    rgb, d_lr, d_gt = _read_scene_inputs(args, cfg.scale)
    result = trainer.fit(scenes.Scene(rgb=rgb, d_gt=d_gt, d_lr=d_lr), tcfg, cfg)
    configio.dump_config(result.config, args.out_config)
    first, last = result.history[0], result.history[-1]
    best = min(rep.l_total for rep in result.history)
    print(f"initial_l_total={_fmt(first.l_total)}")
    print(f"final_l_total={_fmt(last.l_total)}")
    print(f"best_l_total={_fmt(best)}")
    print(f"wrote config to {args.out_config}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "match": cmd_match,
    "sr": cmd_sr,
    "detect": cmd_detect,
    "eval": cmd_eval,
    "fit": cmd_fit,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        _check_outputs(args)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (ImageIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (trainer.DivergenceError, NonFiniteError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # _UsageError is one
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
