"""Command-line front end: synth | match | sr | detect | eval | fit.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numeric failure.
Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _build_parser() -> _Parser:
    parser = _Parser(prog="depthsr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a synthetic misaligned RGB-D scene")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", default="boxes", choices=scenes.PRESETS)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--scale", type=int, default=4, choices=(4, 8, 16))
    p.add_argument("--dx", type=float, default=4.0)
    p.add_argument("--dy", type=float, default=3.0)
    p.add_argument("--rot", type=float, default=0.0, help="rotation in degrees")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--sigma", type=float, default=0.07, help="noise std, normalized units")

    p = sub.add_parser("match", help="dump matching indices, scores, and stats")
    p.add_argument("--rgb", required=True)
    p.add_argument("--depth", required=True, help="LR depth PFM")
    p.add_argument("--out", required=True)
    p.add_argument("--order", default="zero", choices=matcher.ORDERS)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--scale", type=int, default=4)
    p.add_argument("--channels", type=int, default=8)

    p = sub.add_parser("sr", help="run the super-resolution pipeline")
    p.add_argument("--rgb", required=True)
    p.add_argument("--d-lr", required=True)
    p.add_argument("--d-gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--scale", type=int, default=None, choices=(4, 8, 16))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--orders", default=None, help="subset of z/f/s, or 'none'")
    p.add_argument("--detector", default=None, choices=("on", "off"))
    p.add_argument("--tiny", action="store_true", help="quarter channels, 2 iterations")
    p.add_argument("--ablate", action="store_true", help="run all 8 order subsets")

    p = sub.add_parser("detect", help="emit structure descriptor and gate images")
    p.add_argument("--rgb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--meta", default=None, help="scene.meta sidecar for preset stats")

    p = sub.add_parser("eval", help="compare predicted depth against GT")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)

    p = sub.add_parser("fit", help="fit head/fuse weights on a scene")
    p.add_argument("--rgb", required=True)
    p.add_argument("--d-lr", required=True)
    p.add_argument("--d-gt", required=True)
    p.add_argument("--out-config", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--scale", type=int, default=None, choices=(4, 8, 16))
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--fd-eps", type=float, default=1e-3)
    p.add_argument("--fit-params", default="head,fuse",
                   help="comma subset of head,fuse,alpha,beta")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None, help="CSV loss log path")
    return parser


def _load_pipeline_config(args) -> fusion.PipelineConfig:
    if args.config is not None:
        cfg = configio.load_config(args.config)
        if args.scale is not None and args.scale != cfg.scale:
            raise _UsageError(
                f"--scale {args.scale} differs from scale {cfg.scale} of config {args.config}"
            )
    elif getattr(args, "tiny", False):
        cfg = fusion.PipelineConfig.tiny(scale=args.scale or 4)
    else:
        cfg = fusion.PipelineConfig(scale=args.scale or 4)
    changes = {}
    if getattr(args, "k", None) is not None:
        changes["k"] = args.k
    if getattr(args, "iters", None) is not None:
        changes["moma_iters"] = args.iters
    if getattr(args, "orders", None) is not None:
        changes["orders"] = configio.token_to_orders(args.orders)
    if getattr(args, "detector", None) is not None:
        changes["detector"] = args.detector == "on"
    return replace(cfg, **changes)


def cmd_synth(args) -> int:
    spec = scenes.SceneSpec(
        width=args.width,
        height=args.height,
        scale=args.scale,
        dx=args.dx,
        dy=args.dy,
        rotation_deg=args.rot,
        texture_seed=args.seed,
        noise_sigma=args.sigma,
        preset=args.preset,
    )
    scene = scenes.render_scene(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_ppm8(out / "rgb.ppm", scene.rgb)
    write_depth_pfm(out / "d_gt.pfm", scene.d_gt)
    write_depth_pfm(out / "d_lr.pfm", scene.d_lr)
    if scene.d_lr_noisy is not None:
        write_depth_pfm(out / "d_lr_noisy.pfm", scene.d_lr_noisy)
    meta = [
        f"preset={spec.preset}",
        f"width={spec.width}",
        f"height={spec.height}",
        f"scale={spec.scale}",
        f"dx={_fmt(spec.dx)}",
        f"dy={_fmt(spec.dy)}",
        f"rotation={_fmt(spec.rotation_deg)}",
        f"seed={spec.texture_seed}",
        f"sigma={_fmt(spec.noise_sigma)}",
    ]
    (out / "scene.meta").write_text("\n".join(meta) + "\n", encoding="ascii")
    print(f"wrote scene to {out}")
    return EXIT_OK


def cmd_match(args) -> int:
    rgb = read_ppm8(args.rgb)
    d_lr = read_depth_pfm(args.depth)
    f_r = fusion.encode_rgb(rgb, args.scale, args.channels)
    f_d = fusion.encode_depth(d_lr, args.channels)
    hw = f_d.height * f_d.width
    if not 1 <= args.k <= hw:
        raise ValueError(f"k must be in [1, {hw}], got {args.k}")
    target = matcher.order_map(f_d, args.order)
    source = matcher.order_map(f_r, args.order)
    # Top-k is prefix-consistent, so the first k columns are top_k at k; the
    # second column tells self_match_stats whether a row's maximum is unique.
    wide = matcher.top_k_streamed(target, source, min(max(args.k, 2), hw))
    m = matcher.MatchResult(wide.eta[:, : args.k], wide.psi[:, : args.k])
    matched = matcher.matching_selection(f_r, m)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pfm(out / "eta.pfm", FeatureMap(m.eta.astype(np.float64)[None]))
    write_pfm(out / "psi.pfm", FeatureMap(m.psi[None]))
    unique, hits = matcher.self_match_stats(wide)
    matched_dist = float(np.mean(np.abs(matched.data - f_d.data)))
    unmatched_dist = float(np.mean(np.abs(f_r.data - f_d.data)))
    stats = [
        f"order={args.order}",
        f"rows={hw}",
        f"k={args.k}",
        f"unique_max_rows={unique}",
        f"self_match_fraction={_fmt(hits / unique if unique else 0.0)}",
        f"matched_mean_abs_distance={_fmt(matched_dist)}",
        f"unmatched_mean_abs_distance={_fmt(unmatched_dist)}",
    ]
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


def _run_sr_once(rgb, d_lr, d_gt, cfg) -> tuple[DepthMap, dict[str, float]]:
    pred = fusion.run_pipeline(rgb, d_lr, cfg)
    report = losses.loss_total(d_gt, pred, cfg.alpha_loss)
    base = bicubic_resample(d_lr, float(cfg.scale))
    stats = {
        "rmse_cm": losses.rmse_cm(d_gt, pred),
        "bicubic_rmse_cm": losses.rmse_cm(d_gt, base),
        "l_rec": report.l_rec,
        "l_grad": report.l_grad,
        "l_hes": report.l_hes,
        "l_total": report.l_total,
        "valid_count": report.valid_count,
    }
    return pred, stats


def cmd_sr(args) -> int:
    cfg = _load_pipeline_config(args)
    rgb = read_ppm8(args.rgb)
    d_lr = read_depth_pfm(args.d_lr)
    d_gt = read_depth_pfm(args.d_gt)
    if (d_gt.height, d_gt.width) != (cfg.scale * d_lr.height, cfg.scale * d_lr.width):
        raise _UsageError(
            f"GT depth {d_gt.height}x{d_gt.width} is not {cfg.scale}x the "
            f"LR depth {d_lr.height}x{d_lr.width}"
        )

    pred, stats = _run_sr_once(rgb, d_lr, d_gt, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_depth_pfm(out / "d_hr.pfm", pred)
    write_ppm8(out / "error_map.ppm", _error_map(pred, d_gt))
    lines = [
        f"{key}={_fmt(val) if isinstance(val, float) else val}"
        for key, val in stats.items()
    ]
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
    rgb = read_ppm8(args.rgb)
    params = structdet.DetectorParams(alpha_det=args.alpha, beta=args.beta)
    f_r = fusion.encode_rgb(rgb, 1, args.channels)
    ridge = args.meta is not None and _read_meta(args.meta).get("preset") == "ridge"
    if ridge:
        crest, flat = scenes.ridge_masks(f_r.height, f_r.width)
        if not (crest.any() and flat.any()):
            raise _UsageError(
                f"ridge image {f_r.height}x{f_r.width} is too small for the "
                "--meta crest and flat statistics"
            )
    descriptor = structdet.compute_descriptor(f_r, params)
    gate = structdet.refine_gate(descriptor)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_pfm(out / "S.pfm", descriptor.s)
    write_ppm8(out / "gate.ppm", FeatureMap(np.repeat(gate.data, 3, axis=0)))

    s = descriptor.s.data[0]
    lines = [f"s_mean={_fmt(float(s.mean()))}", f"s_max={_fmt(float(s.max()))}"]
    if ridge:
        crest_mean = float(s[crest].mean())
        flat_mean = float(s[flat].mean())
        ratio = crest_mean / flat_mean if flat_mean > 0 else float("inf")
        lines += [
            f"crest_mean={_fmt(crest_mean)}",
            f"flat_mean={_fmt(flat_mean)}",
            f"crest_to_flat_ratio={_fmt(ratio)}",
        ]
    print("\n".join(lines))
    return EXIT_OK


def cmd_eval(args) -> int:
    pred = read_depth_pfm(args.pred)
    gt = read_depth_pfm(args.gt)
    report = losses.loss_total(gt, pred)
    lines = [
        f"rmse_cm={losses.rmse_cm(gt, pred):.2f}",
        f"l_rec={_fmt(report.l_rec)}",
        f"l_grad={_fmt(report.l_grad)}",
        f"l_hes={_fmt(report.l_hes)}",
        f"l_total={_fmt(report.l_total)}",
        f"valid_count={report.valid_count}",
    ]
    print("\n".join(lines))
    return EXIT_OK


def cmd_fit(args) -> int:
    cfg = _load_pipeline_config(args)
    rgb = read_ppm8(args.rgb)
    d_lr = read_depth_pfm(args.d_lr)
    d_gt = read_depth_pfm(args.d_gt)
    scene = scenes.Scene(
        rgb=rgb, d_gt=d_gt, d_lr=d_lr, d_lr_noisy=None,
        spec=scenes.SceneSpec(
            width=rgb.width, height=rgb.height, scale=cfg.scale
        ),
    )
    subset = {part.strip() for part in args.fit_params.split(",") if part.strip()}
    unknown = subset - {"head", "fuse", "alpha", "beta"}
    if unknown:
        raise ValueError(f"unknown fit parameters {sorted(unknown)}")
    tcfg = trainer.TrainConfig(
        steps=args.steps,
        lr=args.lr if args.lr is not None else trainer.TrainConfig.lr,
        fd_epsilon=args.fd_eps,
        fit_head="head" in subset,
        fit_fuse="fuse" in subset,
        fit_alpha="alpha" in subset,
        fit_beta="beta" in subset,
        seed=args.seed,
        log_path=args.log,
    )
    result = trainer.fit(scene, tcfg, cfg)
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ImageIOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (trainer.DivergenceError, NonFiniteError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
