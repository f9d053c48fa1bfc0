"""Workloads of the depthsr benchmark and the process that measures one run.

Each workload renders its inputs from the seed, runs ops one after another
from this single process (a closed loop with one client), checks every
op's output, and reports medians. An op is one scene through `sr` or one
`fit` step.

    python3 perfbench/workloads.py --role measure --workload sr-lr64 \
        --seed 0 --seconds 36 --trace 0 --spawned <unix time>

`--spawned` is when the parent started this process, so set-up time
includes interpreter start and imports. `perfbench/run.py` starts this
file once per set-up sample and once to measure; call that instead. The
metric definitions are in README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from depthsr import cli, configio, fileio, fusion, grid, losses, scenes, trainer  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("sr-lr64", "sr-batch-lr16", "fit-step-lr16")
PROFILES = ("full", "toy")
DEFAULT_SEED = 0
SCALE = 4
MAX_SHIFT_PX = 6.0

# HR edge per workload; LR is HR / SCALE. "toy" is for the self-test.
HR_EDGE = {
    "full": {"sr-lr64": 256, "sr-batch-lr16": 64, "fit-step-lr16": 64},
    "toy": {"sr-lr64": 32, "sr-batch-lr16": 16, "fit-step-lr16": 16},
}
# Two scenes per preset, in a seed-chosen order, cycled op after op.
BATCH_PRESETS = scenes.PRESETS * 2

# The default config's output equals bicubic upsampling (zero head, identity
# fuse on the depth block), so its matching work would be thrown away. Both
# sr workloads use this config instead: 3 fit steps from the default config
# on boxes HR 64^2, see make_reference.py.
FITTED_CONFIG = HERE / "fitted" / "fitted.cfg"
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".bench_work"

# Correctness tolerances against the stored default-seed references.
# HR depth: the matcher-rewrite gate, 1e-9 m in float64. fit: the loss
# history within 1e-8 relative and weights within 1e-8 absolute. Both admit
# rounding drift from reordered sums but not a different match, step size
# or line-search decision.
SR_ATOL_M = 1e-9
FIT_LOSS_RTOL = 1e-8
FIT_WEIGHT_ATOL = 1e-8
# The best l_total the trainer reports must equal the loss of its best
# config run through the plain pipeline (staging is exact by design).
FIT_CROSSCHECK_RTOL = 1e-9


def scene_specs(seed: int, hr: int, presets) -> list[scenes.SceneSpec]:
    """Seed-chosen preset order, RGB shift and texture seed per scene."""
    rng = np.random.default_rng(seed % 2**63)
    specs = []
    for i in rng.permutation(len(presets)):
        dx, dy = rng.uniform(-MAX_SHIFT_PX, MAX_SHIFT_PX, size=2)
        specs.append(
            scenes.SceneSpec(
                width=hr, height=hr, scale=SCALE, dx=float(dx), dy=float(dy),
                texture_seed=int(rng.integers(1, 2**31 - 1)), noise_sigma=0.0,
                preset=presets[i],
            )
        )
    return specs


def _warm_up(cfg: fusion.PipelineConfig) -> None:
    """One small pipeline run, so first-call costs stay out of the ops."""
    toy = scenes.render_scene(scenes.SceneSpec(width=32, height=32, scale=SCALE, noise_sigma=0.0))
    fusion.run_pipeline(toy.rgb, toy.d_lr, cfg)


def _write_scene(directory: Path, scene: scenes.Scene) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    fileio.write_ppm8(directory / "rgb.ppm", scene.rgb)
    fileio.write_depth_pfm(directory / "d_lr.pfm", scene.d_lr)
    fileio.write_depth_pfm(directory / "d_gt.pfm", scene.d_gt)


def _sr_problems(out: grid.DepthMap, scene: scenes.Scene, cfg: fusion.PipelineConfig) -> list[str]:
    """Checks that hold for any correct HR output, whatever the seed.

    HR depth is bicubic(LR) plus a pixel-shuffled head residual, so each
    scale x scale residual block lies in the column space of w_head.
    """
    if out.depth.shape != scene.d_gt.depth.shape:
        return [f"HR shape {out.depth.shape} != {scene.d_gt.depth.shape}"]
    base = grid.bicubic_resample(scene.d_lr, float(cfg.scale))
    if not np.array_equal(out.valid, base.valid):
        return ["validity mask differs from the bicubic mask"]
    h, w = scene.d_lr.height, scene.d_lr.width
    s = cfg.scale
    blocks = (out.depth - base.depth).reshape(h, s, w, s).transpose(0, 2, 1, 3).reshape(h * w, s * s)
    basis, _ = np.linalg.qr(cfg.w_head)
    off = np.abs(blocks - (blocks @ basis) @ basis.T).max()
    if off > SR_ATOL_M:
        return [f"residual leaves the head's column space by {off:.3e} m"]
    return []


class SrWorkload:
    """HR depth for seed-made scenes; subclasses define how an op runs."""

    def __init__(self, seed: int, profile: str, presets):
        self.cfg = configio.load_config(FITTED_CONFIG)
        hr = HR_EDGE[profile][self.name]
        self.scenes = [scenes.render_scene(spec) for spec in scene_specs(seed, hr, presets)]
        self.inputs = len(self.scenes)

    def problems(self, key: int, out: grid.DepthMap, ref) -> list[str]:
        found = _sr_problems(out, self.scenes[key], self.cfg)
        if ref is not None and not found:
            diff = np.abs(out.depth - ref[f"depth_{key}"]).max()
            if diff > SR_ATOL_M:
                found.append(f"scene {key}: HR depth off the reference by {diff:.3e} m")
        return found

    def same(self, a: grid.DepthMap, b: grid.DepthMap) -> bool:
        return np.array_equal(a.depth, b.depth) and np.array_equal(a.valid, b.valid)

    def quality(self, outputs: dict) -> tuple[float, float]:
        """Mean RMSE (cm) and mean l_total of the HR outputs against GT."""
        rmse = [losses.rmse_cm(self.scenes[k].d_gt, out) for k, out in outputs.items()]
        total = [
            losses.loss_total(self.scenes[k].d_gt, out, self.cfg.alpha_loss).l_total
            for k, out in outputs.items()
        ]
        return float(np.mean(rmse)), float(np.mean(total))

    def reference_arrays(self, outputs: dict) -> dict:
        return {f"depth_{k}": out.depth for k, out in outputs.items()}

    def close(self) -> None:
        pass


class SrLr64(SrWorkload):
    """One boxes scene, HR 256^2 from LR 64^2, through fusion.run_pipeline."""

    name = "sr-lr64"

    def __init__(self, seed: int, profile: str):
        super().__init__(seed, profile, ("boxes",))
        _warm_up(self.cfg)

    def op(self, i: int):
        scene = self.scenes[0]
        return 0, fusion.run_pipeline(scene.rgb, scene.d_lr, self.cfg)


class SrBatchLr16(SrWorkload):
    """Eight LR 16^2 scenes over all presets, each op one `depthsr sr` call
    on files written at set-up, with the fitted config file."""

    name = "sr-batch-lr16"

    def __init__(self, seed: int, profile: str):
        super().__init__(seed, profile, BATCH_PRESETS)
        self.work = WORK_DIR / f"{self.name}-{os.getpid()}"
        for k, scene in enumerate(self.scenes):
            _write_scene(self.work / f"in{k}", scene)
            # Check against what the files hold: PPM and PFM round values.
            self.scenes[k] = scenes.Scene(
                rgb=fileio.read_ppm8(self.work / f"in{k}" / "rgb.ppm"),
                d_gt=fileio.read_depth_pfm(self.work / f"in{k}" / "d_gt.pfm"),
                d_lr=fileio.read_depth_pfm(self.work / f"in{k}" / "d_lr.pfm"),
                d_lr_noisy=None,
                spec=scene.spec,
            )
        self._devnull = open(os.devnull, "w")
        toy = scenes.render_scene(scenes.SceneSpec(width=16, height=16, scale=SCALE, noise_sigma=0.0))
        _write_scene(self.work / "warm", toy)
        self._run_cli(self.work / "warm", self.work / "warm-out")

    def _run_cli(self, src: Path, dst: Path) -> int:
        argv = [
            "sr", "--rgb", str(src / "rgb.ppm"), "--d-lr", str(src / "d_lr.pfm"),
            "--d-gt", str(src / "d_gt.pfm"), "--out", str(dst), "--config", str(FITTED_CONFIG),
        ]
        with contextlib.redirect_stdout(self._devnull):
            return cli.main(argv)

    def op(self, i: int):
        key = i % len(self.scenes)
        captured = []
        run_pipeline = fusion.run_pipeline

        def capture(*args, **kwargs):
            out = run_pipeline(*args, **kwargs)
            captured.append(out)
            return out

        fusion.run_pipeline = capture
        try:
            code = self._run_cli(self.work / f"in{key}", self.work / f"out{key}")
        finally:
            fusion.run_pipeline = run_pipeline
        if code != 0 or len(captured) != 1:
            raise RuntimeError(f"depthsr sr exited {code} after {len(captured)} pipeline runs")
        return key, captured[0]

    def problems(self, key: int, out: grid.DepthMap, ref) -> list[str]:
        found = super().problems(key, out, ref)
        written = fileio.read_depth_pfm(self.work / f"out{key}" / "d_hr.pfm")
        if not np.array_equal(written.depth, np.where(out.valid, out.depth, 0.0).astype(np.float32)):
            found.append(f"scene {key}: d_hr.pfm differs from the computed HR depth")
        return found

    def close(self) -> None:
        self._devnull.close()
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()


class FitStepLr16:
    """One default-config fit step (`depthsr fit --steps 1`) on boxes HR 64^2."""

    name = "fit-step-lr16"

    def __init__(self, seed: int, profile: str):
        hr = HR_EDGE[profile][self.name]
        self.scene = scenes.render_scene(scene_specs(seed, hr, ("boxes",))[0])
        self.tcfg = trainer.TrainConfig(steps=1)
        self.inputs = 1
        _warm_up(fusion.PipelineConfig())
        self._rerun_quality = None

    def op(self, i: int):
        return 0, trainer.fit(self.scene, self.tcfg, fusion.PipelineConfig())

    def _rerun(self, result: trainer.FitResult) -> tuple[float, float]:
        """(RMSE cm, l_total) of the best config through the plain pipeline."""
        pred = fusion.run_pipeline(self.scene.rgb, self.scene.d_lr, result.config)
        report = losses.loss_total(self.scene.d_gt, pred, result.config.alpha_loss)
        return losses.rmse_cm(self.scene.d_gt, pred), report.l_total

    def problems(self, key: int, result: trainer.FitResult, ref) -> list[str]:
        hist = _history(result)
        if hist.shape != (self.tcfg.steps + 1, 4) or not np.isfinite(hist).all():
            return [f"loss history has shape {hist.shape} or non-finite values"]
        best = hist[:, 3].min()
        self._rerun_quality = self._rerun(result)
        l_total = self._rerun_quality[1]
        found = []
        if abs(l_total - best) > FIT_CROSSCHECK_RTOL * abs(best):
            found.append(f"best l_total {best!r} != pipeline loss {l_total!r} of the best config")
        if ref is not None:
            rel = np.abs(hist - ref["history"]).max() / np.abs(ref["history"]).max()
            if rel > FIT_LOSS_RTOL:
                found.append(f"loss history off the reference by {rel:.3e} relative")
            for key_w in ("w_head", "w_fuse"):
                diff = np.abs(getattr(result.config, key_w) - ref[key_w]).max()
                if diff > FIT_WEIGHT_ATOL:
                    found.append(f"{key_w} off the reference by {diff:.3e}")
        return found

    def same(self, a: trainer.FitResult, b: trainer.FitResult) -> bool:
        return (
            np.array_equal(_history(a), _history(b))
            and np.array_equal(a.config.w_head, b.config.w_head)
            and np.array_equal(a.config.w_fuse, b.config.w_fuse)
        )

    def quality(self, outputs: dict) -> tuple[float, float]:
        return self._rerun_quality

    def reference_arrays(self, outputs: dict) -> dict:
        result = outputs[0]
        return {"history": _history(result), "w_head": result.config.w_head, "w_fuse": result.config.w_fuse}

    def close(self) -> None:
        pass


def _history(result: trainer.FitResult) -> np.ndarray:
    return np.array([[r.l_rec, r.l_grad, r.l_hes, r.l_total] for r in result.history])


def make_workload(name: str, seed: int, profile: str):
    cls = {c.name: c for c in (SrLr64, SrBatchLr16, FitStepLr16)}[name]
    return cls(seed, profile)


def reference_path(name: str, profile: str) -> Path:
    return REFERENCE_DIR / f"{name}.{profile}.npz"


def load_reference(name: str, profile: str, seed: int):
    """Stored outputs for the default seed; None for any other seed."""
    if seed != DEFAULT_SEED:
        return None
    with np.load(reference_path(name, profile)) as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------- metrics

def _module_self(trace, module: str) -> float:
    return sum(v for k, v in trace.self_s.items() if k.startswith(module + "."))


def _prefixed_bytes(trace, prefix: str) -> int:
    return sum(v for k, v in trace.bytes.items() if k.startswith(prefix))


def layer_metrics(trace, op_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced op (see README.md)."""
    s = trace.self_s
    c = trace.calls
    grad = "trainer.SceneLoss.gradient"
    fits = c["trainer.fit"]
    probes = trace.parent_calls[(grad, "trainer.SceneLoss.report")]
    head_probes = trace.parent_calls[(grad, "trainer.SceneLoss.head_report")]
    fit_evals = trace.parent_calls[("trainer.fit", "trainer.SceneLoss.report")]
    return {
        "matcher.correlation_set.self_s": s["matcher.correlation_set"],
        "matcher.top_k.self_s": s["matcher.top_k"],
        "matcher.order_map.self_s": s["matcher.order_map"],
        "matcher.matching_selection.self_s": s["matcher.matching_selection"],
        "grid.extract_patches.self_s": s["grid.extract_patches"],
        "grid.fold_patches.self_s": s["grid.fold_patches"],
        "diffops.self_s": _module_self(trace, "diffops"),
        "structdet.self_s": _module_self(trace, "structdet"),
        "fusion.encode.self_s": sum(
            s[f"fusion.{f}"] for f in ("encode_rgb", "encode_depth", "bank_features", "filter_bank")
        ),
        "fusion.aggregate.self_s": s["fusion.aggregate"],
        "matcher.correlation_set.calls": c["matcher.correlation_set"],
        "matcher.correlation_set.bytes": trace.bytes["matcher.correlation_set"],
        "matcher.correlation_set.max_bytes": trace.max_bytes["matcher.correlation_set"],
        "matcher.match_order.calls": c["matcher.match_order"],
        "grid.extract_patches.calls": c["grid.extract_patches"],
        "structdet.detect.calls": c["structdet.detect"],
        "fileio.read.bytes": _prefixed_bytes(trace, "fileio.read_"),
        "fileio.write.bytes": _prefixed_bytes(trace, "fileio.write_"),
        "trainer.probes": probes + head_probes,
        "trainer.rematch_probes": probes,
        "trainer.line_search_evals": fit_evals - fits,
        "trainer.gradient.match_order_calls": trace.scoped_calls[(grad, "matcher.match_order")]
        // max(1, c[grad]),
        "trace.coverage_frac": sum(s.values()) / op_s,
    }


def _median_by_key(rows: list[dict]) -> dict[str, float]:
    return {key: statistics.median_low(row[key] for row in rows) for key in rows[0]}


# ---------------------------------------------------------------- one run

def run(name: str, seed: int, seconds: float, trace: bool, profile: str = "full",
        spawned: float | None = None) -> dict:
    """Set up, run ops for at most `seconds` (half untraced, half traced
    when `trace`), check every output, and return the run's figures."""
    workload = make_workload(name, seed, profile)
    ready = time.time()
    try:
        ref = load_reference(name, profile, seed)
        state = {"first": {}, "failed": 0, "errors": []}
        plain = _loop(workload, ref, state, seconds / 2 if trace else seconds, None, 0)
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = _loop(workload, ref, state, seconds / 2, tracer, len(plain))
            finally:
                tracer.uninstall()
            layers = [layer_metrics(t, op_s) for op_s, t in traced]
            table = _function_table([t for _, t in traced])
        attempted = len(plain) + (len(traced) if trace else 0)
        rmse, l_total = workload.quality(state["first"]) if state["first"] else (None, None)
    finally:
        workload.close()
    out = {
        "attempted": attempted,
        "failed": state["failed"],
        "errors": state["errors"][:5],
        "rmse_cm": rmse,
        "l_total": l_total,
        "latencies_s": plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spawned is not None:
        out["setup_s"] = ready - spawned
    if trace:
        per_layer = _median_by_key(layers)
        per_layer["trace.overhead_frac"] = (
            statistics.median(op_s for op_s, _ in traced) / statistics.median(plain) - 1.0
        )
        out["per_layer"] = per_layer
        out["functions"] = table
    return out


def _loop(workload, ref, state, seconds: float, tracer, start_index: int) -> list:
    """Closed loop: the next op starts when the previous one is checked.

    Runs at least one op, and no op that would be expected, from the median
    op time so far, to end after `seconds`.
    """
    results = []
    times = []
    t_start = time.perf_counter()
    i = start_index
    while True:
        t0 = time.perf_counter()
        try:
            key, out = workload.op(i)
            error = None
        except Exception:  # an op that raises counts as failed
            error = traceback.format_exc(limit=3)
        op_s = time.perf_counter() - t0
        op_trace = tracer.take() if tracer is not None else None
        if error is None:
            found = workload.problems(key, out, ref)
            first = state["first"].setdefault(key, out)
            if first is not out and not workload.same(first, out):
                found.append(f"input {key}: output differs from the first op on the same input")
        else:
            found = [error]
        if tracer is not None:
            tracer.take()  # drop spans recorded by the checks
        if found:
            state["failed"] += 1
            state["errors"].extend(found)
        results.append(op_s if tracer is None else (op_s, op_trace))
        times.append(op_s)
        i += 1
        if time.perf_counter() - t_start + statistics.median(times) > seconds:
            return results


def _function_table(traces) -> dict:
    """Median self time and calls per op of every traced function."""
    names = sorted({n for t in traces for n in t.calls})
    return {
        n: {
            "self_s": statistics.median(t.self_s.get(n, 0.0) for t in traces),
            "calls": statistics.median(t.calls.get(n, 0) for t in traces),
        }
        for n in names
    }


def environment(seed: int) -> dict:
    """Where and how a run was made: code identity, cores, numpy, threads."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", required=True, choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=PROFILES, default="full")
    parser.add_argument("--spawned", type=float, required=True, help="unix time the parent started this process")
    args = parser.parse_args(argv)
    if args.role == "setup":
        workload = make_workload(args.workload, args.seed, args.profile)
        ready = time.time()
        workload.close()
        print(json.dumps({"setup_s": ready - args.spawned}))
        return 0
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.profile, args.spawned)
    out["environment"] = environment(args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
