"""Desk-scale fitting of the small trainable set via numeric gradients.

The trainable parameters are the head weights, the fuse weights, and the
two detector scalars; central differences over the total loss replace an
autodiff engine at this parameter count. Descent follows the negative
gradient normalized to unit max-entry, with step halving on
non-improvement and best-so-far tracking (the L1 objective is piecewise
linear, so a fixed raw-gradient step either stalls or diverges). Enabled
weight matrices start from a seeded fan-in-scaled random init (set
``init_scale = 0`` to fit from the config's weights as-is).

Every loss evaluation, probe or not, is one `SceneLoss.report`, which runs
the stages of the real pipeline and reuses what the probed parameter cannot
change (see SceneLoss). `fit` evaluates each gradient's probes in spawned
worker processes (see fit).
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .fusion import (
    PipelineConfig,
    encode_scene,
    gated_blocks,
    moma_features,
    order_matches,
    reconstruct,
)
from .grid import FeatureMap, NonFiniteError, bicubic_resample, check_finite_settings, check_int_settings
from .losses import LossReport, loss_planes, loss_total
from .scenes import Scene

# Detector scalars stay strictly positive after each descent step.
_PARAM_FLOOR = 1e-6

_MAX_HALVINGS = 12

# Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the step index where it happened."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


@dataclass(frozen=True)
class TrainConfig:
    """Descent settings and the enabled-parameter subset; a frozen value.
    `fit_params` names the fitted parameters among head (w_head), fuse
    (w_fuse), alpha (alpha_det) and beta, kept in that order."""

    steps: int = 50
    lr: float = 0.05
    fd_epsilon: float = 1e-3
    fit_params: tuple[str, ...] = ("head", "fuse")
    seed: int = 0
    init_scale: float = 1.0
    log_path: str | None = None

    def __post_init__(self):
        check_int_settings(self, "steps", "seed")
        check_finite_settings(self, "lr", "fd_epsilon", "init_scale")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        if self.fd_epsilon <= 0:
            raise ValueError("fd_epsilon must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")
        names = ("head", "fuse", "alpha", "beta")
        unknown = set(self.fit_params) - set(names)
        if unknown:
            raise ValueError(f"unknown fit parameters {sorted(unknown)}")
        object.__setattr__(self, "fit_params", tuple(n for n in names if n in self.fit_params))


def _layout(cfg: PipelineConfig, tcfg: TrainConfig) -> list[tuple[str, np.ndarray, int]]:
    """The enabled parameter blocks in vector order: (name, value, init fan-in).

    Each name is a PipelineConfig field. A fan-in of 0 marks a detector
    scalar: it starts at its configured value and stays at least
    _PARAM_FLOOR. The detector scalars gate nothing with the detector off,
    so enabling one there raises ValueError.
    """
    if not cfg.detector and {"alpha", "beta"} & set(tcfg.fit_params):
        raise ValueError("alpha_det and beta can be fitted only with the detector on")
    blocks = {
        "head": ("w_head", cfg.w_head, cfg.channels),
        "fuse": ("w_fuse", cfg.w_fuse, 4 * cfg.channels),
        "alpha": ("alpha_det", np.array([cfg.alpha_det]), 0),
        "beta": ("beta", np.array([cfg.beta]), 0),
    }
    return [blocks[part] for part in tcfg.fit_params]


def pack_params(cfg: PipelineConfig, tcfg: TrainConfig) -> np.ndarray:
    """Flatten the enabled parameter subset into one vector."""
    parts = [value.ravel() for _, value, _ in _layout(cfg, tcfg)]
    return np.concatenate(parts) if parts else np.empty(0)


def unpack_params(vec: np.ndarray, cfg: PipelineConfig, tcfg: TrainConfig) -> PipelineConfig:
    """Rebuild a config with the vector's values on the enabled subset."""
    values = {}
    i = 0
    for name, value, fan_in in _layout(cfg, tcfg):
        part = vec[i : i + value.size]
        i += value.size
        values[name] = part.reshape(value.shape) if fan_in else max(float(part[0]), _PARAM_FLOOR)
    if i != vec.size:
        raise ValueError(f"parameter vector length {vec.size}, consumed {i}")
    return replace(cfg, **values)


class SceneLoss:
    """Loss evaluator for one scene; `report` is its one public method.

    It runs the stages of the real pipeline and keeps each stage's result
    while its key holds. Per scene, under the starting config:
    `fusion.encode_scene`, the bicubic base and the GT's loss planes
    (`losses.loss_planes`), which read no fitted parameter. Per config
    scalars (`PipelineConfig.scalars`, so that no setting, fitted or not,
    can leave a stale result): the first iteration's matches, selected and
    gated blocks (`fusion.gated_blocks`). Per config scalars and fuse
    weights: the fused features, `fusion.moma_features` given those blocks.
    Per report: `fusion.reconstruct` with `losses.loss_total`. So a
    head-weight probe costs one reconstruct and loss, a fuse probe re-runs
    the matching iterations after the first, and a detector-scalar probe
    runs them all. Every value equals a full pipeline run's.
    """

    def __init__(self, scene: Scene, cfg: PipelineConfig, tcfg: TrainConfig):
        self.cfg = cfg
        self.tcfg = tcfg
        self.d_gt = scene.d_gt
        self.rgb_maps, self.f_d0 = encode_scene(scene.rgb, scene.d_lr, cfg)
        self.base = bicubic_resample(scene.d_lr, float(cfg.scale))
        self._gt_planes = loss_planes(self.d_gt)
        self._first_gated: tuple[tuple, np.ndarray] | None = None
        self._fused: tuple[bytes, FeatureMap] | None = None

    def _fused_features(self, cfg: PipelineConfig) -> FeatureMap:
        """The MOMA iterations' output under `cfg`, reused by the class's
        rule. Fuse weights are keyed on their exact bytes, so that -0.0 and
        0.0 never share an entry."""
        scalars = cfg.scalars()
        if self._first_gated is None or self._first_gated[0] != scalars:
            matches = order_matches(self.rgb_maps, self.f_d0, cfg)
            self._first_gated = (scalars, gated_blocks(self.f_d0, self.rgb_maps, matches, cfg))
            self._fused = None
        key = cfg.w_fuse.tobytes()
        if self._fused is None or self._fused[0] != key:
            self._fused = (key, moma_features(self.f_d0, self.rgb_maps, cfg, self._first_gated[1]))
        return self._fused[1]

    def report(self, vec: np.ndarray) -> LossReport:
        """The loss at parameter vector `vec`: finite, or NonFiniteError, or
        FloatingPointError on a float overflow or invalid operation."""
        cfg = unpack_params(vec, self.cfg, self.tcfg)
        with np.errstate(over="raise", invalid="raise"):
            pred = reconstruct(self._fused_features(cfg), self.base, cfg)
            report = loss_total(self.d_gt, pred, cfg.alpha_loss, self._gt_planes)
        if not np.isfinite(report.l_total):
            raise NonFiniteError(f"l_total is {report.l_total}")
        return report


def _worker_probes(loss: SceneLoss, vec: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Central differences of `loss` at `vec` along each of `coords`.

    A probe worker runs it on the `SceneLoss` that came with the task and
    keeps nothing between tasks. The evaluator comes with every task rather
    than as executor initializer arguments: those are written to each
    worker's pipe in turn as it is spawned, and at over 64 KiB every spawn
    then waits until that worker has imported numpy, which serializes the
    workers' start-up.
    """
    eps = loss.tcfg.fd_epsilon
    values = np.empty(len(coords))
    for j, i in enumerate(coords):
        probe = vec.copy()
        probe[i] = vec[i] + eps
        hi = loss.report(probe).l_total
        probe[i] = vec[i] - eps
        lo = loss.report(probe).l_total
        values[j] = (hi - lo) / (2.0 * eps)
    return values


@contextmanager
def _one_blas_thread():
    """The BLAS thread variables read 1 inside the block, so that workers
    spawned in it start with one BLAS thread each."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name)
            else:
                os.environ[name] = value


@dataclass(frozen=True)
class FitResult:
    """Best-loss configuration plus the per-step loss history."""

    config: PipelineConfig
    history: list[LossReport]


def _initial_params(cfg: PipelineConfig, tcfg: TrainConfig) -> np.ndarray:
    """Seeded fan-in-scaled random init added to the enabled weight blocks.

    The detector scalars keep their configured values; `init_scale = 0`
    fits from the config's weights unchanged.
    """
    params = pack_params(cfg, tcfg)
    if params.size == 0 or tcfg.init_scale == 0:
        return params
    rng = np.random.default_rng(tcfg.seed)
    noise = [
        rng.normal(0.0, tcfg.init_scale / np.sqrt(fan_in), size=value.size)
        if fan_in else np.zeros(value.size)
        for _, value, fan_in in _layout(cfg, tcfg)
    ]
    return params + np.concatenate(noise)


def fit(scene: Scene, tcfg: TrainConfig, cfg: PipelineConfig) -> FitResult:
    """Descent on the enabled parameters; returns the best parameters seen.

    Every loss it evaluates, probes included, is a `report` of the one
    `SceneLoss` it builds. The probes run in one pool of spawned worker
    processes for the whole call, the same path for any CPU count: max(1,
    min(CPUs, coordinates)) workers, each started with one BLAS thread.
    CPUs are those this process may run on, or os.cpu_count() where the OS
    has no os.sched_getaffinity. Of n workers, chunk w holds coordinates w,
    w + n, ..., so every chunk gets the same mix of head and re-matching
    probes; a chunk goes to whichever worker is free, and the gradient is
    bit-identical either way, since every probe runs the same code on the
    same inputs. The line search, best-so-far tracking and the log stay in
    the calling process. Because the workers are spawned, a script that
    calls `fit` must guard its entry point with ``if __name__ ==
    "__main__"``; a worker that cannot start raises `BrokenProcessPool`. No
    worker outlives the call. Fitting `alpha_det` or `beta` with the
    detector off raises ValueError before any worker starts.

    When `tcfg.log_path` is set, writes a step,l_rec,l_grad,l_hes,l_total
    CSV covering the whole trajectory. Aborts with DivergenceError
    (carrying the step index) if the loss goes non-finite.
    """
    # Imported here, so that runs which never fit (every `sr`) do not pay
    # for them at start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    params = _initial_params(cfg, tcfg)
    loss = SceneLoss(scene, cfg, tcfg)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(cpus, params.size))
    chunks = [np.arange(w, params.size, workers) for w in range(workers)]
    spawn = multiprocessing.get_context("spawn")
    # The executor spawns its workers at the first gradient's submits, so
    # they start with one BLAS thread; leaving the block joins every worker,
    # on return and on error.
    with _one_blas_thread(), ProcessPoolExecutor(workers, mp_context=spawn) as pool:

        def gradient(vec: np.ndarray) -> np.ndarray:
            grad = np.empty_like(vec)
            values = pool.map(_worker_probes, [loss] * workers, [vec] * workers, chunks)
            for coords, chunk in zip(chunks, values):
                grad[coords] = chunk
            return grad

        best_params, history = _descend(loss, gradient, params)
    _write_log(tcfg, history)
    return FitResult(unpack_params(best_params, cfg, tcfg), history)


def _descend(loss: SceneLoss, gradient, params: np.ndarray) -> tuple[np.ndarray, list[LossReport]]:
    """The descent loop of `fit`: (best parameters, per-step loss history)."""
    tcfg = loss.tcfg
    history = [_guarded(0, loss.report, params)]
    if params.size == 0:
        return params, history
    current = history[0].l_total
    best_params = params.copy()
    best_loss = current

    for step in range(1, tcfg.steps + 1):
        grad = _guarded(step, gradient, params)
        scale = np.abs(grad).max()
        if scale == 0.0:
            history.append(history[-1])  # the report at these same params
            continue
        direction = grad / scale
        # Fresh line search from the base step: halve until the move
        # improves, then take the last candidate regardless (best-so-far
        # tracking protects the result).
        trial = tcfg.lr
        candidate = params - trial * direction
        report = _guarded(step, loss.report, candidate)
        while report.l_total >= current and trial > tcfg.lr * 2.0**-_MAX_HALVINGS:
            trial *= 0.5
            candidate = params - trial * direction
            report = _guarded(step, loss.report, candidate)
        params = candidate
        history.append(report)
        current = report.l_total
        if current < best_loss:
            best_loss = current
            best_params = params.copy()
    return best_params, history


def _guarded(step: int, fn, *args):
    """fn(*args), with a non-finite loss (a report's NonFiniteError or
    FloatingPointError) raised as a DivergenceError carrying `step`."""
    try:
        return fn(*args)
    except (NonFiniteError, FloatingPointError) as exc:
        raise DivergenceError(step, f"non-finite loss at step {step}: {exc}") from exc


def _write_log(tcfg: TrainConfig, history: list[LossReport]) -> None:
    if tcfg.log_path is None:
        return
    with open(tcfg.log_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "l_rec", "l_grad", "l_hes", "l_total"])
        for step, rep in enumerate(history):
            writer.writerow(
                [
                    step,
                    f"{rep.l_rec:.9f}",
                    f"{rep.l_grad:.9f}",
                    f"{rep.l_hes:.9f}",
                    f"{rep.l_total:.9f}",
                ]
            )
