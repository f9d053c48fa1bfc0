"""Desk-scale fitting of the small trainable set via numeric gradients.

The trainable parameters are the head weights, the fuse weights, and the
two detector scalars; central differences over the total loss replace an
autodiff engine at this parameter count. Descent follows the negative
gradient normalized to unit max-entry, with step halving on
non-improvement and best-so-far tracking (the L1 objective is piecewise
linear, so a fixed raw-gradient step either stalls or diverges). Enabled
weight matrices start from a seeded fan-in-scaled random init (set
``init_scale = 0`` to fit from the config's weights as-is).

Probes are evaluated in stages of the real pipeline: encoders and
first-iteration matches depend on no trainable parameter and are computed
once per scene; each probe then runs `fusion.aggregate` on those matches,
`fusion.moma_step` for the remaining iterations, and `fusion.reconstruct`
with `losses.loss_total` on the result. Head-weight probes reuse the fused
features of the base point. Staging changes nothing numerically, every
probe value equals a full pipeline run.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .fusion import (
    PipelineConfig,
    aggregate,
    encode_depth,
    encode_rgb,
    moma_step,
    order_matches,
    reconstruct,
)
from .grid import FeatureMap, NonFiniteError, check_finite_settings
from .losses import LossReport, loss_total
from .scenes import Scene

# Detector scalars stay strictly positive after each descent step.
_PARAM_FLOOR = 1e-6

_MAX_HALVINGS = 12


class DivergenceError(RuntimeError):
    """Loss became non-finite; carries the step index where it happened."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


@dataclass(frozen=True)
class TrainConfig:
    """Descent settings and the enabled-parameter subset; a frozen value."""

    steps: int = 50
    lr: float = 0.05
    fd_epsilon: float = 1e-3
    fit_head: bool = True
    fit_fuse: bool = True
    fit_alpha: bool = False
    fit_beta: bool = False
    seed: int = 0
    init_scale: float = 1.0
    log_path: str | None = None

    def __post_init__(self):
        check_finite_settings(self, "lr", "fd_epsilon", "init_scale")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.lr < 0:
            raise ValueError("lr must be non-negative")
        if self.fd_epsilon <= 0:
            raise ValueError("fd_epsilon must be positive")
        if self.init_scale < 0:
            raise ValueError("init_scale must be non-negative")


def _layout(cfg: PipelineConfig, tcfg: TrainConfig) -> list[tuple[str, np.ndarray, int]]:
    """The enabled parameter blocks in vector order: (name, value, init fan-in).

    A fan-in of 0 marks a detector scalar: it starts at its configured value
    and stays at least _PARAM_FLOOR. `w_head` always comes first.
    """
    dp = cfg.detector_params
    blocks = (
        (tcfg.fit_head, "w_head", cfg.w_head, cfg.channels),
        (tcfg.fit_fuse, "w_fuse", cfg.w_fuse, 4 * cfg.channels),
        (tcfg.fit_alpha, "alpha_det", np.array([dp.alpha_det]), 0),
        (tcfg.fit_beta, "beta", np.array([dp.beta]), 0),
    )
    return [(name, value, fan_in) for enabled, name, value, fan_in in blocks if enabled]


def pack_params(cfg: PipelineConfig, tcfg: TrainConfig) -> np.ndarray:
    """Flatten the enabled parameter subset into one vector."""
    parts = [value.ravel() for _, value, _ in _layout(cfg, tcfg)]
    return np.concatenate(parts) if parts else np.empty(0)


def unpack_params(vec: np.ndarray, cfg: PipelineConfig, tcfg: TrainConfig) -> PipelineConfig:
    """Rebuild a config with the vector's values on the enabled subset."""
    weights, scalars = {}, {}
    i = 0
    for name, value, fan_in in _layout(cfg, tcfg):
        part = vec[i : i + value.size]
        i += value.size
        if fan_in:
            weights[name] = part.reshape(value.shape)
        else:
            scalars[name] = max(float(part[0]), _PARAM_FLOOR)
    if i != vec.size:
        raise ValueError(f"parameter vector length {vec.size}, consumed {i}")
    return replace(cfg, detector_params=replace(cfg.detector_params, **scalars), **weights)


class SceneLoss:
    """Loss evaluator for one scene with parameter-independent work cached.

    Cached pieces: both encoders and the first iteration's matches (the
    matching inputs cannot depend on any trainable parameter there).
    """

    def __init__(self, scene: Scene, cfg: PipelineConfig, tcfg: TrainConfig):
        self.cfg = cfg
        self.tcfg = tcfg
        self.d_lr = scene.d_lr
        self.d_gt = scene.d_gt
        self.f_r = encode_rgb(scene.rgb, cfg.scale, cfg.channels)
        self.f_d0 = encode_depth(scene.d_lr, cfg.channels)
        self.first_matches = order_matches(self.f_r, self.f_d0, cfg)
        # Leading head coordinates, for stage-aware probing (see _layout).
        self.n_head = cfg.w_head.size if tcfg.fit_head else 0

    def fused_features(self, cfg: PipelineConfig) -> FeatureMap:
        """Run the MOMA iterations under a probe config."""
        f_d = aggregate(self.f_d0, self.first_matches, cfg)
        for _ in range(cfg.moma_iters - 1):
            f_d = moma_step(f_d, self.f_r, cfg)
        return f_d

    def head_report(self, f_d: FeatureMap, cfg: PipelineConfig) -> LossReport:
        """Reconstruct from fused features and evaluate the loss."""
        return loss_total(self.d_gt, reconstruct(f_d, self.d_lr, cfg), cfg.alpha_loss)

    def report(self, vec: np.ndarray) -> LossReport:
        cfg = unpack_params(vec, self.cfg, self.tcfg)
        return self.head_report(self.fused_features(cfg), cfg)

    def gradient(self, vec: np.ndarray, step: int) -> np.ndarray:
        """Central-difference gradient, staged per parameter block.

        Head coordinates do not influence the fused features, so their
        probes reuse the base point's features; all other coordinates run
        the matching iterations. Values equal plain central differences.
        """
        eps = self.tcfg.fd_epsilon
        grad = np.empty_like(vec)
        base_cfg = unpack_params(vec, self.cfg, self.tcfg)
        base_features = self.fused_features(base_cfg)

        def head_value(probe: np.ndarray) -> float:
            cfg = unpack_params(probe, self.cfg, self.tcfg)
            return self._check(self.head_report(base_features, cfg).l_total, step)

        def full_value(probe: np.ndarray) -> float:
            return self._check(self.report(probe).l_total, step)

        for i in range(vec.size):
            value = head_value if i < self.n_head else full_value
            probe = vec.copy()
            probe[i] = vec[i] + eps
            hi = value(probe)
            probe[i] = vec[i] - eps
            lo = value(probe)
            grad[i] = (hi - lo) / (2.0 * eps)
        return grad

    def _check(self, value: float, step: int) -> float:
        if not np.isfinite(value):
            raise DivergenceError(step)
        return value


def numeric_grad(
    params: np.ndarray, scene: Scene, cfg: PipelineConfig, tcfg: TrainConfig
) -> np.ndarray:
    """Central-difference gradient of the total loss at `params`."""
    loss = SceneLoss(scene, cfg, tcfg)
    return _guarded(0, loss.gradient, np.asarray(params, dtype=np.float64), 0)


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

    When `tcfg.log_path` is set, writes a step,l_rec,l_grad,l_hes,l_total
    CSV covering the whole trajectory. Aborts with DivergenceError
    (carrying the step index) if the loss goes non-finite.
    """
    loss = SceneLoss(scene, cfg, tcfg)
    params = _initial_params(cfg, tcfg)
    history = [_evaluate(loss, params, 0)]
    if params.size == 0:
        _write_log(tcfg, history)
        return FitResult(cfg, history)
    current = history[0].l_total
    best_params = params.copy()
    best_loss = current

    for step in range(1, tcfg.steps + 1):
        grad = _guarded(step, loss.gradient, params, step)
        scale = np.abs(grad).max()
        if scale == 0.0:
            history.append(_evaluate(loss, params, step))
            continue
        direction = grad / scale
        # Fresh line search from the base step: halve until the move
        # improves, then take the last candidate regardless (best-so-far
        # tracking protects the result).
        trial = tcfg.lr
        candidate = params - trial * direction
        report = _evaluate(loss, candidate, step)
        while report.l_total >= current and trial > tcfg.lr * 2.0**-_MAX_HALVINGS:
            trial *= 0.5
            candidate = params - trial * direction
            report = _evaluate(loss, candidate, step)
        params = candidate
        history.append(report)
        current = report.l_total
        if current < best_loss:
            best_loss = current
            best_params = params.copy()

    _write_log(tcfg, history)
    return FitResult(unpack_params(best_params, cfg, tcfg), history)


def _guarded(step: int, fn, *args):
    """fn(*args) with float overflow and invalid operations raising; any
    non-finite value becomes a DivergenceError carrying `step`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return fn(*args)
    except (NonFiniteError, FloatingPointError) as exc:
        raise DivergenceError(step, f"non-finite loss at step {step}: {exc}") from exc


def _evaluate(loss: SceneLoss, params: np.ndarray, step: int) -> LossReport:
    report = _guarded(step, loss.report, params)
    if not np.isfinite(report.l_total):
        raise DivergenceError(step)
    return report


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
