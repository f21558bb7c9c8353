"""Mini-batch training with Adam, gradient clipping and best-val tracking.

Everything that consumes randomness (trajectory-level validation split,
epoch shuffles, dropout) draws from one generator seeded by TrainConfig, so
a fixed (dataset, config) pair reproduces the run exactly. Wall-clock
seconds in the history are the only non-reproducible output.
"""

from __future__ import annotations

import csv
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .evaluation import rmse
from .model import SlatConfig, backward, forward, init_params, predict_rul
from .windowing import Windows

# Adam's moment decay rates and the epsilon added outside the square root
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the loss or a gradient stops being finite."""

    def __init__(self, epoch: int, batch: int, detail: str):
        super().__init__(
            f"training diverged at epoch {epoch}, batch {batch}: {detail}")
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    clip_norm: float = 1.0
    val_fraction: float = 0.1
    seed: int = 0
    stop_train_rmse: float | None = None

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not (0 <= self.val_fraction < 1):
            raise ValueError("val_fraction must be in [0, 1)")

    def to_dict(self) -> dict:
        return asdict(self)


def mse_loss(preds: np.ndarray, targets: np.ndarray):
    """Mean squared error and its gradient w.r.t. preds."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch {preds.shape} vs {targets.shape}")
    diff = preds - targets
    loss = float(np.mean(diff * diff))
    grad = (2.0 / diff.size) * diff
    return loss, grad


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def init(cls, params: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(v) for k, v in params.items()},
                   v={k: np.zeros_like(v) for k, v in params.items()})


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm. Each
    scaled gradient is a new array bound to its key, never written in place.
    Returns the pre-clip norm, summed tensor by tensor in key order."""
    norm = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values())))
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for k in grads:
            grads[k] = grads[k] * scale
    return norm


def adam_step(params: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """In-place bias-corrected Adam update; epsilon sits outside the sqrt."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    # two temporaries per tensor; g is never written, since callers may keep it
    for name, g in grads.items():
        m, v = state.m[name], state.v[name]
        tmp = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += tmp
        v *= BETA2
        v += np.multiply(np.multiply(g, g, out=tmp), 1.0 - BETA2, out=tmp)
        # lr * (m / c1) / (sqrt(v / c2) + eps)
        step = np.multiply(np.divide(m, c1, out=tmp), cfg.learning_rate, out=tmp)
        denom = np.divide(v, c2)
        step /= np.add(np.sqrt(denom, out=denom), EPS, out=denom)
        params[name] -= step


def split_by_trajectory(windows: Windows, val_fraction: float,
                        rng: np.random.Generator):
    """Hold out whole trajectories for validation so no window leaks across
    the split. Returns (train_idx, val_idx, val_ids)."""
    ids = sorted(set(windows.traj_ids.tolist()))
    if val_fraction <= 0 or len(ids) < 2:
        return list(range(len(windows))), [], []
    n_val = max(1, round(val_fraction * len(ids)))
    if n_val >= len(ids):
        n_val = len(ids) - 1
    perm = rng.permutation(len(ids))
    val_ids = sorted(ids[i] for i in perm[:n_val])
    held_out = np.isin(windows.traj_ids, val_ids)
    return np.flatnonzero(~held_out).tolist(), np.flatnonzero(held_out).tolist(), val_ids


@dataclass
class HistoryRow:
    epoch: int
    train_loss: float
    val_rmse: float
    seconds: float


@dataclass
class TrainResult:
    best_params: dict
    history: list
    best_epoch: int
    best_val_rmse: float
    val_ids: list = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        return self.history[-1].train_loss if self.history else float("nan")


def _copy_params(params: dict) -> dict:
    return {k: v.copy() for k, v in params.items()}


def train(windows: Windows, model_cfg: SlatConfig,
          train_cfg: TrainConfig | None = None) -> TrainResult:
    """Train on windows; track the best validation checkpoint.

    A trajectory-level fraction of the input is held out for validation, and
    the best epoch is the one with the lowest validation RMSE. With
    val_fraction 0 (or a single source trajectory) every epoch is the best
    so far, so the final parameters are the best ones.
    """
    tcfg = train_cfg or TrainConfig()
    if len(windows) == 0:
        raise ValueError("no training samples")
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=(int(tcfg.seed), 0x7261494E)))

    train_idx, val_idx, val_ids = split_by_trajectory(windows, tcfg.val_fraction, rng)
    train_idx = np.asarray(train_idx)
    val = windows[val_idx] if val_idx else None

    params = init_params(model_cfg, rng)
    state = AdamState.init(params)
    best_params = _copy_params(params)
    best_val = float("inf")
    best_epoch = 0
    history = []
    n = len(train_idx)

    for epoch in range(tcfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        losses = []
        # the loss and gradient checks below catch non-finite values
        with np.errstate(all="ignore"):
            for b, start in enumerate(range(0, n, tcfg.batch_size)):
                batch = windows[train_idx[order[start:start + tcfg.batch_size]]]
                preds, cache = forward(params, model_cfg, batch.values,
                                       batch.descriptors, train=True, rng=rng)
                loss, gpred = mse_loss(preds, batch.targets)
                if not np.isfinite(loss):
                    raise TrainingDiverged(epoch, b, f"loss={loss}")
                grads = backward(params, model_cfg, cache, gpred)
                clip_gradients(grads, tcfg.clip_norm)
                try:
                    adam_step(params, grads, state, tcfg)
                except FloatingPointError as exc:
                    raise TrainingDiverged(epoch, b, str(exc)) from exc
                losses.append(loss)
                del cache, grads  # so no two batches' activations are alive at once

        val_rmse = float("nan") if val is None else rmse(
            predict_rul(params, model_cfg, (val.values, val.descriptors)), val.targets)
        if val is None or val_rmse < best_val:
            best_val, best_epoch, best_params = val_rmse, epoch, _copy_params(params)
        train_loss = float(np.mean(losses))
        history.append(HistoryRow(epoch=epoch, train_loss=train_loss,
                                  val_rmse=val_rmse,
                                  seconds=time.perf_counter() - t0))
        if (tcfg.stop_train_rmse is not None
                and np.sqrt(train_loss) < tcfg.stop_train_rmse):
            break

    return TrainResult(best_params=best_params, history=history,
                       best_epoch=best_epoch, best_val_rmse=best_val,
                       val_ids=val_ids)


def write_history(path, history: Sequence[HistoryRow]) -> None:
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["epoch", "train_loss", "val_rmse", "seconds"])
        for row in history:
            writer.writerow([row.epoch, repr(float(row.train_loss)),
                             repr(float(row.val_rmse)), repr(float(row.seconds))])
