"""Evaluation reports, remaining-lifetime-over-time export and baselines.

``evaluate`` is the one scoring path. Per-mode RMSE is computed over every
test window of that mode; the headline number is the unweighted mean across
the modes actually present, so a mode with many windows cannot drown out a
rare one. The report also keeps each trajectory's series: window end steps,
targets and predictions. The RTF export is that series for one trajectory
scored at stride 1, written as (t, true, predicted) rows, which is the plot
practitioners actually look at.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .model import SlatConfig, predict_rul
from .windowing import (FaultMode, LabelConfig, NormStats, Trajectory,
                        Windows, build_dataset)

MODE_ORDER = tuple(m.value for m in FaultMode)
RIDGE = 1e-6  # penalty of the linear baseline's singular-system fallback


def rmse(preds, targets) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch {preds.shape} vs {targets.shape}")
    if preds.size == 0:
        raise ValueError("empty prediction array")
    return float(np.sqrt(np.mean((preds - targets) ** 2)))


@dataclass
class EvalReport:
    per_mode: dict
    counts: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)  # traj id -> (end steps, targets, preds)

    @property
    def average(self) -> float:
        """Unweighted mean of the per-mode RMSEs that are present."""
        if not self.per_mode:
            return float("nan")
        return float(np.mean([self.per_mode[m] for m in self.per_mode]))

    @property
    def missing(self) -> list:
        """The modes without an RMSE, in canonical order."""
        return [m for m in MODE_ORDER if m not in self.per_mode]

    def to_text(self) -> str:
        lines = [f"{'mode':<10}{'rmse':>8}  windows"]
        for m in MODE_ORDER:
            if m in self.per_mode:
                n = self.counts.get(m, "")
                lines.append(f"{m:<10}{self.per_mode[m]:>8.2f}  {n}")
        lines.append(f"{'Average':<10}{self.average:>8.2f}")
        if self.missing:
            lines.append(f"(absent modes excluded: {', '.join(self.missing)})")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "per_mode_rmse": {m: self.per_mode[m] for m in sorted(self.per_mode)},
            "average_rmse": self.average,
            "window_counts": {m: self.counts[m] for m in sorted(self.counts)},
            "missing_modes": list(self.missing),
        }


def evaluate(predict_fn: Callable, trajectories: Sequence[Trajectory],
             stats: NormStats, n_stw: int, stride: int,
             label_cfg: LabelConfig) -> EvalReport:
    """Score a predictor on whole trajectories, grouped by fault mode.

    ``predict_fn(values, descriptors) -> preds`` receives normalized,
    stacked window batches, one call per trajectory.
    """
    sq_err: dict = {}
    series: dict = {}
    for traj in trajectories:
        w = build_dataset([traj], n_stw, stride, label_cfg, stats)
        preds = np.asarray(predict_fn(w.values, w.descriptors), dtype=np.float64)
        if preds.shape != w.targets.shape:
            raise ValueError(
                f"predictor returned shape {preds.shape}, wanted {w.targets.shape}")
        sq_err.setdefault(traj.mode.value, []).append((preds - w.targets) ** 2)
        series[traj.traj_id] = (np.arange(n_stw - 1, traj.n_steps, stride), w.targets, preds)
    if not sq_err:
        raise ValueError("no trajectories to evaluate")
    per_mode = {m: float(np.sqrt(np.mean(np.concatenate(errs))))
                for m, errs in sq_err.items()}
    counts = {m: sum(map(len, errs)) for m, errs in sq_err.items()}
    return EvalReport(per_mode=per_mode, counts=counts, series=series)


def model_predictor(params: dict, cfg: SlatConfig) -> Callable:
    def predict(values, descriptors):
        return predict_rul(params, cfg, (values, descriptors))
    return predict


def write_rtf_csv(path, t, true_rul, pred_rul) -> None:
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "true_rul", "pred_rul"])
        for i in range(len(t)):
            writer.writerow([int(t[i]), repr(float(true_rul[i])), repr(float(pred_rul[i]))])


def constant_baseline(windows: Windows, rul_cap: float) -> Callable:
    """A predictor of the training-set mean target, clamped to [0, rul_cap],
    for every window."""
    if len(windows) == 0:
        raise ValueError("no samples to fit")
    value = np.clip(float(np.mean(windows.targets)), 0.0, rul_cap)

    def predict(values, descriptors):
        return np.full(len(values), value)
    return predict


def _features(values, descriptors) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    descriptors = np.asarray(descriptors, dtype=np.float64)
    n = values.shape[0]
    return np.concatenate([values.reshape(n, -1), descriptors.reshape(n, -1), np.ones((n, 1))],
                          axis=1)


def linear_baseline(windows: Windows, rul_cap: float):
    """Least squares on flattened window values plus descriptors, clamped to
    [0, rul_cap]. Returns (predict, used_ridge).

    Solves the normal equations directly; a singular system falls back to a
    small ridge penalty and ``used_ridge`` says that it did.
    """
    if len(windows) == 0:
        raise ValueError("no samples to fit")
    x = _features(windows.values, windows.descriptors)
    gram = x.T @ x
    rhs = x.T @ windows.targets
    try:
        weights, used_ridge = np.linalg.solve(gram, rhs), False
    except np.linalg.LinAlgError:
        weights, used_ridge = np.linalg.solve(gram + RIDGE * np.eye(gram.shape[0]), rhs), True

    def predict(values, descriptors):
        return np.clip(_features(values, descriptors) @ weights, 0.0, rul_cap)
    return predict, used_ridge
