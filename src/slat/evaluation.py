"""Evaluation reports, remaining-lifetime-over-time export and baselines.

Per-mode RMSE is computed over every test window of that mode; the headline
number is the unweighted mean across the modes actually present, so a mode
with many windows cannot drown out a rare one. The RTF export replays one
trajectory at stride 1 and emits (t, true, predicted) rows, which is the
plot practitioners actually look at.
"""

from __future__ import annotations

import csv
import warnings
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
    stacked window batches.
    """
    sq_err: dict = {}
    counts: dict = {}
    for traj in trajectories:
        w = build_dataset([traj], n_stw, stride, label_cfg, stats)
        preds = np.asarray(predict_fn(w.values, w.descriptors), dtype=np.float64)
        if preds.shape != w.targets.shape:
            raise ValueError(
                f"predictor returned shape {preds.shape}, wanted {w.targets.shape}")
        key = traj.mode.value
        sq_err.setdefault(key, []).append((preds - w.targets) ** 2)
        counts[key] = counts.get(key, 0) + len(w)
    if not sq_err:
        raise ValueError("no trajectories to evaluate")
    per_mode = {m: float(np.sqrt(np.mean(np.concatenate(errs))))
                for m, errs in sq_err.items()}
    report = EvalReport(per_mode=per_mode, counts=counts)
    if report.missing:
        warnings.warn(f"modes absent from evaluation set: {', '.join(report.missing)}; "
                      "average covers present modes only", stacklevel=2)
    return report


def model_predictor(params: dict, cfg: SlatConfig) -> Callable:
    def predict(values, descriptors):
        return predict_rul(params, cfg, (values, descriptors))
    return predict


@dataclass
class RtfSeries:
    traj_id: str
    mode: str
    t: np.ndarray
    true_rul: np.ndarray
    pred_rul: np.ndarray


def rtf_series(predict_fn: Callable, traj: Trajectory, stats: NormStats,
               n_stw: int, label_cfg: LabelConfig) -> RtfSeries:
    """Stride-1 remaining-lifetime trace over one trajectory."""
    w = build_dataset([traj], n_stw, 1, label_cfg, stats)
    preds = np.asarray(predict_fn(w.values, w.descriptors), dtype=np.float64)
    return RtfSeries(traj_id=traj.traj_id, mode=traj.mode.value,
                     t=np.arange(n_stw - 1, traj.n_steps),
                     true_rul=w.targets, pred_rul=preds)


def write_rtf_csv(path, series: RtfSeries) -> None:
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "true_rul", "pred_rul"])
        for i in range(len(series.t)):
            writer.writerow([int(series.t[i]), repr(float(series.true_rul[i])),
                             repr(float(series.pred_rul[i]))])


@dataclass
class ConstantMeanBaseline:
    """Predicts the training-set mean target for every window."""

    mean_target: float = 0.0
    rul_cap: float = 125.0

    def fit(self, windows: Windows) -> "ConstantMeanBaseline":
        if len(windows) == 0:
            raise ValueError("no samples to fit")
        self.mean_target = float(np.mean(windows.targets))
        return self

    def predict(self, values, descriptors):
        n = np.asarray(values).shape[0]
        return np.full(n, np.clip(self.mean_target, 0.0, self.rul_cap))


@dataclass
class LinearWindowBaseline:
    """Least squares on flattened window values plus descriptors.

    Solves the normal equations directly; a singular system falls back to a
    small ridge penalty and flags that it did.
    """

    rul_cap: float = 125.0
    weights: np.ndarray | None = None
    used_ridge: bool = False

    @staticmethod
    def _features(values, descriptors) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        descriptors = np.asarray(descriptors, dtype=np.float64)
        n = values.shape[0]
        feats = np.concatenate(
            [values.reshape(n, -1), descriptors.reshape(n, -1)], axis=1)
        return np.concatenate([feats, np.ones((n, 1))], axis=1)

    def fit(self, windows: Windows) -> "LinearWindowBaseline":
        if len(windows) == 0:
            raise ValueError("no samples to fit")
        x = self._features(windows.values, windows.descriptors)
        gram = x.T @ x
        rhs = x.T @ windows.targets
        try:
            self.weights = np.linalg.solve(gram, rhs)
            self.used_ridge = False
        except np.linalg.LinAlgError:
            eye = np.eye(gram.shape[0])
            self.weights = np.linalg.solve(gram + RIDGE * eye, rhs)
            self.used_ridge = True
        return self

    def predict(self, values, descriptors):
        if self.weights is None:
            raise RuntimeError("baseline not fitted")
        return np.clip(self._features(values, descriptors) @ self.weights,
                       0.0, self.rul_cap)
