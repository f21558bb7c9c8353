"""Run-to-failure trajectories and their conversion into training windows.

A trajectory is a (T, S) matrix of raw sensor channels ending at the step
where the device crossed its soft-failure threshold, so its failure index is
always T - 1. Windows of fixed length slide over it; each window is z-scored
with training statistics, enriched with per-channel mean/slope descriptors
(computed on raw values, then z-scored with their own statistics), and
labelled with the capped RUL at the window's last step. One strided view per
trajectory cuts the windows (the k-th starts at step k * stride); it is the
only window enumeration. ``build_dataset`` stacks its windows into
:class:`Windows`, which every consumer reads, and ``fit_norm_stats`` takes
the descriptor statistics over the same views.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class FaultMode(enum.Enum):
    """The four soft-failure scenarios of the two-stage amplifier."""

    PumpLaser = "PL"
    PowerDetector = "PD"
    VOA = "VOA"
    PassiveComponents = "PC"


@dataclass(frozen=True)
class Trajectory:
    """One run-to-failure record; the last step is the failure step."""

    traj_id: str
    mode: FaultMode
    channels: np.ndarray  # (T, S) float64

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.float64)
        object.__setattr__(self, "channels", ch)
        if ch.ndim != 2 or ch.shape[0] < 2 or ch.shape[1] < 1:
            raise ValueError(f"channels must be (T>=2, S>=1), got {ch.shape}")
        if not np.all(np.isfinite(ch)):
            raise ValueError(f"trajectory {self.traj_id} has non-finite values")

    @property
    def n_steps(self) -> int:
        return self.channels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.channels.shape[1]

    @property
    def failure_index(self) -> int:
        return self.n_steps - 1


@dataclass(frozen=True)
class LabelConfig:
    """Piecewise-linear RUL target: min(rul_cap, steps to failure)."""

    rul_cap: float = 125.0

    def __post_init__(self):
        if not (self.rul_cap > 0 and np.isfinite(self.rul_cap)):
            raise ValueError(f"rul_cap must be positive and finite, got {self.rul_cap}")


@dataclass(frozen=True)
class Windows:
    """Stacked windows; row i of every field belongs to window i. Indexing
    applies the same numpy index to every field."""

    values: np.ndarray       # (W, n_stw, S), normalized
    descriptors: np.ndarray  # (W, 2S): per-channel means then slopes, normalized
    targets: np.ndarray      # (W,): capped RUL at each window's last step
    traj_ids: np.ndarray     # (W,): id of each window's trajectory

    def __len__(self) -> int:
        return len(self.targets)

    def __getitem__(self, index) -> "Windows":
        return Windows(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class NormStats:
    """Population z-score statistics; constant features get std 1."""

    channel_mean: np.ndarray     # (S,)
    channel_std: np.ndarray      # (S,)
    descriptor_mean: np.ndarray  # (2S,)
    descriptor_std: np.ndarray   # (2S,)

    def normalize_values(self, x: np.ndarray) -> np.ndarray:
        return (x - self.channel_mean) / self.channel_std

    def normalize_descriptors(self, d: np.ndarray) -> np.ndarray:
        return (d - self.descriptor_mean) / self.descriptor_std

    def to_dict(self) -> dict:
        return {
            "channel_mean": self.channel_mean.tolist(),
            "channel_std": self.channel_std.tolist(),
            "descriptor_mean": self.descriptor_mean.tolist(),
            "descriptor_std": self.descriptor_std.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NormStats":
        return cls(**{k: np.asarray(d[k], dtype=np.float64) for k in
                      ("channel_mean", "channel_std", "descriptor_mean", "descriptor_std")})


def _window_view(traj: Trajectory, n_stw: int, stride: int) -> np.ndarray:
    """Read-only (W, n_stw, S) view of every full window, the k-th starting
    at step k * stride."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if n_stw < 2:
        raise ValueError(f"window length must be >= 2, got {n_stw}")
    if n_stw > traj.n_steps:
        raise ValueError(f"trajectory {traj.traj_id} too short: "
                         f"{traj.n_steps} steps < window length {n_stw}")
    return sliding_window_view(traj.channels, n_stw, axis=0)[::stride].swapaxes(1, 2)


def compute_descriptors(window_values: np.ndarray) -> np.ndarray:
    """Per-channel mean and least-squares slope against the step index, of
    one window (n, S) or of a stack of them (..., n, S).

    Layout of the last axis: [mean_0 .. mean_{S-1}, slope_0 .. slope_{S-1}].
    """
    w = np.asarray(window_values, dtype=np.float64)
    if w.ndim < 2 or w.shape[-2] < 2:
        raise ValueError(f"window must be (..., n>=2, S), got {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("non-finite values in window")
    n = w.shape[-2]
    means = w.mean(axis=-2)
    t_centered = np.arange(n, dtype=np.float64) - (n - 1) / 2.0
    slopes = t_centered @ w / (t_centered @ t_centered)
    return np.concatenate([means, slopes], axis=-1)


def label_rul(traj: Trajectory, cfg: LabelConfig) -> np.ndarray:
    """Capped linear RUL target per step; 0 at the failure step."""
    steps_left = traj.failure_index - np.arange(traj.n_steps, dtype=np.float64)
    return np.minimum(cfg.rul_cap, steps_left)


def fit_norm_stats(train_trajs: Sequence[Trajectory], n_stw: int, stride: int) -> NormStats:
    """Channel stats over all training steps; descriptor stats over the raw
    descriptors of every training window (cut as ``build_dataset`` cuts them).
    Population std; exactly-constant features get std 1."""
    if len(train_trajs) == 0:
        raise ValueError("need at least one training trajectory")
    stacked = np.concatenate([t.channels for t in train_trajs], axis=0)
    descriptors = np.concatenate(
        [compute_descriptors(_window_view(t, n_stw, stride)) for t in train_trajs])

    def _stats(x):
        mean = x.mean(axis=0)
        std = x.std(axis=0)  # population (ddof=0)
        return mean, np.where(std == 0.0, 1.0, std)

    ch_mean, ch_std = _stats(stacked)
    de_mean, de_std = _stats(descriptors)
    return NormStats(ch_mean, ch_std, de_mean, de_std)


def build_dataset(
    trajs: Iterable[Trajectory],
    n_stw: int,
    stride: int,
    cfg: LabelConfig,
    stats: NormStats,
) -> Windows:
    """Normalized, descriptor-enriched windows of every trajectory in order;
    target = RUL at the window's last step."""
    trajs = list(trajs)
    if not trajs:
        raise ValueError("no trajectories to window")
    views = [_window_view(t, n_stw, stride) for t in trajs]
    values = np.concatenate(views)  # the one (W, n_stw, S) array, raw until normalized
    descriptors = stats.normalize_descriptors(compute_descriptors(values))
    values -= stats.channel_mean
    values /= stats.channel_std
    targets = np.concatenate([label_rul(t, cfg)[n_stw - 1::stride] for t in trajs])
    traj_ids = np.repeat([t.traj_id for t in trajs], [len(v) for v in views])
    return Windows(values, descriptors, targets, traj_ids)
