"""Finite-difference verification of the analytic backward pass.

Central differences at fp64 with h = 1e-5 against the hand-written gradients,
element by element over every parameter tensor of a small network. The
relative error uses a 1e-6 magnitude floor so structurally tiny gradients are
compared on an absolute scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .model import SlatConfig, backward, forward, init_params

DEFAULT_H = 1e-5
REL_ERR_FLOOR = 1e-6
BATCH = 2  # windows in the checked loss

TINY_CONFIG = SlatConfig(
    n_stw=6,
    n_channels=3,
    d_model=8,
    time_blocks=1,
    sensor_blocks=1,
    decoder_blocks=1,
    heads=2,
    ffn_mult=2,
    rank=2,
    band_width=1,
    n_global=1,
    dropout=0.0,
)


def numeric_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + DEFAULT_H
        up = f()
        flat[i] = orig - DEFAULT_H
        down = f()
        flat[i] = orig
        gf[i] = (up - down) / (2.0 * DEFAULT_H)
    return g


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), REL_ERR_FLOOR)
    return float(np.max(np.abs(analytic - numeric) / denom))


@dataclass
class GradCheckResult:
    max_rel_error: float
    per_tensor: dict[str, float] = field(default_factory=dict)
    seconds: float = 0.0

    def worst(self, k: int) -> list[tuple[str, float]]:
        return sorted(self.per_tensor.items(), key=lambda kv: -kv[1])[:k]


def check_model_gradients(cfg: SlatConfig, seed: int) -> GradCheckResult:
    """Compare analytic and numeric gradients of a batch MSE loss over every
    parameter tensor of the model. ``cfg`` must have no dropout, which
    ``forward`` refuses without a generator."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    values = rng.normal(size=(BATCH, cfg.n_stw, cfg.n_channels))
    descriptors = rng.normal(size=(BATCH, 2 * cfg.n_channels))
    targets = rng.normal(size=BATCH)

    def loss() -> float:
        preds, _ = forward(params, cfg, values, descriptors)
        return float(np.mean((preds - targets) ** 2))

    preds, cache = forward(params, cfg, values, descriptors, train=True)
    gpreds = 2.0 * (preds - targets) / BATCH
    analytic = backward(params, cfg, cache, gpreds)

    per_tensor: dict[str, float] = {}
    for name, tensor in params.items():
        numeric = numeric_gradient(loss, tensor)
        per_tensor[name] = relative_error(analytic[name], numeric)
    return GradCheckResult(
        max_rel_error=max(per_tensor.values()),
        per_tensor=per_tensor,
        seconds=time.perf_counter() - start,
    )
