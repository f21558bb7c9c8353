"""Finite-difference verification of the analytic backward pass.

Central differences at fp64 with h = 1e-5 against the hand-written gradients,
element by element over every parameter tensor of a small network, give one
relative error per tensor. Its 1e-6 magnitude floor compares structurally tiny
gradients on an absolute scale; a correct pass stays below ``MAX_REL_ERROR``.
"""

from __future__ import annotations

import numpy as np

from .model import SlatConfig, backward, forward, init_params
from .training import mse_loss

DEFAULT_H = 1e-5
REL_ERR_FLOOR = 1e-6
MAX_REL_ERROR = 1e-3
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


def check_model_gradients(cfg: SlatConfig, seed: int) -> dict[str, float]:
    """Relative error of the analytic against the numeric gradient of a batch
    MSE loss, per parameter tensor in ``params`` order. ``cfg`` must have no
    dropout, which ``forward`` refuses without a generator."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, rng)
    values = rng.normal(size=(BATCH, cfg.n_stw, cfg.n_channels))
    descriptors = rng.normal(size=(BATCH, 2 * cfg.n_channels))
    targets = rng.normal(size=BATCH)

    def loss() -> float:
        return mse_loss(forward(params, cfg, values, descriptors)[0], targets)[0]

    preds, cache = forward(params, cfg, values, descriptors, train=True)
    analytic = backward(params, cfg, cache, mse_loss(preds, targets)[1])
    return {name: relative_error(analytic[name], numeric_gradient(loss, tensor))
            for name, tensor in params.items()}
