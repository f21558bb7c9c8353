"""Elementary neural-net layers with explicit forward/backward passes.

All functions work on float arrays whose trailing axis is the feature axis;
leading axes (batch, tokens) broadcast through untouched. Forward passes
return ``(output, cache)`` and the matching ``*_backward`` consumes the cache
and the upstream gradient.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x @ w + b for x of shape (..., d_in)."""
    return x @ w + b, (x, w)


def linear_backward(gy: np.ndarray, cache):
    x, w = cache
    gx = gy @ w.T
    gw = x.reshape(-1, x.shape[-1]).T @ gy.reshape(-1, gy.shape[-1])
    gb = gy.reshape(-1, gy.shape[-1]).sum(axis=0)
    return gx, gw, gb


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Normalize over the last axis, then apply elementwise gain and bias."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, gain)


def layer_norm_backward(gy: np.ndarray, cache):
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    ggain = (gy * xhat).reshape(-1, d).sum(axis=0)
    gbias = gy.reshape(-1, d).sum(axis=0)
    gxhat = gy * gain
    # standard layer-norm input gradient
    gx = inv * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, ggain, gbias


def gelu(x: np.ndarray):
    """Exact (erf-based) GELU."""
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    return x * phi, (x, phi)


def gelu_backward(gy: np.ndarray, cache):
    x, phi = cache
    pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return gy * (phi + x * pdf)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x, None
    keep = (rng.random(x.shape) >= rate).astype(x.dtype) / (1.0 - rate)
    return x * keep, keep


def dropout_backward(gy: np.ndarray, keep):
    if keep is None:
        return gy
    return gy * keep


def sinusoidal_encoding(length: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos positional table of shape (length, d_model)."""
    if d_model % 2 != 0:
        raise ValueError("d_model must be even for sinusoidal encoding")
    pos = np.arange(length, dtype=np.float64)[:, None]
    freq = np.exp(-np.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    table = np.empty((length, d_model))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def global_norm(arrays) -> float:
    """Euclidean norm over the concatenation of all arrays."""
    total = 0.0
    for a in arrays:
        total += float(np.sum(np.asarray(a, dtype=np.float64) ** 2))
    return float(np.sqrt(total))
