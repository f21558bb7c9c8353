"""Elementary neural-net layers with explicit forward/backward passes.

All functions work on float arrays whose trailing axis is the feature axis;
leading axes (batch, tokens) broadcast through untouched. Forward passes
return ``(output, cache)`` and the matching ``*_backward`` consumes the cache
and the upstream gradient. ``linear_backward`` and ``gelu_backward`` write
their input gradient into a cached array of the same shape, so a cache is
good for one backward.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import ndtr

LN_EPS = 1e-5

_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


def linear(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """y = x @ w + b for x of shape (..., d_in), as one 2-D GEMM."""
    x2 = x.reshape(-1, x.shape[-1])
    y = x2 @ w
    y += b
    return y.reshape(*x.shape[:-1], w.shape[1]), (x2, w)


def linear_backward(gy: np.ndarray, cache):
    """(gx, gw, gb); gw is computed first, then gx overwrites the cached input."""
    x2, w = cache
    g2 = gy.reshape(-1, gy.shape[-1])
    gw = x2.T @ g2
    gx = np.matmul(g2, w.T, out=x2).reshape(*gy.shape[:-1], w.shape[0])
    return gx, gw, g2.sum(axis=0)


def layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Layer norm over the last axis into a fresh y; the cache keeps xhat,
    inv and gain. Means are ``sum / d``, the ops of ``ndarray.mean``."""
    d = x.shape[-1]
    xhat = x - x.sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(np.square(xhat).sum(axis=-1, keepdims=True) / d + LN_EPS)
    xhat *= inv
    y = xhat * gain
    y += bias
    return y, (xhat, inv, gain)


def layer_norm_backward(gy: np.ndarray, cache):
    xhat, inv, gain = cache
    d = xhat.shape[-1]
    tmp = gy * xhat
    ggain = tmp.reshape(-1, d).sum(axis=0)
    gbias = gy.reshape(-1, d).sum(axis=0)
    gxhat = gy * gain
    # standard layer-norm input gradient:
    # inv * (gxhat - mean(gxhat) - xhat * mean(gxhat * xhat))
    proj = np.multiply(gxhat, xhat, out=tmp).sum(axis=-1, keepdims=True) / d
    gxhat -= gxhat.sum(axis=-1, keepdims=True) / d
    gxhat -= np.multiply(xhat, proj, out=tmp)
    gxhat *= inv
    return gxhat, ggain, gbias


def gelu(x: np.ndarray):
    """Exact GELU, ``x * Phi(x)`` with Phi the standard normal CDF. The cache
    is the slope ``Phi(x) + x * pdf(x)``, so neither x nor Phi is kept."""
    phi = ndtr(x)
    slope = np.multiply(x, -0.5)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT2PI
    slope *= x
    slope += phi
    return np.multiply(phi, x, out=phi), slope


def gelu_backward(gy: np.ndarray, slope):
    """gy * slope, written into the cached slope."""
    return np.multiply(gy, slope, out=slope)


def dropout(x: np.ndarray, rate: float, rng: np.random.Generator):
    """Inverted dropout; identity when rate == 0. Cached: the bool keep mask
    and 1 / (1 - rate). The map is diagonal, so both passes apply it alike."""
    if rate <= 0.0:
        return x, None
    cache = (rng.random(x.shape) >= rate, 1.0 / (1.0 - rate))
    return dropout_backward(x, cache), cache


def dropout_backward(gy: np.ndarray, cache):
    """gy times scale where kept and 0 where dropped, in a fresh array; gy if no cache."""
    if cache is None:
        return gy
    g = np.where(cache[0], cache[1], 0.0)
    g *= gy
    return g


@functools.lru_cache(maxsize=16)
def sinusoidal_encoding(length: int, d_model: int) -> np.ndarray:
    """Fixed sin/cos positional table of shape (length, d_model), read-only;
    d_model is even (``SlatConfig`` checks it)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    freq = np.exp(-np.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    table = np.empty((length, d_model))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    table.flags.writeable = False
    return table

