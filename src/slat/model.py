"""Dual-encoder transformer for remaining-useful-life regression.

Two parallel encoders process a sensor window: one over time steps (each
token is the sensor vector at one step plus the window's descriptor vector),
one over channels (each token is a channel's full time series plus its own
mean/slope descriptors). Both use banded+global sparse attention with
low-rank Q/K/V factors. Their outputs are concatenated along the token axis
and a learned query token cross-attends to the fused sequence through the
decoder blocks; a linear head maps the final query state to the scalar RUL.

Parameters live in a :class:`Params`, named views into one flat buffer that
the optimizer, the best-epoch snapshot and the checkpoint writer each take as
one array. A training forward (``train=True``) returns a cache consumed by
:func:`backward`, which produces a gradient dict with exactly the same keys.
Per block the cache keeps both layer norms' xhat, the attention cache, two
bool dropout masks and the FFN's GELU output and slope; backward rebuilds the
LN2 output from its xhat. Backward consumes the cache: gradients overwrite
the activations they replace, each stack's block caches are freed as that
stack's backward ends, and a consumed cache is refused. An inference
forward runs the same block loop without dropout and keeps no cache past its
block, so its peak memory is one block's activations.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from scipy.special import ndtr

from . import layers
from .attention import build_mask, mha_backward, mha_forward


# Accepted Python types per annotation; bools are refused even where int is.
_FIELD_TYPES = {"int": numbers.Integral, "int | None": (numbers.Integral, type(None)),
                "float": numbers.Real, "str": str}


@dataclass(frozen=True)
class SlatConfig:
    n_stw: int = 30
    n_channels: int = 9
    d_model: int = 64
    time_blocks: int = 4
    sensor_blocks: int = 4
    decoder_blocks: int = 2
    heads: int = 8
    ffn_mult: int = 4
    rank: int | None = 4        # None = dense (unfactored) projections
    band_width: int = 2
    n_global: int = 2           # global tokens = first n positions
    dropout: float = 0.1
    rul_cap: float = 125.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[f.type]):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
        for name in ("n_stw", "n_channels", "d_model", "time_blocks", "sensor_blocks",
                     "decoder_blocks", "heads", "ffn_mult"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model {self.d_model} must be even (sinusoidal encoding)")
        if self.d_model % self.heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.rank is not None and not 1 <= self.rank <= min(self.d_model, self.d_head):
            raise ValueError(f"rank {self.rank} outside [1, {min(self.d_model, self.d_head)}]")
        if self.band_width < 0 or self.n_global < 0:
            raise ValueError("band_width and n_global must be >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")
        if self.rul_cap <= 0 or not math.isfinite(self.rul_cap):
            raise ValueError(f"rul_cap must be positive and finite, got {self.rul_cap}")

    @property
    def d_head(self) -> int:
        return self.d_model // self.heads

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SlatConfig":
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown model config field(s): {', '.join(unknown)}")
        return cls(**d)


# -- parameter bookkeeping ---------------------------------------------------

def _attn_shapes(prefix: str, cfg: SlatConfig):
    h, d, e, r = cfg.heads, cfg.d_model, cfg.d_head, cfg.rank
    out = []
    for name in ("q", "k", "v"):
        if r is None:
            out.append((f"{prefix}attn.{name}_u", (h, d, e)))
        else:
            out.append((f"{prefix}attn.{name}_u", (h, d, r)))
            out.append((f"{prefix}attn.{name}_v", (h, r, e)))
    out.append((f"{prefix}attn.out_w", (d, d)))
    out.append((f"{prefix}attn.out_b", (d,)))
    return out


def _block_shapes(prefix: str, cfg: SlatConfig):
    d, hid = cfg.d_model, cfg.ffn_mult * cfg.d_model
    return [
        (f"{prefix}ln1.g", (d,)),
        (f"{prefix}ln1.b", (d,)),
        *_attn_shapes(prefix, cfg),
        (f"{prefix}ln2.g", (d,)),
        (f"{prefix}ln2.b", (d,)),
        (f"{prefix}ffn.w1", (d, hid)),
        (f"{prefix}ffn.b1", (hid,)),
        (f"{prefix}ffn.w2", (hid, d)),
        (f"{prefix}ffn.b2", (d,)),
    ]


def _stack_shapes(name: str, n_blocks: int, cfg: SlatConfig):
    shapes = []
    for i in range(n_blocks):
        shapes += _block_shapes(f"{name}.{i}.", cfg)
    return shapes + [(f"{name}.final_ln.g", (cfg.d_model,)),
                     (f"{name}.final_ln.b", (cfg.d_model,))]


def param_shapes(cfg: SlatConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) pairs for every learnable tensor."""
    n, s, d = cfg.n_stw, cfg.n_channels, cfg.d_model
    shapes = [
        ("time_embed.w", (3 * s, d)),
        ("time_embed.b", (d,)),
        ("sensor_embed.w", (n + 2, d)),
        ("sensor_embed.b", (d,)),
        ("sensor_embed.ident", (s, d)),
    ]
    shapes += _stack_shapes("time_enc", cfg.time_blocks, cfg)
    shapes += _stack_shapes("sensor_enc", cfg.sensor_blocks, cfg)
    shapes.append(("decoder.query", (d,)))
    shapes += _stack_shapes("decoder", cfg.decoder_blocks, cfg)
    return shapes + [("head.w", (d, 1)), ("head.b", (1,))]


def param_count(cfg: SlatConfig) -> int:
    """Total number of scalar parameters implied by the config."""
    return sum(int(np.prod(shape)) for _, shape in param_shapes(cfg))


_EMBED_LIKE = ("decoder.query", "sensor_embed.ident")
_ATTN_KEYS = ("q_u", "k_u", "v_u", "out_w", "out_b", "q_v", "k_v", "v_v")


class Params(dict):
    """Named views into one float64 buffer, ``flat``, laid out in sorted-name
    order as a checkpoint stores it; the keys keep ``shapes``' order. Views
    are written in place (``params[name] *= 2`` too): binding a name to
    another array would leave ``flat`` behind, so it raises TypeError."""

    def __init__(self, shapes, flat: np.ndarray):
        views, at = {}, 0
        for name, shape in sorted(shapes):
            views[name] = flat[at:at + math.prod(shape)].reshape(shape)
            at += math.prod(shape)
        super().__init__((name, views[name]) for name, _ in shapes)
        self.flat = flat

    def __setitem__(self, name, value):
        if value is not self.get(name):
            raise TypeError(f"write Params in place, as params[{name!r}][...] = value")


def init_params(cfg: SlatConfig, rng: np.random.Generator) -> Params:
    """Fan-in scaled uniform weights; zero biases; unit layer-norm gains."""
    shapes = param_shapes(cfg)
    params = Params(shapes, np.empty(param_count(cfg)))
    for name, shape in shapes:
        if name.endswith(".g"):
            params[name][...] = 1.0
        elif name.endswith((".b", ".b1", ".b2")):
            params[name][...] = 0.0
        else:
            if name in _EMBED_LIKE:
                fan_in = cfg.d_model
            else:
                fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
            bound = 1.0 / math.sqrt(fan_in)
            params[name][...] = rng.uniform(-bound, bound, size=shape)
    return params


def _attn_weights(params: dict, prefix: str) -> dict:
    return {key: params[f"{prefix}attn.{key}"] for key in _ATTN_KEYS
            if f"{prefix}attn.{key}" in params}


# -- embeddings ---------------------------------------------------------------

def _embed_time(params, cfg: SlatConfig, values, descriptors):
    b, n, s = values.shape
    tiled = np.broadcast_to(descriptors[:, None, :], (b, n, 2 * s))
    x_in = np.concatenate([values, tiled], axis=-1)
    tok, lin_cache = layers.linear(x_in, params["time_embed.w"], params["time_embed.b"])
    tok += layers.sinusoidal_encoding(n, cfg.d_model)
    return tok, lin_cache


def _embed_sensor(params, cfg: SlatConfig, values, descriptors):
    b, n, s = values.shape
    per_chan = np.swapaxes(values, 1, 2)                      # (B, S, n)
    stats = np.stack([descriptors[:, :s], descriptors[:, s:]], axis=-1)  # (B, S, 2)
    x_in = np.concatenate([per_chan, stats], axis=-1)         # (B, S, n + 2)
    tok, lin_cache = layers.linear(x_in, params["sensor_embed.w"], params["sensor_embed.b"])
    tok += params["sensor_embed.ident"]
    return tok, lin_cache


# -- transformer blocks -------------------------------------------------------

def _block_forward(x, mem, params, cfg: SlatConfig, prefix, mask, rng, train):
    """Pre-norm residual block; self-attention when mem is None, else the
    normalized stream cross-attends to mem. The cache is None unless ``train``:
    inference drops the attention cache as soon as mha_forward returns, runs
    dropout at rate 0 (no draws) and GELU in place without its slope, so none
    of the block's activations outlive the block."""
    rate = cfg.dropout if train else 0.0
    h1, ln1c = layers.layer_norm(x, params[f"{prefix}ln1.g"], params[f"{prefix}ln1.b"])
    kv = h1 if mem is None else mem
    attn_out, mhac = mha_forward(h1, kv, _attn_weights(params, prefix), mask)
    mhac = mhac if train else None
    x1, drop1 = layers.dropout(attn_out, rate, rng)
    x1 += x  # dropout's output is fresh (or attn_out itself) and no cache holds it
    h2, ln2c = layers.layer_norm(x1, params[f"{prefix}ln2.g"], params[f"{prefix}ln2.b"])
    f1, _ = layers.linear(h2, params[f"{prefix}ffn.w1"], params[f"{prefix}ffn.b1"])
    g1, slope = layers.gelu(f1) if train else (np.multiply(f1, ndtr(f1), out=f1), None)
    f2, lin2c = layers.linear(g1, params[f"{prefix}ffn.w2"], params[f"{prefix}ffn.b2"])
    x2, drop2 = layers.dropout(f2, rate, rng)
    x2 += x1
    cache = (ln1c, mhac, drop1, ln2c, slope, lin2c, drop2, mem is not None)
    return x2, cache if train else None


def _block_backward(gy, cache, params, p, grads):
    """Returns (gx, gmem); gmem is None for self-attention blocks. The FFN
    gradients overwrite the cached activations they replace."""
    ln1c, mhac, drop1, ln2c, slope, lin2c, drop2, is_cross = cache
    g_f2 = layers.dropout_backward(gy, drop2)
    g_g1, grads[f"{p}ffn.w2"], grads[f"{p}ffn.b2"] = layers.linear_backward(g_f2, lin2c)
    g_f1 = layers.gelu_backward(g_g1, slope)
    h2 = ln2c[0] * ln2c[2]  # the FFN input, rebuilt from xhat as layer_norm made it
    h2 += params[f"{p}ln2.b"]
    g_h2, grads[f"{p}ffn.w1"], grads[f"{p}ffn.b1"] = layers.linear_backward(
        g_f1, (h2.reshape(-1, h2.shape[-1]), params[f"{p}ffn.w1"]))
    g_x1, grads[f"{p}ln2.g"], grads[f"{p}ln2.b"] = layers.layer_norm_backward(g_h2, ln2c)
    g_x1 += gy

    g_attn = layers.dropout_backward(g_x1, drop1)
    g_h1_q, g_kv, attn_grads = mha_backward(g_attn, mhac)
    for key, val in attn_grads.items():
        grads[f"{p}attn.{key}"] = val
    g_mem = g_kv if is_cross else None
    g_h1 = g_h1_q if is_cross else np.add(g_h1_q, g_kv, out=g_h1_q)
    g_x, grads[f"{p}ln1.g"], grads[f"{p}ln1.b"] = layers.layer_norm_backward(g_h1, ln1c)
    return np.add(g_x, g_x1, out=g_x), g_mem


def _stack_forward(x, mem, params, cfg, name, n_blocks, mask, rng, train):
    """n_blocks blocks then a final layer norm; the stack's cache if ``train``."""
    caches = []
    for i in range(n_blocks):
        x, c = _block_forward(x, mem, params, cfg, f"{name}.{i}.", mask, rng, train)
        caches.append(c)
    x, lnc = layers.layer_norm(x, params[f"{name}.final_ln.g"], params[f"{name}.final_ln.b"])
    return x, (caches, lnc) if train else None


def _stack_backward(gy, params, name, cache, grads):
    """Returns (gx, gmem); gmem sums the blocks' memory gradients, None without
    mem. The block caches are freed as the stack's backward ends: freed block
    by block, glibc handed them to the OS mid-step and the next forward
    faulted them in again."""
    blocks, lnc = cache
    gy, grads[f"{name}.final_ln.g"], grads[f"{name}.final_ln.b"] = \
        layers.layer_norm_backward(gy, lnc)
    gmem = None
    for i in reversed(range(len(blocks))):
        gy, gm = _block_backward(gy, blocks[i], params, f"{name}.{i}.", grads)
        if gm is not None:
            gmem = gm if gmem is None else np.add(gmem, gm, out=gmem)
    blocks.clear()
    return gy, gmem


# -- full network -------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def masks_for(cfg: SlatConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(time mask, sensor mask, decoder mask) of a config as read-only bool
    arrays; cached. The decoder's query sees every encoder token."""
    return (build_mask(cfg.n_stw, cfg.band_width, cfg.n_global),
            build_mask(cfg.n_channels, cfg.band_width, cfg.n_global),
            np.broadcast_to(True, (1, cfg.n_stw + cfg.n_channels)))


def forward(params, cfg: SlatConfig, values, descriptors, *, train=False, rng=None):
    """Unclamped predictions (B,) plus the cache for :func:`backward`, which
    is None unless ``train``.

    values: (B, n_stw, S) normalized window tensors; descriptors: (B, 2S).
    """
    values = np.asarray(values, dtype=np.float64)
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if values.ndim != 3 or values.shape[1:] != (cfg.n_stw, cfg.n_channels):
        raise ValueError(
            f"values shape {values.shape} != (B, {cfg.n_stw}, {cfg.n_channels})")
    if descriptors.shape != (values.shape[0], 2 * cfg.n_channels):
        raise ValueError(
            f"descriptors shape {descriptors.shape} != (B, {2 * cfg.n_channels})")
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(descriptors))):
        raise ValueError("non-finite values in model input")
    if train and cfg.dropout > 0.0 and rng is None:
        raise ValueError("training forward with dropout needs an rng")

    time_mask, sensor_mask, dec_mask = masks_for(cfg)
    t_tok, t_emb_cache = _embed_time(params, cfg, values, descriptors)
    s_tok, s_emb_cache = _embed_sensor(params, cfg, values, descriptors)
    t_out, t_enc_cache = _stack_forward(t_tok, None, params, cfg, "time_enc", cfg.time_blocks,
                                        time_mask, rng, train)
    s_out, s_enc_cache = _stack_forward(s_tok, None, params, cfg, "sensor_enc",
                                        cfg.sensor_blocks, sensor_mask, rng, train)
    q = np.broadcast_to(params["decoder.query"], (values.shape[0], 1, cfg.d_model))
    # the decoder attends to both encoders' tokens, time tokens first
    q, dec_cache = _stack_forward(q, np.concatenate([t_out, s_out], axis=-2), params, cfg,
                                  "decoder", cfg.decoder_blocks, dec_mask, rng, train)
    out, head_cache = layers.linear(q, params["head.w"], params["head.b"])
    cache = (t_emb_cache, s_emb_cache, t_enc_cache, s_enc_cache, dec_cache, head_cache)
    return out[:, 0, 0], cache if train else None


def backward(params, cfg: SlatConfig, cache, gpreds) -> dict[str, np.ndarray]:
    """Gradient dict (same keys as params) of a scalar loss given d loss/d preds.

    The inputs are data, not parameters, so their gradients are dropped. The
    cache is consumed (see the module docstring), so it serves one call.
    """
    if cache is None:
        raise ValueError("backward needs the cache of a forward with train=True")
    t_emb_cache, s_emb_cache, t_enc_cache, s_enc_cache, dec_cache, head_cache = cache
    if not all(stack[0] for stack in (t_enc_cache, s_enc_cache, dec_cache)):
        raise ValueError("backward needs a fresh cache; this one was consumed by a backward")
    n = cfg.n_stw
    grads: dict[str, np.ndarray] = {}

    gq = np.asarray(gpreds, dtype=np.float64).reshape(-1, 1, 1)
    gq, grads["head.w"], grads["head.b"] = layers.linear_backward(gq, head_cache)
    gq, g_mem = _stack_backward(gq, params, "decoder", dec_cache, grads)
    grads["decoder.query"] = gq.sum(axis=(0, 1))

    # the sensor encoder's cache is freed before the time encoder's larger
    # gradients exist; its grads join after the time encoder's, the key
    # order clip_gradients sums in
    s_grads: dict[str, np.ndarray] = {}
    g_s_tok, _ = _stack_backward(g_mem[:, n:, :], params, "sensor_enc", s_enc_cache, s_grads)
    g_t_tok, _ = _stack_backward(g_mem[:, :n, :], params, "time_enc", t_enc_cache, grads)
    grads.update(s_grads)
    _, grads["time_embed.w"], grads["time_embed.b"] = \
        layers.linear_backward(g_t_tok, t_emb_cache)
    grads["sensor_embed.ident"] = g_s_tok.reshape(-1, *g_s_tok.shape[-2:]).sum(axis=0)
    _, grads["sensor_embed.w"], grads["sensor_embed.b"] = \
        layers.linear_backward(g_s_tok, s_emb_cache)
    return grads


def stack_samples(windows):
    """(values, descriptors, targets) of a ``windowing.Windows``; values is a ``WindowStack``."""
    return windows.values, windows.descriptors, windows.targets


def predict_rul(params, cfg: SlatConfig, inputs, batch_size: int = 32) -> np.ndarray:
    """Deterministic inference on a (values, descriptors) pair of stacked,
    normalized windows, clamped to [0, rul_cap]. In chunks of 32 windows the
    largest array (about 2 MB) fits one core's L2 cache."""
    values, descriptors = inputs
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(descriptors) != len(values):
        raise ValueError(f"{len(values)} value windows but {len(descriptors)} descriptor rows")
    preds = np.empty(values.shape[0], dtype=np.float64)
    for lo in range(0, values.shape[0], batch_size):
        hi = min(lo + batch_size, values.shape[0])
        p, _ = forward(params, cfg, values[lo:hi], descriptors[lo:hi], train=False)
        preds[lo:hi] = p
    return np.clip(preds, 0.0, cfg.rul_cap)
