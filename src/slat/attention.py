"""Structured sparse attention with low-rank query/key/value projections.

The attention pattern is a read-only boolean mask combining a diagonal band
(each token sees neighbours within ``band_width``) with global tokens, the
first ``n_global`` positions, that attend to and are attended by everything.
Q/K/V projection weights are factored as ``W = U @ V`` with a small inner
rank, which cuts the parameter count of each projection from
``d_model * d_head`` to ``r * (d_model + d_head)``.

:func:`mha_forward` and :func:`mha_backward` are the only entry points. Each
call merges every head's factors into one weight ``u @ v`` (the LoRA merge;
the stored factors are unchanged), so a projection is one GEMM, and
:func:`_attend` computes scores, masked softmax and context.

Masking has one rule, the band+global semantics of Longformer: masked
logits are left out of the softmax, so every masked weight is an exact zero.
:func:`masked_softmax` exponentiates only the allowed logits, gathered through
index arrays cached per mask, and scatters their weights into zeros.
"""

from __future__ import annotations

import functools

import numpy as np


def build_mask(length: int, band_width: int, n_global: int) -> np.ndarray:
    """Read-only (length, length) bool array: a band of half-width
    ``band_width`` plus symmetric global rows/columns for the first
    ``n_global`` positions (all of them if ``n_global >= length``)."""
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    if band_width < 0:
        raise ValueError(f"band_width must be >= 0, got {band_width}")
    if n_global < 0:
        raise ValueError(f"n_global must be >= 0, got {n_global}")
    idx = np.arange(length)
    dense = np.abs(idx[:, None] - idx[None, :]) <= band_width
    dense[:n_global] = True
    dense[:, :n_global] = True
    dense.flags.writeable = False
    return dense


@functools.lru_cache(maxsize=16)
def _mask_index(shape: tuple, raw: bytes):
    """Flat positions of a mask's allowed entries, row starts among them, row of each."""
    counts = np.count_nonzero(np.frombuffer(raw, dtype=bool).reshape(shape), axis=-1)
    if not counts.all():
        raise ValueError(f"mask row {int(np.argmin(counts))} allows no entry")
    return (np.flatnonzero(np.frombuffer(raw, dtype=bool)), np.cumsum(counts) - counts,
            np.repeat(np.arange(len(counts)), counts))


def masked_softmax(logits: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Row softmax of ``logits`` (..., Lq, Lk) over the entries the (Lq, Lk) bool
    mask ``allowed`` marks, bit for bit the textbook form with the others at -inf.
    Only allowed logits (index arrays cached per mask) are shifted by their row
    max, exponentiated, scattered into zeros (each disallowed weight is an exact 0)
    and divided by the full-row sum. A row allowing nothing is a ValueError."""
    flat, starts, rows = _mask_index(allowed.shape, allowed.tobytes())
    if flat.size == allowed.size:
        out = np.exp(logits - logits.max(axis=-1, keepdims=True))
    else:
        kept = np.take(logits.reshape(-1, allowed.size), flat, axis=-1)
        kept -= np.take(np.maximum.reduceat(kept, starts, axis=-1), rows, axis=-1)
        out = np.zeros(logits.shape)
        out.reshape(-1, allowed.size)[:, flat] = np.exp(kept, out=kept)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _attend(q, k, v, allowed, scale):
    """Scaled scores, masked softmax and context over (..., L, d_head) inputs.
    Returns (context, attention weights)."""
    logits = q @ np.swapaxes(k, -1, -2)
    logits *= scale
    attn = masked_softmax(logits, allowed)
    return attn @ v, attn


# ---------------------------------------------------------------------------
# Multi-head attention with a backward cache. Heads are stacked on axis 0
# of the factor arrays: u (H, d_in, r), v (H, r, d_head); a dense projection
# stores u (H, d_in, d_head) alone. Each call merges the factors into one wide
# weight (:func:`_wide_weight`): Q is one GEMM over the query tokens and [K|V]
# one over the key tokens, in both passes, and the GEMM output's token rows
# (B * L, H * d_head) are viewed as heads (B, H, L, d_head).
# ---------------------------------------------------------------------------


def _wide_weight(weights: dict):
    """The q, k and v heads stacked, u (3H, d_in, r) and v (3H, r, d_head)
    (v is None when dense), and each head's weight ``u @ v`` (``u`` when
    dense) laid out as one (d_in, 3 * H * d_head) matrix [W_q | W_k | W_v]."""
    u = np.concatenate([weights[f"{p}_u"] for p in "qkv"])
    v = np.concatenate([weights[f"{p}_v"] for p in "qkv"]) if "q_v" in weights else None
    n, d, _ = u.shape
    wide = np.empty((d, n, (u if v is None else v).shape[2]))
    if v is None:
        np.copyto(wide.transpose(1, 0, 2), u)
    else:  # written straight into the wide layout: no transposed copy
        np.matmul(u, v, out=wide.transpose(1, 0, 2))
    return u, v, wide.reshape(d, -1)


def mha_forward(x_q: np.ndarray, x_kv: np.ndarray, weights: dict, allowed: np.ndarray):
    """Multi-head attention of x_q (B, Lq, d_model) over x_kv (B, Lk, d_model).

    ``weights`` holds q_u/k_u/v_u (and the matching *_v factors when
    low-rank) plus out_w/out_b; ``allowed`` is a (Lq, Lk) bool mask.
    Returns (output (B, Lq, d_model), cache).
    """
    b, lq, d = x_q.shape
    h = weights["q_u"].shape[0]
    heads_u, heads_v, wide = _wide_weight(weights)
    hw = wide.shape[1] // 3  # H * d_head
    e = hw // h
    q = (x_q.reshape(-1, d) @ wide[:, :hw]).reshape(b, lq, h, e).transpose(0, 2, 1, 3)
    k, v = (x_kv.reshape(-1, d) @ wide[:, hw:]).reshape(b, -1, 2, h, e).transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(e)
    ctx, attn = _attend(q, k, v, allowed, scale)
    concat = ctx.transpose(0, 2, 1, 3).reshape(b * lq, hw)
    out = concat @ weights["out_w"]
    out += weights["out_b"]
    # perfbench's tracer reads x_q and x_kv first and weights last
    cache = (x_q, x_kv, heads_u, heads_v, wide, q, k, v, attn, concat, scale, weights)
    return out.reshape(b, lq, -1), cache


def mha_backward(gy: np.ndarray, cache):
    """Returns (gx_q, gx_kv, grads dict keyed like the weights dict)."""
    x_q, x_kv, heads_u, heads_v, wide, q, k, v, attn, concat, scale, weights = cache
    b, lq, d = gy.shape
    _, h, lk, e = k.shape
    hw = h * e
    gy = gy.reshape(-1, d)
    grads = {"out_w": concat.T @ gy, "out_b": gy.sum(axis=0)}
    g_concat = gy @ weights["out_w"].T
    g_ctx = g_concat.reshape(b, lq, h, e).transpose(0, 2, 1, 3)

    # the gradients of q and of [k|v] are written in the token-row layout of
    # their forward GEMM, so each reaches its wide backward without a copy
    g_q = np.empty((b * lq, hw))
    g_kv = np.empty((b * lk, 2 * hw))
    g_k, g_v = g_kv.reshape(b, lk, 2, h, e).transpose(2, 0, 3, 1, 4)
    np.matmul(np.swapaxes(attn, -1, -2), g_ctx, out=g_v)
    g_logits = g_ctx @ np.swapaxes(v, -1, -2)
    # softmax backward attn * (g_attn - rowsum(g_attn * attn)) in place; the
    # row sums equal rowsum(g_ctx * ctx) as ctx = attn @ v. Rows of attn are
    # exact zeros off-mask, so masked entries add nothing.
    row = (g_concat * concat).reshape(b, lq, h, e).sum(axis=-1)
    g_logits -= row.transpose(0, 2, 1)[..., None]
    g_logits *= attn
    np.matmul(g_logits, k, out=g_q.reshape(b, lq, h, e).transpose(0, 2, 1, 3))
    g_q *= scale
    np.matmul(np.swapaxes(g_logits, -1, -2), q, out=g_k)
    g_k *= scale

    # wide projection backward: gx = G W^T and gW = X^T G, then each head's
    # factors, gu = gW_h v_h^T and gv = u_h^T gW_h
    gx_q = (g_q @ wide[:, :hw].T).reshape(x_q.shape)
    gx_kv = (g_kv @ wide[:, hw:].T).reshape(x_kv.shape)
    g_wide = np.empty((d, 3 * hw))
    np.matmul(x_q.reshape(-1, d).T, g_q, out=g_wide[:, :hw])
    np.matmul(x_kv.reshape(-1, d).T, g_kv, out=g_wide[:, hw:])
    g_heads = g_wide.reshape(d, 3 * h, e).transpose(1, 0, 2)
    g_factors = {"u": np.ascontiguousarray(g_heads)} if heads_v is None else {
        "u": g_heads @ np.swapaxes(heads_v, -1, -2), "v": np.swapaxes(heads_u, -1, -2) @ g_heads}
    for factor, g in g_factors.items():
        for i, name in enumerate("qkv"):
            grads[f"{name}_{factor}"] = g[i * h:(i + 1) * h]
    return gx_q, gx_kv, grads

