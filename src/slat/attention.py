"""Structured sparse attention with low-rank query/key/value projections.

The attention pattern is a binary mask combining a diagonal band (each token
sees neighbours within ``band_width``) with a set of global tokens that attend
to and are attended by everything. Q/K/V projection weights are factored as
``W = U @ V`` with a small inner rank, which cuts the parameter count of each
projection from ``d_model * d_head`` to ``r * (d_model + d_head)``.

One core serves every entry point: each head's factors are merged into one
weight ``u @ v`` (the LoRA merge; the stored factors are unchanged), so a
projection is one GEMM, and :func:`_attend` computes scores, masked softmax
and context. The reference API and the model's cached :func:`mha_forward` /
:func:`mha_backward` are views over it.

Masked logits are dropped to -inf before the softmax by default, so masked
weights are exact zeros. The alternative ``"hadamard"`` mode, selected by
``SlatConfig.mask_mode``, multiplies the raw logits by the mask instead,
leaving masked entries at logit 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

MASK_MODES = ("neg_inf", "hadamard")


@dataclass(frozen=True)
class SparseMask:
    """Binary band+global attention connectivity over a token sequence."""

    length: int
    band_width: int
    global_tokens: frozenset[int]
    dense: np.ndarray = field(repr=False)

    @property
    def nnz(self) -> int:
        return int(self.dense.sum())

    def to_grid(self) -> str:
        """Render as rows of 0/1 characters for debugging."""
        return "\n".join("".join("1" if v else "0" for v in row) for row in self.dense)


def build_mask(length: int, band_width: int, global_tokens: Iterable[int] = ()) -> SparseMask:
    """Band of half-width ``band_width`` plus symmetric global rows/columns."""
    if length < 1:
        raise ValueError(f"mask length must be >= 1, got {length}")
    if band_width < 0:
        raise ValueError(f"band_width must be >= 0, got {band_width}")
    globals_ = frozenset(int(g) for g in global_tokens)
    for g in globals_:
        if not 0 <= g < length:
            raise ValueError(f"global token {g} out of range [0, {length})")
    idx = np.arange(length)
    dense = np.abs(idx[:, None] - idx[None, :]) <= band_width
    if globals_:
        g = np.fromiter(globals_, dtype=int)
        dense[g, :] = True
        dense[:, g] = True
    dense.flags.writeable = False
    return SparseMask(length=length, band_width=band_width, global_tokens=globals_, dense=dense)


@dataclass(frozen=True)
class LowRankProjection:
    """Projection weight factored as ``u @ v`` with inner rank u.shape[1]."""

    u: np.ndarray  # (d_model, r)
    v: np.ndarray  # (r, d_head)

    def __post_init__(self):
        if self.u.ndim != 2 or self.v.ndim != 2 or self.u.shape[1] != self.v.shape[0]:
            raise ValueError(f"incompatible factor shapes {self.u.shape} x {self.v.shape}")

    @property
    def n_params(self) -> int:
        return self.u.size + self.v.size


def lowrank_project(x: np.ndarray, proj: LowRankProjection) -> np.ndarray:
    """``x @ (u @ v)``: the factors are merged into one weight, as in
    :func:`mha_forward`."""
    if x.shape[-1] != proj.u.shape[0]:
        raise ValueError(f"input feature dim {x.shape[-1]} != projection dim {proj.u.shape[0]}")
    return x @ (proj.u @ proj.v)


@dataclass(frozen=True)
class AttentionOutput:
    values: np.ndarray   # (..., L, d_head)
    weights: np.ndarray  # (..., L, L), row-stochastic, exact zeros off-mask


def masked_softmax(logits: np.ndarray, allowed: np.ndarray | None, mode: str = "neg_inf") -> np.ndarray:
    """Row softmax over the last axis, restricted to ``allowed`` entries.

    ``neg_inf``: disallowed logits are excluded entirely (weight exactly 0).
    ``hadamard``: logits are multiplied by the mask, so disallowed entries
    participate with logit 0.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    # one fresh array, shifted by the max of the surviving entries (masks keep
    # the diagonal, so each row has one), exponentiated and normalized in place
    if allowed is None:
        out = logits - logits.max(axis=-1, keepdims=True)
    else:
        out = np.where(allowed, logits, -np.inf) if mode == "neg_inf" else logits * allowed
        out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def masked_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    mask: SparseMask | None,
    scale: float | None = None,
    mode: str = "neg_inf",
) -> AttentionOutput:
    """Scaled dot-product attention restricted to the mask pattern.

    Accepts arbitrary leading axes: q/k/v are (..., L, d_head).
    """
    if not all(np.all(np.isfinite(a)) for a in (q, k, v)):
        raise ValueError("non-finite values in attention inputs")
    if q.shape != k.shape or k.shape != v.shape:
        raise ValueError(f"q/k/v shapes disagree: {q.shape}, {k.shape}, {v.shape}")
    if mask is not None and mask.length != q.shape[-2]:
        raise ValueError(f"mask length {mask.length} != token count {q.shape[-2]}")
    if scale is None:
        scale = 1.0 / np.sqrt(q.shape[-1])
    values, weights = _attend(q, k, v, None if mask is None else mask.dense, mode, scale)
    return AttentionOutput(values=values, weights=weights)


def _attend(q, k, v, allowed, mode, scale):
    """Scaled scores, masked softmax and context over (..., L, d_head) inputs.
    Returns (context, attention weights)."""
    logits = q @ np.swapaxes(k, -1, -2)
    logits *= scale
    attn = masked_softmax(logits, allowed, mode)
    return attn @ v, attn


# ---------------------------------------------------------------------------
# Cached multi-head attention used by the model. Heads are stacked on axis 0
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


def mha_forward(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: dict,
    mask: SparseMask | None,
    mode: str = "neg_inf",
):
    """Multi-head attention of x_q (B, Lq, d_model) over x_kv (B, Lk, d_model).

    ``weights`` holds q_u/k_u/v_u (and the matching *_v factors when
    low-rank) plus out_w/out_b. Returns (output (B, Lq, d_model), cache).
    """
    b, lq, d = x_q.shape
    h = weights["q_u"].shape[0]
    heads_u, heads_v, wide = _wide_weight(weights)
    hw = wide.shape[1] // 3  # H * d_head
    e = hw // h
    q = (x_q.reshape(-1, d) @ wide[:, :hw]).reshape(b, lq, h, e).transpose(0, 2, 1, 3)
    k, v = (x_kv.reshape(-1, d) @ wide[:, hw:]).reshape(b, -1, 2, h, e).transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(e)
    allowed = None if mask is None else mask.dense
    ctx, attn = _attend(q, k, v, allowed, mode, scale)
    concat = ctx.transpose(0, 2, 1, 3).reshape(b * lq, hw)
    out = concat @ weights["out_w"]
    out += weights["out_b"]
    cache = (x_q, x_kv, heads_u, heads_v, wide, q, k, v, attn, concat, scale, allowed, mode,
             weights)
    return out.reshape(b, lq, -1), cache


def mha_backward(gy: np.ndarray, cache):
    """Returns (gx_q, gx_kv, grads dict keyed like the weights dict)."""
    (x_q, x_kv, heads_u, heads_v, wide, q, k, v, attn, concat, scale, allowed, mode,
     weights) = cache
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
    # exact zeros off-mask, so masked entries add nothing in neg_inf mode.
    row = (g_concat * concat).reshape(b, lq, h, e).sum(axis=-1)
    g_logits -= row.transpose(0, 2, 1)[..., None]
    g_logits *= attn
    if mode == "hadamard" and allowed is not None:
        g_logits *= allowed
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


def multi_head_attention(
    x: np.ndarray,
    heads: Sequence[tuple[LowRankProjection, LowRankProjection, LowRankProjection]],
    w_o: np.ndarray,
    mask: SparseMask | None,
    mode: str = "neg_inf",
) -> np.ndarray:
    """Self-attention over x (L, d_model) with per-head (Q, K, V) projections."""
    d_model = x.shape[-1]
    d_head, rem = divmod(d_model, len(heads))
    if rem != 0:
        raise ValueError(f"d_model {d_model} not divisible by {len(heads)} heads")
    bad = [p.v.shape[1] for trip in heads for p in trip if p.v.shape[1] != d_head]
    if bad:
        raise ValueError(f"head dim {bad[0]} != d_model/heads = {d_head}")
    weights = {f"{which}_{factor}": np.stack([getattr(t[i], factor) for t in heads])
               for i, which in enumerate("qkv") for factor in "uv"}
    weights.update(out_w=w_o, out_b=np.zeros(d_model, dtype=x.dtype))
    out, _ = mha_forward(x[None], x[None], weights, mask, mode)
    return out[0]


def attention_flops(length: int, band_width: int, n_global: int, d_head: int) -> int:
    """Multiply-adds spent on attention scores at allowed positions only.

    Global tokens are taken as the first ``n_global`` positions.
    """
    mask = build_mask(length, band_width, range(n_global))
    return mask.nnz * d_head


def dense_attention_flops(length: int, d_head: int) -> int:
    return length * length * d_head
