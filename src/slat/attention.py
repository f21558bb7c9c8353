"""Structured sparse attention with low-rank query/key/value projections.

The attention pattern is a binary mask combining a diagonal band (each token
sees neighbours within ``band_width``) with a set of global tokens that attend
to and are attended by everything. Q/K/V projection weights are factored as
``W = U @ V`` with a small inner rank, which cuts the parameter count of each
projection from ``d_model * d_head`` to ``r * (d_model + d_head)``.

One core serves every entry point: :func:`_project` (``(x @ u) @ v``) and
:func:`_attend` (scores, masked softmax, context). The reference API and the
model's cached :func:`mha_forward` / :func:`mha_backward` are views over it.

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
    def rank(self) -> int:
        return self.u.shape[1]

    @property
    def n_params(self) -> int:
        return self.u.size + self.v.size


def _project(x, u, v):
    """``(x @ u) @ v``, or ``x @ u`` when ``v`` is None (dense weight).
    Returns (output, x @ u kept for the backward pass, or None when dense)."""
    hid = x @ u
    if v is None:
        return hid, None
    return hid @ v, hid


def lowrank_project(x: np.ndarray, proj: LowRankProjection) -> np.ndarray:
    """``x @ u @ v`` evaluated as ``(x @ u) @ v`` so cost stays linear in rank."""
    if x.shape[-1] != proj.u.shape[0]:
        raise ValueError(f"input feature dim {x.shape[-1]} != projection dim {proj.u.shape[0]}")
    return _project(x, proj.u, proj.v)[0]


@dataclass(frozen=True)
class AttentionOutput:
    values: np.ndarray   # (..., L, d_head)
    weights: np.ndarray  # (..., L, L), row-stochastic, exact zeros off-mask


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ValueError(f"non-finite values in {name}")


def masked_softmax(logits: np.ndarray, allowed: np.ndarray | None, mode: str = "neg_inf") -> np.ndarray:
    """Row softmax over the last axis, restricted to ``allowed`` entries.

    ``neg_inf``: disallowed logits are excluded entirely (weight exactly 0).
    ``hadamard``: logits are multiplied by the mask, so disallowed entries
    participate with logit 0.
    """
    if mode not in MASK_MODES:
        raise ValueError(f"unknown mask mode {mode!r}")
    if allowed is not None:
        if mode == "neg_inf":
            logits = np.where(allowed, logits, -np.inf)
        else:
            logits = logits * allowed
    # max-subtraction over the surviving entries only; every row has at least
    # one finite logit because masks keep the diagonal
    shift = logits.max(axis=-1, keepdims=True)
    expl = np.exp(logits - shift)
    return expl / expl.sum(axis=-1, keepdims=True)


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
    _check_finite("attention inputs", q, k, v)
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
    logits = (q @ np.swapaxes(k, -1, -2)) * scale
    attn = masked_softmax(logits, allowed, mode)
    return attn @ v, attn


# ---------------------------------------------------------------------------
# Cached multi-head attention used by the model. Heads are stacked on axis 0
# of the factor arrays: u (H, d_in, r), v (H, r, d_head). Dense (unfactored)
# projections use a single stacked weight (H, d_in, d_head) instead. Inputs
# (B, L, d_in) gain a head axis, x[:, None], so ``@`` broadcasts over heads.
# ---------------------------------------------------------------------------


def _project_backward(g, x, u, v, hid):
    """Gradients of :func:`_project` of x[:, None] (x is (B, L, d)) given
    g = d loss/d output (B, H, L, d_head). Returns (gx, gu, gv); gv is None
    when dense."""
    gv = None
    if v is not None:
        gv = (np.swapaxes(hid, -1, -2) @ g).sum(axis=0)
        g = g @ np.swapaxes(v, -1, -2)
    gu = (np.swapaxes(x, -1, -2)[:, None] @ g).sum(axis=0)
    gx = (g @ np.swapaxes(u, -1, -2)).sum(axis=1)
    return gx, gu, gv


def mha_forward(
    x_q: np.ndarray,
    x_kv: np.ndarray,
    weights: dict,
    mask: SparseMask | None,
    mode: str = "neg_inf",
):
    """Multi-head attention of x_q over x_kv (both (B, L, d_model)).

    ``weights`` holds q_u/k_u/v_u (and the matching *_v factors when
    low-rank) plus out_w/out_b. Returns (output (B, Lq, d_model), cache).
    """
    q, q_hid = _project(x_q[:, None], weights["q_u"], weights.get("q_v"))
    k, k_hid = _project(x_kv[:, None], weights["k_u"], weights.get("k_v"))
    v, v_hid = _project(x_kv[:, None], weights["v_u"], weights.get("v_v"))
    scale = 1.0 / np.sqrt(q.shape[-1])
    allowed = None if mask is None else mask.dense
    ctx, attn = _attend(q, k, v, allowed, mode, scale)
    b, h, lq, e = ctx.shape
    concat = ctx.transpose(0, 2, 1, 3).reshape(b, lq, h * e)
    out = concat @ weights["out_w"] + weights["out_b"]
    cache = (x_q, x_kv, q, k, v, q_hid, k_hid, v_hid, attn, concat, scale, allowed, mode, weights)
    return out, cache


def mha_backward(gy: np.ndarray, cache):
    """Returns (gx_q, gx_kv, grads dict keyed like the weights dict)."""
    x_q, x_kv, q, k, v, q_hid, k_hid, v_hid, attn, concat, scale, allowed, mode, weights = cache
    b, lq, d = gy.shape
    h = attn.shape[1]
    e = q.shape[-1]

    g_out_w = concat.reshape(-1, h * e).T @ gy.reshape(-1, d)
    g_out_b = gy.reshape(-1, d).sum(axis=0)
    g_concat = gy @ weights["out_w"].T
    g_ctx = g_concat.reshape(b, lq, h, e).transpose(0, 2, 1, 3)

    g_attn = g_ctx @ np.swapaxes(v, -1, -2)
    g_v = np.swapaxes(attn, -1, -2) @ g_ctx
    # softmax backward; rows of attn are exact zeros off-mask so the masked
    # entries contribute nothing in neg_inf mode
    g_logits = attn * (g_attn - np.sum(g_attn * attn, axis=-1, keepdims=True))
    if mode == "hadamard" and allowed is not None:
        g_logits = g_logits * allowed
    g_q = (g_logits @ k) * scale
    g_k = (np.swapaxes(g_logits, -1, -2) @ q) * scale

    grads = {"out_w": g_out_w, "out_b": g_out_b}
    gx_q, grads["q_u"], gqv = _project_backward(g_q, x_q, weights["q_u"], weights.get("q_v"), q_hid)
    gx_k, grads["k_u"], gkv = _project_backward(g_k, x_kv, weights["k_u"], weights.get("k_v"), k_hid)
    gx_v, grads["v_u"], gvv = _project_backward(g_v, x_kv, weights["v_u"], weights.get("v_v"), v_hid)
    if gqv is not None:
        grads["q_v"], grads["k_v"], grads["v_v"] = gqv, gkv, gvv
    return gx_q, gx_k + gx_v, grads


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
