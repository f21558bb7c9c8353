"""Computed multiply-adds and bytes moved by the model's contractions.

Only contractions (``einsum`` and ``@``) are counted; elementwise work
(softmax, layer norm, GELU, dropout) is not. Bytes assume float64 operands
each read once and the output written once, so they are a lower bound on
memory traffic. Both are computed from shapes, not measured.
"""

from __future__ import annotations

from functools import lru_cache

F64 = 8


def _c(macs: int, *sizes: int) -> tuple[int, int]:
    return macs, F64 * sum(sizes)


def _total(parts) -> tuple[int, int]:
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


@lru_cache(maxsize=None)
def attention(b: int, lq: int, lkv: int, d: int, h: int, e: int, r: int | None):
    """((macs, bytes) forward, (macs, bytes) backward) of one ``mha_forward``
    over queries (b, lq, d) and keys/values (b, lkv, d); ``r`` None is dense."""
    fwd, bwd = [], []
    for l in (lq, lkv, lkv):  # q, k, v projections
        x, y = b * l * d, b * h * l * e
        if r is None:
            w = h * d * e
            fwd.append(_c(b * l * h * d * e, x, w, y))
            bwd += [_c(b * l * h * d * e, x, y, w), _c(b * l * h * d * e, y, w, x)]
        else:
            hid, u, v = b * h * l * r, h * d * r, h * r * e
            down, up = b * l * h * d * r, b * h * l * r * e
            fwd += [_c(down, x, u, hid), _c(up, hid, v, y)]
            bwd += [_c(up, y, v, hid), _c(up, hid, y, v), _c(down, x, hid, u), _c(down, hid, u, x)]
    s = b * h * lq * lkv * e
    q, kv, a = b * h * lq * e, b * h * lkv * e, b * h * lq * lkv
    o, w_o = b * lq * d, d * d
    fwd += [_c(s, q, kv, a), _c(s, a, kv, q), _c(o * d, o, w_o, o)]
    bwd += [_c(o * d, o, o, w_o), _c(o * d, o, w_o, o),
            _c(s, q, kv, a), _c(s, a, q, kv), _c(s, a, kv, q), _c(s, a, q, kv)]
    return _total(fwd), _total(bwd)


@lru_cache(maxsize=None)
def linear(rows: int, d_in: int, d_out: int):
    """((macs, bytes) forward, (macs, bytes) backward) of ``x @ w + b``."""
    x, w, y = rows * d_in, d_in * d_out, rows * d_out
    macs = rows * d_in * d_out
    return _c(macs, x, w, y), _total([_c(macs, y, w, x), _c(macs, x, y, w)])


def model_counts(cfg, batch: int) -> dict:
    """Per forward and per backward at ``batch``, split into attention, FFN
    and other (embeddings and head)."""
    n, s, d, h = cfg.n_stw, cfg.n_channels, cfg.d_model, cfg.heads
    hid = cfg.ffn_mult * d
    parts = {"attention": [], "ffn": [], "other": []}
    for length, blocks, lkv in ((n, cfg.time_blocks, n), (s, cfg.sensor_blocks, s),
                                (1, cfg.decoder_blocks, n + s)):
        for _ in range(blocks):
            parts["attention"].append(attention(batch, length, lkv, d, h, cfg.d_head, cfg.rank))
            rows = batch * length
            parts["ffn"] += [linear(rows, d, hid), linear(rows, hid, d)]
    parts["other"] += [linear(batch * n, 3 * s, d), linear(batch * s, n + 2, d),
                       linear(batch, d, 1)]
    out = {}
    for name, calls in parts.items():
        fwd = _total([c[0] for c in calls])
        bwd = _total([c[1] for c in calls])
        out[name] = {"forward": {"macs": fwd[0], "bytes": fwd[1]},
                     "backward": {"macs": bwd[0], "bytes": bwd[1]}}
    return {"batch": batch, "computed": True, **out}
