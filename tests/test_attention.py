from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (dense_attention_reference, naive_band_global_grid,
                     numeric_gradient, single_head_weights, softmax_reference)
from slat.attention import build_mask, masked_softmax, mha_backward, mha_forward
from slat.model import SlatConfig, param_shapes

# positions in the mha_forward cache of the per-head q, k, v and the
# attention weights, each (B, H, L, ...)
Q, K, V, ATTN = 5, 6, 7, 8


class TestMask:
    def test_worked_example_grid(self):
        # L=5, band 1, global {0}
        mask = build_mask(5, 1, 1)
        expected = ("11111\n"
                    "11100\n"
                    "01110\n"
                    "00111\n"
                    "00011")
        expected = np.array([[c == "1" for c in row]
                             for row in expected.split("\n")])
        expected[0, :] = True
        expected[:, 0] = True
        np.testing.assert_array_equal(mask, expected)
        assert int(mask.sum()) == 19

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_mask(0, 1, 0)
        with pytest.raises(ValueError):
            build_mask(4, -1, 0)
        with pytest.raises(ValueError):
            build_mask(4, 1, -1)

    def test_dense_array_is_read_only(self):
        mask = build_mask(4, 1, 0)
        assert mask.dtype == bool and mask.shape == (4, 4)
        with pytest.raises(ValueError):
            mask[0, 0] = False

    @given(length=st.integers(1, 40), band=st.integers(0, 12), data=st.data())
    @settings(max_examples=60)
    def test_matches_naive_grid(self, length, band, data):
        # global tokens are a prefix; one longer than the sequence covers all of it
        n_global = data.draw(st.integers(0, length + 2))
        mask = build_mask(length, band, n_global)
        np.testing.assert_array_equal(
            mask, naive_band_global_grid(length, band, range(n_global)))

    @given(length=st.integers(1, 30), band=st.integers(0, 8), data=st.data())
    @settings(max_examples=40)
    def test_symmetric_with_full_diagonal(self, length, band, data):
        mask = build_mask(length, band, data.draw(st.integers(0, length + 2)))
        np.testing.assert_array_equal(mask, mask.T)
        assert np.all(np.diag(mask))

    def test_wide_band_is_fully_dense(self):
        mask = build_mask(6, 5, 0)
        assert int(mask.sum()) == 36


class TestMaskedSoftmax:
    def test_exact_zeros_and_row_sums(self):
        rng = np.random.default_rng(0)
        mask = build_mask(7, 1, 3)
        logits = rng.normal(0, 3, size=(4, 7, 7))
        w = masked_softmax(logits, mask)
        assert np.all(w[:, ~mask] == 0.0)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(w >= 0)

    def test_large_logits_stay_finite(self):
        logits = np.array([[1000.0, -1000.0, 999.0]])
        w = masked_softmax(logits, np.ones((1, 3), dtype=bool))
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-12)

    @given(lead=st.lists(st.integers(1, 3), max_size=2), length=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), masked=st.booleans())
    @settings(max_examples=60)
    def test_bit_identical_to_textbook_form(self, lead, length, seed, masked):
        rng = np.random.default_rng(seed)
        logits = rng.normal(0, 4, size=(*lead, length, length))
        allowed = np.ones((length, length), dtype=bool)
        if masked:
            allowed = rng.random((length, length)) < 0.5
            np.fill_diagonal(allowed, True)
        before = logits.copy()
        got = masked_softmax(logits, allowed)
        assert np.array_equal(got, softmax_reference(logits, allowed))
        assert np.array_equal(logits, before)


def _random_mha_weights(rng, d, h, e, r=None):
    if r is None:
        return {
            "q_u": rng.normal(size=(h, d, e)), "k_u": rng.normal(size=(h, d, e)),
            "v_u": rng.normal(size=(h, d, e)),
            "out_w": rng.normal(size=(h * e, d)), "out_b": rng.normal(size=d),
        }
    w = {}
    for name in ("q", "k", "v"):
        w[f"{name}_u"] = rng.normal(size=(h, d, r))
        w[f"{name}_v"] = rng.normal(size=(h, r, e))
    w["out_w"] = rng.normal(size=(h * e, d))
    w["out_b"] = rng.normal(size=d)
    return w


# self-attention shaped (Lq = Lk, banded mask) and decoder shaped (one query
# over 9 keys, all-True mask as the decoder's); the latter checks that the backward splits the input
# gradient between x_q and x_kv. Ids keep the name "neg_inf" of the masking
# rule (masked logits set to -inf).
MHA_GRAD_CASES = [(rank, lq, lk) for lq, lk in ((5, 5), (1, 9)) for rank in (None, 2)]


class TestMaskedAttention:
    def test_recovers_dense_attention(self):
        # band covering everything and no globals must match the unmasked oracle
        rng = np.random.default_rng(7)
        L, d, e = 6, 5, 4
        x = rng.normal(size=(L, d))
        mats = [rng.normal(size=(d, e)) for _ in range(3)]
        out, cache = mha_forward(x[None], x[None], single_head_weights(mats),
                                 build_mask(L, L - 1, 0))
        want_out, want_w = dense_attention_reference(*(x @ m for m in mats))
        np.testing.assert_allclose(out[0], want_out, atol=1e-9)
        np.testing.assert_allclose(cache[ATTN][0, 0], want_w, atol=1e-9)

    def test_batched_leading_axes(self):
        # each batch row is attended on its own
        rng = np.random.default_rng(8)
        weights = _random_mha_weights(rng, 6, 2, 3, r=2)
        x = rng.normal(size=(4, 5, 6))
        mask = build_mask(5, 1, 0)
        got, _ = mha_forward(x, x, weights, mask)
        single, _ = mha_forward(x[2:3], x[2:3], weights, mask)
        np.testing.assert_allclose(got[2], single[0], atol=1e-12)

    @given(seed=st.integers(0, 10**6), band=st.integers(0, 4))
    @settings(max_examples=25)
    def test_rows_stochastic_under_any_mask(self, seed, band):
        rng = np.random.default_rng(seed)
        weights = _random_mha_weights(rng, 6, 2, 3, r=2)
        x = rng.normal(size=(2, 6, 6))
        mask = build_mask(6, band, 2)
        _, cache = mha_forward(x, x, weights, mask)
        np.testing.assert_allclose(cache[ATTN].sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(cache[ATTN][..., ~mask] == 0.0)


class TestLowRank:
    def test_parameter_economy_at_reference_dims(self):
        # d_model 64, head dim 8: rank-4 factors store 288 per head vs 512 dense
        cfg = SlatConfig()
        low = dict(param_shapes(cfg))
        full = dict(param_shapes(replace(cfg, rank=None)))
        u, v = low["time_enc.0.attn.q_u"], low["time_enc.0.attn.q_v"]
        assert np.prod(u[1:]) + np.prod(v[1:]) == 288
        assert np.prod(full["time_enc.0.attn.q_u"][1:]) == 512

    def test_projection_equals_composed_matrix(self):
        # a low-rank forward is the dense forward whose per-head u is u @ v
        rng = np.random.default_rng(1)
        weights = _random_mha_weights(rng, 10, 2, 5, r=3)
        dense = {k: w for k, w in weights.items() if not k.endswith("_v")}
        for p in "qkv":
            dense[f"{p}_u"] = weights[f"{p}_u"] @ weights[f"{p}_v"]
        x = rng.normal(size=(2, 7, 10))
        mask = build_mask(7, 1, 1)
        got, _ = mha_forward(x, x, weights, mask)
        want, _ = mha_forward(x, x, dense, mask)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rank_bounds_output_rank(self):
        rng = np.random.default_rng(2)
        weights = _random_mha_weights(rng, 12, 1, 8, r=2)
        x = rng.normal(size=(1, 20, 12))
        _, cache = mha_forward(x, x, weights, np.ones((20, 20), dtype=bool))
        for i in (Q, K, V):
            assert np.linalg.matrix_rank(cache[i][0, 0]) <= 2


class TestMultiHead:
    def test_matches_per_head_reference(self):
        # each head attends on its own; the heads' contexts are laid side by
        # side in head order before the output projection
        rng = np.random.default_rng(3)
        d, h, e, r, L = 8, 2, 4, 3, 5
        weights = _random_mha_weights(rng, d, h, e, r)
        mask = build_mask(L, 1, 1)
        x = rng.normal(size=(L, d))
        out, _ = mha_forward(x[None], x[None], weights, mask)
        contexts = []
        for i in range(h):
            q, k, v = (x @ weights[f"{p}_u"][i] @ weights[f"{p}_v"][i] for p in "qkv")
            contexts.append(softmax_reference(q @ k.T / np.sqrt(e), mask) @ v)
        want = np.concatenate(contexts, axis=-1) @ weights["out_w"] + weights["out_b"]
        np.testing.assert_allclose(out[0], want, atol=1e-12)

    @pytest.mark.parametrize("rank, lq, lk", MHA_GRAD_CASES, ids=[
        f"neg_inf-{rank}" + ("" if lq == lk else "-decoder_shaped")
        for rank, lq, lk in MHA_GRAD_CASES])
    def test_gradients_match_numeric(self, rank, lq, lk):
        rng = np.random.default_rng(5)
        b, d, h, e = 2, 6, 2, 3
        weights = _random_mha_weights(rng, d, h, e, rank)
        x_q = rng.normal(size=(b, lq, d))
        x_kv = rng.normal(size=(b, lk, d))
        mask = build_mask(lq, 1, 1) if lq == lk else np.ones((lq, lk), dtype=bool)
        direction = rng.normal(size=(b, lq, d))

        out, cache = mha_forward(x_q, x_kv, weights, mask)
        gx_q, gx_kv, grads = mha_backward(direction, cache)

        def loss_for(name):
            def f(w):
                trial = dict(weights)
                trial[name] = w
                y, _ = mha_forward(x_q, x_kv, trial, mask)
                return float(np.sum(y * direction))
            return f

        for name in grads:
            num = numeric_gradient(loss_for(name), weights[name].copy())
            np.testing.assert_allclose(grads[name], num, atol=1e-6,
                                       err_msg=name)

        num_xq = numeric_gradient(
            lambda xx: float(np.sum(mha_forward(xx, x_kv, weights, mask)[0]
                                    * direction)), x_q.copy())
        np.testing.assert_allclose(gx_q, num_xq, atol=1e-6)
        num_xkv = numeric_gradient(
            lambda xx: float(np.sum(mha_forward(x_q, xx, weights, mask)[0]
                                    * direction)), x_kv.copy())
        np.testing.assert_allclose(gx_kv, num_xkv, atol=1e-6)

    def test_cross_attention_lengths_differ(self):
        rng = np.random.default_rng(6)
        weights = _random_mha_weights(rng, 6, 2, 3, r=2)
        x_q = rng.normal(size=(1, 1, 6))
        x_kv = rng.normal(size=(1, 9, 6))
        out, _ = mha_forward(x_q, x_kv, weights, np.ones((1, 9), dtype=bool))
        assert out.shape == (1, 1, 6)

