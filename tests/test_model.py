import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (naive_band_global_grid, numeric_gradient, retained_bytes,
                     softmax_reference, synthetic_windows)
from slat import layers
from slat.attention import masked_softmax
from slat.gradcheck import TINY_CONFIG, check_model_gradients, relative_error
from slat.model import (SlatConfig, _embed_sensor, _embed_time, backward,
                        forward, init_params, masks_for, param_count,
                        param_shapes, predict_rul, stack_samples)

TINY = SlatConfig(n_stw=6, n_channels=3, d_model=8, time_blocks=1,
                  sensor_blocks=1, decoder_blocks=1, heads=2, ffn_mult=2,
                  rank=2, band_width=1, n_global=1, dropout=0.0)


def make_batch(cfg, rng, b=3):
    values = rng.standard_normal((b, cfg.n_stw, cfg.n_channels))
    desc = rng.standard_normal((b, 2 * cfg.n_channels))
    return values, desc


class TestConfig:
    def test_defaults_match_reference_architecture(self):
        cfg = SlatConfig()
        assert (cfg.d_model, cfg.heads) == (64, 8)
        assert (cfg.time_blocks, cfg.sensor_blocks, cfg.decoder_blocks) == (4, 4, 2)
        assert (cfg.band_width, cfg.n_global, cfg.rank) == (2, 2, 4)
        assert cfg.d_head == 8

    @pytest.mark.parametrize("kwargs", [
        {"d_model": 10, "heads": 4},
        {"rank": 0},
        {"rank": 9},
        {"dropout": 1.0},
        {"rul_cap": 0.0},
        {"d_model": 9, "heads": 3, "rank": None},
        {"band_width": -1},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SlatConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = SlatConfig(d_model=32, heads=4, rank=None)
        assert SlatConfig.from_dict(cfg.to_dict()) == cfg

    def test_dense_variant_drops_factorization(self):
        # rank=None stores each head's Q/K/V projection as one dense matrix
        cfg = SlatConfig()
        shapes = dict(param_shapes(replace(cfg, rank=None)))
        assert not [name for name in shapes if name.endswith(("q_v", "k_v", "v_v"))]
        assert shapes["time_enc.0.attn.q_u"] == (cfg.heads, cfg.d_model, cfg.d_head)

    def test_from_dict_names_unknown_fields(self):
        with pytest.raises(ValueError, match="d_modle"):
            SlatConfig.from_dict({**TINY.to_dict(), "d_modle": 8})


class TestParams:
    def test_shapes_cover_every_tensor_once(self):
        shapes = param_shapes(TINY)
        names = [n for n, _ in shapes]
        assert len(names) == len(set(names))
        # 1 block per stack + embeddings + decoder query + final norms + head
        assert "time_embed.w" in names
        assert "decoder.query" in names
        assert "head.w" in names

    def test_lowrank_model_is_smaller_than_dense(self):
        cfg = SlatConfig()
        assert param_count(cfg) < param_count(replace(cfg, rank=None))

    def test_init_matches_declared_shapes(self):
        rng = np.random.default_rng(0)
        params = init_params(TINY, rng)
        for name, shape in param_shapes(TINY):
            assert params[name].shape == shape, name
            assert params[name].dtype == np.float64

    def test_init_is_seed_deterministic(self):
        p1 = init_params(TINY, np.random.default_rng(5))
        p2 = init_params(TINY, np.random.default_rng(5))
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)

    def test_norm_gains_ones_biases_zero(self):
        params = init_params(TINY, np.random.default_rng(1))
        np.testing.assert_array_equal(params["time_enc.0.ln1.g"], 1.0)
        np.testing.assert_array_equal(params["time_enc.0.ln1.b"], 0.0)
        np.testing.assert_array_equal(params["head.b"], 0.0)

    def test_views_share_one_buffer_in_sorted_name_order(self):
        """Keys keep ``param_shapes`` order; each view reads its own slice of
        ``flat``, and the slices follow the sorted names."""
        params = init_params(TINY, np.random.default_rng(2))
        assert list(params) == [name for name, _ in param_shapes(TINY)]
        params.flat[:] = np.arange(params.flat.size)
        np.testing.assert_array_equal(
            np.concatenate([params[k] for k in sorted(params)], axis=None),
            np.arange(param_count(TINY)))

    def test_rebinding_a_name_is_refused(self):
        """A name bound to another array would leave the optimizer and the
        checkpoint writer working on ``flat`` while the forward reads the new
        array; in-place updates keep the view and pass."""
        params = init_params(TINY, np.random.default_rng(3))
        for name in ("head.b", "head.extra"):
            with pytest.raises(TypeError, match=rf"params\['{name}'\]\[\.\.\.\]"):
                params[name] = np.ones(1)
        assert list(params) == [name for name, _ in param_shapes(TINY)]
        np.testing.assert_array_equal(params["head.b"], 0.0)
        head_w = params["head.w"]
        kept = head_w.copy()
        params["head.w"] *= 2.0
        assert params["head.w"] is head_w and np.shares_memory(head_w, params.flat)
        np.testing.assert_array_equal(head_w, 2.0 * kept)


class TestEmbeddings:
    def test_time_tokens_shape_and_position_dependence(self):
        rng = np.random.default_rng(2)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        tok, _ = _embed_time(params, TINY, values, desc)
        assert tok.shape == (3, TINY.n_stw, TINY.d_model)
        # identical rows still embed differently thanks to the position code
        flat = np.repeat(values[:, :1, :], TINY.n_stw, axis=1)
        tok2, _ = _embed_time(params, TINY, flat, desc)
        assert not np.allclose(tok2[0, 0], tok2[0, 1])

    def test_sensor_tokens_shape_and_identity_dependence(self):
        rng = np.random.default_rng(3)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        tok, _ = _embed_sensor(params, TINY, values, desc)
        assert tok.shape == (3, TINY.n_channels, TINY.d_model)
        same = np.repeat(values[:, :, :1], TINY.n_channels, axis=2)
        same_desc = np.concatenate([desc[:, :1]] * TINY.n_channels
                                   + [desc[:, 3:4]] * TINY.n_channels, axis=1)
        tok2, _ = _embed_sensor(params, TINY, same, same_desc)
        assert not np.allclose(tok2[0, 0], tok2[0, 1])


class TestMasks:
    def test_masks_match_config(self):
        t_mask, s_mask, dec_mask = masks_for(TINY)
        assert t_mask.shape == (TINY.n_stw, TINY.n_stw)
        assert s_mask.shape == (TINY.n_channels, TINY.n_channels)
        want = naive_band_global_grid(TINY.n_stw, TINY.band_width, range(TINY.n_global))
        np.testing.assert_array_equal(t_mask, want)
        assert dec_mask.shape == (1, TINY.n_stw + TINY.n_channels) and dec_mask.all()
        assert not any(m.flags.writeable for m in (t_mask, s_mask, dec_mask))

    def test_decoder_softmax_equals_maskless_form(self):
        # the decoder's all-True mask must not change a bit of its softmax
        dec_mask = masks_for(SlatConfig())[2]
        logits = np.random.default_rng(8).normal(0, 4, size=(32, 8, *dec_mask.shape))
        assert np.array_equal(masked_softmax(logits, dec_mask),
                              softmax_reference(logits, None))

    def test_globals_clamped_to_short_sequences(self):
        cfg = SlatConfig(n_stw=6, n_channels=2, d_model=8, heads=2,
                         time_blocks=1, sensor_blocks=1, decoder_blocks=1,
                         n_global=5, rank=2)
        _, s_mask, _ = masks_for(cfg)
        assert s_mask.shape == (2, 2)
        assert int(s_mask.sum()) == 4


class TestForward:
    def test_output_shape_and_finiteness(self):
        rng = np.random.default_rng(4)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng, b=5)
        preds, _ = forward(params, TINY, values, desc)
        assert preds.shape == (5,)
        assert np.all(np.isfinite(preds))

    def test_eval_mode_is_deterministic(self):
        rng = np.random.default_rng(5)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        p1, _ = forward(params, TINY, values, desc)
        p2, _ = forward(params, TINY, values, desc)
        np.testing.assert_array_equal(p1, p2)

    def test_dropout_only_active_in_train_mode(self):
        cfg = SlatConfig(n_stw=6, n_channels=3, d_model=8, time_blocks=1,
                         sensor_blocks=1, decoder_blocks=1, heads=2,
                         ffn_mult=2, rank=2, dropout=0.5)
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng)
        eval_preds, _ = forward(params, cfg, values, desc)
        t1, _ = forward(params, cfg, values, desc, train=True,
                        rng=np.random.default_rng(1))
        t2, _ = forward(params, cfg, values, desc, train=True,
                        rng=np.random.default_rng(2))
        assert not np.allclose(t1, t2)
        assert not np.allclose(t1, eval_preds)

    def test_train_mode_requires_rng_when_dropout_on(self):
        cfg = SlatConfig(n_stw=6, n_channels=3, d_model=8, time_blocks=1,
                         sensor_blocks=1, decoder_blocks=1, heads=2,
                         ffn_mult=2, rank=2, dropout=0.5)
        params = init_params(cfg, np.random.default_rng(0))
        values, desc = make_batch(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError):
            forward(params, cfg, values, desc, train=True)

    def test_input_validation(self):
        rng = np.random.default_rng(7)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        with pytest.raises(ValueError):
            forward(params, TINY, values[:, :4], desc)
        with pytest.raises(ValueError):
            forward(params, TINY, values, desc[:, :3])
        bad = values.copy()
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            forward(params, TINY, bad, desc)

    def test_inference_keeps_no_cache(self):
        rng = np.random.default_rng(13)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        preds, cache = forward(params, TINY, values, desc)
        assert cache is None
        with pytest.raises(ValueError, match="train=True"):
            backward(params, TINY, cache, np.ones_like(preds))

    @pytest.mark.parametrize("b", [1, 7, 70])
    @pytest.mark.parametrize("overrides", [{}, {"rank": None}, {"n_global": 0}],
                             ids=["default", "dense", "no_globals"])
    def test_inference_loop_equals_training_loop(self, overrides, b):
        """Both modes run one block loop; without dropout inference computes
        exactly what training computes, though it keeps no cache and its
        GELU computes no slope."""
        cfg = replace(SlatConfig(dropout=0.0), **overrides)
        rng = np.random.default_rng(16)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng, b=b)
        inference, _ = forward(params, cfg, values, desc)
        training, _ = forward(params, cfg, values, desc, train=True)
        np.testing.assert_array_equal(inference, training)


class TestBackward:
    def test_grads_keyed_like_params_and_finite(self):
        rng = np.random.default_rng(9)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        preds, cache = forward(params, TINY, values, desc, train=True)
        grads = backward(params, TINY, cache, np.ones_like(preds))
        assert set(grads) == set(params)
        for k, g in grads.items():
            assert g.shape == params[k].shape, k
            assert np.all(np.isfinite(g)), k

    @pytest.mark.parametrize("overrides", [
        {"rank": None},
        {"n_global": 0},
    ], ids=["dense", "no_globals"])
    def test_every_backward_branch_matches_finite_differences(self, overrides):
        result = check_model_gradients(replace(TINY_CONFIG, **overrides), seed=0)
        assert result.max_rel_error < 1e-3, result.worst(3)

    def test_gradcheck_refuses_dropout(self):
        with pytest.raises(ValueError, match="dropout needs an rng"):
            check_model_gradients(replace(TINY_CONFIG, dropout=0.1), 0)

    def test_dropout_backward_matches_finite_differences(self):
        # check_model_gradients refuses dropout; here every forward gets a
        # fresh generator with one seed, so every evaluation draws the same masks
        cfg = replace(TINY_CONFIG, dropout=0.5)
        rng = np.random.default_rng(12)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng, b=2)
        targets = rng.normal(size=2)

        def run(seed=7):
            return forward(params, cfg, values, desc, train=True,
                           rng=np.random.default_rng(seed))

        def loss(_):
            return float(np.mean((run()[0] - targets) ** 2))

        preds, cache = run()
        assert not np.array_equal(preds, run(8)[0])  # the masks do matter
        analytic = backward(params, cfg, cache, 2.0 * (preds - targets) / preds.size)
        for name, tensor in params.items():
            err = relative_error(analytic[name], numeric_gradient(loss, tensor))
            assert err < 1e-3, (name, err)

    def test_training_cache_is_lean_at_default_config(self, monkeypatch):
        # what backward can rebuild in one elementwise pass is not kept: 1-byte
        # dropout masks, two FFN tensors per block, no LN2 output (70.9 MB before)
        masks, dropout = [], layers.dropout

        def recording_dropout(x, rate, rng):
            y, cache = dropout(x, rate, rng)
            masks.append(cache[0])
            return y, cache

        monkeypatch.setattr(layers, "dropout", recording_dropout)
        cfg = SlatConfig()
        rng = np.random.default_rng(13)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng, b=32)
        _, cache = forward(params, cfg, values, desc, train=True, rng=rng)
        assert retained_bytes(cache, exclude=params) <= 55e6
        n_blocks = cfg.time_blocks + cfg.sensor_blocks + cfg.decoder_blocks
        assert len(masks) == 2 * n_blocks
        assert all(m.dtype == bool for m in masks)

    def test_backward_peaks_little_above_its_cache(self):
        # gradients overwrite dead activations and each stack's block caches
        # are freed as its backward ends (14.7 MB above the cache before)
        cfg = SlatConfig()
        rng = np.random.default_rng(13)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng, b=32)

        def run():
            return forward(params, cfg, values, desc, train=True, rng=np.random.default_rng(1))

        one_cache = retained_bytes(run()[1], exclude=params)
        tracemalloc.start()
        try:
            preds, cache = run()
            backward(params, cfg, cache, np.ones_like(preds))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - one_cache < 4e6, (peak / 1e6, one_cache / 1e6)

    def test_consumed_cache_is_refused(self):
        rng = np.random.default_rng(19)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        preds, cache = forward(params, TINY, values, desc, train=True)
        backward(params, TINY, cache, np.ones_like(preds))
        with pytest.raises(ValueError, match="consumed"):
            backward(params, TINY, cache, np.ones_like(preds))

    @pytest.mark.parametrize("rank", [2, None], ids=["lowrank", "dense"])
    def test_gradient_key_order_is_pinned(self, rank):
        # clip_gradients sums the norm in this order, so changing it changes
        # the clip scale's last bits and with them every later step
        cfg = replace(TINY, time_blocks=2, rank=rank)
        rng = np.random.default_rng(20)
        params = init_params(cfg, rng)
        values, desc = make_batch(cfg, rng)
        preds, cache = forward(params, cfg, values, desc, train=True)
        grads = backward(params, cfg, cache, np.ones_like(preds))
        attn = ["out_w", "out_b", "q_u", "k_u", "v_u"] + ([] if rank is None
                                                          else ["q_v", "k_v", "v_v"])

        def stack(name, n_blocks):
            keys = [f"{name}.final_ln.g", f"{name}.final_ln.b"]
            for i in reversed(range(n_blocks)):
                p = f"{name}.{i}."
                keys += [p + k for k in ("ffn.w2", "ffn.b2", "ffn.w1", "ffn.b1", "ln2.g", "ln2.b")]
                keys += [f"{p}attn.{k}" for k in attn] + [f"{p}ln1.g", f"{p}ln1.b"]
            return keys

        assert list(grads) == [
            "head.w", "head.b", *stack("decoder", cfg.decoder_blocks), "decoder.query",
            *stack("time_enc", cfg.time_blocks), *stack("sensor_enc", cfg.sensor_blocks),
            "time_embed.w", "time_embed.b",
            "sensor_embed.ident", "sensor_embed.w", "sensor_embed.b"]

    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(10)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng)
        preds, cache = forward(params, TINY, values, desc, train=True)
        grads = backward(params, TINY, cache, np.zeros_like(preds))
        assert all(np.allclose(g, 0.0) for g in grads.values())


class TestPredict:
    def test_predictions_clamped_to_label_range(self):
        rng = np.random.default_rng(11)
        cfg = SlatConfig(**{**TINY.to_dict(), "rul_cap": 5.0})
        params = init_params(cfg, rng)
        # blow up the head weights to force out-of-range raw outputs
        params["head.w"][...] *= 1e4
        params["head.b"][...] += 1e3
        values, desc = make_batch(cfg, rng, b=8)
        preds = predict_rul(params, cfg, (values, desc))
        assert np.all(preds >= 0.0)
        assert np.all(preds <= 5.0)

    def test_batching_matches_single_shot(self):
        rng = np.random.default_rng(12)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng, b=7)
        whole = predict_rul(params, TINY, (values, desc))
        chunked = predict_rul(params, TINY, (values, desc), batch_size=2)
        # batch size may change the BLAS reduction path, so equality is only
        # up to a few ulp; identical batching is covered by the bitwise tests
        np.testing.assert_allclose(chunked, whole, rtol=1e-12, atol=1e-14)

    def test_chunk_size_does_not_change_predictions(self):
        cfg = SlatConfig()
        rng = np.random.default_rng(17)
        params = init_params(cfg, rng)
        params["head.b"][...] += cfg.rul_cap / 2  # keep clear of the clamp
        values, desc = make_batch(cfg, rng, b=70)
        preds = predict_rul(params, cfg, (values, desc), batch_size=7)
        assert np.all((preds > 0.0) & (preds < cfg.rul_cap))
        for batch_size in (32, 70):
            np.testing.assert_array_equal(
                predict_rul(params, cfg, (values, desc), batch_size=batch_size), preds)

    def test_input_validation(self):
        rng = np.random.default_rng(18)
        params = init_params(TINY, rng)
        values, desc = make_batch(TINY, rng, b=5)
        bad = values.copy()
        bad[3, 0, 0] = np.nan  # in the second chunk
        for inputs in [(values[:, :4], desc), (values, desc[:, :3]), (values, desc[:4]),
                       (values, np.concatenate([desc, desc])), (bad, desc)]:
            with pytest.raises(ValueError):
                predict_rul(params, TINY, inputs, batch_size=2)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        rng = np.random.default_rng(19)
        params = init_params(TINY, rng)
        with pytest.raises(ValueError, match="batch_size"):
            predict_rul(params, TINY, make_batch(TINY, rng, b=5), batch_size=batch_size)

    @given(b=st.integers(1, 9), seed=st.integers(0, 10**6), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_are_independent_of_the_batch(self, b, seed, data):
        rng = np.random.default_rng(seed)
        params = init_params(TINY, rng)
        params["head.b"][...] += TINY.rul_cap / 2  # keep clear of the clamp
        values, desc = make_batch(TINY, rng, b=b)
        whole = predict_rul(params, TINY, (values, desc))
        i = data.draw(st.integers(0, b - 1), label="row")
        alone = predict_rul(params, TINY, (values[i:i + 1], desc[i:i + 1]))
        np.testing.assert_allclose(alone, whole[i:i + 1], rtol=1e-12, atol=0)
        perm = np.array(data.draw(st.permutations(range(b)), label="perm"))
        permuted = predict_rul(params, TINY, (values[perm], desc[perm]))
        np.testing.assert_allclose(permuted, whole[perm], rtol=1e-12, atol=0)

    def test_inference_peak_memory_at_batch_256(self):
        cfg = SlatConfig()
        rng = np.random.default_rng(15)
        params = init_params(cfg, rng)
        values = rng.standard_normal((256, cfg.n_stw, cfg.n_channels))
        desc = rng.standard_normal((256, 2 * cfg.n_channels))
        tracemalloc.start()
        try:
            predict_rul(params, cfg, (values, desc))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # chunks of 32, with a block's attention cache dropped as mha_forward
        # returns, peak near 8.4 MB; keeping it to the block's end peaks near
        # 11.8 MB, and keeping every block's cache of a chunk at 34-44 MB
        assert peak < 12e6, f"{peak / 1e6:.1f} MB"

    def test_stack_samples_layout(self):
        rng = np.random.default_rng(14)
        values, desc = make_batch(TINY, rng, b=2)
        samples = synthetic_windows(values, desc, np.arange(2.0), np.full(2, ""))
        sv, sd, st = stack_samples(samples)
        np.testing.assert_array_equal(sv, values)
        np.testing.assert_array_equal(sd, desc)
        np.testing.assert_array_equal(st, [0.0, 1.0])
