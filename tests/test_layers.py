import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracles import (dropout_reference, gelu_backward_reference,
                     gelu_erf_reference, layer_norm_backward_reference,
                     layer_norm_reference)
from slat.layers import (LN_EPS, dropout, dropout_backward, gelu, gelu_backward,
                         layer_norm, layer_norm_backward)

SHAPES = [(7,), (3, 5, 16), (2, 30, 64), (1, 1, 64)]


@pytest.mark.parametrize("shape", SHAPES)
def test_layer_norm_is_bit_identical_to_textbook_form(shape):
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.0, size=shape)
    gain, bias = rng.normal(size=shape[-1]), rng.normal(size=shape[-1])
    gy = rng.normal(size=shape)
    x0 = x.copy()
    y, cache = layer_norm(x, gain, bias)
    assert np.array_equal(y, layer_norm_reference(x, gain, bias, LN_EPS))
    xhat, inv, _ = cache
    got = layer_norm_backward(gy, cache)
    want = layer_norm_backward_reference(gy, xhat, inv, gain)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert np.array_equal(x, x0)


def test_gelu_matches_erf_form():
    x = np.linspace(-8.0, 8.0, 200001)
    y, _ = gelu(x)
    assert np.max(np.abs(y - gelu_erf_reference(x))) <= 1e-15
    wide = np.linspace(-40.0, 40.0, 200001)
    err = np.abs(gelu(wide)[0] - gelu_erf_reference(wide)) / np.maximum(np.abs(wide), 1.0)
    assert np.max(err) <= 1e-15


@pytest.mark.parametrize("shape", SHAPES)
def test_gelu_backward_is_bit_identical_to_textbook_form(shape):
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 2.0, size=shape)
    gy = rng.normal(size=shape)
    x0, gy0 = x.copy(), gy.copy()
    _, slope = gelu(x)
    assert np.array_equal(gelu_backward(gy, slope), gelu_backward_reference(gy, x, ndtr(x)))
    assert np.array_equal(x, x0) and np.array_equal(gy, gy0)


@given(seed=st.integers(0, 2**32 - 1), rate=st.sampled_from([0.1, 0.25, 0.5]))
@settings(max_examples=25)
def test_dropout_is_bit_identical_to_textbook_form(seed, rate):
    x = np.random.default_rng(seed).normal(size=(4, 6, 8))
    r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
    y, cache = dropout(x, rate, r1)
    want_y, want_keep = dropout_reference(x, rate, r2)
    assert np.array_equal(y, want_y)
    # the cache is a 1-byte mask; the backward scales by the reference's keep
    mask, _ = cache
    assert mask.dtype == bool and np.array_equal(mask, want_keep != 0.0)
    gy = np.random.default_rng(seed + 1).normal(size=x.shape)
    assert np.array_equal(dropout_backward(gy, cache), gy * want_keep)
    # same draws in the same order: both generators end in the same state
    assert r1.random() == r2.random()
