"""Int4 blockwise quantization: bounds, fixpoints, packing, model behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eyedx import NumericError
from eyedx.model import Model, ModelConfig, init_params, matmul_weight_names
from eyedx.quant import QuantizedModel, QuantTensor, codes_of, dequantize, quantize, quantize_model

RNG = np.random.default_rng(11)


def test_all_zero_tensor():
    # -0.0, and values whose absmax / 7 rounds to a float32 0, code to 0 too
    for fill in (0.0, -0.0, 4e-45):
        q = quantize(np.full((8, 16), fill, dtype=np.float32))
        assert np.all(codes_of(q) == 0)
        assert np.all(q.scales == 0.0)
        assert np.array_equal(dequantize(q), np.zeros((8, 16), dtype=np.float32))


def test_constant_block_recovers_exactly():
    w = np.full(64, 3.5, dtype=np.float32)
    q = quantize(w)
    assert np.all(codes_of(q) == 7)
    assert np.isclose(q.scales[0], 3.5 / 7)
    assert np.allclose(dequantize(q), w, rtol=1e-6)


def test_codes_stay_in_symmetric_range():
    w = RNG.standard_normal(4096).astype(np.float32) * 5
    codes = codes_of(quantize(w))
    assert codes.min() >= -7
    assert codes.max() <= 7


def test_error_bound_every_block():
    w = (RNG.standard_normal((40, 96)) * np.exp(RNG.standard_normal((40, 1)))).astype(np.float32)
    q = quantize(w)
    err = np.abs(w.astype(np.float64) - dequantize(q).astype(np.float64))
    bound = q.element_scales().astype(np.float64) * 0.5
    assert np.all(err <= bound * (1 + 1e-6) + 1e-12)


def test_round_to_nearest_even():
    # values landing exactly on half-integers of the scale tie to even codes
    scale = 1.0
    w = np.array([7.0, 0.5, 1.5, 2.5, -0.5, -2.5], dtype=np.float32)
    codes = codes_of(quantize(w))
    assert codes[0] == 7  # absmax pins the scale
    assert list(codes[1:]) == [0, 2, 2, 0, -2]


def test_quantize_dequantize_fixpoint():
    w = RNG.standard_normal(1000).astype(np.float32)
    q1 = quantize(w)
    q2 = quantize(dequantize(q1))
    assert np.array_equal(codes_of(q1), codes_of(q2))
    assert np.allclose(q1.scales, q2.scales, rtol=1e-6)


def test_block_padding_and_odd_lengths():
    for n in (1, 63, 64, 65, 130):
        w = RNG.standard_normal(n).astype(np.float32)
        q = quantize(w)
        back = dequantize(q)
        assert back.shape == (n,)
        assert q.scales.size == -(-n // 64)


def test_quantize_rejects_bad_input():
    w = np.ones(8, dtype=np.float32)
    w[3] = np.nan
    with pytest.raises(NumericError, match="NaN"):
        quantize(w)


@given(arrays(np.float32, st.integers(1, 200), elements=st.floats(-100, 100, width=32)))
@settings(max_examples=100, deadline=None)
def test_bound_property(w):
    q = quantize(w)
    err = np.abs(w.astype(np.float64) - dequantize(q).astype(np.float64))
    bound = q.element_scales().astype(np.float64) * 0.5
    assert np.all(err <= bound * (1 + 1e-6) + 1e-12)
    assert dequantize(q).shape == w.shape


# ------------------------------------------------------------- model level

CFG = ModelConfig(
    d_model=32, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=48, vocab_size=19, max_seq_len=64
)


def test_quantize_model_targets_projections_only():
    params = init_params(CFG, seed=0)
    tensors = quantize_model(params, CFG)
    targets = set(matmul_weight_names(CFG))
    for name, t in tensors.items():
        if name in targets:
            assert isinstance(t, QuantTensor)
        else:
            assert isinstance(t, np.ndarray)
    assert isinstance(tensors["tok_embed"], np.ndarray)
    assert isinstance(tensors["lm_head"], np.ndarray)


def test_quantized_model_logits_close_and_zero_weights_give_zero_blocks():
    # a model with decisive logits: small projections keep the residual stream
    # near the token embedding, and lm_head reads it back out, so each
    # position's argmax is clearly separated and survives int4 noise
    params = init_params(CFG, seed=1, scale=0.02)
    params["lm_head"] = np.ascontiguousarray(params["tok_embed"].T) * 50.0
    model = Model(CFG, params)
    qmodel = QuantizedModel(CFG, quantize_model(params, CFG))
    tokens = RNG.integers(0, CFG.vocab_size, 64)
    lf = model.forward(tokens)
    lq = qmodel.forward(tokens)
    assert lf.shape == lq.shape
    assert np.isfinite(lq).all()
    agree = (lf.argmax(-1) == lq.argmax(-1)).mean()
    assert agree >= 0.9

    zero = {k: np.zeros_like(v) if k in matmul_weight_names(CFG) else v for k, v in params.items()}
    qz = QuantizedModel(CFG, quantize_model(zero, CFG))
    # with all projections zero the blocks dequantize to zero and residual
    # stream is just the embedding; logits = rmsnorm(embed) @ lm_head
    expected = Model(CFG, zero).forward(tokens)
    assert np.array_equal(qz.forward(tokens), expected)


def test_quantized_weight_bytes_fraction():
    params = init_params(CFG, seed=0)
    qmodel = QuantizedModel(CFG, quantize_model(params, CFG))
    float_bytes = sum(v.nbytes for v in params.values())
    # projections go from 4 bytes/elem to 0.5 + 4/64; the rest stays float
    assert sum(t.nbytes for t in qmodel.tensors.values()) < 0.6 * float_bytes
