"""Transformer forward/backward: norms, rotary positions, GQA, cache, gradients."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eyedx import DataError, NumericError
from eyedx import model as model_module
from eyedx.lora import attach
from eyedx.model import (
    Model,
    ModelConfig,
    _apply_rope,
    _rmsnorm_bwd,
    _rmsnorm_fwd,
    _rope_tables,
    init_params,
    matmul_weight_names,
    param_shapes,
)
from eyedx.numerics import cross_entropy, softmax, softmax_backward

RNG = np.random.default_rng(7)

TINY = ModelConfig(
    d_model=16,
    n_layers=2,
    n_heads=4,
    n_kv_heads=2,
    d_ff=24,
    vocab_size=13,
    max_seq_len=16,
)


def tiny_model(config=TINY, seed=0, dtype=np.float32, scale=0.5):
    # large init keeps logits well separated, away from argmax ties
    return Model(config, init_params(config, seed=seed, scale=scale, dtype=dtype))


# ------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(DataError, match="divisible"):
        ModelConfig(d_model=10, n_heads=3)
    with pytest.raises(DataError, match="divide"):
        ModelConfig(n_heads=8, n_kv_heads=3)
    with pytest.raises(DataError, match="even"):
        ModelConfig(d_model=12, n_heads=4, n_kv_heads=2)  # head_dim 3
    with pytest.raises(DataError, match="positive"):
        ModelConfig(d_model=0)
    for name in ("rope_base", "rmsnorm_eps"):
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(DataError, match=name):
                ModelConfig(**{name: bad})
    cfg = ModelConfig()
    assert cfg.head_dim == 32
    assert cfg.kv_dim == 64


def test_param_shapes_default_config():
    shapes = param_shapes(ModelConfig())
    assert shapes["layers.0.wq"] == (256, 256)
    assert shapes["layers.0.wk"] == (256, 64)
    assert shapes["layers.3.w_gate"] == (256, 688)
    assert shapes["lm_head"] == (256, 4096)
    assert len(matmul_weight_names(ModelConfig())) == 4 * 7


def test_model_rejects_wrongly_shaped_or_typed_tensors():
    for name, bad in [
        ("layers.0.wq", np.zeros((16, 15), dtype=np.float32)),
        ("layers.1.attn_norm", np.ones((16, 1), dtype=np.float32)),
        ("lm_head", np.zeros((16, 13), dtype=np.int32)),
        ("tok_embed", [[0.0] * 16] * 13),
    ]:
        params = init_params(TINY)
        params[name] = bad
        with pytest.raises(DataError, match=name):
            Model(TINY, params)
    params = init_params(TINY)
    params["layers.0.wq.lora_a"] = np.zeros((16, 2), dtype=np.float32)
    with pytest.raises(DataError, match="unknown"):
        Model(TINY, params)
    params = init_params(TINY)
    del params["final_norm"]
    with pytest.raises(DataError, match="missing"):
        Model(TINY, params)


# ------------------------------------------------------------- rmsnorm


def rmsnorm(x, gain, eps):
    return _rmsnorm_fwd(x, gain, eps)[0]


def test_rmsnorm_all_ones_is_identity():
    x = np.ones(8)
    assert np.allclose(rmsnorm(x, np.ones(8), 0.0), x)


def test_rmsnorm_hand_value():
    y = rmsnorm(np.array([3.0, 4.0]), np.ones(2), 0.0)
    assert np.allclose(y, [3 / math.sqrt(12.5), 4 / math.sqrt(12.5)], atol=1e-4)
    assert np.allclose(y, [0.8485, 1.1314], atol=1e-4)


def test_rmsnorm_scale_invariance():
    x = RNG.standard_normal(32)
    # powers of two scale exactly even in floating point
    assert np.array_equal(rmsnorm(4.0 * x, np.ones(32), 0.0), rmsnorm(x, np.ones(32), 0.0))
    assert np.allclose(rmsnorm(3.7 * x, np.ones(32), 0.0), rmsnorm(x, np.ones(32), 0.0), atol=1e-12)


# ------------------------------------------------------------- rope


def rope_positions(vec, n):
    """vec (head_dim,) rotated to each of positions 0..n-1, as (n, head_dim)."""
    cos, sin = _rope_tables(np.arange(n), vec.shape[-1], 10000.0, vec.dtype)
    return _apply_rope(np.broadcast_to(vec, (n, 1, vec.shape[-1])), cos, sin)[:, 0]


def test_rope_position_zero_is_identity():
    v = RNG.standard_normal(32)
    assert np.allclose(rope_positions(v, 1)[0], v)


def test_rope_preserves_norm():
    v = RNG.standard_normal(32)
    rotated = rope_positions(v, 401)
    for pos in (1, 17, 400):
        assert np.isclose(np.linalg.norm(rotated[pos]), np.linalg.norm(v))


def test_rope_dot_depends_only_on_offset():
    q = rope_positions(RNG.standard_normal(32), 8)
    k = rope_positions(RNG.standard_normal(32), 8)
    assert abs(q[5] @ k[3] - q[7] @ k[5]) < 1e-5


# ------------------------------------------------------------- ffn


def test_ffn_zero_gate_or_up_gives_zero():
    x = RNG.standard_normal((3, TINY.d_model)).astype(np.float32)
    for zeroed in ("w_gate", "w_up"):
        model = tiny_model()
        model.params["layers.0." + zeroed][:] = 0.0
        assert np.allclose(model._ffn(x, 0, None), 0.0)


# ------------------------------------------------------------- forward


def test_forward_shape_and_finite():
    model = tiny_model()
    tokens = RNG.integers(0, TINY.vocab_size, 16)
    logits = model.forward(tokens)
    assert logits.shape == (16, TINY.vocab_size)
    assert np.isfinite(logits).all()


def test_forward_batch_shape():
    model = tiny_model()
    tokens = RNG.integers(0, TINY.vocab_size, (3, 9))
    assert model.forward(tokens).shape == (3, 9, TINY.vocab_size)


def test_forward_deterministic():
    model = tiny_model()
    tokens = RNG.integers(0, TINY.vocab_size, 12)
    assert np.array_equal(model.forward(tokens), model.forward(tokens))


def test_forward_causality():
    model = tiny_model()
    tokens = RNG.integers(0, TINY.vocab_size, 10)
    base = model.forward(tokens)
    perturbed = tokens.copy()
    perturbed[6] = (perturbed[6] + 1) % TINY.vocab_size
    changed = model.forward(perturbed)
    assert np.array_equal(base[:6], changed[:6])
    assert not np.array_equal(base[6:], changed[6:])


def test_forward_rejects_bad_input():
    model = tiny_model()
    with pytest.raises(DataError, match="out of range"):
        model.forward(np.array([0, TINY.vocab_size]))
    with pytest.raises(DataError, match="max_seq_len"):
        model.forward(np.zeros(TINY.max_seq_len + 1, dtype=int))
    with pytest.raises(DataError, match="empty"):
        model.forward(np.zeros(0, dtype=int))


def test_forward_rejects_an_empty_batch_and_a_third_axis():
    model = tiny_model()
    with pytest.raises(DataError, match="empty"):
        model.forward(np.zeros((0, 4), dtype=int))
    with pytest.raises(DataError, match="1D or 2D"):
        model.forward(np.zeros((2, 3, 4), dtype=int))


# ------------------------------------------------------------- kept and read positions

KEPT_TOKENS = np.array([[3, 5, 7, 1], [2, 4, 2, 2]])
KEPT = np.array([[True, True, True, True], [True, True, False, False]])


def kept_logits(model, tokens, cache, kept, read=None):
    """The masked run the prefill and the training step call, its logits as
    (N_read, vocab) rows in row-major order."""
    return model._run(tokens, cache, None, kept, read).reshape(-1, model.config.vocab_size)


def test_kept_forward_returns_the_kept_positions_logits():
    model = tiny_model()
    got = kept_logits(model, KEPT_TOKENS, None, KEPT)
    assert got.shape == (6, TINY.vocab_size)
    full = model.forward(KEPT_TOKENS)
    assert np.max(np.abs(got[:4] - full[0])) <= 1e-6 * np.max(np.abs(full[0]))
    alone = model.forward(KEPT_TOKENS[1, :2])
    assert np.max(np.abs(got[4:] - alone)) <= 1e-6 * np.max(np.abs(alone))


def test_kept_prefill_advances_each_cached_row_by_its_kept_positions():
    model = tiny_model()
    cache = model.new_cache(2)
    kept_logits(model, KEPT_TOKENS, cache, KEPT)
    assert cache.lengths.tolist() == KEPT.sum(axis=1).tolist() == [4, 2]
    # the next token of each row goes to its own next slot
    step = model.forward(np.array([[6], [6]]), cache)
    assert cache.lengths.tolist() == [5, 3]
    full = model.forward(np.array([2, 4, 6]))[-1]
    assert np.max(np.abs(step[1, -1] - full)) <= 1e-5 * np.max(np.abs(full))


def ragged_masks(data, B, T):
    """kept keeping each row's first 1..T positions, and read inside it with
    at least one position."""
    lengths = np.array(data.draw(st.lists(st.integers(1, T), min_size=B, max_size=B)))
    kept = np.arange(T) < lengths[:, None]
    read = kept & np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=T, max_size=T),
                                              min_size=B, max_size=B)), dtype=bool)
    row = data.draw(st.integers(0, B - 1))
    read[row, data.draw(st.integers(0, lengths[row] - 1))] = True
    return kept, read


@settings(max_examples=40, deadline=None)
@given(data=st.data(), cached=st.booleans())
def test_read_forward_equals_the_kept_forward_at_its_positions(data, cached):
    """The last layer's output side over the read rows alone gives the logits
    the kept forward gives at those rows, and fills a cache the same way."""
    model = adapted_gqa_model()
    B, T = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 8))
    kept, read = ragged_masks(data, B, T)
    tokens = np.array(data.draw(st.lists(st.lists(st.integers(0, 12), min_size=T, max_size=T),
                                         min_size=B, max_size=B)))
    caches = [model.new_cache(B) if cached else None for _ in range(2)]
    got = kept_logits(model, tokens, caches[0], kept, read)
    full = kept_logits(model, tokens, caches[1], kept)
    want = full[read[kept]]
    assert got.shape == (read.sum(), model.config.vocab_size)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    if cached:
        for layer in range(model.config.n_layers):
            assert np.array_equal(caches[0].k[layer], caches[1].k[layer])
            assert np.array_equal(caches[0].v[layer], caches[1].v[layer])


def test_single_position_attends_fully_to_itself():
    model = tiny_model()
    tape = []
    model._run(np.array([[3]]), None, tape)
    attn_records = [r for r in tape if r.get("kind") == "attn"]
    for rec in attn_records:
        assert np.all(rec["probs"] == 1.0)


# ------------------------------------------------------------- GQA degeneracies


def reference_attention(model, tokens, kv_of_head):
    """Per-head loop attention over the first layer, an oracle independent of
    the grouped batched-matmul implementation. kv_of_head maps query head ->
    kv head."""
    cfg = model.config
    p = "layers.0."
    hd = cfg.head_dim

    x = model.params["tok_embed"][np.asarray(tokens)[None, :]]
    xn, _ = _rmsnorm_fwd(x, model.params[p + "attn_norm"], cfg.rmsnorm_eps)
    T = xn.shape[1]
    cos, sin = _rope_tables(np.arange(T), hd, cfg.rope_base, xn.dtype)
    q = (xn @ model.params[p + "wq"]).reshape(1, T, cfg.n_heads, hd)
    k = (xn @ model.params[p + "wk"]).reshape(1, T, cfg.n_kv_heads, hd)
    v = (xn @ model.params[p + "wv"]).reshape(1, T, cfg.n_kv_heads, hd)
    q = _apply_rope(q, cos, sin)[0]
    k = _apply_rope(k, cos, sin)[0]
    v = v[0]

    heads = []
    for h in range(cfg.n_heads):
        kv = kv_of_head[h]
        out_h = np.zeros((T, hd), dtype=xn.dtype)
        for t in range(T):
            scores = np.array([q[t, h] @ k[s, kv] / math.sqrt(hd) for s in range(t + 1)])
            w = softmax(scores)
            out_h[t] = sum(w[s] * v[s, kv] for s in range(t + 1))
        heads.append(out_h)
    ctx = np.concatenate(heads, axis=-1)
    return ctx @ model.params[p + "wo"]


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_grouped_attention_matches_per_head_reference(n_kv):
    # n_kv = n_heads is plain multi-head, n_kv = 1 is multi-query
    cfg = ModelConfig(
        d_model=16, n_layers=1, n_heads=4, n_kv_heads=n_kv, d_ff=24, vocab_size=13, max_seq_len=16
    )
    model = tiny_model(cfg, dtype=np.float64)
    tokens = RNG.integers(0, cfg.vocab_size, 7)

    tape = []
    model._run(tokens[None, :], None, tape)
    rec = next(r for r in tape if r.get("kind") == "attn")
    got = model._project(rec["ctx"], "layers.0.wo")[0]

    group = cfg.n_heads // n_kv
    expect = reference_attention(model, tokens, kv_of_head=[h // group for h in range(cfg.n_heads)])
    assert np.max(np.abs(got - expect)) < 1e-6


# ------------------------------------------------------------- repeat/einsum oracle


def oracle_attention(q, k, v, past):
    """The attention core the grouped batched matmuls replaced: kv heads
    copied out to every query head with np.repeat, then einsum. q is
    (B, T, H, hd) and k, v are (B, S, KV, hd), all rotated; the T queries sit
    at positions past .. past + T - 1. Returns ctx (B, T, H*hd) and probs
    (B, H, T, S)."""
    B, T, H, hd = q.shape
    S = k.shape[1]
    group = H // k.shape[2]
    k_exp = np.repeat(k, group, axis=2)  # (B, S, H, hd)
    v_exp = np.repeat(v, group, axis=2)
    scores = np.einsum("bthd,bshd->bhts", q, k_exp) / math.sqrt(hd)
    allowed = np.arange(S)[None, :] <= (past + np.arange(T))[:, None]
    scores = np.where(allowed[None, None], scores, -np.inf)
    probs = softmax(scores)
    ctx = np.einsum("bhts,bshd->bthd", probs, v_exp).reshape(B, T, H * hd)
    return ctx, probs


def oracle_attention_bwd(q, k, v, probs, dctx):
    """Backward of oracle_attention for a full causal segment (past = 0):
    gradients of rotated q, k, v given dctx (B, T, H, hd)."""
    B, T, H, hd = q.shape
    KV = k.shape[2]
    group = H // KV
    k_exp = np.repeat(k, group, axis=2)
    v_exp = np.repeat(v, group, axis=2)
    dprobs = np.einsum("bthd,bshd->bhts", dctx, v_exp)
    dv_exp = np.einsum("bhts,bthd->bshd", probs, dctx)
    dscores = softmax_backward(probs, dprobs) / math.sqrt(hd)
    dq = np.einsum("bhts,bshd->bthd", dscores, k_exp)
    dk_exp = np.einsum("bhts,bthd->bshd", dscores, q)
    # collapse each query-head group back onto its shared kv head
    dk = dk_exp.reshape(B, T, KV, group, hd).sum(axis=3)
    dv = dv_exp.reshape(B, T, KV, group, hd).sum(axis=3)
    return dq, dk, dv


def gqa_model(n_kv):
    cfg = ModelConfig(
        d_model=16, n_layers=1, n_heads=4, n_kv_heads=n_kv, d_ff=24, vocab_size=13, max_seq_len=16
    )
    return tiny_model(cfg, dtype=np.float64)


def first_layer_qkv(model, tokens):
    """Normed input, rotated q, k, v and rope tables of layer 0 for a
    (B, T) token batch starting at position 0."""
    cfg = model.config
    p = "layers.0."
    x = model.params["tok_embed"][tokens]
    xn, inv = _rmsnorm_fwd(x, model.params[p + "attn_norm"], cfg.rmsnorm_eps)
    B, T, _ = xn.shape
    cos, sin = _rope_tables(np.arange(T), cfg.head_dim, cfg.rope_base, xn.dtype)

    def heads(name, n):
        return (xn @ model.params[p + name]).reshape(B, T, n, cfg.head_dim)

    q = _apply_rope(heads("wq", cfg.n_heads), cos, sin)
    k = _apply_rope(heads("wk", cfg.n_kv_heads), cos, sin)
    return x, xn, inv, q, k, heads("wv", cfg.n_kv_heads), cos, sin


def record_calls(model, method):
    """Shadow a projection method on the instance and keep each call's
    arguments, keyed by weight name (the second argument)."""
    calls = {}
    inner = getattr(model, method)

    def wrapper(*args):
        calls.setdefault(args[1], []).append(args)
        return inner(*args)

    setattr(model, method, wrapper)
    return calls


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_taped_attention_and_backward_match_repeat_einsum_oracle(n_kv):
    model = gqa_model(n_kv)
    attach(model, rank=2, alpha=4.0)  # B = 0: the projections stay the base ones
    cfg = model.config
    rng = np.random.default_rng(21)
    tokens = rng.integers(0, cfg.vocab_size, (2, 7))
    tape = []
    model._run(tokens, None, tape, np.ones(tokens.shape, dtype=bool))
    rec = next(r for r in tape if r.get("kind") == "attn")

    # the taped path runs the B*T positions as (1, N) token rows, row-major
    x, xn, inv, q, k, v, cos, sin = first_layer_qkv(model, tokens)
    B, T, _ = x.shape

    def rows(a):
        return a.reshape(1, B * T, -1)

    ctx, probs = oracle_attention(q, k, v, past=0)
    assert np.max(np.abs(rec["ctx"] - rows(ctx))) < 1e-10

    p = "layers.0."
    d_out = rng.standard_normal(x.shape)
    calls = record_calls(model, "_project_bwd")
    dx = model._attention_bwd(rec, rows(d_out), {})

    dctx = (d_out @ model.params[p + "wo"].T).reshape(B, T, cfg.n_heads, cfg.head_dim)
    dq, dk, dv = oracle_attention_bwd(q, k, v, probs, dctx)
    dq = _apply_rope(dq, cos, -sin).reshape(B, T, -1)
    dk = _apply_rope(dk, cos, -sin).reshape(B, T, -1)
    dv = dv.reshape(B, T, -1)
    for name, expect in (("wq", dq), ("wk", dk), ("wv", dv)):
        (_, _, got, _), = calls[p + name]
        assert np.max(np.abs(got - rows(expect))) < 1e-10, name
    dxn = dq @ model.params[p + "wq"].T + dk @ model.params[p + "wk"].T
    dxn += dv @ model.params[p + "wv"].T
    dxin = _rmsnorm_bwd(x, model.params[p + "attn_norm"], inv, dxn)
    assert np.max(np.abs(dx - rows(d_out + dxin))) < 1e-10


@pytest.mark.parametrize("n_kv", [4, 2, 1])
def test_cached_attention_matches_repeat_einsum_oracle(n_kv):
    model = gqa_model(n_kv)
    tokens = np.random.default_rng(22).integers(0, model.config.vocab_size, 9)
    calls = record_calls(model, "_project")
    cache = model.new_cache()
    model.forward(tokens[:5], cache)  # prefill, then one token per step
    for t in range(5, 9):
        model.forward(tokens[t : t + 1], cache)

    _, _, _, q, k, v, _, _ = first_layer_qkv(model, tokens[None, :])
    segments = [(0, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
    ctx_inputs = [args[0] for args in calls["layers.0.wo"]]
    assert len(ctx_inputs) == len(segments)
    for (lo, hi), got in zip(segments, ctx_inputs):
        expect, _ = oracle_attention(q[:, lo:hi], k[:, :hi], v[:, :hi], past=lo)
        assert np.max(np.abs(got - expect)) < 1e-10, (lo, hi)


# ------------------------------------------------------------- KV cache


def test_cached_forward_matches_recompute():
    model = tiny_model()
    prompt = RNG.integers(0, TINY.vocab_size, 5)
    cache = model.new_cache()
    cached_logits = model.forward(prompt, cache)[-1]

    seq = list(prompt)
    for _ in range(8):
        nxt = int(np.argmax(cached_logits))
        full_logits = model.forward(np.array(seq))[-1]
        assert int(np.argmax(full_logits)) == nxt
        assert np.max(np.abs(cached_logits - full_logits)) < 1e-5
        seq.append(nxt)
        cached_logits = model.forward(np.array([nxt]), cache)[-1]
    assert cache.lengths.tolist() == [5 + 8]


def test_cache_reset_and_overflow():
    model = tiny_model()
    cache = model.new_cache()
    model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)
    with pytest.raises(DataError, match="max_seq_len"):
        model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)
    cache.lengths[:] = 0  # every slot free again
    model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)  # fits again


def test_sized_cache_overflow():
    model = tiny_model()
    cache = model.new_cache(2, capacity=6)
    assert cache.k[0].shape == (2, 6, TINY.n_kv_heads, TINY.head_dim)
    model.forward(RNG.integers(0, TINY.vocab_size, (2, 4)), cache)
    model.forward(RNG.integers(0, TINY.vocab_size, (2, 2)), cache)  # fills it
    with pytest.raises(DataError, match="exceeds the cache's 6 slots"):
        model.forward(RNG.integers(0, TINY.vocab_size, (2, 1)), cache)
    # the window caps it
    assert model.new_cache(capacity=TINY.max_seq_len + 5).capacity == TINY.max_seq_len


def test_cache_rejects_batches():
    model = tiny_model()
    with pytest.raises(DataError, match="one sequence"):
        model.forward(RNG.integers(0, TINY.vocab_size, (2, 4)), model.new_cache())


def test_batched_cache_rows_advance_on_their_own():
    model = tiny_model()
    tokens = RNG.integers(0, TINY.vocab_size, (3, 6))
    cache = model.new_cache(3)
    model.forward(tokens[:, :4], cache)
    assert cache.lengths.tolist() == [4, 4, 4]
    cache.lengths[:] = [1, 4, 2]  # rows 0 and 2 drop their tail
    logits = model.forward(tokens[:, 4:], cache)
    assert cache.lengths.tolist() == [3, 6, 4]
    for row, kept in enumerate((1, 4, 2)):
        seq = np.concatenate([tokens[row, :kept], tokens[row, 4:]])
        full = model.forward(seq)[-2:]
        assert np.max(np.abs(logits[row] - full)) < 1e-5


def test_cache_keep_leaves_surviving_rows_bit_identical():
    model = tiny_model()
    cache = model.new_cache(3)
    model.forward(RNG.integers(0, TINY.vocab_size, (3, 5)), cache)
    cache.lengths[:] = [5, 2, 3]
    k, v = [a.copy() for a in cache.k], [a.copy() for a in cache.v]
    cache.keep([2, 0])
    assert cache.batch == 2 and cache.lengths.tolist() == [3, 5]
    for layer in range(TINY.n_layers):
        assert np.array_equal(cache.k[layer], k[layer][[2, 0]])
        assert np.array_equal(cache.v[layer], v[layer][[2, 0]])
    model.forward(RNG.integers(0, TINY.vocab_size, (2, 1)), cache)  # still usable
    assert cache.lengths.tolist() == [4, 6]


def test_batched_cache_overflow():
    model = tiny_model()
    cache = model.new_cache(2)
    model.forward(RNG.integers(0, TINY.vocab_size, (2, 4)), cache)
    cache.lengths[:] = [2, TINY.max_seq_len]  # one row full, the other not
    with pytest.raises(DataError, match="max_seq_len"):
        model.forward(RNG.integers(0, TINY.vocab_size, (2, 1)), cache)
    with pytest.raises(DataError, match="2 sequences"):
        model.forward(RNG.integers(0, TINY.vocab_size, (3, 1)), cache)


# ------------------------------------------------------------- gradients


def adapter_entries(model):
    return {t + s for t in model.adapter.targets for s in (".lora_a", ".lora_b")}


def test_float32_model_gives_float32_adapter_grads():
    model = tiny_model()
    attach(model, rank=2, alpha=4.0)
    inputs = RNG.integers(0, TINY.vocab_size, (2, 6))
    labels = RNG.integers(0, TINY.vocab_size, (2, 6))
    _, grads = model.loss_and_grads(inputs, labels, np.ones((2, 6), dtype=bool))
    assert set(grads) == adapter_entries(model)
    for name, g in grads.items():
        assert g.dtype == np.float32, name


def test_loss_and_grads_without_an_adapter_raises_numeric_error():
    model = tiny_model()
    inputs = RNG.integers(0, TINY.vocab_size, (2, 6))
    with pytest.raises(NumericError, match="needs an attached adapter"):
        model.loss_and_grads(inputs, inputs, np.ones((2, 6), dtype=bool))


def test_grads_zero_from_masked_positions():
    cfg = ModelConfig(
        d_model=8, n_layers=1, n_heads=2, n_kv_heads=2, d_ff=12, vocab_size=9, max_seq_len=8
    )
    model = tiny_model(cfg, dtype=np.float64)
    adapter = attach(model, rank=2, alpha=4.0, seed=1)
    rng = np.random.default_rng(4)
    for t in adapter.targets:
        adapter.b[t][:] = rng.standard_normal(adapter.b[t].shape) * 0.3
    inputs = np.array([[1, 2, 3, 4]])
    labels = np.array([[2, 3, 4, 5]])
    full_mask = np.array([[True, True, True, True]])
    part_mask = np.array([[False, True, True, False]])
    # changing a label at a masked position must not change loss or grads
    loss_a, grads_a = model.loss_and_grads(inputs, labels, part_mask)
    labels_b = labels.copy()
    labels_b[0, 0] = 7
    loss_b, grads_b = model.loss_and_grads(inputs, labels_b, part_mask)
    assert loss_a == loss_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name])
    # and the full mask genuinely differs
    loss_c, _ = model.loss_and_grads(inputs, labels, full_mask)
    assert loss_c != loss_a


# ------------------------------------------------------------- pad-free training step


def adapted_gqa_model():
    """float64, GQA 4 query / 2 kv heads, with an adapter whose B is nonzero."""
    cfg = ModelConfig(
        d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24, vocab_size=13, max_seq_len=16
    )
    model = tiny_model(cfg, dtype=np.float64)
    adapter = attach(model, rank=2, alpha=4.0, seed=1)
    rng = np.random.default_rng(2)
    for t in adapter.targets:
        adapter.b[t][:] = rng.standard_normal(adapter.b[t].shape) * 0.3
    return model


def ragged_batch(vocab_size):
    """Four rows of 9, 6, 4 and 7 real tokens padded to 9 with trailing pads.
    Loss positions follow a prompt; row 2 has none and row 3's last real
    token is not one of them."""
    rng = np.random.default_rng(3)
    real = [9, 6, 4, 7]
    first_loss = [3, 2, None, 1]
    last_loss = [9, 6, None, 6]
    inputs = np.zeros((4, 9), dtype=np.int64)
    labels = np.zeros((4, 9), dtype=np.int64)
    mask = np.zeros((4, 9), dtype=bool)
    for row, n in enumerate(real):
        inputs[row, :n] = rng.integers(1, vocab_size, n)
        labels[row, :n] = rng.integers(1, vocab_size, n)
        if first_loss[row] is not None:
            mask[row, first_loss[row] : last_loss[row]] = True
    return inputs, labels, mask, real


def test_pad_free_step_matches_grid_forward_and_one_row_calls():
    model = adapted_gqa_model()
    inputs, labels, mask, real = ragged_batch(model.config.vocab_size)
    loss, grads = model.loss_and_grads(inputs, labels, mask)
    assert abs(loss - cross_entropy(model.forward(inputs)[mask], labels, mask)) < 1e-12

    # the batch gradient is the loss-position-weighted mean of each row's own
    expect = {name: np.zeros_like(g) for name, g in grads.items()}
    for row, n in enumerate(real):
        count = int(mask[row].sum())
        if count == 0:
            continue
        _, g = model.loss_and_grads(
            inputs[row : row + 1, :n], labels[row : row + 1, :n], mask[row : row + 1, :n]
        )
        for name in expect:
            expect[name] += count * g[name]
    assert set(grads) == adapter_entries(model)
    for name, g in grads.items():
        assert np.max(np.abs(g - expect[name] / mask.sum())) < 1e-10, name


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_positions_past_the_last_loss_position_change_nothing(data):
    model = adapted_gqa_model()
    vocab, B, T = model.config.vocab_size, 3, 8
    ids = st.integers(0, vocab - 1)
    inputs = np.array(data.draw(st.lists(st.lists(ids, min_size=T, max_size=T),
                                         min_size=B, max_size=B)))
    labels = np.array(data.draw(st.lists(st.lists(ids, min_size=T, max_size=T),
                                         min_size=B, max_size=B)))
    mask = np.array(data.draw(st.lists(st.lists(st.booleans(), min_size=T, max_size=T),
                                       min_size=B, max_size=B)))
    mask[data.draw(st.integers(0, B - 1)), data.draw(st.integers(0, T - 1))] = True

    edited_inputs, edited_labels = inputs.copy(), labels.copy()
    for row in range(B):
        hits = np.flatnonzero(mask[row])
        past = hits[-1] + 1 if hits.size else 0  # a row without a loss position: all of it
        for t in range(past, T):
            edited_inputs[row, t] = data.draw(ids)
            edited_labels[row, t] = data.draw(ids)

    loss_a, grads_a = model.loss_and_grads(inputs, labels, mask)
    loss_b, grads_b = model.loss_and_grads(edited_inputs, edited_labels, mask)
    assert loss_a == loss_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name


def test_all_false_mask_raises_numeric_error():
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    with pytest.raises(NumericError, match="cross_entropy: mask selects no positions"):
        model.loss_and_grads(inputs, labels, np.zeros_like(mask))


def test_step_loss_equals_cross_entropy_over_the_kept_forward():
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    rows = mask.any(axis=1)  # the kept forward needs a position in every row
    inputs, labels, mask = inputs[rows], labels[rows], mask[rows]
    kept = np.logical_or.accumulate(mask[:, ::-1], axis=1)[:, ::-1]
    logits = kept_logits(model, inputs, None, kept)[mask[kept]]
    want = cross_entropy(logits, labels[mask], np.ones(len(logits), dtype=bool))
    loss, _ = model.loss_and_grads(inputs, labels, mask)
    assert abs(loss - want) <= 1e-12 * want


def record_rows(monkeypatch, name):
    """Wrap a module-level op of eyedx.model and keep the row count of its
    first argument at each call."""
    rows = []
    fn = getattr(model_module, name)

    def recording(*args):
        rows.append(math.prod(args[0].shape[:-1]))
        return fn(*args)

    monkeypatch.setattr(model_module, name, recording)
    return rows


def test_last_layer_output_side_runs_over_the_loss_rows_alone(monkeypatch):
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    force_shards(monkeypatch, 1)
    rows = record_rows(monkeypatch, "silu")
    model.loss_and_grads(inputs, labels, mask)
    kept = np.logical_or.accumulate(mask[:, ::-1], axis=1)[:, ::-1]
    assert rows == [kept.sum()] * (model.config.n_layers - 1) + [mask.sum()]


@pytest.mark.parametrize("shards", [1, 2])
def test_layer_zero_backward_computes_no_dx(monkeypatch, shards):
    """Past layer 0's adapter gradients nothing is read: per shard, one
    norm backward for the final norm and each layer's FFN norm, one for each
    attention norm but layer 0's, and no dk through layer 0's wk."""
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    force_shards(monkeypatch, shards)
    norms = record_rows(monkeypatch, "_rmsnorm_bwd")
    calls = record_calls(model, "_project_bwd")
    model.loss_and_grads(inputs, labels, mask)
    assert len(norms) == shards * 2 * model.config.n_layers
    assert "layers.0.wk" not in calls and "layers.1.wk" in calls
    assert all(args[4:] == (False,) for args in calls["layers.0.wq"] + calls["layers.0.wv"])


# ------------------------------------------------------------- row-sharded training step


def force_shards(monkeypatch, n):
    """Let the step split into up to n shards: n cores, BLAS on one thread.
    Returns the list the row shards of each call are appended to."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(model_module, "_usable_cores", lambda: n)
    calls = []
    split = model_module._split_rows

    def recording(weights, count):
        calls.append(split(weights, count))
        return calls[-1]

    monkeypatch.setattr(model_module, "_split_rows", recording)
    return calls


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shards", [1, 2])
def test_training_step_writes_into_no_weight_or_batch(monkeypatch, shards, dtype):
    """The step's in-place arithmetic stays in buffers the step made: every
    base weight, adapter factor and batch array holds the same bytes after."""
    model = tiny_model(dtype=dtype)
    adapter = attach(model, rank=2, alpha=4.0, seed=1)
    rng = np.random.default_rng(2)
    for t in adapter.targets:
        adapter.b[t][:] = rng.standard_normal(adapter.b[t].shape) * 0.3
    batch = ragged_batch(model.config.vocab_size)[:3]
    calls = force_shards(monkeypatch, shards)
    tensors = {**model.params, **{f"{t}.a": adapter.a[t] for t in adapter.targets},
               **{f"{t}.b": adapter.b[t] for t in adapter.targets},
               **dict(zip(("inputs", "labels", "mask"), batch))}
    before = {name: w.copy() for name, w in tensors.items()}
    model.loss_and_grads(*batch)
    assert len(calls[-1]) == shards
    for name, w in tensors.items():
        assert w.tobytes() == before[name].tobytes(), name


def one_loss_row_batch(vocab_size):
    inputs, labels, mask, _ = ragged_batch(vocab_size)
    mask[[0, 2, 3]] = False
    return inputs, labels, mask


@pytest.mark.parametrize("batch", ["loss-free row in the middle", "one loss row"])
@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_step_matches_one_shard(monkeypatch, batch, shards):
    model = adapted_gqa_model()
    vocab = model.config.vocab_size
    if batch == "one loss row":
        inputs, labels, mask = one_loss_row_batch(vocab)
    else:
        inputs, labels, mask, _ = ragged_batch(vocab)  # row 2 has no loss position
    force_shards(monkeypatch, 1)
    loss_one, grads_one = model.loss_and_grads(inputs, labels, mask)

    calls = force_shards(monkeypatch, shards)
    loss, grads = model.loss_and_grads(inputs, labels, mask)
    loss_rows = int(mask.any(axis=1).sum())
    assert len(calls[0]) == min(shards, loss_rows)
    assert loss == loss_one
    for name, g in grads.items():
        assert np.max(np.abs(g - grads_one[name])) <= 1e-12 * np.max(np.abs(grads_one[name])), name
    again_loss, again = model.loss_and_grads(inputs, labels, mask)
    assert again_loss == loss
    for name in grads:
        assert np.array_equal(again[name], grads[name]), name


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_splitter_is_contiguous_and_balanced(data):
    weights = np.array(data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=12)))
    positive = int(np.count_nonzero(weights))
    if positive == 0:
        weights[data.draw(st.integers(0, len(weights) - 1))] = 1
        positive = 1
    n = data.draw(st.integers(1, positive))
    shards = model_module._split_rows(weights, n)
    assert len(shards) == n
    assert shards[0].start == 0 and shards[-1].stop == len(weights)
    for left, right in zip(shards, shards[1:]):
        assert left.stop == right.start
    sizes = [int(weights[rows].sum()) for rows in shards]
    assert min(sizes) > 0
    assert max(sizes) - min(sizes) <= weights.max()


def test_row_splitter_needs_a_weighted_row_per_shard():
    with pytest.raises(ValueError, match="3 shards need 3 rows"):
        model_module._split_rows(np.array([4, 0, 5, 0]), 3)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sharded_step_matches_one_shard_on_random_ragged_batches(data):
    """Across 1 to 4 shards, loss and gradients agree to 1e-12 relative; not
    bit for bit, since the rank-2 adapter products round differently at
    different row counts. Gradients are measured against the largest entry
    of any of them: where every token is the same, the query adapters'
    gradients vanish but for rounding."""
    model = adapted_gqa_model()
    B, T = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 9))
    kept, mask = ragged_masks(data, B, T)
    ids = st.lists(st.lists(st.integers(1, 12), min_size=T, max_size=T), min_size=B, max_size=B)
    inputs = np.where(kept, np.array(data.draw(ids)), 0)
    labels = np.where(kept, np.array(data.draw(ids)), 0)
    results = []
    for shards in range(1, 5):
        with pytest.MonkeyPatch.context() as mp:
            force_shards(mp, shards)
            results.append(model.loss_and_grads(inputs, labels, mask))
    loss_one, grads_one = results[0]
    scale = max(np.max(np.abs(g)) for g in grads_one.values())
    for loss, grads in results[1:]:
        assert abs(loss - loss_one) <= 1e-12 * loss_one
        for name, g in grads.items():
            assert np.max(np.abs(g - grads_one[name])) <= 1e-12 * scale, name


def test_sharded_step_computes_the_loss_once_on_the_calling_thread(monkeypatch):
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    calls = force_shards(monkeypatch, 3)
    threads = {"cross_entropy": [], "cross_entropy_backward": []}
    for name, seen in threads.items():
        fn = getattr(model_module, name)

        def recording(*args, fn=fn, seen=seen):
            seen.append(threading.get_ident())
            return fn(*args)

        monkeypatch.setattr(model_module, name, recording)
    model.loss_and_grads(inputs, labels, mask)
    assert len(calls[0]) == 3
    for name, seen in threads.items():
        assert seen == [threading.get_ident()], name


def test_sharded_step_rejects_a_bad_token_in_a_loss_free_row(monkeypatch):
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    inputs[2, 1] = model.config.vocab_size  # row 2 has no loss position
    force_shards(monkeypatch, 3)
    with pytest.raises(DataError, match="out of range"):
        model.loss_and_grads(inputs, labels, mask)


def test_step_starts_no_thread_without_a_blas_thread_setting(monkeypatch):
    model = adapted_gqa_model()
    inputs, labels, mask, _ = ragged_batch(model.config.vocab_size)
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def refuse(thread):
        raise AssertionError(f"the step started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    model.loss_and_grads(inputs, labels, mask)


@pytest.mark.parametrize(
    "env, cores, expect",
    [
        ({}, 8, 1),  # BLAS on every core
        ({"OPENBLAS_NUM_THREADS": "1"}, 8, 3),  # capped by the 3 loss rows
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "4"}, 2, 1),
        ({"OMP_NUM_THREADS": "2"}, 8, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 2),
        ({"OPENBLAS_NUM_THREADS": "many", "OMP_NUM_THREADS": "1"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 8, 1),
    ],
)
def test_shard_count_fills_the_cores_blas_leaves(monkeypatch, env, cores, expect):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(model_module, "_usable_cores", lambda: cores)
    assert model_module._shard_count(3) == expect
