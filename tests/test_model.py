"""Transformer forward/backward: norms, rotary positions, GQA, cache, gradients."""

import math

import numpy as np
import pytest

from eyedx import DataError
from eyedx.model import (
    Model,
    ModelConfig,
    _apply_rope,
    _apply_rope_inverse,
    _rmsnorm_bwd,
    _rmsnorm_fwd,
    _rope_tables,
    ffn,
    init_params,
    matmul_weight_names,
    param_shapes,
    rmsnorm,
    rope_vector,
)
from eyedx.numerics import (
    cross_entropy,
    finite_difference,
    grad_relative_error,
    softmax,
    softmax_backward,
)

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


def test_rope_position_zero_is_identity():
    v = RNG.standard_normal(32)
    assert np.allclose(rope_vector(v, 0), v)


def test_rope_preserves_norm():
    v = RNG.standard_normal(32)
    for pos in (1, 17, 400):
        assert np.isclose(np.linalg.norm(rope_vector(v, pos)), np.linalg.norm(v))


def test_rope_dot_depends_only_on_offset():
    q = RNG.standard_normal(32)
    k = RNG.standard_normal(32)
    d53 = rope_vector(q, 5) @ rope_vector(k, 3)
    d75 = rope_vector(q, 7) @ rope_vector(k, 5)
    assert abs(d53 - d75) < 1e-5


def test_rope_rejects_odd_dim():
    with pytest.raises(DataError, match="even"):
        rope_vector(np.zeros(7), 1)


# ------------------------------------------------------------- ffn


def test_ffn_zero_gate_or_up_gives_zero():
    x = RNG.standard_normal((3, 8))
    w_up = RNG.standard_normal((8, 12))
    w_down = RNG.standard_normal((12, 8))
    assert np.allclose(ffn(x, np.zeros((8, 12)), w_up, w_down), 0.0)
    assert np.allclose(ffn(x, RNG.standard_normal((8, 12)), np.zeros((8, 12)), w_down), 0.0)


def test_ffn_gradcheck():
    x = RNG.standard_normal((4, 6))
    w_gate = RNG.standard_normal((6, 10)) * 0.5
    w_up = RNG.standard_normal((6, 10)) * 0.5
    w_down = RNG.standard_normal((10, 6)) * 0.5
    upstream = RNG.standard_normal((4, 6))

    for w in (w_gate, w_up, w_down, x):
        num = finite_difference(lambda _: float((ffn(x, w_gate, w_up, w_down) * upstream).sum()), w)
        assert np.isfinite(num).all()
    # closed-form check for the w_down slot, the easiest to state directly
    from eyedx.numerics import silu

    h = silu(x @ w_gate) * (x @ w_up)
    analytic = h.T @ upstream
    num = finite_difference(lambda _: float((ffn(x, w_gate, w_up, w_down) * upstream).sum()), w_down)
    assert grad_relative_error(analytic, num) < 1e-6


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
    probs = softmax(scores, axis=-1)
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
    dscores = softmax_backward(probs, dprobs, axis=-1) / math.sqrt(hd)
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
    cfg = model.config
    rng = np.random.default_rng(21)
    tokens = rng.integers(0, cfg.vocab_size, (2, 7))
    tape = []
    model._run(tokens, None, tape)
    rec = next(r for r in tape if r.get("kind") == "attn")

    x, xn, inv, q, k, v, cos, sin = first_layer_qkv(model, tokens)
    ctx, probs = oracle_attention(q, k, v, past=0)
    assert np.max(np.abs(rec["ctx"] - ctx)) < 1e-10

    p = "layers.0."
    B, T, _ = x.shape
    d_out = rng.standard_normal(x.shape)
    calls = record_calls(model, "_project_bwd")
    dx = model._attention_bwd(rec, d_out, {})

    dctx = (d_out @ model.params[p + "wo"].T).reshape(B, T, cfg.n_heads, cfg.head_dim)
    dq, dk, dv = oracle_attention_bwd(q, k, v, probs, dctx)
    dq = _apply_rope_inverse(dq, cos, sin).reshape(B, T, -1)
    dk = _apply_rope_inverse(dk, cos, sin).reshape(B, T, -1)
    dv = dv.reshape(B, T, -1)
    for name, expect in (("wq", dq), ("wk", dk), ("wv", dv)):
        (_, _, got, _), = calls[p + name]
        assert np.max(np.abs(got - expect)) < 1e-10, name
    dxn = dq @ model.params[p + "wq"].T + dk @ model.params[p + "wk"].T
    dxn += dv @ model.params[p + "wv"].T
    dxin, _ = _rmsnorm_bwd(x, model.params[p + "attn_norm"], inv, dxn)
    assert np.max(np.abs(dx - (d_out + dxin))) < 1e-10


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
    assert cache.length == 5 + 8


def test_cache_reset_and_overflow():
    model = tiny_model()
    cache = model.new_cache()
    model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)
    with pytest.raises(DataError, match="max_seq_len"):
        model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)
    cache.reset()
    assert cache.length == 0
    model.forward(RNG.integers(0, TINY.vocab_size, 10), cache)  # fits again


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


def model_loss(model, inputs, labels, mask):
    return cross_entropy(model.forward(inputs), labels, mask)


def test_full_model_gradcheck_float64():
    # every parameter of a 2-layer model against central differences
    cfg = ModelConfig(
        d_model=8, n_layers=2, n_heads=2, n_kv_heads=1, d_ff=12, vocab_size=11, max_seq_len=8
    )
    model = tiny_model(cfg, dtype=np.float64, scale=0.4)
    rng = np.random.default_rng(3)
    inputs = rng.integers(0, cfg.vocab_size, (2, 6))
    labels = rng.integers(0, cfg.vocab_size, (2, 6))
    mask = rng.random((2, 6)) < 0.7
    mask[0, 0] = True  # keep at least one position

    loss, grads = model.loss_and_grads(inputs, labels, mask)
    assert np.isfinite(loss)
    for name, w in model.params.items():
        num = finite_difference(lambda _: model_loss(model, inputs, labels, mask), w)
        err = grad_relative_error(grads[name], num)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


def test_grads_zero_from_masked_positions():
    cfg = ModelConfig(
        d_model=8, n_layers=1, n_heads=2, n_kv_heads=2, d_ff=12, vocab_size=9, max_seq_len=8
    )
    model = tiny_model(cfg, dtype=np.float64)
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
