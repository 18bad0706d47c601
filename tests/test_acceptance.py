"""Acceptance suite: one test per headline property of the pipeline.

Each test exercises a stated end-to-end guarantee at its stated tolerance,
so a verbose run reads as a pass/fail checklist. The fine-tuning pipeline
itself runs once, module-scoped, and is shared by the tests that need a
trained checkpoint.
"""

import math
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from eyedx.container import save_model, save_quantized
from eyedx.corpus import (
    dedup,
    modality_counts,
    render_prompt,
    split,
    synthesize,
    write_jsonl,
)
from eyedx.lora import attach, init_adapter, merge
from eyedx.model import (
    Model,
    ModelConfig,
    _apply_rope,
    _rmsnorm_fwd,
    _rope_tables,
    init_params,
    matmul_weight_names,
)
from eyedx.numerics import cross_entropy, softmax
from eyedx.quant import QuantizedModel, dequantize, quantize_model
from eyedx.rouge import evaluate, format_table, lcs_length, rouge_l, rouge_n
from eyedx.sample import DecodeParams, decode, filter_logits
from eyedx.tokenizer import BOS_ID, build
from eyedx.train import TrainConfig, train
from oracles import finite_difference, grad_relative_error, lcs_oracle, recompute_greedy

GREEDY = DecodeParams(
    temperature=1.0, max_new_tokens=24, repetition_penalty=1.0, top_k=1, top_p=1.0, seed=0
)

# Hyperparameters for the acceptance run. These differ from the dataclass
# defaults on purpose: the defaults suit a pretrained 7B-class base, while a
# from-scratch mini model needs a much larger step size and adapter rank to
# learn anything within the runtime budget.
TUNE = TrainConfig(
    learning_rate=2e-3,
    batch_size=8,
    grad_accum_steps=1,
    lora_r=16,
    lora_alpha=32.0,
    epochs=3,
    seed=0,
)


@pytest.fixture(scope="module")
def pipeline():
    """Synthesize, split, fine-tune, and score once; share the artifacts."""
    started = time.perf_counter()
    records = dedup(synthesize(400, seed=0))
    parts = split(records, ratio=0.6, seed=0)
    vocab = build([" ".join(render_prompt(r)) for r in parts.train])
    config = ModelConfig(vocab_size=vocab.size)

    base = Model(config, init_params(config, seed=0))
    base_report = evaluate(base, parts.test, vocab, params=GREEDY)

    tuned = Model(config, init_params(config, seed=0))
    attach(tuned, rank=TUNE.lora_r, alpha=TUNE.lora_alpha, seed=TUNE.seed)
    result = train(tuned, parts.train, vocab, TUNE)
    merge(tuned)
    tuned_report = evaluate(tuned, parts.test, vocab, params=GREEDY)

    return SimpleNamespace(
        records=records,
        parts=parts,
        vocab=vocab,
        config=config,
        base=base,
        tuned=tuned,
        result=result,
        base_report=base_report,
        tuned_report=tuned_report,
        seconds=time.perf_counter() - started,
    )


def test_finetuned_beats_untrained_base_on_all_rouge_means(pipeline):
    counts = modality_counts(pipeline.records)
    assert all(n >= 300 for n in counts.values()), counts
    for metric in ("rouge1", "rouge2", "rouge_l"):
        base = getattr(pipeline.base_report, metric).f1
        tuned = getattr(pipeline.tuned_report, metric).f1
        assert base <= 0.15, f"{metric}: untrained base scored {base:.4f}"
        assert tuned - base >= 0.2, f"{metric}: gain {tuned - base:.4f} (tuned {tuned:.4f})"
    assert pipeline.seconds < 900, f"pipeline took {pipeline.seconds:.0f}s"


def test_lcs_dynamic_programming_matches_oracle_and_hand_counts():
    rng = random.Random(1)
    for _ in range(500):
        a = [rng.choice("abcde") for _ in range(rng.randrange(0, 11))]
        b = [rng.choice("abcde") for _ in range(rng.randrange(0, 11))]
        assert lcs_length(a, b) == lcs_oracle(a, b)

    cand = "retinal detachment left eye".split()
    ref = "retinal detachment right eye".split()
    assert rouge_n(cand, ref, 1).recall == 3 / 4
    assert rouge_n(cand, ref, 2).recall == 1 / 3
    assert rouge_l(cand, ref).f1 == 0.75


def test_analytic_gradients_match_finite_differences():
    config = ModelConfig(
        d_model=8, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=12, vocab_size=11, max_seq_len=8
    )
    model = Model(config, init_params(config, seed=2, scale=0.4, dtype=np.float64))
    adapter = attach(model, rank=2, alpha=4.0, seed=3)
    rng = np.random.default_rng(4)
    for t in adapter.targets:
        adapter.b[t][:] = rng.normal(0.0, 0.5, adapter.b[t].shape)

    inputs = rng.integers(0, config.vocab_size, (2, 6))
    labels = rng.integers(0, config.vocab_size, (2, 6))
    mask = rng.random((2, 6)) < 0.7
    mask[0, 0] = True

    def loss():
        return cross_entropy(model.forward(inputs)[mask], labels, mask)

    _, grads = model.loss_and_grads(inputs, labels, mask)
    checked = {}
    for t in adapter.targets:
        checked[t + ".lora_a"] = adapter.a[t]
        checked[t + ".lora_b"] = adapter.b[t]
    assert set(grads) == set(checked)  # the base weights are frozen
    for name, w in checked.items():
        num = finite_difference(lambda _: loss(), w)
        err = grad_relative_error(grads[name], num)
        assert err < 1e-4, f"{name}: rel err {err:.2e}"


def test_cached_decode_matches_full_recompute():
    config = ModelConfig(
        d_model=64, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=96, vocab_size=128, max_seq_len=64
    )
    model = Model(config, init_params(config, seed=7))
    prompt = list(np.random.default_rng(8).integers(0, config.vocab_size, 8))

    cache = model.new_cache()
    cached_logits = model.forward(np.array(prompt), cache)[-1]
    cached_tokens = []
    seq = list(prompt)
    for _ in range(32):
        nxt = int(np.argmax(cached_logits))
        cached_tokens.append(nxt)
        seq.append(nxt)
        cached_logits = model.forward(np.array([nxt]), cache)[-1]

    recomputed_tokens = []
    seq2 = list(prompt)
    for _ in range(32):
        logits = model.forward(np.array(seq2))[-1]
        nxt = int(np.argmax(logits))
        recomputed_tokens.append(nxt)
        seq2.append(nxt)

    assert cached_tokens == recomputed_tokens
    # cached_logits now predicts the position after step 32; compare against
    # the same position from a full recompute
    final_full = model.forward(np.array(seq2))[-1]
    assert np.max(np.abs(cached_logits - final_full)) < 1e-5


def reference_mha(model, tokens):
    """Per-head loop attention over the first layer with one kv head per
    query head: plain multi-head attention, independent of einsum/repeat."""
    from eyedx.model import _apply_rope, _rmsnorm_fwd, _rope_tables

    cfg = model.config
    hd = cfg.head_dim
    p = "layers.0."
    x = model.params["tok_embed"][np.asarray(tokens)[None, :]]
    xn, _ = _rmsnorm_fwd(x, model.params[p + "attn_norm"], cfg.rmsnorm_eps)
    T = xn.shape[1]
    cos, sin = _rope_tables(np.arange(T), hd, cfg.rope_base, xn.dtype)
    q = _apply_rope((xn @ model.params[p + "wq"]).reshape(1, T, cfg.n_heads, hd), cos, sin)[0]
    k = _apply_rope((xn @ model.params[p + "wk"]).reshape(1, T, cfg.n_kv_heads, hd), cos, sin)[0]
    v = (xn @ model.params[p + "wv"]).reshape(1, T, cfg.n_kv_heads, hd)[0]

    heads = []
    for h in range(cfg.n_heads):
        out_h = np.zeros((T, hd), dtype=xn.dtype)
        for t in range(T):
            scores = np.array([q[t, h] @ k[s, h] / math.sqrt(hd) for s in range(t + 1)])
            w = softmax(scores)
            out_h[t] = sum(w[s] * v[s, h] for s in range(t + 1))
        heads.append(out_h)
    return np.concatenate(heads, axis=-1) @ model.params[p + "wo"]


def test_attention_rope_and_rmsnorm_degeneracies():
    # grouped attention with as many kv heads as query heads is plain MHA
    config = ModelConfig(
        d_model=16, n_layers=1, n_heads=4, n_kv_heads=4, d_ff=24, vocab_size=13, max_seq_len=16
    )
    model = Model(config, init_params(config, seed=5, dtype=np.float64))
    tokens = np.random.default_rng(6).integers(0, config.vocab_size, 7)
    tape = []
    model._run(tokens[None, :], None, tape)
    rec = next(r for r in tape if r.get("kind") == "attn")
    got = model._project(rec["ctx"], "layers.0.wo")[0]
    assert np.max(np.abs(got - reference_mha(model, tokens))) < 1e-6

    # rotary encoding at position 0 is the identity; rows are positions 0..7
    rng = np.random.default_rng(9)
    cos, sin = _rope_tables(np.arange(8), 16, 10000.0, np.float64)

    def rope(vec):
        return _apply_rope(np.broadcast_to(vec, (8, 1, 16)), cos, sin)[:, 0]

    vec = rng.normal(size=16)
    assert np.max(np.abs(rope(vec)[0] - vec)) < 1e-5

    # attention scores depend only on the relative offset
    q, k = rope(rng.normal(size=16)), rope(rng.normal(size=16))
    near = q[5] @ k[3]
    far = q[7] @ k[5]
    assert abs(near - far) < 1e-5

    # positive-scale invariance, bit-exact in float64 for power-of-two scales
    # (scaling by 2**k shifts exponents only, so no operand is ever rounded;
    # eps would break the algebraic identity, hence eps=0 here)
    x = rng.normal(size=(3, 16))
    gain = rng.normal(size=16)
    base = _rmsnorm_fwd(x, gain, 0.0)[0]
    for c in (2.0, 0.5, 1024.0):
        assert np.array_equal(_rmsnorm_fwd(c * x, gain, 0.0)[0], base)
    # and within rounding noise for any other positive scale
    assert np.allclose(_rmsnorm_fwd(3.7 * x, gain, 0.0)[0], base, atol=1e-12)


def test_lora_adapter_algebra():
    config = ModelConfig(
        d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24, vocab_size=19, max_seq_len=16
    )
    tokens = np.random.default_rng(10).integers(0, config.vocab_size, (2, 6))

    def fresh():
        return Model(config, init_params(config, seed=11))

    def randomized(adapter, seed):
        rng = np.random.default_rng(seed)
        for t in adapter.targets:
            adapter.b[t][:] = rng.normal(0.0, 0.5, adapter.b[t].shape).astype(np.float32)
        return adapter

    # a fresh adapter (b = 0) changes nothing, bit for bit
    model = fresh()
    before = model.forward(tokens)
    attach(model, rank=4, alpha=8.0, seed=12)
    assert np.array_equal(model.forward(tokens), before)

    # merging reproduces the adapted forward within 1e-5 relative
    model = fresh()
    adapter = randomized(attach(model, rank=4, alpha=8.0, seed=12), seed=13)
    adapted = model.forward(tokens)
    merge(model)
    merged = model.forward(tokens)
    rel = np.max(np.abs(merged - adapted)) / np.max(np.abs(adapted))
    assert rel < 1e-5, f"merge deviates by {rel:.2e} relative"

    # swapping adapters lands on the same weights as merging the new one directly
    old = randomized(init_adapter(config, rank=4, alpha=8.0, seed=14), seed=15)
    new = randomized(init_adapter(config, rank=6, alpha=12.0, seed=16), seed=17)
    swapped = fresh()
    attach(swapped, adapter=old)
    merge(swapped)
    from eyedx.lora import swap

    swap(swapped, old, new)
    direct = fresh()
    attach(direct, adapter=new)
    merge(direct)
    for name in direct.params:
        a, b = swapped.params[name], direct.params[name]
        scale = max(np.max(np.abs(b)), 1e-12)
        assert np.max(np.abs(a - b)) / scale < 1e-5, name


def test_quantization_error_bound_argmax_agreement_and_size(pipeline, tmp_path):
    tuned = pipeline.tuned
    tensors = quantize_model(tuned.params, tuned.config)
    quantized = QuantizedModel(tuned.config, tensors)

    # every element reconstructs within half its block's scale
    scanned = 0
    for name, q in tensors.items():
        if not hasattr(q, "scales"):
            continue
        w = tuned.params[name].astype(np.float64)
        err = np.abs(dequantize(q).astype(np.float64) - w)
        bound = q.element_scales().astype(np.float64) / 2
        assert np.all(err <= bound * (1 + 1e-6)), name
        assert np.all(err[bound == 0] == 0), name
        scanned += 1
    assert scanned == len(matmul_weight_names(tuned.config))

    # greedy decodes agree on at least 90 percent of 64 generated positions
    agree = total = 0
    for record in pipeline.parts.test:
        if total >= 64:
            break
        prompt, _ = render_prompt(record)
        ids = [BOS_ID] + pipeline.vocab.encode(prompt)
        a = decode(tuned, ids, GREEDY)
        b = decode(quantized, ids, GREEDY)
        take = min(max(len(a), len(b)), 64 - total)
        agree += sum(1 for i in range(take) if i < len(a) and i < len(b) and a[i] == b[i])
        total += take
    assert total == 64
    assert agree / total >= 0.9, f"agreement {agree}/{total}"

    # the quantized checkpoint is under a fifth of the float checkpoint
    float_path = tmp_path / "model.olm"
    quant_path = tmp_path / "model.int4.olm"
    save_model(tuned, float_path, vocab=pipeline.vocab)
    save_quantized(quantized, quant_path, vocab=pipeline.vocab)
    ratio = quant_path.stat().st_size / float_path.stat().st_size
    assert ratio < 0.2, f"quantized/float size ratio {ratio:.3f}"


def _mini_pipeline(out_dir):
    records = dedup(synthesize(40, seed=5))
    parts = split(records, ratio=0.6, seed=5)
    write_jsonl(parts.train, out_dir / "train.jsonl")
    write_jsonl(parts.test, out_dir / "test.jsonl")
    vocab = build([" ".join(render_prompt(r)) for r in parts.train])
    config = ModelConfig(vocab_size=vocab.size, max_seq_len=128)
    model = Model(config, init_params(config, seed=5))
    attach(model, rank=4, alpha=8.0, seed=5)
    tune = TrainConfig(
        learning_rate=1e-3, batch_size=8, grad_accum_steps=1, max_seq_len=128,
        lora_r=4, lora_alpha=8.0, epochs=1, seed=5,
    )
    result = train(model, parts.train, vocab, tune)
    merge(model)
    params = DecodeParams(
        temperature=1.0, max_new_tokens=12, repetition_penalty=1.0, top_k=1, top_p=1.0, seed=5
    )
    report = evaluate(model, parts.test, vocab, params=params)
    return {
        "train_bytes": (out_dir / "train.jsonl").read_bytes(),
        "test_bytes": (out_dir / "test.jsonl").read_bytes(),
        "loss_history": list(result.loss_history),
        "table": format_table([("model", report)]),
    }


def test_pipeline_runs_are_deterministic(tmp_path):
    first = _mini_pipeline(tmp_path / "one")
    second = _mini_pipeline(tmp_path / "two")
    assert first["train_bytes"] == second["train_bytes"]
    assert first["test_bytes"] == second["test_bytes"]
    assert first["loss_history"] == second["loss_history"]
    assert first["table"] == second["table"]


def test_stratified_split_counts():
    records = synthesize(2355, seed=0)
    assert len(records) == 7065
    parts = split(records, ratio=0.6, seed=0)
    assert len(parts.train) == 4239
    assert len(parts.test) == 2826
    train_counts = modality_counts(parts.train)
    for modality, total in modality_counts(records).items():
        fraction = train_counts[modality] / total
        assert abs(fraction - 0.6) <= 0.02, f"{modality}: train fraction {fraction:.3f}"


def test_sampling_neutrality_and_greedy_equivalence(pipeline):
    # top_k=1 sampling is greedy decoding, token for token
    prompt, _ = render_prompt(pipeline.parts.test[0])
    ids = [BOS_ID] + pipeline.vocab.encode(prompt)
    one_best = DecodeParams(
        temperature=1.0, max_new_tokens=24, repetition_penalty=1.0, top_k=1, top_p=1.0, seed=123
    )
    assert decode(pipeline.tuned, ids, one_best) == recompute_greedy(pipeline.tuned, ids, 24)

    # neutral settings sample the exact softmax distribution (chi-square on a
    # 4-token model: 10k draws, 3 degrees of freedom, p = 0.001 cutoff 16.266)
    config = ModelConfig(
        d_model=8, n_layers=1, n_heads=2, n_kv_heads=1, d_ff=12, vocab_size=4, max_seq_len=8
    )
    toy = Model(config, init_params(config, seed=20, scale=0.8))
    logits = toy.forward(np.array([0, 1, 2]))[-1]
    neutral = DecodeParams(
        temperature=1.0, max_new_tokens=1, repetition_penalty=1.0, top_k=4, top_p=1.0, seed=0
    )
    seen = np.isin(np.arange(4), [0, 1, 2])[None]
    probs = filter_logits(logits[None], seen, neutral)[0]
    expected = softmax(logits.astype(np.float64))
    assert np.allclose(probs, expected, atol=1e-12)

    draws = np.random.default_rng(0).choice(4, size=10_000, p=probs)
    observed = np.bincount(draws, minlength=4)
    chi2 = np.sum((observed - 10_000 * expected) ** 2 / (10_000 * expected))
    assert chi2 < 16.266, f"chi-square {chi2:.2f}"
