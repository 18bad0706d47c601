"""Decoding stages, neutrality guarantees, greedy/cache equivalences."""

from dataclasses import replace

import numpy as np
import pytest

from eyedx import DataError, NumericError
from eyedx.model import Model, ModelConfig, init_params
from eyedx.numerics import softmax
from eyedx.sample import DecodeParams, decode, decode_batch, decode_greedy, filter_logits
from eyedx.tokenizer import PAD_ID

RNG = np.random.default_rng(23)

CFG = ModelConfig(
    d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24, vocab_size=13, max_seq_len=64
)


def tiny_model():
    return Model(CFG, init_params(CFG, seed=4, scale=0.5))


def neutral(**kw):
    base = dict(temperature=1.0, repetition_penalty=1.0, top_k=10**9, top_p=1.0, seed=0)
    base.update(kw)
    return DecodeParams(**base)


# ------------------------------------------------------------- params


def test_decode_params_defaults():
    p = DecodeParams()
    assert (p.temperature, p.max_new_tokens, p.repetition_penalty, p.top_k, p.top_p) == (
        0.9,
        512,
        1.3,
        40,
        0.9,
    )


def test_decode_params_validation():
    with pytest.raises(DataError):
        DecodeParams(temperature=0.0)
    with pytest.raises(DataError):
        DecodeParams(top_k=0)
    with pytest.raises(DataError):
        DecodeParams(top_p=0.0)
    with pytest.raises(DataError):
        DecodeParams(top_p=1.5)
    with pytest.raises(DataError):
        DecodeParams(repetition_penalty=0.9)


# ------------------------------------------------------------- stages


def test_repetition_penalty_adopted_convention():
    # a seen token's positive logit 2.6 shrinks to 2.0 under penalty 1.3
    logits = np.array([2.6, 1.0, -1.3, 0.0])
    probs = filter_logits(logits, seen_ids={0, 2}, params=neutral(repetition_penalty=1.3))
    adjusted = np.array([2.0, 1.0, -1.69, 0.0])  # negative logits are multiplied
    assert np.allclose(probs, softmax(adjusted), atol=1e-12)


def test_temperature_stage():
    logits = RNG.standard_normal(9)
    probs = filter_logits(logits, set(), neutral(temperature=0.5))
    assert np.allclose(probs, softmax(logits / 0.5), atol=1e-12)


def test_top_k_keeps_k_largest():
    logits = np.array([0.1, 3.0, 2.0, -1.0, 2.5])
    probs = filter_logits(logits, set(), neutral(top_k=3))
    assert (probs > 0).sum() == 3
    assert set(np.nonzero(probs)[0]) == {1, 2, 4}
    expect = softmax(np.array([3.0, 2.0, 2.5]))
    assert np.allclose(sorted(probs[probs > 0]), sorted(expect), atol=1e-12)


def test_top_p_smallest_sufficient_set():
    # probabilities 0.5, 0.3, 0.15, 0.05; thresholds sit off the cumulative
    # boundaries because 0.5 + 0.3 is 0.7999... in binary
    logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
    probs = filter_logits(logits, set(), neutral(top_p=0.79))
    assert np.allclose(probs, [0.625, 0.375, 0.0, 0.0], atol=1e-9)
    probs = filter_logits(logits, set(), neutral(top_p=0.81))
    assert (probs > 0).sum() == 3


def test_top_p_always_keeps_top_token():
    logits = np.array([5.0, 0.0, 0.0])
    probs = filter_logits(logits, set(), neutral(top_p=0.01))
    assert probs[0] == 1.0


def test_neutral_params_reduce_to_plain_softmax():
    logits = RNG.standard_normal(16) * 3
    probs = filter_logits(logits, set(range(8)), neutral())
    assert np.allclose(probs, softmax(logits), atol=1e-12)


def reference_pipeline(logits, seen, penalty=None, temperature=None, top_k=None, top_p=None):
    """Plain-loop reference with optional stages; the oracle for neutrality."""
    z = logits.astype(np.float64).copy()
    if penalty is not None:
        for i in seen:
            z[i] = z[i] / penalty if z[i] > 0 else z[i] * penalty
    if temperature is not None:
        z = z / temperature
    if top_k is not None:
        keep = np.argsort(-z, kind="stable")[:top_k]
        masked = np.full_like(z, -np.inf)
        masked[keep] = z[keep]
        z = masked
    p = softmax(z)
    if top_p is not None:
        order = np.argsort(-p, kind="stable")
        total, kept = 0.0, []
        for i in order:
            kept.append(i)
            total += p[i]
            if total >= top_p:
                break
        mask = np.zeros_like(p)
        mask[kept] = p[kept]
        p = mask
    return p / p.sum()


def test_neutral_value_removes_exactly_that_stage():
    # pipeline with a stage at its neutral value == reference with the stage absent
    logits = RNG.standard_normal(12) * 2
    seen = {0, 3, 7}
    active = dict(repetition_penalty=1.7, temperature=0.6, top_k=5, top_p=0.7)
    ref_active = dict(penalty=1.7, temperature=0.6, top_k=5, top_p=0.7)
    for param, ref_key, neutral_value in (
        ("repetition_penalty", "penalty", 1.0),
        ("temperature", "temperature", 1.0),
        ("top_k", "top_k", 12),
        ("top_p", "top_p", 1.0),
    ):
        kw = dict(active)
        kw[param] = neutral_value
        ref_kw = dict(ref_active)
        ref_kw[ref_key] = None
        got = filter_logits(logits, seen, neutral(**kw))
        expect = reference_pipeline(logits, seen, **ref_kw)
        assert np.allclose(got, expect, atol=1e-12), param


def test_full_pipeline_matches_reference():
    logits = RNG.standard_normal(15) * 3
    seen = {1, 2, 10}
    got = filter_logits(
        logits, seen, neutral(repetition_penalty=1.3, temperature=0.9, top_k=7, top_p=0.85)
    )
    expect = reference_pipeline(logits, seen, penalty=1.3, temperature=0.9, top_k=7, top_p=0.85)
    assert np.allclose(got, expect, atol=1e-12)


# ------------------------------------------------------------- decode


def test_decode_deterministic_per_seed():
    model = tiny_model()
    prompt = [5, 9, 2]
    p = DecodeParams(max_new_tokens=20, seed=3)
    assert decode(model, prompt, p) == decode(model, prompt, p)
    other = decode(model, prompt, DecodeParams(max_new_tokens=20, seed=4))
    runs = {tuple(decode(model, prompt, DecodeParams(max_new_tokens=20, seed=s))) for s in range(6)}
    assert len(runs) > 1 or other  # sampling genuinely varies across seeds


def test_decode_respects_max_new_tokens():
    model = tiny_model()
    out = decode(model, [5, 9], DecodeParams(max_new_tokens=7, seed=0))
    assert len(out) <= 7


def test_decode_preconditions():
    model = tiny_model()
    with pytest.raises(DataError, match="non-empty"):
        decode(model, [], DecodeParams(max_new_tokens=4))
    with pytest.raises(DataError, match="max_seq_len"):
        decode(model, [1, 2, 3], DecodeParams(max_new_tokens=CFG.max_seq_len))


def test_greedy_same_prompt_twice_identical():
    model = tiny_model()
    a = decode_greedy(model, [3, 8, 1, 4], 24)
    b = decode_greedy(model, [3, 8, 1, 4], 24)
    assert a == b


def test_greedy_zero_budget_is_empty():
    assert decode_greedy(tiny_model(), [3, 8], 0) == []


def test_top_k_one_equals_greedy():
    model = tiny_model()
    prompt = [5, 9, 2]
    greedy = decode_greedy(model, prompt, 24)
    for seed in range(4):
        sampled = decode(
            model,
            prompt,
            DecodeParams(
                max_new_tokens=24, top_k=1, repetition_penalty=1.0, temperature=0.7, seed=seed
            ),
        )
        assert sampled == greedy


def test_tiny_temperature_matches_greedy():
    model = tiny_model()
    prompt = [7, 2]
    greedy = decode_greedy(model, prompt, 32)
    sampled = decode(
        model,
        prompt,
        DecodeParams(
            max_new_tokens=32, temperature=1e-6, top_k=40, repetition_penalty=1.0, seed=11
        ),
    )
    assert sampled == greedy


def test_greedy_with_cache_matches_full_recompute():
    model = tiny_model()
    prompt = [5, 9, 2, 11]
    out = decode_greedy(model, prompt, 32)  # cache path

    seq = list(prompt)
    recomputed = []
    for _ in range(32):
        logits = model.forward(np.array(seq))[-1]
        nxt = int(np.argmax(logits))
        if nxt == 1:  # eos
            break
        recomputed.append(nxt)
        seq.append(nxt)
    assert out == recomputed

    # and the final-position logits agree closely between the two paths
    cache = model.new_cache()
    cached_logits = model.forward(np.asarray(seq[: len(prompt)]), cache)[-1]
    for tok in seq[len(prompt) :]:
        cached_logits = model.forward(np.array([tok]), cache)[-1]
    full_logits = model.forward(np.asarray(seq))[-1]
    assert np.max(np.abs(cached_logits - full_logits)) < 1e-5


def test_non_finite_logits_raise_numeric_error():
    model = tiny_model()
    model.params["lm_head"][:, 5] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        decode(model, [1, 2, 3], neutral(max_new_tokens=3))
    with pytest.raises(NumericError, match="non-finite"):
        decode_greedy(model, [1, 2, 3], 3)


# ------------------------------------------------------------- batched decode

# Prompts of different lengths. The 60-token one leaves room for 4 new
# tokens, so its budget is clamped below the others'.
RAGGED = [
    [5, 9, 2],
    [3, 8, 1, 4, 7, 6, 10, 12, 0, 5, 5],
    [11],
    [int(t) for t in np.random.default_rng(5).integers(0, CFG.vocab_size, 60)],
    [7, 2],
    [5, 9, 2, 11],
]


def room(prompt, max_new_tokens):
    return min(max_new_tokens, CFG.max_seq_len - len(prompt))


def recompute_greedy(model, prompt, budget):
    """Argmax decoding that reruns the whole prefix each step, no cache."""
    seq, out = list(prompt), []
    for _ in range(budget):
        nxt = int(np.argmax(model.forward(np.array(seq))[-1]))
        if nxt == 1:  # eos
            break
        out.append(nxt)
        seq.append(nxt)
    return out


def test_batched_greedy_matches_one_row_decoding():
    model = tiny_model()
    got = decode_batch(model, RAGGED, DecodeParams(max_new_tokens=20), greedy=True)
    for prompt, generation in zip(RAGGED, got):
        alone = decode_greedy(model, prompt, room(prompt, 20))
        assert generation.tokens == alone
        assert alone == recompute_greedy(model, prompt, room(prompt, 20))
    assert len(got[3].tokens) == 4  # the clamped row


def test_batched_sampling_matches_one_row_decoding():
    model = tiny_model()
    params = DecodeParams()  # 512 new tokens: every budget clamps to its own room
    got = decode_batch(model, RAGGED, params)
    for prompt, generation in zip(RAGGED, got):
        alone = decode(model, prompt, replace(params, max_new_tokens=room(prompt, 512)))
        assert generation.tokens == alone
    other = decode_batch(model, RAGGED, replace(params, seed=1))
    assert [g.tokens for g in other] != [g.tokens for g in got]


def test_batched_prefill_matches_one_row_prefill():
    model = tiny_model()
    prompts = RAGGED[:3]
    lengths = np.array([len(p) for p in prompts])
    batch = np.full((3, lengths.max()), PAD_ID)
    for row, p in enumerate(prompts):
        batch[row, : len(p)] = p
    cache = model.new_cache(3)
    logits = model.forward(batch, cache)
    cache.lengths[:] = lengths
    for row, p in enumerate(prompts):
        alone = model.forward(np.array(p))[-1]
        assert np.max(np.abs(logits[row, len(p) - 1] - alone)) < 1e-5
    # one step on: each row sees its prompt and the new token, not the pads
    step = model.forward(np.array([[4], [6], [8]]), cache)
    for row, (p, tok) in enumerate(zip(prompts, (4, 6, 8))):
        full = model.forward(np.array(p + [tok]))[-1]
        assert np.max(np.abs(step[row, -1] - full)) < 1e-5


def test_failing_rows_fail_alone():
    model = tiny_model()
    model.params["tok_embed"][12] = np.nan
    # NaN embedding, too long for the window, empty, a token id past the vocabulary
    prompts = [RAGGED[0], RAGGED[1], list(range(1, 11)) * 7, [], RAGGED[4], [3, 99]]
    assert [12 in p for p in prompts] == [False, True, False, False, False, False]
    params = DecodeParams(max_new_tokens=20, seed=2)
    got = decode_batch(model, prompts, params)
    assert [g.stop == "error" for g in got] == [False, True, True, True, False, True]
    assert isinstance(got[1].error, NumericError)
    assert "generation step 0" in str(got[1].error)
    assert "context window" in str(got[2].error)
    assert "non-empty" in str(got[3].error)
    assert "out of range" in str(got[5].error)
    for i in (0, 4):
        assert got[i].tokens == decode(model, prompts[i], params)
    with pytest.raises(NumericError, match="non-finite"):
        got[1].unwrap()


def test_stop_reasons_and_counts():
    model = tiny_model()
    for greedy in (True, False):
        got = decode_batch(model, RAGGED, DecodeParams(max_new_tokens=20, seed=3), greedy=greedy)
        for prompt, generation in zip(RAGGED, got):
            budget = room(prompt, 20)
            assert generation.error is None
            assert (generation.stop == "budget") == (len(generation.tokens) == budget)
            assert generation.stop in ("eos", "budget")
        assert {g.stop for g in got} == {"eos", "budget"}
    assert [g.stop for g in decode_batch(model, RAGGED[:2], DecodeParams(max_new_tokens=0))] == [
        "budget", "budget"
    ]
