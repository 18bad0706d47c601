"""Decoding stages, neutrality guarantees, greedy/cache equivalences."""

import os
import signal
import threading
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from eyedx import DataError, NumericError
from eyedx import model as model_module
from eyedx import sample as sample_module
from eyedx import shards as shards_module
from eyedx.lora import attach
from eyedx.model import BLOCK, HEAD_COLUMNS, Model, ModelConfig, init_params
from eyedx.numerics import softmax
from eyedx.sample import DecodeParams, decode, decode_batch, draw, filter_logits
from eyedx.tokenizer import PAD_ID
from oracles import filter_logits_row, recompute_greedy, recompute_sampled

RNG = np.random.default_rng(23)

CFG = ModelConfig(
    d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24, vocab_size=13, max_seq_len=64
)


def tiny_model():
    return Model(CFG, init_params(CFG, seed=4, scale=0.5))


def greedy(max_new_tokens, **kw):
    return DecodeParams(max_new_tokens=max_new_tokens, top_k=1, repetition_penalty=1.0, **kw)


def neutral(**kw):
    base = dict(temperature=1.0, repetition_penalty=1.0, top_k=10**9, top_p=1.0, seed=0)
    base.update(kw)
    return DecodeParams(**base)


def filter_row(logits, seen_ids, params):
    """filter_logits on one (V,) row of logits that has seen seen_ids, passed
    as a batch of one row."""
    seen = np.isin(np.arange(len(logits)), list(seen_ids))[None]
    return filter_logits(logits[None], seen, params)[0]


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
    for bad in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite"):
            DecodeParams(temperature=bad)
        with pytest.raises(DataError, match="finite"):
            DecodeParams(repetition_penalty=bad)
    with pytest.raises(DataError, match="seed must be an integer >= 0"):
        DecodeParams(seed=-1)


# ------------------------------------------------------------- stages


def test_repetition_penalty_adopted_convention():
    # a seen token's positive logit 2.6 shrinks to 2.0 under penalty 1.3
    logits = np.array([2.6, 1.0, -1.3, 0.0])
    probs = filter_row(logits, {0, 2}, neutral(repetition_penalty=1.3))
    adjusted = np.array([2.0, 1.0, -1.69, 0.0])  # negative logits are multiplied
    assert np.allclose(probs, softmax(adjusted), atol=1e-12)


def test_temperature_stage():
    logits = RNG.standard_normal(9)
    probs = filter_row(logits, set(), neutral(temperature=0.5))
    assert np.allclose(probs, softmax(logits / 0.5), atol=1e-12)


def test_top_k_keeps_k_largest():
    logits = np.array([0.1, 3.0, 2.0, -1.0, 2.5])
    probs = filter_row(logits, set(), neutral(top_k=3))
    assert (probs > 0).sum() == 3
    assert set(np.nonzero(probs)[0]) == {1, 2, 4}
    expect = softmax(np.array([3.0, 2.0, 2.5]))
    assert np.allclose(sorted(probs[probs > 0]), sorted(expect), atol=1e-12)


def test_top_p_smallest_sufficient_set():
    # probabilities 0.5, 0.3, 0.15, 0.05; thresholds sit off the cumulative
    # boundaries because 0.5 + 0.3 is 0.7999... in binary
    logits = np.log(np.array([0.5, 0.3, 0.15, 0.05]))
    probs = filter_row(logits, set(), neutral(top_p=0.79))
    assert np.allclose(probs, [0.625, 0.375, 0.0, 0.0], atol=1e-9)
    probs = filter_row(logits, set(), neutral(top_p=0.81))
    assert (probs > 0).sum() == 3


def test_top_p_always_keeps_top_token():
    logits = np.array([5.0, 0.0, 0.0])
    probs = filter_row(logits, set(), neutral(top_p=0.01))
    assert probs[0] == 1.0


def test_neutral_params_reduce_to_plain_softmax():
    logits = RNG.standard_normal(16) * 3
    probs = filter_row(logits, set(range(8)), neutral())
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
        got = filter_row(logits, seen, neutral(**kw))
        expect = reference_pipeline(logits, seen, **ref_kw)
        assert np.allclose(got, expect, atol=1e-12), param


def test_full_pipeline_matches_reference():
    logits = RNG.standard_normal(15) * 3
    seen = {1, 2, 10}
    got = filter_row(
        logits, seen, neutral(repetition_penalty=1.3, temperature=0.9, top_k=7, top_p=0.85)
    )
    expect = reference_pipeline(logits, seen, penalty=1.3, temperature=0.9, top_k=7, top_p=0.85)
    assert np.allclose(got, expect, atol=1e-12)


@pytest.mark.parametrize(
    "logits, seen",
    [
        (np.ones(4), np.zeros(4, dtype=bool)),
        (np.ones((1, 2, 4)), np.zeros((1, 2, 4), dtype=bool)),
        (np.ones((2, 4)), np.zeros((2, 3), dtype=bool)),
        (np.ones((2, 4)), np.zeros((2, 4), dtype=np.int64)),
        (np.ones((1, 4)), [[0, 3]]),
    ],
    ids=["one-row", "three-axes", "seen-of-another-shape", "seen-of-ints", "seen-as-ids"],
)
def test_filter_logits_takes_rows_and_a_bool_seen_mask_of_their_shape(logits, seen):
    with pytest.raises(DataError, match=r"filter_logits takes \(R, V\) logits") as err:
        filter_logits(logits, seen, DecodeParams())
    assert "\n" not in str(err.value)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 6),
    vocab=st.integers(2, 40),
    penalty=st.just(1.0) | st.floats(1.0, 3.0),
    temperature=st.just(1.0) | st.floats(0.05, 5.0),
    top_k=st.integers(1, 45) | st.just(10**9),
    top_p=st.sampled_from([1.0, 1e-12]) | st.floats(1e-6, 1.0),
)
def test_row_wise_filter_equals_the_per_row_filter(
    data, rows, vocab, penalty, temperature, top_k, top_p
):
    """Every row of one (R, V) call is, bit for bit, that row filtered alone.
    Logits drawn from a few values tie at the top-k cut."""
    values = st.floats(-30, 30) | st.sampled_from([-1.0, 0.0, 2.5])
    logits = data.draw(arrays(np.float64, (rows, vocab), elements=values))
    seen = data.draw(arrays(np.bool_, (rows, vocab)))
    params = DecodeParams(
        repetition_penalty=penalty, temperature=temperature, top_k=top_k, top_p=top_p
    )
    got = filter_logits(logits, seen, params)
    assert got.shape == (rows, vocab)
    for row in range(rows):
        want = filter_logits_row(logits[row], np.flatnonzero(seen[row]), params)
        assert np.array_equal(got[row], want)
        alone = filter_logits(logits[row : row + 1], seen[row : row + 1], params)
        assert np.array_equal(alone[0], want)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 8),
    vocab=st.integers(100, 300),
    dtype=st.sampled_from([np.float32, np.float64]),
    params=st.just(DecodeParams()) | st.builds(
        DecodeParams,
        temperature=st.just(1.0) | st.floats(0.05, 5.0),
        repetition_penalty=st.just(1.0) | st.floats(1.0, 3.0),
        top_k=st.integers(1, 320),
        top_p=st.just(1.0) | st.floats(1e-6, 1.0),
    ),
)
def test_filter_at_the_benchmark_vocabulary_equals_the_per_row_oracle(
    data, rows, vocab, dtype, params
):
    """At the benchmark's vocabulary (162) and around it, with default and
    random settings, every row of filter_logits is, bit for bit, the per-row
    oracle's. Logits drawn from a few values tie at the top-k cut and in the
    top-p ranking."""
    values = st.sampled_from([-4.0, -1.0, 0.0, 0.5, 2.5, 7.0]) | st.floats(-30, 30, width=32)
    logits = data.draw(arrays(dtype, (rows, vocab), elements=values))
    seen = data.draw(arrays(np.bool_, (rows, vocab)))
    got = filter_logits(logits, seen, params)
    for row in range(rows):
        want = filter_logits_row(logits[row], np.flatnonzero(seen[row]), params)
        assert np.array_equal(got[row], want)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 6),
    vocab=st.integers(1, 40),
    shape=st.sampled_from(["spread", "one", "last"]),
)
def test_draw_reproduces_generator_choice(data, rows, vocab, shape):
    """draw is Generator.choice(V, p=p) unrolled over rows, so it is tied to
    numpy's implementation of choice: each row draws the index choice draws
    and leaves its generator where choice leaves it."""
    weights = data.draw(arrays(np.float64, (rows, vocab), elements=st.floats(0, 1) | st.just(0.0)))
    if shape == "one":  # a single nonzero entry
        hot = data.draw(arrays(np.int64, rows, elements=st.integers(0, vocab - 1)))
        weights = np.eye(vocab)[hot]
    elif shape == "last":  # mass only at the end
        weights[:, : vocab // 2] = 0.0
    weights[weights.sum(axis=1) == 0, -1] = 1.0
    probs = weights / weights.sum(axis=1, keepdims=True)
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=rows, max_size=rows))
    mine = [np.random.default_rng(s) for s in seeds]
    theirs = [np.random.default_rng(s) for s in seeds]
    got = draw(probs, mine)
    for row in range(rows):
        assert got[row] == theirs[row].choice(vocab, p=probs[row])
        assert mine[row].random() == theirs[row].random()


@pytest.mark.parametrize("short", [0.0, 2**-53])
def test_draw_matches_choice_where_u_meets_the_cdf(short):
    """Built so that the row's random() u lands on its first cdf entry. With a
    cdf ending at exactly 1, choice's right-sided search goes past that entry;
    with one ending `short` of 1, choice's normalization lifts the entry past u."""
    u = np.random.default_rng(0).random()
    probs = np.array([[u, 1 - short - u]])
    assert (probs[0, 0] / probs.sum() > u) == (short > 0)
    got = draw(probs, [np.random.default_rng(0)])
    assert got[0] == np.random.default_rng(0).choice(2, p=probs[0]) == (1 if short == 0 else 0)


@pytest.mark.parametrize("top_p", [0.25, 0.5, 0.75])
def test_row_wise_top_p_on_an_exact_boundary(top_p):
    # uniform rows of 4 and 8 put top_p exactly on a cumulative sum, where the
    # smallest sufficient prefix stops at that entry
    logits = np.array([[0.0] * 4 + [-np.inf] * 4, [1.0] * 8])
    got = filter_logits(logits, np.zeros(logits.shape, dtype=bool), neutral(top_p=top_p))
    for row in range(2):
        want = filter_logits_row(logits[row], [], neutral(top_p=top_p))
        assert np.array_equal(got[row], want)
    assert (got[0] > 0).sum() == top_p * 4


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
    # an over-budget call is clamped to the room its prompt leaves
    out = decode(model, [5, 9, 2], greedy(CFG.max_seq_len))
    assert len(out) == room([5, 9, 2], CFG.max_seq_len)


def test_greedy_same_prompt_twice_identical():
    model = tiny_model()
    a = decode(model, [3, 8, 1, 4], greedy(24))
    b = decode(model, [3, 8, 1, 4], greedy(24))
    assert a == b


def test_greedy_zero_budget_is_empty():
    assert decode(tiny_model(), [3, 8], greedy(0)) == []


def test_top_k_one_equals_greedy():
    model = tiny_model()
    prompt = [5, 9, 2]
    expect = recompute_greedy(model, prompt, 24)
    for seed in range(4):
        sampled = decode(
            model,
            prompt,
            DecodeParams(
                max_new_tokens=24, top_k=1, repetition_penalty=1.0, temperature=0.7, seed=seed
            ),
        )
        assert sampled == expect


def test_tiny_temperature_matches_greedy():
    model = tiny_model()
    prompt = [7, 2]
    expect = recompute_greedy(model, prompt, 32)
    sampled = decode(
        model,
        prompt,
        DecodeParams(
            max_new_tokens=32, temperature=1e-6, top_k=40, repetition_penalty=1.0, seed=11
        ),
    )
    assert sampled == expect


def test_greedy_with_cache_matches_full_recompute():
    model = tiny_model()
    prompt = [5, 9, 2, 11]
    out = decode(model, prompt, greedy(32))  # cache path
    assert out == recompute_greedy(model, prompt, 32)
    seq = prompt + out

    # and the final-position logits agree closely between the two paths
    cache, (cached_logits,) = model.prefill([seq[: len(prompt)]], CFG.max_seq_len)
    for tok in seq[len(prompt) :]:
        cached_logits = model.step(np.array([tok]), cache)[0]
    full_logits = model.forward(np.asarray(seq))[-1]
    assert np.max(np.abs(cached_logits - full_logits)) < 1e-5


def test_non_finite_logits_raise_numeric_error():
    model = tiny_model()
    model.params["lm_head"][:, 5] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        decode(model, [1, 2, 3], neutral(max_new_tokens=3))
    with pytest.raises(NumericError, match="non-finite"):
        decode(model, [1, 2, 3], greedy(3))


def test_overflowing_temperature_is_a_numeric_error():
    # logits / 1e-320 overflow to inf, and the softmax of inf - inf is nan
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite probabilities"):
        decode(tiny_model(), [5, 9, 2], DecodeParams(temperature=1e-320, max_new_tokens=4))


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


def test_batched_greedy_matches_one_row_decoding():
    model = tiny_model()
    got = decode_batch(model, RAGGED, greedy(20))
    for prompt, generation in zip(RAGGED, got):
        alone = decode(model, prompt, greedy(room(prompt, 20)))
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


@pytest.mark.parametrize("seed", [0, 5])
def test_batched_sampling_matches_the_per_row_oracle(seed):
    """All rows filtered and drawn in one pass give each row the tokens of the
    per-row filter and Generator.choice, rerun without a cache; the penalty
    sees each row's prompt and what it has emitted so far."""
    model = tiny_model()
    params = DecodeParams(seed=seed)
    for prompt, generation in zip(RAGGED, decode_batch(model, RAGGED, params)):
        assert generation.tokens == recompute_sampled(model, prompt, params, room(prompt, 512))


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
    step = model.step(np.array([4, 6, 8]), cache)
    for row, (p, tok) in enumerate(zip(prompts, (4, 6, 8))):
        full = model.forward(np.array(p + [tok]))[-1]
        assert np.max(np.abs(step[row] - full)) < 1e-5


def close(got, want, rtol):
    return np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 20), min_size=1, max_size=5),
    same=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(lengths=[7, 7, 7], same=True, seed=0)  # every position kept: the rows pass through
@example(lengths=[1, 1], same=True, seed=0)  # one token per row
def test_pad_free_prefill_matches_one_row_prefill(lengths, same, seed):
    """decode_batch's prefill, which runs only the prompts' real tokens, against
    each prompt prefilled alone: the logits, the cache and the next step. In
    float64, because in float32 the two differ by BLAS rounding alone, up to
    about 4e-6 relative, as the padded grid prefill did."""
    model = Model(CFG, init_params(CFG, seed=4, scale=0.5, dtype=np.float64))
    rng = np.random.default_rng(seed)
    if same:
        lengths = [lengths[0]] * len(lengths)
    prompts = [rng.integers(0, CFG.vocab_size, n) for n in lengths]
    lengths = np.array(lengths)
    kept = np.arange(lengths.max()) < lengths[:, None]
    batch = np.full(kept.shape, PAD_ID)
    batch[kept] = np.concatenate(prompts)
    cache = model.new_cache(len(prompts))
    logits = model._run(batch, cache, None, kept).reshape(-1, CFG.vocab_size)
    assert logits.shape == (lengths.sum(), CFG.vocab_size)
    assert np.array_equal(cache.lengths, lengths)
    nxt = rng.integers(0, CFG.vocab_size, (len(prompts), 1))
    step = model.step(nxt[:, 0], cache)

    for row, (prompt, last) in enumerate(zip(prompts, np.cumsum(lengths) - 1)):
        alone = model.new_cache()
        want = model.forward(prompt, alone)[-1]
        assert close(logits[last], want, 1e-6)
        for layer in range(CFG.n_layers):
            for got_kv, want_kv in ((cache.k, alone.k), (cache.v, alone.v)):
                assert close(got_kv[layer][row, : len(prompt)], want_kv[layer][0, : len(prompt)],
                             1e-6)
        assert close(step[row], model.forward(nxt[row], alone)[-1], 1e-5)


def test_prefill_runs_one_row_per_prompt_past_the_last_attention(monkeypatch):
    """Past the last layer's keys and values only each prompt's last token
    goes on: the last FFN sees one row per prompt."""
    rows = []
    silu = model_module.silu

    def recording(z):
        rows.append(z.shape[0] * z.shape[1])
        return silu(z)

    monkeypatch.setattr(model_module, "silu", recording)
    monkeypatch.setattr(shards_module, "_shard_count", lambda rows: 1)  # record every row here
    decode_batch(tiny_model(), RAGGED[:3], greedy(1))  # the prefill alone: one token each
    assert rows == [sum(len(p) for p in RAGGED[:3])] * (CFG.n_layers - 1) + [3]


def test_cached_step_keeps_per_row_products():
    """A cached step of one token per row runs each row's products in fixed
    blocks of BLOCK rows, so rows whose caches hold as many positions get,
    bit for bit, the logits each gets stepped alone from its own copy of the
    cache. At d_model 64 a flat GEMM over the rows rounds differently on
    OpenBLAS."""
    config = replace(CFG, d_model=64, d_ff=96)
    model = Model(config, init_params(config, seed=4, scale=0.5))
    prompts = np.random.default_rng(3).integers(0, CFG.vocab_size, (4, 9))
    cache = model.new_cache(4)
    model.forward(prompts, cache)
    alone = [deepcopy(cache) for _ in range(4)]
    nxt = np.array([[4], [6], [8], [1]])
    got = model.step(nxt[:, 0], cache)
    for row, own in enumerate(alone):
        own.keep([row])
        assert np.array_equal(got[row], model.step(nxt[row], own)[0])


@pytest.mark.parametrize("adapter", [False, True], ids=["base", "adapter"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cached_step_rows_keep_their_bits_in_any_batch(dtype, adapter):
    """For 1 to 9 rows, each row of a cached step gets, bit for bit, the
    logits and cache entries it gets stepped alone from its own copy of the
    cache, and the rows stepped in reverse order get the same logits: a row's
    bits depend neither on the block it lands in, nor on its place there, nor
    on what the block's other rows hold, zero pad rows included. The
    vocabulary spans two full HEAD_COLUMNS-wide lm_head GEMMs and a part."""
    config = replace(CFG, d_model=64, d_ff=96, vocab_size=2 * HEAD_COLUMNS + 77)
    model = Model(config, init_params(config, seed=4, scale=0.5, dtype=dtype))
    rng = np.random.default_rng(8)
    if adapter:
        for b in attach(model, rank=4, alpha=8.0).b.values():
            b[...] = rng.standard_normal(b.shape)
    for n in range(1, 10):
        cache = model.new_cache(n)
        model.forward(rng.integers(0, CFG.vocab_size, (n, 9)), cache)
        nxt = rng.integers(0, CFG.vocab_size, (n, 1))
        alone = [deepcopy(cache) for _ in range(n)]
        backward = deepcopy(cache)
        backward.keep(np.arange(n)[::-1])
        got = model.step(nxt[:, 0], cache)
        assert np.array_equal(model.step(nxt[::-1, 0], backward), got[::-1]), n
        for row, own in enumerate(alone):
            own.keep([row])
            assert np.array_equal(got[row], model.step(nxt[row], own)[0]), (n, row)
            for got_kv, own_kv in ((cache.k, own.k), (cache.v, own.v)):
                assert all(np.array_equal(g[row], o[0]) for g, o in zip(got_kv, own_kv))


@pytest.mark.parametrize("n", [1, 3, 5])
def test_cached_step_over_several_head_column_gemms_matches_recompute(n):
    """With a vocabulary of two full HEAD_COLUMNS-wide lm_head GEMMs and a
    part, each row's cached-step logits equal its last position's logits
    recomputed from scratch, every column in its place."""
    config = replace(CFG, vocab_size=2 * HEAD_COLUMNS + 77)
    model = Model(config, init_params(config, seed=4, scale=0.5))
    rng = np.random.default_rng(n)
    prompts = rng.integers(0, config.vocab_size, (n, 7))
    nxt = rng.integers(0, config.vocab_size, (n, 1))
    cache = model.new_cache(n)
    model.forward(prompts, cache)
    got = model.step(nxt[:, 0], cache)
    want = model.forward(np.concatenate([prompts, nxt], axis=1))[:, -1]
    assert got.shape == (n, config.vocab_size)
    assert close(got, want, 1e-5)


def test_cached_step_of_mixed_width_weights_keeps_the_wider_dtype():
    """With one float64 norm gain in a float32 model, attention's context is
    float64; a cached step keeps it so, as the full forward does, and its
    logits match the recomputed ones."""
    params = init_params(CFG, seed=4, scale=0.5)
    params["layers.0.attn_norm"] = params["layers.0.attn_norm"].astype(np.float64)
    model = Model(CFG, params)
    prompts = RNG.integers(0, CFG.vocab_size, (3, 6))
    nxt = RNG.integers(0, CFG.vocab_size, (3, 1))
    cache = model.new_cache(3)
    model.forward(prompts, cache)
    got = model.step(nxt[:, 0], cache)
    want = model.forward(np.concatenate([prompts, nxt], axis=1))[:, -1]
    assert got.dtype == want.dtype == np.float64
    assert close(got, want, 1e-5)


@pytest.mark.parametrize("n", range(1, 10))
def test_cached_step_runs_its_rows_in_blocks(monkeypatch, n):
    """A cached step of n rows sends ceil(n / BLOCK) blocks of BLOCK rows
    through each layer's FFN: the products run on fixed-shape blocks, not
    one row at a time and not as one flat GEMM."""
    shapes = []
    silu = model_module.silu

    def recording(z):
        shapes.append(z.shape[:-1])
        return silu(z)

    model = tiny_model()
    cache = model.new_cache(n)
    model.forward(RNG.integers(0, CFG.vocab_size, (n, 3)), cache)
    monkeypatch.setattr(model_module, "silu", recording)
    model.step(RNG.integers(0, CFG.vocab_size, n), cache)
    assert shapes == [(-(-n // BLOCK), BLOCK)] * CFG.n_layers


def test_decode_sizes_the_cache_by_need(monkeypatch):
    model = tiny_model()
    caches = []
    new_cache = model.new_cache

    def recording(*args):
        caches.append(new_cache(*args))
        return caches[-1]

    monkeypatch.setattr(model, "new_cache", recording)
    monkeypatch.setattr(shards_module, "_shard_count", lambda rows: 1)  # one cache per call
    decode_batch(model, [[5, 9, 2], [3, 8, 1, 4, 7], [11]], greedy(6))
    # the neediest row holds 5 prompt tokens and 6 new ones, of a 64-token window
    decode_batch(model, [RAGGED[3], [7, 2]], greedy(20))  # 60 + a budget clamped to 4
    assert [c.capacity for c in caches] == [11, CFG.max_seq_len]
    for cache in caches:
        shape = (cache.batch, cache.capacity, CFG.n_kv_heads, CFG.head_dim)
        assert [k.shape for k in cache.k] == [v.shape for v in cache.v] == [shape] * CFG.n_layers


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


@settings(max_examples=30, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    sampled=st.booleans(),
    seed=st.integers(0, 2**16),
    prompts=st.lists(st.lists(st.integers(0, CFG.vocab_size - 1), min_size=1, max_size=20),
                     min_size=1, max_size=6),
)
def test_every_sampled_step_draws_through_the_per_row_split(dtype, sampled, seed, prompts):
    """A step that does not take the argmax draws through _draw_rows once,
    every row finite or not: ragged sampled batches call it once per prefill
    and per cached step, and greedy batches on untied logits never."""
    model = Model(CFG, init_params(CFG, seed=4, scale=0.5, dtype=dtype))
    params = DecodeParams(max_new_tokens=12, seed=seed) if sampled else greedy(12, seed=seed)
    calls = {"logits": 0, "split": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_module, "_shard_count", lambda rows: 1)  # count in this process
        patch.setattr(model, "prefill", counting("logits", model.prefill))
        patch.setattr(model, "step", counting("logits", model.step))
        patch.setattr(sample_module, "_draw_rows", counting("split", sample_module._draw_rows))
        got = decode_batch(model, prompts, params)
    assert all(g.error is None for g in got)
    assert calls["logits"] > 0
    assert calls["split"] == (calls["logits"] if sampled else 0)


def rounded(model, levels):
    """model with its prefill and step logits rounded to multiples of
    1/levels, so that tops tie; levels None leaves them as they are."""
    if levels is None:
        return model
    prefill, step = model.prefill, model.step

    def round_prefill(prompts, capacity):
        cache, logits = prefill(prompts, capacity)
        return cache, np.round(logits * levels) / levels

    model.prefill = round_prefill
    model.step = lambda tokens, cache: np.round(step(tokens, cache) * levels) / levels
    return model


def greedy_both_ways(model, prompts, params):
    """decode_batch's Generations with the argmax path, those with every step
    forced through filter_logits and draw, and how many steps took the argmax
    and how many fell back from it, all in this process."""
    taken = {"argmax": 0, "fallback": 0}
    argmax = sample_module._argmax

    def counting(*args):
        drawn = argmax(*args)
        taken["fallback" if drawn is None else "argmax"] += 1
        return drawn

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(shards_module, "_shard_count", lambda rows: 1)
        patch.setattr(sample_module, "_argmax", counting)
        fast = decode_batch(model, prompts, params)
        patch.setattr(sample_module, "_argmax", lambda *args: None)
        general = decode_batch(model, prompts, params)
    return fast, general, taken


@settings(max_examples=60, deadline=None)
@given(
    dtype=st.sampled_from([np.float32, np.float64]),
    levels=st.sampled_from([None, 1, 2, 8]),
    penalty=st.sampled_from([1.0, 1.3, 2.0]),
    temperature=st.sampled_from([1.0, 0.5, 0.9, 2.0]),
    top_p=st.sampled_from([1.0, 0.5]),
    seed=st.integers(0, 2**16),
    prompts=st.lists(st.lists(st.integers(0, CFG.vocab_size - 1), min_size=1, max_size=60),
                     min_size=1, max_size=6),
)
def test_greedy_argmax_steps_match_the_sampling_pipeline(dtype, levels, penalty, temperature,
                                                         top_p, seed, prompts):
    """A top_k=1 step that takes each row's argmax gives the Generations of
    the same step run through filter_logits and draw: ragged batches whose
    rows retire at eos or at their budget, logits rounded so that tops tie
    (a tied step falls back and breaks the tie by the row's stream, which
    the argmax steps before it advanced), penalty, temperature and top_p."""
    model = rounded(Model(CFG, init_params(CFG, seed=4, scale=0.5, dtype=dtype)), levels)
    params = DecodeParams(max_new_tokens=12, top_k=1, repetition_penalty=penalty,
                          temperature=temperature, top_p=top_p, seed=seed)
    fast, general, _ = greedy_both_ways(model, prompts, params)
    assert fast == general


def test_greedy_ties_fall_back_and_overflow_fails_alone():
    """On rounded logits a greedy decode takes the argmax at some steps and
    falls back at tied ones, with the Generations of the general path; a row
    whose scaled logits overflow fails alone there too."""
    model = rounded(tiny_model(), 1)
    fast, general, taken = greedy_both_ways(model, RAGGED, greedy(20, seed=5))
    assert fast == general
    assert taken["argmax"] > 0 and taken["fallback"] > 0
    assert {g.stop for g in fast} == {"eos", "budget"}
    prefill = model.prefill

    def overflowing(prompts, capacity):  # RAGGED[1], the one prompt starting with 3
        cache, logits = prefill(prompts, capacity)
        big = np.finfo(np.float64).max  # finite, but not once the temperature divides it
        return cache, np.where([[ids[0] == 3] for ids in prompts], big, logits.astype(np.float64))

    model.prefill = overflowing
    with np.errstate(all="ignore"):
        fast, general, _ = greedy_both_ways(model, RAGGED, greedy(20, seed=5, temperature=0.5))
    assert [outcome(g) for g in fast] == [outcome(g) for g in general]
    assert [g.stop == "error" for g in fast] == [i == 1 for i in range(len(RAGGED))]
    assert "non-finite probabilities" in str(fast[1].error)


def test_one_overflowing_row_fails_alone(monkeypatch):
    """A row whose filtered probabilities overflow fails alone; the other rows
    keep their streams and decode as they do alone."""
    model = tiny_model()
    marker = 12  # the prefill logits of a prompt starting with it overflow the temperature
    prefill = model.prefill

    def stub(prompts, capacity):
        cache, logits = prefill(prompts, capacity)
        logits = logits.astype(np.float64)
        logits[[ids[0] == marker for ids in prompts]] = np.finfo(np.float64).max * 0.95
        return cache, logits

    monkeypatch.setattr(model, "prefill", stub)
    prompts = [RAGGED[0], [marker] + RAGGED[1], RAGGED[2], RAGGED[4]]
    params = DecodeParams(max_new_tokens=20, seed=3)
    with np.errstate(all="ignore"):
        got = decode_batch(model, prompts, params)
        assert [g.stop == "error" for g in got] == [False, True, False, False]
        assert got[1].tokens == []
        assert "non-finite probabilities" in str(got[1].error)
        for i in (0, 2, 3):
            assert got[i].tokens == decode_batch(model, [prompts[i]], params)[0].tokens
        with pytest.raises(NumericError, match="non-finite probabilities"):
            decode(model, prompts[1], params)


def test_stop_reasons_and_counts():
    model = tiny_model()
    for params in (greedy(20, seed=3), DecodeParams(max_new_tokens=20, seed=3)):
        got = decode_batch(model, RAGGED, params)
        for prompt, generation in zip(RAGGED, got):
            budget = room(prompt, 20)
            assert generation.error is None
            assert (generation.stop == "budget") == (len(generation.tokens) == budget)
            assert generation.stop in ("eos", "budget")
        assert {g.stop for g in got} == {"eos", "budget"}
    assert [g.stop for g in decode_batch(model, RAGGED[:2], DecodeParams(max_new_tokens=0))] == [
        "budget", "budget"
    ]


# ------------------------------------------------------------- decode shards


def shard_into(monkeypatch, n):
    """Ask decode_batch for n shards, at most one per live row, and return
    the pids it forks."""
    monkeypatch.setattr(shards_module, "_shard_count", lambda rows: min(n, rows))
    forks = []
    fork = os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def outcome(generation):
    return generation.tokens, generation.stop, type(generation.error), str(generation.error)


POISON = 12  # a token whose embedding is NaN: a row that meets it has non-finite logits
# empty, a bad id, no room, non-finite logits
FAILING = [[], [3, POISON + 1], list(range(1, 11)) * 7, [4, POISON, 2]]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("params", [greedy(20, seed=1), DecodeParams(max_new_tokens=40, seed=1)],
                         ids=["greedy", "sampled"])
@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_decode_equals_one_shard(monkeypatch, single_threaded, dtype, params, shards):
    """Rows stepped in forked children come back as the Generations one
    shard gives: tokens, stop reason, error class and message."""
    model = Model(CFG, init_params(CFG, seed=4, scale=0.5, dtype=dtype))
    model.params["tok_embed"][POISON] = np.nan
    prompts = [RAGGED[0], FAILING[0], RAGGED[2], FAILING[1], RAGGED[3], RAGGED[4], FAILING[2],
               RAGGED[5], FAILING[3], RAGGED[1]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shards_module, "_shard_count", lambda rows: 1)
        want = [outcome(g) for g in decode_batch(model, prompts, params)]
    assert {stop for _, stop, _, _ in want} >= {"error", "eos"}
    forks = shard_into(monkeypatch, shards)
    got = [outcome(g) for g in decode_batch(model, prompts, params)]
    assert len(forks) == shards - 1
    assert got == want
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_killed_worker_is_a_one_line_numeric_error(monkeypatch, single_threaded):
    model = tiny_model()
    step, parent = model.step, os.getpid()

    def dying(*args, **kw):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(*args, **kw)

    monkeypatch.setattr(model, "step", dying)
    forks = shard_into(monkeypatch, 2)
    with pytest.raises(NumericError, match=f"killed by signal {int(signal.SIGKILL)}") as caught:
        decode_batch(model, RAGGED, greedy(8))
    assert len(forks) == 1 and "\n" not in str(caught.value)
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.parametrize("where", ["child", "parent"])
def test_an_error_in_either_process_is_raised_and_every_child_reaped(monkeypatch, single_threaded,
                                                                      where):
    """A child's error is raised here as it was raised there; an error in
    this process's shard kills the children still running."""
    model = tiny_model()
    step, parent = model.step, os.getpid()

    def failing(*args, **kw):
        if (os.getpid() == parent) == (where == "parent"):
            raise NumericError(f"failed in the {where}")
        return step(*args, **kw)

    monkeypatch.setattr(model, "step", failing)
    forks = shard_into(monkeypatch, 3)
    with pytest.raises(NumericError, match=f"^failed in the {where}$"):
        decode_batch(model, RAGGED, DecodeParams(max_new_tokens=30))
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_a_child_ignores_ctrl_c():
    """A Ctrl-C reaches the children too; the parent reports it, so a child's
    SIGINT does not end it without a result."""
    # KeyboardInterrupt on SIGINT, as in an interactive run; a background
    # job in a non-interactive shell starts with SIGINT ignored
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    parent = os.getpid()

    def times_ten(x):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return x * 10

    try:
        assert shards_module._fork_map(times_ten, [1, 2]) == [10, 20]
    finally:
        signal.signal(signal.SIGINT, previous)
    assert_no_child_left()


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    model = tiny_model()
    want = [outcome(g) for g in decode_batch(model, RAGGED, DecodeParams(max_new_tokens=20))]
    forks = shard_into(monkeypatch, 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        got = [outcome(g) for g in decode_batch(model, RAGGED, DecodeParams(max_new_tokens=20))]
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert forks == []
    assert got == want
