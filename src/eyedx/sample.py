"""Autoregressive decoding: repetition penalty, temperature, top-k, top-p.

The stage order is fixed: penalty, then temperature, then top-k, then
top-p, then renormalize and sample. Each stage at its neutral value
(penalty 1, temperature 1, top_k >= vocab, top_p 1) is skipped outright, so
neutral settings reproduce plain softmax sampling exactly rather than
approximately.

decode_batch is the one decoding loop: it steps a batch of prompts in
lockstep through one KV cache. decode and decode_greedy are one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, EyedxError, NumericError
from .model import Model
from .numerics import softmax
from .tokenizer import EOS_ID, PAD_ID


@dataclass(frozen=True)
class DecodeParams:
    temperature: float = 0.9
    max_new_tokens: int = 512
    repetition_penalty: float = 1.3
    top_k: int = 40
    top_p: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.temperature <= 0:
            raise DataError(f"temperature must be > 0, got {self.temperature}")
        if self.max_new_tokens < 0:
            raise DataError(f"max_new_tokens must be >= 0, got {self.max_new_tokens}")
        if self.top_k < 1:
            raise DataError(f"top_k must be >= 1, got {self.top_k}")
        if not 0 < self.top_p <= 1:
            raise DataError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.repetition_penalty < 1:
            raise DataError(f"repetition_penalty must be >= 1, got {self.repetition_penalty}")


def filter_logits(logits: np.ndarray, seen_ids, params: DecodeParams) -> np.ndarray:
    """One decoding step's probability vector after all active stages."""
    z = logits.astype(np.float64).copy()
    vocab = z.shape[0]

    if params.repetition_penalty != 1.0 and len(seen_ids) > 0:
        seen = np.fromiter(set(seen_ids), dtype=np.int64)
        zs = z[seen]
        z[seen] = np.where(zs > 0, zs / params.repetition_penalty, zs * params.repetition_penalty)

    if params.temperature != 1.0:
        z = z / params.temperature

    if params.top_k < vocab:
        cut = np.partition(z, -params.top_k)[-params.top_k]
        z[z < cut] = -np.inf

    probs = softmax(z)

    if params.top_p < 1.0:
        order = np.argsort(-probs, kind="stable")
        csum = np.cumsum(probs[order])
        # smallest prefix whose mass reaches top_p; the top token always stays
        keep = int(np.searchsorted(csum, params.top_p)) + 1
        drop = order[keep:]
        probs[drop] = 0.0

    return probs / probs.sum()


@dataclass
class Generation:
    """One prompt's continuation: generated ids (eos excluded), why the row
    stopped ("eos", "budget" or "error") and, on "error", what failed."""

    tokens: list[int]
    stop: str
    error: EyedxError | None = None

    def unwrap(self) -> list[int]:
        """The generated ids, or the row's error raised."""
        if self.error is not None:
            raise self.error
        return self.tokens


def decode_batch(model: Model, prompts, params: DecodeParams,
                 greedy: bool = False) -> list[Generation]:
    """Continue every prompt, all rows in lockstep through one batched cache.

    Each row's budget is params.max_new_tokens clamped to the room its prompt
    leaves in the context window. Rows sample from their own
    default_rng(params.seed), so each gets the stream it would get alone;
    ``greedy`` takes the argmax instead. A row retires at eos or at its
    budget. A row that cannot start (empty prompt, bad token id, no room) or
    meets non-finite logits fails alone with its error in its Generation.
    """
    limit, vocab = model.config.max_seq_len, model.config.vocab_size
    prompts = [list(p) for p in prompts]
    budget = [min(params.max_new_tokens, limit - len(ids)) for ids in prompts]
    results = [Generation([], "budget") for _ in prompts]
    live = []
    for i, ids in enumerate(prompts):
        if not ids:
            error = DataError("decode needs a non-empty prompt")
        elif min(ids) < 0 or max(ids) >= vocab:
            error = DataError(f"token id out of range [0, {vocab}): {min(ids)}..{max(ids)}")
        elif len(ids) >= limit:
            error = DataError(f"prompt needs {len(ids)} tokens but the context window is {limit}")
        else:
            if budget[i] > 0:
                live.append(i)
            continue
        results[i] = Generation([], "error", error)
    if not live:
        return results

    # right-pad to one prefill; each row's pad slots lie past its length
    lengths = np.array([len(prompts[i]) for i in live])
    batch = np.full((len(live), lengths.max()), PAD_ID, dtype=np.int64)
    for row, i in enumerate(live):
        batch[row, : lengths[row]] = prompts[i]
    cache = model.new_cache(len(live))
    logits = model.forward(batch, cache)[np.arange(len(live)), lengths - 1]
    cache.lengths[:] = lengths

    rngs = [np.random.default_rng(params.seed) for _ in prompts]
    seen = [set(ids) for ids in prompts]
    while live:
        finite = np.isfinite(logits).all(axis=1)
        picks = np.argmax(logits, axis=1) if greedy else None
        nxt, keep = [], []
        for row, i in enumerate(live):
            out = results[i].tokens
            if not finite[row]:
                error = NumericError(f"non-finite logits at generation step {len(out)}")
                results[i] = Generation(out, "error", error)
                continue
            if greedy:
                tok = int(picks[row])
            else:
                probs = filter_logits(logits[row], seen[i], params)
                tok = int(rngs[i].choice(probs.shape[0], p=probs))
            if tok == EOS_ID:
                results[i].stop = "eos"
                continue
            out.append(tok)
            seen[i].add(tok)
            if len(out) < budget[i]:
                nxt.append(tok)
                keep.append(row)
        if len(keep) < len(live):
            cache.keep(keep)
            live = [live[row] for row in keep]
        if live:
            logits = model.forward(np.array(nxt)[:, None], cache)[:, -1]
    return results


def _check_budget(prompt_ids, max_new_tokens: int, limit: int) -> None:
    if not prompt_ids:
        raise DataError("decode needs a non-empty prompt")
    if len(prompt_ids) + max_new_tokens > limit:
        raise DataError(
            f"prompt ({len(prompt_ids)}) + max_new_tokens ({max_new_tokens}) "
            f"exceeds max_seq_len {limit}"
        )


def decode(model: Model, prompt_ids, params: DecodeParams) -> list[int]:
    """Sample a continuation of the prompt; stops at eos or max_new_tokens.
    Returns generated ids only, eos excluded."""
    prompt_ids = list(prompt_ids)
    _check_budget(prompt_ids, params.max_new_tokens, model.config.max_seq_len)
    return decode_batch(model, [prompt_ids], params)[0].unwrap()


def decode_greedy(model: Model, prompt_ids, max_new_tokens: int) -> list[int]:
    """Argmax continuation; the deterministic oracle for equivalence tests."""
    prompt_ids = list(prompt_ids)
    _check_budget(prompt_ids, max_new_tokens, model.config.max_seq_len)
    params = DecodeParams(max_new_tokens=max(max_new_tokens, 0))
    return decode_batch(model, [prompt_ids], params, greedy=True)[0].unwrap()
