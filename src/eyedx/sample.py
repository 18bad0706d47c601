"""Autoregressive decoding: repetition penalty, temperature, top-k, top-p.

The stage order is fixed: penalty, then temperature, then top-k, then
top-p, then renormalize and sample. Each stage at its neutral value
(penalty 1, temperature 1, top_k >= vocab, top_p 1) is skipped outright, so
neutral settings reproduce plain softmax sampling exactly rather than
approximately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .model import Model
from .numerics import softmax
from .tokenizer import EOS_ID


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


def _check_finite(logits: np.ndarray, step: int) -> None:
    if not np.isfinite(logits).all():
        raise NumericError(f"non-finite logits at generation step {step}")


def decode(model: Model, prompt_ids, params: DecodeParams) -> list[int]:
    """Sample a continuation of the prompt; stops at eos or max_new_tokens.
    Returns generated ids only, eos excluded."""
    prompt_ids = list(prompt_ids)
    if not prompt_ids:
        raise DataError("decode needs a non-empty prompt")
    limit = model.config.max_seq_len
    if len(prompt_ids) + params.max_new_tokens > limit:
        raise DataError(
            f"prompt ({len(prompt_ids)}) + max_new_tokens ({params.max_new_tokens}) "
            f"exceeds max_seq_len {limit}"
        )
    rng = np.random.default_rng(params.seed)
    cache = model.new_cache()
    logits = model.forward(np.asarray(prompt_ids), cache)[-1]
    seen = set(prompt_ids)
    out: list[int] = []
    for _ in range(params.max_new_tokens):
        _check_finite(logits, len(out))
        probs = filter_logits(logits, seen, params)
        nxt = int(rng.choice(probs.shape[0], p=probs))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        seen.add(nxt)
        logits = model.forward(np.array([nxt]), cache)[-1]
    return out


def decode_greedy(model: Model, prompt_ids, max_new_tokens: int) -> list[int]:
    """Argmax continuation; the deterministic oracle for equivalence tests."""
    prompt_ids = list(prompt_ids)
    if not prompt_ids:
        raise DataError("decode needs a non-empty prompt")
    if len(prompt_ids) + max_new_tokens > model.config.max_seq_len:
        raise DataError(
            f"prompt ({len(prompt_ids)}) + max_new_tokens ({max_new_tokens}) "
            f"exceeds max_seq_len {model.config.max_seq_len}"
        )
    cache = model.new_cache()
    logits = model.forward(np.asarray(prompt_ids), cache)[-1]
    out: list[int] = []
    for _ in range(max_new_tokens):
        _check_finite(logits, len(out))
        nxt = int(np.argmax(logits))
        if nxt == EOS_ID:
            break
        out.append(nxt)
        logits = model.forward(np.array([nxt]), cache)[-1]
    return out
