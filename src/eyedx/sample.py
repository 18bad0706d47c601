"""Autoregressive decoding: repetition penalty, temperature, top-k, top-p.

The stage order is fixed: penalty, then temperature, then top-k, then
top-p, then renormalize and sample. Each stage at its neutral value
(penalty 1, temperature 1, top_k >= vocab, top_p 1) is skipped outright, so
neutral settings reproduce plain softmax sampling exactly rather than
approximately. Greedy decoding is top_k=1 with repetition_penalty=1.

decode_batch is the one way to decode: it prefills a batch of prompts into
one KV cache with Model.prefill, steps the live rows in lockstep with
Model.step, and samples all live rows of a step in one pass: filter_logits
over the (R, V) logits and seen mask of its rows with finite logits, then
draw over those with finite probabilities, which reproduces each row's
Generator.choice; a row whose logits or probabilities are not finite fails
alone. A greedy step (top_k=1) whose rows each have one finite top takes
the argmax instead, with the same tokens and streams.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EyedxError, NumericError
from .model import Model
from .numerics import softmax
from .shards import forked
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise DataError(f"temperature must be finite and > 0, got {self.temperature}")
        if not (isinstance(self.max_new_tokens, numbers.Integral) and self.max_new_tokens >= 0):
            raise DataError(f"max_new_tokens must be an integer >= 0, got {self.max_new_tokens}")
        if not (isinstance(self.top_k, numbers.Integral) and self.top_k >= 1):
            raise DataError(f"top_k must be an integer >= 1, got {self.top_k}")
        if not 0 < self.top_p <= 1:
            raise DataError(f"top_p must be in (0, 1], got {self.top_p}")
        if not (math.isfinite(self.repetition_penalty) and self.repetition_penalty >= 1):
            raise DataError(
                f"repetition_penalty must be finite and >= 1, got {self.repetition_penalty}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DataError(f"seed must be an integer >= 0, got {self.seed}")


def filter_logits(logits: np.ndarray, seen: np.ndarray, params: DecodeParams) -> np.ndarray:
    """Each row's probability vector after all active stages, every row at once.

    logits is (R, V) and seen an (R, V) bool mask of the ids each row has
    seen. The result is (R, V), and each row is, bit for bit, what that row
    filtered alone gives. Rows must be finite.
    """
    logits, seen = np.asarray(logits), np.asarray(seen)
    if logits.ndim != 2 or seen.dtype != bool or seen.shape != logits.shape:
        raise DataError(f"filter_logits takes (R, V) logits and a bool seen mask of their "
                        f"shape, got logits {logits.shape} and seen {seen.dtype} {seen.shape}")
    z = _scaled(logits, seen, params)
    vocab = z.shape[1]

    if params.top_k < vocab:
        cut = np.partition(z, -params.top_k, axis=1)[:, -params.top_k, None]
        z[z < cut] = -np.inf

    probs = softmax(z)

    if params.top_p < 1.0:
        order = np.argsort(-probs, axis=1, kind="stable")
        rows = np.arange(len(probs))[:, None]
        ranked = probs[rows, order]
        # smallest prefix whose mass reaches top_p; the top token always stays
        keep = (ranked.cumsum(axis=1) < params.top_p).sum(axis=1, keepdims=True) + 1
        ranked[np.arange(vocab) >= keep] = 0.0
        probs[rows, order] = ranked

    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def _scaled(logits: np.ndarray, seen: np.ndarray, params: DecodeParams) -> np.ndarray:
    """The stages ahead of the top-k cut: the logits in float64, with the
    repetition penalty on the seen entries and the temperature applied."""
    z = logits.astype(np.float64)
    if params.repetition_penalty != 1.0:  # only the seen entries change
        penalty = params.repetition_penalty
        zs = z[seen]
        z[seen] = np.where(zs > 0, zs / penalty, zs * penalty)
    if params.temperature != 1.0:
        z /= params.temperature
    return z


def _argmax(logits: np.ndarray, seen: np.ndarray, rngs, params: DecodeParams):
    """A top_k=1 step's draws without the sampling stages, or None.

    Where every scaled logit is finite and each row's top is unique, the
    top-k cut leaves each row one token of probability 1, so draw returns its
    argmax whatever random() gives. Each row takes that argmax, and its
    generator advances by the one random() draw takes. Otherwise this returns
    None and the step samples as any other: a tie breaks by the row's
    stream, and a non-finite row fails alone."""
    z = _scaled(logits, seen, params)
    if not np.isfinite(z).all() or np.count_nonzero(z == z.max(axis=1, keepdims=True)) != len(z):
        return None
    for rng in rngs:
        rng.random()
    return z.argmax(axis=1)


def draw(probs: np.ndarray, rngs) -> np.ndarray:
    """One token per row of probs (R, V), from that row's generator: the index
    rngs[r].choice(V, p=probs[r]) returns, with the generator left where
    choice leaves it. Like choice, it takes one random() per row and counts
    the entries of the normalized cdf at or below it, a right-sided search."""
    cdf = probs.cumsum(axis=1)
    if not np.isfinite(cdf[:, -1]).all():  # where choice raises ValueError
        raise NumericError("non-finite probabilities: the temperature or penalty overflowed")
    cdf /= cdf[:, -1:]
    u = np.array([rng.random() for rng in rngs])
    return (cdf <= u[:, None]).sum(axis=1)


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


def decode_batch(model: Model, prompts, params: DecodeParams) -> list[Generation]:
    """Continue every prompt, all rows in lockstep through one batched cache.

    Each row's budget is params.max_new_tokens clamped to the room its prompt
    leaves in the context window. Rows sample from their own
    default_rng(params.seed), so each gets the stream it would get alone.
    An (R, V) mask of the ids each live row has seen, set from the prompts
    and by each emitted token, feeds the repetition penalty. A row retires
    at eos or at its budget. A row that cannot start (empty
    prompt, bad token id, no room), meets non-finite logits or filters them
    to non-finite probabilities fails alone with its error in its
    Generation; the other rows' streams go on untouched.

    The rows that can start run as shards.forked cuts them by prompt length
    plus budget.
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

    cuts, run = forked(np.array([len(prompts[i]) + budget[i] for i in live]))
    shards = [live[rows] for rows in cuts]

    def lockstep(rows):
        return _lockstep(model, [prompts[i] for i in rows], [budget[i] for i in rows], params)

    for rows, generations in zip(shards, run(lockstep, shards)):
        for i, generation in zip(rows, generations):
            results[i] = generation
    return results


def _lockstep(model: Model, prompts, budget, params: DecodeParams) -> list[Generation]:
    """decode_batch's continuations of prompts that can start, each with a
    positive budget."""
    results = [Generation([], "budget") for _ in prompts]
    live = list(range(len(prompts)))
    # as many slots as the neediest row's prompt plus budget, not the whole window
    cache, logits = model.prefill(prompts, max(len(ids) + n for ids, n in zip(prompts, budget)))
    rngs = [np.random.default_rng(params.seed) for _ in live]
    seen = np.zeros(logits.shape, dtype=bool)
    for row, ids in enumerate(prompts):
        seen[row, ids] = True
    while live:
        rows = np.arange(len(live))  # an argmax step draws every row
        drawn = _argmax(logits, seen, rngs, params) if params.top_k == 1 else None
        if drawn is None:
            rows, drawn = _draw_rows(logits, seen, rngs, params, live, results)
        seen[rows, drawn] = True
        nxt, keep = [], []
        for row, tok in zip(rows.tolist(), drawn.tolist()):
            i = live[row]
            if tok == EOS_ID:
                results[i].stop = "eos"
                continue
            out = results[i].tokens
            out.append(tok)
            if len(out) < budget[i]:
                nxt.append(tok)
                keep.append(row)
        if len(keep) < len(live):
            cache.keep(keep)
            live = [live[row] for row in keep]
            rngs = [rngs[row] for row in keep]
            seen = seen[keep]
        if live:
            logits = model.step(np.array(nxt), cache)
    return results


def _draw_rows(logits, seen, rngs, params: DecodeParams, live, results):
    """A sampled step's draws: the rows whose logits and filtered
    probabilities are finite draw, in one filter_logits and one draw; the
    others fail, each with its error put in results. Returns the rows that
    drew and their tokens."""
    finite = np.isfinite(logits).all(axis=1)
    rows = np.flatnonzero(finite)
    probs = filter_logits(logits[rows], seen[rows], params)
    # an overflowing temperature or penalty leaves a row no distribution
    drawable = np.isfinite(probs).all(axis=1)
    if len(rows) < len(live) or not drawable.all():  # a row fails alone
        failed = [(row, "logits") for row in np.flatnonzero(~finite)]
        failed += [(row, "probabilities (the temperature or penalty overflowed)")
                   for row in rows[~drawable]]
        for row, what in failed:
            out = results[live[row]].tokens
            error = NumericError(f"non-finite {what} at generation step {len(out)}")
            results[live[row]] = Generation(out, "error", error)
        rows, probs = rows[drawable], probs[drawable]
    return rows, draw(probs, [rngs[row] for row in rows.tolist()])


def decode(model: Model, prompt_ids, params: DecodeParams) -> list[int]:
    """One prompt's generated ids, eos excluded; its error raised if it fails."""
    return decode_batch(model, [prompt_ids], params)[0].unwrap()
