"""Autoregressive decoding: repetition penalty, temperature, top-k, top-p.

The stage order is fixed: penalty, then temperature, then top-k, then
top-p, then renormalize and sample. Each stage at its neutral value
(penalty 1, temperature 1, top_k >= vocab, top_p 1) is skipped outright, so
neutral settings reproduce plain softmax sampling exactly rather than
approximately. Greedy decoding is top_k=1 with repetition_penalty=1.

decode_batch is the one way to decode: it steps a batch of prompts in
lockstep through one KV cache, and samples all live rows of a step in one
pass: filter_logits over their (R, V) logits and seen mask, then draw, which
reproduces each row's Generator.choice. Where BLAS leaves cores idle, the
rows run as shards, each but the first in a process forked for the call.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DataError, EyedxError, NumericError
from .model import Model, _shard_count, _split_rows
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
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise DataError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.max_new_tokens < 0:
            raise DataError(f"max_new_tokens must be >= 0, got {self.max_new_tokens}")
        if self.top_k < 1:
            raise DataError(f"top_k must be >= 1, got {self.top_k}")
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
    z = logits.astype(np.float64)
    vocab = z.shape[1]

    if params.repetition_penalty != 1.0:
        penalty = params.repetition_penalty
        z = np.where(seen, np.where(z > 0, z / penalty, z * penalty), z)

    if params.temperature != 1.0:
        z = z / params.temperature

    if params.top_k < vocab:
        cut = np.partition(z, -params.top_k, axis=1)[:, -params.top_k, None]
        z[z < cut] = -np.inf

    probs = softmax(z)

    if params.top_p < 1.0:
        order = np.argsort(-probs, axis=1, kind="stable")
        ranked = np.take_along_axis(probs, order, axis=1)
        # smallest prefix whose mass reaches top_p; the top token always stays
        keep = (ranked.cumsum(axis=1) < params.top_p).sum(axis=1, keepdims=True) + 1
        ranked[np.arange(vocab) >= keep] = 0.0
        np.put_along_axis(probs, order, ranked, axis=1)

    probs /= probs.sum(axis=1, keepdims=True)
    return probs


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

    The rows that can start run as contiguous shards balanced by prompt
    length plus budget, one per core BLAS leaves idle (model._shard_count):
    this process steps the first shard, and a child forked for this call
    steps each other one. Forking waits for a process with no other thread,
    since a forked child gets only the forking thread; with a thread alive
    the rows run as one shard here. A row keeps its seed stream in any
    shard, but its logits may differ in the last bit, as ragged rows round
    with the batch they step in.
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

    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        count = _shard_count(len(live))
    weights = np.array([len(prompts[i]) + budget[i] for i in live])
    shards = [live[rows] for rows in _split_rows(weights, count)]

    def run(rows):
        return _lockstep(model, [prompts[i] for i in rows], [budget[i] for i in rows], params)

    for rows, generations in zip(shards, _fork_map(run, shards)):
        for i, generation in zip(rows, generations):
            results[i] = generation
    return results


def _fork_map(fn, items) -> list:
    """[fn(item) for item in items]: the first in this process, each other in
    a child forked for it.

    A child sends back its result, or the exception it raised, pickled
    through a pipe, and leaves through os._exit, so it never flushes this
    process's stdio buffers or runs its exit handlers. A child's exception
    is raised here; a child that ends without a result (killed, or its
    reply would not pickle) is a NumericError. Every child is reaped before
    this returns or raises; on a raise the ones still running are killed.
    """
    children = []  # (pid, read end of its pipe), in item order, not yet reaped
    try:
        for item in items[1:]:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                os.close(read)
                _child(fn, item, write)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [fn(items[0])]
        while children:
            pid, pipe = children[0]
            with pipe:
                reply = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise NumericError(f"a decode worker process ended without a result ({how})")
            ok, value = pickle.loads(reply)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):  # reaped as the raise came
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(fn, item, write: int):
    """The forked child's whole life: fn(item), its pickled outcome written
    to the pipe's write end, then os._exit, status 0 only once it is sent."""
    code = 1
    try:
        try:
            reply = (True, fn(item))
        except Exception as exc:  # sent back and raised in the parent
            reply = (False, exc)
        data = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)


def _lockstep(model: Model, prompts, budget, params: DecodeParams) -> list[Generation]:
    """decode_batch's continuations of prompts that can start, each with a
    positive budget."""
    vocab = model.config.vocab_size
    results = [Generation([], "budget") for _ in prompts]
    live = list(range(len(prompts)))

    # one pad-free prefill of the right-padded prompts: only the kept, real
    # tokens run, and each row's pad slots lie past its length
    lengths = np.array([len(ids) for ids in prompts])
    kept = np.arange(lengths.max()) < lengths[:, None]
    batch = np.full(kept.shape, PAD_ID, dtype=np.int64)
    batch[kept] = np.concatenate(prompts)
    # as many slots as the neediest row's prompt plus budget, not the whole window
    cache = model.new_cache(len(live), int((lengths + budget).max()))
    last = kept & (np.arange(kept.shape[1]) == lengths[:, None] - 1)
    logits = model._run(batch, cache, None, kept, last).reshape(-1, vocab)

    rngs = [np.random.default_rng(params.seed) for _ in live]
    seen = np.zeros((len(live), vocab), dtype=bool)
    seen[np.nonzero(kept)[0], batch[kept]] = True
    while live:
        finite = np.isfinite(logits).all(axis=1)
        rows = np.flatnonzero(finite)
        probs = filter_logits(logits[rows], seen[rows], params)
        # an overflowing temperature or penalty leaves a row no distribution
        drawable = np.isfinite(probs).all(axis=1)
        failed = [(row, "logits") for row in np.flatnonzero(~finite)]
        failed += [(row, "probabilities (the temperature or penalty overflowed)")
                   for row in rows[~drawable]]
        for row, what in failed:
            out = results[live[row]].tokens
            error = NumericError(f"non-finite {what} at generation step {len(out)}")
            results[live[row]] = Generation(out, "error", error)
        rows = rows[drawable]
        drawn = draw(probs[drawable], [rngs[r] for r in rows])
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
            logits = model.forward(np.array(nxt)[:, None], cache)[:, -1]
    return results


def decode(model: Model, prompt_ids, params: DecodeParams) -> list[int]:
    """One prompt's generated ids, eos excluded; its error raised if it fails."""
    return decode_batch(model, [prompt_ids], params)[0].unwrap()
