"""Adapter fine-tuning loop: batch assembly, Adam, gradient accumulation.

Loss is masked to diagnosis and end-of-sequence positions; prompts and
padding contribute nothing. Micro-batch gradients are combined weighted by
their unmasked token counts, so k accumulated micro-batches reproduce the
gradient of one batch k times the size exactly.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .corpus import DEFAULT_TEMPLATE, PromptTemplate, render_prompt
from .errors import DataError, NumericError
from .model import Model
from .tokenizer import BOS_ID, EOS_ID, PAD_ID, Vocabulary


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1.41e-5
    batch_size: int = 4
    max_seq_len: int = 512
    grad_accum_steps: int = 16
    lora_r: int = 8  # desk-scale default; 64 reproduces the reference recipe
    lora_alpha: float = 16.0
    epochs: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "max_seq_len", "grad_accum_steps", "lora_r", "epochs"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value > 0):
                raise DataError(f"TrainConfig.{name} must be a positive integer, got {value}")
        for name in ("learning_rate", "lora_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise DataError(f"TrainConfig.{name} must be finite and positive, got {value}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise DataError(f"TrainConfig.seed must be an integer >= 0, got {self.seed}")


@dataclass
class Batch:
    inputs: np.ndarray  # (B, T) token ids
    labels: np.ndarray  # (B, T) next-token targets
    mask: np.ndarray  # (B, T) True on diagnosis + eos positions
    n_tokens: int  # unmasked positions, the accumulation weight
    skipped: int  # records whose prompt left no room for a target

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def make_batch(
    records, vocab: Vocabulary, template: PromptTemplate = DEFAULT_TEMPLATE, max_seq_len: int = 512
) -> Batch:
    """Tokenize bos + prompt + target + eos per record, pad to the batch max.

    A record whose prompt fills the whole window is skipped (counted in
    Batch.skipped); anything longer than the window is truncated from the
    right, dropping eos first. With every record skipped the arrays are (0, 0).
    """
    rows = []
    skipped = 0
    for rec in records:
        prompt, target = render_prompt(rec, template)
        p_ids = vocab.encode(prompt)
        t_ids = vocab.encode(target)
        n_prompt = 1 + len(p_ids)  # bos included
        if n_prompt + 1 > max_seq_len:
            skipped += 1
            continue
        full = [BOS_ID] + p_ids + t_ids + [EOS_ID]
        full = full[:max_seq_len]
        rows.append((full, n_prompt))

    width = max((len(full) for full, _ in rows), default=1) - 1
    inputs = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    labels = np.full((len(rows), width), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(rows), width), dtype=bool)
    for i, (full, n_prompt) in enumerate(rows):
        t = len(full) - 1
        inputs[i, :t] = full[:-1]
        labels[i, :t] = full[1:]
        # labels[j] = full[j+1]; target region starts at full index n_prompt
        mask[i, n_prompt - 1 : t] = True
    return Batch(inputs=inputs, labels=labels, mask=mask, n_tokens=int(mask.sum()), skipped=skipped)


class Adam:
    """Adam with bias correction; decoupled weight decay held at zero."""

    b1, b2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name, w in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(w))
            v = self.v.setdefault(name, np.zeros_like(w))
            m += (1 - self.b1) * (g - m)
            v += (1 - self.b2) * (g * g - v)
            m_hat = m / (1 - self.b1**self.t)
            v_hat = v / (1 - self.b2**self.t)
            w -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class TrainResult:
    adapter: object
    loss_history: list[float] = field(default_factory=list)
    steps: int = 0
    skipped: int = 0
    tokens_seen: int = 0
    seconds: float = 0.0


def _micro_batches(records, order, vocab, template, config, result):
    """The non-empty micro-batches of one epoch in `order`, built one at a time.

    Each batch's skipped records are added to result.skipped as it is built.
    """
    for lo in range(0, len(order), config.batch_size):
        chunk = [records[i] for i in order[lo : lo + config.batch_size]]
        batch = make_batch(chunk, vocab, template, config.max_seq_len)
        result.skipped += batch.skipped
        if batch.size:
            yield batch


def _norm(tensors) -> float:
    """The L2 norm of tensors taken together as one vector."""
    return math.hypot(*(float(np.linalg.norm(t)) for t in tensors))


def train(
    model: Model,
    records,
    vocab: Vocabulary,
    config: TrainConfig,
    template: PromptTemplate = DEFAULT_TEMPLATE,
    log=None,
) -> TrainResult:
    """Run the fine-tuning loop over the attached adapter.

    Only adapter tensors are updated. Each optimizer step takes the next
    grad_accum_steps micro-batches of the epoch (its last step takes what is
    left), combining micro-gradients weighted by unmasked token count. Loss
    history holds one entry per optimizer step. Fully deterministic for a
    given seed.

    With a log callback, each step passes it one line: the step, its loss,
    the L2 norms of the combined gradient and of the step's change to the
    adapter, the records skipped while its micro-batches were built, and its
    non-pad input tokens per second. Without one, none of these is computed.
    """
    adapter = model.adapter
    if adapter is None:
        raise DataError("attach an adapter before training")
    records = list(records)
    if not records:
        raise DataError("training corpus is empty")

    trainable = adapter.tensors()
    opt = Adam(config.learning_rate)
    rng = np.random.default_rng(config.seed)
    result = TrainResult(adapter=adapter)

    t0 = time.perf_counter()
    for _epoch in range(config.epochs):
        order = rng.permutation(len(records))
        batches = _micro_batches(records, order, vocab, template, config, result)
        while True:
            started, skipped = time.perf_counter(), result.skipped
            grad_sum = {name: np.zeros_like(w) for name, w in trainable.items()}
            loss_sum = 0.0
            n_tokens = 0
            input_tokens = 0
            for batch in islice(batches, config.grad_accum_steps):
                loss, grads = model.loss_and_grads(batch.inputs, batch.labels, batch.mask)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at optimizer step {result.steps + 1}")
                n = batch.n_tokens
                for name in trainable:
                    grad_sum[name] += n * grads[name]
                loss_sum += n * loss
                n_tokens += n
                if log is not None:
                    input_tokens += int((batch.inputs != PAD_ID).sum())
            if n_tokens == 0:  # the epoch's batches are spent
                break
            for name in trainable:
                grad_sum[name] /= n_tokens
            if log is not None:
                before = {name: w.copy() for name, w in trainable.items()}
            opt.step(trainable, grad_sum)
            loss = loss_sum / n_tokens
            result.loss_history.append(loss)
            result.steps += 1
            result.tokens_seen += n_tokens
            if log is not None:
                elapsed = max(time.perf_counter() - started, 1e-9)
                grad_norm = _norm(grad_sum.values())
                update_norm = _norm(w - before[name] for name, w in trainable.items())
                log(f"step={result.steps} loss={loss:.6f} grad_norm={grad_norm:.6g} "
                    f"update_norm={update_norm:.6g} skipped={result.skipped - skipped} "
                    f"tokens_per_sec={input_tokens / elapsed:.1f}")
    if result.steps == 0:
        raise DataError(f"no optimizer step ran: all {len(records)} records were skipped, "
                        f"none leaves room for a target within max_seq_len {config.max_seq_len}")
    result.seconds = time.perf_counter() - t0
    return result
