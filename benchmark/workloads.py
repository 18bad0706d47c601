"""The benchmark's workloads: one shared input recipe, three ways to use it.

Each workload builds its state in ``setup`` (timed, repeated), runs one unit
of measured work per ``unit`` call, and knows how to produce the outputs of
a fixed reference instance that ``reference.json`` records. Only public
functions of ``eyedx.*`` are called, and always through their module, so the
traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from eyedx import EyedxError, container, corpus, lora, quant, rouge, tokenizer, train
from eyedx.model import Model, ModelConfig, init_params
from eyedx.sample import DecodeParams
from eyedx.tokenizer import SPECIAL_TOKENS, segment

from counts import checkpoint_payload_bytes

N_PER_MODALITY = 24  # about 71 records after dedup: 43 train, 28 test
MAX_SEQ_LEN = 128
STEP_RECORDS = 8  # the training batch, and the records per evaluate call
TRAIN_RECORDS = 40  # five full optimizer steps per train call
TEST_RECORDS = 24  # three evaluate calls cycle through these
LORA_RANK, LORA_ALPHA = 16, 32.0
REFERENCE_SEED = 0  # the reference instance is the same for every --seed
REFERENCE_RECORDS = 8
LOSS_RTOL = 1e-3  # a reference loss matches within this relative tolerance


@dataclass
class Inputs:
    train: tuple
    test: tuple
    vocab: tokenizer.Vocabulary
    config: ModelConfig
    params: dict


def make_inputs(seed: int) -> Inputs:
    """synthesize -> dedup -> split(0.6) -> vocabulary -> random-init model."""
    records = corpus.dedup(corpus.synthesize(N_PER_MODALITY, seed))
    parts = corpus.split(records, 0.6, seed)
    if len(parts.train) < TRAIN_RECORDS or len(parts.test) < TEST_RECORDS:
        raise ValueError(f"seed {seed} gave {len(parts.train)}/{len(parts.test)} records")
    vocab = tokenizer.build(" ".join(corpus.render_prompt(r)) for r in parts.train)
    config = ModelConfig(vocab_size=vocab.size, max_seq_len=MAX_SEQ_LEN)
    params = init_params(config, seed)
    # A random model samples eos after anywhere from 2 to 100 tokens depending
    # on the seed, which would make the work per record a property of the
    # seed. With the special tokens' logits pinned at 0, about half of the
    # other logits lie above them, so neither argmax nor the top-40 cut ever
    # picks one and every record decodes exactly to its token budget.
    params["lm_head"][:, : len(SPECIAL_TOKENS)] = 0.0
    return Inputs(parts.train[:TRAIN_RECORDS], parts.test[:TEST_RECORDS], vocab, config, params)


@dataclass
class Unit:
    seconds: float  # inside train.train or rouge.evaluate
    steps_ms: list  # optimizer steps, or the evaluate call
    records: int
    tokens: int  # non-pad input tokens trained, or tokens generated
    output: tuple  # loss history or candidates; must repeat exactly
    attempted: int
    failed: int


class Finetune:
    name = "finetune"
    cycle = 1  # every unit trains the same records from the same adapter
    checkpoint_bytes = 0
    guards_match = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.config = self.train_config(seed)

    @staticmethod
    def train_config(seed):
        return train.TrainConfig(
            learning_rate=2e-3, batch_size=STEP_RECORDS, max_seq_len=MAX_SEQ_LEN,
            grad_accum_steps=1, lora_r=LORA_RANK, lora_alpha=LORA_ALPHA, epochs=1, seed=seed,
        )

    def _fresh_model(self, inputs, seed):
        model = Model(inputs.config, inputs.params)
        lora.attach(model, rank=LORA_RANK, alpha=LORA_ALPHA, seed=seed)
        return model

    def setup(self):
        """Build inputs and model; warm up with one optimizer step."""
        self.inputs = make_inputs(self.seed)
        model = self._fresh_model(self.inputs, self.seed)
        warm = train.train(model, self.inputs.train[:STEP_RECORDS], self.inputs.vocab, self.config)
        return tuple(warm.loss_history)

    def prepare(self):
        """Untimed bookkeeping after set-up: token counts from the encodings."""
        vocab = self.inputs.vocab
        self.input_tokens = self.target_tokens = 0
        for record in self.inputs.train:
            prompt, target = corpus.render_prompt(record)
            n_target = len(vocab.encode(target))
            self.input_tokens += 1 + len(vocab.encode(prompt)) + n_target
            self.target_tokens += n_target + 1
        self.steps_per_call = math.ceil(len(self.inputs.train) / STEP_RECORDS)
        self.counted = self.falls = True
        self.losses = []

    def unit(self, k: int) -> Unit:
        model = self._fresh_model(self.inputs, self.seed)
        marks = []
        start = time.perf_counter()
        try:
            result = train.train(model, self.inputs.train, self.inputs.vocab, self.config,
                                 log=lambda _line: marks.append(time.perf_counter()))
        except EyedxError:
            n = self.steps_per_call
            return Unit(time.perf_counter() - start, [], 0, 0, (), n, n)
        seconds = time.perf_counter() - start
        self.counted &= result.skipped == 0 and result.tokens_seen == self.target_tokens
        self.falls &= result.loss_history[-1] < result.loss_history[0]
        self.losses += result.loss_history
        steps = np.diff([start] + marks) * 1000.0
        return Unit(seconds, list(steps), len(self.inputs.train), self.input_tokens,
                    tuple(result.loss_history), result.steps, 0)

    def reference_outputs(self):
        ref = make_inputs(REFERENCE_SEED)
        model = self._fresh_model(ref, REFERENCE_SEED)
        result = train.train(model, ref.train, ref.vocab, self.train_config(REFERENCE_SEED))
        return [float(x) for x in result.loss_history]

    @staticmethod
    def match(got, want):
        hits = sum(abs(g - w) <= LOSS_RTOL * abs(w) for g, w in zip(got, want))
        return hits, max(len(got), len(want))

    def checks(self):
        return {
            "loss_finite": bool(self.losses) and bool(np.isfinite(self.losses).all()),
            "loss_falls": self.falls,
            "tokens_counted": self.counted,
        }

    def named(self, e2e):
        return {
            "train_tokens_per_s": (e2e["tokens_per_s"], "1/s"),
            "train_step_ms_p50": (e2e["step_ms_p50"], "ms"),
            "train_step_ms_p90": (e2e["step_ms_p90"], "ms"),
            "train_final_loss": (self.losses[-1] if self.losses else float("nan"), "nats"),
        }


class Evaluate:
    """Decode test records through ``rouge.evaluate`` and score them."""

    name = "eval_greedy"
    checkpoint_bytes = 0
    match_name = "greedy_token_match"
    guards_match = True  # a run fails when greedy outputs drift past the bound

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.params = self.decode_params(seed)
        self.checkpoint = out_dir / f"{self.name}-seed{seed}.olm"
        self.cycle = TEST_RECORDS // STEP_RECORDS
        self.round_trip = True

    @staticmethod
    def decode_params(seed):
        return DecodeParams(temperature=1.0, max_new_tokens=24, repetition_penalty=1.0,
                            top_k=1, top_p=1.0, seed=seed)

    def _model(self, inputs):
        return Model(inputs.config, inputs.params), inputs.vocab

    def setup(self):
        """Build inputs and model; warm up on one test record."""
        self.inputs = make_inputs(self.seed)
        self.model, self.vocab = self._model(self.inputs)
        warm = rouge.evaluate(self.model, self.inputs.test[:1], self.vocab, params=self.params)
        return tuple(row.candidate for row in warm.records)

    def prepare(self):
        """Untimed bookkeeping after set-up: each record's token budget."""
        self.groups = [self.inputs.test[i : i + STEP_RECORDS]
                       for i in range(0, len(self.inputs.test), STEP_RECORDS)]
        self.budgets = []
        for group in self.groups:
            prompts = [corpus.render_prompt(r)[0] for r in group]
            room = [MAX_SEQ_LEN - 1 - len(self.vocab.encode(p)) for p in prompts]
            self.budgets.append([min(self.params.max_new_tokens, r) for r in room])
        self.full_budgets = True

    def unit(self, k: int) -> Unit:
        g = k % len(self.groups)
        group = self.groups[g]
        start = time.perf_counter()
        report = rouge.evaluate(self.model, group, self.vocab, params=self.params)
        seconds = time.perf_counter() - start
        candidates = tuple(row.candidate for row in report.records)
        self.full_budgets &= [len(segment(c)) for c in candidates] == self.budgets[g]
        return Unit(seconds, [1000.0 * seconds], len(group), sum(self.budgets[g]), candidates,
                    len(group), sum(row.failed for row in report.records))

    def reference_outputs(self):
        ref = make_inputs(REFERENCE_SEED)
        model, vocab = self._model(ref)
        report = rouge.evaluate(model, ref.test[:REFERENCE_RECORDS], vocab,
                                params=self.decode_params(REFERENCE_SEED))
        return [row.candidate for row in report.records]

    @staticmethod
    def match(got, want):
        """Generated tokens equal to the reference at the same position."""
        hits = total = 0
        for g, w in zip(got, want):
            g, w = segment(g), segment(w)
            hits += sum(a == b for a, b in zip(g, w))
            total += max(len(g), len(w))
        return hits, total

    def checks(self):
        return {"budget_reached": self.full_budgets}

    def named(self, e2e):
        return {
            "eval_records_per_s": (e2e["records_per_s"], "1/s"),
            "gen_tokens_per_s": (e2e["tokens_per_s"], "1/s"),
            "eval_step_ms_p50": (e2e["step_ms_p50"], "ms"),
            "eval_step_ms_p90": (e2e["step_ms_p90"], "ms"),
            self.match_name: (e2e["reference_match"], "ratio"),
        }


class EvaluateSampledInt4(Evaluate):
    name = "eval_sampled_int4"
    match_name = "sampled_token_match"
    guards_match = False

    @staticmethod
    def decode_params(seed):
        return DecodeParams(seed=seed)  # budget clamped to the window per record

    def _model(self, inputs):
        tensors = quant.quantize_model(inputs.params, inputs.config)
        container.save_quantized(quant.QuantizedModel(inputs.config, tensors),
                                 self.checkpoint, inputs.vocab)
        model, vocab = container.load_bundle(self.checkpoint)
        self.round_trip &= (vocab == inputs.vocab and set(tensors) == set(model.tensors)
                            and all(_same_tensor(t, model.tensors[n]) for n, t in tensors.items()))
        self.checkpoint_bytes = checkpoint_payload_bytes(tensors)
        self.file_bytes = self.checkpoint.stat().st_size
        return model, vocab

    def reference_outputs(self):
        ref = make_inputs(REFERENCE_SEED)
        model = quant.QuantizedModel(ref.config, quant.quantize_model(ref.params, ref.config))
        report = rouge.evaluate(model, ref.test[:REFERENCE_RECORDS], ref.vocab,
                                params=self.decode_params(REFERENCE_SEED))
        return [row.candidate for row in report.records]

    def checks(self):
        return {
            "budget_reached": self.full_budgets,
            "int4_round_trip": self.round_trip,
            "checkpoint_holds_payload": self.checkpoint_bytes <= self.file_bytes,
        }


def _same_tensor(a, b) -> bool:
    if isinstance(a, quant.QuantTensor):
        return (isinstance(b, quant.QuantTensor) and a.shape == b.shape
                and a.block_size == b.block_size and np.array_equal(a.packed, b.packed)
                and np.array_equal(a.scales, b.scales))
    return np.array_equal(a, b) and a.dtype == b.dtype


WORKLOADS = {w.name: w for w in (Finetune, Evaluate, EvaluateSampledInt4)}
