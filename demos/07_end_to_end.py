"""The whole pipeline: synthesize, fine-tune, evaluate, quantize.

Runs a scaled-down version of the full workflow in about a minute:
build a report corpus, train low-rank adapters on a small decoder that
starts from random weights, score base and tuned models with ROUGE against
the reference diagnoses, then quantize the tuned model and check that its
greedy decodes survive int4 weights.

Run from the repository root:

    python demos/07_end_to_end.py
"""

from eyedx import corpus, lora, quant, rouge, tokenizer
from eyedx.model import Model, ModelConfig, init_params
from eyedx.sample import DecodeParams, decode
from eyedx.tokenizer import BOS_ID
from eyedx.train import TrainConfig, train

# ------------------------------------------------------------------ data

records = corpus.dedup(corpus.synthesize(n_per_modality=60, seed=0))
parts = corpus.split(records, ratio=0.6, seed=0)
texts = [" ".join(corpus.render_prompt(r)) for r in parts.train]
vocab = tokenizer.build(texts)
print(f"{len(parts.train)} train / {len(parts.test)} test records, "
      f"vocabulary {vocab.size}")

# ------------------------------------------------------------------ base model
#
# The decoder starts from random weights; there is no pretrained checkpoint
# anywhere in this pipeline. Greedy evaluation of the raw base model sets
# the floor the adapters have to clear.

config = ModelConfig(vocab_size=vocab.size, max_seq_len=128)
model = Model(config, init_params(config, seed=0))

GREEDY = DecodeParams(temperature=1.0, max_new_tokens=24,
                      repetition_penalty=1.0, top_k=1, top_p=1.0, seed=0)
base_report = rouge.evaluate(model, parts.test, vocab, params=GREEDY)

# ------------------------------------------------------------------ training
#
# Only the adapters learn; the base weights never move. A rank 16 adapter
# over the query and value projections is about two percent of the model.
# The learning rate is aggressive because the base is random, not
# pretrained; there is nothing to preserve yet.

train_config = TrainConfig(learning_rate=2e-3, batch_size=8,
                           grad_accum_steps=1, lora_r=16, lora_alpha=32.0,
                           epochs=16, seed=0, max_seq_len=128)
lora.attach(model, rank=train_config.lora_r, alpha=train_config.lora_alpha,
            seed=train_config.seed)

lines = []
result = train(model, parts.train, vocab, train_config, log=lines.append)
print(f"\ntrained {result.steps} steps in {result.seconds:.1f}s "
      f"({result.tokens_seen} tokens)")
for line in lines[:2] + ["..."] + lines[-1:]:
    print(f"  {line}")
print(f"loss went {result.loss_history[0]:.3f} -> {result.loss_history[-1]:.3f}")

lora.merge(model)
tuned_report = rouge.evaluate(model, parts.test, vocab, params=GREEDY)

# ------------------------------------------------------------------ scores
#
# ROUGE F1 means over the test split. The base model emits noise, so its row
# is near zero; the tuned model has learned the findings-to-diagnosis map.

print()
print(rouge.format_table([("base", base_report), ("tuned", tuned_report)]))

print("\nper modality (tuned, ROUGE-1 F1):")
for modality, (r1, _, _) in sorted(tuned_report.by_modality.items()):
    print(f"  {modality}: {r1.f1:.4f}")

# ------------------------------------------------------------------ a look
#
# Numbers aside, what does it actually say?

record = parts.test[0]
prompt_text, reference = corpus.render_prompt(record)
ids = [BOS_ID] + vocab.encode(prompt_text)
generated = vocab.decode(decode(model, ids, GREEDY))
print(f"\nfindings:  {record.findings}")
print(f"reference: {reference}")
print(f"model:     {generated}")

# ------------------------------------------------------------------ int4
#
# Quantize the tuned model and replay greedy decoding on ten test records.
# Training carved decisive logit gaps, so the decodes match the float model
# position for position (compare demos/04_int4_weights.py, where an
# untrained model's flat logits make the argmax fragile).

qmodel = quant.QuantizedModel(config, quant.quantize_model(model.params, config))
agree = total = 0
for record in parts.test[:10]:
    prompt_text, _ = corpus.render_prompt(record)
    ids = [BOS_ID] + vocab.encode(prompt_text)
    a = decode(model, ids, GREEDY)
    b = decode(qmodel, ids, GREEDY)
    total += max(len(a), len(b))
    agree += sum(x == y for x, y in zip(a, b))
print(f"\nint4 greedy agreement over 10 records: {agree}/{total} positions")
