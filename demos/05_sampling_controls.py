"""Watch each sampling control reshape a next-token distribution.

filter_logits() applies, in order: repetition penalty, temperature, top-k,
then nucleus (top-p) filtering, and returns the resulting probabilities. It
filters (R, V) rows of logits at once, each row with a bool mask of the ids
it has seen. This script runs a hand-made row of logits through each stage,
so the effect of every knob is visible in isolation, then shows the two
boundary cases that anchor the design: neutral settings reduce to a plain
softmax, and top_k=1 reproduces greedy decoding exactly, checked against the
cache-free argmax loop in tests/oracles.py.

Run from the repository root:

    python demos/05_sampling_controls.py
"""

import sys
from pathlib import Path

import numpy as np

from eyedx.model import Model, ModelConfig, init_params
from eyedx.numerics import softmax
from eyedx.sample import DecodeParams, decode, filter_logits

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import recompute_greedy  # noqa: E402

names = ["<bos>", "<eos>", "<pad>", "<unk>", "dry", "eye", "macular", "edema"]
logits = np.array([-9.0, -9.0, -9.0, -9.0, 2.0, 1.2, 0.8, -0.5])
unseen = np.zeros((1, len(logits)), dtype=bool)  # the row's seen mask: nothing yet
seen_dry = unseen.copy()
seen_dry[0, names.index("dry")] = True
NEUTRAL = dict(temperature=1.0, repetition_penalty=1.0, top_k=8, top_p=1.0)


def filtered(seen, **settings):
    """The logit row, as a batch of one, filtered under the neutral settings
    with these changes."""
    return filter_logits(logits[None], seen, DecodeParams(**{**NEUTRAL, **settings}))[0]


def show(label, probs):
    cells = "  ".join(f"{n}={p:.3f}" for n, p in zip(names[4:], probs[4:]))
    print(f"{label:34s} {cells}")

# ------------------------------------------------------------------ stages

show("plain softmax", softmax(logits))

show("repetition penalty 1.8 on 'dry'", filtered(seen_dry, repetition_penalty=1.8))
show("temperature 0.5 (sharper)", filtered(unseen, temperature=0.5))
show("temperature 2.0 (flatter)", filtered(unseen, temperature=2.0))
show("top-k 2", filtered(unseen, top_k=2))
show("top-p 0.7", filtered(unseen, top_p=0.7))

# The penalty divides positive logits and multiplies negative ones by the
# same factor, so a seen token always loses probability, never gains it.

# ------------------------------------------------------------------ neutrality
#
# With every control at its identity value the pipeline must not editorialize:
# the output equals softmax(logits) to rounding.

neutral = filtered(unseen)
print(f"\nneutral settings vs softmax: "
      f"max diff {np.max(np.abs(neutral - softmax(logits))):.2e}")

# ------------------------------------------------------------------ greedy
#
# top_k=1 leaves a single candidate with probability one, so sampled decoding
# collapses to argmax regardless of the seed and the temperature. That is how
# eyedx decodes greedily: top_k=1 with the repetition penalty off.

config = ModelConfig(d_model=32, n_layers=2, n_heads=4, n_kv_heads=2,
                     d_ff=48, vocab_size=64, max_seq_len=48)
model = Model(config, init_params(config, seed=0, scale=0.3))
prompt = [0, 10, 20, 30]

greedy = recompute_greedy(model, prompt, 12)
for seed, temperature in ((0, 1.0), (1, 0.5), (99, 2.0)):
    sampled = decode(model, prompt, DecodeParams(
        temperature=temperature, max_new_tokens=12, repetition_penalty=1.0,
        top_k=1, seed=seed))
    assert sampled == greedy
print(f"top_k=1 equals the argmax loop for every seed and temperature: {greedy}")

# With the defaults (temperature 0.9, penalty 1.3, top-k 40, top-p 0.9) the
# seed matters again:

for seed in (0, 1):
    out = decode(model, prompt, DecodeParams(max_new_tokens=12, seed=seed))
    print(f"default sampling, seed {seed}: {out}")
