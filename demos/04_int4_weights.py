"""Int4 blockwise quantization: codes, error bounds, and what it buys.

Projection weights are split into blocks of 64 values, each block scaled by
absmax/7 and rounded to integers in [-7, 7], two codes per byte. This script
quantizes a single matrix to show the layout, verifies the worst-case error
bound, then quantizes a whole model and measures checkpoint size and logit
drift against the float original.

Run from the repository root:

    python demos/04_int4_weights.py
"""

import os
import tempfile

import numpy as np

from eyedx import quant
from eyedx.container import save_model, save_quantized
from eyedx.model import Model, ModelConfig, init_params
from eyedx.tokenizer import SPECIAL_TOKENS, Vocabulary

rng = np.random.default_rng(0)

# ------------------------------------------------------------------ one matrix

w = rng.normal(0.0, 0.05, (8, 16)).astype(np.float32)
q = quant.quantize(w)

print(f"original: {w.shape} float32, {w.nbytes} bytes")
print(f"packed:   {q.packed.shape[0]} bytes of codes "
      f"+ {q.scales.nbytes} bytes of scales "
      f"({q.scales.size} block{'s' if q.scales.size != 1 else ''})")

codes = quant.codes_of(q).reshape(w.shape)
print(f"codes are integers in [{codes.min()}, {codes.max()}]")
print(f"first row of codes: {codes[0].tolist()}")

# Round-to-nearest with a scale of absmax/7 can be off by at most half a
# step. element_scales() expands the per-block scales back to per-element
# form so the bound can be checked pointwise.

err = np.abs(quant.dequantize(q) - w)
bound = q.element_scales().reshape(w.shape) / 2
print(f"max error {err.max():.3e} vs bound {bound.max():.3e} "
      f"(holds: {bool(np.all(err <= bound + 1e-12))})")

# ------------------------------------------------------------------ whole model
#
# quantize_model() converts every attention and feed-forward projection and
# leaves norms, the embedding table, and lm_head in float; those tensors are
# small and precision-critical. QuantizedModel is a Model: it keeps the int4
# tensors for saving and dequantizes them once, at construction, into the
# float weights its forward pass reads.

config = ModelConfig(d_model=256, n_layers=4, n_heads=8, n_kv_heads=2,
                     d_ff=688, vocab_size=312, max_seq_len=64)
model = Model(config, init_params(config, seed=1))
qmodel = quant.QuantizedModel(config, quant.quantize_model(model.params, config))
# a checkpoint carries its vocabulary, of exactly config.vocab_size tokens;
# this untrained model gets placeholder words
words = tuple(f"w{i}" for i in range(config.vocab_size - len(SPECIAL_TOKENS)))
vocab = Vocabulary(tokens=SPECIAL_TOKENS + words)

with tempfile.TemporaryDirectory() as tmp:
    float_path = os.path.join(tmp, "model.olm")
    quant_path = os.path.join(tmp, "model.olq")
    save_model(model, float_path, vocab)
    save_quantized(qmodel, quant_path, vocab)
    float_size = os.path.getsize(float_path)
    quant_size = os.path.getsize(quant_path)

print(f"\nfloat checkpoint: {float_size:8d} bytes")
print(f"int4 checkpoint:  {quant_size:8d} bytes "
      f"(ratio {quant_size / float_size:.3f})")

# ------------------------------------------------------------------ drift
#
# How much do the logits move? For each of a few prompts, compare the float
# and quantized next-token logits. The drift is small in absolute terms;
# whether it can flip an argmax depends on the logit gaps, and an untrained
# model has nearly flat logits, so its argmax is fragile by construction.
# demos/07_end_to_end.py repeats this comparison on a trained model, where
# the gaps are decisive and the greedy decodes match.

drifts, gaps = [], []
for seed in range(8):
    prompt = np.random.default_rng(seed).integers(4, 312, size=6)
    a = model.forward(prompt)[-1]
    b = qmodel.forward(prompt)[-1]
    drifts.append(np.max(np.abs(a - b)))
    top2 = np.sort(a)[-2:]
    gaps.append(top2[1] - top2[0])
print(f"\nmax logit drift over 8 prompts:  {max(drifts):.4f}")
print(f"smallest top-two logit gap:      {min(gaps):.4f}")
print("an untrained model's gaps sit at the same scale as the drift;")
print("training is what separates them (see demos/07_end_to_end.py)")
