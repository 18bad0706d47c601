"""Open up the decoder: normalization, rotary positions, caching, gradients.

Builds a deliberately tiny model and checks each architectural claim by
direct computation: RMSNorm's scale behavior, the relative-offset property
of rotary embeddings, that grouped-query attention shares key/value heads,
that incremental decoding with the KV cache matches full recomputation, and
that the hand-written backward pass agrees with finite differences (the
oracle in tests/oracles.py).

Run from the repository root:

    python demos/02_decoder_anatomy.py
"""

import sys
from pathlib import Path

import numpy as np

from eyedx.lora import attach
from eyedx.model import Model, ModelConfig, _apply_rope, _rmsnorm_fwd, _rope_tables, init_params

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import finite_difference, grad_relative_error  # noqa: E402

rng = np.random.default_rng(0)

# ------------------------------------------------------------------ rmsnorm
#
# RMSNorm divides by the root mean square instead of subtracting a mean, so
# scaling the input by a positive constant cancels exactly (up to the eps
# guard). With eps=0 and a power-of-two constant the cancellation is
# bit-exact, because multiplying by a power of two only shifts the exponent.

x = rng.standard_normal(16)
gain = np.ones(16)
base, _ = _rmsnorm_fwd(x, gain, eps=0.0)
for c in (2.0, 1024.0, 3.7):
    scaled, _ = _rmsnorm_fwd(c * x, gain, eps=0.0)
    exact = "bit-exact" if np.array_equal(base, scaled) else "within 1e-12"
    print(f"rmsnorm({c:6.1f} * x) vs rmsnorm(x): "
          f"max diff {np.max(np.abs(base - scaled)):.2e} ({exact})")

# ------------------------------------------------------------------ rope
#
# Rotary embeddings rotate adjacent coordinate pairs by position-dependent
# angles. Position zero is a no-op, and the dot product of two rotated
# vectors depends only on the distance between their positions, which is
# what lets attention score by relative offset.

cos, sin = _rope_tables(np.arange(10), 8, 10000.0, np.float64)


def rope(vec):
    """vec rotated to each of positions 0..9, one row per position."""
    return _apply_rope(np.broadcast_to(vec, (10, 1, 8)), cos, sin)[:, 0]


v = rng.standard_normal(8)
w = rng.standard_normal(8)
print(f"\nrope at position 0 changes nothing: "
      f"max diff {np.max(np.abs(rope(v)[0] - v)):.2e}")

dot_a = rope(v)[5] @ rope(w)[3]
dot_b = rope(v)[9] @ rope(w)[7]
print(f"dot at positions (5,3) = {dot_a:+.6f}")
print(f"dot at positions (9,7) = {dot_b:+.6f}  (same offset, same score)")

# ------------------------------------------------------------------ shapes
#
# With n_heads=8 and n_kv_heads=2, four query heads share each key/value
# head. The key and value projections are correspondingly narrow, which is
# most of the cache savings.

config = ModelConfig(d_model=64, n_layers=2, n_heads=8, n_kv_heads=2,
                     d_ff=96, vocab_size=128, max_seq_len=64)
model = Model(config, init_params(config, seed=1))
wq = model.params["layers.0.wq"]
wk = model.params["layers.0.wk"]
print(f"\nwq projects {wq.shape[0]} -> {wq.shape[1]} "
      f"({config.n_heads} heads x {config.head_dim})")
print(f"wk projects {wk.shape[0]} -> {wk.shape[1]} "
      f"({config.n_kv_heads} kv heads x {config.head_dim}, "
      f"shared by {config.n_heads // config.n_kv_heads} query heads each)")

# ------------------------------------------------------------------ cache
#
# Greedy-decode ten tokens twice: once feeding one token at a time through
# the cache, once recomputing the whole prefix at every step. Same tokens,
# same final logits.

prompt = list(rng.integers(4, config.vocab_size, size=6))

cache = model.new_cache()
logits = model.forward(np.asarray(prompt), cache)[-1]
cached_seq = list(prompt)
for _ in range(10):
    nxt = int(np.argmax(logits))
    cached_seq.append(nxt)
    logits = model.forward(np.array([nxt]), cache)[-1]

full_seq = list(prompt)
for _ in range(10):
    nxt = int(np.argmax(model.forward(np.asarray(full_seq))[-1]))
    full_seq.append(nxt)

assert cached_seq == full_seq
final_full = model.forward(np.asarray(full_seq))[-1]
print(f"\ncached vs full recompute: tokens identical, "
      f"final logit diff {np.max(np.abs(logits - final_full)):.2e}")

# ------------------------------------------------------------------ gradients
#
# The backward pass is hand-written, so it is checked the honest way: pick an
# adapter factor, wiggle it with central finite differences in float64, and
# compare against the analytic gradient. Relative error should sit near
# sqrt(eps). The base weights are frozen, so the adapter's factors are the
# only gradients there are; B starts nonzero so that A gets one too.

small = ModelConfig(d_model=8, n_layers=1, n_heads=4, n_kv_heads=2,
                    d_ff=12, vocab_size=11, max_seq_len=8)
tiny = Model(small, init_params(small, seed=2, scale=0.4, dtype=np.float64))
adapter = attach(tiny, rank=2, alpha=4.0, seed=3)
for t in adapter.targets:
    adapter.b[t][:] = rng.normal(0.0, 0.5, adapter.b[t].shape)

inputs = np.array([[0, 4, 7, 5]])
labels = np.array([[4, 7, 5, 1]])
mask = np.ones_like(labels, dtype=np.float64)
_, grads = tiny.loss_and_grads(inputs, labels, mask)

print("\ngradient check against central finite differences:")
for name, w in (("layers.0.wq.lora_a", adapter.a["layers.0.wq"]),
                ("layers.0.wq.lora_b", adapter.b["layers.0.wq"]),
                ("layers.0.wv.lora_b", adapter.b["layers.0.wv"])):
    # finite_difference perturbs w in place, which the forward reads
    numeric = finite_difference(lambda _: tiny.loss_and_grads(inputs, labels, mask)[0], w)
    err = grad_relative_error(grads[name], numeric)
    print(f"  {name:19s} relative error {err:.2e}")
    assert err < 1e-4
