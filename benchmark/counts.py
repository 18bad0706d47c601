"""Work counts computed from tensor shapes, not measured.

These describe what the program at this commit does for a given input shape;
the traced run reports them next to the timings they explain.
"""

from __future__ import annotations

from eyedx.lora import target_names
from eyedx.model import param_shapes
from eyedx.quant import QuantTensor

_BASE_PROJECTIONS = ("wq", "wk", "wv", "wo")


def train_step_flops(config, batch: int, seq: int, rank: int) -> dict[str, int]:
    """FLOPs (2 per multiply-add) of the matmuls and einsums that
    ``Model.loss_and_grads(adapter_only=True)`` runs on a (batch, seq) input
    with a rank-``rank`` adapter on the query and value projections.

    - attention: the score and context einsums, 2 forward and 4 backward per
      layer, over all seq x seq pairs (the code masks, it does not skip);
    - projections: q, k, v, o and lm_head, forward and input gradient (base
      weight gradients are skipped), plus the adapters' forward, input
      gradient and A/B gradients;
    - ffn: gate, up and down, forward and input gradient.

    Elementwise work (norms, rotary, softmax, SiLU, cross-entropy) is not
    counted.
    """
    n = batch * seq
    d = config.d_model
    shapes = param_shapes(config)
    attention = config.n_layers * 6 * 2 * batch * config.n_heads * seq * seq * config.head_dim
    ffn = config.n_layers * 2 * 3 * 2 * n * d * config.d_ff
    projection = 2 * 2 * n * d * config.vocab_size  # lm_head forward and input gradient
    for i in range(config.n_layers):
        for w in _BASE_PROJECTIONS:
            m, k = shapes[f"layers.{i}.{w}"]
            projection += 2 * 2 * n * m * k
    for t in target_names(config):
        m, k = shapes[t]
        # forward x@A, (xA)@B; backward dy@B^T, x^T(dyB^T), x@A, (xA)^T dy, (dyB^T)@A^T
        projection += 2 * n * rank * (m + k) + 2 * n * rank * (3 * m + 2 * k)
    return {"attention": attention, "projection": projection, "ffn": ffn}


def checkpoint_payload_bytes(tensors: dict) -> int:
    """Tensor bytes a quantized checkpoint stores: for an int4 tensor its
    packed codes (two per byte, the last block zero-padded) and one float32
    scale per block, for a float tensor its elements. Container framing and
    the header are not counted."""
    total = 0
    for t in tensors.values():
        if isinstance(t, QuantTensor):
            blocks = -(-t.n_elements // t.block_size)
            total += -(-blocks * t.block_size // 2) + 4 * blocks
        else:
            total += t.size * t.dtype.itemsize
    return total
