"""Blockwise symmetric int4 weight quantization.

Each weight tensor is flattened row-major and cut into 64-value blocks, the
last one zero-padded; a block stores one float32 scale = absmax/7 and 4-bit
codes in [-7, 7] (round-to-nearest-even, -8 unused to keep them symmetric).
Dequantized value = code * scale. Norm gains, the embedding table, and the
output projection are left in float; only the per-layer projection matrices
are quantized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .model import Model, ModelConfig, matmul_weight_names

BLOCK_SIZE = 64


@dataclass(frozen=True)
class QuantTensor:
    """Packed 4-bit codes (two per byte, low nibble first, stored as code+8),
    one float32 scale per block, and the original shape."""

    packed: np.ndarray
    scales: np.ndarray
    block_size: int
    shape: tuple

    @property
    def n_elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def nbytes(self) -> int:
        return self.packed.nbytes + self.scales.nbytes

    def element_scales(self) -> np.ndarray:
        """The scale governing each element, in the tensor's own shape."""
        n = self.n_elements
        return np.repeat(self.scales, self.block_size)[:n].reshape(self.shape)


def quantize(w: np.ndarray) -> QuantTensor:
    if not np.isfinite(w).all():
        raise NumericError("quantize: input contains NaN or Inf")
    flat = np.asarray(w, dtype=np.float32).reshape(-1)
    n = flat.size
    n_blocks = -(-n // BLOCK_SIZE)
    padded = np.zeros(n_blocks * BLOCK_SIZE, dtype=np.float32)
    padded[:n] = flat
    blocks = padded.reshape(n_blocks, BLOCK_SIZE)

    scales = (np.abs(blocks).max(axis=1) / 7.0).astype(np.float32)
    # a block of scale 0 divides by 1, and its values (all below 1e-44) round to code 0
    safe = np.where(scales > 0, scales, 1.0)[:, None]
    codes = np.rint(blocks / safe).astype(np.int8)
    codes = np.clip(codes, -7, 7).reshape(-1)

    # BLOCK_SIZE is even, so the padded codes pair up into whole bytes
    nibbles = (codes + 8).astype(np.uint8)
    packed = nibbles[0::2] | (nibbles[1::2] << 4)
    return QuantTensor(packed=packed, scales=scales, block_size=BLOCK_SIZE, shape=tuple(w.shape))


def codes_of(q: QuantTensor) -> np.ndarray:
    """Unpacked int codes, trimmed to the tensor's true length."""
    low = (q.packed & 0x0F).astype(np.int8) - 8
    high = (q.packed >> 4).astype(np.int8) - 8
    codes = np.empty(q.packed.size * 2, dtype=np.int8)
    codes[0::2] = low
    codes[1::2] = high
    return codes[: q.n_elements]


def dequantize(q: QuantTensor) -> np.ndarray:
    return codes_of(q).reshape(q.shape) * q.element_scales()


def quantize_model(params: dict, config: ModelConfig) -> dict:
    """Quantize the projection matrices; pass everything else through."""
    targets = set(matmul_weight_names(config))
    out: dict = {}
    for name, w in params.items():
        out[name] = quantize(w) if name in targets else w
    return out


class QuantizedModel(Model):
    """A Model whose projection weights are stored as int4: ``tensors`` keeps
    the int4 form the checkpoint holds, and ``params`` are its float values,
    dequantized once at construction."""

    def __init__(self, config: ModelConfig, tensors: dict):
        self.tensors = tensors
        params = {
            name: dequantize(t) if isinstance(t, QuantTensor) else t
            for name, t in tensors.items()
        }
        super().__init__(config, params)
