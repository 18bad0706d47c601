"""Binary tensor container used by model checkpoints, adapters, and quantized models.

Layout, all integers little-endian:

    magic "OLM2" | version u32 | header_len u32 | header JSON (utf-8)
    then per tensor:
    name_len u32 | name utf-8 | rank u32 | dims u32 * rank | dtype u8 | payload

Every tensor eyedx stores has rank 1 or 2; a rank above 2 is rejected both ways.

dtype 0 = float32 raw, 1 = float64 raw; dtype 2 = int4-packed:
block_size u32, n_scales u32, scales float32 raw, packed_len u32, packed bytes.
Round-trips are bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .files import input_bytes, write_atomic
from .model import Model, ModelConfig
from .quant import QuantizedModel, QuantTensor
from .tokenizer import SPECIAL_TOKENS, Vocabulary

MAGIC = b"OLM2"
VERSION = 1

DTYPE_F32 = 0
DTYPE_F64 = 1
DTYPE_INT4 = 2

_CODE_OF = {np.dtype(np.float32): DTYPE_F32, np.dtype(np.float64): DTYPE_F64}
_DTYPE_OF = {DTYPE_F32: np.float32, DTYPE_F64: np.float64}


def _u32(n: int) -> bytes:
    return struct.pack("<I", n)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError(f"{self.path}: truncated container")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def text(self, n: int) -> str:
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{self.path}: invalid utf-8 in container") from exc

    @property
    def done(self) -> bool:
        return self.pos == len(self.data)


def write_container(path: str | Path, header: dict, tensors: dict) -> None:
    """Write named tensors (ndarray or QuantTensor) plus a JSON header."""
    parts = [MAGIC, _u32(VERSION)]
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    parts += [_u32(len(hdr)), hdr]
    for name, t in tensors.items():
        if len(t.shape) > 2:
            raise DataError(f"tensor {name} has rank {len(t.shape)}, above 2")
        nb = name.encode("utf-8")
        parts += [_u32(len(nb)), nb, _u32(len(t.shape))]
        parts += [_u32(d) for d in t.shape]
        if isinstance(t, QuantTensor):
            parts += [bytes([DTYPE_INT4])]
            scales = np.ascontiguousarray(t.scales, dtype=np.float32)
            packed = np.ascontiguousarray(t.packed, dtype=np.uint8)
            parts += [
                _u32(t.block_size),
                _u32(scales.size),
                scales.tobytes("C"),
                _u32(packed.size),
                packed.tobytes("C"),
            ]
        else:
            arr = np.asarray(t)
            if arr.dtype not in _CODE_OF:
                raise DataError(f"tensor {name}: unsupported dtype {arr.dtype}")
            parts += [bytes([_CODE_OF[arr.dtype]])]
            parts += [np.ascontiguousarray(arr).tobytes("C")]
    write_atomic(path, b"".join(parts))


def read_container(path: str | Path) -> tuple[dict, dict]:
    path = Path(path)
    r = _Reader(input_bytes(path), path)
    if r.take(4) != MAGIC:
        raise DataError(f"{path}: not a container file (bad magic)")
    version = r.u32()
    if version != VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    try:
        header = json.loads(r.text(r.u32()))
    except ValueError as exc:  # bad JSON, or an integer past Python's digit limit
        raise DataError(f"{path}: malformed header JSON ({getattr(exc, 'msg', exc)})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")

    tensors: dict = {}
    while not r.done:
        name = r.text(r.u32())
        rank = r.u32()
        if rank > 2:
            raise DataError(f"{path}: tensor {name!r} has rank {rank}, above 2")
        shape = tuple(r.u32() for _ in range(rank))
        code = r.u8()
        if code == DTYPE_INT4:
            block_size = r.u32()
            n_scales = r.u32()
            scales = np.frombuffer(r.take(4 * n_scales), dtype="<f4").copy()
            packed = np.frombuffer(r.take(r.u32()), dtype=np.uint8).copy()
            n = math.prod(shape)
            consistent = (
                block_size >= 2
                and n_scales == -(-n // block_size)
                and packed.size == (n_scales * block_size + 1) // 2
            )
            if not consistent:
                raise DataError(f"{path}: int4 tensor {name!r} payload does not match shape {shape}")
            tensors[name] = QuantTensor(
                packed=packed, scales=scales, block_size=block_size, shape=shape
            )
        elif code in _DTYPE_OF:
            dt = np.dtype(_DTYPE_OF[code]).newbyteorder("<")
            n = math.prod(shape)
            arr = np.frombuffer(r.take(n * dt.itemsize), dtype=dt).copy()
            tensors[name] = arr.astype(arr.dtype.newbyteorder("=")).reshape(shape)
        else:
            raise DataError(f"{path}: tensor {name!r} has unknown dtype code {code}")
    return header, tensors


# ----------------------------------------------------------- model files


def _config_header(config: ModelConfig, kind: str, vocab: Vocabulary) -> dict:
    words = list(vocab.tokens[len(SPECIAL_TOKENS) :])
    return {"kind": kind, "config": dataclasses.asdict(config), "vocab": words}


def save_model(model: Model, path: str | Path, vocab: Vocabulary) -> None:
    write_container(path, _config_header(model.config, "model", vocab), model.params)


def save_quantized(qmodel: QuantizedModel, path: str | Path, vocab: Vocabulary) -> None:
    if qmodel.merged is not None:
        # the int4 tensors predate the merge, so writing them would drop the adapter
        raise DataError("cannot save a quantized model with a merged adapter; save the adapter")
    write_container(path, _config_header(qmodel.config, "quant-model", vocab), qmodel.tensors)


def load_bundle(path: str | Path):
    """Load a float or quantized model together with its stored vocabulary.

    Returns (model, vocab): the model is a Model for both kinds (a
    QuantizedModel for int4), and vocab holds exactly config.vocab_size
    tokens.
    """
    header, tensors = read_container(path)
    kind, words = header.get("kind"), header.get("vocab")
    if kind not in ("model", "quant-model"):
        raise DataError(f"{path}: expected a model or quant-model container, got {kind!r}")
    try:
        config = ModelConfig(**header["config"])
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: bad config in header: {exc}") from exc
    if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
        raise DataError(f"{path}: header needs a vocab list of strings")
    vocab = Vocabulary(tokens=SPECIAL_TOKENS + tuple(words))
    if vocab.size != config.vocab_size:
        raise DataError(f"{path}: vocabulary has {vocab.size} tokens, "
                        f"config.vocab_size is {config.vocab_size}")
    return (Model if kind == "model" else QuantizedModel)(config, tensors), vocab
