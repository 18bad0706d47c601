"""Binary container format: bit-exact round-trips and hostile-input errors."""

import numpy as np
import pytest

from eyedx import DataError
from eyedx.container import (
    MAGIC,
    load_bundle,
    read_container,
    save_model,
    save_quantized,
    write_container,
)
from eyedx.lora import attach, merge, save_adapter
from eyedx.model import Model, ModelConfig, init_params
from eyedx.quant import QuantizedModel, QuantTensor, codes_of, quantize, quantize_model
from eyedx.tokenizer import SPECIAL_TOKENS, Vocabulary

RNG = np.random.default_rng(5)

CFG = ModelConfig(
    d_model=16, n_layers=1, n_heads=2, n_kv_heads=1, d_ff=24, vocab_size=11, max_seq_len=16
)
WORDS = ["a", "b", "c", "d", "e", "f", "g"]  # CFG.vocab_size tokens with the specials
VOCAB = Vocabulary(tokens=SPECIAL_TOKENS + tuple(WORDS))


def test_round_trip_is_bit_exact(tmp_path):
    tensors = {
        "w32": RNG.standard_normal((3, 5)).astype(np.float32),
        "w64": RNG.standard_normal(7),
        "gain": np.ones(4, dtype=np.float32),
    }
    header = {"kind": "test", "note": "round trip", "n": 3}
    path = tmp_path / "t.bin"
    write_container(path, header, tensors)
    h2, t2 = read_container(path)
    assert h2 == header
    assert list(t2) == list(tensors)  # order preserved
    for name in tensors:
        assert t2[name].dtype == tensors[name].dtype
        assert np.array_equal(t2[name], tensors[name])


def test_round_trip_quant_tensor(tmp_path):
    q = quantize(RNG.standard_normal(200).astype(np.float32), block_size=32)
    path = tmp_path / "q.bin"
    write_container(path, {"kind": "test"}, {"q": q})
    _, t2 = read_container(path)
    q2 = t2["q"]
    assert q2.block_size == 32
    assert q2.shape == (200,)
    assert np.array_equal(q2.packed, q.packed)
    assert np.array_equal(q2.scales, q.scales)
    assert np.array_equal(codes_of(q2), codes_of(q))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        read_container(path)


def test_truncated_file_rejected(tmp_path):
    good = tmp_path / "good.bin"
    write_container(good, {"k": 1}, {"w": np.ones((4, 4), dtype=np.float32)})
    data = good.read_bytes()
    bad = tmp_path / "trunc.bin"
    bad.write_bytes(data[: len(data) - 9])
    with pytest.raises(DataError, match="truncated"):
        read_container(bad)


def test_tensor_rank_above_two_rejected(tmp_path):
    with pytest.raises(DataError, match="rank 3"):
        write_container(tmp_path / "r.bin", {}, {"w": np.zeros((1, 1, 1), dtype=np.float32)})
    # a corrupt rank field reads dims from the payload; past numpy's 64
    # dimensions the reshape raised ValueError instead of a data error
    good = tmp_path / "good.bin"
    write_container(good, {}, {"w": np.zeros(0, dtype=np.float32)})
    data = bytearray(good.read_bytes())
    rank_at = len(data) - 1 - 4 - 4  # dtype byte, the one dim, the rank
    data[rank_at : rank_at + 4] = (65).to_bytes(4, "little")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(data) + b"\x00" * (4 * 64 + 1))
    with pytest.raises(DataError, match="rank 65"):
        read_container(bad)


def test_unknown_version_rejected(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(MAGIC + (99).to_bytes(4, "little") + b"\x00" * 8)
    with pytest.raises(DataError, match="version"):
        read_container(path)


def test_missing_file_rejected():
    with pytest.raises(DataError, match="not found"):
        read_container("/nonexistent/x.bin")


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(DataError, match="dtype"):
        write_container(tmp_path / "i.bin", {}, {"w": np.ones(3, dtype=np.int32)})


def test_model_checkpoint_round_trip(tmp_path):
    model = Model(CFG, init_params(CFG, seed=3))
    path = tmp_path / "model.bin"
    save_model(model, path, VOCAB)
    back, vocab = load_bundle(path)
    assert vocab == VOCAB
    assert back.config == CFG
    for name, w in model.params.items():
        assert np.array_equal(back.params[name], w)
    tokens = RNG.integers(0, CFG.vocab_size, 9)
    assert np.array_equal(model.forward(tokens), back.forward(tokens))


def test_quantized_checkpoint_round_trip(tmp_path):
    params = init_params(CFG, seed=4)
    qmodel = QuantizedModel(CFG, quantize_model(params, CFG))
    path = tmp_path / "model.q4"
    save_quantized(qmodel, path, VOCAB)
    back, vocab = load_bundle(path)
    assert vocab == VOCAB
    tokens = RNG.integers(0, CFG.vocab_size, 9)
    assert np.array_equal(qmodel.forward(tokens), back.forward(tokens))


def test_kind_mixups_rejected(tmp_path):
    model = Model(CFG, init_params(CFG))
    path = tmp_path / "adapter.olr"
    save_adapter(attach(model, rank=2), path)
    with pytest.raises(DataError, match="quant-model"):
        load_bundle(path)


def test_save_quantized_refuses_a_merged_adapter(tmp_path):
    qmodel = QuantizedModel(CFG, quantize_model(init_params(CFG, seed=4), CFG))
    adapter = attach(qmodel, rank=2)
    adapter.b["layers.0.wq"][:] = 1.0  # a non-zero delta, so merging changes params
    merge(qmodel)
    path = tmp_path / "model.q4"
    with pytest.raises(DataError, match="merged adapter"):
        save_quantized(qmodel, path, VOCAB)
    assert not path.exists()


def test_wrongly_shaped_tensor_rejected_at_load(tmp_path):
    params = init_params(CFG)
    params["layers.0.wq"] = params["layers.0.wq"][:, :-1]  # a truncated float tensor
    path = tmp_path / "model.bin"
    write_container(path, {"kind": "model", "config": vars(CFG), "vocab": WORDS}, params)
    with pytest.raises(DataError, match="layers.0.wq"):
        load_bundle(path)


def test_wrongly_shaped_quant_tensor_rejected_at_load(tmp_path):
    tensors = quantize_model(init_params(CFG), CFG)
    # a self-consistent int4 payload of the wrong shape, so only the model check sees it
    tensors["layers.0.wv"] = quantize(init_params(CFG)["layers.0.wv"][:-1])
    path = tmp_path / "model.q4"
    write_container(path, {"kind": "quant-model", "config": vars(CFG), "vocab": WORDS}, tensors)
    with pytest.raises(DataError, match="layers.0.wv"):
        load_bundle(path)


def test_int4_payload_inconsistent_with_shape_rejected(tmp_path):
    q = quantize(RNG.standard_normal(200).astype(np.float32), block_size=32)
    for bad in (
        QuantTensor(q.packed, q.scales, q.block_size, (300,)),
        QuantTensor(q.packed[:-1], q.scales, q.block_size, q.shape),
        QuantTensor(q.packed, q.scales[:-1], q.block_size, q.shape),
        QuantTensor(q.packed, q.scales, 0, q.shape),
    ):
        path = tmp_path / "q.bin"
        write_container(path, {"kind": "test"}, {"q": bad})
        with pytest.raises(DataError, match="payload"):
            read_container(path)


def test_header_errors_raise_data_error(tmp_path):
    params = init_params(CFG)
    path = tmp_path / "h.bin"
    for header in (
        {"kind": "model", "config": {**vars(CFG), "n_experts": 4}},
        {"kind": "model", "config": {**vars(CFG), "d_model": "16"}},
        {"kind": "model", "config": {**vars(CFG), "d_model": 16.0}},
        {"kind": "model"},
    ):
        write_container(path, header, params)
        with pytest.raises(DataError, match="config|integer"):
            load_bundle(path)
    for raw in (b"{not json", b"[1, 2]", b"\xff\xfe"):
        path.write_bytes(MAGIC + (1).to_bytes(4, "little") + len(raw).to_bytes(4, "little") + raw)
        with pytest.raises(DataError, match="header|utf-8"):
            read_container(path)


@pytest.mark.parametrize("kind", ["model", "quant-model"])
@pytest.mark.parametrize("vocab", [
    "missing", 5, "abcdefg", [["a"]], ["a", 3], WORDS[:-1], WORDS + ["h"],
])
def test_load_bundle_needs_a_vocab_of_vocab_size(tmp_path, kind, vocab):
    tensors = init_params(CFG)
    if kind == "quant-model":
        tensors = quantize_model(tensors, CFG)
    header = {"kind": kind, "config": vars(CFG)}
    if vocab != "missing":
        header["vocab"] = vocab
    path = tmp_path / "model.bin"
    write_container(path, header, tensors)
    with pytest.raises(DataError, match="vocab"):
        load_bundle(path)
