"""Adapter algebra: attach/merge/unmerge/swap, freezing, gradients, file I/O."""

import numpy as np
import pytest

from eyedx import DataError
from eyedx.lora import (
    attach,
    init_adapter,
    load_adapter,
    merge,
    parameter_count,
    save_adapter,
    swap,
    target_names,
    unmerge,
)
from eyedx.model import Model, ModelConfig, init_params
from eyedx.numerics import cross_entropy
from oracles import finite_difference, grad_relative_error

RNG = np.random.default_rng(13)

CFG = ModelConfig(
    d_model=16, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=24, vocab_size=13, max_seq_len=16
)


def fresh_model(seed=0, dtype=np.float32):
    return Model(CFG, init_params(CFG, seed=seed, scale=0.4, dtype=dtype))


def randomized(adapter, seed=1, spread=0.3):
    """Give B nonzero values so the delta is real."""
    rng = np.random.default_rng(seed)
    for t in adapter.targets:
        adapter.b[t] = (rng.standard_normal(adapter.b[t].shape) * spread).astype(
            adapter.b[t].dtype
        )
    return adapter


def test_fresh_adapter_is_bit_exact_noop():
    model = fresh_model()
    tokens = RNG.integers(0, CFG.vocab_size, 10)
    base = model.forward(tokens)
    attach(model, rank=4, alpha=16.0)
    assert np.array_equal(model.forward(tokens), base)


def test_trainable_parameter_count_closed_form():
    model = fresh_model()
    adapter = attach(model, rank=4, alpha=16.0)
    # per layer: wq is (16, 16), wv is (16, 8)
    expected = CFG.n_layers * (4 * (16 + 16) + 4 * (16 + 8))
    assert parameter_count(adapter) == expected


def test_targets_are_query_and_value_projections():
    names = target_names(CFG)
    assert names == ["layers.0.wq", "layers.0.wv", "layers.1.wq", "layers.1.wv"]


def test_rank_bounds():
    with pytest.raises(DataError, match="rank"):
        init_adapter(CFG, rank=0, alpha=16.0)
    with pytest.raises(DataError, match="exceeds"):
        init_adapter(CFG, rank=9, alpha=16.0)  # wv min dim is kv_dim = 8
    init_adapter(CFG, rank=8, alpha=16.0)  # largest legal rank fits


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_alpha_must_be_finite_and_positive(alpha):
    with pytest.raises(DataError, match="alpha must be finite and positive"):
        init_adapter(CFG, rank=2, alpha=alpha)


def test_double_attach_rejected():
    model = fresh_model()
    attach(model, rank=2, alpha=4.0)
    with pytest.raises(DataError, match="already attached"):
        attach(model, rank=2, alpha=4.0)


def test_adapted_forward_equals_base_plus_delta_path():
    model = fresh_model()
    adapter = randomized(attach(model, rank=4, alpha=16.0))
    x = RNG.standard_normal((1, 6, CFG.d_model)).astype(np.float32)
    for t in adapter.targets:
        got = model._project(x, t)
        expect = x @ model.params[t] + adapter.scale * ((x @ adapter.a[t]) @ adapter.b[t])
        assert np.allclose(got, expect, atol=1e-6)


def test_merge_matches_adapted_forward():
    model = fresh_model()
    randomized(attach(model, rank=4, alpha=16.0))
    inputs = [RNG.integers(0, CFG.vocab_size, RNG.integers(2, 14)) for _ in range(100)]
    adapted = [model.forward(t) for t in inputs]
    merge(model)
    assert model.adapter is None
    for tokens, before in zip(inputs, adapted):
        after = model.forward(tokens)
        rel = np.max(np.abs(after - before)) / max(np.max(np.abs(before)), 1e-12)
        assert rel < 1e-5


def test_merge_of_zero_adapter_is_bit_exact():
    model = fresh_model()
    snapshot = {k: v.copy() for k, v in model.params.items()}
    attach(model, rank=4, alpha=16.0)  # B = 0
    merge(model)
    for name, w in model.params.items():
        assert np.array_equal(w, snapshot[name])


def test_double_merge_rejected():
    model = fresh_model()
    attach(model, rank=2, alpha=4.0)
    merge(model)
    with pytest.raises(DataError, match="no adapter"):
        merge(model)


def test_unmerge_restores_base_weights():
    model = fresh_model()
    snapshot = {k: v.copy() for k, v in model.params.items()}
    adapter = randomized(attach(model, rank=4, alpha=16.0))
    merge(model)
    back = unmerge(model)
    assert back is adapter
    assert model.adapter is adapter  # re-attached, adapted state restored
    assert model.merged is None
    for name, w in model.params.items():
        assert np.max(np.abs(w - snapshot[name])) < 1e-6


def test_swap_identity_leaves_weights():
    model = fresh_model()
    a = randomized(attach(model, rank=4, alpha=16.0))
    merge(model)
    snapshot = {k: v.copy() for k, v in model.params.items()}
    swap(model, a, a)
    for name, w in model.params.items():
        assert np.max(np.abs(w - snapshot[name])) < 1e-6


def test_swap_two_path_equivalence():
    # path 1: merge(base, a) then swap to b; path 2: merge(base, b) directly
    model1 = fresh_model(seed=7)
    model2 = fresh_model(seed=7)
    a = randomized(init_adapter(CFG, rank=4, alpha=16.0, seed=1), seed=21)
    b = randomized(init_adapter(CFG, rank=4, alpha=16.0, seed=2), seed=22)

    attach(model1, adapter=a)
    merge(model1)
    swap(model1, a, b)

    attach(model2, adapter=b)
    merge(model2)

    tokens = RNG.integers(0, CFG.vocab_size, 12)
    l1, l2 = model1.forward(tokens), model2.forward(tokens)
    assert np.max(np.abs(l1 - l2)) / max(np.max(np.abs(l2)), 1e-12) < 1e-5
    assert model1.merged is b


def test_swap_requires_merged_state_and_matching_old():
    model = fresh_model()
    a = randomized(attach(model, rank=4, alpha=16.0))
    b = randomized(init_adapter(CFG, rank=4, alpha=16.0, seed=9), seed=30)
    with pytest.raises(DataError, match="no merged"):
        swap(model, a, b)
    merge(model)
    with pytest.raises(DataError, match="different adapter"):
        swap(model, b, a)


def test_swap_rejects_shape_mismatch():
    model = fresh_model()
    a = randomized(attach(model, rank=4, alpha=16.0))
    merge(model)
    other_cfg = ModelConfig(
        d_model=16, n_layers=2, n_heads=4, n_kv_heads=4, d_ff=24, vocab_size=13, max_seq_len=16
    )
    bad = init_adapter(other_cfg, rank=4, alpha=16.0)  # wv is (16, 16) there
    with pytest.raises(DataError, match="mismatch"):
        swap(model, a, bad)


def test_swap_with_different_rank_is_legal():
    model = fresh_model()
    a = randomized(attach(model, rank=4, alpha=16.0))
    merge(model)
    b = randomized(init_adapter(CFG, rank=2, alpha=16.0, seed=5), seed=31)
    swap(model, a, b)
    assert model.merged is b


def test_training_grads_flow_to_adapter_and_base_stays_frozen():
    model = fresh_model(dtype=np.float64)
    adapter = randomized(attach(model, rank=3, alpha=6.0))
    frozen = {k: v.copy() for k, v in model.params.items()}
    inputs = RNG.integers(0, CFG.vocab_size, (2, 8))
    labels = RNG.integers(0, CFG.vocab_size, (2, 8))
    mask = np.ones((2, 8), dtype=bool)
    _, grads = model.loss_and_grads(inputs, labels, mask)
    for t in adapter.targets:
        assert np.abs(grads[t + ".lora_a"]).max() > 0
        assert np.abs(grads[t + ".lora_b"]).max() > 0
    for name, w in model.params.items():
        assert np.array_equal(w, frozen[name])


def test_adapter_gradcheck_float64():
    model = fresh_model(dtype=np.float64)
    adapter = randomized(attach(model, rank=3, alpha=6.0))
    inputs = RNG.integers(0, CFG.vocab_size, (2, 6))
    labels = RNG.integers(0, CFG.vocab_size, (2, 6))
    mask = np.ones((2, 6), dtype=bool)

    def loss():
        return cross_entropy(model.forward(inputs)[mask], labels[mask])

    _, grads = model.loss_and_grads(inputs, labels, mask)
    for t in adapter.targets:
        for suffix, arr in ((".lora_a", adapter.a[t]), (".lora_b", adapter.b[t])):
            num = finite_difference(lambda _: loss(), arr)
            err = grad_relative_error(grads[t + suffix], num)
            assert err < 1e-4, f"{t}{suffix}: rel err {err:.2e}"


def test_adapter_tensors_are_its_own_arrays():
    """tensors() hands out the factors themselves, so an optimizer's in-place
    step on them is a step of the adapter."""
    adapter = init_adapter(CFG, rank=2, alpha=4.0)
    tensors = adapter.tensors()
    assert list(tensors) == [t + s for t in adapter.targets for s in (".lora_a", ".lora_b")]
    for t in adapter.targets:
        assert tensors[t + ".lora_a"] is adapter.a[t]
        assert tensors[t + ".lora_b"] is adapter.b[t]


def test_adapter_file_round_trip(tmp_path):
    adapter = randomized(init_adapter(CFG, rank=4, alpha=16.0, seed=3))
    path = tmp_path / "adapter.bin"
    save_adapter(adapter, path)
    back = load_adapter(path)
    assert back.rank == 4
    assert back.alpha == 16.0
    assert back.targets == adapter.targets
    for t in adapter.targets:
        assert np.array_equal(back.a[t], adapter.a[t])
        assert np.array_equal(back.b[t], adapter.b[t])


def test_load_adapter_rejects_model_container(tmp_path):
    from eyedx.container import save_model
    from eyedx.tokenizer import SPECIAL_TOKENS, Vocabulary

    model = fresh_model()
    path = tmp_path / "m.bin"
    words = tuple("abcdefghi")  # CFG.vocab_size tokens with the specials
    save_model(model, path, Vocabulary(tokens=SPECIAL_TOKENS + words))
    with pytest.raises(DataError, match="adapter"):
        load_adapter(path)


def test_load_adapter_rejects_bad_rank_or_alpha(tmp_path):
    from eyedx.container import read_container, write_container

    good = tmp_path / "adapter.bin"
    save_adapter(init_adapter(CFG, rank=4, alpha=16.0), good)
    header, tensors = read_container(good)
    for change in ({"rank": None}, {"rank": "four"}, {"rank": 0}, {"alpha": -1.0}, {"alpha": []},
                   {"alpha": float("inf")}, {"alpha": float("nan")}):
        path = tmp_path / "bad.bin"
        write_container(path, {**header, **change}, tensors)
        with pytest.raises(DataError, match="rank|alpha"):
            load_adapter(path)


def test_loaded_adapter_attaches_and_matches(tmp_path):
    model = fresh_model(seed=2)
    adapter = randomized(attach(model, rank=4, alpha=16.0))
    tokens = RNG.integers(0, CFG.vocab_size, 10)
    expected = model.forward(tokens)

    path = tmp_path / "adapter.bin"
    save_adapter(adapter, path)
    model2 = fresh_model(seed=2)
    attach(model2, adapter=load_adapter(path))
    assert np.array_equal(model2.forward(tokens), expected)
