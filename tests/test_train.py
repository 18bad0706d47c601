"""Batch assembly, Adam, accumulation equivalence, and the training loop."""

import hashlib
import threading

import numpy as np
import pytest

from eyedx import DataError, NumericError
from eyedx import shards as shards_module
from eyedx import train as train_module
from eyedx.corpus import DEFAULT_TEMPLATE, ReportRecord, synthesize
from eyedx.lora import attach
from eyedx.model import Model, ModelConfig, init_params
from eyedx.sample import DecodeParams, decode_batch
from eyedx.tokenizer import BOS_ID, EOS_ID, PAD_ID, build
from eyedx.train import Adam, TrainConfig, make_batch, train

CFG = ModelConfig(
    d_model=32, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=48, vocab_size=512, max_seq_len=128
)


def corpus_and_vocab(n=40, seed=0):
    records = synthesize(n, seed=seed)
    prompts = [r.findings + " " + r.diagnosis for r in records]
    prompts.append("modality findings impression : OSA CFP OCT")
    vocab = build(prompts, max_vocab=CFG.vocab_size - 4)
    return records, vocab


def fresh(records=None, vocab=None, seed=0, rank=4):
    model = Model(CFG, init_params(CFG, seed=seed, scale=0.1))
    attach(model, rank=rank, alpha=16.0, seed=seed)
    return model


# ------------------------------------------------------------- config


def test_train_config_defaults_and_validation():
    cfg = TrainConfig()
    assert cfg.learning_rate == 1.41e-5
    assert cfg.batch_size == 4
    assert cfg.max_seq_len == 512
    assert cfg.grad_accum_steps == 16
    assert cfg.lora_alpha == 16.0
    with pytest.raises(DataError):
        TrainConfig(epochs=0)
    with pytest.raises(DataError):
        TrainConfig(learning_rate=-1.0)
    for name in ("learning_rate", "lora_alpha"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(DataError, match=f"TrainConfig.{name} must be finite"):
                TrainConfig(**{name: bad})
    with pytest.raises(DataError, match="TrainConfig.seed must be an integer >= 0"):
        TrainConfig(seed=-1)


COUNTS = [(DecodeParams, "max_new_tokens"), (DecodeParams, "top_k")] + [
    (TrainConfig, name)
    for name in ("batch_size", "max_seq_len", "grad_accum_steps", "lora_r", "epochs")]


@pytest.mark.parametrize("value", [2.5, 3.0])
@pytest.mark.parametrize("settings, name", COUNTS)
def test_a_count_that_is_not_an_integer_is_a_one_line_data_error(settings, name, value):
    """A count is checked when the settings are built, not where a loop, a
    cache or numpy first meets it."""
    with pytest.raises(DataError, match=f"{name} must be .*integer.*, got {value}$"):
        settings(**{name: value})


# ------------------------------------------------------------- make_batch


def test_make_batch_single_token_target_has_two_unmasked():
    records, vocab = corpus_and_vocab()
    rec = ReportRecord(id="x", modality="OSA", findings="gland dropout", diagnosis="percent")
    batch = make_batch([rec], vocab, DEFAULT_TEMPLATE, max_seq_len=64)
    assert batch.size == 1
    assert batch.n_tokens == 2  # the target token and eos


def test_make_batch_layout_and_mask():
    records, vocab = corpus_and_vocab()
    batch = make_batch(records[:4], vocab, DEFAULT_TEMPLATE, max_seq_len=128)
    assert batch.inputs.shape == batch.labels.shape == batch.mask.shape
    assert batch.size == 4
    for i in range(4):
        row = batch.inputs[i]
        assert row[0] == BOS_ID
        # labels are inputs shifted left by one, up to the pad tail
        t = int((row != PAD_ID).sum())
        assert np.array_equal(batch.labels[i, : t - 1], batch.inputs[i, 1:t])
        assert batch.labels[i, t - 1] == EOS_ID
        assert batch.mask[i, t:].sum() == 0  # padding never unmasked
        assert batch.mask[i].sum() >= 2


def test_make_batch_skips_overlong_prompt():
    records, vocab = corpus_and_vocab()
    long_rec = ReportRecord(
        id="long", modality="OCT", findings="microns " * 100, diagnosis="normal macular contour"
    )
    batch = make_batch([records[0], long_rec], vocab, DEFAULT_TEMPLATE, max_seq_len=64)
    assert batch.size == 1
    assert batch.skipped == 1


def test_make_batch_truncates_to_window():
    records, vocab = corpus_and_vocab()
    rec = ReportRecord(
        id="t", modality="OCT", findings="microns " * 20, diagnosis="edema " * 40
    )
    batch = make_batch([rec], vocab, DEFAULT_TEMPLATE, max_seq_len=48)
    assert batch.inputs.shape[1] == 47  # window minus the shift
    assert EOS_ID not in batch.labels[0]  # eos fell off the truncated tail


def test_make_batch_default_window_shape():
    records, vocab = corpus_and_vocab()
    batch = make_batch(records[:4], vocab, DEFAULT_TEMPLATE, max_seq_len=512)
    assert batch.size == 4
    assert batch.inputs.shape[1] <= 512


# ------------------------------------------------------------- adam


def test_adam_first_step_size_is_lr():
    # with bias correction the very first update is lr * sign(g)
    w = {"w": np.zeros(3)}
    opt = Adam(lr=0.1)
    opt.step(w, {"w": np.array([1.0, -2.0, 0.5])})
    assert np.allclose(w["w"], [-0.1, 0.1, -0.1], atol=1e-6)


def test_adam_converges_on_quadratic():
    w = {"w": np.array([5.0, -3.0])}
    opt = Adam(lr=0.2)
    for _ in range(200):
        opt.step(w, {"w": 2 * w["w"]})
    assert np.abs(w["w"]).max() < 1e-2


# ------------------------------------------------------------- accumulation


def test_accumulation_matches_one_big_batch():
    records, vocab = corpus_and_vocab(12)
    model = Model(CFG, init_params(CFG, seed=1, scale=0.1, dtype=np.float64))
    attach(model, rank=4, alpha=16.0, seed=1)

    rng = np.random.default_rng(0)
    for t in model.adapter.targets:  # nonzero B so both factors get gradients
        model.adapter.b[t] = rng.standard_normal(model.adapter.b[t].shape) * 0.1

    big = make_batch(records, vocab, DEFAULT_TEMPLATE, 128)
    _, big_grads = model.loss_and_grads(big.inputs, big.labels, big.mask)

    acc = {k: np.zeros_like(v) for k, v in big_grads.items()}
    total = 0
    for lo in range(0, len(records), 3):
        micro = make_batch(records[lo : lo + 3], vocab, DEFAULT_TEMPLATE, 128)
        _, g = model.loss_and_grads(micro.inputs, micro.labels, micro.mask)
        for k in acc:
            acc[k] += micro.n_tokens * g[k]
        total += micro.n_tokens
    assert total == big.n_tokens
    for k in acc:
        acc[k] /= total
        rel = np.abs(acc[k] - big_grads[k]).max() / max(np.abs(big_grads[k]).max(), 1e-12)
        assert rel < 1e-5, f"{k}: {rel:.2e}"


# ------------------------------------------------------------- train loop


def small_train_config(**kw):
    defaults = dict(
        learning_rate=5e-3,
        batch_size=4,
        max_seq_len=128,
        grad_accum_steps=1,
        lora_r=4,
        lora_alpha=16.0,
        epochs=1,
        seed=0,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def params_digest(params):
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name]).tobytes())
    return h.hexdigest()


def test_train_reduces_loss_and_freezes_base():
    records, vocab = corpus_and_vocab(22)  # 66 records
    model = fresh()
    before = params_digest(model.params)
    result = train(model, records[:64], vocab, small_train_config())
    assert params_digest(model.params) == before
    assert result.steps == len(result.loss_history) == 16
    assert result.loss_history[-1] < result.loss_history[0]
    assert result.skipped == 0
    assert result.tokens_seen > 0


def test_train_is_deterministic():
    records, vocab = corpus_and_vocab(10)
    r1 = train(fresh(), records, vocab, small_train_config(epochs=2))
    r2 = train(fresh(), records, vocab, small_train_config(epochs=2))
    assert r1.loss_history == r2.loss_history
    r3 = train(fresh(), records, vocab, small_train_config(epochs=2, seed=5))
    assert r3.loss_history != r1.loss_history


def test_train_updates_adapter_tensors_only():
    records, vocab = corpus_and_vocab(8)
    model = fresh()
    a_before = {t: model.adapter.a[t].copy() for t in model.adapter.targets}
    train(model, records, vocab, small_train_config())
    moved = any(
        not np.array_equal(model.adapter.b[t], 0 * model.adapter.b[t])
        for t in model.adapter.targets
    )
    assert moved  # B left zero init
    # A moves too once B is nonzero (after the first step)
    a_moved = any(
        not np.array_equal(model.adapter.a[t], a_before[t]) for t in model.adapter.targets
    )
    assert a_moved


def test_train_logs_machine_readable_lines():
    records, vocab = corpus_and_vocab(6)
    lines = []
    train(fresh(), records, vocab, small_train_config(), log=lines.append)
    assert lines
    for line in lines:
        fields = dict(kv.split("=") for kv in line.split())
        assert list(fields) == ["step", "loss", "grad_norm", "update_norm", "skipped",
                                "tokens_per_sec"]
        float(fields["loss"])
        assert float(fields["grad_norm"]) > 0 and float(fields["update_norm"]) > 0
        assert int(fields["skipped"]) == 0


def test_train_log_norms_are_the_steps_gradient_and_update(monkeypatch):
    """Each line's grad_norm is the L2 norm of the step's combined gradient,
    its update_norm that of the change Adam made to the adapter, and skipped
    counts the records its micro-batches dropped."""
    records, vocab = corpus_and_vocab(6)
    long = ReportRecord(id="long", modality="OSA", findings=" ".join(["gland"] * 200),
                        diagnosis="percent")
    model = fresh()
    steps = []
    adam_step = Adam.step

    def recording(self, params, grads):
        before = {name: w.copy() for name, w in params.items()}
        adam_step(self, params, grads)
        steps.append((np.concatenate([g.ravel() for g in grads.values()]),
                      np.concatenate([(w - before[n]).ravel() for n, w in params.items()])))

    monkeypatch.setattr(Adam, "step", recording)
    lines = []
    config = small_train_config()
    chosen = [long] + records[:3] + [long] + records[3:6]
    train(model, chosen, vocab, config, log=lines.append)
    assert len(lines) == len(steps) == 2
    order = np.random.default_rng(config.seed).permutation(len(chosen))  # train's epoch order
    for k, (line, (grad, update)) in enumerate(zip(lines, steps)):
        fields = dict(kv.split("=") for kv in line.split())
        assert float(fields["grad_norm"]) == pytest.approx(np.linalg.norm(grad), rel=1e-5)
        assert float(fields["update_norm"]) == pytest.approx(np.linalg.norm(update), rel=1e-5)
        chunk = order[k * config.batch_size : (k + 1) * config.batch_size]
        assert int(fields["skipped"]) == sum(chosen[i] is long for i in chunk)


def test_train_without_a_log_computes_no_norm(monkeypatch):
    records, vocab = corpus_and_vocab(6)
    calls = []
    monkeypatch.setattr(train_module, "_norm", lambda tensors: calls.append(1) or 1.0)
    result = train(fresh(), records, vocab, small_train_config())
    assert result.steps > 0 and calls == []
    train(fresh(), records, vocab, small_train_config(), log=lambda line: None)
    assert len(calls) == 2 * result.steps


def test_train_aborts_on_non_finite_loss():
    # huge-but-finite activations get rescued by the pre-norm layers, so the
    # honest trigger is a poisoned adapter tensor
    records, vocab = corpus_and_vocab(6)
    model = fresh()
    for t in model.adapter.targets:
        model.adapter.b[t][:] = np.nan
    with pytest.raises(NumericError, match="step 1"):
        train(model, records, vocab, small_train_config())


def test_train_requires_adapter_and_records():
    records, vocab = corpus_and_vocab(4)
    bare = Model(CFG, init_params(CFG, seed=0))
    with pytest.raises(DataError, match="adapter"):
        train(bare, records, vocab, small_train_config())
    with pytest.raises(DataError, match="empty"):
        train(fresh(), [], vocab, small_train_config())
    # a window too short for any target leaves no optimizer step
    skipped_all = f"all {len(records)} records were skipped.* max_seq_len 1$"
    with pytest.raises(DataError, match=skipped_all):
        train(fresh(), records, vocab, small_train_config(max_seq_len=1, epochs=2))


def test_accumulation_steps_change_step_count_not_token_count():
    records, vocab = corpus_and_vocab(16)  # 48 records
    r1 = train(fresh(), records, vocab, small_train_config(grad_accum_steps=1))
    r2 = train(fresh(), records, vocab, small_train_config(grad_accum_steps=4))
    assert r1.tokens_seen == r2.tokens_seen
    assert r1.steps == 12
    assert r2.steps == 3


def test_train_shares_the_process_shard_threads(monkeypatch, single_threaded):
    """The step's shard threads belong to the process: a second train steps
    on the thread the first one started, and decode_batch straight after
    ends it and forks its decode shards."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(shards_module, "_usable_cores", lambda: 2)

    def shard_threads():
        return [t for t in threading.enumerate() if t.name.startswith("eyedx-shard")]

    records, vocab = corpus_and_vocab(4)
    model = fresh()
    during = []
    for _ in range(2):
        train(model, records, vocab, small_train_config(),
              log=lambda _: during.append(shard_threads()))
    assert len(during) > 2 and all(during)  # every step of both ran on a second thread
    assert all(set(during[0]) <= set(threads) for threads in during)

    splits = []
    split = shards_module._split_rows
    monkeypatch.setattr(shards_module, "_split_rows",
                        lambda weights, n: splits.append(split(weights, n)) or splits[-1])
    decode_batch(model, [[BOS_ID, 5, 6], [BOS_ID, 7]], DecodeParams(max_new_tokens=2))
    assert [len(shards) for shards in splits] == [2]
    assert shard_threads() == []
