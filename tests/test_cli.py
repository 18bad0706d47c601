"""End-to-end tests of the command-line interface via main()."""

import io
import json
import os
import re
import signal
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eyedx
from eyedx import cli, sample
from eyedx.cli import main
from eyedx.container import load_bundle, read_container, save_model, save_quantized, write_container
from eyedx.corpus import dedup, render_prompt, split, synthesize, write_jsonl
from eyedx.lora import attach, load_adapter, save_adapter
from eyedx.model import Model, ModelConfig, init_params
from eyedx.quant import QuantizedModel, quantize_model
from eyedx.tokenizer import build


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared corpus plus one tiny trained model/adapter pair."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["prepare", "--synthesize", "6", "--seed", "0", "--out", str(data)]) == 0
    adapter = root / "adapter.olm"
    model = root / "model.olm"
    code = main([
        "train", "--data", str(data), "--out", str(adapter),
        "--epochs", "1", "--grad-accum-steps", "2", "--max-seq-len", "96", "--lora-r", "2",
    ])
    assert code == 0
    return {"root": root, "data": data, "model": model, "adapter": adapter}


# -- prepare ------------------------------------------------------------------


def test_prepare_writes_split_and_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert main(["prepare", "--synthesize", "4", "--seed", "1", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["ratio"] == 0.6
    assert manifest["train"]["total"] + manifest["test"]["total"] == manifest["total"]
    assert set(manifest["train"]["by_modality"]) == {"OSA", "CFP", "OCT"}
    train_lines = (out / "train.jsonl").read_text().strip().splitlines()
    assert len(train_lines) == manifest["train"]["total"]


def test_prepare_requires_exactly_one_source(tmp_path, capsys):
    assert main(["prepare", "--out", str(tmp_path / "a")]) == 1
    assert main([
        "prepare", "--synthesize", "2", "--input", "x.jsonl", "--out", str(tmp_path / "b"),
    ]) == 1
    assert "error" in capsys.readouterr().err


def test_prepare_runs_are_byte_identical(tmp_path):
    first, second = tmp_path / "one", tmp_path / "two"
    for out in (first, second):
        assert main(["prepare", "--synthesize", "5", "--seed", "3", "--out", str(out)]) == 0
    for name in ("train.jsonl", "test.jsonl", "manifest.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_prepare_ingests_an_existing_file(tmp_path):
    source = tmp_path / "reports.jsonl"
    write_jsonl(synthesize(3, seed=2), source)
    out = tmp_path / "corpus"
    assert main(["prepare", "--input", str(source), "--out", str(out)]) == 0
    assert (out / "train.jsonl").exists()


# -- train --------------------------------------------------------------------


def test_train_writes_adapter_model_and_log(workspace):
    assert workspace["adapter"].exists()
    assert workspace["model"].exists()
    log = (workspace["root"] / "adapter.olm.log").read_text().splitlines()
    assert log
    assert all(re.fullmatch(r"step=\d+ loss=\d+\.\d{6} tokens_per_sec=\d+\.\d", line)
               for line in log)
    assert load_adapter(workspace["adapter"]).rank == 2


def test_train_flag_overrides_config_file(workspace, tmp_path):
    config = tmp_path / "train.conf"
    config.write_text("epochs = 2\nlora_r = 4  # rank from file\nmax_seq_len = 96\n")
    adapter = tmp_path / "tuned.olm"
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(adapter), "--config", str(config),
        "--epochs", "1", "--grad-accum-steps", "2",
    ])
    assert code == 0
    assert load_adapter(adapter).rank == 4
    steps = (tmp_path / "tuned.olm.log").read_text().splitlines()
    # 10 train records, batch 4, accumulation 2: two optimizer steps per epoch,
    # so the --epochs 1 flag must shadow the file's epochs = 2.
    assert len(steps) == 2


def test_train_rejects_unknown_config_key(workspace, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("learning_rte = 0.001\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_malformed_config_line(workspace, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("epochs three\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2


def test_train_rejects_bad_config_value(workspace, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("epochs = soon\n")
    code = main([
        "train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
        "--out", str(tmp_path / "a.olm"), "--config", str(config),
    ])
    assert code == 2
    assert "bad value" in capsys.readouterr().err


# -- infer --------------------------------------------------------------------

FINDINGS = "tear breakup time 4 seconds, meibomian gland loss 55 percent"


def infer_args(workspace, *extra):
    return [
        "infer", "--model", str(workspace["model"]), "--modality", "OSA",
        "--max-new-tokens", "8", "--seed", "0", *extra,
    ]


def test_infer_prints_generated_text(workspace, capsys):
    assert main(infer_args(workspace, "--report", FINDINGS)) == 0
    assert capsys.readouterr().out.strip()


def test_infer_with_adapter_and_quant(workspace, capsys):
    code = main(infer_args(
        workspace, "--report", FINDINGS, "--adapter", str(workspace["adapter"]), "--quant",
    ))
    assert code == 0
    assert capsys.readouterr().out.strip()


def test_infer_reads_report_from_file(workspace, tmp_path, capsys):
    report = tmp_path / "report.txt"
    report.write_text(FINDINGS)
    assert main(infer_args(workspace, "--report", f"@{report}")) == 0
    assert capsys.readouterr().out.strip()


def test_infer_missing_report_file(workspace, capsys):
    assert main(infer_args(workspace, "--report", "@/no/such/file.txt")) == 2
    assert "not found" in capsys.readouterr().err


def test_infer_rejects_unknown_modality(workspace, capsys):
    code = main([
        "infer", "--model", str(workspace["model"]), "--modality", "MRI",
        "--report", FINDINGS,
    ])
    assert code == 1
    assert "invalid choice" in capsys.readouterr().err


def test_infer_missing_model_file(tmp_path, capsys):
    code = main([
        "infer", "--model", str(tmp_path / "ghost.olm"), "--modality", "OSA",
        "--report", FINDINGS,
    ])
    assert code == 2


def assert_one_line_data_error(code, capsys):
    """Returns what was printed to stdout."""
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("data error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    return out


def test_infer_rejects_unknown_config_key(workspace, tmp_path, capsys):
    header, tensors = read_container(workspace["model"])
    header["config"]["n_experts"] = 4
    bad = tmp_path / "model.olm"
    write_container(bad, header, tensors)
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert_one_line_data_error(code, capsys)


def test_infer_rejects_malformed_header_json(workspace, tmp_path, capsys):
    data = workspace["model"].read_bytes()
    header_len = int.from_bytes(data[8:12], "little")
    bad = tmp_path / "model.olm"
    bad.write_bytes(data[:12] + b"{" * header_len + data[12 + header_len :])
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert_one_line_data_error(code, capsys)


def test_infer_rejects_adapter_without_rank(workspace, tmp_path, capsys):
    header, tensors = read_container(workspace["adapter"])
    del header["rank"]
    bad = tmp_path / "adapter.olm"
    write_container(bad, header, tensors)
    code = main(infer_args(workspace, "--report", FINDINGS, "--adapter", str(bad)))
    assert_one_line_data_error(code, capsys)


# -- evaluate -----------------------------------------------------------------


def evaluate_args(workspace, out, *extra):
    return [
        "evaluate", "--data", str(workspace["data"]), "--out", str(out),
        "--limit", "3", "--max-new-tokens", "8", "--top-k", "1", *extra,
    ]


def test_evaluate_one_model_gives_single_row_table(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(evaluate_args(workspace, out, "--model", str(workspace["model"])))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| model | R-1 | R-2 | R-L |"
    assert lines[2].startswith("| model |")
    assert lines[3] == f"wrote {out}"


def test_evaluate_pairs_models_with_adapters(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out,
        "--model", str(workspace["model"]), "--model", str(workspace["model"]),
        "--adapter", "-", "--adapter", str(workspace["adapter"]),
    ))
    assert code == 0
    table = capsys.readouterr().out
    assert "| model |" in table
    assert "| model+adapter |" in table
    payload = json.loads(out.read_text())
    assert set(payload) == {"model", "model+adapter"}
    assert len(payload["model"]["records"]) == 3


def test_evaluate_rejects_mismatched_adapter_count(workspace, tmp_path):
    code = main(evaluate_args(
        workspace, tmp_path / "r.json",
        "--model", str(workspace["model"]), "--model", str(workspace["model"]),
        "--adapter", str(workspace["adapter"]),
    ))
    assert code == 1


# -- QLoRA: adapters on an int4 base -----------------------------------------


@pytest.fixture(scope="module")
def qlora(workspace):
    """The workspace's base model stored as int4, and an adapter trained on it."""
    model, vocab = load_bundle(workspace["model"])
    qmodel = QuantizedModel(model.config, quantize_model(model.params, model.config))
    qpath = workspace["root"] / "q.olm"
    save_quantized(qmodel, qpath, vocab=vocab)
    adapter = workspace["root"] / "q-adapter.olr"
    code = main([
        "train", "--data", str(workspace["data"]), "--out", str(adapter), "--model", str(qpath),
        "--epochs", "1", "--grad-accum-steps", "2", "--max-seq-len", "96", "--lora-r", "2",
    ])
    return {"model": qpath, "adapter": adapter, "train_code": code}


def test_load_bundle_gives_a_model_for_both_kinds(workspace, qlora):
    assert isinstance(load_bundle(workspace["model"])[0], Model)
    assert isinstance(load_bundle(qlora["model"])[0], Model)


def test_train_on_int4_base_writes_adapter(qlora):
    assert qlora["train_code"] == 0
    assert load_adapter(qlora["adapter"]).rank == 2


def test_infer_and_evaluate_int4_base_with_adapter(workspace, qlora, tmp_path, capsys):
    code = main([
        "infer", "--model", str(qlora["model"]), "--adapter", str(qlora["adapter"]),
        "--modality", "OSA", "--max-new-tokens", "8", "--seed", "0", "--report", FINDINGS,
    ])
    assert code == 0
    assert capsys.readouterr().out.strip()
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out, "--model", str(qlora["model"]), "--adapter", str(qlora["adapter"]),
    ))
    assert code == 0
    assert set(json.loads(out.read_text())) == {"q+q-adapter"}


def test_infer_quant_on_int4_model_rejected(qlora, capsys):
    code = main([
        "infer", "--model", str(qlora["model"]), "--quant",
        "--modality", "OSA", "--report", FINDINGS,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {qlora['model']} is already quantized\n"


# -- non-finite settings -------------------------------------------------------


@pytest.mark.parametrize("flag", ["--temperature", "--repetition-penalty"])
@pytest.mark.parametrize("command", ["infer", "evaluate"])
def test_nan_decode_setting_is_a_one_line_data_error(workspace, tmp_path, capsys, command, flag):
    out = tmp_path / "report.json"
    argv = {
        "infer": infer_args(workspace, "--report", FINDINGS),
        "evaluate": evaluate_args(workspace, out, "--model", str(workspace["model"])),
    }[command]
    assert_one_line_data_error(main([*argv, flag, "nan"]), capsys)
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name", ["learning_rate", "lora_alpha"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_non_finite_train_setting_is_a_one_line_data_error(workspace, tmp_path, capsys, form,
                                                           name, value):
    out = tmp_path / "adapter.olm"
    argv = ["train", "--data", str(workspace["data"]), "--out", str(out),
            "--epochs", "1", "--batch-size", "16"]
    if form == "flag":
        argv += ["--" + name.replace("_", "-"), value]
    else:
        config = tmp_path / "train.conf"
        config.write_text(f"{name} = {value}\n")
        argv += ["--config", str(config)]
    assert_one_line_data_error(main(argv), capsys)
    # nothing is written: no adapter, no training log, no base model
    assert not out.exists()
    assert [p.name for p in tmp_path.iterdir()] == (["train.conf"] if form == "config" else [])


@pytest.mark.parametrize("command", ["train", "infer", "evaluate", "bench"])
def test_negative_seed_is_a_one_line_data_error(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    model, data = str(workspace["model"]), str(workspace["data"])
    argv = {
        "train": ["train", "--data", data, "--out", str(out)],
        "infer": infer_args(workspace, "--report", FINDINGS),
        "evaluate": evaluate_args(workspace, out, "--model", model),
        "bench": ["bench", "--model", model, "--data", data],
    }[command]
    assert main([*argv, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"data error: (TrainConfig\.)?seed must be an integer >= 0, got -1\n", err)
    assert list(tmp_path.iterdir()) == []  # no adapter, log, base model or report


def test_train_that_skips_every_record_is_a_one_line_data_error(workspace, tmp_path, capsys):
    out = tmp_path / "adapter.olm"
    argv = ["train", "--data", str(workspace["data"]), "--out", str(out),
            "--model", str(workspace["model"]), "--max-seq-len", "1"]
    assert_one_line_data_error(main(argv), capsys)
    assert list(tmp_path.iterdir()) == []  # no adapter, no training log


def test_train_that_fails_without_a_base_model_writes_no_base_model(workspace, tmp_path, capsys):
    """Without --model the base model is saved and announced only once
    training has run: a failed run leaves no model.olm and prints nothing."""
    out = tmp_path / "adapter.olr"
    argv = ["train", "--data", str(workspace["data"]), "--out", str(out), "--max-seq-len", "1"]
    assert assert_one_line_data_error(main(argv), capsys) == ""
    assert list(tmp_path.iterdir()) == []  # no model.olm, adapter or log


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("name", ["rope_base", "rmsnorm_eps"])
def test_non_finite_config_in_a_checkpoint_is_a_one_line_data_error(
    workspace, tmp_path, capsys, name, value
):
    model, vocab = load_bundle(workspace["model"])
    object.__setattr__(model.config, name, value)  # what a hostile header holds
    bad = tmp_path / "model.olm"
    save_model(model, bad, vocab=vocab)
    assert not np.isfinite(read_container(bad)[0]["config"][name])
    assert_one_line_data_error(main(infer_args({"model": bad}, "--report", FINDINGS)), capsys)


# -- unreadable inputs ---------------------------------------------------------

# argv for each input, given the workspace, a file of invalid UTF-8 named
# test.jsonl (so its directory doubles as a corrupt data split) and a directory
UNREADABLE = {
    "prepare --input not utf-8": lambda w, bad, folder: [
        "prepare", "--input", bad, "--out", folder / "out"],
    "train --config not utf-8": lambda w, bad, folder: [
        "train", "--data", w["data"], "--model", w["model"], "--out", folder / "a.olm",
        "--config", bad],
    "evaluate test split not utf-8": lambda w, bad, folder: evaluate_args(
        w, folder / "r.json", "--model", w["model"], "--data", bad.parent),
    "--template not utf-8": lambda w, bad, folder: infer_args(
        w, "--report", FINDINGS, "--template", bad),
    "--report @file not utf-8": lambda w, bad, folder: infer_args(w, "--report", f"@{bad}"),
    "--model directory": lambda w, bad, folder: [
        "infer", "--model", folder, "--modality", "OSA", "--report", FINDINGS],
    "--adapter directory": lambda w, bad, folder: infer_args(
        w, "--report", FINDINGS, "--adapter", folder),
    "--report @directory": lambda w, bad, folder: infer_args(w, "--report", f"@{folder}"),
    "evaluate --out directory": lambda w, bad, folder: evaluate_args(
        w, folder, "--model", w["model"]),
    "evaluate --out in a missing directory": lambda w, bad, folder: evaluate_args(
        w, folder / "missing" / "report.json", "--model", w["model"]),
}


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_input_is_a_one_line_data_error(workspace, tmp_path, capsys, case):
    bad = tmp_path / "test.jsonl"
    bad.write_bytes(b'{"id": "\xff\xfe"}\n')
    folder = tmp_path / "folder"
    folder.mkdir()
    code = main([str(arg) for arg in UNREADABLE[case](workspace, bad, folder)])
    # found before any work is done: evaluate prints no table first
    assert assert_one_line_data_error(code, capsys) == ""
    assert list(folder.iterdir()) == []


# -- prompt templates ---------------------------------------------------------

# argv for each command that reads --template, given the workspace and an
# output directory
TEMPLATE_COMMANDS = {
    "train": lambda w, folder: [
        "train", "--data", w["data"], "--model", w["model"], "--out", folder / "a.olm",
        "--max-seq-len", "96"],
    "evaluate": lambda w, folder: evaluate_args(w, folder / "r.json", "--model", w["model"]),
    "infer": lambda w, folder: infer_args(w, "--report", FINDINGS),
}


@pytest.mark.parametrize("command", TEMPLATE_COMMANDS)
@pytest.mark.parametrize("slot", ["{}", "{modality:{}}", "{findings:d}", "{findings!x}"])
def test_unfillable_template_is_a_one_line_data_error(workspace, tmp_path, capsys, command, slot):
    template = tmp_path / "template.txt"
    template.write_text(f"findings: {slot}\nimpression:\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = TEMPLATE_COMMANDS[command](workspace, folder) + ["--template", template]
    code = main([str(arg) for arg in argv])
    assert assert_one_line_data_error(code, capsys) == ""
    assert list(folder.iterdir()) == []


# -- non-finite weights -------------------------------------------------------


@pytest.mark.parametrize("command", ["infer", "train"])
def test_non_finite_weights_give_one_line_numeric_error(workspace, tmp_path, command):
    model, vocab = load_bundle(workspace["model"])
    model.params["layers.0.wq"][0, 0] = np.inf
    bad = tmp_path / "inf.olm"
    save_model(model, bad, vocab=vocab)
    argv = {
        "infer": infer_args({"model": bad}, "--report", FINDINGS),
        "train": ["train", "--data", workspace["data"], "--model", bad,
                  "--out", tmp_path / "a.olm", "--epochs", "1", "--max-seq-len", "96"],
    }[command]
    # a fresh process, because pytest would capture the numpy warnings that
    # break the one-line contract; one BLAS thread puts the training step on
    # its shard threads
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "eyedx", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 3
    assert proc.stderr.startswith("numeric error: ") and proc.stderr.count("\n") == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_killed_decode_worker_gives_one_line_numeric_error(
    workspace, tmp_path, capsys, monkeypatch, single_threaded
):
    forward, parent = Model.forward, os.getpid()

    def dying(self, *args, **kw):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return forward(self, *args, **kw)

    monkeypatch.setattr(Model, "forward", dying)
    monkeypatch.setattr(sample, "_shard_count", lambda rows: min(2, rows))
    code = main(evaluate_args(workspace, tmp_path / "r.json", "--model", str(workspace["model"])))
    assert code == 3
    assert capsys.readouterr().err == (
        "numeric error: a decode worker process ended without a result "
        f"(killed by signal {int(signal.SIGKILL)})\n"
    )


def test_ctrl_c_is_one_line_and_exit_130(tmp_path, capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_prepare", interrupted)
    assert main(["prepare", "--synthesize", "2", "--out", str(tmp_path / "data")]) == 130
    assert capsys.readouterr() == ("", "interrupted\n")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_ctrl_c_in_forked_decode_reaps_the_workers_first(
    workspace, tmp_path, capsys, monkeypatch, single_threaded
):
    forward, parent, fork, children = Model.forward, os.getpid(), os.fork, []

    def interrupted(self, *args, **kw):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return forward(self, *args, **kw)

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(Model, "forward", interrupted)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(sample, "_shard_count", lambda rows: min(2, rows))
    code = main(evaluate_args(workspace, tmp_path / "r.json", "--model", str(workspace["model"])))
    assert (code, capsys.readouterr().err) == (130, "interrupted\n")
    assert children
    for pid in children:  # reaped: no longer this process's child
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# -- byte-mutation fuzz --------------------------------------------------------


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A valid file of each kind the CLI reads, around a d_model=32 model."""
    root = tmp_path_factory.mktemp("fuzz")
    parts = split(dedup(synthesize(4, seed=0)), seed=0)
    write_jsonl(parts.train, root / "data" / "train.jsonl")
    write_jsonl(parts.test, root / "data" / "test.jsonl")
    vocab = build([" ".join(render_prompt(r)) for r in parts.train])
    config = ModelConfig(d_model=32, n_layers=2, n_heads=4, n_kv_heads=2, d_ff=64,
                         vocab_size=vocab.size, max_seq_len=64)
    model = Model(config, init_params(config, seed=0))
    save_model(model, root / "model.olm", vocab=vocab)
    qmodel = QuantizedModel(config, quantize_model(model.params, config))
    save_quantized(qmodel, root / "q.olm", vocab=vocab)
    save_adapter(attach(model, rank=2, alpha=4.0), root / "adapter.olm")
    (root / "train.conf").write_text(
        "batch_size = 4\ngrad_accum_steps = 2\nmax_seq_len = 64\nlora_r = 2\n"
        "learning_rate = 0.001\n"
    )
    (root / "template.txt").write_text("modality: {modality}\nfindings: {findings}\nimpression:\n")
    (root / "mutated").mkdir()
    return root


def _fuzz_infer(root, *extra):
    return ["infer", "--model", root / "model.olm", "--modality", "OSA", "--report", FINDINGS,
            "--max-new-tokens", "4", *extra]


# input file -> argv that reads its mutated copy `bad`, given the fixture's root
FUZZ_TARGETS = {
    "model.olm": lambda root, bad: _fuzz_infer(root, "--model", bad),
    "q.olm": lambda root, bad: _fuzz_infer(root, "--model", bad),
    "adapter.olm": lambda root, bad: _fuzz_infer(root, "--adapter", bad),
    "data/test.jsonl": lambda root, bad: [
        "evaluate", "--model", root / "model.olm", "--data", bad.parent,
        "--out", root / "report.json", "--limit", "2", "--max-new-tokens", "4"],
    "train.conf": lambda root, bad: [
        "train", "--data", root / "data", "--model", root / "model.olm",
        "--out", root / "a.olm", "--config", bad, "--epochs", "1"],
    "template.txt": lambda root, bad: _fuzz_infer(root, "--template", bad),
}


@given(
    target=st.sampled_from(sorted(FUZZ_TARGETS)),
    truncate=st.booleans(),
    where=st.integers(min_value=0),
    byte=st.integers(0, 255),
)
@settings(max_examples=300, deadline=None)
def test_mutated_input_keeps_the_cli_contract(fuzz_inputs, target, truncate, where, byte):
    data = (fuzz_inputs / target).read_bytes()
    i = where % len(data)
    data = data[:i] if truncate else data[:i] + bytes([byte]) + data[i + 1 :]
    bad = fuzz_inputs / "mutated" / Path(target).name
    bad.write_bytes(data)
    argv = [str(arg) for arg in FUZZ_TARGETS[target](fuzz_inputs, bad)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)  # an exception escaping here fails the test
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1, err.getvalue()


# -- bench --------------------------------------------------------------------


def test_bench_emits_two_column_table(workspace, capsys):
    code = main(["bench", "--model", str(workspace["model"]), "--data", str(workspace["data"])])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| phase | seconds |"
    assert re.fullmatch(r"\| fine-tune \(\d+ reports, 1 epoch, \d+ tokens\) \| \d+\.\d{2} \|",
                        lines[2])
    assert re.fullmatch(
        r"\| inference per report \(\d+ reports, \d+ tokens generated\) \| \d+\.\d{3} ± \d+\.\d{3} \|",
        lines[3],
    )


def test_bench_fine_tunes_within_the_model_window(workspace, tmp_path, capsys):
    """bench trains at the model's window when it is under TrainConfig's."""
    model = tmp_path / "model.olm"
    argv = ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "adapter.olr"),
            "--epochs", "1", "--max-seq-len", "40", "--lora-r", "2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["bench", "--model", str(model), "--data", str(workspace["data"])]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[0] == "| phase | seconds |"


# -- process-level ------------------------------------------------------------


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "eyedx", "--help"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    for command in ("prepare", "train", "infer", "evaluate", "bench"):
        assert command in proc.stdout
