"""End-to-end tests of the command-line interface via main()."""

import errno
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import typing
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eyedx
from eyedx import cli, shards
from eyedx.cli import main
from eyedx.container import load_bundle, read_container, save_model, save_quantized, write_container
from eyedx.corpus import dedup, render_prompt, split, synthesize, write_jsonl
from eyedx.lora import attach, load_adapter, save_adapter
from eyedx.model import Model, ModelConfig, init_params
from eyedx.quant import QuantizedModel, quantize_model
from eyedx.sample import DecodeParams
from eyedx.tokenizer import build
from eyedx.train import TrainConfig


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


@pytest.mark.parametrize("ratio, side", [("0.01", "train"), ("0.99", "test")])
def test_prepare_with_a_split_side_left_empty_is_a_data_error(tmp_path, capsys, ratio, side):
    out = tmp_path / "corpus"
    code = main(["prepare", "--synthesize", "2", "--ratio", ratio, "--out", str(out)])
    printed, err = capsys.readouterr()
    assert code == 2
    assert err == f"data error: split ratio {ratio} of 6 records leaves the {side} side empty\n"
    assert printed == ""
    assert not out.exists()


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


@pytest.mark.parametrize("flags", [5, [[1]], [1], "possible_misdiagnosis", {"a": 1}, None])
def test_prepare_rejects_malformed_flags_in_one_line(tmp_path, capsys, flags):
    source = tmp_path / "reports.jsonl"
    record = {"id": "a", "modality": "OSA", "findings": "f", "diagnosis": "d", "flags": flags}
    source.write_text(json.dumps(record) + "\n")
    code = main(["prepare", "--input", str(source), "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr()) == (
        2, ("", f"data error: {source}:1: flags must be a list of strings\n"))


@pytest.mark.parametrize("field", ["findings", "diagnosis"])
@pytest.mark.parametrize("value", [None, ["x", "y"], {"a": 1}, 3])
def test_prepare_rejects_text_that_is_not_a_string(tmp_path, capsys, field, value):
    source = tmp_path / "reports.jsonl"
    records = [{"id": i, "modality": "OSA", "findings": f"f{i}", "diagnosis": f"d{i}"}
               for i in range(4)]
    records[2][field] = value
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    code = main(["prepare", "--input", str(source), "--out", str(out)])
    assert (code, capsys.readouterr()) == (
        2, ("", f"data error: {source}:3: {field} must be a string\n"))
    assert not out.exists()


@pytest.mark.parametrize("value", [None, [1, 2], {"a": 1}, 1.5, True, False])
def test_prepare_rejects_an_id_neither_string_nor_integer(tmp_path, capsys, value):
    source = tmp_path / "reports.jsonl"
    records = [{"id": i, "modality": "OSA", "findings": f"f{i}", "diagnosis": f"d{i}"}
               for i in range(4)]
    records[1]["id"] = value
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    code = main(["prepare", "--input", str(source), "--out", str(out)])
    assert (code, capsys.readouterr()) == (
        2, ("", f"data error: {source}:2: id must be a string or an integer\n"))
    assert not out.exists()


def test_prepare_stores_an_integer_id_as_its_digits(tmp_path):
    source = tmp_path / "reports.jsonl"
    records = [{"id": i, "modality": "OSA", "findings": f"f{i}", "diagnosis": f"d{i}"}
               for i in range(5, 9)]
    records[0]["id"] = "x5"
    source.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = tmp_path / "out"
    assert main(["prepare", "--input", str(source), "--out", str(out)]) == 0
    ids = {json.loads(line)["id"] for name in ("train.jsonl", "test.jsonl")
           for line in (out / name).read_text().splitlines()}
    assert ids == {"x5", "6", "7", "8"}


@pytest.mark.parametrize("n", ["0", "-2"])
def test_prepare_synthesize_below_one_is_a_usage_error_naming_the_flag(tmp_path, capsys, n):
    out = tmp_path / "out"
    assert main(["prepare", "--synthesize", n, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "usage error: --synthesize must be >= 1\n")
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "sub"])
@pytest.mark.parametrize("source", ["--synthesize", "--input"])
def test_prepare_out_under_a_file_is_a_data_error_before_the_corpus_is_read(
    tmp_path, capsys, monkeypatch, source, below
):
    """An --out that is a file, or lies under one, is found before the corpus
    is synthesized or read: neither runs."""
    def must_not_run(*args, **kwargs):
        raise AssertionError("the corpus was made before --out was checked")

    monkeypatch.setattr(cli, "synthesize", must_not_run)
    monkeypatch.setattr(cli, "ingest", must_not_run)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    reports = tmp_path / "reports.jsonl"
    write_jsonl(synthesize(3, seed=2), reports)
    value = {"--synthesize": "3", "--input": str(reports)}[source]
    out = taken / below if below else taken
    code = main(["prepare", source, value, "--out", str(out)])
    assert assert_one_line_data_error(code, capsys) == ""
    assert sorted(tmp_path.iterdir()) == [reports, taken]
    assert taken.read_text() == "a file\n"


# -- train --------------------------------------------------------------------


def test_train_writes_adapter_model_and_log(workspace):
    assert workspace["adapter"].exists()
    assert workspace["model"].exists()
    log = (workspace["root"] / "adapter.olm.log").read_text().splitlines()
    assert log
    number = r"\d[\d.e+-]*"
    assert all(re.fullmatch(rf"step=\d+ loss=\d+\.\d{{6}} grad_norm={number} "
                            rf"update_norm={number} skipped=\d+ tokens_per_sec=\d+\.\d", line)
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


# the required arguments of each command with config-field flags
FIELD_COMMANDS = {
    "train": (TrainConfig, ["train", "--data", "d", "--out", "a.olr"]),
    "infer": (DecodeParams, ["infer", "--model", "m", "--report", "r", "--modality", "OSA"]),
    "evaluate": (DecodeParams, ["evaluate", "--model", "m", "--data", "d", "--out", "r.json"]),
}


@pytest.mark.parametrize("command", FIELD_COMMANDS)
def test_every_config_field_is_a_flag_of_its_type(command):
    cls, argv = FIELD_COMMANDS[command]
    parser = cli.build_parser()
    assert cli._from_flags(cls, parser.parse_args(argv)) == cls()  # unset flags: the defaults
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        args = parser.parse_args(argv + ["--" + f.name.replace("_", "-"), "1"])
        assert type(getattr(args, f.name)) is hints[f.name]
        assert cli._from_flags(cls, args) == replace(cls(), **{f.name: hints[f.name](1)})


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


def test_infer_rejects_a_vocab_short_of_vocab_size_before_decoding(
    workspace, tmp_path, capsys, monkeypatch
):
    header, tensors = read_container(workspace["model"])
    header["vocab"] = header["vocab"][:-1]
    bad = tmp_path / "model.olm"
    write_container(bad, header, tensors)

    def no_decoding(*args, **kw):
        raise AssertionError("decoded with a vocabulary short of the model's")

    monkeypatch.setattr(cli, "decode_batch", no_decoding)
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert assert_one_line_data_error(code, capsys) == ""


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


@pytest.mark.parametrize("rank", [float("inf"), 2.5, True, 0, -2, "2", None])
def test_infer_rejects_an_adapter_rank_that_is_not_a_positive_integer(
    workspace, tmp_path, capsys, rank
):
    # the trained adapter holds rank-2 factors, so a rank of 2.5 read as
    # int(2.5) = 2 would load, and int(Infinity) raises OverflowError
    header, tensors = read_container(workspace["adapter"])
    bad = tmp_path / "adapter.olm"
    write_container(bad, {**header, "rank": rank}, tensors)
    code = main(infer_args(workspace, "--report", FINDINGS, "--adapter", str(bad)))
    assert_one_line_data_error(code, capsys)


def u32s(*values) -> bytes:
    return b"".join(n.to_bytes(4, "little") for n in values)


def container_bytes(header: dict, name: str, rest: bytes) -> bytes:
    """A container holding header and one tensor called name, written by
    hand from its rank field on (rest), so a malformed tensor can be made."""
    hdr, nb = json.dumps(header).encode(), name.encode()
    return b"OLM2" + u32s(1, len(hdr)) + hdr + u32s(len(nb)) + nb + rest


MALFORMED_TENSORS = {
    "rank above 2": u32s(3, 2, 2, 2),
    "int4 payload off its shape": u32s(1, 8) + bytes([2]) + u32s(4, 3) + bytes(12) + u32s(0),
    "unknown dtype code": u32s(1, 2) + bytes([7]),
}


@pytest.mark.parametrize("brk", ["\n", "\r"], ids=["newline", "carriage-return"])
@pytest.mark.parametrize("case", [*MALFORMED_TENSORS, "adapter tensor of no target"])
def test_a_line_break_in_a_file_tensor_name_keeps_the_error_on_one_line(
    workspace, tmp_path, capsys, case, brk
):
    name = f"layers.0{brk}wq"
    bad = tmp_path / "bad.olm"
    if case in MALFORMED_TENSORS:
        bad.write_bytes(container_bytes({}, name, MALFORMED_TENSORS[case]))
        argv = ["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS]
    else:
        header, tensors = read_container(workspace["adapter"])
        write_container(bad, header, {**tensors, name: np.zeros(2, dtype=np.float32)})
        argv = infer_args(workspace, "--report", FINDINGS, "--adapter", str(bad))
    code = main(argv)
    _, err = capsys.readouterr()
    assert code == 2
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    assert repr(name) in err


def test_infer_rejects_a_huge_layer_count_within_bounded_memory(workspace, tmp_path):
    """A header's n_layers of 10**20 is a data error found before the model
    lists the tensors such a model takes. The command runs in a process that
    caps its own address space, so a model that starts listing them fails
    there with MemoryError instead of exhausting the machine's memory."""
    header, tensors = read_container(workspace["model"])
    header["config"]["n_layers"] = 10**20
    bad = tmp_path / "layers.olm"
    write_container(bad, header, tensors)
    script = (
        "import resource, sys\n"
        "cap = 1 << 30\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "from eyedx.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", script, "infer", "--model", str(bad), "--modality", "OSA",
         "--report", FINDINGS], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 2, proc.stderr[-500:]
    assert proc.stderr.startswith("data error: ") and proc.stderr.count("\n") == 1
    assert "missing tensors" in proc.stderr


def test_an_integer_past_the_digit_limit_in_a_file_is_a_data_error(workspace, tmp_path, capsys):
    # Python parses an integer of more than 4300 digits to a ValueError that
    # is not a JSONDecodeError
    huge = "9" * 5000
    header, tensors = read_container(workspace["model"])
    bad = tmp_path / "model.olm"
    write_container(bad, header, tensors)
    data = bad.read_bytes()
    n = int.from_bytes(data[8:12], "little")
    text = data[12 : 12 + n].replace(b'"kind"', f'"x": {huge}, "kind"'.encode(), 1)
    bad.write_bytes(data[:8] + len(text).to_bytes(4, "little") + text + data[12 + n :])
    code = main(["infer", "--model", str(bad), "--modality", "OSA", "--report", FINDINGS])
    assert_one_line_data_error(code, capsys)

    source = tmp_path / "reports.jsonl"
    source.write_text('{"id": ' + huge + ', "modality": "OSA", "findings": "f", "diagnosis": "d"}\n')
    code = main(["prepare", "--input", str(source), "--out", str(tmp_path / "out")])
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
    modalities = json.loads(out.read_text())["model"]["by_modality"]
    assert [line.split(" | ")[0] for line in lines[3:3 + len(modalities)]] == [
        f"| model/{modality}" for modality in modalities]
    assert lines[3 + len(modalities)] == f"wrote {out}"


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


def test_evaluate_rows_of_one_name_are_a_usage_error(workspace, tmp_path, capsys):
    """Rows are named by file stem, and the report is keyed by row name: two
    models both called model.olm would leave one row in the report."""
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "model.olm").write_bytes(workspace["model"].read_bytes())
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out, "--model", str(tmp_path / "a" / "model.olm"),
        "--model", str(tmp_path / "b" / "model.olm"),
    ))
    assert code == 1
    assert capsys.readouterr() == (
        "", "usage error: two rows are named 'model'; the report keys rows by name\n")
    assert not out.exists()


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_evaluate_limit_below_one_is_a_usage_error_before_any_file_is_read(
    workspace, tmp_path, capsys, limit
):
    """--limit is checked with the other usage checks, ahead of the test split:
    a data directory without test.jsonl does not turn it into a data error."""
    out = tmp_path / "report.json"
    argv = ["evaluate", "--model", str(workspace["model"]), "--data", str(tmp_path),
            "--out", str(out), "--limit", limit]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "usage error: --limit must be >= 1\n")
    assert not out.exists()


def test_evaluate_prints_each_models_decode_time_after_the_report(workspace, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(evaluate_args(
        workspace, out,
        "--model", str(workspace["model"]), "--model", str(workspace["model"]),
        "--adapter", "-", "--adapter", str(workspace["adapter"]),
    ))
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3] == f"wrote {out}"
    payload = json.loads(out.read_text())
    for name, line in zip(["model", "model+adapter"], lines[-2:]):
        generated = sum(record["n_generated"] for record in payload[name]["records"])
        assert generated > 0
        pattern = rf"{re.escape(name)}: 3 records, {generated} tokens generated in \d+\.\d\d s"
        assert re.fullmatch(pattern, line), line


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


@pytest.mark.parametrize("command", ["train", "infer", "evaluate"])
def test_negative_seed_is_a_one_line_data_error(workspace, tmp_path, capsys, command):
    out = tmp_path / "out"
    model, data = str(workspace["model"]), str(workspace["data"])
    argv = {
        "train": ["train", "--data", data, "--out", str(out)],
        "infer": infer_args(workspace, "--report", FINDINGS),
        "evaluate": evaluate_args(workspace, out, "--model", model),
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


def test_train_with_a_base_model_rejects_model_out(workspace, tmp_path, capsys):
    """--model-out names the file of a fresh base model; beside --model no
    base model is written, so the pair is a usage error and nothing is."""
    argv = ["train", "--data", str(workspace["data"]), "--out", str(tmp_path / "adapter.olr"),
            "--model", str(workspace["model"]), "--model-out", str(tmp_path / "model.olm"),
            "--epochs", "1", "--max-seq-len", "96", "--lora-r", "2"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "", "usage error: argument --model-out: not allowed with argument --model\n")
    assert list(tmp_path.iterdir()) == []  # no adapter, log or base model


def test_train_on_a_base_model_takes_its_window_unless_told_otherwise(workspace, tmp_path, capsys):
    """train --model with no max_seq_len from a flag or --config trains at the
    model's window, as if it were given; a larger one given is a data error."""
    argv = ["train", "--data", str(workspace["data"]), "--model", str(workspace["model"]),
            "--epochs", "1", "--lora-r", "2"]
    assert main([*argv, "--out", str(tmp_path / "default.olr")]) == 0
    assert main([*argv, "--out", str(tmp_path / "given.olr"), "--max-seq-len", "96"]) == 0
    assert (tmp_path / "default.olr").read_bytes() == (tmp_path / "given.olr").read_bytes()
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "wider.olr"), "--max-seq-len", "97"]) == 2
    assert capsys.readouterr() == (
        "", "data error: max_seq_len 97 exceeds the model's window 96\n")


def test_train_that_fails_without_a_base_model_writes_no_base_model(workspace, tmp_path, capsys):
    """Without --model the base model is saved and announced only once
    training has run: a failed run leaves no model.olm and prints nothing."""
    out = tmp_path / "adapter.olr"
    argv = ["train", "--data", str(workspace["data"]), "--out", str(out), "--max-seq-len", "1"]
    assert assert_one_line_data_error(main(argv), capsys) == ""
    assert list(tmp_path.iterdir()) == []  # no model.olm, adapter or log


# the output flags of a fresh-model train run, given an existing empty folder,
# where one output is a directory
UNWRITABLE_TRAIN_OUTPUTS = {
    "--out directory": lambda folder: ["--out", folder],
    "--model-out directory": lambda folder: [
        "--out", folder / "adapter.olr", "--model-out", folder],
    "--log directory": lambda folder: ["--out", folder / "adapter.olr", "--log", folder],
}


@pytest.mark.parametrize("case", UNWRITABLE_TRAIN_OUTPUTS)
def test_train_checks_its_outputs_before_it_trains(workspace, tmp_path, capsys, case):
    """An output that is a directory is a one-line data error found before
    the first step: train prints no step line and writes no file, neither
    the base model nor the adapter nor the log."""
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = ["train", "--data", workspace["data"], "--epochs", "1", "--max-seq-len", "96",
            "--lora-r", "2", *UNWRITABLE_TRAIN_OUTPUTS[case](folder)]
    assert assert_one_line_data_error(main([str(arg) for arg in argv]), capsys) == ""
    assert list(tmp_path.iterdir()) == [folder]
    assert list(folder.iterdir()) == []


# a command's argv, given the workspace and an existing empty folder, where
# one output lies in a directory that is missing, and the files the command
# then writes under the folder
MISSING_DIRECTORY_OUTPUTS = {
    "train --out": lambda w, folder: (
        ["train", "--data", w["data"], "--out", folder / "missing" / "adapter.olr"],
        ["missing/adapter.olr", "missing/adapter.olr.log", "missing/model.olm"]),
    "train --model-out": lambda w, folder: (
        ["train", "--data", w["data"], "--out", folder / "adapter.olr",
         "--model-out", folder / "missing" / "model.olm"],
        ["adapter.olr", "adapter.olr.log", "missing/model.olm"]),
    "train --log": lambda w, folder: (
        ["train", "--data", w["data"], "--out", folder / "adapter.olr",
         "--log", folder / "missing" / "train.log"],
        ["adapter.olr", "missing/train.log", "model.olm"]),
    "evaluate --out": lambda w, folder: (
        evaluate_args(w, folder / "missing" / "report.json", "--model", w["model"]),
        ["missing/report.json"]),
}


@pytest.mark.parametrize("case", MISSING_DIRECTORY_OUTPUTS)
def test_an_output_in_a_missing_directory_is_written_into_the_directory_made(
    workspace, tmp_path, capsys, case
):
    """A missing directory is no error: write_atomic makes it, so the command
    runs and writes its files, that one among them, where they were named."""
    folder = tmp_path / "folder"
    folder.mkdir()
    argv, written = MISSING_DIRECTORY_OUTPUTS[case](workspace, folder)
    if argv[0] == "train":
        argv += ["--epochs", "1", "--max-seq-len", "96", "--lora-r", "2"]
    assert main([str(arg) for arg in argv]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(path.relative_to(folder).as_posix()
                  for path in folder.rglob("*") if path.is_file()) == written


# a command's argv, given the workspace, an existing empty folder and a file,
# where one output lies under that file
OUTPUTS_UNDER_A_FILE = {
    "train --out": lambda w, folder, taken: [
        "train", "--data", w["data"], "--out", taken / "adapter.olr"],
    "train --model-out": lambda w, folder, taken: [
        "train", "--data", w["data"], "--out", folder / "adapter.olr",
        "--model-out", taken / "sub" / "model.olm"],
    "train --log": lambda w, folder, taken: [
        "train", "--data", w["data"], "--out", folder / "adapter.olr", "--log", taken / "t.log"],
    "evaluate --out": lambda w, folder, taken: evaluate_args(
        w, taken / "sub" / "report.json", "--model", w["model"]),
}


@pytest.mark.parametrize("case", OUTPUTS_UNDER_A_FILE)
def test_an_output_under_a_file_is_a_one_line_data_error_before_any_work(
    workspace, tmp_path, capsys, case
):
    folder = tmp_path / "folder"
    folder.mkdir()
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    argv = OUTPUTS_UNDER_A_FILE[case](workspace, folder, taken)
    code = main([str(arg) for arg in argv])
    assert assert_one_line_data_error(code, capsys) == ""
    assert list(folder.iterdir()) == []
    assert taken.read_text() == "a file\n"


# a command and its file flags, given a folder that holds model.olm,
# adapter.olr, data/, a template t.txt and a config c.cfg, where an output
# resolves to the file of another of the command's flags
COLLIDING_FILES = {
    "train --out on the default --model-out": lambda f: ["train", "--out", f / "model.olm"],
    "train --out and --log": lambda f: ["train", "--out", f / "a.olr", "--log", f / "a.olr"],
    "train --model-out and --log": lambda f: [
        "train", "--out", f / "a.olr", "--model-out", f / "b", "--log", f / "data" / ".." / "b"],
    "train --model and --out": lambda f: [
        "train", "--model", f / "model.olm", "--out", f / "model.olm"],
    "train --model and --log": lambda f: [
        "train", "--model", f / "model.olm", "--out", f / "a.olr", "--log", f / "model.olm"],
    "train --out and the train split": lambda f: ["train", "--out", f / "data" / "train.jsonl"],
    "train --log and --template": lambda f: [
        "train", "--out", f / "a.olr", "--template", f / "t.txt", "--log", f / "t.txt"],
    "train --out and --config": lambda f: [
        "train", "--config", f / "c.cfg", "--out", f / "c.cfg"],
    "evaluate --out and --model": lambda f: [
        "evaluate", "--model", f / "model.olm", "--out", f / "model.olm"],
    "evaluate --out and --adapter": lambda f: [
        "evaluate", "--model", f / "model.olm", "--adapter", f / "adapter.olr",
        "--out", f / "adapter.olr"],
    "evaluate --out and the test split": lambda f: [
        "evaluate", "--model", f / "model.olm", "--out", f / "data" / "test.jsonl"],
    "evaluate --out and --template": lambda f: [
        "evaluate", "--model", f / "model.olm", "--template", f / "t.txt", "--out", f / "t.txt"],
    "prepare --input and the train split": lambda f: [
        "prepare", "--input", f / "data" / "train.jsonl", "--out", f / "data"],
    "prepare --input and the test split": lambda f: [
        "prepare", "--input", f / "data" / "test.jsonl", "--out", f / "data" / ".." / "data"],
}


@pytest.mark.parametrize("case", COLLIDING_FILES)
def test_an_output_that_names_another_file_of_the_command_is_a_usage_error(
    workspace, tmp_path, capsys, case
):
    """train's adapter, base model and log, evaluate's report and prepare's
    split, each go to a file of their own: an output that resolves to another
    output or to an input is a one-line usage error before any work, and no
    file is written."""
    shutil.copytree(workspace["data"], tmp_path / "data")
    shutil.copy(workspace["model"], tmp_path / "model.olm")
    shutil.copy(workspace["adapter"], tmp_path / "adapter.olr")
    (tmp_path / "t.txt").write_text("Modality: {modality}\nFindings: {findings}\nDiagnosis:\n")
    (tmp_path / "c.cfg").write_text("lora_r = 2\n")

    def files():
        return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

    before = files()
    command, *flags = COLLIDING_FILES[case](tmp_path)
    data = ["--data", str(tmp_path / "data")]
    rest = {"prepare": [],
            "train": [*data, "--epochs", "1", "--max-seq-len", "96", "--lora-r", "2"],
            "evaluate": [*data, "--limit", "2", "--max-new-tokens", "4", "--top-k", "1"]}[command]
    code = main([command, *map(str, flags), *rest])
    printed, err = capsys.readouterr()
    assert (code, printed) == (1, "")
    assert re.fullmatch(r"usage error: --[a-z-]+ and --[a-z-]+ both name \S+\n", err), err
    assert files() == before


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


# argv for each input flag, given the workspace, a path that names no file
# and an existing empty folder, and the file the command then misses
MISSING_INPUTS = {
    "prepare --input": lambda w, ghost, folder: (
        ["prepare", "--input", ghost, "--out", folder / "out"], ghost),
    "train --data": lambda w, ghost, folder: (
        ["train", "--data", ghost, "--out", folder / "a.olr"], ghost / "train.jsonl"),
    "train --config": lambda w, ghost, folder: (
        ["train", "--data", w["data"], "--model", w["model"], "--out", folder / "a.olr",
         "--config", ghost], ghost),
    "train --template": lambda w, ghost, folder: (
        ["train", "--data", w["data"], "--model", w["model"], "--out", folder / "a.olr",
         "--template", ghost], ghost),
    "train --model": lambda w, ghost, folder: (
        ["train", "--data", w["data"], "--model", ghost, "--out", folder / "a.olr"], ghost),
    "infer --model": lambda w, ghost, folder: (
        infer_args({"model": ghost}, "--report", FINDINGS), ghost),
    "infer --adapter": lambda w, ghost, folder: (
        infer_args(w, "--report", FINDINGS, "--adapter", ghost), ghost),
    "infer --template": lambda w, ghost, folder: (
        infer_args(w, "--report", FINDINGS, "--template", ghost), ghost),
    "infer --report @file": lambda w, ghost, folder: (
        infer_args(w, "--report", f"@{ghost}"), ghost),
    "evaluate --data": lambda w, ghost, folder: (
        evaluate_args({"data": ghost}, folder / "r.json", "--model", w["model"]),
        ghost / "test.jsonl"),
    "evaluate --model": lambda w, ghost, folder: (
        evaluate_args(w, folder / "r.json", "--model", ghost), ghost),
    "evaluate --adapter": lambda w, ghost, folder: (
        evaluate_args(w, folder / "r.json", "--model", w["model"], "--adapter", ghost), ghost),
    "evaluate --template": lambda w, ghost, folder: (
        evaluate_args(w, folder / "r.json", "--model", w["model"], "--template", ghost), ghost),
}


@pytest.mark.parametrize("under_a_file", [False, True])
@pytest.mark.parametrize("case", MISSING_INPUTS)
def test_a_missing_input_is_a_data_error_naming_its_path(
    workspace, tmp_path, capsys, case, under_a_file
):
    """Every input goes through one reader, so a missing one, or one under a
    file, reads the same whatever its flag, and no file is written."""
    folder = tmp_path / "folder"
    folder.mkdir()
    ghost = tmp_path / "ghost"
    if under_a_file:
        (tmp_path / "taken").write_text("a file\n")
        ghost = tmp_path / "taken" / "ghost"
    argv, missing = MISSING_INPUTS[case](workspace, ghost, folder)
    code = main([str(arg) for arg in argv])
    assert (code, capsys.readouterr()) == (2, ("", f"data error: {missing} not found\n"))
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
    step, parent = Model.step, os.getpid()

    def dying(self, *args, **kw):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return step(self, *args, **kw)

    monkeypatch.setattr(Model, "step", dying)
    monkeypatch.setattr(shards, "_shard_count", lambda rows: min(2, rows))
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


def test_ctrl_c_while_the_cli_loads_is_one_line_and_exit_130():
    """A Ctrl-C that lands while python -m eyedx still imports eyedx.cli,
    before main's handler is in place, ends as one during a command does."""
    script = (
        "import runpy, sys\n"
        "class Interrupt:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'eyedx.cli':\n"
        "            raise KeyboardInterrupt\n"
        "sys.meta_path.insert(0, Interrupt())\n"
        "runpy.run_module('eyedx', run_name='__main__')\n"
    )
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, "prepare", "--synthesize", "2"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (130, "interrupted\n")


@pytest.mark.parametrize("when, ends", [("in main", (130, "interrupted\n")), ("at exit", (0, ""))])
def test_ctrl_c_outside_mains_handlers(when, ends):
    """python -m eyedx, with main stubbed: a Ctrl-C that escapes main prints
    interrupted and exits 130; one that lands as the interpreter exits, once
    main has returned, leaves main's status and prints nothing."""
    stub = "interrupt() or 0" if when == "in main" else "atexit.register(interrupt) and 0"
    script = (
        "import atexit, os, runpy, signal\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
        "import eyedx.cli\n"
        "def interrupt():\n"
        "    os.kill(os.getpid(), signal.SIGINT)\n"
        f"eyedx.cli.main = lambda: {stub}\n"
        "runpy.run_module('eyedx', run_name='__main__')\n"
    )
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stderr) == ends


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
def test_ctrl_c_in_forked_decode_reaps_the_workers_first(
    workspace, tmp_path, capsys, monkeypatch, single_threaded
):
    step, parent, fork, children = Model.step, os.getpid(), os.fork, []

    def interrupted(self, *args, **kw):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return step(self, *args, **kw)

    def recording_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(Model, "step", interrupted)
    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(shards, "_shard_count", lambda rows: min(2, rows))
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


# -- header-field fuzz ---------------------------------------------------------


HOSTILE_VALUES = [0, -1, 2.5, "x", None, [], {}, True, 10**20, float("nan"), float("inf"),
                  float("-inf")]
HEADER_FUZZ = (
    "import contextlib, io, json, resource, sys\n"
    "cap = 1 << 30\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "from eyedx.cli import main\n"
    "outcomes = []\n"
    "for argv in json.load(sys.stdin):\n"
    "    err = io.StringIO()\n"
    "    try:\n"
    "        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
    "            code = main(argv)\n"
    "    except BaseException as exc:\n"
    "        code = 'escaped ' + repr(exc)\n"
    "    outcomes.append([code, err.getvalue()])\n"
    "json.dump(outcomes, sys.stdout)\n"
)


def test_hostile_header_fields_keep_the_cli_contract(fuzz_inputs, tmp_path):
    """Each header field of the float, int4 and adapter files, set to each
    hostile value or left out, then read through infer: exit 0, 2 or 3 with
    at most one stderr line. The cases run in a process that caps its own
    address space, so a field that makes a reader allocate without bound
    fails here instead of exhausting the machine's memory."""
    cases = []
    for target in ("model.olm", "q.olm", "adapter.olm"):
        header, tensors = read_container(fuzz_inputs / target)
        keys = [(None, key) for key in header if key != "vocab"]
        keys += [("config", key) for key in header.get("config", {})]
        for section, key in keys:
            for value in [*HOSTILE_VALUES, "absent"]:
                bad = json.loads(json.dumps(header))  # a deep copy
                inner = bad[section] if section else bad
                if value == "absent":
                    del inner[key]
                else:
                    inner[key] = value
                label = f"{target}:{section or ''}.{key}={value!r}"
                file = tmp_path / f"{len(cases)}.olm"
                write_container(file, bad, tensors)
                cases.append((label, [str(a) for a in FUZZ_TARGETS[target](fuzz_inputs, file)]))
    assert len(cases) == 13 * (2 * 11 + 3)
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", HEADER_FUZZ], capture_output=True, text=True,
                          env=env, timeout=300, input=json.dumps([argv for _, argv in cases]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    broken = [(label, code, err) for (label, _), (code, err) in zip(cases, json.loads(proc.stdout))
              if code not in (0, 2, 3) or err.count("\n") > 1]
    assert broken == []


# -- process-level ------------------------------------------------------------


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_pipe_exits_141_in_silence(tmp_path, unbuffered):
    read, write = os.pipe()
    os.close(read)  # the reader is gone before anything is printed
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "eyedx", "prepare", "--synthesize", "6", "--seed", "0",
             "--out", str(tmp_path / "data")],
            stdout=write, stderr=subprocess.PIPE, env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, b"")
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == [
        "manifest.json", "test.jsonl", "train.jsonl"]


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "eyedx", "--help"], capture_output=True, text=True,
    )
    assert proc.returncode == 0
    listed = re.findall(r"^ {4}(\w+) ", proc.stdout, flags=re.M)
    assert listed == ["prepare", "train", "infer", "evaluate"]


def test_bench_is_no_longer_a_command(workspace, capsys):
    assert main(["bench", "--model", str(workspace["model"]), "--data", str(workspace["data"])]) == 1
    printed, err = capsys.readouterr()
    assert printed == ""
    assert err.startswith("usage error: argument command: invalid choice: 'bench'")
    assert err.count("\n") == 1


# -- whole-or-nothing writes ---------------------------------------------------

# Each case's code runs in a subprocess that ignores SIGXFSZ and whose cap(n)
# lowers that process's own RLIMIT_FSIZE to n bytes, so the write of the file
# at TARGET fails with EFBIG there alone; `hook` names what cap runs after in
# a command, once the command's earlier files are written
CAPPED = """
import errno, resource, signal, sys
from dataclasses import dataclass
import numpy as np
from eyedx import cli, container, corpus, rouge
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
TARGET, DATA = sys.argv[1], sys.argv[2]


def cap(n=16):
    resource.setrlimit(resource.RLIMIT_FSIZE, (n, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


def hook(name):
    original = getattr(cli, name)

    def capping(*args):
        out = original(*args)
        cap()
        return out
    setattr(cli, name, capping)


def efbig(write):
    try:
        write()
    except OSError as exc:
        sys.exit(0 if exc.errno == errno.EFBIG else 4)
    sys.exit(5)


@dataclass
class Report:
    text: str
"""

WRITES = {
    "write_container": ("model.olm", "cap(); efbig(lambda: container.write_container("
                        "TARGET, {}, {'w': np.ones((8, 8), np.float32)}))"),
    "write_jsonl": ("records.jsonl",
                    "records = corpus.synthesize(2, 0); cap(); "
                    "efbig(lambda: corpus.write_jsonl(records, TARGET))"),
    "write_report": ("report.json", "cap(); efbig(lambda: rouge.write_report("
                     "TARGET, [('m', Report('x' * 100))]))"),
    # the manifest's counts are taken once train.jsonl and test.jsonl are written
    "prepare manifest": ("manifest.json", "hook('modality_counts'); sys.exit(cli.main(["
                         "'prepare', '--synthesize', '6', '--seed', '0', '--out', DATA]))"),
    "train log": ("adapter.olr.log", "hook('save_adapter'); sys.exit(cli.main(["
                  "'train', '--data', DATA, '--out', DATA + '/adapter.olr', '--epochs', '1', "
                  "'--max-seq-len', '96', '--lora-r', '2']))"),
}


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer", list(WRITES))
def test_a_failed_write_leaves_no_truncated_file(workspace, tmp_path, writer, existing):
    """A write that fails partway (here past a file size limit) leaves no
    file of that write: no target and no temporary, and a target that was
    there keeps its bytes. A command reports it as a one-line data error."""
    name, code = WRITES[writer]
    data = tmp_path / "data"
    data.mkdir()
    for part in ("train.jsonl", "test.jsonl"):
        (data / part).write_bytes((workspace["data"] / part).read_bytes())
    target = data / name
    old = b"the bytes of an earlier run\n"
    if existing:
        target.write_bytes(old)
    before = {p.name for p in data.iterdir()}
    src = str(Path(eyedx.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", CAPPED + code, str(target), str(data)],
                          capture_output=True, text=True, env=env, timeout=300)
    if " " in writer:  # a command
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stderr == f"data error: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}\n"
    else:
        assert proc.returncode == 0, proc.stderr[-500:]
    left = {p.name for p in data.iterdir()} - before
    assert not [n for n in left if n.endswith(".tmp")]
    if existing:
        assert target.read_bytes() == old
    else:
        assert not target.exists()
